import numpy as np
import pytest

from quasieq.errors import DimensionError, DomainError
from quasieq.fractional import best_response_residual
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.oracles import (
    AffineFractionalInstance,
    AffineFractionalOracle,
    EquilibriumOracle,
    affine_vi_instance,
    fractional_diagonal_subgradient,
    fractional_value,
)
from quasieq.sets import BoxSet


class TestInstanceValidation:
    def test_shape_mismatch(self, unit_box):
        with pytest.raises(DimensionError):
            AffineFractionalInstance(
                A=[[1.0, 0.0]], b=[0.0], A1=[[1.0]], b1=[0.0], c=[1.0], d=1.0,
                box=unit_box,
            )

    def test_vector_length_mismatch(self):
        box = BoxSet.uniform(2, 1.0, 3.0)
        with pytest.raises(DimensionError):
            AffineFractionalInstance(
                A=np.eye(2), b=[0.0], A1=np.eye(2), b1=[0.0, 0.0], c=[1.0, 0.0],
                d=1.0, box=box,
            )

    def test_denominator_must_be_positive_on_box(self):
        box = BoxSet.uniform(2, 1.0, 3.0)
        with pytest.raises(DomainError):
            AffineFractionalInstance(
                A=np.eye(2), b=[0.0, 0.0], A1=np.eye(2), b1=[0.0, 0.0],
                c=[-1.0, -1.0], d=0.0, box=box,
            )

    def test_denominator_check_uses_worst_corner(self):
        box = BoxSet.uniform(1, 1.0, 3.0)
        # c < 0, so the worst corner is hi = 3: need d > 3
        with pytest.raises(DomainError):
            AffineFractionalInstance(
                A=[[1.0]], b=[0.0], A1=[[1.0]], b1=[0.0], c=[-1.0], d=2.5, box=box
            )
        inst = AffineFractionalInstance(
            A=[[1.0]], b=[0.0], A1=[[1.0]], b1=[0.0], c=[-1.0], d=3.5, box=box
        )
        assert inst.dim == 1

    def test_vi_shape_mismatch(self, unit_box):
        with pytest.raises(DimensionError):
            affine_vi_instance(M=[[1.0, 0.0]], r=[0.0], box=unit_box)

    def test_vi_vector_length_mismatch(self, unit_box):
        with pytest.raises(DimensionError):
            affine_vi_instance(M=[[1.0]], r=[0.0, 1.0], box=unit_box)

    def test_rejects_nan(self, unit_box):
        with pytest.raises(ValueError):
            affine_vi_instance(M=[[np.nan]], r=[0.0], box=unit_box)

    @pytest.mark.parametrize("d", [np.inf, -np.inf, np.nan, True, "2"])
    def test_rejects_non_finite_d(self, unit_box, d):
        # d = inf would pass the denominator check and break every ratio
        with pytest.raises(ValueError, match="d must be finite"):
            AffineFractionalInstance(
                A=[[1.0]], b=[0.0], A1=[[1.0]], b1=[0.0], c=[1.0], d=d, box=unit_box
            )


class TestFractionalValues:
    def test_worked_values(self, e1):
        assert fractional_value(e1, np.array([1.0]), np.array([3.0])) == pytest.approx(0.5)
        assert fractional_value(e1, np.array([2.0]), np.array([1.0])) == pytest.approx(
            -2.0 / 3.0
        )

    def test_diagonal_is_zero(self, e1, rng):
        for _ in range(20):
            x = rng.uniform(1.0, 3.0, size=1)
            assert fractional_value(e1, x, x) == 0.0

    def test_diagonal_zero_on_random_instances(self, rng):
        cfg = GeneratorConfig(n=4, count=5, seed=17)
        for inst in generate_instances(cfg):
            x = rng.uniform(1.0, 3.0, size=4)
            assert abs(fractional_value(inst, x, x)) <= 1e-14

    def test_worked_subgradients(self, e1):
        np.testing.assert_allclose(
            fractional_diagonal_subgradient(e1, np.array([1.0])), [1.0], atol=1e-15
        )
        np.testing.assert_allclose(
            fractional_diagonal_subgradient(e1, np.array([2.0])), [4.0 / 3.0],
            atol=1e-15,
        )

    def test_subgradient_matches_closed_form(self, rng):
        # g = p - ((p'x + b1'u)/(c'x + d)) c with u = Ax + b and p = A1'u,
        # evaluated in the same order of operations, so equal bit for bit
        for inst in generate_instances(GeneratorConfig(n=6, count=5, seed=404)):
            for _ in range(5):
                x = rng.uniform(1.0, 3.0, size=6)
                u = inst.A @ x + inst.b
                p = inst.A1.T @ u
                ratio = (float(p @ x) + float(inst.b1 @ u)) / (float(inst.c @ x) + inst.d)
                np.testing.assert_array_equal(
                    fractional_diagonal_subgradient(inst, x), p - ratio * inst.c
                )

    def test_subgradient_zero_denominator_gradient(self, unit_box):
        # with c = 0 the ratio is affine and the formula collapses to A1^T (Ax + b)
        inst = AffineFractionalInstance(
            A=[[2.0]], b=[1.0], A1=[[3.0]], b1=[0.5], c=[0.0], d=1.0, box=unit_box
        )
        x = np.array([1.5])
        expected = inst.A1.T @ (inst.A @ x + inst.b)
        np.testing.assert_allclose(
            fractional_diagonal_subgradient(inst, x), expected, atol=1e-14
        )

    def test_quasiconvex_slices(self, rng):
        # f(x, .) is a ratio of affine maps composed with a linear functional,
        # so every sublevel set along a segment must be an interval
        cfg = GeneratorConfig(n=3, count=5, seed=55)
        for inst in generate_instances(cfg):
            x = rng.uniform(1.0, 3.0, size=3)
            y0 = rng.uniform(1.0, 3.0, size=3)
            y1 = rng.uniform(1.0, 3.0, size=3)
            ends = max(
                fractional_value(inst, x, y0), fractional_value(inst, x, y1)
            )
            for t in np.linspace(0.0, 1.0, 21):
                mid = fractional_value(inst, x, (1 - t) * y0 + t * y1)
                assert mid <= ends + 1e-10


class TestSubgradientInequality:
    def test_strict_separation_on_samples(self, rng):
        # whenever f(x, y) < 0 the diagonal subgradient must separate y from x
        cfg = GeneratorConfig(n=5, count=5, seed=2025)
        for inst in generate_instances(cfg):
            xs = rng.uniform(1.0, 3.0, size=(200, 5))
            ys = rng.uniform(1.0, 3.0, size=(200, 5))
            for x, y in zip(xs, ys):
                if fractional_value(inst, x, y) < -1e-10:
                    g = fractional_diagonal_subgradient(inst, x)
                    assert float(np.dot(g, y - x)) < 0.0


def _vi_value(M, r, x, y):
    """f(x, y) = <Mx + r, y - x>, evaluated directly."""
    return float((M @ x + r) @ (y - x))


class TestVIValues:
    def test_worked_values(self, t1):
        assert fractional_value(t1, np.array([1.0]), np.array([3.0])) == -2.0
        assert fractional_value(t1, np.array([2.0]), np.array([2.0])) == 0.0

    def test_worked_subgradient(self, t1):
        np.testing.assert_array_equal(
            fractional_diagonal_subgradient(t1, np.array([3.0])), [1.0]
        )

    def test_fractional_reduction_matches_vi(self, rng):
        # A1 = I, b1 = 0, c = 0, d = 1 makes the fractional bifunction the
        # affine VI's <Mx + r, y - x>, with subgradient Mx + r
        box = BoxSet.uniform(3, 1.0, 3.0)
        M = rng.uniform(0.0, 1.0, size=(3, 3))
        r = rng.uniform(-1.0, 1.0, size=3)
        vi = affine_vi_instance(M=M, r=r, box=box)
        np.testing.assert_array_equal(vi.A, M)
        np.testing.assert_array_equal(vi.b, r)
        np.testing.assert_array_equal(vi.A1, np.eye(3))
        np.testing.assert_array_equal(vi.b1, np.zeros(3))
        np.testing.assert_array_equal(vi.c, np.zeros(3))
        assert vi.d == 1.0
        for _ in range(10):
            x = rng.uniform(1.0, 3.0, size=3)
            y = rng.uniform(1.0, 3.0, size=3)
            assert abs(fractional_value(vi, x, y) - _vi_value(M, r, x, y)) <= 1e-12
            np.testing.assert_allclose(
                fractional_diagonal_subgradient(vi, x), M @ x + r, atol=1e-12,
            )


class TestOracleClasses:
    def test_protocol_conformance(self, e1, t1):
        assert isinstance(AffineFractionalOracle(e1), EquilibriumOracle)
        assert isinstance(AffineFractionalOracle(t1), EquilibriumOracle)

        class NoResidual:
            box = e1.box

            def diagonal_subgradient(self, x):
                return np.zeros(1)

        class NoProbe(NoResidual):
            def residual(self, x):
                return 0.0

        assert not isinstance(NoResidual(), EquilibriumOracle)
        assert not isinstance(NoProbe(), EquilibriumOracle)

    def test_fractional_oracle_delegates(self, e1):
        oracle = AffineFractionalOracle(e1)
        assert oracle.box is e1.box
        x = np.array([3.0])
        assert oracle.residual(x) == best_response_residual(e1, x)[1]
        np.testing.assert_array_equal(
            oracle.diagonal_subgradient(x), fractional_diagonal_subgradient(e1, x)
        )

    def test_probe_is_subgradient_residual_and_best_response(self):
        point_rng = np.random.default_rng(75)
        for inst in generate_instances(GeneratorConfig(n=4, count=5, seed=75)):
            oracle = AffineFractionalOracle(inst)
            for _ in range(5):
                x = point_rng.uniform(1.0, 3.0, size=4)
                y, residual = best_response_residual(inst, x)
                # without a start the probe is the cold best response, bit for bit
                g, probed, y_probed = oracle.probe(list(x))
                np.testing.assert_array_equal(g, oracle.diagonal_subgradient(x))
                assert probed == oracle.residual(x)
                np.testing.assert_array_equal(y_probed, y)
                for start in (inst.box.lo, inst.box.hi, y):
                    _, warm, y_warm = oracle.probe(x, start)
                    assert warm == pytest.approx(residual, rel=1e-12, abs=1e-12)
                    assert inst.box.contains(y_warm)
        with pytest.raises(ValueError):
            oracle.probe(np.full(4, np.nan))

    def test_fractional_best_response_sign_convention(self, e1):
        # residual(x) = -min_y f(x, y) = -f(x, y*) >= 0
        oracle = AffineFractionalOracle(e1)
        x = np.array([3.0])
        residual = oracle.residual(x)
        y, _ = best_response_residual(e1, x)
        assert residual == pytest.approx(-fractional_value(e1, x, y), abs=1e-12)
        assert residual == pytest.approx(1.5, abs=1e-9)
        np.testing.assert_allclose(y, [1.0], atol=1e-9)
        assert oracle.residual(np.array([1.0])) == 0.0

    def test_vi_best_response_matches_bruteforce(self, rng):
        box = BoxSet.uniform(2, 1.0, 3.0)
        M = rng.uniform(0, 1, size=(2, 2))
        r = rng.uniform(-2, 0, size=2)
        inst = affine_vi_instance(M=M, r=r, box=box)
        oracle = AffineFractionalOracle(inst)
        for _ in range(10):
            x = rng.uniform(1.0, 3.0, size=2)
            residual = oracle.residual(x)
            vertex_vals = [
                _vi_value(M, r, x, np.array(v))
                for v in [(1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (3.0, 3.0)]
            ]
            assert residual == pytest.approx(-min(vertex_vals), abs=1e-12)
            y, _ = best_response_residual(inst, x)
            assert _vi_value(M, r, x, y) == pytest.approx(-residual, abs=1e-12)


class TestPointCheck:
    """Every public evaluator at a point x checks it in one place: a wrong
    size is a DimensionError naming x, not numpy's matmul error."""

    @pytest.mark.parametrize("evaluate", [
        lambda inst, x: AffineFractionalOracle(inst).probe(x),
        lambda inst, x: AffineFractionalOracle(inst).residual(x),
        lambda inst, x: AffineFractionalOracle(inst).diagonal_subgradient(x),
        fractional_diagonal_subgradient,
        lambda inst, x: fractional_value(inst, x, inst.box.center),
        best_response_residual,
    ], ids=["probe", "residual", "diagonal_subgradient", "fractional_diagonal_subgradient",
            "fractional_value", "best_response_residual"])
    @pytest.mark.parametrize("size", [2, 4])
    def test_wrong_size_names_x(self, evaluate, size):
        inst = generate_instances(GeneratorConfig(n=3, count=1, seed=5))[0]
        with pytest.raises(DimensionError) as info:
            evaluate(inst, np.ones(size))
        assert info.value.field == "x"

    def test_response_objective_needs_a_positive_denominator_at_x(self, e1):
        # c'x + d = x + 1: f(x, .) is undefined at x = -1 and below
        for evaluate in (best_response_residual, fractional_diagonal_subgradient,
                         lambda inst, x: fractional_value(inst, x, inst.box.center),
                         lambda inst, x: AffineFractionalOracle(inst).probe(x)):
            for x in ([-1.0], [-2.0]):
                with pytest.raises(DomainError):
                    evaluate(e1, np.array(x))

    @pytest.mark.parametrize("evaluate", [
        lambda inst, x: AffineFractionalOracle(inst).probe(x),
        lambda inst, x: AffineFractionalOracle(inst).residual(x),
        lambda inst, x: AffineFractionalOracle(inst).diagonal_subgradient(x),
        fractional_diagonal_subgradient,
        lambda inst, x: fractional_value(inst, x, inst.box.center),
        best_response_residual,
    ], ids=["probe", "residual", "diagonal_subgradient", "fractional_diagonal_subgradient",
            "fractional_value", "best_response_residual"])
    def test_nonpositive_denominator_names_x(self, e1, evaluate):
        with pytest.raises(DomainError, match=r"at x=\[-2\.\]"):
            evaluate(e1, np.array([-2.0]))

    def test_nonpositive_denominator_at_y_names_y(self, e1):
        with pytest.raises(DomainError, match=r"at y=\[-2\.\]"):
            fractional_value(e1, np.array([2.0]), np.array([-2.0]))
