import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieq import fractional
from quasieq.errors import ConvergenceError, DimensionError, DomainError
from quasieq.fractional import (
    FractionalObjective,
    best_response_residual,
    dinkelbach_minimize,
    response_objective,
)
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.oracles import AffineFractionalInstance, affine_vi_instance
from quasieq.sets import BoxSet
from reference_minimizers import grid_bruteforce_minimize, minimize_linear_over_box


def _vertex_min(w, box):
    # exhaustive check over all box vertices; valid because the objective is linear
    best = np.inf
    for corner in itertools.product(*zip(box.lo, box.hi)):
        best = min(best, float(np.dot(w, corner)))
    return best


class TestLinearMinimization:
    def test_sign_rule(self):
        box = BoxSet.uniform(2, 1.0, 3.0)
        y, val = minimize_linear_over_box(np.array([1.0, -1.0]), box)
        np.testing.assert_array_equal(y, [1.0, 3.0])
        assert val == -2.0

    def test_zero_weight_ties_to_lower_bound(self):
        box = BoxSet.uniform(2, 1.0, 3.0)
        y, val = minimize_linear_over_box(np.zeros(2), box)
        np.testing.assert_array_equal(y, [1.0, 1.0])
        assert val == 0.0

    def test_all_negative(self):
        box = BoxSet.uniform(3, -1.0, 2.0)
        y, _ = minimize_linear_over_box(np.array([-1.0, -2.0, -0.5]), box)
        np.testing.assert_array_equal(y, [2.0, 2.0, 2.0])

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda n: st.lists(
                st.floats(min_value=-10.0, max_value=10.0), min_size=n, max_size=n
            )
        )
    )
    @settings(max_examples=60)
    def test_matches_vertex_enumeration(self, w_raw):
        w = np.asarray(w_raw)
        box = BoxSet.uniform(w.size, -2.0, 5.0)
        _, val = minimize_linear_over_box(w, box)
        assert np.isclose(val, _vertex_min(w, box), atol=1e-12)


class TestFractionalObjective:
    def test_evaluation(self):
        obj = FractionalObjective(p=[1.0], q=1.0, c=[1.0], d=2.0)
        assert obj(np.array([1.0])) == pytest.approx(2.0 / 3.0)

    def test_rejects_nonpositive_denominator(self):
        obj = FractionalObjective(p=[1.0], q=0.0, c=[1.0], d=0.0)
        with pytest.raises(DomainError):
            obj(np.array([-1.0]))

    def test_dimension_mismatch(self):
        obj = FractionalObjective(p=[1.0, 2.0], q=0.0, c=[1.0, 1.0], d=1.0)
        with pytest.raises(DimensionError):
            obj(np.array([1.0]))

    @pytest.mark.parametrize("q, d", [
        (np.inf, 1.0), (np.nan, 1.0), (0.0, np.inf), (0.0, -np.inf), (0.0, np.nan),
    ])
    def test_rejects_non_finite_constants(self, q, d):
        with pytest.raises(ValueError, match="must be finite"):
            FractionalObjective(p=[1.0], q=q, c=[1.0], d=d)


class TestDinkelbach:
    def test_increasing_ratio(self):
        # (y + 1)/(y + 2) increases on [1, 3]; minimum 2/3 at y = 1
        obj = FractionalObjective(p=[1.0], q=1.0, c=[1.0], d=2.0)
        res = dinkelbach_minimize(obj, BoxSet.uniform(1, 1.0, 3.0))
        np.testing.assert_allclose(res.y, [1.0], atol=1e-9)
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_decreasing_ratio(self):
        # (3 - y)/(1 + y) decreases on [1, 3]; minimum 0 at y = 3
        obj = FractionalObjective(p=[-1.0], q=3.0, c=[1.0], d=1.0)
        res = dinkelbach_minimize(obj, BoxSet.uniform(1, 1.0, 3.0))
        np.testing.assert_allclose(res.y, [3.0], atol=1e-9)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_constant_ratio(self):
        obj = FractionalObjective(p=[0.0], q=1.0, c=[0.0], d=2.0)
        res = dinkelbach_minimize(obj, BoxSet.uniform(1, 1.0, 3.0))
        assert res.value == pytest.approx(0.5)
        np.testing.assert_array_equal(res.y, [1.0])

    def test_alphas_nonincreasing(self, rng):
        box = BoxSet.uniform(3, 1.0, 3.0)
        for _ in range(20):
            obj = FractionalObjective(
                p=rng.uniform(-1, 1, size=3),
                q=rng.uniform(-1, 1),
                c=rng.uniform(0, 1, size=3),
                d=4.0,
            )
            res = dinkelbach_minimize(obj, box)
            alphas = np.asarray(res.alphas)
            assert np.all(np.diff(alphas) <= 1e-12)

    def test_parametric_value_vanishes_at_termination(self, rng):
        box = BoxSet.uniform(2, 1.0, 3.0)
        tol = fractional.DINKELBACH_TOL
        for _ in range(10):
            obj = FractionalObjective(
                p=rng.uniform(-1, 1, size=2),
                q=rng.uniform(0, 1),
                c=rng.uniform(0, 1, size=2),
                d=3.0,
            )
            res = dinkelbach_minimize(obj, box)
            alpha = res.alphas[-1]
            y, lin = minimize_linear_over_box(obj.p - alpha * obj.c, box)
            f_alpha = lin + obj.q - alpha * obj.d
            assert abs(f_alpha) <= tol * max(1.0, abs(alpha) * obj.denominator(y))

    def test_minimizer_is_feasible(self, rng):
        box = BoxSet.uniform(2, 1.0, 3.0)
        obj = FractionalObjective(
            p=rng.uniform(-1, 1, size=2), q=0.5, c=rng.uniform(0, 1, size=2), d=2.0
        )
        res = dinkelbach_minimize(obj, box)
        assert box.contains(res.y)

    def test_max_iter_exhaustion_raises(self, monkeypatch):
        # (y + 3)/(y + 0.5) decreases on [1, 3]; from the numerator's
        # minimizing vertex y = 1 it takes two rounds
        monkeypatch.setattr(fractional, "DINKELBACH_MAX_ITER", 1)
        obj = FractionalObjective(p=[1.0], q=3.0, c=[1.0], d=0.5)
        with pytest.raises(ConvergenceError, match="in 1 iterations") as err:
            dinkelbach_minimize(obj, BoxSet.uniform(1, 1.0, 3.0))
        assert err.value.last_point is not None

    def test_rejects_objective_of_other_dimension(self):
        obj = FractionalObjective(p=[1.0, 0.0], q=1.0, c=[0.0, 1.0], d=2.0)
        with pytest.raises(DimensionError):
            dinkelbach_minimize(obj, BoxSet.uniform(1, 1.0, 3.0))

    def test_rejects_nonpositive_denominator_at_center(self):
        # c'y + d = 2 - y vanishes at the center y = 2 of [1, 3]
        obj = FractionalObjective(p=[1.0], q=0.0, c=[-1.0], d=2.0)
        with pytest.raises(DomainError):
            dinkelbach_minimize(obj, BoxSet.uniform(1, 1.0, 3.0))

    def test_rejects_denominator_negative_away_from_visited_points(self):
        # c'y + d = 2.5 - y is positive at y = 1, where Dinkelbach would
        # start and stop with the value 2/3, but negative on (2.5, 3],
        # where y/(2.5 - y) is unbounded below
        obj = FractionalObjective(p=[1.0], q=0.0, c=[-1.0], d=2.5)
        with pytest.raises(DomainError, match="over the box"):
            dinkelbach_minimize(obj, BoxSet.uniform(1, 1.0, 3.0))

    def test_agrees_with_grid_on_random_problems(self):
        cfg = GeneratorConfig(n=2, count=10, seed=4242)
        instances = generate_instances(cfg)
        point_rng = np.random.default_rng(4242)
        for inst in instances:
            x = point_rng.uniform(1.0, 3.0, size=2)
            obj = response_objective(inst, x)
            res = dinkelbach_minimize(obj, inst.box)
            _, grid_val = grid_bruteforce_minimize(obj, inst.box, points_per_axis=401)
            assert abs(res.value - grid_val) <= 1e-3
            assert res.iterations <= 20


class TestGridBruteforce:
    def test_includes_endpoints(self):
        obj = FractionalObjective(p=[-1.0], q=3.0, c=[1.0], d=1.0)
        y, val = grid_bruteforce_minimize(obj, BoxSet.uniform(1, 1.0, 3.0), 11)
        np.testing.assert_array_equal(y, [3.0])
        assert val == pytest.approx(0.0)

    def test_rejects_high_dimension(self):
        obj = FractionalObjective(p=np.zeros(4), q=1.0, c=np.zeros(4), d=1.0)
        with pytest.raises(DimensionError):
            grid_bruteforce_minimize(obj, BoxSet.uniform(4, 1.0, 3.0), 5)

    def test_rejects_too_few_points(self):
        obj = FractionalObjective(p=[1.0], q=0.0, c=[0.0], d=1.0)
        with pytest.raises(ValueError):
            grid_bruteforce_minimize(obj, BoxSet.uniform(1, 1.0, 3.0), 1)


class TestBestResponse:
    def test_response_objective_coefficients(self, e1):
        obj = response_objective(e1, np.array([1.0]))
        # u = Ax + b = [2]; p = A1^T u = [2]; q = b1^T u = 0
        np.testing.assert_array_equal(obj.p, [2.0])
        assert obj.q == 0.0
        np.testing.assert_array_equal(obj.c, [1.0])
        assert obj.d == 1.0

    def test_residual_zero_at_solution(self, e1):
        _, residual = best_response_residual(e1, np.array([1.0]))
        assert abs(residual) <= 1e-12

    def test_residual_at_far_point(self, e1):
        y, residual = best_response_residual(e1, np.array([3.0]))
        # phi_3(y) = 6y/(y+1): minimized at y = 1 with value 3, phi_3(3) = 4.5
        np.testing.assert_allclose(y, [1.0], atol=1e-9)
        assert residual == pytest.approx(1.5, abs=1e-9)

    def test_residual_nonnegative(self, rng):
        cfg = GeneratorConfig(n=3, count=10, seed=99)
        for inst in generate_instances(cfg):
            x = rng.uniform(1.0, 3.0, size=3)
            _, residual = best_response_residual(inst, x)
            assert residual >= -1e-12

    @pytest.mark.parametrize("x", [[np.nan], [1.0, 2.0]])
    def test_rejects_bad_point(self, e1, x):
        with pytest.raises(ValueError):
            best_response_residual(e1, np.array(x))

    def test_vi_encoding_residual(self, unit_box):
        # f(x, y) = (x - 2)(y - x) encoded with trivial denominator
        inst = AffineFractionalInstance(
            A=[[1.0]], b=[-2.0], A1=[[1.0]], b1=[0.0], c=[0.0], d=1.0, box=unit_box
        )
        _, residual = best_response_residual(inst, np.array([2.0]))
        assert abs(residual) <= 1e-12
        _, residual = best_response_residual(inst, np.array([1.0]))
        assert residual == pytest.approx(2.0, abs=1e-9)

    def test_vi_best_response_takes_one_round(self, rng):
        # c = 0 makes phi_x affine: the numerator's minimizing vertex, where
        # Dinkelbach starts, is optimal and the first round confirms it
        for n in (1, 2, 5, 12):
            box = BoxSet.uniform(n, 1.0, 3.0)
            vi = affine_vi_instance(
                M=rng.uniform(-1.0, 1.0, size=(n, n)),
                r=rng.uniform(-2.0, 2.0, size=n), box=box,
            )
            for _ in range(10):
                x = rng.uniform(1.0, 3.0, size=n)
                result = dinkelbach_minimize(response_objective(vi, x), vi.box)
                assert result.iterations == 1
