import itertools
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasieq import fractional
from quasieq.cli import main
from quasieq.errors import DimensionError, DomainError, InputError
from quasieq.fractional import (
    FractionalObjective,
    _dinkelbach,
    best_response_residual,
    dinkelbach_minimize,
    response_objective,
)
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.oracles import AffineFractionalInstance, affine_vi_instance, fractional_value
from quasieq.serialize import parse_instance_file
from quasieq.sets import BoxSet
from reference_minimizers import (
    chain_minimize,
    grid_bruteforce_minimize,
    minimize_linear_over_box,
)

# box [1, 3]^7, coefficients spread over 10^±6, c of mixed sign: at the
# box center the old tolerance-based stopping rule never stopped
SPREAD_N7 = Path(__file__).parent / "data" / "dinkelbach_spread_n7.json"


def _vertex_min(w, box):
    # exhaustive check over all box vertices; valid because the objective is linear
    best = np.inf
    for corner in itertools.product(*zip(box.lo, box.hi)):
        best = min(best, float(np.dot(w, corner)))
    return best


def _recorded_ratios(obj, box):
    """dinkelbach_minimize's result and every ratio it computed, in order."""
    ratios = []

    def recording(*args):
        ratios.append(ratio(*args))
        return ratios[-1]

    ratio, fractional._ratio = fractional._ratio, recording
    try:
        res = dinkelbach_minimize(obj, box)
    finally:
        fractional._ratio = ratio
    return res, ratios


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
        (0.0, "2"), (True, 1.0),
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
            res, ratios = _recorded_ratios(obj, box)
            # one ratio per round, and the start's; the last round's does not fall
            assert len(ratios) == res.iterations + 1
            alphas = np.asarray(ratios[:-1])
            assert np.all(np.diff(alphas) < 0.0)
            assert res.value == alphas[-1]
            assert not ratios[-1] < res.value

    def test_parametric_value_vanishes_at_termination(self, rng):
        # the returned ratio alpha is attained, so F(alpha) <= 0; the vertex
        # minimizing (p - alpha c)'y has a ratio not below alpha, so F(alpha) >= 0
        box = BoxSet.uniform(2, 1.0, 3.0)
        for _ in range(10):
            obj = FractionalObjective(
                p=rng.uniform(-1, 1, size=2),
                q=rng.uniform(0, 1),
                c=rng.uniform(0, 1, size=2),
                d=3.0,
            )
            res = dinkelbach_minimize(obj, box)
            assert obj.ratio(res.y) == res.value
            y, _ = minimize_linear_over_box(obj.p - res.value * obj.c, box)
            assert obj.ratio(y) >= res.value

    def test_minimizer_is_feasible(self, rng):
        box = BoxSet.uniform(2, 1.0, 3.0)
        obj = FractionalObjective(
            p=rng.uniform(-1, 1, size=2), q=0.5, c=rng.uniform(0, 1, size=2), d=2.0
        )
        res = dinkelbach_minimize(obj, box)
        assert box.contains(res.y)

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


def _objective_on_box(rng, kind, n):
    """A seeded objective on a seeded integer box, with d set so that the
    denominator's minimum over the box is 1 (plus a relative margin for
    "spread", whose sums round)."""
    lo = rng.integers(-2, 2, size=n).astype(float)
    box = BoxSet(lo, lo + rng.integers(1, 4, size=n))
    q, margin = float(rng.integers(-3, 4)), 0.0
    if kind == "integer":  # ties w_i = 0 and repeated breakpoints abound
        p, c = rng.integers(-3, 4, size=(2, n)).astype(float)
    elif kind == "equal-breakpoints":  # p_i / c_i takes at most two values
        c = rng.choice([-2.0, -1.0, 1.0, 3.0], size=n)
        p = rng.choice([-1.0, 2.0], size=n) * c
    elif kind == "c-zero":
        p, c = rng.integers(-3, 4, size=n).astype(float), np.zeros(n)
    elif kind == "mixed-sign":
        p, c = rng.uniform(-1.0, 1.0, size=(2, n))
    else:  # "spread": magnitudes over 10^±8, both signs
        signs = rng.choice([-1.0, 1.0], size=2 * n + 1)
        spread = signs * 10.0 ** rng.uniform(-8, 8, size=2 * n + 1)
        p, c, (q,) = np.split(spread, [n, 2 * n])
    y_den = np.where(c < 0.0, box.hi, box.lo)
    if kind == "spread":
        margin = 1e-6 * float(np.abs(c) @ np.abs(y_den))
    d = 1.0 + margin - float(c @ y_den)
    return FractionalObjective(p=p, q=q, c=c, d=d), box


def _ratio_rounding_bound(obj, y):
    """First-order bound on the rounding error of obj.ratio(y): two sums
    of n + 1 terms and one division."""
    terms = obj.p.size + 1
    den, ratio = float(obj.c @ y) + obj.d, obj.ratio(y)
    num_abs = float(np.abs(obj.p) @ np.abs(y)) + abs(obj.q)
    den_abs = float(np.abs(obj.c) @ np.abs(y)) + abs(obj.d)
    return 0.5 * np.finfo(float).eps * (terms * (num_abs + abs(ratio) * den_abs) / den
                                        + abs(ratio))


class TestExactStoppingRule:
    @pytest.mark.parametrize("kind", ["integer", "equal-breakpoints", "c-zero", "mixed-sign"])
    def test_matches_chain_minimum(self, kind):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            obj, box = _objective_on_box(rng, kind, n)
            res = dinkelbach_minimize(obj, box)
            assert res.value == chain_minimize(obj, box)[1]
            assert res.iterations <= n + 2

    def test_spread_coefficients_within_rounding_bound(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            obj, box = _objective_on_box(rng, "spread", n)
            res = dinkelbach_minimize(obj, box)
            chain_y, chain_value = chain_minimize(obj, box)
            bound = _ratio_rounding_bound(obj, res.y) + _ratio_rounding_bound(obj, chain_y)
            assert abs(res.value - chain_value) <= bound
            assert res.iterations <= n + 2

    def test_spread_instance_best_response_returns(self):
        inst = parse_instance_file(SPREAD_N7)
        x = inst.box.center
        res = dinkelbach_minimize(response_objective(inst, x), inst.box)
        assert res.iterations <= inst.dim + 2
        y, residual = best_response_residual(inst, x)
        np.testing.assert_array_equal(y, res.y)
        assert residual >= 0.0

    def test_spread_instance_solve_ends_with_a_status_line(self, capsys):
        code = main(["solve", "--instance", str(SPREAD_N7)])
        out, err = capsys.readouterr()
        assert out.startswith("status: ")
        assert "solve failed" not in err
        final_residual = float(out.split("final_residual: ")[1].split()[0])
        assert code == (0 if final_residual < 1e-1 else 1)


class TestOverflowedResponse:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow
    def test_checked_paths_reject_it(self):
        # Ax + b overflows at every x of the box, so p = A1'(Ax + b) is not finite
        inst = AffineFractionalInstance(A=np.full((2, 2), 1e308), b=np.ones(2), A1=np.eye(2),
                                        b1=np.ones(2), c=np.zeros(2), d=1.0,
                                        box=BoxSet.uniform(2, 1.0, 3.0))
        x = inst.box.center
        for evaluate in (best_response_residual, response_objective,
                         lambda inst, x: fractional_value(inst, x, x)):
            with pytest.raises(InputError, match="p contains non-finite entries") as info:
                evaluate(inst, x)
            assert info.value.field == "p"


class TestWarmStart:
    """The solver's probe starts Dinkelbach at the previous best response
    instead of the vertex minimizing p'y; from any vertex of the box the
    rounds must reach the same minimum within the same n + 2 bound."""

    @pytest.mark.parametrize("kind", ["integer", "equal-breakpoints", "c-zero", "mixed-sign"])
    def test_every_vertex_start_reaches_the_minimum(self, kind):
        rng = np.random.default_rng(2026)
        zero_in_p = 0
        for _ in range(40):
            n = int(rng.integers(1, 7))
            obj, box = _objective_on_box(rng, kind, n)
            zero_in_p += bool(np.any(obj.p == 0.0))  # ties w_i = 0 at alpha = 0
            cold = dinkelbach_minimize(obj, box).value
            chain = chain_minimize(obj, box)[1]
            for corner in itertools.product(*zip(box.lo, box.hi)):
                warm = _dinkelbach(obj.p, obj.q, obj.c, obj.d, box, np.array(corner))
                assert warm.value == pytest.approx(cold, rel=1e-12, abs=0.0)
                assert warm.value == pytest.approx(chain, rel=1e-12, abs=0.0)
                assert obj.ratio(warm.y) == warm.value
                assert warm.iterations <= n + 2
        if kind in ("integer", "c-zero"):
            assert zero_in_p > 0


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

    @pytest.mark.parametrize("entry", [
        lambda inst, x: dinkelbach_minimize(response_objective(inst, x), inst.box),
        best_response_residual,
    ], ids=["dinkelbach_minimize", "best_response_residual"])
    def test_public_entries_check_the_denominator(self, entry):
        # c'y + d = 2.5 - y is negative on (2.5, 3], so no instance can hold
        # it; the solver's probe trusts the instance, the public entries do not
        box = BoxSet.uniform(1, 1.0, 3.0)
        data = SimpleNamespace(A=np.eye(1), b=np.zeros(1), A1=np.eye(1), b1=np.zeros(1),
                               c=np.array([-1.0]), d=2.5, box=box)
        with pytest.raises(DomainError, match="over the box"):
            entry(data, np.array([2.0]))

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
