import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from quasieq import oracles
from quasieq.errors import ConfigurationError, DimensionError, DomainError
from quasieq.fractional import best_response_residual
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.oracles import (AffineFractionalInstance, AffineFractionalOracle,
                             affine_vi_instance)
from quasieq.sets import BoxSet
from quasieq.solver import (
    TOL_ZERO_GRAD,
    IterationRecord,
    SolveStatus,
    SolverConfig,
    fejer_audit,
    normal_subgradient_solve,
    step_length_audit,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestStepSchedule:
    def test_values(self):
        # alpha_k = scale / (k + 1) on every record of real solves
        instances = generate_instances(GeneratorConfig(n=5, count=3, seed=41))
        for scale in (100.0, 1.0):
            for variant in ("ng1", "ng2"):
                cfg = SolverConfig(variant=variant, scale=scale, max_iter=50)
                for inst in instances:
                    report = normal_subgradient_solve(
                        AffineFractionalOracle(inst), inst.box, cfg
                    )
                    assert report.trace
                    for rec in report.trace:
                        assert rec.alpha == cfg.scale / (rec.k + 1)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(scale=0.0)

    def test_divergent_sum_summable_squares(self):
        # finite sanity check of the defining growth rates
        cfg = SolverConfig(scale=1.0)
        alphas = np.array([cfg.scale / (k + 1) for k in range(10_000)])
        assert alphas.sum() > 9.0  # harmonic partial sums grow without bound
        assert np.sum(alphas**2) < np.pi**2 / 6 + 1e-9


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.variant == "ng2"
        assert cfg.scale == 100.0
        assert cfg.max_iter == 2000
        assert cfg.tol_step == 1e-4
        assert cfg.tol_residual == 1e-3
        assert cfg.tol_success == 1e-1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variant": "ng3"},
            {"max_iter": 0},
            {"tol_step": 0.0},
            {"tol_residual": -1.0},
            {"trace_keep": -1},
            {"scale": float("inf")},
            {"scale": float("nan")},
            {"tol_step": float("inf")},
            {"tol_residual": float("nan")},
            {"tol_success": float("inf")},
            {"tol_success": float("nan")},
            {"max_iter": 2.5},
            {"max_iter": float("inf")},
            {"max_iter": True},
            {"max_iter": None},
            {"trace_keep": 1.5},
            {"trace_keep": True},
            {"scale": True},
            {"scale": "100"},
            {"tol_residual": np.True_},
            {"trace_keep": 10**30},
            {"trace_keep": 1},  # only None (every record) and 0 (none) are kept
            {"trace_keep": sys.maxsize},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)


class TestToyProblem:
    """F(x) = x - 2 on [1, 3]: the unique solution is x* = 2."""

    def test_ng1_two_iterations_from_left_endpoint(self, t1):
        cfg = SolverConfig(variant="ng1", scale=1.0)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )
        assert report.status is SolveStatus.ZERO_GRADIENT
        np.testing.assert_array_equal(report.x_final, [2.0])
        assert report.iterations == 2
        assert len(report.trace) == 1
        rec = report.trace[0]
        assert rec.k == 0
        np.testing.assert_array_equal(rec.x, [1.0])
        assert rec.g_raw_norm == 1.0
        np.testing.assert_array_equal(rec.g_unit, [-1.0])
        assert rec.alpha == 1.0
        assert rec.step_norm == 1.0
        assert rec.residual is None

    def test_ng1_immediate_stop_at_solution(self, t1):
        cfg = SolverConfig(variant="ng1", scale=1.0)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([2.0])
        )
        assert report.status is SolveStatus.ZERO_GRADIENT
        assert report.iterations == 1
        assert report.trace == []
        assert report.final_residual == 0.0

    def test_ng2_stops_on_residual(self, t1):
        cfg = SolverConfig(variant="ng2", scale=1.0)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )
        assert report.status is SolveStatus.RESIDUAL_BELOW_TOL
        np.testing.assert_array_equal(report.x_final, [2.0])
        assert report.final_residual == 0.0
        assert report.trace[0].residual == pytest.approx(2.0)

    def test_ng1_step_below_tol(self, t1):
        cfg = SolverConfig(variant="ng1", scale=1e-5)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )
        assert report.status is SolveStatus.STEP_BELOW_TOL
        assert report.iterations == 1

    def test_max_iter_reached(self, t1):
        cfg = SolverConfig(variant="ng2", scale=0.6, max_iter=2)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )
        assert report.status is SolveStatus.MAX_ITER_REACHED
        assert report.iterations == 2
        assert len(report.trace) == 2
        # evaluated at the returned point after the cap
        assert report.final_residual == AffineFractionalOracle(t1).residual(report.x_final)

    def test_start_point_is_projected(self, t1):
        cfg = SolverConfig(variant="ng1", scale=1.0, max_iter=5)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([10.0])
        )
        np.testing.assert_array_equal(report.trace[0].x, [3.0])

    def test_default_start_is_set_center(self, t1):
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, SolverConfig(max_iter=5)
        )
        # center of [1, 3] is the solution, so ng2 stops with residual zero
        assert report.status is SolveStatus.RESIDUAL_BELOW_TOL
        np.testing.assert_array_equal(report.x_final, [2.0])


def _recording(oracle):
    """oracle with the residual of every probe and every residual(x)
    call recorded, as probed and calls."""
    probed, calls = [], []

    def probe(x, start=None):
        g, residual, response = oracle.probe(x, start)
        probed.append(residual)
        return g, residual, response

    def residual(x):
        calls.append((x.copy(), oracle.residual(x)))
        return calls[-1][1]

    return SimpleNamespace(box=oracle.box, diagonal_subgradient=oracle.diagonal_subgradient,
                           probe=probe, residual=residual, probed=probed, calls=calls)


def _fake_probe(box, g, residual):
    """An oracle whose every probe returns (g, residual, box.lo)."""
    return SimpleNamespace(box=box, diagonal_subgradient=None,
                           probe=lambda x, start=None: (np.array(g), residual, box.lo),
                           residual=lambda x: 1e3)


class TestFinalResidual:
    """final_residual is the last probe's when ng2 stops before stepping,
    else one oracle.residual(x_final) call."""

    @pytest.mark.parametrize("variant, make_oracle, options, x0, status", [
        ("ng1", lambda t1: AffineFractionalOracle(t1), {"scale": 1.0}, 1.0,
         SolveStatus.ZERO_GRADIENT),
        # F(x) = 1 pushes x = 1 out of [1, 3]
        ("ng1", lambda t1: AffineFractionalOracle(affine_vi_instance([[0.0]], [1.0], t1.box)),
         {"scale": 1.0}, 1.0, SolveStatus.FIXED_POINT),
        ("ng1", lambda t1: AffineFractionalOracle(t1), {"scale": 1e-5}, 1.0,
         SolveStatus.STEP_BELOW_TOL),
        ("ng1", lambda t1: AffineFractionalOracle(t1), {"scale": 0.6, "max_iter": 2}, 1.0,
         SolveStatus.MAX_ITER_REACHED),
        ("ng2", lambda t1: AffineFractionalOracle(t1), {"scale": 1.0}, 1.0,
         SolveStatus.RESIDUAL_BELOW_TOL),
        ("ng2", lambda t1: AffineFractionalOracle(t1), {"scale": 0.6, "max_iter": 2}, 1.0,
         SolveStatus.MAX_ITER_REACHED),
        ("ng2", lambda t1: _fake_probe(t1.box, [0.0], 0.5), {}, 2.0,
         SolveStatus.ZERO_GRADIENT),
        ("ng2", lambda t1: _fake_probe(t1.box, [1.0], 0.5), {}, 1.0,
         SolveStatus.FIXED_POINT),
    ], ids=["ng1-zero-gradient", "ng1-fixed-point", "ng1-step-below-tol", "ng1-max-iter",
            "ng2-residual-below-tol", "ng2-max-iter", "ng2-zero-gradient", "ng2-fixed-point"])
    def test_every_stop(self, t1, variant, make_oracle, options, x0, status):
        oracle = _recording(make_oracle(t1))
        config = SolverConfig(variant=variant, **options)
        report = normal_subgradient_solve(oracle, t1.box, config, x0=np.array([x0]))
        assert report.status is status
        if variant == "ng2" and status is not SolveStatus.MAX_ITER_REACHED:
            assert oracle.calls == []  # stopped before stepping
            assert report.final_residual == oracle.probed[-1]
        else:
            [(x, value)] = oracle.calls
            assert x.tobytes() == report.x_final.tobytes()
            assert report.final_residual == value


class TestElapsedSeconds:
    def test_spans_the_final_residual(self, t1):
        # ng1 stops at x* = 2 at once and then pays one residual call
        oracle = AffineFractionalOracle(t1)

        def slow_residual(x):
            time.sleep(0.05)
            return oracle.residual(x)

        slow = SimpleNamespace(box=oracle.box, diagonal_subgradient=oracle.diagonal_subgradient,
                               probe=oracle.probe, residual=slow_residual)
        report = normal_subgradient_solve(slow, t1.box, SolverConfig(variant="ng1"),
                                          x0=np.array([2.0]))
        assert report.iterations == 1
        assert report.elapsed_seconds >= 0.05


class _ClipSet:
    """A 1-D set with a box's interface that is not a BoxSet."""
    dim = 1
    center = np.array([2.0])
    lo, hi = np.array([1.0]), np.array([3.0])

    def project(self, x):
        return np.clip(x, 1.0, 3.0)


class TestSolverGuards:
    def test_dimension_mismatch(self, e1):
        box2 = BoxSet.uniform(2, 1.0, 3.0)
        with pytest.raises(ConfigurationError):
            normal_subgradient_solve(AffineFractionalOracle(e1), box2, SolverConfig())

    @pytest.mark.parametrize("feasible_set", [
        _ClipSet(), BoxSet.uniform(2, 1.0, 3.0), BoxSet.uniform(1, 0.0, 3.0),
        BoxSet.uniform(1, 1.0, np.nextafter(3.0, 4.0)),
    ], ids=["not-a-box", "other-dimension", "other-lower-bound", "other-upper-bound"])
    def test_any_other_set_raises_before_an_oracle_call(self, e1, feasible_set):
        oracle = _recording(AffineFractionalOracle(e1))
        with pytest.raises(ConfigurationError, match="feasible set must equal the oracle's box"):
            normal_subgradient_solve(oracle, feasible_set, SolverConfig(variant="ng2"))
        assert oracle.probed == [] and oracle.calls == []
        # on the oracle's own box the same solve starts with a probe
        normal_subgradient_solve(oracle, e1.box, SolverConfig(variant="ng2", max_iter=1))
        assert len(oracle.probed) == 1

    def test_rejects_box_with_other_bounds(self, e1):
        # the residual is measured over e1.box = [1, 3], so a solve over
        # [0, 3] would certify points of a different problem
        with pytest.raises(ConfigurationError):
            normal_subgradient_solve(
                AffineFractionalOracle(e1), BoxSet.uniform(1, 0.0, 3.0), SolverConfig()
            )

    def test_rejects_text_start_point(self, e1):
        with pytest.raises(ValueError, match="x0 entries must be real numbers") as info:
            normal_subgradient_solve(AffineFractionalOracle(e1), e1.box, SolverConfig(),
                                     x0=["2"])
        assert info.value.field == "x0"

    def test_start_point_of_other_dimension_names_x0(self):
        inst = generate_instances(GeneratorConfig(n=3, count=1, seed=5))[0]
        with pytest.raises(DimensionError, match="x0") as info:
            normal_subgradient_solve(AffineFractionalOracle(inst), inst.box, SolverConfig(),
                                     x0=[1.0, 2.0])
        assert info.value.field == "x0"

    def test_rejects_set_that_is_not_a_box(self, e1):
        with pytest.raises(ConfigurationError):
            normal_subgradient_solve(AffineFractionalOracle(e1), _ClipSet(), SolverConfig())

    # A = 1e308: Ax + b overflows, so p, g and the residual are NaN.
    # A = 1e155, A1 = 1e5 I: g = (4e160, 4e160) is finite, but g'g overflows.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow
    @pytest.mark.parametrize("variant", ["ng1", "ng2"])
    @pytest.mark.parametrize("a, b, a1", [(1e308, 1.0, 1.0), (1e155, 0.0, 1e5)],
                             ids=["nan-iterate", "norm-overflow"])
    def test_non_finite_subgradient_or_residual_raises(self, variant, a, b, a1):
        inst = AffineFractionalInstance(A=np.full((2, 2), a), b=np.full(2, b), A1=a1 * np.eye(2),
                                        b1=np.full(2, b), c=np.zeros(2), d=1.0,
                                        box=BoxSet.uniform(2, 1.0, 3.0))
        with pytest.raises(DomainError, match="is not finite at iterate 0"):
            normal_subgradient_solve(AffineFractionalOracle(inst), inst.box,
                                     SolverConfig(variant=variant))

    def test_equal_box_built_separately(self):
        inst = generate_instances(GeneratorConfig(n=5, count=1, seed=12345))[0]
        oracle = AffineFractionalOracle(inst)
        twin = BoxSet(inst.box.lo.copy(), inst.box.hi.copy())
        config = SolverConfig(variant="ng2", max_iter=50)
        got, want = (normal_subgradient_solve(oracle, box, config) for box in (twin, inst.box))
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert got.x_final.tobytes() == want.x_final.tobytes()
        assert got.final_residual == want.final_residual
        assert len(got.trace) == len(want.trace) > 0
        for a, b in zip(got.trace, want.trace):
            assert (a.k, a.g_raw_norm, a.alpha, a.step_norm, a.residual) == \
                (b.k, b.g_raw_norm, b.alpha, b.step_norm, b.residual)
            assert a.x.tobytes() == b.x.tobytes()
            assert a.g_unit.tobytes() == b.g_unit.tobytes()


class TestTraceRetention:
    def _capped_report(self, t1, keep):
        cfg = SolverConfig(
            variant="ng2", scale=0.6, max_iter=10, trace_keep=keep
        )
        return normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )

    def test_full_trace(self, t1):
        assert len(self._capped_report(t1, None).trace) == 10

    def test_keep_none(self, t1):
        assert self._capped_report(t1, 0).trace == []


class TestAudits:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            step_length_audit([])

    def test_step_audit_passes_on_real_runs(self):
        for inst in generate_instances(GeneratorConfig(n=3, count=5, seed=31)):
            report = normal_subgradient_solve(
                AffineFractionalOracle(inst), inst.box,
                SolverConfig(variant="ng1", max_iter=200),
            )
            assert step_length_audit(report.trace)

    def test_step_audit_detects_violation(self):
        rec = IterationRecord(
            k=0, x=np.zeros(1), g_raw_norm=1.0, g_unit=np.ones(1),
            alpha=0.5, step_norm=2.0,
        )
        assert not step_length_audit([rec])

    def test_fejer_audit_passes_on_real_runs(self, rng):
        for inst in generate_instances(GeneratorConfig(n=4, count=5, seed=32)):
            report = normal_subgradient_solve(
                AffineFractionalOracle(inst), inst.box,
                SolverConfig(variant="ng1", max_iter=100),
            )
            if not report.trace:
                continue
            assert fejer_audit(report.trace, inst.box.center, report.x_final)
            z = rng.uniform(1.0, 3.0, size=4)  # holds for any feasible point
            assert fejer_audit(report.trace, z, report.x_final)

    def test_fejer_audit_on_toy_hand_trace(self, t1):
        cfg = SolverConfig(variant="ng1", scale=1.0)
        report = normal_subgradient_solve(
            AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
        )
        assert fejer_audit(report.trace, np.array([2.0]), report.x_final)

    def test_fejer_audit_with_independent_solution_anchor(self):
        # anchor z at a solution found by a separate ng2 run; the bound
        # must hold along any other trajectory on the same instance
        for inst in generate_instances(GeneratorConfig(n=3, count=5, seed=33)):
            oracle = AffineFractionalOracle(inst)
            solution = normal_subgradient_solve(
                oracle, inst.box, SolverConfig(variant="ng2", trace_keep=0)
            ).x_final
            report = normal_subgradient_solve(
                oracle, inst.box,
                SolverConfig(variant="ng1", max_iter=100),
                x0=inst.box.lo,
            )
            if report.trace:
                assert fejer_audit(report.trace, solution, report.x_final)

    def test_fejer_audit_detects_violation(self):
        rec = IterationRecord(
            k=0, x=np.zeros(1), g_raw_norm=1.0, g_unit=np.ones(1),
            alpha=0.1, step_norm=5.0,
        )
        assert not fejer_audit([rec], np.zeros(1), np.array([5.0]))

    def test_fejer_audit_vacuous_cases(self):
        assert fejer_audit([], np.zeros(1))
        rec = IterationRecord(
            k=0, x=np.zeros(1), g_raw_norm=1.0, g_unit=np.ones(1),
            alpha=0.1, step_norm=0.1,
        )
        assert fejer_audit([rec], np.zeros(1))  # single record, no x_final

    def test_fejer_audit_dimension_mismatch(self):
        rec = IterationRecord(
            k=0, x=np.zeros(2), g_raw_norm=1.0, g_unit=np.ones(2),
            alpha=0.1, step_norm=0.0,
        )
        with pytest.raises(DimensionError):
            fejer_audit([rec], np.zeros(1), np.zeros(2))

    def test_fejer_audit_checks_z_against_a_single_record(self):
        # one record and no x_final audits no step, but z must still fit the trace
        rec = IterationRecord(
            k=0, x=np.zeros(3), g_raw_norm=1.0, g_unit=np.ones(3),
            alpha=0.1, step_norm=0.0,
        )
        with pytest.raises(DimensionError) as info:
            fejer_audit([rec], np.zeros(7))
        assert info.value.field == "z"

    @pytest.mark.parametrize("x_final", [[0.0], [0.0, 0.0, 0.0]], ids=["shorter", "longer"])
    def test_fejer_audit_x_final_dimension_mismatch(self, x_final):
        # a 1-vector would broadcast against the trace's 2-vectors
        rec = IterationRecord(
            k=0, x=np.zeros(2), g_raw_norm=1.0, g_unit=np.ones(2),
            alpha=0.1, step_norm=0.0,
        )
        with pytest.raises(DimensionError, match="x_final"):
            fejer_audit([rec], np.zeros(2), x_final)


class TestIterateBehaviour:
    def test_iterates_stay_feasible(self):
        for inst in generate_instances(GeneratorConfig(n=5, count=5, seed=71)):
            report = normal_subgradient_solve(
                AffineFractionalOracle(inst), inst.box, SolverConfig(max_iter=300)
            )
            for rec in report.trace:
                assert inst.box.contains(rec.x)
            assert inst.box.contains(report.x_final)

    def test_recorded_residual_matches_pre_step_point(self):
        for inst in generate_instances(GeneratorConfig(n=3, count=3, seed=72)):
            oracle = AffineFractionalOracle(inst)
            report = normal_subgradient_solve(
                oracle, inst.box, SolverConfig(max_iter=50)
            )
            for rec in report.trace[:10]:
                _, residual = best_response_residual(inst, rec.x)
                assert rec.residual == pytest.approx(residual, abs=1e-10)

    def test_subgradient_separates_best_response(self):
        # at any non-solution iterate, moving toward the best response must
        # oppose the recorded subgradient direction
        for inst in generate_instances(GeneratorConfig(n=4, count=3, seed=73)):
            oracle = AffineFractionalOracle(inst)
            report = normal_subgradient_solve(
                oracle, inst.box, SolverConfig(max_iter=100)
            )
            for rec in report.trace:
                if rec.residual is not None and rec.residual > 1e-3:
                    y, _ = best_response_residual(inst, rec.x)
                    assert float(rec.g_unit @ (y - rec.x)) < 1e-12

    def test_interleaved_solves_match_separate_solves(self, monkeypatch):
        # the warm start travels with each solve, not in the oracle: two ng2
        # solves on one oracle, their probes taken in turn, report what each
        # reports alone, and each probe runs as many Dinkelbach rounds
        rounds = []
        dinkelbach = oracles._dinkelbach

        def counted(*args):
            result = dinkelbach(*args)
            rounds.append(result.iterations)
            return result

        monkeypatch.setattr(oracles, "_dinkelbach", counted)
        inst = generate_instances(GeneratorConfig(n=5, count=1, seed=76))[0]
        oracle, config = AffineFractionalOracle(inst), SolverConfig(variant="ng2")
        alone, alone_rounds = [], []
        for x0 in (inst.box.lo, inst.box.hi):
            rounds.clear()
            alone.append(normal_subgradient_solve(oracle, inst.box, config, x0))
            alone_rounds.append(rounds.copy())
        # before each probe of the first solve, the second solve's next
        # probe, from its own last best response
        second_points, second_start = iter(alone[1].trace), None
        second_residuals, first_rounds = [], []

        def probe(x, start=None):
            nonlocal second_start
            rec = next(second_points, None)
            if rec is not None:
                _, residual, second_start = oracle.probe(rec.x, second_start)
                second_residuals.append(residual)
            result = oracle.probe(x, start)
            first_rounds.append(rounds[-1])
            return result

        interleaved = SimpleNamespace(box=oracle.box, residual=oracle.residual,
                                      diagonal_subgradient=oracle.diagonal_subgradient,
                                      probe=probe)
        rounds.clear()
        first = normal_subgradient_solve(interleaved, inst.box, config, inst.box.lo)
        assert len(second_residuals) > 10
        assert second_residuals == [rec.residual for rec in alone[1].trace[:len(second_residuals)]]
        assert rounds[0::2][:len(second_residuals)] == alone_rounds[1][:len(second_residuals)]
        assert first_rounds == alone_rounds[0]
        assert (first.status, first.iterations, first.final_residual) == (
            alone[0].status, alone[0].iterations, alone[0].final_residual)
        np.testing.assert_array_equal(first.x_final, alone[0].x_final)
        for got, want in zip(first.trace, alone[0].trace, strict=True):
            assert (got.k, got.residual, got.g_raw_norm, got.step_norm) == (
                want.k, want.residual, want.g_raw_norm, want.step_norm)
            np.testing.assert_array_equal(got.x, want.x)

    def test_ng2_final_residual_below_tolerance_on_random_instances(self):
        for inst in generate_instances(GeneratorConfig(n=5, count=10, seed=74)):
            oracle = AffineFractionalOracle(inst)
            report = normal_subgradient_solve(oracle, inst.box, SolverConfig())
            if report.status is SolveStatus.RESIDUAL_BELOW_TOL:
                _, residual = best_response_residual(inst, report.x_final)
                assert residual < SolverConfig().tol_residual


class TestStronglyMonotoneConvergence:
    def test_converges_to_fixed_point_solution(self):
        # rotations of the identity keep the problem strongly monotone, so
        # the solution is unique and reachable by a damped projection
        # iteration, giving an independent reference point
        rng = np.random.default_rng(2024)
        box = BoxSet.uniform(5, 1.0, 3.0)
        cfg = SolverConfig(variant="ng2", scale=5.0)
        for _ in range(20):
            b = rng.uniform(0.0, 1.0, size=(5, 5))
            m = np.eye(5) + 0.5 * (b - b.T)
            r = rng.uniform(-6.0, 2.0, size=5)
            inst = affine_vi_instance(M=m, r=r, box=box)

            y = box.center
            for _ in range(100_000):
                y_next = box.project(y - 0.1 * (m @ y + r))
                if np.linalg.norm(y_next - y) <= 1e-10:
                    y = y_next
                    break
                y = y_next

            report = normal_subgradient_solve(AffineFractionalOracle(inst), box, cfg)
            assert report.final_residual < 1e-1
            assert np.linalg.norm(report.x_final - y) < 1e-2


class TestGoldenPaperBatch:
    """ng1 and ng2 with the benchmark configuration on the whole paper
    batch at seed 12345 (n = 5, 10, 20 with instance seeds 12345, 12346,
    12347; 20 instances each): the (status, iterations) of every solve
    must equal the signatures in perfbench/reference.json, the file the
    benchmark's same-behaviour gate reads.  Every n=5 solve ends with
    `status` and a zero residual."""

    @pytest.mark.parametrize("variant, status", [
        ("ng1", SolveStatus.FIXED_POINT),
        ("ng2", SolveStatus.RESIDUAL_BELOW_TOL),
    ])
    def test_status_iterations_and_residual(self, variant, status):
        reference = json.loads(REFERENCE.read_text())
        assert reference["seed"] == 12345
        want = [sig for sig in reference["signatures"]["paper"]
                if sig.startswith(f"{variant} ")]
        config = SolverConfig(variant=variant, trace_keep=0)
        got = []
        for i, n in enumerate((5, 10, 20)):
            for inst in generate_instances(GeneratorConfig(n=n, count=20, seed=12345 + i)):
                report = normal_subgradient_solve(AffineFractionalOracle(inst), inst.box, config)
                got.append(f"{variant} {report.status.value} {report.iterations}")
                if n == 5:
                    assert report.status is status
                    assert report.final_residual == 0.0
        assert len(want) == 60
        assert got == want


def _reference_probe(inst, x, start):
    """(g, residual, y*) at x, written out with `@` from the response
    formula and the Dinkelbach rounds from start (cold if None)."""
    u = inst.A @ x + inst.b
    p, q = inst.A1.T @ u, float(inst.b1 @ u)
    c, d, box = inst.c, inst.d, inst.box
    phi = (float(p @ x) + q) / (float(c @ x) + d)
    y = np.where(p < 0.0, box.hi, box.lo) if start is None else start
    alpha = (float(p @ y) + q) / (float(c @ y) + d)
    while True:
        y_next = np.where(p - alpha * c < 0.0, box.hi, box.lo)
        alpha_next = (float(p @ y_next) + q) / (float(c @ y_next) + d)
        if not alpha_next < alpha:
            return p - phi * c, phi - alpha + 0.0, y
        y, alpha = y_next, alpha_next


def _reference_solve(inst, config):
    """The solve loop with `@`, `np.clip` and `not step.any()`: (status,
    iterations, x_final, final_residual, records as tuples)."""
    box, ng2 = inst.box, config.variant == "ng2"
    x = np.clip(box.center, box.lo, box.hi)
    records, response = [], None
    for k in range(config.max_iter):
        g, residual, response = _reference_probe(inst, x, response if ng2 else None)
        if not ng2:
            residual = None
        elif residual < config.tol_residual:
            status = SolveStatus.RESIDUAL_BELOW_TOL
            break
        g_raw_norm = math.sqrt(g @ g)
        if g_raw_norm <= TOL_ZERO_GRAD:
            status = SolveStatus.ZERO_GRADIENT
            break
        g_unit = g / g_raw_norm
        alpha = config.scale / (k + 1)
        x_next = np.clip(x - alpha * g_unit, box.lo, box.hi)
        step = x_next - x
        step_norm = math.sqrt(step @ step)
        records.append((k, x.copy(), g_raw_norm, g_unit, alpha, step_norm, residual))
        if not step.any():
            status = SolveStatus.FIXED_POINT
            break
        x, residual = x_next, None
        if not ng2 and step_norm < config.tol_step:
            status = SolveStatus.STEP_BELOW_TOL
            break
    else:
        status = SolveStatus.MAX_ITER_REACHED
    if residual is None:
        residual = _reference_probe(inst, x, None)[1]
    return status, k + 1, x, residual, records


def _float_bytes(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def _vi_instance(n, lo, hi):
    rng = np.random.default_rng(n)
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    return affine_vi_instance(M=np.eye(n) + b - b.T, r=rng.uniform(-2.0, 2.0, size=n),
                              box=BoxSet.uniform(n, lo, hi))


class TestFloatOperations:
    """Every float of a solve, byte for byte, against the loop above: the
    value pins compare within a tolerance, this compares bits.  The boxes
    with a -0.0 bound put signed zeros into the iterates."""

    @pytest.mark.parametrize("variant", ["ng1", "ng2"])
    @pytest.mark.parametrize("make", [
        lambda: generate_instances(GeneratorConfig(n=5, count=1, seed=12345))[0],
        lambda: generate_instances(GeneratorConfig(n=20, count=1, seed=12345))[0],
        lambda: generate_instances(GeneratorConfig(n=50, count=1, seed=12345))[0],
        lambda: _vi_instance(6, 0.0, 1.0),
        lambda: _vi_instance(6, -1.0, 0.0),
        lambda: _vi_instance(6, -0.0, 1.0),
        lambda: _vi_instance(6, -1.0, -0.0),
    ], ids=["seeded-n5", "seeded-n20", "seeded-n50", "vi-0-1", "vi-minus1-0",
            "vi-minus0-1", "vi-minus1-minus0"])
    def test_solve_matches_the_reference_loop_bit_for_bit(self, make, variant):
        inst = make()
        config = SolverConfig(variant=variant, trace_keep=None)
        report = normal_subgradient_solve(AffineFractionalOracle(inst), inst.box, config)
        status, iterations, x_final, final_residual, records = _reference_solve(inst, config)
        assert (report.status, report.iterations) == (status, iterations)
        assert _float_bytes(report.x_final) == _float_bytes(x_final)
        assert _float_bytes(report.final_residual) == _float_bytes(final_residual)
        assert len(report.trace) == len(records)
        for rec, want in zip(report.trace, records):
            got = (rec.k, rec.x, rec.g_raw_norm, rec.g_unit, rec.alpha, rec.step_norm, rec.residual)
            assert got[0] == want[0]
            assert [_float_bytes(v) for v in got[1:]] == [_float_bytes(v) for v in want[1:]]
