import math

import numpy as np
import pytest

import quasieq.bench as bench_module
from quasieq.bench import (
    BenchmarkReport,
    BenchmarkRow,
    format_benchmark_table,
    run_benchmark,
)
from quasieq.errors import ConfigurationError
from quasieq.fractional import best_response_residual
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.solver import SolveReport, SolveStatus, SolverConfig


class TestBookkeeping:
    def test_single_size(self):
        report = run_benchmark(sizes=(2,), count=3, seed=77)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.n == 2
        assert row.n_prob == 3
        assert 0 <= row.n_success <= 3
        assert row.mean_time_seconds >= 0.0

    def test_sizes_sorted_and_deduplicated(self):
        report = run_benchmark(sizes=(5, 2, 5), count=1, seed=77)
        assert [row.n for row in report.rows] == [2, 5]

    def test_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            run_benchmark(sizes=(), count=1, seed=1)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            run_benchmark(sizes=(2,), count=0, seed=1)

    @pytest.mark.parametrize("sizes, seed", [
        ((2.7,), 1), ((True,), 1), (("3",), 1), ((2, 2.0), 1),
        ((2,), True), ((2,), 1.5),
    ], ids=["float", "bool", "str", "float-duplicate", "bool-seed", "float-seed"])
    def test_rejects_non_integer_size_or_seed(self, sizes, seed):
        # a float, a bool or a string is never rounded into a size or seed
        with pytest.raises(ConfigurationError):
            run_benchmark(sizes=sizes, count=1, seed=seed)

    def test_seed_past_64_bits_raises_before_any_solve(self, monkeypatch):
        # the second size's seed, 2**64, is out of range: no size is solved
        solved = []
        monkeypatch.setattr(bench_module, "normal_subgradient_solve",
                            lambda *args, **kwargs: solved.append(args))
        with pytest.raises(ConfigurationError, match=r"seed in \[0, 2\*\*64\)"):
            run_benchmark(sizes=(2, 3), count=1, seed=2**64 - 1)
        assert solved == []

    def test_accepts_numpy_integers(self):
        report = run_benchmark(sizes=(np.int64(3), np.int32(2), 3), count=1,
                               seed=np.int64(77))
        assert [row.n for row in report.rows] == [2, 3]
        again = run_benchmark(sizes=(2, 3), count=1, seed=77)
        assert [row.mean_error for row in report.rows] == [
            row.mean_error for row in again.rows]

    def test_variant_recorded(self, monkeypatch):
        # the config is the only source of the variant: nothing overrides it
        solved = []

        def recording_solve(oracle, feasible_set, config, x0=None):
            solved.append((config.variant, config.trace_keep))
            return real_solve(oracle, feasible_set, config, x0)

        real_solve = bench_module.normal_subgradient_solve
        monkeypatch.setattr(bench_module, "normal_subgradient_solve", recording_solve)
        report = run_benchmark(sizes=(2,), count=1, seed=3,
                               config=SolverConfig(variant="ng1", scale=7.0))
        assert report.variant == "ng1"
        assert report.schedule_scale == 7.0
        assert solved == [("ng1", 0)]


class TestAggregation:
    def test_means_and_success_from_stubbed_solver(self, monkeypatch):
        # the success cut is 0.1 and applies to the residual at x_final
        for final, n_success in ((0.05, 4), (0.5, 0)):
            def fake_solve(oracle, feasible_set, config, x0=None, final=final):
                return SolveReport(
                    status=SolveStatus.RESIDUAL_BELOW_TOL,
                    x_final=feasible_set.center,
                    iterations=1,
                    trace=[],
                    final_residual=final,
                    elapsed_seconds=0.0,
                )

            monkeypatch.setattr(bench_module, "normal_subgradient_solve", fake_solve)
            report = run_benchmark(sizes=(2,), count=4, seed=9)
            row = report.rows[0]
            assert row.n_success == n_success
            assert row.mean_error == pytest.approx(final)
            assert row.n_failed == 0

    def test_mean_time_is_the_mean_of_the_reports_elapsed_seconds(self, monkeypatch):
        elapsed = iter([1.0, 3.0])

        def fake_solve(oracle, feasible_set, config, x0=None):
            return SolveReport(status=SolveStatus.RESIDUAL_BELOW_TOL,
                               x_final=feasible_set.center, iterations=1, trace=[],
                               final_residual=0.0, elapsed_seconds=next(elapsed))

        monkeypatch.setattr(bench_module, "normal_subgradient_solve", fake_solve)
        [row] = run_benchmark(sizes=(2,), count=2, seed=9).rows
        assert row.mean_time_seconds == 2.0

    def test_solver_exception_counts_as_failure(self, monkeypatch):
        def exploding_solve(oracle, feasible_set, config, x0=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            bench_module, "normal_subgradient_solve", exploding_solve
        )
        report = run_benchmark(sizes=(2,), count=3, seed=9)
        row = report.rows[0]
        assert row.n_prob == 3
        assert row.n_success == 0
        assert math.isnan(row.mean_error)
        assert math.isnan(row.mean_time_seconds)
        assert row.n_failed == 3
        assert row.failures == {"RuntimeError": 3}
        # the table prints the undefined means as nan, not as a perfect 0
        assert format_benchmark_table(report).splitlines()[-1].split()[-2:] == ["nan", "nan"]


class TestReproducibility:
    def test_equal_seeds_agree_up_to_timing(self):
        kwargs = dict(sizes=(2, 3), count=3, seed=2468)
        first = run_benchmark(**kwargs)
        second = run_benchmark(**kwargs)
        for a, b in zip(first.rows, second.rows):
            assert a.n == b.n
            assert a.n_prob == b.n_prob
            assert a.n_success == b.n_success
            assert a.mean_error == b.mean_error  # bit-identical instances

    def test_success_verdicts_reproducible_offline(self):
        # re-run the same instances by hand and re-check the residual at
        # the final point; every benchmark success must be explainable
        seed, count, n = 1357, 5, 3
        report = run_benchmark(sizes=(n,), count=count, seed=seed)
        cfg = SolverConfig(variant="ng2", trace_keep=0)
        successes = 0
        for inst in generate_instances(GeneratorConfig(n=n, count=count, seed=seed)):
            from quasieq.oracles import AffineFractionalOracle
            from quasieq.solver import normal_subgradient_solve

            solve = normal_subgradient_solve(
                AffineFractionalOracle(inst), inst.box, cfg
            )
            _, residual = best_response_residual(inst, solve.x_final)
            if residual < cfg.tol_success:
                successes += 1
        assert successes == report.rows[0].n_success


class TestFormatting:
    def test_table_layout(self):
        report = BenchmarkReport(
            variant="ng2", schedule_scale=100.0, seed=5,
            rows=(BenchmarkRow(5, 20, 18, 0.001234, 5.6e-05, {"DomainError": 2}),),
        )
        text = format_benchmark_table(report)
        lines = text.splitlines()
        assert "variant=ng2" in lines[0]
        assert "seed=5" in lines[0]
        assert lines[1].split() == [
            "n", "n_prob", "n_success", "n_failed", "mean_time_s", "mean_error"
        ]
        assert lines[2].split()[0] == "5"
        assert lines[2].split()[1:4] == ["20", "18", "2"]
