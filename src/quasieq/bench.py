"""Benchmark sweeps over randomly generated affine-fractional instances.

Each size gets its own seeded batch (seed + size index), every instance
is solved from the box center with one ``SolverConfig`` (variant, step
scale alpha_k = scale/(k+1), tolerances), and a solve counts as a
success when the residual at the returned ``x_final``
(``final_residual``, as in ``quasieq solve``) falls below the success
tolerance.  A solve that raises is counted in the row by exception type
and the sweep goes on.  Wall time is measured around the solve call
only.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from .generator import GeneratorConfig, generate_instances
from .oracles import AffineFractionalOracle
from .solver import SolverConfig, normal_subgradient_solve


@dataclass(frozen=True)
class BenchmarkRow:
    n: int
    n_prob: int
    n_success: int
    mean_time_seconds: float
    mean_error: float
    # exception type name -> number of solves that raised it
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())


@dataclass(frozen=True)
class BenchmarkReport:
    variant: str
    schedule_scale: float
    seed: int
    rows: tuple[BenchmarkRow, ...]


def run_benchmark(
    sizes,
    count: int,
    seed: int,
    config: SolverConfig | None = None,
) -> BenchmarkReport:
    """Solve ``count`` seeded instances per size and aggregate results.

    ``config`` (default ``SolverConfig()``) supplies the variant, the step
    scale and the tolerances; tracing is disabled.  A solve that
    raises counts as a non-success in ``failures`` and never aborts the
    sweep; the means are over the solves that returned.
    """
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes:
        raise ValueError("sizes must be nonempty")
    if count < 1:
        raise ValueError("count must be at least 1")
    base = config if config is not None else SolverConfig()
    solver_config = replace(base, trace_keep=0)

    rows = []
    for size_index, n in enumerate(sizes):
        instances = generate_instances(GeneratorConfig(
            n=n, count=count, seed=seed + size_index,
        ))
        successes = 0
        errors: list[float] = []
        times: list[float] = []
        failures: Counter[str] = Counter()
        for inst in instances:
            oracle = AffineFractionalOracle(inst)
            try:
                t0 = time.perf_counter()
                report = normal_subgradient_solve(oracle, inst.box, solver_config)
                times.append(time.perf_counter() - t0)
            except Exception as exc:
                failures[type(exc).__name__] += 1
                continue
            errors.append(report.final_residual)
            if report.final_residual < solver_config.tol_success:
                successes += 1
        rows.append(BenchmarkRow(
            n=n,
            n_prob=count,
            n_success=successes,
            mean_time_seconds=math.fsum(times) / len(times) if times else 0.0,
            mean_error=math.fsum(errors) / len(errors) if errors else 0.0,
            failures=dict(failures),
        ))
    return BenchmarkReport(
        variant=solver_config.variant,
        schedule_scale=solver_config.scale,
        seed=seed,
        rows=tuple(rows),
    )


def format_benchmark_table(report: BenchmarkReport) -> str:
    header = (
        f"variant={report.variant}  "
        f"alpha_k={report.schedule_scale:g}/(k+1)  seed={report.seed}"
    )
    lines = [
        header,
        f"{'n':>5} {'n_prob':>7} {'n_success':>10} {'n_failed':>9} "
        f"{'mean_time_s':>12} {'mean_error':>12}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.n:>5} {row.n_prob:>7} {row.n_success:>10} {row.n_failed:>9} "
            f"{row.mean_time_seconds:>12.6f} {row.mean_error:>12.6g}"
        )
    return "\n".join(lines)
