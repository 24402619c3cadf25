"""Benchmark sweeps over randomly generated affine-fractional instances.

Each size gets its own seeded batch (seed + size index), every instance
is solved from the box center with one ``SolverConfig`` (variant, step
scale alpha_k = scale/(k+1), tolerances), and a solve counts as a
success when the residual at the returned ``x_final``
(``final_residual``, as in ``quasieq solve``) falls below the success
tolerance.  A solve that raises is counted in the row by exception type
and the sweep goes on.  A row's mean time is the mean of the reports'
``elapsed_seconds``, each the wall time of one whole solve call.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError
from .generator import GeneratorConfig, generate_instances
from .linalg import is_integer
from .oracles import AffineFractionalOracle
from .solver import SolveReport, SolverConfig, normal_subgradient_solve


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


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else math.nan


def run_benchmark(
    sizes,
    count: int,
    seed: int,
    config: SolverConfig | None = None,
) -> BenchmarkReport:
    """Solve ``count`` seeded instances per size and aggregate results.

    Distinct sizes run in ascending order, the i-th with seed ``seed + i``;
    every size, ``count`` and seed is checked before any solve, so a
    ``seed + i`` past 2**64 - 1 raises ConfigurationError at once.
    ``config`` (default ``SolverConfig()``) supplies the variant, the step
    scale and the tolerances; tracing is disabled.  A solve that raises
    counts as a non-success in ``failures`` and never aborts the sweep;
    the means, of ``elapsed_seconds`` and of ``final_residual``, are over
    the solves that returned, NaN when none did.
    """
    sizes = list(sizes)
    # checked before sorting and before seed + i, which would make a bool an int
    if not (is_integer(seed) and all(is_integer(n) for n in sizes)):
        raise ConfigurationError(f"sizes and seed must be integers, got {sizes!r}, {seed!r}")
    configs = [GeneratorConfig(n=n, count=count, seed=seed + i)
               for i, n in enumerate(sorted(set(sizes)))]
    if not configs:
        raise ValueError("sizes must be nonempty")
    solver_config = replace(config or SolverConfig(), trace_keep=0)

    rows = []
    for gen_config in configs:
        instances = generate_instances(gen_config)
        reports: list[SolveReport] = []
        failures: Counter[str] = Counter()
        for inst in instances:
            oracle = AffineFractionalOracle(inst)
            try:
                reports.append(normal_subgradient_solve(oracle, inst.box, solver_config))
            except Exception as exc:
                failures[type(exc).__name__] += 1
        rows.append(BenchmarkRow(
            n=gen_config.n,
            n_prob=count,
            n_success=sum(1 for r in reports if r.final_residual < solver_config.tol_success),
            mean_time_seconds=_mean([r.elapsed_seconds for r in reports]),
            mean_error=_mean([r.final_residual for r in reports]),
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
