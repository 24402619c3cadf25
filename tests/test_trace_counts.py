"""Every count and ratio the traced benchmark run reports for one `paper`
batch, pinned.  A change that keeps the solves but moves a call off a
traced binding, or adds or drops one, changes a count here.  The tracer
is perfbench's own (`perfbench/tracing.py`), imported read-only, and the
batch is traced as `perfbench/run.py --trace 1` traces one: its set-up
(instance generation) and then every solve."""

import importlib
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Tracer.metrics(1) of paper batch 0 at seed 12345, every metric whose
# unit is "count" or "ratio"
PAPER_BATCH_COUNTS = {
    "fractional.best_response.calls": 62,
    "fractional.dinkelbach.rounds": 172,
    "fractional.dinkelbach.rounds_per_call": 172 / 62,
    "fractional.dinkelbach.failures": 0,
    "linalg.as_vector.calls": 8548,
    "oracles.subgradient.calls": 3774,
    "sets.project.calls": 120,
    "solver.ng1.iterations": 3774,
    "solver.ng1.status.zero_gradient": 0,
    "solver.ng1.status.fixed_point": 58,
    "solver.ng1.status.step_below_tol": 1,
    "solver.ng1.status.residual_below_tol": 0,
    "solver.ng1.status.max_iter_reached": 1,
    "solver.ng2.iterations": 4282,
    "solver.ng2.status.zero_gradient": 0,
    "solver.ng2.status.fixed_point": 0,
    "solver.ng2.status.step_below_tol": 0,
    "solver.ng2.status.residual_below_tol": 58,
    "solver.ng2.status.max_iter_reached": 2,
    "linalg.symmetric_eigenvalues.calls": 0,
    "linalg.singular_values.calls": 0,
    "monotonicity.check.calls": 0,
    "monotonicity.accept_ratio": 0,
    "generator.draws": 60,
    "generator.accepted": 60,
    "rng.uniforms": 23160,
}


def test_paper_batch_keeps_its_traced_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    workloads = importlib.import_module("workloads")
    paper = workloads.WORKLOADS["paper"]
    with tracer.installed():
        ops = [workloads.timed(call) for call in paper.calls(paper.setup(12345))]
    assert not [op.error for op in ops if op.error]
    counts = {name: value for name, (value, unit) in tracer.metrics(1).items()
              if unit in ("count", "ratio")}
    assert counts.keys() == PAPER_BATCH_COUNTS.keys()
    changed = {name: (value, PAPER_BATCH_COUNTS[name]) for name, value in counts.items()
               if not math.isclose(value, PAPER_BATCH_COUNTS[name], rel_tol=1e-12)}
    assert not changed, f"(traced, pinned) per changed metric: {changed}"
