"""quasieq benchmark: one seeded workload, measured end to end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper --seed 12345 --seconds 15 --trace 0

The workload runs serially in this one process, batch after batch (a
closed loop of one caller), in whole passes over the workload's pool of
seeded batches, until its timed calls add up to --seconds.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json.  With --trace 1 every call
is made twice, untraced and traced in alternating order, the run stops
on time alone after at least one batch, and the object holds the
per-module metrics and the tracing overhead.  Every output is checked, and a call that
raises counts as failed; "correct" is false if any check fails or any
call raised.  Only each call's time and result count outlive the batch,
so memory does not grow with the number of batches.  Exits 2 without a
result when the checkout has no quasieq source.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
NOTES_KEPT = 10
SETUP_SAMPLES = 5  # set-up is timed at least this often, for a steady median

# The per-workload figures printed above the result line, with their units;
# a figure that does not apply to the workload prints as n/a.
NAMED_UNITS = {
    "ng1.solves_per_s": "1/s", "ng2.solves_per_s": "1/s",
    "ng1.solve_ms_p50": "ms", "ng2.solve_ms_p50": "ms", "ng2.solve_ms_p90": "ms",
    "success_rate": "fraction", "certs_per_s": "1/s", "accepted_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "large", "certificate", "paramonotone_gen"))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "git_sha": git_sha(),
    }


def percentile_with_tail(values, pct: int):
    """The pct-th percentile when at least 10 samples lie beyond it."""
    if len(values) * (100 - pct) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


def solve_metrics(seconds, produced, kinds):
    """Per-variant throughput, median and tail solve times."""
    out = {}
    for kind in kinds:
        ms = [s * 1e3 for s in seconds[kind]]
        out[f"{kind}.solves_per_s"] = (produced[kind] / sum(seconds[kind]), "1/s")
        out[f"{kind}.solve_ms_p50"] = (statistics.median(ms), "ms")
        p90 = percentile_with_tail(ms, 90)
        out[f"{kind}.solve_ms_p90"] = (p90, f"ms over {len(ms)} solves")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quasieq" / "__init__.py").is_file():
        print(f"perfbench: no quasieq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import (REFERENCE_SEED, SEED_STRIDE, WORKLOADS, SolveWorkload,
                           instance_digest, timed)

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    env = environment()
    setup_times, problems, notes = [], [], []
    seconds = defaultdict(lambda: array("d"))  # per call kind
    produced, work, errors = Counter(), Counter(), Counter()
    successes = trials = batches = paired = notes_seen = 0
    timed_s = untraced_s = traced_s = 0.0
    # Whole passes, so that every run at one seed weighs each batch of the
    # pool equally however fast the program is.
    per_pass = 1 if tracer else workload.pool
    while batches == 0 or batches % per_pass or timed_s < args.seconds:
        seed = args.seed + (batches % workload.pool) * SEED_STRIDE
        t0 = time.perf_counter()
        with tracer.installed() if tracer else nullcontext():
            batch = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        if tracer is None:
            passes = [[timed(call) for call in workload.calls(batch)]]
        else:
            # Each call runs untraced and traced back to back, in alternating
            # order, so that the overhead is measured on the same input and
            # under the same machine load.
            passes = [[], []]
            for call in workload.calls(batch):
                for traced in (False, True) if paired % 2 == 0 else (True, False):
                    with tracer.installed() if traced else nullcontext():
                        passes[traced].append(timed(call))
                paired += 1
            untraced_s += sum(op.seconds for op in passes[0])
            traced_s += sum(op.seconds for op in passes[1])
        for batch_ops in passes:
            timed_s += sum(op.seconds for op in batch_ops)
            checked = workload.check(batch, batch_ops)
            successes += checked.successes
            trials += checked.trials
            problems += checked.failures
            notes_seen += len(checked.notes)
            notes += checked.notes[:max(0, NOTES_KEPT - len(notes))]
            for op in batch_ops:
                seconds[op.kind].append(op.seconds)
                produced[op.kind] += op.produced
                work[op.kind] += workload.work(op)
                if op.error:
                    errors[op.error] += 1
                    problems.append(f"{op.kind} call raised {op.error}")
        batches += 1
    while len(setup_times) < SETUP_SAMPLES:
        seed = args.seed + (len(setup_times) % workload.pool) * SEED_STRIDE
        t0 = time.perf_counter()
        workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    # Seeded instances must stay bit-identical to the recorded reference.
    reference = json.loads((HERE / "reference.json").read_text())
    digest = instance_digest(workload.instances(REFERENCE_SEED))
    if digest != reference["digests"][args.workload]:
        problems.append(f"instance digest at seed {REFERENCE_SEED} is {digest}, "
                        f"recorded {reference['digests'][args.workload]}")
    signature_note = None
    if isinstance(workload, SolveWorkload) and args.workload in reference["signatures"]:
        expected = reference["signatures"][args.workload]
        got = SolveWorkload.signature(
            [timed(call) for call in workload.calls(workload.setup(REFERENCE_SEED))])
        same = sum(a == b for a, b in zip(got, expected))
        signature_note = (f"{same}/{len(expected)} solves keep their (status, iterations) "
                          f"at seed {REFERENCE_SEED}: {'match' if got == expected else 'DIFFERS'}")

    attempted = sum(len(v) for v in seconds.values())
    failed = sum(errors.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {batches}  timed {timed_s:.3f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"errors by type {dict(errors)}")
    print(f"instance digest at seed {REFERENCE_SEED}: {digest}")
    if signature_note:
        print("same-behaviour gate: " + signature_note)
    print(f"{notes_seen} disagreements with numpy that do not change a verdict")
    for note in notes:
        print("  disagreement: " + note)
    print(f"{len(problems)} failed checks")
    for problem in problems[:20]:
        print("CHECK FAILED: " + problem)

    if tracer is not None:
        metrics = tracer.metrics(batches)
        overhead = traced_s - untraced_s
        metrics["trace.overhead_s"] = (overhead / batches, "s")
        metrics["trace.overhead_share"] = (overhead / untraced_s, "fraction")
        metrics["trace.batches"] = (float(batches), "count")
    else:
        metrics = {
            "work_per_s": (sum(work.values()) / timed_s, "1/s"),
            "success_rate": (successes / trials, "fraction"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        named = {name: (None, unit) for name, unit in NAMED_UNITS.items()}
        if isinstance(workload, SolveWorkload):
            named.update(solve_metrics(seconds, produced, workload.kinds))
        named["success_rate"] = metrics["success_rate"]
        if args.workload == "certificate":
            named["certs_per_s"] = metrics["work_per_s"]
        elif args.workload == "paramonotone_gen":
            named["accepted_per_s"] = metrics["work_per_s"]
        named["setup_s"] = metrics["setup_s"]
        named["peak_rss_mb"] = metrics["peak_rss_mb"]
        named["error_rate"] = (failed / attempted, "fraction")
        for name, (value, unit) in named.items():
            print(f"  {name} = " + ("n/a" if value is None else f"{value:.6g} {unit}"))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
