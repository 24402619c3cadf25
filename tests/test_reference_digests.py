"""The generator's stream is pinned by the instance digests that the
benchmark records in perfbench/reference.json, and the solver by the
paper batch's (status, iterations) signature there and by three more
batches' signatures in tests/data/solve_signatures.json.  That file also
holds the final_residual and x_final of all four batches' solves.  These
tests recompute them with the benchmark's own workload definitions, so a
change to the seeded instances or to a solve fails here and not only in
a benchmark run."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
SIGNATURES = json.loads((Path(__file__).parent / "data" / "solve_signatures.json").read_text())
# final_residual and x_final are pinned by value, not by their bytes, which
# depend on the BLAS build: each entry may differ from its pin by this
# much relative to max(1, |pin|)
FINAL_RTOL = 1e-6


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_reference_covers_every_workload(workloads):
    assert REFERENCE["seed"] == workloads.REFERENCE_SEED == 12345
    assert sorted(REFERENCE["digests"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["paper", "large", "certificate", "paramonotone_gen"])
def test_instance_digest(workloads, name):
    workload = workloads.WORKLOADS[name]
    digest = workloads.instance_digest(workload.instances(workloads.REFERENCE_SEED))
    assert digest == REFERENCE["digests"][name]


@pytest.mark.parametrize("name, seed", [
    ("paper", 12345), ("paper", 601), ("paper", 602), ("large", 12345),
])
def test_batch_keeps_its_signature(workloads, name, seed):
    # batch 0 of a workload at a seed, solved through the workload's own
    # calls; paper at the reference seed is the same-behaviour gate of
    # perfbench/run.py, the others are kept in tests/data
    workload = workloads.WORKLOADS[name]
    batch = workload.setup(seed)
    ops = [workloads.timed(call) for call in workload.calls(batch)]
    if (name, seed) == ("paper", workloads.REFERENCE_SEED):
        expected = REFERENCE["signatures"]["paper"]
    else:
        expected = SIGNATURES[name][str(seed)]
    assert workloads.SolveWorkload.signature(ops) == expected
    worst, where = 0.0, None
    for i, op in enumerate(ops):
        for field in ("final_residual", "x_final"):
            pinned = np.asarray(SIGNATURES[field][name][str(seed)][i])
            diff = np.abs(getattr(op.output, field) - pinned) / np.maximum(1.0, np.abs(pinned))
            if diff.max(initial=0.0) > worst:
                worst, where = float(diff.max()), f"{field} of solve {i} ({op.kind})"
    assert worst <= FINAL_RTOL, f"largest relative difference {worst:.3g}, in {where}"
