"""The generator's stream is pinned by the instance digests that the
benchmark records in perfbench/reference.json.  These tests recompute
them with the benchmark's own workload definitions, so a change to the
seeded instances fails here and not only in a benchmark run."""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


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
