"""The certificate's spectra come from numpy's LAPACK routines, whose
bytes may depend on the BLAS thread count.  A subprocess pinned to one
OpenBLAS thread must reach this process's verdicts and ranks on the
reference-seed `certificate` instances, and generate the
`paramonotone_gen` instances that perfbench/reference.json pins.

Run as a script (with src and perfbench on PYTHONPATH) it prints the
same summary as JSON."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def summary(workloads) -> dict:
    """(verdict, rank S, rank A_hat) per `certificate` instance and the
    `paramonotone_gen` instance digest, both at the reference seed."""
    import quasieq as qe

    seed = workloads.REFERENCE_SEED
    reports = [qe.check_paramonotone(inst)
               for inst in workloads.WORKLOADS["certificate"].instances(seed)]
    generated = workloads.WORKLOADS["paramonotone_gen"].instances(seed)
    return {"certificates": [[r.verdict, r.rank_sym, r.rank_a_hat] for r in reports],
            "paramonotone_gen": workloads.instance_digest(generated)}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_one_blas_thread_keeps_verdicts_ranks_and_digest(workloads):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(PERFBENCH),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    pinned = json.loads(run.stdout)
    assert pinned["certificates"] == summary(workloads)["certificates"]
    assert pinned["paramonotone_gen"] == REFERENCE["digests"]["paramonotone_gen"]


if __name__ == "__main__":
    print(json.dumps(summary(importlib.import_module("workloads"))))
