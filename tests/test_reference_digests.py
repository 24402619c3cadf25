"""The generator's stream is pinned by the instance digests that the
benchmark records in perfbench/reference.json, and the solver by the
paper batch's (status, iterations) signature there and by three more
batches' signatures in tests/data/solve_signatures.json.  That file also
holds the final_residual and x_final of all four batches' solves, and
tests/data/certificate_reports.json every report of the certificate
workload's pool at three seeds, and tests/data/pool_digests.json the
instance digest of every pool batch of paramonotone_gen at three seeds
and of large at one, so every refill shape the benchmark makes.  These
tests recompute them with the
benchmark's own workload definitions, so a change to the seeded
instances, a solve or a certificate fails here and not only in a
benchmark run."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from quasieq import check_paramonotone

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


POOLS = json.loads((Path(__file__).parent / "data" / "pool_digests.json").read_text())


@pytest.mark.parametrize("name, seed", [
    ("paramonotone_gen", 12345), ("paramonotone_gen", 601), ("paramonotone_gen", 602),
    ("large", 12345),
])
def test_pool_batches_keep_their_instances(workloads, name, seed):
    workload = workloads.WORKLOADS[name]
    pins = POOLS[name][str(seed)]
    assert len(pins) == workload.pool
    for j, pin in enumerate(pins):
        batch = workload.instances(seed + j * workloads.SEED_STRIDE)
        assert workloads.instance_digest(batch) == pin, f"pool batch {j}"


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


CERTIFICATES = json.loads((Path(__file__).parent / "data" / "certificate_reports.json").read_text())
# min_eigenvalue, tol and the (Frobenius norm, entry sum) that stand for the
# a_hat and a_hat_sym arrays: the bytes of LAPACK's spectra vary with the
# build and the thread count, so each may differ from its pin by this much
# relative to max(1, |pin|); verdict and ranks are compared exactly
CERTIFICATE_RTOL = 1e-9


@pytest.mark.parametrize("seed", [12345, 601, 602])
def test_certificates_keep_their_reports(workloads, seed):
    # every report of the certificate workload's pool batches at a seed
    certificate = workloads.WORKLOADS["certificate"]
    insts = [inst for j in range(certificate.pool)
             for inst in certificate.setup(seed + j * workloads.SEED_STRIDE)]
    pins = CERTIFICATES[str(seed)]
    assert len(insts) == len(pins) == 8
    for inst, pin in zip(insts, pins):
        report = check_paramonotone(inst)
        where = f"n={inst.dim}"
        assert (inst.dim, report.verdict, report.rank_sym, report.rank_a_hat) == (
            pin["n"], pin["verdict"], pin["rank_sym"], pin["rank_a_hat"]), where
        got = {"min_eigenvalue": [report.min_eigenvalue], "tol": [report.tol],
               "a_hat": [np.linalg.norm(report.a_hat), report.a_hat.sum()],
               "a_hat_sym": [np.linalg.norm(report.a_hat_sym), report.a_hat_sym.sum()]}
        for field, values in got.items():
            pinned = np.atleast_1d(pin[field])
            scale = np.maximum(1.0, np.abs(pinned[0]))  # a sum is judged against its norm
            diff = float(np.max(np.abs(np.asarray(values) - pinned) / scale))
            assert diff <= CERTIFICATE_RTOL, f"{field} at {where}: relative difference {diff:.3g}"
