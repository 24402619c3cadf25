"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts the same condition, so the suite doubles as a human-readable
checklist of what the package promises:

 1. exact convergence on the 1-D toy variational inequality;
 2. the per-step length bound holds on every recorded iteration;
 3. the Fejer-type inequality holds along every recorded trajectory;
 4. Dinkelbach matches a dense-grid brute force on best responses;
 5. sampled subgradient separation never fails;
 6. ng2 batch success rates and mean errors at n in {5, 10, 20};
 7. ng1 batch success rates under the same setup;
 8. residuals at termination improve on the starting residual;
 9. the paramonotonicity certificate agrees with worked examples and
    with a sampled positive-semidefiniteness test;
10. benchmark runs are bit-reproducible across equal seeds.
"""

import time

import numpy as np
import pytest

from quasieq.bench import run_benchmark
from quasieq.fractional import best_response_residual, dinkelbach_minimize
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.monotonicity import check_paramonotone
from quasieq.oracles import (
    AffineFractionalInstance,
    AffineFractionalOracle,
    affine_vi_instance,
    fractional_diagonal_subgradient,
    fractional_value,
)
from quasieq.sets import BoxSet
from quasieq.solver import (
    SolveStatus,
    SolverConfig,
    fejer_audit,
    normal_subgradient_solve,
    step_length_audit,
)
from reference_minimizers import grid_bruteforce_minimize

AUDIT_SIZES = (2, 5, 10)
AUDIT_COUNT = 20
AUDIT_SEED = 9000


def _verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def audited_solves():
    """60 ng1 solves (20 per size) with full traces kept for auditing."""
    runs = []
    for n in AUDIT_SIZES:
        cfg = SolverConfig(variant="ng1", trace_keep=None)
        for inst in generate_instances(
            GeneratorConfig(n=n, count=AUDIT_COUNT, seed=AUDIT_SEED + n)
        ):
            report = normal_subgradient_solve(
                AffineFractionalOracle(inst), inst.box, cfg
            )
            runs.append((inst, report))
    return runs


def test_01_toy_vi_convergence(unit_box):
    t1 = affine_vi_instance(M=[[1.0]], r=[-2.0], box=unit_box)
    cfg = SolverConfig(variant="ng1", scale=1.0)
    report = normal_subgradient_solve(
        AffineFractionalOracle(t1), t1.box, cfg, x0=np.array([1.0])
    )
    error = abs(float(report.x_final[0]) - 2.0)
    ok = error <= 1e-9 and report.iterations <= 5
    _verdict(
        1, "toy-vi-convergence", ok,
        f"|x-2|={error:.2e}, iterations={report.iterations}, "
        f"status={report.status.value}",
    )


def test_02_step_length_bound(audited_solves):
    audited = 0
    violations = 0
    for _, report in audited_solves:
        audited += len(report.trace)
        if report.trace and not step_length_audit(report.trace):
            violations += 1
    ok = violations == 0 and len(audited_solves) == 60
    _verdict(
        2, "step-length-bound", ok,
        f"{audited} iterations across {len(audited_solves)} solves, "
        f"{violations} violating runs",
    )


def test_03_fejer_inequality(audited_solves):
    violations = 0
    for inst, report in audited_solves:
        if report.trace and not fejer_audit(
            report.trace, inst.box.center, report.x_final
        ):
            violations += 1
    _verdict(
        3, "fejer-inequality", violations == 0,
        f"z=box center, {len(audited_solves)} trajectories, "
        f"{violations} violating runs",
    )


def test_04_dinkelbach_vs_bruteforce():
    instances = generate_instances(GeneratorConfig(n=2, count=50, seed=9100))
    point_rng = np.random.default_rng(9100)
    worst_gap = 0.0
    worst_iters = 0
    ok = True
    for inst in instances:
        x = point_rng.uniform(1.0, 3.0, size=2)
        # the response objective at x, formed here: p = A1'(Ax + b), q = b1'(Ax + b)
        u = inst.A @ x + inst.b
        objective = (inst.A1.T @ u, float(inst.b1 @ u), inst.c, inst.d)
        result = dinkelbach_minimize(*objective, inst.box)
        _, grid_val = grid_bruteforce_minimize(*objective, inst.box, points_per_axis=401)
        gap = abs(result.value - grid_val)
        worst_gap = max(worst_gap, gap)
        worst_iters = max(worst_iters, result.iterations)
        if gap > 1e-3 or result.iterations > 20:
            ok = False
    _verdict(
        4, "dinkelbach-vs-bruteforce", ok,
        f"50 problems, worst gap {worst_gap:.2e}, worst iterations {worst_iters}",
    )


def test_05_subgradient_separation():
    sample_rng = np.random.default_rng(9200)
    checked = 0
    violations = 0
    for inst in generate_instances(GeneratorConfig(n=5, count=20, seed=9200)):
        xs = sample_rng.uniform(1.0, 3.0, size=(1000, 5))
        ys = sample_rng.uniform(1.0, 3.0, size=(1000, 5))
        for x, y in zip(xs, ys):
            if fractional_value(inst, x, y) < -1e-10:
                checked += 1
                g = fractional_diagonal_subgradient(inst, x)
                if float(np.dot(g, y - x)) >= 0.0:
                    violations += 1
    _verdict(
        5, "subgradient-separation", violations == 0 and checked > 0,
        f"{checked} separating pairs over 20 instances, {violations} violations",
    )


def test_06_ng2_batch():
    t0 = time.perf_counter()
    report = run_benchmark(sizes=(5, 10, 20), count=20, seed=4100,
                           config=SolverConfig(variant="ng2"))
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 120.0
    parts = []
    for row in report.rows:
        rate = row.n_success / row.n_prob
        parts.append(f"n={row.n}: {row.n_success}/{row.n_prob}, "
                     f"err={row.mean_error:.2e}")
        if rate < 0.90 or row.mean_error > 1e-2:
            ok = False
    _verdict(6, "ng2-batch", ok, "; ".join(parts) + f"; {elapsed:.1f}s")


def test_07_ng1_batch():
    report = run_benchmark(sizes=(5, 10, 20), count=20, seed=4100,
                           config=SolverConfig(variant="ng1"))
    ok = True
    parts = []
    for row in report.rows:
        rate = row.n_success / row.n_prob
        parts.append(f"n={row.n}: {row.n_success}/{row.n_prob}")
        if rate < 0.85:
            ok = False
    _verdict(7, "ng1-batch", ok, "; ".join(parts))


def test_08_residual_decreases():
    cfg = SolverConfig(variant="ng2", trace_keep=0)
    ok = True
    finals = []
    for inst in generate_instances(GeneratorConfig(n=5, count=10, seed=777)):
        _, initial = best_response_residual(inst, inst.box.center)
        report = normal_subgradient_solve(
            AffineFractionalOracle(inst), inst.box, cfg
        )
        finals.append(report.final_residual)
        if not (report.final_residual < 1e-3 and report.final_residual < initial):
            ok = False
    _verdict(
        8, "residual-decreases", ok,
        f"10 runs, max final residual {max(finals):.2e}",
    )


def test_09_paramonotonicity_checker():
    box = BoxSet.uniform(2, 1.0, 3.0)
    identity = AffineFractionalInstance(
        A=np.eye(2), b=np.zeros(2), A1=np.eye(2), b1=np.zeros(2),
        c=np.zeros(2), d=1.0, box=box,
    )
    e1 = np.array([1.0, 0.0])
    rank_one = AffineFractionalInstance(
        A=np.eye(2), b=np.zeros(2), A1=np.eye(2), b1=e1, c=e1, d=1.0, box=box,
    )
    negated = AffineFractionalInstance(
        A=np.eye(2), b=np.zeros(2), A1=-np.eye(2), b1=np.zeros(2),
        c=np.zeros(2), d=1.0, box=box,
    )
    worked = (
        check_paramonotone(identity).verdict is True
        and check_paramonotone(rank_one).verdict is True
        and check_paramonotone(negated).verdict is False
    )

    sample_rng = np.random.default_rng(9300)
    mismatches = 0
    for inst in generate_instances(GeneratorConfig(n=5, count=20, seed=9300)):
        report = check_paramonotone(inst)
        v = sample_rng.normal(size=(10_000, 5))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        quads = np.einsum("ij,jk,ik->i", v, report.a_hat_sym, v)
        sampled_psd = bool(np.all(quads >= -1e-8))
        eig_psd = report.min_eigenvalue >= -report.tol
        if sampled_psd != eig_psd:
            mismatches += 1
    ok = worked and mismatches == 0
    _verdict(
        9, "paramonotonicity-checker", ok,
        f"worked examples {'ok' if worked else 'WRONG'}, "
        f"{mismatches} sampled-PSD mismatches over 20 instances",
    )


def test_10_benchmark_reproducibility():
    kwargs = dict(sizes=(5, 10), count=10, seed=4200,
                  config=SolverConfig(variant="ng2"))
    first = run_benchmark(**kwargs)
    second = run_benchmark(**kwargs)
    ok = len(first.rows) == len(second.rows)
    for a, b in zip(first.rows, second.rows):
        if (a.n, a.n_prob, a.n_success, a.mean_error) != (
            b.n, b.n_prob, b.n_success, b.mean_error
        ):
            ok = False
    _verdict(
        10, "benchmark-reproducibility", ok,
        "success counts and mean errors identical across equal-seed runs",
    )
