"""The four benchmark workloads and the checks on their outputs.

A workload is run batch by batch.  `setup(seed)` generates one batch of
inputs (timed as set-up), `calls(batch)` lists the calls into the public
quasieq API that are timed, one `Op` each, and `check(batch, ops)`
verifies every output against an independent recomputation.

Batch j of a run uses seed `run_seed + (j % pool) * SEED_STRIDE`: the run
cycles through a fixed pool of `pool` batches in whole passes.  So every
run at one seed works on the same instances, and a faster program
repeats them instead of drawing new ones.  A pass takes 17 to 30 s on a
2-CPU machine.  On `paper` a few solves that run to max_iter take most
of the time and how many a seed draws varies, so its pass is 32
batches, about 30 s.  Within a batch, size index i uses
`batch_seed + i`, as `quasieq.run_benchmark` does, so batch 0 of
`paper` is the batch `quasieq bench` solves.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

import quasieq as qe
from quasieq.monotonicity import DEFAULT_TOL

SEED_STRIDE = 1_000_003
REFERENCE_SEED = 12345
RESIDUAL_MATCH_RTOL = 1e-8


@dataclass
class Op:
    """One timed call and the number of results it `produced`: a solve,
    a certificate or the accepted instances."""

    kind: str
    seconds: float
    produced: int
    error: str | None
    output: object


@dataclass(frozen=True)
class Call:
    kind: str
    fn: object
    args: tuple


def timed(call: Call) -> Op:
    """Make one call and time it; an exception is recorded by type and
    the call's time is kept."""
    t0 = time.perf_counter()
    try:
        output = call.fn(*call.args)
    except Exception as exc:  # counted by type, never swallowed silently
        return Op(call.kind, time.perf_counter() - t0, 0, type(exc).__name__, None)
    seconds = time.perf_counter() - t0
    produced = len(output) if isinstance(output, list) else 1
    return Op(call.kind, seconds, produced, None, output)


def instance_digest(instances) -> str:
    """sha256 over every generated array, in generation order."""
    h = hashlib.sha256()
    for inst in instances:
        for arr in (inst.A, inst.b, inst.A1, inst.b1, inst.c, [inst.d],
                    inst.box.lo, inst.box.hi):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def reference_certificate(inst, tol: float = DEFAULT_TOL):
    """(min eigenvalue, rank of S, rank of A_hat, verdict) from numpy's
    LAPACK routines, decided with the same relative tolerance."""
    a_hat = (inst.d * inst.A1.T - np.outer(inst.c, inst.b1)) @ inst.A
    sym = 0.5 * (a_hat + a_hat.T)
    slack = tol * max(1.0, float(np.linalg.norm(a_hat)))
    min_eig = float(np.linalg.eigvalsh(sym)[0])

    def rank(m):
        s = np.linalg.svd(m, compute_uv=False)
        return int(np.count_nonzero(s > tol * max(1.0, float(s[0]))))

    rank_sym, rank_a_hat = rank(sym), rank(a_hat)
    return min_eig, rank_sym, rank_a_hat, min_eig >= -slack and rank_sym <= rank_a_hat


def certificate_mismatches(inst, report) -> tuple[list[str], list[str]]:
    """(verdict mismatches, min-eigenvalue and rank mismatches) against
    the numpy reference.  Only a verdict mismatch fails the run; the
    others are reported."""
    min_eig, rank_sym, rank_a_hat, verdict = reference_certificate(inst)
    n = inst.dim
    verdicts, others = [], []
    if bool(report.verdict) != verdict:
        verdicts.append(f"n={n}: verdict {report.verdict} vs numpy {verdict}")
    if abs(report.min_eigenvalue - min_eig) > report.tol:
        others.append(f"n={n}: min eigenvalue {report.min_eigenvalue!r} vs numpy {min_eig!r}")
    if (report.rank_sym, report.rank_a_hat) != (rank_sym, rank_a_hat):
        others.append(f"n={n}: (rank S, rank A_hat) {(report.rank_sym, report.rank_a_hat)} "
                      f"vs numpy {(rank_sym, rank_a_hat)}")
    return verdicts, others


@dataclass
class Checked:
    """Outcome of checking one batch: `successes` of `trials` met the
    workload's success criterion; `failures` make the run incorrect and
    `notes` are reported only."""

    successes: int = 0
    trials: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


# The timed calls look the API up when they run, so that the traced run's
# wrappers on the package namespace are seen.
def solve(oracle, box, config):
    return qe.normal_subgradient_solve(oracle, box, config)


def certify(inst):
    return qe.check_paramonotone(inst)


def generate(config):
    return qe.generate_instances(config)


class SolveWorkload:
    """ng1 then ng2 on every instance of a per-size seeded batch, from the
    box center, with the `quasieq bench` configuration.  One op is one
    solve; its work is the solver iterations it ran."""

    kinds = ("ng1", "ng2")

    def __init__(self, sizes, count, pool):
        self.sizes, self.count, self.pool = sizes, count, pool
        base = qe.SolverConfig()
        self.configs = [replace(base, variant=v, trace_keep=0) for v in self.kinds]
        self.tol_success = base.tol_success

    def instances(self, seed):
        return [inst for i, n in enumerate(self.sizes)
                for inst in qe.generate_instances(
                    qe.GeneratorConfig(n=n, count=self.count, seed=seed + i))]

    def setup(self, seed):
        return [(inst, qe.AffineFractionalOracle(inst)) for inst in self.instances(seed)]

    def calls(self, batch):
        return [Call(config.variant, solve, (oracle, inst.box, config))
                for config in self.configs for inst, oracle in batch]

    @staticmethod
    def work(op) -> int:
        """Solver iterations.  A few solves that run to max_iter take most
        of the time, and how many a seed draws varies more than the
        benchmark's bound allows; the time per iteration does not."""
        return op.output.iterations if op.output is not None else 0

    def check(self, batch, ops) -> Checked:
        """Recompute the residual at each returned x_final; a solve
        succeeds when that residual is below tol_success."""
        out = Checked(trials=len(ops))
        for op, (inst, _) in zip(ops, batch * len(self.configs)):
            if op.error:
                continue
            report = op.output
            _, residual = qe.best_response_residual(inst, report.x_final)
            reported = report.final_residual
            if reported is None or abs(residual - reported) > RESIDUAL_MATCH_RTOL * max(1.0, abs(residual)):
                out.failures.append(f"{op.kind} n={inst.dim}: final_residual {reported!r} "
                                    f"but residual at x_final is {residual!r}")
            if not inst.box.contains(report.x_final):
                out.failures.append(f"{op.kind} n={inst.dim}: x_final outside the box")
            out.successes += residual < self.tol_success
        return out

    @staticmethod
    def signature(ops):
        return [f"{op.kind} {op.error}" if op.error else
                f"{op.kind} {op.output.status.value} {op.output.iterations}" for op in ops]


class CertificateWorkload:
    """check_paramonotone on the first seeded instance of each size.  One
    op is one certificate."""

    def __init__(self, sizes, pool):
        self.sizes, self.pool = sizes, pool

    def instances(self, seed):
        return [qe.generate_instances(qe.GeneratorConfig(n=n, count=1, seed=seed + i))[0]
                for i, n in enumerate(self.sizes)]

    setup = instances

    def calls(self, batch):
        return [Call("certificate", certify, (inst,)) for inst in batch]

    @staticmethod
    def work(op) -> int:
        return op.produced

    def check(self, batch, ops) -> Checked:
        """A certificate succeeds when its verdict agrees with numpy."""
        out = Checked(trials=len(ops))
        for op, inst in zip(ops, batch):
            if op.error:
                continue
            verdicts, others = certificate_mismatches(inst, op.output)
            out.failures += verdicts
            out.notes += others
            out.successes += not verdicts
        return out


class ParamonotoneGenWorkload:
    """One rejection-sampled paramonotone batch per call.  One op is one
    call; it produces `count` instances."""

    def __init__(self, n, count, pool):
        self.n, self.count, self.pool = n, count, pool

    def setup(self, seed):
        return qe.GeneratorConfig(n=self.n, count=self.count, seed=seed,
                                  require_paramonotone=True)

    def instances(self, seed):
        return qe.generate_instances(self.setup(seed))

    def calls(self, config):
        return [Call("generate", generate, (config,))]

    @staticmethod
    def work(op) -> int:
        return op.produced

    def check(self, config, ops) -> Checked:
        """The call must return `count` instances that numpy confirms are
        paramonotone; an instance succeeds when it is confirmed."""
        out = Checked(trials=self.count * len(ops))
        for op in ops:
            if op.error:
                continue
            if len(op.output) != self.count:
                out.failures.append(f"returned {len(op.output)} instances, asked for {self.count}")
            for inst in op.output:
                verdicts, others = certificate_mismatches(inst, qe.check_paramonotone(inst))
                if not reference_certificate(inst)[3]:
                    verdicts.append(f"n={inst.dim}: accepted, but numpy finds it not paramonotone")
                out.failures += verdicts
                out.notes += others
                out.successes += not verdicts
        return out


WORKLOADS = {
    "paper": SolveWorkload(sizes=(5, 10, 20), count=20, pool=32),
    "large": SolveWorkload(sizes=(50, 100, 200), count=5, pool=6),
    "certificate": CertificateWorkload(sizes=(20, 50, 100, 200), pool=2),
    "paramonotone_gen": ParamonotoneGenWorkload(n=3, count=20, pool=14),
}
