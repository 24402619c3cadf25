"""Projected normal-subgradient method for quasiconvex equilibrium
problems, in two variants:

* ng1 iterates x_{k+1} = P_C(x_k - alpha_k g_k) with a unit diagonal
  GP-subgradient g_k and stops on a zero subgradient, an exact projection
  fixed point, or a step shorter than tol_step;
* ng2 additionally asks the oracle for the residual -min_y f(x_k, y)
  every iteration and stops once it drops below tol_residual, which
  certifies an approximate solution.

The oracle supplies box, diagonal_subgradient(x), residual(x) and, once
per ng2 iterate, probe(x, start) (`oracles.EquilibriumOracle`).  C must
be that box, since the residual is measured over it, so each step is
projected by clipping onto the box's validated bounds.

Both keep a per-iteration trace that can be audited after the fact: the
step-length bound ||x_{k+1} - x_k|| <= alpha_k and a Fejer-type
inequality relating consecutive distances to any feasible point.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError
from .linalg import as_vector, is_integer, is_real
from .sets import BoxSet

VARIANTS = ("ng1", "ng2")
# a subgradient of at most this norm counts as zero: x solves the problem
TOL_ZERO_GRAD = 1e-12
# round-off allowed by step_length_audit and fejer_audit
STEP_AUDIT_SLACK = 1e-12
FEJER_AUDIT_SLACK = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    variant: str = "ng2"
    # step sizes alpha_k = scale / (k + 1): divergent sum, summable squares
    scale: float = 100.0
    max_iter: int = 2000
    tol_step: float = 1e-4
    tol_residual: float = 1e-3
    tol_success: float = 1e-1
    # trace retention: None = full, 0 = none, n = last n records
    trace_keep: Optional[int] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}")
        if not (is_integer(self.max_iter) and self.max_iter >= 1):
            raise ConfigurationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        for name in ("scale", "tol_step", "tol_residual", "tol_success"):
            value = getattr(self, name)
            if not (is_real(value) and 0.0 < value < math.inf):
                raise ConfigurationError(f"{name} must be positive and finite")
        if not (self.trace_keep is None
                or is_integer(self.trace_keep) and self.trace_keep >= 0):
            raise ConfigurationError(
                f"trace_keep must be None or an integer >= 0, got {self.trace_keep!r}")


@dataclass(eq=False)
class IterationRecord:
    k: int
    x: np.ndarray
    g_raw_norm: float
    g_unit: np.ndarray
    alpha: float
    step_norm: float
    residual: Optional[float] = None


class SolveStatus(Enum):
    ZERO_GRADIENT = "solved-by-zero-gradient"
    FIXED_POINT = "solved-by-fixed-point"
    STEP_BELOW_TOL = "step-below-tol"
    RESIDUAL_BELOW_TOL = "residual-below-tol"
    MAX_ITER_REACHED = "max-iter-reached"


@dataclass(eq=False)
class SolveReport:
    status: SolveStatus
    x_final: np.ndarray
    iterations: int
    trace: list[IterationRecord]
    final_residual: float
    best_residual: float
    elapsed_seconds: float


def normal_subgradient_solve(oracle, feasible_set, config: SolverConfig,
                             x0=None) -> SolveReport:
    """Run the normal-subgradient method from x0 (default: box center).

    feasible_set must equal the oracle's box (a BoxSet with the same
    bounds); any other set raises ConfigurationError, or DimensionError
    when its dimension differs.  The start point is projected onto the
    box first.  Every completed projection step appends an
    IterationRecord; under ng2 the record also carries the residual
    -min_y f(x_k, y) evaluated at x_k before the step.  final_residual is
    always the residual at x_final: when ng2 stops before stepping it is
    the last probe's, otherwise (every ng1 stop, and ng2 at max_iter) it
    is one oracle.residual(x_final) call.  best_residual is the least
    residual evaluated.  A subgradient norm or ng2 residual that is not
    finite raises DomainError naming the iteration.
    """
    box = oracle.box
    if not isinstance(feasible_set, BoxSet):
        raise ConfigurationError(
            f"feasible set must be the oracle's BoxSet, got {type(feasible_set).__name__}"
        )
    if feasible_set.dim != box.dim:
        raise DimensionError(
            f"oracle dimension {box.dim} != set dimension {feasible_set.dim}"
        )
    if not (np.array_equal(feasible_set.lo, box.lo)
            and np.array_equal(feasible_set.hi, box.hi)):
        raise ConfigurationError("feasible set differs from the oracle's box")
    lo, hi = box.lo, box.hi
    ng2 = config.variant == "ng2"

    x = box.project(box.center if x0 is None else x0)

    trace = deque(maxlen=config.trace_keep)
    best_residual = math.inf

    response = None  # ng2: the last best response, where the next probe starts
    start = time.perf_counter()
    for k in range(config.max_iter):
        if ng2:
            g, residual, response = oracle.probe(x, response)
            if not math.isfinite(residual):
                raise DomainError(f"residual {residual:g} is not finite at iterate {k}")
            best_residual = min(best_residual, residual)
            if residual < config.tol_residual:
                status = SolveStatus.RESIDUAL_BELOW_TOL
                break
        else:
            g, residual = oracle.diagonal_subgradient(x), None
        g_raw_norm = math.sqrt(g @ g)
        if not math.isfinite(g_raw_norm):
            raise DomainError(f"subgradient norm {g_raw_norm:g} is not finite at iterate {k}")
        if g_raw_norm <= TOL_ZERO_GRAD:
            status = SolveStatus.ZERO_GRADIENT
            break

        g_unit = g / g_raw_norm
        alpha = config.scale / (k + 1)
        x_next = np.clip(x - alpha * g_unit, lo, hi)
        step = x_next - x
        step_norm = math.sqrt(step @ step)
        if config.trace_keep != 0:
            trace.append(IterationRecord(
                k=k, x=x.copy(), g_raw_norm=g_raw_norm, g_unit=g_unit,
                alpha=alpha, step_norm=step_norm, residual=residual,
            ))

        if not step.any():
            status = SolveStatus.FIXED_POINT
            break
        x, residual = x_next, None  # the probed residual was the old x's
        if not ng2 and step_norm < config.tol_step:
            status = SolveStatus.STEP_BELOW_TOL
            break
    else:
        status = SolveStatus.MAX_ITER_REACHED
    elapsed = time.perf_counter() - start

    final_residual = oracle.residual(x) if residual is None else residual
    best_residual = min(best_residual, final_residual)

    return SolveReport(
        status=status,
        x_final=x,
        iterations=k + 1,
        trace=list(trace),
        final_residual=final_residual,
        best_residual=best_residual,
        elapsed_seconds=elapsed,
    )


def step_length_audit(trace) -> bool:
    """Check ||x_{k+1} - x_k|| <= alpha_k on every record."""
    if not trace:
        raise ValueError("trace is empty")
    return all(rec.step_norm <= rec.alpha + STEP_AUDIT_SLACK for rec in trace)


def fejer_audit(trace, z, x_final=None) -> bool:
    """Check the Fejer-type inequality

        ||x_{k+1} - z||^2 <= ||x_k - z||^2
                             + 2 alpha_k <g_k, z - x_k> + 2 alpha_k^2

    over consecutive trace records (g_k is the stored unit subgradient).
    When x_final is given, the last record's step into x_final is audited
    too.  A trace with fewer than two records and no x_final is vacuously
    true.
    """
    z = as_vector(z, "z")
    pairs = [(trace[i], trace[i + 1].x) for i in range(len(trace) - 1)]
    if x_final is not None and trace:
        pairs.append((trace[-1], as_vector(x_final, "x_final")))
    for rec, x_next in pairs:
        if rec.x.size != z.size:
            raise DimensionError("z dimension does not match trace")
        lhs = float(np.sum((x_next - z) ** 2))
        rhs = (
            float(np.sum((rec.x - z) ** 2))
            + 2.0 * rec.alpha * float(rec.g_unit @ (z - rec.x))
            + 2.0 * rec.alpha**2
        )
        if lhs > rhs + FEJER_AUDIT_SLACK:
            return False
    return True
