"""Exact minimization of affine-fractional objectives over a box.

The workhorse is Dinkelbach iteration: min (p'y + q)/(c'y + d) is found
by repeatedly minimizing the parametric affine function
(p - alpha c)'y + (q - alpha d) over the box, which has a closed-form
vertex solution, and updating alpha to the ratio at the minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError
from .linalg import as_vector
from .sets import BoxSet

DINKELBACH_TOL = 1e-10
DINKELBACH_MAX_ITER = 100


@dataclass(frozen=True)
class FractionalObjective:
    """y |-> (p'y + q) / (c'y + d); the denominator must stay positive
    over the box it is minimized on."""

    p: np.ndarray
    q: float
    c: np.ndarray
    d: float

    def __post_init__(self):
        p = as_vector(self.p, "p")
        c = as_vector(self.c, "c")
        if p.shape != c.shape:
            raise DimensionError("p and c must have the same dimension")
        q, d = float(self.q), float(self.d)
        if not (math.isfinite(q) and math.isfinite(d)):
            raise ValueError(f"q and d must be finite, got q={q!r}, d={d!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    @classmethod
    def _unchecked(cls, p: np.ndarray, q: float, c: np.ndarray, d: float):
        """Build from coefficients the package computed out of validated
        data, skipping the checks in __post_init__."""
        obj = object.__new__(cls)
        obj.__dict__.update(p=p, q=q, c=c, d=d)
        return obj

    def numerator(self, y: np.ndarray) -> float:
        return float(self.p @ y) + self.q

    def denominator(self, y: np.ndarray) -> float:
        return float(self.c @ y) + self.d

    def ratio(self, y: np.ndarray) -> float:
        """Value at a finite float vector y of the objective's dimension;
        only the sign of the denominator is checked."""
        den = float(self.c @ y) + self.d
        if den <= 0.0:
            raise DomainError(f"denominator {den:g} is not positive at y={y}")
        return (float(self.p @ y) + self.q) / den

    def __call__(self, y) -> float:
        y = as_vector(y, "y")
        if y.size != self.p.size:
            raise DimensionError(f"y has dimension {y.size}, objective has {self.p.size}")
        return self.ratio(y)


@dataclass(frozen=True)
class DinkelbachResult:
    y: np.ndarray
    value: float
    iterations: int
    alphas: tuple[float, ...]


def _minimizing_vertex(w: np.ndarray, box: BoxSet) -> np.ndarray:
    """argmin of w'y over the box: lo where w > 0, hi where w < 0, ties
    broken to lo.  w must have the box's dimension; it is not checked."""
    return np.where(w < 0.0, box.hi, box.lo)


def dinkelbach_minimize(obj: FractionalObjective, box: BoxSet) -> DinkelbachResult:
    """Minimize an affine-fractional objective over a box.

    Starting from alpha = obj(box center), each round minimizes
    F(alpha) = min_y (p - alpha c)'y + (q - alpha d) in closed form and
    either stops (|F| below the scaled tolerance) or resets alpha to the
    objective value at the minimizer.  The alpha sequence is
    nonincreasing; this is asserted each round.  The tolerance and the
    round cap are DINKELBACH_TOL and DINKELBACH_MAX_ITER.
    """
    if obj.p.size != box.dim:
        raise DimensionError(f"objective has dimension {obj.p.size}, box has {box.dim}")
    y = box.center
    alpha = obj.ratio(y)
    alphas = [alpha]
    for iteration in range(1, DINKELBACH_MAX_ITER + 1):
        w = obj.p - alpha * obj.c
        y = _minimizing_vertex(w, box)
        f_alpha = float(w @ y) + obj.q - alpha * obj.d
        den = obj.denominator(y)
        if den <= 0.0:
            raise DomainError(f"denominator {den:g} is not positive at y={y}")
        new_alpha = obj.numerator(y) / den
        if abs(f_alpha) <= DINKELBACH_TOL * max(1.0, abs(alpha) * den):
            return DinkelbachResult(y, new_alpha, iteration, tuple(alphas))
        assert new_alpha <= alpha + 1e-12 * max(1.0, abs(alpha)), \
            "Dinkelbach ratio increased"
        alpha = new_alpha
        alphas.append(alpha)
    raise ConvergenceError(
        f"Dinkelbach did not converge in {DINKELBACH_MAX_ITER} iterations",
        last_point=y,
        last_value=alpha,
    )


def response_objective(inst, x) -> FractionalObjective:
    """Fractional objective phi_x(y) = (p'y + q)/(c'y + d) of an
    affine-fractional instance at the point x, with p = A1'(Ax + b) and
    q = b1'(Ax + b), so that f(x, y) = phi_x(y) - phi_x(x)."""
    return _response_objective(inst, as_vector(x, "x"))


def _response_objective(inst, x: np.ndarray) -> FractionalObjective:
    """response_objective for an x the caller has already validated."""
    u = inst.A @ x + inst.b
    return FractionalObjective._unchecked(inst.A1.T @ u, float(inst.b1 @ u),
                                          inst.c, inst.d)


def best_response_residual(inst, x) -> tuple[np.ndarray, float]:
    """Best response y* = argmin_y f(x, y) over the instance box and the
    residual -min_y f(x, y).

    The residual is nonnegative up to solver tolerance (y = x is always
    feasible) and equals zero exactly when x solves the equilibrium
    problem.
    """
    x = as_vector(x, "x")
    obj = _response_objective(inst, x)
    result = dinkelbach_minimize(obj, inst.box)
    return result.y, obj.ratio(x) - result.value
