"""Exact minimization of affine-fractional objectives over a box.

The workhorse is Dinkelbach iteration: min (p'y + q)/(c'y + d) is found
by repeatedly minimizing the parametric linear function (p - alpha c)'y
over the box, which has a closed-form vertex solution, and updating
alpha to the ratio at the minimizer.  It stops as soon as the ratio
stops falling, which takes at most n + 2 rounds and needs no tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import as_real, as_vector
from .sets import BoxSet


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", as_real(self.q, "q"))
        object.__setattr__(self, "d", as_real(self.d, "d"))

    @classmethod
    def _unchecked(cls, p: np.ndarray, q: float, c: np.ndarray, d: float):
        """Build from coefficients the package computed out of validated
        data, skipping the checks in __post_init__."""
        obj = object.__new__(cls)
        obj.__dict__.update(p=p, q=q, c=c, d=d)
        return obj

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


@dataclass(frozen=True, eq=False)
class DinkelbachResult:
    y: np.ndarray
    value: float
    iterations: int


def _minimizing_vertex(w: np.ndarray, box: BoxSet) -> np.ndarray:
    """argmin of w'y over the box: lo where w > 0, hi where w < 0, ties
    broken to lo.  w must have the box's dimension; it is not checked."""
    return np.where(w < 0.0, box.hi, box.lo)


def _check_denominator(c: np.ndarray, d: float, box: BoxSet) -> None:
    """DomainError unless min over the box of c'y + d, taken in closed
    form at the minimizing vertex of c, is positive."""
    min_den = float(c @ _minimizing_vertex(c, box)) + d
    if not min_den > 0.0:
        raise DomainError(f"c'y + d is not positive over the box (minimum {min_den:g})")


def dinkelbach_minimize(obj: FractionalObjective, box: BoxSet) -> DinkelbachResult:
    """Minimize an affine-fractional objective over a box.

    The denominator must be positive over the whole box; this is checked
    once.  Starting from alpha = obj(y0), y0 the vertex minimizing p'y
    (optimal when c = 0), each round takes the vertex y' minimizing
    (p - alpha c)'y and its ratio alpha'.  The first round whose alpha'
    is not strictly below alpha ends the loop and returns the vertex and
    ratio it started from: since y' minimizes the parametric function,
    no vertex has a ratio below alpha.  iterations counts every round.

    The rounds end within n + 2: each w_i = fl(p_i - fl(alpha c_i)) is
    monotone in alpha, so as alpha falls each coordinate of y' flips at
    most once, and each round after the first that continues flips one.
    """
    if obj.p.size != box.dim:
        raise DimensionError(f"objective has dimension {obj.p.size}, box has {box.dim}")
    _check_denominator(obj.c, obj.d, box)
    return _dinkelbach(obj, box, _minimizing_vertex(obj.p, box))


def _dinkelbach(obj: FractionalObjective, box: BoxSet, y: np.ndarray) -> DinkelbachResult:
    """dinkelbach_minimize's rounds, unchecked, from any y in the box (n + 2 at most)."""
    alpha = obj.ratio(y)
    for iteration in itertools.count(1):
        y_next = _minimizing_vertex(obj.p - alpha * obj.c, box)
        alpha_next = obj.ratio(y_next)
        if not alpha_next < alpha:
            return DinkelbachResult(y, alpha, iteration)
        y, alpha = y_next, alpha_next


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

    The residual is nonnegative up to rounding (y = x is always
    feasible) and equals zero exactly when x solves the equilibrium
    problem.
    """
    x = as_vector(x, "x")
    obj = _response_objective(inst, x)
    result = dinkelbach_minimize(obj, inst.box)
    return result.y, obj.ratio(x) - result.value
