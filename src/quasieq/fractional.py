"""Exact minimization of affine-fractional objectives over a box.

The workhorse is Dinkelbach iteration: min (p'y + q)/(c'y + d) is found
by repeatedly minimizing the parametric linear function (p - alpha c)'y
over the box, which has a closed-form vertex solution, and updating
alpha to the ratio at the minimizer.  It stops as soon as the ratio
stops falling, which takes at most n + 2 rounds and needs no tolerance.
Inside the package the response objective runs on plain arrays; only the
public evaluators build a checked FractionalObjective, which rejects a
response that overflowed.
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
        for name, coerce in (("p", as_vector), ("c", as_vector), ("q", as_real), ("d", as_real)):
            object.__setattr__(self, name, coerce(getattr(self, name), name))
        if self.p.shape != self.c.shape:
            raise DimensionError("p and c must have the same dimension")

    def ratio(self, y: np.ndarray) -> float:
        """Value at a float vector y of its dimension; only the denominator's sign is checked."""
        return _ratio(self.p, self.q, self.c, self.d, y)

    def __call__(self, y) -> float:
        y = as_vector(y, "y")
        if y.size != self.p.size:
            raise DimensionError(f"y has dimension {y.size}, objective has {self.p.size}")
        return self.ratio(y)


def _ratio(p: np.ndarray, q: float, c: np.ndarray, d: float, y: np.ndarray) -> float:
    """(p'y + q)/(c'y + d), unchecked but for the sign of the denominator."""
    den = float(c @ y) + d
    if den <= 0.0:
        raise DomainError(f"denominator {den:g} is not positive at y={y}")
    return (float(p @ y) + q) / den


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
    return _dinkelbach(obj.p, obj.q, obj.c, obj.d, box, _minimizing_vertex(obj.p, box))


def _dinkelbach(p: np.ndarray, q: float, c: np.ndarray, d: float, box: BoxSet,
                y: np.ndarray) -> DinkelbachResult:
    """dinkelbach_minimize's rounds, unchecked, from any y in the box (n + 2 at most)."""
    alpha = _ratio(p, q, c, d, y)
    for iteration in itertools.count(1):
        y_next = _minimizing_vertex(p - alpha * c, box)
        alpha_next = _ratio(p, q, c, d, y_next)
        if not alpha_next < alpha:
            return DinkelbachResult(y, alpha, iteration)
        y, alpha = y_next, alpha_next


def response_objective(inst, x) -> FractionalObjective:
    """Fractional objective phi_x(y) = (p'y + q)/(c'y + d) of an
    affine-fractional instance at the point x, with p = A1'(Ax + b) and
    q = b1'(Ax + b), so that f(x, y) = phi_x(y) - phi_x(x)."""
    u = inst.A @ as_vector(x, "x") + inst.b
    return FractionalObjective(inst.A1.T @ u, float(inst.b1 @ u), inst.c, inst.d)


def _response(inst, x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(p, q, phi_x(x)) of response_objective, unchecked, for an x the
    caller has already validated."""
    u = inst.A @ x + inst.b
    p, q = inst.A1.T @ u, float(inst.b1 @ u)
    return p, q, _ratio(p, q, inst.c, inst.d, x)


def best_response_residual(inst, x) -> tuple[np.ndarray, float]:
    """Best response y* = argmin_y f(x, y) over the instance box and the
    residual -min_y f(x, y).

    The residual is nonnegative up to rounding (y = x is always
    feasible) and equals zero exactly when x solves the equilibrium
    problem.
    """
    p, q, phi = _response(inst, as_vector(x, "x"))
    result = dinkelbach_minimize(FractionalObjective(p, q, inst.c, inst.d), inst.box)
    return result.y, phi - result.value
