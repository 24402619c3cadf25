"""Exact minimization of affine-fractional objectives over a box.

The workhorse is Dinkelbach iteration: min (p'y + q)/(c'y + d) is found
by repeatedly minimizing the parametric linear function (p - alpha c)'y
over the box, which has a closed-form vertex solution, and updating
alpha to the ratio at the minimizer.  It stops as soon as the ratio
stops falling, which takes at most n + 2 rounds and needs no tolerance.
The objective is plain arrays (p, q, c, d) throughout; the one checked
entry, dinkelbach_minimize, rejects non-finite coefficients, such as a
response that overflowed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import as_real, as_vector
from .sets import BoxSet


def _ratio(p: np.ndarray, q: float, c: np.ndarray, d: float, y: np.ndarray,
           name: str = "y") -> float:
    """(p'y + q)/(c'y + d), unchecked but for the sign of the denominator at
    the point called name.  The solve path uses ndarray.dot, not `@`: the
    same BLAS routine, so the same bytes, with about half the dispatch."""
    den = float(c.dot(y)) + d
    if den <= 0.0:
        raise DomainError(f"denominator {den:g} is not positive at {name}={y}")
    return (float(p.dot(y)) + q) / den


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


def dinkelbach_minimize(p, q, c, d, box: BoxSet) -> DinkelbachResult:
    """Minimize the affine-fractional objective (p'y + q)/(c'y + d) over a box.

    p and c must be finite vectors of the box's dimension, q and d finite
    reals, and the denominator positive over the whole box; each is
    checked once, and a failure names its argument.  Starting from the
    ratio alpha at y0, the vertex minimizing p'y (optimal when c = 0),
    each round takes the vertex y' minimizing (p - alpha c)'y and its
    ratio alpha'.  The first round whose alpha' is not strictly below
    alpha ends the loop and returns the vertex and ratio it started from:
    since y' minimizes the parametric function, no vertex has a ratio
    below alpha.  iterations counts every round.

    The rounds end within n + 2: each w_i = fl(p_i - fl(alpha c_i)) is
    monotone in alpha, so as alpha falls each coordinate of y' flips at
    most once, and each round after the first that continues flips one.
    """
    p, c = as_vector(p, "p", box.dim), as_vector(c, "c", box.dim)
    q, d = as_real(q, "q"), as_real(d, "d")
    _check_denominator(c, d, box)
    return _dinkelbach(p, q, c, d, box)


def _dinkelbach(p: np.ndarray, q: float, c: np.ndarray, d: float, box: BoxSet,
                y: np.ndarray | None = None) -> DinkelbachResult:
    """dinkelbach_minimize's rounds, unchecked, from any y in the box or,
    if None, from the vertex minimizing p'y (n + 2 at most)."""
    y = _minimizing_vertex(p, box) if y is None else y
    alpha = _ratio(p, q, c, d, y)
    for iteration in itertools.count(1):
        y_next = _minimizing_vertex(p - alpha * c, box)
        alpha_next = _ratio(p, q, c, d, y_next)
        if not alpha_next < alpha:
            return DinkelbachResult(y, alpha, iteration)
        y, alpha = y_next, alpha_next


def _response(inst, x) -> tuple[np.ndarray, float, float]:
    """(p, q, phi_x(x)) of the response objective phi_x(y) = (p'y + q)/(c'y + d)
    of an affine-fractional instance at x, with p = A1'(Ax + b) and
    q = b1'(Ax + b), so that f(x, y) = phi_x(y) - phi_x(x); the one place
    that checks a point x: a finite vector of the instance's dimension
    with c'x + d > 0."""
    x = as_vector(x, "x", inst.box.dim)
    u = inst.A.dot(x) + inst.b
    p, q = inst.A1.T.dot(u), float(inst.b1.dot(u))
    return p, q, _ratio(p, q, inst.c, inst.d, x, "x")


def best_response_residual(inst, x) -> tuple[np.ndarray, float]:
    """Best response y* = argmin_y f(x, y) over the instance box and the
    residual -min_y f(x, y).

    The residual is nonnegative up to rounding (y = x is always
    feasible) and equals zero exactly when x solves the equilibrium
    problem.
    """
    p, q, phi = _response(inst, x)
    result = dinkelbach_minimize(p, q, inst.c, inst.d, inst.box)
    return result.y, phi - result.value
