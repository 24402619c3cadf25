"""Validation oracles for the box minimizers: the closed-form linear
minimizer over a box (the vertex rule Dinkelbach's rounds use), a grid
brute force for affine-fractional objectives in low dimension, and an
enumeration of the breakpoint chain in any dimension.  No solve path
calls these; the tests compare the package against them."""

from __future__ import annotations

import numpy as np

from quasieq.errors import DimensionError, DomainError
from quasieq.fractional import _minimizing_vertex, _ratio
from quasieq.linalg import as_vector
from quasieq.sets import BoxSet


def minimize_linear_over_box(w, box: BoxSet) -> tuple[np.ndarray, float]:
    """argmin of w'y over the box: lo where w > 0, hi where w < 0,
    ties broken to lo."""
    w = as_vector(w, "w")
    if w.size != box.dim:
        raise DimensionError(f"w has dimension {w.size}, box has {box.dim}")
    y = _minimizing_vertex(w, box)
    return y, float(w @ y)


def grid_bruteforce_minimize(
    p, q, c, d, box: BoxSet, points_per_axis: int
) -> tuple[np.ndarray, float]:
    """Exhaustive minimization of (p'y + q)/(c'y + d) over a uniform grid
    including both box endpoints.  Only for dimension <= 3."""
    if box.dim > 3:
        raise DimensionError("grid brute force supports dimension <= 3 only")
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be at least 2")
    axes = [
        np.linspace(box.lo[i], box.hi[i], points_per_axis)
        for i in range(box.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    numer = pts @ np.asarray(p, dtype=float) + q
    denom = pts @ np.asarray(c, dtype=float) + d
    if np.any(denom <= 0.0):
        raise DomainError("denominator is not positive on the grid")
    vals = numer / denom
    best = int(np.argmin(vals))
    return pts[best].copy(), float(vals[best])


def chain_minimize(p, q, c, d, box: BoxSet) -> tuple[np.ndarray, float]:
    """Least ratio (p'y + q)/(c'y + d), computed as the package computes
    it, over the vertices that minimize (p - alpha c)'y for some
    alpha: the minimizing vertex, under both tie-breaks, at every
    breakpoint p_i/c_i, at the midpoints between consecutive breakpoints
    and beyond both ends.  The minimum over the box is attained at one of
    them, since at the optimal ratio alpha* every minimizer of
    (p - alpha* c)'y is optimal."""
    p, c = np.asarray(p, dtype=float), np.asarray(c, dtype=float)
    moving = c != 0.0
    breaks = np.unique(p[moving] / c[moving])
    if breaks.size:
        ends = [breaks[0] - 1.0 - abs(breaks[0]), breaks[-1] + 1.0 + abs(breaks[-1])]
        alphas = np.concatenate([breaks, (breaks[:-1] + breaks[1:]) / 2.0, ends])
    else:
        alphas = np.zeros(1)
    best_y, best = None, np.inf
    for alpha in alphas:
        w = p - alpha * c
        for y in (np.where(w < 0.0, box.hi, box.lo), np.where(w <= 0.0, box.hi, box.lo)):
            value = _ratio(p, q, c, d, y)
            if value < best:
                best_y, best = y, value
    return best_y, best
