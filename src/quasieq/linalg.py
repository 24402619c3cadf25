"""Minimal dense linear algebra: validation helpers, a cyclic Jacobi
eigenvalue solver for symmetric matrices, singular values and numeric rank.

Vectors and matrices are plain float64 numpy arrays.  The Jacobi sweep
order is fixed (row-major over the upper triangle) so results are
bit-reproducible across runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DimensionError

_MAX_SWEEPS = 60
# relative off-diagonal threshold of the Jacobi sweeps and symmetry check
_JACOBI_TOL = 1e-12


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.asarray(m, dtype=float) ** 2)))


def symmetric_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    Cyclic Jacobi rotations, sweeping the upper triangle in row-major
    order, until every off-diagonal magnitude is at most
    _JACOBI_TOL * ||m||_F, for at most _MAX_SWEEPS sweeps.
    """
    a = as_matrix(m, "m")
    n, ncols = a.shape
    if n != ncols:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    scale = frobenius_norm(a)
    if np.max(np.abs(a - a.T), initial=0.0) > _JACOBI_TOL * max(1.0, scale):
        raise ValueError("matrix is not symmetric within tolerance")
    if n == 1:
        return a[0].copy()
    a = 0.5 * (a + a.T)  # kill representation round-off before sweeping
    threshold = _JACOBI_TOL * scale
    for _ in range(_MAX_SWEEPS):
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise ConvergenceError(
            f"Jacobi sweeps did not reach off-diagonal threshold {threshold:g}"
        )
    return np.sort(np.diag(a))


def singular_values(m) -> np.ndarray:
    """Singular values sorted descending, via eigenvalues of M^T M.

    Negative eigenvalues produced by round-off are clamped to zero.
    Returns min(rows, cols) values so that m and m.T agree.
    """
    a = as_matrix(m, "m")
    gram = a.T @ a
    eig = symmetric_eigenvalues(gram)
    vals = np.sqrt(np.clip(eig, 0.0, None))[::-1]
    return vals[: min(a.shape)].copy()


def numeric_rank(values, tol: float) -> int:
    """Count values strictly above tol * max(1, values[0]).

    ``values`` must be nonnegative and sorted descending.
    """
    v = as_vector(values, "values")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if v.size == 0:
        return 0
    if np.any(v < 0.0):
        raise ValueError("values must be nonnegative")
    if np.any(np.diff(v) > 0.0):
        raise ValueError("values must be sorted descending")
    cutoff = tol * max(1.0, float(v[0]))
    return int(np.count_nonzero(v > cutoff))
