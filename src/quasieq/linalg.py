"""Minimal dense linear algebra: the package's number rules, numeric
rank, and singular values and symmetric eigenvalues from one one-sided
(Hestenes) Jacobi kernel, which never forms M^T M (Demmel & Veselic
1992).  Every number taken in passes `is_real`, every count `is_integer`;
the `as_*` coercions raise InputError naming the argument as its field.

Vectors and matrices are plain float64 numpy arrays.  Inputs are scaled
by a power of two, which is exact, so the sweeps neither overflow nor
underflow.  The sweep order is fixed (row-major over the upper triangle)
so results are bit-reproducible across runs.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConvergenceError, DimensionError, InputError

_MAX_SWEEPS = 60
# relative off-diagonal threshold of the Jacobi sweeps and symmetry check
_JACOBI_TOL = 1e-12


def is_integer(value) -> bool:
    """The package's integer test: an int or numpy integer, not a bool."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))


def is_real(value) -> bool:
    """The package's number test: an int, float or numpy real, not a bool
    or text."""
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def as_real(value, name: str) -> float:
    """A finite float from a scalar that passes is_real."""
    if not (is_real(value) and math.isfinite(value)):
        raise InputError(f"{name} must be finite and real, got {value!r}", field=name)
    return float(value)


def _as_real_array(x, name: str, ndim: int) -> np.ndarray:
    """A finite float64 array of ndim dimensions whose entries pass is_real;
    an ndarray is judged by its dtype kind, anything else entry by entry."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        a = np.asarray(x, dtype=float)
    else:
        a = np.array(x, dtype=object)
        if not all(map(is_real, a.flat)):
            raise InputError(f"{name} entries must be real numbers", field=name)
        a = a.astype(float)
    if a.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {a.shape}", field=name)
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries", field=name)
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    return _as_real_array(x, name, 1)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    return _as_real_array(m, name, 2)


def _power_of_two_near_max(a: np.ndarray) -> float:
    """2**e with max |a| in [2**e, 2**(e+1)), so dividing by it is exact."""
    peak = float(np.max(np.abs(a), initial=0.0))
    return math.ldexp(1.0, math.frexp(peak)[1] - 1)


def frobenius_norm(m: np.ndarray) -> float:
    a = np.asarray(m, dtype=float)
    scale = _power_of_two_near_max(a)
    return scale * float(np.sqrt(np.sum((a / scale) ** 2)))


def _jacobi_column_norms(a: np.ndarray) -> np.ndarray:
    """Singular values of a, unsorted: its column norms once rotations of
    column pairs, in row-major order over the upper triangle, leave every
    pair with |<a_p, a_q>| <= _JACOBI_TOL ||a_p|| ||a_q||."""
    scale = _power_of_two_near_max(a)
    cols = np.ascontiguousarray(a.T) / scale  # row p is column p
    n = cols.shape[0]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                x, y = cols[p], cols[q]
                gamma = float(x @ y)
                alpha, beta = float(x @ x), float(y @ y)
                if abs(gamma) <= _JACOBI_TOL * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cols[p], cols[q] = c * x - s * y, s * x + c * y
        if not rotated:
            return scale * np.sqrt(np.einsum("ij,ij->i", cols, cols))
    raise ConvergenceError(f"Jacobi columns not orthogonal after {_MAX_SWEEPS} sweeps")


def symmetric_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending: with
    s = ||m||_F, m + sI is positive semidefinite, so its singular values
    are its eigenvalues, and s is subtracted again."""
    a = as_matrix(m, "m")
    n, ncols = a.shape
    if n != ncols:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    shift = frobenius_norm(a)
    if np.max(np.abs(a - a.T), initial=0.0) > _JACOBI_TOL * max(1.0, shift):
        raise ValueError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)  # kill representation round-off before sweeping
    return np.sort(_jacobi_column_norms(a + shift * np.eye(n))) - shift


def singular_values(m) -> np.ndarray:
    """Singular values sorted descending; min(rows, cols) of them, so
    that m and m.T agree."""
    a = as_matrix(m, "m")
    if a.shape[0] < a.shape[1]:
        a = a.T
    return np.sort(_jacobi_column_norms(a))[::-1]


def numeric_rank(values, tol: float) -> int:
    """Count values strictly above tol * max(1, largest value); the
    values must be nonnegative and may come in any order."""
    v = as_vector(values, "values")
    if not (is_real(tol) and 0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    if np.any(v < 0.0):
        raise ValueError("values must be nonnegative")
    cutoff = tol * max(1.0, float(np.max(v, initial=0.0)))
    return int(np.count_nonzero(v > cutoff))
