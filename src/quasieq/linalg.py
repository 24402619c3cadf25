"""Minimal dense linear algebra: the package's number rules, numeric
rank, and singular values and symmetric eigenvalues from one one-sided
(Hestenes) Jacobi kernel, which never forms M^T M (Demmel & Veselic
1992).  Every number taken in passes `is_real`, every count `is_integer`;
the `as_*` coercions raise InputError naming the argument as its field.

Vectors and matrices are plain float64 numpy arrays.  Each matrix routine
divides its input once by a power of two per matrix, which is exact, and
scales its result back; the Jacobi kernel does no scaling.  So only a
result past the float range overflows.  The sweep order depends only on
the column count, so results are bit-reproducible across runs: below
_ROUND_ROBIN_COLUMNS columns a sweep rotates one pair at a time, row-major
over the upper triangle; from there on it is round-robin (Brent & Luk
1985), each round rotating n/2 disjoint pairs in one numpy step.  Positive
definiteness is decided apart from the spectra, by an LDL' factorization
that stops once no matrix of its stack has only positive pivots.
"""

from __future__ import annotations

import math
import numbers
import reprlib

import numpy as np

from .errors import ConvergenceError, DimensionError, InputError

_MAX_SWEEPS = 60
# relative off-diagonal threshold of the Jacobi sweeps and symmetry check
_JACOBI_TOL = 1e-12
# column count from which a Jacobi sweep rotates round-robin sets of
# disjoint pairs together instead of one pair at a time; below it the
# row-major sweep stays, as it keeps paramonotone_gen's n = 3 certificates fast
_ROUND_ROBIN_COLUMNS = 10


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
    """A finite float from a scalar that passes is_real; an integer too
    large for a float is not finite."""
    try:
        real = float(value) if is_real(value) else math.nan
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise InputError(f"{name} must be finite and real, got {reprlib.repr(value)}",
                         field=name)
    return real


def _as_real_array(x, name: str, ndim: int) -> np.ndarray:
    """A finite float64 array of ndim dimensions whose entries pass is_real;
    an ndarray is judged by its dtype kind, anything else entry by entry."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        a = np.asarray(x, dtype=float)
    else:
        a = np.array(x, dtype=object)
        if not all(map(is_real, a.flat)):
            raise InputError(f"{name} entries must be real numbers", field=name)
        try:
            a = a.astype(float)
        except OverflowError:
            raise InputError(f"{name} contains non-finite entries", field=name) from None
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


def _power_of_two_near_max(a: np.ndarray) -> np.ndarray:
    """2**e per matrix of a (..., m, n) stack, with max |a| in [2**e, 2**(e+1))."""
    peak = np.max(np.abs(a), axis=(-2, -1), initial=0.0)
    return np.ldexp(1.0, np.frexp(peak)[1] - 1)


def frobenius_norm(m) -> float | np.ndarray:
    """||m||_F of a matrix, or per matrix of a (..., m, n) stack."""
    a = np.asarray(m, dtype=float)
    scale = _power_of_two_near_max(a)
    return scale * np.sqrt(np.sum((a / scale[..., None, None]) ** 2, axis=(-2, -1)))


def _row_major_sweep(cols: np.ndarray) -> bool:
    """One sweep over the pairs of rows, row-major over the upper
    triangle, rotating each pair in place; True if any pair rotated."""
    n = cols.shape[0]
    rotated = False
    for p in range(n - 1):
        for q in range(p + 1, n):
            x, y = cols[p], cols[q]
            gamma = float(x @ y)
            alpha, beta = float(x @ x), float(y @ y)
            if abs(gamma) <= _JACOBI_TOL * math.sqrt(alpha) * math.sqrt(beta):
                continue
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            if t == 0.0:
                continue  # zeta overflowed: the rotation is the identity
            rotated = True
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            cols[p], cols[q] = c * x - s * y, s * x + c * y
    return rotated


def _round_robin_order(size: int) -> np.ndarray:
    """The row gather that moves every row of an even stack to its next
    round-robin slot, where rows 2i and 2i + 1 are pair i.  Slot 0 stays
    and the others step round one circle (Brent & Luk 1985), so after
    size - 1 steps every two rows have been paired once and every row is
    back in place."""
    circle = np.concatenate([np.arange(2, size, 2), np.arange(size - 1, 0, -2)])
    order = np.arange(size)
    order[circle] = np.roll(circle, 1)
    return order


def _round_robin_sweep(cols: np.ndarray) -> bool:
    """One sweep of size - 1 rounds over an even stack of rows, each
    rotating the disjoint pairs (2i, 2i + 1) in one step, in place; a
    pair under the threshold, or whose angle underflows to 0, gets the
    identity rotation.  True if any pair rotated."""
    size, m = cols.shape
    h = size // 2
    order = _round_robin_order(size)
    pairs = cols.reshape(h, 2, m)
    x, y = pairs[:, 0], pairs[:, 1]
    rotated = False
    for _ in range(size - 1):
        gamma = np.einsum("ij,ij->i", x, y)
        alpha, beta = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
        rotate = np.abs(gamma) > _JACOBI_TOL * np.sqrt(alpha) * np.sqrt(beta)
        # a zeta too large for a float is inf and gives t = 0, as with
        # the Python floats of the row-major sweep
        with np.errstate(over="ignore"):
            zeta = (beta - alpha) / (2.0 * np.where(rotate, gamma, 1.0))
        t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
        t = np.where(rotate, t, 0.0)
        if not t.any():
            cols[:] = cols[order]
            continue
        rotated = True
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        rotation = np.stack([c, -s, s, c], axis=1).reshape(h, 2, 2)
        cols[:] = (rotation @ pairs).reshape(size, m)[order]
    return rotated


def _jacobi_column_norms(a: np.ndarray) -> np.ndarray:
    """Singular values of a, unsorted: its column norms once rotations of
    column pairs leave every pair with
    |<a_p, a_q>| <= _JACOBI_TOL ||a_p|| ||a_q||.  Sweeps are row-major
    below _ROUND_ROBIN_COLUMNS columns and round-robin from there on,
    with a zero column added when the count is odd.  The caller scales a."""
    cols = np.array(a.T, order="C")  # row p is column p, in a C-ordered copy
    n = cols.shape[0]
    sweep = _row_major_sweep
    if n >= _ROUND_ROBIN_COLUMNS:
        cols = np.concatenate([cols, np.zeros((n % 2, cols.shape[1]))])
        sweep = _round_robin_sweep
    for _ in range(_MAX_SWEEPS):
        if not sweep(cols):
            cols = cols[:n]
            return np.sqrt(np.einsum("ij,ij->i", cols, cols))
    raise ConvergenceError(f"Jacobi columns not orthogonal after {_MAX_SWEEPS} sweeps")


def symmetric_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending: with
    s = ||m||_F, m + sI is positive semidefinite, so its singular values
    are its eigenvalues, and s is subtracted again."""
    a = as_matrix(m, "m")
    n, ncols = a.shape
    if n != ncols:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    scale = float(_power_of_two_near_max(a))  # a float, so 1 / scale may be inf
    a = a / scale
    shift = frobenius_norm(a)
    if np.max(np.abs(a - a.T), initial=0.0) > _JACOBI_TOL * max(1.0 / scale, shift):
        raise ValueError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)  # kill representation round-off before sweeping
    return scale * (np.sort(_jacobi_column_norms(a + shift * np.eye(n))) - shift)


def is_positive_definite(m) -> bool | np.ndarray:
    """Whether a symmetric matrix is positive definite, from an LDL'
    factorization run as n rank-one updates of the trailing block: False
    once a pivot is not positive.  Only the lower triangle is read.  A
    2-D m gives a bool; an ndarray stack of shape (..., n, n) gives a
    boolean array of shape (...), one verdict per matrix, all factored
    together.  With no square root and no LAPACK call the answer is
    bit-reproducible."""
    a = _as_real_array(m, "m", max(2, getattr(m, "ndim", 2)))
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    a = a / _power_of_two_near_max(a)[..., None, None]  # a copy, updated in place below
    positive = np.ones(a.shape[:-2], dtype=bool)
    # past a tiny pivot of an indefinite matrix the trailing block may
    # overflow; its diagonal then is -inf or nan, which is not positive,
    # and reaches no other matrix of the stack
    with np.errstate(all="ignore"):
        for k in range(n):
            pivot = a[..., k, k]
            positive &= pivot > 0.0
            if not positive.any():
                break
            col = a[..., k + 1:, k]
            a[..., k + 1:, k + 1:] -= col[..., :, None] * (col / pivot[..., None])[..., None, :]
    return bool(positive) if a.ndim == 2 else positive


def singular_values(m) -> np.ndarray:
    """Singular values sorted descending; min(rows, cols) of them, so
    that m and m.T agree."""
    a = as_matrix(m, "m")
    if a.shape[0] < a.shape[1]:
        a = a.T
    scale = _power_of_two_near_max(a)
    return scale * np.sort(_jacobi_column_norms(a / scale))[::-1]


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
