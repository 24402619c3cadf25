"""Minimal dense linear algebra: the package's number rules, numeric
rank, and singular values and symmetric eigenvalues from numpy's LAPACK
routines (`eigvalsh`, `svd`).  Every number taken in passes `is_real`,
every count `is_integer`; the `as_*` coercions raise InputError naming
the argument as its field.

Vectors and matrices are plain float64 numpy arrays.  Each matrix routine
divides its input once by a power of two per matrix, which is exact, and
scales its result back, so only a result past the float range overflows.
The spectra are backward stable: each is exact for a matrix within
O(u ||m||) of the input, u the unit roundoff (LAPACK Users' Guide, 3rd
ed., ch. 4).  Their bytes depend on the numpy build and, from a size on,
on the BLAS thread count.  A LAPACK routine that does not converge raises
ConvergenceError.  Positive definiteness is decided apart from the
spectra, by an LDL' factorization that stops once no matrix of its stack
has only positive pivots.
"""

from __future__ import annotations

import math
import numbers
import reprlib

import numpy as np

from .errors import ConvergenceError, DimensionError, InputError

# relative asymmetry that symmetric_eigenvalues accepts, against max(1, ||m||_F)
_SYMMETRY_TOL = 1e-12


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


def as_vector(x, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, of size entries when size is
    given: the package's one point check."""
    v = _as_real_array(x, name, 1)
    if size is not None and v.size != size:
        raise DimensionError(f"{name} has dimension {v.size}, expected {size}", field=name)
    return v


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


def _lapack(routine, a: np.ndarray, **options) -> np.ndarray:
    """routine(a, **options) from numpy.linalg, with its LinAlgError
    (LAPACK did not converge) raised as ConvergenceError."""
    try:
        return routine(a, **options)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{routine.__name__}: {exc}") from exc


def symmetric_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending."""
    a = as_matrix(m, "m")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    scale = float(_power_of_two_near_max(a))  # a float, so 1 / scale may be inf
    a = a / scale
    if np.max(np.abs(a - a.T), initial=0.0) > _SYMMETRY_TOL * max(1.0 / scale, frobenius_norm(a)):
        raise ValueError("matrix is not symmetric within tolerance")
    return scale * _lapack(np.linalg.eigvalsh, 0.5 * (a + a.T))


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
    """Singular values sorted descending; min(rows, cols) of them."""
    a = as_matrix(m, "m")
    scale = _power_of_two_near_max(a)
    return scale * _lapack(np.linalg.svd, a / scale, compute_uv=False)


def numeric_rank(values, tol: float, scale: float | None = None) -> int:
    """Count values (nonnegative, in any order) strictly above tol * scale,
    with no floor; scale is the largest value unless given."""
    v = as_vector(values, "values")
    top = float(np.max(v, initial=0.0)) if scale is None else scale
    if not (is_real(tol) and 0.0 < tol < math.inf and is_real(top) and 0.0 <= top < math.inf):
        raise ValueError("tol must be positive and scale nonnegative, both finite")
    if np.any(v < 0.0):
        raise ValueError("values must be nonnegative")
    return int(np.count_nonzero(v > tol * top))
