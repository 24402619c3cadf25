"""Paramonotonicity certificate for affine-fractional instances.

The bifunction with data (A, b, A1, b1, c, d) is paramonotone exactly
when, for A_hat = (d A1' - c b1') A, the symmetric part
S = (A_hat + A_hat')/2 is positive semidefinite and
rank(S) = rank(A_hat) (Iusem 1998).  Both conditions are decided from
two spectra that numpy's LAPACK routines compute: the eigenvalues of S
give its smallest eigenvalue and, as |eig(S)| are its singular values,
rank(S); rank(A_hat) comes from the singular values of A_hat.  Both are
backward stable, so they are off by O(u ||A_hat||), u the unit roundoff,
far below the PSD slack tol ||A_hat||_F (`frobenius_norm`) and the rank
cutoff tol sigma_max(A_hat) that both ranks share.  Both are relative,
with no floor, so a verdict does not depend on the scale of A_hat.

`screen` is the one cheap screen for rejection sampling, run on one
instance's fields or on whole stacks at once.  Its first LDL'
factorization per candidate can only say "not paramonotone" (its
docstring holds the argument); the second, the accept test, on the
candidates the first leaves, can only say "paramonotone", so a
certified candidate gets exactly the verdict its report would give
(`_certified` holds the argument).  Only the band between the two
needs the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError
from .linalg import (
    as_matrix,
    frobenius_norm,
    is_positive_definite,
    is_real,
    numeric_rank,
    singular_values,
    symmetric_eigenvalues,
)

DEFAULT_TOL = 1e-8


@dataclass(eq=False)
class ParamonotonicityReport:
    a_hat: np.ndarray
    a_hat_sym: np.ndarray
    min_eigenvalue: float
    rank_sym: int
    rank_a_hat: int
    verdict: bool
    tol: float  # absolute PSD slack actually applied


def compute_a_hat(inst) -> np.ndarray:
    """(d A1' - c b1') A for an affine-fractional instance."""
    return _a_hat(inst.A, inst.A1, inst.b1, inst.c, inst.d)


def _a_hat(A, A1, b1, c, d) -> np.ndarray:
    """(d A1' - c b1') A for one instance's fields or per candidate of a stack."""
    d = np.asarray(d)[..., None, None]
    return (d * np.swapaxes(A1, -1, -2) - c[..., :, None] * b1[..., None, :]) @ A


def _symmetric_part(a_hat: np.ndarray) -> np.ndarray:
    """S = A_hat/2 + A_hat'/2, halved first so that no sum overflows."""
    return 0.5 * a_hat + 0.5 * np.swapaxes(a_hat, -1, -2)


def screen(A, A1, b1, c, d) -> tuple[np.ndarray, np.ndarray]:
    """(ruled out, certified) per candidate of a stack (A and A1 of shape
    (..., n, n), b1 and c (..., n), d (...)), both from one A_hat, S and
    t = tol max(1, ||A_hat||_F) >= slack at the default tol.  All
    candidates are factored together; the accept test (`_certified`)
    runs only on those not ruled out.

    A candidate is ruled out where S + 2 t I is not positive definite,
    which rules out a paramonotone verdict from `check_paramonotone`
    (at A_hat = 0 it never is).  LDL' is backward stable (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10), so
    its breakdown on S + 2 t I means lambda_min(S) <= -2 t + O(n u ||S||)
    with u the unit roundoff, whatever the order of the sums that formed
    A_hat, S and t.  As ||S|| <= ||A_hat||_F, the rounding term is far
    below t, so lambda_min(S) < -t <= -slack.  The report's lambda_min
    comes from `eigvalsh`, which is backward stable too: it is an
    eigenvalue of S + E with ||E||_2 = O(n u ||S||) (LAPACK Users' Guide,
    3rd ed., ch. 4), so by Weyl's inequality it is within that of
    lambda_min(S), below -slack as well, and the verdict is False.  Not
    ruled out decides nothing.
    """
    a_hat = _a_hat(A, A1, b1, c, d)
    sym = _symmetric_part(a_hat)
    shift = 2.0 * DEFAULT_TOL * np.maximum(1.0, frobenius_norm(a_hat))[..., None, None]
    eye = np.eye(c.shape[-1])
    out = np.logical_not(is_positive_definite(sym + shift * eye))
    sure = np.zeros_like(out)
    sure[~out] = _certified(sym[~out], shift[~out] * eye)
    return out, sure


def _certified(sym: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per candidate: True where S - 2 t I is positive definite, which
    certifies a paramonotone verdict from `check_paramonotone`.

    As in `screen`'s rule-out, LDL' succeeding on S - 2 t I means
    lambda_min(S) > 2 t - O(n u ||S||) > t >= slack.  As x'A_hat x =
    x'S x, sigma_min(A_hat) >= lambda_min(S) > t >= tol ||A_hat||_F >=
    tol sigma_max(A_hat), so S and A_hat both have full rank n.  The
    report's spectra are off by O(n u ||A_hat||), far below t, so the
    lambda_min, every |eig(S)| and every singular value of A_hat it
    computes stay above t, which is at least both the slack and the
    rank cutoff tol sigma_max(A_hat): both ranks are n and the verdict
    is True.  False decides nothing.
    """
    return is_positive_definite(sym - shift)


def paramonotonicity_report(a_hat: np.ndarray,
                            tol: float = DEFAULT_TOL) -> ParamonotonicityReport:
    """Certificate for a precomputed A_hat matrix."""
    if not (is_real(tol) and 0.0 < tol < np.inf):
        raise ValueError("tol must be positive and finite")
    a_hat = as_matrix(a_hat, "a_hat")
    if a_hat.shape[0] != a_hat.shape[1] or a_hat.size == 0:
        raise DimensionError(f"a_hat must be square and nonempty, got shape {a_hat.shape}")
    sym = _symmetric_part(a_hat)
    slack = float(tol * frobenius_norm(a_hat))  # the absolute PSD slack
    if slack == np.inf:  # past the float range, where any S would pass as PSD
        raise InputError("tol * ||a_hat||_F is beyond the float range", field="a_hat")
    eig = symmetric_eigenvalues(sym)
    min_eig = float(eig[0])
    sv = singular_values(a_hat)
    # one cutoff for both ranks: eig(S) is off by O(u ||A_hat||), not O(u ||S||)
    rank_sym = numeric_rank(np.abs(eig), tol, scale=float(sv[0]))
    rank_a_hat = numeric_rank(sv, tol)
    verdict = (min_eig >= -slack) and (rank_sym == rank_a_hat)
    return ParamonotonicityReport(
        a_hat=a_hat,
        a_hat_sym=sym,
        min_eigenvalue=min_eig,
        rank_sym=rank_sym,
        rank_a_hat=rank_a_hat,
        verdict=verdict,
        tol=slack,
    )


def check_paramonotone(inst, tol: float = DEFAULT_TOL) -> ParamonotonicityReport:
    """Certificate for an affine-fractional instance."""
    return paramonotonicity_report(compute_a_hat(inst), tol)
