"""Paramonotonicity certificate for affine-fractional instances.

The bifunction with data (A, b, A1, b1, c, d) is paramonotone exactly
when, for A_hat = (d A1' - c b1') A, the symmetric part
S = (A_hat + A_hat')/2 is positive semidefinite and
rank(S) = rank(A_hat) (Iusem 1998).  Both conditions are decided from
two Jacobi decompositions: the eigenvalues of S give its smallest
eigenvalue and, as |eig(S)| are its singular values, rank(S); rank(A_hat)
comes from the singular values of A_hat.  The PSD slack is relative to
||A_hat||_F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import (
    as_matrix,
    frobenius_norm,
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
    return (inst.d * inst.A1.T - np.outer(inst.c, inst.b1)) @ inst.A


def paramonotonicity_report(a_hat: np.ndarray,
                            tol: float = DEFAULT_TOL) -> ParamonotonicityReport:
    """Certificate for a precomputed A_hat matrix."""
    if not (is_real(tol) and 0.0 < tol < np.inf):
        raise ValueError("tol must be positive and finite")
    a_hat = as_matrix(a_hat, "a_hat")
    if a_hat.shape[0] != a_hat.shape[1] or a_hat.size == 0:
        raise DimensionError(f"a_hat must be square and nonempty, got shape {a_hat.shape}")
    sym = 0.5 * (a_hat + a_hat.T)
    slack = tol * max(1.0, frobenius_norm(a_hat))
    eig = symmetric_eigenvalues(sym)
    min_eig = float(eig[0])
    rank_sym = numeric_rank(np.abs(eig), tol)
    rank_a_hat = numeric_rank(singular_values(a_hat), tol)
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
