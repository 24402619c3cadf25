"""Equilibrium oracles: diagonal Greenberg-Pierskalla subgradients and
best-response residuals of the affine-fractional bifunction

    f(x, y) = <Ax + b, (A1 y + b1)/(c'y + d) - (A1 x + b1)/(c'x + d)>,

which is quasiconvex (in fact quasilinear) in y whenever the denominator
is positive; its diagonal GP-subgradient at x is the gradient of the
linearized ratio, p - phi_x(x) * c with p = A1'(Ax + b).  The affine
variational inequality f(x, y) = <Mx + r, y - x> is the instance with
A1 = I, b1 = 0, c = 0, d = 1 (`affine_vi_instance`), on which the oracle
recovers the classical projection method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import DimensionError
from .fractional import _check_denominator, _response_objective, best_response_residual
from .linalg import as_matrix, as_vector
from .sets import BoxSet


@runtime_checkable
class EquilibriumOracle(Protocol):
    """Contract the solver consumes: box is the feasible set C,
    diagonal_subgradient(x) returns an (unnormalized) g with
    <g, y - x> < 0 for every y in C with f(x, y) < 0, and residual(x)
    returns -min_{y in C} f(x, y) >= 0, which is zero exactly at a
    solution."""

    @property
    def box(self) -> BoxSet: ...

    def diagonal_subgradient(self, x) -> np.ndarray: ...

    def residual(self, x) -> float: ...


@dataclass(frozen=True, eq=False)
class AffineFractionalInstance:
    """Data (A, b, A1, b1, c, d, box) of an affine-fractional bifunction.

    Construction fails unless c'y + d is strictly positive over the box,
    checked in closed form at the sign-selected vertex.
    """

    A: np.ndarray
    b: np.ndarray
    A1: np.ndarray
    b1: np.ndarray
    c: np.ndarray
    d: float
    box: BoxSet

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        A1 = as_matrix(self.A1, "A1")
        b = as_vector(self.b, "b")
        b1 = as_vector(self.b1, "b1")
        c = as_vector(self.c, "c")
        n = self.box.dim
        for name, mat in (("A", A), ("A1", A1)):
            if mat.shape != (n, n):
                raise DimensionError(f"{name} must be {n}x{n}, got {mat.shape}")
        for name, vec in (("b", b), ("b1", b1), ("c", c)):
            if vec.size != n:
                raise DimensionError(f"{name} must have dimension {n}")
        d = float(self.d)
        if not math.isfinite(d):
            raise ValueError(f"d must be finite, got {d!r}")
        _check_denominator(c, d, self.box)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.box.dim


def affine_vi_instance(M, r, box: BoxSet) -> AffineFractionalInstance:
    """The variational inequality with F(x) = Mx + r, f(x, y) = <F(x), y - x>,
    as the affine-fractional instance A = M, b = r, A1 = I, b1 = 0, c = 0,
    d = 1."""
    n = box.dim
    return AffineFractionalInstance(A=M, b=r, A1=np.eye(n), b1=np.zeros(n),
                                    c=np.zeros(n), d=1.0, box=box)


def fractional_value(inst: AffineFractionalInstance, x, y) -> float:
    """f(x, y) = phi_x(y) - phi_x(x) for the affine-fractional bifunction,
    with phi_x the response objective at x; f(x, x) = 0."""
    x = as_vector(x, "x")
    obj = _response_objective(inst, x)
    return obj(y) - obj.ratio(x)


def fractional_diagonal_subgradient(inst: AffineFractionalInstance, x) -> np.ndarray:
    """Unnormalized diagonal GP-subgradient g = p - phi_x(x) c of f(x, .)
    at x, from the response objective phi_x = (p'y + q)/(c'y + d).  The
    solver normalizes nonzero g."""
    x = as_vector(x, "x")
    obj = _response_objective(inst, x)
    return obj.p - obj.ratio(x) * obj.c


@dataclass(frozen=True, eq=False)
class AffineFractionalOracle:
    """Solver-facing oracle over an AffineFractionalInstance; the best
    response behind the residual is solved exactly by Dinkelbach
    iteration."""

    instance: AffineFractionalInstance

    @property
    def box(self) -> BoxSet:
        return self.instance.box

    def diagonal_subgradient(self, x) -> np.ndarray:
        return fractional_diagonal_subgradient(self.instance, x)

    def residual(self, x) -> float:
        return best_response_residual(self.instance, x)[1] + 0.0  # avoid -0.0
