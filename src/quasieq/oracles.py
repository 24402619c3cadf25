"""Equilibrium oracles: bifunction values, diagonal Greenberg-Pierskalla
subgradients and best responses.

Two closed-form families are provided.  The affine-fractional family

    f(x, y) = <Ax + b, (A1 y + b1)/(c'y + d) - (A1 x + b1)/(c'x + d)>

is quasiconvex (in fact quasilinear) in y whenever the denominator is
positive; its diagonal GP-subgradient at x is the gradient of the
linearized ratio, p - phi_x(x) * c with p = A1'(Ax + b).  The affine
variational-inequality family f(x, y) = <Mx + r, y - x> is a special
case with constant denominator and recovers the classical projection
method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np

from .errors import DimensionError, DomainError
from .fractional import (
    DINKELBACH_MAX_ITER,
    DINKELBACH_TOL,
    _minimizing_vertex,
    _response_objective,
    best_response_residual,
    response_objective,
)
from .linalg import as_matrix, as_vector
from .sets import BoxSet

BestResponse = tuple[np.ndarray, float]


@runtime_checkable
class EquilibriumOracle(Protocol):
    """Contract the solver consumes: f(x, x) = 0 on the feasible set and
    diagonal_subgradient(x) returns (unnormalized) g with
    <g, y - x> < 0 for every y with f(x, y) < 0."""

    @property
    def dim(self) -> int: ...

    def value(self, x, y) -> float: ...

    def diagonal_subgradient(self, x) -> np.ndarray: ...

    # (y*, min_y f(x, y)) or None when no best response is available
    best_response: Optional[Callable[[np.ndarray], BestResponse]]


@dataclass(frozen=True)
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
        min_den = float(np.where(c >= 0.0, c * self.box.lo, c * self.box.hi).sum()) + d
        if not min_den > 0.0:
            raise DomainError(
                f"c'y + d must be positive over the box; minimum is {min_den:g}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.box.dim


@dataclass(frozen=True)
class AffineVIInstance:
    """Variational inequality with F(x) = Mx + r, f(x, y) = <F(x), y - x>."""

    M: np.ndarray
    r: np.ndarray
    box: BoxSet

    def __post_init__(self):
        M = as_matrix(self.M, "M")
        r = as_vector(self.r, "r")
        n = self.box.dim
        if M.shape != (n, n):
            raise DimensionError(f"M must be {n}x{n}, got {M.shape}")
        if r.size != n:
            raise DimensionError(f"r must have dimension {n}")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return self.box.dim


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


def vi_value(inst: AffineVIInstance, x, y) -> float:
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    return float((inst.M @ x + inst.r) @ (y - x))


def vi_diagonal_subgradient(inst: AffineVIInstance, x) -> np.ndarray:
    """Gradient of the affine f(x, .), which is also a GP-subgradient."""
    x = as_vector(x, "x")
    return inst.M @ x + inst.r


@dataclass(frozen=True)
class AffineFractionalOracle:
    """Solver-facing oracle over an AffineFractionalInstance; the best
    response is solved exactly by Dinkelbach iteration."""

    instance: AffineFractionalInstance
    dinkelbach_tol: float = DINKELBACH_TOL
    dinkelbach_max_iter: int = DINKELBACH_MAX_ITER

    @property
    def dim(self) -> int:
        return self.instance.dim

    def value(self, x, y) -> float:
        return fractional_value(self.instance, x, y)

    def diagonal_subgradient(self, x) -> np.ndarray:
        return fractional_diagonal_subgradient(self.instance, x)

    def best_response(self, x) -> BestResponse:
        y, residual = best_response_residual(
            self.instance, x,
            tol=self.dinkelbach_tol, max_iter=self.dinkelbach_max_iter,
        )
        return y, -residual

    def response_objective(self, x):
        return response_objective(self.instance, x)


@dataclass(frozen=True)
class AffineVIOracle:
    """Solver-facing oracle over an AffineVIInstance; the best response
    is the closed-form vertex minimizer of the affine f(x, .)."""

    instance: AffineVIInstance

    @property
    def dim(self) -> int:
        return self.instance.dim

    def value(self, x, y) -> float:
        return vi_value(self.instance, x, y)

    def diagonal_subgradient(self, x) -> np.ndarray:
        return vi_diagonal_subgradient(self.instance, x)

    def best_response(self, x) -> BestResponse:
        x = as_vector(x, "x")
        w = self.instance.M @ x + self.instance.r
        y = _minimizing_vertex(w, self.instance.box)
        return y, float(w @ y) - float(w @ x)
