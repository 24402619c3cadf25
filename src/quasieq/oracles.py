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

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import DimensionError
from .fractional import (FractionalObjective, _check_denominator, _dinkelbach,
                         _minimizing_vertex, _response, best_response_residual)
from .linalg import as_matrix, as_real, as_vector
from .sets import BoxSet


@runtime_checkable
class EquilibriumOracle(Protocol):
    """Contract the solver consumes: box is the feasible set C,
    diagonal_subgradient(x) returns an (unnormalized) g with
    <g, y - x> < 0 for every y in C with f(x, y) < 0, residual(x) returns
    -min_{y in C} f(x, y) >= 0, zero exactly at a solution, and probe(x,
    start) returns (g, residual, y*), y* a minimizer searched from start."""

    @property
    def box(self) -> BoxSet: ...

    def diagonal_subgradient(self, x) -> np.ndarray: ...

    def residual(self, x) -> float: ...

    def probe(self, x, start=None) -> tuple[np.ndarray, float, np.ndarray]: ...


@dataclass(frozen=True, eq=False)
class AffineFractionalInstance:
    """Data (A, b, A1, b1, c, d, box) of an affine-fractional bifunction.

    Construction fails unless c'y + d is strictly positive over the box,
    checked in closed form at the sign-selected vertex; any other error
    names the argument at fault as its ``field``.
    """

    A: np.ndarray
    b: np.ndarray
    A1: np.ndarray
    b1: np.ndarray
    c: np.ndarray
    d: float
    box: BoxSet

    def __post_init__(self):
        n = self.box.dim
        for name, coerce, shape in (("A", as_matrix, (n, n)), ("A1", as_matrix, (n, n)),
                                    ("b", as_vector, (n,)), ("b1", as_vector, (n,)),
                                    ("c", as_vector, (n,))):
            value = coerce(getattr(self, name), name)
            if value.shape != shape:
                raise DimensionError(f"{name} must have shape {shape}, got {value.shape}",
                                     field=name)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "d", as_real(self.d, "d"))
        _check_denominator(self.c, self.d, self.box)

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
    p, q, phi = _response(inst, as_vector(x, "x"))
    return FractionalObjective(p, q, inst.c, inst.d)(y) - phi


def fractional_diagonal_subgradient(inst: AffineFractionalInstance, x) -> np.ndarray:
    """Unnormalized diagonal GP-subgradient g = p - phi_x(x) c of f(x, .)
    at x, from the response objective phi_x = (p'y + q)/(c'y + d).  The
    solver normalizes nonzero g."""
    p, _, phi = _response(inst, as_vector(x, "x"))
    return p - phi * inst.c


@dataclass(frozen=True, eq=False)
class AffineFractionalOracle:
    """Solver-facing oracle over an AffineFractionalInstance.  Dinkelbach
    iteration finds each best response exactly; in a probe it starts at
    start, a point of the box that is not checked, or if None at p'y's minimizer."""

    instance: AffineFractionalInstance

    @property
    def box(self) -> BoxSet:
        return self.instance.box

    def diagonal_subgradient(self, x) -> np.ndarray:
        return fractional_diagonal_subgradient(self.instance, x)

    def residual(self, x) -> float:
        return best_response_residual(self.instance, x)[1] + 0.0  # avoid -0.0

    def probe(self, x, start=None) -> tuple[np.ndarray, float, np.ndarray]:
        """(g, residual, y*) at x from one response objective."""
        inst = self.instance
        p, q, phi = _response(inst, as_vector(x, "x"))
        start = _minimizing_vertex(p, inst.box) if start is None else start
        result = _dinkelbach(p, q, inst.c, inst.d, inst.box, start)
        return p - phi * inst.c, phi - result.value + 0.0, result.y
