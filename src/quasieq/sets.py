"""The box feasible set and its Euclidean projection, a componentwise
clip."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_vector


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo, "lo")
        hi = as_vector(self.hi, "hi", lo.size)
        if np.any(lo > hi):
            raise InputError("box requires lo <= hi componentwise", field="lo")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def uniform(cls, n: int, lo: float, hi: float) -> "BoxSet":
        return cls(np.full(n, lo), np.full(n, hi))

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def project(self, x) -> np.ndarray:
        return np.clip(as_vector(x, "x", self.dim), self.lo, self.hi)

    def contains(self, x) -> bool:
        v = as_vector(x, "x", self.dim)
        return bool(np.all(v >= self.lo) and np.all(v <= self.hi))
