"""The box feasible set and its Euclidean projection, a componentwise
clip."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import as_vector


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo, "lo")
        hi = as_vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise DimensionError("lo and hi must have the same dimension")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
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
        v = self._check(x)
        return np.clip(v, self.lo, self.hi)

    def contains(self, x) -> bool:
        v = self._check(x)
        return bool(np.all(v >= self.lo) and np.all(v <= self.hi))

    def _check(self, x) -> np.ndarray:
        v = as_vector(x, "x")
        if v.size != self.dim:
            raise DimensionError(f"x has dimension {v.size}, set has {self.dim}")
        return v
