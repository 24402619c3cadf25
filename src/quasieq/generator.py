"""Reproducible random affine-fractional instances.

Each candidate instance is the next 2n^2 + 3n + 1 uniforms of the
package xoshiro256** stream, sliced in a fixed order (A row-major, then
b, then A1 row-major, then b1, then c, then d), so a config reproduces
instances bit-for-bit.  Draws whose denominator is not strictly
positive over the box are rejected; with require_paramonotone set, so
are draws failing the paramonotonicity certificate, and each `uniforms`
call then takes k whole candidates, as many as fit in the stream's
smallest refill of 8,192 uniforms (292 at n = 3, 1 from n = 45 on);
otherwise, where nearly every draw is accepted, k = 1.  A cheap LDL'
screen rules out most of a block at once; every other draw, in stream
order, is accepted only on the certificate's verdict, so the screen
changes no instance, only the cost of finding it.  The stream is the
call's own, so draws past the last accepted one are never seen.  More
than MAX_REJECTIONS rejections in one call, counted draw by draw, raise
GenerationError.  n, count and seed must be integers (not bools), and
the box bounds finite real numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, GenerationError
from .linalg import is_integer, is_real
from .monotonicity import check_paramonotone, screened_out
from .oracles import AffineFractionalInstance
from .rng import _LANE, _MIN_LANES, UniformStream
from .sets import BoxSet

MAX_REJECTIONS = 10000


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    count: int
    seed: int
    box_low: float = 1.0
    box_high: float = 3.0
    require_paramonotone: bool = False

    def __post_init__(self):
        if not (is_integer(self.n) and is_integer(self.count) and is_integer(self.seed)):
            raise ConfigurationError("n, count and seed must be integers, got "
                                     f"{self.n!r}, {self.count!r}, {self.seed!r}")
        if self.n < 1:
            raise ConfigurationError("n must be at least 1")
        if self.count < 1:
            raise ConfigurationError("count must be at least 1")
        if not (is_real(self.box_low) and is_real(self.box_high)
                and -math.inf < self.box_low < self.box_high < math.inf):
            raise ConfigurationError("box_low must be below box_high, both finite")


def _fields(u, n: int) -> tuple:
    """(A, b, A1, b1, c, d) of each row of a block u of draws, sliced in draw order."""
    m, matrix = n * n, (*u.shape[:-1], n, n)
    return (u[..., :m].reshape(matrix), u[..., m:m + n],
            u[..., m + n:2 * m + n].reshape(matrix), u[..., 2 * m + n:2 * m + 2 * n],
            u[..., 2 * m + 2 * n:-1], u[..., -1])


def generate_instances(config: GeneratorConfig) -> list[AffineFractionalInstance]:
    """Draw config.count instances; deterministic for equal configs."""
    n = config.n
    stream = UniformStream(config.seed)
    box = BoxSet.uniform(n, config.box_low, config.box_high)
    per_draw, require = 2 * n * n + 3 * n + 1, config.require_paramonotone
    # k = 1 for plain draws: refill-sized blocks overdraw (n = 20, count = 19: 3 refills, not 2)
    k = max(1, _MIN_LANES * _LANE // per_draw) if require else 1
    instances: list[AffineFractionalInstance] = []
    rejections = 0
    while True:
        fields = _fields(stream.uniforms(k * per_draw).reshape(k, per_draw), n)
        A, _, A1, b1, c, d = fields
        screened = screened_out(A, A1, b1, c, d) if require else [False] * k
        for i, out in enumerate(screened):  # only a candidate the screen leaves is sliced
            try:
                inst = None if out else AffineFractionalInstance(*(f[i] for f in fields), box)
            except DomainError:
                inst = None  # nonpositive denominator over the box
            if inst is not None and require and not check_paramonotone(inst).verdict:
                inst = None
            if inst is None:
                rejections += 1
                if rejections > MAX_REJECTIONS:
                    accepted = len(instances)
                    rate = accepted / (accepted + rejections)
                    raise GenerationError(
                        f"rejected {rejections} draws for {accepted} accepted "
                        f"instances (acceptance rate {rate:.3g})",
                        acceptance_rate=rate,
                    )
                continue
            instances.append(inst)
            if len(instances) == config.count:
                return instances
