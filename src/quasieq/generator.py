"""Reproducible random affine-fractional instances.

Each candidate instance is one `uniforms(2n^2 + 3n + 1)` call on the
package xoshiro256** stream, sliced in a fixed order (A row-major, then
b, then A1 row-major, then b1, then c, then d), so a config reproduces
instances bit-for-bit.  The stream makes its words in numpy lanes and
keeps those not yet handed out, so the small draws of one call share
one refill while each draw still takes the next block of the one
stream.  Draws whose denominator is not strictly positive over the box
are rejected and the next candidate takes the next block; with
require_paramonotone set, draws failing the paramonotonicity
certificate are rejected the same way.  A draw that the cheap LDL'
screen rules out is rejected without the certificate; every other draw
is accepted only on the certificate's verdict, so the screen changes
no instance, only the cost of finding it.  More than MAX_REJECTIONS
rejections in one call raise GenerationError.  n, count and seed must
be integers (not bools), and the box bounds finite real numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, GenerationError
from .linalg import is_integer, is_real
from .monotonicity import certainly_not_paramonotone, check_paramonotone
from .oracles import AffineFractionalInstance
from .rng import UniformStream
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


def _draw_instance(stream: UniformStream, n: int, box: BoxSet):
    u = stream.uniforms(2 * n * n + 3 * n + 1)
    m = n * n
    return AffineFractionalInstance(
        A=u[:m].reshape(n, n), b=u[m:m + n], A1=u[m + n:2 * m + n].reshape(n, n),
        b1=u[2 * m + n:2 * m + 2 * n], c=u[2 * m + 2 * n:2 * m + 3 * n],
        d=float(u[-1]), box=box)


def generate_instances(config: GeneratorConfig) -> list[AffineFractionalInstance]:
    """Draw config.count instances; deterministic for equal configs."""
    stream = UniformStream(config.seed)
    box = BoxSet.uniform(config.n, config.box_low, config.box_high)
    instances: list[AffineFractionalInstance] = []
    rejections = 0
    while len(instances) < config.count:
        try:
            inst = _draw_instance(stream, config.n, box)
        except DomainError:
            inst = None  # nonpositive denominator over the box
        if inst is not None and config.require_paramonotone:
            if certainly_not_paramonotone(inst) or not check_paramonotone(inst).verdict:
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
    return instances
