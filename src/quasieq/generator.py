"""Reproducible random affine-fractional instances.

Entries are uniforms in [0, 1) drawn from the package xoshiro256**
stream in a fixed order (A row-major, then b, then A1 row-major, then
b1, then c, then d), so a config reproduces instances bit-for-bit.
Draws whose denominator is not strictly positive over the box are
rejected and redrawn from the continuing stream; with
require_paramonotone set, draws failing the paramonotonicity
certificate are rejected the same way.  More than MAX_REJECTIONS
rejections in one call raise GenerationError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, GenerationError
from .monotonicity import check_paramonotone
from .oracles import AffineFractionalInstance
from .rng import rng_stream
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
        if self.n < 1:
            raise ConfigurationError("n must be at least 1")
        if self.count < 1:
            raise ConfigurationError("count must be at least 1")
        if not self.box_low < self.box_high:
            raise ConfigurationError("box_low must be below box_high")


def _draw_instance(stream, n: int, box: BoxSet):
    draw = stream.uniforms
    A = draw(n * n).reshape(n, n)
    b = draw(n)
    A1 = draw(n * n).reshape(n, n)
    b1 = draw(n)
    c = draw(n)
    d = float(draw(1)[0])
    return AffineFractionalInstance(A=A, b=b, A1=A1, b1=b1, c=c, d=d, box=box)


def generate_instances(config: GeneratorConfig) -> list[AffineFractionalInstance]:
    """Draw config.count instances; deterministic for equal configs."""
    stream = rng_stream(config.seed)
    box = BoxSet.uniform(config.n, config.box_low, config.box_high)
    instances: list[AffineFractionalInstance] = []
    rejections = 0
    while len(instances) < config.count:
        try:
            inst = _draw_instance(stream, config.n, box)
        except DomainError:
            inst = None  # nonpositive denominator over the box
        if inst is not None and config.require_paramonotone:
            if not check_paramonotone(inst).verdict:
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
