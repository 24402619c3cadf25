"""Reproducible random affine-fractional instances.

Each candidate instance is the next 2n^2 + 3n + 1 uniforms of the
package xoshiro256** stream, sliced in a fixed order (A row-major, then
b, then A1 row-major, then b1, then c, then d), so a config reproduces
instances bit-for-bit.  Draws whose denominator is not strictly
positive over the box are rejected; with require_paramonotone set, so
are draws failing the paramonotonicity certificate.  The i-th `uniforms`
call takes base * 2**i candidates, up to _MAX_CALL uniforms.  For plain
draws, base is every draw still needed, so a call that rejects nothing
is the only one; under require_paramonotone, it is _FIRST_BLOCK
uniforms' worth (292 at n = 3, 1 from n = 45 on).  Two stacked LDL'
tests decide most of a paramonotone block at once: one rules out
candidates the certificate would reject, the other certifies ones it
would accept, without computing its report.  Every draw in the band
between them goes, in stream order, to the certificate, so the tests
change no instance, only the cost of finding it.  The stream is
the call's own, so draws past the last accepted one are never seen.
More than MAX_REJECTIONS rejections in one call, counted draw by draw,
raise GenerationError.  An accepted paramonotone instance holds copies
of its fields; a plain one holds views into its call's uniforms, which
hold little else.  n, count and seed must be integers (not bools), seed
in [0, 2**64), the box bounds finite reals, require_paramonotone a bool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, GenerationError
from .linalg import is_integer, is_real
from .monotonicity import check_paramonotone, screen
from .oracles import AffineFractionalInstance
from .rng import UniformStream
from .sets import BoxSet

MAX_REJECTIONS = 10000
_MAX_CALL = 1 << 19  # most uniforms one `uniforms` call takes (4 MB)
_FIRST_BLOCK = 1 << 13  # uniforms in the first paramonotone block


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    count: int
    seed: int
    box_low: float = 1.0
    box_high: float = 3.0
    require_paramonotone: bool = False

    def __post_init__(self):
        if not (is_integer(self.n) and is_integer(self.count) and is_integer(self.seed)
                and 0 <= int(self.seed) < 1 << 64):
            raise ConfigurationError("n, count and seed must be integers, seed in [0, 2**64), "
                                     f"got {self.n!r}, {self.count!r}, {self.seed!r}")
        if self.n < 1:
            raise ConfigurationError("n must be at least 1")
        if self.count < 1:
            raise ConfigurationError("count must be at least 1")
        if not (is_real(self.box_low) and is_real(self.box_high)
                and -math.inf < self.box_low < self.box_high < math.inf):
            raise ConfigurationError("box_low must be below box_high, both finite")
        if not isinstance(self.require_paramonotone, bool):
            raise ConfigurationError("require_paramonotone must be a bool, got "
                                     f"{self.require_paramonotone!r}")


def _fields(u, n: int) -> tuple:
    """(A, b, A1, b1, c, d) of each row of a block u of draws, sliced in draw order."""
    m, matrix = n * n, (*u.shape[:-1], n, n)
    return (u[..., :m].reshape(matrix), u[..., m:m + n],
            u[..., m + n:2 * m + n].reshape(matrix), u[..., 2 * m + n:2 * m + 2 * n],
            u[..., 2 * m + 2 * n:-1], u[..., -1])


def generate_instances(config: GeneratorConfig) -> list[AffineFractionalInstance]:
    """Draw config.count instances; deterministic for equal configs."""
    n, count = int(config.n), int(config.count)  # Python ints, so no shift overflows
    stream = UniformStream(config.seed)
    box = BoxSet.uniform(n, config.box_low, config.box_high)
    per_draw, require = 2 * n * n + 3 * n + 1, config.require_paramonotone
    most = max(1, _MAX_CALL // per_draw)  # the most candidates one call takes
    first = max(1, _FIRST_BLOCK // per_draw)
    instances: list[AffineFractionalInstance] = []
    rejections = 0
    for call in itertools.count():
        # base * 2**call candidates, up to `most`; the shift stops once it passes `most`
        base = first if require else count - len(instances)
        k = min(base << min(call, most.bit_length()), most)
        fields = _fields(stream.uniforms(k * per_draw).reshape(k, per_draw), n)
        A, _, A1, b1, c, d = fields
        ruled_out, certified = screen(A, A1, b1, c, d) if require else ([False] * k,) * 2
        for i, out in enumerate(ruled_out):  # only a candidate the screen leaves is sliced
            # a paramonotone candidate's own copies: a view would keep the block alive
            row = () if out else [f[i].copy() if require else f[i] for f in fields]
            try:
                inst = AffineFractionalInstance(*row, box) if row else None
            except DomainError:
                inst = None  # nonpositive denominator over the box
            if (inst is not None and require and not certified[i]
                    and not check_paramonotone(inst).verdict):
                inst = None
            if inst is None:
                rejections += 1
                if rejections > MAX_REJECTIONS:
                    accepted = len(instances)
                    rate = accepted / (accepted + rejections)
                    raise GenerationError(f"rejected {rejections} draws for {accepted} "
                                          f"accepted instances (acceptance rate {rate:.3g})",
                                          acceptance_rate=rate)
                continue
            instances.append(inst)
            if len(instances) == count:
                return instances
