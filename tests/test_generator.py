import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasieq import generator, rng
from quasieq.errors import ConfigurationError, DomainError, GenerationError
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.monotonicity import check_paramonotone, screen
from quasieq.rng import UniformStream, splitmix64_next
from quasieq.sets import BoxSet
from reference_rng import ScalarUniformStream, _draw_instance, scalar_words, seed_state


class TestSplitmix64:
    def test_reference_vector_for_seed_zero(self):
        # first output of the reference splitmix64 sequence seeded with 0
        _, out = splitmix64_next(0)
        assert out == 0xE220A8397B1DCDAF

    def test_state_advances(self):
        state, _ = splitmix64_next(0)
        state2, out2 = splitmix64_next(state)
        assert state != 0
        assert state2 != state
        assert out2 != 0xE220A8397B1DCDAF


class TestUniformStream:
    # frozen from an independent implementation of splitmix64 seeding
    # followed by xoshiro256** output
    GOLDEN_SEED0 = (
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
        13521403990117723737,
    )

    def test_golden_outputs_seed_zero(self):
        # each uniform is the top 53 bits of a golden output word
        expected = [(word >> 11) * 2.0**-53 for word in self.GOLDEN_SEED0]
        np.testing.assert_array_equal(UniformStream(0).uniforms(5), expected)

    def test_first_uniform_seed_zero(self):
        assert UniformStream(0).uniforms(1)[0] == pytest.approx(
            0.6012629994179048, abs=0.0
        )

    def test_equal_seeds_agree(self):
        a, b = UniformStream(12345), UniformStream(12345)
        np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))

    def test_different_seeds_differ(self):
        assert UniformStream(1).uniforms(1)[0] != UniformStream(2).uniforms(1)[0]

    def test_consecutive_calls_continue_one_stream(self):
        stream = UniformStream(2024)
        pieces = [stream.uniforms(3), stream.uniforms(0), stream.uniforms(4)]
        np.testing.assert_array_equal(np.concatenate(pieces),
                                      UniformStream(2024).uniforms(7))

    def test_zero_count_is_empty_float_array(self):
        u = UniformStream(0).uniforms(0)
        assert u.shape == (0,)
        assert u.dtype == np.float64

    @pytest.mark.parametrize("count, error", [(-1, ValueError), (2.5, TypeError),
                                              (True, TypeError)])
    def test_rejects_bad_count(self, count, error):
        stream = UniformStream(0)
        with pytest.raises(error):
            stream.uniforms(count)
        # the stream is untouched
        np.testing.assert_array_equal(stream.uniforms(3), UniformStream(0).uniforms(3))

    @pytest.mark.parametrize("seed", [2.5, True, "3", np.float64(7.9), None])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            UniformStream(seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        # reduced mod 2**64, each would give the stream of another seed
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            UniformStream(seed)

    def test_accepts_numpy_integer_seed(self):
        assert (UniformStream(np.uint64(7)).uniforms(3).tobytes()
                == UniformStream(7).uniforms(3).tobytes())

    def test_accepts_numpy_integer_count(self):
        np.testing.assert_array_equal(UniformStream(0).uniforms(np.int64(3)),
                                      UniformStream(0).uniforms(3))

    def test_outputs_lie_in_unit_interval(self):
        u = UniformStream(42).uniforms(1_000_000)
        assert u.dtype == np.float64
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_empirical_mean(self):
        u = UniformStream(123).uniforms(100_000)
        assert abs(u.mean() - 0.5) < 0.01


def lane_steps(size: int) -> int:
    """The lane length of a refill of size uniforms: 2**q steps with
    q = round(log2(size / 16) / 2), halves rounded up, held within 4 .. 8."""
    return 2 ** min(8, max(4, math.floor(math.log2(size / 16) / 2 + 0.5)))


@functools.cache
def scalar_uniforms(seed: int) -> np.ndarray:
    return ScalarUniformStream(seed).uniforms(max(COUNTS))


# one call makes one refill, of count uniforms rounded up to whole lanes:
# each lane length from 16 steps, on both sides of each change of length
COUNTS = [0, 1, 127, 128, 129, 2**13 - 1, 2**13, 2**13 + 1, 2**15 - 1, 2**15, 80_601,
          2**17 - 1, 2**17, 2**19 - 1, 2**19, 2**19 + 1]


class TestLanesMatchScalarOracle:
    SEEDS = (0, 12345, 2**64 - 1)

    def test_counts_cross_every_change_of_lane_length(self):
        assert lane_steps(1) == 16
        for change, lane in zip((2**13, 2**15, 2**17, 2**19), (32, 64, 128, 256)):
            assert (lane_steps(change - 1), lane_steps(change)) == (lane // 2, lane)
            assert {change - 1, change} <= set(COUNTS)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_one_call_is_bit_identical(self, seed, count):
        got = UniformStream(seed).uniforms(count)
        assert got.dtype == np.float64
        assert got.tobytes() == scalar_uniforms(seed)[:count].tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_jump_equals_lane_scalar_steps(self, seed):
        # _jump(state, p) is 2**p single steps, for p = 0 .. 13: every
        # power that the lane starts of a refill below 2**14 uniforms use
        state = seed_state(seed)
        for p in range(14):
            jumped = rng._jump(np.array(state, dtype=np.uint64), p)
            assert jumped.dtype == np.uint64
            assert tuple(int(w) for w in jumped) == scalar_words(state, 2**p)[0], f"p = {p}"

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**64 - 1),
           counts=st.lists(st.sampled_from([0, 1, 15, 16, 17, 2**13 - 1, 2**13 + 1])
                           | st.integers(0, 3000), max_size=6))
    @example(seed=7, counts=[1, 16])  # the second call refills one 16-step lane
    @example(seed=7, counts=[2**13 - 1, 2])  # 512 lanes of 16 steps leave one uniform
    def test_consecutive_calls_continue_one_stream(self, seed, counts):
        stream = UniformStream(seed)
        pieces = [stream.uniforms(c) for c in counts]
        joined = np.concatenate([np.empty(0)] + pieces)
        total = sum(counts)
        assert joined.tobytes() == UniformStream(seed).uniforms(total).tobytes()
        assert joined.tobytes() == ScalarUniformStream(seed).uniforms(total).tobytes()


class TestLaneStartsByDoubling:
    # a refill of L lanes of 2**q steps finds its lane starts in
    # ceil(log2 L) rounds of stacked jumps by 2**q, 2**(q + 1), ... steps
    # (one lane, two lanes, ..., each round in `_jump` calls of at most
    # 64 states); they must be the serial chain of one-lane jumps

    @staticmethod
    def watch_refills(monkeypatch):
        """The (lanes, 4) start states and the lane length of each refill,
        as they are made."""
        rng._jump_table(0)  # built by a step of its own, which is no refill
        seen, advance = [], rng._advance

        def watched(s, out):
            seen.append((s.T.copy(), out.shape[1]))
            advance(s, out)

        monkeypatch.setattr(rng, "_advance", watched)
        return seen

    LANES = (1, 2, 3, 63, 64, 65, 630, 2049, 3150)

    @pytest.mark.parametrize("lanes", LANES)
    def test_lane_starts_equal_the_serial_chain(self, monkeypatch, lanes):
        # every lane length that makes a refill of exactly this many lanes
        steps = [2**q for q in range(4, 9) if lane_steps(lanes * 2**q) == 2**q]
        assert steps
        seen = self.watch_refills(monkeypatch)
        for lane in steps:
            seen.clear()
            UniformStream(12345).uniforms(lanes * lane)
            chain = [np.array(seed_state(12345), dtype=np.uint64)]
            for _ in range(lanes - 1):
                chain.append(rng._jump(chain[-1], lane.bit_length() - 1))
            assert [(len(starts), got) for starts, got in seen] == [(lanes, lane)]
            assert seen[0][0].tobytes() == np.array(chain).tobytes(), f"{lane}-step lanes"

    def test_every_lane_length_is_tried(self):
        tried = {2**q for lanes in self.LANES for q in range(4, 9)
                 if lane_steps(lanes * 2**q) == 2**q}
        assert tried == {16, 32, 64, 128, 256}

    @pytest.mark.parametrize("p", range(9))
    def test_jump_table_is_the_lane_steps_repeated(self, p):
        # the 64 * 16 states with one nonzero nibble, in the table's column
        # order, each taken through 2**p single xoshiro256** steps
        k, v = np.divmod(np.arange(64 * 16), 16)
        states = np.zeros((64 * 16, 32), dtype=np.uint8)
        states[np.arange(64 * 16), k // 2] = v << 4 * (k % 2)
        s = states.view(np.uint64).T.copy()
        rng._advance(s, np.empty((64 * 16, 2**p)))
        assert s.tobytes() == rng._jump_table(p).tobytes()

    def test_one_call_equals_five(self):
        # five refills of 1,260 lanes of 64 steps, which the scalar oracle
        # checks, against one of 3,149 lanes of 128
        stream = UniformStream(12345)
        five = np.concatenate([stream.uniforms(80_601) for _ in range(5)])
        assert UniformStream(12345).uniforms(5 * 80_601).tobytes() == five.tobytes()

    # (5, 20): 1,320 uniforms, one refill of 83 lanes of 16 steps (1,328)
    @pytest.mark.parametrize("n, count", [(5, 200), (20, 20), (200, 5), (3, 1), (5, 20)])
    def test_plain_call_makes_one_refill(self, monkeypatch, n, count):
        # of the draws asked for, rounded up to whole lanes
        seen = self.watch_refills(monkeypatch)
        generate_instances(GeneratorConfig(n=n, count=count, seed=12345))
        size = count * (2 * n * n + 3 * n + 1)
        lane = lane_steps(size)
        assert [(len(starts), got) for starts, got in seen] == [(-(-size // lane), lane)]


class TestGeneratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "count": 1, "seed": 1},
            {"n": 1, "count": 0, "seed": 1},
            {"n": 1, "count": 1, "seed": 1, "box_low": 2.0, "box_high": 2.0},
            {"n": 1, "count": 1, "seed": 1, "box_low": 3.0, "box_high": 1.0},
            {"n": 1, "count": 1.5, "seed": 1},
            {"n": 1, "count": 1, "seed": 1.7},
            {"n": 2.5, "count": 1, "seed": 1},
            {"n": True, "count": 1, "seed": 1},
            {"n": 1, "count": 1, "seed": 1, "box_low": -np.inf},
            {"n": 1, "count": 1, "seed": 1, "box_high": np.inf},
            {"n": 1, "count": 1, "seed": 1, "box_low": -np.inf, "box_high": np.inf},
            {"n": 1, "count": 1, "seed": 1, "box_low": np.nan},
            {"n": 1, "count": 1, "seed": 1, "box_low": False},
            {"n": 1, "count": 1, "seed": 1, "box_high": "3"},
            {"n": 1, "count": 1, "seed": 1, "require_paramonotone": "no"},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ConfigurationError, match=r"seed in \[0, 2\*\*64\)"):
            GeneratorConfig(n=1, count=1, seed=seed)

    def test_accepts_the_largest_seed(self):
        cfg = GeneratorConfig(n=1, count=1, seed=2**64 - 1)
        assert (generate_instances(cfg)[0].A.tobytes()
                == UniformStream(2**64 - 1).uniforms(1).tobytes())

    def test_accepts_numpy_integers(self):
        cfg = GeneratorConfig(n=np.int64(2), count=np.int32(1), seed=np.uint64(7))
        inst = generate_instances(cfg)[0]
        np.testing.assert_array_equal(
            inst.A, generate_instances(GeneratorConfig(n=2, count=1, seed=7))[0].A)


class TestGenerateInstances:
    def test_count_shapes_and_ranges(self):
        instances = generate_instances(GeneratorConfig(n=2, count=3, seed=7))
        assert len(instances) == 3
        for inst in instances:
            assert inst.A.shape == (2, 2)
            for arr in (inst.A, inst.b, inst.A1, inst.b1, inst.c):
                assert np.all(arr >= 0.0) and np.all(arr < 1.0)
            assert 0.0 <= inst.d < 1.0
            np.testing.assert_array_equal(inst.box.lo, [1.0, 1.0])
            np.testing.assert_array_equal(inst.box.hi, [3.0, 3.0])

    def test_deterministic_across_calls(self):
        cfg = GeneratorConfig(n=3, count=4, seed=99)
        first = generate_instances(cfg)
        second = generate_instances(cfg)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.b, b.b)
            np.testing.assert_array_equal(a.A1, b.A1)
            np.testing.assert_array_equal(a.b1, b.b1)
            np.testing.assert_array_equal(a.c, b.c)
            assert a.d == b.d

    def test_draw_order_matches_stream(self):
        # A row-major, then b, A1 row-major, b1, c, d, straight off the stream
        inst, second = generate_instances(GeneratorConfig(n=2, count=2, seed=31337))
        u = UniformStream(31337).uniforms(30)
        np.testing.assert_array_equal(inst.A, u[0:4].reshape(2, 2))
        np.testing.assert_array_equal(inst.b, u[4:6])
        np.testing.assert_array_equal(inst.A1, u[6:10].reshape(2, 2))
        np.testing.assert_array_equal(inst.b1, u[10:12])
        np.testing.assert_array_equal(inst.c, u[12:14])
        assert inst.d == u[14]
        # the second instance takes the next block of the same stream
        np.testing.assert_array_equal(second.A, u[15:19].reshape(2, 2))
        assert second.d == u[29]

    # 15 uniforms per draw at n = 2: one, two or every draw still needed per call
    @pytest.mark.parametrize("cap", [1, 2 * 15 + 1, 10**6])
    @pytest.mark.parametrize("low, high", [(1.0, 3.0), (-1.0, 1.0)])
    def test_plain_draws_are_the_one_candidate_loop(self, monkeypatch, cap, low, high):
        # whatever the cap on one `uniforms` call, the instances are the
        # candidates off the stream one by one, without the rejected ones;
        # over [-1, 1]^2 about 5 draws in 6 are rejected
        n, count, seed = 2, 12, 7
        stream, box = UniformStream(seed), BoxSet.uniform(n, low, high)
        expected, rejected = [], 0
        while len(expected) < count:
            try:
                expected.append(_draw_instance(stream, n, box))
            except DomainError:
                rejected += 1
        assert (rejected > count) == (low < 0)
        seen, uniforms = [], UniformStream.uniforms

        def watched(stream, size):
            seen.append(size)
            return uniforms(stream, size)

        monkeypatch.setattr(UniformStream, "uniforms", watched)
        monkeypatch.setattr(generator, "_MAX_CALL", cap)
        got = generate_instances(GeneratorConfig(n, count, seed, low, high))
        assert len(got) == count
        if cap == 1:
            # a cap below one candidate's 15 uniforms: every call takes
            # exactly one whole candidate, as from n = 512 on under 2**19
            assert seen == [15] * (count + rejected)
        for a, b in zip(got, expected):
            for name in ("A", "b", "A1", "b1", "c", "d"):
                assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()

    def test_custom_box(self):
        cfg = GeneratorConfig(n=2, count=1, seed=5, box_low=-1.0, box_high=0.0)
        # denominator over [-1, 0]^2 has worst corner at lo; most draws
        # still pass since d alone can carry it
        inst = generate_instances(cfg)[0]
        np.testing.assert_array_equal(inst.box.lo, [-1.0, -1.0])

    def test_paramonotone_filter(self):
        cfg = GeneratorConfig(n=2, count=3, seed=11, require_paramonotone=True)
        instances = generate_instances(cfg)
        assert len(instances) == 3
        for inst in instances:
            assert check_paramonotone(inst).verdict
        repeat = generate_instances(cfg)
        for a, b in zip(instances, repeat):
            np.testing.assert_array_equal(a.A, b.A)

    def test_paramonotone_instances_own_their_arrays(self):
        # a view into the candidates' block would keep the whole block alive
        cfg = GeneratorConfig(n=3, count=20, seed=12345, require_paramonotone=True)
        for inst in generate_instances(cfg):
            for name in ("A", "b", "A1", "b1", "c"):
                assert getattr(inst, name).base is None, name

    @pytest.mark.parametrize("n, seed", [(1, 5), (2, 11), (3, 12345)])
    def test_paramonotone_filter_matches_the_certificate_alone(self, n, seed):
        # the plain candidate stream filtered by check_paramonotone alone:
        # neither LDL' test in front of the certificate changes an instance
        count = 4
        stream = UniformStream(seed)
        box = BoxSet.uniform(n, 1.0, 3.0)
        expected, screened, certified = [], 0, 0
        while len(expected) < count:
            try:
                inst = _draw_instance(stream, n, box)
            except DomainError:
                continue
            fields = (inst.A, inst.A1, inst.b1, inst.c, inst.d)
            out, sure = screen(*(np.asarray(f)[None] for f in fields))
            screened += bool(out[0])
            certified += bool(sure[0])
            if check_paramonotone(inst).verdict:
                expected.append(inst)
        assert screened > 0  # the screen has draws to reject
        assert certified > 0  # and the accept test draws to accept
        cfg = GeneratorConfig(n=n, count=count, seed=seed, require_paramonotone=True)
        got = generate_instances(cfg)
        assert len(got) == count
        for a, b in zip(got, expected):
            for name in ("A", "b", "A1", "b1", "c", "d"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_generation_error_reports_acceptance_rate(self, monkeypatch):
        # entries lie in [0, 1), so over [-1e6, -1e5]^2 the denominator
        # c'y + d is negative unless c is below 1e-6 everywhere: every
        # draw is rejected
        monkeypatch.setattr(generator, "MAX_REJECTIONS", 25)
        cfg = GeneratorConfig(n=2, count=1, seed=3, box_low=-1e6, box_high=-1e5)
        with pytest.raises(GenerationError, match="rejected 26 draws") as err:
            generate_instances(cfg)
        assert err.value.acceptance_rate == 0.0

    def test_rejection_limit_counts_each_candidate_of_a_block(self, monkeypatch):
        # no n = 4 draw passes the certificate; the limit fires within the
        # first block of candidates, at the 26th rejection
        monkeypatch.setattr(generator, "MAX_REJECTIONS", 25)
        cfg = GeneratorConfig(n=4, count=1, seed=12345, require_paramonotone=True)
        with pytest.raises(GenerationError, match="rejected 26 draws for 0 ") as err:
            generate_instances(cfg)
        assert err.value.acceptance_rate == 0.0

    def test_rejection_limit_fires_where_the_scalar_loop_does(self, monkeypatch):
        # candidate by candidate off the stream, rejections counted in order
        n, seed, limit = 3, 12345, 400
        stream, box = UniformStream(seed), BoxSet.uniform(n, 1.0, 3.0)
        accepted = rejections = 0
        while rejections <= limit:
            try:
                passed = check_paramonotone(_draw_instance(stream, n, box)).verdict
            except DomainError:
                passed = False
            accepted += passed
            rejections += not passed
        ends = 292 * (2 ** np.arange(1, 12) - 1)  # blocks of 292, 584, 1,168, ... candidates
        assert accepted > 0 and accepted + rejections not in ends  # fires mid-block
        rate = accepted / (accepted + rejections)
        monkeypatch.setattr(generator, "MAX_REJECTIONS", limit)
        cfg = GeneratorConfig(n=n, count=20, seed=seed, require_paramonotone=True)
        with pytest.raises(GenerationError) as err:
            generate_instances(cfg)
        assert str(err.value) == (f"rejected {rejections} draws for {accepted} accepted "
                                  f"instances (acceptance rate {rate:.3g})")
        assert err.value.acceptance_rate == rate

    @pytest.mark.parametrize("cfg, calls", [
        # over [-1, 1]^2 about 5 draws in 6 are rejected; each call takes the
        # draws still needed times 2**i: 200, 165 * 2, 114 * 4, 36 * 8 of 15
        (GeneratorConfig(2, 200, 1, -1.0, 1.0), [3000, 4950, 6840, 4320]),
        # paramonotone blocks of 292, 584 and 1,168 candidates of 28 uniforms
        (GeneratorConfig(n=3, count=20, seed=12345, require_paramonotone=True),
         [8176, 16352, 32704]),
    ], ids=["plain", "paramonotone"])
    def test_successive_calls_keep_their_sizes(self, monkeypatch, cfg, calls):
        seen, uniforms = [], UniformStream.uniforms

        def watched(stream, count):
            seen.append(count)
            return uniforms(stream, count)

        monkeypatch.setattr(UniformStream, "uniforms", watched)
        generate_instances(cfg)
        assert seen == calls

    @pytest.mark.parametrize("count, seed, accepted", [(5, 1, 3), (20, 12345, 6)])
    def test_exhausted_rejections_keep_their_pin(self, count, seed, accepted):
        # the full MAX_REJECTIONS at n = 4, after a few acceptances spread
        # over many blocks: a stop one draw early or late changes the
        # message, as does a block that skips or repeats a candidate
        cfg = GeneratorConfig(n=4, count=count, seed=seed, require_paramonotone=True)
        with pytest.raises(GenerationError) as err:
            generate_instances(cfg)
        rate = accepted / (accepted + 10001)
        assert str(err.value) == (f"rejected 10001 draws for {accepted} accepted "
                                  f"instances (acceptance rate {rate:.3g})")
        assert err.value.acceptance_rate == rate

    @pytest.mark.parametrize("n, seed", [(2, 11), (3, 12345)])
    def test_paramonotone_count_is_a_prefix_of_a_larger_count(self, n, seed):
        # candidates drawn past the last accepted one are never seen
        count = 3
        few, more = (generate_instances(GeneratorConfig(n=n, count=c, seed=seed,
                                                        require_paramonotone=True))
                     for c in (count, count + 5))
        assert len(few) == count and len(more) == count + 5
        for a, b in zip(few, more):
            for name in ("A", "b", "A1", "b1", "c", "d"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
