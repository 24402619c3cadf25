import numpy as np
import pytest

from quasieq import generator
from quasieq.errors import ConfigurationError, GenerationError
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.monotonicity import check_paramonotone
from quasieq.rng import UniformStream, rng_stream, splitmix64_next


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
        stream = UniformStream(0)
        assert tuple(stream.next_uint64() for _ in range(5)) == self.GOLDEN_SEED0

    def test_uniform_is_top_53_bits(self):
        raw = UniformStream(0)
        real = UniformStream(0)
        for _ in range(10):
            expected = (raw.next_uint64() >> 11) * 2.0**-53
            assert real.uniform() == expected

    def test_first_uniform_seed_zero(self):
        assert UniformStream(0).uniform() == pytest.approx(
            0.6012629994179048, abs=0.0
        )

    def test_equal_seeds_agree(self):
        a, b = rng_stream(12345), rng_stream(12345)
        np.testing.assert_array_equal(a.uniforms(100), b.uniforms(100))

    def test_different_seeds_differ(self):
        assert UniformStream(1).uniform() != UniformStream(2).uniform()

    def test_outputs_lie_in_unit_interval(self):
        u = UniformStream(42).uniforms(1_000_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_empirical_mean(self):
        u = UniformStream(123).uniforms(100_000)
        assert abs(u.mean() - 0.5) < 0.01


class TestGeneratorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "count": 1, "seed": 1},
            {"n": 1, "count": 0, "seed": 1},
            {"n": 1, "count": 1, "seed": 1, "box_low": 2.0, "box_high": 2.0},
            {"n": 1, "count": 1, "seed": 1, "box_low": 3.0, "box_high": 1.0},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(**kwargs)


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
        inst = generate_instances(GeneratorConfig(n=2, count=1, seed=31337))[0]
        u = rng_stream(31337).uniforms(13)
        np.testing.assert_array_equal(inst.A, u[0:4].reshape(2, 2))
        np.testing.assert_array_equal(inst.b, u[4:6])
        np.testing.assert_array_equal(inst.A1, u[6:10].reshape(2, 2))
        np.testing.assert_array_equal(inst.b1, u[10:12])
        # c and d come next; the second instance continues the same stream
        np.testing.assert_array_equal(inst.c, rng_stream(31337).uniforms(15)[12:14])

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

    def test_generation_error_reports_acceptance_rate(self, monkeypatch):
        # entries lie in [0, 1), so over [-1e6, -1e5]^2 the denominator
        # c'y + d is negative unless c is below 1e-6 everywhere: every
        # draw is rejected
        monkeypatch.setattr(generator, "MAX_REJECTIONS", 25)
        cfg = GeneratorConfig(n=2, count=1, seed=3, box_low=-1e6, box_high=-1e5)
        with pytest.raises(GenerationError, match="rejected 26 draws") as err:
            generate_instances(cfg)
        assert err.value.acceptance_rate == 0.0
