import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravac
from gravac.gradcore import (REDUCE_BLOCK, GradientVector, SeededRng, dot64,
                             ewma_lambda_from_workers, normal32, squared_l2_norm)
from gravac.metrics import GainTracker


class TestGradientVector:
    def test_basic_construction(self):
        g = GradientVector([1.0, 2.0, 3.0])
        assert g.length == 3
        assert g.values.dtype == np.float32

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GradientVector([])


class TestSquaredL2Norm:
    def test_small_example(self):
        assert squared_l2_norm(GradientVector([1, 2, 2]).values) == 9.0

    def test_all_zeros(self):
        assert squared_l2_norm(GradientVector(np.zeros(10)).values) == 0.0

    def test_matches_64bit_summation_oracle(self):
        # independent oracle: exact compensated summation of float64 squares
        values = SeededRng(7).generator.standard_normal(1000).astype(np.float32)
        expected = math.fsum(float(v) ** 2 for v in values)
        got = squared_l2_norm(GradientVector(values).values)
        assert abs(got - expected) <= 1e-6 * expected

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            squared_l2_norm(np.array([]))

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(1, 200)).astype(np.float32)
            b = rng.standard_normal(rng.integers(1, 200)).astype(np.float32)
            whole = squared_l2_norm(np.concatenate([a, b]))
            parts = squared_l2_norm(a) + squared_l2_norm(b)
            np.testing.assert_allclose(whole, parts, rtol=1e-12)


def _vector(seed: int, size: int, dtype) -> np.ndarray:
    """Normals whose magnitudes spread over six decades."""
    gen = np.random.default_rng(seed)
    return (gen.standard_normal(size) * 10.0 ** gen.uniform(-3, 3, size)).astype(dtype)


def _strided(values: np.ndarray) -> np.ndarray:
    """The same values, every other entry of a twice-as-long array."""
    wide = np.zeros(2 * values.size, dtype=values.dtype)
    wide[::2] = values
    return wide[::2]


class TestDot64:
    """The blocked float64 reduction behind every norm and the quadratic's loss."""

    SIZES = (1, REDUCE_BLOCK, REDUCE_BLOCK + 1, 3 * REDUCE_BLOCK - 1)
    inputs = given(st.sampled_from(SIZES), st.sampled_from((np.float32, np.float64)),
                   st.integers(0, 2**32 - 1))

    @inputs
    @settings(max_examples=12, deadline=None)
    def test_matches_exact_summation_of_the_products(self, size, dtype, seed):
        a, b = _vector(seed, size, dtype), _vector(seed + 1, size, dtype)
        for x, y in ((a, a), (a, b)):
            products = x.astype(np.float64) * y.astype(np.float64)
            scale = math.fsum(np.abs(products))
            assert abs(dot64(x, y) - math.fsum(products)) <= 1e-12 * scale

    @inputs
    @settings(max_examples=12, deadline=None)
    def test_strided_input_gives_the_same_bits(self, size, dtype, seed):
        a, b = _vector(seed, size, dtype), _vector(seed + 1, size, dtype)
        assert dot64(_strided(a), _strided(a)) == dot64(a, a)
        assert dot64(_strided(a), b) == dot64(a, b) == dot64(a, _strided(b))

    @inputs
    @settings(max_examples=12, deadline=None)
    def test_squared_norm_is_the_dot_with_itself(self, size, dtype, seed):
        v = _vector(seed, size, dtype)
        assert dot64(v, v.copy()) == squared_l2_norm(v)

    def test_mismatched_or_2d_inputs_rejected(self):
        for a, b in ((np.ones(3), np.ones(4)), (np.ones((2, 2)), np.ones((2, 2)))):
            with pytest.raises(ValueError):
                dot64(a, b)


class TestEwma:
    """The gain EWMA, s <- lam*x + (1-lam)*s, kept per CF by GainTracker."""

    CF = 10.0

    def test_first_observation_assigned(self):
        t = GainTracker(0.5)
        assert t.observe(self.CF, 0.8) == 0.8

    def test_two_observations(self):
        t = GainTracker(0.5)
        t.observe(self.CF, 1.0)
        assert t.observe(self.CF, 0.0) == 0.5

    def test_three_step_recurrence_oracle(self):
        # hand-rolled recurrence, kept independent of the tracker
        lam, xs = 0.32, [0.9, 0.8, 0.95]
        s = xs[0]
        for x in xs[1:]:
            s = lam * x + (1 - lam) * s
        t = GainTracker(lam)
        for x in xs:
            t.observe(self.CF, x)
        np.testing.assert_allclose(t.get(self.CF), s, rtol=1e-15)

    def test_read_before_observation_errors(self):
        t = GainTracker(0.5)
        assert t.get(self.CF) is None

    def test_non_finite_rejected(self):
        t = GainTracker(0.5)
        with pytest.raises(ValueError):
            t.observe(self.CF, float("nan"))
        with pytest.raises(ValueError):
            t.observe(self.CF, float("inf"))

    def test_bad_lambda_rejected(self):
        for lam in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                GainTracker(lam)

    @given(st.floats(min_value=0.01, max_value=1.0),
           st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_convex_combination(self, lam, xs):
        # the tracker smooths the observations clamped to at most 1
        t = GainTracker(lam)
        for x in xs:
            t.observe(self.CF, x)
        clamped = [min(1.0, x) for x in xs]
        low, high = min(clamped), max(clamped)
        assert low - 1e-9 * (1 + abs(low)) <= t.get(self.CF)
        assert t.get(self.CF) <= high + 1e-9 * (1 + abs(high))


class TestLambdaFromWorkers:
    def test_paper_rule(self):
        assert ewma_lambda_from_workers(32) == pytest.approx(0.32)

    def test_clamp_upper(self):
        assert ewma_lambda_from_workers(200) == 1.0

    def test_clamp_lower(self):
        assert ewma_lambda_from_workers(1) == 0.01

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            ewma_lambda_from_workers(0)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = SeededRng(1234).generator.random(1_000_000)
        b = SeededRng(1234).generator.random(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SeededRng(1).generator.random(100)
        b = SeededRng(2).generator.random(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**53, 2**63, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SeededRng(seed)

    def test_largest_seeds_keep_distinct_substreams(self):
        # a Philox key [seed, stream] was read as float64 when the stream was
        # >= 2**63; 2**53 and 2**53 + 1 collided there, the two largest valid
        # seeds did not
        a, b = SeededRng(2**53 - 1), SeededRng(2**53 - 2)
        high = [p for p in range(32) if a.split(p).stream >= 2**63]
        assert high
        for p in high:
            assert a.split(p).generator.random() != b.split(p).generator.random()

    def test_high_streams_differing_in_low_bits_differ(self):
        # the float64 Philox key dropped the low 11 bits of such a stream
        a = SeededRng(5, stream=2**63 + 2048).generator.random(4)
        b = SeededRng(5, stream=2**63 + 2049).generator.random(4)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic_and_disjoint(self):
        root = SeededRng(99)
        a1 = SeededRng(99).split(3, 4).generator.random(100)
        a2 = root.split(3, 4).generator.random(100)
        b = root.split(4, 3).generator.random(100)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


# Prints the float32 log/sin/cos targets numpy dispatched to and the digest
# of one normal32 draw that spans several blocks and ends in an odd tail
_NORMAL32_DIGEST_SCRIPT = """
import hashlib, json
from numpy.lib.introspect import opt_func_info
from gravac.gradcore import SeededRng, normal32
info = opt_func_info(func_name="^(log|sin|cos)$", signature="float32")
targets = sorted({kinds["ff"]["current"] for kinds in info.values()})
z = normal32(SeededRng(3, 5).generator, 3 * (1 << 16) + 1)
print(json.dumps([targets, hashlib.sha256(z.tobytes()).hexdigest()]))
"""


def _normal32_digest(disabled: str) -> tuple[list[str], str]:
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.path.dirname(os.path.dirname(gravac.__file__)))
    proc = subprocess.run([sys.executable, "-c", _NORMAL32_DIGEST_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    proc.check_returncode()
    return tuple(json.loads(proc.stdout))


def _x86_v4_dispatched() -> bool:
    """Whether numpy runs its float32 log, sin and cos on X86_V4 kernels here."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        return False
    info = opt_func_info(func_name="^(log|sin|cos)$", signature="float32")
    return len(info) == 3 and all(kinds["ff"]["current"] == "X86_V4" for kinds in info.values())


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """One block of n normals from its 2h float32 uniforms, h = ceil(n / 2)."""
    h = (n + 1) // 2
    r = np.sqrt(np.float32(-2) * np.log(np.float32(1) - u[:h]))
    t = np.float32(2 * np.pi) * u[h:]
    return np.concatenate([r * np.cos(t), (r * np.sin(t))[:n - h]])


def _normal32_oracle(gen: np.random.Generator, size: int) -> np.ndarray:
    """normal32 written out over ``gen.random``'s float32 uniforms."""
    blocks = []
    for start in range(0, size, REDUCE_BLOCK):
        n = min(REDUCE_BLOCK, size - start)
        blocks.append(_box_muller(gen.random(2 * ((n + 1) // 2), dtype=np.float32), n))
    return np.concatenate(blocks)


class _RawWords:
    """A generator stand-in whose bit generator serves one 64-bit word."""

    def __init__(self, word: int):
        self.bit_generator = self
        self.word = word

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


class TestNormal32:
    """The float32 Box–Muller draw behind the quadratic's gradient noise."""

    @pytest.mark.parametrize("size", [1, 2, 3, REDUCE_BLOCK - 1, REDUCE_BLOCK, REDUCE_BLOCK + 1,
                                      3 * REDUCE_BLOCK + 1])
    def test_bytes_equal_box_muller_over_generator_random(self, size):
        # the raw SFC64 words, low half first, are gen.random's uniforms
        z = normal32(SeededRng(7, stream=size).generator, size)
        ref = _normal32_oracle(SeededRng(7, stream=size).generator, size)
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, REDUCE_BLOCK + 1])
    def test_leaves_the_generator_where_generator_random_leaves_it(self, size):
        gen, ref = SeededRng(8, stream=size).generator, SeededRng(8, stream=size).generator
        normal32(gen, size)
        _normal32_oracle(ref, size)
        state, ref_state = gen.bit_generator.state, ref.bit_generator.state
        assert np.array_equal(state["state"]["state"], ref_state["state"]["state"])
        # an even count of 32-bit draws leaves no buffered half; "uinteger"
        # is read only while "has_uint32" is 1
        assert state["has_uint32"] == ref_state["has_uint32"] == 0
        assert gen.random(3, dtype=np.float32).tobytes() == ref.random(3, dtype=np.float32).tobytes()
        assert gen.random(3).tobytes() == ref.random(3).tobytes()

    def test_scale_and_shift_equal_whole_length_passes(self):
        size = 3 * REDUCE_BLOCK + 1
        shift = np.random.default_rng(0).standard_normal(size).astype(np.float32)
        scale = np.float32(0.3)
        z = normal32(SeededRng(9).generator, size, scale, shift)
        ref = normal32(SeededRng(9).generator, size)
        ref *= scale
        ref += shift
        assert z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("size", [1, 2, REDUCE_BLOCK - 1, REDUCE_BLOCK, REDUCE_BLOCK + 1,
                                      3 * REDUCE_BLOCK + 1])
    def test_exact_length_float32_and_finite(self, size):
        z = normal32(SeededRng(1).generator, size)
        assert z.shape == (size,) and z.dtype == np.float32
        assert np.isfinite(z).all()

    def test_a_zero_uniform_gives_a_zero_not_an_infinity(self):
        z = normal32(_RawWords(0), 5)
        assert np.array_equal(z, np.zeros(5, dtype=np.float32))

    def test_the_largest_uniform_gives_a_finite_bounded_normal(self):
        # all-ones words give u = 1 - 2**-24, the largest uniform, in both halves
        z = normal32(_RawWords(2**64 - 1), 5)
        u = np.full(6, 1 - 2.0 ** -24, dtype=np.float32)
        assert z.tobytes() == _box_muller(u, 5).tobytes()
        assert np.isfinite(z).all() and np.abs(z).max() <= math.sqrt(48 * math.log(2))

    def test_repeatable_per_seed_and_stream(self):
        size = 2 * REDUCE_BLOCK + 3
        a = normal32(SeededRng(5, stream=9).generator, size)
        b = normal32(SeededRng(5, stream=9).generator, size)
        assert a.tobytes() == b.tobytes()
        for other in (SeededRng(5, stream=10), SeededRng(6, stream=9)):
            assert not np.array_equal(a, normal32(other.generator, size))

    def test_distribution_is_standard_normal(self):
        n = 10**6
        z = np.sort(normal32(SeededRng(2).generator, n).astype(np.float64))
        cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(np.float64))
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        # sqrt(n)·KS is below 1.95 with probability 0.999 under the null
        assert ks < 5 / math.sqrt(n)
        for k in (2, 3, 4):
            p = math.erfc(k / math.sqrt(2.0))
            freq = np.count_nonzero(np.abs(z) > k) / n
            assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / n), k

    def test_cos_and_sin_halves_are_uncorrelated(self):
        # each pair (r·cos t, r·sin t) is two independent normals, so neither
        # the halves nor their squares (which share r²) may correlate
        z = normal32(SeededRng(4).generator, 4 * REDUCE_BLOCK).astype(np.float64)
        h = REDUCE_BLOCK // 2
        for block in z.reshape(4, REDUCE_BLOCK):
            cos_half, sin_half = block[:h], block[h:]
            for x, y in ((cos_half, sin_half), (cos_half ** 2, sin_half ** 2)):
                assert abs(np.corrcoef(x, y)[0, 1]) < 5 / math.sqrt(h)

    @pytest.mark.skipif(not _x86_v4_dispatched(),
                        reason="numpy's float32 log/sin/cos do not run on X86_V4 kernels here")
    def test_bytes_equal_on_x86_v4_and_x86_v3_kernels(self):
        default, no_v4 = _normal32_digest(""), _normal32_digest("X86_V4")
        assert default[0] == ["X86_V4"] and no_v4[0] == ["X86_V3"]
        assert default[1] == no_v4[1]
