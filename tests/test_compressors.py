import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravac.compressors import (KIND_NAMES, TOPK_BOUND_MIN, TOPK_BOUND_STRIDE,
                                CompressorKind, SparseGradient, _dgc_pick, _exact_topk,
                                _global_topup, _sample_bound, _select, aggregate,
                                aggregate_dense, compress, compress_further, decompress,
                                keep_count)
from gravac.feedback import apply_feedback, update_residual
from gravac.gradcore import REDUCE_BLOCK, GradientVector, SeededRng, squared_l2_norm
from gravac.metrics import compression_gain

TOPK = CompressorKind("topk")
RANDOMK = CompressorKind("randomk")
DGC = CompressorKind("dgc")
REDSYNC = CompressorKind("redsync")
ALL_KINDS = (TOPK, DGC, REDSYNC, RANDOMK)


def exact_topk_support(values, k):
    """Sort-based oracle: k largest |values|, ties to the lower index."""
    mag = np.abs(values)
    order = np.lexsort((np.arange(len(values)), -mag))
    return set(order[:k].tolist())


def random_vector(rng, n):
    return GradientVector(rng.standard_normal(n).astype(np.float32))


class TestKeepCount:
    def test_floor_rule(self):
        assert keep_count(100, 10) == 10
        assert keep_count(101, 10) == 10
        assert keep_count(10, 3) == 3

    def test_at_least_one(self):
        assert keep_count(5, 100) == 1

    def test_cf_below_one_rejected(self):
        with pytest.raises(ValueError):
            keep_count(10, 0.5)

    def test_nan_cf_rejected(self):
        with pytest.raises(ValueError, match="compression factor must be >= 1"):
            keep_count(10, float("nan"))


class TestTopK:
    def test_small_example(self):
        s, _ = compress(TOPK, GradientVector([3, -1, 0.5, 2]), 2)
        assert s.indices.tolist() == [0, 3]
        assert s.vals.tolist() == [3.0, 2.0]
        assert s.original_length / s.kept == 2.0

    def test_cf_one_is_identity(self):
        g = random_vector(np.random.default_rng(0), 57)
        s, _ = compress(TOPK, g, 1)
        assert s.kept == 57
        assert np.array_equal(decompress(s).values, g.values)

    def test_tie_break_lower_index(self):
        s, _ = compress(TOPK, GradientVector([5.0, -5.0, 5.0, 1.0]), 2)
        assert s.indices.tolist() == [0, 1]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 500))
            g = random_vector(rng, n)
            cf = float(rng.uniform(1, n))
            s, _ = compress(TOPK, g, cf)
            assert set(s.indices.tolist()) == exact_topk_support(g.values, s.kept)


class TestRandomK:
    def test_support_size_and_determinism(self):
        g = random_vector(np.random.default_rng(1), 1000)
        a, _ = compress(RANDOMK, g, 10, SeededRng(5))
        b, _ = compress(RANDOMK, g, 10, SeededRng(5))
        c, _ = compress(RANDOMK, g, 10, SeededRng(6))
        assert a.kept == 100
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_values_match_input_at_indices(self):
        g = random_vector(np.random.default_rng(2), 333)
        s, _ = compress(RANDOMK, g, 7, SeededRng(8))
        assert np.array_equal(s.vals, g.values[s.indices.astype(int)])

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            compress(RANDOMK, GradientVector([1.0, 2.0]), 2)


class TestDgc:
    def test_mostly_matches_exact_topk(self):
        values = SeededRng(11).generator.standard_normal(10_000).astype(np.float32)
        g = GradientVector(values)
        s, _ = compress(DGC, g, 100, SeededRng(21))
        assert s.kept == 100
        oracle = exact_topk_support(g.values, 100)
        overlap = len(set(s.indices.tolist()) & oracle) / 100
        assert overlap >= 0.95

    def test_small_vector_degenerates_to_exact(self):
        # below the 256-entry sampling floor the full vector is the sample
        g = random_vector(np.random.default_rng(3), 64)
        s, _ = compress(DGC, g, 4, SeededRng(1))
        assert set(s.indices.tolist()) == exact_topk_support(g.values, 16)


class TestRedsync:
    def test_uniform_magnitude_example(self):
        s, _ = compress(REDSYNC, GradientVector([4.0, 4.0, -4.0, 1.0]), 2)
        assert s.indices.tolist() == [0, 1]
        assert s.vals.tolist() == [4.0, 4.0]

    def test_value_substitution_sign_times_mean(self):
        s, _ = compress(REDSYNC, GradientVector([8.0, -2.0, 0.1, 0.05]), 2)
        assert s.indices.tolist() == [0, 1]
        np.testing.assert_allclose(s.vals, [5.0, -5.0])

    def test_support_size_large_k(self):
        # k beyond the [mean, max] bracket exercises the magnitude top-up
        g = random_vector(np.random.default_rng(4), 100)
        s, _ = compress(REDSYNC, g, 1.25)
        assert s.kept == 80


class TestDecompress:
    def test_small_example(self):
        s = SparseGradient(np.array([0, 3]), np.array([3.0, 2.0]), 4)
        assert decompress(s).values.tolist() == [3.0, 0.0, 0.0, 2.0]

    def test_single_entry_roundtrip(self):
        g = GradientVector([0.0, 7.0, 0.0])
        s, _ = compress(TOPK, g, 3)
        assert s.kept == 1
        assert np.array_equal(decompress(s).values, g.values)

    def test_support_matches_indices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_vector(rng, int(rng.integers(4, 300)))
            s, _ = compress(TOPK, g, float(rng.uniform(1.5, 10)))
            dense = decompress(s).values
            nonzero = set(np.flatnonzero(dense).tolist())
            # a kept value can itself be zero, so nonzero positions are a subset
            assert nonzero <= set(s.indices.tolist())
            assert np.array_equal(dense[s.indices.astype(int)], s.vals)


class TestCompressFurther:
    def test_multilevel_topk_matches_direct(self):
        rng = np.random.default_rng(6)
        n = 4000
        # distinct magnitudes by construction
        mags = np.linspace(1.0, 2.0, n)
        signs = rng.choice([-1.0, 1.0], n)
        g = GradientVector((rng.permutation(mags) * signs).astype(np.float32))
        first, _ = compress(TOPK, g, 10)
        nested, _ = compress_further(TOPK, first, 100)
        direct, _ = compress(TOPK, g, 1000)
        assert np.array_equal(nested.indices, direct.indices)
        assert np.array_equal(nested.vals, direct.vals)
        np.testing.assert_allclose(nested.original_length / nested.kept, 1000.0)

    def test_step_one_identity(self):
        # a step that keeps every entry returns its input, not a copy, and
        # charges the stage for keeping all k of k entries
        def latency(kind, n, kept):
            return 1e-6 * n + 1e-3 * kept + 0.1 * KIND_NAMES.index(kind.name)

        for kind in ALL_KINDS:
            g = random_vector(np.random.default_rng(7), 200)
            s, _ = compress(kind, g, 5, SeededRng(2))
            out, seconds = compress_further(kind, s, 1.0, SeededRng(3), latency)
            assert out is s
            assert seconds == latency(kind, s.kept, s.kept)

    def test_randomk_nested_size(self):
        g = random_vector(np.random.default_rng(8), 100_000)
        first, _ = compress(RANDOMK, g, 10, SeededRng(4))
        nested, _ = compress_further(RANDOMK, first, 100, SeededRng(5))
        assert nested.kept == (100_000 // 10) // 100

    def test_step_below_one_rejected(self):
        g = random_vector(np.random.default_rng(9), 10)
        s, _ = compress(TOPK, g, 2)
        with pytest.raises(ValueError):
            compress_further(TOPK, s, 0.5)

    def test_nan_step_rejected(self):
        s, _ = compress(TOPK, random_vector(np.random.default_rng(9), 10), 2)
        with pytest.raises(ValueError, match="step factor must be >= 1"):
            compress_further(TOPK, s, float("nan"))

    def test_indices_stay_in_original_space(self):
        g = random_vector(np.random.default_rng(10), 500)
        first, _ = compress(TOPK, g, 5)
        nested, _ = compress_further(TOPK, first, 10)
        assert nested.original_length == 500
        assert set(nested.indices.tolist()) <= set(first.indices.tolist())


class TestAggregate:
    def test_single_part_equals_decompress(self):
        g = random_vector(np.random.default_rng(12), 50)
        s, _ = compress(TOPK, g, 5)
        np.testing.assert_allclose(aggregate([s]).values, decompress(s).values)

    def test_disjoint_parts_mean(self):
        a = SparseGradient(np.array([0]), np.array([3.0]), 2)
        b = SparseGradient(np.array([1]), np.array([5.0]), 2)
        assert aggregate([a, b]).values.tolist() == [1.5, 2.5]

    def test_matches_dense_sum_oracle(self):
        rng = np.random.default_rng(13)
        parts = []
        dense_sum = np.zeros(400, dtype=np.float64)
        for seed in range(4):
            g = random_vector(rng, 400)
            s, _ = compress(RANDOMK, g, 4, SeededRng(seed))
            parts.append(s)
            dense_sum += decompress(s).values.astype(np.float64)
        np.testing.assert_allclose(aggregate(parts).values, (dense_sum / 4).astype(np.float32),
                                   rtol=1e-6, atol=1e-7)

    def test_length_mismatch_rejected(self):
        a = SparseGradient(np.array([0]), np.array([1.0]), 2)
        b = SparseGradient(np.array([0]), np.array([1.0]), 3)
        with pytest.raises(ValueError):
            aggregate([a, b])

    def test_dense_mean(self):
        parts = [GradientVector([1.0, 2.0]), GradientVector([3.0, 6.0])]
        assert aggregate_dense(parts).values.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("m", [1, REDUCE_BLOCK, 2 * REDUCE_BLOCK + 3])
    def test_blocks_give_the_bits_of_one_float64_sum(self, m):
        # entries on both sides of each block edge, and a last partial block
        rng = np.random.default_rng(m)
        dense = [random_vector(rng, m) for _ in range(3)]
        parts = [compress(RANDOMK, g, 1.5, SeededRng(w))[0] for w, g in enumerate(dense)]
        sparse_sum = np.zeros(m, dtype=np.float64)
        dense_sum = np.zeros(m, dtype=np.float64)
        for g, p in zip(dense, parts):
            sparse_sum[p.indices.astype(np.int64)] += p.vals.astype(np.float64)
            dense_sum += g.values
        assert aggregate(parts).values.tobytes() == (sparse_sum / 3).astype(np.float32).tobytes()
        assert aggregate_dense(dense).values.tobytes() == (dense_sum / 3).astype(np.float32).tobytes()


class TestSharedInvariants:
    def test_support_size_exactness_all_kinds(self):
        rng = np.random.default_rng(14)
        for i in range(200):
            kind = ALL_KINDS[i % 4]
            n = int(rng.integers(1, 800))
            g = random_vector(rng, n)
            cf = float(rng.uniform(1, max(1.0, n)))
            s, _ = compress(kind, g, cf, SeededRng(i))
            assert s.kept == keep_count(n, cf), (kind.name, n, cf)

    def test_topk_retains_most_energy(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            g = random_vector(rng, 600)
            cf = float(rng.uniform(2, 50))
            top = squared_l2_norm(compress(TOPK, g, cf)[0].vals)
            for kind in (DGC, REDSYNC, RANDOMK):
                other, _ = compress(kind, g, cf, SeededRng(trial))
                assert squared_l2_norm(other.vals) <= top + 1e-9 * top

    def test_energy_never_exceeds_input(self):
        # Redsync is excluded by contract (value substitution), though its
        # mean-magnitude rule cannot exceed either
        rng = np.random.default_rng(16)
        for trial in range(30):
            g = random_vector(rng, 300)
            total = squared_l2_norm(g.values)
            for kind in (TOPK, DGC, RANDOMK):
                s, _ = compress(kind, g, float(rng.uniform(1, 20)), SeededRng(trial))
                assert squared_l2_norm(decompress(s).values) <= total * (1 + 1e-12)

    def test_deterministic_given_seed(self):
        g = random_vector(np.random.default_rng(17), 512)
        for kind in ALL_KINDS:
            a, _ = compress(kind, g, 8, SeededRng(123))
            b, _ = compress(kind, g, 8, SeededRng(123))
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.vals, b.vals)

    def test_cf_below_one_rejected(self):
        g = GradientVector([1.0, 2.0])
        with pytest.raises(ValueError):
            compress(TOPK, g, 0.9)

    def test_nan_cf_rejected(self):
        with pytest.raises(ValueError, match="compression factor must be >= 1"):
            compress(TOPK, GradientVector([1.0, 2.0]), float("nan"))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, kind, bad):
        # a NaN has no magnitude rank: top-k of [0, nan, 3, 1] at k=2 kept one entry
        with pytest.raises(ValueError, match="non-finite"):
            compress(kind, GradientVector([0.0, bad, 3.0, 1.0]), 2.0, SeededRng(0))


class TestLatencyHook:
    def test_latency_hook_used(self):
        calls = []

        def fake_latency(kind, n_input, kept):
            calls.append((kind.name, n_input, kept))
            return 0.25

        g = GradientVector(np.arange(1, 11, dtype=np.float32))
        _, secs = compress(TOPK, g, 5, latency=fake_latency)
        assert secs == 0.25
        assert calls == [("topk", 10, 2)]


# ---- reference oracles: the Redsync pick and the two-pass exact top-k as
# they were before Redsync's selection became a single exact top-k --------

def oracle_exact_topk(mag, k):
    n = mag.size
    if k >= n:
        return np.arange(n)
    kth = np.partition(mag, n - k)[n - k]
    above = np.flatnonzero(mag > kth)
    need = k - above.size
    ties = np.flatnonzero(mag == kth)[:need]
    return np.concatenate([above, ties])


def oracle_global_topup(mag, chosen, short):
    mask = np.ones(mag.size, dtype=bool)
    mask[chosen] = False
    rest = np.flatnonzero(mask)
    return rest[oracle_exact_topk(mag[rest], short)]


def oracle_redsync_pick(mag, k, max_rounds=20):
    """Bisection threshold in [mean, max], cut to exactly k entries."""
    with np.errstate(over="ignore"):  # a float32 mean of huge magnitudes overflows to inf
        lo = float(mag.mean())
    hi = float(mag.max())
    threshold = lo
    if hi > lo and int((mag >= lo).sum()) > k:
        left, right = lo, hi
        for _ in range(max_rounds):
            mid = 0.5 * (left + right)
            count = int((mag >= mid).sum())
            if count >= k:
                left = mid
                if count == k:
                    break
            else:
                right = mid
        threshold = left
    chosen = np.flatnonzero(mag >= threshold)
    if chosen.size >= k:
        return chosen[oracle_exact_topk(mag[chosen], k)]
    return np.concatenate([chosen, oracle_global_topup(mag, chosen, k - chosen.size)])


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan])
_FLOAT32 = st.floats(width=32) | _SPECIAL
_VECTORS = st.one_of(
    st.lists(_SPECIAL, min_size=2, max_size=48),  # many ties
    st.lists(_FLOAT32, min_size=2, max_size=48),
    st.builds(lambda v, n: [v] * n, _FLOAT32, st.integers(2, 48)),  # constant
)


class TestRedsyncPickOracles:
    @settings(max_examples=300, deadline=None)
    @given(_VECTORS)
    def test_pick_is_set_equal_to_both_oracles(self, values):
        values = np.asarray(values, dtype=np.float32)
        mag = np.abs(values)
        for k in range(1, values.size):
            picked = set(_exact_topk(mag, k).tolist())
            assert picked == set(oracle_exact_topk(mag, k).tolist()), k
            assert picked == set(oracle_redsync_pick(mag, k).tolist()), k
            if not np.isnan(values).any():  # a NaN at the boundary leaves fewer than k
                with np.errstate(invalid="ignore"):  # substituted values may be 0 * inf
                    positions = _select(REDSYNC, values, k, None)[0]
                assert set(positions.tolist()) == picked, k

    def test_bisection_and_topup_paths_agree(self):
        rng = np.random.default_rng(21)
        for n in (50, 257, 1000):
            values = rng.standard_normal(n).astype(np.float32)
            values[::7] = values[0]  # boundary ties
            mag = np.abs(values)
            for k in (1, 2, n // 10, n // 3, n // 2, n - 1):
                expected = set(oracle_redsync_pick(mag, k).tolist())
                positions = _select(REDSYNC, values, k, None)[0]
                assert set(positions.tolist()) == expected, (n, k)


_FINITE32 = st.floats(-1e6, 1e6, width=32) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])


def tied_normal(seed, n, levels):
    """A seeded normal vector; ``levels`` > 0 rounds it onto a grid, which makes ties."""
    v = np.random.default_rng(seed).standard_normal(n)
    return np.round(v * levels) / levels if levels else v


_GRADIENTS = st.one_of(
    st.lists(_FINITE32, min_size=1, max_size=48),
    # above 256 entries DGC estimates its threshold from a sample
    st.builds(tied_normal, st.integers(0, 2**32 - 1), st.integers(257, 1500),
              st.sampled_from([0, 1, 4])))


def substituted(source):
    """Redsync's values for the picked ``source``: sign times the mean picked magnitude."""
    mean_mag = np.float32(np.abs(source).astype(np.float64).mean())
    return (np.sign(source) * mean_mag).astype(np.float32)


class TestDgcPositions:
    @settings(max_examples=200, deadline=None)
    @given(gradient=_GRADIENTS, data=st.data())
    def test_global_topup_equals_the_index_array_oracle(self, gradient, data):
        # the top-up ranks a copy of the magnitudes with the chosen positions
        # at -1; it once ranked an index array of the positions left
        mag = np.abs(np.asarray(gradient, dtype=np.float32))
        n = mag.size
        chosen = np.asarray(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))),
                            dtype=np.int64)
        short = data.draw(st.integers(1, n - chosen.size))
        picked = _global_topup(mag, chosen, short)
        assert np.array_equal(picked, np.sort(oracle_global_topup(mag, chosen, short)))

    @settings(max_examples=200, deadline=None)
    @given(gradient=_GRADIENTS, cf=st.floats(1.0, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_positions_ascend_and_are_the_sorted_picks(self, gradient, cf, seed):
        # only the pad and global top-up paths sort their picks: the main
        # path cuts an ascending threshold set to its ascending top k. Above
        # 256 entries and at these CFs the sampled threshold overshoots, so
        # the pad path runs, in about half the draws
        values = np.asarray(gradient, dtype=np.float32)
        n, k = values.size, keep_count(values.size, cf)
        positions = _select(DGC, values, k, SeededRng(seed))[0]
        picks = _dgc_pick(np.abs(values), k, SeededRng(seed)) if k < n else np.arange(n)
        assert positions.size == k and np.all(np.diff(positions.astype(np.int64)) > 0)
        assert np.array_equal(positions, np.sort(picks))


class TestStageProperties:
    """Both compression stages of every kind, after error feedback."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), gradient=_GRADIENTS,
           residual_seed=st.integers(0, 2**32 - 1), cf=st.floats(1.0, 2000.0),
           step=st.floats(1.0, 64.0), seed=st.integers(0, 2**32 - 1))
    def test_keep_count_format_and_feedback(self, kind, gradient, residual_seed, cf, step,
                                            seed):
        g = GradientVector(gradient)
        n = g.length
        residual = GradientVector(np.random.default_rng(residual_seed).standard_normal(n))
        g_ef = apply_feedback(g, residual)
        first, _ = compress(kind, g_ef, cf, SeededRng(seed).split(0))
        second, _ = compress_further(kind, first, step, SeededRng(seed).split(1))
        assert first.kept == keep_count(n, cf)
        assert second.kept == keep_count(first.kept, step)
        assert set(second.indices.tolist()) <= set(first.indices.tolist())

        for view in (first, second):
            idx = view.indices.astype(np.int64)
            assert view.indices.dtype == np.uint32 and view.vals.dtype == np.float32
            assert view.indices.shape == view.vals.shape == (view.kept,)
            assert np.all(np.diff(idx) > 0) and idx[-1] < n == view.original_length
            assert 0.0 < compression_gain(view, squared_l2_norm(g_ef.values)) <= 1.0

            # a copy: the residual takes over the buffer it is handed
            after = update_residual(GradientVector(g_ef.values.copy()), view,
                                    GradientVector(np.zeros(n)))
            unsent = np.ones(n, dtype=bool)
            unsent[idx] = False
            assert np.array_equal(after.values[unsent], g_ef.values[unsent])
            if kind is REDSYNC:
                # the residual keeps exactly the substitution error; both
                # stages substitute the mean of the picked entries' own
                # magnitudes, and keeping every entry is a passthrough
                source = g_ef.values[idx]
                expected = source if view.kept == n else substituted(source)
                assert np.array_equal(view.vals, expected)
                assert np.array_equal(after.values[idx], g_ef.values[idx] - view.vals)
            else:
                # sent values are the gradient's own, so nothing is lost
                assert np.array_equal(view.vals, g_ef.values[idx])
                assert not after.values[idx].any()
                assert np.array_equal(decompress(view).values + after.values, g_ef.values)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from((TOPK, REDSYNC)), gradient=_GRADIENTS,
           cf=st.floats(1.0, 2000.0), step=st.floats(1.0, 64.0))
    def test_second_stage_equals_direct_compress(self, kind, gradient, cf, step):
        # Redsync's second stage once ranked the substituted values, which
        # all have one magnitude, and so kept the lowest-index entries
        g = GradientVector(gradient)
        n = g.length
        first, _ = compress(kind, g, cf)
        second, _ = compress_further(kind, first, step)
        k2 = second.kept
        direct, _ = compress(kind, g, n / (k2 + 0.5) if k2 < n else 1.0)
        assert direct.kept == k2
        assert direct.indices.tobytes() == second.indices.tobytes()
        assert direct.vals.tobytes() == second.vals.tobytes()


# ---- the bounded exact top-k: from TOPK_BOUND_MIN entries on, a strided
# sample bounds the k-th magnitude and only the entries above it are
# partitioned --------------------------------------------------------------

@st.composite
def large_values(draw):
    """Signed values of TOPK_BOUND_MIN to 2 * TOPK_BOUND_MIN entries (a tied
    normal, a constant or zeros, with drawn signs, so -0.0 too) with
    infinities and -1 at drawn positions, and the positions that the
    top-up's magnitudes mark with -1: some drawn ones, and perhaps a run,
    as a top-up marks its chosen block."""
    n = draw(st.integers(TOPK_BOUND_MIN, 2 * TOPK_BOUND_MIN))
    base = draw(st.sampled_from(["normal", "constant", "zeros"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if base == "normal":
        values = tied_normal(seed, n, draw(st.sampled_from([0, 1, 4])))
    else:
        values = np.full(n, draw(_FINITE32) if base == "constant" else 0.0)
    values = np.copysign(values, np.random.default_rng(seed).choice([-1.0, 1.0], n))
    values = values.astype(np.float32)
    positions = st.integers(0, n - 1)
    for at, value in draw(st.lists(st.tuples(positions, st.sampled_from([np.inf, -np.inf, -1.0])),
                                   max_size=64)):
        values[at] = value
    marked = np.zeros(n, dtype=bool)
    marked[draw(st.lists(positions, max_size=64))] = True
    if draw(st.booleans()):
        start = draw(positions)
        marked[start:start + draw(st.integers(1, n))] = True
    return values, marked


def partition_sizes(monkeypatch):
    """Entries seen by each later np.partition call, in call order."""
    sizes = []
    partition = np.partition

    def spy(a, kth, *args, **kwargs):
        sizes.append(np.asarray(a).size)
        return partition(a, kth, *args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    return sizes


class TestBoundedTopk:
    @settings(max_examples=60, deadline=None)
    @given(large_values(), st.data())
    def test_equals_the_full_partition_oracle(self, drawn, data):
        # signed values are ranked by |v| and their candidates found as
        # (v >= lo) | (v <= -lo); entries exactly at +-lo, off the sampled
        # stride, must be candidates. Magnitudes, as DGC and its top-up
        # pass them, never pick a position marked -1
        values, marked = drawn
        n = values.size
        off_stride = st.integers(0, n - 1).filter(lambda p: p % TOPK_BOUND_STRIDE)
        at_bound = data.draw(st.lists(off_stride, min_size=2, max_size=16))
        for k in (1, 2, n // 1000, n // 10, n // 2, n - 1):
            v = values.copy()
            lo = _sample_bound(v, k, signed=True)
            if lo is not None:
                v[at_bound] = np.where(np.arange(len(at_bound)) % 2, lo, -lo)
                if k == n // 10:  # the candidate path runs
                    assert np.count_nonzero(np.abs(v) >= lo) >= k
            else:
                assert k == n - 1
            picked = _exact_topk(v, k, signed=True)
            assert np.array_equal(picked, np.sort(oracle_exact_topk(np.abs(v), k))), k
            mag = np.abs(v)
            mag[marked] = -1.0
            picked = _exact_topk(mag, k)
            assert np.array_equal(picked, np.sort(oracle_exact_topk(mag, k))), k

    def test_falls_back_when_the_bound_keeps_fewer_than_k(self, monkeypatch):
        # the large magnitudes sit exactly on the sampled positions, so the
        # bound is 2 and only n / 32 entries reach it
        n = 1 << 17
        mag = np.ones(n, dtype=np.float32)
        mag[::32] = 2
        k = n // 20
        expected = np.sort(oracle_exact_topk(mag, k))
        sizes = partition_sizes(monkeypatch)
        assert np.array_equal(_exact_topk(mag, k), expected)
        assert sizes[-1] == n

    @pytest.mark.parametrize("kind", [TOPK, REDSYNC])
    @pytest.mark.parametrize("cf,largest", [(10, 10**6 // 8), (1000, 10**6 // 16)])
    def test_no_partition_sees_the_whole_vector(self, monkeypatch, kind, cf, largest):
        # at CF 10 the candidates alone hold more than k = n / 10 entries
        g = random_vector(np.random.default_rng(13), 10**6)
        sizes = partition_sizes(monkeypatch)
        compress(kind, g, cf)
        assert sizes and max(sizes) <= largest
