import numpy as np
import pytest

from gravac.compressors import CompressorKind, SparseGradient, compress, decompress
from gravac.gradcore import GradientVector, SeededRng, squared_l2_norm
from gravac.metrics import GainTracker, compression_gain

TOPK = CompressorKind("topk")
RANDOMK = CompressorKind("randomk")


class TestCompressionGain:
    def test_full_send_is_exactly_one(self):
        g = GradientVector(np.random.default_rng(0).standard_normal(100).astype(np.float32))
        s, _ = compress(TOPK, g, 1)
        assert compression_gain(s, squared_l2_norm(g.values)) == 1.0

    def test_small_example(self):
        g = GradientVector([3.0, 4.0])
        s = SparseGradient(np.array([1]), np.array([4.0]), 2)
        assert compression_gain(s, squared_l2_norm(g.values)) == pytest.approx(16.0 / 25.0)

    def test_topk_beats_randomk_at_same_cf(self):
        values = SeededRng(42).generator.standard_normal(100_000).astype(np.float32)
        g = GradientVector(values)
        top, _ = compress(TOPK, g, 10)
        rnd, _ = compress(RANDOMK, g, 10, SeededRng(9))
        # dense norm-ratio oracle for both routes
        denom = squared_l2_norm(g.values)
        gain_top = squared_l2_norm(decompress(top).values) / denom
        gain_rnd = squared_l2_norm(decompress(rnd).values) / denom
        assert gain_top > gain_rnd
        assert compression_gain(top, denom) == pytest.approx(gain_top, rel=1e-12)
        assert compression_gain(rnd, denom) == pytest.approx(gain_rnd, rel=1e-12)

    def test_zero_norm_reference_errors(self):
        g = GradientVector(np.zeros(4, dtype=np.float32))
        s = SparseGradient(np.array([0]), np.array([0.0]), 4)
        with pytest.raises(ValueError):
            compression_gain(s, squared_l2_norm(g.values))

    def test_monotone_in_cf_for_topk(self):
        g = GradientVector(SeededRng(3).generator.standard_normal(5000).astype(np.float32))
        gains = [compression_gain(compress(TOPK, g, cf)[0], squared_l2_norm(g.values))
                 for cf in (1, 2, 5, 10, 50, 200, 1000)]
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    def test_scale_invariance_for_topk(self):
        g = GradientVector(SeededRng(4).generator.standard_normal(400).astype(np.float32))
        scaled = GradientVector(g.values * 7.5)
        gain_a = compression_gain(compress(TOPK, g, 8)[0], squared_l2_norm(g.values))
        gain_b = compression_gain(compress(TOPK, scaled, 8)[0], squared_l2_norm(scaled.values))
        np.testing.assert_allclose(gain_a, gain_b, rtol=1e-6)

    def test_raw_ratio_unclamped(self):
        # a norm ratio of 4 is clamped to 1
        g = GradientVector([1.0, 1.0])
        s = SparseGradient(np.array([0, 1]), np.array([2.0, 2.0]), 2)
        assert compression_gain(s, squared_l2_norm(g.values)) == 1.0


class TestGainTracker:
    def test_dense_cf_pinned_to_one(self):
        tracker = GainTracker(0.5)
        assert tracker.observe(1.0, 0.3) == 1.0
        assert tracker.get(1.0) == 1.0

    def test_per_cf_streams_are_independent(self):
        tracker = GainTracker(0.5)
        tracker.observe(10.0, 0.8)
        tracker.observe(20.0, 0.4)
        tracker.observe(10.0, 0.6)
        assert tracker.get(10.0) == pytest.approx(0.7)
        assert tracker.get(20.0) == pytest.approx(0.4)

    def test_values_stay_in_unit_interval(self):
        tracker = GainTracker(0.25)
        for raw in (0.5, 3.0, 0.9, 1.7):
            tracker.observe(10.0, raw)
        assert 0.0 < tracker.get(10.0) <= 1.0

    def test_nan_observation_rejected_and_not_stored(self):
        # min(1.0, nan) is 1.0, so a clamp before the finiteness check hides NaN
        tracker = GainTracker(0.5)
        with pytest.raises(ValueError, match="non-finite"):
            tracker.observe(10.0, float("nan"))
        assert tracker.get(10.0) is None
        tracker.observe(10.0, 0.4)
        with pytest.raises(ValueError, match="non-finite"):
            tracker.observe(10.0, float("nan"))
        assert tracker.get(10.0) == 0.4

