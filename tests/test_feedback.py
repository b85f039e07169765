import numpy as np
import pytest

from gravac.compressors import CompressorKind, compress, decompress
from gravac.feedback import apply_feedback, clear_residual, update_residual, zero_residual
from gravac.gradcore import GradientVector, SeededRng

TOPK = CompressorKind("topk")


class TestApplyFeedback:
    def test_zero_residual_identity(self):
        g = GradientVector([1.0, -2.0, 3.0])
        out = apply_feedback(g, GradientVector(np.zeros(3)))
        assert np.array_equal(out.values, g.values)

    def test_small_example(self):
        store = GradientVector(np.zeros(2))
        store.values[:] = [0.5, -1.0]
        out = apply_feedback(GradientVector([1.0, 1.0]), store)
        assert out.values.tolist() == [1.5, 0.0]

    def test_matches_elementwise_addition_oracle(self):
        rng = np.random.default_rng(0)
        g = GradientVector(rng.standard_normal(200).astype(np.float32))
        store = GradientVector(np.zeros(200))
        store.values = rng.standard_normal(200).astype(np.float32)
        expected = g.values + store.values
        assert np.array_equal(apply_feedback(g, store).values, expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_feedback(GradientVector([1.0, 2.0]), GradientVector(np.zeros(3)))


class TestUpdateResidual:
    def test_full_support_leaves_zero(self):
        g = GradientVector([1.0, 2.0, 3.0])
        sent, _ = compress(TOPK, g, 1)
        store = update_residual(g, sent, GradientVector(np.zeros(3)))
        assert not store.values.any()

    def test_partial_send(self):
        g = GradientVector([3.0, 2.0, 1.0])
        sent, _ = compress(TOPK, g, 3)  # keeps index 0 only
        store = update_residual(g, sent, GradientVector(np.zeros(3)))
        assert store.values.tolist() == [0.0, 2.0, 1.0]

    def test_matches_dense_subtraction_oracle(self):
        rng = np.random.default_rng(1)
        g = GradientVector(rng.standard_normal(500).astype(np.float32))
        sent, _ = compress(TOPK, g, 7)
        expected = g.values - decompress(sent).values  # before g's buffer is taken over
        store = update_residual(g, sent, GradientVector(np.zeros(500)))
        assert np.array_equal(store.values, expected)

    def test_sent_positions_not_in_residual_support(self):
        rng = np.random.default_rng(2)
        g = GradientVector(rng.standard_normal(300).astype(np.float32))
        sent, _ = compress(TOPK, g, 5)
        store = update_residual(g, sent, GradientVector(np.zeros(300)))
        assert not store.values[sent.indices.astype(int)].any()

    def test_length_mismatch_rejected(self):
        g = GradientVector([1.0, 2.0, 3.0])
        sent, _ = compress(TOPK, g, 3)
        with pytest.raises(ValueError):
            update_residual(g, sent, GradientVector(np.zeros(5)))

    def test_value_substitution_error_stays_in_residual(self):
        # redsync sends sign*mean values; the substitution error must remain
        # behind so mass is conserved
        g = GradientVector([8.0, -2.0, 0.1, 0.05])
        raw = g.values.copy()  # update_residual takes g's buffer over
        sent, _ = compress(CompressorKind("redsync"), g, 2)
        store = update_residual(g, sent, GradientVector(np.zeros(4)))
        np.testing.assert_allclose(store.values, [3.0, 3.0, 0.1, 0.05])
        np.testing.assert_allclose(decompress(sent).values + store.values, raw)


class TestClearResidual:
    def test_zeroes_state(self):
        store = GradientVector(np.zeros(4))
        store.values[:] = 1.0
        assert not clear_residual(store).values.any()

    def test_idempotent(self):
        store = GradientVector(np.zeros(4))
        store.values[:] = 2.0
        clear_residual(store)
        before = store.values.copy()
        clear_residual(store)
        assert np.array_equal(store.values, before)

    def test_feedback_identity_after_clear(self):
        store = GradientVector(np.zeros(3))
        store.values[:] = [1.0, 2.0, 3.0]
        clear_residual(store)
        g = GradientVector([4.0, 5.0, 6.0])
        assert np.array_equal(apply_feedback(g, store).values, g.values)


class TestConservation:
    def test_send_plus_residual_equals_raw_sum(self):
        """Over any feedback run, sent mass plus the final residual equals the
        raw gradient mass (no dense fallback)."""
        rng = np.random.default_rng(3)
        n = 256
        store = GradientVector(np.zeros(n))
        raw_sum = np.zeros(n, dtype=np.float64)
        sent_sum = np.zeros(n, dtype=np.float64)
        for i in range(200):
            g_raw = GradientVector(rng.standard_normal(n).astype(np.float32))
            raw_sum += g_raw.values
            g_ef = apply_feedback(g_raw, store)
            sent, _ = compress(TOPK, g_ef, 8, SeededRng(i))
            sent_sum += decompress(sent).values
            update_residual(g_ef, sent, store)
        lhs = sent_sum + store.values
        err = np.max(np.abs(lhs - raw_sum)) / np.max(np.abs(raw_sum))
        assert err <= 1e-4


class TestZeroResidual:
    """A zero residual is a read-only stride-0 view: it holds no memory."""

    def test_fresh_and_cleared_residuals_own_no_buffer(self):
        fresh = zero_residual(1000)
        cleared = clear_residual(GradientVector(np.ones(1000)))
        for store in (fresh, cleared):
            assert store.values.strides == (0,) and store.length == 1000
            assert store.values.dtype == np.float32 and not store.values.any()
            assert not store.values.flags.writeable

    def test_feedback_on_zero_residual_is_the_raw_gradient(self):
        g = GradientVector([1.0, -0.0, 3.0])
        assert apply_feedback(g, zero_residual(3)) is g
        assert apply_feedback(g, clear_residual(GradientVector([5.0, 6.0, 7.0]))) is g

    def test_stride_zero_nonzero_residual_is_added(self):
        g = GradientVector([1.0, 2.0])
        ones = GradientVector(np.broadcast_to(np.float32(1), (2,)))
        assert not ones.values.flags.writeable
        assert apply_feedback(g, ones).values.tolist() == [2.0, 3.0]
        assert ones.values.strides == (0,) and not ones.values.any()

    def test_compressed_send_after_clear_leaves_writable_residual(self):
        rng = np.random.default_rng(4)
        store = clear_residual(GradientVector(rng.standard_normal(300)))
        g = GradientVector(rng.standard_normal(300).astype(np.float32))
        g_ef = apply_feedback(g, store)
        sent, _ = compress(TOPK, g_ef, 6)
        # a copy: the residual takes over the buffer it is handed
        update_residual(GradientVector(g_ef.values.copy()), sent, store)
        assert store.values.flags.writeable and store.values.strides == (4,)
        assert np.array_equal(store.values, g.values - decompress(sent).values)
        assert not np.shares_memory(store.values, g.values)
        store.values[0] += 1.0  # the residual is its own array, not the gradient
        assert np.array_equal(g_ef.values, g.values)


class TestBufferOwnership:
    """Each worker's one buffer passes between gradient and residual."""

    def test_feedback_folds_the_residual_into_the_gradient(self):
        rng = np.random.default_rng(5)
        g = GradientVector(rng.standard_normal(64).astype(np.float32))
        store = GradientVector(rng.standard_normal(64).astype(np.float32))
        buffer = g.values
        expected = g.values + store.values
        out = apply_feedback(g, store)
        assert out is g and out.values is buffer
        assert np.array_equal(out.values, expected)
        # the residual's mass now lives in g: it is the read-only zero view
        assert store.values.strides == (0,) and not store.values.flags.writeable
        assert store.length == 64 and not store.values.any()

    def test_residual_takes_over_the_gradient_buffer(self):
        rng = np.random.default_rng(6)
        g_ef = GradientVector(rng.standard_normal(300).astype(np.float32))
        sent, _ = compress(TOPK, g_ef, 5)
        expected = g_ef.values - decompress(sent).values
        store = update_residual(g_ef, sent, zero_residual(300))
        assert store.values is g_ef.values
        assert store.values.flags.writeable and np.array_equal(store.values, expected)
