import math

import numpy as np
import pytest

from gravac.compressors import CompressorKind, SparseGradient
from gravac.costmodel import (DEFAULT_LATENCY_COEFFS, RING, TREE, CostModelParams,
                              LatencyCoeffs, allreduce_time, dense_message_words,
                              sparse_message_words)


def hand_allreduce(words, alpha, beta, workers, topology):
    """Formula oracle written out independently of the implementation."""
    if workers == 1:
        return 0.0
    if topology == TREE:
        return 2 * alpha * math.log2(workers) + 2 * words * math.log2(workers) * beta
    return 2 * (workers - 1) * alpha + 2 * words * beta * (workers - 1) / workers


class TestAllreduceTime:
    def test_single_worker_free(self):
        p = CostModelParams(alpha=1e-4, beta=1e-9, workers=1)
        assert allreduce_time(10_000, p) == 0.0

    def test_ring_example(self):
        p = CostModelParams(alpha=0.0, beta=1e-9, workers=4, topology=RING)
        np.testing.assert_allclose(allreduce_time(10**6, p), 1.5e-3, rtol=1e-12)

    def test_tree_example(self):
        p = CostModelParams(alpha=1e-4, beta=0.0, workers=8, topology=TREE)
        np.testing.assert_allclose(allreduce_time(123, p), 6e-4, rtol=1e-12)

    def test_matches_hand_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha = float(rng.uniform(0, 1e-3))
            beta = float(rng.uniform(0, 1e-7))
            workers = int(rng.integers(2, 64))
            words = int(rng.integers(1, 10**7))
            topology = RING if rng.integers(2) else TREE
            p = CostModelParams(alpha=alpha, beta=beta, workers=workers, topology=topology)
            np.testing.assert_allclose(allreduce_time(words, p),
                                       hand_allreduce(words, alpha, beta, workers, topology),
                                       rtol=1e-12)

    def test_monotone_in_every_parameter(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            alpha = float(rng.uniform(1e-6, 1e-3))
            beta = float(rng.uniform(1e-10, 1e-7))
            workers = int(rng.integers(2, 32))
            words = int(rng.integers(1, 10**6))
            for topology in (RING, TREE):
                base = allreduce_time(words, CostModelParams(alpha=alpha, beta=beta,
                                                             workers=workers, topology=topology))
                assert allreduce_time(words * 2, CostModelParams(
                    alpha=alpha, beta=beta, workers=workers, topology=topology)) >= base
                assert allreduce_time(words, CostModelParams(
                    alpha=alpha * 2, beta=beta, workers=workers, topology=topology)) >= base
                assert allreduce_time(words, CostModelParams(
                    alpha=alpha, beta=beta * 2, workers=workers, topology=topology)) >= base
                assert allreduce_time(words, CostModelParams(
                    alpha=alpha, beta=beta, workers=workers + 1, topology=topology)) >= base

    def test_rejects_empty_message(self):
        with pytest.raises(ValueError):
            allreduce_time(0, CostModelParams(workers=2))


class TestMessageWords:
    def test_sparse_counts_index_and_value(self):
        s = SparseGradient(np.arange(100), np.ones(100, dtype=np.float32), 1000)
        assert sparse_message_words(s) == 200

    def test_dense_counts_every_entry(self):
        assert dense_message_words(10**6) == 10**6

    def test_volume_ratio_versus_dense(self):
        # cf=10 on a million entries: 200k words on the wire, 5x by the word
        # counter and 10x by the value-float counter
        s = SparseGradient(np.arange(100_000), np.ones(100_000, dtype=np.float32),
                           10**6)
        words = sparse_message_words(s)
        assert words == 200_000
        assert dense_message_words(10**6) / words == 5.0
        assert dense_message_words(10**6) / s.kept == 10.0


class TestCompressionLatency:
    def test_formula(self):
        expected = 1e-6 + 1e-9 * 10_000 + 2e-9 * 100 * math.log2(100)
        np.testing.assert_allclose(LatencyCoeffs(1e-6, 1e-9, 2e-9).seconds(10_000, 100),
                                   expected, rtol=1e-12)
        p = CostModelParams()
        for name, c in DEFAULT_LATENCY_COEFFS.items():
            expected = c.base + c.per_input * 10_000 + c.per_selected_log * 100 * math.log2(100)
            np.testing.assert_allclose(p.compression_latency(CompressorKind(name), 10_000, 100),
                                       expected, rtol=1e-12)

    def test_k_of_one_uses_log_floor(self):
        p = CostModelParams()
        # log2(max(1, 2)) keeps the term finite at k=1
        assert math.isfinite(p.compression_latency(CompressorKind("topk"), 10, 1))

    def test_multilevel_cheaper_than_direct_twice(self):
        """Second-stage compression on the already-reduced tensor beats
        re-compressing the full vector, for every coefficient grid point with
        a positive per-input cost."""
        n, k1, k2 = 100_000, 10_000, 100
        for base in (0.0, 1e-6):
            for per_input in (1e-10, 1e-9, 1e-8):
                for per_sel in (0.0, 1e-9):
                    c = LatencyCoeffs(base, per_input, per_sel)
                    direct = c.seconds(n, k1) + c.seconds(n, k2)
                    multilevel = c.seconds(n, k1) + c.seconds(k1, k2)
                    assert multilevel < direct

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            LatencyCoeffs(-1e-6, 0, 0)

    @pytest.mark.parametrize("coeffs", [(math.nan, 0, 0), (0, math.nan, 0), (0, 0, math.nan)])
    def test_nan_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError):
            LatencyCoeffs(*coeffs)


class TestParamsValidation:
    def test_bad_topology(self):
        with pytest.raises(ValueError):
            CostModelParams(topology="mesh")

    @pytest.mark.parametrize("name", ["alpha", "beta", "t_compute"])
    def test_nan_time_parameter_rejected(self, name):
        with pytest.raises(ValueError):
            CostModelParams(**{name: math.nan})

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            CostModelParams(workers=0)
