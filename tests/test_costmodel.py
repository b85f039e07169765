import math

import numpy as np
import pytest

from gravac.compressors import (KIND_NAMES, LATENCY_COEFFS, CompressorKind, keep_count,
                                latency_seconds)
from gravac.costmodel import RING, TREE, CostModelParams, allreduce_time


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


def hand_latency(name, n_input, kept):
    """The per-kind latency formula written out over the table's row."""
    base, per_input, per_sel = LATENCY_COEFFS[name]
    return base + per_input * n_input + per_sel * kept * math.log2(max(kept, 2))


class TestCompressionLatency:
    def test_formula(self):
        expected = {"topk": 5e-6 + 2e-9 * 10_000 + 2e-9 * 100 * math.log2(100),
                    "dgc": 5e-6 + 1e-9 * 10_000 + 1e-9 * 100 * math.log2(100),
                    "redsync": 5e-6 + 1.5e-9 * 10_000,
                    "randomk": 2e-6 + 1e-10 * 10_000 + 5e-10 * 100 * math.log2(100)}
        for name in KIND_NAMES:
            seconds = latency_seconds(CompressorKind(name), 10_000, 100)
            assert seconds == hand_latency(name, 10_000, 100)
            np.testing.assert_allclose(seconds, expected[name], rtol=1e-12)

    def test_k_of_one_uses_log_floor(self):
        # log2(max(1, 2)) keeps the term finite at k=1
        for name in KIND_NAMES:
            assert math.isfinite(latency_seconds(CompressorKind(name), 10, 1))

    def test_multilevel_cheaper_than_direct_twice(self):
        """Second-stage compression on the already-reduced tensor beats
        re-compressing the full vector, for every kind's row and every
        (n, k1, k2) of the grid."""
        for name in KIND_NAMES:
            kind = CompressorKind(name)
            for n in (1_000, 100_000, 10**6):
                for k1 in (keep_count(n, cf) for cf in (2, 10, 100)):
                    for k2 in (keep_count(k1, step) for step in (1, 2, 10, 100)):
                        direct = latency_seconds(kind, n, k1) + latency_seconds(kind, n, k2)
                        multilevel = (latency_seconds(kind, n, k1)
                                      + latency_seconds(kind, k1, k2))
                        assert multilevel < direct, (name, n, k1, k2)

    def test_every_row_finite_and_non_negative(self):
        for name, row in LATENCY_COEFFS.items():
            assert all(0 <= c < math.inf for c in row), name


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
