import math

import numpy as np
import pytest

from gravac.costmodel import CostModelParams
from gravac.kdestats import cf_histogram, cf_usage_samples, default_grid, gaussian_kde
from gravac.simworkers import IterationRecord, OptimizerState, RunTrace, run_training
from gravac.tasks import QuadraticBowl


def make_trace(cfs):
    trace = RunTrace()
    for i, cf in enumerate(cfs, start=1):
        trace.append(IterationRecord(iter=i, cf=float(cf), gain_min=1.0, gain_c=1.0,
                                     t_o=0.1, t_compress=0.0, t_s=0.1, t_iter=0.2,
                                     tsys=1.0, tcomp=1.0, loss=1.0,
                                     floats_sent=1, words_sent=2,
                                     choice="static", theta_min=float(cf)))
    return trace


class TestGaussianKde:
    def test_kernel_peak_at_single_sample(self):
        h = 0.1
        density = gaussian_kde([2.0], h, [2.0])
        np.testing.assert_allclose(density[0], 1.0 / (h * math.sqrt(2 * math.pi)),
                                   rtol=1e-12)
        assert density[0] == pytest.approx(3.989, abs=1e-3)

    def test_mass_integrates_to_one(self):
        samples = np.random.default_rng(0).uniform(0, 3, size=200)
        h = 0.1
        grid = default_grid(samples, h, num=2000)
        density = gaussian_kde(samples, h, grid)
        mass = np.trapezoid(density, grid)
        assert abs(mass - 1.0) <= 1e-3

    def test_two_clusters_are_symmetric(self):
        samples = [0.0, 0.0, 1.0, 1.0]
        h = 0.1
        left, mid, right = gaussian_kde(samples, h, [0.25, 0.5, 0.75])
        np.testing.assert_allclose(left, right, rtol=1e-12)
        assert mid < left

    def test_density_nonnegative(self):
        samples = np.random.default_rng(1).normal(size=50)
        grid = default_grid(samples, 0.1)
        assert np.all(gaussian_kde(samples, 0.1, grid) >= 0.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kde([], 0.1, [0.0])

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kde([1.0], 0.0, [0.0])


class TestCfUsage:
    def test_log10_samples(self):
        trace = make_trace([1.0, 10.0, 100.0])
        np.testing.assert_allclose(cf_usage_samples(trace), [0.0, 1.0, 2.0])

    def test_dense_run_histogram(self):
        task = QuadraticBowl(size=16)
        opt = OptimizerState(weights=np.zeros(16), lr=0.05)
        result = run_training(task, opt, CostModelParams(workers=2), "dense", 12, seed=0)
        assert cf_histogram(result.trace) == {1.0: 12}

    def test_alternating_cfs_split_evenly(self):
        trace = make_trace([10.0, 40.0] * 25)
        assert cf_histogram(trace) == {10.0: 25, 40.0: 25}

    def test_counts_sum_to_iterations(self):
        rng = np.random.default_rng(2)
        cfs = rng.choice([1.0, 10.0, 20.0, 160.0], size=333)
        counts = cf_histogram(make_trace(cfs))
        assert sum(counts.values()) == 333
        # replay oracle: recount directly from the cf column
        for cf, count in counts.items():
            assert count == int(np.sum(cfs == cf))

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            cf_histogram(RunTrace())
