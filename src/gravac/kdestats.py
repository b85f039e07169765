"""CF-usage density estimation and summary counts.

The per-iteration compression factors of a run are summarized two ways: an
exact CF -> iteration-count histogram, which every run's ``summary.json``
holds, and a Gaussian kernel density over log10(CF) with a fixed raw
bandwidth (no Scott/Silverman scaling), which ``gravac kde`` computes from a
trace on request.
"""

from __future__ import annotations

import math

import numpy as np


def _check_bandwidth(bandwidth: float) -> None:
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {bandwidth}")


def gaussian_kde(samples, bandwidth: float, grid) -> np.ndarray:
    """Fixed-bandwidth Gaussian KDE evaluated on ``grid``.

    f(x) = (1 / (n*h*sqrt(2*pi))) * sum_i exp(-(x - s_i)^2 / (2*h^2))
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("KDE needs at least one sample")
    _check_bandwidth(bandwidth)
    grid = np.asarray(grid, dtype=np.float64)
    z = (grid[:, None] - samples[None, :]) / bandwidth
    kernel = np.exp(-0.5 * z * z)
    return kernel.sum(axis=1) / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))


def default_grid(samples, bandwidth: float, num: int = 512,
                 low: float | None = None) -> np.ndarray:
    """Evaluation grid over the sample range, extended down to ``low`` when
    given, and padded by five bandwidths on each side."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("grid needs at least one sample")
    _check_bandwidth(bandwidth)
    pad = 5.0 * bandwidth
    lo = (samples.min() if low is None else min(low, samples.min())) - pad
    hi = samples.max() + pad
    return np.linspace(lo, hi, num)


def cf_usage_samples(trace) -> np.ndarray:
    """log10 of the CF used at each iteration of a trace."""
    cfs = trace.column("cf")
    if len(cfs) == 0:
        raise ValueError("empty trace")
    return np.log10(cfs)


def cf_histogram(trace) -> dict[float, int]:
    """Iteration counts per CF; values sum to the trace length."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    counts: dict[float, int] = {}
    for record in trace:
        cf = float(record.cf)
        counts[cf] = counts.get(cf, 0) + 1
    return dict(sorted(counts.items()))
