"""CF-usage density estimation and summary counts.

The per-iteration compression factors of a run are summarized two ways: an
exact CF -> iteration-count histogram, which every run's ``summary.json``
holds, and a Gaussian kernel density over log10(CF) at the fixed raw
bandwidth ``KDE_BANDWIDTH`` (no Scott/Silverman scaling), which ``kde_csv``
computes from a trace on request, as ``gravac kde`` does.
"""

from __future__ import annotations

import math

import numpy as np

from .gradcore import REDUCE_BLOCK

KDE_BANDWIDTH = 0.1


def gaussian_kde(samples, grid) -> np.ndarray:
    """Gaussian KDE at bandwidth h = ``KDE_BANDWIDTH`` evaluated on ``grid``.

    f(x) = (1 / (n*h*sqrt(2*pi))) * sum_i exp(-(x - s_i)^2 / (2*h^2))

    The sum runs over the distinct samples, each kernel weighted by its
    count, about ``gradcore.REDUCE_BLOCK`` kernel entries at a time, so
    memory does not grow with the trace length.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("KDE needs at least one sample")
    grid = np.asarray(grid, dtype=np.float64)
    values, counts = np.unique(samples, return_counts=True)
    step = max(1, REDUCE_BLOCK // max(1, grid.size))
    density = np.zeros(grid.shape)
    for start in range(0, values.size, step):
        z = np.subtract.outer(grid, values[start:start + step]) / KDE_BANDWIDTH
        density += (np.exp(-0.5 * z * z) * counts[start:start + step]).sum(axis=1)
    return density / (samples.size * KDE_BANDWIDTH * math.sqrt(2.0 * math.pi))


def default_grid(samples) -> np.ndarray:
    """512 evaluation points over the sample range, extended down to log10(1)
    = 0, and padded by five bandwidths on each side."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("grid needs at least one sample")
    pad = 5.0 * KDE_BANDWIDTH
    return np.linspace(min(0.0, samples.min()) - pad, samples.max() + pad, 512)


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


def kde_csv(trace) -> str:
    """The CF-usage density of a trace as ``log10_cf,density`` CSV text."""
    samples = cf_usage_samples(trace)
    grid = default_grid(samples)
    density = gaussian_kde(samples, grid)
    rows = "".join(f"{float(x)!r},{float(f)!r}\n" for x, f in zip(grid, density))
    return "log10_cf,density\n" + rows
