"""Compression gain and throughput bookkeeping.

Compression gain is the squared-norm ratio of a compressed gradient to the
error-feedback-adjusted gradient it came from: close to 1 when the kept
entries carry nearly all the energy, small when compression trimmed too
much. Combined with system throughput (samples/second) it yields the single
scalar the controller maximizes: compression throughput.
"""

from __future__ import annotations

import math

from .compressors import SparseGradient
from .gradcore import squared_l2_norm


def compression_gain(g_c: SparseGradient, ef_norm_sq: float) -> float:
    """Norm ratio ||g_c||^2 / ||g_ef||^2 clamped to at most 1.

    ``ef_norm_sq`` is the squared norm of the error-feedback gradient g_c
    came from. A zero-norm reference signals a vanished gradient and is an
    error; callers treat that iteration as a dense no-op.
    """
    if not ef_norm_sq > 0.0:
        raise ValueError("zero-norm reference gradient: compression gain undefined")
    return min(1.0, squared_l2_norm(g_c.vals) / ef_norm_sq)


class GainTracker:
    """Per-CF EWMA of compression gains: s <- lam*x + (1-lam)*s.

    Each compression factor keeps its own smoothed gain so the minimum and
    candidate CFs can be compared concurrently; a CF's first observation is
    assigned directly. CF 1 (dense) is pinned to a constant gain of 1.0.
    """

    def __init__(self, lam: float):
        if not (0.0 < lam <= 1.0):
            raise ValueError(f"smoothing factor must be in (0, 1], got {lam}")
        self.lam = float(lam)
        self._smoothed: dict[float, float] = {}

    def observe(self, cf: float, raw_gain: float) -> float:
        cf = float(cf)
        if cf == 1.0:
            return 1.0
        x = float(raw_gain)
        if not math.isfinite(x):
            raise ValueError(f"non-finite gain observation: {x}")
        x = min(1.0, x)
        s = self._smoothed.get(cf)
        self._smoothed[cf] = x if s is None else self.lam * x + (1.0 - self.lam) * s
        return self._smoothed[cf]

    def get(self, cf: float) -> float | None:
        """The smoothed gain of ``cf``; None before its first observation."""
        cf = float(cf)
        return 1.0 if cf == 1.0 else self._smoothed.get(cf)


class ThroughputTable:
    """Latest system and compression throughput per CF (overwrite on update)."""

    def __init__(self):
        self.t_sys: dict[float, float] = {}
        self.t_compress: dict[float, float] = {}

    def top_two(self):
        """The two largest compression-throughput entries as ((cf, v), (cf, v)).

        Sorted by value descending; equal values order by CF descending so
        the second (the one the saturation rule picks) is the lower CF.
        Returns None with fewer than two entries.
        """
        if len(self.t_compress) < 2:
            return None
        ranked = sorted(self.t_compress.items(), key=lambda kv: (-kv[1], -kv[0]))
        return ranked[0], ranked[1]


def update_step(table: ThroughputTable, cf: float, gain: float, t_iter: float,
                workers: int, batch_size: int) -> ThroughputTable:
    """Record system throughput N*b/t_iter and compression throughput for cf."""
    if t_iter <= 0.0 or not math.isfinite(t_iter):
        raise ValueError(f"iteration time must be positive, got {t_iter}")
    if not (0.0 < gain <= 1.0):
        raise ValueError(f"gain must be in (0, 1], got {gain}")
    if cf < 1.0:
        raise ValueError(f"compression factor must be >= 1, got {cf}")
    t_sys = workers * batch_size / t_iter
    cf = float(cf)
    table.t_sys[cf] = t_sys
    table.t_compress[cf] = t_sys * gain
    return table

