"""Sparsifying gradient compressors behind one (indices, values) format.

Four selection rules share the interface: top-k by magnitude, random-k,
sample-estimated threshold (DGC-style) and Redsync-style top-k with
mean-magnitude value substitution. Redsync's bisection threshold always ends
cut or topped up to the exact top-k, so it selects the exact top-k directly
and then sends sign * mean |selected| for every entry. All of them keep exactly
``max(1, floor(n / cf))`` entries so downstream volume accounting is exact,
and all support a second-level pass that compresses an already-compressed
tensor without touching the original dense vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gradcore import GradientVector, SeededRng

TOPK = "topk"
DGC = "dgc"
REDSYNC = "redsync"
RANDOMK = "randomk"
KIND_NAMES = (TOPK, DGC, REDSYNC, RANDOMK)

# (kind, input_length, kept) -> modeled seconds; cost model supplies this
LatencyFn = Callable[["CompressorKind", int, int], float]


@dataclass(frozen=True)
class CompressorKind:
    """Compressor selector plus per-kind tuning knobs."""

    name: str
    dgc_sample_fraction: float = 0.01

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown compressor {self.name!r}, expected one of {KIND_NAMES}")
        if not (0.0 < self.dgc_sample_fraction < 1.0):
            raise ValueError(f"dgc_sample_fraction must be in (0, 1), got {self.dgc_sample_fraction}")


@dataclass(eq=False)
class SparseGradient:
    """(index, value) encoding of a compressed gradient.

    ``indices`` are strictly increasing positions into the original dense
    vector of ``original_length`` entries.
    """

    indices: np.ndarray
    vals: np.ndarray
    original_length: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.uint32)
        self.vals = np.asarray(self.vals, dtype=np.float32)
        if self.indices.shape != self.vals.shape or self.indices.ndim != 1:
            raise ValueError("indices and vals must be 1-D and equally sized")
        if self.indices.size == 0:
            raise ValueError("sparse gradient must keep at least one entry")
        if np.any(np.diff(self.indices.astype(np.int64)) <= 0):
            raise ValueError("indices must be strictly increasing")
        if int(self.indices[-1]) >= self.original_length:
            raise ValueError("index beyond original length")

    @property
    def kept(self) -> int:
        return self.vals.size

    @property
    def achieved_cf(self) -> float:
        return self.original_length / self.kept


def keep_count(length: int, cf: float) -> int:
    """Entries kept at compression factor cf: max(1, floor(length / cf))."""
    if cf < 1.0:
        raise ValueError(f"compression factor must be >= 1, got {cf}")
    return max(1, math.floor(length / cf))


def _exact_topk(mag: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest magnitudes; ties go to the lower index.

    Returned positions are ascending. O(n): one partition and one pass
    over ``mag``; ties on the boundary magnitude are repaired only when that
    pass keeps more than k entries.
    """
    n = mag.size
    if k >= n:
        return np.arange(n)
    kth = np.partition(mag, n - k)[n - k]
    picked = np.flatnonzero(mag >= kth)
    if picked.size > k:
        # drop the highest-index ties
        ties = np.flatnonzero(mag[picked] == kth)
        picked = np.delete(picked, ties[k - picked.size:])
    return picked


def _global_topup(mag: np.ndarray, chosen: np.ndarray, short: int) -> np.ndarray:
    """Largest-magnitude positions outside ``chosen``, ties to lower index."""
    mask = np.ones(mag.size, dtype=bool)
    mask[chosen] = False
    rest = np.flatnonzero(mask)
    return rest[_exact_topk(mag[rest], short)]


def _dgc_pick(mag: np.ndarray, k: int, kind: CompressorKind, rng: SeededRng | None) -> np.ndarray:
    n = mag.size
    sample_size = min(n, max(256, int(round(kind.dgc_sample_fraction * n))))
    if sample_size >= n:
        # full sample: threshold estimation degenerates to exact selection
        return _exact_topk(mag, k)
    if rng is None:
        raise ValueError("dgc compression requires an rng for threshold sampling")
    sample_pos = rng.generator.choice(n, size=sample_size, replace=False)
    sampled = np.sort(mag[sample_pos])[::-1]
    rank = min(sample_size, max(1, int(round(k * sample_size / n))))
    threshold = sampled[rank - 1]

    chosen = np.flatnonzero(mag >= threshold)
    if chosen.size >= k:
        return chosen[_exact_topk(mag[chosen], k)]
    # threshold overshot: pad from the sampled pool below the threshold
    # (largest first), then fall back to a global top-up
    short = k - chosen.size
    below = np.sort(sample_pos[mag[sample_pos] < threshold])
    if below.size and short > 0:
        order = np.argsort(-mag[below], kind="stable")
        take = below[order[:short]]
        chosen = np.concatenate([chosen, take])
        short = k - chosen.size
    if short > 0:
        chosen = np.concatenate([chosen, _global_topup(mag, chosen, short)])
    return chosen


def _select(kind: CompressorKind, values: np.ndarray, k: int,
            rng: SeededRng | None) -> tuple[np.ndarray, np.ndarray]:
    """Pick k of n entries per the compressor rule.

    Returns (ascending positions, values to send). Keeping everything is an
    identity passthrough for every kind, including Redsync.
    """
    n = values.size
    if k >= n:
        return np.arange(n, dtype=np.uint32), values.astype(np.float32, copy=True)
    mag = np.abs(values)
    if kind.name in (TOPK, REDSYNC):
        picked = _exact_topk(mag, k)
    elif kind.name == RANDOMK:
        if rng is None:
            raise ValueError("randomk compression requires an rng")
        picked = rng.generator.choice(n, size=k, replace=False)
    else:
        picked = _dgc_pick(mag, k, kind, rng)
    picked = np.sort(picked.astype(np.int64))
    vals = values[picked].astype(np.float32, copy=True)
    if kind.name == REDSYNC:
        mean_mag = np.float32(np.abs(vals).astype(np.float64).mean())
        vals = (np.sign(vals) * mean_mag).astype(np.float32)
    return picked.astype(np.uint32), vals


def compress(kind: CompressorKind, g: GradientVector, cf: float,
             rng: SeededRng | None = None,
             latency: LatencyFn | None = None) -> tuple[SparseGradient, float]:
    """Compress a dense gradient to factor ``cf``.

    Keeps exactly max(1, floor(M / cf)) entries; a NaN or infinite entry
    has no magnitude rank and is rejected. The returned seconds come from
    the supplied modeled latency hook, never from wall-clock measurement;
    0.0 when absent.
    """
    if not np.isfinite(g.values).all():
        raise ValueError("cannot compress a gradient with non-finite entries")
    n = g.length
    kept = keep_count(n, cf)
    indices, vals = _select(kind, g.values, kept, rng)
    seconds = latency(kind, n, kept) if latency is not None else 0.0
    return SparseGradient(indices, vals, n), seconds


def compress_further(kind: CompressorKind, s: SparseGradient, step: float,
                     rng: SeededRng | None = None,
                     latency: LatencyFn | None = None) -> tuple[SparseGradient, float]:
    """Second-level compression applied to the retained entries only.

    Keeps max(1, floor(k1 / step)) of the k1 retained values; indices stay
    positions in the original dense space, so the result is as if the dense
    vector had been compressed to roughly step * achieved_cf directly.
    """
    if step < 1.0:
        raise ValueError(f"step factor must be >= 1, got {step}")
    k1 = s.kept
    k2 = keep_count(k1, step)
    local, vals = _select(kind, s.vals, k2, rng)
    seconds = latency(kind, k1, k2) if latency is not None else 0.0
    return SparseGradient(s.indices[local.astype(np.int64)], vals, s.original_length), seconds


def decompress(s: SparseGradient) -> GradientVector:
    """Dense vector with the retained values in place and zeros elsewhere."""
    dense = np.zeros(s.original_length, dtype=np.float32)
    dense[s.indices.astype(np.int64)] = s.vals
    return GradientVector(dense)


def aggregate(parts: Sequence[SparseGradient]) -> GradientVector:
    """Element-wise mean of densified parts (the 1/N allreduce scaling).

    Parts are reduced in the order given; callers pass worker-ascending
    order for determinism.
    """
    if not parts:
        raise ValueError("aggregate of zero parts")
    m = parts[0].original_length
    acc = np.zeros(m, dtype=np.float64)
    for p in parts:
        if p.original_length != m:
            raise ValueError(f"length mismatch in aggregate: {p.original_length} != {m}")
        acc[p.indices.astype(np.int64)] += p.vals.astype(np.float64)
    acc /= len(parts)
    return GradientVector(acc.astype(np.float32))


def aggregate_dense(parts: Sequence[GradientVector]) -> GradientVector:
    """Element-wise mean of dense gradients (the uncompressed path)."""
    if not parts:
        raise ValueError("aggregate of zero parts")
    m = parts[0].length
    acc = np.zeros(m, dtype=np.float64)
    for p in parts:
        if p.length != m:
            raise ValueError(f"length mismatch in aggregate: {p.length} != {m}")
        acc += p.values
    acc /= len(parts)
    return GradientVector(acc.astype(np.float32))
