"""Sparsifying gradient compressors behind one (indices, values) format.

Four selection rules share the interface: top-k by magnitude, random-k,
sample-estimated threshold (DGC-style) and bisection threshold with
mean-magnitude value substitution (Redsync-style). All of them keep exactly
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
    redsync_max_rounds: int = 20

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown compressor {self.name!r}, expected one of {KIND_NAMES}")
        if not (0.0 < self.dgc_sample_fraction < 1.0):
            raise ValueError(f"dgc_sample_fraction must be in (0, 1), got {self.dgc_sample_fraction}")
        if self.redsync_max_rounds < 1:
            raise ValueError(f"redsync_max_rounds must be >= 1, got {self.redsync_max_rounds}")


@dataclass(eq=False)
class SparseGradient:
    """(index, value) encoding of a compressed gradient.

    ``indices`` are strictly increasing positions into the original dense
    vector of ``original_length`` entries; ``achieved_cf`` is
    original_length / len(vals).
    """

    indices: np.ndarray
    vals: np.ndarray
    original_length: int
    achieved_cf: float

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


def keep_count(length: int, cf: float) -> int:
    """Entries kept at compression factor cf: max(1, floor(length / cf))."""
    if cf < 1.0:
        raise ValueError(f"compression factor must be >= 1, got {cf}")
    return max(1, math.floor(length / cf))


def _exact_topk(mag: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest magnitudes; ties go to the lower index.

    Returned positions are unsorted. O(n) via partition plus tie repair on
    the boundary magnitude.
    """
    n = mag.size
    if k >= n:
        return np.arange(n)
    kth = np.partition(mag, n - k)[n - k]
    above = np.flatnonzero(mag > kth)
    need = k - above.size
    ties = np.flatnonzero(mag == kth)[:need]
    return np.concatenate([above, ties])


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


def _redsync_pick(mag: np.ndarray, k: int, kind: CompressorKind) -> np.ndarray:
    lo = float(mag.mean())
    hi = float(mag.max())
    threshold = lo
    if hi > lo and int((mag >= lo).sum()) > k:
        # bisect in [mean, max] until the retained count brackets k
        left, right = lo, hi
        for _ in range(kind.redsync_max_rounds):
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
        return chosen[_exact_topk(mag[chosen], k)]
    # k exceeds the [mean, max] bracket; top up by magnitude below the mean
    return np.concatenate([chosen, _global_topup(mag, chosen, k - chosen.size)])


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
    if kind.name == TOPK:
        picked = _exact_topk(mag, k)
    elif kind.name == RANDOMK:
        if rng is None:
            raise ValueError("randomk compression requires an rng")
        picked = rng.generator.choice(n, size=k, replace=False)
    elif kind.name == DGC:
        picked = _dgc_pick(mag, k, kind, rng)
    else:
        picked = _redsync_pick(mag, k, kind)
    picked = np.sort(picked.astype(np.int64))
    vals = values[picked].astype(np.float32, copy=True)
    if kind.name == REDSYNC:
        mean_mag = np.float32(np.abs(vals).astype(np.float64).mean())
        vals = (np.sign(vals) * mean_mag).astype(np.float32)
    return picked.astype(np.uint32), vals


def compress(kind: CompressorKind, g: GradientVector, cf: float,
             rng: SeededRng | None = None, latency: LatencyFn | None = None,
             layerwise: bool = False) -> tuple[SparseGradient, float]:
    """Compress a dense gradient to factor ``cf``.

    Keeps exactly max(1, floor(M / cf)) entries (per layer segment when
    ``layerwise``). The returned seconds come from the supplied modeled
    latency hook, never from wall-clock measurement; 0.0 when absent.
    """
    values = g.values
    n = values.size
    if layerwise and len(g.layer_offsets) > 1:
        parts_idx = []
        parts_val = []
        for sl in g.layer_slices():
            seg = values[sl]
            if seg.size == 0:
                continue
            k_seg = keep_count(seg.size, cf)
            idx, vals = _select(kind, seg, k_seg, rng)
            parts_idx.append(idx.astype(np.int64) + sl.start)
            parts_val.append(vals)
        indices = np.concatenate(parts_idx)
        vals = np.concatenate(parts_val)
        kept = vals.size
    else:
        kept = keep_count(n, cf)
        indices, vals = _select(kind, values, kept, rng)
    seconds = latency(kind, n, kept) if latency is not None else 0.0
    sparse = SparseGradient(indices, vals, n, n / kept)
    return sparse, seconds


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
    if k2 >= k1:
        out = SparseGradient(s.indices.copy(), s.vals.copy(), s.original_length, s.achieved_cf)
    else:
        local, vals = _select(kind, s.vals, k2, rng)
        indices = s.indices[local.astype(np.int64)]
        out = SparseGradient(indices, vals, s.original_length, s.original_length / k2)
    seconds = latency(kind, k1, k2) if latency is not None else 0.0
    return out, seconds


def decompress(s: SparseGradient, layer_offsets: Sequence[int] | None = None) -> GradientVector:
    """Dense vector with the retained values in place and zeros elsewhere."""
    dense = np.zeros(s.original_length, dtype=np.float32)
    dense[s.indices.astype(np.int64)] = s.vals
    return GradientVector(dense, layer_offsets)


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
        acc += p.values.astype(np.float64)
    acc /= len(parts)
    return GradientVector(acc.astype(np.float32), parts[0].layer_offsets)
