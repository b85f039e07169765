"""Sparsifying gradient compressors behind one (indices, values) format.

Four selection rules share the interface: top-k by magnitude, random-k,
sample-estimated threshold (DGC-style) and Redsync-style top-k with
mean-magnitude value substitution. Redsync's bisection threshold always ends
cut or topped up to the exact top-k, so it selects the exact top-k directly
and then sends sign * mean |selected| for every entry. All of them keep exactly
``max(1, floor(n / cf))`` entries so downstream volume accounting is exact,
and all support a second-level pass that compresses an already-compressed
tensor without touching the original dense vector. Redsync's second pass
ranks the kept entries' own values, which its view carries beside the
substituted ones, so it equals a direct compress to the smaller keep count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gradcore import REDUCE_BLOCK, GradientVector, SeededRng

TOPK = "topk"
DGC = "dgc"
REDSYNC = "redsync"
RANDOMK = "randomk"
KIND_NAMES = (TOPK, DGC, REDSYNC, RANDOMK)

# DGC estimates its threshold from this share of the magnitudes (at least 256)
DGC_SAMPLE_FRACTION = 0.01

# (kind, input_length, kept) -> modeled seconds; cost model supplies this
LatencyFn = Callable[["CompressorKind", int, int], float]

# exact top-k of at least this many entries partitions only the entries at or
# above a bound taken from every TOPK_BOUND_STRIDE-th magnitude
TOPK_BOUND_MIN = 1 << 16
TOPK_BOUND_STRIDE = 32


@dataclass(frozen=True)
class CompressorKind:
    """Compressor selector."""

    name: str

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown compressor {self.name!r}, expected one of {KIND_NAMES}")


@dataclass(eq=False)
class SparseGradient:
    """(index, value) encoding of a compressed gradient.

    ``indices`` are strictly increasing positions into the original dense
    vector of ``original_length`` entries. ``source_vals`` are the kept
    entries' own values when ``vals`` substitutes them (Redsync), else None;
    they are not sent.
    """

    indices: np.ndarray
    vals: np.ndarray
    original_length: int
    source_vals: np.ndarray | None = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.uint32)
        self.vals = np.asarray(self.vals, dtype=np.float32)
        if self.indices.shape != self.vals.shape or self.indices.ndim != 1:
            raise ValueError("indices and vals must be 1-D and equally sized")
        if self.source_vals is not None:
            self.source_vals = np.asarray(self.source_vals, dtype=np.float32)
            if self.source_vals.shape != self.vals.shape:
                raise ValueError("source_vals must match vals in size")
        if self.indices.size == 0:
            raise ValueError("sparse gradient must keep at least one entry")
        if np.any(self.indices[1:] <= self.indices[:-1]):
            raise ValueError("indices must be strictly increasing")
        if int(self.indices[-1]) >= self.original_length:
            raise ValueError("index beyond original length")

    @property
    def kept(self) -> int:
        return self.vals.size


def keep_count(length: int, cf: float) -> int:
    """Entries kept at compression factor cf: max(1, floor(length / cf))."""
    if not cf >= 1.0:
        raise ValueError(f"compression factor must be >= 1, got {cf}")
    return max(1, math.floor(length / cf))


def _exact_topk(v: np.ndarray, k: int, signed: bool = False) -> np.ndarray:
    """Positions of the k largest magnitudes; ties go to the lower index.

    The magnitudes are ``v`` itself, where -1 marks a position that is never
    picked (the top-up's), or |v| when ``signed``. Returned positions are
    ascending. From ``TOPK_BOUND_MIN`` entries on, only the candidates, the
    entries whose magnitude reaches a bound taken from a strided sample
    (``_sample_bound``), are partitioned: when at least k of them do, they
    hold every entry at or above the k-th magnitude, so the picks equal one
    full partition's. Otherwise every magnitude is partitioned. Signed
    values have their magnitudes taken of the sample and the candidates
    only, which are found as ``(v >= lo) | (v <= -lo)``: that is
    ``|v| >= lo`` on the finite values that ``compress`` admits. NaN never
    reaches the bounded path: ``compress`` rejects non-finite gradients.
    """
    n = v.size
    if k >= n:
        return np.arange(n)
    lo = _sample_bound(v, k, signed)
    if lo is not None:
        # two boolean masks, not np.abs(v) >= lo: a float32 |v| is a
        # full-length temporary (4 MiB at M = 10^6) whose pages are faulted
        # in afresh on every call. On quad_1m it raised the minor faults of
        # a run from about 6k to 77k and cut iters_per_s from about 16.0
        # to 12.9 (2-core x86-64 VM)
        hit = v >= lo
        if signed:
            hit |= v <= -lo
        cand = np.flatnonzero(hit)
        if cand.size >= k:
            sub = v[cand]
            return cand[_partition_topk(np.abs(sub, out=sub) if signed else sub, k)]
    return _partition_topk(np.abs(v) if signed else v, k)


def _partition_topk(mag: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of the k largest of ``mag`` (k <= mag.size) by one
    partition of all of it; ties on the k-th magnitude are cut, to the lower
    index, only when more than k entries reach it."""
    n = mag.size
    kth = np.partition(mag, n - k)[n - k]
    picked = np.flatnonzero(mag >= kth)
    if picked.size > k:
        # drop the highest-index ties
        ties = np.flatnonzero(mag[picked] == kth)
        picked = np.delete(picked, ties[k - picked.size:])
    return picked


def _sample_bound(v: np.ndarray, k: int, signed: bool) -> np.floating | None:
    """The r-th largest magnitude of ``v[::TOPK_BOUND_STRIDE]``,
    r = floor(1.1 k / stride) + 16, as ``_exact_topk`` reads ``v``; None
    below ``TOPK_BOUND_MIN`` entries or when the sample is shorter than r.
    The margin over k / stride makes fewer than k entries reach it rare,
    unless the large magnitudes sit on the sampled stride."""
    if v.size < TOPK_BOUND_MIN:
        return None
    sample = v[::TOPK_BOUND_STRIDE]
    r = 11 * k // (10 * TOPK_BOUND_STRIDE) + 16
    if r > sample.size:
        return None
    if signed:
        sample = np.abs(sample)
    return np.partition(sample, sample.size - r)[sample.size - r]


def _global_topup(mag: np.ndarray, chosen: np.ndarray, short: int) -> np.ndarray:
    """Largest-magnitude positions outside ``chosen``, ties to lower index.

    Ranks a copy of ``mag`` with the chosen positions set to -1, below
    every magnitude: ``short`` never exceeds the positions left, so none
    of them is picked.
    """
    rest = mag.copy()
    rest[chosen] = -1
    return _exact_topk(rest, short)


def _dgc_pick(mag: np.ndarray, k: int, rng: SeededRng | None) -> np.ndarray:
    """k ascending positions at or above a threshold estimated from a sample
    of ``mag``; cut to the top k, or padded when the threshold overshot."""
    n = mag.size
    sample_size = min(n, max(256, int(round(DGC_SAMPLE_FRACTION * n))))
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
        return chosen[_exact_topk(mag[chosen], k)]  # ascending already
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
    return np.sort(chosen)


def _select(kind: CompressorKind, values: np.ndarray, k: int, rng: SeededRng | None,
            source: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Pick k of the n entries ``values`` per the compressor rule.

    The rule ranks ``source``, the entries' own values, when ``values``
    substitutes them. Returns (ascending positions, values to send, the
    picked own values if those sent substitute them, else None). Keeping
    everything is an identity passthrough for every kind, including Redsync.
    """
    n = values.size
    if k >= n:
        return np.arange(n), values.copy(), None if source is None else source.copy()
    own = values if source is None else source
    if kind.name in (TOPK, REDSYNC):
        picked = _exact_topk(own, k, signed=True)  # ascending already
    elif kind.name == RANDOMK:
        if rng is None:
            raise ValueError("randomk compression requires an rng")
        picked = np.sort(rng.generator.choice(n, size=k, replace=False))
    else:
        picked = _dgc_pick(np.abs(own), k, rng)
    kept = own[picked]
    if kind.name != REDSYNC:
        return picked, kept, None
    mean_mag = np.float32(np.abs(kept).astype(np.float64).mean())
    return picked, (np.sign(kept) * mean_mag).astype(np.float32), kept


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
    indices, vals, source = _select(kind, g.values, kept, rng)
    seconds = latency(kind, n, kept) if latency is not None else 0.0
    return SparseGradient(indices, vals, n, source), seconds


def compress_further(kind: CompressorKind, s: SparseGradient, step: float,
                     rng: SeededRng | None = None,
                     latency: LatencyFn | None = None) -> tuple[SparseGradient, float]:
    """Second-level compression applied to the retained entries only.

    Keeps max(1, floor(k1 / step)) of the k1 retained values; indices stay
    positions in the original dense space, so the result is as if the dense
    vector had been compressed to roughly step * original_length / k1
    directly (for top-k and Redsync, exactly so). A step that keeps every
    entry returns ``s`` itself.
    """
    if not step >= 1.0:
        raise ValueError(f"step factor must be >= 1, got {step}")
    k1 = s.kept
    k2 = keep_count(k1, step)
    seconds = latency(kind, k1, k2) if latency is not None else 0.0
    if k2 == k1:
        return s, seconds
    local, vals, source = _select(kind, s.vals, k2, rng, s.source_vals)
    return SparseGradient(s.indices[local], vals, s.original_length, source), seconds


def decompress(s: SparseGradient) -> GradientVector:
    """Dense vector with the retained values in place and zeros elsewhere."""
    dense = np.zeros(s.original_length, dtype=np.float32)
    dense[s.indices.astype(np.int64)] = s.vals
    return GradientVector(dense)


def _blocked_mean(m: int, n_parts: int, add_parts) -> GradientVector:
    """float32 mean over parts, summed in float64 one block of entries at a
    time: ``add_parts(acc, start)`` adds every part's entries in
    [start, start + acc.size) to ``acc``. Only a block-sized accumulator is
    alive, and each entry sees the same additions as a whole-vector sum.
    """
    out = np.empty(m, dtype=np.float32)
    for start in range(0, m, REDUCE_BLOCK):
        acc = np.zeros(min(REDUCE_BLOCK, m - start), dtype=np.float64)
        add_parts(acc, start)
        acc /= n_parts
        out[start:start + acc.size] = acc
    return GradientVector(out)


def aggregate(parts: Sequence[SparseGradient]) -> GradientVector:
    """Element-wise mean of densified parts (the 1/N allreduce scaling).

    Parts are reduced in the order given; callers pass worker-ascending
    order for determinism.
    """
    if not parts:
        raise ValueError("aggregate of zero parts")
    m = parts[0].original_length
    for p in parts:
        if p.original_length != m:
            raise ValueError(f"length mismatch in aggregate: {p.original_length} != {m}")
    starts = np.arange(0, m + REDUCE_BLOCK, REDUCE_BLOCK)
    # each part's index range per block: its indices ascend
    bounds = [np.searchsorted(p.indices, starts) for p in parts]

    def add_parts(acc, start):
        b = start // REDUCE_BLOCK
        for p, at in zip(parts, bounds):
            kept = slice(at[b], at[b + 1])
            acc[p.indices[kept].astype(np.int64) - start] += p.vals[kept].astype(np.float64)

    return _blocked_mean(m, len(parts), add_parts)


def aggregate_dense(parts: Sequence[GradientVector]) -> GradientVector:
    """Element-wise mean of dense gradients (the uncompressed path)."""
    if not parts:
        raise ValueError("aggregate of zero parts")
    m = parts[0].length
    for p in parts:
        if p.length != m:
            raise ValueError(f"length mismatch in aggregate: {p.length} != {m}")

    def add_parts(acc, start):
        for p in parts:
            acc += p.values[start:start + acc.size]

    return _blocked_mean(m, len(parts), add_parts)
