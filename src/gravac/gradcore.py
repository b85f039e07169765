"""Dense gradient container, deterministic RNG and EWMA smoothing.

Everything downstream (compressors, feedback, metrics, simulator) consumes
the types defined here. Gradients are stored as 32-bit floats -- the wire
format -- while reductions upcast to 64-bit internally so results are
reproducible across platforms.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1


class GradientVector:
    """Flat dense gradient with layer boundaries.

    ``layer_offsets`` holds the start index of each layer segment; it must
    begin at 0, be strictly increasing and stay within the vector length.
    A single-segment gradient uses the default ``(0,)``.
    """

    __slots__ = ("values", "layer_offsets")

    def __init__(self, values, layer_offsets: Sequence[int] | None = None):
        arr = np.asarray(values, dtype=np.float32)
        if arr.ndim != 1:
            raise ValueError(f"gradient must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("gradient must be non-empty")
        if layer_offsets is None:
            offsets = (0,)
        else:
            offsets = tuple(int(o) for o in layer_offsets)
            if not offsets or offsets[0] != 0:
                raise ValueError("layer_offsets must start at 0")
            if any(b <= a for a, b in zip(offsets, offsets[1:])):
                raise ValueError("layer_offsets must be strictly increasing")
            if offsets[-1] > arr.size:
                raise ValueError("layer offset beyond gradient length")
        self.values = arr
        self.layer_offsets = offsets

    @property
    def length(self) -> int:
        return self.values.size

    def layer_slices(self) -> list[slice]:
        """Slices partitioning the vector into its layer segments."""
        bounds = list(self.layer_offsets) + [self.values.size]
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def __repr__(self) -> str:
        return f"GradientVector(length={self.length}, layers={len(self.layer_offsets)})"


def squared_l2_norm(g) -> float:
    """Sum of squared entries, accumulated in 64-bit.

    Accepts a GradientVector or any 1-D array-like.
    """
    values = g.values if isinstance(g, GradientVector) else np.asarray(g)
    if values.size == 0:
        raise ValueError("squared_l2_norm of empty vector")
    v = values.astype(np.float64, copy=False)
    return float(np.dot(v, v))


class EwmaTracker:
    """Exponentially weighted moving average: s <- lam*x + (1-lam)*s.

    The first observation is assigned directly. Reading ``value`` before
    any observation is an error.
    """

    __slots__ = ("lam", "_value")

    def __init__(self, lam: float):
        if not (0.0 < lam <= 1.0):
            raise ValueError(f"smoothing factor must be in (0, 1], got {lam}")
        self.lam = float(lam)
        self._value = None

    @property
    def initialized(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> float:
        if self._value is None:
            raise ValueError("EWMA read before first observation")
        return self._value

    def update(self, x: float) -> float:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"non-finite EWMA observation: {x}")
        if self._value is None:
            self._value = x
        else:
            self._value = self.lam * x + (1.0 - self.lam) * self._value
        return self._value


def ewma_lambda_from_workers(n_workers: int) -> float:
    """Smoothing factor N/100, clamped to [0.01, 1.0] so the rule is total."""
    if n_workers < 1:
        raise ValueError(f"worker count must be >= 1, got {n_workers}")
    return min(1.0, max(0.01, n_workers / 100.0))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SeededRng:
    """Counter-based (Philox) random source.

    Equal (seed, stream) pairs produce identical draw sequences on every
    platform. ``split`` derives independent substreams from integer path
    components, e.g. ``rng.split(worker_id, iteration)``.
    """

    __slots__ = ("seed", "stream", "_generator")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            bitgen = np.random.Philox(key=[self.seed, self.stream])
            self._generator = np.random.Generator(bitgen)
        return self._generator

    def split(self, *path: int) -> "SeededRng":
        s = self.stream
        for p in path:
            s = _splitmix64(s ^ _splitmix64(int(p) & _MASK64))
        return SeededRng(self.seed, stream=s)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"
