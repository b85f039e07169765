"""Dense gradient container, deterministic RNG and the EWMA smoothing factor.

Everything downstream (compressors, feedback, metrics, simulator) consumes
the types defined here. Gradients are stored as 32-bit floats -- the wire
format -- while ``dot64`` reduces them in 64-bit, block by block, so a
norm has the same bits at any BLAS thread count. Random draws come from
SFC64, seeded per (seed, stream) through ``SeedSequence``. ``normal32``
draws float32 standard normals by the Box–Muller transform over float32
uniforms cut from SFC64's raw 64-bit words. With a scale and shift
applied it takes about 5.5 ms per 10^6, against 7.3-8.2 ms over
``gen.random``'s uniforms with two more full-length passes and about 15 ms
for numpy's float32 ziggurat (one core of a 2-core x86-64 VM with
AVX-512). Its bits depend on numpy's float32 ``log``, ``sin`` and ``cos``
kernels.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# seeds lie in [0, SEED_LIMIT): a seed is written to summary.json, and a JSON
# reader that parses numbers as float64 keeps every such integer exact
SEED_LIMIT = 1 << 53
# float64 reductions (dot64, the gradient means) run in blocks of this many
# entries, so a float32 input is upcast through one block-sized float64
# scratch, never a full-length copy
REDUCE_BLOCK = 1 << 16
# normal32's uniforms: a 24-bit integer times 2**-24, and 2π folded into it
_ULP24 = np.float32(2.0 ** -24)
_TWO_PI_ULP24 = np.float32(2 * np.pi) * _ULP24


class GradientVector:
    """Flat dense gradient: a non-empty 1-D float32 vector."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float32)
        if arr.ndim != 1:
            raise ValueError(f"gradient must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("gradient must be non-empty")
        self.values = arr

    @property
    def length(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"GradientVector(length={self.length})"


def _blocks64(values: np.ndarray):
    """``values`` as contiguous float64 blocks of REDUCE_BLOCK entries.

    A contiguous float64 block is used as it is; any other block is cast
    into one block-sized float64 scratch, reused for every block.
    """
    scratch = None
    for start in range(0, values.size, REDUCE_BLOCK):
        block = values[start:start + REDUCE_BLOCK]
        if block.dtype != np.float64 or not block.flags.c_contiguous:
            if scratch is None:
                scratch = np.empty(block.size, dtype=np.float64)
            cast = scratch[:block.size]
            cast[...] = block
            block = cast
        yield block


def dot64(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two equal-length 1-D arrays, accumulated in float64.

    Each block of REDUCE_BLOCK entries is reduced by ``einsum``, which makes
    no BLAS call, and the block sums are added left to right. So the bits
    depend on the values only: not on the BLAS thread count, nor on whether
    an input is strided.
    """
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dot64 needs two equal-length 1-D arrays, got {a.shape} and {b.shape}")
    total = 0.0
    if b is a:
        for x in _blocks64(a):
            total += float(np.einsum("i,i->", x, x))
    else:
        for x, y in zip(_blocks64(a), _blocks64(b)):
            total += float(np.einsum("i,i->", x, y))
    return total


def squared_l2_norm(values: np.ndarray) -> float:
    """Sum of squared entries of a 1-D array, accumulated in 64-bit."""
    if values.size == 0:
        raise ValueError("squared_l2_norm of empty vector")
    return dot64(values, values)


def normal32(gen: np.random.Generator, size: int, scale: np.float32 | None = None,
             shift: np.ndarray | None = None) -> np.ndarray:
    """``size`` float32 standard normals z by the Box–Muller transform, or
    ``z * scale + shift`` in float32 when those are given.

    Each block of REDUCE_BLOCK outputs (the last may be shorter), with
    h = ceil(n / 2) for a block of n, takes 2h float32 uniforms
    u = (k >> 8) * 2**-24 from the 32-bit halves k of h raw SFC64 words,
    low half first (as a little-endian machine lays them out): u1 is the
    first h, u2 the next h. numpy's ``gen.random``
    serves SFC64's float32 uniforms the same way, so these are its uniforms
    on a generator that holds no buffered 32-bit half (a fresh one), at half
    the generator calls. With r = sqrt(-2 log(1 - u1)) and t = 2π u2, the
    block's first h entries are r cos t and its other n - h are r sin t.
    1 - u1 lies in [2**-24, 1], so the log is finite and
    |z| <= sqrt(48 ln 2) ≈ 5.77. ``scale`` and ``shift`` (length ``size``)
    are applied to each block while it is in cache.
    """
    out = np.empty(size, dtype=np.float32)
    for start in range(0, size, REDUCE_BLOCK):
        block = out[start:start + REDUCE_BLOCK]
        h = (block.size + 1) // 2
        k = gen.bit_generator.random_raw(h).view(np.uint32)
        k >>= 8
        # the uniforms overwrite their integers in place: one buffer a block
        u = k.view(np.float32)
        u[...] = k
        r, t = u[:h], u[h:]
        r *= _ULP24
        np.subtract(np.float32(1), r, out=r)
        np.log(r, out=r)
        r *= np.float32(-2)
        np.sqrt(r, out=r)
        # 2π u2 in one rounding: a power-of-two factor commutes with it
        t *= _TWO_PI_ULP24
        np.cos(t, out=block[:h])
        block[:h] *= r
        np.sin(t[:block.size - h], out=block[h:])
        block[h:] *= r[:block.size - h]
        if scale is not None:
            block *= scale
        if shift is not None:
            block += shift[start:start + block.size]
    return out


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
    """Seeded random source: an SFC64 generator per (seed, stream).

    The generator is seeded with ``SeedSequence([seed, stream])``, which
    hashes every bit of both integers, so equal (seed, stream) pairs produce
    identical draw sequences on every platform and distinct pairs distinct
    ones. ``split`` derives independent substreams from integer path
    components, e.g. ``rng.split(worker_id, iteration)``. The seed must lie
    in [0, 2**53).
    """

    __slots__ = ("seed", "stream", "_generator")

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**53), got {seed}")
        self.seed = seed
        self.stream = int(stream) & _MASK64
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seeds = np.random.SeedSequence([self.seed, self.stream])
            self._generator = np.random.Generator(np.random.SFC64(seeds))
        return self._generator

    def split(self, *path: int) -> "SeededRng":
        s = self.stream
        for p in path:
            s = _splitmix64(s ^ _splitmix64(int(p) & _MASK64))
        return SeededRng(self.seed, stream=s)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"
