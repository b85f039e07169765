"""Error-feedback residual store.

Gradient mass that a compressor drops is not discarded: it accumulates in a
per-worker residual and is added back to the next iteration's gradient, so
every coordinate is eventually applied. A dense (uncompressed) send clears
the residual because nothing was withheld.
"""

from __future__ import annotations

import numpy as np

from .compressors import SparseGradient
from .gradcore import GradientVector


class ResidualStore:
    """Per-worker residual, zero-initialized, same length as the gradient."""

    __slots__ = ("residual",)

    def __init__(self, length: int):
        if length < 1:
            raise ValueError(f"residual length must be >= 1, got {length}")
        self.residual = np.zeros(length, dtype=np.float32)

    @property
    def length(self) -> int:
        return self.residual.size


def apply_feedback(g_raw: GradientVector, store: ResidualStore) -> GradientVector:
    """Return g_raw + residual; the store is not modified."""
    if g_raw.length != store.length:
        raise ValueError(f"length mismatch: gradient {g_raw.length}, residual {store.length}")
    return GradientVector(g_raw.values + store.residual)


def update_residual(g_ef: GradientVector, sent: SparseGradient,
                    store: ResidualStore) -> ResidualStore:
    """Set residual to g_ef - decompress(sent).

    Positions that were sent with their own value end up exactly zero;
    value-substituting compressors leave the substitution error behind.
    """
    if g_ef.length != store.length or sent.original_length != store.length:
        raise ValueError("length mismatch in residual update")
    res = g_ef.values.copy()
    res[sent.indices.astype(np.int64)] -= sent.vals
    store.residual = res
    return store


def clear_residual(store: ResidualStore) -> ResidualStore:
    """Zero the residual (dense-send path)."""
    store.residual.fill(0.0)
    return store
