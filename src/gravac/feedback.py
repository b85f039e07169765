"""Error-feedback residuals.

Gradient mass that a compressor drops is not discarded: it accumulates in a
per-worker residual -- a GradientVector of the gradient's length, starting
at zero -- and is added back to the next iteration's gradient, so every
coordinate is eventually applied. A dense (uncompressed) send clears the
residual because nothing was withheld.

A zero residual holds no memory: it is a read-only stride-0 view of one
float32 zero (``zero_residual``), and feedback onto it is the raw gradient
itself. Only a compressed send allocates, for the mass it withholds.
"""

from __future__ import annotations

import numpy as np

from .compressors import SparseGradient
from .gradcore import GradientVector


def zero_residual(length: int) -> GradientVector:
    """A residual of ``length`` zeros that owns no buffer."""
    return GradientVector(np.broadcast_to(np.float32(0), (length,)))


def apply_feedback(g_raw: GradientVector, residual: GradientVector) -> GradientVector:
    """Return g_raw + residual; neither is modified.

    On a zero residual (a stride-0 view of 0, as ``zero_residual`` makes)
    that is ``g_raw`` itself: no add, no copy.
    """
    if g_raw.length != residual.length:
        raise ValueError(f"length mismatch: gradient {g_raw.length}, residual {residual.length}")
    if residual.values.strides == (0,) and not residual.values[0]:
        return g_raw
    return GradientVector(g_raw.values + residual.values)


def update_residual(g_ef: GradientVector, sent: SparseGradient,
                    residual: GradientVector) -> GradientVector:
    """Set residual to g_ef - decompress(sent), in a fresh array.

    Positions that were sent with their own value end up exactly zero;
    value-substituting compressors leave the substitution error behind.
    """
    if g_ef.length != residual.length or sent.original_length != residual.length:
        raise ValueError("length mismatch in residual update")
    res = g_ef.values.copy()
    res[sent.indices.astype(np.int64)] -= sent.vals
    residual.values = res
    return residual


def clear_residual(residual: GradientVector) -> GradientVector:
    """Zero the residual (dense-send path), releasing its buffer."""
    residual.values = zero_residual(residual.length).values
    return residual
