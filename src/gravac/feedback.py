"""Error-feedback residuals.

Gradient mass that a compressor drops is not discarded: it accumulates in a
per-worker residual -- a GradientVector of the gradient's length, starting
at zero -- and is added back to the next iteration's gradient, so every
coordinate is eventually applied. A dense (uncompressed) send clears the
residual because nothing was withheld.
"""

from __future__ import annotations

import numpy as np

from .compressors import SparseGradient
from .gradcore import GradientVector


def apply_feedback(g_raw: GradientVector, residual: GradientVector) -> GradientVector:
    """Return g_raw + residual; the residual is not modified."""
    if g_raw.length != residual.length:
        raise ValueError(f"length mismatch: gradient {g_raw.length}, residual {residual.length}")
    return GradientVector(g_raw.values + residual.values)


def update_residual(g_ef: GradientVector, sent: SparseGradient,
                    residual: GradientVector) -> GradientVector:
    """Set residual to g_ef - decompress(sent).

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
    """Zero the residual (dense-send path)."""
    residual.values.fill(0.0)
    return residual
