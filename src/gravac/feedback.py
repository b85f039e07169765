"""Error-feedback residuals.

Gradient mass that a compressor drops is not discarded: it accumulates in a
per-worker residual -- a GradientVector of the gradient's length, starting
at zero -- and is added back to the next iteration's gradient, so every
coordinate is eventually applied. A dense (uncompressed) send clears the
residual because nothing was withheld.

Each worker owns one length-M buffer, which passes between gradient and
residual instead of being copied:

- ``apply_feedback`` adds the residual into the gradient's own buffer and
  leaves the residual a zero view, so the residual's buffer is freed;
- ``update_residual`` subtracts the sent entries from that buffer, and the
  residual takes it over.

A zero residual holds no memory: it is a read-only stride-0 view of one
float32 zero (``zero_residual``), and feedback onto it leaves the gradient
as it is.
"""

from __future__ import annotations

import numpy as np

from .compressors import SparseGradient
from .gradcore import GradientVector


def zero_residual(length: int) -> GradientVector:
    """A residual of ``length`` zeros that owns no buffer."""
    return GradientVector(np.broadcast_to(np.float32(0), (length,)))


def apply_feedback(g_raw: GradientVector, residual: GradientVector) -> GradientVector:
    """Add ``residual`` into ``g_raw``'s buffer and return ``g_raw``.

    The residual is then a zero view: its mass now lives in ``g_raw``, so
    its buffer is released. On a zero residual (a stride-0 view of 0, as
    ``zero_residual`` makes) ``g_raw`` is left as it is.
    """
    if g_raw.length != residual.length:
        raise ValueError(f"length mismatch: gradient {g_raw.length}, residual {residual.length}")
    if residual.values.strides != (0,) or residual.values[0]:
        g_raw.values += residual.values
        residual.values = zero_residual(residual.length).values
    return g_raw


def update_residual(g_ef: GradientVector, sent: SparseGradient,
                    residual: GradientVector) -> GradientVector:
    """Set residual to g_ef - decompress(sent) in ``g_ef``'s own buffer.

    The sent entries are subtracted from ``g_ef`` in place and the residual
    takes the buffer over, so the two share it afterwards. Positions that
    were sent with their own value end up exactly zero; value-substituting
    compressors leave the substitution error behind.
    """
    if g_ef.length != residual.length or sent.original_length != residual.length:
        raise ValueError("length mismatch in residual update")
    g_ef.values[sent.indices.astype(np.int64)] -= sent.vals
    residual.values = g_ef.values
    return residual


def clear_residual(residual: GradientVector) -> GradientVector:
    """Zero the residual (dense-send path), releasing its buffer."""
    residual.values = zero_residual(residual.length).values
    return residual
