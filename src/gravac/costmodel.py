"""Alpha-beta communication model and modeled compressor latency.

All times in this package are simulated seconds derived from these
formulas, never wall-clock measurements, which keeps runs deterministic and
platform-independent.

Allreduce of a message of W 32-bit words across N workers:

    tree: 2*alpha*log2(N) + 2*W*log2(N)*beta
    ring: 2*(N-1)*alpha + 2*W*beta*(N-1)/N

with alpha the per-message latency (seconds) and beta the per-word transfer
cost (seconds/word). Compressor latency is modeled per kind as

    c0 + c1*n_input + c2*k*log2(max(k, 2))

so a second-level pass over an already-compressed tensor is cheaper than
re-compressing the full vector whenever c1 > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compressors import CompressorKind, SparseGradient

RING = "ring"
TREE = "tree"
TOPOLOGIES = (RING, TREE)


@dataclass(frozen=True)
class LatencyCoeffs:
    """Coefficients of the per-kind compression latency model."""

    base: float
    per_input: float
    per_selected_log: float

    def __post_init__(self):
        if not (self.base >= 0 and self.per_input >= 0 and self.per_selected_log >= 0):
            raise ValueError("latency coefficients must be >= 0")

    def seconds(self, n_input: int, kept: int) -> float:
        return (self.base
                + self.per_input * n_input
                + self.per_selected_log * kept * math.log2(max(kept, 2)))


# Desk-scale coefficients; ordering (topk slowest, randomk cheapest) follows the
# selection rules' relative costs.
DEFAULT_LATENCY_COEFFS: dict[str, LatencyCoeffs] = {
    "topk": LatencyCoeffs(5e-6, 2.0e-9, 2.0e-9),
    "dgc": LatencyCoeffs(5e-6, 1.0e-9, 1.0e-9),
    "redsync": LatencyCoeffs(5e-6, 1.5e-9, 0.0),
    "randomk": LatencyCoeffs(2e-6, 1.0e-10, 5.0e-10),
}


@dataclass(frozen=True)
class CostModelParams:
    """Converts message sizes and compression work into simulated seconds.

    ``beta`` defaults to one 32-bit word over a 10 Gbps link.
    """

    alpha: float = 10e-6
    beta: float = 32.0 / 10e9
    workers: int = 1
    topology: str = RING
    t_compute: float = 1e-3

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in (self.alpha, self.beta, self.t_compute)):
            raise ValueError("alpha, beta and t_compute must be finite and >= 0")
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}, expected one of {TOPOLOGIES}")

    def compression_latency(self, kind: CompressorKind, n_input: int, kept: int) -> float:
        return DEFAULT_LATENCY_COEFFS[kind.name].seconds(n_input, kept)


def allreduce_time(words: int, params: CostModelParams) -> float:
    """Modeled allreduce seconds for a message of ``words`` 32-bit words."""
    if words < 1:
        raise ValueError(f"message must be >= 1 word, got {words}")
    n = params.workers
    if n == 1:
        return 0.0
    if params.topology == TREE:
        logn = math.log2(n)
        return 2.0 * params.alpha * logn + 2.0 * words * logn * params.beta
    return 2.0 * (n - 1) * params.alpha + 2.0 * words * params.beta * (n - 1) / n


def sparse_message_words(s: SparseGradient) -> int:
    """Wire size of a sparse message: one index word plus one value word per entry."""
    return 2 * s.kept


def dense_message_words(length: int) -> int:
    """Wire size of an uncompressed gradient: one word per entry."""
    return int(length)
