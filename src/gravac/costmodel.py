"""Alpha-beta communication model: modeled allreduce seconds.

All times in this package are simulated seconds derived from formulas,
never wall-clock measurements, which keeps runs deterministic and
platform-independent; compression's own seconds come from
``compressors.latency_seconds``, and ``controller.send`` counts the words
of each message.

Allreduce of a message of W 32-bit words across N workers:

    tree: 2*alpha*log2(N) + 2*W*log2(N)*beta
    ring: 2*(N-1)*alpha + 2*W*beta*(N-1)/N

with alpha the per-message latency (seconds) and beta the per-word transfer
cost (seconds/word).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RING = "ring"
TREE = "tree"
TOPOLOGIES = (RING, TREE)


@dataclass(frozen=True)
class CostModelParams:
    """The modeled cluster: its link, worker count, allreduce topology and
    per-iteration compute seconds.

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
