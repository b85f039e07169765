"""Adaptive compression-factor controller.

Every iteration two compressed views of the gradient are produced: one at
the minimum CF and one at the candidate CF (minimum times the current step
factor). Their smoothed gains gate which of the two -- or the uncompressed
gradient as a last resort -- is actually communicated. At every window
boundary the step factor advances along a scaling policy, the minimum CF
escalates when both gains agree within tolerance, and the search freezes on
an ideal CF once the top two compression throughputs saturate.

``send`` -- error feedback, the exchange itself (the mean of the sent views,
dense or index/value) and volume, modeled-time and throughput accounting --
ends every training step, adaptive, static-CF and dense alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .compressors import (CompressorKind, SparseGradient, aggregate, aggregate_dense,
                          compress, compress_further)
from .costmodel import (CostModelParams, allreduce_time, dense_message_words,
                        sparse_message_words)
from .feedback import clear_residual, update_residual
from .gradcore import (GradientVector, SeededRng, ewma_lambda_from_workers,
                       squared_l2_norm)
from .metrics import GainTracker, mean_gain

EXPONENTIAL = "exponential"
GEOMETRIC = "geometric"
POLICIES = (EXPONENTIAL, GEOMETRIC)

CANDIDATE = "candidate"
MINIMUM = "minimum"
DENSE = "dense"
STATIC_CHOICE = "static"  # the trace's choice for a static-cf send


@dataclass
class IterationRecord:
    """One trace row; field order is the wire order."""

    iter: int
    cf: float
    gain_min: float
    gain_c: float
    t_o: float
    t_compress: float
    t_s: float
    t_iter: float
    tsys: float
    tcomp: float
    loss: float
    floats_sent: int
    words_sent: int
    choice: str
    theta_min: float


# rng substream tags for the two compression stages
_STAGE_MIN = 0
_STAGE_STEP = 1


@dataclass(frozen=True)
class ControllerConfig:
    theta_min: float = 10.0
    theta_max: float = 1000.0
    epsilon: float = 0.7
    omega: float = 0.01
    window: int = 500
    policy: str = EXPONENTIAL

    def __post_init__(self):
        if not self.theta_min >= 1.0:
            raise ValueError(f"theta_min must be >= 1, got {self.theta_min}")
        if not self.theta_min <= self.theta_max < math.inf:
            raise ValueError(f"theta_max must be finite and >= theta_min, got {self.theta_max}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon out of (0,1): {self.epsilon}")
        if not (0.0 < self.omega < 1.0):
            raise ValueError(f"omega out of (0,1): {self.omega}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")


def select_cf(delta_c: float, delta_min: float, epsilon: float,
              candidate_cf: float, minimum_cf: float) -> tuple[str, float]:
    """Gate the candidate CF, then the minimum CF, then fall back to dense."""
    if delta_c >= epsilon:
        return CANDIDATE, candidate_cf
    if delta_min >= epsilon:
        return MINIMUM, minimum_cf
    return DENSE, 1.0


def scaling_policy(policy: str, step: int, theta_min: float, theta_max: float) -> float:
    """Step factor for policy step ``step``, capped so the candidate CF
    (factor times the current minimum CF ``theta_min``) never exceeds
    theta_max.

    Step 0 is 1.0: the minimum CF itself is evaluated first. Exponential
    scaling doubles the exponent each step (2^1, 2^2, 2^4, 2^8, ...);
    geometric scaling doubles the factor (2^step).
    """
    if step < 0:
        raise ValueError(f"policy step must be >= 0, got {step}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    cap = theta_max / theta_min
    if step == 0:
        return min(1.0, cap)
    exponent = 2 ** (step - 1) if policy == EXPONENTIAL else step
    if exponent >= 1024:  # would overflow float64; the cap applies anyway
        return cap
    return min(2.0 ** exponent, cap)


@dataclass
class ControllerState:
    """Evolving controller state; one instance drives one training run."""

    config: ControllerConfig
    gains: GainTracker
    theta_min: float
    theta_s: float = 1.0
    step: int = 0
    # set once the search freezes; the candidate CF stays fixed from then on
    theta_ideal: float | None = None
    # CF -> compression throughput of its latest send
    throughput: dict[float, float] = field(default_factory=dict)

    @classmethod
    def fresh(cls, config: ControllerConfig, workers: int) -> "ControllerState":
        lam = ewma_lambda_from_workers(workers)
        return cls(config=config, gains=GainTracker(lam), theta_min=config.theta_min)

    @property
    def candidate_cf(self) -> float:
        return self.theta_s * self.theta_min


def check_gravac(state: ControllerState, iteration: int,
                 delta_min: float | None, delta_c: float | None) -> ControllerState:
    """Window-boundary evaluation: advance the step factor, escalate the
    minimum CF when the two gains agree within omega, and freeze on the
    ideal CF once the top two compression throughputs are within omega.

    No-op off window boundaries and after the ideal CF is frozen (the
    candidate CF must stay constant from then on). Gains may be None when
    no compressed send has happened yet; escalation is skipped then.
    """
    cfg = state.config
    if state.theta_ideal is not None or iteration % cfg.window != 0:
        return state

    # Escalate the minimum CF to the candidate evaluated in the window that
    # just closed (pre-advance step factor): the move is gain-verified, since
    # the candidate's smoothed gain sat within omega of the minimum's.
    if delta_min is not None and delta_c is not None and delta_min > 0:
        if cfg.omega >= abs(delta_min - delta_c) / delta_min:
            state.theta_min = min(cfg.theta_max, state.theta_s * state.theta_min)

    state.step += 1
    state.theta_s = scaling_policy(cfg.policy, state.step, state.theta_min, cfg.theta_max)

    # an exact tie ranks the higher CF first, so the freeze takes the lower
    ranked = sorted(state.throughput.items(), key=lambda kv: (-kv[1], -kv[0]))
    if len(ranked) >= 2:
        (_, v_first), (cf_second, v_second) = ranked[:2]
        if v_second > 0 and abs(v_first - v_second) / v_second <= cfg.omega:
            state.theta_ideal = cf_second
            state.theta_s = max(1.0, state.theta_ideal / state.theta_min)
    return state


def send(gradients, parts, residuals, t_compress: float, cost: CostModelParams, batch_size: int,
         *, iter: int, loss: float, choice: str, cf: float, gain_min: float, gain_c: float,
         theta_min: float) -> tuple[GradientVector, IterationRecord]:
    """Exchange one view of the per-worker gradients and account for it.

    ``parts`` are the compressed views sent instead of ``gradients``, or
    None for a dense send of ``gradients`` themselves. A compressed send
    leaves its dropped mass in the residuals, which take the gradients'
    buffers over; a dense send clears them. Returns the mean of what was
    sent, the allreduce's output, and the trace row. Charges modeled sync
    and iteration time; ``tsys`` = N*b/t_iter and ``tcomp`` = tsys * the
    sent view's gain: ``gain_c`` for a candidate send, ``gain_min`` for a
    minimum or static one, 1 for a dense one. Volume counters are per worker.
    """
    if parts is None:
        update, floats = aggregate_dense(gradients), gradients[0].length
        for residual in residuals:
            clear_residual(residual)
        words = dense_message_words(floats)
        t_compress = 0.0
    else:
        update, floats = aggregate(parts), parts[0].kept
        for g_ef, part, residual in zip(gradients, parts, residuals):
            update_residual(g_ef, part, residual)
        words = sparse_message_words(parts[0])
    t_sync = allreduce_time(words, cost)
    t_iter = cost.t_compute + t_compress + t_sync
    if not (0.0 < t_iter < math.inf):
        raise ValueError(f"iteration time must be positive, got {t_iter}")
    gain = {CANDIDATE: gain_c, DENSE: 1.0}.get(choice, gain_min)
    if not (0.0 < gain <= 1.0):
        raise ValueError(f"gain must be in (0, 1], got {gain}")
    tsys = cost.workers * batch_size / t_iter
    return update, IterationRecord(iter, float(cf), gain_min, gain_c, cost.t_compute,
                                   t_compress, t_sync, t_iter, tsys, tsys * gain, loss,
                                   floats, words, choice, theta_min)


def compress_workers(stage, compressor: CompressorKind, views: Sequence, cf: float,
                     rng: SeededRng, cost: CostModelParams, i: int,
                     *tag: int) -> tuple[tuple[SparseGradient, ...], float]:
    """Apply ``stage`` (``compress`` or ``compress_further``) at ``cf`` to
    every worker's view, each with the rng substream ``(i, worker, *tag)``.

    Returns the parts and the modeled seconds of the stage: workers
    compress in parallel, so the stage takes as long as the slowest.
    """
    parts, seconds = zip(*(stage(compressor, view, cf, rng.split(i, w, *tag),
                                 cost.compression_latency)
                           for w, view in enumerate(views)))
    return parts, max(seconds)


def run_iteration(state: ControllerState, i: int, loss: float, compressor: CompressorKind,
                  g_efs: list[GradientVector], residuals: list[GradientVector],
                  cost: CostModelParams, rng: SeededRng,
                  batch_size: int = 1) -> tuple[GradientVector, IterationRecord]:
    """Adaptive step ``i`` (1-based) over per-worker error-feedback gradients.

    ``g_efs`` are the gradients with their residuals already folded in
    (``apply_feedback``); ``g_efs`` and ``residuals`` are equal-length
    worker-ascending lists. Mutates the controller state and the residuals
    in place; a compressed send hands each residual its ``g_efs`` buffer.
    Returns ``send``'s mean update and trace row, which records ``loss``.
    """
    if len(g_efs) != len(residuals):
        raise ValueError(f"{len(g_efs)} gradients for {len(residuals)} residuals")

    theta_min = state.theta_min
    candidate_cf = state.candidate_cf

    ef_norms = [squared_l2_norm(g.values) for g in g_efs]

    if all(n == 0.0 for n in ef_norms):
        # vanished gradient: dense no-op, no compression work or gain update
        delta_min, delta_c = state.gains.get(theta_min), state.gains.get(candidate_cf)
        choice, cf, parts, t_compress, gain_min, gain_c = DENSE, 1.0, None, 0.0, 1.0, 1.0
    else:
        g_mins, t_min = compress_workers(compress, compressor, g_efs, theta_min,
                                         rng, cost, i, _STAGE_MIN)
        raw_min = mean_gain(g_mins, ef_norms)
        delta_min = state.gains.observe(theta_min, raw_min)
        g_cs, t_step = compress_workers(compress_further, compressor, g_mins, state.theta_s,
                                        rng, cost, i, _STAGE_STEP)
        # a step that keeps every entry returns the stage-1 views themselves,
        # whose raw gain is known; the smoothed gain still takes both
        # observations
        same = all(c is m for c, m in zip(g_cs, g_mins))
        delta_c = state.gains.observe(candidate_cf, raw_min if same else mean_gain(g_cs, ef_norms))
        t_compress = t_min + t_step

        choice, cf = select_cf(delta_c, delta_min, state.config.epsilon,
                               candidate_cf=candidate_cf, minimum_cf=theta_min)
        parts = {CANDIDATE: g_cs, MINIMUM: g_mins}.get(choice)
        g_mins = g_cs = None  # only the sent views stay alive through the exchange
        gain_min, gain_c = delta_min, delta_c

    update, row = send(g_efs, parts, residuals, t_compress, cost, batch_size, iter=i,
                       loss=loss, choice=choice, cf=cf, gain_min=gain_min, gain_c=gain_c,
                       theta_min=theta_min)
    state.throughput[cf] = row.tcomp
    check_gravac(state, i, delta_min, delta_c)
    return update, row
