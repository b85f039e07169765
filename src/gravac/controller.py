"""Adaptive compression-factor controller.

Every iteration two compressed views of the gradient are produced: one at
the minimum CF and one at the candidate CF (minimum times the current step
factor). Their smoothed gains gate which of the two -- or the uncompressed
gradient as a last resort -- is actually communicated. At every window
boundary the step factor advances along a scaling policy, the minimum CF
escalates when both gains agree within tolerance, and the search freezes on
an ideal CF once the top two compression throughputs saturate.

``send`` -- error feedback, volume and modeled-time accounting, throughput
update -- ends every training step, adaptive, static-CF and dense alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .compressors import CompressorKind, SparseGradient, compress, compress_further
from .costmodel import (CostModelParams, allreduce_time, dense_message_words,
                        iteration_time, sparse_message_words)
from .feedback import apply_feedback, clear_residual, update_residual
from .gradcore import (GradientVector, SeededRng, ewma_lambda_from_workers,
                       squared_l2_norm)
from .metrics import GainTracker, ThroughputTable, compression_gain, update_step

EXPONENTIAL = "exponential"
GEOMETRIC = "geometric"
POLICIES = (EXPONENTIAL, GEOMETRIC)

CANDIDATE = "candidate"
MINIMUM = "minimum"
DENSE = "dense"

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
        if not self.theta_max >= self.theta_min:
            raise ValueError(f"theta_max must be >= theta_min, got {self.theta_max}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon out of (0,1): {self.epsilon}")
        if not (0.0 < self.omega < 1.0):
            raise ValueError(f"omega out of (0,1): {self.omega}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")


@dataclass
class CfDecision:
    """Which gradient view was communicated and the gains behind the choice."""

    choice: str
    cf: float
    gain: float
    delta_min: float
    delta_c: float


def select_cf(delta_c: float, delta_min: float, epsilon: float,
              candidate_cf: float, minimum_cf: float) -> CfDecision:
    """Gate the candidate CF, then the minimum CF, then fall back to dense."""
    if delta_c >= epsilon:
        return CfDecision(CANDIDATE, candidate_cf, delta_c, delta_min, delta_c)
    if delta_min >= epsilon:
        return CfDecision(MINIMUM, minimum_cf, delta_min, delta_min, delta_c)
    return CfDecision(DENSE, 1.0, 1.0, delta_min, delta_c)


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
    table: ThroughputTable
    theta_min: float
    theta_s: float = 1.0
    step: int = 0
    # set once the search freezes; the candidate CF stays fixed from then on
    theta_ideal: float | None = None
    # set when the saturation rule picked the CF with the *larger* throughput
    # rank but the *higher* CF value; logged, never acted on
    saturation_picked_higher_cf: bool = False

    @classmethod
    def fresh(cls, config: ControllerConfig, workers: int) -> "ControllerState":
        lam = ewma_lambda_from_workers(workers)
        return cls(config=config, gains=GainTracker(lam), table=ThroughputTable(),
                   theta_min=config.theta_min)

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

    top = state.table.top_two()
    if top is not None:
        (cf_first, v_first), (cf_second, v_second) = top
        if v_second > 0 and abs(v_first - v_second) / v_second <= cfg.omega:
            state.theta_ideal = cf_second
            if cf_second > cf_first:
                state.saturation_picked_higher_cf = True
            state.theta_s = max(1.0, state.theta_ideal / state.theta_min)
    return state


@dataclass
class IterationResult:
    """Everything one training step produced, ready for aggregation and tracing."""

    sent: Sequence[SparseGradient] | Sequence[GradientVector]
    decision: CfDecision
    t_compress: float
    t_sync: float
    t_iter: float
    floats_sent: int
    words_sent: int
    candidate_cf: float
    theta_min: float


def send(decision: CfDecision, gradients, parts, residuals, t_compress: float,
         table: ThroughputTable, cost: CostModelParams, batch_size: int,
         theta_min: float, candidate_cf: float) -> IterationResult:
    """Communicate one view of the per-worker gradients and account for it.

    ``parts`` are the compressed views sent instead of ``gradients``, or
    None for a dense send of ``gradients`` themselves. A compressed send
    leaves its dropped mass in the residuals; a dense send clears them.
    Charges modeled sync and iteration time and records the throughput of
    ``decision.cf``. Volume counters are per worker.
    """
    if parts is None:
        for residual in residuals:
            clear_residual(residual)
        sent, floats = gradients, gradients[0].length
        words = dense_message_words(floats)
        t_compress = 0.0
    else:
        for g_ef, part, residual in zip(gradients, parts, residuals):
            update_residual(g_ef, part, residual)
        sent, floats = parts, parts[0].kept
        words = sparse_message_words(parts[0])
    t_sync = allreduce_time(words, cost)
    t_iter = iteration_time(cost.t_compute, t_compress, t_sync)
    update_step(table, decision.cf, decision.gain, t_iter, cost.workers, batch_size)
    return IterationResult(sent, decision, t_compress, t_sync, t_iter, floats, words,
                           candidate_cf, theta_min)


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


def run_iteration(state: ControllerState, i: int, compressor: CompressorKind,
                  gradients: list[GradientVector], residuals: list[GradientVector],
                  cost: CostModelParams, rng: SeededRng,
                  batch_size: int = 1) -> IterationResult:
    """Adaptive step ``i`` (1-based) over per-worker gradients.

    ``gradients`` and ``residuals`` are equal-length worker-ascending lists.
    Mutates the controller state and the residuals in place. Volume
    counters are per worker.
    """
    cfg = state.config
    if len(gradients) != len(residuals):
        raise ValueError(f"{len(gradients)} gradients for {len(residuals)} residuals")

    theta_min = state.theta_min
    candidate_cf = state.candidate_cf

    g_efs = [apply_feedback(g, r) for g, r in zip(gradients, residuals)]
    ef_norms = [squared_l2_norm(g.values) for g in g_efs]

    if all(n == 0.0 for n in ef_norms):
        # vanished gradient: dense no-op, no compression work or gain update
        delta_min, delta_c = state.gains.get(theta_min), state.gains.get(candidate_cf)
        decision, parts, t_compress = CfDecision(DENSE, 1.0, 1.0, 1.0, 1.0), None, 0.0
    else:
        g_mins, t_min = compress_workers(compress, compressor, g_efs, theta_min,
                                         rng, cost, i, _STAGE_MIN)
        delta_min = state.gains.observe(theta_min, _mean_raw_gain(g_mins, ef_norms))
        g_cs, t_step = compress_workers(compress_further, compressor, g_mins, state.theta_s,
                                        rng, cost, i, _STAGE_STEP)
        delta_c = state.gains.observe(candidate_cf, _mean_raw_gain(g_cs, ef_norms))
        t_compress = t_min + t_step

        decision = select_cf(delta_c, delta_min, cfg.epsilon,
                             candidate_cf=candidate_cf, minimum_cf=theta_min)
        parts = {CANDIDATE: g_cs, MINIMUM: g_mins}.get(decision.choice)

    result = send(decision, g_efs, parts, residuals, t_compress, state.table, cost,
                  batch_size, theta_min, candidate_cf)
    check_gravac(state, i, delta_min, delta_c)
    return result


def _mean_raw_gain(parts: Sequence[SparseGradient], ef_norms: list[float]) -> float:
    """Mean per-worker compression gain; zero-norm workers skipped."""
    gains = [compression_gain(p, n) for p, n in zip(parts, ef_norms) if n > 0.0]
    return sum(gains) / len(gains)
