"""Synchronous N-worker data-parallel training loop.

One logical model is shared by all workers (perfect aggregation); workers
differ only in their data shards, rng substreams and error-feedback
residuals. Three modes: adaptive compression ("gravac"), a fixed factor
("static-cf") and uncompressed ("dense"). Volume counters in the trace are
per worker per iteration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Iterator

import numpy as np

from .compressors import CompressorKind, aggregate, aggregate_dense, compress
from .controller import (DENSE, CfDecision, ControllerConfig, ControllerState,
                         compress_workers, run_iteration, send)
from .costmodel import CostModelParams
from .feedback import apply_feedback
from .gradcore import GradientVector, SeededRng, ewma_lambda_from_workers, squared_l2_norm
from .metrics import GainTracker, ThroughputTable, compression_gain

GRAVAC = "gravac"
STATIC = "static-cf"
DENSE_MODE = "dense"
MODES = (GRAVAC, STATIC, DENSE_MODE)
STATIC_CHOICE = "static"  # the trace's choice for a static-cf send

DIVERGENCE_FACTOR = 1e6
EVAL_SAMPLES = 2048

# top-level rng subtrees: data, controller/compression, init, eval
_RNG_DATA = 1
_RNG_CONTROL = 2
_RNG_INIT = 3
_RNG_EVAL = 4


class DivergenceError(RuntimeError):
    """Raised when the training loss blows past the divergence guard."""


@dataclass
class OptimizerState:
    """Momentum SGD with coupled weight decay.

    buffer <- momentum*buffer + (grad + weight_decay*w); w <- w - lr*buffer.
    ``sgd_update`` updates both arrays in place.
    """

    weights: np.ndarray
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    buffer: np.ndarray = field(init=False)
    lr_decay_iters: tuple[int, ...] = ()
    lr_decay_factor: float = 10.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not self.lr > 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")
        if not self.lr_decay_factor > 0:
            raise ValueError(f"lr_decay_factor must be > 0, got {self.lr_decay_factor}")
        # np.zeros, unlike zeros_like, leaves the pages unwritten until
        # used, so a settings-only state (run_training trains a copy)
        # holds no resident memory
        self.buffer = np.zeros(self.weights.shape)


def sgd_update(opt: OptimizerState, grad: GradientVector) -> OptimizerState:
    """Apply one momentum-SGD step with the aggregated gradient."""
    if grad.length != opt.weights.size:
        raise ValueError(f"gradient length {grad.length} != weights {opt.weights.size}")
    g = grad.values.astype(np.float64)
    if opt.weight_decay:
        g += opt.weight_decay * opt.weights
    if opt.momentum:
        opt.buffer *= opt.momentum
        opt.buffer += g
    else:
        opt.buffer = g
    opt.weights -= opt.lr * opt.buffer
    return opt


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


# trace field -> the JSON value types it accepts (bool is not a number here)
_TRACE_TYPES = {f.name: {"int": (int,), "float": (int, float), "str": (str,)}[f.type]
                for f in fields(IterationRecord)}
# the least value of each bounded field (5e-324, the least positive float: t_iter > 0);
# as a run writes them, numbers are finite and ints exact in float64
_TRACE_LOW = {"iter": 1, "floats_sent": 1, "words_sent": 1, "cf": 1, "t_iter": 5e-324}


def _in_range(name: str, value) -> bool:
    high = 2 ** 53 if type(value) is int else float("inf")
    return -high < value < high and value >= _TRACE_LOW.get(name, -high)  # NaN fails


@dataclass
class RunTrace:
    """Per-iteration records of a run, JSON-lines serializable."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[IterationRecord]:
        return iter(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.records])

    def total(self, name: str):
        """Column sum; an int column is summed exactly, as Python ints."""
        if _TRACE_TYPES[name] == (int,):
            return sum(getattr(r, name) for r in self.records)
        values = self.column(name)
        return values.sum().item() if len(values) else 0

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, path) -> "RunTrace":
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(f"{path}: trace record is not a JSON object")
                missing = sorted(_TRACE_TYPES.keys() - row.keys())
                unknown = sorted(row.keys() - _TRACE_TYPES.keys())
                if missing or unknown:
                    raise ValueError(f"{path}: trace record has missing fields {missing}, "
                                     f"unknown fields {unknown}")
                mistyped = sorted(k for k, v in row.items() if type(v) not in _TRACE_TYPES[k])
                if mistyped:
                    raise ValueError(f"{path}: trace record has mistyped fields {mistyped}")
                bad = sorted(k for k, v in row.items() if k != "choice" and not _in_range(k, v))
                if bad:
                    raise ValueError(f"{path}: trace record has out-of-range fields {bad}")
                records.append(IterationRecord(**row))
        return cls(records)


@dataclass
class TrainingResult:
    trace: RunTrace
    weights: np.ndarray
    initial_loss: float
    final_loss: float
    metric_name: str
    metric_value: float


def run_training(task, optimizer: OptimizerState, cost: CostModelParams,
                 mode: str, iterations: int, seed: int,
                 controller_config: ControllerConfig | None = None,
                 compressor: CompressorKind | None = None,
                 static_cf: float | None = None,
                 eval_samples: int = EVAL_SAMPLES) -> TrainingResult:
    """Run the full synchronous training loop and return its trace.

    Deterministic given (task, optimizer settings, cost, mode, seed): every
    random draw flows from substreams of the run seed. ``optimizer`` gives
    the settings only: the run trains a copy that starts from the task's
    initial weights, and the caller's object is left as it was.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == STATIC and (static_cf is None or static_cf < 1.0):
        raise ValueError("static-cf mode requires a compression factor >= 1")
    if mode != DENSE_MODE and compressor is None:
        raise ValueError(f"{mode} mode requires a compressor kind")
    if mode == GRAVAC and controller_config is None:
        raise ValueError("gravac mode requires a controller config")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    root = SeededRng(seed)
    data_rng = root.split(_RNG_DATA)
    control_rng = root.split(_RNG_CONTROL)
    n_workers = cost.workers
    length = task.parameter_count
    batch_size = task.batch_size

    # copies: the loop updates the weights in place and the task may keep its array
    opt = replace(optimizer, weights=np.array(
        task.initial_weights(root.split(_RNG_INIT)), dtype=np.float64))

    # each mode is one step policy: per-worker gradients in, IterationResult out
    residuals = [GradientVector(np.zeros(length, dtype=np.float32))
                 for _ in range(n_workers)] if mode != DENSE_MODE else []
    if mode == GRAVAC:
        state = ControllerState.fresh(controller_config, n_workers)
        table = state.table

        def step(grads, i):
            return run_iteration(state, i, compressor, grads, residuals, cost, control_rng,
                                 batch_size)
    elif mode == STATIC:
        table = ThroughputTable()
        gains = GainTracker(ewma_lambda_from_workers(n_workers))
        cf = float(static_cf)

        def step(grads, i):
            g_efs = [apply_feedback(g, r) for g, r in zip(grads, residuals)]
            parts, t_compress = compress_workers(compress, compressor, g_efs, static_cf,
                                                 control_rng, cost, i)
            ef_norms = [squared_l2_norm(g.values) for g in g_efs]
            raws = [compression_gain(p, n) for p, n in zip(parts, ef_norms) if n > 0]
            delta = gains.observe(cf, float(np.mean(raws))) if raws else 1.0
            return send(CfDecision(STATIC_CHOICE, cf, delta, delta, delta), g_efs, parts,
                        residuals, t_compress, table, cost, batch_size, cf, cf)
    else:
        table = ThroughputTable()

        def step(grads, i):
            return send(CfDecision(DENSE, 1.0, 1.0, 1.0, 1.0), grads, None, residuals, 0.0,
                        table, cost, batch_size, 1.0, 1.0)

    trace = RunTrace()
    initial_loss = None
    decay_points = set(opt.lr_decay_iters)

    for i in range(1, iterations + 1):
        if i in decay_points:
            opt.lr = opt.lr / opt.lr_decay_factor

        grads = result = None  # free the previous gradients before new ones are drawn
        grads, losses = task.gradients(opt.weights, n_workers, i, data_rng)
        loss = float(np.mean(losses))
        if initial_loss is None:
            initial_loss = loss
        if not np.isfinite(loss) or (initial_loss > 0 and loss > DIVERGENCE_FACTOR * initial_loss):
            raise DivergenceError(
                f"iteration {i}: loss {loss:.6g} exceeded {DIVERGENCE_FACTOR:.0e} x "
                f"initial loss {initial_loss:.6g}")

        result = step(grads, i)
        d = result.decision
        sgd_update(opt, aggregate_dense(result.sent) if d.choice == DENSE
                   else aggregate(result.sent))
        trace.append(IterationRecord(
            iter=i, cf=float(d.cf), gain_min=d.delta_min, gain_c=d.delta_c,
            t_o=cost.t_compute, t_compress=result.t_compress, t_s=result.t_sync,
            t_iter=result.t_iter, tsys=table.t_sys[d.cf], tcomp=table.t_compress[d.cf],
            loss=loss, floats_sent=result.floats_sent, words_sent=result.words_sent,
            choice=d.choice, theta_min=result.theta_min))

    metrics = task.evaluate(opt.weights, root.split(_RNG_EVAL), eval_samples)
    metric_name = task.metric_name
    return TrainingResult(trace=trace, weights=opt.weights,
                          initial_loss=initial_loss,
                          final_loss=trace.records[-1].loss,
                          metric_name=metric_name,
                          metric_value=float(metrics[metric_name]))
