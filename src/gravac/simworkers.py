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

import numpy as np

from .compressors import CompressorKind, compress
from .controller import (DENSE, STATIC_CHOICE, ControllerConfig, ControllerState,
                         IterationRecord, compress_workers, run_iteration, send)
from .costmodel import CostModelParams
from .feedback import apply_feedback, zero_residual
from .gradcore import (REDUCE_BLOCK, GradientVector, SeededRng, ewma_lambda_from_workers,
                       squared_l2_norm)
from .metrics import GainTracker, mean_gain

GRAVAC = "gravac"
STATIC = "static-cf"
DENSE_MODE = "dense"
MODES = (GRAVAC, STATIC, DENSE_MODE)

DIVERGENCE_FACTOR = 1e6
EVAL_SAMPLES = 2048  # the samples of every run's final evaluation

# top-level rng subtrees: data, controller/compression, init, eval
_RNG_DATA = 1
_RNG_CONTROL = 2
_RNG_INIT = 3
_RNG_EVAL = 4


class DivergenceError(RuntimeError):
    """Raised when the training loss blows past the divergence guard, a
    worker's gradient has a non-finite entry, or the run's float arithmetic
    overflows or turns invalid."""


@dataclass
class OptimizerState:
    """Momentum SGD.

    buffer <- momentum*buffer + grad; w <- w - lr*buffer. ``sgd_update``
    updates both arrays in place. With momentum 0 the step is
    w <- w - lr*grad and the buffer is a read-only zero view that owns no
    memory.
    """

    weights: np.ndarray
    lr: float
    momentum: float = 0.0
    buffer: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not 0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        # without momentum the buffer is never read, so a read-only stride-0
        # view of one zero stands in and owns no memory. np.zeros is not free:
        # served from reused heap, its pages are cleared and so resident
        self.buffer = (np.zeros(self.weights.shape) if self.momentum
                       else np.broadcast_to(np.float64(0), self.weights.shape))


def sgd_update(opt: OptimizerState, grad: GradientVector) -> OptimizerState:
    """Apply one momentum-SGD step with the aggregated gradient.

    The float32 update is cast into one float64 scratch of
    ``gradcore.REDUCE_BLOCK`` entries, a block at a time, so the step makes
    no length-M temporary. Each block runs the whole-vector formula's
    operations in its order: ``buffer *= m; buffer += g; g = buffer * lr``
    with momentum, else ``g *= lr``; then ``weights -= g``.
    """
    m = grad.length
    if m != opt.weights.size:
        raise ValueError(f"gradient length {m} != weights {opt.weights.size}")
    scratch = np.empty(min(REDUCE_BLOCK, m))
    for start in range(0, m, REDUCE_BLOCK):
        block = slice(start, start + REDUCE_BLOCK)
        g = scratch[:min(REDUCE_BLOCK, m - start)]
        g[...] = grad.values[block]
        if opt.momentum:
            buffer = opt.buffer[block]
            buffer *= opt.momentum
            buffer += g
            np.multiply(buffer, opt.lr, out=g)
        else:
            g *= opt.lr
        opt.weights[block] -= g
    return opt


# trace field -> the JSON value types it accepts (bool is not a number here)
_TRACE_TYPES = {f.name: {"int": (int,), "float": (int, float), "str": (str,)}[f.type]
                for f in fields(IterationRecord)}
# the least value of each bounded field (5e-324, the least positive float: t_iter > 0);
# as a run writes them, numbers are finite and ints exact in float64
_TRACE_LOW = {"iter": 1, "floats_sent": 1, "words_sent": 1, "cf": 1, "t_iter": 5e-324}


def _in_range(name: str, value) -> bool:
    high = 2 ** 53 if type(value) is int else float("inf")
    return -high < value < high and value >= _TRACE_LOW.get(name, -high)  # NaN fails


class RunTrace(list):
    """A run's ``IterationRecord``s, one per iteration, JSON-lines serializable."""

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self])

    def total(self, name: str):
        """Column sum; an int column is summed exactly, as Python ints."""
        if _TRACE_TYPES[name] == (int,):
            return sum(getattr(r, name) for r in self)
        values = self.column(name)
        return values.sum().item() if len(values) else 0

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self)

    @classmethod
    def from_jsonl(cls, path) -> "RunTrace":
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except (ValueError, RecursionError) as exc:  # nesting too deep recurses
                    raise ValueError(f"{path}: trace record is not JSON: {exc}") from None
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
    metric_value: float


def run_training(task, optimizer: OptimizerState, cost: CostModelParams,
                 mode: str, iterations: int, seed: int,
                 controller_config: ControllerConfig | None = None,
                 compressor: CompressorKind | None = None,
                 static_cf: float | None = None) -> TrainingResult:
    """Run the full synchronous training loop and return its trace.

    Deterministic given (task, optimizer settings, cost, mode, seed): every
    random draw flows from substreams of the run seed. ``optimizer`` gives
    the settings only: the run trains a copy that starts from the task's
    initial weights, and the caller's object is left as it was.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == STATIC and (static_cf is None or not static_cf >= 1.0):
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

    # each mode is one step policy: per-worker gradients in, with their
    # residuals folded in, the mean update and the trace row out. Dense
    # mode's residuals stay zero views, which own no buffer
    residuals = [zero_residual(length) for _ in range(n_workers)]
    if mode == GRAVAC:
        state = ControllerState.fresh(controller_config, n_workers)

        def step(grads, i, loss):
            return run_iteration(state, i, loss, compressor, grads, residuals, cost,
                                 control_rng, batch_size)
    elif mode == STATIC:
        gains = GainTracker(ewma_lambda_from_workers(n_workers))
        cf = float(static_cf)

        def step(g_efs, i, loss):
            parts, t_compress = compress_workers(compress, compressor, g_efs, static_cf,
                                                 control_rng, i)
            ef_norms = [squared_l2_norm(g.values) for g in g_efs]
            delta = gains.observe(cf, mean_gain(parts, ef_norms)) if any(ef_norms) else 1.0
            return send(g_efs, parts, residuals, t_compress, cost, batch_size, iter=i,
                        loss=loss, choice=STATIC_CHOICE, cf=cf, gain_min=delta, gain_c=delta,
                        theta_min=cf)
    else:
        def step(grads, i, loss):
            return send(grads, None, residuals, 0.0, cost, batch_size, iter=i, loss=loss,
                        choice=DENSE, cf=1.0, gain_min=1.0, gain_c=1.0, theta_min=1.0)

    trace = RunTrace()
    initial_loss = None

    # any float arithmetic of the run that overflows or turns invalid, the
    # tasks' float32 casts included, raises and is reported as a divergence
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(1, iterations + 1):
                stage = f"iteration {i}"

                # each gradient is folded into its residual as it is drawn, so
                # at most one raw gradient is alive beside the workers' buffers.
                # A task may hand over non-finite entries that raised no flag
                grads, losses, finite = [], [], True
                for worker, (g, worker_loss) in enumerate(
                        task.gradients(opt.weights, n_workers, i, data_rng)):
                    finite = finite and bool(np.isfinite(g.values).all())
                    grads.append(apply_feedback(g, residuals[worker]))
                    losses.append(worker_loss)
                loss = float(np.mean(losses))
                if initial_loss is None:
                    initial_loss = loss
                if not np.isfinite(loss) or (
                        initial_loss > 0 and loss > DIVERGENCE_FACTOR * initial_loss):
                    raise DivergenceError(
                        f"iteration {i}: loss {loss:.6g} exceeded {DIVERGENCE_FACTOR:.0e} x "
                        f"initial loss {initial_loss:.6g}")
                if not finite:
                    raise DivergenceError(
                        f"iteration {i}: a worker's gradient has non-finite entries")

                # the update stays live until the next step replaces it: freed
                # earlier, it let the allocator hand the gradients' heap back
                # to the OS and fault it in again on every quad_1m iteration
                update, row = step(grads, i, loss)
                grads = None  # a dense send's gradients are spent
                trace.append(row)
                sgd_update(opt, update)

            # the last iteration's arrays are dead; free them before the evaluation
            update = losses = None
            residuals.clear()
            stage = "evaluation"
            metrics = task.evaluate(opt.weights, root.split(_RNG_EVAL), EVAL_SAMPLES)
    except FloatingPointError as exc:
        raise DivergenceError(f"{stage}: {exc}") from None
    metric_value = float(metrics[task.metric_name])
    if not np.isfinite(metric_value):
        raise DivergenceError(f"evaluation: {task.metric_name} {metric_value:.6g} is not finite")
    return TrainingResult(trace=trace, weights=opt.weights, metric_value=metric_value)
