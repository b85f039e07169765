"""Experiment runner: flat key=value config, orchestration, persistence.

A run is fully described by a flat config (dotted keys for nesting) plus
CLI overrides. Outputs per run: ``trace.jsonl`` (one record per iteration),
``summary.json`` (totals recomputable from the trace), ``kde.csv`` and
``cf_histogram.csv``. All outputs are byte-deterministic given the seed;
wall-clock never enters them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import astuple, dataclass
from typing import Callable, Mapping

import numpy as np

from .compressors import KIND_NAMES, CompressorKind
from .controller import POLICIES, ControllerConfig
from .costmodel import DEFAULT_LATENCY_COEFFS, TOPOLOGIES, CostModelParams, LatencyCoeffs
from .kdestats import cf_histogram, cf_usage_samples, default_grid, gaussian_kde
from .simworkers import (MODES, STATIC, GRAVAC, OptimizerState, RunTrace,
                         run_training)
from .tasks import (QUADRATIC, SYNTHETIC_MLP, TASK_KINDS, QuadraticBowl, SyntheticMlp,
                    build_task)

KDE_BANDWIDTH = 0.1
SEED_ENV_VAR = "GRAVAC_SEED"


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    """Flat run settings. A default that a domain class also has is read from
    that class; the few literals below either have no domain default or
    deliberately differ from it, as their comments say."""

    mode: str = GRAVAC
    static_cf: float = 10.0
    iters: int = 1000
    seed: int = 0
    out: str = ""
    eval_samples: int = 2048
    baseline: str = ""
    task_kind: str = SYNTHETIC_MLP
    task_size: int = QuadraticBowl.size
    task_batch_size: int = SyntheticMlp.batch_size
    task_noise_std: float = QuadraticBowl.noise_std
    task_init_offset: float = QuadraticBowl.init_offset
    task_widths: tuple[int, ...] = SyntheticMlp.widths
    task_blob_distance: float = SyntheticMlp.blob_distance
    task_blob_spread: float = SyntheticMlp.blob_spread
    task_feature_decades: float = SyntheticMlp.feature_decades
    task_data_seed: int = SyntheticMlp.data_seed
    opt_lr: float = 0.05  # OptimizerState has no default learning rate
    opt_momentum: float = 0.9  # runs train with momentum; OptimizerState defaults to plain SGD
    opt_weight_decay: float = OptimizerState.weight_decay
    opt_lr_decay_iters: tuple[int, ...] = OptimizerState.lr_decay_iters
    opt_lr_decay_factor: float = OptimizerState.lr_decay_factor
    controller_theta_min: float = ControllerConfig.theta_min
    controller_theta_max: float = ControllerConfig.theta_max
    controller_epsilon: float = ControllerConfig.epsilon
    controller_omega: float = ControllerConfig.omega
    controller_window: int = ControllerConfig.window
    controller_policy: str = ControllerConfig.policy
    compressor_kind: str = ControllerConfig.compressor.name
    compressor_dgc_sample_fraction: float = CompressorKind.dgc_sample_fraction
    compressor_redsync_max_rounds: int = CompressorKind.redsync_max_rounds
    cost_alpha: float = CostModelParams.alpha
    cost_beta: float = CostModelParams.beta
    cost_workers: int = 4  # a run simulates a cluster; CostModelParams defaults to one worker
    cost_topology: str = CostModelParams.topology
    cost_t_compute: float = CostModelParams.t_compute
    cost_latency_topk: tuple[float, ...] = astuple(DEFAULT_LATENCY_COEFFS["topk"])
    cost_latency_dgc: tuple[float, ...] = astuple(DEFAULT_LATENCY_COEFFS["dgc"])
    cost_latency_redsync: tuple[float, ...] = astuple(DEFAULT_LATENCY_COEFFS["redsync"])
    cost_latency_randomk: tuple[float, ...] = astuple(DEFAULT_LATENCY_COEFFS["randomk"])

    # ---- typed builders -------------------------------------------------

    def build_task(self):
        if self.task_kind == QUADRATIC:
            return build_task(QUADRATIC, size=self.task_size,
                              noise_std=self.task_noise_std,
                              batch_size=self.task_batch_size,
                              init_offset=self.task_init_offset)
        return build_task(SYNTHETIC_MLP, widths=self.task_widths,
                          batch_size=self.task_batch_size,
                          blob_distance=self.task_blob_distance,
                          blob_spread=self.task_blob_spread,
                          feature_decades=self.task_feature_decades,
                          data_seed=self.task_data_seed)

    def build_compressor(self) -> CompressorKind:
        return CompressorKind(self.compressor_kind,
                              dgc_sample_fraction=self.compressor_dgc_sample_fraction,
                              redsync_max_rounds=self.compressor_redsync_max_rounds)

    def build_controller(self) -> ControllerConfig:
        return ControllerConfig(theta_min=self.controller_theta_min,
                                theta_max=self.controller_theta_max,
                                epsilon=self.controller_epsilon,
                                omega=self.controller_omega,
                                window=self.controller_window,
                                policy=self.controller_policy,
                                compressor=self.build_compressor())

    def build_cost(self) -> CostModelParams:
        coeffs = {
            "topk": LatencyCoeffs(*self.cost_latency_topk),
            "dgc": LatencyCoeffs(*self.cost_latency_dgc),
            "redsync": LatencyCoeffs(*self.cost_latency_redsync),
            "randomk": LatencyCoeffs(*self.cost_latency_randomk),
        }
        return CostModelParams(alpha=self.cost_alpha, beta=self.cost_beta,
                               workers=self.cost_workers,
                               topology=self.cost_topology,
                               t_compute=self.cost_t_compute,
                               latency_coeffs=coeffs)

    def build_optimizer(self, task) -> OptimizerState:
        return OptimizerState(weights=np.zeros(task.parameter_count),
                              lr=self.opt_lr, momentum=self.opt_momentum,
                              weight_decay=self.opt_weight_decay,
                              lr_decay_iters=self.opt_lr_decay_iters,
                              lr_decay_factor=self.opt_lr_decay_factor)


# ---- flat key schema ----------------------------------------------------

def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_str(text: str) -> str:
    return text


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p.strip()) for p in text.split(","))


def _parse_floats(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_float(p.strip()) for p in text.split(","))


def _fmt_seq(value) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)


def _fmt_scalar(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _one_of(options):
    def check(value):
        return None if value in options else f"must be one of {', '.join(options)}"
    return check


def _in_open_unit(name):
    def check(value):
        return None if 0.0 < value < 1.0 else f"{name} out of (0,1)"
    return check


def _at_least(bound):
    def check(value):
        return None if value >= bound else f"must be >= {bound}"
    return check


def _triple(value):
    return None if len(value) == 3 else "expected 3 comma-separated coefficients"


@dataclass(frozen=True)
class _Field:
    key: str
    attr: str
    parse: Callable[[str], object]
    fmt: Callable[[object], str] = _fmt_scalar
    check: Callable[[object], str | None] = lambda value: None


_SCHEMA: tuple[_Field, ...] = (
    _Field("mode", "mode", _parse_str, check=_one_of(MODES)),
    _Field("static_cf", "static_cf", _parse_float, check=_at_least(1.0)),
    _Field("iters", "iters", _parse_int, check=_at_least(1)),
    _Field("seed", "seed", _parse_int),
    _Field("out", "out", _parse_str),
    _Field("eval_samples", "eval_samples", _parse_int, check=_at_least(1)),
    _Field("baseline", "baseline", _parse_str),
    _Field("task.kind", "task_kind", _parse_str, check=_one_of(TASK_KINDS)),
    _Field("task.size", "task_size", _parse_int, check=_at_least(1)),
    _Field("task.batch_size", "task_batch_size", _parse_int, check=_at_least(1)),
    _Field("task.noise_std", "task_noise_std", _parse_float, check=_at_least(0.0)),
    _Field("task.init_offset", "task_init_offset", _parse_float),
    _Field("task.widths", "task_widths", _parse_ints, _fmt_seq),
    _Field("task.blob_distance", "task_blob_distance", _parse_float, check=_at_least(0.0)),
    _Field("task.blob_spread", "task_blob_spread", _parse_float, check=_at_least(0.0)),
    _Field("task.feature_decades", "task_feature_decades", _parse_float, check=_at_least(0.0)),
    _Field("task.data_seed", "task_data_seed", _parse_int),
    _Field("opt.lr", "opt_lr", _parse_float),
    _Field("opt.momentum", "opt_momentum", _parse_float),
    _Field("opt.weight_decay", "opt_weight_decay", _parse_float, check=_at_least(0.0)),
    _Field("opt.lr_decay_iters", "opt_lr_decay_iters", _parse_ints, _fmt_seq),
    _Field("opt.lr_decay_factor", "opt_lr_decay_factor", _parse_float),
    _Field("controller.theta_min", "controller_theta_min", _parse_float, check=_at_least(1.0)),
    _Field("controller.theta_max", "controller_theta_max", _parse_float, check=_at_least(1.0)),
    _Field("controller.epsilon", "controller_epsilon", _parse_float,
           check=_in_open_unit("epsilon")),
    _Field("controller.omega", "controller_omega", _parse_float,
           check=_in_open_unit("omega")),
    _Field("controller.window", "controller_window", _parse_int, check=_at_least(1)),
    _Field("controller.policy", "controller_policy", _parse_str, check=_one_of(POLICIES)),
    _Field("compressor.kind", "compressor_kind", _parse_str, check=_one_of(KIND_NAMES)),
    _Field("compressor.dgc_sample_fraction", "compressor_dgc_sample_fraction",
           _parse_float, check=_in_open_unit("sample fraction")),
    _Field("compressor.redsync_max_rounds", "compressor_redsync_max_rounds",
           _parse_int, check=_at_least(1)),
    _Field("cost.alpha", "cost_alpha", _parse_float, check=_at_least(0.0)),
    _Field("cost.beta", "cost_beta", _parse_float, check=_at_least(0.0)),
    _Field("cost.workers", "cost_workers", _parse_int, check=_at_least(1)),
    _Field("cost.topology", "cost_topology", _parse_str, check=_one_of(TOPOLOGIES)),
    _Field("cost.t_compute", "cost_t_compute", _parse_float, check=_at_least(0.0)),
    _Field("cost.latency.topk", "cost_latency_topk", _parse_floats, _fmt_seq, _triple),
    _Field("cost.latency.dgc", "cost_latency_dgc", _parse_floats, _fmt_seq, _triple),
    _Field("cost.latency.redsync", "cost_latency_redsync", _parse_floats, _fmt_seq, _triple),
    _Field("cost.latency.randomk", "cost_latency_randomk", _parse_floats, _fmt_seq, _triple),
)

_BY_KEY = {f.key: f for f in _SCHEMA}


def _assign(cfg: RunConfig, key: str, text: str) -> None:
    entry = _BY_KEY.get(key)
    if entry is None:
        raise ConfigError(f"unknown config key: {key}")
    try:
        value = entry.parse(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} ({exc})") from exc
    problem = entry.check(value)
    if problem:
        raise ConfigError(f"{key}: {problem}")
    setattr(cfg, entry.attr, value)


def parse_config(path: str | None = None,
                 overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Build a validated RunConfig from a key=value file plus overrides.

    Unknown keys are rejected with their field path; invariant violations
    raise ConfigError.
    """
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, text = line.partition("=")
            _assign(cfg, key.strip(), text.strip())
    for key, text in (overrides or {}).items():
        _assign(cfg, key, str(text))
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for entry in _SCHEMA:
        problem = entry.check(getattr(cfg, entry.attr))
        if problem:
            raise ConfigError(f"{entry.key}: {problem}")
    if cfg.controller_theta_max < cfg.controller_theta_min:
        raise ConfigError("controller.theta_max: must be >= controller.theta_min")
    # exercise the domain constructors so deep invariants surface as config errors
    try:
        task = cfg.build_task()
        cfg.build_cost()
        cfg.build_compressor()
        cfg.build_controller()
        cfg.build_optimizer(task)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: RunConfig) -> str:
    """Flat key=value rendering; parse_config(serialize_config(c)) == c."""
    lines = [f"{entry.key} = {entry.fmt(getattr(cfg, entry.attr))}" for entry in _SCHEMA]
    return "\n".join(lines) + "\n"


# ---- orchestration ------------------------------------------------------

def run_experiment(cfg: RunConfig, out_dir: str | None = None) -> dict:
    """Execute one run and persist trace, summary and KDE/histogram CSVs.

    Returns the summary dict. Outputs are byte-identical across repeats
    with equal seeds.
    """
    out = out_dir or cfg.out
    if not out:
        raise ConfigError("out: output directory required (flag --out or key out)")
    baseline = _load_baseline(cfg.baseline) if cfg.baseline else None
    task = cfg.build_task()
    result = run_training(
        task=task,
        optimizer=cfg.build_optimizer(task),
        cost=cfg.build_cost(),
        mode=cfg.mode,
        iterations=cfg.iters,
        seed=cfg.seed,
        controller_config=cfg.build_controller() if cfg.mode == GRAVAC else None,
        compressor=cfg.build_compressor(),
        static_cf=cfg.static_cf if cfg.mode == STATIC else None,
        eval_samples=cfg.eval_samples,
    )
    trace = result.trace

    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, "trace.jsonl")
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace.to_jsonl())

    high = math.log10(cfg.controller_theta_max) if cfg.mode == GRAVAC else None
    with open(os.path.join(out, "kde.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(kde_csv(trace, KDE_BANDWIDTH, high))

    histogram = cf_histogram(trace)
    with open(os.path.join(out, "cf_histogram.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("cf,count\n")
        for cf, count in histogram.items():
            fh.write(f"{cf!r},{count}\n")

    summary = {
        "mode": cfg.mode,
        "iterations": len(trace),
        "seed": cfg.seed,
        "initial_loss": result.initial_loss,
        "final_loss": result.final_loss,
        "metric_name": result.metric_name,
        "metric_value": result.metric_value,
        "floats_sent_total": int(trace.total("floats_sent")),
        "words_sent_total": int(trace.total("words_sent")),
        "sim_time_total": float(trace.total("t_iter")),
        "cf_histogram": {repr(cf): count for cf, count in histogram.items()},
    }
    if baseline is not None:
        summary.update({ratio: baseline[key] / summary[key]
                        for key, ratio in _BASELINE_RATIOS.items() if summary[key] > 0})
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def kde_csv(trace: RunTrace, bandwidth: float, high: float | None = None) -> str:
    """CF-usage density on the log10 axis as ``log10_cf,density`` CSV text."""
    samples = cf_usage_samples(trace)
    grid = default_grid(samples, bandwidth, num=512, low=0.0, high=high)
    density = gaussian_kde(samples, bandwidth, grid)
    rows = "".join(f"{float(x)!r},{float(f)!r}\n" for x, f in zip(grid, density))
    return "log10_cf,density\n" + rows


# baseline summary total -> the ratio of it over this run's total
_BASELINE_RATIOS = {
    "sim_time_total": "speedup_vs_baseline",
    "floats_sent_total": "comm_reduction_floats",
    "words_sent_total": "comm_reduction_words",
}


def _load_baseline(path: str) -> dict:
    """The totals of a baseline summary.json, checked before a run starts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            base = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"baseline: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"baseline: {path} is not JSON: {exc}") from exc
    if not isinstance(base, dict):
        raise ConfigError(f"baseline: {path} is not a summary object")
    bad = [key for key in _BASELINE_RATIOS
           if type(base.get(key)) not in (int, float) or not math.isfinite(base[key])]
    if bad:
        raise ConfigError(f"baseline: {path} lacks finite numbers for {', '.join(bad)}")
    return base


def _load_trace(trace) -> RunTrace:
    if isinstance(trace, RunTrace):
        return trace
    return RunTrace.from_jsonl(trace)


def _time_to_target(trace: RunTrace, target: float | None) -> float:
    times = trace.column("t_iter")
    if target is None:
        return float(times.sum())
    losses = trace.column("loss")
    reached = np.flatnonzero(losses <= target)
    if reached.size == 0:
        raise ValueError(f"trace never reached loss target {target}")
    return float(times[:reached[0] + 1].sum())


def compare_runs(trace_a, trace_b, target: float | None = None) -> dict:
    """A-over-B ratios of simulated time and volume plus final-metric delta."""
    a = _load_trace(trace_a)
    b = _load_trace(trace_b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot compare empty traces")
    report = {
        "time_a": _time_to_target(a, target),
        "time_b": _time_to_target(b, target),
        "floats_a": int(a.total("floats_sent")),
        "floats_b": int(b.total("floats_sent")),
        "final_loss_a": a.records[-1].loss,
        "final_loss_b": b.records[-1].loss,
    }
    report["time_ratio"] = report["time_a"] / report["time_b"]
    report["floats_ratio"] = report["floats_a"] / report["floats_b"]
    report["words_ratio"] = a.total("words_sent") / b.total("words_sent")
    report["final_metric_delta"] = report["final_loss_a"] - report["final_loss_b"]
    return report
