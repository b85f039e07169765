"""Experiment runner: flat key=value config, orchestration, persistence.

A run is fully described by a flat config (dotted keys for nesting) plus
CLI overrides. A run writes two files: ``trace.jsonl`` (one record per
iteration) and ``summary.json`` (totals recomputable from the trace, and the
CF histogram). Both are byte-deterministic given the seed; wall-clock never
enters them. They are written to a temp dir next to the output dir and moved
into place, so a failed write leaves the old outputs. ``compare_runs``
reports on two traces.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, fields
from typing import Callable, Mapping

import numpy as np

from .compressors import TOPK, CompressorKind
from .controller import ControllerConfig
from .costmodel import CostModelParams
from .gradcore import SeededRng
from .kdestats import cf_histogram
from .simworkers import MODES, STATIC, GRAVAC, OptimizerState, RunTrace, run_training
from .tasks import SYNTHETIC_MLP, TASK_CLASSES, TASK_KINDS, QuadraticBowl, SyntheticMlp


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


@dataclass
class RunConfig:
    """Flat run settings, one field per config key.

    A field's key is its name with the section prefix dotted
    (``controller_theta_min`` is ``controller.theta_min``), and its
    annotation picks the parser. A default that a domain class also has is
    read from that class; the few literals below either have no domain
    default or deliberately differ from it, as their comments say. The
    domain classes check the values they use.
    """

    mode: str = GRAVAC
    static_cf: float = 10.0
    iters: int = 1000
    seed: int = 0
    out: str = ""
    task_kind: str = SYNTHETIC_MLP
    task_size: int = QuadraticBowl.size
    task_batch_size: int = SyntheticMlp.batch_size
    task_noise_std: float = QuadraticBowl.noise_std
    task_init_offset: float = QuadraticBowl.init_offset
    task_widths: tuple[int, ...] = SyntheticMlp.widths
    task_blob_distance: float = SyntheticMlp.blob_distance
    task_blob_spread: float = SyntheticMlp.blob_spread
    task_feature_decades: float = SyntheticMlp.feature_decades
    opt_lr: float = 0.05  # OptimizerState has no default learning rate
    opt_momentum: float = 0.9  # runs train with momentum; OptimizerState defaults to plain SGD
    controller_theta_min: float = ControllerConfig.theta_min
    controller_theta_max: float = ControllerConfig.theta_max
    controller_epsilon: float = ControllerConfig.epsilon
    controller_omega: float = ControllerConfig.omega
    controller_window: int = ControllerConfig.window
    controller_policy: str = ControllerConfig.policy
    compressor_kind: str = TOPK
    cost_alpha: float = CostModelParams.alpha
    cost_beta: float = CostModelParams.beta
    cost_workers: int = 4  # a run simulates a cluster; CostModelParams defaults to one worker
    cost_topology: str = CostModelParams.topology
    cost_t_compute: float = CostModelParams.t_compute

    # ---- typed builders: each passes the fields of its section --------

    def _section(self, prefix: str, cls) -> dict:
        """The fields of ``cls`` that this config sets as ``<prefix><name>``."""
        return {f.name: getattr(self, prefix + f.name) for f in fields(cls)
                if hasattr(self, prefix + f.name)}

    def build_task(self):
        cls = TASK_CLASSES[self.task_kind]
        return cls(**self._section("task_", cls))

    def build_compressor(self) -> CompressorKind:
        return CompressorKind(self.compressor_kind)

    def build_controller(self) -> ControllerConfig:
        return ControllerConfig(**self._section("controller_", ControllerConfig))

    def build_cost(self) -> CostModelParams:
        return CostModelParams(**self._section("cost_", CostModelParams))

    def build_optimizer(self, task) -> OptimizerState:
        return OptimizerState(weights=np.zeros(task.parameter_count),
                              **self._section("opt_", OptimizerState))


# ---- flat keys, derived from the RunConfig fields ------------------------

_SECTION_PREFIXES = ("task_", "opt_", "controller_", "compressor_", "cost_")


def _key(name: str) -> str:
    """The dotted config key of the RunConfig field ``name``; no two prefixes overlap."""
    prefix = next((p for p in _SECTION_PREFIXES if name.startswith(p)), "")
    return prefix.replace("_", ".") + name[len(prefix):]


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_tuple(item: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        text = text.strip()
        return tuple(item(p.strip()) for p in text.split(",")) if text else ()
    return parse


# a RunConfig field's annotation -> the parser of its value text
_PARSERS = {"int": int, "float": _parse_float, "str": str,
            "tuple[int, ...]": _parse_tuple(int)}

_FIELDS = {_key(f.name): f for f in fields(RunConfig)}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _assign(cfg: RunConfig, key: str, text: str) -> None:
    field = _FIELDS.get(key)
    if field is None:
        raise ConfigError(f"unknown config key: {key}")
    try:
        value = _PARSERS[field.type](text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} ({exc})") from exc
    setattr(cfg, field.name, value)


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
        except (OSError, UnicodeDecodeError) as exc:
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
    """Range-check the keys that no domain class sees, then build every
    domain object, both task kinds included, so each checks its section."""
    for key, value, options in (("mode", cfg.mode, MODES),
                                ("task.kind", cfg.task_kind, TASK_KINDS)):
        if value not in options:
            raise ConfigError(f"{key}: must be one of {', '.join(options)}")
    for key in ("static_cf", "iters"):
        if not getattr(cfg, key) >= 1:
            raise ConfigError(f"{key}: must be >= 1")
    _checked("seed", SeededRng, cfg.seed)
    tasks = {kind: _checked("task", cls, **cfg._section("task_", cls))
             for kind, cls in TASK_CLASSES.items()}
    _checked("opt", cfg.build_optimizer, tasks[cfg.task_kind])
    _checked("compressor", cfg.build_compressor)
    _checked("controller", cfg.build_controller)
    _checked("cost", cfg.build_cost)


def _checked(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError or MemoryError (a size too large to
    allocate) raised as a ConfigError naming ``section``."""
    try:
        return build(*args, **kwargs)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def serialize_config(cfg: RunConfig) -> str:
    """Flat key=value rendering; parse_config(serialize_config(c)) == c."""
    lines = [f"{key} = {_format(getattr(cfg, f.name))}" for key, f in _FIELDS.items()]
    return "\n".join(lines) + "\n"


# ---- orchestration ------------------------------------------------------

def run_experiment(cfg: RunConfig, out_dir: str | None = None) -> dict:
    """Execute one run and persist ``trace.jsonl`` and ``summary.json``.

    Returns the summary dict. Outputs are byte-identical across repeats
    with equal seeds.
    """
    out = out_dir or cfg.out
    if not out:
        raise ConfigError("out: output directory required (flag --out or key out)")
    existing = os.path.abspath(out)  # out, or the nearest ancestor that exists
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"out: {existing} is not a directory")
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
    )
    trace = result.trace
    summary = {
        "mode": cfg.mode,
        "iterations": len(trace),
        "seed": cfg.seed,
        "initial_loss": trace.records[0].loss,
        "final_loss": trace.records[-1].loss,
        "metric_name": task.metric_name,
        "metric_value": result.metric_value,
        "floats_sent_total": int(trace.total("floats_sent")),
        "words_sent_total": int(trace.total("words_sent")),
        "sim_time_total": float(trace.total("t_iter")),
        "cf_histogram": {repr(cf): count for cf, count in cf_histogram(trace).items()},
    }
    _write_outputs(out, {
        "trace.jsonl": trace.to_jsonl(),
        "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    })
    return summary


def _write_outputs(out: str, texts: Mapping[str, str]) -> None:
    """Write each file into a temp dir next to ``out``, then move them all in.

    A write that fails leaves ``out`` as it was. The files then move in dict
    order, one ``os.replace`` each, and the caller lists the summary last.
    Each move is atomic but the pair is not: a process killed between the
    two moves leaves a new ``trace.jsonl`` beside the previous run's
    ``summary.json``, and leaves its ``.staging-*`` dir next to ``out``.
    Every file is written before the first move, so in a pair from one run
    ``summary.json`` is no older than ``trace.jsonl``. Other files in
    ``out`` are left as they are.
    """
    os.makedirs(out, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=os.path.dirname(os.path.abspath(out)))
    try:
        for name, text in texts.items():
            with open(os.path.join(staging, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for name in texts:
            os.replace(os.path.join(staging, name), os.path.join(out, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _time_to_target(trace: RunTrace, target: float | None) -> float:
    times = trace.column("t_iter")
    if target is None:
        return float(times.sum())
    losses = trace.column("loss")
    reached = np.flatnonzero(losses <= target)
    if reached.size == 0:
        raise ValueError(f"trace never reached loss target {target}")
    return float(times[:reached[0] + 1].sum())


def compare_runs(a: RunTrace, b: RunTrace, target: float | None = None) -> dict:
    """A-over-B ratios of simulated time and volume plus the final-loss difference A - B.

    Finite trace values can still overflow once summed or subtracted; such a
    report is rejected with a ValueError naming the fields.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot compare empty traces")
    with np.errstate(over="ignore"):  # an overflowed total is rejected below
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
    report["final_loss_delta"] = report["final_loss_a"] - report["final_loss_b"]
    bad = [key for key, value in report.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"comparison overflows: {', '.join(bad)} not finite")
    return report
