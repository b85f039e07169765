"""Benchmark workloads: each is a user run of ``gravac`` with a fixed config.

A workload is a config file (relative to the checkout root, or None for the
built-in defaults) plus dotted-key overrides, exactly what ``gravac run
--config FILE --set KEY=VALUE`` would receive. The benchmark's ``--seed``
becomes the run's ``seed`` key; everything else is fixed here. Why each
benchmark workload exists is said in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None
    overrides: dict = field(default_factory=dict)
    default_seed: int = 0

    def settings(self, seed: int, iters: int | None = None) -> dict:
        """The overrides for one run; ``iters`` shortens it (smoke test only)."""
        out = dict(self.overrides, seed=str(seed))
        if iters is not None:
            out["iters"] = str(iters)
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mlp_small",
        config="configs/mlp_adaptive.cfg",
        default_seed=42),
    Workload(
        name="mlp_wide",
        config="configs/mlp_adaptive.cfg",
        overrides={"task.widths": "1024,256,64,2", "compressor.kind": "dgc",
                   "controller.epsilon": "0.5", "iters": "300"},
        default_seed=42),
    Workload(
        name="quad_1m",
        config=None,
        overrides={"task.kind": "quadratic", "task.size": "1000000",
                   "task.batch_size": "1", "task.noise_std": "0.1",
                   "compressor.kind": "redsync", "controller.epsilon": "0.5",
                   "controller.window": "20", "opt.lr": "0.1",
                   "opt.momentum": "0", "iters": "20"},
        default_seed=1),
)}
