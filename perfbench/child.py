"""One measured process of the benchmark; ``run.py`` starts a fresh one per run.

    child.py setup  WORKLOAD SEED [ITERS]      CPU time from start to a built run
    child.py run    WORKLOAD SEED OUT [ITERS]  one user run, untraced
    child.py traced WORKLOAD SEED OUT [ITERS]  the same run under the tracer
    child.py micro  SEED                       compressor microbench

Each prints one JSON object as its last line. Times are given as the
process's CPU seconds (``time.process_time``: user + system, all threads) and
as wall seconds; on a shared virtual machine the wall clock also counts time
the hypervisor gave the vCPU to other guests. ``gravac`` must be importable
(``run.py`` puts ``src/`` on ``PYTHONPATH``). A diverged run exits 3 and a
rejected config exits 2, as ``gravac run`` does.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MICRO_SIZE = 1_000_000
MICRO_CFS = (10, 1000)
MICRO_KINDS = ("topk", "dgc", "redsync", "randomk")
MICRO_STEP = 2.0  # the first rung of the controller's ladder
MICRO_REPS = 5


def _config(harness, workload: str, seed: int, iters: int | None):
    w = WORKLOADS[workload]
    path = os.path.join(ROOT, w.config) if w.config else None
    return harness.parse_config(path, w.settings(seed, iters))


def calibrate() -> float:
    """CPU seconds this process takes for fixed reference work.

    The work mixes what the workloads do: a Python loop, numpy ops on a
    small vector and numpy ops on a large one. ``run.py`` divides measured
    times by it, so that a spell of slower host (a busy hyperthread sibling,
    shared caches) does not read as slower code.
    """
    import numpy as np
    t0 = time.process_time()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    small = np.arange(4096, dtype=np.float32)
    for _ in range(25_000):
        small = small * np.float32(0.999) + np.float32(1.0)
    big = np.ones(1_000_000, dtype=np.float32)
    for _ in range(160):
        big = big * np.float32(0.999) + np.float32(1.0)
    return time.process_time() - t0


def setup(workload: str, seed: int, iters: int | None) -> dict:
    """What every ``gravac run`` pays before the first iteration, imports included."""
    from gravac import harness
    cfg = _config(harness, workload, seed, iters)
    task = cfg.build_task()
    cfg.build_optimizer(task)
    cfg.build_cost()
    cfg.build_compressor()
    cfg.build_controller()
    cpu_s, done = time.process_time(), time.monotonic()
    return {"cpu_s": cpu_s, "done": done, "calib_s": calibrate()}


def run(workload: str, seed: int, out: str, iters: int | None, traced: bool) -> dict:
    recorder = None
    if traced:
        import tracer
        recorder = tracer.install()
    from gravac import harness
    cfg = _config(harness, workload, seed, iters)
    t0, c0 = time.perf_counter(), time.process_time()
    summary = harness.run_experiment(cfg, out)
    seconds, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib = calibrate()
    if recorder is not None:
        recorder.save(os.path.join(out, "spans.json"))
    return {
        "seconds": seconds,
        "cpu_s": cpu_s,
        "iterations": summary["iterations"],
        "parameters": cfg.build_task().parameter_count,
        "workers": cfg.cost_workers,
        "maxrss_kb": maxrss_kb,
        "calib_s": calib,
    }


def micro(seed: int) -> dict:
    """Median busy time of each compression stage on one Gaussian M=1e6 vector.

    Stage 1 compresses the dense vector to ``cf``; stage 2 compresses that
    view by one ladder step. ``ok`` checks both keep counts.
    """
    import numpy as np
    from gravac.compressors import CompressorKind, compress, compress_further, keep_count
    from gravac.gradcore import GradientVector, SeededRng

    g = GradientVector(np.random.default_rng(seed).standard_normal(MICRO_SIZE)
                       .astype(np.float32))
    out, ok = {}, True
    for name in MICRO_KINDS:
        try:
            kind = CompressorKind(name)
        except ValueError:
            continue  # kind removed: its metrics stay unmeasured
        for cf in MICRO_CFS:
            first, second = [], []
            for rep in range(MICRO_REPS):
                rng = SeededRng(seed, rep)
                t0 = time.perf_counter()
                view, _ = compress(kind, g, cf, rng.split(0))
                t1 = time.perf_counter()
                stepped, _ = compress_further(kind, view, MICRO_STEP, rng.split(1))
                t2 = time.perf_counter()
                first.append(t1 - t0)
                second.append(t2 - t1)
                ok = ok and view.kept == keep_count(MICRO_SIZE, cf) \
                    and stepped.kept == keep_count(view.kept, MICRO_STEP)
            prefix = f"compressors.micro.{name}.cf{cf}"
            out[f"{prefix}.compress_us"] = statistics.median(first) * 1e6
            out[f"{prefix}.compress_further_us"] = statistics.median(second) * 1e6
    return {"micro": out, "ok": ok}


def main(argv: list[str]) -> int:
    from gravac.harness import ConfigError
    from gravac.simworkers import DivergenceError
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "setup":
            result = setup(rest[0], int(rest[1]), int(rest[2]) if len(rest) > 2 else None)
        elif mode in ("run", "traced"):
            result = run(rest[0], int(rest[1]), rest[2],
                         int(rest[3]) if len(rest) > 3 else None, mode == "traced")
        elif mode == "micro":
            result = micro(int(rest[0]))
        else:
            print(f"unknown mode {mode!r}", file=sys.stderr)
            return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
