"""The gravac benchmark: user runs of each workload, timed and checked.

    python3 perfbench/run.py --workload mlp_wide --seed 42 --seconds 55 --trace 0

Run from a checkout root (``src/gravac`` must exist). With ``--trace 0`` it
repeats the workload's run in a fresh process each time until ``--seconds``
is used up, with set-up probes in fresh processes before each repeat, checks
every output and prints the end-to-end metrics. With ``--trace 1`` it times
the compressors at M=1e6, then alternates untraced and traced runs of the
same seed until ``--seconds`` is used up, requires each pair's outputs to be
byte-identical and prints the per-layer metrics. Runs go one at a time;
child processes get one BLAS thread. ``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``.

The times that gate (``iters_per_s``, ``setup_s``) are host-corrected CPU
seconds. Each is the child process's CPU time, because on a shared virtual
machine the wall clock also counts the time the hypervisor hands the vCPU to
other guests. That CPU time is then scaled by ``REFERENCE_S`` over the CPU
time the same process takes for fixed reference work (``child.calibrate``)
right after, because the host also runs for seconds to minutes at a time
up to a third slower. Raw CPU and wall figures are printed alongside.

Every metric is printed as ``name = value unit``; the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` count user runs; ``correct`` is false when anything failed,
set-up probes and the microbench included. A metric whose instrumented
names no longer exist prints ``null``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
SETUP_PROBES_PER_REPEAT = 2
MIN_REPEATS = 2  # byte-identity across repeats needs two
DEADLINE_MARGIN_S = 90  # every child ends this long after --seconds at the latest
USER_RUNS = ("run", "traced")
# CPU seconds of child.calibrate on the machine the benchmark was defined on
# (README), when undisturbed; measured times are expressed at that speed
REFERENCE_S = 0.35

END_TO_END_UNITS = {
    "iters_per_s": "iter/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_time": "modeled_s",
    "words_reduction": "x",
    "tail_loss": "loss",
    "ok_ratio": "fraction",
}

sys.path.insert(0, HERE)
import tracer  # noqa: E402
from child import MICRO_CFS, MICRO_KINDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Child:
    """Runs ``child.py`` in fresh processes.

    ``runs`` counts the user runs started (``run`` and ``traced`` calls) and
    ``failed_runs`` those that raised, diverged or failed an output check.
    ``problems`` lists every failure, set-up probes and the microbench too.
    """

    def __init__(self, seconds: float):
        self.runs = 0
        self.failed_runs = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        self.env.pop("GRAVAC_SEED", None)
        self.limit = seconds + DEADLINE_MARGIN_S
        self.deadline = time.monotonic() + self.limit

    def call(self, mode: str, *args) -> dict | None:
        if mode in USER_RUNS:
            self.runs += 1
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, *map(str, args)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.fail(mode, f"{mode} still running {self.limit:.0f} s after the benchmark started")
            return None
        if proc.returncode != 0:
            self.fail(mode, f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def fail(self, mode: str, problem: str) -> None:
        if mode in USER_RUNS:
            self.failed_runs += 1
        self.problems.append(problem)


# ---- output checks -------------------------------------------------------

def record_fields() -> list[str]:
    import dataclasses

    from gravac.simworkers import IterationRecord
    return [f.name for f in dataclasses.fields(IterationRecord)]


def check_outputs(trace_text: str, summary: dict, parameters: int) -> list[str]:
    """Problems with one run's trace and summary; empty when all hold."""
    import numpy as np

    fields = set(record_fields())
    rows = [json.loads(line) for line in trace_text.splitlines()]
    problems = []
    for row in rows:
        if set(row) != fields:
            problems.append(f"iter {row.get('iter')}: fields {sorted(set(row) ^ fields)} "
                            "differ from IterationRecord")
            return problems
        if row["choice"] == "dense":
            want = (parameters, parameters)
        else:
            kept = max(1, math.floor(parameters / row["cf"]))
            want = (kept, 2 * kept)
        if (row["floats_sent"], row["words_sent"]) != want:
            problems.append(f"iter {row['iter']} ({row['choice']}, cf {row['cf']}): sent "
                            f"{row['floats_sent']} floats / {row['words_sent']} words, "
                            f"expected {want[0]} / {want[1]}")
    totals = {
        "iterations": len(rows),
        "floats_sent_total": sum(r["floats_sent"] for r in rows),
        "words_sent_total": sum(r["words_sent"] for r in rows),
        "sim_time_total": float(np.asarray([r["t_iter"] for r in rows]).sum()),
    }
    for key, value in totals.items():
        if summary.get(key) != value:
            problems.append(f"summary {key} = {summary.get(key)!r}, trace gives {value!r}")
    counts = Counter(repr(float(r["cf"])) for r in rows)
    if summary.get("cf_histogram") != dict(counts):
        problems.append("summary cf_histogram differs from the trace's cf counts")
    return problems


def read_outputs(out: str) -> tuple[str, str]:
    with open(os.path.join(out, "trace.jsonl"), encoding="utf-8") as fh:
        trace_text = fh.read()
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary_text = fh.read()
    return trace_text, summary_text


def outcome_metrics(trace_text: str, parameters: int) -> dict:
    rows = [json.loads(line) for line in trace_text.splitlines()]
    tail = rows[-max(1, len(rows) // 10):]
    return {
        "sim_time": sum(r["t_iter"] for r in rows),
        "words_reduction": parameters * len(rows) / sum(r["words_sent"] for r in rows),
        "tail_loss": sum(r["loss"] for r in tail) / len(tail),
    }


# ---- trace 0: end-to-end -------------------------------------------------

def check_runs(child: Child, mode: str, runs: list[dict], outputs: list[tuple[str, str]],
               reference: tuple[str, str], start: int = 0) -> None:
    """Fail each run whose outputs break a check or differ from ``reference``."""
    checked: dict[tuple[str, str], list[str]] = {}
    for i, (info, files) in enumerate(zip(runs, outputs), start=start):
        if files not in checked:
            checked[files] = check_outputs(files[0], json.loads(files[1]), info["parameters"])
        problems = list(checked[files])
        if files != reference:
            problems.append("trace.jsonl/summary.json differ from the first untraced run's")
        if problems:
            child.fail(mode, f"{mode} {i}: " + "; ".join(problems[:5]))


def ref_rate(info: dict, calib_s: float) -> float:
    """Iterations per second of a run at the reference host speed."""
    return info["iterations"] / info["cpu_s"] * calib_s / REFERENCE_S


def end_to_end(child: Child, workload: str, seed: int, seconds: float,
               iters: int | None, scratch: str) -> dict:
    extra = [iters] if iters else []
    probes = []
    timeline = []  # calibration times of probes and repeats, in the order they ran

    def probe(count: int) -> None:
        for _ in range(count):
            t0 = time.monotonic()
            done = child.call("setup", workload, seed, *extra)
            if done is not None:
                probes.append((done["cpu_s"], done["calib_s"], done["done"] - t0))
                timeline.append(done["calib_s"])

    # probes go right before each repeat, so that they see the same host
    # phases as the timed repeats; a repeat's host speed is the mean
    # calibration of the probes around it and of its own process
    runs, outputs = [], []
    started = time.monotonic()
    attempts = 0
    while True:
        probe(SETUP_PROBES_PER_REPEAT)
        out = os.path.join(scratch, f"rep{attempts}")
        attempts += 1
        info = child.call("run", workload, seed, out, *extra)
        if info is not None:
            info["at"] = len(timeline)
            timeline.append(info["calib_s"])
            runs.append(info)
            outputs.append(read_outputs(out))
            shutil.rmtree(out)
        projected = (time.monotonic() - started) * (attempts + 1) / attempts
        if attempts >= MIN_REPEATS and (child.problems or projected > seconds):
            break
    probe(1)

    metrics = {}
    if probes:
        metrics["setup_s"] = statistics.median(cpu * REFERENCE_S / calib
                                               for cpu, calib, _ in probes)
        print("setup per probe (cpu s / calib s / wall s): "
              + ", ".join(f"{c:.4g}/{k:.4g}/{w:.4g}" for c, k, w in probes))
    if runs:
        check_runs(child, "run", runs, outputs, outputs[0])
        print("repeats (iterations / cpu s / calib s / wall s): "
              + ", ".join(f"{r['iterations']}/{r['cpu_s']:.4g}/{r['calib_s']:.4g}/"
                          f"{r['seconds']:.4g}" for r in runs))
        metrics["iters_per_s"] = statistics.median(
            ref_rate(r, statistics.fmean(timeline[max(0, r["at"] - SETUP_PROBES_PER_REPEAT):
                                                  r["at"] + SETUP_PROBES_PER_REPEAT + 1]))
            for r in runs)
        metrics["peak_rss_mb"] = statistics.median(r["maxrss_kb"] / 1024 for r in runs)
        metrics.update(outcome_metrics(outputs[0][0], runs[0]["parameters"]))
    metrics["ok_ratio"] = 1.0 - child.failed_runs / child.runs
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


# ---- trace 1: per layer --------------------------------------------------

def layer_metrics(doc: dict, rows: list[dict], info: dict, plain: dict,
                  trace_bytes: int) -> dict:
    """Per-layer metrics of one traced run; None where nothing was instrumented.

    ``_us`` is busy (self) microseconds per simulated iteration, a count is
    per iteration, ``_ms`` values are per run. ``plain`` is the untraced run
    paired with this one.
    """
    self_s, incl_s, calls = tracer.self_times(doc)
    wrapped = set(doc["wrapped"])
    iters = info["iterations"]
    counters = doc["counters"]

    def measured(spans):
        return any(s in wrapped for s in spans)

    def busy_us(*spans):
        return sum(self_s.get(s, 0.0) for s in spans) / iters * 1e6 if measured(spans) else None

    def busy_ms(*spans):
        return sum(self_s.get(s, 0.0) for s in spans) * 1e3 if measured(spans) else None

    def per_iter(span):
        return calls.get(span, 0) / iters if measured([span]) else None

    def counted(key, span):
        if not measured([span]) or key in doc["broken_counters"]:
            return None
        return counters.get(key, 0) / iters

    n = len(rows)
    choices = [r["choice"] for r in rows]
    t_iter = sum(r["t_iter"] for r in rows)
    built = calls.get("compressors.compress", 0) + calls.get("compressors.compress_further", 0)
    sent = info["workers"] * sum(c != "dense" for c in choices)
    return {
        "tasks.gradient_us": (busy_us("tasks.gradient"), "us"),
        "tasks.sample_batch_us": (busy_us("tasks.sample_batch"), "us"),
        "tasks.loss_us": (busy_us("tasks.loss"), "us"),
        "tasks.gradient_calls": (per_iter("tasks.gradient"), "count"),
        "gradcore.rng_split_calls": (per_iter("gradcore.rng_split"), "count"),
        "gradcore.rng_generator_calls": (per_iter("gradcore.rng_generator"), "count"),
        "gradcore.rng_us": (busy_us("gradcore.rng_split", "gradcore.rng_generator"), "us"),
        "gradcore.norm_us": (busy_us("gradcore.norm"), "us"),
        "compressors.compress_us": (busy_us("compressors.compress"), "us"),
        "compressors.compress_further_us": (busy_us("compressors.compress_further"), "us"),
        "compressors.elements_in": (counted("compressors.elements_in",
                                            "compressors.compress"), "count"),
        "compressors.validate_us": (busy_us("compressors.validate"), "us"),
        "compressors.aggregate_us": (busy_us("compressors.aggregate"), "us"),
        "feedback.apply_us": (busy_us("feedback.apply"), "us"),
        "feedback.residual_us": (busy_us("feedback.residual"), "us"),
        "feedback.bytes": (counted("feedback.bytes", "feedback.apply"), "B"),
        "metrics.gain_us": (busy_us("metrics.gain"), "us"),
        "controller.self_us": (busy_us("controller.step"), "us"),
        "controller.useful_compress_ratio": ((sent / built if built else 0.0)
                                             if measured(["compressors.compress"]) else None,
                                             "fraction"),
        "controller.candidate_share": (choices.count("candidate") / n, "fraction"),
        "controller.dense_share": (choices.count("dense") / n, "fraction"),
        "costmodel.compute_share": (sum(r["t_o"] for r in rows) / t_iter, "fraction"),
        "costmodel.compress_share": (sum(r["t_compress"] for r in rows) / t_iter, "fraction"),
        "costmodel.sync_share": (sum(r["t_s"] for r in rows) / t_iter, "fraction"),
        "costmodel.words_per_iter": (sum(r["words_sent"] for r in rows) / n, "words"),
        "simworkers.self_us": (busy_us("simworkers.loop"), "us"),
        "simworkers.sgd_us": (busy_us("simworkers.sgd"), "us"),
        "kdestats.ms_per_run": (busy_ms("kdestats.kde"), "ms"),
        "harness.setup_ms": (incl_s.get("harness.parse_config", 0.0) * 1e3
                             if measured(["harness.parse_config"]) else None, "ms"),
        "harness.task_builds": (calls.get("harness.build_task", 0)
                                if measured(["harness.build_task"]) else None, "count"),
        "harness.persist_ms_per_run": (busy_ms("harness.persist"), "ms"),
        "harness.trace_bytes": (trace_bytes, "B"),
        "tracing.overhead_iters_per_s": (ref_rate(plain, plain["calib_s"])
                                         - ref_rate(info, info["calib_s"]), "iter/ref_s"),
    }


def per_layer(child: Child, workload: str, seed: int, seconds: float, iters: int | None,
              scratch: str) -> dict:
    """Per-layer metrics: median over alternated untraced/traced pairs."""
    extra = [iters] if iters else []
    started = time.monotonic()
    micro = child.call("micro", seed)
    if micro is not None and not micro["ok"]:
        child.fail("micro", "compressor microbench kept the wrong number of entries")

    per_pair: list[dict] = []
    reference = None
    attempts = 0
    while True:
        plain_out = os.path.join(scratch, f"plain{attempts}")
        traced_out = os.path.join(scratch, f"traced{attempts}")
        attempts += 1
        plain = child.call("run", workload, seed, plain_out, *extra)
        traced = child.call("traced", workload, seed, traced_out, *extra)
        if plain is not None:
            plain_files = read_outputs(plain_out)
            reference = reference or plain_files
            check_runs(child, "run", [plain], [plain_files], reference, attempts - 1)
            if traced is not None:
                check_runs(child, "traced", [traced], [read_outputs(traced_out)], plain_files,
                           attempts - 1)
                with open(os.path.join(traced_out, "spans.json"), encoding="utf-8") as fh:
                    doc = json.load(fh)
                if doc["missing"] and not per_pair:
                    print(f"not instrumented (gone from the code): {', '.join(doc['missing'])}")
                rows = [json.loads(line) for line in plain_files[0].splitlines()]
                per_pair.append(layer_metrics(doc, rows, traced, plain,
                                              len(plain_files[0].encode("utf-8"))))
        elif traced is not None:
            child.fail("traced", f"traced {attempts - 1}: no untraced run to compare with")
        shutil.rmtree(plain_out, ignore_errors=True)
        shutil.rmtree(traced_out, ignore_errors=True)
        projected = (time.monotonic() - started) * (attempts + 1) / attempts
        if attempts >= MIN_REPEATS and (child.problems or projected > seconds):
            break

    metrics = {}
    for name, (_, unit) in (per_pair[0].items() if per_pair else ()):
        values = [pair[name][0] for pair in per_pair]
        metrics[name] = (None if None in values else statistics.median(values), unit)
    if len(per_pair) >= 2:
        overhead = [pair["tracing.overhead_iters_per_s"][0] for pair in per_pair]
        q1, median, q3 = statistics.quantiles(overhead, n=4)
        verdict = "unresolved: the pairs spread wider than the median" \
            if q3 - q1 > abs(median) else "resolved"
        print(f"tracing overhead per pair (iter/ref_s): "
              f"{', '.join(f'{v:.4g}' for v in overhead)}; {verdict}")
    for name in (f"compressors.micro.{k}.cf{cf}.{stage}_us" for k in MICRO_KINDS
                 for cf in MICRO_CFS for stage in ("compress", "compress_further")):
        metrics[name] = ((micro or {}).get("micro", {}).get(name), "us")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---- machine record ------------------------------------------------------

def machine() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor() or "unknown"
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as lv, \
                    open(os.path.join(index, "type")) as ty, \
                    open(os.path.join(index, "size")) as sz:
                level, kind, size = lv.read().strip(), ty.read().strip(), sz.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"l{level}"] = size
    lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    info["src_loc"] = lines
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the repeated runs "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iters", type=int, default=None,
                        help="shorten every run to this many iterations (smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "gravac")):
        print(f"no gravac sources under {SRC}; run from a gravac checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build)
    child = Child(seconds)
    try:
        if args.trace:
            metrics = per_layer(child, args.workload, seed, seconds, args.iters, scratch)
        else:
            metrics = end_to_end(child, args.workload, seed, seconds, args.iters, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    for problem in child.problems:
        print(f"FAILED: {problem}")
    for name, m in metrics.items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} = {value} {m['unit']}")
    print(json.dumps({"correct": not child.problems, "attempted": child.runs,
                      "failed": child.failed_runs, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
