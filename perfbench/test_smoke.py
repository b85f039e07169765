"""Smoke test of the benchmark itself, on runs a few iterations long.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--iters", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # trace 0: at least two repeats; trace 1: untraced/traced pairs, at least two
    assert result["attempted"] >= 2 and (not trace or result["attempted"] % 2 == 0)


def test_output_checks_catch_a_wrong_volume(tmp_path):
    info = run.Child(60).call("run", "mlp_small", 3, tmp_path / "out", 5)
    trace_text, summary_text = run.read_outputs(tmp_path / "out")
    summary = json.loads(summary_text)
    m = info["parameters"]
    assert run.check_outputs(trace_text, summary, m) == []
    rows = [json.loads(line) for line in trace_text.splitlines()]
    rows[2]["floats_sent"] += 1
    tampered = "".join(json.dumps(r) + "\n" for r in rows)
    problems = run.check_outputs(tampered, summary, m)
    assert any("iter 3" in p for p in problems)
    assert any("floats_sent_total" in p for p in problems)
    del rows[1]["theta_min"]
    missing = "".join(json.dumps(r) + "\n" for r in rows)
    assert any("IterationRecord" in p for p in run.check_outputs(missing, summary, m))


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mlp_small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_vanished_names_are_unmeasured_not_fatal():
    code = ("import tracer\n"
            "tracer.TARGETS += (('gone.module', 'gravac.gone', 'f', None),\n"
            "                   ('gone.method', 'gravac.tasks', 'SyntheticMlp.gone', None))\n"
            "print(tracer.install().missing)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "gravac.gone.f" in proc.stdout and "gravac.tasks.SyntheticMlp.gone" in proc.stdout

    doc = {"names": [], "span_name": [], "span_parent": [], "span_start": [],
           "span_end": [], "counters": {}, "broken_counters": [], "wrapped": [],
           "missing": []}
    row = {"choice": "dense", "t_iter": 2.0, "t_o": 1.0, "t_compress": 0.0, "t_s": 1.0,
           "words_sent": 8}
    info = {"iterations": 1, "seconds": 1.0, "cpu_s": 1.0, "calib_s": 1.0,
            "workers": 4}
    metrics = run.layer_metrics(doc, [row], info, info, 100)
    assert metrics["tasks.gradient_us"][0] is None
    assert metrics["compressors.elements_in"][0] is None
    assert metrics["costmodel.sync_share"][0] == 0.5
