"""What the benchmark in ``perfbench/`` needs from the package.

The benchmark wraps ``gravac`` functions from outside (``perfbench/tracer.py``)
and calls the compressors directly (``perfbench/child.py micro``). A renamed
function or a changed signature does not fail a run there: its span or
counter just reads as unmeasured. These tests run one short traced workload
and the compressor microbench and fail when anything the benchmark reads is
gone. They read ``perfbench/`` and change nothing in it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402

# tracer targets whose function was deleted on purpose; the span group of
# each stays measured through the group's other targets
DELETED_TARGETS = {"gravac.metrics.compression_gain_raw", "gravac.metrics.update_step"}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def child(*args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_measures_every_span_and_counter(tmp_path):
    out = tmp_path / "out"
    info = child("traced", "mlp_small", "3", str(out), "3")
    assert info["iterations"] == 3
    with open(out / "spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    assert set(spans["missing"]) <= DELETED_TARGETS
    assert spans["broken_counters"] == []
    assert set(spans["wrapped"]) == {name for name, *_ in tracer.TARGETS}
    counters = {c[0] for *_, c in tracer.TARGETS if c is not None}
    assert set(spans["counters"]) == counters
    assert all(v > 0 for v in spans["counters"].values())


@pytest.fixture(scope="module")
def traced_quadratic(tmp_path_factory):
    """Two traced quad_1m iterations: (run info, spans document)."""
    out = tmp_path_factory.mktemp("quad") / "out"
    info = child("traced", "quad_1m", "3", str(out), "2")
    assert info["iterations"] == 2
    with open(out / "spans.json", encoding="utf-8") as fh:
        return info, json.load(fh)


def test_traced_quadratic_spans_one_gradient_per_worker_and_iteration(traced_quadratic):
    # the quadratic computes its noiseless part once per iteration, but
    # tasks.gradient is spanned per worker, so each worker's draw is measured
    info, spans = traced_quadratic
    _, _, calls = tracer.self_times(spans)
    assert calls["tasks.gradient"] == info["workers"] * info["iterations"]


def test_traced_quadratic_spans_feedback_per_worker_and_iteration(traced_quadratic):
    # every quad_1m send is dense, so each residual is a zero view that owns
    # no buffer; the feedback calls still happen, and the byte counter reads
    # the length such a view still has
    info, spans = traced_quadratic
    _, _, calls = tracer.self_times(spans)
    per_run = info["workers"] * info["iterations"]
    assert calls["feedback.apply"] == calls["feedback.residual"] == per_run
    assert spans["counters"]["feedback.bytes"] > 0


def test_microbench_reports_ok_for_every_compressor():
    result = child("micro", "3")
    assert result["ok"]
    declared = {m["name"] for m in BENCHMARK["per_layer"]
                if m["name"].startswith("compressors.micro.")}
    assert set(result["micro"]) == declared
