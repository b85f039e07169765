"""Outside-in span tracer for the ``gravac`` modules.

``install`` wraps the functions listed in ``TARGETS`` at every name a
``gravac`` module looks them up by (``from .x import f`` copies the binding,
so each copy is replaced) and at class attributes for methods and
properties. Nothing under ``src/`` changes. Each call records a span --
name, start, end and parent span -- kept in memory until ``save`` writes
them out. ``self_times`` turns spans into per-name self time: a span's
duration minus the part covered by its children (calls are synchronous and
single-threaded, so children never overlap).

A target that no longer exists is skipped and listed in ``Tracer.missing``;
the metrics built only from missing targets are then reported unmeasured.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path, counter or None). A counter is
# (counter name, function of the call's positional args giving the amount).
TARGETS = (
    ("tasks.gradient", "gravac.tasks", "QuadraticBowl.gradient", None),
    ("tasks.gradient", "gravac.tasks", "SyntheticMlp.gradient", None),
    ("tasks.sample_batch", "gravac.tasks", "SyntheticMlp.sample_batch", None),
    ("tasks.loss", "gravac.tasks", "QuadraticBowl.loss", None),
    ("tasks.loss", "gravac.tasks", "_cross_entropy", None),
    ("gradcore.rng_split", "gravac.gradcore", "SeededRng.split", None),
    ("gradcore.rng_generator", "gravac.gradcore", "SeededRng.generator", None),
    ("gradcore.norm", "gravac.gradcore", "squared_l2_norm", None),
    ("compressors.compress", "gravac.compressors", "compress",
     ("compressors.elements_in", lambda a: a[1].length)),
    ("compressors.compress_further", "gravac.compressors", "compress_further",
     ("compressors.elements_in", lambda a: a[1].kept)),
    ("compressors.validate", "gravac.compressors", "SparseGradient.__post_init__", None),
    ("compressors.aggregate", "gravac.compressors", "aggregate", None),
    ("compressors.aggregate", "gravac.compressors", "aggregate_dense", None),
    # float32 bytes read plus written: g + residual -> out; copy + scatter; fill
    ("feedback.apply", "gravac.feedback", "apply_feedback",
     ("feedback.bytes", lambda a: 12 * a[0].length)),
    ("feedback.residual", "gravac.feedback", "update_residual",
     ("feedback.bytes", lambda a: 8 * a[0].length + 12 * a[1].kept)),
    ("feedback.residual", "gravac.feedback", "clear_residual",
     ("feedback.bytes", lambda a: 4 * a[0].length)),
    ("metrics.gain", "gravac.metrics", "compression_gain_raw", None),
    ("metrics.gain", "gravac.metrics", "GainTracker.observe", None),
    ("metrics.gain", "gravac.metrics", "update_step", None),
    ("controller.step", "gravac.controller", "run_iteration", None),
    ("controller.step", "gravac.controller", "check_gravac", None),
    ("controller.step", "gravac.controller", "select_cf", None),
    ("controller.step", "gravac.controller", "scaling_policy", None),
    ("simworkers.loop", "gravac.simworkers", "run_training", None),
    ("simworkers.sgd", "gravac.simworkers", "sgd_update", None),
    ("kdestats.kde", "gravac.kdestats", "gaussian_kde", None),
    ("kdestats.kde", "gravac.kdestats", "default_grid", None),
    ("kdestats.kde", "gravac.kdestats", "cf_usage_samples", None),
    ("kdestats.kde", "gravac.kdestats", "cf_histogram", None),
    ("harness.parse_config", "gravac.harness", "parse_config", None),
    ("harness.build_task", "gravac.harness", "RunConfig.build_task", None),
    ("harness.persist", "gravac.harness", "run_experiment", None),
    ("harness.persist", "gravac.simworkers", "RunTrace.to_jsonl", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.broken_counters: set[str] = set()
        self.missing: list[str] = []
        self.wrapped: set[str] = set()

    def wrap(self, name: str, fn, counter=None):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        clock, stack = time.perf_counter, self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if counter is not None:
                    self._count(counter, args)

        traced.__wrapped__ = fn
        return traced

    def _count(self, counter, args):
        key, amount = counter
        try:
            self.counters[key] = self.counters.get(key, 0) + int(amount(args))
        except (AttributeError, IndexError, TypeError):
            # the call signature changed: this counter becomes unmeasured
            self.broken_counters.add(key)

    def save(self, path: str) -> None:
        """Write the spans and counters as one JSON document."""
        doc = {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_start": self.span_start.tolist(),
            "span_end": self.span_end.tolist(),
            "counters": self.counters,
            "broken_counters": sorted(self.broken_counters),
            "wrapped": sorted(self.wrapped),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install() -> Tracer:
    """Wrap every target; returns the tracer that collects their spans."""
    tracer = Tracer()
    importlib.import_module("gravac")  # imports every submodule
    gravac_modules = [m for n, m in sys.modules.items() if n == "gravac" or n.startswith("gravac.")]
    for name, module_name, path, counter in TARGETS:
        *outer, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, ImportError, KeyError):
            tracer.missing.append(f"{module_name}.{path}")
            continue
        tracer.wrapped.add(name)
        if isinstance(raw, property):
            setattr(owner, attr, property(tracer.wrap(name, raw.fget, counter)))
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(name, raw, counter))
        else:
            wrapped = tracer.wrap(name, raw, counter)
            for module in gravac_modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
    return tracer


def self_times(doc: dict) -> tuple[dict, dict, dict]:
    """Per span name: (self seconds, inclusive seconds, call count)."""
    names = doc["names"]
    dur = [e - s for s, e in zip(doc["span_start"], doc["span_end"])]
    child = [0.0] * len(dur)
    for parent, d in zip(doc["span_parent"], dur):
        if parent >= 0:
            child[parent] += d
    self_s = dict.fromkeys(names, 0.0)
    incl_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for nid, d, c in zip(doc["span_name"], dur, child):
        key = names[nid]
        self_s[key] += d - c
        incl_s[key] += d
        calls[key] += 1
    return self_s, incl_s, calls
