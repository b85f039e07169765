import glob
import io
import json
import math
import os
import shlex
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gravac.cli import build_parser, main
from gravac.compressors import KIND_NAMES
from gravac.harness import (ConfigError, compare_runs, parse_config,
                            run_experiment, serialize_config)
from gravac.controller import ControllerConfig
from gravac.costmodel import CostModelParams
from gravac.simworkers import MODES, IterationRecord, OptimizerState, RunTrace
from gravac.tasks import TASK_CLASSES, TASK_KINDS, QuadraticBowl, SyntheticMlp

QUAD_BASE = {
    "task.kind": "quadratic",
    "task.size": "64",
    "task.batch_size": "2",
    "task.noise_std": "0.1",
    "opt.lr": "0.05",
    "opt.momentum": "0.0",
    "iters": "40",
    "seed": "5",
    "cost.workers": "2",
}


def readme_block(section, language):
    """The first ``language`` code block under README's ``## section`` heading."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split(f"## {section}\n", 1)[1].split(f"```{language}\n", 1)[1]
    return block.split("```", 1)[0]


def quad_config(**extra):
    overrides = dict(QUAD_BASE)
    overrides.update({k: str(v) for k, v in extra.items()})
    return parse_config(overrides=overrides)


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs",
                                                "*.cfg")))


class TestParseConfig:
    def test_defaults_roundtrip(self, tmp_path):
        cfg = parse_config()
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert parse_config(str(path)) == cfg

    # a key that a shipped config sets cannot be deleted without the config
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
    def test_shipped_config_parses(self, path):
        parse_config(path)

    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("task.kind = quadratic\nmode = dense\n")
        cfg = parse_config(str(path))
        assert cfg.task_kind == "quadratic"
        assert cfg.mode == "dense"
        assert cfg.controller_window == 500  # default untouched

    def test_epsilon_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match=r"epsilon out of \(0,1\)"):
            parse_config(overrides={"controller.epsilon": "1.5"})

    def test_paper_shaped_controller_settings(self):
        cfg = parse_config(overrides={
            "controller.theta_min": "10", "controller.theta_max": "1000",
            "controller.epsilon": "0.7", "controller.window": "500",
            "controller.omega": "0.01"})
        assert cfg.controller_theta_min == 10.0
        assert cfg.controller_theta_max == 1000.0
        assert cfg.controller_epsilon == 0.7
        assert cfg.controller_window == 500
        assert cfg.controller_omega == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(overrides={"controller.gamma": "1"})

    def test_unparseable_value_names_field(self):
        with pytest.raises(ConfigError, match="controller.window"):
            parse_config(overrides={"controller.window": "soon"})

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# settings\n\nmode = dense  # inline note\n")
        assert parse_config(str(path)).mode == "dense"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode dense\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/run.cfg")

    def test_file_that_is_not_utf8_rejected_naming_it(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"iters = 2\n\xff = 3\n")
        with pytest.raises(ConfigError, match=f"cannot read config file {path}: 'utf-8' codec"):
            parse_config(str(path))

    def test_theta_ordering_cross_check(self):
        with pytest.raises(ConfigError, match="theta_max"):
            parse_config(overrides={"controller.theta_min": "100",
                                    "controller.theta_max": "10"})

    @pytest.mark.parametrize("key,value,message", [
        ("opt.lr", "0", "opt: learning rate"),
        ("opt.momentum", "1", "opt: momentum"),
        ("controller.epsilon", "1.5", "controller: epsilon out of (0,1): 1.5")])
    def test_domain_error_names_its_section(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            parse_config(overrides={key: value})
        assert str(info.value).startswith(message)

    def test_parse_builds_each_task_class_once(self, monkeypatch):
        built = []
        for kind, cls in TASK_CLASSES.items():
            def post_init(self, cls=cls):
                built.append(cls.__name__)
                cls.__post_init__(self)
            monkeypatch.setitem(TASK_CLASSES, kind,
                                type(cls.__name__, (cls,), {"__post_init__": post_init}))
        parse_config(overrides={"task.kind": "quadratic", "task.size": "8"})
        assert sorted(built) == ["QuadraticBowl", "SyntheticMlp"]

    def test_ranges_are_checked_on_the_effective_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("iters = 0\ncontroller.epsilon = 1.5\n")
        with pytest.raises(ConfigError, match="iters"):
            parse_config(str(path))
        cfg = parse_config(str(path), {"iters": "5", "controller.epsilon": "0.5"})
        assert (cfg.iters, cfg.controller_epsilon) == (5, 0.5)


# one out-of-range value for every range-checked key
OUT_OF_RANGE = {
    "mode": "bogus", "static_cf": "0.5", "iters": "0",
    "seed": str(2**53),
    "task.kind": "transformer", "task.size": "0", "task.batch_size": "0",
    "task.noise_std": "-0.1", "task.blob_distance": "-1", "task.blob_spread": "-1",
    "task.feature_decades": "-1",
    "controller.theta_min": "0.5", "controller.theta_max": "0.5",
    "controller.epsilon": "1.5", "controller.omega": "0", "controller.window": "0",
    "controller.policy": "linear", "compressor.kind": "signsgd",
    "cost.alpha": "-1", "cost.beta": "-1", "cost.workers": "0",
    "cost.topology": "mesh", "cost.t_compute": "-1",
}


# a task key is rejected whichever task kind the run uses
@pytest.mark.parametrize("key,value,kind", [
    (key, value, kind) for key, value in OUT_OF_RANGE.items()
    for kind in (TASK_KINDS if key.startswith("task.") and key != "task.kind"
                 else TASK_KINDS[-1:])])
def test_out_of_range_value_rejected_naming_its_section(key, value, kind):
    with pytest.raises(ConfigError) as info:
        parse_config(overrides={"task.kind": kind, key: value})
    assert str(info.value).startswith(key.split(".")[0])


# the config parser rejects non-finite values first; the domain classes
# reject them too when built directly
@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: QuadraticBowl(size=2, curvature=[np.inf, 1]), "curvature",
                 id="curvature"),
    pytest.param(lambda: QuadraticBowl(size=4, init_offset=np.inf), "init_offset",
                 id="init_offset"),
    pytest.param(lambda: QuadraticBowl(noise_std=np.inf), "noise_std", id="noise_std"),
    pytest.param(lambda: SyntheticMlp(feature_decades=np.inf), "feature_decades",
                 id="feature_decades"),
    pytest.param(lambda: OptimizerState(weights=np.zeros(1), lr=np.inf), "learning rate",
                 id="lr"),
    pytest.param(lambda: ControllerConfig(theta_max=np.inf), "theta_max", id="theta_max"),
    pytest.param(lambda: CostModelParams(beta=np.inf), "beta", id="beta")])
def test_domain_classes_reject_non_finite_settings(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# every config key but the two that size an allocation while the config is
# validated: a large task.size or task.widths would allocate, not fail
FUZZ_KEYS = [key for key in (line.split(" = ")[0]
                             for line in serialize_config(parse_config()).splitlines())
             if key not in ("task.size", "task.widths")]
# floats spread over every decade up to 1e308, so that products overflow
_FLOAT = st.builds("{}e{}".format, st.floats(-9.9, 9.9), st.integers(-330, 307))
_NUMBER = st.one_of(_FLOAT, st.integers(-2**70, 2**70).map(str),
                    st.sampled_from(["nan", "-inf", "inf"]))
FUZZ_VALUES = st.one_of(_FLOAT, st.lists(_NUMBER, min_size=1, max_size=4).map(",".join),
                        _NUMBER, st.text(max_size=12))


@pytest.mark.parametrize("key", FUZZ_KEYS)
@settings(max_examples=50, deadline=None)
@example(value="1e308", others={})
@given(value=FUZZ_VALUES, others=st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES,
                                                 max_size=2))
def test_any_override_parses_or_is_a_config_error(key, value, others):
    # numpy warnings are errors here: a value the config rejects must not
    # print one before the error line
    try:
        parse_config(overrides={**others, key: value})
    except ConfigError:
        pass


# config-file lines: key = value over the RunConfig keys, unknown and repeated
# keys, comments, blank lines and lines without '=', in bytes that may hold
# NUL or not be UTF-8
_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(FUZZ_KEYS), FUZZ_VALUES),
    st.builds("{}={}".format, st.text(max_size=8), st.text(max_size=8)),
    st.builds("# {}".format, st.text(max_size=12)),
    st.just(""), st.text(max_size=12))
_CONFIG_BYTES = st.one_of(
    st.lists(_LINE, max_size=6).map(lambda lines: "\n".join(lines).encode()),
    st.lists(_LINE, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-16")),
    st.binary(max_size=40))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(data=b"iters = 2\n\xff = 3\n")
@example(data=b"mode = dense\x00\n")
@given(data=_CONFIG_BYTES)
def test_any_config_file_parses_or_is_a_config_error(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        parse_config(str(path))
    except ConfigError:
        pass


# small whole runs over both tasks, every mode and compressor, with learning
# rates, noise and scales over decades up to 1e300, so that some diverge
_DECADE = st.builds("{}e{}".format, st.integers(1, 9), st.integers(-4, 300))
WHOLE_RUN_KEYS = {
    "task.kind": st.sampled_from(TASK_KINDS),
    "mode": st.sampled_from(MODES),
    "compressor.kind": st.sampled_from(KIND_NAMES),
    "task.size": st.integers(1, 64).map(str),
    "task.widths": st.lists(st.integers(1, 8), min_size=1, max_size=3).map(
        lambda hidden: ",".join(map(str, [*hidden, 2]))),
    "task.batch_size": st.integers(1, 4).map(str),
    "task.noise_std": st.one_of(st.just("0"), _DECADE),
    "task.init_offset": _DECADE,
    "task.blob_spread": _DECADE,
    "opt.lr": _DECADE,
    "opt.momentum": st.sampled_from(["0", "0.9"]),
    "static_cf": st.builds("{}e{}".format, st.integers(1, 9), st.integers(0, 3)),
    "controller.theta_min": st.sampled_from(["1", "2", "10"]),
    "controller.epsilon": st.sampled_from(["0.1", "0.5", "0.9"]),
    "controller.window": st.integers(1, 3).map(str),
    "cost.workers": st.integers(1, 8).map(str),
    "iters": st.integers(1, 4).map(str),
    "seed": st.integers(0, 1000).map(str),
}
_WHOLE_RUN = st.fixed_dictionaries(WHOLE_RUN_KEYS)


def test_whole_run_keys_are_config_keys(capsys):
    # a key that no longer exists would make every whole run exit 2, and the
    # fuzz below would pass without running anything
    assert main(["print-config"]) == 0
    listed = {line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()}
    assert set(WHOLE_RUN_KEYS) <= listed


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# each example printed a numpy warning: noise beyond the float32 range,
@example(overrides={"task.kind": "quadratic", "task.size": "16", "task.noise_std": "1e300",
                    "iters": "3"})
# inf noise meeting an inf gradient of the other sign,
@example(overrides={"task.kind": "quadratic", "task.size": "16", "task.batch_size": "1",
                    "task.noise_std": "1e39", "task.init_offset": "1e39", "iters": "1"})
# an MLP gradient beyond the float32 range,
@example(overrides={"task.kind": "synthetic_mlp", "task.widths": "1,2",
                    "task.blob_spread": "1e39", "iters": "1"})
# diverging weights overflowing the MLP's backward pass, the SGD step and the
# evaluation's forward pass
@example(overrides={"task.kind": "synthetic_mlp", "task.widths": "1,1,1,2",
                    "task.batch_size": "1", "task.blob_spread": "1e2", "opt.lr": "1e155",
                    "opt.momentum": "0", "controller.theta_min": "1", "cost.workers": "1",
                    "iters": "2", "seed": "3"})
@example(overrides={"task.kind": "quadratic", "task.size": "16", "task.noise_std": "1e30",
                    "opt.lr": "1e300", "iters": "2"})
@example(overrides={"task.kind": "synthetic_mlp", "task.widths": "8,8,2", "opt.lr": "1e308",
                    "opt.momentum": "0", "iters": "1"})
# a final quadratic loss that overflows float64
@example(overrides={"task.kind": "quadratic", "task.size": "4", "opt.lr": "1e300",
                    "opt.momentum": "0", "iters": "1"})
# MLP features beyond the float32 range, which the config rejects
@example(overrides={"task.kind": "synthetic_mlp", "task.widths": "8,4,2",
                    "task.blob_spread": "1e160", "iters": "1"})
# saturated tanh units whose random-k picks are all zero: a gain of 0
@example(overrides={"task.kind": "synthetic_mlp", "task.widths": "8,1,2",
                    "task.blob_spread": "1e3", "mode": "static-cf",
                    "compressor.kind": "randomk", "static_cf": "2e1", "cost.workers": "1",
                    "iters": "2", "seed": "0"})
@given(overrides=_WHOLE_RUN)
def test_any_small_run_exits_cleanly(tmp_path, overrides):
    # numpy warnings are errors here: a run ends with exit 0, a rejected
    # config (2) or a divergence (3), in at most one line of stderr, and a
    # finished run's summary is standard JSON. The fuzz draws nothing that
    # only the run rejects, so exit 2 means the parser rejected the config
    out = tmp_path / "run"
    args = ["run", "--out", str(out)]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(args)
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) <= 1
    if code == 2:
        with pytest.raises(ConfigError):
            parse_config(None, overrides)
    if code == 0:
        json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)


def test_rejected_config_prints_one_line():
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["print-config", "--set", "task.blob_spread=1e308"])
    assert code == 2
    assert err.getvalue().splitlines() == [
        "config error: task: blob_spread 1e+308 and blob_distance 3.0 could give float32 "
        "training features beyond 1.70141e+38"]


class TestRunExperiment:
    @pytest.mark.parametrize("mode", MODES)
    def test_writes_all_artifacts(self, tmp_path, mode):
        cfg = quad_config(mode=mode, out=str(tmp_path / "run"))
        summary = run_experiment(cfg)
        assert sorted(os.listdir(tmp_path / "run")) == ["summary.json", "trace.jsonl"]
        on_disk = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert on_disk == summary

    def test_summary_totals_recomputable_from_trace(self, tmp_path):
        cfg = quad_config(mode="dense", out=str(tmp_path / "run"))
        summary = run_experiment(cfg)
        trace = RunTrace.from_jsonl(tmp_path / "run" / "trace.jsonl")
        assert summary["floats_sent_total"] == trace.total("floats_sent")
        assert summary["words_sent_total"] == trace.total("words_sent")
        np.testing.assert_allclose(summary["sim_time_total"], trace.total("t_iter"))
        assert summary["iterations"] == len(trace)

    @pytest.mark.parametrize("mode", MODES)
    def test_summary_holds_only_its_own_totals(self, tmp_path, mode):
        run_experiment(quad_config(mode=mode, out=str(tmp_path / "run")))
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert sorted(summary) == ["cf_histogram", "final_loss", "floats_sent_total",
                                   "initial_loss", "iterations", "metric_name", "metric_value",
                                   "mode", "seed", "sim_time_total", "words_sent_total"]

    def test_gravac_mode_visits_multiple_cfs(self, tmp_path):
        cfg = parse_config(overrides={
            "task.kind": "synthetic_mlp", "task.widths": "256,16,8,2",
            "task.blob_spread": "6.0", "task.feature_decades": "6.0",
            "mode": "gravac", "iters": "120", "seed": "42",
            "controller.theta_min": "10", "controller.theta_max": "1000",
            "controller.epsilon": "0.6", "controller.window": "30",
            "cost.workers": "4", "out": str(tmp_path / "g")})
        run_experiment(cfg)
        trace = RunTrace.from_jsonl(tmp_path / "g" / "trace.jsonl")
        assert len(set(trace.column("cf").tolist())) >= 2

    def test_identical_seeds_byte_identical_outputs(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            cfg = quad_config(mode="gravac", out=str(tmp_path / name),
                              **{"controller.theta_min": "2",
                                 "controller.theta_max": "16",
                                 "controller.epsilon": "0.5",
                                 "controller.window": "5"})
            run_experiment(cfg)
            blobs.append((tmp_path / name / "trace.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_failed_summary_write_leaves_no_new_trace(self, tmp_path, monkeypatch):
        # the trace used to be written into out before the summary was
        out = tmp_path / "run"
        real_open = open

        def failing_open(path, *args, **kwargs):
            if os.path.basename(path) == "summary.json":
                raise OSError("disk full")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(quad_config(mode="dense", out=str(out)))
        monkeypatch.undo()
        assert not (out / "trace.jsonl").exists()
        assert os.listdir(tmp_path) in ([], ["run"])

    def test_rerun_replaces_every_output(self, tmp_path):
        names = ("trace.jsonl", "summary.json")
        run_experiment(quad_config(mode="dense", iters=3, out=str(tmp_path / "run")))
        run_experiment(quad_config(mode="gravac", out=str(tmp_path / "run")))
        run_experiment(quad_config(mode="gravac", out=str(tmp_path / "fresh")))
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh", "run"]

    def test_run_holds_no_per_iteration_density(self, tmp_path):
        # a run built the CF-usage KDE, three 512 x iterations float64 arrays
        # (about 8 MiB each here), before writing any output; the budget
        # holds the trace and its text. A first small run imports what the
        # run needs, which would count on its own when this test runs first
        run_experiment(quad_config(mode="dense", iters=2, **{"task.size": 8}),
                       str(tmp_path / "warm"))
        cfg = quad_config(mode="dense", iters=2000, **{"task.size": 8})
        tracemalloc.start()
        try:
            run_experiment(cfg, str(tmp_path / "run"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_optimizer_settings_hold_no_weights(self):
        # the run trains its own copy of the task's initial weights; the
        # settings' length-M zero weights and momentum buffer stayed
        # allocated through every run
        cfg = quad_config(mode="dense", **{"task.size": 4096, "opt.momentum": 0.9})
        opt = cfg.build_optimizer(cfg.build_task())
        assert opt.weights.nbytes + opt.buffer.nbytes == 0
        assert (opt.lr, opt.momentum) == (cfg.opt_lr, 0.9)

    def test_missing_out_dir_rejected(self):
        with pytest.raises(ConfigError, match="out"):
            run_experiment(quad_config(mode="dense"))

    # such an out used to fail with a FileExistsError or NotADirectoryError
    # only after the whole run had trained
    @pytest.mark.parametrize("below", ["", "sub/run"])
    def test_out_that_cannot_be_a_directory_rejected_before_training(self, tmp_path,
                                                                     monkeypatch, below):
        def no_training(*args, **kwargs):
            raise AssertionError("run_training was called")

        monkeypatch.setattr("gravac.harness.run_training", no_training)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = os.path.join(blocker, below) if below else str(blocker)
        with pytest.raises(ConfigError) as raised:
            run_experiment(quad_config(mode="dense", out=out))
        assert str(raised.value) == f"out: {blocker} is not a directory"
        assert os.listdir(tmp_path) == ["file"]


class TestCompareRuns:
    def test_self_comparison_is_unity(self, tmp_path):
        cfg = quad_config(mode="dense", out=str(tmp_path / "run"))
        run_experiment(cfg)
        trace = RunTrace.from_jsonl(tmp_path / "run" / "trace.jsonl")
        report = compare_runs(trace, trace)
        assert report["time_ratio"] == 1.0
        assert report["floats_ratio"] == 1.0
        assert report["final_loss_delta"] == 0.0

    def test_dense_vs_static_float_ratio(self, tmp_path):
        run_experiment(quad_config(mode="dense", out=str(tmp_path / "dense")))
        run_experiment(quad_config(mode="static-cf", static_cf=8.0,
                                   **{"compressor.kind": "topk"},
                                   out=str(tmp_path / "static")))
        report = compare_runs(RunTrace.from_jsonl(tmp_path / "dense" / "trace.jsonl"),
                              RunTrace.from_jsonl(tmp_path / "static" / "trace.jsonl"))
        assert report["floats_ratio"] == pytest.approx(8.0)
        assert report["words_ratio"] == pytest.approx(4.0)

    def test_adaptive_beats_dense_time_when_comm_bound(self, tmp_path):
        # epsilon below the isotropic-quadratic TopK gain k/M = 1/8, so the
        # adaptive run sends compressed while beta dominates iteration time
        comm_bound = {"cost.beta": "1e-6", "cost.alpha": "1e-6",
                      "cost.t_compute": "1e-5", "task.size": "4096",
                      "task.noise_std": "0.0", "iters": "30",
                      "controller.theta_min": "8", "controller.theta_max": "64",
                      "controller.epsilon": "0.05", "controller.window": "10"}
        run_experiment(quad_config(mode="dense", out=str(tmp_path / "dense"),
                                   **comm_bound))
        run_experiment(quad_config(mode="gravac", out=str(tmp_path / "adaptive"),
                                   **comm_bound))
        report = compare_runs(RunTrace.from_jsonl(tmp_path / "adaptive" / "trace.jsonl"),
                              RunTrace.from_jsonl(tmp_path / "dense" / "trace.jsonl"))
        assert report["time_ratio"] < 1.0

    def test_time_to_target(self, tmp_path):
        cfg = quad_config(mode="dense", out=str(tmp_path / "run"), iters=60)
        run_experiment(cfg)
        trace = RunTrace.from_jsonl(tmp_path / "run" / "trace.jsonl")
        target = float(trace.column("loss")[30])
        report = compare_runs(trace, trace, target=target)
        per_iter = trace[0].t_iter
        assert report["time_a"] == pytest.approx(per_iter * 31)

    def test_unreached_target_rejected(self, tmp_path):
        cfg = quad_config(mode="dense", out=str(tmp_path / "run"))
        run_experiment(cfg)
        trace = RunTrace.from_jsonl(tmp_path / "run" / "trace.jsonl")
        with pytest.raises(ValueError, match="never reached"):
            compare_runs(trace, trace, target=-1.0)


class TestCli:
    def run_args(self, tmp_path, name, *extra):
        args = ["run", "--out", str(tmp_path / name)]
        for key, value in QUAD_BASE.items():
            args += ["--set", f"{key}={value}"]
        return args + list(extra)

    def test_run_and_compare_exit_zero(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, "a", "--mode", "dense")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "dense"
        assert main(self.run_args(tmp_path, "b", "--mode", "dense")) == 0
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a" / "trace.jsonl"),
                     str(tmp_path / "b" / "trace.jsonl")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["time_ratio"] == 1.0

    def test_config_error_exits_two(self, tmp_path, capsys):
        code = main(self.run_args(tmp_path, "bad", "--set", "controller.epsilon=1.5"))
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_divergence_exits_three(self, tmp_path, capsys):
        code = main(self.run_args(tmp_path, "div", "--mode", "dense",
                                  "--set", "opt.lr=10.0", "--set", "task.noise_std=0"))
        assert code == 3
        assert "divergence" in capsys.readouterr().err

    # a gradient beyond the float32 range overflows its cast to float32, and
    # so does a noise scale of 1e300; at 4e38 (a scale of 2.8e38 at batch
    # size 2) the noise overflows the multiply. The loop names the operation
    @pytest.mark.parametrize("mode,override,operation", [
        *(pytest.param(mode, "task.init_offset=1e39", "cast", id=mode)
          for mode in ("dense", "gravac", "static-cf")),
        pytest.param("gravac", "task.noise_std=1e300", "cast",
                     id="gravac-task.noise_std=1e300"),
        pytest.param("gravac", "task.noise_std=4e38", "multiply",
                     id="gravac-task.noise_std=4e38")])
    def test_overflowing_gradient_exits_three(self, tmp_path, capsys, mode, override,
                                              operation):
        code = main(self.run_args(tmp_path, "run", "--mode", mode, "--iters", "3",
                                  "--set", override))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"divergence abort: iteration 1: overflow encountered in {operation}"]

    def test_quadratic_weights_beyond_float32_exit_three(self, tmp_path, capsys):
        # the one update leaves weights whose gradient the evaluation's loss
        # casts to float32; the run used to exit 0
        out = tmp_path / "run"
        code = main(["run", "--out", str(out), "--mode", "dense", "--iters", "1",
                     "--set", "task.kind=quadratic", "--set", "task.size=8",
                     "--set", "task.init_offset=1e30", "--set", "opt.lr=1e9",
                     "--set", "opt.momentum=0"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "divergence abort: evaluation: overflow encountered in cast"]
        assert not out.exists()

    def test_mlp_weights_beyond_float32_exit_three(self, tmp_path, capsys):
        # the first step leaves float64 master weights that the float32 copy
        # a worker's gradient is computed from cannot hold
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "mlp_adaptive.cfg")
        code = main(["run", "--config", config, "--iters", "3", "--out", str(tmp_path / "run"),
                     "--set", "opt.lr=1e45", "--set", "opt.momentum=0"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "divergence abort: iteration 2: overflow encountered in cast"]

    @pytest.mark.parametrize("below", [(), ("sub", "run")])
    def test_out_that_cannot_be_a_directory_exits_two(self, tmp_path, capsys, below):
        (tmp_path / "file").write_text("")
        assert main(self.run_args(tmp_path, os.path.join("file", *below))) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: out: {tmp_path / 'file'} is not a directory\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["file"]

    def test_zero_modeled_time_exits_two(self, tmp_path, capsys):
        # a zero time, and one that overflows: 8 words at 1e308 s/word
        for overrides, got in ((["cost.workers=1", "cost.t_compute=0"], "0.0"),
                               (["cost.beta=1e308"], "inf")):
            sets = [arg for key in overrides for arg in ("--set", key)]
            code = main(["run", "--mode", "dense", "--set", "task.kind=quadratic",
                         "--set", "task.size=8", *sets, "--iters", "3",
                         "--out", str(tmp_path / "run")])
            assert code == 2, overrides
            captured = capsys.readouterr()
            assert captured.err == ("error: iteration time must be positive and finite, "
                                    f"got {got}\n")
            assert captured.out == ""
            assert os.listdir(tmp_path) == []

    def test_env_seed_is_ignored(self, tmp_path, capsys, monkeypatch):
        # GRAVAC_SEED used to override --seed
        monkeypatch.setenv("GRAVAC_SEED", "777")
        assert main(self.run_args(tmp_path, "env", "--mode", "dense",
                                  "--seed", "5")) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        assert json.loads((tmp_path / "env" / "summary.json").read_text())["seed"] == 5

    def test_print_config_roundtrips(self, tmp_path, capsys):
        assert main(["print-config", "--mode", "dense", "--iters", "7"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "echo.cfg"
        path.write_text(text)
        cfg = parse_config(str(path))
        assert cfg.mode == "dense"
        assert cfg.iters == 7

    def test_kde_subcommand(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, "k", "--mode", "dense")) == 0
        capsys.readouterr()
        out_csv = tmp_path / "kde.csv"
        assert main(["kde", "--trace", str(tmp_path / "k" / "trace.jsonl"),
                     "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "log10_cf,density"
        assert len(lines) == 513
        x, f = lines[1].split(",")
        assert math.isfinite(float(x)) and float(f) >= 0.0

    def kde_rows(self, capsys, trace) -> np.ndarray:
        """``gravac kde`` of ``trace`` as a (512, 2) array of finite, non-negative densities."""
        assert main(["kde", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "log10_cf,density"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (512, 2)
        assert np.isfinite(rows).all() and (rows[:, 1] >= 0.0).all()
        return rows

    def test_kde_of_a_gravac_trace(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path, "g", "--mode", "gravac",
                                  "--set", "controller.theta_min=2",
                                  "--set", "controller.theta_max=16",
                                  "--set", "controller.epsilon=0.1",
                                  "--set", "controller.window=5")) == 0
        capsys.readouterr()
        trace = tmp_path / "g" / "trace.jsonl"
        assert len(set(RunTrace.from_jsonl(trace).column("cf").tolist())) >= 2
        self.kde_rows(capsys, trace)

    # the densities of every bandwidth were once checked for being finite;
    # at the fixed bandwidth the widest CF range a trace admits stays finite
    def test_kde_of_the_widest_cf_range_is_finite(self, tmp_path, capsys):
        cfs = iter([1.0, 1.7976931348623157e308] * 20)
        _, wide = self.rewritten_trace(tmp_path, capsys, lambda row: dict(row, cf=next(cfs)))
        rows = self.kde_rows(capsys, wide)
        assert rows[0, 0] == -0.5 and rows[-1, 0] > 308.0

    def test_kde_grid_of_a_static_cf_trace_starts_below_dense(self, tmp_path, capsys):
        # the grid reaches down to log10(1) = 0, padded by five bandwidths
        assert main(self.run_args(tmp_path, "s", "--mode", "static-cf",
                                  "--set", "static_cf=4")) == 0
        capsys.readouterr()
        rows = self.kde_rows(capsys, tmp_path / "s" / "trace.jsonl")
        assert rows[0, 0] == -0.5

    def rewritten_trace(self, tmp_path, capsys, edit):
        """A dense run's trace with ``edit`` applied to every row."""
        assert main(self.run_args(tmp_path, "src", "--mode", "dense")) == 0
        capsys.readouterr()
        good = tmp_path / "src" / "trace.jsonl"
        rows = [json.loads(line) for line in good.read_text().splitlines()]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(edit(row)) + "\n" for row in rows))
        return str(good), str(bad)

    def test_compare_trace_missing_field_exits_two(self, tmp_path, capsys):
        good, bad = self.rewritten_trace(
            tmp_path, capsys, lambda row: {k: v for k, v in row.items() if k != "choice"})
        assert main(["compare", bad, good]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing fields ['choice']" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_kde_trace_unknown_field_exits_two(self, tmp_path, capsys):
        _, bad = self.rewritten_trace(tmp_path, capsys, lambda row: dict(row, extra=1))
        out_csv = tmp_path / "kde.csv"
        assert main(["kde", "--trace", bad, "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert "unknown fields ['extra']" in err
        assert len(err.splitlines()) == 1
        assert not out_csv.exists()

    # the JSON decoder raised RecursionError and the command exited 1 with a traceback
    @pytest.mark.parametrize("command, text", [
        pytest.param("kde", "[" * 200_000, id="kde"),
        pytest.param("compare", '{"a": ' * 3000 + "1" + "}" * 3000, id="compare")])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, command, text):
        nested = tmp_path / "nested.json"
        nested.write_text(text + "\n")
        out = tmp_path / "out"
        if command == "kde":
            args = ["kde", "--trace", str(nested), "--out", str(out)]
        else:
            good, _ = self.rewritten_trace(tmp_path, capsys, dict)
            args = ["compare", good, str(nested)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(nested) in captured.err and len(captured.err.splitlines()) == 1
        assert not out.exists()

    # the default run is a quadratic one, so the task.blob_spread and
    # task.widths cases are keys of the inactive task kind
    @pytest.mark.parametrize("overrides,section", [
        pytest.param(("opt.lr=0",), "opt", id="lr_zero"),
        pytest.param(("opt.momentum=1",), "opt", id="momentum_one"),
        pytest.param(("task.blob_spread=0",), "task", id="blob_spread_zero"),
        # the separation direction's norm underflowed to 0 and the loss was NaN
        pytest.param(("task.kind=synthetic_mlp", "task.widths=8,4,2", "task.blob_spread=1e-300"),
                     "task", id="blob_spread_underflow"),
        # the float32 features could overflow; the run aborted with numpy's
        # "invalid value encountered in matmul"
        pytest.param(("task.kind=synthetic_mlp", "task.widths=8,4,2", "task.blob_spread=1e160"),
                     "task", id="blob_spread_beyond_float32"),
        pytest.param(("task.widths=4,2,3",), "task", id="three_outputs")])
    def test_value_that_breaks_a_run_exits_two(self, tmp_path, capsys, overrides, section):
        args = self.run_args(tmp_path, "run", "--mode", "dense")
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    # seeds outside [0, 2**53) were read as float64 in the Philox key and
    # collided with other seeds
    @pytest.mark.parametrize("seed", ["-1", str(2**53), str(2**63)])
    def test_out_of_range_seed_exits_two(self, tmp_path, capsys, seed):
        assert main(self.run_args(tmp_path, "run", "--mode", "dense", "--seed=" + seed)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [
        pytest.param("compressor.redsync_max_rounds", "20", id="redsync_max_rounds"),
        pytest.param("baseline", "x.json", id="baseline"),
        pytest.param("opt.weight_decay", "0.1", id="weight_decay"),
        pytest.param("opt.lr_decay_iters", "3", id="lr_decay_iters"),
        pytest.param("opt.lr_decay_factor", "10", id="lr_decay_factor"),
        pytest.param("compressor.dgc_sample_fraction", "0.01", id="dgc_sample_fraction"),
        pytest.param("task.data_seed", "5", id="data_seed"),
        pytest.param("eval_samples", "300", id="eval_samples"),
        *(pytest.param(f"cost.latency.{kind}", "1e-6,1e-9,1e-9", id=f"latency_{kind}")
          for kind in KIND_NAMES)])
    def test_removed_key_exits_two(self, tmp_path, capsys, key, value):
        code = main(self.run_args(tmp_path, "run", "--mode", "dense",
                                  "--set", f"{key}={value}"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown config key: {key}" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    # numpy's MemoryError escaped validation and the command exited 1 with a traceback;
    # 8e17 bytes lie beyond any address space, so the allocation is refused at once
    @pytest.mark.parametrize("command", ["print-config", "run"])
    @pytest.mark.parametrize("overrides, section", [
        pytest.param(("task.kind=quadratic", f"task.size={10**17}"), "opt", id="size"),
        pytest.param((f"task.widths={10**17},2",), "task", id="widths")])
    def test_config_too_large_to_allocate_exits_two(self, tmp_path, capsys, command,
                                                    overrides, section):
        args = [command, "--out", str(tmp_path / "out")]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {section}: ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # numpy's MemoryError escaped main when the run drew the batch, and the
    # command exited 1 with a traceback; 10**17 entries lie beyond any
    # address space, so the allocation is refused at once
    @pytest.mark.parametrize("key", ["task.batch_size"])
    def test_run_too_large_to_allocate_exits_two(self, tmp_path, capsys, key):
        code = main(["run", "--iters", "1", "--out", str(tmp_path / "out"),
                     "--set", f"{key}={10**17}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # the bandwidth is fixed: --bandwidth is an unknown flag for every value,
    # the valid 0.2 and those that once gave NaN or inf rows alike
    @pytest.mark.parametrize("bandwidth", ["0.2", "nan", "inf", "0", "-1", "1e308", "1e-320"])
    def test_kde_bad_bandwidth_exits_two(self, tmp_path, capsys, bandwidth):
        assert main(self.run_args(tmp_path, "k", "--mode", "dense")) == 0
        capsys.readouterr()
        out_csv = tmp_path / "kde.csv"
        with pytest.raises(SystemExit) as raised:
            main(["kde", "--trace", str(tmp_path / "k" / "trace.jsonl"),
                  "--bandwidth", bandwidth, "--out", str(out_csv)])
        assert raised.value.code == 2
        assert "unrecognized arguments: --bandwidth" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["kde", "compare"])
    def test_trace_with_mistyped_value_exits_two(self, tmp_path, capsys, command):
        good, bad = self.rewritten_trace(tmp_path, capsys, lambda row: dict(row, cf="x"))
        args = ["kde", "--trace", bad] if command == "kde" else ["compare", good, bad]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mistyped fields ['cf']" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_compare_trace_with_zero_volume_and_time_exits_two(self, tmp_path, capsys):
        # the time and volume ratios divided by zero
        good, bad = self.rewritten_trace(
            tmp_path, capsys, lambda row: dict(row, floats_sent=0, words_sent=0, t_iter=0.0))
        assert main(["compare", good, bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out-of-range fields ['floats_sent', 't_iter', 'words_sent']" in captured.err
        assert len(captured.err.splitlines()) == 1

    # each row is in range, but the sums or the loss delta overflowed and
    # compare printed Infinity, which is not JSON, and exited 0
    @pytest.mark.parametrize("a_edit, b_edit, named", [
        ({"t_iter": 1.7e308}, {}, "time_a, time_ratio"),
        ({}, {"t_iter": 1.7e308}, "time_b"),
        ({"loss": 1e308}, {"loss": -1e308}, "final_loss_delta")])
    def test_compare_overflowing_report_exits_two(self, tmp_path, capsys, a_edit, b_edit,
                                                  named):
        good, _ = self.rewritten_trace(tmp_path, capsys, dict)
        rows = [json.loads(line) for line in open(good, encoding="utf-8")]
        paths = []
        for name, edit in (("a", a_edit), ("b", b_edit)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps(dict(row, **edit)) + "\n" for row in rows))
            paths.append(str(path))
        assert main(["compare", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{named} not finite" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_compare_sums_int_columns_exactly(self, tmp_path, capsys):
        # each row is in range, but an int64 sum of 1,100 of them wrapped
        # around to a negative total and compare exited 0
        top = 2 ** 53 - 1
        good, _ = self.rewritten_trace(tmp_path, capsys, dict)
        with open(good, encoding="utf-8") as fh:
            row = dict(json.loads(fh.readline()), floats_sent=top, words_sent=top)
        path = tmp_path / "big.jsonl"
        path.write_text((json.dumps(row) + "\n") * 1100)
        assert main(["compare", str(path), str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["floats_a"] == report["floats_b"] == 1100 * top
        assert report["floats_ratio"] == report["words_ratio"] == 1.0

    # the densities were NaN: log10 of a CF below 1 or not finite
    @pytest.mark.parametrize("cf", ["0", "-5", "1e309", "NaN", "Infinity"])
    def test_kde_trace_with_cf_out_of_range_exits_two(self, tmp_path, capsys, cf):
        # json.dumps cannot write 1e309, so each value is put into the text
        _, bad = self.rewritten_trace(tmp_path, capsys, lambda row: dict(row, cf=12345.5))
        with open(bad, encoding="utf-8") as fh:
            text = fh.read().replace("12345.5", cf)
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(text)
        out_csv = tmp_path / "kde.csv"
        assert main(["kde", "--trace", bad, "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert "out-of-range fields ['cf']" in err
        assert len(err.splitlines()) == 1
        assert not out_csv.exists()

    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"iters = 2\n\xff = 3\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert len(err.splitlines()) == 1

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "base.cfg"
        path.write_text("task.kind = quadratic\ntask.size = 64\nmode = dense\n"
                        "iters = 9\ntask.noise_std = 0.0\ncost.workers = 2\n")
        assert main(["run", "--config", str(path), "--iters", "4",
                     "--out", str(tmp_path / "o")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 4

    def test_readme_command_lines_parse(self):
        # a README example naming a removed subcommand or flag fails here
        lines = [line for line in readme_block("Command line", "sh").splitlines()
                 if line.startswith("gravac ")]
        assert len(lines) >= 5
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_readme_library_block_runs(self, capsys):
        # a library signature change that leaves the example stale fails here
        exec(compile(readme_block("Library use", "python"), "README.md", "exec"), {})
        assert capsys.readouterr().out.strip()


# JSON values a trace field may be set to: numbers at and past every edge,
# and every other JSON type
_JSON_SCALARS = (st.sampled_from([0, -1, 2**53, 2**63, 2**64, 10**400, 0.0, -0.0, -5.0,
                                  1e308, math.nan, math.inf, -math.inf])
                 | st.integers() | st.floats()
                 | st.none() | st.booleans() | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4)
_TRACE_FIELDS = [f.name for f in fields(IterationRecord)]


@pytest.fixture(scope="module")
def three_row_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "run"
    run_experiment(quad_config(mode="static-cf", iters=3), str(out))
    return [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]


class TestTraceMutationFuzz:
    """One mutated row of a real trace: compare and kde exit 0 or 2, never raise."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # a CF below 1 gives NaN densities; an int beyond int64 makes its column
    # a numpy object array whose total has no .item()
    @example(row_index=1, mutation=("set", "cf", 0))
    @example(row_index=1, mutation=("set", "floats_sent", 10**400))
    @given(row_index=st.integers(0, 2),
           mutation=st.one_of(
               st.tuples(st.just("set"), st.sampled_from(_TRACE_FIELDS), _JSON_VALUES),
               st.tuples(st.just("delete"), st.sampled_from(_TRACE_FIELDS), st.none()),
               st.tuples(st.just("add"), st.text(max_size=6), _JSON_VALUES)))
    def test_compare_and_kde_exit_zero_or_two(self, three_row_trace, row_index, mutation):
        action, key, value = mutation
        rows = [dict(row) for row in three_row_trace]
        if action == "delete":
            del rows[row_index][key]
        else:
            rows[row_index][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            good, bad = os.path.join(tmp, "good.jsonl"), os.path.join(tmp, "bad.jsonl")
            for path, lines in ((good, three_row_trace), (bad, rows)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("".join(json.dumps(row) + "\n" for row in lines))
            for args in (["compare", good, bad], ["compare", bad, good],
                         ["kde", "--trace", bad, "--out", os.path.join(tmp, "kde.csv")]):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    assert main(args) in (0, 2), args
