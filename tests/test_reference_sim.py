"""``run_training`` against the straight-line reference in ``reference_sim.py``.

Every trace row (compared as its JSON text, so each float to the last bit)
and the final weights must be equal. The grid covers 4 compressors x 3
modes x N in {1, 4, 8} on both tasks. Of three more runs, one freezes the
search, one just misses freezing and one trains on a vanished gradient. A
hypothesis fuzz draws what the grid never compares: the geometric policy,
theta_max = theta_min, static CFs of 1 and beyond the vector length, other
worker counts, both topologies on both tasks, and other task shapes.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_sim import reference_run

from gravac.compressors import KIND_NAMES, CompressorKind
from gravac.controller import POLICIES, ControllerConfig
from gravac.costmodel import TOPOLOGIES, CostModelParams
from gravac.simworkers import DivergenceError, OptimizerState, run_training
from gravac.tasks import QuadraticBowl, SyntheticMlp

ITERS = 30
MODES = ("gravac", "static-cf", "dense")


def quadratic(**overrides):
    settings = dict(size=300, noise_std=0.3, batch_size=2, curvature=np.geomspace(0.01, 3.0, 300))
    task = QuadraticBowl(**dict(settings, **overrides))
    opt = OptimizerState(weights=np.zeros(task.size), lr=0.1, momentum=0.5)
    return task, opt


def mlp():
    task = SyntheticMlp(widths=(16, 8, 2), batch_size=8, blob_spread=3.0,
                        feature_decades=3.0)
    return task, OptimizerState(weights=np.zeros(task.parameter_count), lr=0.1, momentum=0.9)


TASKS = {"quadratic": quadratic, "mlp": mlp}
CONTROLLER = ControllerConfig(theta_min=2.0, theta_max=64.0, epsilon=0.5, omega=0.05,
                              window=5)


def run_kwargs(task, opt, cost, mode, kind="topk", controller=CONTROLLER, iters=ITERS,
               seed=3, static_cf=6.0):
    return dict(task=task, optimizer=opt, cost=cost, mode=mode, iterations=iters, seed=seed,
                compressor=CompressorKind(kind),
                controller_config=controller if mode == "gravac" else None,
                static_cf=static_cf if mode == "static-cf" else None)


def both(*args, **kwargs):
    kwargs = run_kwargs(*args, **kwargs)
    result = run_training(**kwargs)
    rows, weights, events = reference_run(**kwargs)
    assert [json.dumps(asdict(r)) for r in result.trace] == [json.dumps(r) for r in rows]
    assert result.weights.tobytes() == weights.tobytes()
    return events


def grid_case(task_name, workers):
    task, opt = TASKS[task_name]()
    topology = "tree" if task_name == "mlp" else "ring"
    return task, opt, CostModelParams(workers=workers, topology=topology)


@pytest.mark.parametrize("workers", [1, 4, 8])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize("task_name", sorted(TASKS))
def test_run_equals_reference(task_name, kind, mode, workers):
    both(*grid_case(task_name, workers), mode, kind)


def test_grid_reaches_every_choice_and_an_escalation():
    events = [reference_run(**run_kwargs(*grid_case(task_name, workers), "gravac", kind))[2]
              for task_name in TASKS for kind in KIND_NAMES for workers in (1, 4)]
    assert {c for e in events for c in e["choices"]} == {"candidate", "minimum", "dense"}
    assert any(e["escalations"] for e in events)


# at the second window end the top two compression throughputs differ by
# 0.35x the larger and 0.53x the smaller; the freeze test divides by the smaller
@pytest.mark.parametrize("omega, freezes", [(0.9, True), (0.45, False)])
def test_freezing_run_equals_reference(omega, freezes):
    task, opt = quadratic(noise_std=0.05)
    controller = ControllerConfig(theta_min=2.0, theta_max=64.0, epsilon=0.1, omega=omega,
                                  window=3)
    cost = CostModelParams(workers=4, t_compute=1.0)
    events = both(task, opt, cost, "gravac", "topk", controller, iters=20)
    assert (events["freeze"] is not None) == freezes
    if freezes:
        assert events["freeze"][0] < 20


def test_vanished_gradient_run_equals_reference():
    task, opt = quadratic(noise_std=0.0, init_offset=0.0)
    events = both(task, opt, CostModelParams(workers=4), "gravac", "dgc", iters=8)
    assert events["choices"] == {"dense": 8}


_QUADRATIC = st.builds(
    lambda size, noise_std, batch_size: QuadraticBowl(
        size=size, noise_std=noise_std, batch_size=batch_size,
        curvature=np.geomspace(0.01, 3.0, size)),
    st.integers(1, 400), st.sampled_from([0.0, 0.01, 0.3]), st.integers(1, 4))
_MLP = st.builds(
    lambda inputs, hidden, feature_decades, batch_size: SyntheticMlp(
        widths=(inputs, hidden, 2), batch_size=batch_size, blob_spread=3.0,
        feature_decades=feature_decades),
    st.integers(1, 24), st.integers(1, 8), st.sampled_from([0.0, 3.0]), st.integers(1, 8))
_CONTROLLER = st.builds(
    lambda theta_min, ratio, **settings: ControllerConfig(
        theta_min=theta_min, theta_max=theta_min * ratio, **settings),
    st.sampled_from([1.0, 1.5, 2.0, 10.0]), st.sampled_from([1, 3, 64, 1000]),
    epsilon=st.floats(0.01, 0.99), omega=st.floats(0.01, 0.99), window=st.integers(1, 7),
    policy=st.sampled_from(POLICIES))


@settings(max_examples=500, deadline=None)
@given(task=st.one_of(_QUADRATIC, _MLP), lr=st.sampled_from([0.01, 0.1, 0.3]),
       momentum=st.sampled_from([0.0, 0.5, 0.9]), workers=st.integers(1, 9),
       topology=st.sampled_from(TOPOLOGIES), t_compute=st.sampled_from([1e-4, 1.0]),
       mode=st.sampled_from(MODES), kind=st.sampled_from(KIND_NAMES),
       controller=_CONTROLLER, static_cf=st.sampled_from([1.0, 1.5, 6.0, 1e4]),
       iters=st.integers(1, 25), seed=st.integers(0, 2**32))
def test_drawn_run_equals_reference(task, lr, momentum, workers, topology, t_compute, mode,
                                    kind, controller, static_cf, iters, seed):
    # both() finishes run_training before it calls reference_run, so a
    # diverged draw is rejected before the reference's arithmetic overflows
    opt = OptimizerState(weights=np.zeros(task.parameter_count), lr=lr, momentum=momentum)
    cost = CostModelParams(workers=workers, topology=topology, t_compute=t_compute)
    try:
        both(task, opt, cost, mode, kind, controller, iters, seed, static_cf=static_cf)
    except DivergenceError:
        assume(False)
