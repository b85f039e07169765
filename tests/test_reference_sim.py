"""``run_training`` against the straight-line reference in ``reference_sim.py``.

Every trace row (compared as its JSON text, so each float to the last bit)
and the final weights must be equal. The grid covers 4 compressors x 3
modes x N in {1, 4, 8} on both tasks. Of three more runs, one freezes the
search, one just misses freezing and one trains on a vanished gradient.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from reference_sim import reference_run

from gravac.compressors import KIND_NAMES, CompressorKind
from gravac.controller import ControllerConfig
from gravac.costmodel import CostModelParams
from gravac.simworkers import OptimizerState, run_training
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
               seed=3):
    return dict(task=task, optimizer=opt, cost=cost, mode=mode, iterations=iters, seed=seed,
                compressor=CompressorKind(kind),
                controller_config=controller if mode == "gravac" else None,
                static_cf=6.0 if mode == "static-cf" else None)


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
