"""A ratchet on the work of one run, counted in calls rather than seconds.

``sys.setprofile`` counts every Python-level call (``call``) and builtin call
(``c_call``) of one OCO run and one control run.  The counts repeat exactly on
one interpreter and numpy, so each ceiling is a total measured on Python 3.11
with numpy 2.4, and the test runs only there.  A change that raises a ceiling
edits it here and says why.
"""

import sys

import numpy as np
import pytest

from scream import learners
from scream.bench import (ControlScenario, ExperimentConfig, gen_control_scenario,
                          gen_piecewise_regression, oco_learner)
from scream.control import run_scream_control

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2.4."),
    reason="the ceilings were counted on Python 3.11 with numpy 2.4")

T = 2000
# (Python-level, builtin) calls of one run; per round: ogd 9.002 / 10.0015, ader and scream
# 11.002 / 21.0005, control 42.938 / 49.919
CEILINGS = {"ogd": (18004, 20003), "ader": (22004, 42001), "scream": (22004, 42001),
            "control": (85876, 99838)}


def count_calls(run) -> tuple[int, int]:
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


@pytest.mark.parametrize("algorithm", ["ogd", "ader", "scream"])
def test_an_oco_run_makes_no_more_calls_than_its_ceiling(algorithm):
    config = ExperimentConfig(T=T, seeds=(0,), alphas=(0.5,))
    losses = gen_piecewise_regression(config, 0).losses()
    learner = oco_learner(config, algorithm, 0.5 * config.grad_bound)
    calls = count_calls(lambda: learners.run_online(learner, losses))
    ceiling = CEILINGS[algorithm]
    assert calls[0] <= ceiling[0] and calls[1] <= ceiling[1], calls


def test_a_control_run_makes_no_more_calls_than_its_ceiling():
    scenario = ControlScenario()  # tracking-3x2, T = 2000
    loop, feasible, config, costs, disturbances = gen_control_scenario(scenario, 0)
    calls = count_calls(lambda: run_scream_control(loop, loop.system, disturbances, costs, config,
                                                   feasible=feasible))
    ceiling = CEILINGS["control"]
    assert calls[0] <= ceiling[0] and calls[1] <= ceiling[1], calls
