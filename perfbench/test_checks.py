"""Tests of the benchmark itself: every check passes on real output and rejects a wrong value.

    PYTHONPATH=src python3 -m pytest -q perfbench

Real outputs come from small program calls (short horizons), so the checks
are exercised on what the program prints; each is then fed one deliberately
wrong value.  A traced program call must write the same outputs as an untraced
one, and its counts must see a gradient the learner does not report.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import checks
import layers
from scream import bench, learners


@pytest.fixture(scope="module")
def oco_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("oco")
    config = bench.ExperimentConfig(T=300, segment_length=60, seeds=(0, 1), outdir=str(outdir))
    bench.run_benchmark(config, parallel=False)
    streams = {seed: bench.gen_piecewise_regression(config, seed) for seed in config.seeds}
    return config, outdir, checks.read_csv(outdir / "results.csv"), streams


def _perturbed(rows, column: str, algorithm: str = "scream", factor: float = 1.001):
    rows = copy.deepcopy(rows)
    row = next(r for r in rows if r["algorithm"] == algorithm)
    row[column] = format(float(row[column]) * factor, ".9g")
    return rows


def test_oco_rows_pass_and_reject_a_perturbed_row(oco_run):
    config, _, rows, streams = oco_run
    stream_refs = {s: checks.stream_reference(st.X, st.y, st.truths) for s, st in streams.items()}
    ogd_refs = {s: checks.reference_ogd(st.X, st.y, config.diameter, config.grad_bound)
                for s, st in streams.items()}
    assert checks.check_overall_sum(rows) == []
    assert checks.check_stream_rows(rows, stream_refs) == []
    assert checks.check_ogd_rows(rows, ogd_refs, config.grad_bound) == []
    assert checks.check_alpha_invariance(rows) == []

    assert checks.check_overall_sum(_perturbed(rows, "overall_loss", factor=1 + 1e-7))
    assert checks.check_stream_rows(_perturbed(rows, "path_length"), stream_refs)
    assert checks.check_stream_rows(_perturbed(rows, "dynamic_regret"), stream_refs)
    assert checks.check_ogd_rows(_perturbed(rows, "cumulative_loss", "ogd", 1 + 1e-6),
                                 ogd_refs, config.grad_bound)
    assert checks.check_ogd_rows(_perturbed(rows, "switching_cost", "ogd"), ogd_refs,
                                 config.grad_bound)
    assert checks.check_alpha_invariance(_perturbed(rows, "cumulative_loss", "ader", 1 + 1e-8))
    assert checks.check_alpha_invariance(_perturbed(rows, "switching_cost", "ogd"))


def test_reference_ogd_is_not_the_program_with_another_step():
    config = bench.ExperimentConfig(T=300, segment_length=60)
    stream = bench.gen_piecewise_regression(config, 0)
    right = checks.reference_ogd(stream.X, stream.y, config.diameter, config.grad_bound)
    wrong = checks.reference_ogd(stream.X, stream.y, config.diameter, 2 * config.grad_bound)
    assert not math.isclose(right[0], wrong[0], rel_tol=1e-6)


def _summary(overall=None, switching=None):
    # seed-0 overall losses of the default stream (T=20000), as the program printed them
    means = {("ader", 0.1): 176.99, ("ader", 0.5): 605.9, ("ader", 1.0): 1142.04,
             ("ogd", 0.1): 342.12, ("ogd", 0.5): 362.09, ("ogd", 1.0): 387.06,
             ("scream", 0.1): 240.29, ("scream", 0.5): 336.08, ("scream", 1.0): 411.93}
    moves = {("ader", 0.5): 430.0, ("ader", 1.0): 960.0, ("scream", 0.5): 40.0,
             ("scream", 1.0): 60.0}
    means.update(overall or {})
    moves.update(switching or {})
    return [{"algorithm": a, "alpha": format(alpha, "g"), "overall_mean": str(v),
             "switching_mean": str(moves.get((a, alpha), 1.0))}
            for (a, alpha), v in means.items()]


def test_orderings_pass_and_each_broken_ordering_is_rejected():
    assert checks.check_orderings(_summary()) == []
    assert checks.check_orderings(_summary(overall={("scream", 0.5): 362.1}))   # ogd wins at 0.5
    assert checks.check_orderings(_summary(overall={("ader", 0.1): 253.0}))     # > 1.05 scream
    assert checks.check_orderings(_summary(overall={("ogd", 1.0): 433.0}))      # > 1.05 scream
    assert checks.check_orderings(_summary(switching={("ader", 1.0): 179.0}))   # < 3 x scream


@pytest.fixture(scope="module")
def control_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("control")
    scenario = bench.ControlScenario(T=300, segment_length=100, seeds=(0, 1), outdir=str(outdir))
    bench.run_control_benchmark(scenario)
    return scenario, outdir


def test_control_outputs_pass(control_run):
    scenario, outdir = control_run
    assert checks.verify_control(scenario, outdir) == []


def test_control_checks_reject_wrong_values(control_run):
    scenario, outdir = control_run
    rows = checks.read_csv(outdir / "control_results.csv")
    refs = {int(r["seed"]): (float(r["cumulative_loss"]),
                             float(r["cumulative_loss"]) - float(r["dynamic_regret"]),
                             float(r["path_length"])) for r in rows}
    assert checks.check_control_rows(rows, refs) == []
    for column in ("cumulative_loss", "dynamic_regret", "path_length"):
        assert checks.check_control_rows(_perturbed(rows, column, "scream-control"), refs)

    caps = checks.spectral_caps(kappa=1.0, gamma=0.4, kappa_B=1.0, H=2)
    feasible = np.zeros((2, 2, 3))
    feasible[0, 0, 0], feasible[1, 1, 1] = caps[0], caps[1]
    assert checks.check_comparator_caps(feasible, caps) == []
    infeasible = feasible.copy()
    infeasible[1, 1, 2] = caps[1]   # block 1 now has spectral norm sqrt(2) * cap
    assert checks.check_comparator_caps(infeasible, caps)

    assert checks.check_meta_slack(-0.1) == []
    assert checks.check_meta_slack(1e-6)


def test_dac_rollout_matches_the_programs_replay(control_run):
    from scream.dac import simulate_dac

    scenario, _ = control_run
    loop, feasible, _, costs, w = bench.gen_control_scenario(scenario, 0)
    params = np.broadcast_to(feasible.random_point(np.random.default_rng(3)),
                             (scenario.T,) + feasible.zeros().shape)
    targets = np.array([c.target for c in costs])
    weights = np.array([c.control_weight for c in costs])
    mine = checks.dac_rollout(loop.system.A, loop.system.B, loop.K, params, w, targets, weights)
    replay = simulate_dac(loop.system, loop.K, params, w, costs=costs)
    np.testing.assert_allclose(mine, replay.costs, rtol=1e-12, atol=1e-14)


def _report(medians=(0.4, 0.2, 0.1), budgets=(1000, 4000, 16000), n_seeds=3):
    trials = [{"T0": b, "seed": s, "err_A": m * (1 + 0.1 * (s - 1))}
              for b, m in zip(budgets, medians) for s in range(n_seeds)]
    slope = float(np.polyfit(np.log(budgets), np.log(medians), 1)[0])
    return {"budgets": list(budgets), "trials": trials, "loglog_slope": slope,
            "median_err_A": {str(b): m for b, m in zip(budgets, medians)}}


def test_sysid_report_passes_and_wrong_reports_are_rejected():
    assert checks.check_sysid_report(_report(), 3) == []
    assert checks.check_sysid_report(_report(medians=(0.4, 0.45, 0.1)), 3)   # not falling
    assert checks.check_sysid_report(_report(medians=(0.4, 0.1, 0.025)), 3)  # slope -1
    assert checks.check_sysid_report(_report(medians=(0.4, 0.35, 0.3)), 3)   # slope -0.2
    wrong_median = _report()
    wrong_median["median_err_A"]["4000"] = 0.21
    assert checks.check_sysid_report(wrong_median, 3)
    wrong_slope = _report()
    wrong_slope["loglog_slope"] = -0.6
    assert checks.check_sysid_report(wrong_slope, 3)
    assert checks.check_sysid_report(_report(), 4)                           # a trial missing


def test_same_outputs_ignores_wall_time_only(oco_run, tmp_path):
    _, outdir, _, _ = oco_run
    for name in ("results.csv", "summary.csv"):
        (tmp_path / name).write_bytes((outdir / name).read_bytes())
    assert checks.check_same_outputs(outdir, tmp_path) == []
    text = (outdir / "results.csv").read_text(encoding="utf-8").splitlines()
    header = text[0].split(",")
    first = text[1].split(",")
    first[header.index("wall_time_ms")] = "123456"
    (tmp_path / "results.csv").write_text("\n".join([text[0], ",".join(first)] + text[2:]) + "\n",
                                          encoding="utf-8")
    assert checks.check_same_outputs(outdir, tmp_path) == []
    first[header.index("cumulative_loss")] = "1"
    (tmp_path / "results.csv").write_text("\n".join([text[0], ",".join(first)] + text[2:]) + "\n",
                                          encoding="utf-8")
    assert checks.check_same_outputs(outdir, tmp_path)


def _traced(kind: str, config):
    with layers.traced(layers.Tracer()) as tracer:
        if kind == "oco":
            bench.run_benchmark(config, parallel=False)
        else:
            bench.run_control_benchmark(config)
    return tracer


def test_traced_program_calls_write_the_same_outputs(oco_run, control_run, tmp_path):
    config, outdir, _, _ = oco_run
    _traced("oco", replace(config, outdir=str(tmp_path / "oco")))
    assert checks.check_same_outputs(outdir, tmp_path / "oco") == []
    scenario, control_dir = control_run
    _traced("control", replace(scenario, outdir=str(tmp_path / "control")))
    assert checks.check_same_outputs(control_dir, tmp_path / "control") == []
    assert bench.preset.__module__ == "scream.lds"              # the wrappers are gone again
    assert learners.run_online.__module__ == "scream.learners"


def test_traced_counts_hold_the_one_gradient_invariant(oco_run, control_run, tmp_path):
    config, _, _, _ = oco_run
    tracer = _traced("oco", replace(config, outdir=str(tmp_path / "oco")))
    scenario, _ = control_run
    with_preset = _traced("control", replace(scenario, outdir=str(tmp_path / "control")))
    oco_metrics = layers.layer_metrics(tracer, run_s=1.0, workers=1)
    control_metrics = layers.layer_metrics(with_preset, run_s=1.0, workers=1)
    assert oco_metrics["learners.grad_evals_per_round"] == 1
    assert oco_metrics["learners.rounds"] == 18 * config.T
    assert oco_metrics["bench.cells"] == 18
    assert control_metrics["control.grad_evals_per_round"] == 1
    assert control_metrics["lds.preset_s"] > 0    # traced inside gen_control_scenario
    assert set(oco_metrics) | {"trace.total_s", "trace.overhead_s"} == set(layers.PER_LAYER)
    tracer.dump(tmp_path / "trace.json")
    written = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    by_id = {s["id"]: s for s in written["spans"]}
    cells = [s for s in written["spans"] if s["name"] == "bench.cell"]
    assert len(cells) == 18 and all(s["parent"] is None for s in cells)
    assert all(by_id[s["parent"]]["name"] == "bench.cell" for s in written["spans"]
               if s["name"] in ("bench.stream", "bench.oracles"))


def test_one_gradient_check_rejects_a_second_gradient(oco_run, tmp_path, monkeypatch):
    assert checks.check_one_gradient(300, 300, "learners") == []
    assert checks.check_one_gradient(600, 300, "learners")
    assert checks.check_one_gradient(299, 300, "control")

    observe = learners.Scream.observe

    def observe_twice(self, loss):
        loss.grad(self.decide())      # a second gradient of the round, not counted by the learner
        observe(self, loss)

    monkeypatch.setattr(learners.Scream, "observe", observe_twice)
    config, _, _, _ = oco_run
    tracer = _traced("oco", replace(config, algorithms=("scream",), outdir=str(tmp_path)))
    counts = tracer.counts
    assert counts["learners.grad_evals"] == 2 * counts["learners.rounds"]
    assert checks.check_one_gradient(counts["learners.grad_evals"], counts["learners.rounds"],
                                     "learners")
