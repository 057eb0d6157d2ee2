import warnings
from dataclasses import replace

import numpy as np
import pytest

from scream.bench import (ALGORITHMS, RESULT_COLUMNS, ControlScenario, ExperimentConfig,
                          SysidScenario, gen_control_scenario, gen_piecewise_regression,
                          run_benchmark, run_cell, run_control_cell, run_sysid_benchmark,
                          summarize)
from scream.csvio import column_rows, emit_csv, format_value
from scream.lds import DisturbanceGenerator, preset
from scream.oco import ContractViolation
from scream.sysid import IdentificationConfig, identify_system

from conftest import parse_csv


def tiny_config(tmp_path, **kw):
    base = dict(T=240, d=4, segment_length=60, seeds=(0, 1), alphas=(0.5,),
                outdir=str(tmp_path / "out"))
    base.update(kw)
    return ExperimentConfig(**base)


class TestPiecewiseRegression:
    def test_reproducible_streams(self, tmp_path):
        config = tiny_config(tmp_path)
        a = gen_piecewise_regression(config, seed=3)
        b = gen_piecewise_regression(config, seed=3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = gen_piecewise_regression(config, seed=4)
        assert not np.array_equal(a.y, c.y)

    def test_segment_structure_and_path_length(self, tmp_path):
        config = tiny_config(tmp_path, T=300, segment_length=50)
        stream = gen_piecewise_regression(config, seed=1)
        jumps = np.linalg.norm(np.diff(stream.truths, axis=0), axis=1)
        nonzero = jumps[jumps > 0]
        assert len(nonzero) == 300 // 50 - 1
        from scream.oco import path_length
        assert path_length(stream.truths) == pytest.approx(float(nonzero.sum()), rel=1e-12)

    def test_noiseless_stationary_is_realizable(self, tmp_path):
        config = tiny_config(tmp_path, T=120, segment_length=120, noise_high=0.0)
        stream = gen_piecewise_regression(config, seed=5)
        best = stream.truths[0]
        total = sum(0.5 * (best @ loss.x - loss.y) ** 2 for loss in stream.losses())
        assert total == pytest.approx(0.0, abs=1e-18)

    def test_gradient_bound_all_rounds(self, tmp_path):
        # sup over the feasible ball of ||grad|| = (||x|| D/2 + |y|) ||x|| <= D Gamma^2
        config = tiny_config(tmp_path, T=2000, d=10, segment_length=200)
        for seed in range(3):
            stream = gen_piecewise_regression(config, seed=seed)
            norms = np.linalg.norm(stream.X, axis=1)
            sup_grad = (norms * config.diameter / 2 + np.abs(stream.y)) * norms
            assert np.all(sup_grad <= config.grad_bound + 1e-12)

    def test_feature_and_truth_radii(self, tmp_path):
        config = tiny_config(tmp_path, T=500)
        stream = gen_piecewise_regression(config, seed=2)
        assert np.all(np.linalg.norm(stream.X, axis=1) <= config.feature_radius + 1e-12)
        assert np.all(np.linalg.norm(stream.truths, axis=1) <= config.model_radius + 1e-12)


class TestRunCell:
    def test_overall_identity_every_row(self, tmp_path):
        config = tiny_config(tmp_path)
        for algorithm in ALGORITHMS:
            row = run_cell(config, algorithm, 0.5, seed=0)
            assert row.overall_loss == pytest.approx(
                row.cumulative_loss + row.switching_cost, abs=1e-9)

    def test_rows_deterministic_up_to_wall_time(self, tmp_path):
        config = tiny_config(tmp_path)
        a = run_cell(config, "scream", 0.5, seed=1)
        b = run_cell(config, "scream", 0.5, seed=1)
        for column in RESULT_COLUMNS:
            if column != "wall_time_ms":
                assert getattr(a, column) == getattr(b, column)

    def test_per_round_rows(self, tmp_path):
        config = tiny_config(tmp_path, per_round=True)
        row = run_cell(config, "ogd", 0.5, seed=0)
        rounds = parse_csv(tmp_path / "out" / "rounds_piecewise-regression_ogd_a0.5_s0.csv")
        assert len(rounds) == config.T
        assert rounds[0]["t"] == "1"
        movement = sum(float(r["movement"]) for r in rounds)  # 9 digits: each within 5e-10 relative
        lam = 0.5 * config.grad_bound
        assert lam * movement == pytest.approx(row.switching_cost, rel=1e-9)


class TestRunBenchmark:
    def test_serial_writes_results_and_summary(self, tmp_path):
        config = tiny_config(tmp_path)
        result = run_benchmark(config, parallel=False)
        assert result.ok
        assert (result.outdir / "results.csv").exists()
        assert (result.outdir / "summary.csv").exists()
        rows = parse_csv(result.outdir / "results.csv")
        assert len(rows) == len(ALGORITHMS) * 2  # 3 algorithms x 2 seeds x 1 alpha
        assert list(rows[0].keys()) == list(RESULT_COLUMNS)

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_benchmark(tiny_config(tmp_path, outdir=str(tmp_path / "a")), parallel=False)
        parallel = run_benchmark(tiny_config(tmp_path, outdir=str(tmp_path / "b")), parallel=True)
        for left, right in zip(serial.rows, parallel.rows):
            assert left.overall_loss == right.overall_loss
            assert left.seed == right.seed and left.algorithm == right.algorithm

    def test_summary_stats(self, tmp_path):
        config = tiny_config(tmp_path)
        result = run_benchmark(config, parallel=False)
        summary = summarize(result.rows)
        group = [r for r in result.rows if r.algorithm == "scream"]
        entry = next(s for s in summary if s["algorithm"] == "scream")
        values = np.array([g.overall_loss for g in group])
        assert entry["overall_mean"] == pytest.approx(values.mean(), rel=1e-12)
        assert entry["overall_std"] == pytest.approx(values.std(), rel=1e-12)
        assert entry["n_seeds"] == 2

    def test_cell_reaches_the_learner_layer_by_module_attribute(self, tmp_path, monkeypatch):
        # wrappers set on scream.learners (as a tracer sets them) see each cell's one run and report
        from scream import learners
        calls = []

        def counting(name):
            original = getattr(learners, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("run_online", "regret_metrics"):
            monkeypatch.setattr(learners, name, counting(name))
        config = tiny_config(tmp_path, T=60)
        for algorithm in ALGORITHMS:
            calls.clear()
            run_cell(config, algorithm, 0.5, seed=0)
            assert calls == ["run_online", "regret_metrics"], algorithm

    def test_movement_bounds_checked_in_cells(self, tmp_path):
        # the movement diagnostics are asserted on every cell run
        config = tiny_config(tmp_path)
        row = run_cell(config, "scream", 0.5, seed=0)
        assert row is not None

    def test_gradient_descent_switching_violation_recorded_in_failures_txt(self, tmp_path,
                                                                           monkeypatch):
        from scream import learners
        original = learners.run_online
        caps = []

        def switching_on_first_ogd_cell(learner, losses):
            run = original(learner, losses)
            if isinstance(learner, learners.OgdMemory) and not caps:
                caps.append(learner.step_size * config.grad_bound * config.T)
                learner.switching = 2.0 * caps[0]
            return run

        monkeypatch.setattr(learners, "run_online", switching_on_first_ogd_cell)
        config = tiny_config(tmp_path, T=60)
        result = run_benchmark(config, parallel=False)
        assert [(r.algorithm, r.seed) for r in result.rows] == [
            ("ader", 0), ("ader", 1), ("ogd", 1), ("scream", 0), ("scream", 1)]
        lines = (result.outdir / "failures.txt").read_text(encoding="utf-8").splitlines()
        assert lines == [f"('ogd', 0.5, 0): AssertionError: gradient-descent switching "
                         f"{2.0 * caps[0]:.6g} exceeds eta*G*T = {caps[0]:.6g}"]


class TestEmitCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = emit_csv([], ("a", "b"), tmp_path / "empty.csv")
        assert path.read_text(encoding="utf-8") == "a,b\n"

    def test_round_trip(self, tmp_path):
        rows = [{"a": 1.2345678905, "b": "x"}, {"a": -7e-12, "b": "y"}]
        path = emit_csv(rows, ("a", "b"), tmp_path / "rt.csv")
        back = parse_csv(path)
        assert [float(r["a"]) for r in back] == pytest.approx([r["a"] for r in rows], rel=1e-8)
        assert [r["b"] for r in back] == ["x", "y"]

    def test_nine_significant_digits(self, tmp_path):
        path = emit_csv([{"v": 0.123456789123}], ("v",), tmp_path / "fmt.csv")
        assert "0.123456789" in path.read_text(encoding="utf-8")

    def test_column_rows_keep_the_keyword_order_and_reject_ragged_columns(self):
        rows = column_rows(t=range(1, 3), v=np.array([0.5, 2.0]))
        assert rows == [{"t": 1, "v": 0.5}, {"t": 2, "v": 2.0}]
        assert [list(row) for row in rows] == [["t", "v"]] * 2
        with pytest.raises(ValueError):
            column_rows(t=range(3), v=np.zeros(2))

    def test_numpy_scalars_print_the_bytes_of_python_numbers(self, tmp_path):
        rng = np.random.default_rng(0)
        floats = np.concatenate([rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
                                 [0.0, -0.0, 5e-324, 1e-310, np.inf, -np.inf, np.nan]])
        ints = np.arange(-5, 4000, 7)
        numpy_rows = column_rows(v=floats) + column_rows(v=ints)
        assert {type(row["v"]) for row in numpy_rows} == {np.float64, np.int64}
        python_rows = [{"v": float(x)} for x in floats] + [{"v": int(n)} for n in ints]
        assert (emit_csv(numpy_rows, ("v",), tmp_path / "numpy.csv").read_bytes()
                == emit_csv(python_rows, ("v",), tmp_path / "python.csv").read_bytes())

    def test_booleans_print_as_str(self):
        assert [format_value(True), format_value(False)] == ["True", "False"]

    def test_byte_identical_reruns(self, tmp_path):
        rows = [{"a": 0.1, "b": 2}, {"a": 0.25, "b": 3}]
        p1 = emit_csv(rows, ("a", "b"), tmp_path / "one.csv")
        p2 = emit_csv(rows, ("a", "b"), tmp_path / "two.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_benchmark_csv_bytes_reproducible(self, tmp_path):
        config_a = tiny_config(tmp_path, T=120, outdir=str(tmp_path / "r1"))
        config_b = tiny_config(tmp_path, T=120, outdir=str(tmp_path / "r2"))
        run_benchmark(config_a, parallel=False)
        run_benchmark(config_b, parallel=False)

        def masked(path):
            rows = parse_csv(path)
            for row in rows:
                row.pop("wall_time_ms", None)
            return rows

        assert masked(tmp_path / "r1" / "results.csv") == masked(tmp_path / "r2" / "results.csv")
        assert (tmp_path / "r1" / "summary.csv").read_bytes() == (
            tmp_path / "r2" / "summary.csv").read_bytes()


class TestControlBenchmark:
    def test_per_round_control_csv(self, tmp_path):
        out = tmp_path / "ctrl-rounds"
        scenario = ControlScenario(T=60, H=2, segment_length=20, seeds=(0,),
                                   outdir=str(out), per_round=True)
        from scream.bench import run_control_benchmark
        result = run_control_benchmark(scenario)
        assert result.ok
        rows = parse_csv(out / "rounds_tracking-3x2_s0.csv")
        assert len(rows) == 60
        assert list(rows[0].keys()) == ["t", "cost", "state_norm", "action_norm",
                                        "param_norm", "meta_entropy", "disturbance_norm"]
        entropies = [float(r["meta_entropy"]) for r in rows]
        assert all(np.isfinite(e) and e >= 0 for e in entropies)

    def test_control_cell_row_schema(self, tmp_path):
        scenario = ControlScenario(T=120, H=2, segment_length=40, seeds=(0,),
                                   outdir=str(tmp_path / "ctrl"))
        row, metadata = run_control_cell(scenario, seed=0)
        assert row.overall_loss == pytest.approx(row.cumulative_loss + row.switching_cost,
                                                 abs=1e-9)
        assert row.path_length >= 0
        assert metadata["lam_theoretical"] >= metadata["lam"]
        assert metadata["H"] == 2

    def test_failed_seeds_recorded_in_failures_txt(self, tmp_path):
        from scream.bench import run_control_benchmark
        # spin-3x2 cannot be certified at H = 2 for seed 0 nor seed 1: each seed fails on its own
        scenario = ControlScenario(preset="spin-3x2", T=60, H=2, segment_length=20,
                                   seeds=(0, 1), outdir=str(tmp_path / "ctrl"))
        result = run_control_benchmark(scenario)
        assert not result.ok and result.rows == []
        lines = (tmp_path / "ctrl" / "failures.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and all("kappa^2 (1-gamma)^(H+1)" in line for line in lines)
        assert lines[0].startswith("('tracking-3x2', 0): ContractViolation")

    def test_controller_within_movement_bounds(self):
        from scream.control import run_scream_control
        scenario = ControlScenario(T=120, H=2, segment_length=40, seeds=(0,))
        loop, feasible, config, costs, w = gen_control_scenario(scenario, 0)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        controller = run.controller
        assert controller.rounds == 120 - 2  # warm-up rounds make no step
        assert np.all(controller.expert_switching > 0)
        controller.check_movement_bounds(config.constants.grad_bound)

    def test_movement_bound_violation_recorded_in_failures_txt(self, tmp_path, monkeypatch):
        import scream.bench as bench_mod
        original = bench_mod.run_scream_control
        calls = []

        def slack_on_first_seed(*args, **kwargs):
            run = original(*args, **kwargs)
            calls.append(1)
            if len(calls) == 1:
                run.controller.meta_movement_slack = 1e-3
            return run

        monkeypatch.setattr(bench_mod, "run_scream_control", slack_on_first_seed)
        scenario = ControlScenario(T=60, H=2, segment_length=20, seeds=(0, 1),
                                   outdir=str(tmp_path / "ctrl"))
        result = bench_mod.run_control_benchmark(scenario)
        assert [row.seed for row in result.rows] == [1]
        lines = (tmp_path / "ctrl" / "failures.txt").read_text(encoding="utf-8").splitlines()
        assert lines == [
            "('tracking-3x2', 0): AssertionError: meta movement bound violated by 0.001"]

    def test_expert_switching_violation_recorded_in_failures_txt(self, tmp_path, monkeypatch):
        import scream.bench as bench_mod
        original = bench_mod.run_scream_control
        calls = []

        def switching_on_first_seed(*args, **kwargs):
            run = original(*args, **kwargs)
            calls.append(1)
            if len(calls) == 1:
                controller, grad_bound = run.controller, args[4].constants.grad_bound
                controller.expert_switching[-1] = (
                    controller.etas[-1] * grad_bound * controller.rounds + 1e-6)
            return run

        monkeypatch.setattr(bench_mod, "run_scream_control", switching_on_first_seed)
        scenario = ControlScenario(T=60, H=2, segment_length=20, seeds=(0, 1),
                                   outdir=str(tmp_path / "ctrl"))
        result = bench_mod.run_control_benchmark(scenario)
        assert [row.seed for row in result.rows] == [1]
        lines = (tmp_path / "ctrl" / "failures.txt").read_text(encoding="utf-8").splitlines()
        assert lines == ["('tracking-3x2', 0): AssertionError: "
                         "an expert's switching cost exceeds its eta_i*G*T cap"]

    def test_scenario_generation_reproducible(self, tmp_path):
        scenario = ControlScenario(T=80, H=2, segment_length=20, seeds=(0,))
        _, _, _, costs_a, w_a = gen_control_scenario(scenario, 0)
        _, _, _, costs_b, w_b = gen_control_scenario(scenario, 0)
        assert np.array_equal(w_a, w_b)
        assert all(np.array_equal(a.target, b.target) for a, b in zip(costs_a, costs_b))


class TestSysidBenchmark:
    def test_report_written(self, tmp_path):
        scenario = SysidScenario(budgets=(200, 800), seeds=(0, 1, 2),
                                 outdir=str(tmp_path / "sysid"))
        report = run_sysid_benchmark(scenario)
        assert (tmp_path / "sysid" / "sysid_report.json").exists()
        assert set(report["median_err_A"]) == {"200", "800"}
        assert len(report["trials"]) == 6
        trial = report["trials"][0]
        assert {"T0", "k", "err_A", "err_B", "moment_errors"} <= set(trial)

    def test_shared_records_match_the_per_budget_draws(self, tmp_path, monkeypatch):
        # reference: one fresh record per (budget, seed), drawn at that budget, budget-major
        budgets, seeds = (200, 800, 400), (0, 1, 2)
        p = preset("sysid-3x2", seed=0)
        a_k = p.system.A - p.system.B @ p.K
        trials = []
        for budget in budgets:
            for seed in seeds:
                w = replace(p.disturbance, seed=seed + 31).sequence(budget)
                ident, moments = identify_system(p.system, p.K, IdentificationConfig(budget, 2),
                                                 w, seed=seed)
                trials.append({
                    "T0": budget, "k": 2, "seed": seed,
                    "err_A": float(np.linalg.norm(ident.A_hat - p.system.A)),
                    "err_B": float(np.linalg.norm(ident.B_hat - p.system.B)),
                    "moment_errors": [float(np.linalg.norm(
                        moments.N[j] - np.linalg.matrix_power(a_k, j) @ p.system.B))
                        for j in range(3)]})
        medians = {b: float(np.median([t["err_A"] for t in trials if t["T0"] == b]))
                   for b in budgets}
        slope = float(np.polyfit(np.log(list(medians)), np.log(list(medians.values())), 1)[0])
        expected = {"scenario": "sysid-3x2", "k": 2, "budgets": list(budgets),
                    "median_err_A": {str(b): m for b, m in medians.items()},
                    "loglog_slope": slope, "trials": trials}

        draws = []
        original = DisturbanceGenerator.sequence

        def spy(gen, T):
            draws.append((gen.seed, T))
            return original(gen, T)

        monkeypatch.setattr(DisturbanceGenerator, "sequence", spy)
        scenario = SysidScenario(budgets=budgets, seeds=seeds, outdir=str(tmp_path / "sysid"))
        assert run_sysid_benchmark(scenario) == expected
        assert draws == [(31, 800), (32, 800), (33, 800)]

    def test_failed_draw_recorded_for_every_budget(self, tmp_path, monkeypatch):
        original = DisturbanceGenerator.sequence

        def flaky(gen, T):
            if gen.seed == 1 + 31:
                raise RuntimeError("synthetic draw failure")
            return original(gen, T)

        monkeypatch.setattr(DisturbanceGenerator, "sequence", flaky)
        scenario = SysidScenario(budgets=(200, 800, 400), seeds=(0, 1, 2),
                                 outdir=str(tmp_path / "sysid"))
        report = run_sysid_benchmark(scenario)
        assert [(t["T0"], t["seed"]) for t in report["trials"]] == [
            (200, 0), (200, 2), (800, 0), (800, 2), (400, 0), (400, 2)]
        lines = (tmp_path / "sysid" / "failures.txt").read_text(encoding="utf-8").splitlines()
        assert lines == [f"({budget}, 1): RuntimeError: synthetic draw failure"
                         for budget in (200, 800, 400)]

    def test_trial_failures_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        import scream.bench as bench_mod
        original = bench_mod.identify_system

        def flaky(plant, K, config, disturbances, seed=0):
            if seed == 1:
                raise RuntimeError("synthetic trial failure")
            return original(plant, K, config, disturbances, seed=seed)

        monkeypatch.setattr(bench_mod, "identify_system", flaky)
        scenario = SysidScenario(budgets=(200, 800), seeds=(0, 1, 2),
                                 outdir=str(tmp_path / "sysid"))
        report = run_sysid_benchmark(scenario)
        assert [(t["T0"], t["seed"]) for t in report["trials"]] == [
            (200, 0), (200, 2), (800, 0), (800, 2)]
        assert set(report["median_err_A"]) == {"200", "800"}
        assert np.isfinite(report["loglog_slope"])
        lines = (tmp_path / "sysid" / "failures.txt").read_text(encoding="utf-8").splitlines()
        assert lines == ["(200, 1): RuntimeError: synthetic trial failure",
                         "(800, 1): RuntimeError: synthetic trial failure"]

    def test_budget_without_trials_left_out_of_the_fit(self, tmp_path, monkeypatch):
        import scream.bench as bench_mod
        original = bench_mod.identify_system

        def flaky(plant, K, config, disturbances, seed=0):
            if config.T0 == 400:
                raise RuntimeError("synthetic trial failure")
            return original(plant, K, config, disturbances, seed=seed)

        monkeypatch.setattr(bench_mod, "identify_system", flaky)
        scenario = SysidScenario(budgets=(200, 400, 800), seeds=(0, 1),
                                 outdir=str(tmp_path / "sysid"))
        report = run_sysid_benchmark(scenario)
        medians = report["median_err_A"]
        assert set(medians) == {"200", "800"} and len(report["trials"]) == 4
        expected = np.polyfit(np.log([200.0, 800.0]), np.log([medians["200"], medians["800"]]), 1)[0]
        assert report["loglog_slope"] == pytest.approx(expected, rel=1e-12)

    def test_no_failures_no_failures_txt(self, tmp_path):
        scenario = SysidScenario(budgets=(200, 400), seeds=(0,), outdir=str(tmp_path / "sysid"))
        run_sysid_benchmark(scenario)
        assert not (tmp_path / "sysid" / "failures.txt").exists()

    def test_single_budget_has_no_slope(self, tmp_path):
        scenario = SysidScenario(budgets=(200,), seeds=(0, 1), outdir=str(tmp_path / "sysid"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_sysid_benchmark(scenario)
        assert set(report["median_err_A"]) == {"200"}
        assert np.isnan(report["loglog_slope"])

    @pytest.mark.parametrize("budgets, k", [((2,), 2), ((200, 1), 1), ((200,), 0), ((), 2)])
    def test_budgets_checked_against_identification_contract(self, budgets, k):
        with pytest.raises(ContractViolation):
            SysidScenario(budgets=budgets, k=k)


def test_unknown_algorithm_rejected(tmp_path):
    with pytest.raises(ContractViolation):
        tiny_config(tmp_path, algorithms=("sgd",))


def test_cell_failures_recorded_and_run_continues(tmp_path, monkeypatch):
    import scream.bench as bench_mod
    original = bench_mod.run_cell

    def flaky(config, algorithm, alpha, seed):
        if algorithm == "ader" and seed == 1:
            raise RuntimeError("synthetic cell failure")
        return original(config, algorithm, alpha, seed)

    monkeypatch.setattr(bench_mod, "run_cell", flaky)
    config = tiny_config(tmp_path)
    result = bench_mod.run_benchmark(config, parallel=False)
    assert not result.ok
    assert len(result.failures) == 1
    assert len(result.rows) == len(ALGORITHMS) * 2 - 1
    assert (result.outdir / "failures.txt").read_text(encoding="utf-8").count("synthetic") == 1


def test_cli_exit_code_two_on_partial_failure(tmp_path, monkeypatch):
    import scream.bench as bench_mod
    from scream.cli import main
    original = bench_mod.run_cell

    def flaky(config, algorithm, alpha, seed):
        if algorithm == "ogd":
            raise RuntimeError("synthetic")
        return original(config, algorithm, alpha, seed)

    monkeypatch.setattr(bench_mod, "run_cell", flaky)
    code = main(["oco-bench", "--T", "120", "--seed", "0", "--alpha", "0.5",
                 "--out", str(tmp_path / "o"), "--serial"])
    assert code == 2


class TestWorkerCount:
    # SCREAM_WORKERS is no setting: whatever it holds, the pool is min(4, cpu count)
    @pytest.mark.parametrize("env, cpus, expected", [
        (None, 2, 2), (None, 8, 4), (None, None, 1), ("", 8, 4),
        ("3", 2, 2), ("64", 4, 4), ("1", 1, 1), ("abc", 8, 4), ("abc", 2, 2),
    ])
    def test_value_and_caps(self, monkeypatch, env, cpus, expected):
        import scream.bench as bench_mod
        if env is None:
            monkeypatch.delenv("SCREAM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("SCREAM_WORKERS", env)
        monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: cpus)
        assert bench_mod.worker_count() == expected == min(4, cpus or 1)

    def test_pool_capped_at_cell_count(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and maps in this process: nothing is spawned
        import concurrent.futures

        import scream.bench as bench_mod
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(bench_mod.os, "cpu_count", lambda: 16)
        config = tiny_config(tmp_path, T=60, algorithms=("ogd",))  # 2 cells
        result = bench_mod.run_benchmark(config, parallel=True)
        assert result.ok and len(result.rows) == 2
        assert sizes == [2]
        bench_mod.run_benchmark(tiny_config(tmp_path, T=60, algorithms=("ogd",), seeds=(0,)),
                                parallel=True)
        assert sizes == [2]  # one cell runs without a pool
