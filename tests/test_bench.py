import numpy as np
import pytest

from scream.bench import (ALGORITHMS, RESULT_COLUMNS, ControlScenario, ExperimentConfig,
                          SysidScenario, gen_control_scenario, gen_piecewise_regression,
                          run_benchmark, run_cell, run_control_cell, run_sysid_benchmark,
                          summarize)
from scream.csvio import emit_csv, parse_csv
from scream.oco import ContractViolation


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
        total = sum(loss.unary(best) for loss in stream.losses())
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
        assert np.all(np.linalg.norm(stream.truths, axis=1) <= config.truth_radius + 1e-12)


class TestRunCell:
    def test_overall_identity_every_row(self, tmp_path):
        config = tiny_config(tmp_path)
        for algorithm in ALGORITHMS:
            row, _ = run_cell(config, algorithm, 0.5, seed=0)
            assert row.overall_loss == pytest.approx(
                row.cumulative_loss + row.switching_cost, abs=1e-9)

    def test_rows_deterministic_up_to_wall_time(self, tmp_path):
        config = tiny_config(tmp_path)
        a, _ = run_cell(config, "scream", 0.5, seed=1)
        b, _ = run_cell(config, "scream", 0.5, seed=1)
        for column in RESULT_COLUMNS:
            if column != "wall_time_ms":
                assert getattr(a, column) == getattr(b, column)

    def test_per_round_rows(self, tmp_path):
        config = tiny_config(tmp_path, per_round=True)
        row, rounds = run_cell(config, "ogd", 0.5, seed=0, record_weights=False)
        assert len(rounds) == config.T
        assert rounds[0]["t"] == 1
        movement = sum(r["movement"] for r in rounds)
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

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCREAM_WORKERS", "2")
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

    def test_movement_bounds_checked_in_cells(self, tmp_path):
        # the movement diagnostics are asserted on every cell run
        config = tiny_config(tmp_path)
        row, _ = run_cell(config, "scream", 0.5, seed=0)
        assert row is not None


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
        scenario = ControlScenario(preset="no-such-preset", T=60, H=2, segment_length=20,
                                   seeds=(0, 1), outdir=str(tmp_path / "ctrl"))
        result = run_control_benchmark(scenario)
        assert not result.ok and result.rows == []
        lines = (tmp_path / "ctrl" / "failures.txt").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and all("no-such-preset" in line for line in lines)
        assert lines[0].startswith("('tracking-3x2', 0): ContractViolation")

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

    def flaky(config, algorithm, alpha, seed, record_weights=False):
        if algorithm == "ader" and seed == 1:
            raise RuntimeError("synthetic cell failure")
        return original(config, algorithm, alpha, seed, record_weights)

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

    def flaky(config, algorithm, alpha, seed, record_weights=False):
        if algorithm == "ogd":
            raise RuntimeError("synthetic")
        return original(config, algorithm, alpha, seed, record_weights)

    monkeypatch.setattr(bench_mod, "run_cell", flaky)
    code = main(["oco-bench", "--T", "120", "--seed", "0", "--alpha", "0.5",
                 "--out", str(tmp_path / "o"), "--serial"])
    assert code == 2
