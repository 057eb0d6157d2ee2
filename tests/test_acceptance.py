"""Acceptance suite: one test per release criterion, each printing a PASS line.

The full-scale benchmark (criteria 1 and 5) and the scaling studies
(criterion 6) dominate the runtime; everything else takes seconds.
"""

import numpy as np
import pytest

import scream.bench as bench
from scream.bench import ExperimentConfig, run_benchmark, run_cell, scaling_scenario, summarize
from scream.control import ControlConfig, run_scream_control
from scream.dac import ClosedLoop, QuadraticTrackingCost, lipschitz_constants
from scream.lds import DisturbanceGenerator, LinearSystem, certify_strong_stability, preset
from scream.learners import run_online
from scream.sysid import IdentificationConfig, identify_system, run_unknown_pipeline
from scream.verify import (check_ball_projection, check_dac_projection, check_gradient_fd,
                           check_one_gradient, check_prior, check_simplex_preservation,
                           check_switching_decomposition, check_transfer_equivalence,
                           check_truncation_bounds)


@pytest.fixture(scope="module")
def benchmark_result(tmp_path_factory):
    config = ExperimentConfig(outdir=str(tmp_path_factory.mktemp("acceptance-bench")))
    result = run_benchmark(config)
    assert result.ok, f"benchmark cells failed: {result.failures}"
    return result


def _summary_lookup(rows):
    table = {}
    for entry in summarize(rows):
        table[(entry["algorithm"], entry["alpha"])] = entry
    return table


def test_criterion_1_qualitative_reproduction(benchmark_result):
    """Mean overall-loss orderings across the regularizer regimes, five seeds."""
    table = _summary_lookup(benchmark_result.rows)

    def overall(algorithm, alpha):
        return table[(algorithm, alpha)]["overall_mean"]

    def switching(algorithm, alpha):
        return table[(algorithm, alpha)]["switching_mean"]

    # medium regularizer: the movement-regularized learner wins outright
    assert overall("scream", 0.5) < overall("ogd", 0.5)
    assert overall("scream", 0.5) < overall("ader", 0.5)
    # small regularizer: the movement-agnostic contender is best, ours comparable
    assert overall("ader", 0.1) <= 1.05 * overall("scream", 0.1)
    assert overall("scream", 0.1) < overall("ogd", 0.1)
    # large regularizer: slow-moving gradient descent is best, ours comparable
    assert overall("ogd", 1.0) <= 1.05 * overall("scream", 1.0)
    assert overall("scream", 1.0) < overall("ader", 1.0)
    # the contender's movement penalty dwarfs ours once movement is priced
    for alpha in (0.5, 1.0):
        assert switching("ader", alpha) >= 3.0 * switching("scream", alpha)
    print("\nPASS criterion 1: overall-loss orderings and 3x switching-cost gap reproduced")


def test_criterion_2_transfer_equivalence():
    """Transfer-matrix state expansion vs direct simulation on 50 random systems."""
    ok, detail = check_transfer_equivalence(np.random.default_rng(2024), systems=50)
    assert ok, detail
    print(f"\nPASS criterion 2: {detail}")


def test_criterion_3_truncation_bounds():
    """State and per-round loss truncation gaps under their certified caps, zero violations."""
    ok, detail = check_truncation_bounds(np.random.default_rng(7), horizons=(2, 5, 10), T=200)
    assert ok, detail
    print(f"\nPASS criterion 3: {detail}")


def test_criterion_4_gradient_correctness():
    """Analytic truncated-loss gradient vs central differences, 100 random instances."""
    ok, detail = check_gradient_fd(np.random.default_rng(11), cases=100)
    assert ok, detail
    print(f"\nPASS criterion 4: {detail}")


def test_criterion_5_movement_bounds(benchmark_result):
    """Per-step meta movement, per-expert eta_i*G*T and gradient-descent eta*G*T movement caps."""
    # run_benchmark already asserts these diagnostics on every cell (a violation
    # would have failed the fixture); re-check them explicitly on seed-0 cells
    config = ExperimentConfig(seeds=(0,), outdir=benchmark_result.outdir / "movement")
    for alpha in config.alphas:
        lam = alpha * config.grad_bound
        stream = bench.gen_piecewise_regression(config, 0)
        for algorithm in bench.ALGORITHMS:
            run = run_online(bench.oco_learner(config, algorithm, lam), stream.losses())
            bench.check_movement_bounds(run.learner, config.grad_bound, config.T)
    print("\nPASS criterion 5: movement bounds held on every benchmark run")


def test_criterion_6_dynamic_regret_scaling():
    """Regret over sqrt(T (1 + P_T)) grows at most 25% between grid points (median of 10)."""
    grid = (2000, 8000, 32000)

    oco_medians = []
    for T in grid:
        ratios = []
        for seed in range(10):
            config = ExperimentConfig(T=T, segment_length=T // 5, seeds=(seed,))
            row, _ = run_cell(config, "scream", 0.25, seed)
            ratios.append(row.dynamic_regret / np.sqrt(T * (1 + row.path_length)))
        oco_medians.append(float(np.median(ratios)))
    for a, b in zip(oco_medians, oco_medians[1:]):
        assert b <= 1.25 * a

    control_medians = []
    for T in grid:
        ratios = []
        for seed in range(10):
            row, _ = bench.run_control_cell(scaling_scenario(T), seed)
            ratios.append(row.dynamic_regret / np.sqrt(T * (1 + row.path_length)))
        control_medians.append(float(np.median(ratios)))
    for a, b in zip(control_medians, control_medians[1:]):
        assert b <= 1.25 * a

    oco_growth = [round(b / a, 3) for a, b in zip(oco_medians, oco_medians[1:])]
    control_growth = [round(b / a, 3) for a, b in zip(control_medians, control_medians[1:])]
    print(f"\nPASS criterion 6: ratio growth OCO {oco_growth}, control {control_growth} (cap 1.25)")


def test_criterion_7_identification_rate_and_injection():
    """Square-root error decay of the identifier, plus exact-injection equivalence."""
    p = preset("sysid-3x2", seed=0)
    budgets = (1000, 4000, 16000, 64000)
    medians = []
    for T0 in budgets:
        errors = []
        for seed in range(20):
            gen = DisturbanceGenerator("gaussian-clipped", 3, amplitude=0.1, seed=seed + 31)
            ident, _ = identify_system(p.system, p.K, IdentificationConfig(T0, 2),
                                       gen.sequence(T0), seed=seed)
            errors.append(float(np.linalg.norm(ident.A_hat - p.system.A)))
        medians.append(float(np.median(errors)))
    slope = float(np.polyfit(np.log(budgets), np.log(medians), 1)[0])
    assert -0.8 <= slope <= -0.3

    # exact injection: the committed phase is bit-identical to a known-system run
    T, T0, H = 260, 60, 2
    loop_truth = ClosedLoop(p.system, p.K, p.certificate)
    constants = lipschitz_constants(loop_truth.kappa, loop_truth.gamma, p.system.kappa_B,
                                    0.1, 2.0, H, 2, 3)
    config = ControlConfig(T=T - T0, constants=constants, lam_multiplier=1e-4)
    rng = np.random.default_rng(17)
    costs = [QuadraticTrackingCost(rng.uniform(-0.3, 0.3, 3)) for _ in range(T)]
    w = DisturbanceGenerator("piecewise-step", 3, amplitude=0.1, seed=5, period=40).sequence(T)
    pipe = run_unknown_pipeline(p.system, p.K, IdentificationConfig(T0, 2), config, costs, w,
                                seed=9, inject_system=LinearSystem(p.system.A.copy(),
                                                                   p.system.B.copy()))
    reference_costs = [QuadraticTrackingCost(c.target, c.control_weight) for c in costs]
    believed = ClosedLoop(p.system, p.K, certify_strong_stability(p.system, p.K))
    reference = run_scream_control(believed, p.system, w[T0:], reference_costs[T0:], config,
                                   x0=pipe.identified.exploration.states[-1])
    assert np.array_equal(pipe.control_run.states, reference.states)
    assert np.array_equal(pipe.control_run.actions, reference.actions)
    print(f"\nPASS criterion 7: identification slope {slope:.3f} in [-0.8, -0.3]; "
          "injected run bit-identical")


def test_criterion_8_structural_property_suite():
    """1000-case randomized sweeps of the structural guarantees."""
    rng = np.random.default_rng(99)
    sweeps = (
        (check_simplex_preservation, {"cases": 1000}),
        (check_ball_projection, {"cases": 1000}),
        (check_dac_projection, {"cases": 1000, "samples": 20, "sample_every": 20}),
        (check_switching_decomposition, {"cases": 1000}),
        (check_prior, {"largest": 1000}),
        (check_one_gradient, {"horizons": (40, 80)}),
    )
    for check, counts in sweeps:
        ok, detail = check(rng, **counts)
        assert ok, detail
    print("\nPASS criterion 8: structural sweeps green (simplex, projections, "
          "decomposition, prior, gradient counters)")
