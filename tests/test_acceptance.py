"""Acceptance suite: one test per release criterion, each printing a PASS line.

The full-scale benchmark (criteria 1 and 5) and the scaling studies
(criterion 6) dominate the runtime; everything else takes seconds.
"""

import numpy as np
import pytest

import scream.bench as bench
from scream.bench import ExperimentConfig, run_benchmark, run_cell, scaling_scenario, summarize
from scream.control import run_scream_control
from scream.dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lags_at,
                        simulate_dac, state_action_bound, state_via_transfer,
                        tracking_grad_coeff, truncated_loss, truncated_state,
                        unary_truncated_eval, unary_truncated_gradient)
from scream.lds import DisturbanceGenerator, LinearSystem, certify_strong_stability, preset, random_stable_system
from scream.learners import (Scream, ScreamConfig, nonuniform_prior,
                             ogd_default_step_size, run_online)
from scream.oco import DomainBall, square_loss
from scream.omd import check_simplex, hedge_step
from scream.sysid import IdentificationConfig, identify_system, run_unknown_pipeline
from scream.dac import lipschitz_constants
from scream.control import ControlConfig


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
    rng = np.random.default_rng(2024)
    H, T = 4, 60
    worst = 0.0
    for trial in range(50):
        system = random_stable_system(3, 2, 0.9, seed=trial)
        loop = ClosedLoop(system, np.zeros((2, 3)))
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, system.kappa_B,
                                                   H, 2, 3)
        M_hist = np.asarray([feasible.random_point(rng) for _ in range(T)])
        w = rng.uniform(-0.5, 0.5, (T, 3))
        states = simulate_dac(system, loop.K, M_hist, w).states
        for t in (T // 3, T):
            x = state_via_transfer(loop, list(M_hist[:t]), w[:t])
            rel = np.linalg.norm(states[t] - x) / max(np.linalg.norm(states[t]), 1e-12)
            worst = max(worst, float(rel))
    assert worst <= 1e-8
    print(f"\nPASS criterion 2: transfer expansion matches simulation (worst rel err {worst:.2e})")


def test_criterion_3_truncation_bounds():
    """State and per-round loss truncation gaps under their certified caps, zero violations."""
    rng = np.random.default_rng(7)
    p = preset("mild-3x2", seed=0)
    loop = ClosedLoop(p.system, p.K, p.certificate)
    W, T = 0.5, 200
    target_radius = 0.5
    checked = 0
    for H in (2, 5, 10):
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, p.system.kappa_B,
                                                   H, 2, 3)
        d_bound = state_action_bound(loop.kappa, loop.gamma, p.system.kappa_B, W, H)
        g_c = tracking_grad_coeff(d_bound, target_radius)
        costs = [QuadraticTrackingCost(rng.uniform(-target_radius / 2, target_radius / 2, 3))
                 for _ in range(T)]
        M_seq = np.asarray([feasible.random_point(rng) for _ in range(T)])
        w = DisturbanceGenerator("piecewise-step", 3, amplitude=W, seed=H, period=40).sequence(T)
        traj = simulate_dac(p.system, loop.K, M_seq, w, costs=costs)
        state_cap = loop.kappa ** 2 * (1 - loop.gamma) ** (H + 1) * d_bound
        loss_cap = 2 * g_c * d_bound ** 2 * loop.kappa ** 3 * (1 - loop.gamma) ** (H + 1)
        for t in range(H + 1, T):
            lags = lags_at(w, t, 2 * H + 1)
            y = truncated_state(loop, M_seq[t - 1 - H: t], lags)
            assert np.linalg.norm(traj.states[t] - y) <= state_cap
            value, _, _ = truncated_loss(costs[t], loop, M_seq[t - 1 - H: t + 1], lags)
            assert abs(traj.costs[t] - value) <= loss_cap
            checked += 1
    print(f"\nPASS criterion 3: truncation bounds held on {checked} rounds across H in (2, 5, 10)")


def test_criterion_4_gradient_correctness():
    """Analytic truncated-loss gradient vs central differences, 100 random instances."""
    rng = np.random.default_rng(11)
    H = 3
    worst = 0.0
    for trial in range(100):
        system = random_stable_system(3, 2, float(rng.uniform(0.5, 0.85)), seed=200 + trial)
        loop = ClosedLoop(system, np.zeros((2, 3)))
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, system.kappa_B,
                                                   H, 2, 3)
        M = feasible.random_point(rng)
        lags = rng.uniform(-0.5, 0.5, (2 * H + 1, 3))
        cost = QuadraticTrackingCost(rng.uniform(-1, 1, 3))
        grad = unary_truncated_gradient(cost, loop, M, lags)
        step = 1e-5
        for idx in np.ndindex(M.shape):
            bump = M.copy()
            bump[idx] += step
            up = unary_truncated_eval(cost, loop, bump, lags)[0]
            bump[idx] -= 2 * step
            down = unary_truncated_eval(cost, loop, bump, lags)[0]
            fd = (up - down) / (2 * step)
            rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-6)
            worst = max(worst, rel)
    assert worst <= 1e-5
    print(f"\nPASS criterion 4: gradients match finite differences (worst entry rel err {worst:.2e})")


def test_criterion_5_movement_bounds(benchmark_result):
    """Per-step meta movement and cumulative gradient-descent movement caps."""
    # run_benchmark already asserts these diagnostics on every cell (a violation
    # would have failed the fixture); re-check them explicitly on seed-0 cells
    config = ExperimentConfig(seeds=(0,), outdir=benchmark_result.outdir / "movement")
    for alpha in config.alphas:
        lam = alpha * config.grad_bound
        stream = bench.gen_piecewise_regression(config, 0)
        for algorithm in ("scream", "ader"):
            run, _ = bench._oco_learner_run(config, algorithm, lam, stream.losses(),
                                            stream.comparators, False)
            assert run.learner.meta_movement_slack <= 1e-9
        run, _ = bench._oco_learner_run(config, "ogd", lam, stream.losses(),
                                        stream.comparators, False)
        eta = ogd_default_step_size(config.T, config.diameter, config.grad_bound)
        assert run.learner.switching <= eta * config.grad_bound * config.T + 1e-9
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
                                                                   p.system.B.copy(),
                                                                   w_bound=p.system.w_bound))
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

    # simplex preservation
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        rate = float(rng.uniform(0.01, 2))
        out = hedge_step(p, rng.uniform(-40, 40, n), rate)
        assert check_simplex(out, tol=1e-12)

    # ball projection feasibility and idempotence
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        ball = DomainBall(d, float(rng.uniform(0.5, 4)))
        once = ball.project(rng.standard_normal(d) * 5)
        assert ball.contains(once)
        assert np.allclose(ball.project(once), once, atol=1e-14)

    # DAC projection feasibility, idempotence and sampling-optimality
    feasible = DacFeasibleSet.from_certificate(1.0, 0.4, 1.0, 4, 2, 3)
    for case in range(1000):
        raw = rng.standard_normal((4, 2, 3)) * float(rng.uniform(0.2, 4))
        projected = feasible.project(raw)
        assert feasible.contains(projected)
        assert np.max(np.abs(feasible.project(projected) - projected)) <= 1e-10
        if case % 20 == 0:
            dist = np.linalg.norm(projected - raw)
            for _ in range(20):
                assert np.linalg.norm(feasible.random_point(rng) - raw) >= dist - 1e-9

    # movement decomposition of aggregated decisions
    from scream.lds import clip_to_ball
    for _ in range(1000):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        diameter = float(rng.uniform(0.5, 4))
        w_now = clip_to_ball(rng.standard_normal((n, d)), diameter / 2)
        w_prev = clip_to_ball(rng.standard_normal((n, d)), diameter / 2)
        p_now = rng.dirichlet(np.ones(n))
        p_prev = rng.dirichlet(np.ones(n))
        lhs = np.linalg.norm(p_now @ w_now - p_prev @ w_prev)
        rhs = (diameter * np.abs(p_now - p_prev).sum()
               + p_now @ np.linalg.norm(w_now - w_prev, axis=1))
        assert lhs <= rhs + 1e-9

    # prior normalization
    for n in range(1, 1001):
        assert abs(nonuniform_prior(n).sum() - 1.0) <= 1e-12

    # one gradient evaluation per round, independent of the expert count
    for T in (40, 80):
        losses = [square_loss(rng.standard_normal(3) / 2, float(rng.uniform(-1, 1)))
                  for _ in range(T)]
        config = ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.5)
        run_online(Scream(config, DomainBall(3, 2.0)), losses)
        assert all(loss.grad_calls == 1 for loss in losses)

    print("\nPASS criterion 8: structural sweeps green (simplex, projections, "
          "decomposition, prior, gradient counters)")
