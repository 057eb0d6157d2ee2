import numpy as np
import pytest

from scream.bench import ControlScenario, gen_control_scenario
from scream.control import (ControlConfig, ScreamControl, best_fixed_dac_per_segment,
                            control_pool, dynamic_policy_regret_control, run_scream_control,
                            segment_boundaries)
from scream.dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, dac_action,
                        lag_table, lipschitz_constants, simulate_dac)
from scream.lds import DisturbanceGenerator, preset
from scream.learners import build_step_size_pool, pool_size
from scream.oco import ContractViolation
from scream.verify import check_simplex


def small_setup(seed=0, T=60, H=2, kind="piecewise-step"):
    p = preset("mild-3x2", seed=seed)
    loop = ClosedLoop(p.system, p.K, p.certificate)
    feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, p.system.kappa_B,
                                               H, 2, 3)
    constants = lipschitz_constants(loop.kappa, loop.gamma, p.system.kappa_B, 0.5,
                                    2.0, H, 2, 3)
    config = ControlConfig(T=T, constants=constants, lam_multiplier=1e-4)
    rng = np.random.default_rng(seed + 5)
    costs = [QuadraticTrackingCost(rng.uniform(-0.5, 0.5, 3)) for _ in range(T)]
    gen = DisturbanceGenerator(kind, 3, amplitude=0.5, seed=seed + 6, period=20)
    return loop, feasible, config, costs, gen.sequence(T)


class TestControlPool:
    def test_pool_structure(self):
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        pool, rate = control_pool(constants, 100)
        assert pool.n == pool_size(100)
        etas = np.asarray(pool.etas)
        assert np.all(etas[1:] / etas[:-1] == 2.0)
        assert rate > 0

    def test_cross_module_consistency(self):
        # with D_f = 1, G_f = 1, lam = 0 the pool matches the generic builder
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        pool, _ = control_pool(constants, 100, lam=0.0)
        reference = build_step_size_pool(100, constants.diameter, constants.grad_bound, 0.0)
        assert pool.etas == reference.etas

    def test_first_step_size_exact_value(self):
        # eta_1 = sqrt(D_f^2 / ((lam G_f + G_f^2) T)) evaluated by hand
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        pool, rate = control_pool(constants, 400, lam=3.0)
        d_f, g_f = constants.diameter, constants.grad_bound
        expected = np.sqrt(d_f ** 2 / ((3.0 * g_f + g_f ** 2) * 400))
        assert pool.etas[0] == pytest.approx(expected, rel=1e-15)
        assert rate == pytest.approx(
            np.sqrt(2.0 / ((2 * 3.0 + g_f) * (3.0 + g_f) * d_f ** 2 * 400)), rel=1e-15)

    def test_zero_multiplier_reduces_to_memoryless_tuning(self):
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        config = ControlConfig(T=50, constants=constants, lam_multiplier=0.0)
        assert config.lam == 0.0
        reference = build_step_size_pool(50, constants.diameter, constants.grad_bound, 0.0)
        assert config.pool.etas == reference.etas


class TestScreamControlRound:
    def test_zero_disturbances_reduce_to_linear_feedback(self):
        loop, feasible, config, costs, _ = small_setup(T=40)
        w = np.zeros((40, 3))
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        # parameters never move and every action is exactly -K x
        assert np.all(run.params == 0.0)
        for t in range(run.T):
            assert np.allclose(run.actions[t], -loop.K @ run.states[t], atol=1e-14)

    def test_single_expert_matches_projected_gradient_controller(self):
        loop, feasible, config, costs, w = small_setup(T=50)
        single = ControlConfig(T=config.T, constants=config.constants,
                               pool=type(config.pool)((config.pool.etas[0],)),
                               meta_rate=config.meta_rate, lam_multiplier=config.lam_multiplier)
        run = run_scream_control(loop, loop.system, w, costs, single, feasible=feasible)

        # reference: plain projected-gradient DAC controller with the same step size and
        # its own window of the 2H + 1 latest recovered disturbances, newest first
        from scream.dac import unary_truncated_gradient
        from scream.lds import recover_disturbance, step_dynamics
        eta = single.pool.etas[0]
        H = single.H
        M = feasible.zeros()
        window = np.zeros((2 * H + 1, 3))
        x = np.zeros(3)
        for t in range(50):
            u = dac_action(loop.K, M, x, window[:H])
            assert np.allclose(u, run.actions[t], atol=1e-12)
            if t + 1 > H:
                g = unary_truncated_gradient(costs[t], loop, M, window)
                M = feasible.project(M - eta * g)
            x_next = step_dynamics(loop.system, x, u, w[t])
            window = np.vstack([recover_disturbance(loop.system, x_next, x, u), window[:-1]])
            x = x_next

    def test_two_round_scalar_hand_trace(self):
        # scalar plant, H = 1: warm-up round then one hand-computed learning round
        from scream.lds import LinearSystem
        loop = ClosedLoop(LinearSystem(np.array([[0.5]]), np.array([[1.0]])), np.zeros((1, 1)))
        feasible = DacFeasibleSet(np.array([0.4]), 1, 1)
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 1, 1, 1)
        pool = type(build_step_size_pool(2, 1, 1, 0))((0.1, 0.2))
        config = ControlConfig(T=2, constants=constants, pool=pool, meta_rate=0.5,
                               lam_multiplier=0.0)
        costs = [QuadraticTrackingCost(np.array([1.0]), control_weight=0.1) for _ in range(2)]
        w = np.array([[0.3], [-0.2]])
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)

        # round 1 (warm-up): M = 0, u = 0, x stays 0, then x_1 = w_0
        assert run.actions[0, 0] == 0.0
        assert run.states[1, 0] == pytest.approx(0.3, abs=0)
        # round 2: M still 0 so u = 0; learning happens after the cost is revealed
        assert run.actions[1, 0] == 0.0
        assert run.states[2, 0] == pytest.approx(0.5 * 0.3 - 0.2, abs=1e-15)
        # the round-2 gradient of the unary truncated loss at M = 0:
        # y = w_1 + a w_0 (lags: w_1 = 0.3 at lag 1? no: at round 2 the window holds w_0 only)
        # recompute explicitly: lags at learning time of round 2 are (w_0, 0, ...)
        # y = lag_0 + a lag_1 + b m lag_1 + a b m lag_2 -> at m = 0: y = 0.3
        # v = m lag_0 = 0
        # df/dm = 2 (y - 1)(b lag_1 + a b lag_2) + 2 rho v lag_0 = 0 since lag_1 = lag_2 = 0
        # so both experts stay at 0 and weights stay at the prior
        assert np.all(run.params == 0.0)
        assert np.allclose(run.controller.weights, [0.75, 0.25], atol=1e-15)

    def test_learning_round_updates_and_stays_feasible(self):
        loop, feasible, config, costs, w = small_setup(T=80, H=2)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        controller = run.controller
        assert controller.grad_evals == 80 - config.H
        assert feasible.contains(controller.experts)
        assert check_simplex(controller.weights, tol=1e-9)
        # parameters moved once learning started
        assert run.param_switching() > 0

    def test_aggregation_residual_invariant(self):
        loop, feasible, config, costs, w = small_setup(T=40)
        controller = ScreamControl(loop, feasible, config)
        agg = controller.decide()
        manual = sum(p * m for p, m in zip(controller.weights, controller.experts))
        assert np.linalg.norm((agg - manual).ravel()) <= 1e-12

    def test_actions_replay_from_recorded_arrays(self):
        # each action is the DAC policy of its round's parameters on the recovered disturbances
        loop, feasible, config, costs, w = gen_control_scenario(ControlScenario(), 0)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        lags = lag_table(run.believed_disturbances, config.H)
        for t in range(run.T):
            assert np.array_equal(run.actions[t],
                                  dac_action(loop.K, run.params[t], run.states[t], lags[t]))
        assert run.controller.grad_evals == run.T - config.H

    def test_one_gradient_per_learning_round(self):
        loop, feasible, config, costs, w = small_setup(T=60)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        grad_counts = [c.grad_calls for c in costs]
        # warm-up rounds evaluate no gradient; learning rounds exactly one
        assert grad_counts[: config.H] == [0] * config.H
        assert grad_counts[config.H:] == [1] * (60 - config.H)


class TestControlRegret:
    def test_self_comparison_is_zero(self):
        loop, feasible, config, costs, w = small_setup(T=50)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        report = dynamic_policy_regret_control(run, loop.system, run.params, feasible)
        assert report.dynamic_policy_regret == pytest.approx(0.0, abs=1e-10)

    def test_constant_comparator_path_length_zero(self, rng):
        loop, feasible, config, costs, w = small_setup(T=50)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        fixed = feasible.random_point(rng, scale=0.5)
        report = dynamic_policy_regret_control(run, loop.system, fixed, feasible)
        assert report.path_length == 0.0

    def test_brute_force_replay_agrees(self, rng):
        loop, feasible, config, costs, w = small_setup(T=40, H=2)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        comp = np.asarray([feasible.random_point(rng, scale=0.4) for _ in range(40)])
        report = dynamic_policy_regret_control(run, loop.system, comp, feasible)

        # independent replay: raw loops over the dynamics, no shared helpers
        x = np.zeros(3)
        hist = np.zeros((2, 3))  # w_{t-1}, w_{t-2}
        total = 0.0
        for t in range(40):
            u = -loop.K @ x + comp[t][0] @ hist[0] + comp[t][1] @ hist[1]
            total += float((x - costs[t].target) @ (x - costs[t].target)
                           + 0.1 * u @ u)
            x = loop.system.A @ x + loop.system.B @ u + w[t]
            hist = np.vstack([w[t], hist[0]])
        expected = float(np.sum(run.cost_values)) - total
        assert report.dynamic_policy_regret == pytest.approx(expected, abs=1e-10)

    def test_report_takes_one_replay(self, rng, monkeypatch):
        from scream import control

        loop, feasible, config, costs, w = small_setup(T=30, H=2)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        comp = np.asarray([feasible.random_point(rng, scale=0.4) for _ in range(3)])
        comp = comp[np.arange(30) // 10]  # three distinct comparators
        replays = []
        replay = control.simulate_dac

        def counted(*args, **kwargs):
            replays.append(1)
            return replay(*args, **kwargs)

        monkeypatch.setattr(control, "simulate_dac", counted)
        dynamic_policy_regret_control(run, loop.system, comp, feasible)
        assert len(replays) == 1

    def test_infeasible_comparator_rejected(self, rng):
        loop, feasible, config, costs, w = small_setup(T=30)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        bad = feasible.random_point(rng)
        bad[0] *= 10.0
        with pytest.raises(ContractViolation):
            dynamic_policy_regret_control(run, loop.system, bad, feasible)

    def test_per_segment_offline_comparator_beats_zero_policy(self):
        loop, feasible, config, costs, w = small_setup(T=120, H=2)
        boundaries = segment_boundaries(120, 40)
        comp = best_fixed_dac_per_segment(loop, costs, w, boundaries, feasible)
        assert feasible.contains(comp, tol=1e-8)
        replay = simulate_dac(loop.system, loop.K, comp, w, costs=costs)
        zero = simulate_dac(loop.system, loop.K, feasible.zeros(), w, costs=costs)
        assert replay.costs.sum() <= zero.costs.sum() + 1e-9
        # piecewise constant within segments
        for lo, hi in boundaries:
            assert np.all(comp[lo:hi] == comp[lo])


def test_segment_boundaries_cover_horizon():
    assert segment_boundaries(10, 4) == [(0, 4), (4, 8), (8, 10)]
