import warnings
from dataclasses import replace

import numpy as np
import pytest

from scream import dac
from scream.bench import ControlScenario, gen_control_scenario, scaling_scenario
from scream.control import (COMPARATOR_ITERS, ControlConfig, ScreamControl,
                            best_fixed_dac_per_segment, control_trajectory_rows,
                            dynamic_policy_regret_control, run_scream_control,
                            segment_boundaries)
from scream.dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lag_table,
                        lipschitz_constants, simulate_dac)
from scream.lds import DisturbanceGenerator, LinearSystem, preset
from scream.learners import ScreamConfig, build_step_size_pool, nonuniform_prior, pool_size
from scream.oco import ContractViolation, path_length
from scream.verify import check_simplex, dac_action


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
        etas, _, rate, _ = ControlConfig(T=100, constants=constants).tuning()
        assert etas.shape == (pool_size(100),)
        assert np.all(etas[1:] / etas[:-1] == 2.0)
        assert rate > 0

    def test_cross_module_consistency(self):
        # with D_f = 1, G_f = 1, lam = 0 the pool matches the generic builder
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        pool = ScreamConfig(100, constants.grad_bound, constants.diameter, 0.0).tuning()[0]
        reference = build_step_size_pool(100, constants.diameter, constants.grad_bound, 0.0)
        assert np.array_equal(pool, reference)

    def test_first_step_size_exact_value(self):
        # eta_1 = sqrt(D_f^2 / ((lam G_f + G_f^2) T)) evaluated by hand
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        d_f, g_f = constants.diameter, constants.grad_bound
        pool, _, rate, _ = ScreamConfig(400, g_f, d_f, 3.0).tuning()
        expected = np.sqrt(d_f ** 2 / ((3.0 * g_f + g_f ** 2) * 400))
        assert pool[0] == pytest.approx(expected, rel=1e-15)
        assert rate == pytest.approx(
            np.sqrt(2.0 / ((2 * 3.0 + g_f) * (3.0 + g_f) * d_f ** 2 * 400)), rel=1e-15)

    def test_zero_multiplier_reduces_to_memoryless_tuning(self):
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        config = ControlConfig(T=50, constants=constants, lam_multiplier=0.0)
        assert config.lam == 0.0
        reference = build_step_size_pool(50, constants.diameter, constants.grad_bound, 0.0)
        assert np.array_equal(config.tuning()[0], reference)

    def test_tuning_row_is_that_of_scream_config(self):
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        config = ControlConfig(T=300, constants=constants, lam_multiplier=1e-3)
        row = config.tuning()
        reference = ScreamConfig(300, constants.grad_bound, constants.diameter, config.lam).tuning()
        assert len(row) == len(reference) == 4
        assert all(np.array_equal(a, b) for a, b in zip(row, reference))
        metadata = config.metadata()
        assert metadata["pool"] == row[0].tolist() and metadata["n_experts"] == len(row[0])
        assert metadata["meta_rate"] == row[2]

    @pytest.mark.parametrize("T, multiplier, diameter", [(0, 1.0, None), (50, -1.0, None),
                                                         (50, 1.0, 0.0), (50, 1.0, -1.0)])
    def test_bad_tuning_inputs_raise_at_construction(self, T, multiplier, diameter):
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 2, 3)
        if diameter is not None:
            constants = replace(constants, diameter=diameter)
        with pytest.raises(ContractViolation):
            ControlConfig(T=T, constants=constants, lam_multiplier=multiplier)


class TestScreamControlRound:
    def test_zero_disturbances_reduce_to_linear_feedback(self):
        loop, feasible, config, costs, _ = small_setup(T=40)
        w = np.zeros((40, 3))
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        # parameters never move and every action is exactly -K x
        assert np.all(run.params == 0.0)
        for t in range(run.T):
            assert np.allclose(run.actions[t], -loop.K @ run.states[t], atol=1e-14)

    def test_single_expert_matches_projected_gradient_controller(self, monkeypatch):
        loop, feasible, config, costs, w = small_setup(T=50)
        etas, _, rate, lam = config.tuning()
        monkeypatch.setattr(ControlConfig, "tuning",
                            lambda self: (etas[:1], nonuniform_prior(1), rate, lam))
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        assert run.controller.n_experts == 1

        # reference: plain projected-gradient DAC controller with the same step size and
        # its own window of the 2H + 1 latest recovered disturbances, newest first
        from scream.dac import unary_truncated_gradient
        A, B = loop.system.A, loop.system.B
        eta = etas[0]
        H = config.H
        M = feasible.zeros()
        window = np.zeros((2 * H + 1, 3))
        x = np.zeros(3)
        for t in range(50):
            u = dac_action(loop.K, M, x, window[:H])
            assert np.allclose(u, run.actions[t], atol=1e-12)
            if t + 1 > H:
                g = unary_truncated_gradient(costs[t], loop, M, window)
                M = feasible.project(M - eta * g)
            x_next = A @ x + B @ u + w[t]
            window = np.vstack([x_next - A @ x - B @ u, window[:-1]])
            x = x_next

    def test_two_round_scalar_hand_trace(self):
        # scalar plant, H = 1: warm-up round then one hand-computed learning round
        loop = ClosedLoop(LinearSystem(np.array([[0.5]]), np.array([[1.0]])), np.zeros((1, 1)))
        feasible = DacFeasibleSet(np.array([0.4]), 1, 1)
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 1, 1, 1)
        config = ControlConfig(T=2, constants=constants, lam_multiplier=0.0)
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
        assert sum(cost.grad_calls for cost in costs) == controller.rounds == 80 - config.H
        assert feasible.contains(controller.flat.reshape((controller.n_experts,) + controller.shape))
        assert check_simplex(controller.weights, tol=1e-9)
        # parameters moved once learning started
        assert path_length(run.params.reshape(run.T, -1)) > 0

    def test_recorded_weights_are_those_of_each_decision(self, monkeypatch):
        loop, feasible, config, costs, w = small_setup(T=40, H=2)
        seen, decide = [], ScreamControl.decide

        def recording_decide(controller):
            seen.append(controller.weights.copy())
            return decide(controller)

        monkeypatch.setattr(ScreamControl, "decide", recording_decide)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        n = len(config.tuning()[0])
        assert run.weights.shape == (40, n)
        assert np.array_equal(run.weights, seen)
        assert np.all(run.weights[:config.H + 1] == nonuniform_prior(n))  # warm-up
        entropies = [row["meta_entropy"] for row in control_trajectory_rows(run)]
        assert entropies == pytest.approx([-np.sum(p * np.log(p)) for p in seen], rel=1e-12)

    def test_meta_entropy_takes_zero_weights_as_zero(self):
        loop, feasible, config, costs, w = small_setup(T=10, H=2)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        n = run.weights.shape[1]
        run.weights[3] = np.eye(n)[0]
        run.weights[4] = np.r_[0.5, 0.5, np.zeros(n - 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entropies = [row["meta_entropy"] for row in control_trajectory_rows(run)]
        assert entropies[3] == 0.0
        assert entropies[4] == pytest.approx(np.log(2), rel=1e-15)
        assert np.isfinite(entropies).all()

    def test_aggregation_residual_invariant(self):
        loop, feasible, config, costs, w = small_setup(T=40)
        controller = ScreamControl(loop, feasible, config)
        agg = controller.decide()
        experts = controller.flat.reshape((controller.n_experts,) + controller.shape)
        manual = sum(p * m for p, m in zip(controller.weights, experts))
        assert np.linalg.norm((agg - manual).ravel()) <= 1e-12

    def test_actions_replay_from_recorded_arrays(self):
        # each action is the DAC policy of its round's parameters on the recovered disturbances
        loop, feasible, config, costs, w = gen_control_scenario(ControlScenario(), 0)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        A, B = loop.system.A, loop.system.B
        recovered = [run.states[t + 1] - A @ run.states[t] - B @ run.actions[t]
                     for t in range(run.T)]
        lags = lag_table(recovered, config.H)
        for t in range(run.T):
            assert np.array_equal(run.actions[t],
                                  dac_action(loop.K, run.params[t], run.states[t], lags[t]))
        assert sum(cost.grad_calls for cost in costs) == run.T - config.H

    def test_one_gradient_per_learning_round(self):
        loop, feasible, config, costs, w = small_setup(T=60)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        grad_counts = [c.grad_calls for c in costs]
        # warm-up rounds evaluate no gradient; learning rounds exactly one
        assert grad_counts[: config.H] == [0] * config.H
        assert grad_counts[config.H:] == [1] * (60 - config.H)


class TestInputCheck:
    """run_scream_control checks its inputs once, before any cost oracle is asked."""

    @pytest.mark.parametrize("bad", ["x0 scalar", "x0 of length 1", "NaN in last disturbance",
                                     "disturbances of width 2", "believed system d_u",
                                     "feasible set dimensions"])
    def test_bad_input_raises_before_round_0(self, bad):
        loop, feasible, config, costs, w = small_setup(T=30)
        plant, x0 = loop.system, None
        if bad == "x0 scalar":
            x0 = 0.5
        elif bad == "x0 of length 1":
            x0 = np.ones(1)
        elif bad == "NaN in last disturbance":
            w = w.copy()
            w[-1, 1] = np.nan
        elif bad == "disturbances of width 2":
            w = w[:, :2]
        elif bad == "believed system d_u":
            loop = ClosedLoop(LinearSystem(plant.A, plant.B[:, :1]), np.zeros((1, 3)))
        else:
            feasible = DacFeasibleSet(feasible.caps, 1, 3)
        with pytest.raises(ContractViolation):
            run_scream_control(loop, plant, w, costs, config, feasible=feasible, x0=x0)
        assert [cost.value_calls for cost in costs] == [0] * 30


class TestControlRegret:
    def test_self_comparison_is_zero(self):
        loop, feasible, config, costs, w = small_setup(T=50)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        report = dynamic_policy_regret_control(run, loop.system, run.params, feasible)
        assert report.dynamic_policy_regret == pytest.approx(0.0, abs=1e-10)

    def test_constant_comparator_path_length_zero(self, rng):
        loop, feasible, config, costs, w = small_setup(T=50)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        fixed = np.broadcast_to(feasible.random_point(rng, scale=0.5), run.params.shape)
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
        with pytest.raises(ContractViolation, match="leave the feasible set"):
            dynamic_policy_regret_control(run, loop.system, np.broadcast_to(bad, run.params.shape),
                                          feasible)

    @pytest.mark.parametrize("shape, message", [
        ((), "one comparator policy per round"),              # a 0-d value
        ((30, 2, 3), "one comparator policy per round"),      # a 3-d value
        ((29, 2, 2, 3), "one comparator policy per round"),   # one round short
        ((30, 2, 3, 2), "expected trailing shape"),           # blocks of the wrong shape
    ])
    def test_comparator_of_wrong_shape_rejected(self, shape, message):
        loop, feasible, config, costs, w = small_setup(T=30, H=2)
        run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
        with pytest.raises(ContractViolation, match=message):
            dynamic_policy_regret_control(run, loop.system, np.zeros(shape), feasible)

    def test_per_segment_offline_comparator_beats_zero_policy(self):
        loop, feasible, config, costs, w = small_setup(T=120, H=2)
        boundaries = segment_boundaries(120, 40)
        comp = best_fixed_dac_per_segment(loop, costs, w, boundaries, feasible)
        assert feasible.contains(comp, tol=1e-8)
        replay = simulate_dac(loop.system, loop.K, comp, w, costs=costs)
        zero = simulate_dac(loop.system, loop.K, np.zeros_like(comp), w, costs=costs)
        assert replay.costs.sum() <= zero.costs.sum() + 1e-9
        # piecewise constant within segments
        for lo, hi in boundaries:
            assert np.all(comp[lo:hi] == comp[lo])


def per_round_comparators(loop, costs, w, boundaries, feasible, iters=300):
    """Reference: each segment's quadratic assembled one round at a time, lags read off ``w``."""
    H, (d_x, d_u), K = feasible.H, (loop.system.d_x, loop.system.d_u), loop.K
    P = H * d_u * d_x
    powers = [np.linalg.matrix_power(loop.a_closed, j) for j in range(H + 1)]
    powers_b = [power @ loop.system.B for power in powers]
    padded = np.concatenate([np.zeros((2 * H + 1, d_x)), w])
    out = np.empty((w.shape[0], H, d_u, d_x))
    for lo, hi in boundaries:
        quad, lin = np.zeros((P, P)), np.zeros(P)
        for t in range(lo, hi):
            lags = padded[2 * H + t - np.arange(2 * H + 1)]     # lags[i] = w[t - 1 - i]
            y0 = sum(powers[j] @ lags[j] for j in range(H + 1))
            L = np.zeros((d_x, H, d_u, d_x))
            D = np.zeros((d_u, H, d_u, d_x))
            for k in range(H):
                for j in range(H + 1):
                    L[:, k] += np.einsum("xu,z->xuz", powers_b[j], lags[1 + j + k])
                D[:, k] = np.einsum("vu,z->vuz", np.eye(d_u), lags[k])
            L, D = L.reshape(d_x, P), D.reshape(d_u, P)
            R = -K @ L + D
            rho = costs[t].control_weight
            quad += L.T @ L + rho * (R.T @ R)
            lin += L.T @ (y0 - costs[t].target) + rho * (R.T @ (-K @ y0))
        step = 1.0 / max(2.0 * float(np.linalg.eigvalsh(quad).max()), 1e-12)
        theta = np.zeros(P)
        for _ in range(iters):
            theta = feasible.project(
                (theta - step * 2.0 * (quad @ theta + lin)).reshape(H, d_u, d_x)).reshape(P)
        out[lo:hi] = theta.reshape(H, d_u, d_x)
    return out


@pytest.mark.parametrize("scenario", [ControlScenario(T=130, segment_length=50),
                                      scaling_scenario(103)],
                         ids=["tracking-3x2", "scaling-3x1"])
def test_comparators_match_per_round_assembly(scenario):
    # both scenarios end on a short segment: (100, 130) and (100, 103)
    loop, feasible, _, costs, w = gen_control_scenario(scenario, seed=0)
    boundaries = scenario.segments()
    assert boundaries[-1][1] - boundaries[-1][0] < boundaries[0][1] - boundaries[0][0]
    comp = best_fixed_dac_per_segment(loop, costs, w, boundaries, feasible)
    ref = per_round_comparators(loop, costs, w, boundaries, feasible)
    assert np.abs(ref).max() > 0
    assert np.max(np.abs(comp - ref)) <= 1e-10 * np.abs(ref).max()


def per_segment_comparators(loop, costs, w, boundaries, feasible):
    """Reference: each segment's projected-gradient descent run on its own, one segment after another."""
    H, K, shape = feasible.H, loop.K, feasible.zeros().shape
    lags_all = lag_table(w, 2 * H + 1)
    targets = np.array([cost.target for cost in costs])
    rho = np.array([cost.control_weight for cost in costs])
    out = np.empty((w.shape[0],) + shape)
    for lo, hi in boundaries:
        y0, L, D = dac.unary_truncated_map(loop, lags_all[lo:hi], H)
        R = D - K @ L
        quad = np.einsum("txp,txq->pq", L, L) + np.einsum("t,tup,tuq->pq", rho[lo:hi], R, R)
        lin = (np.einsum("txp,tx->p", L, y0 - targets[lo:hi])
               - np.einsum("t,tup,tu->p", rho[lo:hi], R, y0 @ K.T))
        step = 1.0 / max(2.0 * float(np.linalg.eigvalsh(quad).max()), 1e-12)
        theta = np.zeros(shape)
        for _ in range(COMPARATOR_ITERS):
            theta = feasible.project(theta - step * 2.0 * (quad @ theta.ravel() + lin).reshape(shape))
        out[lo:hi] = theta
    return out


@pytest.mark.parametrize("scenario", [ControlScenario(T=130, segment_length=50),
                                      scaling_scenario(103),
                                      ControlScenario(T=60, segment_length=1)],
                         ids=["tracking-3x2", "scaling-3x1", "segment-length-1"])
def test_lockstep_comparators_equal_per_segment_runs(scenario):
    loop, feasible, _, costs, w = gen_control_scenario(scenario, seed=0)
    boundaries = scenario.segments()
    comp = best_fixed_dac_per_segment(loop, costs, w, boundaries, feasible)
    ref = per_segment_comparators(loop, costs, w, boundaries, feasible)
    assert np.abs(ref).max() > 0
    assert np.array_equal(comp, ref)


@pytest.mark.parametrize("segment_length", [60, 6, 1])
def test_comparators_project_once_per_step_for_all_segments(segment_length, monkeypatch):
    scenario = ControlScenario(T=60, segment_length=segment_length)
    loop, feasible, _, costs, w = gen_control_scenario(scenario, seed=0)
    calls = []
    project = DacFeasibleSet.project

    def counted(self, M):
        calls.append(np.shape(M))
        return project(self, M)

    monkeypatch.setattr(DacFeasibleSet, "project", counted)
    best_fixed_dac_per_segment(loop, costs, w, scenario.segments(), feasible)
    segments = 60 // segment_length
    assert calls == [(segments, scenario.H, 2, 3)] * COMPARATOR_ITERS


def test_one_lag_table_per_learning_round(monkeypatch):
    scenario = ControlScenario(T=60, H=3, segment_length=20)
    loop, feasible, config, costs, w = gen_control_scenario(scenario, seed=0)
    calls = []
    lag_table_of_round = dac._lag_table

    def counted(lags, H):
        calls.append(lags.shape)
        return lag_table_of_round(lags, H)

    monkeypatch.setattr(dac, "_lag_table", counted)
    run = run_scream_control(loop, loop.system, w, costs, config, feasible=feasible)
    assert sum(cost.grad_calls for cost in costs) == 60 - 3
    assert calls == [(7, 3)] * (60 - 3)


def test_segment_boundaries_cover_horizon():
    assert segment_boundaries(10, 4) == [(0, 4), (4, 8), (8, 10)]
