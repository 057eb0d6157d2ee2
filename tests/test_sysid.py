import numpy as np
import pytest

from scream.control import ControlConfig, run_scream_control
from scream.dac import ClosedLoop, QuadraticTrackingCost, lipschitz_constants
from scream.lds import (DisturbanceGenerator, LinearSystem, certify_strong_stability, preset,
                        recover_disturbance)
from scream.oco import ContractViolation
from scream.sysid import (IdentificationConfig, InsufficientExcitation, explore, identify_system,
                          moments_from_exploration, run_unknown_pipeline)

from conftest import dynamics_residual


def scalar_plant():
    return LinearSystem(np.array([[0.5]]), np.array([[1.0]]))


class TestIdentification:
    def test_noiseless_scalar_moments_converge(self):
        # N_j -> A^j B = 0.5^j as the exploration budget grows
        plant = scalar_plant()
        K = np.zeros((1, 1))
        errors = []
        for T0 in (1000, 8000, 64000):
            _, moments = identify_system(plant, K, IdentificationConfig(T0, 2),
                                         np.zeros((T0, 1)), seed=7)
            errors.append(max(abs(moments.N[j, 0, 0] - 0.5 ** j) for j in range(3)))
        assert errors[0] > errors[-1]
        assert errors[-1] <= 0.05

    def test_moment_estimates_unbiased(self):
        # empirical mean over 100 independent identifications within 3 standard errors
        p = preset("sysid-3x2", seed=0)
        a_k = p.system.A  # K = 0
        expected = np.stack([np.linalg.matrix_power(a_k, j) @ p.system.B for j in range(3)])
        samples = []
        for seed in range(100):
            gen = DisturbanceGenerator("gaussian-clipped", 3, amplitude=0.1, seed=seed + 500)
            _, moments = identify_system(p.system, p.K, IdentificationConfig(400, 2),
                                         gen.sequence(400), seed=seed)
            samples.append(moments.N)
        samples = np.asarray(samples)
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert np.all(np.abs(mean - expected) <= 3 * se + 1e-12)

    def test_reconstruction_identity(self, rng):
        p = preset("sysid-3x2", seed=0)
        K = rng.standard_normal((2, 3)) * 0.05
        gen = DisturbanceGenerator("gaussian-clipped", 3, amplitude=0.1, seed=9)
        ident, _ = identify_system(p.system, K, IdentificationConfig(2000, 2),
                                   gen.sequence(2000), seed=3)
        assert np.max(np.abs(ident.A_hat - (ident.A_K_hat + ident.B_hat @ ident.K))) <= 1e-12

    def test_error_decreases_with_budget(self):
        p = preset("sysid-3x2", seed=0)
        medians = []
        for T0 in (1000, 4000, 16000):
            errs = []
            for seed in range(20):
                gen = DisturbanceGenerator("gaussian-clipped", 3, amplitude=0.1, seed=seed + 31)
                ident, _ = identify_system(p.system, p.K, IdentificationConfig(T0, 2),
                                           gen.sequence(T0), seed=seed)
                errs.append(float(np.linalg.norm(ident.A_hat - p.system.A)))
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_insufficient_excitation_raises(self):
        # second state is unreachable and undisturbed: the moment Gram is singular
        plant = LinearSystem(np.diag([0.5, 0.3]), np.array([[1.0], [0.0]]))
        with pytest.raises(InsufficientExcitation):
            identify_system(plant, np.zeros((1, 2)), IdentificationConfig(500, 2),
                            np.zeros((500, 2)), seed=1)

    def test_bad_config_rejected(self):
        with pytest.raises(ContractViolation):
            IdentificationConfig(5, 5)
        with pytest.raises(ContractViolation):
            IdentificationConfig(10, 0)

    def test_controllability_index_of_preset(self):
        # k = 2 is the smallest index: [B] is rank deficient, [B, A_K B] has full row rank
        p = preset("sysid-3x2", seed=0)
        B = p.system.B
        a_k = p.system.A - B @ p.K
        assert np.linalg.matrix_rank(B, tol=1e-8) < 3
        assert np.linalg.matrix_rank(np.hstack([B, a_k @ B]), tol=1e-8) == 3

    def test_fictitious_disturbance_error_identity(self, rng):
        # || w - w_hat || <= ||A - A_hat|| ||x|| + ||B - B_hat|| ||u|| (algebraic)
        p = preset("sysid-3x2", seed=0)
        gen = DisturbanceGenerator("gaussian-clipped", 3, amplitude=0.1, seed=77)
        ident, _ = identify_system(p.system, p.K, IdentificationConfig(3000, 2),
                                   gen.sequence(3000), seed=5)
        da = np.linalg.norm(ident.A_hat - p.system.A, 2)
        db = np.linalg.norm(ident.B_hat - p.system.B, 2)
        from scream.lds import recover_disturbance, step_dynamics
        estimate = ident.as_system()
        for _ in range(100):
            x = rng.standard_normal(3)
            u = rng.standard_normal(2)
            w = rng.standard_normal(3) * 0.1
            x_next = step_dynamics(p.system, x, u, w)
            w_hat = recover_disturbance(estimate, x_next, x, u)
            cap = da * np.linalg.norm(x) + db * np.linalg.norm(u)
            assert np.linalg.norm(w - w_hat) <= cap + 1e-10

    def test_moments_average_the_documented_products(self, rng):
        # direct check of N_j against a naive double loop
        states = rng.standard_normal((11, 3))
        signs = rng.choice([-1.0, 1.0], size=(10, 2))
        k = 2
        moments = moments_from_exploration(states, signs, k)
        n = 10 - k
        for j in range(k + 1):
            expected = sum(np.outer(states[t + j + 1], signs[t]) for t in range(n)) / n
            assert np.allclose(moments.N[j], expected, atol=1e-12)


class TestExplore:
    def test_matches_step_loop(self):
        # nonzero feedback and single input; the reference steps one round at a time
        plant = LinearSystem(np.array([[0.6, 0.2, 0.0], [0.0, 0.5, 0.3], [0.1, 0.0, 0.7]]),
                             np.array([[1.0], [0.0], [0.5]]))
        K = np.array([[0.2, -0.1, 0.3]])
        w = np.random.default_rng(3).uniform(-0.1, 0.1, (5000, 3))
        traj, signs = explore(plant, K, 4000, w, np.random.default_rng(8))
        assert np.array_equal(signs, np.random.default_rng(8).choice([-1.0, 1.0], size=(4000, 1)))
        x = np.zeros(3)
        ref_states, ref_actions = [x], []
        for t in range(4000):
            u = -K @ x + signs[t]
            ref_actions.append(u)
            x = plant.A @ x + plant.B @ u + w[t]
            ref_states.append(x)
        scale = np.max(np.abs(ref_states))
        assert np.max(np.abs(traj.states - np.asarray(ref_states))) <= 1e-11 * scale
        assert np.max(np.abs(traj.actions - np.asarray(ref_actions))) <= 1e-11 * scale
        assert dynamics_residual(plant, traj) <= 1e-11 * scale
        assert np.array_equal(traj.disturbances, w[:4000])

    def test_one_cost_value_per_round(self):
        p = preset("sysid-3x2", seed=0)
        rng = np.random.default_rng(4)
        costs = [QuadraticTrackingCost(rng.uniform(-0.3, 0.3, 3)) for _ in range(300)]
        traj, _ = explore(p.system, p.K, 300, p.disturbance.sequence(300),
                          np.random.default_rng(1), costs=costs)
        assert [c.value_calls for c in costs] == [1] * 300
        assert [c.grad_calls for c in costs] == [0] * 300
        expected = [QuadraticTrackingCost(c.target).value(x, u)
                    for c, x, u in zip(costs, traj.states, traj.actions)]
        assert traj.costs.tolist() == expected

    def test_diverging_closed_loop_gives_non_finite_moments(self):
        # spectral radius 1.3: the states overflow, and the moment check rejects them
        plant = LinearSystem(np.array([[0.9, 0.5], [0.0, 1.3]]), np.array([[1.0], [0.5]]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation, match="moment estimates have non-finite entries"):
                identify_system(plant, np.zeros((1, 2)), IdentificationConfig(3000, 2),
                                np.zeros((3000, 2)), seed=1)

    def test_budget_needs_enough_disturbances(self):
        p = preset("sysid-3x2", seed=0)
        with pytest.raises(ContractViolation):
            explore(p.system, p.K, 100, np.zeros((99, 3)), np.random.default_rng(0))


def pipeline_pieces(T=260, T0=60, H=2, seed=0):
    p = preset("sysid-3x2", seed=seed)
    loop_truth = ClosedLoop(p.system, p.K, p.certificate)
    constants = lipschitz_constants(loop_truth.kappa, loop_truth.gamma, p.system.kappa_B,
                                    0.1, 2.0, H, 2, 3)
    config = ControlConfig(T=T - T0, constants=constants, lam_multiplier=1e-4)
    rng = np.random.default_rng(seed + 11)
    costs = [QuadraticTrackingCost(rng.uniform(-0.3, 0.3, 3)) for _ in range(T)]
    gen = DisturbanceGenerator("piecewise-step", 3, amplitude=0.1, seed=seed + 12, period=40)
    return p, loop_truth, config, costs, gen.sequence(T)


class TestPipeline:
    def test_perfect_injection_matches_known_system_run(self):
        p, loop_truth, config, costs, w = pipeline_pieces()
        T0 = 60
        pipe = run_unknown_pipeline(p.system, p.K, IdentificationConfig(T0, 2), config,
                                    costs, w, seed=4,
                                    inject_system=LinearSystem(p.system.A.copy(),
                                                               p.system.B.copy()))
        reference_costs = [QuadraticTrackingCost(c.target, c.control_weight) for c in costs]
        believed = ClosedLoop(p.system, p.K, certify_strong_stability(p.system, p.K))
        reference = run_scream_control(believed, p.system, w[T0:], reference_costs[T0:],
                                       config, x0=pipe.identified.exploration.states[-1])
        assert np.array_equal(pipe.control_run.states, reference.states)
        assert np.array_equal(pipe.control_run.actions, reference.actions)
        assert np.array_equal(pipe.control_run.params, reference.params)

    def test_estimated_run_bookkeeping(self):
        p, loop_truth, config, costs, w = pipeline_pieces(seed=2)
        pipe = run_unknown_pipeline(p.system, p.K, IdentificationConfig(60, 2), config,
                                    costs, w, seed=8)
        # independent re-summation of the exploration phase
        explore_total = float(np.sum(pipe.identified.exploration.costs))
        assert pipe.exploration_cost == pytest.approx(explore_total, rel=1e-12)
        assert pipe.control_run.T == 260 - 60

    def test_estimated_run_recovers_fictitious_disturbances(self):
        p, loop_truth, config, costs, w = pipeline_pieces(seed=3)
        pipe = run_unknown_pipeline(p.system, p.K, IdentificationConfig(60, 2), config,
                                    costs, w, seed=9)
        run = pipe.control_run
        da = np.linalg.norm(pipe.identified.A_hat - p.system.A, 2)
        db = np.linalg.norm(pipe.identified.B_hat - p.system.B, 2)
        believed = pipe.identified.as_system()
        recovered = np.array([recover_disturbance(believed, run.states[t + 1], run.states[t],
                                                  run.actions[t]) for t in range(run.T)])
        gaps = np.linalg.norm(recovered - run.disturbances, axis=1)
        caps = (da * np.linalg.norm(run.states[:-1], axis=1)
                + db * np.linalg.norm(run.actions, axis=1))
        assert np.all(gaps <= caps + 1e-10)

    def test_budget_must_leave_learning_rounds(self):
        p, loop_truth, config, costs, w = pipeline_pieces()
        with pytest.raises(ContractViolation):
            run_unknown_pipeline(p.system, p.K, IdentificationConfig(260, 2), config,
                                 costs, w, seed=1)
