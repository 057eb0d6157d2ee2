import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scream
from scream.control import ControlConfig, run_scream_control
from scream.dac import ClosedLoop, QuadraticTrackingCost, lag_table, lipschitz_constants
from scream.lds import DisturbanceGenerator, LinearSystem, certify_strong_stability, preset
from scream.oco import ContractViolation
from scream.sysid import (IdentificationConfig, InsufficientExcitation, explore, identify_system,
                          moments_from_exploration, recover_from_moments, run_unknown_pipeline)
from scream.verify import dac_action

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
        ident, moments = identify_system(p.system, K, IdentificationConfig(2000, 2),
                                         gen.sequence(2000), seed=3)
        A_hat, B_hat, A_K_hat = recover_from_moments(moments, K)
        assert np.array_equal(A_hat, ident.A_hat) and np.array_equal(B_hat, ident.B_hat)
        assert np.max(np.abs(A_hat - (A_K_hat + B_hat @ K))) <= 1e-12

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
        estimate = LinearSystem(ident.A_hat, ident.B_hat)
        for _ in range(100):
            x = rng.standard_normal(3)
            u = rng.standard_normal(2)
            w = rng.standard_normal(3) * 0.1
            x_next = p.system.A @ x + p.system.B @ u + w
            w_hat = x_next - estimate.A @ x - estimate.B @ u
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

    @pytest.mark.parametrize("T0", [250, 4000, 16000])
    def test_moments_equal_the_einsum_sums_on_sign_inputs(self, T0):
        # each term x z^T is exact for +-1 signs; the sums match the former einsum bit for bit
        p = preset("sysid-3x2", seed=0)
        w = p.disturbance.sequence(T0)
        trajectory, signs = explore(p.system, p.K, T0, w, np.random.default_rng(T0))
        k, n = 2, T0 - 2
        moments = moments_from_exploration(trajectory.states, signs, k)
        for j in range(k + 1):
            einsum = np.einsum("tx,tu->xu", trajectory.states[j + 1: j + 1 + n], signs[:n]) / n
            assert np.array_equal(moments.N[j], einsum)

    def test_single_input_moments_within_summation_rounding_of_the_einsum(self):
        # with d_u = 1 the product is padded with a zero column, and BLAS sums it in its own
        # order; any order is within n * eps of the sum of absolute terms
        p = preset("scaling-3x1", seed=0)
        T0, k = 4000, 2
        trajectory, signs = explore(p.system, p.K, T0, p.disturbance.sequence(T0),
                                    np.random.default_rng(0))
        n = T0 - k
        moments = moments_from_exploration(trajectory.states, signs, k)
        for j in range(k + 1):
            window = trajectory.states[j + 1: j + 1 + n]
            einsum = np.einsum("tx,tu->xu", window, signs[:n]) / n
            bound = n * np.finfo(float).eps * (np.abs(window).T @ np.abs(signs[:n])) / n
            assert np.all(np.abs(moments.N[j] - einsum) <= bound)

    def test_single_input_moments_do_not_depend_on_the_blas_thread_count(self):
        # unpadded, the single-input product changes bits between 1 and 2 threads at this T0;
        # each child sets the thread count before numpy loads BLAS
        code = ("import sys; from scream.lds import preset; "
                "from scream.sysid import IdentificationConfig, identify_system; "
                "p = preset('scaling-3x1', seed=0); T0 = 200000; "
                "_, moments = identify_system(p.system, p.K, IdentificationConfig(T0, 2), "
                "p.disturbance.sequence(T0)); sys.stdout.buffer.write(moments.N.tobytes())")
        path = os.pathsep.join(filter(None, [str(Path(scream.__file__).resolve().parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        outputs = [subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                                  timeout=120, env=dict(os.environ, PYTHONPATH=path,
                                                        OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")]
        assert len(outputs[0]) == 3 * 3 * 1 * 8
        assert outputs[0] == outputs[1]


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
        # independent re-pricing of the exploration phase
        explored = pipe.identified.exploration
        explore_total = sum(QuadraticTrackingCost(c.target).value(x, u)
                            for c, x, u in zip(costs, explored.states, explored.actions))
        assert pipe.exploration_cost == pytest.approx(explore_total, rel=1e-12)
        assert pipe.control_run.T == 260 - 60

    def test_exploration_cost_prices_each_round_once(self):
        p, loop_truth, config, costs, w = pipeline_pieces(seed=1)
        T0 = 60
        pipe = run_unknown_pipeline(p.system, p.K, IdentificationConfig(T0, 2), config,
                                    costs, w, seed=5)
        assert [c.value_calls for c in costs[:T0]] == [1] * T0
        assert [c.grad_calls for c in costs[:T0]] == [0] * T0
        explored = pipe.identified.exploration
        expected = [QuadraticTrackingCost(c.target).value(x, u)
                    for c, x, u in zip(costs, explored.states, explored.actions)]
        assert pipe.exploration_cost == float(np.sum(expected))

    def test_estimated_run_recovers_fictitious_disturbances(self):
        p, loop_truth, config, costs, w = pipeline_pieces(seed=3)
        pipe = run_unknown_pipeline(p.system, p.K, IdentificationConfig(60, 2), config,
                                    costs, w, seed=9)
        run = pipe.control_run
        da = np.linalg.norm(pipe.identified.A_hat - p.system.A, 2)
        db = np.linalg.norm(pipe.identified.B_hat - p.system.B, 2)
        believed = LinearSystem(pipe.identified.A_hat, pipe.identified.B_hat)
        recovered = np.array([run.states[t + 1] - believed.A @ run.states[t]
                              - believed.B @ run.actions[t] for t in range(run.T)])
        gaps = np.linalg.norm(recovered - run.disturbances, axis=1)
        caps = (da * np.linalg.norm(run.states[:-1], axis=1)
                + db * np.linalg.norm(run.actions, axis=1))
        assert np.all(gaps <= caps + 1e-10)
        # the controller acted on exactly these recoveries, made with (A_hat, B_hat)
        lags = lag_table(recovered, config.H)
        assert np.any(run.params != 0.0)
        for t in range(run.T):
            assert np.array_equal(run.actions[t],
                                  dac_action(p.K, run.params[t], run.states[t], lags[t]))

    def test_budget_must_leave_learning_rounds(self):
        p, loop_truth, config, costs, w = pipeline_pieces()
        with pytest.raises(ContractViolation):
            run_unknown_pipeline(p.system, p.K, IdentificationConfig(260, 2), config,
                                 costs, w, seed=1)
