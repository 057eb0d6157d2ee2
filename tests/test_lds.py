import numpy as np
import pytest

from scream.lds import (ContractViolation, DisturbanceGenerator, LinearSystem, Trajectory,
                        certify_strong_stability, clip_to_ball, closed_loop_rollout, preset,
                        preset_names, random_stable_system, recover_disturbance, step_dynamics)

from conftest import dynamics_residual


def scalar_system(a=0.5, b=1.0):
    return LinearSystem(np.array([[a]]), np.array([[b]]))


class TestLinearSystem:
    @pytest.mark.parametrize("B", [
        np.array([[1.0, 2.0], [0.0, 0.5], [-1.0, 0.0]]),
        np.array([[3.0], [4.0], [0.0]]),
        np.zeros((3, 2)),
    ])
    def test_kappa_B_is_the_floored_operator_norm_of_B(self, B):
        system = LinearSystem(0.5 * np.eye(3), B)
        assert system.kappa_B == max(float(np.linalg.norm(B, 2)), 1e-12)

    def test_kappa_B_is_not_a_constructor_argument(self):
        for extra in ({"kappa_B": 5.0}, {"w_bound": 0.5}):
            with pytest.raises(TypeError):
                LinearSystem(np.eye(2), np.eye(2), **extra)


class TestStepDynamics:
    def test_scalar_recursion(self):
        # x' = 0.5 x + u + w starting from 0 with w = 1: 1, 1.5, 1.75
        system = scalar_system()
        x = np.zeros(1)
        values = []
        for _ in range(3):
            x = step_dynamics(system, x, np.zeros(1), np.ones(1))
            values.append(float(x[0]))
        assert values == [1.0, 1.5, 1.75]

    def test_origin_fixed_point(self):
        system = scalar_system()
        assert step_dynamics(system, np.zeros(1), np.zeros(1), np.zeros(1)) == 0.0

    def test_identity_accumulates_disturbance(self, rng):
        system = LinearSystem(np.eye(3), np.zeros((3, 2)))
        x = np.zeros(3)
        total = np.zeros(3)
        for _ in range(10):
            w = rng.standard_normal(3)
            total += w
            x = step_dynamics(system, x, np.zeros(2), w)
        assert np.allclose(x, total, atol=1e-12)

    def test_dimension_mismatch(self):
        system = scalar_system()
        with pytest.raises(ContractViolation):
            step_dynamics(system, np.zeros(2), np.zeros(1), np.zeros(1))


class TestRecoverDisturbance:
    def test_round_trip(self, rng):
        system = random_stable_system(4, 2, 0.8, seed=5)
        for _ in range(200):
            x = rng.standard_normal(4)
            u = rng.standard_normal(2)
            w = rng.standard_normal(4)
            x_next = step_dynamics(system, x, u, w)
            assert np.linalg.norm(recover_disturbance(system, x_next, x, u) - w) <= 1e-12

    def test_noiseless_step_recovers_zero(self, rng):
        system = random_stable_system(3, 1, 0.7, seed=2)
        x = rng.standard_normal(3)
        u = rng.standard_normal(1)
        x_next = step_dynamics(system, x, u, np.zeros(3))
        assert np.allclose(recover_disturbance(system, x_next, x, u), 0.0, atol=1e-15)

    def test_estimated_system_residual_identity(self, rng):
        # recovering with (A_hat, B_hat) leaves exactly (A - A_hat) x + (B - B_hat) u
        system = random_stable_system(3, 2, 0.8, seed=9)
        a_err = rng.standard_normal((3, 3)) * 0.01
        b_err = rng.standard_normal((3, 2)) * 0.01
        estimate = LinearSystem(system.A + a_err, system.B + b_err)
        for _ in range(50):
            x = rng.standard_normal(3)
            u = rng.standard_normal(2)
            w = rng.standard_normal(3)
            x_next = step_dynamics(system, x, u, w)
            w_hat = recover_disturbance(estimate, x_next, x, u)
            assert np.allclose(w_hat - w, -a_err @ x - b_err @ u, atol=1e-12)


def eigen_residual(cert, closed_loop) -> float:
    """Largest entry of H diag(L) H^{-1} - (A - B K), rebuilt from the certificate."""
    H = cert.transform
    return float(np.max(np.abs(H @ np.diag(cert.modes) @ np.linalg.inv(H) - closed_loop)))


class TestStrongStability:
    def test_diagonal_accepts(self):
        system = LinearSystem(0.5 * np.eye(2), np.eye(2))
        cert = certify_strong_stability(system, np.zeros((2, 2)), kappa=1.0, gamma=0.5)
        assert cert.accepted
        assert np.allclose(np.abs(cert.modes), 0.5)
        assert eigen_residual(cert, system.A) <= 1e-8

    def test_rejects_spectral_radius_above_contraction(self):
        system = LinearSystem(0.9 * np.eye(2), np.eye(2))
        cert = certify_strong_stability(system, np.zeros((2, 2)), kappa=1.0, gamma=0.5)
        assert not cert.accepted
        assert "exceeds" in cert.reason

    def test_random_stable_certificate_reconstructs(self, rng):
        for seed in range(20):
            system = random_stable_system(3, 2, 0.85, seed=seed)
            cert = certify_strong_stability(system, np.zeros((2, 3)))
            assert cert.accepted
            assert eigen_residual(cert, system.A) <= 1e-8
            assert cert.gamma == pytest.approx(1 - np.max(np.abs(np.linalg.eigvals(system.A))),
                                               abs=1e-10)

    def test_defective_matrix_reports_not_certifiable(self):
        # a Jordan block is not diagonalizable
        A = np.array([[0.5, 1.0], [0.0, 0.5]])
        system = LinearSystem(A, np.eye(2))
        cert = certify_strong_stability(system, np.zeros((2, 2)))
        assert not cert.accepted
        assert "diagonaliz" in cert.reason

    def test_state_bound_under_stable_feedback(self, rng):
        # ||x_t|| <= W kappa^2 / gamma with u = -K x (10% slack for finite precision)
        p = preset("mild-3x2", seed=4)
        cert = p.certificate
        W = 0.5
        disturbances = clip_to_ball(rng.standard_normal((400, 3)), W)
        states, _ = closed_loop_rollout(p.system, p.K, np.zeros((400, 2)), disturbances)
        cap = 1.1 * W * cert.kappa ** 2 / cert.gamma
        assert np.max(np.linalg.norm(states, axis=1)) <= cap


class TestDisturbanceGenerators:
    @pytest.mark.parametrize("kind", ["constant", "gaussian-clipped", "sinusoidal",
                                      "piecewise-step", "adversarial-sign"])
    def test_w_ball_constraint_and_reproducibility(self, kind):
        gen = DisturbanceGenerator(kind, dim=3, amplitude=0.7, seed=11, period=20)
        seq = gen.sequence(300)
        assert seq.shape == (300, 3)
        assert np.all(np.linalg.norm(seq, axis=1) <= 0.7 + 1e-12)
        assert np.array_equal(seq, gen.sequence(300))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            DisturbanceGenerator("brownian", dim=2, amplitude=1.0)

    @pytest.mark.parametrize("kind", ["sinusoidal", "piecewise-step"])
    @pytest.mark.parametrize("amplitude, period", [
        (float("nan"), 50), (float("inf"), 50), (-0.1, 50), (1.0, 0), (1.0, -3), (1.0, 0.5),
    ])
    def test_bad_amplitude_or_period_rejected(self, kind, amplitude, period):
        with pytest.raises(ContractViolation):
            DisturbanceGenerator(kind, dim=2, amplitude=amplitude, period=period)

    def test_piecewise_step_is_constant_within_segments(self):
        gen = DisturbanceGenerator("piecewise-step", dim=2, amplitude=1.0, seed=3, period=25)
        seq = gen.sequence(100)
        for start in range(0, 100, 25):
            block = seq[start: start + 25]
            assert np.all(block == block[0])


class TestSimulate:
    def test_presets_certified(self):
        for name in preset_names():
            p = preset(name, seed=0)
            assert p.certificate.accepted, name
            assert p.system.d_x == 3
            assert p.system.d_u == (1 if name.endswith("3x1") else 2)


def stepped_rollout(system, K, offsets, w, x0):
    """Reference: the closed loop one round at a time, raw array algebra only."""
    states = [np.asarray(x0, dtype=float)]
    actions = []
    for t in range(w.shape[0]):
        u = -K @ states[-1] + offsets[t]
        actions.append(u)
        states.append(system.A @ states[-1] + system.B @ u + w[t])
    return np.asarray(states), np.asarray(actions).reshape(len(actions), system.d_u)


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want), initial=0.0)) / max(
        float(np.max(np.abs(want), initial=0.0)), 1e-300)


class TestClosedLoopRollout:
    @pytest.mark.parametrize("T", [0, 1, 64000])
    @pytest.mark.parametrize("d_u, radius", [(2, 0.9), (1, 0.6), (2, 1.0)])
    def test_matches_step_loop(self, T, d_u, radius):
        # nonzero feedback; A is chosen so that A - B K has the given spectral radius
        rng = np.random.default_rng(T + d_u)
        closed = random_stable_system(3, d_u, radius, seed=4)
        K = 0.3 * rng.standard_normal((d_u, 3))
        system = LinearSystem(closed.A + closed.B @ K, closed.B)
        offsets = rng.choice([-1.0, 1.0], size=(T, d_u))
        w = rng.uniform(-0.1, 0.1, (T, 3))
        x0 = rng.standard_normal(3)
        states, actions = closed_loop_rollout(system, K, offsets, w, x0=x0)
        ref_states, ref_actions = stepped_rollout(system, K, offsets, w, x0)
        assert states.shape == (T + 1, 3) and actions.shape == (T, d_u)
        assert _relative_gap(states, ref_states) <= 1e-11
        assert _relative_gap(actions, ref_actions) <= 1e-11
        traj = Trajectory(states, actions, w, np.zeros(T))
        assert dynamics_residual(system, traj) <= 1e-11 * (1.0 + np.max(np.abs(states)))

    def test_defaults_to_the_origin(self, rng):
        system = random_stable_system(3, 2, 0.8, seed=1)
        offsets = rng.standard_normal((50, 2))
        w = rng.standard_normal((50, 3))
        states, _ = closed_loop_rollout(system, np.zeros((2, 3)), offsets, w)
        ref, _ = stepped_rollout(system, np.zeros((2, 3)), offsets, w, np.zeros(3))
        assert np.all(states[0] == 0.0)
        assert _relative_gap(states, ref) <= 1e-11

    def test_nilpotent_closed_loop_stops_early(self, rng):
        # (A - B K)^2 = 0: the scan stops after its first pass and still matches the step loop
        system = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
        offsets = rng.standard_normal((300, 1))
        w = rng.standard_normal((300, 2))
        states, actions = closed_loop_rollout(system, np.zeros((1, 2)), offsets, w)
        ref_states, ref_actions = stepped_rollout(system, np.zeros((1, 2)), offsets, w, np.zeros(2))
        assert np.allclose(states, ref_states, rtol=1e-14, atol=1e-14)
        assert np.array_equal(actions, ref_actions)

    @pytest.mark.parametrize("K, offsets, w, x0", [
        (np.zeros((2, 3)), np.zeros((10, 1)), np.zeros((10, 3)), None),   # offsets d_u
        (np.zeros((2, 3)), np.zeros((9, 2)), np.zeros((10, 3)), None),    # offsets T
        (np.zeros((3, 2)), np.zeros((10, 2)), np.zeros((10, 3)), None),   # K transposed
        (np.zeros((2, 3)), np.zeros((10, 2)), np.zeros((10, 2)), None),   # w d_x
        (np.zeros((2, 3)), np.zeros((10, 2)), np.zeros(10), None),        # w one-dimensional
        (np.zeros((2, 3)), np.zeros((10, 2)), np.zeros((10, 3)), np.zeros(2)),  # x0
    ])
    def test_shapes_checked(self, K, offsets, w, x0):
        system = random_stable_system(3, 2, 0.8, seed=1)
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            closed_loop_rollout(system, K, offsets, w, x0=x0)
