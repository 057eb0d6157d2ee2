import numpy as np
import pytest

import scream
from scream import dac, verify
from scream.dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lag_table,
                        lipschitz_constants, simulate_dac, state_action_bound,
                        tracking_grad_coeff, unary_truncated_gradient, unary_truncated_map)
from scream.lds import LinearSystem, preset, random_stable_system
from scream.oco import ContractViolation
from scream.verify import dac_action, transfer_matrix, transfer_state, truncated_loss

from conftest import dynamics_residual


def transfer_norm_bound(kappa, gamma, kappa_B, H, i, h):
    """Reference: certified operator-norm cap of the transfer matrix at index i (tau = kappa_B kappa^3)."""
    tau = kappa_B * kappa ** 3
    head = kappa ** 2 * (1 - gamma) ** i if i <= h else 0.0
    return head + H * kappa_B * kappa ** 2 * tau * (1 - gamma) ** (i - 1)


def make_loop(seed=1, radius=0.9):
    system = random_stable_system(3, 2, radius, seed=seed)
    return ClosedLoop(system, np.zeros((2, 3)))


def feasible_for(loop, H):
    return DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, loop.system.kappa_B,
                                           H, loop.system.d_u, loop.system.d_x)


class TestDacAction:
    def test_zero_params_is_linear_feedback(self, rng):
        K = rng.standard_normal((2, 3))
        x = rng.standard_normal(3)
        u = dac_action(K, np.zeros((4, 2, 3)), x, np.zeros((4, 3)))
        assert np.allclose(u, -K @ x, atol=0)

    def test_identity_block_reads_last_disturbance(self):
        M = np.eye(2, 3)[None]  # H = 1
        lags = np.array([[1.0, 0.0, 0.0]])
        u = dac_action(np.zeros((2, 3)), M, np.zeros(3), lags)
        assert np.allclose(u, [1.0, 0.0], atol=0)

    def test_matches_naive_loop(self, rng):
        for _ in range(100):
            H, d_u, d_x = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            K = rng.standard_normal((d_u, d_x))
            M = rng.standard_normal((H, d_u, d_x))
            x = rng.standard_normal(d_x)
            lags = rng.standard_normal((H + 2, d_x))
            expected = -K @ x
            for k in range(H):
                expected = expected + M[k] @ lags[k]
            assert np.linalg.norm(dac_action(K, M, x, lags) - expected) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            dac_action(np.zeros((2, 3)), np.zeros((2, 2, 3)), np.zeros(3), np.zeros((1, 3)))


def lags_at(disturbances, t, count):
    """Reference: the lags of round t read off the record one at a time, zero before the start."""
    out = np.zeros((count, disturbances.shape[1]))
    lo = max(t - count, 0)
    if t > 0:
        out[: t - lo] = disturbances[lo:t][::-1]
    return out


class TestLagTable:
    @pytest.mark.parametrize("count", [1, 4, 13])
    def test_matches_per_round_reference(self, rng, count):
        w = rng.standard_normal((10, 2))
        table = lag_table(w, count)
        assert table.shape == (10, count, 2)
        for t in range(10):  # includes every t < count, where the start is zero-padded
            assert np.array_equal(table[t], lags_at(w, t, count))

    def test_most_recent_first(self):
        w = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(lag_table(w, 3)[:, :, 0], [[0, 0, 0], [1, 0, 0], [2, 1, 0]])


class TestClosedLoopPowers:
    def test_slices_of_one_stack(self):
        loop = make_loop(seed=4)
        d_x, d_u = loop.system.d_x, loop.system.d_u
        (short, short_b), (long, long_b) = loop.flat_powers(3), loop.flat_powers(7)
        assert np.array_equal(short, long[:, :3 * d_x])
        assert np.array_equal(short_b, long_b[:, :3 * d_u])
        powers = np.ascontiguousarray(long.reshape(d_x, 7, d_x).swapaxes(0, 1))
        assert np.array_equal(long_b.reshape(d_x, 7, d_u).swapaxes(0, 1), powers @ loop.system.B)
        for j in range(7):
            assert np.allclose(powers[j], np.linalg.matrix_power(loop.a_closed, j),
                               rtol=1e-12, atol=1e-15)

    def test_stacks_are_read_only(self):
        loop = make_loop(seed=4)
        for table in loop.flat_powers(3):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


class TestTransferMatrix:
    def test_zero_params_give_closed_loop_powers(self, rng):
        loop = make_loop(seed=2)
        H, h = 3, 5
        M_seq = [np.zeros((H, 2, 3))] * (h + 1)
        for i in range(H + h + 1):
            psi = transfer_matrix(loop, i, h, M_seq)
            expected = np.linalg.matrix_power(loop.a_closed, i) if i <= h else np.zeros((3, 3))
            assert np.allclose(psi, expected, atol=1e-12)

    def test_index_zero_is_identity(self, rng):
        loop = make_loop(seed=3)
        M_seq = [rng.standard_normal((2, 2, 3)) for _ in range(4)]
        assert np.allclose(transfer_matrix(loop, 0, 3, M_seq), np.eye(3), atol=0)

    def test_out_of_range_index(self):
        loop = make_loop(seed=4)
        M_seq = [np.zeros((2, 2, 3))] * 3
        with pytest.raises(ContractViolation):
            transfer_matrix(loop, 2 + 2 + 1, 2, M_seq)

    def test_norm_bound_on_feasible_params(self, rng):
        loop = make_loop(seed=5, radius=0.8)
        H, h = 3, 4
        feasible = feasible_for(loop, H)
        kappa, gamma = loop.kappa, loop.gamma
        for _ in range(50):
            M_seq = [feasible.random_point(rng) for _ in range(h + 1)]
            for i in range(H + h + 1):
                psi = transfer_matrix(loop, i, h, M_seq)
                cap = transfer_norm_bound(kappa, gamma, loop.system.kappa_B, H, i, h)
                assert np.linalg.norm(psi, 2) <= cap + 1e-9


class TestStateViaTransfer:
    def test_first_round_state_is_first_disturbance(self, rng):
        loop = make_loop(seed=6)
        w0 = rng.standard_normal(3)
        x1 = transfer_state(loop, [np.zeros((2, 2, 3))], w0[None])
        assert np.allclose(x1, w0, atol=1e-14)

    def test_zero_disturbances_zero_state(self, rng):
        loop = make_loop(seed=7)
        M_hist = [rng.standard_normal((2, 2, 3)) for _ in range(6)]
        x = transfer_state(loop, M_hist, np.zeros((6, 3)))
        assert np.allclose(x, 0.0, atol=0)

    def test_matches_direct_simulation_every_round(self, rng):
        # transfer-matrix expansion against the recursive closed loop, all rounds
        for seed in (8, 9, 10):
            loop = make_loop(seed=seed)
            H, T = 4, 25
            feasible = feasible_for(loop, H)
            M_hist = np.asarray([feasible.random_point(rng) for _ in range(T)])
            w = rng.uniform(-0.5, 0.5, (T, 3))
            states = simulate_dac(loop.system, loop.K, M_hist, w).states
            for t in range(1, T + 1):
                x = transfer_state(loop, M_hist[:t], w[:t][::-1])
                scale = max(np.linalg.norm(states[t]), 1e-12)
                assert np.linalg.norm(states[t] - x) <= 1e-8 * scale


class TestTruncation:
    def test_window_length_enforced(self, rng):
        loop = make_loop(seed=12)
        cost = QuadraticTrackingCost(np.zeros(3))
        with pytest.raises(ContractViolation):
            truncated_loss(cost, loop, np.zeros((3, 2, 2, 3)), np.zeros((5, 3)))

    def test_truncated_state_error_bound(self, rng):
        # ||x_t - y_t|| <= kappa^2 (1 - gamma)^(H+1) * D on a feasible run
        p = preset("mild-3x2", seed=13)
        loop = ClosedLoop(p.system, p.K, p.certificate)
        H, T, W = 4, 120, 0.5
        feasible = feasible_for(loop, H)
        d_bound = state_action_bound(loop.kappa, loop.gamma, p.system.kappa_B, W, H)
        M_seq = np.asarray([feasible.random_point(rng) for _ in range(T)])
        w = p.disturbance.sequence(T)
        states = simulate_dac(p.system, p.K, M_seq, w).states
        cap = loop.kappa ** 2 * (1 - loop.gamma) ** (H + 1) * d_bound
        checked = 0
        lags = lag_table(w, 2 * H + 1)
        for t in range(H + 1, T):
            y = transfer_state(loop, M_seq[t - 1 - H: t], lags[t])
            assert np.linalg.norm(states[t] - y) <= cap
            checked += 1
        assert checked > 100

    def test_per_round_loss_gap_bound(self, rng):
        # |c_t(x_t, u_t) - f_t| <= 2 G_c D^2 kappa^3 (1 - gamma)^(H+1)
        p = preset("mild-3x2", seed=14)
        loop = ClosedLoop(p.system, p.K, p.certificate)
        H, T, W = 5, 150, 0.5
        feasible = feasible_for(loop, H)
        d_bound = state_action_bound(loop.kappa, loop.gamma, p.system.kappa_B, W, H)
        target_radius = 0.5
        g_c = tracking_grad_coeff(d_bound, target_radius)
        rng_t = np.random.default_rng(99)
        costs = [QuadraticTrackingCost(rng_t.uniform(-target_radius / 2, target_radius / 2, 3))
                 for _ in range(T)]
        M_seq = np.asarray([feasible.random_point(rng) for _ in range(T)])
        w = p.disturbance.sequence(T)
        traj = simulate_dac(p.system, p.K, M_seq, w, costs=costs)
        cap = 2 * g_c * d_bound ** 2 * loop.kappa ** 3 * (1 - loop.gamma) ** (H + 1)
        lags = lag_table(w, 2 * H + 1)
        for t in range(H + 1, T):
            window = M_seq[t - 1 - H: t + 1]
            value, _, _ = truncated_loss(costs[t], loop, window, lags[t])
            assert abs(traj.costs[t] - value) <= cap


class TestSimulateDac:
    @staticmethod
    def stepped(system, K, M_seq, w, x0):
        """Reference: one round at a time, lags read straight off the record."""
        H = M_seq.shape[1]
        x = np.asarray(x0, dtype=float)
        states, actions = [x], []
        for t in range(w.shape[0]):
            u = -K @ x
            for k in range(H):
                if t - 1 - k >= 0:
                    u = u + M_seq[t][k] @ w[t - 1 - k]
            actions.append(u)
            x = system.A @ x + system.B @ u + w[t]
            states.append(x)
        return np.asarray(states), np.asarray(actions)

    @pytest.mark.parametrize("d_u, H, T", [(2, 3, 200), (1, 5, 64), (2, 1, 1)])
    def test_matches_step_loop(self, rng, d_u, H, T):
        system = random_stable_system(3, d_u, 0.9, seed=d_u + H)
        K = 0.05 * rng.standard_normal((d_u, 3))
        M_seq = 0.3 * rng.standard_normal((T, H, d_u, 3))
        w = rng.uniform(-0.5, 0.5, (T, 3))
        x0 = rng.standard_normal(3)
        traj = simulate_dac(system, K, M_seq, w, x0=x0)
        ref_states, ref_actions = self.stepped(system, K, M_seq, w, x0)
        scale = np.max(np.abs(ref_states))
        assert np.max(np.abs(traj.states - ref_states)) <= 1e-11 * scale
        assert np.max(np.abs(traj.actions - ref_actions)) <= 1e-11 * scale
        assert dynamics_residual(system, traj) <= 1e-11 * scale

    def test_one_cost_value_per_round(self, rng):
        loop = make_loop(seed=5)
        T = 80
        costs = [QuadraticTrackingCost(rng.uniform(-0.3, 0.3, 3)) for _ in range(T)]
        M = np.broadcast_to(0.3 * rng.standard_normal((3, 2, 3)), (T, 3, 2, 3))
        traj = simulate_dac(loop.system, loop.K, M, rng.uniform(-0.5, 0.5, (T, 3)), costs=costs)
        assert [c.value_calls for c in costs] == [1] * T
        assert [c.grad_calls for c in costs] == [0] * T
        expected = [QuadraticTrackingCost(c.target).value(x, u)
                    for c, x, u in zip(costs, traj.states, traj.actions)]
        assert traj.costs.tolist() == expected

    @pytest.mark.parametrize("M_shape", [(9, 3, 2, 3), (10, 3, 1, 3), (10, 3, 2, 2),
                                         (3, 2, 2), (2, 3), (10, 1, 3, 2, 3), (3, 2, 3)])
    def test_parameter_shapes_checked(self, M_shape):
        loop = make_loop(seed=2)
        with pytest.raises(ContractViolation):
            simulate_dac(loop.system, loop.K, np.zeros(M_shape), np.zeros((10, 3)))


class TestUnaryGradient:
    def test_zero_disturbances_zero_gradient(self, rng):
        loop = make_loop(seed=15)
        cost = QuadraticTrackingCost(rng.standard_normal(3))
        M = rng.standard_normal((3, 2, 3)) * 0.2
        g = unary_truncated_gradient(cost, loop, M, np.zeros((7, 3)))
        assert np.allclose(g, 0.0, atol=0)

    def test_scalar_hand_derived_closed_form(self):
        # scalar system a = 0.5, b = 2, K = 0, H = 1, M = [[0.3]]
        loop = ClosedLoop(LinearSystem(np.array([[0.5]]), np.array([[2.0]])), np.zeros((1, 1)))
        lags = np.array([[0.4], [-0.2], [0.1]])
        cost = QuadraticTrackingCost(np.array([0.7]), control_weight=0.1)
        M = np.array([[[0.3]]])
        # y = w1 + a w2 + b m w2 + a b m w3,  v = m w1
        y = 0.4 + 0.5 * -0.2 + 2 * 0.3 * -0.2 + 0.5 * 2 * 0.3 * 0.1
        v = 0.3 * 0.4
        value, y_lib, v_lib = truncated_loss(cost, loop, np.broadcast_to(M, (3, 1, 1, 1)), lags)
        assert y_lib[0] == pytest.approx(y, rel=1e-14)
        assert v_lib[0] == pytest.approx(v, rel=1e-14)
        assert value == pytest.approx((y - 0.7) ** 2 + 0.1 * v ** 2, rel=1e-14)
        # df/dm = 2 (y - target)(b w2 + a b w3) + 2 rho v w1
        expected = 2 * (y - 0.7) * (2 * -0.2 + 0.5 * 2 * 0.1) + 2 * 0.1 * v * 0.4
        g = unary_truncated_gradient(cost, loop, M, lags)
        assert g[0, 0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self, rng):
        loop = make_loop(seed=16, radius=0.7)
        H = 3
        feasible = feasible_for(loop, H)
        for _ in range(30):
            M = feasible.random_point(rng)
            lags = rng.uniform(-0.5, 0.5, (2 * H + 1, 3))
            cost = QuadraticTrackingCost(rng.standard_normal(3))
            grad = unary_truncated_gradient(cost, loop, M, lags)
            h = 1e-5
            window = (H + 2,) + M.shape
            for idx in np.ndindex(M.shape):
                bump = M.copy()
                bump[idx] += h
                up = truncated_loss(cost, loop, np.broadcast_to(bump, window), lags)[0]
                bump[idx] -= 2 * h
                down = truncated_loss(cost, loop, np.broadcast_to(bump, window), lags)[0]
                fd = (up - down) / (2 * h)
                assert abs(fd - grad[idx]) <= 1e-5 * max(abs(fd), abs(grad[idx]), 1e-6)

    def test_gradient_check_sees_an_entry_off_by_1e_8_relative(self, monkeypatch):
        # the largest entry of every gradient is off by 1e-8 relative: the check at step
        # FD_STEP fails it, the check at the old step and bound of 1e-5 passed it
        exact = verify.unary_truncated_gradient

        def off(cost, loop, M, lags):
            grad = exact(cost, loop, M, lags)
            grad[np.unravel_index(np.argmax(np.abs(grad)), grad.shape)] *= 1 + 1e-8
            return grad

        assert verify.check_gradient_fd(np.random.default_rng(0))[0]
        monkeypatch.setattr(verify, "unary_truncated_gradient", off)
        assert not verify.check_gradient_fd(np.random.default_rng(0))[0]
        monkeypatch.setattr(verify, "FD_STEP", 1e-5)
        monkeypatch.setattr(verify, "FD_TOL", 1e-5)
        assert verify.check_gradient_fd(np.random.default_rng(0))[0]

    def test_analytic_gradient_reads_no_cost_value(self, rng):
        loop = make_loop(seed=18)
        cost = QuadraticTrackingCost(rng.standard_normal(3))
        M = rng.standard_normal((2, 2, 3)) * 0.1
        lags = rng.uniform(-0.3, 0.3, (5, 3))
        unary_truncated_gradient(cost, loop, M, lags)
        assert (cost.value_calls, cost.grad_calls) == (0, 1)


class TestUnaryTruncatedMap:
    @staticmethod
    def loop_with_feedback(rng, d_u):
        """A certified loop whose K is not zero, so the -K y term of the action is exercised."""
        system = random_stable_system(3, d_u, 0.6, seed=20 + d_u)
        return ClosedLoop(system, 0.1 * rng.standard_normal((d_u, 3)))

    @pytest.mark.parametrize("d_u, H", [(2, 3), (1, 4), (2, 1)])
    def test_matches_window_form(self, rng, d_u, H):
        loop = self.loop_with_feedback(rng, d_u)
        feasible = feasible_for(loop, H)
        for _ in range(10):
            M = feasible.random_point(rng)
            lags = rng.uniform(-0.5, 0.5, (2 * H + 1, 3))
            y0, L, D = unary_truncated_map(loop, lags, H)
            assert (y0.shape, L.shape, D.shape) == ((3,), (3, M.size), (d_u, M.size))
            y = y0 + L @ M.ravel()
            v = -loop.K @ y + D @ M.ravel()
            y_ref = transfer_state(loop, np.broadcast_to(M, (H + 1,) + M.shape), lags)
            v_ref = dac_action(loop.K, M, y_ref, lags)
            np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())
            np.testing.assert_allclose(v, v_ref, rtol=1e-12, atol=1e-12 * np.abs(v_ref).max())

    @pytest.mark.parametrize("d_u, H", [(2, 3), (1, 4)])
    def test_stack_of_rounds_equals_per_round_calls(self, rng, d_u, H):
        loop = self.loop_with_feedback(rng, d_u)
        lags = rng.uniform(-0.5, 0.5, (2, 5, 2 * H + 1, 3))
        stacked = unary_truncated_map(loop, lags, H)
        for idx in np.ndindex(2, 5):
            for got, want in zip(stacked, unary_truncated_map(loop, lags[idx], H)):
                np.testing.assert_allclose(got[idx], want, rtol=1e-14, atol=1e-15)

    def test_too_few_lags_rejected(self, rng):
        loop = make_loop(seed=21)
        with pytest.raises(ContractViolation, match=r"need 2H \+ 1 = 7 lagged disturbances"):
            unary_truncated_map(loop, np.zeros((4, 6, 3)), 3)

    @pytest.mark.parametrize("d_u, H", [(2, 3), (1, 4), (2, 1), (2, 5)])
    def test_gradient_is_chain_rule_through_map(self, rng, d_u, H):
        loop = self.loop_with_feedback(rng, d_u)
        assert np.abs(loop.K).max() > 0
        feasible = feasible_for(loop, H)
        K = loop.K
        for _ in range(10):
            M = feasible.random_point(rng)
            lags = rng.uniform(-0.5, 0.5, (2 * H + 1, 3))
            cost = QuadraticTrackingCost(rng.standard_normal(3), control_weight=0.3)
            y0, L, D = unary_truncated_map(loop, lags, H)
            y = y0 + L @ M.ravel()
            v = D @ M.ravel() - K @ y
            g_y, g_v = cost.grad_x(y, v), cost.grad_u(y, v)
            want = (L.T @ (g_y - K.T @ g_v) + D.T @ g_v).reshape(M.shape)
            got = unary_truncated_gradient(cost, loop, M, lags)
            assert got.shape == M.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        with pytest.raises(ContractViolation, match=rf"need 2H \+ 1 = {2 * H + 1} lagged"):
            unary_truncated_gradient(cost, loop, M, lags[: 2 * H])


class TestProjection:
    def test_feasible_input_unchanged(self, rng):
        loop = make_loop(seed=18)
        feasible = feasible_for(loop, 3)
        M = feasible.random_point(rng, scale=0.9)
        assert np.allclose(feasible.project(M), M, atol=1e-12)

    def test_rank_one_block_clips_singular_value(self, rng):
        feasible = DacFeasibleSet(np.array([0.5, 0.25]), 2, 3)
        u = rng.standard_normal(2)
        v = rng.standard_normal(3)
        block = np.outer(u, v)
        block *= 2 * 0.5 / np.linalg.norm(block, 2)  # spectral norm = 2 * cap of block 0
        M = np.stack([block, np.zeros((2, 3))])
        out = feasible.project(M)
        assert np.linalg.norm(out[0], 2) == pytest.approx(0.5, rel=1e-12)
        assert np.allclose(out[0], block / 2, atol=1e-12)  # rank-1 clip rescales

    def test_projection_beats_random_feasible_points(self, rng):
        loop = make_loop(seed=19)
        feasible = feasible_for(loop, 3)
        raw = rng.standard_normal((3, 2, 3))
        projected = feasible.project(raw)
        assert feasible.contains(projected)
        dist = np.linalg.norm(projected - raw)
        for _ in range(1000):
            other = feasible.random_point(rng)
            assert np.linalg.norm(other - raw) >= dist - 1e-9

    def test_per_block_independence(self, rng):
        loop = make_loop(seed=20)
        feasible = feasible_for(loop, 4)
        M = rng.standard_normal((4, 2, 3))
        base = feasible.project(M)
        bumped = M.copy()
        bumped[2] *= 5.0
        out = feasible.project(bumped)
        for k in (0, 1, 3):
            assert np.allclose(out[k], base[k], atol=1e-12)

    def test_idempotent(self, rng):
        loop = make_loop(seed=21)
        feasible = feasible_for(loop, 3)
        for _ in range(100):
            once = feasible.project(rng.standard_normal((3, 2, 3)) * rng.uniform(0.1, 5))
            assert np.allclose(feasible.project(once), once, atol=1e-10)

    def test_batched_projection_matches_per_set(self, rng):
        loop = make_loop(seed=22)
        feasible = feasible_for(loop, 3)
        batch = rng.standard_normal((5, 3, 2, 3))
        out = feasible.project(batch)
        for i in range(5):
            assert np.allclose(out[i], feasible.project(batch[i]), atol=1e-12)


def svd_project(M, caps):
    """Test-side reference: clip every block's singular values with numpy's SVD."""
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    return np.einsum("...ij,...j,...jk->...ik", u, np.minimum(s, caps[:, None]), vt)


def with_singular_values(rng, shape, values):
    """Blocks U diag(values) V^T of trailing ``shape`` with random orthonormal U and V."""
    d_u, d_x = shape
    k = min(shape)
    u = np.linalg.qr(rng.standard_normal((d_u, d_u)))[0][:, :k]
    v = np.linalg.qr(rng.standard_normal((d_x, d_x)))[0][:, :k]
    return (u * np.asarray(values)[:k]) @ v.T


CLOSED_FORM_SHAPES = [(1, 3), (2, 3), (3, 2), (3, 1), (3, 3)]


class TestClosedFormProjection:
    """The short-side-1 and -2 closed forms against an SVD reference written here."""

    CAPS = np.array([0.8, 0.5, 0.3, 0.2])

    def stacks(self, rng, shape):
        """Named parameter sets (H = 4) covering the closed form's edge cases."""
        d_u, d_x = shape
        H, caps = len(self.CAPS), self.CAPS
        rank_one = np.einsum("hi,hj->hij", rng.standard_normal((H, d_u)), rng.standard_normal((H, d_x)))
        zero_row = rng.standard_normal((H, d_u, d_x)) * 3
        if d_u <= d_x:
            zero_row[:, -1, :] = 0.0
        else:
            zero_row[:, :, -1] = 0.0
        eye = np.eye(d_u, d_x)
        return {
            "random": rng.standard_normal((H, d_u, d_x)) * rng.uniform(0.1, 4, (H, 1, 1)),
            "rank one": rank_one,
            "near rank one 1e-6": rank_one + 1e-6 * rng.standard_normal((H, d_u, d_x)),
            "near rank one 1e-9": rank_one + 1e-9 * rng.standard_normal((H, d_u, d_x)),
            "near rank one 1e-12": rank_one + 1e-12 * rng.standard_normal((H, d_u, d_x)),
            "s2 above cap": np.stack([with_singular_values(rng, shape, (4 * c, 2 * c, 1.5 * c))
                                      for c in caps]),
            "equal values above cap": np.stack([with_singular_values(rng, shape, (3 * c,) * 3)
                                                for c in caps]),
            "equal values below cap": np.stack([with_singular_values(rng, shape, (0.5 * c,) * 3)
                                                for c in caps]),
            "scaled identity": eye * np.array([2.0, 0.1, 1.0, 0.3])[:, None, None],
            "zero blocks": np.zeros((H, d_u, d_x)),
            "zero row": zero_row,
            "mixed": np.stack([np.zeros((d_u, d_x)), rank_one[1], eye * 5, rng.standard_normal((d_u, d_x))]),
        }

    @pytest.mark.parametrize("shape", CLOSED_FORM_SHAPES)
    @pytest.mark.parametrize("lead", [(), (6,)])
    def test_matches_svd_reference(self, rng, shape, lead):
        feasible = DacFeasibleSet(self.CAPS, *shape)
        for name, M in self.stacks(rng, shape).items():
            M = np.broadcast_to(M, lead + M.shape) * rng.uniform(0.5, 2, lead + (1, 1, 1))
            scale = max(float(np.abs(M).max()), 1e-300)
            out = feasible.project(M)
            np.testing.assert_allclose(out, svd_project(M, self.CAPS), rtol=0, atol=1e-13 * scale,
                                       err_msg=name)
            reference = np.linalg.svd(M, compute_uv=False)[..., 0]
            np.testing.assert_allclose(feasible.spectral_norms(M), reference, rtol=1e-13,
                                       atol=0, err_msg=name)
            np.testing.assert_allclose(feasible.project(out), out, rtol=0, atol=1e-13 * scale,
                                       err_msg=name)
            assert feasible.contains(out, tol=1e-12), name

    @pytest.mark.parametrize("shape", CLOSED_FORM_SHAPES[:4])
    def test_closed_form_runs_no_svd(self, rng, shape, monkeypatch):
        feasible = DacFeasibleSet(self.CAPS, *shape)
        M = rng.standard_normal((5, 4) + shape) * 3
        want = svd_project(M, self.CAPS), np.linalg.svd(M, compute_uv=False)[..., 0]

        def no_svd(*args, **kwargs):
            raise AssertionError("the closed form called np.linalg.svd")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        np.testing.assert_allclose(feasible.project(M), want[0], rtol=0, atol=1e-13 * np.abs(M).max())
        np.testing.assert_allclose(feasible.spectral_norms(M), want[1], rtol=1e-13, atol=0)
        assert feasible.contains(feasible.random_point(rng))

    def test_overflowing_square_falls_back_to_svd(self, rng):
        feasible = DacFeasibleSet(self.CAPS, 2, 3)
        M = rng.standard_normal((4, 2, 3)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):  # the squares overflow before the SVD runs
            out, norms = feasible.project(M), feasible.spectral_norms(M)
        np.testing.assert_allclose(out, svd_project(M, self.CAPS), rtol=0, atol=1e-15)
        np.testing.assert_allclose(norms, np.linalg.svd(M, compute_uv=False)[:, 0], rtol=1e-13)

    @pytest.mark.parametrize("shape", CLOSED_FORM_SHAPES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")  # the Gram product of an infinite block stays silent
    def test_non_finite_block(self, rng, shape, bad):
        feasible = DacFeasibleSet(self.CAPS, *shape)
        M = feasible.random_point(rng, scale=0.5)
        assert feasible.contains(M)
        M[2, 0, -1] = bad
        assert not feasible.contains(M)
        assert not feasible.contains(np.stack([M, feasible.zeros()]))
        norms = feasible.spectral_norms(M)
        assert np.isnan(norms[2]) and np.all(np.isfinite(np.delete(norms, 2)))
        with pytest.raises(ContractViolation):
            feasible.project(M)
        with pytest.raises(ContractViolation):
            feasible.project(np.stack([feasible.zeros(), M]))


def transposed_view_reference(M, caps, d_u, d_x):
    """The short-side-2 closed form with its Gram matrix taken on a transposed view.

    Returns (projection, spectral norms): the arithmetic of the closed form
    exactly, with ``W @ np.swapaxes(W, -1, -2)`` as the Gram matrix.
    """
    W = M if d_u <= d_x else np.swapaxes(M, -1, -2)
    G = W @ np.swapaxes(W, -1, -2)
    a, b, c = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
    half = 0.5 * (a - c)
    r = np.hypot(half, b)
    s1 = np.sqrt(0.5 * (a + c) + r)
    f1 = caps / np.maximum(s1, caps)
    s2 = np.sqrt(np.maximum(a * c - b * b, 0.0)) / np.maximum(s1, caps)
    f2 = caps / np.maximum(s2, caps)
    g = (f1 - f2) / (2.0 * np.where(r > 0, r, 1.0))
    P = np.empty(G.shape)
    P[..., 0, 0] = f2 + g * (r + half)
    P[..., 1, 1] = f2 + g * (r - half)
    P[..., 0, 1] = P[..., 1, 0] = g * b
    return (P @ M if W is M else M @ P), s1


@pytest.mark.parametrize("stack", [(7, 5, 2, 3), (5, 3, 2)])
def test_contiguous_gram_keeps_the_bits_of_a_transposed_view(rng, stack):
    d_u, d_x = stack[-2:]
    caps = 0.7 ** np.arange(1, stack[-3] + 1)
    feasible = DacFeasibleSet(caps, d_u, d_x)
    for _ in range(200):
        M = rng.standard_normal(stack) * rng.uniform(0.05, 3)
        projected, norms = transposed_view_reference(M, caps, d_u, d_x)
        assert np.array_equal(feasible.project(M), projected)
        assert np.array_equal(feasible.spectral_norms(M), norms)


class TestLipschitzConstants:
    def test_reference_state_bound(self):
        # kappa = kappa_B = W = G_c = 1, gamma = 0.5, H = 1:
        # D = (1 * 2) / (0.5 * 0.75) + 2 = 22/3
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 1, 1, 1)
        assert constants.state_bound == pytest.approx(22.0 / 3.0, rel=1e-12)
        assert constants.tau == 1.0

    def test_reference_diameter(self):
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 2, 1, 3)
        assert constants.diameter == pytest.approx(4.0, rel=1e-12)

    def test_lam_formula(self):
        constants = lipschitz_constants(1.0, 0.5, 1.0, 1.0, 1.0, 3, 2, 3)
        assert constants.lam == pytest.approx(25 * constants.coord_lipschitz, rel=1e-12)

    def test_monotonicity_in_h(self):
        previous = None
        for H in (1, 2, 4, 8):
            constants = lipschitz_constants(1.1, 0.4, 1.0, 0.5, 2.0, H, 2, 3)
            assert constants.diameter == pytest.approx(
                lipschitz_constants(1.1, 0.4, 1.0, 0.5, 2.0, 1, 2, 3).diameter, rel=1e-12)
            if previous is not None:
                assert constants.coord_lipschitz > previous
            previous = constants.coord_lipschitz

    def test_divergent_geometry_rejected(self):
        # kappa^2 (1 - gamma)^(H+1) >= 1 leaves no convergent state bound
        with pytest.raises(ContractViolation):
            lipschitz_constants(2.0, 0.1, 1.0, 1.0, 1.0, 1, 2, 3)

    @pytest.mark.parametrize("state_bound", [0.0, -1.0, float("nan")])
    def test_tracking_grad_coeff_needs_a_positive_state_bound(self, state_bound):
        # a zero state bound (no disturbance) admits no G_c: the ratio would divide by zero
        with pytest.raises(ContractViolation, match="state bound must be positive"):
            tracking_grad_coeff(state_bound, 1.0)

    def test_caps_geometric(self):
        feasible = DacFeasibleSet.from_certificate(1.2, 0.3, 0.8, 5, 2, 3)
        ratios = feasible.caps[1:] / feasible.caps[:-1]
        assert np.allclose(ratios, 0.7, atol=1e-12)
        assert feasible.caps[0] == pytest.approx(0.8 * 1.2 ** 3 * 0.7, rel=1e-12)


def test_window_form_reference_lives_only_in_verify():
    gone = ("transfer_matrix", "state_via_transfer", "truncated_state", "truncated_loss",
            "unary_truncated_eval")
    assert not [name for name in gone if hasattr(dac, name)]
    from_verify = {name for name, value in vars(verify).items()
                   if getattr(value, "__module__", None) == verify.__name__}
    assert from_verify >= {"transfer_matrix", "transfer_state", "truncated_loss"}
    assert not from_verify & set(vars(scream))
