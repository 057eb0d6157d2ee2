import numpy as np
import pytest

from scream.oco import (ContractViolation, DomainBall, SquareLoss, SquareLossStream, path_length,
                        regret_metrics)

from conftest import finite_diff


class TestDomainBall:
    def test_contains_origin(self):
        ball = DomainBall(4, 2.0)
        assert ball.contains(np.zeros(4))

    def test_projection_lands_inside(self, rng):
        ball = DomainBall(6, 3.0)
        for _ in range(200):
            x = rng.standard_normal(6) * 10
            assert np.linalg.norm(ball.project(x)) <= ball.radius + 1e-12

    def test_projection_idempotent(self, rng):
        ball = DomainBall(5, 1.4)
        for _ in range(200):
            once = ball.project(rng.standard_normal(5) * 4)
            assert np.allclose(ball.project(once), once, atol=1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ContractViolation):
            DomainBall(0, 1.0)
        with pytest.raises(ContractViolation):
            DomainBall(3, 0.0)

    def test_nonfinite_rejected(self):
        ball = DomainBall(2, 2.0)
        with pytest.raises(ContractViolation):
            ball.project(np.array([np.nan, 0.0]))


class TestMemoryLoss:
    def test_square_loss_window_value(self):
        # f(w) = (w.x - y)^2 / 2 at w = 0, y = 1 gives 0.5
        loss = SquareLoss(np.zeros(3), 1.0)
        assert loss.window([np.zeros(3)]) == pytest.approx(0.5, abs=0)

    def test_window_of_identical_decisions_equals_unary(self, rng):
        # bit-exact unary consistency on a memory-2 oracle
        x = rng.standard_normal(4)
        loss = SquareLoss(x, 0.3, m=2)
        for _ in range(50):
            w = rng.standard_normal(4)
            assert loss.window([w, w, w]) == loss.unary(w)

    def test_wrong_window_length(self):
        loss = SquareLoss(np.ones(2), 0.0, m=1)
        with pytest.raises(ContractViolation):
            loss.window([np.zeros(2)])

    def test_unary_consistency_random_oracles(self, rng):
        # window form evaluated on equal arguments agrees with the unary form
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            m = int(rng.integers(0, 4))
            x = rng.standard_normal(d)
            y = float(rng.standard_normal())
            loss = SquareLoss(x, y, m=m)
            w = rng.standard_normal(d)
            assert loss.window([w] * (m + 1)) == loss.unary(w)

    def test_gradient_zero_at_zero_residual(self):
        loss = SquareLoss(np.array([1.0, 0.0]), 0.0)
        assert np.allclose(loss.grad(np.zeros(2)), 0.0)

    def test_gradient_hand_value(self):
        # grad = (w.x - y) x; at w = 0, x = (1, 0), y = 1 that is (-1, 0)
        loss = SquareLoss(np.array([1.0, 0.0]), 1.0)
        assert np.allclose(loss.grad(np.zeros(2)), [-1.0, 0.0])

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            x = rng.standard_normal(5)
            y = float(rng.standard_normal())
            loss = SquareLoss(x, y)
            w = rng.standard_normal(5)
            g = loss.grad(w)
            fd = finite_diff(loss.unary, w)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-9)

    def test_grad_call_counter(self):
        loss = SquareLoss(np.ones(2), 0.0)
        loss.grad(np.zeros(2))
        loss.grad(np.zeros(2))
        assert loss.grad_calls == 2


def closure_square_loss(x, y, m=0):
    """Reference square loss as plain closures: (window, unary, grad)."""
    def one(w):
        return 0.5 * (float(np.dot(w, x)) - y) ** 2

    def window(ws):
        return one(ws[0]) if len(ws) == 1 else sum(one(w) for w in ws) / len(ws)

    def unary(w):
        return window([w] * (m + 1))

    def grad(w):
        return (float(np.dot(w, x)) - y) * x

    return window, unary, grad


def window_at(decisions, t, m):
    """Window (w_{t-m}, ..., w_t) with indices clamped to the first round."""
    return [decisions[max(s, 0)] for s in range(t - m, t + 1)]


def oracle_window_losses(decisions, losses):
    """Reference window losses: each round's oracle asked one window at a time."""
    return np.array([loss.window(window_at(decisions, t, loss.m)) for t, loss in enumerate(losses)])


class TestSquareLossStream:
    @pytest.mark.parametrize("m", [0, 2])
    def test_oracles_equal_square_loss_oracles(self, rng, m):
        T, d = 8, 3
        X = rng.standard_normal((T, d))
        y = rng.standard_normal(T)
        stream = SquareLossStream(X, y, m=m)
        assert len(stream) == T
        for t in range(T):
            oracle, single = stream[t], SquareLoss(X[t], float(y[t]), m=m)
            ref_window, ref_unary, ref_grad = closure_square_loss(X[t], float(y[t]), m=m)
            assert oracle.m == single.m == m
            for _ in range(5):
                window = list(rng.standard_normal((m + 1, d)))
                w = window[-1]
                assert oracle.window(window) == single.window(window) == ref_window(window)
                assert oracle.unary(w) == single.unary(w) == ref_unary(w)
                g = oracle.grad(w)
                assert np.array_equal(g, single.grad(w)) and np.array_equal(g, ref_grad(w))
            assert oracle.grad_calls == single.grad_calls == 5
        assert stream[3] is stream[3]
        assert [loss.grad_calls for loss in stream] == [5] * T

    @pytest.mark.parametrize("m", [0, 2])
    def test_vectorized_window_losses_match_oracle_loop(self, rng, m):
        T, d = 50, 4
        stream = SquareLossStream(rng.standard_normal((T, d)), rng.standard_normal(T), m=m)
        w = rng.standard_normal((T, d))
        loop = oracle_window_losses(w, stream)
        assert np.allclose(stream.window_losses(w), loop, rtol=1e-12, atol=0)

    def test_rejects_mismatched_arrays(self, rng):
        with pytest.raises(ContractViolation):
            SquareLossStream(rng.standard_normal((5, 2)), rng.standard_normal(4))
        with pytest.raises(ContractViolation):
            SquareLossStream(rng.standard_normal(5), rng.standard_normal(5))
        stream = SquareLossStream(rng.standard_normal((5, 2)), rng.standard_normal(5))
        with pytest.raises(ContractViolation):
            stream.window_losses(np.zeros((4, 2)))


class TestRegretMetrics:
    def test_identical_sequences_zero(self):
        losses = SquareLossStream(np.ones((5, 1)), np.full(5, 0.5))
        w = np.full((5, 1), 0.2)
        report = regret_metrics(w, w, losses, lam=1.0)
        assert report.dynamic_policy_regret == 0.0
        assert report.switching_cost == 0.0
        assert report.path_length == 0.0

    def test_switching_cost_hand_value(self):
        # decisions 0, 1, 0 in one dimension move |1| + |-1| = 2
        losses = SquareLossStream(np.zeros((3, 1)), np.zeros(3))
        w = np.array([[0.0], [1.0], [0.0]])
        report = regret_metrics(w, np.zeros((3, 1)), losses, lam=1.0)
        assert report.switching_cost == pytest.approx(2.0, abs=0)

    def test_lambda_weighting(self):
        losses = SquareLossStream(np.zeros((3, 1)), np.zeros(3))
        w = np.array([[0.0], [1.0], [0.0]])
        report = regret_metrics(w, np.zeros((3, 1)), losses, lam=0.25)
        assert report.switching_cost == pytest.approx(0.5, abs=1e-15)

    def test_brute_force_recomputation(self, rng):
        # independent summation oracle over raw losses, memory included
        T, d, m = 20, 3, 2
        xs = rng.standard_normal((T, d))
        ys = rng.standard_normal(T)
        losses = SquareLossStream(xs, ys, m=m)
        w = rng.standard_normal((T, d)) * 0.3
        v = rng.standard_normal((T, d)) * 0.3
        report = regret_metrics(w, v, losses, lam=0.7)

        def memory_eval(seq, t):
            window = [seq[max(s, 0)] for s in range(t - m, t + 1)]
            return sum(0.5 * (u @ xs[t] - ys[t]) ** 2 for u in window) / (m + 1)

        cum_w = sum(memory_eval(w, t) for t in range(T))
        cum_v = sum(memory_eval(v, t) for t in range(T))
        sw = 0.7 * sum(np.linalg.norm(w[t] - w[t - 1]) for t in range(1, T))
        pl = sum(np.linalg.norm(v[t] - v[t - 1]) for t in range(1, T))
        assert report.cumulative_loss == pytest.approx(cum_w, rel=1e-12)
        assert report.dynamic_policy_regret == pytest.approx(cum_w - cum_v, rel=1e-12)
        assert report.switching_cost == pytest.approx(sw, rel=1e-12)
        assert report.path_length == pytest.approx(pl, rel=1e-12)

    def test_length_mismatch_rejected(self):
        losses = SquareLossStream(np.ones((1, 1)), np.zeros(1))
        with pytest.raises(ContractViolation):
            regret_metrics(np.zeros((1, 1)), np.zeros((2, 1)), losses, lam=0.0)

    def test_path_length_nonnegative_and_additive(self, rng):
        seq = rng.standard_normal((30, 4))
        assert path_length(seq) >= 0
        assert path_length(seq[:1]) == 0.0


def test_memory_upper_bound_decomposition(rng):
    # measured policy regret <= lam * movement(w) + lam * movement(v) + unary regret,
    # with lam = m^2 L, on random trajectories of a coordinate-Lipschitz loss
    T, d, m = 40, 3, 2
    for trial in range(25):
        xs = rng.standard_normal((T, d)) * 0.5
        ys = rng.standard_normal(T) * 0.5
        losses = SquareLossStream(xs, ys, m=m)
        w = rng.standard_normal((T, d)) * 0.4
        v = rng.standard_normal((T, d)) * 0.4
        # coordinate Lipschitz constant of the averaged square-loss window on this data:
        # each coordinate's slope is at most sup |residual| * ||x|| / (m+1), and the
        # residual over the hull of the visited decisions is maximized at a vertex
        points = np.vstack([w, v])
        L = max(float((np.abs(points @ xs[t]) + abs(ys[t])).max() * np.linalg.norm(xs[t]))
                for t in range(T)) / (m + 1)
        lam = m ** 2 * L

        def memory_eval(seq, t):
            window = [seq[max(s, 0)] for s in range(t - m, t + 1)]
            return losses[t].window(window)

        policy_regret = (sum(memory_eval(w, t) for t in range(T))
                         - sum(memory_eval(v, t) for t in range(T)))
        unary_regret = sum(losses[t].unary(w[t]) - losses[t].unary(v[t]) for t in range(T))
        bound = (lam * path_length(w) + lam * path_length(v) + unary_regret)
        assert policy_regret <= bound + 1e-9
