import numpy as np
import pytest

from scream.oco import (ContractViolation, DomainBall, SquareLoss, SquareLossStream, clip_to_ball,
                        path_length, regret_metrics)

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


def reference_clip(vectors, bound):
    """The ball clip as written with np.linalg.norm."""
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    return vectors * np.where(norms > bound, bound / np.maximum(norms, 1e-300), 1.0)


def reference_project(x, radius):
    """DomainBall.project as written with np.linalg.norm."""
    v = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(v))
    return v if norm <= radius else v * (radius / norm)


class TestNormKernelsBitIdentity:
    """The norm kernels give np.linalg.norm's bits, compared by np.array_equal."""

    @pytest.mark.parametrize("case", ["random", "inside", "sphere", "zero", "huge"])
    @np.errstate(over="ignore")   # a norm of 1e200 overflows its square, in the reference too
    def test_clip_to_ball(self, rng, case):
        bound = 1.3
        rows = rng.standard_normal((40, 10))
        if case == "inside":
            rows *= 0.9 * bound / np.linalg.norm(rows, axis=1, keepdims=True)
        elif case == "sphere":
            rows = reference_clip(rows * 5, bound)
            rows[:3] = 0.0
            rows[0, 0], rows[1, 4], rows[2, 9] = bound, -bound, bound
        elif case == "zero":
            rows[7] = 0.0
        elif case == "huge":
            rows[::3] *= 1e200 / np.linalg.norm(rows[::3], axis=1, keepdims=True)
        assert np.array_equal(clip_to_ball(rows, bound), reference_clip(rows, bound))

    def test_clip_to_ball_keeps_a_nan_row_nan(self, rng):
        rows = rng.standard_normal((5, 4)) * 0.1
        rows[2, 1] = np.nan
        out = clip_to_ball(rows, 1.0)
        assert np.array_equal(out, reference_clip(rows, 1.0), equal_nan=True)
        assert np.isnan(out[2, 1]) and np.isfinite(np.delete(out, 2, axis=0)).all()

    @np.errstate(over="ignore")
    def test_project(self, rng):
        ball = DomainBall(10, 2.6)
        columns = rng.standard_normal((10, 50)) * rng.uniform(0.2, 3, 50)
        for j in range(50):
            for x in (columns[:, j], columns[:, j].copy()):   # a strided view and its copy
                assert np.array_equal(ball.project(x), reference_project(x, ball.radius))
        for x in (np.zeros(10), np.full(10, 1e200), np.eye(10)[3] * ball.radius):
            assert np.array_equal(ball.project(x), reference_project(x, ball.radius))


class TestMemoryLoss:
    def test_square_loss_window_value(self):
        # f(w) = (w.x - y)^2 / 2 at w = 0, y = 1 gives 0.5
        stream = SquareLossStream(np.zeros((1, 3)), np.ones(1))
        assert stream.window_losses(np.zeros((1, 3)))[0] == pytest.approx(0.5, abs=0)

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
            fd = finite_diff(closure_square_loss(x, y)[1], w)
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


def reference_window_losses(decisions, stream, m):
    """Reference window losses: each round's closure asked one window at a time."""
    windows = [closure_square_loss(x, y, m)[0] for x, y in zip(stream.X, stream.y)]
    return np.array([window(window_at(decisions, t, m)) for t, window in enumerate(windows)])


class TestSquareLossStream:
    # the stream's losses are the m = 0 windows of the reference closures
    @pytest.mark.parametrize("m", [0])
    def test_oracles_equal_square_loss_oracles(self, rng, m):
        T, d = 8, 3
        X = rng.standard_normal((T, d))
        y = rng.standard_normal(T)
        stream = SquareLossStream(X, y)
        assert len(stream) == T
        for t in range(T):
            oracle, single = stream[t], SquareLoss(X[t], float(y[t]))
            ref_grad = closure_square_loss(X[t], float(y[t]), m=m)[2]
            for _ in range(5):
                w = rng.standard_normal(d)
                g = oracle.grad(w)
                assert np.array_equal(g, single.grad(w)) and np.array_equal(g, ref_grad(w))
            assert oracle.grad_calls == single.grad_calls == 5
        # the counts live on the stream: a fresh oracle of a round reads that round's count
        assert stream[3].grad_calls == stream[-T + 3].grad_calls == stream.grad_calls[3] == 5
        assert len(list(stream)) == T
        assert [loss.grad_calls for loss in stream] == [5] * T
        twice = SquareLossStream(X, y)
        twice[0].grad(np.zeros(d))
        twice[0].grad(np.zeros(d))
        assert twice[0].grad_calls == 2 and list(twice.grad_calls) == [2] + [0] * (T - 1)

    @pytest.mark.parametrize("m", [0])
    def test_vectorized_window_losses_match_oracle_loop(self, rng, m):
        T, d = 50, 4
        stream = SquareLossStream(rng.standard_normal((T, d)), rng.standard_normal(T))
        w = rng.standard_normal((T, d))
        loop = reference_window_losses(w, stream, m)
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
        # independent summation oracle over raw losses
        T, d = 20, 3
        xs = rng.standard_normal((T, d))
        ys = rng.standard_normal(T)
        losses = SquareLossStream(xs, ys)
        w = rng.standard_normal((T, d)) * 0.3
        v = rng.standard_normal((T, d)) * 0.3
        report = regret_metrics(w, v, losses, lam=0.7)

        def loss_at(seq, t):
            return 0.5 * (seq[t] @ xs[t] - ys[t]) ** 2

        cum_w = sum(loss_at(w, t) for t in range(T))
        cum_v = sum(loss_at(v, t) for t in range(T))
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
        w = rng.standard_normal((T, d)) * 0.4
        v = rng.standard_normal((T, d)) * 0.4
        # coordinate Lipschitz constant of the averaged square-loss window on this data:
        # each coordinate's slope is at most sup |residual| * ||x|| / (m+1), and the
        # residual over the hull of the visited decisions is maximized at a vertex
        points = np.vstack([w, v])
        L = max(float((np.abs(points @ xs[t]) + abs(ys[t])).max() * np.linalg.norm(xs[t]))
                for t in range(T)) / (m + 1)
        lam = m ** 2 * L

        reference = [closure_square_loss(xs[t], ys[t], m) for t in range(T)]

        def memory_eval(seq, t):
            return reference[t][0](window_at(seq, t, m))

        policy_regret = (sum(memory_eval(w, t) for t in range(T))
                         - sum(memory_eval(v, t) for t in range(T)))
        unary_regret = sum(reference[t][1](w[t]) - reference[t][1](v[t]) for t in range(T))
        bound = (lam * path_length(w) + lam * path_length(v) + unary_regret)
        assert policy_regret <= bound + 1e-9
