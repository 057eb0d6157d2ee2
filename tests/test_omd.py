import numpy as np
import pytest

from scream.oco import ContractViolation, DomainBall
from scream.learners import OgdMemory, hedge_step
from scream.verify import check_simplex


class ConstantGradient:
    """Loss oracle whose gradient is ``g`` at every point."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)

    def grad(self, w):
        return self.g


def ogd_round(point, eta, g, ball) -> np.ndarray:
    """One round of projected gradient descent, driven through OgdMemory."""
    learner = OgdMemory(eta, ball)
    learner.point = point
    learner.observe(ConstantGradient(g))
    return learner.point


class TestOgdStep:
    def test_interior_step(self):
        # 0 - 0.1 * (1, 0) stays inside the radius-1 ball
        out = ogd_round(np.zeros(2), 0.1, np.array([1.0, 0.0]), DomainBall(2, 2.0))
        assert np.allclose(out, [-0.1, 0.0], atol=0)

    def test_zero_gradient_fixed_point(self, rng):
        ball = DomainBall(3, 2.0)
        w = ball.project(rng.standard_normal(3))
        out = ogd_round(w, 0.5, np.zeros(3), ball)
        assert np.array_equal(out, w)

    def test_outward_step_projected_to_sphere(self):
        ball = DomainBall(2, 2.0)
        w = np.array([1.0, 0.0])  # on the boundary
        out = ogd_round(w, 0.5, np.array([-1.0, 0.0]), ball)
        assert np.linalg.norm(out) == pytest.approx(ball.radius, rel=1e-12)

    def test_movement_bounded_by_eta_grad(self, rng):
        ball = DomainBall(4, 3.0)
        for _ in range(1000):
            w = ball.project(rng.standard_normal(4))
            g = rng.standard_normal(4) * rng.uniform(0, 5)
            eta = float(rng.uniform(0.001, 1.0))
            out = ogd_round(w, eta, g, ball)
            assert np.linalg.norm(out - w) <= eta * np.linalg.norm(g) + 1e-12


class TestHedgeStep:
    def test_equal_losses_leave_uniform_weights(self):
        p = np.full(5, 1.0 / 5)
        out = hedge_step(p, np.full(5, 3.0), 0.7)
        assert np.allclose(out, p, atol=1e-15)

    def test_hand_example(self):
        # (0.5, 0.5) with losses (0, ln 2) at rate 1: (0.5, 0.25) -> (2/3, 1/3)
        out = hedge_step(np.array([0.5, 0.5]), np.array([0.0, np.log(2.0)]), 1.0)
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_zero_weight_stays_zero(self):
        out = hedge_step(np.array([0.0, 0.4, 0.6]), np.array([0.0, 1.0, 2.0]), 0.5)
        assert out[0] == 0.0
        assert check_simplex(out)

    def test_simplex_preserved_under_extreme_losses(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            p = rng.dirichlet(np.ones(n))
            ell = rng.uniform(-1, 1, n) * 10 ** rng.integers(0, 6)
            out = hedge_step(p, ell, float(rng.uniform(0.001, 2.0)))
            assert check_simplex(out, tol=1e-12)
            assert out.min() >= 0

    def test_movement_bound(self, rng):
        # per-step l1 movement never exceeds rate * max |loss|
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(n))
            ell = rng.uniform(-3, 3, n)
            eps = float(rng.uniform(0.01, 1.0))
            out = hedge_step(p, ell, eps)
            assert np.abs(out - p).sum() <= eps * np.abs(ell).max() + 1e-9

    def test_nan_losses_rejected(self):
        with pytest.raises(ContractViolation):
            hedge_step(np.full(3, 1.0 / 3), np.array([0.0, np.nan, 1.0]), 0.5)


def test_ogd_cumulative_switching_under_eta_g_t(rng):
    # over a whole trajectory the movement is at most eta * G * T
    ball = DomainBall(3, 2.0)
    T, eta, G = 400, 0.05, 1.5
    learner = OgdMemory(eta, ball)
    total = 0.0
    for _ in range(T):
        g = rng.standard_normal(3)
        g *= min(1.0, G / np.linalg.norm(g))
        before = learner.point
        learner.observe(ConstantGradient(g))
        total += float(np.linalg.norm(learner.point - before))
    assert total <= eta * G * T + 1e-9
