import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from scream import verify
from scream.dac import DacFeasibleSet
from scream.learners import (Ader, MetaExpertLearner, OgdMemory, Scream, ScreamConfig,
                             ader_meta_rate, build_step_size_pool, check_simplex, hedge_step,
                             nonuniform_prior, ogd_default_step_size, pool_size, run_online,
                             scream_meta_rate, surrogate_losses, trajectory_rows)
from scream.oco import ContractViolation, DomainBall, SquareLoss, SquareLossStream


class TestStepSizePool:
    def test_reference_pool(self):
        # N = ceil(log2(101)/2) + 1 = 5 and eta_1 = sqrt(4 / 400) = 0.1
        pool = build_step_size_pool(100, 2.0, 2.0, 0.0)
        assert pool.shape == (5,)
        assert pool == pytest.approx((0.1, 0.2, 0.4, 0.8, 1.6), rel=1e-12)

    def test_one_round_horizon(self):
        # ceil(log2(2)/2) + 1 = 2 entries
        pool = build_step_size_pool(1, 2.0, 1.0, 0.0)
        assert pool.shape == (2,)

    def test_geometric_ratio_exactly_two(self, rng):
        for _ in range(50):
            T = int(rng.integers(1, 100000))
            pool = build_step_size_pool(T, float(rng.uniform(0.5, 5)),
                                        float(rng.uniform(0.5, 5)), float(rng.uniform(0, 10)))
            assert pool.shape == (pool_size(T),)
            assert np.all(np.diff(pool) > 0)
            assert np.all(pool[1:] / pool[:-1] == 2.0)
            assert pool[-1] / pool[0] == 2.0 ** (len(pool) - 1)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ContractViolation, match="horizon must be at least 1"):
            build_step_size_pool(0, 1.0, 1.0, 0.0)


class TestNonuniformPrior:
    def test_two_experts(self):
        assert nonuniform_prior(2) == pytest.approx([0.75, 0.25], abs=0)

    def test_three_experts(self):
        assert nonuniform_prior(3) == pytest.approx([2 / 3, 2 / 9, 1 / 9], rel=1e-15)

    def test_singleton(self):
        assert nonuniform_prior(1) == pytest.approx([1.0], abs=0)

    def test_normalization_sweep(self):
        for n in range(1, 1001):
            assert abs(nonuniform_prior(n).sum() - 1.0) <= 1e-12


class TestSurrogateLosses:
    def test_lambda_zero_is_linearized(self, rng):
        now = rng.standard_normal((4, 3))
        movement = np.abs(rng.standard_normal(4))
        g = rng.standard_normal(3)
        assert np.allclose(surrogate_losses(now, movement, g, 0.0), now @ g, atol=0)

    def test_hand_value(self):
        # <grad, w> + lam * ||w - w_prev|| = 0.5 + 2 * 0.2 = 0.9
        now = np.array([[0.5, 0.0]])
        movement = np.linalg.norm(now - np.array([[0.3, 0.0]]), axis=1)
        out = surrogate_losses(now, movement, np.array([1.0, 0.0]), 2.0)
        assert out[0] == pytest.approx(0.9, rel=1e-12)

    def test_stationary_expert_pays_no_penalty(self, rng):
        w = rng.standard_normal((3, 2))
        g = rng.standard_normal(2)
        assert np.allclose(surrogate_losses(w, np.zeros(3), g, 5.0), w @ g, atol=0)

    def test_range_bound(self, rng):
        # |loss_i| <= (lam + G) * D on feasible experts with a G-bounded gradient
        D, G, lam = 2.0, 1.5, 0.8
        ball = DomainBall(3, D)
        for _ in range(200):
            now = np.array([ball.project(v) for v in rng.standard_normal((5, 3)) * 2])
            prev = np.array([ball.project(v) for v in rng.standard_normal((5, 3)) * 2])
            g = rng.standard_normal(3)
            g *= min(1.0, G / np.linalg.norm(g))
            out = surrogate_losses(now, np.linalg.norm(now - prev, axis=1), g, lam)
            assert np.all(np.abs(out) <= (lam + G) * D + 1e-12)

    def test_engine_prices_each_experts_last_step(self, rng):
        # the engine's movement is ||w_i - w_i_prev|| of the step it just took, zero at the start,
        # with np.linalg.norm's bits; expert_switching sums it in round order
        T, d = 200, 3
        learner = Scream(ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.7),
                         DomainBall(d, 2.0))
        assert np.array_equal(learner.movement, np.zeros(learner.n_experts))
        switching = np.zeros(learner.n_experts)
        for loss in SquareLossStream(rng.standard_normal((T, d)), rng.standard_normal(T)):
            before = learner.flat.copy()
            learner.observe(loss)
            assert np.array_equal(learner.movement,
                                  np.linalg.norm(learner.flat - before, axis=1))
            switching += np.linalg.norm(learner.flat - before, axis=1)
        assert np.array_equal(learner.expert_switching, switching)
        assert np.linalg.norm(learner.flat, axis=1).max() == pytest.approx(1.0, abs=1e-12)  # clipped


class TestScream:
    def test_single_expert_matches_plain_ogd(self, rng):
        # N = 1 degenerates to projected gradient descent with eta_1
        T, d = 12, 2
        xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)
        pool = build_step_size_pool(1, 2.0, 1.0, 0.5)
        domain = DomainBall(d, 2.0)
        rate = scream_meta_rate(T, 2.0, 1.0, 0.5)
        single = MetaExpertLearner(pool[:1], nonuniform_prior(1), rate, 0.5, (d,), domain.project_rows)
        run = run_online(single, SquareLossStream(xs, ys))
        ogd_run = run_online(OgdMemory(pool[0], domain), SquareLossStream(xs, ys))
        assert np.allclose(run.decisions, ogd_run.decisions, atol=1e-14)

    def test_zero_gradient_stream_freezes_everything(self):
        T = 8
        losses = SquareLossStream(np.zeros((T, 2)), np.zeros(T))
        config = ScreamConfig(T=T, grad_bound=1.0, diameter=2.0, lam=1.0)
        learner = Scream(config, DomainBall(2, 2.0))
        prior = learner.weights.copy()
        for loss in losses:
            decision = learner.decide()
            assert np.all(decision == 0.0)
            assert np.array_equal(learner.weights, prior)
            learner.step(loss.grad(decision))
        assert np.array_equal(learner.weights, prior)

    def test_two_round_hand_trace(self):
        # independent step-by-step recomputation with explicit scalar arithmetic
        T, D, G, lam = 2, 2.0, 1.0, 0.5
        config = ScreamConfig(T=T, grad_bound=G, diameter=D, lam=lam)
        eta, _, eps, _ = config.tuning()
        assert eta.shape == (2,)
        assert eta[0] == pytest.approx(math.sqrt(4.0 / ((lam * G + G * G) * T)), rel=1e-15)
        assert eps == pytest.approx(math.sqrt(2.0 / ((2 * lam + G) * (lam + G) * D * D * T)), rel=1e-15)

        xs, ys = np.array([[1.0], [1.0]]), np.array([1.0, -1.0])
        learner = Scream(config, DomainBall(1, D))
        run = run_online(learner, SquareLossStream(xs, ys))

        # round 1: experts at 0, weights (3/4, 1/4), submit 0
        p = np.array([0.75, 0.25])
        w = np.zeros(2)
        assert run.decisions[0, 0] == 0.0
        g1 = (0.0 - 1.0) * 1.0                     # gradient of (w - 1)^2 / 2 at 0
        ell1 = w * g1 + lam * np.abs(w - w)        # no movement yet
        raw = p * np.exp(-eps * ell1)
        p = raw / raw.sum()
        w_prev, w = w, np.clip(w - eta * g1, -1.0, 1.0)
        # round 2 decision
        expected2 = float(p @ w)
        assert run.decisions[1, 0] == pytest.approx(expected2, abs=1e-14)

        # finish round 2 to validate the final internal state
        g2 = (expected2 + 1.0) * 1.0
        ell2 = w * g2 + lam * np.abs(w - w_prev)
        raw = p * np.exp(-eps * ell2)
        p = raw / raw.sum()
        w = np.clip(w - eta * g2, -1.0, 1.0)
        assert learner.weights == pytest.approx(p, abs=1e-14)
        assert learner.flat[:, 0] == pytest.approx(w, abs=1e-14)

    def test_one_gradient_per_round(self, rng):
        T, d = 30, 3
        losses = SquareLossStream(rng.standard_normal((T, d)), rng.standard_normal(T))
        config = ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.7)
        run_online(Scream(config, DomainBall(d, 2.0)), losses)
        assert all(loss.grad_calls == 1 for loss in losses)

    def test_a_run_keeps_no_per_round_objects(self, rng):
        # With the stream and the run alive, traced memory holds the stream's arrays, the
        # decisions and one 8-byte gradient count per round, plus a 64 KiB slack for the
        # learner's own state; nothing grows with T beyond those arrays.
        T, d = 2000, 3
        config = ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            X, y = rng.standard_normal((T, d)), rng.standard_normal(T)
            stream = SquareLossStream(X, y)
            run = run_online(Scream(config, DomainBall(d, 2.0)), stream)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= X.nbytes + y.nbytes + run.decisions.nbytes + 8 * T + 64 * 1024
        assert run.losses is stream and list(stream.grad_calls) == [1] * T

    def test_weights_stay_distribution_and_experts_feasible(self, rng):
        T, d = 60, 3
        domain = DomainBall(d, 2.0)
        config = ScreamConfig(T=T, grad_bound=3.0, diameter=2.0, lam=1.0)
        learner = Scream(config, domain)
        for t in range(T):
            learner.decide()
            learner.observe(SquareLossStream([rng.standard_normal(d)], [rng.standard_normal()])[0])
            assert check_simplex(learner.weights, tol=1e-12)
            assert all(domain.contains(w) for w in learner.flat)

    def test_aggregation_identity(self, rng):
        config = ScreamConfig(T=20, grad_bound=1.0, diameter=2.0, lam=0.3)
        learner = Scream(config, DomainBall(2, 2.0))
        for t in range(20):
            w = learner.decide()
            assert np.linalg.norm(w - learner.weights @ learner.flat) <= 1e-12
            learner.observe(SquareLossStream([rng.standard_normal(2)], [0.0])[0])


class TestMetaExpertEngine:
    def engine(self, shape, project):
        pool = build_step_size_pool(40, 2.0, 1.0, 0.5)
        return MetaExpertLearner(pool, nonuniform_prior(len(pool)), 0.3, 0.5, shape, project)

    def test_parameter_shape_only_reshapes(self, rng):
        # a (2, 3) parameter runs the same arithmetic as its flattened (6,) twin
        ball = DomainBall(6, 2.0)
        flat = self.engine((6,), ball.project_rows)
        blocks = self.engine((2, 3),
                             lambda e: ball.project_rows(e.reshape(len(e), 6)).reshape(e.shape))
        for _ in range(40):
            g = rng.standard_normal(6)
            assert blocks.decide().shape == (2, 3)
            assert np.array_equal(blocks.decide().ravel(), flat.decide())
            flat.step(g)
            blocks.step(g.reshape(2, 3))
        assert np.array_equal(blocks.weights, flat.weights)
        assert np.array_equal(blocks.flat, flat.flat)
        assert np.array_equal(blocks.expert_switching, flat.expert_switching)
        assert blocks.rounds == flat.rounds == 40

    def test_observe_steps_on_the_gradient_at_the_decision(self, rng):
        ball = DomainBall(3, 2.0)
        by_loss = self.engine((3,), ball.project_rows)
        by_step = self.engine((3,), ball.project_rows)
        for _ in range(20):
            loss = SquareLossStream([rng.standard_normal(3)], [rng.standard_normal()])[0]
            by_step.step(loss.grad(by_step.decide()))
            by_loss.observe(loss)
        assert np.array_equal(by_loss.flat, by_step.flat)
        assert np.array_equal(by_loss.weights, by_step.weights)

    def test_one_decision_per_round(self, rng):
        class CountingScream(Scream):
            decisions = 0

            def decide(self):
                self.decisions += 1
                return super().decide()

        T, d = 50, 3
        learner = CountingScream(ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.7),
                                 DomainBall(d, 2.0))
        losses = SquareLossStream(rng.standard_normal((T, d)), rng.standard_normal(T))
        run = run_online(learner, losses)
        assert learner.decisions == T == learner.rounds
        assert all(loss.grad_calls == 1 for loss in losses)
        assert run.decisions.shape == (T, d)

    def test_observe_after_a_bare_step_decides_afresh(self, rng):
        class RecordingLoss(SquareLoss):
            def grad(self, w):
                self.at = np.array(w)
                return super().grad(w)

        learner = Scream(ScreamConfig(T=20, grad_bound=2.0, diameter=2.0, lam=0.7),
                         DomainBall(3, 2.0))
        for _ in range(3):
            learner.observe(SquareLossStream([rng.standard_normal(3)], [rng.standard_normal()])[0])
        stale = learner.decide()
        learner.step(rng.standard_normal(3))           # no decide() between this step and observe
        fresh = copy.deepcopy(learner).decide()
        assert not np.array_equal(stale, fresh)
        loss = RecordingLoss(SquareLossStream([rng.standard_normal(3)], [rng.standard_normal()]), 0)
        learner.observe(loss)
        assert np.array_equal(loss.at, fresh)

    def test_accepts_a_prior_normalized_to_rounding(self):
        ball = DomainBall(2, 2.0)
        for n in range(1, 200):
            MetaExpertLearner(np.ones(n), nonuniform_prior(n), 0.3, 0.5, (2,), ball.project_rows)
        MetaExpertLearner([0.1, 0.2], [1.0, 0.0], 0.3, 0.5, (2,), ball.project_rows)

    @pytest.mark.parametrize("etas, prior", [
        ([], []),                                  # empty pool
        ([0.1, 0.0], [0.5, 0.5]),                  # a zero step size
        ([0.1, -0.2], [0.5, 0.5]),                 # a negative step size
        ([0.1, np.nan], [0.5, 0.5]),               # a step size that is not a number
        ([[0.1, 0.2]], [0.5, 0.5]),                # a 2-D pool
        ([0.1, 0.2], [1.0]),                       # prior shorter than the pool
        ([0.1, 0.2], [0.5, 0.25, 0.25]),           # prior longer than the pool
        ([0.1, 0.2], [1.5, -0.5]),                 # a negative prior weight
        ([0.1, 0.2], [np.nan, 1.0]),               # a prior weight that is not a number
        ([0.1, 0.2], [np.inf, 0.0]),               # an infinite prior weight
        ([0.1, 0.2], [0.5, 0.4]),                  # a prior that sums to 0.9
        ([0.1, 0.2], [0.5, 0.5 + 1e-11]),          # a prior off one by more than 1e-12
    ])
    def test_rejects_a_bad_pool_or_prior(self, etas, prior):
        ball = DomainBall(2, 2.0)
        with pytest.raises(ContractViolation):
            MetaExpertLearner(etas, prior, 0.3, 0.5, (2,), ball.project_rows)

    def test_verify_re_exports_the_engines_prior_check(self):
        assert verify.check_simplex is check_simplex


class TestScreamConfig:
    @pytest.mark.parametrize("T, grad_bound, diameter, lam", [
        (0, 1.0, 2.0, 0.5),
        (10, 1.0, 2.0, -0.1),
        (10, 1.0, 0.0, 0.5),
        (10, 1.0, -2.0, 0.5),
        (10, 0.0, 2.0, 0.5),
        (10, 1.0, 2.0, math.nan),
        (10, 1.0, math.nan, 0.5),
    ])
    def test_bad_tuning_inputs_raise_at_construction(self, T, grad_bound, diameter, lam):
        with pytest.raises(ContractViolation):
            ScreamConfig(T, grad_bound, diameter, lam)

    def test_tuning_row_is_the_engine_of_scream(self):
        config = ScreamConfig(T=300, grad_bound=1.5, diameter=2.0, lam=0.4)
        etas, prior, rate, lam = config.tuning()
        assert np.array_equal(etas, build_step_size_pool(300, 2.0, 1.5, 0.4))
        assert np.array_equal(prior, nonuniform_prior(len(etas)))
        assert rate == scream_meta_rate(300, 2.0, 1.5, 0.4) and lam == 0.4
        learner = Scream(config, DomainBall(3, 2.0))
        assert np.array_equal(learner.etas, etas) and np.array_equal(learner.weights, prior)
        assert learner.meta_rate == rate and learner.surrogate_lam == lam


class TestAder:
    def test_surrogate_has_no_movement_term(self, rng):
        config = ScreamConfig(T=10, grad_bound=1.0, diameter=2.0, lam=0.5)
        learner = Ader(config, DomainBall(2, 2.0))
        assert learner.surrogate_lam == 0.0
        assert np.allclose(learner.weights, 1.0 / learner.n_experts)

    def test_concentrates_on_small_step_expert_when_stationary(self, rng):
        # fixed noisy target: large-step experts keep jittering around it and
        # accumulate more linearized loss, so mass drains toward the slow expert
        T, d = 6000, 2
        target = np.array([0.5, -0.3])
        xs = rng.standard_normal((T, d))
        xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        ys = xs @ target + rng.normal(0, 0.5, T)
        config = ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.0)
        learner = Ader(config, DomainBall(d, 2.0))
        run_online(learner, SquareLossStream(xs, ys))
        assert int(np.argmax(learner.weights)) == 0
        assert learner.weights[0] > 5 * learner.weights[-1]

    def test_lambda_zero_scream_differs_only_by_prior_and_rate(self, rng):
        # with matching prior and rate the two trajectories coincide exactly
        T, d = 25, 2
        xs, ys = rng.standard_normal((T, d)), rng.standard_normal(T)
        base = ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.0)
        ader = Ader(base, DomainBall(d, 2.0))
        twin = Scream(base, DomainBall(d, 2.0))  # at lam = 0 both learners build the same pool
        assert np.array_equal(twin.etas, ader.etas)
        twin.weights = np.full(twin.n_experts, 1.0 / twin.n_experts)
        twin.meta_rate = ader.meta_rate
        run_a = run_online(ader, SquareLossStream(xs, ys))
        run_b = run_online(twin, SquareLossStream(xs, ys))
        assert np.array_equal(run_a.decisions, run_b.decisions)


class TestOgdMemory:
    def test_switching_under_eta_g_t(self, rng):
        T, d, G = 500, 3, 2.0
        xs = rng.standard_normal((T, d))
        xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
        ys = rng.uniform(-1, 1, T)
        eta = ogd_default_step_size(T, 2.0, G)
        run = run_online(OgdMemory(eta, DomainBall(d, 2.0)), SquareLossStream(xs, ys))
        assert run.learner.switching <= eta * G * T + 1e-9

    def test_zero_gradient_stream_constant(self):
        losses = SquareLossStream(np.zeros((10, 2)), np.zeros(10))
        run = run_online(OgdMemory(ogd_default_step_size(10, 2.0, 1.0), DomainBall(2, 2.0)), losses)
        assert np.all(run.decisions == run.decisions[0])

    def test_monotone_approach_and_sublinear_regret(self):
        # 1-D quadratic pulling toward w* = 1; static regret grows sublinearly in T
        regrets = {}
        for T in (1000, 4000, 16000):
            losses = SquareLossStream(np.ones((T, 1)), np.ones(T))
            run = run_online(OgdMemory(ogd_default_step_size(T, 2.0, 2.0), DomainBall(1, 2.0)),
                             losses)
            report = run.report(np.ones((T, 1)), 0.0)
            w = run.decisions[:, 0]
            assert np.all(np.diff(w) >= -1e-12)
            assert np.all(w <= 1.0 + 1e-12)
            regrets[T] = report.dynamic_policy_regret
        slope = np.polyfit(np.log(list(regrets)), np.log(list(regrets.values())), 1)[0]
        assert 0 < slope < 1.0


class TestMetaRegretBound:
    @pytest.mark.parametrize("T,d,D,G,lam", [
        (400, 3, 2.0, 1.5, 0.6),
        (250, 2, 1.0, 2.0, 0.0),
        (600, 4, 3.0, 0.8, 2.5),
    ])
    def test_meta_regret_within_tuned_bound(self, rng, T, d, D, G, lam):
        # hedge over the movement-regularized surrogate keeps its certified bound
        xs = rng.standard_normal((T, d))
        xs *= np.minimum(1.0, (G / 2) / np.linalg.norm(xs, axis=1))[:, None]
        ys = rng.uniform(-0.5, 0.5, T)
        config = ScreamConfig(T=T, grad_bound=G, diameter=D, lam=lam)
        learner = Scream(config, DomainBall(d, D))
        weights, ells = [], []
        for loss in SquareLossStream(xs, ys):
            g = loss.grad(learner.decide())
            weights.append(learner.weights.copy())
            ells.append(surrogate_losses(learner.flat, learner.movement, g, lam))
            learner.step(g)
        weights, ells = np.asarray(weights), np.asarray(ells)
        mixture = np.einsum("ti,ti->t", weights, ells).sum()
        best = ells.sum(axis=0).min()
        meta_moves = np.abs(np.diff(weights, axis=0)).sum()
        n = learner.n_experts
        bound = D * math.sqrt(2 * (2 * lam + G) * (lam + G) * T) * (1 + math.log(n + 1))
        assert mixture - best + lam * D * meta_moves <= bound + 1e-9

    def test_overall_objective_dominated_by_best_expert_plus_meta_bound(self, rng):
        T, d, D, G, lam = 300, 2, 2.0, 1.0, 0.5
        xs = rng.standard_normal((T, d))
        xs *= np.minimum(1.0, (G / 2) / np.linalg.norm(xs, axis=1))[:, None]
        ys = rng.uniform(-0.5, 0.5, T)
        losses = SquareLossStream(xs, ys)
        config = ScreamConfig(T=T, grad_bound=G, diameter=D, lam=lam)
        learner = Scream(config, DomainBall(d, D))
        decisions, expert_hist = [], []
        for loss in losses:
            decisions.append(learner.decide())
            expert_hist.append(learner.flat.copy())
            learner.observe(loss)
        decisions = np.asarray(decisions)
        expert_hist = np.asarray(expert_hist)  # (T, N, d)

        unary = np.array([0.5 * (w @ loss.x - loss.y) ** 2 for loss, w in zip(losses, decisions)])
        own_moves = np.linalg.norm(np.diff(decisions, axis=0), axis=1).sum()
        overall = unary.sum() + lam * own_moves

        n = learner.n_experts
        bound = D * math.sqrt(2 * (2 * lam + G) * (lam + G) * T) * (1 + math.log(n + 1))
        per_expert = []
        for i in range(n):
            traj = expert_hist[:, i, :]
            unary_i = sum(0.5 * (w @ loss.x - loss.y) ** 2 for loss, w in zip(losses, traj))
            moves_i = np.linalg.norm(np.diff(traj, axis=0), axis=1).sum()
            per_expert.append(unary_i + lam * moves_i)
        assert overall <= min(per_expert) + bound + 1e-9


def test_scream_meta_rate_formula():
    # epsilon = sqrt(2 / ((2 lam + G)(lam + G) D^2 T))
    assert scream_meta_rate(50, 2.0, 1.0, 0.25) == pytest.approx(
        math.sqrt(2.0 / (1.5 * 1.25 * 4.0 * 50)), rel=1e-15)


def test_ader_meta_rate_formula():
    assert ader_meta_rate(100, 2.0, 2.0, 9) == pytest.approx(
        math.sqrt(8 * math.log(9) / (16.0 * 100)), rel=1e-15)


def test_trajectory_rows_columns(rng):
    T = 15
    losses = SquareLossStream(rng.standard_normal((T, 2)), rng.standard_normal(T))
    config = ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.5)
    run = run_online(Scream(config, DomainBall(2, 2.0)), losses)
    rows = trajectory_rows(run)
    assert len(rows) == T
    assert all(list(row) == ["t", "decision_norm", "loss", "movement"] for row in rows)
    assert [row["loss"] for row in rows] == list(run.losses.window_losses(run.decisions))
    assert sum(row["movement"] for row in rows) == pytest.approx(
        float(np.linalg.norm(np.diff(run.decisions, axis=0), axis=1).sum()), rel=1e-12)


class ReferenceRound:
    """The engine round written the plain way, run beside a learner from its initial state.

    It keeps its own weights, experts, movement, switching and slack, and
    computes them with ``.min()``, ``(factors == 1.0).all()``, ``.sum()``,
    ``np.abs(ell).max()``, ``np.linalg.norm`` and ``lam * movement`` always
    added, and its gradient with ``np.dot``.
    """

    def __init__(self, learner: MetaExpertLearner):
        self.etas, self.rate, self.lam = learner.etas, learner.meta_rate, learner.surrogate_lam
        self.project, self.shape = learner.project, learner.shape
        self.weights = learner.weights.copy()
        self.flat = learner.flat.copy()
        self.movement = learner.movement.copy()
        self.switching = learner.expert_switching.copy()
        self.slack = learner.meta_movement_slack

    def decide(self) -> np.ndarray:
        return (self.weights @ self.flat).reshape(self.shape)

    def step(self, gradient) -> None:
        g = np.asarray(gradient, dtype=float).reshape(-1)
        ell = self.flat @ g + self.lam * self.movement
        assert np.isfinite(ell).all()
        factors = np.exp(-self.rate * (ell - ell.min()))
        new_weights = self.weights
        if not (factors == 1.0).all():
            w = self.weights * factors
            new_weights = w / w.sum()
        moved = float(np.abs(new_weights - self.weights).sum())
        self.slack = max(self.slack, moved - self.rate * float(np.abs(ell).max()))
        self.weights = new_weights
        stepped = (self.flat - self.etas[:, None] * g[None, :]).reshape((len(self.etas),) + self.shape)
        stepped = self.project(stepped).reshape(self.flat.shape)
        self.movement = np.linalg.norm(stepped - self.flat, axis=1)
        self.switching = self.switching + self.movement
        self.flat = stepped

    def assert_same_bits(self, learner: MetaExpertLearner) -> None:
        assert learner.weights.tobytes() == self.weights.tobytes()
        assert learner.flat.tobytes() == self.flat.tobytes()
        assert learner.movement.tobytes() == self.movement.tobytes()
        assert learner.expert_switching.tobytes() == self.switching.tobytes()
        assert np.float64(learner.meta_movement_slack).tobytes() == np.float64(self.slack).tobytes()


def reference_grad(loss: SquareLoss, w: np.ndarray) -> np.ndarray:
    return (float(np.dot(w, loss.x)) - loss.y) * loss.x


class TestLeanRoundBits:
    """The engine's round equals :class:`ReferenceRound` to the last bit, after every round."""

    T, d = 2000, 5

    def stream(self, rng) -> SquareLossStream:
        xs = rng.standard_normal((self.T, self.d))
        ys = rng.standard_normal(self.T)
        xs[rng.random(self.T) < 0.05] = 0.0   # zero gradients: signed-zero surrogate losses
        return SquareLossStream(xs, ys)

    @pytest.mark.parametrize("kind", ["scream", "ader"])
    def test_oco_engine(self, rng, kind):
        config = ScreamConfig(T=self.T, grad_bound=2.0, diameter=2.0, lam=0.5)
        learner = (Scream if kind == "scream" else Ader)(config, DomainBall(self.d, 2.0))
        assert (learner.surrogate_lam == 0.0) == (kind == "ader")
        ref = ReferenceRound(learner)
        prior = learner.weights
        for t, loss in enumerate(self.stream(rng)):
            decision = learner.decide()
            assert decision.tobytes() == ref.decide().tobytes()
            learner.observe(loss)
            ref.step(reference_grad(loss, decision))
            ref.assert_same_bits(learner)
            if t == 0:   # all experts at the origin: equal losses keep the prior object itself
                assert learner.weights is prior
        assert not np.array_equal(learner.weights, prior)

    def test_ogd(self, rng):
        domain = DomainBall(self.d, 2.0)
        eta = ogd_default_step_size(self.T, 2.0, 2.0)
        learner = OgdMemory(eta, domain)
        point, switching = np.zeros(self.d), 0.0
        for loss in self.stream(rng):
            assert learner.decide().tobytes() == point.tobytes()
            learner.observe(loss)
            new_point = domain.project(point - eta * reference_grad(loss, point))
            switching += float(np.linalg.norm(new_point - point))
            point = new_point
            assert learner.point.tobytes() == point.tobytes()
            assert np.float64(learner.switching).tobytes() == np.float64(switching).tobytes()

    def test_control_shaped_engine(self, rng):
        H, d_u, d_x, T = 5, 2, 3, 1000
        feasible = DacFeasibleSet.from_certificate(1.5, 0.3, 1.2, H, d_u, d_x)
        pool = build_step_size_pool(T, 2.0, 1.0, 0.4)
        learner = MetaExpertLearner(pool, nonuniform_prior(len(pool)), scream_meta_rate(T, 2.0, 1.0, 0.4),
                                    0.4, (H, d_u, d_x), feasible.project)
        ref = ReferenceRound(learner)
        for _ in range(T):
            assert learner.decide().tobytes() == ref.decide().tobytes()
            g = rng.standard_normal((H, d_u, d_x)) * rng.uniform(0.0, 3.0)
            learner.step(g)
            ref.step(g)
            ref.assert_same_bits(learner)


class TestTuningChecks:
    """The learners reject a bad tuning when they are built, not at their first round."""

    def build(self, etas=(0.1, 0.2), meta_rate=0.5, lam=0.5):
        ball = DomainBall(3, 2.0)
        return MetaExpertLearner(list(etas), [0.5, 0.5], meta_rate, lam, (3,), ball.project_rows)

    @pytest.mark.parametrize("meta_rate", [-1.0, 0.0, np.nan, np.inf])
    def test_meta_rate(self, meta_rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match="meta rate"):
                self.build(meta_rate=meta_rate)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_surrogate_lam(self, lam):
        with pytest.raises(ContractViolation, match="surrogate lam"):
            self.build(lam=lam)

    def test_an_infinite_step_size(self):
        with pytest.raises(ContractViolation, match="pool"):
            self.build(etas=(0.1, np.inf))

    @pytest.mark.parametrize("step_size", [-1.0, 0.0, np.nan, np.inf])
    def test_ogd_step_size(self, step_size):
        with pytest.raises(ContractViolation, match="step size"):
            OgdMemory(step_size, DomainBall(3, 2.0))

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_hedge_step_rate(self, rate):
        with pytest.raises(ContractViolation, match="step size"):
            hedge_step(np.full(3, 1.0 / 3), np.array([0.0, 1.0, 2.0]), rate)


class TestNonFiniteSurrogate:
    """A NaN or infinite surrogate loss raises ContractViolation from step, with no warning."""

    @pytest.mark.parametrize("entry, loss", [(np.nan, "nan"), (-np.inf, "+inf"), (np.inf, "-inf")])
    def test_raises_silently(self, entry, loss):
        learner = Scream(ScreamConfig(T=50, grad_bound=2.0, diameter=2.0, lam=0.7), DomainBall(3, 2.0))
        learner.step(np.array([1.0, 0.0, 0.0]))   # every expert now sits at a negative first coordinate
        assert np.all(learner.flat[:, 0] < 0) and np.all(learner.flat[:, 1:] == 0)
        weights, flat = learner.weights.copy(), learner.flat.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ell = surrogate_losses(learner.flat, learner.movement, np.array([entry, 0.0, 0.0]), 0.7)
            assert np.all(np.isnan(ell)) if loss == "nan" else np.all(ell == float(loss))
            with pytest.raises(ContractViolation, match="vector has non-finite entries"):
                learner.step(np.array([entry, 0.0, 0.0]))
        assert np.array_equal(learner.weights, weights) and np.array_equal(learner.flat, flat)
        assert learner.rounds == 1
