"""Self-contained structural check suite behind the ``verify`` CLI subcommand.

Each check prints one pass/fail line; the suite returns False when anything
fails.  These are randomized sweeps of the library's structural guarantees
(simplex preservation, projections, movement bounds, decompositions, oracle
equivalences), sized to finish in well under a minute.
"""

from __future__ import annotations

import numpy as np

from .dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lags_at, simulate_dac,
                  state_action_bound, state_via_transfer, truncated_state,
                  unary_truncated_eval, unary_truncated_gradient)
from .lds import clip_to_ball, preset, random_stable_system
from .learners import Scream, ScreamConfig, nonuniform_prior, run_online
from .oco import DomainBall, square_loss
from .omd import check_simplex, hedge_step


def _check_simplex_preservation(rng, cases=1000):
    for _ in range(cases):
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        losses = rng.uniform(-50, 50, n)
        p = hedge_step(p, losses, float(rng.uniform(0.001, 2.0)))
        if not check_simplex(p, tol=1e-12):
            return False, "hedge left the simplex"
    return True, f"{cases} random hedge steps stayed on the simplex"


def _check_ball_projection(rng, cases=1000):
    for _ in range(cases):
        d = int(rng.integers(1, 8))
        ball = DomainBall(d, float(rng.uniform(0.5, 5.0)))
        x = rng.standard_normal(d) * 5
        once = ball.project(x)
        if not ball.contains(once):
            return False, "projection left the ball"
        if np.linalg.norm(ball.project(once) - once) > 1e-12:
            return False, "projection is not idempotent"
    return True, f"{cases} ball projections feasible and idempotent"


def _check_dac_projection(rng, cases=60, samples=200):
    feasible = DacFeasibleSet.from_certificate(1.0, 0.4, 1.0, 4, 2, 3)
    for _ in range(cases):
        raw = rng.standard_normal((4, 2, 3)) * rng.uniform(0.1, 3.0)
        proj = feasible.project(raw)
        if not feasible.contains(proj):
            return False, "projection infeasible"
        if np.max(np.abs(feasible.project(proj) - proj)) > 1e-10:
            return False, "projection not idempotent"
        dist = np.linalg.norm(proj - raw)
        for _ in range(samples):
            other = feasible.random_point(rng)
            if np.linalg.norm(other - raw) < dist - 1e-9:
                return False, "a random feasible point beat the projection"
    return True, f"{cases} DAC projections feasible, idempotent, sampling-optimal"


def _check_switching_decomposition(rng, cases=1000):
    for _ in range(cases):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        diameter = float(rng.uniform(0.5, 4.0))
        radius = diameter / 2
        w_now = clip_to_ball(rng.standard_normal((n, d)), radius)
        w_prev = clip_to_ball(rng.standard_normal((n, d)), radius)
        p_now = rng.dirichlet(np.ones(n))
        p_prev = rng.dirichlet(np.ones(n))
        lhs = np.linalg.norm(p_now @ w_now - p_prev @ w_prev)
        rhs = diameter * np.abs(p_now - p_prev).sum() + p_now @ np.linalg.norm(w_now - w_prev, axis=1)
        if lhs > rhs + 1e-9:
            return False, "movement decomposition violated"
    return True, f"{cases} random instances satisfy the movement decomposition"


def _check_prior(rng, cases=60):
    for n in list(range(1, 31)) + [int(rng.integers(31, 200)) for _ in range(cases - 30)]:
        p = nonuniform_prior(n)
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p <= 0):
            return False, f"prior broken at N={n}"
    return True, "prior normalized to 1e-12 for all tested sizes"


def _check_one_gradient(rng):
    config = ScreamConfig(T=50, grad_bound=2.0, diameter=2.0, lam=1.0)
    domain = DomainBall(3, 2.0)
    losses = [square_loss(rng.standard_normal(3) / 2, float(rng.uniform(-1, 1)))
              for _ in range(50)]
    run_online(Scream(config, domain), losses)
    counts = [loss.grad_calls for loss in losses]
    if counts != [1] * 50:
        return False, f"gradient call counts off: {set(counts)}"
    return True, "exactly one gradient evaluation per round"


def _check_transfer_equivalence(rng, systems=5):
    worst = 0.0
    for i in range(systems):
        system = random_stable_system(3, 2, 0.9, seed=int(rng.integers(1 << 30)))
        loop = ClosedLoop(system, np.zeros((2, 3)))
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, system.kappa_B, 4, 2, 3)
        T = 25
        M_hist = [feasible.random_point(rng) for _ in range(T)]
        w = rng.uniform(-0.5, 0.5, (T, 3))
        x_direct = simulate_dac(system, loop.K, np.asarray(M_hist), w).states[-1]
        x_transfer = state_via_transfer(loop, M_hist, w)
        scale = max(np.linalg.norm(x_direct), 1e-12)
        worst = max(worst, float(np.linalg.norm(x_direct - x_transfer)) / scale)
    if worst > 1e-8:
        return False, f"transfer expansion mismatch {worst:.3g}"
    return True, f"transfer expansion matches direct simulation (worst rel err {worst:.2e})"


def _check_gradient_fd(rng, cases=5):
    sys_preset = preset("mild-3x2", seed=3)
    loop = ClosedLoop(sys_preset.system, sys_preset.K, sys_preset.certificate)
    H = 3
    feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma,
                                               sys_preset.system.kappa_B, H, 2, 3)
    for _ in range(cases):
        M = feasible.random_point(rng)
        lags = rng.uniform(-0.4, 0.4, (2 * H + 1, 3))
        cost = QuadraticTrackingCost(rng.uniform(-1, 1, 3))
        grad = unary_truncated_gradient(cost, loop, M, lags)
        h = 1e-5
        for _ in range(4):
            idx = tuple(int(rng.integers(s)) for s in M.shape)
            bump = M.copy()
            bump[idx] += h
            up = unary_truncated_eval(cost, loop, bump, lags)[0]
            bump[idx] -= 2 * h
            down = unary_truncated_eval(cost, loop, bump, lags)[0]
            fd = (up - down) / (2 * h)
            if abs(fd - grad[idx]) > 1e-5 * max(abs(fd), abs(grad[idx]), 1e-6):
                return False, f"gradient/difference mismatch at {idx}"
    return True, "analytic truncated-loss gradients match finite differences"


def _check_truncation_bound(rng):
    sys_preset = preset("mild-3x2", seed=1)
    loop = ClosedLoop(sys_preset.system, sys_preset.K, sys_preset.certificate)
    H = 4
    kappa, gamma = loop.kappa, loop.gamma
    kappa_B = sys_preset.system.kappa_B
    W = 0.5
    feasible = DacFeasibleSet.from_certificate(kappa, gamma, kappa_B, H, 2, 3)
    d_bound = state_action_bound(kappa, gamma, kappa_B, W, H)
    T = 80
    M_seq = np.asarray([feasible.random_point(rng) for _ in range(T)])
    w = sys_preset.disturbance.sequence(T) * (W / sys_preset.disturbance.amplitude)
    traj = simulate_dac(sys_preset.system, loop.K, M_seq, w)
    cap = kappa ** 2 * (1 - gamma) ** (H + 1) * d_bound
    for t in range(H + 1, T):
        hist = M_seq[t - 1 - H: t]
        y = truncated_state(loop, hist, lags_at(w, t, 2 * H + 1))
        if np.linalg.norm(traj.states[t] - y) > cap + 1e-12:
            return False, f"truncation bound violated at t={t}"
    return True, "state truncation error stayed under its certified cap"


CHECKS = (
    ("simplex preservation", _check_simplex_preservation),
    ("ball projection", _check_ball_projection),
    ("DAC projection", _check_dac_projection),
    ("movement decomposition", _check_switching_decomposition),
    ("prior normalization", _check_prior),
    ("one gradient per round", _check_one_gradient),
    ("transfer-matrix equivalence", _check_transfer_equivalence),
    ("truncated-loss gradients", _check_gradient_fd),
    ("truncation bound", _check_truncation_bound),
)


def run_verification(seed: int = 0, out=print) -> bool:
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(rng)
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
