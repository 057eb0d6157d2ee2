"""The randomized structural sweeps, shared by ``scream verify`` and the acceptance suite.

Each check takes a generator and its case counts and returns ``(ok, detail)``.
The defaults are the sizes ``scream verify`` runs; acceptance criteria 2, 3, 4
and 8 call the same functions with their own seeds and larger counts.  The
sweeps cover simplex preservation, both projections, the movement
decomposition, the prior, one gradient per round, the transfer-matrix
expansion, the truncated-loss gradients and the truncation bounds.
"""

from __future__ import annotations

import numpy as np

from .dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lag_table, simulate_dac,
                  state_action_bound, state_via_transfer, tracking_grad_coeff, truncated_loss,
                  truncated_state, unary_truncated_eval, unary_truncated_gradient)
from .lds import DisturbanceGenerator, clip_to_ball, preset, random_stable_system
from .learners import Scream, ScreamConfig, hedge_step, nonuniform_prior, run_online
from .oco import DomainBall, SquareLossStream


def check_simplex(p, tol: float = 1e-12) -> bool:
    """Non-negative entries summing to one within ``tol``."""
    p = np.asarray(p, dtype=float)
    return bool(np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= tol)


def check_simplex_preservation(rng, cases: int = 1000):
    for _ in range(cases):
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        rate = float(rng.uniform(0.01, 2))
        if not check_simplex(hedge_step(p, rng.uniform(-40, 40, n), rate), tol=1e-12):
            return False, "hedge left the simplex"
    return True, f"{cases} random hedge steps stayed on the simplex"


def check_ball_projection(rng, cases: int = 1000):
    for _ in range(cases):
        d = int(rng.integers(1, 8))
        ball = DomainBall(d, float(rng.uniform(0.5, 4)))
        once = ball.project(rng.standard_normal(d) * 5)
        if not ball.contains(once):
            return False, "projection left the ball"
        twice = ball.project(once)
        if np.linalg.norm(twice - once) > 1e-12 or not np.allclose(twice, once, atol=1e-14):
            return False, "projection is not idempotent"
    return True, f"{cases} ball projections feasible and idempotent"


def check_dac_projection(rng, cases: int = 60, samples: int = 200, sample_every: int = 1):
    """Feasible and idempotent on every case.

    Every ``sample_every``-th case is also checked against ``samples`` random
    feasible points: none may lie closer to the raw point than its projection.
    """
    feasible = DacFeasibleSet.from_certificate(1.0, 0.4, 1.0, 4, 2, 3)
    for case in range(cases):
        raw = rng.standard_normal((4, 2, 3)) * float(rng.uniform(0.2, 4))
        proj = feasible.project(raw)
        if not feasible.contains(proj):
            return False, "projection infeasible"
        if not np.max(np.abs(feasible.project(proj) - proj)) <= 1e-10:
            return False, "projection not idempotent"
        if case % sample_every == 0:
            dist = np.linalg.norm(proj - raw)
            for _ in range(samples):
                if not np.linalg.norm(feasible.random_point(rng) - raw) >= dist - 1e-9:
                    return False, "a random feasible point beat the projection"
    sampled = len(range(0, cases, sample_every))
    return True, (f"{cases} DAC projections feasible and idempotent; {sampled} of them "
                  f"no farther than any of {samples} random feasible points")


def check_switching_decomposition(rng, cases: int = 1000):
    for _ in range(cases):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        diameter = float(rng.uniform(0.5, 4))
        w_now = clip_to_ball(rng.standard_normal((n, d)), diameter / 2)
        w_prev = clip_to_ball(rng.standard_normal((n, d)), diameter / 2)
        p_now = rng.dirichlet(np.ones(n))
        p_prev = rng.dirichlet(np.ones(n))
        lhs = np.linalg.norm(p_now @ w_now - p_prev @ w_prev)
        rhs = diameter * np.abs(p_now - p_prev).sum() + p_now @ np.linalg.norm(w_now - w_prev, axis=1)
        if not lhs <= rhs + 1e-9:
            return False, "movement decomposition violated"
    return True, f"{cases} random instances satisfy the movement decomposition"


def check_prior(rng, largest: int = 200):
    """Every pool size 1..largest; draws nothing from ``rng``."""
    for n in range(1, largest + 1):
        p = nonuniform_prior(n)
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p <= 0):
            return False, f"prior broken at N={n}"
    return True, f"prior positive and normalized to 1e-12 for N = 1..{largest}"


def check_one_gradient(rng, horizons=(50,)):
    for T in horizons:
        rounds = [(rng.standard_normal(3) / 2, rng.uniform(-1, 1)) for _ in range(T)]
        losses = SquareLossStream([x for x, _ in rounds], [y for _, y in rounds])
        config = ScreamConfig(T=T, grad_bound=2.0, diameter=2.0, lam=0.5)
        run_online(Scream(config, DomainBall(3, 2.0)), losses)
        counts = [loss.grad_calls for loss in losses]
        if counts != [1] * T:
            return False, f"gradient call counts off at T={T}: {set(counts)}"
    return True, f"exactly one gradient evaluation per round at T in {tuple(horizons)}"


def check_transfer_equivalence(rng, systems: int = 5):
    """State expansion vs direct simulation at rounds T/3 and T, system ``trial`` seeded by ``trial``."""
    H, T = 4, 60
    worst = 0.0
    for trial in range(systems):
        system = random_stable_system(3, 2, 0.9, seed=trial)
        loop = ClosedLoop(system, np.zeros((2, 3)))
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, system.kappa_B, H, 2, 3)
        M_hist = np.asarray([feasible.random_point(rng) for _ in range(T)])
        w = rng.uniform(-0.5, 0.5, (T, 3))
        states = simulate_dac(system, loop.K, M_hist, w).states
        for t in (T // 3, T):
            x = state_via_transfer(loop, list(M_hist[:t]), w[:t])
            rel = np.linalg.norm(states[t] - x) / max(np.linalg.norm(states[t]), 1e-12)
            worst = max(worst, float(rel))
    if worst > 1e-8:
        return False, f"transfer expansion mismatch {worst:.3g}"
    return True, (f"transfer expansion matches simulation on {systems} systems "
                  f"(worst rel err {worst:.2e})")


def check_gradient_fd(rng, cases: int = 5):
    """Central differences on every entry of M; instance ``trial`` draws its system from seed 200 + trial."""
    H, step = 3, 1e-5
    worst = 0.0
    for trial in range(cases):
        system = random_stable_system(3, 2, float(rng.uniform(0.5, 0.85)), seed=200 + trial)
        loop = ClosedLoop(system, np.zeros((2, 3)))
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, system.kappa_B, H, 2, 3)
        M = feasible.random_point(rng)
        lags = rng.uniform(-0.5, 0.5, (2 * H + 1, 3))
        cost = QuadraticTrackingCost(rng.uniform(-1, 1, 3))
        grad = unary_truncated_gradient(cost, loop, M, lags)
        for idx in np.ndindex(M.shape):
            bump = M.copy()
            bump[idx] += step
            up = unary_truncated_eval(cost, loop, bump, lags)[0]
            bump[idx] -= 2 * step
            down = unary_truncated_eval(cost, loop, bump, lags)[0]
            fd = (up - down) / (2 * step)
            rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-6)
            worst = max(worst, rel)
    if worst > 1e-5:
        return False, f"gradient/difference mismatch {worst:.3g}"
    return True, (f"gradients match finite differences on {cases} instances "
                  f"(worst entry rel err {worst:.2e})")


def check_truncation_bounds(rng, horizons=(4,), T: int = 80):
    """State and per-round loss truncation gaps under their certified caps."""
    p = preset("mild-3x2", seed=0)
    loop = ClosedLoop(p.system, p.K, p.certificate)
    W, target_radius = 0.5, 0.5
    checked = 0
    for H in horizons:
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, p.system.kappa_B,
                                                   H, 2, 3)
        d_bound = state_action_bound(loop.kappa, loop.gamma, p.system.kappa_B, W, H)
        g_c = tracking_grad_coeff(d_bound, target_radius)
        costs = [QuadraticTrackingCost(rng.uniform(-target_radius / 2, target_radius / 2, 3))
                 for _ in range(T)]
        M_seq = np.asarray([feasible.random_point(rng) for _ in range(T)])
        w = DisturbanceGenerator("piecewise-step", 3, amplitude=W, seed=H, period=40).sequence(T)
        traj = simulate_dac(p.system, loop.K, M_seq, w, costs=costs)
        state_cap = loop.kappa ** 2 * (1 - loop.gamma) ** (H + 1) * d_bound
        loss_cap = 2 * g_c * d_bound ** 2 * loop.kappa ** 3 * (1 - loop.gamma) ** (H + 1)
        lags_all = lag_table(w, 2 * H + 1)
        for t in range(H + 1, T):
            lags = lags_all[t]
            y = truncated_state(loop, M_seq[t - 1 - H: t], lags)
            if not np.linalg.norm(traj.states[t] - y) <= state_cap:
                return False, f"state truncation bound violated at H={H}, t={t}"
            value, _, _ = truncated_loss(costs[t], loop, M_seq[t - 1 - H: t + 1], lags)
            if not abs(traj.costs[t] - value) <= loss_cap:
                return False, f"loss truncation bound violated at H={H}, t={t}"
            checked += 1
    return True, f"truncation bounds held on {checked} rounds across H in {tuple(horizons)}"


CHECKS = (
    ("simplex preservation", check_simplex_preservation),
    ("ball projection", check_ball_projection),
    ("DAC projection", check_dac_projection),
    ("movement decomposition", check_switching_decomposition),
    ("prior normalization", check_prior),
    ("one gradient per round", check_one_gradient),
    ("transfer-matrix equivalence", check_transfer_equivalence),
    ("truncated-loss gradients", check_gradient_fd),
    ("truncation bounds", check_truncation_bounds),
)


def run_verification(seed: int = 0, out=print) -> bool:
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(rng)
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
