"""The randomized structural sweeps, shared by ``scream verify`` and the acceptance suite.

Each check takes a generator and its case counts and returns ``(ok, detail)``.
The defaults are the sizes ``scream verify`` runs; acceptance criteria 2, 3, 4
and 8 call the same functions with their own seeds and larger counts.  The
sweeps cover simplex preservation, both projections, the movement
decomposition, the prior, one gradient per round, the transfer-matrix
expansion, the truncated-loss gradients and the truncation bounds.  The
window-form reference they check the controller's path against lives here too,
with the DAC action it plays.
"""

from __future__ import annotations

import numpy as np

from .dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lag_table, simulate_dac,
                  state_action_bound, tracking_grad_coeff, unary_truncated_gradient)
from .lds import DisturbanceGenerator, clip_to_ball, preset, random_stable_system
from .learners import Scream, ScreamConfig, check_simplex, hedge_step, nonuniform_prior, run_online
from .oco import ContractViolation, DomainBall, SquareLossStream


def transfer_matrix(loop: ClosedLoop, i: int, h: int, M_seq) -> np.ndarray:
    """Linear map from the disturbance i steps back to the current state.

    ``M_seq`` holds the h + 1 parameter sets in play, oldest first.  The map is
    A_K^i (when i <= h) plus sum_j A_K^j B M_seq[-1-j][i-j-1] over the j with
    a valid block index.
    """
    M_seq = [np.asarray(M, dtype=float) for M in M_seq]
    if len(M_seq) != h + 1:
        raise ContractViolation(f"need h + 1 = {h + 1} parameter sets, got {len(M_seq)}")
    H = M_seq[0].shape[0]
    if not 0 <= i <= H + h:
        raise ContractViolation(f"transfer index i = {i} outside [0, H + h] = [0, {H + h}]")
    d_x = loop.system.d_x
    powers, powers_b = (np.ascontiguousarray(flat.reshape(d_x, h + 1, -1).swapaxes(0, 1))
                        for flat in loop.flat_powers(h + 1))
    psi = powers[i].copy() if i <= h else np.zeros((d_x, d_x))
    for j in range(h + 1):
        k = i - j - 1
        if 0 <= k < H:
            psi += powers_b[j] @ M_seq[h - j][k]
    return psi


def transfer_state(loop: ClosedLoop, M_seq, lags) -> np.ndarray:
    """sum_i transfer_matrix(i) @ lags[i] for the h + 1 sets ``M_seq``; lags past the record are 0.

    Given a run's t sets and its disturbances newest first (``w[:t][::-1]``),
    this is its state after t rounds; given H + 1 sets and 2H + 1 lags, the
    H-step truncated state.
    """
    lags = np.asarray(lags, dtype=float)
    h = len(M_seq) - 1
    H = np.shape(M_seq[0])[0]
    x = np.zeros(loop.system.d_x)
    for i in range(min(lags.shape[0], H + h + 1)):
        x += transfer_matrix(loop, i, h, M_seq) @ lags[i]
    return x


def dac_action(K, M, x, lags) -> np.ndarray:
    """u = -K x + sum_k M[k] @ lags[k], with lags[k] the disturbance k+1 steps back."""
    K = np.asarray(K, dtype=float)
    M = np.asarray(M, dtype=float)
    x = np.asarray(x, dtype=float)
    lags = np.asarray(lags, dtype=float)
    H = M.shape[0]
    if lags.shape[0] < H or lags.shape[1] != M.shape[2] or K.shape != (M.shape[1], x.shape[0]):
        raise ContractViolation("dimension mismatch in DAC action")
    return -K @ x + np.einsum("kux,kx->u", M, lags[:H])


def truncated_loss(cost, loop: ClosedLoop, window, lags):
    """The truncated loss of a window of H + 2 parameter sets (oldest first); returns (value, y, v).

    The truncated state y uses the H + 1 older sets and the 2H + 1 lags; the
    truncated action v = -K y + sum_k M_newest[k] lags[k] adds the newest set.
    """
    window = np.asarray(window, dtype=float)
    H = window.shape[1]
    if window.shape[0] != H + 2:
        raise ContractViolation(f"window must hold exactly H + 2 = {H + 2} parameter sets")
    if len(lags) < 2 * H + 1:
        raise ContractViolation(f"need 2H + 1 = {2 * H + 1} lagged disturbances")
    y = transfer_state(loop, window[:-1], lags)
    v = dac_action(loop.K, window[-1], y, lags)
    return float(cost.value(y, v)), y, v


def check_simplex_preservation(rng, cases: int = 1000):
    for _ in range(cases):
        n = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(n))
        rate = float(rng.uniform(0.01, 2))
        if not check_simplex(hedge_step(p, rng.uniform(-40, 40, n), rate), tol=1e-12):
            return False, "hedge left the simplex"
    return True, f"{cases} random hedge steps stayed on the simplex"


def check_ball_projection(rng, cases: int = 1000):
    """``project`` and, on the raw point and its projection as rows, ``project_rows``."""
    for _ in range(cases):
        d = int(rng.integers(1, 8))
        ball = DomainBall(d, float(rng.uniform(0.5, 4)))
        raw = rng.standard_normal(d) * 5
        once = ball.project(raw)
        if not ball.contains(once):
            return False, "projection left the ball"
        twice = ball.project(once)
        if np.linalg.norm(twice - once) > 1e-12 or not np.allclose(twice, once, atol=1e-14):
            return False, "projection is not idempotent"
        rows = ball.project_rows(np.stack([raw, once]))
        if not all(ball.contains(row) for row in rows):
            return False, "row projection left the ball"
        if not np.allclose(ball.project_rows(rows), rows, rtol=0, atol=1e-14):
            return False, "row projection is not idempotent"
        if not np.allclose(rows, [once, twice], rtol=0, atol=1e-14):
            return False, "row projection differs from the single-point projection"
    return True, (f"{cases} ball projections feasible and idempotent, by point and by rows "
                  "(rows equal to points within 1e-14)")


def check_dac_projection(rng, cases: int = 60, samples: int = 200, sample_every: int = 1):
    """Feasible and idempotent on every case, for (4, 2, 3) and then (4, 1, 3) parameter sets.

    The two shapes reach the short-side-2 and short-side-1 closed forms of
    :meth:`DacFeasibleSet.project`.  Every ``sample_every``-th case of each
    is also checked against ``samples`` random feasible points: none may lie
    closer to the raw point than its projection.
    """
    for d_u in (2, 1):
        feasible = DacFeasibleSet.from_certificate(1.0, 0.4, 1.0, 4, d_u, 3)
        for case in range(cases):
            raw = rng.standard_normal((4, d_u, 3)) * float(rng.uniform(0.2, 4))
            proj = feasible.project(raw)
            if not feasible.contains(proj):
                return False, f"projection infeasible on {d_u}x3 blocks"
            if not np.max(np.abs(feasible.project(proj) - proj)) <= 1e-10:
                return False, f"projection not idempotent on {d_u}x3 blocks"
            if case % sample_every == 0:
                dist = np.linalg.norm(proj - raw)
                for _ in range(samples):
                    if not np.linalg.norm(feasible.random_point(rng) - raw) >= dist - 1e-9:
                        return False, f"a random feasible point beat the projection on {d_u}x3 blocks"
    sampled = len(range(0, cases, sample_every))
    return True, (f"{cases} DAC projections each of 2x3 and 1x3 blocks feasible and idempotent; "
                  f"{sampled} of each no farther than any of {samples} random feasible points")


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
        if np.any(losses.grad_calls != 1):
            return False, f"gradient call counts off at T={T}: {set(losses.grad_calls.tolist())}"
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
            x = transfer_state(loop, M_hist[:t], w[:t][::-1])
            rel = np.linalg.norm(states[t] - x) / max(np.linalg.norm(states[t]), 1e-12)
            worst = max(worst, float(rel))
    if worst > 1e-8:
        return False, f"transfer expansion mismatch {worst:.3g}"
    return True, (f"transfer expansion matches simulation on {systems} systems "
                  "(worst rel err within 1e-8)")


FD_STEP, FD_TOL = 1.0, 1e-10  # the step of check_gradient_fd and its worst relative error


def check_gradient_fd(rng, cases: int = 5):
    """Gradients against central differences of the window-form loss; trial i uses seed 200 + i.

    The loss is quadratic in M, so the differences are exact up to rounding at
    any step; at ``FD_STEP`` rounding stays near 1e-12, far below ``FD_TOL``.
    """
    H, step = 3, FD_STEP
    worst = 0.0
    for trial in range(cases):
        system = random_stable_system(3, 2, float(rng.uniform(0.5, 0.85)), seed=200 + trial)
        loop = ClosedLoop(system, np.zeros((2, 3)))
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, system.kappa_B, H, 2, 3)
        M = feasible.random_point(rng)
        lags = rng.uniform(-0.5, 0.5, (2 * H + 1, 3))
        cost = QuadraticTrackingCost(rng.uniform(-1, 1, 3))
        grad = unary_truncated_gradient(cost, loop, M, lags)
        window = (H + 2,) + M.shape
        for idx in np.ndindex(M.shape):
            bump = M.copy()
            bump[idx] += step
            up = truncated_loss(cost, loop, np.broadcast_to(bump, window), lags)[0]
            bump[idx] -= 2 * step
            down = truncated_loss(cost, loop, np.broadcast_to(bump, window), lags)[0]
            fd = (up - down) / (2 * step)
            rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-6)
            worst = max(worst, rel)
    if worst > FD_TOL:
        return False, f"gradient/difference mismatch {worst:.3g}"
    return True, (f"gradients match finite differences on {cases} instances "
                  f"(worst entry rel err within {FD_TOL:g})")


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
            y = transfer_state(loop, M_seq[t - 1 - H: t], lags)
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


def run_verification(seed: int = 0) -> bool:
    rng = np.random.default_rng(seed)
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn(rng)
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
