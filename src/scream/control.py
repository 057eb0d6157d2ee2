"""Meta-expert DAC controller with a movement-regularized meta loss.

The controller is the meta-expert engine of :mod:`scream.learners` run over
DAC parameter space: projected-gradient experts on a geometric step-size grid,
aggregated by multiplicative weights that charge each expert for its own
Frobenius movement inside the meta loss.
Rounds 1..H are a warm-up in which the parameters stay at their feasible
initialization (the origin, i.e. pure -Kx control) while disturbances are
recorded; learning starts once the window can support the truncated loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dac import (ClosedLoop, DacFeasibleSet, DisturbanceWindow, LipschitzConstants,
                  dac_action, simulate_dac, unary_truncated_gradient)
from .lds import LinearSystem, recover_disturbance, step_dynamics
from .learners import (MetaExpertLearner, StepSizePool, build_step_size_pool,
                       nonuniform_prior, scream_meta_rate)
from .oco import ContractViolation, RegretReport, path_length


def control_pool(constants: LipschitzConstants, T: int, lam: float | None = None) -> tuple[StepSizePool, float]:
    """Step-size pool and meta rate in parameter space.

    eta_i = 2^(i-1) * sqrt(D_f^2 / ((lam * G_f + G_f^2) * T)) with the usual
    pool size, and the meta rate follows the same optimal tuning as the OCO
    learner with (D, G) replaced by (D_f, G_f).
    """
    lam = constants.lam if lam is None else float(lam)
    pool = build_step_size_pool(T, constants.diameter, constants.grad_bound, lam)
    rate = scream_meta_rate(T, constants.diameter, constants.grad_bound, lam)
    return pool, rate


@dataclass(frozen=True)
class ControlConfig:
    """Horizon-tuned controller configuration.

    ``lam_multiplier`` rescales the movement penalty away from its theoretical
    value (which can be enormous at desk scale); the theoretical value stays
    available as ``constants.lam`` and is logged in run metadata.
    """

    T: int
    constants: LipschitzConstants
    pool: StepSizePool = None  # type: ignore[assignment]
    meta_rate: float = None  # type: ignore[assignment]
    lam_multiplier: float = 1.0

    def __post_init__(self):
        if self.T < 1:
            raise ContractViolation("horizon must be at least 1")
        if self.pool is None or self.meta_rate is None:
            pool, rate = control_pool(self.constants, self.T, self.lam)
            if self.pool is None:
                object.__setattr__(self, "pool", pool)
            if self.meta_rate is None:
                object.__setattr__(self, "meta_rate", rate)

    @property
    def H(self) -> int:
        return self.constants.H

    @property
    def lam(self) -> float:
        return self.constants.lam * self.lam_multiplier

    def metadata(self) -> dict:
        return {
            "T": self.T,
            "H": self.H,
            "lam": self.lam,
            "lam_theoretical": self.constants.lam,
            "lam_multiplier": self.lam_multiplier,
            "meta_rate": self.meta_rate,
            "pool": list(self.pool.etas),
            "n_experts": self.pool.n,
            "constants": self.constants.as_dict(),
        }


class ScreamControl(MetaExpertLearner):
    """Closed-loop learner: aggregate experts, act, then learn from the revealed cost.

    The meta-expert engine over DAC parameter sets of shape (H, d_u, d_x),
    projected by per-block singular-value clipping.  Expert parameter sets
    start at the feasible set's center (all zeros), so warm-up actions reduce
    to u = -K x.
    """

    def __init__(self, loop: ClosedLoop, feasible: DacFeasibleSet, config: ControlConfig,
                 record_weights: bool = False):
        if feasible.H != config.H:
            raise ContractViolation("feasible set and configuration disagree on H")
        super().__init__(config.pool, nonuniform_prior(config.pool.n), config.meta_rate,
                         config.lam, feasible.zeros().shape, self._project,
                         record_weights=record_weights)
        self.loop = loop
        self.feasible = feasible
        self.config = config
        self.window = DisturbanceWindow(loop.system.d_x, 2 * config.H + 1)
        self.warmup_left = config.H

    def _project(self, experts: np.ndarray) -> np.ndarray:
        projected = self.feasible.project(experts)
        if not self.feasible.contains(projected, tol=1e-7):
            raise AssertionError(
                "internal invariant failure: expert left the feasible set after projection")
        return projected

    def action(self, x) -> np.ndarray:
        return dac_action(self.loop.K, self.decide(), x, self.window.lags(self.config.H))

    def learn(self, cost) -> None:
        """Meta and expert updates from the truncated loss of the revealed cost.

        The first H rounds are a warm-up: the parameters stay frozen until the
        window supports the truncation.
        """
        if self.warmup_left:
            self.warmup_left -= 1
            if self.weight_history is not None:
                self.weight_history.append(self.weights.copy())
            return
        self.step(unary_truncated_gradient(cost, self.loop, self.decide(), self.window.lags()))

    def record_transition(self, x, u, x_next) -> None:
        """Recover the disturbance with the believed dynamics and push it into the window."""
        w_hat = recover_disturbance(self.loop.system, x_next, x, u)
        self.window.push(w_hat)


@dataclass
class ControlRun:
    """Recorded closed loop of one controller run."""

    states: np.ndarray                 # (T + 1, d_x)
    actions: np.ndarray                # (T, d_u)
    disturbances: np.ndarray           # true disturbances driving the plant
    believed_disturbances: np.ndarray  # what the controller recovered
    cost_values: np.ndarray            # (T,)
    params: np.ndarray                 # (T, H, d_u, d_x) aggregated parameter per round
    costs: list
    controller: ScreamControl

    @property
    def T(self) -> int:
        return self.actions.shape[0]

    def param_switching(self) -> float:
        diffs = np.diff(self.params, axis=0).reshape(self.T - 1, -1) if self.T > 1 else np.zeros((0, 1))
        return float(np.sum(np.linalg.norm(diffs, axis=1)))


def control_trajectory_rows(run: ControlRun) -> list[dict]:
    """Per-round rows (t, cost, state/action norms, parameter norm, meta entropy, disturbance norm)."""
    weights = getattr(run.controller, "weight_history", None)
    rows = []
    for t in range(run.T):
        if weights and t < len(weights):
            p = weights[t]
            positive = p[p > 0]
            entropy = float(-np.sum(positive * np.log(positive)))
        else:
            entropy = float("nan")
        rows.append({
            "t": t + 1,
            "cost": float(run.cost_values[t]),
            "state_norm": float(np.linalg.norm(run.states[t])),
            "action_norm": float(np.linalg.norm(run.actions[t])),
            "param_norm": float(np.linalg.norm(run.params[t])),
            "meta_entropy": entropy,
            "disturbance_norm": float(np.linalg.norm(run.disturbances[t])),
        })
    return rows


def run_scream_control(loop: ClosedLoop, plant: LinearSystem, disturbances, costs,
                       config: ControlConfig, feasible: DacFeasibleSet | None = None,
                       x0=None, record_weights: bool = False) -> ControlRun:
    """Drive the controller on ``plant`` while it reasons with ``loop`` (its believed system).

    With a perfectly known system the two coincide; a pipeline running on an
    identified model passes the estimate as ``loop`` and the truth as ``plant``.
    """
    disturbances = np.asarray(disturbances, dtype=float)
    T = disturbances.shape[0]
    if len(costs) != T:
        raise ContractViolation("need one cost oracle per round")
    if feasible is None:
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, loop.system.kappa_B,
                                                   config.H, loop.system.d_u, loop.system.d_x)
    controller = ScreamControl(loop, feasible, config, record_weights=record_weights)
    d_x, d_u, H = plant.d_x, plant.d_u, config.H
    states = np.empty((T + 1, d_x))
    actions = np.empty((T, d_u))
    believed = np.empty((T, d_x))
    values = np.empty(T)
    params = np.empty((T, H, d_u, d_x))
    states[0] = np.zeros(d_x) if x0 is None else np.asarray(x0, dtype=float)
    for t in range(T):
        params[t] = controller.decide()
        u = controller.action(states[t])
        actions[t] = u
        values[t] = costs[t].value(states[t], u)
        controller.learn(costs[t])
        states[t + 1] = step_dynamics(plant, states[t], u, disturbances[t])
        controller.record_transition(states[t], u, states[t + 1])
        believed[t] = controller.window.lags(1)[0]
    return ControlRun(states, actions, disturbances, believed, values, params, list(costs), controller)


def dynamic_policy_regret_control(run: ControlRun, plant: LinearSystem, comparator_params,
                                  feasible: DacFeasibleSet, lam: float | None = None) -> RegretReport:
    """Regret of a finished run against a sequence of DAC comparator policies.

    Comparators are replayed on the same recorded disturbance sequence and the
    same per-round costs (counterfactual simulation).  The path length is the
    Frobenius movement of the comparator parameters; the static policy regret
    is measured against the best fixed parameter among the distinct comparator
    values.  It takes one replay per distinct comparator, so it runs only when
    ``static_policy_regret`` is read; the benchmark outputs never read it.
    """
    comp = np.asarray(comparator_params, dtype=float)
    if comp.ndim == 3:
        comp = np.broadcast_to(comp, (run.T,) + comp.shape)
    if comp.shape[0] != run.T:
        raise ContractViolation("need one comparator policy per round")
    if run.disturbances.shape[0] != run.T:
        raise ContractViolation("run carries no complete disturbance record")
    if not feasible.contains(comp, tol=1e-8):
        raise ContractViolation("comparator parameters leave the feasible set")

    K = run.controller.loop.K
    lam = run.controller.config.lam if lam is None else float(lam)
    replay = simulate_dac(plant, K, comp, run.disturbances, x0=run.states[0], costs=run.costs)
    cumulative = float(np.sum(run.cost_values))
    flat = comp.reshape(run.T, -1)

    def best_fixed_loss() -> float:
        best_fixed = math.inf
        for cand in np.unique(flat, axis=0):
            fixed = cand.reshape(comp.shape[1:])
            traj = simulate_dac(plant, K, fixed, run.disturbances, x0=run.states[0],
                                costs=run.costs)
            best_fixed = min(best_fixed, float(np.sum(traj.costs)))
        return best_fixed

    return RegretReport(
        cumulative_loss=cumulative,
        switching_cost=lam * run.param_switching(),
        dynamic_policy_regret=cumulative - float(np.sum(replay.costs)),
        path_length=path_length(flat),
        lam=lam,
        best_fixed_loss=best_fixed_loss,
    )


def best_fixed_dac_per_segment(loop: ClosedLoop, costs, disturbances, boundaries,
                               feasible: DacFeasibleSet, iters: int = 300) -> np.ndarray:
    """Offline benchmark comparators: per segment, the best fixed parameter set.

    Each segment's objective is the sum of unary truncated losses of its rounds
    (quadratic costs make it an explicit quadratic in the parameters, assembled
    in closed form); it is minimized by projected gradient descent on the
    assembled quadratic.  Returns one parameter set per round, piecewise
    constant over the segments.
    """
    w = np.asarray(disturbances, dtype=float)
    T = w.shape[0]
    H = feasible.H
    d_x, d_u = loop.system.d_x, loop.system.d_u
    P = H * d_u * d_x
    powers = loop.powers(H + 1)
    powers_b = loop.powers_times_b(H + 1)
    K = loop.K
    eye_u = np.eye(d_u)
    # lag matrix per round: lags[t, i] = w_{t-1-i}, zero-padded before the start
    lag_idx = np.arange(T)[:, None] - 1 - np.arange(2 * H + 1)[None, :]
    padded = np.vstack([w, np.zeros((1, d_x))])
    lags_all = padded[np.where(lag_idx >= 0, lag_idx, T)]
    jk = 1 + np.arange(H + 1)[:, None] + np.arange(H)[None, :]

    out = np.empty((T, H, d_u, d_x))
    for lo, hi in boundaries:
        quad = np.zeros((P, P))
        lin = np.zeros(P)
        for t in range(lo, hi):
            lags = lags_all[t]
            table = lags[jk]                                        # (H+1, H, d_x)
            y0 = np.einsum("jxz,jz->x", powers, lags[: H + 1])
            L = np.einsum("jxp,jkq->xkpq", powers_b, table).reshape(d_x, P)
            Dmat = np.einsum("up,kq->ukpq", eye_u, lags[:H]).reshape(d_u, P)
            R = -K @ L + Dmat
            target = costs[t].target
            rho = costs[t].control_weight
            quad += L.T @ L + rho * (R.T @ R)
            lin += L.T @ (y0 - target) + rho * (R.T @ (-K @ y0))
        step = 1.0 / max(2.0 * float(np.linalg.eigvalsh(quad).max()), 1e-12)
        theta = np.zeros(P)
        for _ in range(iters):
            theta = feasible.project(
                (theta - step * 2.0 * (quad @ theta + lin)).reshape(H, d_u, d_x)).reshape(P)
        out[lo:hi] = theta.reshape(H, d_u, d_x)
    return out


def segment_boundaries(T: int, segment_length: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + segment_length, T)) for lo in range(0, T, segment_length)]
