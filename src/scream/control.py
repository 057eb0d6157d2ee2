"""Meta-expert DAC controller with a movement-regularized meta loss.

The controller is the meta-expert engine of :mod:`scream.learners` run over
DAC parameter space: projected-gradient experts on a geometric step-size grid,
aggregated by multiplicative weights that charge each expert for its own
Frobenius movement inside the meta loss.
Rounds 1..H are a warm-up in which the parameters stay at their feasible
initialization (the origin, i.e. pure -Kx control) while disturbances are
recovered; learning starts at round H + 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dac import (ClosedLoop, DacFeasibleSet, LipschitzConstants, dac_action, lag_table,
                  simulate_dac, unary_truncated_gradient, unary_truncated_map)
from .lds import LinearSystem, recover_disturbance, step_dynamics
from .learners import MetaExpertLearner, ScreamConfig
from .oco import ContractViolation, RegretReport, path_length


@dataclass(frozen=True)
class ControlConfig:
    """Horizon-tuned controller configuration.

    The engine's tuning row is that of :class:`scream.learners.ScreamConfig`
    with (D, G) replaced by the parameter-space constants (D_f, G_f) and the
    movement weight ``lam``.  ``lam_multiplier`` rescales the movement penalty
    away from its theoretical value (which can be enormous at desk scale);
    the theoretical value stays available as ``constants.lam`` and is logged
    in run metadata.  A horizon below 1, a negative multiplier or a D_f or
    G_f that is not positive raises :class:`ContractViolation` at construction.
    """

    T: int
    constants: LipschitzConstants
    lam_multiplier: float = 1.0

    def __post_init__(self):
        self.tuning()  # raises on a bad horizon, constants or multiplier

    @property
    def H(self) -> int:
        return self.constants.H

    @property
    def lam(self) -> float:
        return self.constants.lam * self.lam_multiplier

    def tuning(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(step sizes, prior, meta rate, surrogate lam) of ScreamConfig(T, G_f, D_f, lam)."""
        return ScreamConfig(self.T, self.constants.grad_bound, self.constants.diameter,
                            self.lam).tuning()

    def metadata(self) -> dict:
        etas, _, meta_rate, _ = self.tuning()
        return {
            "T": self.T,
            "H": self.H,
            "lam": self.lam,
            "lam_theoretical": self.constants.lam,
            "lam_multiplier": self.lam_multiplier,
            "meta_rate": meta_rate,
            "pool": etas.tolist(),
            "n_experts": len(etas),
            "constants": asdict(self.constants),
        }


class ScreamControl(MetaExpertLearner):
    """The meta-expert engine over DAC parameter sets of shape (H, d_u, d_x).

    Experts are projected by per-block singular-value clipping.  Expert
    parameter sets start at the feasible set's center (all zeros), so warm-up
    actions reduce to u = -K x.  :func:`run_scream_control` plays the rounds.
    """

    def __init__(self, loop: ClosedLoop, feasible: DacFeasibleSet, config: ControlConfig):
        if feasible.H != config.H:
            raise ContractViolation("feasible set and configuration disagree on H")
        super().__init__(*config.tuning(), feasible.zeros().shape, self._project)
        self.loop = loop
        self.feasible = feasible
        self.config = config
        self._caps_tol = feasible.caps + 1e-7

    def _project(self, experts: np.ndarray) -> np.ndarray:
        projected = self.feasible.project(experts)
        # feasible.contains(projected, tol=1e-7), with the caps plus tolerance added once
        if not (self.feasible.spectral_norms(projected) <= self._caps_tol).all():
            raise AssertionError(
                "internal invariant failure: expert left the feasible set after projection")
        return projected


@dataclass
class ControlRun:
    """Recorded closed loop of one controller run."""

    states: np.ndarray                 # (T + 1, d_x)
    actions: np.ndarray                # (T, d_u)
    disturbances: np.ndarray           # true disturbances driving the plant
    cost_values: np.ndarray            # (T,)
    params: np.ndarray                 # (T, H, d_u, d_x) aggregated parameter per round
    weights: np.ndarray                # (T, n) meta weights that aggregated it
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
    rows = []
    for t, p in enumerate(run.weights):
        positive = p[p > 0]
        entropy = float(-np.sum(positive * np.log(positive)))
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
                       x0=None) -> ControlRun:
    """Drive the controller on ``plant`` while it reasons with ``loop`` (its believed system).

    With a perfectly known system the two coincide; a pipeline running on an
    identified model passes the estimate as ``loop`` and the truth as ``plant``.

    Each round the controller decides once and acts on the last H recovered
    disturbances; only then are the round's cost and disturbance revealed.
    From round H + 1 on it takes one step on the gradient of the unary
    truncated loss.  Recovered disturbances are kept newest-first: row
    T - 1 - t of ``history`` holds round t's, followed by 2H + 1 zero rows, so
    the lags of round t (``lags[i]`` = w[t - 1 - i]) are one forward slice.
    """
    disturbances = np.asarray(disturbances, dtype=float)
    T = disturbances.shape[0]
    if len(costs) != T:
        raise ContractViolation("need one cost oracle per round")
    if feasible is None:
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, loop.system.kappa_B,
                                                   config.H, loop.system.d_u, loop.system.d_x)
    controller = ScreamControl(loop, feasible, config)
    d_x, d_u, H = plant.d_x, plant.d_u, config.H
    states = np.empty((T + 1, d_x))
    actions = np.empty((T, d_u))
    history = np.zeros((T + 2 * H + 1, d_x))
    values = np.empty(T)
    params = np.empty((T, H, d_u, d_x))
    weights = np.empty((T, controller.n_experts))
    states[0] = np.zeros(d_x) if x0 is None else np.asarray(x0, dtype=float)
    for t in range(T):
        M = params[t] = controller.decide()
        weights[t] = controller.weights
        lags = history[T - t: T - t + 2 * H + 1]
        u = actions[t] = dac_action(loop.K, M, states[t], lags)
        values[t] = costs[t].value(states[t], u)
        if t >= H:
            controller.step(unary_truncated_gradient(costs[t], loop, M, lags))
        states[t + 1] = step_dynamics(plant, states[t], u, disturbances[t])
        history[T - 1 - t] = recover_disturbance(loop.system, states[t + 1], states[t], u)
    return ControlRun(states, actions, disturbances, values, params, weights, list(costs),
                      controller)


def dynamic_policy_regret_control(run: ControlRun, plant: LinearSystem, comparator_params,
                                  feasible: DacFeasibleSet) -> RegretReport:
    """Regret of a finished run against a sequence of DAC comparator policies.

    Comparators are replayed on the same recorded disturbance sequence and the
    same per-round costs (counterfactual simulation).  The path length is the
    Frobenius movement of the comparator parameters; the switching cost is
    priced at the controller's configured ``lam``.
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
    replay = simulate_dac(plant, K, comp, run.disturbances, x0=run.states[0], costs=run.costs)
    cumulative = float(np.sum(run.cost_values))
    return RegretReport(
        cumulative_loss=cumulative,
        switching_cost=run.controller.config.lam * run.param_switching(),
        dynamic_policy_regret=cumulative - float(np.sum(replay.costs)),
        path_length=path_length(comp.reshape(run.T, -1)),
    )


COMPARATOR_ITERS = 300  # projected-gradient steps per segment comparator


def best_fixed_dac_per_segment(loop: ClosedLoop, costs, disturbances, boundaries,
                               feasible: DacFeasibleSet) -> np.ndarray:
    """Offline benchmark comparators: per segment, the best fixed parameter set.

    Each segment's objective is the sum of unary truncated losses of its rounds.
    With the affine map y = y0 + L m, v = -K y + D m of
    :func:`scream.dac.unary_truncated_map`, built once per segment, quadratic
    costs make it an explicit quadratic in m, summed by einsums.  The S
    segments' quadratics are stacked, (S, P, P) with P = H d_u d_x, and
    minimized in lockstep: each projected-gradient step is one batched
    product and one batched projection for all segments.  Returns one
    parameter set per round, piecewise constant over the segments.
    """
    H, K, shape = feasible.H, loop.K, feasible.zeros().shape
    lags_all = lag_table(np.asarray(disturbances, dtype=float), 2 * H + 1)
    targets = np.array([cost.target for cost in costs])
    rho = np.array([cost.control_weight for cost in costs])
    S, P = len(boundaries), math.prod(shape)
    quad, lin, step = np.empty((S, P, P)), np.empty((S, P)), np.empty(S)
    for s, (lo, hi) in enumerate(boundaries):
        y0, L, D = unary_truncated_map(loop, lags_all[lo:hi], H)
        R = D - K @ L                                               # v = -K y0 + R m
        quad[s] = np.einsum("txp,txq->pq", L, L) + np.einsum("t,tup,tuq->pq", rho[lo:hi], R, R)
        lin[s] = (np.einsum("txp,tx->p", L, y0 - targets[lo:hi])
                  - np.einsum("t,tup,tu->p", rho[lo:hi], R, y0 @ K.T))
        step[s] = 1.0 / max(2.0 * float(np.linalg.eigvalsh(quad[s]).max()), 1e-12)
    rate = (step * 2.0)[:, None]
    theta = np.zeros((S,) + shape)
    for _ in range(COMPARATOR_ITERS):
        flat = theta.reshape(S, P)
        grad = (quad @ flat[:, :, None])[:, :, 0] + lin
        theta = feasible.project((flat - rate * grad).reshape(theta.shape))
    out = np.empty((lags_all.shape[0],) + shape)
    for s, (lo, hi) in enumerate(boundaries):
        out[lo:hi] = theta[s]
    return out


def segment_boundaries(T: int, segment_length: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + segment_length, T)) for lo in range(0, T, segment_length)]
