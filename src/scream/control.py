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

from .csvio import column_rows
from .dac import (ClosedLoop, DacFeasibleSet, LipschitzConstants, _truncated_gradient, lag_table,
                  simulate_dac, unary_truncated_map)
from .lds import LinearSystem
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

    def _project(self, experts: np.ndarray) -> np.ndarray:
        projected = self.feasible.project(experts)
        if not self.feasible.contains(projected, tol=1e-7):
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


def control_trajectory_rows(run: ControlRun) -> list[dict]:
    """Per-round rows (t, cost, state/action norms, parameter norm, meta entropy, disturbance norm).

    The meta entropy takes p log p as 0 where a weight p is 0.
    """
    p = run.weights
    logs = np.log(p, out=np.zeros_like(p), where=p > 0)
    return column_rows(t=range(1, run.T + 1), cost=run.cost_values,
                       state_norm=np.linalg.norm(run.states[:-1], axis=1),
                       action_norm=np.linalg.norm(run.actions, axis=1),
                       param_norm=np.linalg.norm(run.params.reshape(run.T, -1), axis=1),
                       meta_entropy=-np.sum(p * logs, axis=1),
                       disturbance_norm=np.linalg.norm(run.disturbances, axis=1))


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

    One check before round 0 raises :class:`ContractViolation` unless there is
    one cost oracle per round, the disturbances are a finite (T, d_x) array,
    ``x0`` (default the origin) a finite (d_x,) vector, and ``loop.system``,
    ``loop.K`` and ``feasible`` have the plant's (d_x, d_u).  The rounds then
    play u, x' = A x + B u + w and w_hat = x' - A_hat x - B_hat u inline.
    """
    disturbances = np.asarray(disturbances, dtype=float)
    d_x, d_u, H = plant.d_x, plant.d_u, config.H
    x0 = np.zeros(d_x) if x0 is None else np.asarray(x0, dtype=float)
    believed, K = loop.system, loop.K
    if feasible is None:
        feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, believed.kappa_B,
                                                   H, believed.d_u, believed.d_x)
    if (disturbances.ndim != 2 or disturbances.shape[1] != d_x or x0.shape != (d_x,)
            or believed.B.shape != (d_x, d_u) or K.shape != (d_u, d_x)
            or (feasible.d_u, feasible.d_x) != (d_u, d_x)):
        raise ContractViolation(
            f"dimension mismatch with the plant's (d_x, d_u) = ({d_x}, {d_u}): disturbances "
            f"{disturbances.shape}, x0 {x0.shape}, believed B {believed.B.shape}, K {K.shape}, "
            f"feasible set ({feasible.d_u}, {feasible.d_x})")
    T = disturbances.shape[0]
    if len(costs) != T:
        raise ContractViolation("need one cost oracle per round")
    if not (np.isfinite(x0).all() and np.isfinite(disturbances).all()):
        raise ContractViolation("x0 and the disturbances must be finite")
    controller = ScreamControl(loop, feasible, config)
    A, B, A_hat, B_hat = plant.A, plant.B, believed.A, believed.B
    states = np.empty((T + 1, d_x))
    actions = np.empty((T, d_u))
    history = np.zeros((T + 2 * H + 1, d_x))
    values = np.empty(T)
    params = np.empty((T, H, d_u, d_x))
    weights = np.empty((T, controller.n_experts))
    states[0] = x0
    neg_K = -K  # -K @ x parses as (-K) @ x
    for t in range(T):
        M = params[t] = controller.decide()
        weights[t] = controller.weights
        lags = history[T - t: T - t + 2 * H + 1]
        x = states[t]
        offset = np.einsum("kux,kx->u", M, lags[:H])
        u = actions[t] = neg_K @ x + offset
        values[t] = costs[t].value(x, u)
        if t >= H:
            controller.step(_truncated_gradient(costs[t], loop, M, lags, offset))
        x_next = states[t + 1] = A @ x + B @ u + disturbances[t]
        history[T - 1 - t] = x_next - A_hat @ x - B_hat @ u
    return ControlRun(states, actions, disturbances, values, params, weights, list(costs),
                      controller)


def dynamic_policy_regret_control(run: ControlRun, plant: LinearSystem, comparator_params,
                                  feasible: DacFeasibleSet) -> RegretReport:
    """Regret of a finished run against DAC comparator policies, one per round (T, H, d_u, d_x).

    Comparators are replayed on the same recorded disturbance sequence and the
    same per-round costs (counterfactual simulation).  The path length is the
    Frobenius movement of the comparator parameters; the switching cost is the
    controller's own, priced at its configured ``lam``.
    """
    comp = np.asarray(comparator_params, dtype=float)
    if comp.ndim != 4 or comp.shape[0] != run.T:  # one (H, d_u, d_x) set per round
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
        switching_cost=run.controller.config.lam * path_length(run.params.reshape(run.T, -1)),
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
    return np.repeat(theta, [hi - lo for lo, hi in boundaries], axis=0)


def segment_boundaries(T: int, segment_length: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + segment_length, T)) for lo in range(0, T, segment_length)]
