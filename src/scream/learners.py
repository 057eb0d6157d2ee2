"""Meta-expert aggregation for OCO with memory, plus the baselines it is benchmarked against.

The flagship learner keeps a bank of projected-gradient experts with
geometrically spaced step sizes and combines them with a multiplicative-weights
meta-algorithm driven by a switching-cost-regularized surrogate loss, so the
combined decision sequence stays slow-moving without giving up adaptivity.
All experts share one gradient per round (the gradient of the unary loss at
the submitted decision), regardless of how many experts run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csvio import column_rows
from .oco import (ContractViolation, DomainBall, RegretReport, SquareLoss, SquareLossStream,
                  as_vector, regret_metrics)


def pool_size(T: int) -> int:
    """Number of experts: ceil(log2(1 + T) / 2) + 1."""
    if T < 1:
        raise ContractViolation("horizon must be at least 1")
    return math.ceil(0.5 * math.log2(1 + T)) + 1


def build_step_size_pool(T: int, diameter: float, grad_bound: float, lam: float) -> np.ndarray:
    """Pool eta_i = 2^(i-1) * sqrt(D^2 / ((lam*G + G^2) * T)), i = 1..N, as a float array.

    N is :func:`pool_size` of T; neighbouring step sizes have ratio exactly 2.
    """
    n = pool_size(T)  # raises on a horizon below 1
    if not (diameter > 0 and grad_bound > 0 and lam >= 0):  # NaN fails too
        raise ContractViolation("need D > 0, G > 0 and lam >= 0")
    base = math.sqrt(diameter ** 2 / ((lam * grad_bound + grad_bound ** 2) * T))
    return base * 2.0 ** np.arange(n)


def check_simplex(p, tol: float = 1e-12) -> bool:
    """Non-negative entries summing to one within ``tol``; a NaN or an infinity fails."""
    p = np.asarray(p, dtype=float)
    return bool(np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= tol)


def nonuniform_prior(n: int) -> np.ndarray:
    """Prior p_i = (N + 1) / (N * i * (i + 1)); sums to one exactly in exact arithmetic."""
    if n < 1:
        raise ContractViolation("need at least one expert")
    i = np.arange(1, n + 1, dtype=float)
    return (n + 1) / (n * i * (i + 1))


def scream_meta_rate(T: int, diameter: float, grad_bound: float, lam: float) -> float:
    """Optimally tuned meta learning rate sqrt(2 / ((2*lam + G) * (lam + G) * D^2 * T))."""
    return math.sqrt(2.0 / ((2 * lam + grad_bound) * (lam + grad_bound) * diameter ** 2 * T))


def ader_meta_rate(T: int, diameter: float, grad_bound: float, n_experts: int) -> float:
    """Uniform-prior tuning sqrt(8 * ln(N) / ((G * D)^2 * T)) of the movement-agnostic contender."""
    if n_experts <= 1:
        return 1.0 / math.sqrt(T)  # degenerate meta: any positive rate leaves a singleton simplex fixed
    return math.sqrt(8.0 * math.log(n_experts) / ((grad_bound * diameter) ** 2 * T))


def hedge_step(weights, losses, rate: float) -> np.ndarray:
    """Multiplicative update p'_i proportional to p_i * exp(-rate * loss_i).

    This is Hedge, online mirror descent with the negative-entropy regularizer,
    and the meta step of :class:`MetaExpertLearner`.

    The exponent is shifted by the smallest loss, so arbitrarily large loss
    scales (the movement-regularized surrogates can be huge) cannot underflow
    the whole weight vector: the shifted factors lie in (0, 1] and the minimal
    loss keeps factor one.  Equal losses leave the weights bit-for-bit
    unchanged, and zero weights stay exactly zero.  A rate that is not finite
    and positive, or a loss that is not finite, raises :class:`ContractViolation`.
    """
    if not (rate > 0 and math.isfinite(rate)):
        raise ContractViolation("step size must be positive and finite")
    p = np.asarray(weights, dtype=float)
    ell = as_vector(losses, len(p))
    return _hedge(p, ell, rate, np.minimum.reduce(ell))


def _hedge(p: np.ndarray, ell: np.ndarray, rate: float, lo) -> np.ndarray:
    """:func:`hedge_step` on checked finite losses ``ell`` whose smallest entry is ``lo``.

    Returns ``p`` itself when every factor is one (every factor is at most one).
    """
    factors = np.exp(-rate * (ell - lo))
    if np.minimum.reduce(factors) == 1.0:
        return p
    w = p * factors
    total = np.add.reduce(w)
    if not 0 < total < math.inf:  # a NaN fails too
        raise ContractViolation("hedge update produced a degenerate weight vector")
    return w / total


def surrogate_losses(experts: np.ndarray, movement: np.ndarray,
                     gradient: np.ndarray, lam: float) -> np.ndarray:
    """Per-expert meta loss <g, w_i> + lam * ||w_i - w_i_prev||_2 (one shared gradient).

    ``movement`` holds each expert's last step ||w_i - w_i_prev||_2.  At
    ``lam`` = 0 the movement is not read: adding 0 * movement could only flip
    the sign of a zero loss.
    """
    # ndarray.dot makes the BLAS gemv call of @, with its bits, without matmul's slower dispatch
    linear = experts.dot(np.asarray(gradient, dtype=float))
    if lam == 0:
        return linear
    return linear + lam * movement


@dataclass(frozen=True)
class ScreamConfig:
    """Horizon tuning of the meta-expert engine for gradient bound G, diameter D and ``lam``.

    ``lam`` is where memory enters: the benchmarks set it to study the
    movement/regret trade-off.  :meth:`tuning` derives the engine's row from
    the four fields; the controller uses the same row with (D, G) replaced by
    its parameter-space constants.  A horizon below 1, D <= 0, G <= 0 or
    lam < 0 raises :class:`ContractViolation` at construction.
    """

    T: int
    grad_bound: float
    diameter: float
    lam: float

    def __post_init__(self):
        self.tuning()  # raises on a bad horizon, D, G or lam

    def tuning(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """The engine's row: (step sizes, nonuniform prior, optimal meta rate, surrogate lam)."""
        etas = build_step_size_pool(self.T, self.diameter, self.grad_bound, self.lam)
        rate = scream_meta_rate(self.T, self.diameter, self.grad_bound, self.lam)
        return etas, nonuniform_prior(len(etas)), rate, self.lam


class MetaExpertLearner:
    """Bank of projected-gradient experts combined by a multiplicative-weights meta-algorithm.

    The one engine of both the OCO learners and the controller.  Each expert
    is a point of shape ``shape``, stored flat as a row of an (n, P) array;
    ``project`` maps an (n, *shape) array of stepped experts back into the
    feasible set.  Experts start at the origin and ``movement``, each
    expert's last step, starts at zero, so the movement penalty of the first
    round is zero.

    ``etas`` is the step-size pool, one finite positive step size per expert
    (a non-empty 1-D array), and ``prior`` the initial meta weights, one per
    expert, finite, non-negative and summing to one within 1e-12;
    ``meta_rate`` must be finite and positive and ``surrogate_lam`` finite
    and non-negative.  :meth:`ScreamConfig.tuning` derives all four tuning
    arguments; a bad one raises :class:`ContractViolation` here.

    :meth:`observe` takes the round's gradient at the array :meth:`decide`
    last returned, so a round of :func:`run_online` makes one decision; after
    a :meth:`step` with no :meth:`decide` since, it decides afresh.
    """

    def __init__(self, etas: np.ndarray, prior: np.ndarray, meta_rate: float,
                 surrogate_lam: float, shape: tuple[int, ...],
                 project: Callable[[np.ndarray], np.ndarray]):
        etas = np.array(etas, dtype=float)
        if etas.ndim != 1 or not etas.size or not np.all((etas > 0) & np.isfinite(etas)):
            raise ContractViolation("pool must be a non-empty 1-D array of finite positive step sizes")
        prior = np.asarray(prior, dtype=float)
        if prior.shape != etas.shape:
            raise ContractViolation("prior length must match the pool size")
        if not check_simplex(prior):
            raise ContractViolation("prior must be finite, non-negative and sum to one within 1e-12")
        meta_rate, surrogate_lam = float(meta_rate), float(surrogate_lam)
        if not (meta_rate > 0 and math.isfinite(meta_rate)):
            raise ContractViolation("meta rate must be finite and positive")
        if not (surrogate_lam >= 0 and math.isfinite(surrogate_lam)):
            raise ContractViolation("surrogate lam must be finite and non-negative")
        self.etas = etas
        self._eta_column = etas[:, None]
        self.shape = tuple(shape)
        self.project = project
        self.flat = np.zeros((len(etas), math.prod(self.shape)))
        self._experts_shape = (len(etas),) + self.shape
        self._decision = None  # what decide() last returned, until the next step
        self.movement = np.zeros(len(etas))
        self.weights = prior.copy()
        self.meta_rate = meta_rate
        self.surrogate_lam = surrogate_lam
        self.rounds = 0
        # read by check_movement_bounds
        self.meta_movement_slack = -math.inf
        self.expert_switching = np.zeros(len(etas))

    @property
    def n_experts(self) -> int:
        return len(self.etas)

    def decide(self) -> np.ndarray:
        """The weighted mean of the experts, kept for :meth:`observe` until the next :meth:`step`.

        The caller must not write into the returned array, and ``weights``
        and ``flat`` change only through :meth:`step`: :meth:`observe` takes
        the gradient at the kept array as it stands.
        """
        decision = self._decision = self.weights.dot(self.flat).reshape(self.shape)  # see surrogate_losses
        return decision

    def step(self, gradient) -> None:
        """Surrogate losses, Hedge, meta slack, then the projected expert step, from one gradient."""
        g = np.asarray(gradient, dtype=float).reshape(-1)
        self._decision = None

        ell = surrogate_losses(self.flat, self.movement, g, self.surrogate_lam)
        # one min/max pass: a NaN reaches both, an infinity one of them
        lo, hi = np.minimum.reduce(ell), np.maximum.reduce(ell)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ContractViolation("vector has non-finite entries")
        weights = self.weights
        new_weights = _hedge(weights, ell, self.meta_rate, lo)
        moved = 0.0 if new_weights is weights else float(np.add.reduce(np.abs(new_weights - weights)))
        # max |ell| = max(hi, -lo)
        self.meta_movement_slack = max(self.meta_movement_slack,
                                       moved - self.meta_rate * max(hi, -lo))
        self.weights = new_weights

        stepped = (self.flat - self._eta_column * g).reshape(self._experts_shape)
        stepped = self.project(stepped).reshape(self.flat.shape)
        moves = stepped - self.flat
        moves *= moves  # np.linalg.norm(moves, axis=1)'s own arithmetic, without its wrapper
        self.movement = np.sqrt(np.add.reduce(moves, axis=1))
        self.expert_switching += self.movement
        self.flat = stepped
        self.rounds += 1

    def check_movement_bounds(self, grad_bound: float) -> None:
        """Raise :class:`AssertionError` if a movement bound of the regret decomposition broke.

        A Hedge step moves the weights at most ``meta_rate * max |loss|`` in l1,
        and expert i moves at most ``eta_i * G * rounds`` in all.
        """
        if self.meta_movement_slack > 1e-9:
            raise AssertionError(f"meta movement bound violated by {self.meta_movement_slack:.3g}")
        if np.any(self.expert_switching > self.etas * grad_bound * self.rounds + 1e-9):
            raise AssertionError("an expert's switching cost exceeds its eta_i*G*T cap")

    def observe(self, loss: SquareLoss) -> None:
        decision = self._decision
        if decision is None:
            decision = self.decide()
        self.step(loss.grad(decision))  # the single gradient evaluation of the round


class Scream(MetaExpertLearner):
    """Switching-cost-regularized meta-expert aggregation."""

    def __init__(self, config: ScreamConfig, domain: DomainBall):
        super().__init__(*config.tuning(), (domain.dim,), domain.project_rows)


class Ader(MetaExpertLearner):
    """Movement-agnostic contender: uniform prior, plain linearized meta losses."""

    def __init__(self, config: ScreamConfig, domain: DomainBall):
        etas = build_step_size_pool(config.T, config.diameter, config.grad_bound, 0.0)
        n = len(etas)
        rate = ader_meta_rate(config.T, config.diameter, config.grad_bound, n)
        super().__init__(etas, np.full(n, 1.0 / n), rate, 0.0, (domain.dim,), domain.project_rows)


def ogd_default_step_size(T: int, diameter: float, grad_bound: float) -> float:
    """eta* = sqrt(2 D^2 / (G^2 T))."""
    return math.sqrt(2.0 * diameter ** 2 / (grad_bound ** 2 * T))


class OgdMemory:
    """Projected online gradient descent on the unary loss with a fixed step size, from the origin.

    A step size that is not finite and positive raises :class:`ContractViolation`.
    """

    def __init__(self, step_size: float, domain: DomainBall):
        step_size = float(step_size)
        if not (step_size > 0 and math.isfinite(step_size)):
            raise ContractViolation("step size must be positive and finite")
        self.step_size = step_size
        self.domain = domain
        self.point = np.zeros(domain.dim)
        self.switching = 0.0
        self.rounds = 0

    def decide(self) -> np.ndarray:
        """The current point itself: each round replaces it, and the caller must not write into it."""
        return self.point

    def observe(self, loss: SquareLoss) -> None:
        gradient = loss.grad(self.point)
        new_point = self.domain.project(self.point - self.step_size * gradient)
        moved = new_point - self.point
        self.switching += math.sqrt(float(moved.dot(moved)))  # np.linalg.norm's arithmetic
        self.point = new_point
        self.rounds += 1

    def check_movement_bounds(self, grad_bound: float) -> None:
        """Raise :class:`AssertionError` if the movement exceeds ``step_size * G * rounds``."""
        cap = self.step_size * grad_bound * self.rounds
        if self.switching > cap + 1e-9:
            raise AssertionError(
                f"gradient-descent switching {self.switching:.6g} exceeds eta*G*T = {cap:.6g}")


@dataclass
class OcoRun:
    """Recorded trajectory of one online run."""

    decisions: np.ndarray            # (T, d)
    losses: SquareLossStream         # the run's losses, one oracle a round
    learner: object

    @property
    def T(self) -> int:
        return self.decisions.shape[0]

    def report(self, comparators, lam: float) -> RegretReport:
        return regret_metrics(self.decisions, comparators, self.losses, lam)


def run_online(learner, losses: SquareLossStream) -> OcoRun:
    """Drive the online protocol: decide, then reveal the round's loss oracle."""
    decisions = np.empty(losses.X.shape)
    decide, observe = learner.decide, learner.observe
    for t in range(len(losses)):
        decisions[t] = decide()
        observe(losses[t])
    return OcoRun(decisions, losses, learner)


def trajectory_rows(run: OcoRun):
    """Per-round rows (t, decision norm, loss, instantaneous movement)."""
    w = run.decisions
    return column_rows(t=range(1, run.T + 1), decision_norm=np.linalg.norm(w, axis=1),
                       loss=run.losses.window_losses(w),
                       movement=np.linalg.norm(np.diff(w, axis=0, prepend=w[:1]), axis=1))
