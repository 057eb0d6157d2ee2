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
from typing import Iterable, Sequence

import numpy as np

from .oco import (ContractViolation, DomainBall, MemoryLoss, RegretReport, SquareLossStream,
                  regret_metrics, window_losses)
from .omd import OmdState, hedge_step


def pool_size(T: int) -> int:
    """Number of experts: ceil(log2(1 + T) / 2) + 1."""
    if T < 1:
        raise ContractViolation("horizon must be at least 1")
    return math.ceil(0.5 * math.log2(1 + T)) + 1


@dataclass(frozen=True)
class StepSizePool:
    """Geometric grid of expert step sizes with ratio exactly 2."""

    etas: tuple[float, ...]

    def __post_init__(self):
        if not self.etas or any(e <= 0 for e in self.etas):
            raise ContractViolation("pool must hold positive step sizes")

    @property
    def n(self) -> int:
        return len(self.etas)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.etas, dtype=float)


def build_step_size_pool(T: int, diameter: float, grad_bound: float, lam: float) -> StepSizePool:
    """Pool eta_i = 2^(i-1) * sqrt(D^2 / ((lam*G + G^2) * T)), i = 1..N."""
    if T < 1:
        raise ContractViolation("horizon must be at least 1")
    if diameter <= 0 or grad_bound <= 0 or lam < 0:
        raise ContractViolation("need D > 0, G > 0 and lam >= 0")
    base = math.sqrt(diameter ** 2 / ((lam * grad_bound + grad_bound ** 2) * T))
    return StepSizePool(tuple(base * 2 ** i for i in range(pool_size(T))))


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


def surrogate_losses(experts_now: np.ndarray, experts_prev: np.ndarray,
                     gradient: np.ndarray, lam: float) -> np.ndarray:
    """Per-expert meta loss <g, w_i> + lam * ||w_i - w_i_prev||_2 (one shared gradient)."""
    movement = np.linalg.norm(experts_now - experts_prev, axis=1)
    return experts_now @ np.asarray(gradient, dtype=float) + lam * movement


@dataclass(frozen=True)
class ScreamConfig:
    """Horizon-tuned configuration.

    ``lam`` defaults to m^2 * L (the memory-induced movement penalty); the
    benchmarks override it directly to study the movement/regret trade-off.
    ``meta_rate`` and ``pool`` default to their optimally tuned values.
    """

    T: int
    grad_bound: float
    diameter: float
    memory: int = 0
    lipschitz: float = 1.0
    lam: float = None  # type: ignore[assignment]
    meta_rate: float = None  # type: ignore[assignment]
    pool: StepSizePool = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.T < 1:
            raise ContractViolation("horizon must be at least 1")
        if self.memory < 0:
            raise ContractViolation("memory length must be non-negative")
        if self.lam is None:
            object.__setattr__(self, "lam", self.memory ** 2 * self.lipschitz)
        if self.pool is None:
            object.__setattr__(self, "pool",
                               build_step_size_pool(self.T, self.diameter, self.grad_bound, self.lam))
        if self.meta_rate is None:
            object.__setattr__(self, "meta_rate",
                               scream_meta_rate(self.T, self.diameter, self.grad_bound, self.lam))


class MetaExpertLearner:
    """Bank of projected-gradient experts combined by a multiplicative-weights meta-algorithm.

    Experts start at the origin and the previous-decision buffer starts equal
    to the experts, so the movement penalty of the first round is zero.
    """

    def __init__(self, domain: DomainBall, pool: StepSizePool, prior: np.ndarray,
                 meta_rate: float, surrogate_lam: float, record_weights: bool = False):
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (pool.n,):
            raise ContractViolation("prior length must match the pool size")
        self.domain = domain
        self.etas = pool.as_array()
        self.experts = np.zeros((pool.n, domain.dim))
        self.prev_experts = self.experts.copy()
        self.weights = prior.copy()
        self.meta_rate = float(meta_rate)
        self.surrogate_lam = float(surrogate_lam)
        self.rounds = 0
        self.grad_evals = 0
        # diagnostics for the movement-bound checks
        self.meta_movement_slack = -math.inf
        self.expert_switching = np.zeros(pool.n)
        self.weight_history: list[np.ndarray] = [] if record_weights else None
        self.surrogate_history: list[np.ndarray] = [] if record_weights else None

    @property
    def n_experts(self) -> int:
        return len(self.etas)

    def decide(self) -> np.ndarray:
        return self.weights @ self.experts

    def _project_rows(self, rows: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(rows, axis=1)
        scale = np.where(norms > self.domain.radius, self.domain.radius / np.maximum(norms, 1e-300), 1.0)
        return rows * scale[:, None]

    def observe(self, loss: MemoryLoss) -> None:
        w_t = self.decide()
        gradient = loss.grad(w_t)  # the single gradient evaluation of the round
        self.grad_evals += 1

        ell = surrogate_losses(self.experts, self.prev_experts, gradient, self.surrogate_lam)
        if self.weight_history is not None:
            self.weight_history.append(self.weights.copy())
            self.surrogate_history.append(ell.copy())
        new_weights = hedge_step(OmdState(self.weights, self.meta_rate), ell).point
        moved = float(np.abs(new_weights - self.weights).sum())
        self.meta_movement_slack = max(self.meta_movement_slack,
                                       moved - self.meta_rate * float(np.max(np.abs(ell))))
        self.weights = new_weights

        self.prev_experts = self.experts
        stepped = self._project_rows(self.experts - self.etas[:, None] * gradient[None, :])
        self.expert_switching += np.linalg.norm(stepped - self.experts, axis=1)
        self.experts = stepped
        self.rounds += 1


class Scream(MetaExpertLearner):
    """Switching-cost-regularized meta-expert aggregation."""

    def __init__(self, config: ScreamConfig, domain: DomainBall, record_weights: bool = False):
        super().__init__(domain, config.pool, nonuniform_prior(config.pool.n),
                         config.meta_rate, config.lam, record_weights=record_weights)
        self.config = config


class Ader(MetaExpertLearner):
    """Movement-agnostic contender: uniform prior, plain linearized meta losses."""

    def __init__(self, config: ScreamConfig, domain: DomainBall, record_weights: bool = False):
        pool = build_step_size_pool(config.T, config.diameter, config.grad_bound, 0.0)
        rate = ader_meta_rate(config.T, config.diameter, config.grad_bound, pool.n)
        super().__init__(domain, pool, np.full(pool.n, 1.0 / pool.n), rate, 0.0,
                         record_weights=record_weights)
        self.config = config


def ogd_default_step_size(T: int, diameter: float, grad_bound: float,
                          memory: int = 0, lipschitz: float = 1.0) -> float:
    """eta* = sqrt(2 D^2 / ((G^2 + m^2 L G) T))."""
    return math.sqrt(2.0 * diameter ** 2 /
                     ((grad_bound ** 2 + memory ** 2 * lipschitz * grad_bound) * T))


class OgdMemory:
    """Projected online gradient descent on the unary loss with a fixed step size."""

    def __init__(self, step_size: float, domain: DomainBall, start=None):
        if step_size <= 0:
            raise ContractViolation("step size must be positive")
        self.step_size = float(step_size)
        self.domain = domain
        self.point = domain.check(start) if start is not None else np.zeros(domain.dim)
        self.switching = 0.0
        self.grad_evals = 0
        self.rounds = 0

    def decide(self) -> np.ndarray:
        return self.point.copy()

    def observe(self, loss: MemoryLoss) -> None:
        gradient = loss.grad(self.point)
        self.grad_evals += 1
        new_point = self.domain.project(self.point - self.step_size * gradient)
        self.switching += float(np.linalg.norm(new_point - self.point))
        self.point = new_point
        self.rounds += 1


@dataclass
class OcoRun:
    """Recorded trajectory of one online run."""

    decisions: np.ndarray            # (T, d)
    losses: Sequence                 # per-round oracles, as revealed
    incurred: np.ndarray             # f_t on the learner's own windows
    learner: object

    @property
    def T(self) -> int:
        return self.decisions.shape[0]

    def report(self, comparators, lam: float) -> RegretReport:
        return regret_metrics(self.decisions, comparators, self.losses, lam)


def run_online(learner, losses: Iterable[MemoryLoss]) -> OcoRun:
    """Drive the online protocol: decide, then reveal the round's loss oracle.

    A :class:`SquareLossStream` is kept as the run's ``losses``, so the
    evaluation reads its arrays; other oracles are kept in a list as revealed.
    """
    decisions = []
    revealed = []
    for loss in losses:
        decisions.append(np.asarray(learner.decide(), dtype=float))
        revealed.append(loss)
        learner.observe(loss)
    if isinstance(losses, SquareLossStream):
        revealed = losses
    arr = np.asarray(decisions)
    return OcoRun(arr, revealed, window_losses(arr, revealed), learner)


def run_scream(config: ScreamConfig, losses, domain: DomainBall,
               comparators=None, report_lam: float | None = None,
               record_weights: bool = False):
    run = run_online(Scream(config, domain, record_weights=record_weights), losses)
    lam = config.lam if report_lam is None else report_lam
    report = run.report(comparators, lam) if comparators is not None else None
    return run, report


def run_ader(config: ScreamConfig, losses, domain: DomainBall,
             comparators=None, report_lam: float = 0.0, record_weights: bool = False):
    run = run_online(Ader(config, domain, record_weights=record_weights), losses)
    report = run.report(comparators, report_lam) if comparators is not None else None
    return run, report


def run_ogd_memory(config: ScreamConfig, losses, domain: DomainBall, step_size: float | None = None,
                   comparators=None, report_lam: float = 0.0):
    eta = step_size if step_size is not None else ogd_default_step_size(
        config.T, config.diameter, config.grad_bound, config.memory, config.lipschitz)
    run = run_online(OgdMemory(eta, domain), losses)
    report = run.report(comparators, report_lam) if comparators is not None else None
    return run, report


def trajectory_rows(run: OcoRun, include_weights: bool = False):
    """Per-round rows (t, decision norm, loss, instantaneous movement[, weights...])."""
    learner = run.learner
    weights = getattr(learner, "weight_history", None) if include_weights else None
    rows = []
    prev = run.decisions[0]
    for t in range(run.T):
        w = run.decisions[t]
        row = {
            "t": t + 1,
            "decision_norm": float(np.linalg.norm(w)),
            "loss": float(run.incurred[t]),
            "movement": float(np.linalg.norm(w - prev)),
        }
        if weights is not None:
            for i, p in enumerate(weights[t]):
                row[f"p{i + 1}"] = float(p)
        rows.append(row)
        prev = w
    return rows
