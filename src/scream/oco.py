"""Core types for online convex optimization with memory.

A round-t loss depends on the window of the last ``m + 1`` decisions.  Losses
arrive through per-round oracles (revealed only after the decision is
submitted), and every algorithm in this package reports its performance
through :func:`regret_metrics`.  A square-loss stream can be held as arrays
(:class:`SquareLossStream`), which evaluates every round's window loss in one
pass.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np


class ContractViolation(ValueError):
    """An operation was called outside its documented contract."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ContractViolation(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ContractViolation(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ContractViolation("vector has non-finite entries")
    return v


@dataclass(frozen=True)
class DomainBall:
    """Origin-centered Euclidean ball of diameter ``diameter`` in R^dim.

    The feasible set of every learner in this package.  It contains the
    origin by construction and decisions are kept inside via :meth:`project`.
    """

    dim: int
    diameter: float

    def __post_init__(self):
        if self.dim < 1:
            raise ContractViolation("dimension must be a positive integer")
        if not self.diameter > 0:
            raise ContractViolation("diameter must be positive")

    @property
    def radius(self) -> float:
        return self.diameter / 2.0

    def project(self, x) -> np.ndarray:
        """Euclidean projection: rescale onto the sphere when outside."""
        v = as_vector(x, self.dim)
        norm = float(np.linalg.norm(v))
        if norm <= self.radius:
            return v
        return v * (self.radius / norm)

    def contains(self, x, tol: float = 1e-9) -> bool:
        v = np.asarray(x, dtype=float)
        return bool(np.all(np.isfinite(v)) and np.linalg.norm(v) <= self.radius + tol)

    def check(self, x) -> np.ndarray:
        v = as_vector(x, self.dim)
        if not self.contains(v):
            raise ContractViolation(
                f"decision norm {np.linalg.norm(v):.6g} exceeds radius {self.radius:.6g}"
            )
        return v


def finite_difference_gradient(fn: Callable[[np.ndarray], float], w, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    w = np.asarray(w, dtype=float)
    g = np.empty_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (fn(w + e) - fn(w - e)) / (2.0 * h)
    return g


class MemoryLoss:
    """One round's loss oracle: the window form, its unary form, and the unary gradient.

    Parameters
    ----------
    m : memory length; the window form applies to the last ``m + 1`` decisions.
    window_fn : callable mapping a sequence of ``m + 1`` vectors to a float.
    unary_fn : optional unary form; defaults to ``window_fn`` on a repeated
        decision, which makes the window/unary consistency exact by definition.
    grad_fn : optional gradient of the unary form.  When missing, central
        finite differences are used and a warning is emitted once.
    lipschitz, grad_bound : the constants L and G declared for this loss.
    """

    def __init__(self, m: int, window_fn, unary_fn=None, grad_fn=None,
                 lipschitz: float = 1.0, grad_bound: float = 1.0):
        if m < 0:
            raise ContractViolation("memory length must be non-negative")
        self.m = int(m)
        self._window_fn = window_fn
        self._unary_fn = unary_fn
        self._grad_fn = grad_fn
        self.lipschitz = float(lipschitz)
        self.grad_bound = float(grad_bound)
        self.grad_calls = 0

    def window(self, decisions: Sequence[np.ndarray]) -> float:
        if len(decisions) != self.m + 1:
            raise ContractViolation(
                f"window must hold exactly {self.m + 1} decisions, got {len(decisions)}"
            )
        return float(self._window_fn(list(decisions)))

    def unary(self, w) -> float:
        if self._unary_fn is not None:
            return float(self._unary_fn(w))
        return self.window([w] * (self.m + 1))

    def grad(self, w) -> np.ndarray:
        self.grad_calls += 1
        if self._grad_fn is not None:
            g = np.asarray(self._grad_fn(w), dtype=float)
        else:
            warnings.warn("loss oracle has no gradient; falling back to finite differences",
                          RuntimeWarning, stacklevel=2)
            g = finite_difference_gradient(self.unary, w)
        if not np.all(np.isfinite(g)):
            raise ContractViolation("gradient has non-finite entries")
        return g


class SquareLoss(MemoryLoss):
    """Square loss f(w) = (w.x - y)^2 / 2 as a round oracle; with memory, its window mean.

    The unary form is the window form on a repeated decision, as for any
    :class:`MemoryLoss`, so it equals the memoryless square loss.
    """

    def __init__(self, x, y: float, m: int = 0, norm: float | None = None):
        x = np.asarray(x, dtype=float)
        if norm is None:
            norm = float(np.linalg.norm(x)) if x.size else 0.0
        super().__init__(m, None, lipschitz=norm, grad_bound=norm)
        self.x = x
        self.y = float(y)

    def _one(self, w) -> float:
        return 0.5 * (float(np.dot(w, self.x)) - self.y) ** 2

    def window(self, decisions: Sequence[np.ndarray]) -> float:
        if len(decisions) != self.m + 1:
            raise ContractViolation(
                f"window must hold exactly {self.m + 1} decisions, got {len(decisions)}"
            )
        if self.m == 0:
            return self._one(decisions[0])
        return sum(self._one(w) for w in decisions) / len(decisions)

    def unary(self, w) -> float:
        return self.window([w] * (self.m + 1))

    def grad(self, w) -> np.ndarray:
        self.grad_calls += 1
        g = (float(np.dot(w, self.x)) - self.y) * self.x
        if not np.all(np.isfinite(g)):
            raise ContractViolation("gradient has non-finite entries")
        return g


def square_loss(x, y: float, m: int = 0) -> SquareLoss:
    """Square loss f(w) = (w.x - y)^2 / 2 as a memoryless oracle (m = 0 by default).

    With memory it averages the window, which keeps the unary form identical
    to the memoryless square loss.
    """
    return SquareLoss(x, y, m)


class SquareLossStream(Sequence):
    """The square losses of a whole stream, held as arrays: row t of ``X`` and ``y`` is round t.

    A sized sequence of round oracles: ``stream[t]`` is a :class:`SquareLoss`
    with the values of ``square_loss(X[t], y[t], m)``.  It is built on first
    access and then kept, so each round's ``grad_calls`` survives the run.
    :meth:`window_losses` evaluates every round's window loss at once.
    """

    def __init__(self, X, y, m: int = 0):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ContractViolation(
                f"need X of shape (T, d) and y of shape (T,), got {X.shape} and {y.shape}")
        if m < 0:
            raise ContractViolation("memory length must be non-negative")
        self.X = X
        self.y = y
        self.m = int(m)
        self._norms = np.linalg.norm(X, axis=1)
        self._oracles: list[SquareLoss | None] = [None] * X.shape[0]

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, t: int) -> SquareLoss:
        oracle = self._oracles[t]
        if oracle is None:
            oracle = self._oracles[t] = SquareLoss(self.X[t], self.y[t], self.m, self._norms[t])
        return oracle

    def window_losses(self, decisions) -> np.ndarray:
        """f_t(w_{t-m}, ..., w_t) for every round t of a (T, d) decision array, in one pass."""
        w = np.asarray(decisions, dtype=float)
        if w.shape != self.X.shape:
            raise ContractViolation(f"expected decisions of shape {self.X.shape}, got {w.shape}")
        T = w.shape[0]
        # window[t, j] = index of w_{t-m+j}, clamped to the first round
        window = np.maximum(np.arange(T)[:, None] - self.m + np.arange(self.m + 1)[None, :], 0)
        residual = np.einsum("tjd,td->tj", w[window], self.X) - self.y[:, None]
        return np.sum(0.5 * residual ** 2, axis=1) / (self.m + 1)


def _window_at(decisions: np.ndarray, t: int, m: int) -> list[np.ndarray]:
    """Window (w_{t-m}, ..., w_t) with indices clamped to the first round."""
    return [decisions[max(s, 0)] for s in range(t - m, t + 1)]


def path_length(sequence) -> float:
    """Cumulative movement sum_{t>=2} ||v_t - v_{t-1}||_2 of a (T, d) sequence."""
    seq = np.asarray(sequence, dtype=float)
    if seq.shape[0] < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(seq, axis=0), axis=1)))


def window_losses(decisions, losses: Sequence[MemoryLoss]) -> np.ndarray:
    """Per-round window losses f_t(w_{t-m}, ..., w_t) of a (T, d) decision array.

    Decisions before round one are taken equal to the round-one decision.  A
    :class:`SquareLossStream` evaluates all rounds in one vectorized pass; any
    other sequence of oracles is asked one window at a time.
    """
    w = np.asarray(decisions, dtype=float)
    if isinstance(losses, SquareLossStream):
        return losses.window_losses(w)
    return np.array([loss.window(_window_at(w, t, loss.m)) for t, loss in enumerate(losses)])


@dataclass
class RegretReport:
    """Performance accounting of one run against a comparator sequence.

    ``switching_cost`` is the lambda-weighted movement of the learner's own
    decisions; ``overall_loss`` is the objective ``cumulative_loss +
    switching_cost`` used by the benchmarks.  ``best_fixed_loss`` computes the
    cumulative loss of the best fixed comparator; it runs only when
    ``static_policy_regret`` is first read.
    """

    cumulative_loss: float
    switching_cost: float
    dynamic_policy_regret: float
    path_length: float
    lam: float
    best_fixed_loss: Callable[[], float] = field(repr=False, compare=False)

    @property
    def overall_loss(self) -> float:
        return self.cumulative_loss + self.switching_cost

    @functools.cached_property
    def static_policy_regret(self) -> float:
        """Cumulative loss minus the best fixed comparator's, computed on first read and cached."""
        return self.cumulative_loss - self.best_fixed_loss()


def regret_metrics(decisions, comparators, losses: Sequence[MemoryLoss], lam: float) -> RegretReport:
    """Fill a :class:`RegretReport` for a finished run.

    ``decisions`` and ``comparators`` are (T, d) arrays; ``losses`` the revealed
    per-round oracles.  Decisions (and comparators) before round one are taken
    equal to their round-one value.  The cumulative and comparator losses come
    from :func:`window_losses`, one vectorized pass each when ``losses`` is a
    :class:`SquareLossStream`.

    The static policy regret is measured against the best fixed decision
    among the comparator sequence's distinct values, which coincides with the
    dynamic policy regret whenever the comparator sequence is constant.  It
    costs one unary sweep over the rounds per distinct comparator, quadratic
    in T when the comparators drift, so it is computed only when
    ``static_policy_regret`` is read; the benchmark outputs never read it.
    """
    w = np.asarray(decisions, dtype=float)
    v = np.asarray(comparators, dtype=float)
    if w.shape != v.shape:
        raise ContractViolation(f"decision/comparator shape mismatch: {w.shape} vs {v.shape}")
    T = w.shape[0]
    if len(losses) != T:
        raise ContractViolation(f"expected {T} loss oracles, got {len(losses)}")

    cumulative = float(np.sum(window_losses(w, losses)))
    comparator_cum = float(np.sum(window_losses(v, losses)))

    def best_fixed_loss() -> float:
        return min((sum(loss.unary(cand) for loss in losses) for cand in np.unique(v, axis=0)),
                   default=math.inf)

    return RegretReport(
        cumulative_loss=cumulative,
        switching_cost=lam * path_length(w),
        dynamic_policy_regret=cumulative - comparator_cum,
        path_length=path_length(v),
        lam=lam,
        best_fixed_loss=best_fixed_loss,
    )
