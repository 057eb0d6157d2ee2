"""Core types for online convex optimization with memory.

A round-t loss depends on the window of the last ``m + 1`` decisions.  A run's
losses are a :class:`SquareLossStream`, held as arrays.  Its round-t oracle
(a :class:`SquareLoss`, revealed only after the decision is submitted) gives
the analytic gradient of the unary loss; the stream evaluates every round's
window loss in one pass, and every algorithm in this package reports its
performance through :func:`regret_metrics`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        """Project every row of an (n, dim) array onto the ball."""
        norms = np.linalg.norm(rows, axis=1)
        scale = np.where(norms > self.radius, self.radius / np.maximum(norms, 1e-300), 1.0)
        return rows * scale[:, None]

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


class SquareLoss:
    """One round's square loss f(w) = (w.x - y)^2 / 2; with memory ``m``, its window mean.

    The window form applies to the last ``m + 1`` decisions.  The unary form
    is the window form on a repeated decision, so it equals the memoryless
    square loss; ``grad`` is its analytic gradient and counts its calls.
    """

    def __init__(self, x, y: float, m: int = 0):
        if m < 0:
            raise ContractViolation("memory length must be non-negative")
        self.m = int(m)
        self.x = np.asarray(x, dtype=float)
        self.y = float(y)
        self.grad_calls = 0

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


class SquareLossStream(Sequence):
    """The square losses of a whole stream, held as arrays: row t of ``X`` and ``y`` is round t.

    A sized sequence of round oracles: ``stream[t]`` is ``SquareLoss(X[t],
    y[t], m)``.  It is built on first access and then kept, so each round's
    ``grad_calls`` survives the run.  :meth:`window_losses` evaluates every
    round's window loss at once.
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
        self._oracles: list[SquareLoss | None] = [None] * X.shape[0]

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, t: int) -> SquareLoss:
        oracle = self._oracles[t]
        if oracle is None:
            oracle = self._oracles[t] = SquareLoss(self.X[t], self.y[t], self.m)
        return oracle

    def window_losses(self, decisions) -> np.ndarray:
        """f_t(w_{t-m}, ..., w_t) for every round t of a (T, d) decision array, in one pass.

        Decisions before round one are taken equal to the round-one decision.
        """
        w = np.asarray(decisions, dtype=float)
        if w.shape != self.X.shape:
            raise ContractViolation(f"expected decisions of shape {self.X.shape}, got {w.shape}")
        T = w.shape[0]
        # window[t, j] = index of w_{t-m+j}, clamped to the first round
        window = np.maximum(np.arange(T)[:, None] - self.m + np.arange(self.m + 1)[None, :], 0)
        residual = np.einsum("tjd,td->tj", w[window], self.X) - self.y[:, None]
        return np.sum(0.5 * residual ** 2, axis=1) / (self.m + 1)


def path_length(sequence) -> float:
    """Cumulative movement sum_{t>=2} ||v_t - v_{t-1}||_2 of a (T, d) sequence."""
    seq = np.asarray(sequence, dtype=float)
    if seq.shape[0] < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(seq, axis=0), axis=1)))


@dataclass
class RegretReport:
    """Performance accounting of one run against a comparator sequence.

    ``switching_cost`` is the lambda-weighted movement of the learner's own
    decisions; ``overall_loss`` is the objective ``cumulative_loss +
    switching_cost`` used by the benchmarks.
    """

    cumulative_loss: float
    switching_cost: float
    dynamic_policy_regret: float
    path_length: float
    lam: float

    @property
    def overall_loss(self) -> float:
        return self.cumulative_loss + self.switching_cost


def regret_metrics(decisions, comparators, losses: SquareLossStream, lam: float) -> RegretReport:
    """Fill a :class:`RegretReport` for a finished run.

    ``decisions`` and ``comparators`` are (T, d) arrays; ``losses`` the run's
    stream.  Decisions (and comparators) before round one are taken equal to
    their round-one value.  The cumulative and comparator losses are one
    :meth:`SquareLossStream.window_losses` pass each.
    """
    w = np.asarray(decisions, dtype=float)
    v = np.asarray(comparators, dtype=float)
    if w.shape != v.shape:
        raise ContractViolation(f"decision/comparator shape mismatch: {w.shape} vs {v.shape}")
    cumulative = float(np.sum(losses.window_losses(w)))
    comparator_cum = float(np.sum(losses.window_losses(v)))
    return RegretReport(
        cumulative_loss=cumulative,
        switching_cost=lam * path_length(w),
        dynamic_policy_regret=cumulative - comparator_cum,
        path_length=path_length(v),
        lam=lam,
    )
