"""Core types for online convex optimization with memory.

Memory enters the OCO guarantee only through the switching-cost weight
``lam``: dynamic policy regret splits into unary regret plus ``lam`` times the
movement, so a round-t loss here is the unary square loss of the round-t
decision.  A run's losses are a :class:`SquareLossStream`, held as arrays.
Its round-t oracle (a :class:`SquareLoss`, built when asked, after the
decision is submitted) gives the analytic gradient and counts it on the
stream; the stream evaluates every round's loss in one pass, and every
algorithm in this package reports its performance through
:func:`regret_metrics`, which prices the movement with ``lam``.
"""

from __future__ import annotations

import math
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
    if not np.isfinite(v).all():
        raise ContractViolation("vector has non-finite entries")
    return v


def clip_to_ball(vectors: np.ndarray, bound: float) -> np.ndarray:
    """Scale the rows of a float array down to l2 norm <= bound (rows already inside are untouched)."""
    norms = np.add.reduce(vectors * vectors, axis=-1, keepdims=True)
    # np.linalg.norm(vectors, axis=-1, keepdims=True)'s own arithmetic, without its wrapper
    np.sqrt(norms, out=norms)
    np.fmax(norms, bound, out=norms)  # fmax skips a NaN norm: such a row keeps scale 1
    np.divide(bound, norms, out=norms)
    return vectors * norms


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
        flat = v.ravel()  # contiguous, as np.linalg.norm sums it: a strided dot sums in another order
        norm = math.sqrt(float(flat.dot(flat)))
        if norm <= self.radius:
            return v
        return v * (self.radius / norm)

    def project_rows(self, rows: np.ndarray) -> np.ndarray:
        """Project every row of an (n, dim) array onto the ball."""
        return clip_to_ball(rows, self.radius)

    def contains(self, x, tol: float = 1e-9) -> bool:
        v = np.asarray(x, dtype=float)
        return bool(np.all(np.isfinite(v)) and np.linalg.norm(v) <= self.radius + tol)


class SquareLoss:
    """Round t of a stream, f(w) = (w.x_t - y_t)^2 / 2, as a gradient oracle on views of row t.

    ``grad`` is its analytic gradient and counts its calls into
    ``stream.grad_calls[t]``, which ``grad_calls`` reads.  A one-off oracle is
    ``SquareLossStream([x], [y])[0]``.  Loss values are evaluated on whole
    runs by :meth:`SquareLossStream.window_losses`.
    """

    def __init__(self, stream: SquareLossStream, t: int):
        self.x = stream.X[t]  # raises IndexError past either end, which stops iteration
        self.y = stream.y[t]
        self._counts = stream.grad_calls
        self._t = t

    @property
    def grad_calls(self) -> int:
        return int(self._counts[self._t])

    def grad(self, w) -> np.ndarray:
        self._counts[self._t] += 1
        g = (float(w.dot(self.x)) - self.y) * self.x
        if not np.logical_and.reduce(np.isfinite(g)):
            raise ContractViolation("gradient has non-finite entries")
        return g


class SquareLossStream(Sequence):
    """The square losses of a whole stream, held as arrays: row t of ``X`` and ``y`` is round t.

    A sized sequence of round oracles: ``stream[t]`` is the gradient oracle
    of round t's loss, a :class:`SquareLoss` on ``X[t]`` and ``y[t]`` built
    afresh on each access.  The stream keeps no per-round object: every
    round's gradient count lives in the ``(T,)`` integer array
    ``grad_calls``, so any ``stream[t]`` reads (and adds to) round t's count.
    :meth:`window_losses` evaluates every round's loss at once.
    """

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ContractViolation(
                f"need X of shape (T, d) and y of shape (T,), got {X.shape} and {y.shape}")
        self.X = X
        self.y = y
        self.grad_calls = np.zeros(X.shape[0], dtype=np.int64)

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, t: int) -> SquareLoss:
        return SquareLoss(self, t)

    def window_losses(self, decisions) -> np.ndarray:
        """f_t(w_t) = (w_t.x_t - y_t)^2 / 2 for every round t of a (T, d) array, in one pass."""
        w = np.asarray(decisions, dtype=float)
        if w.shape != self.X.shape:
            raise ContractViolation(f"expected an array of shape {self.X.shape}, got {w.shape}")
        return 0.5 * (np.einsum("td,td->t", w, self.X) - self.y) ** 2


def path_length(sequence) -> float:
    """Cumulative movement sum_{t>=2} ||v_t - v_{t-1}||_2 of a (T, d) sequence."""
    seq = np.asarray(sequence, dtype=float)
    if seq.shape[0] < 2:
        return 0.0
    moves = np.diff(seq, axis=0)
    moves *= moves  # np.linalg.norm(moves, axis=1)'s own arithmetic, without its two copies
    return float(np.sum(np.sqrt(np.add.reduce(moves, axis=1))))


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

    @property
    def overall_loss(self) -> float:
        return self.cumulative_loss + self.switching_cost


def regret_metrics(decisions, comparators, losses: SquareLossStream, lam: float) -> RegretReport:
    """Fill a :class:`RegretReport` for a finished run.

    ``decisions`` and ``comparators`` are (T, d) arrays; ``losses`` the run's
    stream.  The cumulative and comparator losses are one
    :meth:`SquareLossStream.window_losses` pass each, which checks each shape.
    """
    cumulative = float(np.sum(losses.window_losses(decisions)))
    comparator_cum = float(np.sum(losses.window_losses(comparators)))
    return RegretReport(
        cumulative_loss=cumulative,
        switching_cost=lam * path_length(decisions),
        dynamic_policy_regret=cumulative - comparator_cum,
        path_length=path_length(comparators),
    )
