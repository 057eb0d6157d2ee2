"""The multiplicative-weights (Hedge) step on the simplex, and the simplex check.

Hedge is online mirror descent with the negative-entropy regularizer; the
meta-expert engine in :mod:`scream.learners` runs it once per round.  The
Euclidean counterpart, projected gradient descent, is a one-line expert step
there.
"""

from __future__ import annotations

import numpy as np

from .oco import ContractViolation, as_vector


def hedge_step(weights, losses, rate: float) -> np.ndarray:
    """Multiplicative update p'_i proportional to p_i * exp(-rate * loss_i).

    The exponent is shifted by the smallest loss, so arbitrarily large loss
    scales (the movement-regularized surrogates can be huge) cannot underflow
    the whole weight vector: the shifted factors lie in (0, 1] and the minimal
    loss keeps factor one.  Equal losses leave the weights bit-for-bit
    unchanged, and zero weights stay exactly zero.
    """
    if not rate > 0:
        raise ContractViolation("step size must be positive")
    p = np.asarray(weights, dtype=float)
    ell = as_vector(losses, len(p))
    factors = np.exp(-rate * (ell - ell.min()))
    if np.all(factors == 1.0):
        return p
    w = p * factors
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise ContractViolation("hedge update produced a degenerate weight vector")
    if total != 1.0:
        w = w / total
    return w


def check_simplex(p, tol: float = 1e-12) -> bool:
    p = np.asarray(p, dtype=float)
    return bool(np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= tol)
