"""Disturbance-action controllers and their reduction machinery.

A DAC policy with memory H plays u = -K x + sum_k M[k] w(lag k+1), i.e. a
linear map of the H most recent disturbances plus a certified stabilizing
offset controller.  Throughout this module a parameter set ``M`` is an array
of shape (H, d_u, d_x) whose block ``M[k]`` (0-based) multiplies the
disturbance ``k + 1`` steps back; the spectral cap of block ``k`` in the
feasible set is ``kappa_B * kappa^3 * (1 - gamma)^(k + 1)``.

States reached under a DAC history are linear in the parameters.  The affine
map and the gradient of the unary truncated loss here reduce the control problem
to OCO with memory length H + 2; :mod:`scream.verify` holds the window form
and the DAC action it plays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lds import (LinearSystem, StabilityCertificate, Trajectory,
                  certify_strong_stability, closed_loop_rollout)
from .oco import ContractViolation


class ClosedLoop:
    """A system with its stabilizing controller and one cached table of powers of A_K = A - B K."""

    def __init__(self, system: LinearSystem, K, certificate: StabilityCertificate | None = None):
        self.system = system
        self.K = np.asarray(K, dtype=float)
        if certificate is None:
            certificate = certify_strong_stability(system, self.K)
        if not certificate.accepted:
            raise ContractViolation(f"controller is not certified strongly stable: {certificate.reason}")
        self.certificate = certificate
        self.a_closed = system.A - system.B @ self.K
        self._flat = {}

    @property
    def kappa(self) -> float:
        return self.certificate.kappa

    @property
    def gamma(self) -> float:
        return self.certificate.gamma

    def flat_powers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """[I, A_K, ..., A_K^(count-1)] and [B, A_K B, ..., A_K^(count-1) B] side by side.

        Read-only (d_x, count d_x) and (d_x, count d_u) arrays whose column
        block j is A_K^j and A_K^j B, so the first maps the stacked vector
        [z_0; ...; z_(count-1)] to sum_j A_K^j z_j.  ``flat.reshape(d_x, count,
        -1).swapaxes(0, 1)`` is the stack of blocks.  Built once per ``count``.
        """
        flat = self._flat.get(count)
        if flat is None:
            d_x = self.system.d_x
            powers = np.empty((count, d_x, d_x))
            for j in range(count):
                powers[j] = self.a_closed @ powers[j - 1] if j else np.eye(d_x)
            flat = tuple(np.ascontiguousarray(np.swapaxes(stack, 0, 1)).reshape(d_x, -1)
                         for stack in (powers, powers @ self.system.B))
            for array in flat:
                array.flags.writeable = False
            self._flat[count] = flat
        return flat


@dataclass(frozen=True)
class DacFeasibleSet:
    """Product of per-block spectral-norm balls with geometrically decaying caps."""

    caps: np.ndarray
    d_u: int
    d_x: int

    def __post_init__(self):
        caps = np.asarray(self.caps, dtype=float)
        if caps.ndim != 1 or caps.size < 1 or not (np.isfinite(caps).all() and (caps > 0).all()):
            raise ContractViolation("caps must be a vector of finite positive reals")
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_closed_form_limit", np.minimum(caps, 2.0 ** 230) ** 2 * 2.0 ** 40)

    @classmethod
    def from_certificate(cls, kappa: float, gamma: float, kappa_B: float,
                         H: int, d_u: int, d_x: int) -> "DacFeasibleSet":
        if H < 1:
            raise ContractViolation("need at least one DAC block")
        k = np.arange(1, H + 1)
        return cls(kappa_B * kappa ** 3 * (1 - gamma) ** k, d_u, d_x)

    @property
    def H(self) -> int:
        return self.caps.size

    def zeros(self) -> np.ndarray:
        return np.zeros((self.H, self.d_u, self.d_x))

    def _check_shape(self, M: np.ndarray):
        if M.shape[-3:] != (self.H, self.d_u, self.d_x):
            raise ContractViolation(
                f"expected trailing shape {(self.H, self.d_u, self.d_x)}, got {M.shape}")

    @np.errstate(over="ignore", invalid="ignore")  # an overflow or NaN fails the finite check below
    def _gram(self, M: np.ndarray):
        """Closed-form spectra of the blocks whose short side k = min(d_u, d_x) is 1 or 2.

        Returns (W, s1_sq, G, half, r), with W each block viewed with its short
        side as rows and s1_sq its squared largest singular value.  For k = 1,
        s1_sq is the squared row norm and the rest is None.  For k = 2 the Gram
        matrix G = W W^T = [[a, b], [b, c]] gives half = (a - c) / 2,
        r = hypot(half, b) and s1_sq = (a + c) / 2 + r.  Returns None where the
        SVD must serve: for k >= 3, and when some s1_sq is not finite (a
        non-finite block, or one whose square overflows) or passes (2^20 cap)^2
        or 2^500, past which rounding swamps the k = 2 factor cap / s1 or a c overflows.
        """
        if min(self.d_u, self.d_x) > 2:
            return None
        W = M if self.d_u <= self.d_x else M.swapaxes(-1, -2)
        if W.shape[-2] == 1:
            s1_sq, G, half, r = np.einsum("...ij,...ij->...", W, W), None, None, None
        else:
            # a product with a transposed view takes numpy's much slower matmul path
            G = W @ np.ascontiguousarray(W.swapaxes(-1, -2))
            a, b, c = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
            half = 0.5 * (a - c)
            r = np.hypot(half, b)
            s1_sq = 0.5 * (a + c) + r
        if not (s1_sq <= self._closed_form_limit).all():  # NaN fails too
            return None
        return W, s1_sq, G, half, r

    def spectral_norms(self, M) -> np.ndarray:
        """Largest singular value of every block; NaN for a block with a non-finite entry.

        Blocks with a short side of 1 or 2 take the closed form of
        :meth:`_gram`, others a batched SVD.
        """
        M = np.asarray(M, dtype=float)
        self._check_shape(M)
        gram = self._gram(M)
        if gram is not None:
            return np.sqrt(gram[1])
        finite = np.isfinite(M).all(axis=(-2, -1))
        norms = np.full(finite.shape, np.nan)
        norms[finite] = np.linalg.svd(M[finite], compute_uv=False)[..., 0]
        return norms

    def contains(self, M, tol: float = 1e-9) -> bool:
        """Every block's spectral norm within its cap plus ``tol``; False for a non-finite block."""
        return bool((self.spectral_norms(M) <= self.caps + tol).all())

    def project(self, M) -> np.ndarray:
        """Frobenius projection: clip each block's singular values at its cap.

        Blocks are independent, so the projection decomposes per block; leading
        batch dimensions (e.g. one parameter set per expert) are supported.
        A block with a short side of 1 is rescaled.  A block with a short side
        of 2 is multiplied by P = f2 I + (f1 - f2) u1 u1^T, where u1 u1^T =
        [[r + half, b], [b, r - half]] / (2 r) projects onto the leading left
        singular vector (0 when r = 0), f_i = cap / s_i where s_i > cap and
        exactly 1 elsewhere, and s2 = sqrt(max(ac - b^2, 0)) / s1.  Larger
        blocks take a batched SVD.  A block with a non-finite entry raises
        :class:`ContractViolation`.
        """
        M = np.asarray(M, dtype=float)
        self._check_shape(M)
        gram = self._gram(M)
        if gram is None:
            if not np.isfinite(M).all():
                raise ContractViolation("cannot project a DAC parameter set with non-finite entries")
            u, s, vt = np.linalg.svd(M, full_matrices=False)
            clipped = np.minimum(s, self.caps[..., :, None])
            return np.einsum("...ij,...j,...jk->...ik", u, clipped, vt)
        W, s1_sq, G, half, r = gram
        caps = self.caps
        top = np.maximum(np.sqrt(s1_sq), caps)
        f1 = caps / top  # cap / s1 where s1 > cap, exactly 1 elsewhere
        if G is None:
            return M * f1[..., None, None]
        a, b, c = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
        # dividing by max(s1, cap) keeps zero blocks finite; where s1 <= cap, s2 <= cap anyway
        s2 = np.sqrt(np.maximum(a * c - b * b, 0.0)) / top
        f2 = caps / np.maximum(s2, caps)
        g = (f1 - f2) / (2.0 * np.where(r > 0, r, 1.0))  # r = 0 makes r ± half and b all 0
        P = np.empty(G.shape)
        P[..., 0, 0] = f2 + g * (r + half)
        P[..., 1, 1] = f2 + g * (r - half)
        P[..., 0, 1] = P[..., 1, 0] = g * b
        return P @ M if W is M else M @ P  # short columns: (P W)^T = M P, as P is symmetric

    def random_point(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        """A random feasible parameter set (uniform block directions, scaled caps)."""
        raw = rng.standard_normal((self.H, self.d_u, self.d_x))
        levels = rng.uniform(0, scale, self.H) * self.caps
        return raw * (levels / np.maximum(self.spectral_norms(raw), 1e-12))[:, None, None]


def simulate_dac(system: LinearSystem, K, M_seq, disturbances, x0=None, costs=None) -> Trajectory:
    """Roll the closed loop forward under a time-varying DAC policy.

    ``M_seq`` holds one parameter set per round, shape (T, H, d_u, d_x); a
    fixed policy is ``np.broadcast_to(M, (T,) + M.shape)``.  The action at
    each round uses the actual past disturbances.  The offsets
    sum_k M_t[k] w_(t-1-k) come from one einsum over :func:`lag_table`, and
    the rollout is one closed-loop scan.
    """
    w = np.asarray(disturbances, dtype=float)
    M_seq = np.asarray(M_seq, dtype=float)
    T = w.shape[0] if w.ndim == 2 else -1
    if not (w.ndim == 2 and w.shape[1] == system.d_x and M_seq.ndim == 4
            and M_seq.shape[0] == T and M_seq.shape[2:] == (system.d_u, system.d_x)):
        raise ContractViolation(f"dimension mismatch in DAC rollout: M_seq {M_seq.shape}, "
                                f"disturbances {w.shape}")
    offsets = np.einsum("tkux,tkx->tu", M_seq, lag_table(w, M_seq.shape[1]))
    states, actions = closed_loop_rollout(system, K, offsets, w, x0=x0)
    values = np.zeros(T)
    if costs is not None:
        values[:] = [costs[t].value(states[t], actions[t]) for t in range(T)]
    return Trajectory(states, actions, w, values)


def lag_table(disturbances, count: int) -> np.ndarray:
    """Every round's lags of a (T, d) disturbance record: ``table[t, i] = w[t - 1 - i]``.

    Shape (T, count, d); disturbances before the start are zero.
    """
    w = np.asarray(disturbances, dtype=float)
    T, d = w.shape
    padded = np.concatenate([np.zeros((count, d)), w])
    return padded[count - 1 + np.arange(T)[:, None] - np.arange(count)[None, :]]


@functools.cache
def _lag_index(H: int) -> np.ndarray:
    """The read-only (H + 1, H) index array 1 + j + k of :func:`_lag_table`."""
    idx = 1 + np.arange(H + 1)[:, None] + np.arange(H)[None, :]
    idx.flags.writeable = False
    return idx


def _lag_table(lags: np.ndarray, H: int) -> np.ndarray:
    """Table[..., j, k, :] = lags[..., 1 + j + k, :] for j = 0..H, k = 0..H-1.

    The one check that ``lags`` holds 2H + 1 rounds: fewer raise :class:`ContractViolation`.
    """
    if lags.shape[-2] < 2 * H + 1:
        raise ContractViolation(f"need 2H + 1 = {2 * H + 1} lagged disturbances")
    return lags[..., _lag_index(H), :]


def unary_truncated_map(loop: ClosedLoop, lags, H: int):
    """The unary truncated state and action as affine maps of m = M.ravel().

    ``lags`` has shape (..., 2H + 1, d_x): one round's lags or a stack of
    rounds.  Returns (y0, L, D) of shapes (..., d_x), (..., d_x, P) and
    (..., d_u, P) with P = H d_u d_x, such that the truncated state is
    y = y0 + L m and the truncated action is v = -K y + D m.
    """
    lags = np.asarray(lags, dtype=float)
    d_x, d_u = loop.system.d_x, loop.system.d_u
    powers, powers_b = (np.ascontiguousarray(flat.reshape(d_x, H + 1, -1).swapaxes(0, 1))
                        for flat in loop.flat_powers(H + 1))
    # the lag table checks the lag count first, and is freed before y0 and D are built
    L = np.einsum("jxu,...jkz->...xkuz", powers_b, _lag_table(lags, H))
    batch, P = lags.shape[:-2], H * d_u * d_x
    y0 = np.einsum("jxz,...jz->...x", powers, lags[..., : H + 1, :])
    D = np.einsum("vu,...kz->...vkuz", np.eye(d_u), lags[..., :H, :])
    return y0, L.reshape(batch + (d_x, P)), D.reshape(batch + (d_u, P))


def unary_truncated_gradient(cost, loop: ClosedLoop, M, lags) -> np.ndarray:
    """Analytic gradient of the unary truncated loss with respect to ``M``.

    With y = y0 + L m and v = -K y + D m (:func:`unary_truncated_map`) the
    chain rule gives L^T (g_y - K^T g_v) + D^T g_v from the cost gradients
    at (y, v).  L and D are never built.  With the lag table
    ``table[j, k] = lags[1 + j + k]``, y = sum_j A_K^j lags[j] +
    sum_j A_K^j B sum_k M[k] table[j, k] and D m = sum_k M[k] lags[k]; the
    transposed products contract the back-propagated gradient with the same
    table.  The powers come side by side from :meth:`ClosedLoop.flat_powers`.
    """
    M = np.asarray(M, dtype=float)
    lags = np.asarray(lags, dtype=float)
    return _truncated_gradient(cost, loop, M, lags, np.einsum("kuz,kz->u", M, lags[: M.shape[0]]))


def _truncated_gradient(cost, loop: ClosedLoop, M: np.ndarray, lags: np.ndarray,
                        offset: np.ndarray) -> np.ndarray:
    """:func:`unary_truncated_gradient` of float arrays, given the DAC offset sum_k M[k] lags[k].

    The control round has already computed that offset for its action.
    """
    H = M.shape[0]
    table = _lag_table(lags, H)
    powers, powers_b = loop.flat_powers(H + 1)
    y = powers @ lags[: H + 1].ravel() + powers_b @ np.einsum("kuz,jkz->ju", M, table).ravel()
    v = offset - loop.K @ y
    g_y, g_v = cost.grad(y, v)
    back = ((g_y - loop.K.T @ g_v) @ powers_b).reshape(H + 1, -1)  # row j: (A_K^j B)^T (...)
    return np.einsum("ju,jkz->kuz", back, table) + g_v[:, None] * lags[:H, None, :]


@dataclass(frozen=True)
class LipschitzConstants:
    """Structural constants of the truncated-loss reduction.

    ``state_bound`` caps every reachable state/action norm under feasible play;
    ``coord_lipschitz`` (per window coordinate), ``grad_bound`` and ``diameter``
    transfer the OCO-with-memory tuning formulas to parameter space; ``lam``
    is the induced movement penalty (H + 2)^2 * coord_lipschitz.
    """

    kappa: float
    gamma: float
    kappa_B: float
    w_bound: float
    grad_coeff: float
    H: int
    d_u: int
    d_x: int
    tau: float
    state_bound: float
    coord_lipschitz: float
    grad_bound: float
    diameter: float
    lam: float


def state_action_bound(kappa: float, gamma: float, kappa_B: float, w_bound: float, H: int) -> float:
    """Worst-case norm of states and actions reached under feasible DAC play.

    Requires kappa^2 (1 - gamma)^(H+1) < 1 so the underlying geometric series
    converges; raises otherwise.
    """
    if H < 1:
        raise ContractViolation("need H >= 1")
    if not (0 < gamma < 1) or kappa <= 0 or kappa_B <= 0 or w_bound < 0:
        raise ContractViolation("constants out of range")
    decay = kappa ** 2 * (1 - gamma) ** (H + 1)
    if decay >= 1:
        raise ContractViolation(
            f"kappa^2 (1-gamma)^(H+1) = {decay:.6g} >= 1; increase H or the contraction margin")
    tau = kappa_B * kappa ** 3
    return (w_bound * kappa ** 3 * (1 + H * kappa_B * tau) / (gamma * (1 - decay))
            + w_bound * tau / gamma)


def lipschitz_constants(kappa: float, gamma: float, kappa_B: float, w_bound: float,
                        grad_coeff: float, H: int, d_u: int, d_x: int) -> LipschitzConstants:
    """Evaluate the closed-form constants of the truncated reduction."""
    if grad_coeff <= 0:
        raise ContractViolation("the cost gradient coefficient must be positive")
    tau = kappa_B * kappa ** 3
    state_bound = state_action_bound(kappa, gamma, kappa_B, w_bound, H)
    coord_lipschitz = 3 * math.sqrt(H) * grad_coeff * state_bound * w_bound * kappa_B * kappa ** 3
    d = min(d_u, d_x)
    grad_bound = 3 * H * d ** 2 * grad_coeff * w_bound * kappa_B * kappa ** 3 / gamma
    diameter = 2 * math.sqrt(d) * kappa_B * kappa ** 3 / gamma
    lam = (H + 2) ** 2 * coord_lipschitz
    return LipschitzConstants(kappa, gamma, kappa_B, w_bound, grad_coeff, H, d_u, d_x,
                              tau, state_bound, coord_lipschitz, grad_bound, diameter, lam)


class QuadraticTrackingCost:
    """c(x, u) = ||x - target||^2 + control_weight * ||u||^2; ``grad`` gives (grad_x c, grad_u c)."""

    def __init__(self, target, control_weight: float = 0.1):
        self.target = np.asarray(target, dtype=float)
        self.control_weight = float(control_weight)
        self.value_calls = 0
        self.grad_calls = 0

    def value(self, x, u) -> float:
        self.value_calls += 1
        dx = np.asarray(x, dtype=float) - self.target
        u = np.asarray(u, dtype=float)
        return float(dx @ dx + self.control_weight * (u @ u))

    def grad(self, x, u) -> tuple[np.ndarray, np.ndarray]:
        self.grad_calls += 1
        return (2.0 * (np.asarray(x, dtype=float) - self.target),
                2.0 * self.control_weight * np.asarray(u, dtype=float))


def tracking_grad_coeff(state_bound: float, target_bound: float, control_weight: float = 0.1) -> float:
    """Smallest G_c with ||grad_x c||, ||grad_u c|| <= G_c * D whenever ||x||, ||u|| <= D."""
    if not state_bound > 0:
        raise ContractViolation(f"state bound must be positive, got {state_bound}")
    return max(2.0 * (state_bound + target_bound) / state_bound, 2.0 * control_weight)
