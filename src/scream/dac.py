"""Disturbance-action controllers and their reduction machinery.

A DAC policy with memory H plays u = -K x + sum_k M[k] w(lag k+1), i.e. a
linear map of the H most recent disturbances plus a certified stabilizing
offset controller.  Throughout this module a parameter set ``M`` is an array
of shape (H, d_u, d_x) whose block ``M[k]`` (0-based) multiplies the
disturbance ``k + 1`` steps back; the spectral cap of block ``k`` in the
feasible set is ``kappa_B * kappa^3 * (1 - gamma)^(k + 1)``.

States reached under a DAC history are linear in the parameters.  The
transfer-matrix expansion, the H-step truncated state/action/loss, and the
affine map of the unary truncated loss implemented here reduce the control
problem to online convex optimization with memory length H + 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lds import (LinearSystem, StabilityCertificate, Trajectory,
                  certify_strong_stability, closed_loop_rollout)
from .oco import ContractViolation


class ClosedLoop:
    """A system with its stabilizing controller; caches powers of A - B K."""

    def __init__(self, system: LinearSystem, K, certificate: StabilityCertificate | None = None):
        self.system = system
        self.K = np.asarray(K, dtype=float)
        if certificate is None:
            certificate = certify_strong_stability(system, self.K)
        if not certificate.accepted:
            raise ContractViolation(f"controller is not certified strongly stable: {certificate.reason}")
        self.certificate = certificate
        self.a_closed = system.A - system.B @ self.K
        self._powers = np.empty((0, system.d_x, system.d_x))
        self._powers_b = np.empty((0, system.d_x, system.d_u))

    @property
    def kappa(self) -> float:
        return self.certificate.kappa

    @property
    def gamma(self) -> float:
        return self.certificate.gamma

    def _grow(self, count: int) -> None:
        """Extend both stacks to ``count`` powers; they are kept read-only and handed out as slices."""
        have = self._powers.shape[0]
        if have >= count:
            return
        powers = np.empty((count,) + self._powers.shape[1:])
        powers[:have] = self._powers
        for j in range(have, count):
            powers[j] = self.a_closed @ powers[j - 1] if j else np.eye(powers.shape[1])
        powers_b = powers @ self.system.B
        powers.flags.writeable = powers_b.flags.writeable = False
        self._powers, self._powers_b = powers, powers_b

    def powers(self, count: int) -> np.ndarray:
        """Stack [I, A_K, A_K^2, ..., A_K^(count-1)] (a read-only view)."""
        self._grow(count)
        return self._powers[:count]

    def powers_times_b(self, count: int) -> np.ndarray:
        """Stack [B, A_K B, ..., A_K^(count-1) B] (a read-only view)."""
        self._grow(count)
        return self._powers_b[:count]


@dataclass(frozen=True)
class DacFeasibleSet:
    """Product of per-block spectral-norm balls with geometrically decaying caps."""

    caps: np.ndarray
    d_u: int
    d_x: int

    def __post_init__(self):
        caps = np.asarray(self.caps, dtype=float)
        if caps.ndim != 1 or caps.size < 1 or np.any(caps <= 0):
            raise ContractViolation("caps must be a vector of positive reals")
        object.__setattr__(self, "caps", caps)

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

    def _gram(self, M: np.ndarray):
        """Closed-form spectra of the blocks whose short side k = min(d_u, d_x) is 1 or 2.

        Returns (W, s1_sq, G, half, r), with W each block viewed with its short
        side as rows and s1_sq its squared largest singular value.  For k = 1,
        s1_sq is the squared row norm and the rest is None.  For k = 2 the Gram
        matrix G = W W^T = [[a, b], [b, c]] gives half = (a - c) / 2,
        r = hypot(half, b) and s1_sq = (a + c) / 2 + r.  Returns None where the
        SVD must serve: for k >= 3, and when some s1_sq is not finite (a
        non-finite block, or one whose square overflows).
        """
        if min(self.d_u, self.d_x) > 2:
            return None
        W = M if self.d_u <= self.d_x else np.swapaxes(M, -1, -2)
        if W.shape[-2] == 1:
            s1_sq, G, half, r = np.einsum("...ij,...ij->...", W, W), None, None, None
        else:
            G = W @ np.swapaxes(W, -1, -2)
            a, b, c = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
            half = 0.5 * (a - c)
            r = np.hypot(half, b)
            s1_sq = 0.5 * (a + c) + r
        if not np.isfinite(s1_sq).all():
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
        return bool(np.all(self.spectral_norms(M) <= self.caps + tol))

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
        s1 = np.sqrt(s1_sq)
        f1 = caps / np.maximum(s1, caps)  # cap / s1 where s1 > cap, exactly 1 elsewhere
        if G is None:
            return M * f1[..., None, None]
        a, b, c = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
        # dividing by max(s1, cap) keeps zero blocks finite; where s1 <= cap, s2 <= cap anyway
        s2 = np.sqrt(np.maximum(a * c - b * b, 0.0)) / np.maximum(s1, caps)
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


def dac_action(K, M, x, lags) -> np.ndarray:
    """u = -K x + sum_k M[k] @ lags[k], with lags[k] the disturbance k+1 steps back."""
    K = np.asarray(K, dtype=float)
    M = np.asarray(M, dtype=float)
    x = np.asarray(x, dtype=float)
    lags = np.asarray(lags, dtype=float)
    H = M.shape[0]
    if lags.shape[0] < H or lags.shape[1] != M.shape[2] or K.shape != (M.shape[1], x.shape[0]):
        raise ContractViolation("dimension mismatch in DAC action")
    return -K @ x + np.einsum("kux,kx->u", M, lags[:H])


def transfer_matrix(loop: ClosedLoop, i: int, h: int, M_seq) -> np.ndarray:
    """Linear map from the disturbance i steps back to the current state.

    ``M_seq`` holds the h + 1 parameter sets in play, oldest first.  The map is
    A_K^i (when i <= h) plus sum_j A_K^j B M_seq[-1-j][i-j-1] over the j with
    a valid block index.
    """
    M_seq = [np.asarray(M, dtype=float) for M in M_seq]
    if len(M_seq) != h + 1:
        raise ContractViolation(f"need h + 1 = {h + 1} parameter sets, got {len(M_seq)}")
    H = M_seq[0].shape[0]
    if not 0 <= i <= H + h:
        raise ContractViolation(f"transfer index i = {i} outside [0, H + h] = [0, {H + h}]")
    d_x = loop.system.d_x
    powers = loop.powers(h + 1)
    powers_b = loop.powers_times_b(h + 1)
    psi = powers[i].copy() if i <= h else np.zeros((d_x, d_x))
    for j in range(h + 1):
        k = i - j - 1
        if 0 <= k < H:
            psi += powers_b[j] @ M_seq[h - j][k]
    return psi


def state_via_transfer(loop: ClosedLoop, M_hist, disturbances) -> np.ndarray:
    """State after t rounds of the DAC history, from the transfer-matrix expansion.

    ``M_hist`` holds the t parameter sets used at rounds 0..t-1 (oldest first)
    and ``disturbances`` the t disturbances w_0..w_{t-1}; the start state is the
    origin.  Equals the state produced by direct simulation of the same policy.
    """
    M_hist = [np.asarray(M, dtype=float) for M in M_hist]
    w = np.asarray(disturbances, dtype=float)
    t = len(M_hist)
    if w.shape[0] != t:
        raise ContractViolation("need exactly one disturbance per round of history")
    if t == 0:
        return np.zeros(loop.system.d_x)
    H = M_hist[0].shape[0]
    x = np.zeros(loop.system.d_x)
    for i in range(H + t):
        s = t - 1 - i
        if s < 0:
            break  # disturbances before the start are zero
        x += transfer_matrix(loop, i, t - 1, M_hist) @ w[s]
    return x


def simulate_dac(system: LinearSystem, K, M_seq, disturbances, x0=None, costs=None) -> Trajectory:
    """Roll the closed loop forward under a (possibly time-varying) DAC policy.

    ``M_seq`` is either one parameter set used every round or a length-T
    sequence; the action at each round uses the actual past disturbances.  The
    offsets sum_k M_t[k] w_(t-1-k) come from one einsum over :func:`lag_table`,
    and the rollout is one closed-loop scan.
    """
    w = np.asarray(disturbances, dtype=float)
    M_seq = np.asarray(M_seq, dtype=float)
    T = w.shape[0] if w.ndim == 2 else -1
    shapes_ok = (w.ndim == 2 and w.shape[1] == system.d_x and M_seq.ndim in (3, 4)
                 and M_seq.shape[-2:] == (system.d_u, system.d_x)
                 and (M_seq.ndim == 3 or M_seq.shape[0] == T))
    if not shapes_ok:
        raise ContractViolation(f"dimension mismatch in DAC rollout: M_seq {M_seq.shape}, "
                                f"disturbances {w.shape}")
    spec = "kux,tkx->tu" if M_seq.ndim == 3 else "tkux,tkx->tu"
    offsets = np.einsum(spec, M_seq, lag_table(w, M_seq.shape[-3]))
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


def _lag_table(lags: np.ndarray, H: int) -> np.ndarray:
    """Table[..., j, k, :] = lags[..., 1 + j + k, :] for j = 0..H, k = 0..H-1 (2H + 1 lags)."""
    idx = 1 + np.arange(H + 1)[:, None] + np.arange(H)[None, :]
    return lags[..., idx, :]


def truncated_state(loop: ClosedLoop, M_hist, lags) -> np.ndarray:
    """H-step truncated state: the transfer expansion cut at the window shown.

    ``M_hist`` holds the H + 1 parameter sets of rounds t-1-H..t-1 (oldest
    first); ``lags[i]`` is the disturbance i + 1 steps back (2H + 1 of them).
    """
    M_hist = np.asarray(M_hist, dtype=float)
    lags = np.asarray(lags, dtype=float)
    H = M_hist.shape[1]
    if M_hist.shape[0] != H + 1:
        raise ContractViolation(f"need H + 1 = {H + 1} parameter sets, got {M_hist.shape[0]}")
    if lags.shape[0] < 2 * H + 1:
        raise ContractViolation(f"need 2H + 1 = {2 * H + 1} lagged disturbances")
    powers = loop.powers(H + 1)
    powers_b = loop.powers_times_b(H + 1)
    y = np.einsum("jxz,jz->x", powers, lags[: H + 1])
    # M_hist[H - j] is the parameter set j rounds back
    m_rev = M_hist[::-1]
    y += np.einsum("jxu,jkuz,jkz->x", powers_b, m_rev, _lag_table(lags, H))
    return y


def truncated_loss(cost, loop: ClosedLoop, window, lags):
    """Evaluate the truncated loss on a window of H + 2 parameter sets (oldest first).

    The truncated state uses the H + 1 older sets, the truncated action
    v = -K y + sum_k M_newest[k] lags[k] adds the newest one; returns (value, y, v).
    """
    window = np.asarray(window, dtype=float)
    H = window.shape[1]
    if window.shape[0] != H + 2:
        raise ContractViolation(f"window must hold exactly H + 2 = {H + 2} parameter sets")
    y = truncated_state(loop, window[:-1], lags)
    v = dac_action(loop.K, window[-1], y, lags)
    return float(cost.value(y, v)), y, v


def unary_truncated_eval(cost, loop: ClosedLoop, M, lags):
    """Truncated loss with every window entry equal to ``M``; returns (value, y, v)."""
    M = np.asarray(M, dtype=float)
    H = M.shape[0]
    window = np.broadcast_to(M, (H + 2,) + M.shape)
    return truncated_loss(cost, loop, window, lags)


def unary_truncated_map(loop: ClosedLoop, lags, H: int):
    """The unary truncated state and action as affine maps of m = M.ravel().

    ``lags`` has shape (..., 2H + 1, d_x): one round's lags or a stack of
    rounds.  Returns (y0, L, D) of shapes (..., d_x), (..., d_x, P) and
    (..., d_u, P) with P = H d_u d_x, such that the truncated state is
    y = y0 + L m and the truncated action is v = -K y + D m.
    """
    lags = np.asarray(lags, dtype=float)
    if lags.shape[-2] < 2 * H + 1:
        raise ContractViolation(f"need 2H + 1 = {2 * H + 1} lagged disturbances")
    batch, d_x, d_u = lags.shape[:-2], loop.system.d_x, loop.system.d_u
    P = H * d_u * d_x
    y0 = np.einsum("jxz,...jz->...x", loop.powers(H + 1), lags[..., : H + 1, :])
    L = np.einsum("jxu,...jkz->...xkuz", loop.powers_times_b(H + 1), _lag_table(lags, H))
    D = np.einsum("vu,...kz->...vkuz", np.eye(d_u), lags[..., :H, :])
    return y0, L.reshape(batch + (d_x, P)), D.reshape(batch + (d_u, P))


def unary_truncated_gradient(cost, loop: ClosedLoop, M, lags) -> np.ndarray:
    """Analytic gradient of the unary truncated loss with respect to ``M``.

    With y = y0 + L m and v = -K y + D m (:func:`unary_truncated_map`) the
    chain rule gives L^T (g_y - K^T g_v) + D^T g_v from the cost gradients
    at (y, v).
    """
    M = np.asarray(M, dtype=float)
    y0, L, D = unary_truncated_map(loop, lags, M.shape[0])
    y = y0 + L @ M.ravel()
    v = D @ M.ravel() - loop.K @ y
    g_y = np.asarray(cost.grad_x(y, v), dtype=float)
    g_v = np.asarray(cost.grad_u(y, v), dtype=float)
    return (L.T @ (g_y - loop.K.T @ g_v) + D.T @ g_v).reshape(M.shape)


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
    """c(x, u) = ||x - target||^2 + control_weight * ||u||^2, with analytic gradients."""

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

    def grad_x(self, x, u) -> np.ndarray:
        self.grad_calls += 1
        return 2.0 * (np.asarray(x, dtype=float) - self.target)

    def grad_u(self, x, u) -> np.ndarray:
        return 2.0 * self.control_weight * np.asarray(u, dtype=float)


def tracking_grad_coeff(state_bound: float, target_bound: float, control_weight: float = 0.1) -> float:
    """Smallest G_c with ||grad_x c||, ||grad_u c|| <= G_c * D whenever ||x||, ||u|| <= D."""
    return max(2.0 * (state_bound + target_bound) / state_bound, 2.0 * control_weight)
