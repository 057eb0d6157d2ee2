"""Linear dynamical systems: simulation, disturbance generators, stability certificates.

State evolution is x' = A x + B u + w with an adversarially generated, norm-bounded
disturbance w.  Disturbances are exactly recoverable from observed transitions
when the dynamics matrices are known, which the controllers rely on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .oco import ContractViolation, clip_to_ball


@dataclass(frozen=True)
class LinearSystem:
    """Dynamics pair (A, B).

    ``kappa_B`` is derived, not set: the operator norm of B, floored at 1e-12.
    """

    A: np.ndarray
    B: np.ndarray
    kappa_B: float = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ContractViolation("A must be square")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ContractViolation("B must have the same number of rows as A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "kappa_B", max(float(np.linalg.norm(B, 2)), 1e-12))

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_u(self) -> int:
        return self.B.shape[1]


def closed_loop_rollout(system: LinearSystem, K, offsets, disturbances,
                        x0=None) -> tuple[np.ndarray, np.ndarray]:
    """Every round of x' = A x + B u + w under u = -K x + offsets[t], at once.

    The recursion is x_{t+1} = (A - B K) x_t + (B offsets_t + w_t), a linear
    scan solved by doubling: after the pass with shift s, row t holds the sum
    of P^j c_{t-j} over j < 2s, so ceil(log2(T + 1)) passes of
    ``y[s:] += y[:-s] @ P.T`` (P squared after each) finish it.  The scan stops
    early once P is exactly zero, since adding zero changes nothing.  Returns
    (states (T + 1, d_x), actions (T, d_u)).
    """
    K = np.asarray(K, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    w = np.asarray(disturbances, dtype=float)
    x0 = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
    T = w.shape[0] if w.ndim == 2 else -1
    if (K.shape != (system.d_u, system.d_x) or w.shape != (T, system.d_x)
            or offsets.shape != (T, system.d_u) or x0.shape != (system.d_x,)):
        raise ContractViolation("dimension mismatch in closed-loop rollout")
    # transposes are copied: a product with a transposed view takes a much slower matmul path
    states = np.empty((T + 1, system.d_x))
    states[0] = x0
    states[1:] = offsets @ np.ascontiguousarray(system.B.T) + w
    power_t = np.ascontiguousarray((system.A - system.B @ K).T)  # P.T; (P^2).T = P.T P.T
    shift = 1
    while shift <= T and np.any(power_t):
        states[shift:] += states[:-shift] @ power_t
        power_t = power_t @ power_t
        shift *= 2
    return states, offsets - states[:-1] @ np.ascontiguousarray(K.T)


@dataclass(frozen=True)
class StabilityCertificate:
    """Contraction and norm bounds of a similarity transform A - B K = H L H^{-1}.

    ``accepted`` is False either because a declared bound fails or because the
    closed-loop matrix could not be reliably diagonalized; ``reason`` says which.
    """

    accepted: bool
    kappa: float
    gamma: float
    reason: str = ""


def certify_strong_stability(system: LinearSystem, K, kappa: float | None = None,
                             gamma: float | None = None) -> StabilityCertificate:
    """Certify K through an eigendecomposition of A - B K.

    With L the diagonal eigenvalue matrix and H the (column-normalized)
    eigenvector matrix, acceptance requires ||L|| <= 1 - gamma and
    max(||K||, ||H||, ||H^{-1}||) <= kappa.  When kappa/gamma are omitted the
    measured values are certified.  A defective closed loop yields an explicit
    rejection instead of an exception.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (system.d_u, system.d_x):
        raise ContractViolation("K must be d_u x d_x")
    closed = system.A - system.B @ K
    eigvals, eigvecs = np.linalg.eig(closed)
    eigvecs = eigvecs / np.linalg.norm(eigvecs, axis=0, keepdims=True)
    cond = float(np.linalg.cond(eigvecs))
    if not np.isfinite(cond) or cond > 1e12:
        return StabilityCertificate(False, float("nan"), float("nan"),
                                    reason="closed loop is not reliably diagonalizable")
    rebuilt = eigvecs @ np.diag(eigvals) @ np.linalg.inv(eigvecs)
    if np.max(np.abs(rebuilt - closed)) > 1e-8:
        return StabilityCertificate(False, float("nan"), float("nan"),
                                    reason="eigendecomposition does not reconstruct the closed loop")

    rho = float(np.max(np.abs(eigvals)))
    measured_kappa = max(float(np.linalg.norm(K, 2)),
                         float(np.linalg.norm(eigvecs, 2)),
                         float(np.linalg.norm(np.linalg.inv(eigvecs), 2)))
    measured_gamma = 1.0 - rho
    kappa = measured_kappa if kappa is None else float(kappa)
    gamma = measured_gamma if gamma is None else float(gamma)
    if gamma <= 0 or gamma >= 1:
        return StabilityCertificate(False, kappa, gamma,
                                    reason=f"spectral radius {rho:.6g} leaves no contraction margin")
    if rho > 1 - gamma + 1e-12:
        return StabilityCertificate(False, kappa, gamma,
                                    reason=f"||L|| = {rho:.6g} exceeds 1 - gamma = {1 - gamma:.6g}")
    if measured_kappa > kappa + 1e-12:
        return StabilityCertificate(False, kappa, gamma,
                                    reason=f"norm bound {measured_kappa:.6g} exceeds kappa = {kappa:.6g}")
    return StabilityCertificate(True, kappa, gamma)


_KINDS = ("constant", "gaussian-clipped", "sinusoidal", "piecewise-step", "adversarial-sign")


@dataclass(frozen=True)
class DisturbanceGenerator:
    """Seeded disturbance source; every emitted vector lies in the W-ball (l2 clip)."""

    kind: str
    dim: int
    amplitude: float
    seed: int = 0
    period: int = 50

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractViolation(f"unknown disturbance kind {self.kind!r}; pick one of {_KINDS}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ContractViolation(f"amplitude must be finite and non-negative, got {self.amplitude}")
        if not (isinstance(self.period, numbers.Integral) and self.period >= 1):
            raise ContractViolation(f"period must be an integer of at least 1, got {self.period!r}")

    def sequence(self, T: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.kind == "constant":
            direction = rng.standard_normal(self.dim)
            direction /= max(np.linalg.norm(direction), 1e-12)
            out = np.tile(self.amplitude * direction, (T, 1))
        elif self.kind == "gaussian-clipped":
            out = rng.standard_normal((T, self.dim)) * self.amplitude / np.sqrt(self.dim)
        elif self.kind == "sinusoidal":
            phases = rng.uniform(0, 2 * np.pi, self.dim)
            t = np.arange(T)[:, None]
            out = self.amplitude / np.sqrt(self.dim) * np.sin(2 * np.pi * t / self.period + phases)
        elif self.kind == "piecewise-step":
            n_seg = max(1, T // self.period + 1)
            levels = rng.uniform(-1, 1, (n_seg, self.dim))
            levels *= self.amplitude / np.maximum(np.linalg.norm(levels, axis=1, keepdims=True), 1e-12)
            out = levels[np.arange(T) // self.period]
        else:  # adversarial-sign
            signs = rng.choice([-1.0, 1.0], size=(T, self.dim))
            out = signs * self.amplitude / np.sqrt(self.dim)
        return clip_to_ball(out, self.amplitude)


@dataclass
class Trajectory:
    """Closed-loop record: states, actions, disturbances and per-round costs."""

    states: np.ndarray        # (T + 1, d_x)
    actions: np.ndarray       # (T, d_u)
    disturbances: np.ndarray  # (T, d_x)
    costs: np.ndarray         # (T,)

    @property
    def T(self) -> int:
        return self.actions.shape[0]


def random_stable_system(d_x: int, d_u: int, spectral_radius: float, seed: int,
                         normal: bool = False) -> LinearSystem:
    """Random diagonalizable A scaled to the requested spectral radius; B rescaled to unit norm.

    With ``normal=True`` the A matrix is symmetric, so its eigenvector basis is
    orthonormal and the zero controller certifies with kappa = 1.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d_x, d_x))
    if normal:
        raw = (raw + raw.T) / 2.0
    rho = float(np.max(np.abs(np.linalg.eigvals(raw))))
    A = raw * (spectral_radius / max(rho, 1e-12))
    B = rng.uniform(-1, 1, (d_x, d_u))
    B = B / max(float(np.linalg.norm(B, 2)), 1e-12)
    return LinearSystem(A, B)


@dataclass(frozen=True)
class SystemPreset:
    """Named benchmark system with a certified stabilizing controller."""

    name: str
    system: LinearSystem
    K: np.ndarray
    certificate: StabilityCertificate
    disturbance: DisturbanceGenerator


_PRESET_BUILDERS = {}


def _register(name):
    def deco(fn):
        _PRESET_BUILDERS[name] = fn
        return fn
    return deco


@_register("mild-3x2")
def _mild_3x2(seed: int = 0) -> SystemPreset:
    # symmetric A (orthonormal eigenbasis, kappa = 1) with comfortable contraction
    system = random_stable_system(3, 2, spectral_radius=0.6, seed=seed, normal=True)
    K = np.zeros((2, 3))
    cert = certify_strong_stability(system, K, kappa=1.0, gamma=0.4)
    gen = DisturbanceGenerator("sinusoidal", 3, amplitude=0.5, seed=seed + 1, period=40)
    return SystemPreset("mild-3x2", system, K, cert, gen)


@_register("spin-3x2")
def _spin_3x2(seed: int = 0) -> SystemPreset:
    # generic (non-normal) stable A at spectral radius 0.9; certificate derived
    system = random_stable_system(3, 2, spectral_radius=0.9, seed=seed)
    K = np.zeros((2, 3))
    cert = certify_strong_stability(system, K)
    gen = DisturbanceGenerator("gaussian-clipped", 3, amplitude=0.5, seed=seed + 1)
    return SystemPreset("spin-3x2", system, K, cert, gen)


@_register("scaling-3x1")
def _scaling_3x1(seed: int = 0) -> SystemPreset:
    # single-input plant: the worst-case tuning constants are tight here, so the
    # horizon-tuned learner is actually responsive at desk scale
    system = random_stable_system(3, 1, spectral_radius=0.55, seed=seed + 7, normal=True)
    K = np.zeros((1, 3))
    cert = certify_strong_stability(system, K, kappa=1.0, gamma=0.45)
    gen = DisturbanceGenerator("piecewise-step", 3, amplitude=0.6, seed=seed + 1, period=50)
    return SystemPreset("scaling-3x1", system, K, cert, gen)


@_register("sysid-3x2")
def _sysid_3x2(seed: int = 0) -> SystemPreset:
    rng = np.random.default_rng(seed + 17)
    A = np.array([[0.6, 0.1, 0.0],
                  [0.0, 0.5, 0.1],
                  [0.1, 0.0, 0.4]])
    B = rng.uniform(-1, 1, (3, 2))
    B = B / max(float(np.linalg.norm(B, 2)), 1e-12)
    system = LinearSystem(A, B)
    K = np.zeros((2, 3))
    cert = certify_strong_stability(system, K)
    gen = DisturbanceGenerator("gaussian-clipped", 3, amplitude=0.1, seed=seed + 2)
    return SystemPreset("sysid-3x2", system, K, cert, gen)


def check_preset(name: str) -> None:
    """Raise :class:`ContractViolation` unless ``name`` is a registered preset."""
    if name not in _PRESET_BUILDERS:
        raise ContractViolation(f"unknown system preset {name!r}; available: {preset_names()}")


def preset(name: str, seed: int = 0) -> SystemPreset:
    check_preset(name)
    return _PRESET_BUILDERS[name](seed)


def preset_names() -> list[str]:
    return sorted(_PRESET_BUILDERS)
