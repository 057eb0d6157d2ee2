"""System identification via random sign inputs, and the explore-then-commit pipeline.

For T0 rounds the plant is driven by u = -K x + z with z drawn i.i.d. from
{-1, +1}^(d_u).  The moment estimates N_j average x_{t+j+1} z_t^T and converge
to (A - B K)^j B at the usual square-root rate, after which (A, B) are
recovered by a least-squares read-off.  The pipeline then hands the estimated
dynamics to the controller while true costs keep accruing on the true plant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlConfig, ControlRun, run_scream_control
from .dac import ClosedLoop
from .lds import LinearSystem, Trajectory, certify_strong_stability, closed_loop_rollout
from .oco import ContractViolation


RIDGE_CONDITION = 1e12  # Gram condition number above which recovery adds a ridge


class InsufficientExcitation(RuntimeError):
    """The moment matrix was numerically singular; increase T0 or the controllability index."""


@dataclass(frozen=True)
class IdentificationConfig:
    """Exploration budget T0 and controllability index k (T0 > k >= 1)."""

    T0: int
    k: int

    def __post_init__(self):
        if self.k < 1 or self.T0 <= self.k:
            raise ContractViolation("need T0 > k >= 1")


@dataclass
class MomentEstimates:
    """Estimates N_0..N_k of (A - B K)^j B."""

    N: np.ndarray  # (k + 1, d_x, d_u)

    def __post_init__(self):
        if not np.all(np.isfinite(self.N)):
            raise ContractViolation("moment estimates have non-finite entries")


@dataclass
class IdentifiedSystem:
    """Recovered dynamics and the exploration phase they were read from."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    exploration: Trajectory


def explore(plant: LinearSystem, K, T0: int, disturbances, rng):
    """Drive the plant with u = -K x + z, z ~ {+-1}^(d_u); returns (trajectory, sign inputs).

    The trajectory's costs are zero: exploration prices no round itself.
    """
    w = np.asarray(disturbances, dtype=float)
    if w.shape[0] < T0:
        raise ContractViolation("not enough disturbances for the exploration budget")
    signs = rng.choice([-1.0, 1.0], size=(T0, plant.d_u))
    states, actions = closed_loop_rollout(plant, K, signs, w[:T0])
    return Trajectory(states, actions, w[:T0], np.zeros(T0)), signs


def moments_from_exploration(states: np.ndarray, signs: np.ndarray, k: int) -> MomentEstimates:
    """N_j = mean over t of x_{t+j+1} z_t^T, j = 0..k, averaging T0 - k rounds.

    Each sum is one matrix product; with +-1 signs every term is exact, so
    only the order of the additions is BLAS's.  A single input is padded with
    a zero column: as a matrix-vector product BLAS would sum in an order that
    changes with its thread count, and the matrix product's order does not.
    """
    T0, d_u = signs.shape
    if T0 <= k:
        raise ContractViolation("need T0 > k")
    n = T0 - k
    if d_u == 1:
        signs = np.pad(signs, ((0, 0), (0, 1)))
    N = np.stack([states[j + 1: j + 1 + n].T @ signs[:n] / n for j in range(k + 1)])
    return MomentEstimates(N[..., :d_u])


def recover_from_moments(moments: MomentEstimates, K) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read (A_hat, B_hat, A_K_hat) off the moment stack by least squares.

    C0 = [N_0..N_{k-1}], C1 = [N_1..N_k]; A_K_hat = C1 C0^T (C0 C0^T)^{-1};
    B_hat = N_0; A_hat = A_K_hat + B_hat K.  A tiny diagonal ridge (1e-10) is
    added only when the Gram condition number exceeds ``RIDGE_CONDITION``, and
    outright singularity raises :class:`InsufficientExcitation`.
    """
    N = moments.N
    k = N.shape[0] - 1
    if k < 1:
        raise ContractViolation("need at least two moment matrices")
    C0 = np.hstack(list(N[:k]))
    C1 = np.hstack(list(N[1:]))
    gram = C0 @ C0.T
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond):
        raise InsufficientExcitation("moment Gram matrix is singular; increase T0 or k")
    if cond > RIDGE_CONDITION:
        gram = gram + 1e-10 * np.eye(gram.shape[0])
        if float(np.linalg.cond(gram)) > 1e15:
            raise InsufficientExcitation(
                f"moment Gram matrix condition {cond:.3g} is beyond repair; increase T0 or k")
    A_K_hat = np.linalg.solve(gram.T, (C1 @ C0.T).T).T
    B_hat = N[0].copy()
    A_hat = A_K_hat + B_hat @ np.asarray(K, dtype=float)
    return A_hat, B_hat, A_K_hat


def identify_system(plant: LinearSystem, K, config: IdentificationConfig, disturbances,
                    seed: int = 0) -> tuple[IdentifiedSystem, MomentEstimates]:
    """Run the exploration phase and recover the dynamics."""
    rng = np.random.default_rng(seed)
    trajectory, signs = explore(plant, K, config.T0, disturbances, rng)
    moments = moments_from_exploration(trajectory.states, signs, config.k)
    A_hat, B_hat, _ = recover_from_moments(moments, K)
    return IdentifiedSystem(A_hat, B_hat, trajectory), moments


@dataclass
class PipelineRun:
    """Explore-then-commit record: exploration phase plus the committed control phase."""

    identified: IdentifiedSystem
    exploration_cost: float          # true cost of the exploration rounds
    control_run: ControlRun


def run_unknown_pipeline(plant: LinearSystem, K, id_config: IdentificationConfig,
                         control_config: ControlConfig, costs, disturbances,
                         seed: int = 0, inject_system: LinearSystem | None = None) -> PipelineRun:
    """Explore for T0 rounds (costs counted), then control against the estimated dynamics.

    The committed phase believes the estimate (including disturbance recovery,
    which produces fictitious disturbances when the estimate is imperfect)
    while true costs accrue on the true plant.  ``inject_system`` replaces the
    estimate (e.g. with the truth, for equivalence checks) without skipping the
    exploration phase.
    """
    T0 = id_config.T0
    disturbances = np.asarray(disturbances, dtype=float)
    T = disturbances.shape[0]
    if not T0 < T:
        raise ContractViolation("exploration budget must be smaller than the horizon")
    identified, _ = identify_system(plant, K, id_config, disturbances[:T0], seed=seed)
    explored = identified.exploration
    exploration_cost = float(np.sum([costs[t].value(explored.states[t], explored.actions[t])
                                     for t in range(T0)]))
    believed_system = (inject_system if inject_system is not None
                       else LinearSystem(identified.A_hat, identified.B_hat))
    certificate = certify_strong_stability(believed_system, K)
    if not certificate.accepted:
        raise InsufficientExcitation(
            f"controller is not strongly stable on the estimated system: {certificate.reason}")
    believed = ClosedLoop(believed_system, K, certificate)
    phase2 = run_scream_control(believed, plant, disturbances[T0:], costs[T0:],
                                control_config, x0=explored.states[-1])
    return PipelineRun(identified, exploration_cost, phase2)
