import csv

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def finite_diff(fn, w, h=1e-6):
    """Test-side central-difference oracle, independent of the library's fallback."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    for i in range(w.size):
        step = np.zeros_like(w)
        step[i] = h
        out[i] = (fn(w + step) - fn(w - step)) / (2 * h)
    return out


def dynamics_residual(system, trajectory) -> float:
    """Largest ||x_{t+1} - (A x_t + B u_t + w_t)|| over a trajectory's transitions; 0 when it has none."""
    pred = (trajectory.states[:-1] @ system.A.T + trajectory.actions @ system.B.T
            + trajectory.disturbances)
    residual = np.linalg.norm(trajectory.states[1:] - pred, axis=1)
    return float(np.max(residual)) if trajectory.T else 0.0


def parse_csv(path) -> list[dict]:
    """Read a CSV written by ``scream.csvio.emit_csv`` back into a list of string dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
