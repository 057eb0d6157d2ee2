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


def parse_csv(path) -> list[dict]:
    """Read a CSV written by ``scream.csvio.emit_csv`` back into a list of string dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
