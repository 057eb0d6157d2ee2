"""Golden outputs: reduced benchmark configs must keep writing the checked-in CSVs.

The files under ``tests/golden/`` were written once by the CLI and are never
regenerated:

  oco_t2000      ``scream oco-bench`` with ``T = 2000``, seeds 0 and 1, every
                 algorithm and alpha (one segment);
  oco_t300_seg1  the same at ``T = 300`` with ``segment_length = 1``, so every
                 comparator row is distinct;
  control_t400   ``scream control-bench`` (tracking-3x2) with ``T = 400``,
                 seeds 0 and 1.

Every field is compared at the 9 significant digits the CSVs print, except
``wall_time_ms``, the one measured column.
"""

from pathlib import Path

import pytest

from scream.bench import ControlScenario, ExperimentConfig, run_benchmark, run_control_benchmark
from scream.csvio import parse_csv

GOLDEN = Path(__file__).resolve().parent / "golden"


def _rows(path):
    rows = parse_csv(path)
    for row in rows:
        row.pop("wall_time_ms", None)
    return rows


def _assert_matches_golden(outdir: Path, name: str, files):
    for filename in files:
        expected = _rows(GOLDEN / name / filename)
        actual = _rows(outdir / filename)
        assert len(actual) == len(expected), f"{name}/{filename}: row count"
        for want, got in zip(expected, actual):
            assert got == want, f"{name}/{filename}: {got} != golden {want}"


@pytest.mark.parametrize("name, updates", [
    ("oco_t2000", dict(T=2000)),
    ("oco_t300_seg1", dict(T=300, segment_length=1)),
])
def test_oco_benchmark_matches_golden(tmp_path, name, updates):
    config = ExperimentConfig(seeds=(0, 1), outdir=str(tmp_path), **updates)
    result = run_benchmark(config, parallel=False)
    assert result.ok, result.failures
    _assert_matches_golden(tmp_path, name, ("results.csv", "summary.csv"))


def test_control_benchmark_matches_golden(tmp_path):
    scenario = ControlScenario(T=400, seeds=(0, 1), outdir=str(tmp_path))
    result = run_control_benchmark(scenario)
    assert result.ok, result.failures
    _assert_matches_golden(tmp_path, "control_t400", ("control_results.csv", "control_summary.csv"))
