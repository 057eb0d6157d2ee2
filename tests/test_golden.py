"""Golden outputs: reduced benchmark configs must keep writing the checked-in CSVs.

The files under ``tests/golden/`` were written once by the CLI and are never
regenerated:

  oco_t2000      ``scream oco-bench`` with ``T = 2000``, seeds 0 and 1, every
                 algorithm and alpha (one segment);
  oco_t300_seg1  the same at ``T = 300`` with ``segment_length = 1``, so every
                 comparator row is distinct;
  control_t400   ``scream control-bench`` (tracking-3x2) with ``T = 400``,
                 seeds 0 and 1, with its ``control_metadata.json``;
  control_scaling_t500
                 ``run_control_benchmark(scaling_scenario(500, seeds=(0, 1)))``,
                 the single-input tracking-3x1 preset of the regret-scaling
                 study (d_u = 1, H = 3), with its ``control_metadata.json``;
  sysid_small    ``scream sysid-bench --budgets 250,1000`` with seeds 0, 1, 2.

Every field is compared at the 9 significant digits the CSVs print, except
``wall_time_ms``, the one measured column.  The JSON report is compared the
same way: every number at 9 significant digits, everything else exactly.
The control metadata holds the controller's tuning (step-size pool, meta rate,
number of experts, movement weight and the structural constants), which no
CSV column prints.
"""

import json
from pathlib import Path

import pytest

from scream.bench import (ControlScenario, ExperimentConfig, SysidScenario, run_benchmark,
                          run_control_benchmark, run_sysid_benchmark, scaling_scenario)

from conftest import parse_csv

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


def _nine_digits(value):
    """The JSON value with every float printed at 9 significant digits."""
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, dict):
        return {key: _nine_digits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_nine_digits(item) for item in value]
    return value


def _assert_json_matches_golden(outdir: Path, name: str, filename: str):
    expected = json.loads((GOLDEN / name / filename).read_text(encoding="utf-8"))
    actual = json.loads((outdir / filename).read_text(encoding="utf-8"))
    assert _nine_digits(actual) == _nine_digits(expected), f"{name}/{filename}"


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
    _assert_json_matches_golden(tmp_path, "control_t400", "control_metadata.json")


def test_control_scaling_benchmark_matches_golden(tmp_path):
    result = run_control_benchmark(scaling_scenario(500, seeds=(0, 1), outdir=str(tmp_path)))
    assert result.ok, result.failures
    _assert_matches_golden(tmp_path, "control_scaling_t500",
                           ("control_results.csv", "control_summary.csv"))
    _assert_json_matches_golden(tmp_path, "control_scaling_t500", "control_metadata.json")


def test_sysid_benchmark_matches_golden(tmp_path):
    scenario = SysidScenario(budgets=(250, 1000), seeds=(0, 1, 2), outdir=str(tmp_path))
    run_sysid_benchmark(scenario)
    _assert_json_matches_golden(tmp_path, "sysid_small", "sysid_report.json")
