"""Golden outputs: reduced benchmark configs must keep writing the checked-in CSVs.

The files under ``tests/golden/`` were written by the CLI.  A golden is
regenerated only when the program's output is meant to change, and only the
lines that change; so far that is lines 7 and 8 of ``verify_seed0.txt``,
which print the bound each check passed instead of a rounding-level figure
that depends on the BLAS kernel.  The goldens are:

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
  sysid_small    ``scream sysid-bench --budgets 250,1000`` with seeds 0, 1, 2;
  oco_t300_rounds
                 the per-round CSVs of ``scream oco-bench --T 300 --seed 0
                 --alpha 0.5 --per-round --serial``, one per algorithm;
  control_t400_rounds
                 the per-round CSV of ``scream control-bench --T 400 --seed 0
                 --per-round``;
  verify_seed0.txt
                 the stdout of ``scream verify --seed 0``.

Every field is compared at the 9 significant digits the CSVs print, except
``wall_time_ms``, the one measured column.  The JSON report is compared the
same way: every number at 9 significant digits, everything else exactly.
The verify output is compared line by line, exactly, and the per-round CSVs
byte for byte: they carry no measured column.
The control metadata holds the controller's tuning (step-size pool, meta rate,
number of experts, movement weight and the structural constants), which no
CSV column prints.

The CLI runs of ``oco_t300_seg1``, ``control_t400`` and ``sysid_small`` are
also repeated in child processes under one and two OpenBLAS threads: both
must write the same bytes, apart from ``wall_time_ms``, and match the goldens.
Since the CSVs print 9 digits, two more children write the raw bytes of the
arrays behind those runs, which must be equal to the last bit.

The same three runs and ``scream verify --seed 0`` are repeated on two other
x86-64 kernels, each in a child process: one under OpenBLAS's ``Haswell``
kernel, one with numpy's AVX2 and AVX-512 paths disabled.  Their outputs must
match the goldens as above, not byte for byte: raw arrays move in their last
bits across kernels.  Each child reads back the kernel it runs on, so an
override that did not take effect fails the test.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scream

from scream.bench import (ControlScenario, ExperimentConfig, SysidScenario, run_benchmark,
                          run_control_benchmark, run_sysid_benchmark, scaling_scenario)
from scream.cli import main

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


def test_verify_output_matches_golden(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    expected = (GOLDEN / "verify_seed0.txt").read_text(encoding="utf-8").splitlines()
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("name, argv", [
    ("oco_t300_rounds", ["oco-bench", "--T", "300", "--seed", "0", "--alpha", "0.5",
                         "--per-round", "--serial"]),
    ("control_t400_rounds", ["control-bench", "--T", "400", "--seed", "0", "--per-round"]),
])
def test_per_round_csvs_match_golden_byte_for_byte(tmp_path, capsys, name, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    golden = sorted(path.name for path in (GOLDEN / name).glob("rounds_*.csv"))
    assert sorted(path.name for path in tmp_path.glob("rounds_*.csv")) == golden
    for filename in golden:
        assert (tmp_path / filename).read_bytes() == (GOLDEN / name / filename).read_bytes(), \
            f"{name}/{filename}"


# (golden, CLI arguments, config file text or None, CSV files, JSON files)
CLI_GOLDEN_RUNS = (
    ("oco_t300_seg1", ["oco-bench", "--T", "300", "--seed", "0", "--seed", "1", "--serial"],
     "segment_length = 1\n", ("results.csv", "summary.csv"), ()),
    ("control_t400", ["control-bench", "--T", "400", "--seed", "0", "--seed", "1"], None,
     ("control_results.csv", "control_summary.csv"), ("control_metadata.json",)),
    ("sysid_small", ["sysid-bench", "--budgets", "250,1000", "--seed", "0", "--seed", "1",
                     "--seed", "2"], None, (), ("sysid_report.json",)),
)


# Runs the sweeps of the three goldens (the OCO one on its scream cell at alpha 0.5, seed 0,
# and control on seed 0) and writes the raw bytes of the arrays they compute: the OCO
# decisions, the controller's states, the segment comparators, every trial's moments, and
# the metrics of each result row, whose CSV prints only 9 digits.
ARRAYS_CHILD = """
import sys
from pathlib import Path

import numpy as np

from scream import bench, learners

out = Path(sys.argv[1])
arrays = {}

def keep(owner, name, pick):
    original = getattr(owner, name)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        arrays.setdefault(name, []).append(pick(result).tobytes())
        return result
    setattr(owner, name, wrapper)

keep(learners, "run_online", lambda run: run.decisions)
keep(bench, "run_scream_control", lambda run: run.states)
keep(bench, "best_fixed_dac_per_segment", lambda comparators: comparators)
keep(bench, "identify_system", lambda result: result[1].N)
oco = bench.run_benchmark(bench.ExperimentConfig(
    T=300, segment_length=1, seeds=(0,), alphas=(0.5,), algorithms=("scream",),
    outdir=str(out / "oco")), parallel=False)
control = bench.run_control_benchmark(bench.ControlScenario(T=400, seeds=(0,),
                                                            outdir=str(out / "control")))
bench.run_sysid_benchmark(bench.SysidScenario(budgets=(250, 1000), seeds=(0, 1, 2),
                                              outdir=str(out / "sysid")))
for name, result in (("oco_rows", oco), ("control_rows", control)):
    metrics = [[getattr(row, c) for c in bench.RESULT_COLUMNS[4:-1]] for row in result.rows]
    arrays[name] = [np.array(metrics).tobytes()]  # every metric but wall_time_ms
for name, chunks in arrays.items():
    (out / f"{name}.bin").write_bytes(b"".join(chunks))
"""


def _child_env(**variables):
    """The environment of a child process that imports this scream, with ``variables`` added.

    Each variable is set in the child only, before its numpy loads.
    """
    path = os.pathsep.join(filter(None, [str(Path(scream.__file__).resolve().parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


def _cli_args(tmp_path, name, args, config_text):
    """A golden run's CLI arguments, with its config text (if any) written under ``tmp_path``."""
    if config_text is None:
        return args
    (tmp_path / f"{name}.cfg").write_text(config_text, encoding="utf-8")
    return args + ["--config", str(tmp_path / f"{name}.cfg")]


def test_cli_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    arrays = {threads: subprocess.Popen(
        [sys.executable, "-c", ARRAYS_CHILD, str(tmp_path / "arrays" / threads)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=_child_env(OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")}
    for name, args, config_text, csvs, jsons in CLI_GOLDEN_RUNS:
        args = _cli_args(tmp_path, name, args, config_text)
        children = {threads: subprocess.Popen(
            [sys.executable, "-m", "scream.cli", *args, "--out", str(tmp_path / name / threads)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=_child_env(OPENBLAS_NUM_THREADS=threads))
            for threads in ("1", "2")}
        for threads, child in children.items():
            _, err = child.communicate(timeout=120)
            assert child.returncode == 0, f"{name}, {threads} thread(s): {err.decode()}"
        one, two = tmp_path / name / "1", tmp_path / name / "2"
        for filename in csvs:
            assert _rows(one / filename) == _rows(two / filename), f"{name}/{filename}"
        for filename in jsons:
            assert (one / filename).read_bytes() == (two / filename).read_bytes(), filename
        for outdir in (one, two):
            _assert_matches_golden(outdir, name, csvs)
            for filename in jsons:
                _assert_json_matches_golden(outdir, name, filename)
    for threads, child in arrays.items():
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, f"arrays, {threads} thread(s): {err.decode()}"
    sizes = {"run_online": 300 * 10, "run_scream_control": 401 * 3,
             "best_fixed_dac_per_segment": 400 * 5 * 2 * 3, "identify_system": 6 * 3 * 3 * 2,
             "oco_rows": 5, "control_rows": 5}
    for name, size in sizes.items():
        one, two = (tmp_path / "arrays" / threads / f"{name}.bin" for threads in ("1", "2"))
        assert len(one.read_bytes()) == 8 * size, name
        assert one.read_bytes() == two.read_bytes(), f"{name} changes with the thread count"


# Reads back which kernels it runs on (the OpenBLAS core name and numpy's AVX-512 flag), then
# runs the golden CLI runs and ``scream verify --seed 0`` in this one process.
KERNEL_CHILD = """
import contextlib
import ctypes
import io
import json
import sys
from pathlib import Path

from numpy._core._multiarray_umath import __cpu_features__

from scream.cli import main

out, library, runs = Path(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
corename = ctypes.CDLL(library).scipy_openblas_get_corename64_  # the copy numpy loaded
corename.restype = ctypes.c_char_p
probe = {"core": corename().decode(), "AVX512_SKX": __cpu_features__["AVX512_SKX"]}
(out / "probe.json").write_text(json.dumps(probe), encoding="utf-8")
for name, args in runs:
    assert main(args + ["--out", str(out / name)]) == 0, name
with contextlib.redirect_stdout(io.StringIO()) as printed:
    assert main(["verify", "--seed", "0"]) == 0, "verify"
(out / "verify.txt").write_text(printed.getvalue(), encoding="utf-8")
"""

SIMD_BASELINE = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"  # numpy's AVX2 and AVX-512 paths


def _openblas_corename_library() -> str:
    """numpy's bundled OpenBLAS, if it can report its core name; skips the test otherwise."""
    libs = sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob(
        "libscipy_openblas64_-*.so"))
    if not libs:
        pytest.skip("numpy.libs holds no libscipy_openblas64_ library")
    try:
        ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (OSError, AttributeError) as exc:
        pytest.skip(f"cannot read the OpenBLAS core name: {exc}")
    return str(libs[0])


@pytest.mark.parametrize("variables, expected", [
    ({"OPENBLAS_CORETYPE": "Haswell"}, ("core", "Haswell")),
    ({"NPY_DISABLE_CPU_FEATURES": SIMD_BASELINE}, ("AVX512_SKX", False)),
], ids=["openblas-haswell", "numpy-sse-baseline"])
def test_cli_outputs_match_golden_on_other_kernels(tmp_path, variables, expected):
    library = _openblas_corename_library()
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError as exc:
        pytest.skip(f"numpy reports no CPU features: {exc}")
    missing = [f for f in ("AVX2", "FMA3", *SIMD_BASELINE.split(), "AVX512_SKX")
               if f not in __cpu_features__]
    if missing:
        pytest.skip(f"numpy knows no CPU feature named {missing}")
    if "OPENBLAS_CORETYPE" in variables and not (__cpu_features__["AVX2"]
                                                 and __cpu_features__["FMA3"]):
        pytest.skip("this CPU cannot run OpenBLAS's Haswell kernel")
    runs = [(name, _cli_args(tmp_path, name, args, config_text))
            for name, args, config_text, _, _ in CLI_GOLDEN_RUNS]
    out = tmp_path / "out"
    out.mkdir()
    child = subprocess.run(
        [sys.executable, "-c", KERNEL_CHILD, str(out), library, json.dumps(runs)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_child_env(**variables),
        timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    key, value = expected
    probe = json.loads((out / "probe.json").read_text(encoding="utf-8"))
    assert probe[key] == value, f"{variables} did not take effect: {probe}"
    for name, _, _, csvs, jsons in CLI_GOLDEN_RUNS:
        _assert_matches_golden(out / name, name, csvs)
        for filename in jsons:
            _assert_json_matches_golden(out / name, name, filename)
    expected_lines = (GOLDEN / "verify_seed0.txt").read_text(encoding="utf-8").splitlines()
    assert (out / "verify.txt").read_text(encoding="utf-8").splitlines() == expected_lines
