import importlib.metadata
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from scream import verify
from scream.cli import _config, apply_updates, build_parser, main, parse_config_file
from scream.bench import ControlScenario, ExperimentConfig
from scream.oco import ContractViolation

from conftest import parse_csv


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "# comment\n"
        "T = 300\n"
        "alphas = 0.5, 1.0\n"
        "algorithms = ogd,scream\n"
        "\n"
        "per_round = true\n",
        encoding="utf-8",
    )
    values = parse_config_file(str(cfg))
    assert values == {"T": "300", "alphas": "0.5, 1.0", "algorithms": "ogd,scream",
                      "per_round": "true"}


def test_apply_updates_coerces_types():
    config = apply_updates(ExperimentConfig(), {"T": "250", "alphas": "0.1,1.0",
                                                "seeds": "3,4", "per_round": "true"})
    assert config.T == 250
    assert config.alphas == (0.1, 1.0)
    assert config.seeds == (3, 4)
    assert config.per_round is True


@pytest.mark.parametrize("value, expected", [
    ("true", True), ("yes", True), ("on", True), ("1", True), ("TRUE", True),
    ("false", False), ("no", False), ("off", False), ("0", False), ("Off", False),
])
def test_apply_updates_reads_booleans(value, expected):
    assert apply_updates(ExperimentConfig(), {"per_round": value}).per_round is expected


@pytest.mark.parametrize("key, value, radius", [
    ("diameter", "4", 1.9),
    ("feature_radius", "2", 0.95),
    ("noise_high", "0.3", 0.7),
    ("noise_low", "-0.3", 0.7),  # the noise magnitude bound is max(|noise_low|, |noise_high|)
    ("noise_high", "0.1", 0.9),  # the default config's radius
])
def test_apply_updates_derives_truth_radius_from_final_values(key, value, radius):
    updated = apply_updates(ExperimentConfig(), {key: value})
    built = ExperimentConfig(**{key: float(value)})
    assert updated == built
    assert updated.model_radius == built.model_radius == pytest.approx(radius, rel=1e-12)


def test_apply_updates_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown configuration key"):
        apply_updates(ExperimentConfig(), {"horizon": "10"})


def test_malformed_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("T 300\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_file(str(cfg))


def test_oco_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["oco-bench", "--T", "200", "--seed", "0", "--alpha", "0.5",
                 "--algorithms", "ogd,scream", "--out", str(out), "--serial"])
    assert code == 0
    rows = parse_csv(out / "results.csv")
    assert {r["algorithm"] for r in rows} == {"ogd", "scream"}
    assert (out / "summary.csv").exists()


def test_oco_bench_config_file(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("T = 150\nd = 3\nsegment_length = 50\nalphas = 1.0\n"
                   "algorithms = ader\nseeds = 0\n", encoding="utf-8")
    out = tmp_path / "run"
    code = main(["oco-bench", "--config", str(cfg), "--out", str(out), "--serial"])
    assert code == 0
    rows = parse_csv(out / "results.csv")
    assert len(rows) == 1 and rows[0]["algorithm"] == "ader"


def test_control_bench_subcommand(tmp_path):
    out = tmp_path / "ctrl"
    cfg = tmp_path / "ctrl.cfg"
    cfg.write_text("T = 120\nH = 2\nsegment_length = 40\nseeds = 0, 1\n", encoding="utf-8")
    code = main(["control-bench", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = parse_csv(out / "control_results.csv")
    assert rows[0]["scenario"] == "tracking-3x2"
    metadata = json.loads((out / "control_metadata.json").read_text(encoding="utf-8"))
    assert sorted(metadata) == ["0", "1"]  # one entry per seed
    assert metadata["0"]["H"] == metadata["1"]["H"] == 2
    assert metadata["0"]["lam_theoretical"] > 0


def test_sysid_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "sysid"
    code = main(["sysid-bench", "--budgets", "200,800", "--seed", "0", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert "slope" in capsys.readouterr().out
    report = json.loads((out / "sysid_report.json").read_text(encoding="utf-8"))
    assert report["budgets"] == [200, 800]


@pytest.mark.parametrize("argv, config, message", [
    (["oco-bench"], "horizon = 10\n", "unknown configuration key 'horizon'"),
    (["control-bench"], "T = abc\n", "configuration key 'T': cannot read 'abc'"),
    (["oco-bench"], "alphas = 0.5, half\n", "configuration key 'alphas'"),
    (["oco-bench"], "algorithms = sgd\n", "unknown algorithm 'sgd'"),
    (["sysid-bench", "--budgets", "2"], "", "budget 2 with k = 2: need T0 > k >= 1"),
    (["sysid-bench"], "preset = no-such-preset\n", "unknown system preset 'no-such-preset'"),
    (["oco-bench"], "noise_high = 1.5\n", "truth radius must lie in (0, D/2]"),
    (["oco-bench"], "noise_high = 1e308\n", "truth radius must lie in (0, D/2]"),
    (["oco-bench", "--T", "0"], "", "T, d and segment_length must be positive"),
    (["control-bench", "--T", "0"], "", "T, H and segment_length must be at least 1"),
    (["control-bench", "--H", "0"], "", "T, H and segment_length must be at least 1"),
    (["control-bench"], "segment_length = 0\n", "T, H and segment_length must be at least 1"),
    (["oco-bench", "--alpha=-1"], "", "alphas must be finite and non-negative"),
    (["oco-bench"], "alphas = 0.5, inf\n", "alphas must be finite and non-negative"),
    (["oco-bench"], "per_round = ture\n", "configuration key 'per_round': cannot read 'ture'"),
    (["oco-bench"], "noise_low = -1e308\nT = 50\nalgorithms = ogd\n",
     "truth radius must lie in (0, D/2]"),
    (["oco-bench"], "noise_high = inf\n", "noise bounds must be finite"),
    (["oco-bench"], "noise_low = nan\n", "noise bounds must be finite"),
    (["oco-bench"], "noise_low = 0.5\n", "noise_low <= noise_high"),
    # an empty sweep, from a flag or from the file, runs nothing
    (["oco-bench", "--alpha", ""], "", "alphas, algorithms and seeds must each name"),
    (["oco-bench", "--algorithms", ""], "", "alphas, algorithms and seeds must each name"),
    (["oco-bench"], "alphas =\n", "alphas, algorithms and seeds must each name"),
    (["oco-bench"], "algorithms =\n", "alphas, algorithms and seeds must each name"),
    (["oco-bench"], "seeds =\n", "alphas, algorithms and seeds must each name"),
    (["control-bench"], "seeds =\n", "need at least one seed"),
    (["sysid-bench"], "seeds =\n", "need at least one seed"),
    (["sysid-bench", "--budgets", ""], "", "need at least one exploration budget"),
    (["oco-bench"], "feature_radius = 0\n", "feature_radius must be finite and positive"),
    (["oco-bench"], "feature_radius = -1\n", "feature_radius must be finite and positive"),
    (["oco-bench"], "feature_radius = nan\n", "feature_radius must be finite and positive"),
    (["oco-bench"], "diameter = 0\n", "diameter must be finite and positive"),
    (["oco-bench"], "diameter = -1\n", "diameter must be finite and positive"),
    (["oco-bench"], "diameter = nan\n", "diameter must be finite and positive"),
    # the truth radius is derived, never set
    (["oco-bench"], "truth_radius = 0.5\n", "unknown configuration key 'truth_radius'"),
    # an unknown preset or disturbance kind stops control-bench before any seed runs
    (["control-bench"], "preset = nope\n", "unknown system preset 'nope'"),
    (["control-bench"], "disturbance_kind = nope\n", "unknown disturbance kind 'nope'"),
    # a repeated list value would run its cells twice and corrupt the summaries
    (["oco-bench", "--seed", "0", "--seed", "0"], "", "seeds must not repeat a value, got 0 twice"),
    (["oco-bench", "--alpha", "0.5,0.5"], "", "alphas must not repeat a value, got 0.5 twice"),
    (["oco-bench", "--algorithms", "scream,scream"], "",
     "algorithms must not repeat a value, got 'scream' twice"),
    (["control-bench", "--seed", "0", "--seed", "0"], "",
     "seeds must not repeat a value, got 0 twice"),
    (["sysid-bench", "--seed", "0", "--seed", "0"], "",
     "seeds must not repeat a value, got 0 twice"),
    (["sysid-bench", "--budgets", "250,250"], "", "budgets must not repeat a value, got 250 twice"),
    # numpy's generators take no negative seed: every cell would fail on it
    (["oco-bench", "--seed", "-1"], "", "seeds must be non-negative, got -1"),
    (["control-bench"], "seeds = 0, -2\n", "seeds must be non-negative, got -2"),
    (["sysid-bench", "--seed", "0", "--seed", "-3"], "", "seeds must be non-negative, got -3"),
    # without disturbances the state bound is 0 and no tuning exists
    (["control-bench"], "disturbance_amplitude = 0\n",
     "disturbance_amplitude must be finite and positive, got 0.0"),
    # a G = D * Gamma^2 or a lam = alpha * G past the float range runs no cell
    (["oco-bench"], "feature_radius = 1e160\n", "G = D * Gamma^2 must be finite and positive"),
    (["oco-bench"], "feature_radius = 1e-170\n", "G = D * Gamma^2 must be finite and positive"),
    (["oco-bench"], "alphas = 1e308\n", "lam = alpha * G must be finite"),
    # a lam so large that scream's meta rate underflows to 0 would fail every scream cell
    (["oco-bench"], "alphas = 1e160\n", "scream's meta rate must be finite and positive"),
    # G = 1 is fine, but the tuning's D^2 overflows
    (["oco-bench"], "diameter = 1e160\nfeature_radius = 1e-80\n",
     "scream's meta rate must be finite and positive"),
])
def test_bad_configuration_is_one_error_line_with_exit_two(tmp_path, capsys, argv, config,
                                                           message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    code = main(argv + ["--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scream: error: ") and message in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("key", ["control_weight", "target_radius", "disturbance_amplitude",
                                 "lam_multiplier"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_control_scenario_value_is_one_error_line_with_exit_two(tmp_path, capsys, key, value):
    # no tuning exists without disturbances (G_f is 0), so only the amplitude must be positive
    contract = "positive" if key == "disturbance_amplitude" else "non-negative"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"T = 30\nH = 2\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["control-bench", "--config", str(cfg), "--seed", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"scream: error: {key} must be finite and {contract}, got {float(value)}"]
    assert not out.exists()
    if contract == "positive":
        with pytest.raises(ContractViolation, match=f"{key} must be finite and positive"):
            apply_updates(ControlScenario(), {key: "0"})
    else:
        assert getattr(apply_updates(ControlScenario(), {key: "0"}), key) == 0.0  # zero is valid


# every flag of every benchmark subcommand sets the config key of its dest; a key whose
# flag is absent keeps the file's value
@pytest.mark.parametrize("argv, config, key, value", [
    (["oco-bench", "--T", "50"], "", "T", 50),
    (["oco-bench", "--algorithms", "ogd,ader"], "", "algorithms", ("ogd", "ader")),
    (["oco-bench", "--alpha", "0.2,0.3"], "", "alphas", (0.2, 0.3)),
    (["oco-bench", "--seed", "3", "--seed", "5"], "", "seeds", (3, 5)),
    (["oco-bench", "--out", "flag-out"], "outdir = file-out\n", "outdir", "flag-out"),
    (["oco-bench", "--per-round"], "", "per_round", True),
    (["oco-bench"], "per_round = true\n", "per_round", True),
    (["oco-bench", "--serial"], "T = 70\n", "T", 70),
    (["control-bench", "--T", "90"], "T = 70\n", "T", 90),
    (["control-bench", "--H", "3"], "", "H", 3),
    (["control-bench", "--lam-multiplier", "0.25"], "", "lam_multiplier", 0.25),
    (["control-bench", "--seed", "4"], "seeds = 1, 2\n", "seeds", (4,)),
    (["control-bench", "--out", "flag-out"], "", "outdir", "flag-out"),
    (["control-bench", "--per-round"], "", "per_round", True),
    (["control-bench"], "per_round = true\n", "per_round", True),
    (["sysid-bench", "--budgets", "300,600"], "", "budgets", (300, 600)),
    (["sysid-bench", "--seed", "7", "--seed", "8"], "", "seeds", (7, 8)),
    (["sysid-bench", "--out", "flag-out"], "", "outdir", "flag-out"),
])
def test_every_flag_lands_on_its_config_key(tmp_path, argv, config, key, value):
    cfg = tmp_path / "flags.cfg"
    cfg.write_text(config, encoding="utf-8")
    built = _config(build_parser().parse_args(argv + ["--config", str(cfg)]))
    assert getattr(built, key) == value
    assert type(getattr(built, key)) is type(value)  # a repeated --seed gives a tuple


@pytest.mark.parametrize("command", ["oco-bench", "control-bench", "sysid-bench"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_empty_output_directory_is_one_error_line_with_exit_two(tmp_path, capsys, monkeypatch,
                                                                command, source):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("outdir =\n" if source == "file" else "", encoding="utf-8")
    argv = [command, "--config", str(cfg)] + (["--out", ""] if source == "flag" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0] == "scream: error: outdir must name a directory, got an empty path"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


def test_uncertifiable_system_is_a_failure_row_with_exit_two(tmp_path, capsys):
    # spin-3x2 certifies at seed 0 but not at seed 1: kappa^2 (1-gamma)^(H+1) >= 1
    cfg = tmp_path / "spin.cfg"
    cfg.write_text("preset = spin-3x2\nT = 60\nsegment_length = 20\n", encoding="utf-8")
    out = tmp_path / "ctrl"
    code = main(["control-bench", "--config", str(cfg), "--seed", "0", "--seed", "1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert [row["seed"] for row in parse_csv(out / "control_results.csv")] == ["0"]
    metadata = json.loads((out / "control_metadata.json").read_text(encoding="utf-8"))
    assert list(metadata) == ["0"]  # successful seeds only
    lines = (out / "failures.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("('tracking-3x2', 1): ContractViolation: kappa^2 (1-gamma)^(H+1)")
    assert captured.err.splitlines() == ["cell failed " + lines[0]]
    assert "(1 rows, 1 failures)" in captured.out


def test_oco_bench_ignores_scream_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SCREAM_WORKERS", "abc")  # no longer read: the pool has no env setting
    out = tmp_path / "out"
    code = main(["oco-bench", "--T", "60", "--seed", "0", "--alpha", "0.5",
                 "--algorithms", "ogd", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert len(parse_csv(out / "results.csv")) == 1


def test_sysid_bench_exit_two_on_failed_trial(tmp_path, capsys, monkeypatch):
    import scream.bench as bench_mod
    original = bench_mod.identify_system

    def flaky(plant, K, config, disturbances, seed=0):
        if seed == 1 and config.T0 == 800:
            raise RuntimeError("synthetic trial failure")
        return original(plant, K, config, disturbances, seed=seed)

    monkeypatch.setattr(bench_mod, "identify_system", flaky)
    out = tmp_path / "sysid"
    code = main(["sysid-bench", "--budgets", "200,800", "--seed", "0", "--seed", "1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "slope" in captured.out
    assert captured.err == f"1 trials failed; see {out}/failures.txt\n"
    assert (out / "failures.txt").read_text(encoding="utf-8") == (
        "(800, 1): RuntimeError: synthetic trial failure\n")
    report = json.loads((out / "sysid_report.json").read_text(encoding="utf-8"))
    assert len(report["trials"]) == 3


def test_missing_config_file_is_an_error_line(tmp_path, capsys):
    assert main(["control-bench", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert capsys.readouterr().err.startswith("scream: error: ")


def test_verify_subcommand_exit_code(capsys):
    assert main(["verify", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.startswith("[PASS] ") for line in lines] == [True] * len(verify.CHECKS)


def test_verify_subcommand_reports_a_failing_check(capsys, monkeypatch):
    name, _ = verify.CHECKS[3]
    checks = list(verify.CHECKS)
    checks[3] = (name, lambda rng: (False, "forced failure"))
    monkeypatch.setattr(verify, "CHECKS", tuple(checks))
    assert main(["verify"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [f"[FAIL] {name}: forced failure"]


def test_verify_negative_seed_is_one_error_line_with_exit_two(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "CHECKS", (("record", lambda rng: ran.append(rng) or (True, "")),))
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "scream: error: seeds must be non-negative, got -1\n"
    assert ran == []


def test_console_script_registered():
    """The `scream` console script is declared as `scream.cli:main` and resolves to it.

    The declaration is read from the checkout's pyproject.toml, so the check runs
    without an install; where a `scream` distribution is installed, its
    console-script entry must carry the same value.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("scream") == "scream.cli:main"

    module_name, _, attr = scripts["scream"].partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    try:
        dist = importlib.metadata.distribution("scream")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = dist.entry_points.select(group="console_scripts", name="scream")
    assert [ep.value for ep in installed] == ["scream.cli:main"]


# ---------------------------------------------------------------------------
# seeded configuration fuzz through main: a file set, one error line, or recorded failures
# ---------------------------------------------------------------------------

# each key draws from (valid, odd) pools: odd values are boundary, zero, negative, non-numeric,
# empty, repeated, NaN, infinite or 1e+-160 values; every size drawn valid is small
_NUMBERS = (["0.5", "1", "0.1", "2.5", "1e-3"],
            ["0", "-1", "abc", "", "nan", "inf", "-inf", "1e160", "-1e160", "1e-160", "1e308",
             "-1e308", "1e-170"])
_SIZES = (["1", "2", "3", "5"], ["0", "-1", "2.5", "abc", "", "nan", "inf", "1e160"])
_SEEDS = (["0", "0, 1", "3"], ["1, 1", "-1", "", "abc", "1e160", "0, 1e-160"])
_KEYS = {
    "oco-bench": {
        "T": (["3", "12", "40"], _SIZES[1]), "d": _SIZES, "segment_length": _SIZES,
        "feature_radius": _NUMBERS, "diameter": _NUMBERS, "noise_low": _NUMBERS,
        "noise_high": _NUMBERS, "seeds": _SEEDS, "per_round": (["true", "0"], ["ture", ""]),
        "alphas": (["0.5", "0.1, 1.0", "0"], _NUMBERS[1] + ["0.5, 0.5", "0.5, nan", "1e160, 1e-160"]),
        "algorithms": (["ogd", "ader, scream", "scream"], ["sgd", "", "scream, scream"]),
    },
    "control-bench": {
        "T": (["3", "12", "30"], _SIZES[1]), "H": (["1", "2", "3"], _SIZES[1]),
        "segment_length": _SIZES, "target_radius": _NUMBERS, "control_weight": _NUMBERS,
        "disturbance_amplitude": _NUMBERS, "lam_multiplier": _NUMBERS, "seeds": _SEEDS,
        "preset": (["mild-3x2", "spin-3x2", "scaling-3x1", "sysid-3x2"], ["nope", ""]),
        "disturbance_kind": (["constant", "sinusoidal", "adversarial-sign"], ["nope", ""]),
        "per_round": (["yes", "off"], ["2"]),
    },
    "sysid-bench": {
        "budgets": (["20", "30, 60", "8"], ["40, 40", "2", "3", "abc", "", "1e160", "-5"]),
        "k": (["1", "2", "3"], _SIZES[1]), "seeds": _SEEDS,
        "preset": (["sysid-3x2", "mild-3x2", "scaling-3x1"], ["nope"]),
    },
}
_REQUIRED = {"oco-bench": ("T", "seeds"), "control-bench": ("T", "H", "seeds"),
             "sysid-bench": ("budgets", "seeds")}  # keys whose defaults are large: always drawn
_MISSPELLED = ["horizon", "alpha", "seed", "Tt", "feature radius"]
_WRITES = {"oco-bench": ("results.csv", "summary.csv"),
           "control-bench": ("control_results.csv", "control_summary.csv"),
           "sysid-bench": ("sysid_report.json",)}
_PINNED = [  # config values whose derived constants overflow, pinned ahead of the draws
    ("oco-bench", {"T": "5", "seeds": "0", "feature_radius": "1e160"}),
    ("oco-bench", {"T": "5", "seeds": "0", "feature_radius": "1e-170"}),
    ("oco-bench", {"T": "5", "seeds": "0, 1", "alphas": "1e308"}),
    # the summary's squares overflow; without scream, whose meta rate would underflow
    ("oco-bench", {"T": "5", "seeds": "0, 1", "alphas": "1e160", "algorithms": "ogd, ader"}),
]


def _pick(rng, pools):
    pool = pools[1] if rng.random() < 0.25 else pools[0]
    return pool[int(rng.integers(len(pool)))]


def _draw_config(rng, command):
    keys = _KEYS[command]
    drawn = rng.choice(sorted(keys), size=int(rng.integers(0, 4)))
    chosen = set(_REQUIRED[command]) | {str(key) for key in drawn}
    lines = {key: _pick(rng, keys[key]) for key in sorted(chosen)}
    if rng.random() < 0.1:  # a key given twice: the file's last line holds
        key = sorted(lines)[0]
        lines[key + " "] = _pick(rng, keys[key])
    if rng.random() < 0.1:
        lines[_MISSPELLED[int(rng.integers(len(_MISSPELLED)))]] = "1"
    return lines


def test_config_fuzz_ends_in_files_one_error_line_or_recorded_failures(tmp_path, capsys):
    rng = np.random.default_rng(30)
    cases = _PINNED + [(command, _draw_config(rng, command))
                       for command in ("oco-bench", "control-bench", "sysid-bench")
                       for _ in range(100)]
    outcomes = set()
    for i, (command, lines) in enumerate(cases):
        cfg, out = tmp_path / f"c{i}.cfg", tmp_path / f"out{i}"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()),
                       encoding="utf-8")
        argv = [command, "--config", str(cfg), "--out", str(out)]
        code = main(argv + (["--serial"] if command == "oco-bench" else []))
        captured = capsys.readouterr()
        case = f"{command} {lines}: exit {code}, stderr {captured.err!r}"
        err = captured.err.splitlines()
        if code == 2 and not out.exists():
            assert captured.out == "" and len(err) == 1 and err[0].startswith("scream: error: "), case
            outcomes.add("error line")
            continue
        assert code in (0, 2), case
        assert all((out / name).is_file() for name in _WRITES[command]), case
        failures = (out / "failures.txt").read_text(encoding="utf-8").splitlines() \
            if (out / "failures.txt").exists() else []
        assert (code == 2) == bool(failures), case
        outcomes.add("failures" if failures else "files")
        if command == "sysid-bench":
            assert err == ([f"{len(failures)} trials failed; see {out}/failures.txt"] if failures
                           else []), case
        else:
            assert err == [f"cell failed {line}" for line in failures], case
    assert outcomes == {"error line", "failures", "files"}  # the draws reach all three endings
