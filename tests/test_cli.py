import importlib.metadata
import json
import sys
from pathlib import Path

import pytest

from scream.cli import apply_updates, main, parse_config_file
from scream.bench import ExperimentConfig
from scream.csvio import parse_csv


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
    cfg.write_text("T = 120\nH = 2\nsegment_length = 40\nseeds = 0\n", encoding="utf-8")
    code = main(["control-bench", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = parse_csv(out / "control_results.csv")
    assert rows[0]["scenario"] == "tracking-3x2"
    metadata = json.loads((out / "control_metadata.json").read_text(encoding="utf-8"))
    assert metadata["H"] == 2
    assert metadata["lam_theoretical"] > 0


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


def test_missing_config_file_is_an_error_line(tmp_path, capsys):
    assert main(["control-bench", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert capsys.readouterr().err.startswith("scream: error: ")


def test_verify_subcommand_exit_code():
    assert main(["verify", "--seed", "1"]) == 0


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
