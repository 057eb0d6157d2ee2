"""Command-line harness.

Subcommands:
  oco-bench     piecewise-stationary regression benchmark (ogd / ader / scream)
  control-bench tracking benchmark for the DAC controller
  sysid-bench   Monte-Carlo identification error across exploration budgets
  verify        randomized structural check suite

Configuration files are flat ``key = value`` text; command-line flags override
file values.  Exit code 0 on full success; 2 when some cells (or sysid-bench
trials) failed, which ``failures.txt`` in the output directory records, or when
the configuration is invalid (an unknown key, a value of the wrong type, a
value outside its contract, a ``SCREAM_WORKERS`` that is not an integer >= 1
for oco-bench), which prints one ``scream: error: ...`` line on stderr and runs
nothing; 1 when a verification check failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .bench import (ControlScenario, ExperimentConfig, SysidScenario, run_benchmark,
                    run_control_benchmark, run_sysid_benchmark, worker_count)
from .verify import run_verification


def parse_config_file(path: str) -> dict:
    """Flat key = value format; blank lines and #-comments ignored."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _coerce(value: str, like):
    if isinstance(like, bool):
        if value.lower() not in _BOOLEANS:
            raise ValueError("expected true/false, yes/no, on/off or 1/0")
        return _BOOLEANS[value.lower()]
    if like is None:  # an optional number left to be derived, e.g. truth_radius
        return float(value)
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, tuple):
        items = [v.strip() for v in value.split(",") if v.strip()]
        if like and isinstance(like[0], int):
            return tuple(int(v) for v in items)
        if like and isinstance(like[0], float):
            return tuple(float(v) for v in items)
        return tuple(items)
    return value


def apply_updates(config, updates: dict):
    """Overlay string key/values onto a dataclass config, coercing by field type."""
    known = {f.name: getattr(config, f.name) for f in fields(config)}
    coerced = {}
    for key, value in updates.items():
        if key not in known:
            raise ValueError(f"unknown configuration key {key!r}; valid keys: {sorted(known)}")
        try:
            coerced[key] = _coerce(value, known[key]) if isinstance(value, str) else value
        except ValueError as exc:
            raise ValueError(f"configuration key {key!r}: cannot read {value!r} ({exc})") from None
    return replace(config, **coerced)


def _common_flags(sub):
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--seed", type=int, action="append", dest="seeds",
                     help="seed to run (repeatable; overrides the config seeds)")
    sub.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scream", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    oco = subs.add_parser("oco-bench", help="piecewise-stationary regression benchmark")
    _common_flags(oco)
    oco.add_argument("--algorithms", help="comma list from ogd,ader,scream")
    oco.add_argument("--alpha", help="comma list of regularizer coefficients")
    oco.add_argument("--T", type=int, help="horizon")
    oco.add_argument("--per-round", action="store_true", help="also dump per-round CSVs")
    oco.add_argument("--serial", action="store_true", help="disable the worker pool")

    ctrl = subs.add_parser("control-bench", help="DAC tracking benchmark")
    _common_flags(ctrl)
    ctrl.add_argument("--T", type=int, help="horizon")
    ctrl.add_argument("--H", type=int, help="truncation length")
    ctrl.add_argument("--lam-multiplier", type=float, help="movement-penalty override multiplier")
    ctrl.add_argument("--per-round", action="store_true", help="also dump per-round CSVs")

    sysid = subs.add_parser("sysid-bench", help="identification error vs exploration budget")
    _common_flags(sysid)
    sysid.add_argument("--budgets", help="comma list of exploration budgets")

    ver = subs.add_parser("verify", help="run the structural check suite")
    ver.add_argument("--seed", type=int, default=0)
    return parser


def _config(args):
    """The command's configuration: defaults, then the config file, then the flags."""
    updates = parse_config_file(args.config) if args.config else {}
    if args.seeds:
        updates["seeds"] = tuple(args.seeds)
    if args.out:
        updates["outdir"] = args.out
    if args.command == "oco-bench":
        if args.algorithms is not None:
            updates["algorithms"] = args.algorithms
        if args.alpha is not None:
            updates["alphas"] = args.alpha
        if args.T is not None:
            updates["T"] = args.T
        if args.per_round:
            updates["per_round"] = True
        config = apply_updates(ExperimentConfig(), updates)
        worker_count()  # a bad SCREAM_WORKERS fails here, before any cell runs
        return config
    if args.command == "control-bench":
        if args.T is not None:
            updates["T"] = args.T
        if args.H is not None:
            updates["H"] = args.H
        if args.lam_multiplier is not None:
            updates["lam_multiplier"] = args.lam_multiplier
        if args.per_round:
            updates["per_round"] = True
        return apply_updates(ControlScenario(), updates)
    if args.budgets is not None:
        updates["budgets"] = args.budgets
    return apply_updates(SysidScenario(), updates)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "verify":
        return 0 if run_verification(seed=args.seed) else 1

    try:
        config = _config(args)
    except (OSError, ValueError) as exc:  # ContractViolation is a ValueError
        print(f"scream: error: {exc}", file=sys.stderr)
        return 2

    if args.command == "oco-bench":
        result = run_benchmark(config, parallel=not args.serial)
    elif args.command == "control-bench":
        result = run_control_benchmark(config)
    else:
        report = run_sysid_benchmark(config)
        print(f"identification log-log slope: {report['loglog_slope']:.3f}")
        failed = len(config.budgets) * len(config.seeds) - len(report["trials"])
        if failed:
            print(f"{failed} trials failed; see {config.outdir}/failures.txt", file=sys.stderr)
        return 2 if failed else 0

    for key, message in result.failures:
        print(f"cell failed {key}: {message}", file=sys.stderr)
    print(f"wrote {result.outdir}/ ({len(result.rows)} rows, {len(result.failures)} failures)")
    return 0 if result.ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
