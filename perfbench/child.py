"""One fresh interpreter of a benchmark run; ``run.py`` starts it and reads its last line.

    python3 perfbench/child.py --mode MODE --workload NAME --config FILE --out DIR

Every mode first does the set-up a user of the CLI pays for: import numpy and
the program, then build the workload's config through ``cli.parse_config_file``
and ``cli.apply_updates`` (``--out`` overrides ``outdir`` as the CLI's flag
does).  The monotonic clock read at that point is reported as ``ready``.  Then:

  setup  stops;
  call   runs the workload's program call once, writing to ``--out``, and
         measures its wall time, CPU time and peak resident set;
  check  verifies the outputs in ``--out`` and compares every ``--same-as``
         directory with them;
  trace  runs the program call and verifies it, then makes the same call
         with the OCO cells in this process, untraced and then traced
         (``layers.traced``), in rounds until ``--seconds`` are used, and
         reports the per-layer metrics.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def program_call(bench, kind: str, config, parallel: bool = True) -> tuple[int, int]:
    """The workload's program call, as the scream CLI makes it: (attempted, failed).

    ``parallel=False`` runs the OCO cells in this process instead of the pool.
    """
    if kind == "oco":
        attempted = len(config.algorithms) * len(config.alphas) * len(config.seeds)
        return attempted, len(bench.run_benchmark(config, parallel=parallel).failures)
    if kind == "control":
        return len(config.seeds), len(bench.run_control_benchmark(config).failures)
    bench.run_sysid_benchmark(config)
    return len(config.budgets) * len(config.seeds), 0


def measured_call(bench, kind: str, config) -> dict:
    """One program call with its wall time, CPU time (process and reaped children) and peak RSS."""
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    attempted, failed = program_call(bench, kind, config)
    run_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "attempted": attempted,
        "failed": failed,
        "run_s": run_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    }


def traced_rounds(bench, kind: str, config, out: Path, seconds: float, trace_file: str) -> dict:
    import checks
    import layers

    program_dir = out / "program"
    call = measured_call(bench, kind, config)
    errors = checks.VERIFY[kind](config, program_dir)
    deadline = time.monotonic() + seconds
    untraced, traced, per_round = [], [], []
    while True:
        began = time.monotonic()
        plain = out / f"untraced{len(untraced)}"
        start = time.perf_counter()
        _, failed = program_call(bench, kind, replace(config, outdir=str(plain)), parallel=False)
        untraced.append(time.perf_counter() - start)
        recorded = out / f"traced{len(traced)}"
        with layers.traced(layers.Tracer()) as tracer:
            start = time.perf_counter()
            _, failed_traced = program_call(bench, kind, replace(config, outdir=str(recorded)),
                                            parallel=False)
            traced.append(time.perf_counter() - start)
        per_round.append(layers.layer_metrics(tracer, call["run_s"],
                                              layers.pool_workers(kind, config)))
        if failed or failed_traced:
            errors.append(f"the serial calls had {failed} and {failed_traced} failed operations")
        errors += checks.check_same_outputs(program_dir, plain)
        errors += checks.check_same_outputs(program_dir, recorded)
        errors += checks.check_one_gradient(tracer.counts["learners.grad_evals"],
                                            tracer.counts["learners.rounds"], "learners")
        errors += checks.check_one_gradient(tracer.counts["control.grad_evals"],
                                            tracer.counts["control.learning_rounds"], "control")
        if time.monotonic() + (time.monotonic() - began) > deadline:
            break
    tracer.dump(trace_file)
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.total_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"attempted": call["attempted"], "failed": call["failed"], "errors": errors,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in layers.PER_LAYER.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("setup", "call", "check", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--same-as", nargs="*", default=[])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (part of the set-up a CLI user pays for)
    from scream import bench, cli

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    base = {"oco": bench.ExperimentConfig, "control": bench.ControlScenario,
            "sysid": bench.SysidScenario}[workload.kind]()
    updates = cli.parse_config_file(args.config)
    out = Path(args.out)
    updates["outdir"] = str(out / "program") if args.mode == "trace" else str(out)
    config = cli.apply_updates(base, updates)
    result = {"ready": time.monotonic()}

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(bench.__file__).resolve().parents:
        print(f"scream was imported from {bench.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.mode == "call":
        result.update(measured_call(bench, workload.kind, config))
    elif args.mode == "check":
        import checks
        errors = checks.VERIFY[workload.kind](config, out)
        for other in args.same_as:
            errors += checks.check_same_outputs(out, Path(other))
        result["errors"] = errors
    elif args.mode == "trace":
        result.update(traced_rounds(bench, workload.kind, config, out, args.seconds,
                                    args.trace_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
