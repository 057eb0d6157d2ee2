"""Benchmark of scream: one workload, end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 perfbench/run.py --workload oco-sweep --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
Workloads are defined in ``workloads.py``; ``README.md`` says what each one
stresses and which metric each layer should move.

End to end, every measurement is a fresh interpreter (``child.py``):

* ``setup_s``: from starting the interpreter to the point where the program
  call can start (numpy and scream imported, the workload's config built by
  the CLI's parser), the median of every interpreter the run starts;
* ``run_s``, ``cpu_s``, ``peak_rss_mb``: medians over the program calls the
  run makes.  Calls are whole sweeps, made in rounds by a closed loop of
  ``Workload.clients`` clients (calls side by side); rounds repeat while the
  next one is expected to end within ``--seconds`` (at least one).

The first call's outputs are then checked (``checks.py``) and every other
call's outputs must equal them.  With ``--trace 1`` one interpreter makes the
program call, checks it, and makes it again in-process, untraced and then with
a span around each call into a layer (``layers.py``); the spans are written to
``perfbench/out/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Set-up-only interpreters started before the calls, so that setup_s is a
# median of several samples even when one call fills the run.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def start(root: Path, mode: str, workload: str, config: Path, out: Path, *extra: str):
    """Start one child interpreter; ``finish`` waits for it."""
    env = dict(os.environ)
    env.pop("SCREAM_WORKERS", None)  # the program's default worker pool
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", workload,
           "--config", str(config), "--out", str(out), *extra]
    began = time.monotonic()
    # its own process group, so that a timeout also ends the program's pool workers
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    return proc, began, mode


def finish(child) -> dict:
    """Wait for a child to end; its result, with setup_s and wall_s added."""
    proc, began, mode = child
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, began + CHILD_TIMEOUT_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{stderr[-4000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - began
    result["wall_s"] = time.monotonic() - began
    return result


def spawn(*args) -> dict:
    return finish(start(*args))


def end_to_end(root: Path, workload: str, config: Path, run_dir: Path, seconds: float) -> dict:
    setups = [spawn(root, "setup", workload, config, run_dir / "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    clients = min(WORKLOADS[workload].clients, os.cpu_count() or 1)
    calls = []
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        children = [start(root, "call", workload, config, run_dir / f"call{len(calls) + i}")
                    for i in range(clients)]
        try:
            calls += [finish(child) for child in children]
        finally:
            for proc, _, _ in children:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
        if 2 * time.monotonic() - began > deadline:
            break
    others = [str(run_dir / f"call{i}") for i in range(1, len(calls))]
    check = spawn(root, "check", workload, config, run_dir / "call0", "--same-as", *others)
    values = {"setup_s": statistics.median(setups + [c["setup_s"] for c in calls])}
    for name in ("run_s", "cpu_s", "peak_rss_mb"):
        values[name] = statistics.median(c[name] for c in calls)
    return {
        "errors": check["errors"],
        "attempted": sum(c["attempted"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()},
    }


def layer_by_layer(root: Path, workload: str, seed: int, config: Path, run_dir: Path,
                   seconds: float) -> dict:
    trace_file = root / "perfbench" / "out" / "traces" / f"{workload}-s{seed}.json"
    return spawn(root, "trace", workload, config, run_dir, "--seconds", str(seconds),
                 "--trace-file", str(trace_file))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scream" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'scream'} is missing; "
              "run from the root of a scream checkout", file=sys.stderr)
        return 2

    run_dir = root / "perfbench" / "out" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        run_dir.mkdir(parents=True)
        config = run_dir / "workload.cfg"
        config.write_text(WORKLOADS[args.workload].config_text(args.seed), encoding="utf-8")
        if args.trace:
            result = layer_by_layer(root, args.workload, args.seed, config, run_dir, args.seconds)
        else:
            result = end_to_end(root, args.workload, config, run_dir, args.seconds)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not result["errors"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
