"""Layer-by-layer runs: the program's own sweep call, with a span around each call into a layer.

``traced(tracer)`` puts a recording wrapper in place of each name through which
``bench`` and ``learners`` reach a layer (``bench``, ``learners``, ``oco``,
``control``, ``dac``, ``lds``, ``sysid``, ``csvio``), for the length of a
``with`` block.  Inside it the workload's program call runs unchanged, so
every span and count comes from the program's own code.  Counts are taken
from the wrapped calls' arguments and return values, and gradients are
counted where the oracles count them (``MemoryLoss.grad_calls``,
``QuadraticTrackingCost.grad_calls``), not where a learner says it took one.
The same call made without the wrappers gives the untraced time; the
difference is the tracing overhead.

OCO cells run serially here (``parallel=False``): spans recorded in a pool
worker would stay in that worker.  ``bench.parallel_efficiency`` relates these
serial cell seconds to the pooled program call's ``run_s``.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from scream import bench, learners


class Tracer:
    """Spans (id, name, start, end, parent) and counts, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def dump(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}),
                              encoding="utf-8")


def pool_workers(kind: str, config) -> int:
    """Workers bench.run_benchmark runs the cells on (its own rule); 1 without the pool."""
    if kind != "oco":
        return 1
    cells = len(config.algorithms) * len(config.alphas) * len(config.seeds)
    return bench.worker_count() if cells > 1 and bench.worker_count() > 1 else 1


def _distinct_rows(array, rows: int) -> int:
    return len(np.unique(np.asarray(array).reshape(rows, -1), axis=0))


def _hooks(tracer: Tracer, costs: list):
    """(owner, name, span, before, after) for every wrapped name.

    ``before(args)`` runs ahead of the span and returns what ``after(result,
    args, before_value)`` needs; ``args`` maps the call's parameter names to
    its arguments.
    """
    count = tracer.count

    def cost_grads(args):
        return sum(c.grad_calls for c in args["costs"])

    def online(run, args, _):
        count("learners.rounds", run.T)
        count("learners.grad_evals", sum(loss.grad_calls for loss in run.losses))

    def regret(_, args, __):
        candidates = _distinct_rows(args["comparators"], len(args["losses"]))
        count("oco.comparator_candidates", candidates)
        count("oco.oracle_evals", len(args["losses"]) * (2 + candidates))

    def control_run(run, args, grads_before):
        count("control.rounds", run.T)
        count("control.learning_rounds", run.T - args["config"].H)
        count("control.grad_evals", cost_grads(args) - grads_before)

    def replay(_, args, __):
        count("control.replays", 1 + _distinct_rows(args["comparator_params"], args["run"].T))

    def identify(_, args, __):
        count("bench.cells")
        count("sysid.explore_rounds", args["config"].T0)

    return [
        (bench, "run_cell", "bench.cell", None, lambda *_: count("bench.cells")),
        (bench, "run_control_cell", "bench.cell", None, lambda *_: count("bench.cells")),
        (bench, "gen_piecewise_regression", "bench.stream", None, None),
        (bench.RegressionStream, "losses", "bench.oracles", None,
         lambda result, *_: count("bench.oracles", len(result))),
        (learners, "run_online", "learners.run_online", None, online),
        (learners, "regret_metrics", "oco.regret_metrics", None, regret),
        (bench, "gen_control_scenario", "bench.scenario", None,
         lambda result, *_: costs.extend(result[3])),
        (bench, "preset", "lds.preset", None, None),
        (bench, "run_scream_control", "control.run", cost_grads, control_run),
        (bench, "best_fixed_dac_per_segment", "control.comparators", None, None),
        (bench, "dynamic_policy_regret_control", "control.replay", None, replay),
        (bench, "identify_system", "sysid.identify", None, identify),
        (bench, "emit_csv", "csvio.emit", None,
         lambda _, args, __: count("csvio.bytes", Path(args["path"]).stat().st_size)),
    ]


def _wrapper(tracer: Tracer, original, span_name: str, before, after):
    signature = inspect.signature(original)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments if before or after else None
        ahead = before(bound) if before else None
        with tracer.span(span_name):
            result = original(*args, **kwargs)
        if after:
            after(result, bound, ahead)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Record spans and counts of every layer call the program makes inside the block."""
    costs: list = []
    originals = []
    try:
        for owner, name, span_name, before, after in _hooks(tracer, costs):
            original = getattr(owner, name)
            originals.append((owner, name, original))
            setattr(owner, name, _wrapper(tracer, original, span_name, before, after))
        yield tracer
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
        tracer.count("dac.cost_value_calls", sum(c.value_calls for c in costs))
        tracer.count("dac.cost_grad_calls", sum(c.grad_calls for c in costs))


# ---------------------------------------------------------------------------
# per-layer metrics from one traced run
# ---------------------------------------------------------------------------

PER_LAYER = {
    # name: unit
    "bench.stream_s": "s", "bench.oracles_s": "s", "bench.oracles": "count",
    "bench.scenario_s": "s", "lds.preset_s": "s", "bench.cells": "count",
    "bench.parallel_efficiency": "ratio",
    "learners.run_online_s": "s", "learners.rounds": "count", "learners.round_us": "us",
    "learners.grad_evals_per_round": "ratio",
    "oco.regret_metrics_s": "s", "oco.comparator_candidates": "count",
    "oco.oracle_evals": "count",
    "control.run_s": "s", "control.rounds": "count", "control.round_us": "us",
    "control.grad_evals_per_round": "ratio", "control.comparators_s": "s",
    "control.replay_s": "s", "control.replays": "count",
    "dac.cost_value_calls": "count", "dac.cost_grad_calls": "count",
    "sysid.identify_s": "s", "sysid.explore_rounds": "count", "sysid.round_us": "us",
    "csvio.emit_s": "s", "csvio.bytes": "bytes",
    "trace.total_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_s: float, workers: int) -> dict[str, float]:
    """Per-layer values of one traced call; layers that did not run read 0.

    ``run_s`` and ``workers`` are the program call's wall time and pool size;
    the cell seconds traced here are serial.
    """
    c, sec = tracer.counts, tracer.seconds
    return {
        "bench.stream_s": sec("bench.stream"),
        "bench.oracles_s": sec("bench.oracles"),
        "bench.oracles": c["bench.oracles"],
        "bench.scenario_s": sec("bench.scenario"),
        "lds.preset_s": sec("lds.preset"),
        "bench.cells": c["bench.cells"],
        "bench.parallel_efficiency": _ratio(sec("bench.cell"), run_s * workers),
        "learners.run_online_s": sec("learners.run_online"),
        "learners.rounds": c["learners.rounds"],
        "learners.round_us": 1e6 * _ratio(sec("learners.run_online"), c["learners.rounds"]),
        "learners.grad_evals_per_round": _ratio(c["learners.grad_evals"], c["learners.rounds"]),
        "oco.regret_metrics_s": sec("oco.regret_metrics"),
        "oco.comparator_candidates": c["oco.comparator_candidates"],
        "oco.oracle_evals": c["oco.oracle_evals"],
        "control.run_s": sec("control.run"),
        "control.rounds": c["control.rounds"],
        "control.round_us": 1e6 * _ratio(sec("control.run"), c["control.rounds"]),
        "control.grad_evals_per_round": _ratio(c["control.grad_evals"],
                                               c["control.learning_rounds"]),
        "control.comparators_s": sec("control.comparators"),
        "control.replay_s": sec("control.replay"),
        "control.replays": c["control.replays"],
        "dac.cost_value_calls": c["dac.cost_value_calls"],
        "dac.cost_grad_calls": c["dac.cost_grad_calls"],
        "sysid.identify_s": sec("sysid.identify"),
        "sysid.explore_rounds": c["sysid.explore_rounds"],
        "sysid.round_us": 1e6 * _ratio(sec("sysid.identify"), c["sysid.explore_rounds"]),
        "csvio.emit_s": sec("csvio.emit"),
        "csvio.bytes": c["csvio.bytes"],
        "trace.spans": len(tracer.spans),
    }
