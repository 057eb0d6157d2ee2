"""Output checks of the benchmark workloads.

Each check compares what the program printed with a computation made here,
apart from the program, or with a property the method must have.  None
compares against a stored copy of earlier output.  A check returns a list of
messages, one per violation; an empty list passes.

The ``verify_*`` functions at the end gather the inputs a workload's checks
need (the generated streams and systems, which are the program's inputs) and
run them on one output directory.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from scream.bench import gen_control_scenario, gen_piecewise_regression
from scream.control import best_fixed_dac_per_segment, run_scream_control

# Floating-point slack for a quantity recomputed here in another summation order.
FP_REL = 1e-9


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def half_unit(text: str) -> float:
    """Half a unit in the last place of a value printed with 9 significant digits."""
    x = abs(float(text))
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(x)) - 8)


def matches(text: str, value: float) -> bool:
    """Printed ``text`` equals the recomputed ``value`` up to printing and summation order."""
    return abs(float(text) - value) <= half_unit(text) + FP_REL * abs(value)


# ---------------------------------------------------------------------------
# OCO rows (results.csv, summary.csv)
# ---------------------------------------------------------------------------

def check_overall_sum(rows) -> list[str]:
    """overall_loss = cumulative_loss + switching_cost at the printed digits."""
    errors = []
    for r in rows:
        o, c, s = r["overall_loss"], r["cumulative_loss"], r["switching_cost"]
        slack = half_unit(o) + half_unit(c) + half_unit(s) + 1e-15 * abs(float(o))
        if abs(float(o) - (float(c) + float(s))) > slack:
            errors.append(f"{_key(r)}: overall_loss {o} != cumulative_loss {c} + switching_cost {s}")
    return errors


def stream_reference(X, y, truths) -> tuple[float, float]:
    """(comparator cumulative loss, comparator path length) of a square-loss stream."""
    residual = np.einsum("td,td->t", X, truths) - y
    comparator_loss = 0.5 * float(np.sum(residual ** 2))
    path = float(np.sum(np.linalg.norm(np.diff(truths, axis=0), axis=1)))
    return comparator_loss, path


def check_stream_rows(rows, references) -> list[str]:
    """path_length and dynamic_regret against ``references[seed] = stream_reference(...)``."""
    errors = []
    for r in rows:
        comparator_loss, path = references[int(r["seed"])]
        if not matches(r["path_length"], path):
            errors.append(f"{_key(r)}: path_length {r['path_length']} != recomputed {path!r}")
        cumulative = float(r["cumulative_loss"])
        expected = cumulative - comparator_loss
        if abs(float(r["dynamic_regret"]) - expected) > (
                half_unit(r["dynamic_regret"]) + half_unit(r["cumulative_loss"])
                + FP_REL * (abs(cumulative) + abs(comparator_loss))):
            errors.append(f"{_key(r)}: dynamic_regret {r['dynamic_regret']} != cumulative_loss "
                          f"minus recomputed comparator loss {comparator_loss!r}")
    return errors


def reference_ogd(X, y, diameter: float, grad_bound: float) -> tuple[float, float]:
    """Projected gradient descent on the square-loss stream, written apart from the program.

    Step size eta = sqrt(2 D^2 / (G^2 T)); a step that leaves the ball of radius
    D/2 is rescaled onto it.  Returns (cumulative loss, movement of the decisions).
    """
    T, d = X.shape
    eta = math.sqrt(2.0 * diameter ** 2 / (grad_bound ** 2 * T))
    radius = diameter / 2.0
    w = np.zeros(d)
    decisions = np.empty((T, d))
    for t in range(T):
        decisions[t] = w
        x = X[t]
        w = w - eta * (float(w @ x) - y[t]) * x
        norm = float(np.linalg.norm(w))
        if norm > radius:
            w = w * (radius / norm)
    residual = np.einsum("td,td->t", decisions, X) - y
    cumulative = 0.5 * float(np.sum(residual ** 2))
    movement = float(np.sum(np.linalg.norm(np.diff(decisions, axis=0), axis=1)))
    return cumulative, movement


def check_ogd_rows(rows, references, grad_bound: float) -> list[str]:
    """ogd rows against ``references[seed] = reference_ogd(...)``; lam = alpha * G."""
    errors = []
    for r in rows:
        if r["algorithm"] != "ogd":
            continue
        cumulative, movement = references[int(r["seed"])]
        if not matches(r["cumulative_loss"], cumulative):
            errors.append(f"{_key(r)}: cumulative_loss {r['cumulative_loss']} != reference "
                          f"projected gradient descent {cumulative!r}")
        switching = float(r["alpha"]) * grad_bound * movement
        if not matches(r["switching_cost"], switching):
            errors.append(f"{_key(r)}: switching_cost {r['switching_cost']} != reference "
                          f"{switching!r}")
    return errors


def check_alpha_invariance(rows) -> list[str]:
    """ogd and ader: equal cumulative loss across alphas, switching cost proportional to alpha.

    Their learners ignore the movement weight; it enters only their report.
    """
    errors = []
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        if r["algorithm"] in ("ogd", "ader"):
            groups.setdefault((r["algorithm"], r["seed"]), []).append(r)
    for (algorithm, seed), members in sorted(groups.items()):
        first = members[0]
        per_alpha = float(first["switching_cost"]) / float(first["alpha"])
        for r in members[1:]:
            if float(r["cumulative_loss"]) != float(first["cumulative_loss"]):
                errors.append(f"{algorithm} seed {seed}: cumulative_loss differs between alpha "
                              f"{first['alpha']} ({first['cumulative_loss']}) and alpha "
                              f"{r['alpha']} ({r['cumulative_loss']})")
            alpha = float(r["alpha"])
            slack = (half_unit(r["switching_cost"]) / alpha
                     + half_unit(first["switching_cost"]) / float(first["alpha"])
                     + FP_REL * abs(per_alpha))
            if abs(float(r["switching_cost"]) / alpha - per_alpha) > slack:
                errors.append(f"{algorithm} seed {seed}: switching_cost is not proportional to "
                              f"alpha ({first['switching_cost']} at {first['alpha']}, "
                              f"{r['switching_cost']} at {r['alpha']})")
    return errors


def check_orderings(summary_rows) -> list[str]:
    """The paper's orderings on seed means (acceptance criterion 1)."""
    overall = {(r["algorithm"], float(r["alpha"])): float(r["overall_mean"]) for r in summary_rows}
    switching = {(r["algorithm"], float(r["alpha"])): float(r["switching_mean"]) for r in summary_rows}
    errors = []
    for other in ("ogd", "ader"):
        if not overall[("scream", 0.5)] < overall[(other, 0.5)]:
            errors.append(f"alpha 0.5: scream overall {overall[('scream', 0.5)]:.6g} is not "
                          f"below {other} {overall[(other, 0.5)]:.6g}")
    if not overall[("ader", 0.1)] <= 1.05 * overall[("scream", 0.1)]:
        errors.append(f"alpha 0.1: ader overall {overall[('ader', 0.1)]:.6g} exceeds 1.05 x "
                      f"scream {overall[('scream', 0.1)]:.6g}")
    if not overall[("ogd", 1.0)] <= 1.05 * overall[("scream", 1.0)]:
        errors.append(f"alpha 1: ogd overall {overall[('ogd', 1.0)]:.6g} exceeds 1.05 x "
                      f"scream {overall[('scream', 1.0)]:.6g}")
    for alpha in (0.5, 1.0):
        if not switching[("ader", alpha)] >= 3.0 * switching[("scream", alpha)]:
            errors.append(f"alpha {alpha:g}: ader switching {switching[('ader', alpha)]:.6g} is "
                          f"below 3 x scream {switching[('scream', alpha)]:.6g}")
    return errors


# ---------------------------------------------------------------------------
# control rows (control_results.csv)
# ---------------------------------------------------------------------------

def dac_rollout(A, B, K, params, disturbances, targets, control_weights, x0=None) -> np.ndarray:
    """Per-round cost of x' = A x + B u + w under u = -K x + sum_k M_t[k] w_{t-1-k}.

    ``params`` holds one DAC parameter set (H, d_u, d_x) per round; costs are
    ||x - target_t||^2 + rho_t ||u||^2.  Disturbances before round one are zero.
    """
    params = np.asarray(params, dtype=float)
    w = np.asarray(disturbances, dtype=float)
    T, H = params.shape[:2]
    d_x = A.shape[0]
    padded = np.vstack([np.zeros((H, d_x)), w])
    lags = padded[H + np.arange(T)[:, None] - 1 - np.arange(H)[None, :]]   # (T, H, d_x)
    offsets = np.einsum("tkux,tkx->tu", params, lags)
    x = np.zeros(d_x) if x0 is None else np.asarray(x0, dtype=float)
    costs = np.empty(T)
    for t in range(T):
        u = offsets[t] - K @ x
        dx = x - targets[t]
        costs[t] = dx @ dx + control_weights[t] * (u @ u)
        x = A @ x + B @ u + w[t]
    return costs


def check_control_rows(rows, references) -> list[str]:
    """Rows against ``references[seed] = (played cost, comparator cost, comparator path)``."""
    errors = []
    for r in rows:
        played, comparator, path = references[int(r["seed"])]
        if not matches(r["cumulative_loss"], played):
            errors.append(f"{_key(r)}: cumulative_loss {r['cumulative_loss']} != re-simulated "
                          f"{played!r}")
        expected = played - comparator
        if abs(float(r["dynamic_regret"]) - expected) > (
                half_unit(r["dynamic_regret"]) + FP_REL * (abs(played) + abs(comparator))):
            errors.append(f"{_key(r)}: dynamic_regret {r['dynamic_regret']} != re-simulated "
                          f"{expected!r}")
        if not matches(r["path_length"], path):
            errors.append(f"{_key(r)}: path_length {r['path_length']} != comparator movement "
                          f"{path!r}")
    return errors


def spectral_caps(kappa: float, gamma: float, kappa_B: float, H: int) -> np.ndarray:
    """Cap of block k = 0..H-1: kappa_B kappa^3 (1 - gamma)^(k + 1)."""
    return kappa_B * kappa ** 3 * (1.0 - gamma) ** np.arange(1, H + 1)


def check_comparator_caps(comparators, caps, label: str = "") -> list[str]:
    """Every block's spectral norm, by this module's own SVD, within its cap."""
    norms = np.linalg.svd(np.asarray(comparators, dtype=float), compute_uv=False)[..., 0]
    over = norms - np.asarray(caps)
    if np.all(over <= 1e-9):
        return []
    return [f"{label}comparator block spectral norm exceeds its cap by {float(over.max()):.3g}"]


def check_meta_slack(slack: float, label: str = "") -> list[str]:
    if slack <= 1e-9:
        return []
    return [f"{label}meta movement slack {slack:.3g} exceeds 1e-9"]


def check_one_gradient(grad_calls: float, rounds: float, label: str) -> list[str]:
    """The method takes one gradient of the round's loss per learning round, counted at the oracle."""
    if grad_calls == rounds:
        return []
    return [f"{label}: {grad_calls:g} gradient evaluations in {rounds:g} learning rounds; "
            "the method takes exactly one per round"]


# ---------------------------------------------------------------------------
# identification report (sysid_report.json)
# ---------------------------------------------------------------------------

def check_sysid_report(report, n_seeds: int) -> list[str]:
    """Medians of err_A recomputed from the trials fall with the budget; slope in [-0.8, -0.3]."""
    budgets = [int(b) for b in report["budgets"]]
    errors = []
    if len(report["trials"]) != len(budgets) * n_seeds:
        errors.append(f"{len(report['trials'])} trials, expected {len(budgets) * n_seeds}")
    err = {b: [t["err_A"] for t in report["trials"] if t["T0"] == b] for b in budgets}
    medians = np.array([np.median(err[b]) for b in budgets])
    for b, m in zip(budgets, medians):
        if not math.isclose(report["median_err_A"][str(b)], float(m), rel_tol=1e-12):
            errors.append(f"budget {b}: reported median err_A {report['median_err_A'][str(b)]!r} "
                          f"!= recomputed {float(m)!r}")
    if not np.all(np.diff(medians) < 0):
        errors.append(f"median err_A does not fall as the budget grows: {medians.tolist()}")
    slope = float(np.polyfit(np.log(budgets), np.log(medians), 1)[0])
    if not math.isclose(report["loglog_slope"], slope, rel_tol=1e-9):
        errors.append(f"reported log-log slope {report['loglog_slope']!r} != recomputed {slope!r}")
    if not -0.8 <= slope <= -0.3:
        errors.append(f"log-log slope {slope:.3f} outside [-0.8, -0.3]")
    return errors


def _key(row) -> str:
    return f"{row['algorithm']} alpha {row['alpha']} seed {row['seed']}"


# ---------------------------------------------------------------------------
# whole-workload verification of one output directory
# ---------------------------------------------------------------------------

def verify_oco(config, outdir) -> list[str]:
    """All OCO checks; the orderings only where every algorithm ran at alphas 0.1, 0.5 and 1."""
    rows = read_csv(Path(outdir) / "results.csv")
    streams = {seed: gen_piecewise_regression(config, seed) for seed in config.seeds}
    errors = _count_rows(rows, len(config.algorithms) * len(config.alphas) * len(config.seeds))
    errors += check_overall_sum(rows)
    errors += check_stream_rows(rows, {seed: stream_reference(s.X, s.y, s.truths)
                                       for seed, s in streams.items()})
    if "ogd" in config.algorithms:
        errors += check_ogd_rows(rows, {seed: reference_ogd(s.X, s.y, config.diameter,
                                                            config.grad_bound)
                                        for seed, s in streams.items()}, config.grad_bound)
    errors += check_alpha_invariance(rows)
    if set(config.algorithms) >= {"ogd", "ader", "scream"} and set(config.alphas) >= {0.1, 0.5, 1.0}:
        errors += check_orderings(read_csv(Path(outdir) / "summary.csv"))
    return errors


def verify_control(scenario, outdir) -> list[str]:
    """Re-runs each seed's controller through the public API to read the parameters it played."""
    rows = read_csv(Path(outdir) / "control_results.csv")
    errors = _count_rows(rows, len(scenario.seeds))
    references = {}
    for seed in scenario.seeds:
        loop, feasible, config, costs, disturbances = gen_control_scenario(scenario, seed)
        run = run_scream_control(loop, loop.system, disturbances, costs, config, feasible=feasible)
        comparators = best_fixed_dac_per_segment(loop, costs, disturbances, scenario.segments(),
                                                 feasible)
        system = loop.system
        targets = np.array([c.target for c in costs])
        weights = np.array([c.control_weight for c in costs])
        played = dac_rollout(system.A, system.B, loop.K, run.params, disturbances, targets, weights)
        compared = dac_rollout(system.A, system.B, loop.K, comparators, disturbances, targets,
                               weights)
        flat = comparators.reshape(len(comparators), -1)
        path = float(np.sum(np.linalg.norm(np.diff(flat, axis=0), axis=1)))
        references[seed] = (float(np.sum(played)), float(np.sum(compared)), path)
        caps = spectral_caps(loop.kappa, loop.gamma, system.kappa_B, scenario.H)
        errors += check_comparator_caps(comparators, caps, f"seed {seed}: ")
        errors += check_meta_slack(run.controller.meta_movement_slack, f"seed {seed}: ")
    errors += check_control_rows(rows, references)
    return errors


def verify_sysid(scenario, outdir) -> list[str]:
    report = json.loads((Path(outdir) / "sysid_report.json").read_text(encoding="utf-8"))
    return check_sysid_report(report, len(scenario.seeds))


VERIFY = {"oco": verify_oco, "control": verify_control, "sysid": verify_sysid}


def check_same_outputs(expected_dir, actual_dir) -> list[str]:
    """The same files with the same content; ``wall_time_ms``, the one measured column, excepted."""
    expected_dir, actual_dir = Path(expected_dir), Path(actual_dir)
    names = sorted(p.name for p in expected_dir.iterdir() if p.is_file())
    found = sorted(p.name for p in actual_dir.iterdir() if p.is_file())
    if names != found:
        return [f"{actual_dir.name}: files {found} differ from {expected_dir.name}: {names}"]
    errors = []
    for name in names:
        if name.endswith(".csv"):
            a, b = read_csv(expected_dir / name), read_csv(actual_dir / name)
            for row in a + b:
                row.pop("wall_time_ms", None)
            same = a == b
        else:
            same = (expected_dir / name).read_bytes() == (actual_dir / name).read_bytes()
        if not same:
            errors.append(f"{actual_dir.name}/{name} differs from {expected_dir.name}/{name}")
    return errors


def _count_rows(rows, expected: int) -> list[str]:
    return [] if len(rows) == expected else [f"{len(rows)} result rows, expected {expected}"]
