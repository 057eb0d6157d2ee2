"""Benchmark harness: scenario generation, multi-seed experiment cells, CSV emission.

The regression benchmark streams square losses whose ground-truth model jumps
between segments; each (algorithm, regularizer weight, seed) cell is an
independent job.  The movement-weighted objective reported per cell is
overall = cumulative loss + lam * switching cost with lam = alpha * G.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .control import (ControlConfig, best_fixed_dac_per_segment, control_trajectory_rows,
                      dynamic_policy_regret_control, run_scream_control, segment_boundaries)
from .csvio import emit_csv
from .dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lipschitz_constants,
                  state_action_bound, tracking_grad_coeff)
from .lds import preset, preset_names
from .learners import ScreamConfig, run_ader, run_ogd_memory, run_scream, trajectory_rows
from .oco import ContractViolation, DomainBall, SquareLossStream
from .sysid import IdentificationConfig, identify_system

RESULT_COLUMNS = ("scenario", "algorithm", "seed", "alpha", "overall_loss", "cumulative_loss",
                  "switching_cost", "dynamic_regret", "path_length", "wall_time_ms")

SUMMARY_COLUMNS = ("scenario", "algorithm", "alpha", "n_seeds",
                   "overall_mean", "overall_std", "cumulative_mean", "cumulative_std",
                   "switching_mean", "switching_std", "dynamic_regret_mean", "dynamic_regret_std")

ALGORITHMS = ("ogd", "ader", "scream")


def worker_count() -> int:
    """Pool size: ``SCREAM_WORKERS`` (an integer >= 1) if set, else 4; at most the cpu count.

    A value that is not an integer >= 1 raises ``ValueError``.
    """
    cpus = os.cpu_count() or 1
    env = os.environ.get("SCREAM_WORKERS")
    if not env:
        return min(4, cpus)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SCREAM_WORKERS must be an integer >= 1, got {env!r}")
    return min(workers, cpus)


@dataclass(frozen=True)
class ExperimentConfig:
    """Regression benchmark configuration (defaults reproduce the standard setup)."""

    scenario: str = "piecewise-regression"
    T: int = 20000
    d: int = 10
    segment_length: int = 2000
    feature_radius: float = 1.0   # Gamma
    diameter: float = 2.0         # D
    noise_low: float = 0.0
    noise_high: float = 0.1
    truth_radius: float | None = None  # None: derived, see model_radius
    alphas: tuple[float, ...] = (0.1, 0.5, 1.0)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    algorithms: tuple[str, ...] = ALGORITHMS
    outdir: str = "bench-out"
    per_round: bool = False

    def __post_init__(self):
        if not (self.alphas and self.algorithms and self.seeds):
            raise ContractViolation("alphas, algorithms and seeds must each name at least one value")
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                raise ContractViolation(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
        if self.T < 1 or self.d < 1 or self.segment_length < 1:
            raise ContractViolation("T, d and segment_length must be positive")
        if not all(math.isfinite(alpha) and alpha >= 0 for alpha in self.alphas):
            raise ContractViolation(f"alphas must be finite and non-negative, got {self.alphas}")
        if not (math.isfinite(self.noise_low) and math.isfinite(self.noise_high)
                and self.noise_low <= self.noise_high):
            raise ContractViolation("noise bounds must be finite with noise_low <= noise_high, "
                                    f"got [{self.noise_low}, {self.noise_high}]")
        if not 0 < self.model_radius <= self.diameter / 2.0:
            raise ContractViolation("truth radius must lie in (0, D/2]")

    @property
    def grad_bound(self) -> float:
        return self.diameter * self.feature_radius ** 2  # G = D * Gamma^2

    @property
    def model_radius(self) -> float:
        """Radius of the ground-truth models: ``truth_radius``, or derived when that is None.

        The derived radius is the largest for which the worst-case gradient
        norm, noise included, stays within G = D * Gamma^2:
        Gamma^2 (D/2 + r) + |noise| * Gamma <= G, with |noise| at most
        max(|noise_low|, |noise_high|).
        """
        if self.truth_radius is not None:
            return self.truth_radius
        noise = max(abs(self.noise_low), abs(self.noise_high))
        bound = ((self.grad_bound - noise * self.feature_radius)
                 / self.feature_radius ** 2 - self.diameter / 2.0)
        return min(bound, self.diameter / 2.0)


def _uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal((n, dim))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / dim)
    return direction * radii


@dataclass
class RegressionStream:
    """Materialized square-loss stream with its ground-truth comparator sequence."""

    X: np.ndarray        # (T, d) features
    y: np.ndarray        # (T,) targets
    truths: np.ndarray   # (T, d) ground-truth model per round

    @property
    def comparators(self) -> np.ndarray:
        return self.truths

    def losses(self) -> SquareLossStream:
        """A fresh array-backed oracle stream (its gradient counters start at zero)."""
        return SquareLossStream(self.X, self.y)


def gen_piecewise_regression(config: ExperimentConfig, seed: int) -> RegressionStream:
    """Features uniform in the Gamma-ball; targets from a segment-wise model plus noise.

    The ground-truth model is redrawn every ``segment_length`` rounds from the
    ball of radius ``model_radius``, by default the largest value keeping the
    declared gradient bound valid for every feasible decision.
    """
    rng = np.random.default_rng(seed)
    T, d = config.T, config.d
    X = _uniform_ball(rng, T, d, config.feature_radius)
    n_seg = (T + config.segment_length - 1) // config.segment_length
    models = _uniform_ball(rng, n_seg, d, config.model_radius)
    truths = models[np.arange(T) // config.segment_length]
    noise = rng.uniform(config.noise_low, config.noise_high, T)
    y = np.einsum("td,td->t", X, truths) + noise
    return RegressionStream(X, y, truths)


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    algorithm: str
    seed: int
    alpha: float
    overall_loss: float
    cumulative_loss: float
    switching_cost: float
    dynamic_regret: float
    path_length: float
    wall_time_ms: float

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in RESULT_COLUMNS}


def _oco_learner_run(config: ExperimentConfig, algorithm: str, lam: float, losses, comparators,
                     record_weights: bool):
    domain = DomainBall(config.d, config.diameter)
    base = ScreamConfig(T=config.T, grad_bound=config.grad_bound, diameter=config.diameter,
                        memory=0, lam=lam if algorithm == "scream" else 0.0)
    if algorithm == "scream":
        return run_scream(base, losses, domain, comparators=comparators, report_lam=lam,
                          record_weights=record_weights)
    if algorithm == "ader":
        return run_ader(base, losses, domain, comparators=comparators, report_lam=lam,
                        record_weights=record_weights)
    if algorithm == "ogd":
        return run_ogd_memory(base, losses, domain, comparators=comparators, report_lam=lam)
    raise ContractViolation(f"unknown algorithm {algorithm!r}")


def check_movement_bounds(learner, grad_bound: float, T: int) -> None:
    """Per-run movement guarantees: meta l1 steps and cumulative gradient-descent movement."""
    slack = getattr(learner, "meta_movement_slack", None)
    if slack is not None and slack > 1e-9:
        raise AssertionError(f"meta movement bound violated by {slack:.3g}")
    switching = getattr(learner, "switching", None)
    if switching is not None:
        cap = learner.step_size * grad_bound * T
        if switching > cap + 1e-9:
            raise AssertionError(f"gradient-descent switching {switching:.6g} exceeds eta*G*T = {cap:.6g}")
    per_expert = getattr(learner, "expert_switching", None)
    if per_expert is not None:
        caps = learner.etas * grad_bound * T
        if np.any(per_expert > caps + 1e-9):
            raise AssertionError("an expert's switching cost exceeds its eta_i*G*T cap")


def run_cell(config: ExperimentConfig, algorithm: str, alpha: float, seed: int,
             record_weights: bool = False):
    """One experiment cell; returns (ResultRow, per-round rows or None)."""
    stream = gen_piecewise_regression(config, seed)
    losses = stream.losses()
    lam = alpha * config.grad_bound
    start = time.perf_counter()
    run, report = _oco_learner_run(config, algorithm, lam, losses, stream.comparators,
                                   record_weights)
    wall_ms = (time.perf_counter() - start) * 1000.0
    check_movement_bounds(run.learner, config.grad_bound, config.T)
    row = ResultRow(
        scenario=config.scenario,
        algorithm=algorithm,
        seed=seed,
        alpha=alpha,
        overall_loss=report.overall_loss,
        cumulative_loss=report.cumulative_loss,
        switching_cost=report.switching_cost,
        dynamic_regret=report.dynamic_policy_regret,
        path_length=report.path_length,
        wall_time_ms=wall_ms,
    )
    per_round = trajectory_rows(run, include_weights=record_weights) if config.per_round else None
    return row, per_round


def _cell_task(args):
    config, algorithm, alpha, seed = args
    try:
        row, per_round = run_cell(config, algorithm, alpha, seed)
        return ("ok", (algorithm, alpha, seed), row, per_round)
    except Exception as exc:  # per-cell failures are recorded; the sweep continues
        return ("error", (algorithm, alpha, seed), f"{type(exc).__name__}: {exc}", None)


@dataclass
class BenchmarkResult:
    rows: list[ResultRow]
    failures: list[tuple]
    outdir: Path

    @property
    def ok(self) -> bool:
        return not self.failures


def run_benchmark(config: ExperimentConfig, parallel: bool = True) -> BenchmarkResult:
    """Run every (algorithm, alpha, seed) cell and write results plus a summary CSV."""
    cells = [(config, algorithm, alpha, seed)
             for algorithm in config.algorithms
             for alpha in config.alphas
             for seed in config.seeds]
    workers = min(worker_count(), len(cells)) if parallel else 1
    if workers > 1:
        # imported here: multiprocessing adds about 15 ms to every start-up that builds no pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_cell_task, cells))
    else:
        results = [_cell_task(c) for c in cells]

    rows, failures = [], []
    outdir = Path(config.outdir)
    for status, key, payload, per_round in results:
        if status == "ok":
            rows.append(payload)
            if per_round is not None:
                algorithm, alpha, seed = key
                name = f"rounds_{config.scenario}_{algorithm}_a{alpha:g}_s{seed}.csv"
                emit_csv(per_round, list(per_round[0].keys()), outdir / name)
        else:
            failures.append((key, payload))

    rows.sort(key=lambda r: (r.scenario, r.algorithm, r.alpha, r.seed))
    emit_csv([r.as_dict() for r in rows], RESULT_COLUMNS, outdir / "results.csv")
    emit_csv(summarize(rows), SUMMARY_COLUMNS, outdir / "summary.csv")
    write_failures(failures, outdir)
    return BenchmarkResult(rows, failures, outdir)


def write_failures(failures, outdir: Path) -> None:
    """Record failed cells in ``failures.txt``, one ``key: exception`` line each; none, no file."""
    if failures:
        lines = [f"{key}: {msg}" for key, msg in failures]
        (outdir / "failures.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def summarize(rows) -> list[dict]:
    """Mean and standard deviation over seeds for each (scenario, algorithm, alpha) group."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.scenario, row.algorithm, row.alpha), []).append(row)
    out = []
    for (scenario, algorithm, alpha), members in sorted(groups.items()):
        def stats(attr):
            values = np.array([getattr(m, attr) for m in members], dtype=float)
            return float(values.mean()), float(values.std())
        overall = stats("overall_loss")
        cumulative = stats("cumulative_loss")
        switching = stats("switching_cost")
        regret = stats("dynamic_regret")
        out.append({
            "scenario": scenario, "algorithm": algorithm, "alpha": alpha, "n_seeds": len(members),
            "overall_mean": overall[0], "overall_std": overall[1],
            "cumulative_mean": cumulative[0], "cumulative_std": cumulative[1],
            "switching_mean": switching[0], "switching_std": switching[1],
            "dynamic_regret_mean": regret[0], "dynamic_regret_std": regret[1],
        })
    return out


# ---------------------------------------------------------------------------
# control benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlScenario:
    """Piecewise-stationary tracking benchmark on a preset system.

    ``lam_multiplier`` rescales the theoretical movement penalty to keep the
    controller responsive at desk scale; the theoretical value is logged in the
    run metadata.
    """

    name: str = "tracking-3x2"
    preset: str = "mild-3x2"
    T: int = 2000
    H: int = 5
    segment_length: int = 400
    target_radius: float = 1.0
    control_weight: float = 0.1
    disturbance_kind: str = "piecewise-step"
    disturbance_amplitude: float = 0.5
    lam_multiplier: float = 1e-4
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    outdir: str = "bench-out"
    per_round: bool = False

    def __post_init__(self):
        if self.T < 1 or self.H < 1 or self.segment_length < 1:
            raise ContractViolation("T, H and segment_length must be at least 1")
        if not self.seeds:
            raise ContractViolation("need at least one seed")

    def segments(self) -> list[tuple[int, int]]:
        return segment_boundaries(self.T, self.segment_length)


def scaling_scenario(T: int, seeds=(0,), outdir: str = "bench-out") -> ControlScenario:
    """Tracking scenario for regret-scaling studies: five segments at any horizon.

    Uses the single-input preset, whose worst-case tuning constants are tight,
    so the horizon-tuned controller shows its theoretical scaling at desk scale.
    """
    return ControlScenario(name="tracking-3x1", preset="scaling-3x1", T=T, H=3,
                           segment_length=T // 5, target_radius=0.4, control_weight=0.1,
                           disturbance_kind="piecewise-step", disturbance_amplitude=0.6,
                           seeds=tuple(seeds), outdir=outdir)


def gen_control_scenario(scenario: ControlScenario, seed: int):
    """Instantiate (closed loop, feasible set, config, costs, disturbances) for one seed."""
    sys_preset = preset(scenario.preset, seed=seed)
    loop = ClosedLoop(sys_preset.system, sys_preset.K, sys_preset.certificate)
    rng = np.random.default_rng(seed + 1000)
    boundaries = scenario.segments()
    targets_per_segment = _uniform_ball(rng, len(boundaries), sys_preset.system.d_x,
                                        scenario.target_radius)
    costs = []
    for idx, (lo, hi) in enumerate(boundaries):
        for _ in range(lo, hi):
            costs.append(QuadraticTrackingCost(targets_per_segment[idx], scenario.control_weight))
    # piecewise disturbance regimes change with the cost segments, so the best
    # fixed policy genuinely differs from one segment to the next
    gen = replace(sys_preset.disturbance, kind=scenario.disturbance_kind,
                  amplitude=scenario.disturbance_amplitude, seed=seed + 2000,
                  period=scenario.segment_length)
    disturbances = gen.sequence(scenario.T)

    d_bound = state_action_bound(loop.kappa, loop.gamma, sys_preset.system.kappa_B,
                                 scenario.disturbance_amplitude, scenario.H)
    grad_coeff = tracking_grad_coeff(d_bound, scenario.target_radius, scenario.control_weight)
    constants = lipschitz_constants(loop.kappa, loop.gamma, sys_preset.system.kappa_B,
                                    scenario.disturbance_amplitude, grad_coeff, scenario.H,
                                    sys_preset.system.d_u, sys_preset.system.d_x)
    config = ControlConfig(T=scenario.T, constants=constants, lam_multiplier=scenario.lam_multiplier)
    feasible = DacFeasibleSet.from_certificate(loop.kappa, loop.gamma, sys_preset.system.kappa_B,
                                               scenario.H, sys_preset.system.d_u,
                                               sys_preset.system.d_x)
    return loop, feasible, config, costs, disturbances


def run_control_cell(scenario: ControlScenario, seed: int,
                     record_weights: bool = False) -> tuple[ResultRow, dict]:
    """One control cell: run the controller and report regret against per-segment comparators."""
    loop, feasible, config, costs, disturbances = gen_control_scenario(scenario, seed)
    start = time.perf_counter()
    run = run_scream_control(loop, loop.system, disturbances, costs, config, feasible=feasible,
                             record_weights=record_weights)
    wall_ms = (time.perf_counter() - start) * 1000.0
    check_movement_bounds(run.controller, config.constants.grad_bound, run.controller.rounds)
    comparators = best_fixed_dac_per_segment(loop, costs, disturbances, scenario.segments(), feasible)
    report = dynamic_policy_regret_control(run, loop.system, comparators, feasible)
    if scenario.per_round:
        rows = control_trajectory_rows(run)
        emit_csv(rows, list(rows[0].keys()),
                 Path(scenario.outdir) / f"rounds_{scenario.name}_s{seed}.csv")
    row = ResultRow(
        scenario=scenario.name,
        algorithm="scream-control",
        seed=seed,
        alpha=scenario.lam_multiplier,
        overall_loss=report.overall_loss,
        cumulative_loss=report.cumulative_loss,
        switching_cost=report.switching_cost,
        dynamic_regret=report.dynamic_policy_regret,
        path_length=report.path_length,
        wall_time_ms=wall_ms,
    )
    return row, config.metadata()


def run_control_benchmark(scenario: ControlScenario) -> BenchmarkResult:
    rows = []
    failures = []
    outdir = Path(scenario.outdir)
    metadata = None
    for seed in scenario.seeds:
        try:
            row, metadata = run_control_cell(scenario, seed, record_weights=scenario.per_round)
            rows.append(row)
        except Exception as exc:
            failures.append(((scenario.name, seed), f"{type(exc).__name__}: {exc}"))
    rows.sort(key=lambda r: (r.scenario, r.algorithm, r.alpha, r.seed))
    emit_csv([r.as_dict() for r in rows], RESULT_COLUMNS, outdir / "control_results.csv")
    emit_csv(summarize(rows), SUMMARY_COLUMNS, outdir / "control_summary.csv")
    write_failures(failures, outdir)
    if metadata is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "control_metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True),
                                                      encoding="utf-8")
    return BenchmarkResult(rows, failures, outdir)


# ---------------------------------------------------------------------------
# identification benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SysidScenario:
    name: str = "sysid-3x2"
    preset: str = "sysid-3x2"
    budgets: tuple[int, ...] = (1000, 4000, 16000, 64000)
    k: int = 2
    seeds: tuple[int, ...] = tuple(range(20))
    outdir: str = "bench-out"

    def __post_init__(self):
        if self.preset not in preset_names():
            raise ContractViolation(
                f"unknown system preset {self.preset!r}; available: {preset_names()}")
        if not self.budgets:
            raise ContractViolation("need at least one exploration budget")
        if not self.seeds:
            raise ContractViolation("need at least one seed")
        for budget in self.budgets:
            try:
                IdentificationConfig(budget, self.k)
            except ContractViolation as exc:
                raise ContractViolation(f"budget {budget} with k = {self.k}: {exc}") from None


def run_sysid_benchmark(scenario: SysidScenario) -> dict:
    """Monte-Carlo identification error across exploration budgets; writes a JSON report.

    A trial that raises is recorded in ``failures.txt`` as ``(T0, seed): exception``
    and left out of the trials; the sweep goes on.  The log-log slope is NaN
    unless at least two budgets have a median.
    """
    sys_preset = preset(scenario.preset, seed=0)
    plant = sys_preset.system
    a_k = plant.A - plant.B @ sys_preset.K
    trials, failures = [], []
    for budget in scenario.budgets:
        for seed in scenario.seeds:
            try:
                gen = replace(sys_preset.disturbance, seed=seed + 31)
                disturbances = gen.sequence(budget)
                ident, moments = identify_system(plant, sys_preset.K,
                                                 IdentificationConfig(budget, scenario.k),
                                                 disturbances, seed=seed)
            except Exception as exc:  # per-trial failures are recorded; the sweep continues
                failures.append(((budget, seed), f"{type(exc).__name__}: {exc}"))
                continue
            moment_errors = [float(np.linalg.norm(moments.N[j] - np.linalg.matrix_power(a_k, j) @ plant.B))
                             for j in range(scenario.k + 1)]
            trials.append({
                "T0": budget,
                "k": scenario.k,
                "seed": seed,
                "err_A": float(np.linalg.norm(ident.A_hat - plant.A)),
                "err_B": float(np.linalg.norm(ident.B_hat - plant.B)),
                "moment_errors": moment_errors,
            })
    medians = {}
    for budget in scenario.budgets:
        errs = [t["err_A"] for t in trials if t["T0"] == budget]
        if errs:  # a budget whose every trial failed has no median
            medians[budget] = float(np.median(errs))
    slope = float("nan")
    if len(medians) >= 2:  # one point determines no slope
        slope = float(np.polyfit(np.log(list(medians)), np.log(list(medians.values())), 1)[0])
    report = {"scenario": scenario.name, "k": scenario.k, "budgets": list(scenario.budgets),
              "median_err_A": {str(b): m for b, m in medians.items()}, "loglog_slope": slope,
              "trials": trials}
    outdir = Path(scenario.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sysid_report.json").write_text(json.dumps(report, indent=2, sort_keys=True),
                                              encoding="utf-8")
    write_failures(failures, outdir)
    return report
