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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import learners  # run_online by attribute: a wrapper set on the module sees every cell
from .control import (ControlConfig, best_fixed_dac_per_segment, control_trajectory_rows,
                      dynamic_policy_regret_control, run_scream_control, segment_boundaries)
from .csvio import emit_csv
from .dac import (ClosedLoop, DacFeasibleSet, QuadraticTrackingCost, lipschitz_constants,
                  state_action_bound, tracking_grad_coeff)
from .lds import DisturbanceGenerator, check_preset, preset
from .learners import (Ader, OgdMemory, Scream, ScreamConfig, ogd_default_step_size,
                       trajectory_rows)
from .oco import ContractViolation, DomainBall, RegretReport, SquareLossStream
from .sysid import IdentificationConfig, identify_system

SUMMARY_COLUMNS = ("scenario", "algorithm", "alpha", "n_seeds",
                   "overall_mean", "overall_std", "cumulative_mean", "cumulative_std",
                   "switching_mean", "switching_std", "dynamic_regret_mean", "dynamic_regret_std")

ALGORITHMS = ("ogd", "ader", "scream")


def check_distinct(config, *keys: str) -> None:
    """Raise :class:`ContractViolation` on the first of ``keys`` whose list repeats a value."""
    for key in keys:
        values = getattr(config, key)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ContractViolation(f"{key} must not repeat a value, got {value!r} twice")


def check_seeds(seeds) -> None:
    """Raise :class:`ContractViolation` on a negative seed, which no numpy generator takes."""
    for seed in seeds:
        if seed < 0:
            raise ContractViolation(f"seeds must be non-negative, got {seed}")


def oco_learner(config: ExperimentConfig, algorithm: str, lam: float):
    """The learner of one benchmark algorithm, each tuned from ScreamConfig(T, G, D, lam).

    Only ``scream`` reads ``lam``; ``ader`` and ``ogd`` ignore the movement
    weight, which enters only their report.
    """
    tuned = ScreamConfig(T=config.T, grad_bound=config.grad_bound, diameter=config.diameter,
                         lam=lam)
    domain = DomainBall(config.d, config.diameter)
    if algorithm == "scream":
        return Scream(tuned, domain)
    if algorithm == "ader":
        return Ader(tuned, domain)
    if algorithm == "ogd":
        return OgdMemory(ogd_default_step_size(tuned.T, tuned.diameter, tuned.grad_bound), domain)
    raise ContractViolation(f"unknown algorithm {algorithm!r}")


def worker_count() -> int:
    """Pool size: 4, at most the cpu count (``run_benchmark(parallel=False)`` runs no pool)."""
    return min(4, os.cpu_count() or 1)


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
        for key in ("feature_radius", "diameter"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ContractViolation(f"{key} must be finite and positive, got {value}")
        if not all(math.isfinite(alpha) and alpha >= 0 for alpha in self.alphas):
            raise ContractViolation(f"alphas must be finite and non-negative, got {self.alphas}")
        if not (math.isfinite(self.noise_low) and math.isfinite(self.noise_high)
                and self.noise_low <= self.noise_high):
            raise ContractViolation("noise bounds must be finite with noise_low <= noise_high, "
                                    f"got [{self.noise_low}, {self.noise_high}]")
        if not self.model_radius > 0:
            raise ContractViolation(
                "truth radius must lie in (0, D/2] and keep Gamma^2 (D/2 + r) + |noise| Gamma <= G "
                f"with noise in [{self.noise_low:g}, {self.noise_high:g}], so r <= "
                f"{self.model_radius:.6g}, which leaves no valid radius")
        check_seeds(self.seeds)
        check_distinct(self, "seeds", "alphas", "algorithms")

    @property
    def grad_bound(self) -> float:
        return self.diameter * self.feature_radius ** 2  # G = D * Gamma^2

    @property
    def model_radius(self) -> float:
        """Radius of the ground-truth models: the largest r that keeps every gradient within G.

        That is Gamma^2 (D/2 + r) + |noise| * Gamma <= G = D * Gamma^2, with
        |noise| at most max(|noise_low|, |noise_high|), and r at most D/2.
        """
        noise = max(abs(self.noise_low), abs(self.noise_high))
        bound = ((self.grad_bound - noise * self.feature_radius)
                 / self.feature_radius ** 2 - self.diameter / 2.0)
        return min(bound, self.diameter / 2.0)


def _uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal((n, dim))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / dim)
    direction *= radii
    return direction


@dataclass
class RegressionStream:
    """Materialized square-loss stream with its ground-truth comparator sequence."""

    X: np.ndarray        # (T, d) features
    y: np.ndarray        # (T,) targets
    truths: np.ndarray   # (T, d) ground-truth model per round

    def losses(self) -> SquareLossStream:
        """A fresh array-backed oracle stream (its gradient counters start at zero)."""
        return SquareLossStream(self.X, self.y)


def gen_piecewise_regression(config: ExperimentConfig, seed: int) -> RegressionStream:
    """Features uniform in the Gamma-ball; targets from a segment-wise model plus noise.

    The ground-truth model is redrawn every ``segment_length`` rounds from the
    ball of radius ``model_radius``, the largest value keeping the declared
    gradient bound valid for every feasible decision.
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

    @classmethod
    def from_report(cls, scenario: str, algorithm: str, seed: int, alpha: float,
                    report: RegretReport, wall_time_ms: float) -> ResultRow:
        """The row of one cell: its key, the report's five metrics and the measured wall time."""
        return cls(scenario, algorithm, seed, alpha, report.overall_loss, report.cumulative_loss,
                   report.switching_cost, report.dynamic_policy_regret, report.path_length,
                   wall_time_ms)

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in RESULT_COLUMNS}


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


def run_cell(config: ExperimentConfig, algorithm: str, alpha: float, seed: int) -> ResultRow:
    """One experiment cell; with ``per_round`` it also writes the cell's per-round CSV."""
    stream = gen_piecewise_regression(config, seed)
    losses = stream.losses()
    lam = alpha * config.grad_bound
    start = time.perf_counter()
    run = learners.run_online(oco_learner(config, algorithm, lam), losses)
    report = run.report(stream.truths, lam)
    wall_ms = (time.perf_counter() - start) * 1000.0
    run.learner.check_movement_bounds(config.grad_bound)
    if config.per_round:
        rows = trajectory_rows(run)
        emit_csv(rows, list(rows[0].keys()), Path(config.outdir)
                 / f"rounds_{config.scenario}_{algorithm}_a{alpha:g}_s{seed}.csv")
    return ResultRow.from_report(config.scenario, algorithm, seed, alpha, report, wall_ms)


def _attempt(cell, *args, **kwargs):
    """``(cell(*args, **kwargs), None)``, or ``(None, "Type: message")`` if the cell raises.

    Every sweep records a failed cell through this one call and goes on.
    """
    try:
        return cell(*args, **kwargs), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _cell_task(cell):
    return _attempt(run_cell, *cell)  # run_cell by module global, so a wrapper on it sees the call


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
            outcomes = list(pool.map(_cell_task, cells))
    else:
        outcomes = [_cell_task(c) for c in cells]
    rows, failures = [], []
    for (_, algorithm, alpha, seed), (row, error) in zip(cells, outcomes):
        if error is None:
            rows.append(row)
        else:
            failures.append(((algorithm, alpha, seed), error))
    return _write_rows(rows, failures, Path(config.outdir), "")


def _write_rows(rows, failures, outdir: Path, prefix: str) -> BenchmarkResult:
    """Sort the rows; write ``<prefix>results.csv``, ``<prefix>summary.csv`` and the failures."""
    rows.sort(key=lambda r: (r.scenario, r.algorithm, r.alpha, r.seed))
    emit_csv([r.as_dict() for r in rows], RESULT_COLUMNS, outdir / f"{prefix}results.csv")
    emit_csv(summarize(rows), SUMMARY_COLUMNS, outdir / f"{prefix}summary.csv")
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
        entry = {"scenario": scenario, "algorithm": algorithm, "alpha": alpha,
                 "n_seeds": len(members)}
        for name, attr in (("overall", "overall_loss"), ("cumulative", "cumulative_loss"),
                           ("switching", "switching_cost"), ("dynamic_regret", "dynamic_regret")):
            values = np.array([getattr(m, attr) for m in members], dtype=float)
            entry[f"{name}_mean"], entry[f"{name}_std"] = float(values.mean()), float(values.std())
        out.append(entry)
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
        check_preset(self.preset)
        DisturbanceGenerator(self.disturbance_kind, 1, 0.0)  # raises on an unknown kind
        if self.T < 1 or self.H < 1 or self.segment_length < 1:
            raise ContractViolation("T, H and segment_length must be at least 1")
        for key in ("target_radius", "control_weight", "lam_multiplier"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ContractViolation(f"{key} must be finite and non-negative, got {value}")
        amplitude = self.disturbance_amplitude  # at zero the state bound, and so G_f, is 0
        if not (math.isfinite(amplitude) and amplitude > 0):
            raise ContractViolation(
                f"disturbance_amplitude must be finite and positive, got {amplitude}")
        if not self.seeds:
            raise ContractViolation("need at least one seed")
        check_seeds(self.seeds)
        check_distinct(self, "seeds")

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
    targets_per_segment = _uniform_ball(rng, len(scenario.segments()), sys_preset.system.d_x,
                                        scenario.target_radius)
    costs = [QuadraticTrackingCost(target, scenario.control_weight)
             for target in targets_per_segment[np.arange(scenario.T) // scenario.segment_length]]
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


def run_control_cell(scenario: ControlScenario, seed: int) -> tuple[ResultRow, dict]:
    """One control cell: run the controller and report regret against per-segment comparators."""
    loop, feasible, config, costs, disturbances = gen_control_scenario(scenario, seed)
    start = time.perf_counter()
    run = run_scream_control(loop, loop.system, disturbances, costs, config, feasible=feasible)
    wall_ms = (time.perf_counter() - start) * 1000.0
    run.controller.check_movement_bounds(config.constants.grad_bound)
    comparators = best_fixed_dac_per_segment(loop, costs, disturbances, scenario.segments(), feasible)
    report = dynamic_policy_regret_control(run, loop.system, comparators, feasible)
    if scenario.per_round:
        rows = control_trajectory_rows(run)
        emit_csv(rows, list(rows[0].keys()),
                 Path(scenario.outdir) / f"rounds_{scenario.name}_s{seed}.csv")
    row = ResultRow.from_report(scenario.name, "scream-control", seed, scenario.lam_multiplier,
                                report, wall_ms)
    return row, config.metadata()


def run_control_benchmark(scenario: ControlScenario) -> BenchmarkResult:
    rows, failures = [], []
    metadata = {}  # per successful seed: each seed draws its own system and constants
    for seed in scenario.seeds:
        outcome, error = _attempt(run_control_cell, scenario, seed)
        if error is None:
            row, metadata[seed] = outcome
            rows.append(row)
        else:
            failures.append(((scenario.name, seed), error))
    result = _write_rows(rows, failures, Path(scenario.outdir), "control_")
    if metadata:
        text = json.dumps(metadata, indent=2, sort_keys=True)
        (result.outdir / "control_metadata.json").write_text(text, encoding="utf-8")
    return result


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
        check_preset(self.preset)
        if not self.budgets:
            raise ContractViolation("need at least one exploration budget")
        if not self.seeds:
            raise ContractViolation("need at least one seed")
        for budget in self.budgets:
            try:
                IdentificationConfig(budget, self.k)
            except ContractViolation as exc:
                raise ContractViolation(f"budget {budget} with k = {self.k}: {exc}") from None
        check_seeds(self.seeds)
        check_distinct(self, "seeds", "budgets")


def run_sysid_benchmark(scenario: SysidScenario) -> dict:
    """Monte-Carlo identification error across exploration budgets; writes a JSON report.

    Each seed's disturbance record is drawn once, at the longest budget, and
    every budget explores its prefix: a generator's record for a shorter
    horizon is a prefix of the longer one.  A trial that raises, the draw
    included, is recorded in ``failures.txt`` as ``(T0, seed): exception``
    and left out of the trials; the sweep goes on.  Trials and failures are
    listed budget by budget, seeds in order within each.  The log-log slope
    is NaN unless at least two budgets have a median.
    """
    sys_preset = preset(scenario.preset, seed=0)
    plant = sys_preset.system
    powers_b = ClosedLoop(plant, sys_preset.K, sys_preset.certificate).flat_powers(scenario.k + 1)[1]
    true_moments = powers_b.reshape(plant.d_x, scenario.k + 1, -1).swapaxes(0, 1)
    trials, failures = [], []
    for seed in scenario.seeds:  # seed-major, so only one seed's record is held at a time
        gen = replace(sys_preset.disturbance, seed=seed + 31)
        disturbances, draw_error = _attempt(gen.sequence, max(scenario.budgets))
        for budget in scenario.budgets:
            outcome, error = (None, draw_error) if draw_error else _attempt(
                identify_system, plant, sys_preset.K, IdentificationConfig(budget, scenario.k),
                disturbances, seed=seed)
            if error is not None:  # a failed draw is recorded once per budget
                failures.append(((budget, seed), error))
                continue
            ident, moments = outcome
            moment_errors = [float(np.linalg.norm(estimate - truth))
                             for estimate, truth in zip(moments.N, true_moments)]
            trials.append({
                "T0": budget,
                "k": scenario.k,
                "seed": seed,
                "err_A": float(np.linalg.norm(ident.A_hat - plant.A)),
                "err_B": float(np.linalg.norm(ident.B_hat - plant.B)),
                "moment_errors": moment_errors,
            })
    order = {budget: i for i, budget in enumerate(scenario.budgets)}
    trials.sort(key=lambda trial: order[trial["T0"]])  # stable: seeds stay in order per budget
    failures.sort(key=lambda failure: order[failure[0][0]])
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
