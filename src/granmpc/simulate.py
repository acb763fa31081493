"""Closed-loop simulation, Monte Carlo batches, metric aggregation, and the
JSON, JSONL and CSV files of records, summaries and sets.

Each run owns two RNG streams (plant disturbance, obstacle disturbance)
spawned from its seed, so disturbance sequences are independent of solver
internals and identical across methods for the same seed (common random
numbers).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import ocp, scenario as sc
from .models import step as model_step

METHODS = ocp.METHODS

# StepEntry fields that hold times (wall and CPU): the JSONL keeps them, the
# canonical record bytes leave them out
TIMING_FIELDS = ("solve_ms", "solve_cpu_ms")


@dataclass
class StepEntry:
    k: int
    x: np.ndarray
    u: np.ndarray
    d: np.ndarray
    obstacle: np.ndarray
    stage_cost: float
    status: str
    sqp_iterations: int
    solve_ms: float
    solve_cpu_ms: float
    softened: bool
    qp_iterations: int = 0
    violation: float = 0.0       # worst violation of the executed plan's rows


@dataclass
class RunRecord:
    method: str
    seed: int
    entries: List[StepEntry]
    collided: bool
    passed: bool
    reached: bool
    steps: int
    cumulative_cost: float
    terminal_status: str        # reached | collided | max-steps | infeasible
    final_state: np.ndarray
    final_obstacle: np.ndarray

    @property
    def softened_steps(self) -> int:
        return sum(1 for e in self.entries if e.softened)

    @property
    def mean_solve_ms(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.solve_ms for e in self.entries]))

    def robot_positions(self) -> np.ndarray:
        pts = [e.x[sc.POS] for e in self.entries] + [self.final_state[sc.POS]]
        return np.array(pts)

    def obstacle_positions(self) -> np.ndarray:
        pts = [e.obstacle for e in self.entries] + [self.final_obstacle]
        return np.array(pts)

    def to_dict(self, include_timing: bool = True) -> dict:
        """Every field, plus softened_steps; without timing, the entries
        drop their TIMING_FIELDS."""
        out = sc.plain(self)
        out["softened_steps"] = self.softened_steps
        if not include_timing:
            for entry in out["entries"]:
                for name in TIMING_FIELDS:
                    del entry[name]
        return out


def canonical_record_bytes(record: RunRecord) -> bytes:
    """Deterministic serialization; timings are excluded."""
    return json.dumps(record.to_dict(include_timing=False), sort_keys=True,
                      separators=(",", ":")).encode()


def _sample_disturbance(rng, half_widths, kind: str) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size=half_widths.size) * half_widths
    # truncated gaussian: std at half the bound, clipped to the box
    raw = rng.normal(0.0, 0.5, size=half_widths.size) * half_widths
    return np.clip(raw, -half_widths, half_widths)


def run_closed_loop(cfg: sc.ScenarioConfig, method: str, seed: int,
                    setup: Optional[ocp.MethodSetup] = None,
                    trace: Optional[list] = None) -> RunRecord:
    """Receding-horizon episode; deterministic for fixed (config, method, seed)."""
    if setup is None:
        setup = ocp.MethodSetup.build(cfg, method)
    ss = np.random.SeedSequence(seed)
    plant_rng, obs_rng = [np.random.default_rng(s) for s in ss.spawn(2)]

    d_half = setup.model.disturbance.interval_hull()

    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    x_t = sc.state(cfg.target, (0.0, 0.0))

    x = sc.state(cfg.start, (0.0, 0.0))
    obstacle = sc.DynamicObstacle.from_config(cfg)

    entries: List[StepEntry] = []
    terminal_status = "max-steps"
    prev_sol = None
    for k in range(cfg.max_steps):
        prob = ocp.assemble(setup, x, obstacle)
        step_trace = [] if trace is not None else None
        sol = ocp.solve_sqp(prob, warm_start=prev_sol, trace=step_trace)
        if trace is not None:
            trace.append({"k": k, "sqp": step_trace})
        infeasible = sol.status == "infeasible"
        if infeasible:
            u, d, stage_cost = np.zeros(2), np.zeros(4), 0.0
        else:
            u = ocp.extract_control(sol, x, setup.gains.K)
            d = _sample_disturbance(plant_rng, d_half, cfg.realized_disturbance)
            err = x - x_t
            stage_cost = float(err @ Q @ err + u @ R @ u)
        entries.append(StepEntry(k, x.copy(), u, d, obstacle.position.copy(),
                                 stage_cost, sol.status, sol.iterations,
                                 sol.solve_time_ms, sol.solve_cpu_ms, sol.softened,
                                 sol.qp_iterations, sol.violation))
        if infeasible:
            terminal_status = "infeasible"
            break
        prev_sol = sol
        x = model_step(setup.model, x, u, d)
        obs_noise = obs_rng.uniform(-obstacle.disturbance_bound,
                                    obstacle.disturbance_bound, size=2)
        obstacle.advance(cfg.dt, obs_noise)

        pos = x[sc.POS]
        if np.linalg.norm(pos - np.array(cfg.target)) <= cfg.finish_threshold:
            terminal_status = "reached"
            break
        if np.linalg.norm(pos - obstacle.position) < cfg.robot_radius + cfg.obstacle_radius:
            terminal_status = "collided"
            break

    record = RunRecord(method=method, seed=seed, entries=entries,
                       collided=False, passed=False, reached=False,
                       steps=len(entries), cumulative_cost=float(
                           sum(e.stage_cost for e in entries)),
                       terminal_status=terminal_status,
                       final_state=x.copy(),
                       final_obstacle=obstacle.position.copy())
    collided, passed, reached = sc.collision_and_pass_check(
        record.robot_positions(), record.obstacle_positions(), cfg)
    record.collided, record.passed, record.reached = collided, passed, reached
    return record


@dataclass
class MonteCarloSummary:
    method: str
    n_runs: int
    pass_rate: float
    collision_rate: float
    reach_rate: float
    mean_cumulative_cost: float
    mean_solve_ms: float
    median_solve_ms: float
    mean_cost_curve: List[float]
    mean_solve_curve: List[float]
    softened_steps_total: int


def _padded_curves(records: List[RunRecord]):
    """Per-step curves padded with their terminal values to a uniform length."""
    horizon = max(len(r.entries) for r in records)
    costs = np.zeros((len(records), horizon))
    times = np.zeros((len(records), horizon))
    for i, r in enumerate(records):
        c = [e.stage_cost for e in r.entries]
        t = [e.solve_ms for e in r.entries]
        pad = horizon - len(c)
        costs[i] = c + [c[-1]] * pad
        times[i] = t + [t[-1]] * pad
    return costs.mean(axis=0), times.mean(axis=0)


def summarize(records: List[RunRecord], method: str) -> MonteCarloSummary:
    n = len(records)
    all_times = [e.solve_ms for r in records for e in r.entries]
    cost_curve, solve_curve = _padded_curves(records)
    return MonteCarloSummary(
        method=method,
        n_runs=n,
        pass_rate=sum(r.passed for r in records) / n,
        collision_rate=sum(r.collided for r in records) / n,
        reach_rate=sum(r.reached for r in records) / n,
        mean_cumulative_cost=float(np.mean([r.cumulative_cost for r in records])),
        mean_solve_ms=float(np.mean(all_times)),
        median_solve_ms=float(np.median(all_times)),
        mean_cost_curve=[float(v) for v in cost_curve],
        mean_solve_curve=[float(v) for v in solve_curve],
        softened_steps_total=int(sum(r.softened_steps for r in records)),
    )


def monte_carlo(cfg: sc.ScenarioConfig, method: str, n_runs: int, base_seed: int) -> tuple:
    """Runs seeds base_seed..base_seed+n_runs-1; returns (summary, records)."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    setup = ocp.MethodSetup.build(cfg, method)
    records = [run_closed_loop(cfg, method, s, setup=setup)
               for s in range(base_seed, base_seed + n_runs)]
    return summarize(records, method), records


def compare_methods(cfg: sc.ScenarioConfig, n_runs: int, base_seed: int) -> dict:
    """All three methods on common random numbers, plus the headline ratios."""
    summaries = {m: monte_carlo(cfg, m, n_runs, base_seed)[0] for m in METHODS}
    g, s = summaries["granular"], summaries["single-rsmpc"]
    report = {
        "n_runs": n_runs,
        "base_seed": base_seed,
        "methods": summaries,
        "time_ratio_granular_vs_single_rsmpc":
            g.mean_solve_ms / s.mean_solve_ms if s.mean_solve_ms > 0 else float("nan"),
        "cost_ratio_granular_vs_single_rsmpc":
            g.mean_cumulative_cost / s.mean_cumulative_cost
            if s.mean_cumulative_cost != 0 else float("nan"),
    }
    return report


# ---------------------------------------------------------------------------
# file outputs

CSV_COLUMNS = ("method", "run_id", "passed", "collided", "reached", "steps",
               "cumulative_cost", "mean_solve_ms", "softened_steps")


def write_run_jsonl(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = record.to_dict()
        entries = header.pop("entries")
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for e in entries:
            fh.write(json.dumps(e, sort_keys=True) + "\n")


def write_summary_csv(records: List[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([r.method, r.seed, int(r.passed), int(r.collided),
                        int(r.reached), r.steps, f"{r.cumulative_cost:.6f}",
                        f"{r.mean_solve_ms:.3f}", r.softened_steps])


def write_json(data, path) -> None:
    """Indented, key-sorted JSON of ``scenario.plain(data)``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sc.plain(data), fh, indent=2, sort_keys=True)
        fh.write("\n")
