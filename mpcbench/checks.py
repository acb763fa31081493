"""Per-episode checks of a closed-loop record, computed apart from granmpc.

Each check takes a ``simulate.RunRecord`` and the ``ScenarioConfig`` it ran
under and returns a list of problems (empty when the record passes). The
plant, the disturbance box and the cost are rebuilt here from the config
values alone, so a fault in the program's own models or bookkeeping shows
as a disagreement instead of being reproduced.
"""

from __future__ import annotations

import hashlib

import numpy as np

TOL = 1e-9


def _rel_close(a, b) -> bool:
    return abs(a - b) <= TOL * (1.0 + abs(b))


def _states(record) -> np.ndarray:
    """Realized states x_0..x_T, the final state last."""
    return np.array([e.x for e in record.entries] + [record.final_state], dtype=float)


def _obstacles(record) -> np.ndarray:
    return np.array([e.obstacle for e in record.entries] + [record.final_obstacle],
                    dtype=float)


def double_integrator(dt: float):
    """Plant matrices for the state order (p_x, v_x, p_y, v_y)."""
    a2 = np.array([[1.0, dt], [0.0, 1.0]])
    A = np.zeros((4, 4))
    A[:2, :2] = a2
    A[2:, 2:] = a2
    B = np.zeros((4, 2))
    B[:, 0] = (0.5 * dt * dt, dt, 0.0, 0.0)
    B[:, 1] = (0.0, 0.0, 0.5 * dt * dt, dt)
    return A, B


def disturbance_half_widths(cfg) -> np.ndarray:
    w = cfg.disturbance_bound
    if cfg.disturbance_mode == "full":
        return np.full(4, w)
    wp = cfg.disturbance_pos_bound
    return np.array([wp, w, wp, w])


def plant(record, cfg) -> list:
    """x_{k+1} = A x_k + B u_k + d_k replays the realized trajectory."""
    A, B = double_integrator(cfg.dt)
    xs = _states(record)
    problems = []
    if not np.allclose(xs[0], (cfg.start[0], 0.0, cfg.start[1], 0.0), rtol=0.0, atol=TOL):
        problems.append(f"initial state {xs[0].tolist()} is not the configured start")
    for k, e in enumerate(record.entries):
        pred = A @ xs[k] + B @ np.asarray(e.u, dtype=float) + np.asarray(e.d, dtype=float)
        err = float(np.max(np.abs(pred - xs[k + 1])))
        if err > TOL * (1.0 + float(np.max(np.abs(pred)))):
            problems.append(f"step {k}: plant replay off by {err:.3e}")
    return problems


def disturbance_box(record, cfg) -> list:
    half = disturbance_half_widths(cfg)
    return [f"step {e.k}: disturbance {np.asarray(e.d).tolist()} outside the box"
            for e in record.entries
            if np.any(np.abs(np.asarray(e.d, dtype=float)) > half * (1.0 + TOL))]


def obstacle_motion(record, cfg) -> list:
    """Each displacement lies within dt * (velocity +- disturbance bound)."""
    obs = _obstacles(record)
    vel = np.asarray(cfg.obstacle_velocity, dtype=float)
    lo = cfg.dt * (vel - cfg.obstacle_disturbance_bound) - TOL
    hi = cfg.dt * (vel + cfg.obstacle_disturbance_bound) + TOL
    problems = []
    if not np.allclose(obs[0], cfg.obstacle_start, rtol=0.0, atol=TOL):
        problems.append(f"obstacle starts at {obs[0].tolist()}, not the configured start")
    for k, step in enumerate(np.diff(obs, axis=0)):
        if np.any(step < lo) or np.any(step > hi):
            problems.append(f"step {k}: obstacle displacement {step.tolist()} out of range")
    return problems


def input_bound(record, cfg) -> list:
    return [f"step {e.k}: input {np.asarray(e.u).tolist()} beyond {cfg.accel_limit}"
            for e in record.entries
            if np.any(np.abs(np.asarray(e.u, dtype=float)) > cfg.accel_limit + TOL)]


def state_bounds(record, cfg) -> list:
    """Realized positions stay in the lane and speeds within vel_limit."""
    problems = []
    for k, x in enumerate(_states(record)):
        if not cfg.lane_low <= x[2] <= cfg.lane_high:
            problems.append(f"state {k}: lateral position {x[2]:.6f} outside the lane")
        if max(abs(x[1]), abs(x[3])) > cfg.vel_limit + TOL:
            problems.append(f"state {k}: velocity ({x[1]:.6f}, {x[3]:.6f}) beyond limit")
    return problems


def clearance(record, cfg) -> list:
    dmin = cfg.robot_radius + cfg.obstacle_radius
    dists = np.linalg.norm(_states(record)[:, [0, 2]] - _obstacles(record), axis=1)
    return [f"state {k}: robot-obstacle distance {d:.6f} below {dmin}"
            for k, d in enumerate(dists) if d < dmin]


def costs(record, cfg) -> list:
    """Stage costs and the cumulative cost recomputed from x, u, Q and R."""
    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    x_t = np.array([cfg.target[0], 0.0, cfg.target[1], 0.0])
    problems = []
    total = 0.0
    for e in record.entries:
        err = np.asarray(e.x, dtype=float) - x_t
        u = np.asarray(e.u, dtype=float)
        c = float(err @ Q @ err + u @ R @ u)
        total += c
        if not _rel_close(e.stage_cost, c):
            problems.append(f"step {e.k}: stage cost {e.stage_cost} != {c}")
    if not _rel_close(record.cumulative_cost, total):
        problems.append(f"cumulative cost {record.cumulative_cost} != {total}")
    return problems


def terminal_status(record, cfg) -> list:
    """reached iff the final position is within finish_threshold of the
    target (and no earlier one was); otherwise max-steps at max_steps."""
    dists = np.linalg.norm(_states(record)[:, [0, 2]] - np.asarray(cfg.target), axis=1)
    inside = dists <= cfg.finish_threshold
    problems = []
    if len(record.entries) != record.steps:
        problems.append(f"steps {record.steps} != {len(record.entries)} entries")
    if np.any(inside[1:-1]):
        problems.append(f"target reached at state {int(np.argmax(inside[1:-1])) + 1} "
                        "but the episode went on")
    if inside[-1]:
        if record.terminal_status != "reached":
            problems.append(f"final position within the threshold but status "
                            f"{record.terminal_status!r}")
    elif record.terminal_status != "max-steps" or record.steps != cfg.max_steps:
        problems.append(f"status {record.terminal_status!r} after {record.steps} steps "
                        f"with the target {dists[-1]:.3f} away")
    return problems


def passed_obstacle(record, cfg) -> bool:
    px = _states(record)[:, 0]
    return bool(np.any(px > _obstacles(record)[:, 0] + cfg.pass_clearance))


def outcome(record, cfg, expect: str) -> list:
    """Workload outcome: "reach-and-pass" or "reach-or-max-steps"."""
    if expect == "reach-and-pass":
        if record.terminal_status != "reached" or not passed_obstacle(record, cfg):
            return [f"expected to reach the target past the obstacle, got "
                    f"{record.terminal_status!r}, passed={passed_obstacle(record, cfg)}"]
        return []
    if expect == "reach-or-max-steps":
        if record.terminal_status not in ("reached", "max-steps"):
            return [f"expected reached or max-steps, got {record.terminal_status!r}"]
        return []
    raise ValueError(f"unknown expected outcome {expect!r}")


RECORD_CHECKS = (plant, disturbance_box, obstacle_motion, input_bound, state_bounds,
                 clearance, costs, terminal_status)


def episode_problems(record, cfg, expect: str) -> list:
    problems = []
    for check in RECORD_CHECKS:
        problems += [f"{check.__name__}: {p}" for p in check(record, cfg)]
    problems += [f"outcome: {p}" for p in outcome(record, cfg, expect)]
    return problems


def digest(canonical: bytes) -> str:
    return hashlib.sha256(canonical).hexdigest()


def determinism(seed: int, got: str, first: dict) -> list:
    """The digest of an episode matches the one its seed gave in round one."""
    want = first.setdefault(seed, got)
    if got != want:
        return [f"seed {seed}: record digest {got[:12]} differs from round one {want[:12]}"]
    return []
