"""Two-stage optimal control problem: assembly, SQP solver, control extraction.

The problem is condensed: decision variables are the initial-state auxiliaries
beta, the short-stage input offsets nu_k, and (for the granular method) the
coarse input offsets c_k. Nominal trajectories are affine functions of the
decision vector, so the cost is an exact quadratic and all nonlinearity lives
in the keep-out ellipse constraints, which the SQP loop linearizes.

Each SQP iteration's QP is warm-started with the final active set of the QP
before it, and the first QP of a closed-loop step with the active set the
previous step ended with (carried on ``OcpSolution.active_set``). QP rows keep
their numbering between those solves: the coupling equalities, the static
rows, then the linearized keep-out rows (the soft-fallback QP appends its
slack bounds after those), so the guess is usually right or nearly so. A
wrong guess costs QP iterations, never the QP's result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import chance, scenario as sc
from .models import LinearModel, GainPair
from .qp import qp_solve
from .sets import support
from .tube import TubeSpec, build_tube

METHODS = ("granular", "single-rsmpc", "single-rmpc")

_EDGE_BUFFER = 0.25   # x-extent widening for conditional box-edge activation


class OcpError(RuntimeError):
    pass


@dataclass
class SqpSettings:
    max_iter: int = 30
    step_tol: float = 1e-6
    violation_tol: float = 1e-6
    max_halvings: int = 8
    pos_step_limit: float = 0.5
    soft_penalty: float = 1e6

    @classmethod
    def from_config(cls, cfg: sc.ScenarioConfig) -> "SqpSettings":
        return cls(max_iter=cfg.sqp_max_iter, step_tol=cfg.sqp_step_tol,
                   violation_tol=cfg.sqp_violation_tol,
                   max_halvings=cfg.sqp_max_halvings,
                   pos_step_limit=cfg.sqp_pos_step_limit,
                   soft_penalty=cfg.soft_penalty)


def membership_rows(tube: TubeSpec, state_normals, K, tail_tol: float = 1e-7,
                    max_powers: int = 200):
    """Half-space description of the initial-error freedom x0 - xbar0.

    Rows are (Phi^T)^k a <= h_Z((Phi^T)^k a) for every constraint normal a
    (state box rows and the feedback-gain rows). Membership implies, via the
    invariance of Z, that every prediction step's error stays within the Z
    supports in the constraint directions, so the tube tightening remains
    valid even though the set of admissible initial errors is an outer
    approximation of Z.

    Powers continue until the row has decayed below tail_tol, which makes the
    polytope invariant under the error recursion up to that tolerance: after
    a closed-loop shift every row of the new error follows from the next
    power at the old one, and the last (untelescoped) row is bounded by its
    vanishing norm. A shifted feasible plan therefore stays feasible.
    """
    dirs = [np.asarray(a, dtype=float) for a in state_normals]
    for row in np.asarray(K, dtype=float):
        dirs.append(row.copy())
        dirs.append(-row)
    rows, offsets = [], []
    for a in dirs:
        d = a
        for _ in range(max_powers):
            rows.append(d)
            offsets.append(support(tube.Z, d))
            d = tube.Phi.T @ d
            if float(np.abs(d).sum()) < tail_tol:
                break
    return np.array(rows), np.array(offsets)


@dataclass
class MethodSetup:
    """Per-(config, method) precomputation shared across closed-loop steps."""

    method: str
    cfg: sc.ScenarioConfig
    model: LinearModel
    coarse: LinearModel
    gains: GainPair
    tube: TubeSpec
    tube_rows_a: np.ndarray
    tube_rows_b: np.ndarray
    coarse_sched: Optional[chance.CovarianceSchedule]
    detail_sched: Optional[chance.CovarianceSchedule]

    @classmethod
    def build(cls, cfg: sc.ScenarioConfig, method: str) -> "MethodSetup":
        if method not in METHODS:
            raise OcpError(f"unknown method {method!r}")
        model = sc.detailed_model(cfg)
        coarse = sc.coarse_model(cfg)
        gains = sc.gain_pair(cfg)
        tube = build_tube(model, gains.K, cfg.tube_eps, sc.state_set(cfg), sc.input_set(cfg))
        tube_a, tube_b = membership_rows(tube, sc.state_set(cfg).normals,
                                         gains.K)
        coarse_sched = None
        detail_sched = None
        if cfg.nl > 0:
            if method == "granular":
                coarse_sched = chance.propagate_covariance(
                    gains.Phi_c, np.eye(2), np.diag(cfg.sigma_w_diag),
                    np.zeros((2, 2)), cfg.nl)
            elif method == "single-rsmpc":
                std = cfg.detailed_sigma_std
                detail_sched = chance.propagate_covariance(
                    gains.Phi, np.eye(4), (std * std) * np.eye(4),
                    np.zeros((4, 4)), cfg.nl)
        return cls(method, cfg, model, coarse, gains, tube, tube_a, tube_b,
                   coarse_sched, detail_sched)


@dataclass
class _NlItem:
    desc: object          # EllipseKeepout or EdgeKeepout
    S: np.ndarray         # position = S @ y + s
    s: np.ndarray


@dataclass
class OcpProblem:
    method: str
    cfg: sc.ScenarioConfig
    setup: MethodSetup
    x0: np.ndarray
    n_y: int
    n_beta: int
    n_nu: int
    H: np.ndarray
    f: np.ndarray
    c0: float
    a_eq: Optional[np.ndarray]
    b_eq: Optional[np.ndarray]
    a_static: np.ndarray
    b_static: np.ndarray
    static_labels: List[str]
    nonlinear: List[_NlItem]
    xbar_maps: list            # (S, s) for k = 0..Kd
    ubar_maps: list            # (S, s) for k = 0..Kd-1
    zeta_maps: list            # (S, s) for k = Ns..N (granular), else []
    vbar_maps: list            # (S, s) for k = Ns..N-1 (granular), else []
    obstacle_pred: Optional[np.ndarray]

    # -- slices --------------------------------------------------------------
    def nu_slice(self, k: int) -> slice:
        return slice(self.n_beta + 2 * k, self.n_beta + 2 * k + 2)

    def c_slice(self, j: int) -> slice:
        base = self.n_beta + 2 * self.n_nu
        return slice(base + 2 * j, base + 2 * j + 2)

    # -- evaluation ----------------------------------------------------------
    def objective(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ self.H @ y + self.f @ y + self.c0)

    def gradient(self, y) -> np.ndarray:
        return self.H @ np.asarray(y, dtype=float) + self.f

    def trajectories(self, y):
        y = np.asarray(y, dtype=float)
        xbar = np.array([S @ y + s for S, s in self.xbar_maps])
        ubar = np.array([S @ y + s for S, s in self.ubar_maps])
        if self.zeta_maps:
            zeta = np.array([S @ y + s for S, s in self.zeta_maps])
            vbar = np.array([S @ y + s for S, s in self.vbar_maps])
        else:
            zeta, vbar = None, None
        return xbar, ubar, zeta, vbar

    def positions(self, y) -> np.ndarray:
        """Planned positions over the full horizon (detailed then coarse)."""
        xbar, _, zeta, _ = self.trajectories(y)
        pos = xbar[:, [0, 2]]
        if zeta is not None:
            pos = np.vstack([pos, zeta[1:]])
        return pos

    def census(self) -> dict:
        out: dict = {}
        for lbl in self.static_labels:
            out[lbl] = out.get(lbl, 0) + 1
        for item in self.nonlinear:
            out[item.desc.label] = out.get(item.desc.label, 0) + 1
        if self.a_eq is not None and len(self.a_eq):
            out["coupling"] = 1
        return out


def assemble(setup: MethodSetup, x0, obstacle: Optional[sc.DynamicObstacle] = None) -> OcpProblem:
    """Build the condensed QP data and constraint descriptors at state x0."""
    cfg = setup.cfg
    method = setup.method
    x0 = np.asarray(x0, dtype=float)
    ns, nl, n_total = cfg.ns, cfg.nl, cfg.n_total
    coarse_stage = method == "granular" and nl > 0
    kd = ns if coarse_stage else n_total          # last detailed stage index
    n_nu = (ns + 1) if coarse_stage else n_total  # nu_0..nu_Ns or nu_0..nu_{N-1}
    n_beta = setup.model.n_states
    n_y = n_beta + 2 * n_nu + (2 * nl if coarse_stage else 0)

    Phi, K = setup.gains.Phi, setup.gains.K
    Phi_c, Kc = setup.gains.Phi_c, setup.gains.Kc
    B = setup.model.B
    Cpos, Cvel = sc.POS_ROWS, sc.VEL_ROWS

    prob = OcpProblem(
        method=method, cfg=cfg, setup=setup, x0=x0, n_y=n_y, n_beta=n_beta,
        n_nu=n_nu, H=np.zeros((n_y, n_y)), f=np.zeros(n_y), c0=0.0,
        a_eq=None, b_eq=None, a_static=np.zeros((0, n_y)),
        b_static=np.zeros(0), static_labels=[], nonlinear=[],
        xbar_maps=[], ubar_maps=[], zeta_maps=[], vbar_maps=[],
        obstacle_pred=None)

    # nominal detailed trajectory maps; the first n_beta decision variables
    # hold the initial error z = x0 - xbar_0, constrained to the membership
    # polytope around the tube cross-section
    S = np.zeros((4, n_y))
    S[:, :n_beta] = -np.eye(n_beta)
    s = x0.copy()
    prob.xbar_maps.append((S, s))
    for k in range(kd):
        Su = K @ S
        Su[:, prob.nu_slice(k)] += np.eye(2)
        prob.ubar_maps.append((Su, K @ s))
        S2 = Phi @ S
        S2[:, prob.nu_slice(k)] += B
        s = Phi @ s
        S, s = S2, s
        prob.xbar_maps.append((S, s))

    # coarse trajectory maps (granular long stage)
    if coarse_stage:
        Sx, sx = prob.xbar_maps[ns]
        Sz, sz = Cpos @ Sx, Cpos @ sx
        prob.zeta_maps.append((Sz, sz))
        for j in range(nl):
            Sv = Kc @ Sz
            Sv[:, prob.c_slice(j)] += np.eye(2)
            prob.vbar_maps.append((Sv, Kc @ sz))
            Sz2 = Phi_c @ Sz
            Sz2[:, prob.c_slice(j)] += cfg.dt * np.eye(2)
            sz = Phi_c @ sz
            Sz, sz = Sz2, sz
            prob.zeta_maps.append((Sz, sz))
        # coupling: c_Ns = v_Ns - Kc * zeta_Ns with v_Ns the nominal velocity
        M = Cvel - Kc @ Cpos
        a_eq = -(M @ Sx)
        a_eq[:, prob.c_slice(0)] += np.eye(2)
        prob.a_eq, prob.b_eq = a_eq, M @ sx

    _add_cost(prob)

    obs_pred = None
    if obstacle is not None:
        obs_pred = sc.predict_obstacle(obstacle, n_total, cfg.dt)
    prob.obstacle_pred = obs_pred
    _add_constraints(prob, obs_pred)
    return prob


def _add_quad(prob: OcpProblem, S, s, W, ref):
    d = s - ref
    prob.H += 2.0 * S.T @ W @ S
    prob.f += 2.0 * S.T @ (W @ d)
    prob.c0 += float(d @ W @ d)


def _add_cost(prob: OcpProblem):
    cfg = prob.cfg
    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    Qc, Rc = np.diag(cfg.qc_diag), np.diag(cfg.rc_diag)
    x_t = np.array([cfg.target[0], 0.0, cfg.target[1], 0.0])
    p_t = np.array(cfg.target, dtype=float)
    p_term = p_t if cfg.terminal_cost == "target" else np.zeros(2)
    z2 = np.zeros(2)
    kd = len(prob.xbar_maps) - 1
    if prob.zeta_maps:
        for k in range(cfg.ns):
            _add_quad(prob, *prob.xbar_maps[k], Q, x_t)
            _add_quad(prob, *prob.ubar_maps[k], R, z2)
        for j in range(cfg.nl):
            _add_quad(prob, *prob.zeta_maps[j], Qc, p_t)
            _add_quad(prob, *prob.vbar_maps[j], Rc, z2)
        _add_quad(prob, *prob.zeta_maps[cfg.nl], Qc, p_term)
    else:
        for k in range(kd):
            _add_quad(prob, *prob.xbar_maps[k], Q, x_t)
            _add_quad(prob, *prob.ubar_maps[k], R, z2)
        Sx, sx = prob.xbar_maps[kd]
        _add_quad(prob, sc.POS_ROWS @ Sx, sc.POS_ROWS @ sx, Qc, p_term)
    # keep H strictly convex: beta and the unused junction offset nu_Ns
    # otherwise have zero curvature
    prob.H += 1e-8 * np.eye(prob.n_y)


def _quantity_map(prob: OcpProblem, quantity: str, k: int):
    cfg = prob.cfg
    if quantity == "state":
        return prob.xbar_maps[k]
    if quantity == "input":
        return prob.ubar_maps[k]
    if quantity == "state_pos":
        S, s = prob.xbar_maps[k]
        return sc.POS_ROWS @ S, sc.POS_ROWS @ s
    if quantity == "coarse_state":
        return prob.zeta_maps[k - cfg.ns]
    if quantity == "coarse_input":
        return prob.vbar_maps[k - cfg.ns]
    if quantity == "coarse_rate":
        S1, s1 = prob.vbar_maps[k - cfg.ns]
        S0, s0 = prob.vbar_maps[k - cfg.ns - 1]
        return S1 - S0, s1 - s0
    raise OcpError(f"unknown stage quantity {quantity!r}")


def _add_constraints(prob: OcpProblem, obs_pred):
    cfg = prob.cfg
    method = prob.method
    ns, nl, n_total = cfg.ns, cfg.nl, cfg.n_total
    coarse_stage = bool(prob.zeta_maps)
    kd = len(prob.xbar_maps) - 1
    descs: list = []

    def obs_at(k):
        return obs_pred[k] if obs_pred is not None else (0.0, 0.0)

    # robust (tube-tightened) stages
    robust_last = kd if method == "single-rmpc" else min(ns, kd)
    for k in range(robust_last + 1):
        with_input = k < kd and (k < ns or method == "single-rmpc")
        descs.extend(sc.build_rmpc_constraints(cfg, prob.setup.tube, k, obs_at(k),
                                               with_input=with_input))

    # chance stages
    if method == "granular" and coarse_stage:
        for k in range(ns, n_total + 1):
            rows = sc.build_smpc_constraints(cfg, k, obs_at(k),
                                             prob.setup.coarse_sched[k - ns], "coarse",
                                             with_input=k < n_total)
            if k == ns:
                rows = [d for d in rows if not (isinstance(d, sc.StageRow)
                                                and d.quantity == "coarse_rate")]
            descs.extend(rows)
    elif method == "single-rsmpc":
        for k in range(ns, n_total + 1):
            descs.extend(sc.build_smpc_constraints(cfg, k, obs_at(k),
                                                   prob.setup.detail_sched[k - ns],
                                                   "detailed", with_input=k < n_total))

    if obs_pred is None:
        descs = [d for d in descs if d.label not in ("robust_ellipse", "chance_ellipse")]

    rows_a, rows_b, labels = [], [], []
    # initial-error membership: supports of the tube cross-section in the
    # constraint directions propagated over the robust horizon
    for a_row, b_off in zip(prob.setup.tube_rows_a, prob.setup.tube_rows_b):
        r = np.zeros(prob.n_y)
        r[:prob.n_beta] = a_row
        rows_a.append(r)
        rows_b.append(float(b_off))
        labels.append("tube_membership")

    for d in descs:
        if isinstance(d, sc.StageRow):
            S, s = _quantity_map(prob, d.quantity, d.k)
            a = np.asarray(d.a, dtype=float)
            rows_a.append(a @ S)
            rows_b.append(d.ub - float(a @ s))
            labels.append(d.label)
        else:
            S, s = _quantity_map(prob, d.quantity, d.k)
            prob.nonlinear.append(_NlItem(d, S, s))

    prob.a_static = np.array(rows_a) if rows_a else np.zeros((0, prob.n_y))
    prob.b_static = np.array(rows_b)
    prob.static_labels = labels


# ---------------------------------------------------------------------------
# nonlinear constraint evaluation


def _ellipse_value_grad(desc, pt):
    dx = (pt[0] - desc.center[0]) / desc.a
    dy = (pt[1] - desc.center[1]) / desc.b
    g = dx * dx + dy * dy - 1.0
    grad = np.array([2.0 * dx / desc.a, 2.0 * dy / desc.b])
    return g, grad


def _margin(desc, grad) -> float:
    """Chance margin gamma of a keep-out ellipse (0 for a robust one)."""
    return 0.0 if desc.p is None else chance.gamma(grad, np.asarray(desc.sigma), desc.p)


def _inner_lin_point(desc, pt):
    """Linearization point for a position inside the keep-out ellipse, None
    for one outside it (which is its own linearization point).

    Points inside the ellipse give a vanishing or inward gradient, so they are
    projected radially onto the nearest boundary point; an exactly central
    point falls back to the rear face, which is the side the robot approaches
    from.
    """
    r = np.array([(pt[0] - desc.center[0]) / desc.a,
                  (pt[1] - desc.center[1]) / desc.b])
    rho = float(np.hypot(r[0], r[1]))
    if rho >= 1.0:
        return None
    if rho < 1e-9:
        r, rho = np.array([-1.0, 0.0]), 1.0
    r /= rho
    return np.array([desc.center[0] + desc.a * r[0],
                     desc.center[1] + desc.b * r[1]])


def _edge_active(desc, pt) -> bool:
    return desc.x_range[0] - _EDGE_BUFFER <= pt[0] <= desc.x_range[1] + _EDGE_BUFFER


def nonlinear_violation(prob: OcpProblem, y):
    """Worst true constraint violation at y (0 when feasible) and the
    keep-outs linearized at y: returns (worst, a_nl, b_nl), rows a_nl y' <= b_nl.

    One pass serves both outputs: a position outside its ellipse is its own
    linearization point, so its value, gradient and chance margin are
    computed once; one inside is linearized again at its boundary projection.
    """
    worst = 0.0
    if len(prob.b_static):
        worst = max(worst, float(np.max(prob.a_static @ y - prob.b_static)))
    if prob.a_eq is not None and len(prob.a_eq):
        worst = max(worst, float(np.max(np.abs(prob.a_eq @ y - prob.b_eq))))
    rows, ubs = [], []
    for item in prob.nonlinear:
        pt = item.S @ y + item.s
        d = item.desc
        if isinstance(d, sc.EllipseKeepout):
            g, grad = _ellipse_value_grad(d, pt)
            gam = _margin(d, grad)
            worst = max(worst, gam - g)
            p_lin = _inner_lin_point(d, pt)
            if p_lin is None:
                p_lin = pt
            else:
                g, grad = _ellipse_value_grad(d, p_lin)
                gam = _margin(d, grad)
            rows.append(-(grad @ item.S))
            # g(p) + grad.(xi - p) >= gamma, with xi affine in y
            ubs.append(g - gam - float(grad @ p_lin) + float(grad @ item.s))
        elif _edge_active(d, pt):
            worst = max(worst, float(pt[1] - d.y_max))
            rows.append(item.S[1])
            ubs.append(d.y_max - item.s[1])
    if rows:
        return worst, np.array(rows), np.array(ubs)
    return worst, np.zeros((0, prob.n_y)), np.zeros(0)


# ---------------------------------------------------------------------------
# starts


def cold_start(prob: OcpProblem) -> np.ndarray:
    """Straight-line-to-target rollout kept clear of the keep-out ellipses.

    Stages under a chance keep-out get lifted over it (the detour past the
    small ellipse is cheap and stays well inside the lane). Stages under a
    robust keep-out brake short of it instead, since the robust ellipse
    nearly fills the lane and an over-the-top reference would start the
    solver at the lane bound.
    """
    cfg = prob.cfg
    y = np.zeros(prob.n_y)
    p0 = prob.x0[[0, 2]]
    tgt = np.array(cfg.target, dtype=float)
    delta = tgt - p0
    dist = float(np.linalg.norm(delta))
    if dist < 1e-9:
        return y
    speed = min(0.8 * cfg.vel_limit, dist / (cfg.n_total * cfg.dt))
    v_line = delta / dist * speed
    n_stage = cfg.n_total + 1
    p_ref = np.array([p0 + v_line * cfg.dt * k for k in range(n_stage)])
    # lift reference points that fall inside a keep-out ellipse of their stage
    by_stage: dict = {}
    for item in prob.nonlinear:
        if isinstance(item.desc, sc.EllipseKeepout):
            by_stage.setdefault(item.desc.k, []).append(item.desc)
    for k in range(n_stage):
        for d in by_stage.get(k, []):
            if d.p is None:
                cap = d.center[0] - 1.1 * d.a
                if p0[0] < cap:
                    p_ref[k, 0] = min(p_ref[k, 0], cap)
                continue
            dx = (p_ref[k, 0] - d.center[0]) / d.a
            dy = (p_ref[k, 1] - d.center[1]) / d.b
            if dx * dx + dy * dy < 1.15:
                lift = d.center[1] + 1.1 * d.b * np.sqrt(max(1.15 - dx * dx, 0.0))
                p_ref[k, 1] = min(max(p_ref[k, 1], lift), cfg.lane_high - 0.2)
    v_ref = np.diff(p_ref, axis=0) / cfg.dt
    v_ref = np.clip(v_ref, -cfg.vel_limit, cfg.vel_limit)
    v_ref = np.vstack([v_ref, v_ref[-1]])
    K, Kc = prob.setup.gains.K, prob.setup.gains.Kc
    for k in range(prob.n_nu):
        kk = min(k, n_stage - 1)
        x_ref = np.array([p_ref[kk, 0], v_ref[kk, 0], p_ref[kk, 1], v_ref[kk, 1]])
        y[prob.nu_slice(k)] = -K @ x_ref
    for j in range(len(prob.vbar_maps)):
        kk = min(cfg.ns + j, n_stage - 1)
        y[prob.c_slice(j)] = v_ref[kk] - Kc @ p_ref[kk]
    return y


def shift_warm_start(prob: OcpProblem, prev) -> np.ndarray:
    """Time-shift the previous solution by one step.

    Accepts either a raw decision vector or an OcpSolution. With a solution
    the initial-error slots are re-seeded to x0 - xbar_1 of the previous
    plan, so the shifted warm start reproduces the previous nominal
    trajectory exactly and stays feasible whenever the realized error
    remains inside the membership polytope.
    """
    xbar1 = None
    stitch_nu = None
    if isinstance(prev, OcpSolution):
        xbar1 = prev.xbar[1] if len(prev.xbar) > 1 else prev.xbar[0]
        if prev.vbar is not None and len(prev.vbar):
            # the shift promotes the first coarse stage to the last detailed
            # one; emulate its velocity input with the acceleration that
            # reproduces the same position update over one sample
            x_end = prev.xbar[-1]
            v_end = x_end[[1, 3]]
            acc = 2.0 * (prev.vbar[0] - v_end) / prob.cfg.dt
            K = prob.setup.gains.K
            stitch_nu = acc - K @ x_end
        prev = prev.y
    prev_y = np.asarray(prev, dtype=float)
    if prev_y.shape != (prob.n_y,):
        raise OcpError("warm-start vector has wrong length")
    y = prev_y.copy()
    if xbar1 is not None:
        y[:prob.n_beta] = prob.x0 - xbar1
    # shift only the real input slots; granular keeps an extra unused
    # junction-offset slot at the end of the nu block
    n_real = len(prob.xbar_maps) - 1
    for k in range(n_real - 1):
        y[prob.nu_slice(k)] = prev_y[prob.nu_slice(k + 1)]
    if stitch_nu is not None:
        y[prob.nu_slice(n_real - 1)] = stitch_nu
    n_c = len(prob.vbar_maps)
    for j in range(n_c - 1):
        y[prob.c_slice(j)] = prev_y[prob.c_slice(j + 1)]
    return y


# ---------------------------------------------------------------------------
# SQP


@dataclass
class OcpSolution:
    y: np.ndarray
    status: str                 # converged | max-iter | infeasible
    objective: float
    iterations: int
    qp_iterations: int
    softened: bool
    solve_time_ms: float
    beta: np.ndarray
    nus: np.ndarray             # (n_nu, 2)
    cs: Optional[np.ndarray]    # (Nl, 2) or None
    xbar: np.ndarray            # (Kd+1, 4)
    ubar: np.ndarray
    zeta: Optional[np.ndarray]  # (Nl+1, 2) or None
    vbar: Optional[np.ndarray]
    positions: np.ndarray       # (N+1, 2) planned positions
    violation: float
    active_set: list = field(default_factory=list)  # last QP's, warm-starts the next


def _solve_soft(prob: OcpProblem, a_nl, b_nl, penalty: float, active):
    """Retry with nonnegative slacks on the obstacle rows, penalized linearly."""
    n, m = prob.n_y, len(b_nl)
    H = np.zeros((n + m, n + m))
    H[:n, :n] = prob.H
    H[n:, n:] = 1e-6 * np.eye(m)
    f = np.concatenate([prob.f, penalty * np.ones(m)])
    a_top = np.hstack([prob.a_static, np.zeros((len(prob.b_static), m))])
    a_mid = np.hstack([a_nl, -np.eye(m)])
    a_low = np.hstack([np.zeros((m, n)), -np.eye(m)])
    A = np.vstack([a_top, a_mid, a_low])
    b = np.concatenate([prob.b_static, b_nl, np.zeros(m)])
    a_eq = b_eq = None
    if prob.a_eq is not None and len(prob.a_eq):
        a_eq = np.hstack([prob.a_eq, np.zeros((len(prob.b_eq), m))])
        b_eq = prob.b_eq
    return qp_solve(H, f, A, b, a_eq, b_eq, active=active)


def solve_sqp(prob: OcpProblem, settings: Optional[SqpSettings] = None,
              warm_start=None, trace: Optional[list] = None) -> OcpSolution:
    """SQP over the keep-out linearizations from the warm or the cold start.

    ``nonlinear_violation`` scores each point once: the start, each
    line-search trial (one that rounds back onto the current point reuses its
    result) and the halved point when the halvings run out. The accepted
    point's result gives the next QP's keep-out rows, the line search's
    reference, the best-iterate and stall tests, the trace row and the status.
    """
    if settings is None:
        settings = SqpSettings.from_config(prob.cfg)
    t_start = time.perf_counter()
    if warm_start is not None:
        y = shift_warm_start(prob, warm_start)
    else:
        y = cold_start(prob)
    # QP working set carried from each QP to the next (see the module docstring)
    active = warm_start.active_set if isinstance(warm_start, OcpSolution) else []
    softened = False
    status = "max-iter"
    qp_total = 0
    it = 0
    stall = 0
    v_last = np.inf
    v, a_nl, b_nl = nonlinear_violation(prob, y)
    # best iterate seen so far: feasible with lowest objective if any iterate
    # is feasible, otherwise lowest true violation. Softened QPs drift toward
    # the keep-outs (slack minimization rewards approaching them), so the
    # final iterate is not automatically the one to execute.
    best_y = y.copy()
    best_v = v
    best_obj = prob.objective(y)

    def _consider(cand, v):
        nonlocal best_y, best_v, best_obj
        obj = prob.objective(cand)
        feasible = v <= settings.violation_tol
        best_feasible = best_v <= settings.violation_tol
        if feasible and (not best_feasible or obj < best_obj):
            best_y, best_v, best_obj = cand.copy(), v, obj
        elif not feasible and not best_feasible and v < best_v:
            best_y, best_v, best_obj = cand.copy(), v, obj

    for it in range(1, settings.max_iter + 1):
        A = np.vstack([prob.a_static, a_nl])
        b = np.concatenate([prob.b_static, b_nl])
        sol = qp_solve(prob.H, prob.f, A, b, prob.a_eq, prob.b_eq, active=active)
        qp_total += sol.iterations
        soft_used = sol.status != "optimal"
        if soft_used:
            soft = _solve_soft(prob, a_nl, b_nl, settings.soft_penalty, active)
            qp_total += soft.iterations
            if soft.status != "optimal":
                if trace is not None:
                    trace.append({"iter": it, "event": "infeasible"})
                return _make_solution(prob, y, "infeasible", it, qp_total,
                                      softened, t_start, active, v)
            slack = soft.x[prob.n_y:]
            if np.any(slack > 1e-7):
                softened = True
            y_full = soft.x[:prob.n_y]
            active = soft.active_set
        else:
            y_full = sol.x
            active = sol.active_set
        step = y_full - y
        step_norm = float(np.max(np.abs(step))) if step.size else 0.0
        # position trust region: keep the linearization local so the solver
        # stays in the basin of the current plan instead of jumping across
        # a keep-out in a single linearized step
        t = 1.0
        if settings.pos_step_limit > 0.0 and step.size:
            disp = prob.positions(y + step) - prob.positions(y)
            max_disp = float(np.max(np.abs(disp))) if disp.size else 0.0
            if max_disp > settings.pos_step_limit:
                t = settings.pos_step_limit / max_disp
        # line search: halve until the true violation does not grow; when
        # the halvings run out, the point one halving further is taken
        v_ok = max(v, 0.0) + settings.violation_tol
        for h in range(settings.max_halvings + 1):
            y_try = y + t * step
            ev = (v, a_nl, b_nl) if np.array_equal(y_try, y) else nonlinear_violation(prob, y_try)
            if h == settings.max_halvings or ev[0] <= v_ok:
                break
            t *= 0.5
        y, (v, a_nl, b_nl) = y_try, ev
        _consider(y, v)
        if trace is not None:
            trace.append({"iter": it, "step_norm": step_norm, "damping": t,
                          "objective": prob.objective(y), "violation": v,
                          "qp_iterations": sol.iterations})
        if step_norm * t < settings.step_tol or (t == 1.0 and step_norm < settings.step_tol):
            break
        # when the problem is genuinely infeasible the softened iterates can
        # cycle without reducing the true violation; stop paddling once no
        # progress is made for two iterations
        if soft_used:
            stall = stall + 1 if v >= v_last - 1e-4 else 0
            v_last = min(v_last, v)
            if stall >= 2:
                break
    # execute the best iterate of the solve, not necessarily the last one:
    # feasible with lowest objective when any iterate was feasible, otherwise
    # lowest true violation (typically the shifted previous plan, the usual
    # recursive-feasibility fallback)
    if best_v <= settings.violation_tol and it < settings.max_iter:
        status = "converged"
    elif best_v <= settings.violation_tol and it == settings.max_iter:
        # hit the cap but the last step may still have been tiny
        status = "converged" if float(np.max(np.abs(step))) * t < settings.step_tol else "max-iter"
    return _make_solution(prob, best_y, status, it, qp_total, softened, t_start, active, best_v)


def _make_solution(prob: OcpProblem, y, status, iterations, qp_total, softened,
                   t_start, active, violation) -> OcpSolution:
    xbar, ubar, zeta, vbar = prob.trajectories(y)
    nus = np.array([y[prob.nu_slice(k)] for k in range(prob.n_nu)])
    n_c = len(prob.vbar_maps)
    cs = np.array([y[prob.c_slice(j)] for j in range(n_c)]) if n_c else None
    return OcpSolution(
        y=y.copy(), status=status, objective=prob.objective(y),
        iterations=iterations, qp_iterations=qp_total, softened=softened,
        solve_time_ms=1e3 * (time.perf_counter() - t_start),
        beta=y[:prob.n_beta].copy(), nus=nus, cs=cs, xbar=xbar, ubar=ubar,
        zeta=zeta, vbar=vbar, positions=prob.positions(y),
        violation=violation, active_set=list(active))


def extract_control(solution: OcpSolution, x0, K) -> np.ndarray:
    """Applied control K x0 + nu0, cross-checked against ubar0 + K (x0 - xbar0)."""
    if solution.status == "infeasible":
        raise OcpError("cannot extract control from an infeasible solution")
    x0 = np.asarray(x0, dtype=float)
    K = np.asarray(K, dtype=float)
    u_direct = K @ x0 + solution.nus[0]
    u_alt = solution.ubar[0] + K @ (x0 - solution.xbar[0])
    if float(np.max(np.abs(u_direct - u_alt))) > 1e-10:
        raise OcpError("control extraction forms disagree beyond tolerance")
    return u_direct
