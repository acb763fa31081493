"""Two-stage optimal control problem: condensation, SQP solver, control extraction.

The problem is condensed: decision variables y are the initial-state auxiliaries
beta, the short-stage input offsets nu_k, and (for the granular method) the
coarse input offsets c_k. Nominal trajectories are linear in z = (y, x0), so
the cost is an exact quadratic and all nonlinearity lives in the keep-outs
(ellipses around the obstacle and the static box), which the SQP loop
linearizes.

The problem is affine in the measured state x0 (the multiparametric-QP form of
Bemporad, Morari, Dua & Pistikopoulos, Automatica 2002), so ``MethodSetup``
condenses it once per method: the trajectory maps, the cost, the static rows,
the coupling equality and the keep-outs, stacked into arrays (``Keepouts``)
with their position maps on z. A step's ``assemble`` computes only the cost
terms f and c0, the right-hand sides b_static and b_eq, the keep-out offsets
and the predicted obstacle centres, and ``nonlinear_violation`` evaluates every
keep-out in one batched pass.

Each SQP iteration's QP is warm-started with the final active set of the QP
before it, and the first QP of a closed-loop step with the active set the
previous step ended with (carried on ``OcpSolution.active_set``). QP rows keep
their numbering between those solves: the coupling equalities, the static
rows, then the linearized keep-out rows (the soft-fallback QP appends its
slack bounds after those), so the guess is usually right or nearly so. A
wrong guess costs QP iterations, never the QP's result.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import chance, scenario as sc
from .models import LinearModel, GainPair
from .qp import _factor, qp_solve
from .sets import support
from .tube import TubeSpec, build_tube

METHODS = ("granular", "single-rsmpc", "single-rmpc")

_TAIL_TOL = 1e-7      # a membership direction must decay below this 1-norm
_MAX_POWERS = 200     # within this many powers of Phi'
_PRUNE_TOL = 1e-9     # a dropped membership row exceeds its offset by at most this
_SINGULAR_DET = 1e-10 # unit rows whose |det| is below this define no vertex
_BOX_SCALE = 1e3      # the pruning's bounding box, in multiples of Z's extent
_MAX_VERTICES = 2000  # beyond this many vertices the pruning stops early


class OcpError(RuntimeError):
    pass


def membership_rows(tube: TubeSpec, state_normals, K):
    """Half-space description of the initial-error freedom x0 - xbar0.

    The polytope is the intersection of (Phi^T)^k a <= h_Z((Phi^T)^k a) for
    every constraint normal a (the state box rows, then each feedback-gain
    row and its negative) and every power k. Membership implies, via the
    invariance of Z, that every prediction step's error stays within the Z
    supports in the constraint directions, so the tube tightening remains
    valid even though the set of admissible initial errors is an outer
    approximation of Z.

    Powers continue until the row has decayed below _TAIL_TOL, which makes the
    polytope invariant under the error recursion up to that tolerance: after
    a closed-loop shift every row of the new error follows from the next
    power at the old one, and the last (untelescoped) row is bounded by its
    vanishing norm. So a shifted plan meets these rows again; that says
    nothing of its other rows, which it does break (ROADMAP item 3). A
    direction still above _TAIL_TOL after _MAX_POWERS powers raises OcpError.

    Only the rows that bound the set are returned (``_irredundant``; past its
    vertex budget, every row it has not shown redundant), in the order
    above: every dropped row holds, to _PRUNE_TOL, at each vertex of the
    kept rows' polytope, so the two describe the same set and the
    invariance argument, which is about the set, still holds. Each row is
    scaled to unit norm, which leaves the set alone but keeps the tail
    powers (norms down to _TAIL_TOL) above the QP's absolute tolerances.
    """
    K = np.asarray(K, dtype=float)
    base = np.vstack([np.asarray(state_normals, dtype=float),
                      np.stack([K, -K], axis=1).reshape(-1, K.shape[1])])
    powers, d = [base], base
    count = np.zeros(len(base), dtype=int)     # powers each direction keeps
    alive = np.ones(len(base), dtype=bool)
    for _ in range(_MAX_POWERS):
        count += alive
        d = d @ tube.Phi                       # each row a -> Phi^T a
        alive &= np.abs(d).sum(axis=1) >= _TAIL_TOL
        if not alive.any():
            break
        powers.append(d)
    else:
        j = int(np.argmax(alive))
        raise OcpError(f"membership direction {base[j].tolist()} keeps 1-norm "
                       f"{np.abs(d[j]).sum():.2e} after {_MAX_POWERS} powers of Phi'")
    taken = np.arange(len(powers))[None, :] < count[:, None]
    rows = np.stack(powers, axis=1)[taken]     # direction by direction
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    offsets = support(tube.Z, rows)
    first = np.cumsum(count) - count           # each direction's power-0 row
    keep = _irredundant(rows, offsets, first, tube.Z)
    return rows[keep], offsets[keep]


def _irredundant(A, b, start, Z) -> np.ndarray:
    """Sorted indices of the rows of A x <= b that bound the set.

    Incremental vertex enumeration in the spirit of Clarkson's output-
    sensitive redundancy removal (FOCS 1994), with vertices in place of LPs
    because the dimension is small: begin with the corners of a box far
    outside Z, add the rows ``start`` that cut it, then repeatedly add the
    row that most exceeds its offset at some vertex, until no row exceeds
    its offset by more than _PRUNE_TOL at any vertex. An added row forms new
    vertices only on itself. Rows are unit norm, so a small |det| marks a
    vertex that is not well defined. Raises OcpError if a final vertex lies
    on the box (the rows leave the set unbounded).

    A row that holds at every vertex of an intermediate polytope, which
    contains the final one, is redundant. So past _MAX_VERTICES vertices
    (polytopes with hundreds of facets, from weakly damped gains) the
    enumeration stops and keeps every row not yet shown redundant, which
    bounds its time and memory.
    """
    n = A.shape[1]
    half = _BOX_SCALE * (np.abs(Z.center).max() + Z.interval_hull().max())
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.full(2 * n, half)])
    box = range(len(A) - 2 * n, len(A))
    kept = list(box)
    corners = half * np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    E = corners @ A.T - b                      # each vertex's excess on each row

    def add(r):
        # A new vertex lies where row r cuts an edge, and the n - 1 rows that
        # define that edge are active at its cut-off end.
        nonlocal E
        cut = E[:, r] > _PRUNE_TOL
        active = E[cut][:, kept] >= -_PRUNE_TOL
        subsets = list({(r,) + c for row in active
                        for c in itertools.combinations(np.array(kept)[row], n - 1)})
        kept.append(r)
        M = A[subsets]
        ok = np.abs(np.linalg.det(M)) > _SINGULAR_DET
        F = np.linalg.solve(M[ok], b[subsets][ok][..., None])[..., 0] @ A.T - b
        E = np.vstack([E[~cut], F[np.all(F[:, kept] <= _PRUNE_TOL, axis=1)]])

    for r in start:
        if E[:, r].max() > _PRUNE_TOL:
            add(r)
    while True:
        excess = E.max(axis=0)
        excess[kept] = -np.inf
        r = int(np.argmax(excess))
        if excess[r] <= _PRUNE_TOL:
            if np.any(E[:, box] >= -_PRUNE_TOL):
                raise OcpError("the membership rows do not bound the initial error")
            break
        if len(E) > _MAX_VERTICES:
            break
        add(r)
    keep = excess > _PRUNE_TOL
    keep[kept] = True
    return np.flatnonzero(keep[:-2 * n])


def _frozen(a) -> np.ndarray:
    """Read-only contiguous array: every step shares the setup's data."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Keepouts:
    """A method's keep-outs, stacked once: item i's position is S[i] y + x[i] x0.

    Items keep their descriptors' order, the order of their QP rows. Each
    keeps its position outside a shape, an ellipse around the obstacle's
    predicted position at its stage or a fixed box, by its margin plus the
    chance margin for its covariance and the risk all chance items share
    (zero covariance, so zero chance margin, for a robust one).
    """

    labels: tuple
    S: np.ndarray                # (m, 2, n_y)
    x: np.ndarray                # (m, 2, n_x)
    ellipse: np.ndarray          # (m,) True for an ellipse, False for a box
    center: np.ndarray           # (m, 2) a box's centre (an ellipse's comes each step)
    axes: np.ndarray             # (m, 2) semi-axes, or a box's half-widths
    margin: np.ndarray           # (m,)
    sigma: np.ndarray            # (m, 2, 2) position covariance
    stage: np.ndarray            # (me,) each ellipse's stage, which picks its centre
    robust: np.ndarray           # (me,)
    risk: float                  # 0.5 (a zero quantile) without chance items

    @classmethod
    def stack(cls, descs, maps: np.ndarray, n_y: int) -> "Keepouts":
        """From the descriptors and their position maps (m, 2, n_z) on z = (y, x0)."""
        ell = [d for d in descs if isinstance(d, sc.EllipseKeepout)]
        risks = {d.p for d in descs if d.p is not None} or {0.5}
        if len(risks) > 1:
            raise OcpError(f"chance keep-outs with different risk parameters {sorted(risks)}")
        # centre, semi-axes or half-widths, margin (an ellipse's centre comes each step)
        ext = np.reshape([[0.0, 0.0, d.a, d.b, 0.0] if isinstance(d, sc.EllipseKeepout) else
                          [*np.mean([np.min(d.corners, 0), np.max(d.corners, 0)], 0),
                           *np.ptp(d.corners, 0) / 2.0, d.margin] for d in descs], (-1, 5))
        return cls(
            labels=tuple(d.label for d in descs),
            S=_frozen(maps[:, :, :n_y]), x=_frozen(maps[:, :, n_y:]),
            ellipse=_frozen([isinstance(d, sc.EllipseKeepout) for d in descs]),
            center=_frozen(ext[:, :2]), axes=_frozen(ext[:, 2:4]), margin=_frozen(ext[:, 4]),
            sigma=_frozen(np.reshape([np.zeros((2, 2)) if d.p is None else d.sigma
                                      for d in descs], (-1, 2, 2))),
            stage=_frozen(np.array([d.k for d in ell], dtype=int)),
            robust=_frozen([d.p is None for d in ell]), risk=risks.pop())


class KeepoutTerms(NamedTuple):
    """A step's keep-out terms: the offsets x x0 (m, 2) and the ellipse
    centres (me, 2), None without an obstacle (then only boxes apply)."""

    offsets: np.ndarray
    centers: Optional[np.ndarray]


@dataclass
class MethodSetup:
    """Per-(config, method) data, built once and shared by every step.

    Besides the tube and the coarse covariance schedule, it holds the problem
    condensed on z = (y, x0): maps from z to the trajectories and the planned
    positions, the cost on z with the QP Hessian H and its factor J, the
    static rows (the tube membership rows first) and the coupling equality
    split into their y and x0 columns, and the stacked keep-outs. All arrays
    are read-only.
    """

    cfg: sc.ScenarioConfig
    model: LinearModel
    gains: GainPair
    tube: TubeSpec
    coarse_sched: Optional[chance.CovarianceSchedule]
    n_y: int                     # y = (beta, nu_0..nu_{n_nu-1}, c_0..c_{n_c-1})
    n_nu: int
    n_c: int                     # Nl for granular, else 0
    kd: int                      # last detailed stage
    traj_map: np.ndarray         # z -> (xbar_0..kd, ubar_0..kd-1, zeta_0..n_c, vbar_0..n_c-1)
    pos_map: np.ndarray          # z -> positions, stages 0..N
    cost_z: np.ndarray           # cost = z' cost_z z / 2 + grad_z . z + cost_const
    grad_z: np.ndarray
    cost_const: float
    H: np.ndarray                # y-y block of cost_z + 1e-8 I, symmetric
    J: np.ndarray                # inverse Cholesky factor, H^{-1} = J' J
    a_static: np.ndarray         # a_static y + static_x x0 <= static_ub
    static_x: np.ndarray
    static_ub: np.ndarray
    static_labels: tuple
    a_eq: Optional[np.ndarray]   # coupling a_eq y + eq_x x0 = 0 (granular)
    eq_x: Optional[np.ndarray]
    keepouts: Keepouts

    @classmethod
    def build(cls, cfg: sc.ScenarioConfig, method: str) -> "MethodSetup":
        if method not in METHODS:
            raise OcpError(f"unknown method {method!r}")
        model = sc.detailed_model(cfg)
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
        return cls(cfg, model, gains, tube, coarse_sched,
                   **_condense(cfg, method, model, gains, tube, tube_a, tube_b,
                               coarse_sched, detail_sched))


def _condense(cfg, method, model, gains, tube, tube_a, tube_b,
              coarse_sched, detail_sched) -> dict:
    """The MethodSetup fields from n_y on."""
    ns, nl, n_total = cfg.ns, cfg.nl, cfg.n_total
    coarse_stage = coarse_sched is not None
    kd = ns if coarse_stage else n_total          # last detailed stage index
    n_nu = kd                                     # nu_0..nu_{kd-1}
    n_c = nl if coarse_stage else 0
    n_beta = model.n_states
    n_y = n_beta + 2 * n_nu + 2 * n_c
    Phi, K, Phi_c, Kc = gains.Phi, gains.K, gains.Phi_c, gains.Kc
    Cpos, Cvel = sc.POS_ROWS, sc.VEL_ROWS

    def sel(start: int, width: int = 2) -> np.ndarray:
        """Selector of z[start:start + width]."""
        return np.eye(n_y + n_beta)[start:start + width]

    # nominal detailed trajectory; the first n_beta decision variables hold
    # the initial error x0 - xbar_0, constrained to the membership polytope
    # around the tube cross-section
    X = [sel(n_y, n_beta) - sel(0, n_beta)]
    U = []
    for k in range(kd):
        nu = sel(n_beta + 2 * k)
        U.append(K @ X[k] + nu)
        X.append(Phi @ X[k] + model.B @ nu)
    # coarse trajectory (granular long stage)
    Zc, V = [], []
    if coarse_stage:
        Zc.append(Cpos @ X[ns])
        for j in range(nl):
            c = sel(n_beta + 2 * n_nu + 2 * j)
            V.append(Kc @ Zc[j] + c)
            Zc.append(Phi_c @ Zc[j] + cfg.dt * c)

    # each stage quantity's maps, with the stage of the first one
    maps = {"state": (0, X), "input": (0, U), "state_pos": (0, [Cpos @ Xk for Xk in X]),
            "coarse_state": (ns, Zc), "coarse_input": (ns, V),
            "coarse_rate": (ns + 1, [v1 - v0 for v0, v1 in zip(V, V[1:])])}

    def quantity_map(quantity: str, k: int) -> np.ndarray:
        first, stage_maps = maps[quantity]
        return stage_maps[k - first]

    # cost: sum of (M z - ref)' W (M z - ref) over the stage terms
    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    Qc, Rc = np.diag(cfg.qc_diag), np.diag(cfg.rc_diag)
    x_t = sc.state(cfg.target, (0.0, 0.0))
    p_t = np.array(cfg.target, dtype=float)
    p_term = p_t if cfg.terminal_cost == "target" else np.zeros(2)
    z2 = np.zeros(2)
    terms = [t for k in range(kd) for t in ((X[k], Q, x_t), (U[k], R, z2))]
    if coarse_stage:
        terms += [t for j in range(nl) for t in ((Zc[j], Qc, p_t), (V[j], Rc, z2))]
        terms.append((Zc[nl], Qc, p_term))
    else:
        terms.append((Cpos @ X[kd], Qc, p_term))
    cost_z = sum(2.0 * M.T @ W @ M for M, W, _ in terms)
    grad_z = sum(-2.0 * M.T @ (W @ ref) for M, W, ref in terms)
    cost_const = sum(float(ref @ W @ ref) for _, W, ref in terms)
    # every variable enters the cost (the smallest eigenvalue is about 0.03 on
    # the default config); the ridge guards configs with zero weights
    J, H = _factor(cost_z[:n_y, :n_y] + 1e-8 * np.eye(n_y))

    descs: list = []
    robust_last = kd if method == "single-rmpc" else min(ns, kd)
    for k in range(robust_last + 1):
        with_input = k < kd and (k < ns or method == "single-rmpc")
        descs.extend(sc.build_rmpc_constraints(cfg, tube, k, with_input=with_input))
    if coarse_stage:
        for k in range(ns, n_total + 1):
            rows = sc.build_smpc_constraints(cfg, k, coarse_sched[k - ns], "coarse",
                                             with_input=k < n_total)
            if k == ns:
                rows = [d for d in rows if not (isinstance(d, sc.StageRow)
                                                and d.quantity == "coarse_rate")]
            descs.extend(rows)
    elif detail_sched is not None:
        for k in range(ns, n_total + 1):
            descs.extend(sc.build_smpc_constraints(cfg, k, detail_sched[k - ns],
                                                   "detailed", with_input=k < n_total))
    stage_rows = [d for d in descs if isinstance(d, sc.StageRow)]
    keep_descs = [d for d in descs if not isinstance(d, sc.StageRow)]
    # static rows: the initial-error membership (supports of the tube
    # cross-section in the constraint directions propagated over the robust
    # horizon), then the stage rows
    static = np.vstack([tube_a @ sel(0, n_beta)]
                       + [np.asarray(d.a) @ quantity_map(d.quantity, d.k) for d in stage_rows])
    keep = np.array([quantity_map(d.quantity, d.k) for d in keep_descs])
    # coupling: c_0 = v_Ns - Kc zeta_Ns with v_Ns the nominal velocity
    E = sel(n_beta + 2 * n_nu) - (Cvel - Kc @ Cpos) @ X[ns] if coarse_stage else None
    return dict(
        n_y=n_y, n_nu=n_nu, n_c=n_c, kd=kd,
        traj_map=_frozen(np.vstack(X + U + Zc + V)),
        pos_map=_frozen(np.vstack(maps["state_pos"][1] + Zc[1:])),
        cost_z=_frozen(cost_z), grad_z=_frozen(grad_z), cost_const=cost_const,
        H=_frozen(H), J=_frozen(J),
        a_static=_frozen(static[:, :n_y]), static_x=_frozen(static[:, n_y:]),
        static_ub=_frozen(np.concatenate([tube_b, [d.ub for d in stage_rows]])),
        static_labels=("tube_membership",) * len(tube_b) + tuple(d.label for d in stage_rows),
        a_eq=None if E is None else _frozen(E[:, :n_y]),
        eq_x=None if E is None else _frozen(E[:, n_y:]),
        keepouts=Keepouts.stack(keep_descs, keep, n_y))


@dataclass
class OcpProblem:
    """One step's problem: the setup's data plus the x0 and obstacle terms."""

    setup: MethodSetup
    x0: np.ndarray
    f: np.ndarray
    c0: float
    b_eq: Optional[np.ndarray]
    a_static: np.ndarray
    b_static: np.ndarray
    nonlinear: KeepoutTerms      # an empty sequence means no keep-outs

    # -- the setup's data ----------------------------------------------------
    @property
    def n_y(self) -> int:
        return self.setup.n_y

    @property
    def H(self) -> np.ndarray:
        return self.setup.H

    @property
    def a_eq(self) -> Optional[np.ndarray]:
        return self.setup.a_eq

    # -- slices --------------------------------------------------------------
    def nu_slice(self, k: int) -> slice:
        n_beta = self.setup.model.n_states
        return slice(n_beta + 2 * k, n_beta + 2 * k + 2)

    def c_slice(self, j: int) -> slice:
        base = self.setup.model.n_states + 2 * self.setup.n_nu
        return slice(base + 2 * j, base + 2 * j + 2)

    # -- evaluation ----------------------------------------------------------
    def objective(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(0.5 * y @ self.H @ y + self.f @ y + self.c0)

    def trajectories(self, y):
        """(xbar, ubar, zeta, vbar); zeta and vbar are None without a coarse stage."""
        st = self.setup
        q = st.traj_map @ np.concatenate([y, self.x0])
        i = 4 * (st.kd + 1)
        j = i + 2 * st.kd
        m = j + 2 * (st.n_c + 1)
        zeta, vbar = (q[j:m].reshape(-1, 2), q[m:].reshape(-1, 2)) if st.n_c else (None, None)
        return q[:i].reshape(-1, 4), q[i:j].reshape(-1, 2), zeta, vbar

    def positions(self, y) -> np.ndarray:
        """Planned positions over the full horizon (detailed then coarse)."""
        return (self.setup.pos_map @ np.concatenate([y, self.x0])).reshape(-1, 2)


def assemble(setup: MethodSetup, x0, obstacle: Optional[sc.DynamicObstacle] = None) -> OcpProblem:
    """The problem at state x0: the setup's data with f, c0, b_static, b_eq
    and the keep-out offsets from x0 and the ellipse centres predicted from
    the obstacle (no ellipses without one)."""
    x0 = np.asarray(x0, dtype=float)
    n = setup.n_y
    Hz, gz = setup.cost_z, setup.grad_z
    ko = setup.keepouts
    centers = None
    if obstacle is not None:
        centers = sc.predict_obstacle(obstacle, setup.cfg.n_total, setup.cfg.dt)[ko.stage]
    return OcpProblem(
        setup=setup, x0=x0,
        f=Hz[:n, n:] @ x0 + gz[:n],
        c0=float(0.5 * x0 @ Hz[n:, n:] @ x0 + gz[n:] @ x0 + setup.cost_const),
        b_eq=None if setup.eq_x is None else -(setup.eq_x @ x0),
        a_static=setup.a_static, b_static=setup.static_ub - setup.static_x @ x0,
        nonlinear=KeepoutTerms(ko.x @ x0, centers))


# ---------------------------------------------------------------------------
# nonlinear constraint evaluation


def nonlinear_violation(prob: OcpProblem, y):
    """Worst true constraint violation at y (0 when feasible) and the
    keep-outs linearized at y: returns (worst, a_nl, b_nl), rows a_nl y' <= b_nl.

    All keep-outs are evaluated at once. Each has a value that must reach its
    margin plus the chance margin gamma of its gradient, and its row is the
    value's tangent; rows follow item order, without ellipses when there is
    no obstacle. A box's value is the signed distance from it, whose
    gradient is the unit vector from the nearest point outside and the
    nearest facet's outward normal inside (the lower one from the exact
    centre), so its row is a supporting half-plane of the box. An ellipse's
    value is |r|^2 - 1, r = (p - c) / axes; from inside it is linearized at
    the radial projection onto the boundary (from the exact centre, at the
    rear face, the side the robot approaches from).
    """
    worst = float(np.max(prob.a_static @ y - prob.b_static, initial=0.0))
    if prob.a_eq is not None:
        worst = float(np.max(np.abs(prob.a_eq @ y - prob.b_eq), initial=worst))
    if not prob.nonlinear:
        return worst, np.zeros((0, prob.n_y)), np.zeros(0)
    ko = prob.setup.keepouts
    offsets, centers = prob.nonlinear
    m, e = len(offsets), ko.ellipse
    pos = (ko.S.reshape(2 * m, -1) @ y).reshape(m, 2) + offsets
    c = ko.center.copy()
    if centers is not None:
        c[e] = centers
    # each item's value and gradient as a box and as an ellipse, kept for its
    # kind, at p (layer 0) and where its row is linearized (layer 1); the row
    # is grad.(xi - c) >= h + margin + gamma
    rel = pos - c
    q = np.abs(rel) - ko.axes                       # beyond the half-widths, per axis
    out = np.maximum(q, 0.0)
    dist = np.hypot(out[:, 0], out[:, 1])
    inside = (dist == 0.0)[:, None]
    unit = np.where(inside, np.eye(2)[np.argmax(q, axis=1)],
                    out / np.where(inside, 1.0, dist[:, None]))
    r = rel / ko.axes
    rho = np.hypot(r[:, 0], r[:, 1])
    r_lin = r / np.clip(rho, 1e-9, 1.0)[:, None]   # projected from inside
    r_lin[rho < 1e-9] = -1.0, 0.0
    rr = np.stack([r, r_lin])                       # at p and at p_lin
    value = np.where(e, np.einsum("kij,kij->ki", rr, rr) - 1.0,
                     np.where(inside[:, 0], q.max(axis=1), dist))
    grad = np.where(e[:, None], 2.0 * rr / ko.axes, np.where(rel > 0.0, unit, -unit))
    # h: grad.(p_lin - c) = 2 |r_lin|^2 = 2 + g(p_lin), or the box's support
    h = np.where(e, value[1] + 2.0, np.einsum("ij,ij->i", unit, ko.axes))
    gam = chance.gamma(grad, ko.sigma, ko.risk)
    keep = ~e if centers is None else slice(None)
    worst = float(np.max((ko.margin + gam[0] - value[0])[keep], initial=worst))
    ub = np.einsum("ij,ij->i", grad[1], offsets - c) - h - ko.margin - gam[1]
    return worst, -np.einsum("ij,ijk->ik", grad[1], ko.S)[keep], ub[keep]


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
    cfg = prob.setup.cfg
    y = np.zeros(prob.n_y)
    p0 = prob.x0[sc.POS]
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
    # (each ellipse moves only its own stage's point, so item order suffices)
    ko = prob.setup.keepouts
    centers = prob.nonlinear.centers if prob.nonlinear else None
    for k, (a, b), c, robust in zip(ko.stage, ko.axes[ko.ellipse],
                                    () if centers is None else centers, ko.robust):
        if robust:
            cap = c[0] - 1.1 * a
            if p0[0] < cap:
                p_ref[k, 0] = min(p_ref[k, 0], cap)
            continue
        dx = (p_ref[k, 0] - c[0]) / a
        dy = (p_ref[k, 1] - c[1]) / b
        if dx * dx + dy * dy < 1.15:
            lift = c[1] + 1.1 * b * np.sqrt(max(1.15 - dx * dx, 0.0))
            p_ref[k, 1] = min(max(p_ref[k, 1], lift), cfg.lane_high - 0.2)
    v_ref = np.diff(p_ref, axis=0) / cfg.dt
    v_ref = np.clip(v_ref, -cfg.vel_limit, cfg.vel_limit)
    v_ref = np.vstack([v_ref, v_ref[-1]])
    K, Kc = prob.setup.gains.K, prob.setup.gains.Kc
    for k in range(prob.setup.n_nu):
        y[prob.nu_slice(k)] = -K @ sc.state(p_ref[k], v_ref[k])
    for j, k in enumerate(range(cfg.ns, cfg.ns + prob.setup.n_c)):
        y[prob.c_slice(j)] = v_ref[k] - Kc @ p_ref[k]
    return y


def shift_warm_start(prob: OcpProblem, prev: "OcpSolution") -> np.ndarray:
    """Time-shift the previous solution by one step.

    The initial-error slots are re-seeded to x0 - xbar_1 of the previous plan,
    so the shifted plan reproduces the previous nominal trajectory from its
    stage 1 on, and each input block moves up one stage and repeats its last
    input. The result is a start, not a feasible point: it meets the
    membership rows again (see ``membership_rows``), but the stitched coarse
    stage, the stage that moves from chance to robust rows and the moved
    obstacle prediction break other rows (ROADMAP item 3).
    """
    # y = (beta, nu_0..nu_{n_nu-1}, c_0..c_{n_c-1})
    st = prob.setup
    n_beta = st.model.n_states
    y = prev.y.copy()
    y[:n_beta] = prob.x0 - (prev.xbar[1] if len(prev.xbar) > 1 else prev.xbar[0])
    c0 = prob.c_slice(0).start
    y[n_beta:c0 - 2] = prev.y[n_beta + 2:c0]
    y[c0:-2] = prev.y[c0 + 2:]
    if prev.vbar is not None and st.n_nu:
        # the shift promotes the first coarse stage to the last detailed
        # one; emulate its velocity input with the acceleration that
        # reproduces the same position update over one sample
        x_end = prev.xbar[-1]
        acc = 2.0 * (prev.vbar[0] - x_end[sc.VEL]) / st.cfg.dt
        y[prob.nu_slice(st.n_nu - 1)] = acc - st.gains.K @ x_end
    return y


# ---------------------------------------------------------------------------
# SQP


@dataclass
class OcpSolution:
    y: np.ndarray
    # converged (a step below sqp_step_tol, or a full feasible QP step
    # certified a KKT point by _certified) | max-iter (feasible, stopped at
    # max_iter still moving) | violating (executed plan violates by more
    # than violation_tol) | infeasible
    status: str
    iterations: int
    qp_iterations: int
    softened: bool
    solve_time_ms: float        # wall time
    solve_cpu_ms: float         # CPU time of the solving thread
    nus: np.ndarray             # (n_nu, 2)
    xbar: np.ndarray            # (Kd+1, 4)
    ubar: np.ndarray
    vbar: Optional[np.ndarray]  # (Nl, 2) or None
    violation: float
    active_set: list = field(default_factory=list)  # last QP's, warm-starts the next


def _solve_soft(prob: OcpProblem, a_nl, b_nl, penalty: float, active):
    """Retry with nonnegative slacks on the obstacle rows, penalized linearly."""
    n, m = prob.n_y, len(b_nl)
    # H and its factor are block diagonal: the setup's and a slack curvature
    # of 1e-6, whose inverse Cholesky factor is 1e3
    H, J = np.zeros((2, n + m, n + m))
    H[:n, :n], J[:n, :n] = prob.H, prob.setup.J
    H[n:, n:], J[n:, n:] = 1e-6 * np.eye(m), 1e3 * np.eye(m)
    f = np.concatenate([prob.f, penalty * np.ones(m)])
    a_top = np.hstack([prob.a_static, np.zeros((len(prob.b_static), m))])
    a_mid = np.hstack([a_nl, -np.eye(m)])
    a_low = np.hstack([np.zeros((m, n)), -np.eye(m)])
    A = np.vstack([a_top, a_mid, a_low])
    b = np.concatenate([prob.b_static, b_nl, np.zeros(m)])
    a_eq = None if prob.a_eq is None else np.hstack([prob.a_eq, np.zeros((len(prob.b_eq), m))])
    return qp_solve(H, f, A, b, a_eq, prob.b_eq, active=active, factor=J)


def solve_sqp(prob: OcpProblem, warm_start: Optional[OcpSolution] = None,
              trace: Optional[list] = None) -> OcpSolution:
    """SQP over the keep-out linearizations from the warm or the cold start.

    The solver settings (``sqp_*`` and ``soft_penalty``) come from the
    setup's config, ``prob.setup.cfg``.

    Each iteration takes its trust-region-damped step, and
    ``nonlinear_violation`` scores each point once: the start and each
    iterate (one that rounds back onto the current point reuses its result).
    An iterate's result gives the next QP's keep-out rows, the best-iterate
    test, the trace row and the status.

    The solve is ``converged`` when a step is shorter than sqp_step_tol, or
    one QP earlier (the termination test of Nocedal & Wright, Numerical
    Optimization, 2nd ed., 18.3) when a hard QP's full step is feasible and
    ``_certified`` as a KKT point of the nonlinear problem. With no keep-out
    row binding the certificate is exact: that QP's optimum is then the
    optimum over the static and coupling rows alone, a relaxation of the
    problem, and being feasible it is the problem's optimum, which the next
    QP would only return again.
    """
    cfg = prob.setup.cfg
    t_start = time.perf_counter(), time.thread_time()
    # QP working set carried from each QP to the next (see the module docstring)
    if warm_start is not None:
        y, active = shift_warm_start(prob, warm_start), warm_start.active_set
    else:
        y, active = cold_start(prob), []
    softened = False
    qp_total = 0
    v, a_nl, b_nl = nonlinear_violation(prob, y)
    # the best iterate so far (see the end) has the least key; a tie keeps
    # the earlier point
    def rank(point, violation):
        return (0, prob.objective(point)) if violation <= cfg.sqp_violation_tol else (1, violation)

    best_key, best_y, best_v = rank(y, v), y, v
    for it in range(1, cfg.sqp_max_iter + 1):
        A = np.vstack([prob.a_static, a_nl])
        b = np.concatenate([prob.b_static, b_nl])
        sol = qp_solve(prob.H, prob.f, A, b, prob.a_eq, prob.b_eq, active=active,
                       factor=prob.setup.J)
        qp_total += sol.iterations
        if sol.status != "optimal":
            soft = _solve_soft(prob, a_nl, b_nl, cfg.soft_penalty, active)
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
        step_norm = float(np.max(np.abs(step)))
        # position trust region: keep the linearization local so the solver
        # stays in the basin of the current plan instead of jumping across
        # a keep-out in a single linearized step
        t = 1.0
        max_disp = float(np.max(np.abs(prob.positions(y + step) - prob.positions(y))))
        if max_disp > cfg.sqp_pos_step_limit:
            t = cfg.sqp_pos_step_limit / max_disp
        y_next = y + t * step
        a_old = a_nl
        if not np.array_equal(y_next, y):
            y, (v, a_nl, b_nl) = y_next, nonlinear_violation(prob, y_next)
        key = rank(y, v)
        if key < best_key:
            best_key, best_y, best_v = key, y, v
        if trace is not None:
            trace.append({"iter": it, "step_norm": step_norm, "damping": t,
                          "objective": prob.objective(y), "violation": v,
                          "qp_iterations": sol.iterations})
        converged = step_norm * t < cfg.sqp_step_tol or (
            sol.status == "optimal" and t == 1.0 and v <= cfg.sqp_violation_tol
            and _certified(prob, sol.duals_ineq[len(prob.b_static):], a_old, a_nl, b_nl, y))
        if converged:
            break
    # execute the best iterate of the solve, not necessarily the last one,
    # since softened QPs drift toward the keep-outs (slack minimization
    # rewards approaching them): feasible with lowest objective when any
    # iterate was feasible, otherwise lowest true violation. The start (the
    # shifted previous plan) competes like any iterate; it is no feasible
    # fallback (ROADMAP item 3)
    if best_v > cfg.sqp_violation_tol:
        status = "violating"
    elif converged:
        status = "converged"
    else:
        status = "max-iter"
    return _make_solution(prob, best_y, status, it, qp_total, softened, t_start, active, best_v)


def _certified(prob: OcpProblem, mu, a_old, a_new, b_new, y) -> bool:
    """Whether y, the full step of a QP with keep-out multipliers mu on the
    rows a_old, is a KKT point of the nonlinear problem with a_new, b_new its
    rows relinearized at y.

    The QP's multipliers stay valid at y but for the rows' change of normal:
    the stationarity residual is r = (a_new - a_old)' mu over the rows with
    mu > 0, and the active rows must stay met with equality. Both are taken
    below sqp_step_tol, r as the Newton step H^{-1} r = J'J r it would cause.
    """
    act = mu > 0.0
    r = (a_new[act] - a_old[act]).T @ mu[act]
    J, tol = prob.setup.J, prob.setup.cfg.sqp_step_tol
    return (float(np.max(np.abs(J.T @ (J @ r)), initial=0.0)) < tol
            and float(np.max(np.abs(a_new[act] @ y - b_new[act]), initial=0.0)) < tol)


def _make_solution(prob: OcpProblem, y, status, iterations, qp_total, softened,
                   t_start, active, violation) -> OcpSolution:
    xbar, ubar, _, vbar = prob.trajectories(y)
    n_beta = prob.setup.model.n_states
    nus = y[n_beta:n_beta + 2 * prob.setup.n_nu].reshape(-1, 2)
    return OcpSolution(
        y=y.copy(), status=status, iterations=iterations, qp_iterations=qp_total, softened=softened,
        solve_time_ms=1e3 * (time.perf_counter() - t_start[0]),
        solve_cpu_ms=1e3 * (time.thread_time() - t_start[1]),
        nus=nus, xbar=xbar, ubar=ubar, vbar=vbar,
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
