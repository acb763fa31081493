"""Dense strictly-convex QP solver (dual active-set, Goldfarb-Idnani).

Solves   min 1/2 x' H x + f' x
         s.t. A_eq x = b_eq,  A_ineq x <= b_ineq

Rows are numbered equalities first, then inequality i at m_eq + i; both
``QpSolution.active_set`` and the optional initial working set ``active``
use this numbering.

The solve uses H only through J = L^{-1} for H = L L' (Goldfarb & Idnani's
form); a caller that solves many QPs with one H passes
``factor=_factor(H)[0]``, factored once. It starts from the minimizer with
the equalities and the rows guessed in ``active`` held (none by default; rows
out of range are skipped), in the range space of their normals N (Ferreau,
Bock & Diehl 2008): with V = J N and w0 = -J f it is x = J'(w0 + V u), where
G u = d - V' w0 on the Gram matrix G = V' V. The Cholesky pivots of G, each
> _TOL, test the rows' independence; only if that fails are rows dependent
on those before them skipped. Negative inequality multipliers are dropped,
most negative first, each by making its row and column of G the identity's
and its right-hand side 0. The start is a valid pair of the dual method and
costs one iteration; from there violated inequalities are added one at a
time, dropping blocking ones, so no feasible point is required. Equalities
are never dropped (their duals are unsigned); one that depends on the others
and is not met makes the QP infeasible. A guess from a closely related QP
(the previous SQP iteration or MPC step) saves most of the iterations; a
wrong guess costs iterations, never the result.

Where w0 is huge (ocp's soft QPs: a stiff penalty on a lightly weighted
slack), x = J'(w0 + V u) cancels. Two repairs run only on a residual out of
contract. A start whose held row misses its tolerance (below) takes one step
of iterative refinement. At the dual steps' optimum, a working-set row off
its tolerance or stationarity |H x + f - N u| > _TOL reruns start() on the
working set (a polish, not an iteration), and the loop resumes if x moved.

The contract is the KKT residuals on reported optima: stationarity <= 1e-7,
complementary slackness <= 1e-7, and primal feasibility row by row: every
row i is met to _TOL * (1 + |b_i|) with _TOL = 1e-9, i.e. to 1e-8 wherever
|b_i| <= 9, however large the offsets of the other rows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

_TOL = 1e-9   # feasibility and dependence tolerance (see the module docstring)
_REG = 1e-9   # ridge added to a Hessian that is not positive definite


@dataclass
class QpSolution:
    x: np.ndarray
    status: str                    # "optimal" | "infeasible" | "iteration_limit"
    duals_ineq: np.ndarray
    duals_eq: np.ndarray
    iterations: int
    active_set: list = field(default_factory=list)


def _factor(H: np.ndarray):
    """(J, Hs): Hs = L L' is H symmetrized (plus _REG I if that is not
    positive definite) and J = L^{-1}, so Hs^{-1} = J' J."""
    H = (H + H.T) / 2.0
    try:
        return np.linalg.inv(np.linalg.cholesky(H)), H
    except np.linalg.LinAlgError:
        Hr = H + _REG * np.eye(H.shape[0])
        return np.linalg.inv(np.linalg.cholesky(Hr)), Hr


def _solve(M, rhs):
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _independent(V: np.ndarray) -> list:
    """Columns of V kept in order while each adds a component of squared norm
    > _TOL orthogonal to those kept before it (the test the dual loop applies
    to a row it adds, z . n > _TOL)."""
    keep = list(range(V.shape[1]))
    while keep:
        r = np.abs(np.diag(np.linalg.qr(V[:, keep], mode="r")))
        weak = np.flatnonzero(r * r <= _TOL)
        if weak.size:
            del keep[weak[0]]
        else:
            del keep[len(r):]       # beyond n columns the rest are dependent
            break
    return keep


def qp_solve(H, f, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None,
             max_iter: Optional[int] = None, active: Iterable[int] = (),
             factor: Optional[np.ndarray] = None) -> QpSolution:
    H, f = np.asarray(H, dtype=float), np.asarray(f, dtype=float)
    n = f.shape[0]
    A_in = np.zeros((0, n)) if A_ineq is None else np.asarray(A_ineq, dtype=float)
    b_in = np.zeros(0) if b_ineq is None else np.asarray(b_ineq, dtype=float)
    A_e = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_e = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    m_in, m_eq = A_in.shape[0], A_e.shape[0]
    if max_iter is None:
        max_iter = 50 * (n + m_in + m_eq + 10)

    J = _factor(H)[0] if factor is None else factor
    w0 = -(J @ f)
    x = J.T @ w0

    # Every row in ">=" form n . x >= d, met to row_tol: equality j is
    # (A_eq[j], b_eq[j]), inequality i is (-A_ineq[i], -b_ineq[i]). act_idx
    # holds the working set's rows, the m_e equalities first, and held_in its
    # inequalities; the first m_act entries of u_buf and columns of N_buf and
    # W_buf hold their multipliers, normals N and W = H^{-1} N.
    A_all, d_all = np.vstack([A_e, -A_in]), np.concatenate([b_e, -b_in])
    row_tol = _TOL * (1.0 + np.abs(d_all))
    act_idx: list[int] = []
    u_buf, t_buf = np.empty(n), np.empty(n + 1)
    N_buf, W_buf = np.empty((n, n)), np.empty((n, n))
    held_in = np.zeros(m_in, dtype=bool)
    m_act = m_e = iters = 0

    def result(status):
        duals = np.zeros(m_eq + m_in)
        duals[act_idx] = u_buf[:m_act]
        # Stationarity is written as H x + f + A_eq' duals_eq = 0.
        return QpSolution(x, status, duals[m_eq:], -duals[:m_eq], iters, sorted(act_idx))

    def met(res, rows):   # whether residuals d - N' x of these rows are in contract
        return bool(np.all(np.abs(res) <= row_tol[rows]))

    def start(rows):
        """The start (see the module docstring) from the given rows, sorted;
        the result becomes x and the working set."""
        nonlocal x, act_idx, m_act, m_e
        N, d = A_all[rows].T, d_all[rows]
        V = J @ N
        G = V.T @ V
        try:
            weak = not np.linalg.cholesky(G).diagonal().min(initial=np.inf) ** 2 > _TOL
        except np.linalg.LinAlgError:
            weak = True
        if weak:
            sel = _independent(V)
            rows, N, d, V = [rows[j] for j in sel], N[:, sel], d[sel], V[:, sel]
            G = V.T @ V
        r = d - V.T @ w0
        m_e = bisect_left(rows, m_eq)   # equalities lead and stay
        held = np.ones(len(rows), dtype=bool)
        while True:
            u = _solve(G, r)
            if len(u) == m_e or u[m_e:].min() >= 0.0:
                break
            j = m_e + np.argmin(u[m_e:])
            held[j], G[j], G[:, j], G[j, j], r[j] = False, 0.0, 0.0, 1.0, 0.0
        x = J.T @ (w0 + V @ u)
        res = (d - N.T @ x) * held
        if not met(res, rows):
            delta = _solve(G, res)
            x, u = x + J.T @ (V @ delta), u + delta
        kept = np.asarray(rows, dtype=int)[held]
        act_idx, m_act = kept.tolist(), len(kept)
        u_buf[:m_act] = u[held]
        N_buf[:, :m_act], W_buf[:, :m_act] = N[:, held], J.T @ V[:, held]
        held_in[:] = False
        held_in[kept[m_e:] - m_eq] = True

    # Initial working set: the equalities, then the guessed inequalities.
    guess = sorted({int(i) for i in active if m_eq <= int(i) < m_eq + m_in})
    if m_eq or guess:
        iters = 1
        start(list(range(m_eq)) + guess)
        # An equality skipped as dependent keeps its value from here on,
        # since the equalities it depends on are never dropped.
        if np.any(np.abs(A_e @ x - b_e) > row_tol[:m_eq]):
            return result("infeasible")

    def pick_violated():
        s = A_in @ x - b_in
        viol = np.flatnonzero((s > row_tol[m_eq:]) & ~held_in)
        return int(viol[np.argmax(s[viol])]) if viol.size else None

    polished = True
    while True:
        p = pick_violated()
        if p is None:
            N, u = N_buf[:, :m_act], u_buf[:m_act]
            if polished or (met(d_all[act_idx] - N.T @ x, act_idx)
                            and np.max(np.abs(H @ x + f - N @ u)) <= _TOL):
                return result("optimal")
            polished = True
            start(sorted(act_idx))
            continue
        polished = False
        n_p, d_p = A_all[m_eq + p], d_all[m_eq + p]
        u_p, Hin = 0.0, J.T @ (J @ n_p)

        while True:
            iters += 1
            if iters > max_iter:
                return result("iteration_limit")
            N, W = N_buf[:, :m_act], W_buf[:, :m_act]
            r = _solve(N.T @ W, N.T @ Hin)
            z = Hin - W @ r

            # Dual blocking step: the least u_j / r_j over the droppable rows
            # (inequalities) with r_j > _TOL, else the appended inf; in t_buf.
            ratio = t_buf[:m_act - m_e + 1]
            ratio.fill(np.inf)
            np.divide(u_buf[m_e:m_act], r[m_e:], out=ratio[:-1], where=r[m_e:] > _TOL)
            blk = int(ratio.argmin())
            t1, blk = ratio[blk], m_e + blk
            ztn, slack = float(z @ n_p), d_p - float(n_p @ x)
            # With n rows in the working set z is zero in exact arithmetic, so
            # the step is dual-only (Goldfarb & Idnani's z = 0 case), and a
            # rounding-sized z must not add a row beyond the buffers.
            t2 = slack / ztn if m_act < n and ztn > _TOL else np.inf

            if not np.isfinite(t1) and not np.isfinite(t2):
                return result("infeasible")
            t = min(t1, t2)
            if np.isfinite(t2):
                x = x + t * z
            u_buf[:m_act] -= t * r
            u_p += t

            if t2 <= t1:
                act_idx.append(m_eq + p)
                N_buf[:, m_act], W_buf[:, m_act], u_buf[m_act] = n_p, Hin, u_p
                held_in[p] = True
                m_act += 1
                break
            # Drop the blocking constraint and retry with the same target.
            held_in[act_idx.pop(blk) - m_eq] = False
            N_buf[:, blk:m_act - 1] = N_buf[:, blk + 1:m_act]
            W_buf[:, blk:m_act - 1] = W_buf[:, blk + 1:m_act]
            u_buf[blk:m_act - 1] = u_buf[blk + 1:m_act]
            m_act -= 1
