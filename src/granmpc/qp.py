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
G u = d - V' w0 on the Gram matrix G = V' V. The Cholesky pivots of G,
each > _TOL, test the rows' independence; only if that fails are rows
dependent on those before them skipped. Negative inequality multipliers are
dropped, most negative first, each by making its row and column of G the
identity's and its right-hand side 0, and one step of iterative refinement on
the held rows clears the cancellation in J'(w0 + V u) when w0 is huge (a
stiff penalty on a lightly weighted slack). The start is then a valid pair of
the dual method and costs one iteration. From there violated inequalities are
added one at a time, dropping blocking ones, so no feasible starting point is
required. Equalities are never dropped (their duals are unsigned); one that
depends on the others and is not met makes the QP infeasible. A guess from a
closely related QP (the previous SQP iteration or MPC step) saves most of the
iterations; a wrong guess costs iterations, never the result.

The contract is the KKT residuals on reported optima: stationarity <= 1e-7,
complementary slackness <= 1e-7, and primal feasibility row by row: every
row i is met to _TOL * (1 + |b_i|) with _TOL = 1e-9, i.e. to 1e-8 wherever
|b_i| <= 9, however large the offsets of the other rows.
"""

from __future__ import annotations

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
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
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

    # Working set in ">=" form n . x >= d: equality j as (A_eq[j], b_eq[j]),
    # inequality i as (-A_ineq[i], -b_ineq[i]). act_idx holds row numbers,
    # act_u their multipliers; the first m_act columns of N_buf and W_buf hold
    # the normals N and W = H^{-1} N.
    act_idx: list[int] = []
    act_u: list[float] = []
    N_buf = np.empty((n, n))
    W_buf = np.empty((n, n))
    m_act = 0
    row_tol = _TOL * (1.0 + np.abs(b_in))
    iters = 0

    def result(status):
        duals = np.zeros(m_eq + m_in)
        duals[act_idx] = act_u
        # Stationarity is written as H x + f + A_eq' duals_eq = 0.
        return QpSolution(x, status, duals[m_eq:], -duals[:m_eq], iters, sorted(act_idx))

    def start(rows):
        """The start (see the module docstring) from the given rows, equalities
        first, ascending; the result becomes x and the working set."""
        nonlocal x, act_idx, act_u, m_act
        eqs = [i for i in rows if i < m_eq]
        ins = [i - m_eq for i in rows if i >= m_eq]
        N = np.hstack([A_e[eqs].T, -A_in[ins].T])
        d = np.concatenate([b_e[eqs], -b_in[ins]])
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
        m_e = sum(i < m_eq for i in rows)   # equalities lead and stay
        held = np.ones(len(rows), dtype=bool)
        while True:
            u = _solve(G, r)
            if len(u) == m_e or u[m_e:].min() >= 0.0:
                break
            j = m_e + np.argmin(u[m_e:])
            held[j], G[j], G[:, j], G[j, j], r[j] = False, 0.0, 0.0, 1.0, 0.0
        x = J.T @ (w0 + V @ u)
        delta = _solve(G, (d - N.T @ x) * held)
        x = x + J.T @ (V @ delta)
        act_idx = [i for i, h in zip(rows, held) if h]
        act_u = (u + delta)[held].tolist()
        m_act = len(act_idx)
        N_buf[:, :m_act], W_buf[:, :m_act] = N[:, held], J.T @ V[:, held]

    # Initial working set: the equalities, then the guessed inequalities.
    guess = sorted({int(i) for i in active if m_eq <= int(i) < m_eq + m_in})
    if m_eq or guess:
        iters = 1
        start(list(range(m_eq)) + guess)
        # An equality skipped as dependent keeps its value from here on,
        # since the equalities it depends on are never dropped.
        if np.any(np.abs(A_e @ x - b_e) > _TOL * (1.0 + np.abs(b_e))):
            return result("infeasible")

    def pick_violated():
        if m_in == 0:
            return None
        s = A_in @ x - b_in
        s[s <= row_tol] = -np.inf
        s[[i - m_eq for i in act_idx if i >= m_eq]] = -np.inf
        p = int(np.argmax(s))
        return p if np.isfinite(s[p]) else None

    # Once the dual steps reach an optimum, start() runs again on their working
    # set (not an iteration): on ocp's soft QPs the steps leave active rows off
    # by 1e-4 and more. The loop resumes if that moved x across a tolerance.
    polished = True
    while True:
        p = pick_violated()
        if p is None:
            if polished:
                return result("optimal")
            polished = True
            start(sorted(act_idx))
            continue
        polished = False
        n_p, d_p = -A_in[p], -b_in[p]
        u_p = 0.0
        Hin = J.T @ (J @ n_p)

        while True:
            iters += 1
            if iters > max_iter:
                return result("iteration_limit")
            N = N_buf[:, :m_act]
            W = W_buf[:, :m_act]
            r = _solve(N.T @ W, N.T @ Hin)
            z = Hin - W @ r

            # Dual blocking step (only droppable, i.e. inequality, constraints).
            t1, blk = np.inf, -1
            for j, (idx, uj, rj) in enumerate(zip(act_idx, act_u, r)):
                if idx >= m_eq and rj > _TOL:
                    tj = uj / rj
                    if tj < t1:
                        t1, blk = tj, j
            ztn = float(z @ n_p)
            slack = d_p - float(n_p @ x)
            # With n rows in the working set z is zero in exact arithmetic, so
            # the step is dual-only (Goldfarb & Idnani's z = 0 case), and a
            # rounding-sized z must not add a row beyond the buffers.
            t2 = slack / ztn if m_act < n and ztn > _TOL else np.inf

            if not np.isfinite(t1) and not np.isfinite(t2):
                return result("infeasible")
            t = min(t1, t2)
            if np.isfinite(t2):
                x = x + t * z
            for j in range(len(act_u)):
                act_u[j] -= t * r[j]
            u_p += t

            if t2 <= t1:
                act_idx.append(m_eq + p)
                N_buf[:, m_act] = n_p
                W_buf[:, m_act] = Hin
                m_act += 1
                act_u.append(u_p)
                break
            # Drop the blocking constraint and retry with the same target.
            N_buf[:, blk:m_act - 1] = N_buf[:, blk + 1:m_act]
            W_buf[:, blk:m_act - 1] = W_buf[:, blk + 1:m_act]
            m_act -= 1
            del act_idx[blk], act_u[blk]

