"""QP solver tests against independent oracles: closed-form KKT systems for
equality constraints and projected gradient descent for box constraints."""

from collections import Counter

import numpy as np
import pytest

from granmpc.qp import QpSolution, _factor, _solve, qp_solve


def kkt_residuals(H, f, sol: QpSolution, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None):
    """(stationarity, primal feasibility, complementary slackness) of a QP
    solution, recomputed from the data: the KKT oracle of the QP tests."""
    x = sol.x
    g = H @ x + f
    feas = comp = 0.0
    if A_ineq is not None and len(b_ineq):
        s = A_ineq @ x - b_ineq
        feas = float(np.max(s, initial=0.0))
        g = g + A_ineq.T @ sol.duals_ineq
        comp = float(np.max(np.abs(sol.duals_ineq * s), initial=0.0))
    if A_eq is not None and len(b_eq):
        feas = max(feas, float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0)))
        g = g + A_eq.T @ sol.duals_eq
    return float(np.max(np.abs(g))), feas, comp


def _random_spd(rng, n, spread=3.0):
    A = rng.normal(size=(n, n))
    return A @ A.T + spread * np.eye(n)


def _projected_gradient_box(H, f, lo, hi, iters=60000):
    """First-order oracle for min 1/2 x'Hx + f'x over a box."""
    L = np.max(np.linalg.eigvalsh(H))
    x = np.clip(np.zeros_like(f), lo, hi)
    eta = 1.0 / L
    for _ in range(iters):
        x = np.clip(x - eta * (H @ x + f), lo, hi)
    return x


def test_unconstrained_minimizer():
    rng = np.random.default_rng(3)
    H = _random_spd(rng, 5)
    f = rng.normal(size=5)
    sol = qp_solve(H, f)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, -np.linalg.solve(H, f), atol=1e-10)


def test_equality_constrained_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        me = int(rng.integers(1, n))
        H = _random_spd(rng, n)
        f = rng.normal(size=n)
        Ae = rng.normal(size=(me, n))
        be = rng.normal(size=me)
        sol = qp_solve(H, f, A_eq=Ae, b_eq=be)
        assert sol.status == "optimal"
        # KKT system [[H, Ae'], [Ae, 0]] [x; lam] = [-f; be]
        kkt = np.block([[H, Ae.T], [Ae, np.zeros((me, me))]])
        ref = np.linalg.solve(kkt, np.concatenate([-f, be]))
        assert np.allclose(sol.x, ref[:n], atol=1e-8)
        assert np.allclose(sol.duals_eq, ref[n:], atol=1e-6)


def test_box_constrained_projected_gradient_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        H = _random_spd(rng, n)
        f = rng.normal(size=n) * 3.0
        lo = rng.uniform(-2.0, -0.2, size=n)
        hi = rng.uniform(0.2, 2.0, size=n)
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([hi, -lo])
        sol = qp_solve(H, f, A, b)
        assert sol.status == "optimal"
        ref = _projected_gradient_box(H, f, lo, hi)
        assert np.max(np.abs(sol.x - ref)) < 1e-5


def test_kkt_residuals_on_random_qps():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        H = _random_spd(rng, n, spread=float(n))
        f = rng.normal(size=n)
        mi = int(rng.integers(0, 15))
        me = int(rng.integers(0, max(1, n // 2)))
        Ai = rng.normal(size=(mi, n))
        bi = rng.normal(size=mi) + 1.0
        Ae = rng.normal(size=(me, n))
        be = rng.normal(size=me)
        sol = qp_solve(H, f, Ai, bi, Ae, be)
        if sol.status != "optimal":
            continue
        stat, feas, comp = kkt_residuals(H, f, sol, Ai, bi, Ae, be)
        assert stat < 1e-7
        assert feas < 1e-7
        scale = 1.0 + np.max(np.abs(sol.duals_ineq), initial=0.0)
        assert comp / scale < 1e-7


def test_infeasible_detected():
    H = np.eye(2)
    f = np.zeros(2)
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([-1.0, -1.0])  # x0 <= -1 and x0 >= 1
    sol = qp_solve(H, f, A, b)
    assert sol.status == "infeasible"


def test_conflicting_equalities_infeasible():
    sol = qp_solve(np.eye(2), np.zeros(2),
                   A_eq=np.array([[1.0, 0.0], [1.0, 0.0]]),
                   b_eq=np.array([0.0, 1.0]))
    assert sol.status == "infeasible"


def test_active_set_is_tight():
    rng = np.random.default_rng(13)
    n = 6
    H = _random_spd(rng, n)
    f = 5.0 * rng.normal(size=n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = 0.5 * np.ones(2 * n)
    sol = qp_solve(H, f, A, b)
    assert sol.status == "optimal"
    for idx in sol.active_set:
        assert A[idx] @ sol.x == pytest.approx(b[idx], abs=1e-8)
    # inactive constraints carry zero multipliers
    inactive = set(range(2 * n)) - set(sol.active_set)
    for idx in inactive:
        assert sol.duals_ineq[idx] == 0.0


def test_iteration_limit_status():
    rng = np.random.default_rng(17)
    H = _random_spd(rng, 8)
    f = rng.normal(size=8)
    A = np.vstack([np.eye(8), -np.eye(8)])
    b = 0.1 * np.ones(16)
    sol = qp_solve(H, 30.0 * f, A, b, max_iter=1)
    assert isinstance(sol, QpSolution)
    assert sol.status == "iteration_limit"


def test_near_singular_hessian_regularized():
    # rank-deficient H is lifted by the ridge term and still solves, at the
    # optimum x = (-1, 1) where both rows x1 <= 1 and -x0 <= 1 hold
    H = np.array([[1.0, 1.0], [1.0, 1.0]])
    f = np.array([1.0, -2.0])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    sol = qp_solve(H, f, A, b)
    assert sol.status == "optimal"
    assert np.all(A @ sol.x <= b + 1e-8)
    assert np.allclose(sol.x, [-1.0, 1.0], atol=1e-8)


def test_far_row_does_not_loosen_tight_row():
    # each row is tested against its own offset: a far row with |b| = 1e8
    # must not let the tight row x0 <= 1 stay violated (unconstrained x0 = 1.05)
    H = np.eye(2)
    f = np.array([-1.05, 0.0])
    A = np.eye(2)
    b = np.array([1.0, 1e8])
    sol = qp_solve(H, f, A, b)
    assert sol.status == "optimal"
    assert A[0] @ sol.x - b[0] <= 1e-8
    assert sol.active_set == [0]
    stat, feas, comp = kkt_residuals(H, f, sol, A, b)
    assert stat < 1e-7 and feas <= 1e-8 and comp < 1e-7


def test_well_scaled_qp_needs_no_repair(monkeypatch):
    # the start's residual and the dual steps' optimum are in contract, so
    # neither the start's refinement solve nor the polish (a second start,
    # so a second Cholesky) runs: one solve for the start's multipliers and
    # one per dual iteration
    rng = np.random.default_rng(11)
    n = 6
    H = _random_spd(rng, n)
    f = 5.0 * rng.normal(size=n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = 0.3 * np.ones(2 * n)
    A_eq, b_eq = rng.normal(size=(1, n)), np.array([0.1])
    J = _factor(H)[0]
    calls = Counter()
    cholesky = np.linalg.cholesky
    monkeypatch.setattr("granmpc.qp.np.linalg.cholesky",
                        lambda M: calls.update(["cholesky"]) or cholesky(M))
    monkeypatch.setattr("granmpc.qp._solve",
                        lambda M, rhs: calls.update(["solve"]) or _solve(M, rhs))
    sol = qp_solve(H, f, A, b, A_eq, b_eq, factor=J)
    assert sol.status == "optimal" and sol.iterations >= 3
    assert calls["cholesky"] == 1
    assert calls["solve"] == sol.iterations
    stat, feas, comp = kkt_residuals(H, f, sol, A, b, A_eq, b_eq)
    assert stat <= 1e-7 and feas <= 1e-8 and comp <= 1e-7
