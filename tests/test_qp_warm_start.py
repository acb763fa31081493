"""Property tests of the QP warm start: whatever initial working set is
guessed, qp_solve returns the cold-start minimizer, meets the KKT contract,
and still reports infeasible problems and iteration limits."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from granmpc.qp import _factor, _independent, qp_solve
from test_qp import kkt_residuals

TOL = 1e-9
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def qps(draw):
    """Feasible strictly convex QP with equalities plus duplicated,
    parallel-redundant and summed (degenerate) inequality rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 8))
    m_eq = draw(st.integers(0, n // 2))
    m_in = draw(st.integers(0, 3 * n))
    G = rng.normal(size=(n, n))
    H = G @ G.T + n * np.eye(n)
    f = 5.0 * rng.normal(size=n)
    x_feas = rng.normal(size=n)
    A = rng.normal(size=(m_in, n))
    b = A @ x_feas + rng.uniform(0.0, 1.0, size=m_in)
    A_eq = rng.normal(size=(m_eq, n))
    b_eq = A_eq @ x_feas
    if m_in:
        extra_a, extra_b = [], []
        for _ in range(draw(st.integers(0, 4))):
            i, j = rng.integers(m_in, size=2)
            kind = draw(st.sampled_from(["duplicate", "parallel", "sum"]))
            if kind == "duplicate":
                extra_a.append(A[i]), extra_b.append(b[i])
            elif kind == "parallel":
                extra_a.append(2.0 * A[i]), extra_b.append(2.0 * b[i] + rng.uniform(0.0, 0.5))
            else:
                extra_a.append(A[i] + A[j]), extra_b.append(b[i] + b[j])
        if extra_a:
            A, b = np.vstack([A, extra_a]), np.concatenate([b, extra_b])
    if m_eq and draw(st.booleans()):
        # a consistent equality that repeats another one
        A_eq, b_eq = np.vstack([A_eq, A_eq[:1]]), np.concatenate([b_eq, b_eq[:1]])
    return H, f, A, b, A_eq, b_eq


def _guesses(draw, m_total, cold_active):
    """The initial working sets to try: empty, every row, out of range,
    linearly dependent, random (mostly with negative multipliers), and the
    cold optimum's own set padded with a duplicate and junk."""
    kind = draw(st.sampled_from(["empty", "all", "out_of_range", "dependent",
                                 "random", "cold"]))
    if kind == "empty":
        return []
    if kind == "all":
        return list(range(m_total))
    if kind == "out_of_range":
        return [-3, -1, m_total, m_total + 7] + draw(
            st.lists(st.integers(0, max(m_total - 1, 0)), max_size=3))
    if kind == "dependent":
        # far more rows than variables, listed twice
        rows = draw(st.lists(st.integers(0, max(m_total - 1, 0)), max_size=3 * m_total))
        return rows + rows
    if kind == "random":
        return draw(st.lists(st.integers(-2, m_total + 2), max_size=m_total + 2))
    return list(cold_active) + list(cold_active[:1]) + [m_total + 1]


def _check_contract(H, f, sol, A, b, A_eq, b_eq):
    stat, _, comp = kkt_residuals(H, f, sol, A, b, A_eq, b_eq)
    assert stat <= 1e-7
    assert comp / (1.0 + np.max(np.abs(sol.duals_ineq), initial=0.0)) <= 1e-7
    # primal feasibility row by row, each against its own offset
    if len(b):
        assert np.all(A @ sol.x - b <= TOL * (1.0 + np.abs(b)) + 1e-12)
        assert np.all(sol.duals_ineq >= 0.0)
    if len(b_eq):
        assert np.all(np.abs(A_eq @ sol.x - b_eq) <= TOL * (1.0 + np.abs(b_eq)) + 1e-12)


@PROPERTY
@given(qp=qps(), data=st.data())
def test_warm_start_returns_cold_optimum(qp, data):
    H, f, A, b, A_eq, b_eq = qp
    cold = qp_solve(H, f, A, b, A_eq, b_eq)
    assert cold.status == "optimal"
    _check_contract(H, f, cold, A, b, A_eq, b_eq)
    guess = _guesses(data.draw, len(b_eq) + len(b), cold.active_set)
    warm = qp_solve(H, f, A, b, A_eq, b_eq, active=guess)
    assert warm.status == "optimal"
    assert np.max(np.abs(warm.x - cold.x)) <= 1e-8
    _check_contract(H, f, warm, A, b, A_eq, b_eq)
    # a factor passed in gives the solve qp_solve makes with its own
    factored = qp_solve(H, f, A, b, A_eq, b_eq, active=guess, factor=_factor(H)[0])
    assert factored.status == "optimal" and factored.active_set == warm.active_set
    assert np.max(np.abs(factored.x - warm.x)) <= 1e-12


@PROPERTY
@given(qp=qps())
def test_optimal_active_set_restarts_in_one_iteration(qp):
    H, f, A, b, A_eq, b_eq = qp
    cold = qp_solve(H, f, A, b, A_eq, b_eq)
    warm = qp_solve(H, f, A, b, A_eq, b_eq, active=cold.active_set)
    assert warm.status == "optimal"
    assert warm.iterations <= 1
    assert np.max(np.abs(warm.x - cold.x)) <= 1e-8


@PROPERTY
@given(qp=qps(), data=st.data())
def test_infeasible_reported_with_guess(qp, data):
    H, f, A, b, A_eq, b_eq = qp
    # append a contradictory pair a x <= c and a x >= c + 1
    a = np.random.default_rng(len(b)).normal(size=len(f))
    A = np.vstack([A, a, -a])
    b = np.concatenate([b, [0.5, -1.5]])
    guess = _guesses(data.draw, len(b_eq) + len(b), [])
    assert qp_solve(H, f, A, b, A_eq, b_eq, active=guess).status == "infeasible"


@PROPERTY
@given(qp=qps(), data=st.data())
def test_iteration_limit_reported_with_guess(qp, data):
    H, f, A, b, A_eq, b_eq = qp
    guess = _guesses(data.draw, len(b_eq) + len(b), [])
    full = qp_solve(H, f, A, b, A_eq, b_eq, active=guess)
    assume(full.iterations >= 2)
    cut = qp_solve(H, f, A, b, A_eq, b_eq, active=guess, max_iter=full.iterations - 1)
    assert cut.status == "iteration_limit"


def _soft_qp(rng):
    """A QP shaped like ocp's soft fallback: slacks s >= 0 with curvature
    1e-6 and penalty 1e6 soften keep-out rows a y - s <= c that the box
    |y| <= 1 cannot all meet, and the factor is block diagonal with 1e3 on
    the slacks, so |J f| is about 1e9 there."""
    n, m = 6, 3
    G = rng.normal(size=(n, n))
    H_y = G @ G.T + n * np.eye(n)
    H = np.zeros((n + m, n + m))
    H[:n, :n], H[n:, n:] = H_y, 1e-6 * np.eye(m)
    J = np.zeros_like(H)
    J[:n, :n], J[n:, n:] = _factor(H_y)[0], 1e3 * np.eye(m)
    f = np.concatenate([5.0 * rng.normal(size=n), 1e6 * np.ones(m)])
    # keep-outs: y0 <= -2 needs a slack of 1, the other two can bind unsoftened
    a_nl = np.vstack([np.eye(n)[0], rng.normal(size=(m - 1, n))])
    c_nl = np.array([-2.0, -0.3, -0.2])
    box = np.vstack([np.eye(n), -np.eye(n)])
    A = np.vstack([np.hstack([box, np.zeros((2 * n, m))]),
                   np.hstack([a_nl, -np.eye(m)]),
                   np.hstack([np.zeros((m, n)), -np.eye(m)])])
    b = np.concatenate([np.ones(2 * n), c_nl, np.zeros(m)])
    A_eq = np.hstack([rng.normal(size=(2, n)), np.zeros((2, m))])
    b_eq = A_eq @ np.concatenate([rng.uniform(-0.5, 0.5, size=n), np.zeros(m)])
    return H, J, f, A, b, A_eq, b_eq, 2 * n


def test_soft_qp_meets_contract_cold_and_warm():
    # x = J'(w0 + V u) cancels on this shape: without the start's refinement
    # step a slack misses its row by 5e-5, far outside the contract
    for seed in range(5):
        H, J, f, A, b, A_eq, b_eq, first_keep_out = _soft_qp(np.random.default_rng(seed))
        cold = qp_solve(H, f, A, b, A_eq, b_eq, factor=J)
        assert cold.status == "optimal"
        _check_contract(H, f, cold, A, b, A_eq, b_eq)
        for row in range(first_keep_out, first_keep_out + 3):
            warm = qp_solve(H, f, A, b, A_eq, b_eq, factor=J, active=[len(b_eq) + row])
            assert warm.status == "optimal"
            _check_contract(H, f, warm, A, b, A_eq, b_eq)


def test_dependent_rows_take_the_fallback(monkeypatch):
    # a guess that holds a row twice, and an equality given twice, fail the
    # Cholesky independence test; the start then chooses rows one by one
    calls = []
    monkeypatch.setattr("granmpc.qp._independent",
                        lambda V: calls.append(V.shape) or _independent(V))
    rng = np.random.default_rng(23)
    n = 5
    G = rng.normal(size=(n, n))
    H = G @ G.T + n * np.eye(n)
    f = 5.0 * rng.normal(size=n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = 0.5 * np.ones(2 * n)
    A_eq, b_eq = rng.normal(size=(1, n)), np.array([0.1])
    cold = qp_solve(H, f, A, b, A_eq, b_eq)
    assert cold.status == "optimal" and len(cold.active_set) >= 2 and not calls

    held = cold.active_set[1] - len(b_eq)
    A2, b2 = np.vstack([A, A[held]]), np.append(b, b[held])
    warm = qp_solve(H, f, A2, b2, A_eq, b_eq, active=cold.active_set + [len(b_eq) + len(b)])
    assert calls
    assert warm.status == "optimal"
    assert np.max(np.abs(warm.x - cold.x)) <= 1e-8

    calls.clear()
    twice = qp_solve(H, f, A, b, np.vstack([A_eq, A_eq]), np.append(b_eq, b_eq))
    assert calls
    assert twice.status == "optimal"
    assert np.max(np.abs(twice.x - cold.x)) <= 1e-8
