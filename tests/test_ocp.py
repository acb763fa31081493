"""Optimal-control-problem tests: condensed QP data, constraint census,
the tube membership encoding, SQP behavior, and control extraction."""

import dataclasses
import itertools
from collections import Counter

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st
from scipy.optimize import linprog

import granmpc.scenario as sc
from granmpc import ocp, simulate
from granmpc.models import step as model_step
from granmpc.qp import qp_solve
from granmpc.sets import EmptySetError, Zonotope, support
from granmpc.tube import build_tube


def _obstacle(cfg):
    return sc.DynamicObstacle.from_config(cfg)


def _start_state(cfg):
    return np.array([cfg.start[0], 0.0, cfg.start[1], 0.0])


def _census(setup):
    """Rows per label: static rows, keep-outs, and "coupling" for the
    coupling equality."""
    out = Counter(setup.static_labels + setup.keepouts.labels)
    if setup.a_eq is not None:
        out["coupling"] = 1
    return out


def test_unknown_method_rejected(cfg):
    with pytest.raises(ocp.OcpError):
        ocp.MethodSetup.build(cfg, "single-smpc")


def test_decision_vector_layout(cfg, setup_granular, setup_rsmpc):
    pg = ocp.assemble(setup_granular, _start_state(cfg))
    assert pg.n_y == 4 + 2 * cfg.ns + 2 * cfg.nl
    xbar, ubar, zeta, vbar = pg.trajectories(np.zeros(pg.n_y))
    assert xbar.shape == (cfg.ns + 1, 4) and ubar.shape == (cfg.ns, 2)
    assert zeta.shape == (cfg.nl + 1, 2) and vbar.shape == (cfg.nl, 2)
    ps = ocp.assemble(setup_rsmpc, _start_state(cfg))
    assert ps.n_y == 4 + 2 * cfg.n_total
    xbar, ubar, zeta, vbar = ps.trajectories(np.zeros(ps.n_y))
    assert xbar.shape == (cfg.n_total + 1, 4) and ubar.shape == (cfg.n_total, 2)
    assert zeta is None and vbar is None


_SETUP_FIXTURE = {"granular": "setup_granular", "single-rsmpc": "setup_rsmpc",
                  "single-rmpc": "setup_rmpc"}


@pytest.mark.parametrize("method", ocp.METHODS)
def test_every_decision_variable_is_used(method, request):
    # each column of y enters the cost or some row; a variable in neither
    # would be held convex only by H's ridge
    setup = request.getfixturevalue(_SETUP_FIXTURE[method])
    n = setup.n_y
    used = np.any(setup.cost_z[:n, :n] != 0.0, axis=0)
    used |= np.any(setup.a_static != 0.0, axis=0)
    used |= np.any(setup.keepouts.S.reshape(-1, n) != 0.0, axis=0)
    if setup.a_eq is not None:
        used |= np.any(setup.a_eq != 0.0, axis=0)
    assert used.all(), np.flatnonzero(~used).tolist()


def _stage_cost(cfg, xbar, ubar, zeta, vbar):
    """The OCP's stage-cost sum, recomputed from the planned trajectories."""
    Q, R = np.diag(cfg.q_diag), np.diag(cfg.r_diag)
    Qc, Rc = np.diag(cfg.qc_diag), np.diag(cfg.rc_diag)
    x_t = np.array([cfg.target[0], 0.0, cfg.target[1], 0.0])
    p_t = np.array(cfg.target)
    p_term = p_t if cfg.terminal_cost == "target" else np.zeros(2)

    def quad(v, W):
        return float(v @ W @ v)

    cost = sum(quad(x - x_t, Q) for x in xbar[:-1]) + sum(quad(u, R) for u in ubar)
    if zeta is None:
        return cost + quad(xbar[-1][[0, 2]] - p_term, Qc)
    cost += sum(quad(z - p_t, Qc) for z in zeta[:-1]) + sum(quad(v, Rc) for v in vbar)
    return cost + quad(zeta[-1] - p_term, Qc)


@pytest.mark.parametrize("method", ocp.METHODS)
def test_problem_built_once_serves_every_state(cfg, method, request):
    # one setup assembled at two states: each problem's objective is its
    # plan's stage cost, its trajectories follow the models from its own x0,
    # and the second assembly leaves the first problem's data untouched
    setup = request.getfixturevalue(_SETUP_FIXTURE[method])
    obs = _obstacle(cfg)
    x_a, x_b = _start_state(cfg), np.array([4.0, 1.2, 0.8, -0.3])
    first = ocp.assemble(setup, x_a, obs)
    kept = (first.f.copy(), first.b_static.copy(), first.nonlinear.offsets.copy())
    second = ocp.assemble(setup, x_b, obs)
    A, B = setup.model.A, setup.model.B
    rng = np.random.default_rng(11)
    for prob, x0 in ((first, x_a), (second, x_b)):
        for _ in range(3):
            y = rng.normal(size=prob.n_y)
            xbar, ubar, zeta, vbar = prob.trajectories(y)
            assert np.allclose(xbar[0], x0 - y[:4], atol=1e-12)
            assert np.allclose(xbar[1:], xbar[:-1] @ A.T + ubar @ B.T, atol=1e-9)
            pos = xbar[:, [0, 2]]
            if method == "granular":
                assert np.allclose(zeta[0], xbar[-1][[0, 2]], atol=1e-12)
                assert np.allclose(zeta[1:], zeta[:-1] + cfg.dt * vbar, atol=1e-9)
                pos = np.vstack([pos, zeta[1:]])
            else:
                assert zeta is None and vbar is None
            assert np.allclose(prob.positions(y), pos, atol=1e-12)
            expected = _stage_cost(cfg, xbar, ubar, zeta, vbar) + 0.5e-8 * y @ y
            assert prob.objective(y) == pytest.approx(expected, rel=1e-10)
    # a plan whose initial error absorbs the change of x0 has the same nominal
    # trajectory, so every stage row residual, keep-out position and stage
    # cost carries over (the membership rows bound the initial error itself)
    y = rng.normal(size=first.n_y)
    y_b = y.copy()
    y_b[:4] += x_b - x_a
    stage = np.array(setup.static_labels) != "tube_membership"
    assert np.allclose((first.a_static @ y - first.b_static)[stage],
                       (second.a_static @ y_b - second.b_static)[stage], atol=1e-9)
    if first.a_eq is not None:
        assert np.allclose(first.a_eq @ y - first.b_eq, second.a_eq @ y_b - second.b_eq,
                           atol=1e-9)
    S = setup.keepouts.S
    assert np.allclose(S @ y + first.nonlinear.offsets, S @ y_b + second.nonlinear.offsets,
                       atol=1e-9)
    assert first.objective(y) - 0.5e-8 * y @ y == pytest.approx(
        second.objective(y_b) - 0.5e-8 * y_b @ y_b, rel=1e-10)
    assert np.array_equal(first.f, kept[0]) and np.array_equal(first.b_static, kept[1])
    assert np.array_equal(first.nonlinear.offsets, kept[2])
    assert np.array_equal(first.nonlinear.centers, second.nonlinear.centers)
    # the shared setup data refuses in-place edits
    shared = [getattr(obj, f.name) for obj in (setup, setup.keepouts)
              for f in dataclasses.fields(obj)]
    shared = [a for a in shared if isinstance(a, np.ndarray)]
    assert len(shared) >= 12 and not any(a.flags.writeable for a in shared)
    assert any(a is setup.J for a in shared)
    for arr in (first.H, setup.J, first.a_static, setup.keepouts.S[0]):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("method", ocp.METHODS)
def test_qp_factors_invert_the_hessians(cfg, method, request, monkeypatch):
    # the setup's factor and the soft QP's block factor built from it are
    # exact: J' J H = I, so no QP needs to factor its Hessian
    setup = request.getfixturevalue(_SETUP_FIXTURE[method])
    prob = ocp.assemble(setup, _start_state(cfg), _obstacle(cfg))
    n = prob.n_y
    assert np.allclose(setup.J.T @ setup.J @ setup.H, np.eye(n), rtol=0.0, atol=1e-9)
    seen = []
    monkeypatch.setattr(ocp, "qp_solve", lambda H, *a, factor, **k: seen.append((H, factor)))
    _, a_nl, b_nl = ocp.nonlinear_violation(prob, ocp.cold_start(prob))
    ocp._solve_soft(prob, a_nl, b_nl, 1e6, [])
    (H, J), = seen
    assert H.shape == (n + len(b_nl),) * 2 and np.array_equal(H[:n, :n], setup.H)
    assert np.allclose(J.T @ J @ H, np.eye(len(H)), rtol=0.0, atol=1e-9)


def _membership_rows(cfg, setup):
    return ocp.membership_rows(setup.tube, sc.state_set(cfg).normals, setup.gains.K)


def test_membership_rows_refuse_a_slow_tail(cfg, setup_granular):
    # with a weak error feedback the directions do not decay within the
    # power cap; truncating them would break the polytope's invariance
    assert len(_membership_rows(cfg, setup_granular)[1]) == 26
    slow = cfg.with_overrides({"robot.disturbance_bound": "0.01",
                               "robot.disturbance_pos_bound": "0.003",
                               "gains.k_gain": "[[0.1,0.8,0,0],[0,0,0.1,0.8]]"})
    with pytest.raises(ocp.OcpError, match="powers"):
        ocp.MethodSetup.build(slow, "granular")


def test_constraint_census(cfg, setup_granular, setup_rsmpc, setup_rmpc):
    n_mem = len(_membership_rows(cfg, setup_granular)[1])

    c = _census(setup_granular)
    assert c["tube_membership"] == n_mem
    assert c["xbar_box"] == 6 * (cfg.ns + 1)
    assert c["ubar_box"] == 4 * cfg.ns
    assert c["chance_lane"] == 2 * (cfg.nl + 1)
    assert c["coarse_input_box"] == 4 * cfg.nl
    assert c["robust_ellipse"] == c["robust_box"] == cfg.ns + 1
    assert c["chance_ellipse"] == c["chance_box"] == cfg.nl + 1
    assert c["coupling"] == 1

    c = _census(setup_rsmpc)
    assert c["tube_membership"] == n_mem
    assert c["chance_velocity"] == 4 * (cfg.nl + 1)
    assert c["robust_ellipse"] == c["robust_box"] == cfg.ns + 1
    assert c["chance_ellipse"] == c["chance_box"] == cfg.nl + 1
    assert "coupling" not in c

    c = _census(setup_rmpc)
    assert c["xbar_box"] == 6 * (cfg.n_total + 1)
    assert c["robust_ellipse"] == c["robust_box"] == cfg.n_total + 1
    assert "chance_ellipse" not in c and "chance_box" not in c and "coupling" not in c


def test_membership_rows_cover_tube(cfg, setup_granular):
    # every point of Z satisfies the membership polytope, so any true error
    # admits a feasible nominal initial state
    tube = setup_granular.tube
    A, b = _membership_rows(cfg, setup_granular)
    rng = np.random.default_rng(7)
    for _ in range(50):
        beta = rng.uniform(-1.0, 1.0, size=tube.Z.n_generators)
        z = tube.Z.center + tube.Z.generators @ beta
        assert np.max(A @ z - b) <= 1e-9


def _vertices(A, b):
    """Vertices of {x : A x <= b}, from every set of n rows by brute force."""
    idx = np.array(list(itertools.combinations(range(len(A)), A.shape[1])))
    ok = np.abs(np.linalg.det(A[idx])) > 1e-12
    V = np.linalg.solve(A[idx[ok]], b[idx[ok]][..., None])[..., 0]
    return V[np.all(V @ A.T <= b + 1e-9, axis=1)]


def test_membership_polytope_invariant_under_dynamics(cfg, setup_granular):
    # the pruned polytope is mapped into itself by the error recursion
    # e+ = Phi e + G w for every disturbance w: checked at each of its
    # vertices and each vertex of the disturbance box
    tube, model = setup_granular.tube, setup_granular.model
    A, b = _membership_rows(cfg, setup_granular)
    assert np.allclose(b, support(tube.Z, A), rtol=0.0, atol=1e-12)
    V = _vertices(A, b)
    assert len(V) >= 5
    W = np.array(list(itertools.product(*[(-h, h) for h in model.disturbance.interval_hull()])))
    nxt = (V @ tube.Phi.T)[:, None, :] + (W @ model.G.T)[None, :, :]
    assert np.max(nxt @ A.T - b) <= 1e-9


def _unpruned_membership_rows(tube, state_normals, K):
    """Every power row of ``membership_rows`` at unit norm, none dropped,
    built direction by direction: the reference for its batched pass."""
    rows = []
    for a in [*state_normals, *(s * k for k in K for s in (1.0, -1.0))]:
        d = a
        while True:
            rows.append(d / np.linalg.norm(d))
            d = tube.Phi.T @ d
            if np.abs(d).sum() < ocp._TAIL_TOL:
                break
    A = np.array(rows)
    return A, np.array([support(tube.Z, a) for a in A])


@hypothesis.settings(max_examples=4, deadline=None, derandomize=True)
@example(w=0.1, wp=0.034, mode="velocity", kp=3.77, kv=4.67)    # the default config
@given(w=st.floats(0.02, 0.2), wp=st.floats(0.005, 0.08),
       mode=st.sampled_from(("velocity", "full")),
       kp=st.floats(3.0, 5.0), kv=st.floats(4.0, 6.0))
def test_membership_rows_describe_the_unpruned_set(cfg, w, wp, mode, kp, kv):
    c = cfg.with_overrides({"robot.disturbance_bound": str(w),
                            "robot.disturbance_pos_bound": str(wp),
                            "robot.disturbance_mode": mode,
                            "gains.k_gain": f"[[{kp},{kv},0,0],[0,0,{kp},{kv}]]"})
    normals, K = sc.state_set(c).normals, sc.gain_pair(c).K
    try:
        tube = build_tube(sc.detailed_model(c), K, c.tube_eps, sc.state_set(c), sc.input_set(c))
    except EmptySetError:
        reject()
    _assert_describes_the_unpruned_set(tube, normals, K)


def test_membership_pruning_stopped_early_keeps_the_set(cfg, setup_granular, monkeypatch):
    # past its vertex budget the pruning keeps every row not yet shown
    # redundant: more rows than a full pruning, but still the same set
    monkeypatch.setattr(ocp, "_MAX_VERTICES", 40)
    tube, normals, K = setup_granular.tube, sc.state_set(cfg).normals, setup_granular.gains.K
    assert len(_assert_describes_the_unpruned_set(tube, normals, K)[1]) > 26


def test_irredundant_on_small_polygons():
    # a unit square with a diagonal row that cuts a corner or misses it, and
    # a strip left open along y, which puts vertices on the far box
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    A = np.vstack([square, [[np.sqrt(0.5), np.sqrt(0.5)]]])
    Z = Zonotope.box([1.0, 1.0])
    assert ocp._irredundant(A, np.array([1.0, 1.0, 1.0, 1.0, 2.0]), [0], Z).tolist() == [0, 1, 2, 3]
    assert ocp._irredundant(A, np.ones(5), [0], Z).tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ocp.OcpError, match="do not bound"):
        ocp._irredundant(square[:2], np.ones(2), [0, 1], Z)


def _assert_describes_the_unpruned_set(tube, normals, K):
    """LP oracle: no unpruned row exceeds its offset over the returned
    polytope, and every returned row is an unpruned row at unit norm, so
    both describe one set. Returns the rows."""
    A, b = ocp.membership_rows(tube, normals, K)
    assert np.allclose(np.linalg.norm(A, axis=1), 1.0, rtol=0.0, atol=1e-12)
    A_all, b_all = _unpruned_membership_rows(tube, normals, K)
    gap = np.abs(A[:, None, :] - A_all[None]).max(axis=2) + np.abs(b[:, None] - b_all[None])
    assert np.max(np.min(gap, axis=1)) <= 1e-9
    for a, ub in zip(A_all, b_all):
        lp = linprog(-a, A_ub=A, b_ub=b, bounds=(None, None), method="highs")
        assert lp.status == 0 and -lp.fun <= ub + 1e-9
    return A, b


def test_solve_matches_batch_solution_without_inequalities(cfg):
    # criterion oracle: with every inequality removed the SQP must land on
    # the closed-form equality-constrained quadratic minimizer
    # no position step limit: there is nothing to guard without keep-outs
    free = cfg.with_overrides({"solver.sqp_pos_step_limit": "1e12"})
    for method in ("granular", "single-rsmpc"):
        setup = ocp.MethodSetup.build(free, method)
        prob = ocp.assemble(setup, _start_state(cfg), None)
        prob.a_static = np.zeros((0, prob.n_y))
        prob.b_static = np.zeros(0)
        prob.nonlinear = []
        sol = ocp.solve_sqp(prob)
        assert sol.status == "converged"
        if prob.a_eq is not None and len(prob.a_eq):
            me = len(prob.b_eq)
            kkt = np.block([[prob.H, prob.a_eq.T],
                            [prob.a_eq, np.zeros((me, me))]])
            ref = np.linalg.solve(kkt, np.concatenate([-prob.f, prob.b_eq]))[:prob.n_y]
        else:
            ref = -np.linalg.solve(prob.H, prob.f)
        assert np.max(np.abs(sol.y - ref)) < 1e-6


def test_idle_at_target_without_obstacle(cfg):
    xt = np.array([cfg.target[0], 0.0, cfg.target[1], 0.0])
    setup = ocp.MethodSetup.build(cfg.with_overrides({"solver.sqp_max_iter": "200"}),
                                  "granular")
    sol = ocp.solve_sqp(ocp.assemble(setup, xt, None))
    assert sol.status == "converged"
    assert np.max(np.abs(sol.ubar)) <= 1e-5
    assert np.max(np.abs(sol.xbar - xt)) <= 1e-4


def test_solution_is_feasible_at_start(cfg):
    for method in ("granular", "single-rsmpc", "single-rmpc"):
        setup = ocp.MethodSetup.build(cfg, method)
        prob = ocp.assemble(setup, _start_state(cfg), _obstacle(cfg))
        sol = ocp.solve_sqp(prob)
        assert sol.status == "converged"
        assert sol.violation <= 1e-6
        assert np.max(prob.a_static @ sol.y - prob.b_static) <= 1e-6


def test_warm_started_resolve_is_cheap(cfg):
    # after one disturbance-free plant step the shifted plan should already
    # satisfy the new problem, leaving only a couple of polish iterations,
    # and the carried QP active set should spare nearly all QP iterations
    for method in ("granular", "single-rsmpc"):
        setup = ocp.MethodSetup.build(cfg, method)
        x = np.array([2.0, 1.0, 0.0, 0.0])
        sol = ocp.solve_sqp(ocp.assemble(setup, x, None))
        u = ocp.extract_control(sol, x, setup.gains.K)
        x1 = model_step(setup.model, x, u)
        sol2 = ocp.solve_sqp(ocp.assemble(setup, x1, None), warm_start=sol)
        assert sol2.status == "converged"
        assert sol2.iterations <= 3
        cold = ocp.solve_sqp(ocp.assemble(setup, x1, None))
        assert cold.status == "converged"
        assert 5 * sol2.qp_iterations <= cold.qp_iterations
        assert np.max(np.abs(sol2.y - cold.y)) <= 1e-6


def test_infeasible_initial_state_detected(cfg, setup_granular):
    # velocity far beyond the tightened bound plus tube radius
    bad = np.array([0.0, 10.0, 0.0, 0.0])
    sol = ocp.solve_sqp(ocp.assemble(setup_granular, bad, _obstacle(cfg)))
    assert sol.status == "infeasible"
    with pytest.raises(ocp.OcpError):
        ocp.extract_control(sol, bad, setup_granular.gains.K)


def test_extract_control_identity(cfg, setup_granular):
    x0 = _start_state(cfg)
    sol = ocp.solve_sqp(ocp.assemble(setup_granular, x0, _obstacle(cfg)))
    K = setup_granular.gains.K
    u = ocp.extract_control(sol, x0, K)
    assert np.allclose(u, K @ x0 + sol.nus[0], atol=1e-12)
    assert np.allclose(u, sol.ubar[0] + K @ (x0 - sol.xbar[0]), atol=1e-10)


def test_degenerate_horizon_without_coarse_stage(cfg):
    short = cfg.with_overrides({"horizons.nl": "0"})
    setup = ocp.MethodSetup.build(short, "granular")
    assert setup.coarse_sched is None
    prob = ocp.assemble(setup, _start_state(short), _obstacle(short))
    assert prob.n_y == 4 + 2 * short.ns
    assert prob.trajectories(np.zeros(prob.n_y))[2] is None
    sol = ocp.solve_sqp(prob)
    assert sol.status == "converged"
    # single-rsmpc without a chance stage is the robust problem over Ns steps
    setup = ocp.MethodSetup.build(short, "single-rsmpc")
    prob = ocp.assemble(setup, _start_state(short), _obstacle(short))
    assert not {"chance_ellipse", "chance_velocity"} & set(_census(setup))
    assert ocp.solve_sqp(prob).status == "converged"


def test_shift_without_detailed_inputs_keeps_the_initial_error(cfg):
    # with Ns = 0 there is no detailed input slot to stitch the coarse input
    # into; the shift must leave the re-seeded initial error x0 - xbar_1 alone
    flat = cfg.with_overrides({"horizons.ns": "0"})
    setup = ocp.MethodSetup.build(flat, "granular")
    assert setup.n_nu == 0
    sol = ocp.solve_sqp(ocp.assemble(setup, _start_state(flat), _obstacle(flat)))
    prob = ocp.assemble(setup, np.array([0.1, 0.2, 0.0, 0.0]), _obstacle(flat))
    y = ocp.shift_warm_start(prob, sol)
    assert np.array_equal(y[:4], prob.x0 - sol.xbar[0])


def test_planned_positions_cover_full_horizon(cfg, setup_granular):
    prob = ocp.assemble(setup_granular, _start_state(cfg), _obstacle(cfg))
    sol = ocp.solve_sqp(prob)
    positions = prob.positions(sol.y)
    assert positions.shape == (cfg.n_total + 1, 2)
    assert np.allclose(positions[:cfg.ns + 1], sol.xbar[:, [0, 2]])


def test_solution_trace_records_iterations(cfg, setup_granular):
    trace = []
    sol = ocp.solve_sqp(ocp.assemble(setup_granular, _start_state(cfg), _obstacle(cfg)),
                        trace=trace)
    assert len(trace) == sol.iterations
    assert all("violation" in row and "objective" in row for row in trace)


def test_sqp_evaluates_each_point_once(cfg, setup_rmpc, monkeypatch):
    # over a traced single-rmpc episode (seed 81, six of whose steps take
    # the soft fallback), no solve_sqp call scores a point twice: each result
    # is carried forward, and the reported violation is the executed plan's own
    evaluate, solve = ocp.nonlinear_violation, ocp.solve_sqp
    seen, repeats = set(), []
    calls = 0

    def counted(prob, y):
        nonlocal calls
        key = tuple(np.asarray(y).tolist())
        if key in seen:
            repeats.append(key)
        seen.add(key)
        calls += 1
        return evaluate(prob, y)

    def per_solve(prob, *args, **kwargs):
        seen.clear()
        sol = solve(prob, *args, **kwargs)
        assert sol.violation == evaluate(prob, sol.y)[0]
        return sol

    monkeypatch.setattr(ocp, "nonlinear_violation", counted)
    monkeypatch.setattr(ocp, "solve_sqp", per_solve)
    rec = simulate.run_closed_loop(cfg, "single-rmpc", 81, setup=setup_rmpc, trace=[])
    assert rec.softened_steps > 0
    assert calls >= rec.steps and not repeats


@pytest.mark.parametrize("method, fixture, seed", [("granular", "setup_granular", 0),
                                                   ("single-rmpc", "setup_rmpc", 81)])
def test_sqp_executes_the_best_scored_point(cfg, method, fixture, seed, request,
                                            monkeypatch):
    # over whole episodes (single-rmpc seed 81 reaches the soft QP), each
    # solve executes the best point it scored, the start included: the
    # feasible one of least objective if any was feasible, otherwise the
    # least violating one, the earlier of equals
    setup = request.getfixturevalue(fixture)
    evaluate, solve = ocp.nonlinear_violation, ocp.solve_sqp
    scored, solves = [], 0

    def scoring(prob, y):
        out = evaluate(prob, y)
        scored.append((np.array(y), out[0]))
        return out

    def checked(prob, *args, **kwargs):
        nonlocal solves
        scored.clear()
        sol = solve(prob, *args, **kwargs)
        tol = cfg.sqp_violation_tol
        keys = [(0, prob.objective(y)) if v <= tol else (1, v) for y, v in scored]
        best_y, best_v = scored[keys.index(min(keys))]
        assert np.array_equal(sol.y, best_y) and sol.violation == best_v
        solves += 1
        return sol

    monkeypatch.setattr(ocp, "nonlinear_violation", scoring)
    monkeypatch.setattr(ocp, "solve_sqp", checked)
    rec = simulate.run_closed_loop(cfg, method, seed, setup=setup)
    assert solves == rec.steps
    assert (rec.softened_steps > 0) == (method == "single-rmpc")


@pytest.mark.parametrize("method, fixture, seed, cruise", [
    ("granular", "setup_granular", 0, False), ("granular", None, 0, True),
    ("single-rmpc", "setup_rmpc", 81, False)])
def test_converged_plan_is_a_fixed_point_of_the_next_qp(cfg, method, fixture, seed, cruise,
                                                        request, monkeypatch):
    # a solve may stop at a QP's full feasible step whose keep-out
    # multipliers still hold at the relinearized rows; one more QP from that
    # plan, warm-started with its active set, must give the plan back, and
    # exactly where no keep-out row binds (granular-cruise: never)
    if cruise:
        cfg = cfg.with_overrides({"obstacle.obstacle_start": "[6,-3]"})
    setup = request.getfixturevalue(fixture) if fixture else ocp.MethodSetup.build(cfg, method)
    evaluate, solve = ocp.nonlinear_violation, ocp.solve_sqp
    scored, moves = [], []

    def scoring(prob, y):
        scored.append(np.array(y))
        return evaluate(prob, y)

    def checked(prob, *args, **kwargs):
        scored.clear()
        sol = solve(prob, *args, **kwargs)
        if sol.status == "converged" and np.array_equal(sol.y, scored[-1]):
            _, a_nl, b_nl = evaluate(prob, sol.y)
            qp = qp_solve(prob.H, prob.f, np.vstack([prob.a_static, a_nl]),
                          np.concatenate([prob.b_static, b_nl]), prob.a_eq, prob.b_eq,
                          active=sol.active_set, factor=setup.J)
            assert qp.status == "optimal"
            first = len(prob.b_static) + (0 if prob.b_eq is None else len(prob.b_eq))
            moves.append((np.max(np.abs(qp.x - sol.y)),
                          any(i >= first for i in sol.active_set)))
        return sol

    monkeypatch.setattr(ocp, "nonlinear_violation", scoring)
    monkeypatch.setattr(ocp, "solve_sqp", checked)
    rec = simulate.run_closed_loop(cfg, method, seed, setup=setup)
    assert moves and max(m for m, _ in moves) < 1e-5
    assert max((m for m, binds in moves if not binds), default=0.0) < 1e-12
    assert any(not binds for _, binds in moves)
    if cruise:
        assert not any(binds for _, binds in moves)
        assert np.mean([e.sqp_iterations for e in rec.entries]) <= 1.1


def test_step_status_names_a_violating_plan(cfg, setup_rmpc, monkeypatch):
    # single-rmpc seed 81 executes six softened plans that still violate
    # their rows: they must read "violating", and "max-iter" is left for a
    # feasible plan stopped at the iteration cap
    solve, sols = ocp.solve_sqp, []

    def recorded(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(ocp, "solve_sqp", recorded)
    rec = simulate.run_closed_loop(cfg, "single-rmpc", 81, setup=setup_rmpc)
    tol = cfg.sqp_violation_tol
    assert [e.status for e in rec.entries] == [s.status for s in sols]
    assert sum(s.violation > tol for s in sols) >= 2
    for s in sols:
        assert (s.status == "violating") == (s.violation > tol)
        if s.status == "max-iter":
            assert s.iterations == cfg.sqp_max_iter


def test_every_keepout_is_a_row_at_every_evaluation(cfg, setup_granular, monkeypatch):
    # with an obstacle every keep-out, box or ellipse, gives one row at every
    # point a granular-overtake episode evaluates, so the QP rows keep their
    # numbering from one solve to the next
    evaluate, rows = ocp.nonlinear_violation, []

    def counted(prob, y):
        out = evaluate(prob, y)
        rows.append(len(out[2]))
        return out

    monkeypatch.setattr(ocp, "nonlinear_violation", counted)
    simulate.run_closed_loop(cfg, "granular", 0, setup=setup_granular)
    assert rows and set(rows) == {len(setup_granular.keepouts.labels)}
