"""Optimal-control-problem tests: condensed QP data, constraint census,
the tube membership encoding, SQP behavior, and control extraction."""

import numpy as np
import pytest

import granmpc.scenario as sc
from granmpc import ocp, simulate
from granmpc.models import step as model_step


def _obstacle(cfg):
    return sc.DynamicObstacle.from_config(cfg)


def _start_state(cfg):
    return np.array([cfg.start[0], 0.0, cfg.start[1], 0.0])


def test_unknown_method_rejected(cfg):
    with pytest.raises(ocp.OcpError):
        ocp.MethodSetup.build(cfg, "single-smpc")


def test_decision_vector_layout(cfg, setup_granular, setup_rsmpc):
    pg = ocp.assemble(setup_granular, _start_state(cfg))
    assert pg.n_y == 4 + 2 * (cfg.ns + 1) + 2 * cfg.nl
    assert len(pg.xbar_maps) == cfg.ns + 1
    assert len(pg.zeta_maps) == cfg.nl + 1
    ps = ocp.assemble(setup_rsmpc, _start_state(cfg))
    assert ps.n_y == 4 + 2 * cfg.n_total
    assert len(ps.xbar_maps) == cfg.n_total + 1
    assert not ps.zeta_maps


def test_objective_gradient_finite_difference(cfg, setup_granular):
    prob = ocp.assemble(setup_granular, _start_state(cfg), _obstacle(cfg))
    rng = np.random.default_rng(3)
    y = rng.normal(size=prob.n_y)
    g = prob.gradient(y)
    h = 1e-6
    for i in rng.choice(prob.n_y, size=12, replace=False):
        e = np.zeros(prob.n_y)
        e[i] = h
        fd = (prob.objective(y + e) - prob.objective(y - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_constraint_census(cfg, setup_granular, setup_rsmpc, setup_rmpc):
    x0 = _start_state(cfg)
    obs = _obstacle(cfg)
    n_mem = len(setup_granular.tube_rows_b)

    c = ocp.assemble(setup_granular, x0, obs).census()
    assert c["tube_membership"] == n_mem
    assert c["xbar_box"] == 6 * (cfg.ns + 1)
    assert c["ubar_box"] == 4 * cfg.ns
    assert c["chance_lane"] == 2 * (cfg.nl + 1)
    assert c["coarse_input_box"] == 4 * cfg.nl
    assert c["robust_ellipse"] == cfg.ns + 1
    assert c["chance_ellipse"] == cfg.nl + 1
    assert c["coupling"] == 1

    c = ocp.assemble(setup_rsmpc, x0, obs).census()
    assert c["tube_membership"] == n_mem
    assert c["chance_velocity"] == 4 * (cfg.nl + 1)
    assert c["robust_ellipse"] == cfg.ns + 1
    assert c["chance_ellipse"] == cfg.nl + 1
    assert "coupling" not in c

    c = ocp.assemble(setup_rmpc, x0, obs).census()
    assert c["xbar_box"] == 6 * (cfg.n_total + 1)
    assert c["robust_ellipse"] == cfg.n_total + 1
    assert "chance_ellipse" not in c and "coupling" not in c


def test_membership_rows_cover_tube(cfg, setup_granular):
    # every point of Z satisfies the membership polytope, so any true error
    # admits a feasible nominal initial state
    tube = setup_granular.tube
    A, b = setup_granular.tube_rows_a, setup_granular.tube_rows_b
    rng = np.random.default_rng(7)
    for _ in range(50):
        beta = rng.uniform(-1.0, 1.0, size=tube.Z.n_generators)
        z = tube.Z.center + tube.Z.generators @ beta
        assert np.max(A @ z - b) <= 1e-9


def test_membership_rows_closed_under_dynamics(cfg, setup_granular):
    # each row propagated once through Phi is again bounded by the tube
    # support, so the encoded polytope tracks the error recursion
    tube = setup_granular.tube
    from granmpc.sets import support
    A, b = setup_granular.tube_rows_a, setup_granular.tube_rows_b
    for a, ub in zip(A, b):
        assert ub == pytest.approx(support(tube.Z, a), abs=1e-12)
        nxt = tube.Phi.T @ a
        if np.abs(nxt).sum() >= 1e-7:
            # the propagated direction must itself be one of the rows
            gaps = np.max(np.abs(A - nxt[None, :]), axis=1)
            assert np.min(gaps) <= 1e-12


def test_solve_matches_batch_solution_without_inequalities(cfg):
    # criterion oracle: with every inequality removed the SQP must land on
    # the closed-form equality-constrained quadratic minimizer
    for method in ("granular", "single-rsmpc"):
        setup = ocp.MethodSetup.build(cfg, method)
        prob = ocp.assemble(setup, _start_state(cfg), None)
        prob.a_static = np.zeros((0, prob.n_y))
        prob.b_static = np.zeros(0)
        prob.static_labels = []
        prob.nonlinear = []
        settings = ocp.SqpSettings.from_config(cfg)
        settings.pos_step_limit = 1e12   # nothing to guard without keep-outs
        sol = ocp.solve_sqp(prob, settings)
        assert sol.status == "converged"
        if prob.a_eq is not None and len(prob.a_eq):
            me = len(prob.b_eq)
            kkt = np.block([[prob.H, prob.a_eq.T],
                            [prob.a_eq, np.zeros((me, me))]])
            ref = np.linalg.solve(kkt, np.concatenate([-prob.f, prob.b_eq]))[:prob.n_y]
        else:
            ref = -np.linalg.solve(prob.H, prob.f)
        assert np.max(np.abs(sol.y - ref)) < 1e-6


def test_idle_at_target_without_obstacle(cfg, setup_granular):
    xt = np.array([cfg.target[0], 0.0, cfg.target[1], 0.0])
    prob = ocp.assemble(setup_granular, xt, None)
    settings = ocp.SqpSettings.from_config(cfg)
    settings.max_iter = 200
    sol = ocp.solve_sqp(prob, settings)
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
    assert not prob.zeta_maps
    sol = ocp.solve_sqp(prob)
    assert sol.status == "converged"
    assert sol.cs is None


def test_planned_positions_cover_full_horizon(cfg, setup_granular):
    prob = ocp.assemble(setup_granular, _start_state(cfg), _obstacle(cfg))
    sol = ocp.solve_sqp(prob)
    assert sol.positions.shape == (cfg.n_total + 1, 2)
    assert np.allclose(sol.positions[:cfg.ns + 1], sol.xbar[:, [0, 2]])


def test_solution_trace_records_iterations(cfg, setup_granular):
    trace = []
    sol = ocp.solve_sqp(ocp.assemble(setup_granular, _start_state(cfg),
                                     _obstacle(cfg)), trace=trace)
    assert len(trace) == sol.iterations
    assert all("violation" in row and "objective" in row for row in trace)


def test_sqp_evaluates_each_point_once(cfg, setup_granular, monkeypatch):
    # over a traced granular episode (two of its steps take the soft
    # fallback), no solve_sqp call scores a point twice: each result is
    # carried forward, and the reported violation is the executed plan's own
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
    rec = simulate.run_closed_loop(cfg, "granular", 0, setup=setup_granular, trace=[])
    assert rec.softened_steps > 0
    assert calls >= rec.steps and not repeats
