"""Acceptance criteria, one test per criterion with a single PASS/FAIL line.

Criteria 6 to 9 and 11 share one 100-run Monte Carlo battery per method on
common random numbers (seeds 0..99, single worker so timings are clean).
The battery takes a few minutes; everything else runs in seconds.
"""

import math

import numpy as np
import pytest

import granmpc.scenario as sc
from granmpc import chance, ocp, simulate
from granmpc.models import dlqr
from granmpc.qp import qp_solve
from granmpc.sets import linear_map, minkowski_sum, support

N_RUNS = 100


def _verdict(num, name, ok, detail):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def battery(cfg):
    out = {}
    for method in simulate.METHODS:
        summary, records = simulate.monte_carlo(cfg, method, N_RUNS, 0)
        out[method] = (summary, records)
    return out


def test_criterion_01_tightened_sets(setup_granular):
    tube = setup_granular.tube
    x_off = tube.Xbar.offsets
    u_off = tube.Ubar.offsets
    lane = (-float(x_off[1]), float(x_off[0]))
    vel = float(np.min(x_off[2:6]))
    inp = float(np.min(u_off))
    ok = (abs(inp - 1.73) <= 0.05
          and abs(lane[0] + 0.22) <= 0.05 and abs(lane[1] - 2.22) <= 0.05
          and abs(vel - 2.26) <= 0.05)
    _verdict(1, "tightened-set reproduction", ok,
             f"|a|<={inp:.3f} vs 1.73, lane [{lane[0]:.3f}, {lane[1]:.3f}] "
             f"vs [-0.22, 2.22], |v|<={vel:.3f} vs 2.26, tol 0.05")


def test_criterion_02_mrpi_invariance(setup_granular):
    tube = setup_granular.tube
    D = linear_map(setup_granular.model.G, setup_granular.model.disturbance)
    lhs = minkowski_sum(linear_map(tube.Phi, tube.Z), D)
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(50):
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        worst = max(worst, support(lhs, d) - support(tube.Z, d))
    ok = worst <= 1e-9
    _verdict(2, "mRPI invariance", ok, f"max support slack {worst:.2e} <= 1e-9")


def test_criterion_03_quantile_correctness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        dim = int(rng.integers(1, 4))
        A = rng.normal(size=(dim, dim))
        sigma = A @ A.T + 0.05 * np.eye(dim)
        grad = rng.normal(size=dim)
        p = float(rng.uniform(0.55, 0.97))
        g = chance.gamma(grad, sigma, p)
        e = rng.multivariate_normal(np.zeros(dim), sigma, size=1_000_000)
        emp = float(np.mean(e @ (-grad) <= g))
        worst = max(worst, abs(emp - p))
    ok = worst <= 0.005
    _verdict(3, "quantile correctness", ok,
             f"max |empirical - p| {worst:.4f} <= 0.005 at 1e6 samples")


def test_criterion_04_erfinv():
    ys = np.linspace(-0.999, 0.999, 1999)
    worst = max(abs(math.erf(chance.erfinv(y)) - y) for y in ys)
    ok = worst <= 1e-9
    _verdict(4, "erfinv accuracy", ok,
             f"max roundtrip error {worst:.2e} <= 1e-9 on 1999 points")


def test_criterion_05_lqr_cross_check(cfg):
    K, _ = dlqr([[1.0]], [[cfg.dt]], [[cfg.qc_diag[0]]], [[cfg.rc_diag[0]]])
    k = float(K[0, 0])
    ok = abs(k - 2.32) <= 0.01
    _verdict(5, "LQR cross-check", ok, f"coarse x-gain {k:.4f} vs 2.32 +- 0.01")


def test_criterion_06_granular_monte_carlo(battery):
    summary, records = battery["granular"]
    n_pass = sum(r.passed for r in records)
    n_coll = sum(r.collided for r in records)
    ok = n_pass == N_RUNS and n_coll == 0
    _verdict(6, "granular behavior", ok,
             f"pass {n_pass}/{N_RUNS}, collisions {n_coll}")


def test_criterion_07_single_rmpc_never_passes(battery):
    _, records = battery["single-rmpc"]
    n_pass = sum(r.passed for r in records)
    max_px = max(float(np.max(r.robot_positions()[:, 0])) for r in records)
    ok = n_pass == 0 and max_px < 11.0
    _verdict(7, "single-model RMPC behavior", ok,
             f"pass {n_pass}/{N_RUNS} (want 0), max p_x {max_px:.2f} (want < 11)")


def test_criterion_08_cost_similarity(battery):
    g = battery["granular"][0].mean_cumulative_cost
    s = battery["single-rsmpc"][0].mean_cumulative_cost
    rel = abs(g - s) / s
    ok = rel <= 0.10
    _verdict(8, "cost similarity", ok,
             f"mean cost granular {g:.1f} vs single-rsmpc {s:.1f}, "
             f"relative gap {rel:.3f} <= 0.10")


def test_criterion_09_timing_direction(battery):
    g = battery["granular"][0].mean_solve_ms
    s = battery["single-rsmpc"][0].mean_solve_ms
    ratio = g / s
    ok = ratio <= 0.9
    # the CPU-time ratio is printed alongside: host load moves wall time
    g_cpu, s_cpu = (np.mean([e.solve_cpu_ms for r in battery[m][1] for e in r.entries])
                    for m in ("granular", "single-rsmpc"))
    _verdict(9, "timing direction", ok,
             f"mean solve {g:.1f} ms / {s:.1f} ms = {ratio:.3f} <= 0.9; "
             f"CPU {g_cpu:.1f} ms / {s_cpu:.1f} ms = {g_cpu / s_cpu:.3f}")


def test_criterion_10_solver_oracles(cfg):
    # part 1: box-constrained QPs against a projected-gradient oracle
    rng = np.random.default_rng(10)
    worst_qp = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(n, n))
        H = A @ A.T + n * np.eye(n)
        f = 3.0 * rng.normal(size=n)
        lo = rng.uniform(-2.0, -0.2, size=n)
        hi = rng.uniform(0.2, 2.0, size=n)
        sol = qp_solve(H, f, np.vstack([np.eye(n), -np.eye(n)]),
                       np.concatenate([hi, -lo]))
        assert sol.status == "optimal"
        L = np.max(np.linalg.eigvalsh(H))
        x = np.clip(np.zeros(n), lo, hi)
        for _ in range(60000):
            x = np.clip(x - (H @ x + f) / L, lo, hi)
        worst_qp = max(worst_qp, float(np.max(np.abs(sol.x - x))))

    # part 2: SQP against the closed-form batch solution, inequalities removed
    worst_sqp = 0.0
    free = cfg.with_overrides({"solver.sqp_pos_step_limit": "1e12"})
    for method in ("granular", "single-rsmpc"):
        setup = ocp.MethodSetup.build(free, method)
        x0 = np.array([cfg.start[0], 0.0, cfg.start[1], 0.0])
        prob = ocp.assemble(setup, x0, None)
        prob.a_static = np.zeros((0, prob.n_y))
        prob.b_static = np.zeros(0)
        prob.nonlinear = []
        sol = ocp.solve_sqp(prob)
        if prob.a_eq is not None and len(prob.a_eq):
            me = len(prob.b_eq)
            kkt = np.block([[prob.H, prob.a_eq.T],
                            [prob.a_eq, np.zeros((me, me))]])
            ref = np.linalg.solve(kkt, np.concatenate([-prob.f, prob.b_eq]))[:prob.n_y]
        else:
            ref = -np.linalg.solve(prob.H, prob.f)
        worst_sqp = max(worst_sqp, float(np.max(np.abs(sol.y - ref))))

    ok = worst_qp <= 1e-5 and worst_sqp <= 1e-6
    _verdict(10, "solver oracles", ok,
             f"qp vs projected gradient {worst_qp:.2e} <= 1e-5, "
             f"sqp vs batch {worst_sqp:.2e} <= 1e-6")


def test_criterion_11_closed_loop_guarantee(cfg, battery):
    _, records = battery["granular"]
    violations = 0
    for r in records:
        states = [e.x for e in r.entries] + [r.final_state]
        for x in states:
            if not (cfg.lane_low <= x[2] <= cfg.lane_high):
                violations += 1
            if abs(x[1]) > cfg.vel_limit or abs(x[3]) > cfg.vel_limit:
                violations += 1
    ok = violations == 0
    _verdict(11, "closed-loop robust guarantee", ok,
             f"{violations} lane/velocity violations across "
             f"{N_RUNS} granular runs (want 0)")


def test_criterion_12_determinism(cfg):
    a = simulate.run_closed_loop(cfg, "granular", 0)
    b = simulate.run_closed_loop(cfg, "granular", 0)
    same = simulate.canonical_record_bytes(a) == simulate.canonical_record_bytes(b)
    _verdict(12, "determinism", same,
             "repeated (config, method, seed) runs byte-identical"
             if same else "records differ")
