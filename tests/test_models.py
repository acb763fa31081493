"""Model-layer tests: discrete dynamics, stability helpers,
and the Riccati solver checked against scipy's DARE."""

import numpy as np
import pytest
import scipy.linalg

import granmpc.scenario as sc
from granmpc.models import (LinearModel, ModelError, closed_loop, dlqr,
                            spectral_radius, step)
from granmpc.sets import Zonotope


def test_step_matches_manual():
    m = sc.detailed_model(sc.load_config(None))
    rng = np.random.default_rng(2)
    x = rng.normal(size=4)
    u = rng.normal(size=2)
    d = rng.normal(size=4)
    assert np.allclose(step(m, x, u, d), m.A @ x + m.B @ u + m.G @ d)
    assert np.allclose(step(m, x, u), m.A @ x + m.B @ u)


def test_detailed_model_is_double_integrator():
    cfg = sc.load_config(None)
    m = sc.detailed_model(cfg)
    dt = cfg.dt
    # constant acceleration for n steps from rest: p = 1/2 a (n dt)^2
    x = np.zeros(4)
    for _ in range(10):
        x = step(m, x, np.array([1.0, 0.0]))
    assert x[0] == pytest.approx(0.5 * (10 * dt) ** 2, rel=1e-12)
    assert x[1] == pytest.approx(10 * dt, rel=1e-12)
    assert x[2] == x[3] == 0.0


def test_coarse_model_is_single_integrator():
    cfg = sc.load_config(None)
    m = sc.coarse_model(cfg)
    z = step(m, np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    assert np.allclose(z, [1.0 + 0.5 * cfg.dt, 2.0 - 1.0 * cfg.dt])


def test_model_validation():
    with pytest.raises(ModelError):
        LinearModel(A=np.eye(3), B=np.zeros((2, 1)), G=np.eye(3), dt=0.1)
    with pytest.raises(ModelError):
        LinearModel(A=np.eye(2), B=np.zeros((2, 1)), G=np.eye(2), dt=0.0)
    with pytest.raises(ModelError):
        LinearModel(A=np.eye(2), B=np.zeros((2, 1)), G=np.eye(2), dt=0.1,
                    disturbance=Zonotope.box([0.1, 0.1, 0.1]))


def test_spectral_radius():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)


def test_closed_loop_scenario_gains_stable():
    cfg = sc.load_config(None)
    gains = sc.gain_pair(cfg)
    assert spectral_radius(gains.Phi) < 1.0
    assert spectral_radius(gains.Phi_c) < 1.0


def test_closed_loop_rejects_unstable():
    m = LinearModel(A=2.0 * np.eye(2), B=np.zeros((2, 2)), G=np.eye(2), dt=0.1)
    with pytest.raises(ModelError):
        closed_loop(m, np.zeros((2, 2)))


def test_dlqr_matches_scipy_dare():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        A = rng.normal(size=(n, n))
        A = 0.95 * A / max(spectral_radius(A), 1.0)
        B = rng.normal(size=(n, m))
        Q = np.diag(rng.uniform(0.1, 2.0, size=n))
        R = np.diag(rng.uniform(0.1, 2.0, size=m))
        K, P = dlqr(A, B, Q, R)
        P_ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
        assert np.allclose(P, P_ref, rtol=1e-7, atol=1e-7)
        K_ref = np.linalg.solve(R + B.T @ P_ref @ B, B.T @ P_ref @ A)
        assert np.allclose(K, K_ref, rtol=1e-7, atol=1e-7)
        assert spectral_radius(A - B @ K) < 1.0


def test_dlqr_coarse_x_channel_gain():
    # scalar position channel of the coarse model with the scenario weights
    cfg = sc.load_config(None)
    K, _ = dlqr([[1.0]], [[cfg.dt]], [[cfg.qc_diag[0]]], [[cfg.rc_diag[0]]])
    assert abs(K[0, 0] - 2.32) <= 0.01


def test_dlqr_rejects_bad_weights():
    with pytest.raises(ModelError):
        dlqr(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
