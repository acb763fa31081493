"""Chance-constraint machinery: inverse error function, quantile margins,
covariance propagation, and the chance-tightened keep-outs as
ocp.nonlinear_violation evaluates and linearizes them."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special

import granmpc.scenario as sc
from granmpc import ocp
from granmpc.chance import (CovarianceSchedule, erfinv, gamma,
                            propagate_covariance)


def test_erfinv_matches_scipy():
    ys = np.linspace(-0.9999, 0.9999, 4001)
    errs = [abs(erfinv(y) - scipy.special.erfinv(y)) for y in ys]
    assert max(errs) < 1e-10


def test_erfinv_roundtrip():
    ys = np.linspace(-0.999, 0.999, 1999)
    errs = [abs(math.erf(erfinv(y)) - y) for y in ys]
    assert max(errs) <= 1e-9


def test_erfinv_near_one():
    for y in (0.999999, -0.999999, 1.0 - 1e-12):
        assert math.erf(erfinv(y)) == pytest.approx(y, abs=1e-12)


def test_erfinv_domain():
    assert erfinv(0.0) == 0.0
    for bad in (-1.0, 1.0, 1.5, -2.0):
        with pytest.raises(ValueError):
            erfinv(bad)


def test_gamma_closed_form():
    # gamma = std * Phi^{-1}(p) for the scalar unit case
    sigma = np.array([[4.0]])
    g = gamma([1.0], sigma, 0.8)
    assert g == pytest.approx(2.0 * math.sqrt(2.0) * erfinv(0.6), rel=1e-12)


def test_gamma_monotone_in_risk():
    sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
    grad = np.array([0.3, -1.1])
    gs = [gamma(grad, sigma, p) for p in (0.5, 0.7, 0.8, 0.9, 0.99)]
    assert gs[0] == pytest.approx(0.0, abs=1e-12)
    assert all(a < b for a, b in zip(gs, gs[1:]))


def test_gamma_quantile_identity_sampled():
    # Pr(-grad . e <= gamma) should equal p for Gaussian e.
    rng = np.random.default_rng(5)
    for p in (0.6, 0.8, 0.95):
        A = rng.normal(size=(2, 2))
        sigma = A @ A.T + 0.1 * np.eye(2)
        grad = rng.normal(size=2)
        g = gamma(grad, sigma, p)
        e = rng.multivariate_normal(np.zeros(2), sigma, size=400000)
        emp = np.mean(e @ (-grad) <= g)
        assert emp == pytest.approx(p, abs=0.005)


def test_gamma_zero_variance():
    assert gamma([1.0, 0.0], np.zeros((2, 2)), 0.9) == 0.0


def test_gamma_invalid_risk():
    for p in (0.49, 1.0, 1.2):
        with pytest.raises(ValueError):
            gamma([1.0], np.eye(1), p)


def test_propagate_covariance_matches_naive_loop():
    rng = np.random.default_rng(31)
    phi = np.array([[0.8, 0.1], [0.0, 0.7]])
    gmat = rng.normal(size=(2, 2))
    sw = np.diag([0.04, 0.09])
    s0 = np.diag([0.01, 0.02])
    sched = propagate_covariance(phi, gmat, sw, s0, 12)
    assert len(sched) == 13
    expected = s0.copy()
    for k in range(13):
        assert np.allclose(sched[k], expected, atol=1e-13)
        expected = phi @ expected @ phi.T + gmat @ sw @ gmat.T


def test_propagate_covariance_scalar_closed_form():
    # var_k = phi^{2k} var_0 + q (1 - phi^{2k}) / (1 - phi^2)
    phi, q, v0 = 0.9, 0.05, 0.2
    sched = propagate_covariance([[phi]], [[1.0]], [[q]], [[v0]], 20)
    for k in range(21):
        r = phi ** (2 * k)
        assert sched[k][0, 0] == pytest.approx(
            r * v0 + q * (1 - r) / (1 - phi ** 2), rel=1e-12)


def test_propagate_covariance_stays_psd():
    sched = propagate_covariance(np.array([[0.9, 0.3], [-0.2, 0.8]]),
                                 np.eye(2), 0.01 * np.eye(2),
                                 np.zeros((2, 2)), 30)
    for k in range(31):
        assert np.min(np.linalg.eigvalsh(sched[k])) >= -1e-12


def test_propagate_covariance_rejects_indefinite():
    with pytest.raises(ValueError):
        propagate_covariance(np.eye(2), np.eye(2),
                             np.array([[1.0, 2.0], [2.0, 1.0]]),
                             np.zeros((2, 2)), 3)


def _fd_gradient(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def _keepout(cfg, setup, label, k):
    """The assembled problem reduced to the one keep-out item `label` at
    stage k: static rows and the coupling are cleared, so the violation
    nonlinear_violation reports is that item's alone."""
    start = np.array([cfg.start[0], 0.0, cfg.start[1], 0.0])
    prob = ocp.assemble(setup, start, sc.DynamicObstacle.from_config(cfg))
    item = next(i for i in prob.nonlinear if i.desc.label == label and i.desc.k == k)
    prob = dataclasses.replace(prob, nonlinear=[item], a_static=np.zeros((0, prob.n_y)),
                               b_static=np.zeros(0), a_eq=None, b_eq=None)
    return prob, item


def _y_at(item, pos):
    """A decision vector that puts the item's position at pos."""
    y = np.linalg.pinv(item.S) @ (np.asarray(pos, dtype=float) - item.s)
    assert np.allclose(item.S @ y + item.s, pos, atol=1e-9)
    return y


def _ellipse_g(item, pos):
    d, c = item.desc, item.center
    return ((pos[0] - c[0]) / d.a) ** 2 + ((pos[1] - c[1]) / d.b) ** 2 - 1.0


def test_halfplane_gradient_finite_difference(cfg, setup_granular):
    # the static box's lower edge, p_y <= y_max while p_x lies under the box
    prob, item = _keepout(cfg, setup_granular, "chance_box_edge", cfg.ns + 2)
    d = item.desc
    y = _y_at(item, [0.5 * sum(d.x_range), d.y_max + 0.3])
    v, a_nl, b_nl = ocp.nonlinear_violation(prob, y)

    def residual(yy):
        return d.y_max - (item.S @ yy + item.s)[1]

    assert a_nl.shape == (1, prob.n_y)
    assert np.allclose(a_nl[0], -_fd_gradient(residual, y), atol=1e-7)
    assert b_nl[0] - a_nl[0] @ y == pytest.approx(residual(y), abs=1e-9)
    assert v == pytest.approx(0.3, abs=1e-9)
    # away from the box the edge is inactive: no row and no violation
    v, a_nl, b_nl = ocp.nonlinear_violation(prob, _y_at(item, [d.x_range[0] - 5.0, 3.0]))
    assert v == 0.0 and a_nl.shape == (0, prob.n_y) and b_nl.shape == (0,)


def test_ellipse_gradient_finite_difference(cfg, setup_granular):
    # outside a chance keep-out the linearized row is minus the gradient of
    # g(S y + s) in y, and its residual b - a.y is the tightened g - gamma
    prob, item = _keepout(cfg, setup_granular, "chance_ellipse", cfg.ns + 3)
    d = item.desc
    sigma = np.asarray(d.sigma)

    def g_of_y(yy):
        return _ellipse_g(item, item.S @ yy + item.s)

    for offset in ([1.3, 0.4], [-0.2, 1.6], [0.9, -1.1]):
        pos = item.center + offset
        y = _y_at(item, pos)
        _, a_nl, b_nl = ocp.nonlinear_violation(prob, y)
        assert _ellipse_g(item, pos) > 0.0
        assert np.allclose(a_nl[0], -_fd_gradient(g_of_y, y), atol=1e-6)
        grad = np.array([2.0 * (pos[0] - item.center[0]) / d.a ** 2,
                         2.0 * (pos[1] - item.center[1]) / d.b ** 2])
        expected = _ellipse_g(item, pos) - gamma(grad, sigma, d.p)
        assert b_nl[0] - a_nl[0] @ y == pytest.approx(expected, abs=1e-9)


def test_deterministic_residual_sign(cfg, setup_granular):
    prob, item = _keepout(cfg, setup_granular, "chance_ellipse", cfg.ns + 3)
    d = item.desc
    sigma = np.asarray(d.sigma)
    # on the nominal boundary (g = 0) the chance margin alone is violated
    theta = 2.0
    pos = item.center + [d.a * np.cos(theta), d.b * np.sin(theta)]
    grad = np.array([2.0 * np.cos(theta) / d.a, 2.0 * np.sin(theta) / d.b])
    g = gamma(grad, sigma, d.p)
    assert g > 0.0
    v, _, _ = ocp.nonlinear_violation(prob, _y_at(item, pos))
    assert v == pytest.approx(g, rel=1e-9)
    # far outside, the tightened constraint holds
    v, _, _ = ocp.nonlinear_violation(prob, _y_at(item, item.center + [10.0 * d.a, 0.0]))
    assert v == 0.0


def test_covariance_schedule_indexing():
    sched = CovarianceSchedule([np.eye(2), 2 * np.eye(2)], np.eye(2), np.eye(2))
    assert len(sched) == 2
    assert np.allclose(sched[1], 2 * np.eye(2))
    d = sched.to_json()
    assert len(d["sigmas"]) == 2
