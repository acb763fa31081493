"""Chance-constraint machinery: inverse error function, quantile margins,
covariance propagation, and the chance-tightened keep-outs as
ocp.nonlinear_violation evaluates and linearizes them."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

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
    assert len(sched.sigmas) == 13
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
    """The granular problem reduced to the one chance keep-out item `label`
    at stage k >= Ns: static rows and the coupling are cleared, so the
    violation nonlinear_violation reports is that item's alone."""
    desc = next(d for d in sc.build_smpc_constraints(cfg, k, setup.coarse_sched[k - cfg.ns],
                                                     "coarse", with_input=k < cfg.n_total)
                if d.label == label)
    ko = setup.keepouts
    j = [i for i, lbl in enumerate(ko.labels) if lbl == label][k - cfg.ns]
    if ko.ellipse[j]:
        assert ko.stage[np.count_nonzero(ko.ellipse[:j])] == k
    one = ocp.Keepouts.stack([desc], np.concatenate([ko.S[j:j + 1], ko.x[j:j + 1]], axis=2),
                             setup.n_y)
    start = np.array([cfg.start[0], 0.0, cfg.start[1], 0.0])
    prob = ocp.assemble(dataclasses.replace(setup, keepouts=one, a_eq=None, eq_x=None), start,
                        sc.DynamicObstacle.from_config(cfg))
    prob = dataclasses.replace(prob, a_static=np.zeros((0, prob.n_y)), b_static=np.zeros(0))
    offsets, centers = prob.nonlinear
    return prob, SimpleNamespace(desc=desc, S=ko.S[j], s=offsets[0],
                                 center=centers[0] if len(centers) else None)


def _y_at(item, pos):
    """A decision vector that puts the item's position at pos."""
    y = np.linalg.pinv(item.S) @ (np.asarray(pos, dtype=float) - item.s)
    assert np.allclose(item.S @ y + item.s, pos, atol=1e-9)
    return y


def _ellipse_g(item, pos):
    d, c = item.desc, item.center
    return ((pos[0] - c[0]) / d.a) ** 2 + ((pos[1] - c[1]) / d.b) ** 2 - 1.0


def _box_sd(desc, pos):
    """Signed distance of pos from the box the descriptor's corners span."""
    lo, hi = np.min(desc.corners, axis=0), np.max(desc.corners, axis=0)
    out = np.maximum(np.maximum(lo - pos, pos - hi), 0.0)
    if out.any():
        return float(np.linalg.norm(out))
    return -float(min(np.min(pos - lo), np.min(hi - pos)))


def test_halfplane_gradient_finite_difference(cfg, setup_granular):
    # the static box as a chance keep-out: beyond its bottom facet, beyond
    # its lower-left corner and inside it (nearest its left facet), the row
    # is minus the gradient of the signed distance sd(S y + s) in y, and its
    # residual b - a.y is sd - margin - gamma with gamma from that gradient
    prob, item = _keepout(cfg, setup_granular, "chance_box", cfg.ns + 2)
    d = item.desc
    (x_lo, y_lo), (x_hi, y_hi) = np.min(d.corners, axis=0), np.max(d.corners, axis=0)
    assert d.margin == cfg.robot_radius

    def sd_of_y(yy):
        return _box_sd(d, item.S @ yy + item.s)

    for pos, normal in ((np.array([0.5 * (x_lo + x_hi), y_lo - 0.7]), [0.0, -1.0]),
                        (np.array([x_lo - 0.6, y_lo - 0.8]), [-0.6, -0.8]),
                        (np.array([x_lo + 0.2, y_lo + 0.6]), [-1.0, 0.0])):
        y = _y_at(item, pos)
        v, a_nl, b_nl = ocp.nonlinear_violation(prob, y)
        assert a_nl.shape == (1, prob.n_y)
        assert np.allclose(a_nl[0], -_fd_gradient(sd_of_y, y), atol=1e-6)
        assert np.allclose(_fd_gradient(lambda p: _box_sd(d, p), pos), normal, atol=1e-7)
        expected = _box_sd(d, pos) - d.margin - gamma(normal, np.asarray(d.sigma), d.p)
        assert b_nl[0] - a_nl[0] @ y == pytest.approx(expected, abs=1e-9)
        assert v == pytest.approx(max(0.0, -expected), abs=1e-9)
    # below the bottom facet the row is p_y <= y_lo - robot_radius - gamma_y
    g_y = gamma([0.0, 1.0], np.asarray(d.sigma), d.p)
    y = _y_at(item, [0.5 * (x_lo + x_hi), y_lo - 0.7])
    _, a_nl, b_nl = ocp.nonlinear_violation(prob, y)
    assert np.allclose(a_nl[0], item.S[1], atol=1e-12)
    assert b_nl[0] == pytest.approx(y_lo - cfg.robot_radius - g_y - item.s[1], abs=1e-9)


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
    assert len(sched.sigmas) == 2
    assert np.allclose(sched[1], 2 * np.eye(2))
    d = sc.plain(sched)
    assert set(d) == {"sigmas", "phi_c", "gc_sigma_gcT"}
    assert d["sigmas"] == [np.eye(2).tolist(), (2 * np.eye(2)).tolist()]


# ---------------------------------------------------------------------------
# the batched keep-out evaluator against a per-item reference

def _reference_keepouts(descs, S, s, centers, y):
    """(worst, rows, bounds) of the keep-outs, one item at a time: a box is
    linearized at the position, its signed distance's gradient the unit
    vector from the nearest point outside and the nearest facet's normal
    inside (along x on a tie, and from the exact centre the lower facet);
    an ellipse at the position or, from inside, at its radial projection onto
    the boundary (the rear face from the exact centre)."""
    worst, rows, ubs = 0.0, [], []
    centers = iter(() if centers is None else centers)
    for d, Si, si in zip(descs, S, s):
        pt = Si @ y + si
        if isinstance(d, sc.BoxKeepout):
            lo, hi = np.min(d.corners, axis=0), np.max(d.corners, axis=0)
            out = np.maximum(np.maximum(lo - pt, pt - hi), 0.0)
            if out.any():
                sd = float(np.linalg.norm(out))
                grad = np.where(pt > hi, out, -out) / sd
            else:
                rel = pt - (lo + hi) / 2.0
                depth = (hi - lo) / 2.0 - np.abs(rel)
                j = 0 if depth[0] <= depth[1] else 1
                sd, grad = -depth[j], np.zeros(2)
                grad[j] = 1.0 if rel[j] > 0.0 else -1.0
            gam = 0.0 if d.p is None else gamma(grad, np.asarray(d.sigma), d.p)
            worst = max(worst, d.margin + gam - sd)
            rows.append(-(grad @ Si))
            ubs.append(sd - d.margin - gam - grad @ (pt - si))
            continue
        c = next(centers, None)
        if c is None:
            continue

        def value_grad_margin(p):
            dx, dy = (p[0] - c[0]) / d.a, (p[1] - c[1]) / d.b
            grad = np.array([2.0 * dx / d.a, 2.0 * dy / d.b])
            gam = 0.0 if d.p is None else gamma(grad, np.asarray(d.sigma), d.p)
            return dx * dx + dy * dy - 1.0, grad, gam

        g, grad, gam = value_grad_margin(pt)
        worst = max(worst, gam - g)
        p_lin = pt
        r = np.array([(pt[0] - c[0]) / d.a, (pt[1] - c[1]) / d.b])
        rho = float(np.hypot(r[0], r[1]))
        if rho < 1.0:
            if rho < 1e-9:
                r, rho = np.array([-1.0, 0.0]), 1.0
            p_lin = c + np.array([d.a, d.b]) * r / rho
            g, grad, gam = value_grad_margin(p_lin)
        rows.append(-(grad @ Si))
        ubs.append(g - gam - grad @ p_lin + grad @ si)
    return worst, np.array(rows).reshape(-1, len(y)), np.array(ubs)


_unit = st.floats(0.0, 1.0)


@st.composite
def _keepout_cases(draw):
    """Ellipses and boxes (robust and chance) with S y + s placed inside, on,
    outside or at the centre of each ellipse, and outside a facet, beyond a
    corner, on a facet, inside or at the centre of each box."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_y = draw(st.integers(1, 6))
    # y = 0 puts every position exactly at its drawn point
    y = rng.normal(size=n_y) if draw(st.booleans()) else np.zeros(n_y)
    risk = draw(st.floats(0.5, 0.99))
    descs, S, pos, centers = [], [], [], []
    for k in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["robust", "chance"]))
        L = 0.3 * rng.normal(size=(2, 2))
        p, sigma = (None, None) if kind == "robust" else (risk, tuple(map(tuple, L @ L.T)))
        Si = rng.normal(size=(2, n_y))
        if draw(st.booleans()):
            lo = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
            hi = lo + [draw(st.floats(0.1, 4.0)), draw(st.floats(0.1, 4.0))]
            inner = lo + (0.05 + 0.9 * np.array([draw(_unit), draw(_unit)])) * (hi - lo)
            away = 0.05 + 2.0 * np.array([draw(_unit), draw(_unit)])
            side = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)])
            edge = np.where(side > 0, hi, lo)
            place = draw(st.sampled_from(["facet", "corner", "on", "inside", "centre"]))
            pt = {"corner": edge + side * away, "inside": inner, "centre": (lo + hi) / 2.0,
                  "facet": inner.copy(), "on": inner.copy()}[place]
            if place in ("facet", "on"):
                axis = draw(st.integers(0, 1))
                pt[axis] = edge[axis] + (side[axis] * away[axis] if place == "facet" else 0.0)
            if place in ("on", "centre") and y.any():
                Si[:] = 0.0       # so does a zero map
            corners = ((lo[0], hi[1]), (lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]))
            descs.append(sc.BoxKeepout(k, "state_pos", corners, draw(st.floats(0.0, 1.0)),
                                       p, sigma, f"{kind}_box"))
        else:
            a, b = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
            c = rng.normal(scale=3.0, size=2)
            rho = draw(st.sampled_from([0.0, 1.0, "inside", "outside"]))
            rho = {"inside": 0.05 + 0.9 * draw(_unit),
                   "outside": 1.05 + 2.0 * draw(_unit)}.get(rho, rho)
            theta = 2.0 * np.pi * draw(_unit)
            descs.append(sc.EllipseKeepout(k, "state_pos", a, b, p, sigma, f"{kind}_ellipse"))
            centers.append(c)
            pt = c + rho * np.array([a * np.cos(theta), b * np.sin(theta)])
        S.append(Si)
        pos.append(pt)
    S = np.array(S)
    s = np.array(pos) - S @ y
    centers = np.array(centers).reshape(-1, 2) if draw(st.booleans()) else None
    return descs, S, s, centers, y


@settings(max_examples=300, deadline=None)
@given(case=_keepout_cases())
def test_batched_keepouts_match_per_item_reference(setup_granular, case):
    descs, S, s, centers, y = case
    n_y = len(y)
    maps = np.concatenate([S, np.zeros((len(S), 2, 4))], axis=2)
    setup = dataclasses.replace(setup_granular, n_y=n_y, a_eq=None,
                                keepouts=ocp.Keepouts.stack(descs, maps, n_y))
    base = ocp.assemble(setup_granular, np.zeros(4))
    prob = dataclasses.replace(base, setup=setup,
                               a_static=np.zeros((0, n_y)), b_static=np.zeros(0),
                               b_eq=None, nonlinear=ocp.KeepoutTerms(s, centers))
    worst, a_nl, b_nl = ocp.nonlinear_violation(prob, y)
    ref_worst, ref_a, ref_b = _reference_keepouts(descs, S, s, centers, y)
    assert a_nl.shape == ref_a.shape and b_nl.shape == ref_b.shape
    assert np.allclose(a_nl, ref_a, rtol=1e-12, atol=1e-12)
    assert np.allclose(b_nl, ref_b, rtol=1e-12, atol=1e-12)
    assert worst == pytest.approx(ref_worst, rel=1e-12, abs=1e-12)
