"""Tube construction tests: invariance of the cross-section and consistency
of the tightened sets."""

import numpy as np
import pytest

import granmpc.scenario as sc
from granmpc.sets import (EmptySetError, Zonotope, linear_map, minkowski_sum,
                          support)
from granmpc.tube import build_tube


def test_tube_cross_section_invariance(tube, setup_granular):
    # Phi Z + D inside Z on random directions
    rng = np.random.default_rng(29)
    D = linear_map(setup_granular.model.G, setup_granular.model.disturbance)
    lhs = minkowski_sum(linear_map(tube.Phi, tube.Z), D)
    for _ in range(50):
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        assert support(lhs, d) <= support(tube.Z, d) + 1e-9


def test_tightened_sets_are_pontryagin_differences(cfg, tube):
    X = sc.state_set(cfg)
    U = sc.input_set(cfg)
    for a, ub, tb in zip(X.normals, X.offsets, tube.Xbar.offsets):
        assert tb == pytest.approx(ub - support(tube.Z, a), abs=1e-12)
    for a, ub, tb in zip(U.normals, U.offsets, tube.Ubar.offsets):
        assert tb == pytest.approx(ub - support(tube.KZ, a), abs=1e-12)


def test_tightening_scales_linearly_with_disturbance(cfg):
    # supports of the invariant set are homogeneous in the box half-widths
    model = sc.detailed_model(cfg)
    gains = sc.gain_pair(cfg)
    X, U = sc.state_set(cfg), sc.input_set(cfg)
    half = np.sum(np.abs(model.disturbance.generators), axis=1)

    def offsets(scale):
        m = sc.LinearModel(A=model.A, B=model.B, G=model.G, dt=model.dt,
                           disturbance=Zonotope.box(scale * half))
        t = build_tube(m, gains.K, cfg.tube_eps, X, U)
        return np.concatenate([X.offsets - t.Xbar.offsets,
                               U.offsets - t.Ubar.offsets])

    base = offsets(1.0)
    assert np.allclose(offsets(0.5), 0.5 * base, rtol=1e-6, atol=1e-9)


def test_build_tube_requires_bounded_disturbance(cfg):
    coarse = sc.coarse_model(cfg)  # no bounded disturbance set
    with pytest.raises(ValueError):
        build_tube(coarse, -np.array(cfg.kc_gain), cfg.tube_eps,
                   sc.state_set(cfg), sc.input_set(cfg))


def test_build_tube_empty_tightening_raises(cfg):
    model = sc.detailed_model(cfg)
    big = sc.LinearModel(A=model.A, B=model.B, G=model.G, dt=model.dt,
                         disturbance=Zonotope.box([2.0, 2.0, 2.0, 2.0]))
    gains = sc.gain_pair(cfg)
    with pytest.raises(EmptySetError):
        build_tube(big, gains.K, cfg.tube_eps,
                   sc.state_set(cfg), sc.input_set(cfg))


def test_tube_json_roundtrip_fields(tube):
    d = sc.plain(tube)
    assert set(d) == {"Z", "KZ", "Xbar", "Ubar", "K", "Phi", "alpha", "s"}
    assert d["s"] == tube.s
    assert np.allclose(d["K"], tube.K)
    # the sets keep their type tag next to their fields
    assert d["Z"] == {"type": "zonotope", "center": tube.Z.center.tolist(),
                      "generators": tube.Z.generators.tolist()}
    assert d["Xbar"] == {"type": "hpolytope", "normals": tube.Xbar.normals.tolist(),
                         "offsets": tube.Xbar.offsets.tolist()}
