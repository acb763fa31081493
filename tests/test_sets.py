"""Set-operations tests: supports, Minkowski sums, Pontryagin differences,
and the invariant-set recursion, all checked against brute-force oracles."""

import re

import numpy as np
import pytest
from scipy.optimize import linprog

from granmpc.sets import (EmptySetError, HPolytope, SetError, Zonotope, linear_map,
                          minkowski_sum, mrpi_outer, pontryagin_diff, support)


def _zono_vertices(z):
    """All generator sign combinations; exact hull points for small zonotopes."""
    m = z.n_generators
    pts = []
    for bits in range(2 ** m):
        sign = np.array([1.0 if bits >> j & 1 else -1.0 for j in range(m)])
        pts.append(z.center + z.generators @ sign)
    return np.array(pts)


def _random_directions(rng, dim, n):
    d = rng.normal(size=(n, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_box_contains_and_interval_hull():
    z = Zonotope.box([1.0, 2.0])
    assert np.allclose(z.interval_hull(), [1.0, 2.0])


def test_zonotope_support_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(2, 4))
        m = int(rng.integers(1, 7))
        z = Zonotope(rng.normal(size=dim), rng.normal(size=(dim, m)))
        verts = _zono_vertices(z)
        D = _random_directions(rng, dim, 8)
        for d in D:
            assert support(z, d) == pytest.approx(np.max(verts @ d), abs=1e-10)
        # a matrix of directions gives one support per row
        assert np.allclose(support(z, D), np.max(verts @ D.T, axis=0), rtol=0.0, atol=1e-10)


def test_unbounded_polytopes_are_nonempty():
    # a half-plane and a quadrant hold balls of every radius
    for A, b in (([[1.0, 0.0]], [1.0]), ([[1.0, 0.0], [0.0, 1.0]], [1.0, -5.0])):
        assert HPolytope(A, b).chebyshev_radius() == np.inf


def test_checked_polytope_off_the_axes_raises():
    with pytest.raises(SetError, match="axis"):
        HPolytope([[1.0, 1.0]], [1.0])


def test_support_rejects_bad_direction():
    z = Zonotope.box([1.0, 1.0])
    with pytest.raises(ValueError):
        support(z, [0.0, 0.0])
    with pytest.raises(ValueError):
        support(z, [np.nan, 1.0])


def test_minkowski_sum_supports_add():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = Zonotope(rng.normal(size=3), rng.normal(size=(3, 4)))
        b = Zonotope(rng.normal(size=3), rng.normal(size=(3, 3)))
        s = minkowski_sum(a, b)
        for d in _random_directions(rng, 3, 6):
            assert support(s, d) == pytest.approx(
                support(a, d) + support(b, d), abs=1e-10)


def test_linear_map_support_identity():
    # h_{MZ}(d) = h_Z(M' d)
    rng = np.random.default_rng(13)
    z = Zonotope(rng.normal(size=3), rng.normal(size=(3, 5)))
    M = rng.normal(size=(2, 3))
    mz = linear_map(M, z)
    for d in _random_directions(rng, 2, 10):
        assert support(mz, d) == pytest.approx(support(z, M.T @ d), abs=1e-10)


def test_pontryagin_diff_box_oracle():
    # For axis boxes the difference shrinks each half-width independently.
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = HPolytope(A, np.array([3.0, 3.0, 2.0, 2.0]))
    z = Zonotope.box([1.0, 0.5])
    q = pontryagin_diff(p, z)
    assert np.allclose(q.offsets, [2.0, 2.0, 1.5, 1.5])
    # definition check: every vertex of q plus every vertex of z lies in p
    q_verts = _zono_vertices(Zonotope.box([2.0, 1.5]))
    sums = (q_verts[:, None, :] + _zono_vertices(z)[None, :, :]).reshape(-1, 2)
    assert np.all(sums @ p.normals.T <= p.offsets + 1e-9)


def test_pontryagin_diff_empty_raises():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = HPolytope(A, np.ones(4))
    with pytest.raises(EmptySetError):
        pontryagin_diff(p, Zonotope.box([2.0, 2.0]))


def test_chebyshev_radius_box():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = HPolytope(A, np.array([2.0, 2.0, 1.0, 1.0]))
    assert p.chebyshev_radius() == pytest.approx(1.0, abs=1e-8)


def _random_box(rng):
    """Axis box with shuffled rows, one to three per bounded side, scaled
    normals, and some axes one-sided or free; often empty."""
    dim = int(rng.integers(1, 5))
    rows, offsets = [], []
    for j in range(dim):
        for sign in (1.0, -1.0):
            if rng.random() < 0.25:
                continue                       # this side of the axis is open
            for _ in range(int(rng.integers(1, 4))):
                scale = rng.uniform(0.2, 3.0)
                rows.append(sign * scale * np.eye(dim)[j])
                offsets.append(scale * rng.uniform(-1.0, 2.0))
    order = rng.permutation(len(rows))
    return np.reshape(rows, (-1, dim))[order], np.array(offsets)[order]


def _chebyshev_lp(A, b):
    """max r s.t. A x + |a_i| r <= b, as the LP; inf when unbounded."""
    res = linprog(np.r_[np.zeros(A.shape[1]), -1.0],
                  A_ub=np.hstack([A, np.linalg.norm(A, axis=1)[:, None]]), b_ub=b,
                  bounds=[(None, None)] * (A.shape[1] + 1))
    return np.inf if res.status == 3 else float(res.x[-1])


def test_box_closed_form_matches_the_lps():
    rng = np.random.default_rng(29)
    empty = 0
    for _ in range(300):
        # construction rejects an empty box; draws repeat until one is not,
        # since the program only ever differences nonempty minuends
        while True:
            A, b = _random_box(rng)
            r = _chebyshev_lp(A, b)
            if r >= 0.0:
                break
            with pytest.raises(EmptySetError):
                HPolytope(A, b)
        assert HPolytope(A, b).chebyshev_radius() == pytest.approx(r, abs=1e-9)
        # the Pontryagin difference of the box with unit rows (as the program
        # builds them) names a half-space that the old least-infeasibility LP
        # finds most violated; the LP cannot tell the bounds of the emptied
        # axis apart, so it may name the other one
        norms = np.linalg.norm(A, axis=1)
        p = HPolytope(A / norms[:, None], b / norms)
        z = Zonotope.box(rng.uniform(0.01, 0.5, size=p.dim))
        tightened = p.offsets - np.array([support(z, a) for a in p.normals])
        if _chebyshev_lp(p.normals, tightened) >= 0.0:
            assert np.allclose(pontryagin_diff(p, z).offsets, tightened, rtol=0.0, atol=1e-12)
            continue
        empty += 1
        with pytest.raises(EmptySetError) as err:
            pontryagin_diff(p, z)
        worst = int(re.search(r"half-space (\d+)", str(err.value)).group(1))
        res = linprog(np.r_[np.zeros(p.dim), 1.0],
                      A_ub=np.hstack([p.normals, -np.ones((len(b), 1))]), b_ub=tightened,
                      bounds=[(None, None)] * p.dim + [(0, None)])
        viol = p.normals @ res.x[:-1] - tightened
        assert viol[worst] >= np.max(viol) - 1e-9
    assert 30 <= empty <= 270


def test_empty_polytope_raises():
    with pytest.raises(EmptySetError):
        HPolytope([[1.0], [-1.0]], [1.0, -2.0])


def test_mrpi_outer_is_invariant():
    # Phi Z + D inside Z, checked by support functions on random directions.
    rng = np.random.default_rng(19)
    for trial in range(5):
        th = rng.uniform(0.0, 2 * np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        Phi = rng.uniform(0.4, 0.9) * rot
        D = Zonotope.box(rng.uniform(0.05, 0.3, size=2))
        Z, alpha, s = mrpi_outer(Phi, D, eps=1e-3)
        assert 0.0 < alpha <= 1e-3 / (1 + 1e-3)
        lhs = minkowski_sum(linear_map(Phi, Z), D)
        for d in _random_directions(rng, 2, 40):
            assert support(lhs, d) <= support(Z, d) + 1e-9


def test_mrpi_outer_close_to_truncated_series():
    # The outer approximation exceeds the s-term truncated series by at most
    # the 1/(1-alpha) inflation in every support direction.
    rng = np.random.default_rng(23)
    Phi = np.array([[0.6, 0.2], [0.0, 0.5]])
    D = Zonotope.box([0.1, 0.2])
    Z, alpha, s = mrpi_outer(Phi, D, eps=1e-3)
    gens = []
    M = np.eye(2)
    for _ in range(s):
        gens.append(M @ D.generators)
        M = Phi @ M
    series = Zonotope(np.zeros(2), np.hstack(gens))
    for d in _random_directions(rng, 2, 25):
        hs = support(series, d)
        assert support(Z, d) == pytest.approx(hs / (1.0 - alpha), rel=1e-12)


def test_mrpi_outer_rejects_unstable():
    with pytest.raises(SetError):
        mrpi_outer(np.eye(2), Zonotope.box([0.1, 0.1]))


def test_mrpi_outer_rejects_non_axis_box():
    G = np.array([[1.0, 0.5], [0.0, 1.0]])  # sheared generator
    with pytest.raises(SetError):
        mrpi_outer(0.5 * np.eye(2), Zonotope(np.zeros(2), G))
