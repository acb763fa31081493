"""Convex set primitives and disturbance-invariant set computation.

Constraint sets are kept in H-representation (HPolytope); disturbance
propagation sets are zonotopes, which are closed under linear maps and
Minkowski sums. The Pontryagin difference of an H-polytope minus a zonotope
is exact via support-function offset tightening, so no general polytope
Minkowski sums are ever needed. Every polytope is an axis box, so its
emptiness and inscribed radius come in closed form from per-axis bounds, and
no operation needs an LP: the module uses numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_POWER = 500   # powers of Phi mrpi_outer tries before it gives up


class SetError(ValueError):
    """Raised for ill-posed set operations (unbounded support, empty result)."""


class EmptySetError(SetError):
    """Pontryagin difference (or construction) produced an empty set."""


def _as_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class HPolytope:
    """Set {x : normals @ x <= offsets}. Rows exist only for constrained directions."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.normals)
        b = np.atleast_1d(np.array(self.offsets, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError("normals/offsets row count mismatch")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise ValueError("non-finite polytope data")
        if np.any(np.linalg.norm(A, axis=1) == 0.0):
            raise ValueError("zero normal row")
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)
        if self.chebyshev_radius() < 0.0:
            raise EmptySetError("polytope is empty")

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def chebyshev_radius(self) -> float:
        """Radius of the largest inscribed ball: half the narrowest axis
        width, negative when empty, inf when no axis is closed on both sides."""
        return float(np.min(_box_widths(self.normals, self.offsets)[0], initial=np.inf)) / 2.0


def _box_widths(A: np.ndarray, b: np.ndarray):
    """(width, axis, dist) of the axis box A x <= b: per axis its width (inf
    with a side open, negative when empty); per row the axis it bounds and its
    offset over its normal's length. Raises SetError for a row off the axes."""
    if np.any(np.count_nonzero(A, axis=1) != 1):
        raise SetError("only axis boxes are supported: a polytope row has more than one nonzero")
    axis = np.argmax(A != 0.0, axis=1)
    scale = A[np.arange(len(A)), axis]
    dist = b / np.abs(scale)
    hi, neg_lo = np.full(A.shape[1], np.inf), np.full(A.shape[1], np.inf)
    np.minimum.at(hi, axis[scale > 0.0], dist[scale > 0.0])
    np.minimum.at(neg_lo, axis[scale < 0.0], dist[scale < 0.0])
    return hi + neg_lo, axis, dist


@dataclass(frozen=True)
class Zonotope:
    """Set {center + G beta : |beta_i| <= 1}, generators as columns of G."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.center, dtype=float))
        G = _as_matrix(self.generators)
        if G.shape[0] != c.shape[0]:
            raise ValueError("center/generator dimension mismatch")
        if not np.all(np.isfinite(c)) or not np.all(np.isfinite(G)):
            raise ValueError("non-finite zonotope data")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "generators", G)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[1]

    @classmethod
    def box(cls, half_widths) -> "Zonotope":
        """Axis-aligned box centered at the origin."""
        w = np.atleast_1d(np.array(half_widths, dtype=float))
        return cls(np.zeros_like(w), np.diag(w))

    def interval_hull(self) -> np.ndarray:
        """Per-axis half-widths of the tightest enclosing axis box (about center)."""
        return np.sum(np.abs(self.generators), axis=1)


def support(z: Zonotope, direction):
    """Support function max_{x in z} d.x of a zonotope: a float for one
    direction d, an array with one value per row for a matrix of directions."""
    d = np.atleast_1d(np.array(direction, dtype=float))
    if not np.all(np.isfinite(d)) or np.any(np.linalg.norm(d, axis=-1) == 0.0):
        raise ValueError("direction must be finite and nonzero")
    h = z.center @ d.T + np.sum(np.abs(z.generators.T @ d.T), axis=0)
    return float(h) if d.ndim == 1 else h


def minkowski_sum(a: Zonotope, b: Zonotope) -> Zonotope:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    return Zonotope(a.center + b.center, np.hstack([a.generators, b.generators]))


def linear_map(M, s: Zonotope) -> Zonotope:
    M = _as_matrix(M)
    if M.shape[1] != s.dim:
        raise ValueError("dimension mismatch in linear map")
    return Zonotope(M @ s.center, M @ s.generators)


def pontryagin_diff(p: HPolytope, z: Zonotope) -> HPolytope:
    """Tighten each half-space offset by the subtrahend's support.

    Exact for a convex compact subtrahend. Raises EmptySetError if the
    result is empty, naming the more tightened bound of its narrowest axis.
    """
    if p.dim != z.dim:
        raise ValueError("dimension mismatch in Pontryagin difference")
    tightened = p.offsets - np.array([support(z, a) for a in p.normals])
    width, axis, dist = _box_widths(p.normals, tightened)
    j = int(np.argmin(width))
    if width[j] < 0.0:
        rows = np.flatnonzero(axis == j)
        worst = int(rows[np.argmin(dist[rows])])
        raise EmptySetError(
            "Pontryagin difference is empty: subtrahend exceeds half-space "
            f"{worst} (normal {p.normals[worst].tolist()}, offset {p.offsets[worst]:.6g}); "
            "the disturbance set is too large for the constraint set")
    return HPolytope(p.normals, tightened)


def _box_facet_data(d: Zonotope) -> np.ndarray:
    """Half-widths of an origin-centered axis-box zonotope (validated)."""
    if np.any(d.center != 0.0):
        raise SetError("disturbance set must be centered at the origin")
    G = d.generators
    w = d.interval_hull()
    if np.any(w <= 0.0):
        raise SetError("disturbance set must have full-dimensional axis extent")
    # Each generator must be axis-aligned for the facet directions to be +-e_i.
    for j in range(G.shape[1]):
        if np.count_nonzero(G[:, j]) > 1:
            raise SetError("mrpi_outer requires an axis-aligned box disturbance set")
    return w


def mrpi_outer(Phi, D: Zonotope, eps: float = 1e-3):
    """Outer approximation of the minimal disturbance-invariant set.

    Finds the smallest s with Phi^s D inside alpha*D for
    alpha <= eps/(1+eps), then returns
    Z = (1-alpha)^{-1} (D + Phi D + ... + Phi^{s-1} D), which is
    disturbance invariant (Phi Z + D inside Z) and within a factor (1+eps)
    of the minimal set in every support direction.

    Returns (Z, alpha, s).
    """
    Phi = _as_matrix(Phi)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    rho = np.max(np.abs(np.linalg.eigvals(Phi)))
    if rho >= 1.0:
        raise SetError(f"closed-loop matrix is not stable (spectral radius {rho:.4f})")
    w = _box_facet_data(D)
    target = eps / (1.0 + eps)
    gens = []
    M = np.eye(Phi.shape[0])
    for s in range(1, _MAX_POWER + 1):
        gens.append(M @ D.generators)
        M = Phi @ M
        # alpha(s): smallest scaling with Phi^s D inside alpha*D, via box facets
        PD = M @ D.generators
        alpha = float(np.max(np.sum(np.abs(PD), axis=1) / w))
        if alpha <= target:
            G = np.hstack(gens) / (1.0 - alpha)
            return Zonotope(np.zeros(Phi.shape[0]), G), alpha, s
    raise SetError(f"mrpi_outer did not terminate within {_MAX_POWER} powers")
