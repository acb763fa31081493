"""Robust short-stage machinery: invariant tube and tightened constraint sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LinearModel, closed_loop
from .sets import (
    EmptySetError,
    HPolytope,
    Zonotope,
    linear_map,
    mrpi_outer,
    pontryagin_diff,
)


@dataclass(frozen=True)
class TubeSpec:
    """Invariant tube cross-section and the constraint sets tightened by it."""

    Z: Zonotope
    KZ: Zonotope
    Xbar: HPolytope
    Ubar: HPolytope
    K: np.ndarray
    Phi: np.ndarray
    alpha: float
    s: int


def build_tube(model: LinearModel, K, eps: float, X: HPolytope, U: HPolytope) -> TubeSpec:
    """Compute the invariant tube Z and tightened sets Xbar = X - Z, Ubar = U - KZ.

    Fails loudly (EmptySetError) if the disturbance is too large for either
    constraint set to survive the tightening.
    """
    if not isinstance(model.disturbance, Zonotope):
        raise ValueError("build_tube requires a model with a bounded disturbance set")
    K = np.asarray(K, dtype=float)
    Phi = closed_loop(model, K)
    D = linear_map(model.G, model.disturbance)
    Z, alpha, s = mrpi_outer(Phi, D, eps)
    KZ = linear_map(K, Z)
    try:
        Xbar = pontryagin_diff(X, Z)
    except EmptySetError as e:
        raise EmptySetError(f"state set vanished under tube tightening: {e}") from None
    try:
        Ubar = pontryagin_diff(U, KZ)
    except EmptySetError as e:
        raise EmptySetError(f"input set vanished under tube tightening: {e}") from None
    return TubeSpec(Z=Z, KZ=KZ, Xbar=Xbar, Ubar=Ubar, K=K, Phi=Phi, alpha=alpha, s=s)
