"""Discrete-time linear models, stability helpers, and LQR gains."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sets import Zonotope, _as_matrix


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class LinearModel:
    """x_{k+1} = A x_k + B u_k + G d_k with d_k in the bounded set
    ``disturbance`` (None for a model without one)."""

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray
    dt: float
    disturbance: Optional[Zonotope] = None

    def __post_init__(self):
        A, B, G = _as_matrix(self.A), _as_matrix(self.B), _as_matrix(self.G)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or G.shape[0] != n:
            raise ModelError("inconsistent model dimensions")
        if self.dt <= 0.0:
            raise ModelError("sampling time must be positive")
        if self.disturbance is not None and self.disturbance.dim != G.shape[1]:
            raise ModelError("disturbance set dimension mismatch")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "G", G)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


def step(model: LinearModel, x, u, d=None) -> np.ndarray:
    """One step of the disturbed dynamics A x + B u + G d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape[0] != model.n_states or u.shape[0] != model.n_inputs:
        raise ModelError("state/input dimension mismatch")
    out = model.A @ x + model.B @ u
    if d is not None:
        d = np.atleast_1d(np.asarray(d, dtype=float))
        if d.shape[0] != model.G.shape[1]:
            raise ModelError("disturbance dimension mismatch")
        out = out + model.G @ d
    return out


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(_as_matrix(M)))))


def closed_loop(model: LinearModel, K) -> np.ndarray:
    """Stabilized system matrix Phi = A + B K; raises if unstable."""
    K = _as_matrix(K)
    if K.shape != (model.n_inputs, model.n_states):
        raise ModelError("gain dimension mismatch")
    Phi = model.A + model.B @ K
    rho = spectral_radius(Phi)
    if rho >= 1.0:
        raise ModelError(f"closed loop is unstable (spectral radius {rho:.4f})")
    return Phi


@dataclass(frozen=True)
class GainPair:
    """Feedback gains for both granularities, validated for stability."""

    K: np.ndarray
    Kc: np.ndarray
    Phi: np.ndarray
    Phi_c: np.ndarray

    @classmethod
    def build(cls, detailed: LinearModel, coarse: LinearModel, K, Kc) -> "GainPair":
        Phi = closed_loop(detailed, K)
        Phi_c = closed_loop(coarse, Kc)
        return cls(_as_matrix(K), _as_matrix(Kc), Phi, Phi_c)


def dlqr(A, B, Q, R, tol: float = 1e-10, max_iter: int = 200000):
    """Infinite-horizon discrete LQR via fixed-point iteration of the Riccati equation.

    Returns (K, P) with A - B K stable and u = -K x the optimal regulator.
    """
    A, B, Q, R = map(_as_matrix, (A, B, Q, R))
    if np.min(np.linalg.eigvalsh((R + R.T) / 2.0)) <= 0.0:
        raise ModelError("R must be positive definite")
    P = Q.copy()
    for _ in range(max_iter):
        BtP = B.T @ P
        K = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ K)
        P_next = (P_next + P_next.T) / 2.0
        done = np.max(np.abs(P_next - P)) <= tol
        P = P_next
        if done:
            break
    else:
        raise ModelError(f"Riccati iteration did not converge within {max_iter} steps")
    BtP = B.T @ P
    K = np.linalg.solve(R + BtP @ B, BtP @ A)
    if spectral_radius(A - B @ K) >= 1.0:
        raise ModelError("Riccati iteration produced an unstable gain")
    return K, P

