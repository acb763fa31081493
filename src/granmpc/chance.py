"""Uncertainty propagation and deterministic reformulation of chance constraints.

A chance constraint Pr(g(xi) >= 0) >= p on a Gaussian-perturbed state
xi = z + e, e ~ N(0, Sigma), is replaced by the deterministic inequality
g(z) >= gamma with gamma = sqrt(2 grad' Sigma grad) * erfinv(2p - 1),
the gradient taken at the deterministic state z. The inverse error function
comes from the standard normal quantile of the standard library's
``statistics.NormalDist``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List

import numpy as np

from .sets import _as_matrix


def _check_psd(M, name: str):
    M = _as_matrix(M)
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh((M + M.T) / 2.0)) < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite")
    return M


@dataclass(frozen=True)
class CovarianceSchedule:
    """Propagated error covariances Sigma_k, k = 0..n_steps."""

    sigmas: List[np.ndarray]
    phi_c: np.ndarray
    gc_sigma_gcT: np.ndarray

    def __getitem__(self, k: int) -> np.ndarray:
        return self.sigmas[k]


def propagate_covariance(phi_c, g_c, sigma_w, sigma0, n_steps: int) -> CovarianceSchedule:
    """Run Sigma_{k+1} = Phi Sigma_k Phi' + G Sigma_w G' for n_steps steps."""
    phi_c = _as_matrix(phi_c)
    g_c = _as_matrix(g_c)
    sigma_w = _check_psd(sigma_w, "sigma_w")
    sigma = _check_psd(sigma0, "sigma0")
    drive = g_c @ sigma_w @ g_c.T
    sigmas = [sigma]
    for _ in range(n_steps):
        sigma = phi_c @ sigma @ phi_c.T + drive
        sigma = (sigma + sigma.T) / 2.0
        sigmas.append(sigma)
    return CovarianceSchedule(sigmas, phi_c, drive)


def erfinv(y: float) -> float:
    """Inverse error function: erfinv(y) = Phi^-1((y + 1) / 2) / sqrt(2), with
    Phi^-1 the standard normal quantile of ``statistics.NormalDist``
    (Wichura's Algorithm AS 241, Applied Statistics 37, 1988)."""
    y = float(y)
    if not -1.0 < y < 1.0:
        raise ValueError("erfinv argument must lie in (-1, 1)")
    return NormalDist().inv_cdf((y + 1.0) / 2.0) / math.sqrt(2.0)


@functools.lru_cache(maxsize=None)
def _quantile(p: float) -> float:
    """erfinv(2p - 1), computed once per risk parameter p in [0.5, 1)."""
    if not 0.5 <= p < 1.0:
        raise ValueError("risk parameter must lie in [0.5, 1)")
    return erfinv(2.0 * p - 1.0)


def gamma(grad_g, sigma, p: float):
    """Deterministic tightening margin for risk parameter p in [0.5, 1): a float
    for one gradient (n,), an array for stacked gradients (..., n) and
    covariances (..., n, n)."""
    q = _quantile(p)
    grad_g = np.atleast_1d(np.asarray(grad_g, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    var = np.einsum("...i,...ij,...j->...", grad_g, sigma, grad_g)
    if np.min(var, initial=0.0) < -1e-10:
        raise ValueError("negative constraint variance (sigma not PSD?)")
    margin = np.sqrt(2.0 * np.maximum(var, 0.0)) * q
    return float(margin) if margin.ndim == 0 else margin
