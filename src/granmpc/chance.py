"""Uncertainty propagation and deterministic reformulation of chance constraints.

A chance constraint Pr(g(xi) >= 0) >= p on a Gaussian-perturbed state
xi = z + e, e ~ N(0, Sigma), is replaced by the deterministic inequality
g(z) >= gamma with gamma = sqrt(2 grad' Sigma grad) * erfinv(2p - 1),
the gradient taken at the deterministic state z.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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

    def to_json(self) -> dict:
        return {
            "sigmas": [s.tolist() for s in self.sigmas],
            "phi_c": self.phi_c.tolist(),
            "gc_sigma_gcT": self.gc_sigma_gcT.tolist(),
        }


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


# Rational approximation of the standard normal quantile (Acklam), used only
# as the initial guess before Newton refinement on math.erf.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def _ndtri_approx(q: float) -> float:
    """Approximate inverse standard-normal CDF at q in (0, 1)."""
    if q < 0.02425:
        t = math.sqrt(-2.0 * math.log(q))
        return (((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]) / \
               ((((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0)
    if q > 1.0 - 0.02425:
        return -_ndtri_approx(1.0 - q)
    t = q - 0.5
    r = t * t
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * t / \
           (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def erfinv(y: float) -> float:
    """Inverse error function, accurate to better than 1e-10 absolute.

    Rational initial guess refined by Newton iterations on math.erf.
    """
    y = float(y)
    if not -1.0 < y < 1.0:
        raise ValueError("erfinv argument must lie in (-1, 1)")
    if y == 0.0:
        return 0.0
    # erfinv(y) = ndtri((y+1)/2) / sqrt(2)
    x = _ndtri_approx((y + 1.0) / 2.0) / math.sqrt(2.0)
    two_over_sqrt_pi = 2.0 / math.sqrt(math.pi)
    for _ in range(4):
        err = math.erf(x) - y
        x -= err / (two_over_sqrt_pi * math.exp(-x * x))
    return x


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
