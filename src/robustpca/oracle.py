"""Dense brute-force references for small instances.

Everything here materializes matrices and is deliberately slow and simple:
these are the implementations the fast implicit paths get checked against.
Spectra come from ``numpy.linalg.eigh``, which the implicit paths never
call. The caps (d <= 256 for a spectrum, 64 for the dense diagnostics) bound
dense memory and the CLI, which scores each of its rows on a full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDiagnosticError

__all__ = [
    "DenseSpectrum",
    "dense_spectrum",
    "dense_power_apply",
    "metric_approx_ratio",
    "potential_diagnostic",
    "stopping_condition_truth",
]

_MAX_DENSE_DIM = 256


@dataclass(frozen=True)
class DenseSpectrum:
    """Descending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def check_dense_dim(d: int) -> None:
    """Raise UnsupportedDiagnosticError unless d is within the spectrum's cap."""
    if not d <= _MAX_DENSE_DIM:
        raise UnsupportedDiagnosticError(
            f"dense spectrum capped at d <= {_MAX_DENSE_DIM}, got {d}")


def dense_spectrum(matrix: np.ndarray) -> DenseSpectrum:
    """Full spectral decomposition of a symmetric matrix by LAPACK's eigh.

    Input must be finite, symmetric to 1e-10 and at most 256 x 256.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    check_dense_dim(a.shape[0])
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite (no NaN/Inf)")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric to 1e-10")
    eigvals, v = np.linalg.eigh((a + a.T) / 2.0)
    return DenseSpectrum(eigvals[::-1], v[:, ::-1])


def dense_power_apply(matrix: np.ndarray, p: int, z: np.ndarray) -> np.ndarray:
    """matrix^p z through the dense spectrum; the matvec-chain reference."""
    spec = dense_spectrum(matrix)
    coeffs = spec.eigenvectors.T @ np.asarray(z, dtype=np.float64)
    return spec.eigenvectors @ (spec.eigenvalues ** p * coeffs)


def metric_approx_ratio(u: np.ndarray, sigma_truth: np.ndarray) -> float:
    """u^T Sigma u / lambda_1(Sigma); the single quality score of a direction."""
    u = np.asarray(u, dtype=np.float64)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must be unit norm to 1e-9")
    lam1 = float(dense_spectrum(sigma_truth).eigenvalues[0])
    if lam1 <= 0:
        raise ValueError("sigma_truth must have a positive top eigenvalue")
    return float(u @ np.asarray(sigma_truth, dtype=np.float64) @ u) / lam1


def weighted_second_moment_dense(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Unnormalized weighted second moment sum_{w_i = 1} x_i x_i^T / n."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        raise ValueError("no points")
    surv = points[np.asarray(weights, dtype=bool)]
    return surv.T @ surv / points.shape[0]


def potential_diagnostic(points: np.ndarray, weights: np.ndarray, p: int) -> float:
    """Exact tr(B^(2p+1)) of the unnormalized weighted second moment.

    Diagnostic only; the driver never consults it. Requires d <= 64 since the
    moment is materialized densely.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] > 64:
        raise UnsupportedDiagnosticError(
            f"potential diagnostic capped at d <= 64, got {points.shape[1]}"
        )
    b = weighted_second_moment_dense(points, weights)
    eig = dense_spectrum(b).eigenvalues
    return float(np.sum(eig ** (2 * p + 1)))


def stopping_condition_truth(sigma_truth: np.ndarray, points: np.ndarray,
                             weights: np.ndarray, p: int, gamma: float):
    """Dense check of <Sigma, M^2> >= (1 - 250*gamma) <Sigma_w, M^2>, M = B^p.

    Returns (lhs, rhs, holds). Capped at d <= 64 since M^2 is materialized
    via the full spectrum.
    """
    sigma_truth = np.asarray(sigma_truth, dtype=np.float64)
    d = sigma_truth.shape[0]
    if d > 64:
        raise UnsupportedDiagnosticError(f"stopping-condition oracle capped at d <= 64, got {d}")
    weights = np.asarray(weights, dtype=bool)
    b = weighted_second_moment_dense(points, weights)
    spec = dense_spectrum(b)
    lam2p = spec.eigenvalues ** (2 * p)
    # <Sigma, M^2> = sum_i lam_i^{2p} v_i' Sigma v_i
    quad = np.einsum("ij,jk,ki->i", spec.eigenvectors.T, sigma_truth, spec.eigenvectors)
    lhs = float(np.sum(lam2p * quad))
    mass = float(np.count_nonzero(weights)) / points.shape[0]
    if mass == 0:
        raise ValueError("no surviving points")
    rhs = (1.0 - 250.0 * gamma) * float(np.sum(lam2p * spec.eigenvalues)) / mass
    return lhs, rhs, lhs >= rhs
