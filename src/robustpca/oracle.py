"""Dense brute-force references for small instances.

Everything here materializes matrices and is deliberately slow and simple:
these are the implementations the fast implicit paths get checked against.
Spectra come from ``numpy.linalg.eigh``, which the implicit paths never
call. The cap, d <= 256, bounds dense memory and the CLI, which scores each
of its rows on a full spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DenseSpectrum", "dense_spectrum", "metric_approx_ratio"]

_MAX_DENSE_DIM = 256


@dataclass(frozen=True)
class DenseSpectrum:
    """Descending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def check_dense_dim(d: int) -> None:
    """Raise ValueError unless d is within the spectrum's cap."""
    if not d <= _MAX_DENSE_DIM:
        raise ValueError(
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


def metric_approx_ratio(u: np.ndarray, sigma_truth: np.ndarray) -> float:
    """u^T Sigma u / lambda_1(Sigma); the single quality score of a direction."""
    u = np.asarray(u, dtype=np.float64)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must be unit norm to 1e-9")
    lam1 = float(dense_spectrum(sigma_truth).eigenvalues[0])
    if lam1 <= 0:
        raise ValueError("sigma_truth must have a positive top eigenvalue")
    return float(u @ np.asarray(sigma_truth, dtype=np.float64) @ u) / lam1
