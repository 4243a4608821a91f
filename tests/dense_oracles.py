"""Dense brute-force checks that only the tests call.

Each materializes a d x d matrix and reads its spectrum through
``robustpca.oracle.dense_spectrum``; the solvers never call them. The
diagnostics are capped at d <= 64, since they raise the moment to a power
through its full spectrum.
"""

import numpy as np

from robustpca.oracle import DenseSpectrum
from robustpca.oracle import dense_spectrum as _dense_spectrum

# Every dense cap, robustpca's spectrum cap included, raises ValueError.
UnsupportedDiagnosticError = ValueError

_MAX_DIAGNOSTIC_DIM = 64


class Spectrum(DenseSpectrum):
    """A ``DenseSpectrum`` that can rebuild its matrix, V diag(lambda) V^T."""

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def dense_spectrum(matrix: np.ndarray) -> Spectrum:
    """``robustpca.oracle.dense_spectrum``, returned as a ``Spectrum``."""
    spec = _dense_spectrum(matrix)
    return Spectrum(spec.eigenvalues, spec.eigenvectors)


def dense_power_apply(matrix: np.ndarray, p: int, z: np.ndarray) -> np.ndarray:
    """matrix^p z through the dense spectrum; the matvec-chain reference."""
    spec = _dense_spectrum(matrix)
    coeffs = spec.eigenvectors.T @ np.asarray(z, dtype=np.float64)
    return spec.eigenvectors @ (spec.eigenvalues ** p * coeffs)


def weighted_second_moment_dense(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Unnormalized weighted second moment sum_{w_i = 1} x_i x_i^T / n."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        raise ValueError("no points")
    surv = points[np.asarray(weights, dtype=bool)]
    return surv.T @ surv / points.shape[0]


def potential_diagnostic(points: np.ndarray, weights: np.ndarray, p: int) -> float:
    """Exact tr(B^(2p+1)) of the unnormalized weighted second moment."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] > _MAX_DIAGNOSTIC_DIM:
        raise UnsupportedDiagnosticError(
            f"potential diagnostic capped at d <= {_MAX_DIAGNOSTIC_DIM}, got {points.shape[1]}"
        )
    b = weighted_second_moment_dense(points, weights)
    eig = _dense_spectrum(b).eigenvalues
    return float(np.sum(eig ** (2 * p + 1)))


def stopping_condition_truth(sigma_truth: np.ndarray, points: np.ndarray,
                             weights: np.ndarray, p: int, gamma: float):
    """Dense check of <Sigma, M^2> >= (1 - 250*gamma) <Sigma_w, M^2>, M = B^p.

    Returns (lhs, rhs, holds).
    """
    sigma_truth = np.asarray(sigma_truth, dtype=np.float64)
    d = sigma_truth.shape[0]
    if d > _MAX_DIAGNOSTIC_DIM:
        raise UnsupportedDiagnosticError(
            f"stopping-condition oracle capped at d <= {_MAX_DIAGNOSTIC_DIM}, got {d}")
    weights = np.asarray(weights, dtype=bool)
    b = weighted_second_moment_dense(points, weights)
    spec = _dense_spectrum(b)
    lam2p = spec.eigenvalues ** (2 * p)
    # <Sigma, M^2> = sum_i lam_i^{2p} v_i' Sigma v_i
    quad = np.einsum("ij,jk,ki->i", spec.eigenvectors.T, sigma_truth, spec.eigenvectors)
    lhs = float(np.sum(lam2p * quad))
    mass = float(np.count_nonzero(weights)) / points.shape[0]
    if mass == 0:
        raise ValueError("no surviving points")
    rhs = (1.0 - 250.0 * gamma) * float(np.sum(lam2p * spec.eigenvalues)) / mass
    return lhs, rhs, lhs >= rhs
