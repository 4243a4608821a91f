"""Dense brute-force references that only the tests call.

Everything here materializes a d x d matrix and is deliberately slow and
simple: these are the implementations the fast implicit paths get checked
against. Spectra come from LAPACK's ``numpy.linalg.eigh``, which nothing in
``robustpca`` calls; the generators read ``InlierSpec.variances`` instead.
``dense_spectrum`` is capped at d <= 256 to bound dense memory, and the
diagnostics at d <= 64, since they raise the moment to a power through its
full spectrum.
"""

from dataclasses import dataclass

import numpy as np

# Every dense cap, the spectrum's included, raises ValueError.
UnsupportedDiagnosticError = ValueError

_MAX_DENSE_DIM = 256
_MAX_DIAGNOSTIC_DIM = 64


@dataclass(frozen=True)
class DenseSpectrum:
    """Descending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """The matrix back, V diag(lambda) V^T."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


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


def dense_power_apply(matrix: np.ndarray, p: int, z: np.ndarray) -> np.ndarray:
    """matrix^p z through the dense spectrum; the matvec-chain reference."""
    spec = dense_spectrum(matrix)
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
    eig = dense_spectrum(b).eigenvalues
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
