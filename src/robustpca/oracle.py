"""Dense brute-force references for small instances.

Everything here materializes matrices and is deliberately slow and simple:
these are the implementations the fast implicit paths get checked against.
The eigensolver is an in-repo cyclic Jacobi so the reference chain has no
external numerical dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDiagnosticError

__all__ = [
    "DenseSpectrum",
    "dense_spectrum",
    "dense_power_apply",
    "metric_approx_ratio",
    "stopping_condition_truth",
    "stability_spotcheck",
]

_MAX_DENSE_DIM = 256
_JACOBI_TOL = 1e-13
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class DenseSpectrum:
    """Descending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def _off_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def dense_spectrum(matrix: np.ndarray) -> DenseSpectrum:
    """Full spectral decomposition of a symmetric matrix by cyclic Jacobi.

    Sweeps rotate away off-diagonal entries until their Frobenius mass drops
    below 1e-13 of the matrix norm. Input must be symmetric to 1e-10 and at
    most 256 x 256.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    d = a.shape[0]
    if d > _MAX_DENSE_DIM:
        raise UnsupportedDiagnosticError(
            f"dense spectrum capped at d <= {_MAX_DENSE_DIM}, got {d}"
        )
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric to 1e-10")

    a = (a + a.T) / 2.0
    v = np.eye(d)
    if d == 1:
        return DenseSpectrum(a[0].copy(), v)

    frob = float(np.linalg.norm(a))
    for _ in range(_MAX_SWEEPS):
        if frob == 0.0 or _off_norm(a) <= _JACOBI_TOL * frob:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:  # theta^2 would overflow; use the limit
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    else:
        raise RuntimeError("Jacobi sweeps failed to converge")

    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)[::-1]
    return DenseSpectrum(eigvals[order], v[:, order])


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


def stability_spotcheck(points: np.ndarray, sigma_truth: np.ndarray, eps: float,
                        gamma: float, trials: int, rng: np.random.Generator) -> float:
    """Adversarial-deletion falsification probe for second-moment stability.

    Each trial deletes the floor(eps*n) points with the largest projections
    along a probe direction (random directions plus the empirical
    eigenvectors) and measures how far the renormalized second moment moves
    from sigma_truth along the probes. Returns the worst multiplicative
    deviation. This searches for counterexamples; it cannot certify
    stability, which quantifies over all reweightings.
    """
    points = np.asarray(points, dtype=np.float64)
    sigma_truth = np.asarray(sigma_truth, dtype=np.float64)
    n, d = points.shape
    k_del = int(math.floor(eps * n))
    emp = points.T @ points / n
    probes = [rng.standard_normal(d) for _ in range(trials)]
    probes += [v for v in dense_spectrum(emp).eigenvectors.T]
    worst = 1.0
    for raw in probes:
        nrm = float(np.linalg.norm(raw))
        if nrm == 0:
            continue
        v = raw / nrm
        truth = float(v @ sigma_truth @ v)
        if truth <= 0:
            continue
        keep = np.ones(n, dtype=bool)
        if k_del > 0:
            proj = np.abs(points @ v)
            keep[np.argpartition(proj, n - k_del)[n - k_del:]] = False
        kept = points[keep]
        got = float(v @ (kept.T @ kept / kept.shape[0]) @ v)
        if got <= 0:
            continue
        ratio = got / truth
        worst = max(worst, ratio, 1.0 / ratio)
    return worst
