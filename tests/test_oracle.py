import math

import numpy as np
import pytest

from robustpca import (
    dense_spectrum,
    metric_approx_ratio,
    stability_spotcheck,
    stopping_condition_truth,
)
from robustpca.errors import UnsupportedDiagnosticError


def rotation(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def test_diagonal_matrix():
    spec = dense_spectrum(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(spec.eigenvalues, [3.0, 2.0, 1.0])
    np.testing.assert_allclose(np.abs(spec.eigenvectors), np.eye(3), atol=1e-12)


def test_identity():
    spec = dense_spectrum(np.eye(7))
    np.testing.assert_allclose(spec.eigenvalues, np.ones(7))


def test_rotated_round_trip():
    rng = np.random.default_rng(0)
    for d in (2, 5, 9):
        q = rotation(d, rng)
        lam = np.sort(rng.uniform(0.5, 4.0, size=d))[::-1]
        a = (q * lam) @ q.T
        spec = dense_spectrum(a)
        np.testing.assert_allclose(spec.eigenvalues, lam, rtol=1e-8)
        np.testing.assert_allclose(spec.reconstruct(), a,
                                   atol=1e-8 * np.linalg.norm(a))


def test_reconstruction_and_orthonormality_invariants():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 24))
        a = rng.standard_normal((d, d))
        a = a + a.T
        spec = dense_spectrum(a)
        assert np.linalg.norm(spec.reconstruct() - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        np.testing.assert_allclose(spec.eigenvectors.T @ spec.eigenvectors,
                                   np.eye(d), atol=1e-10)
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12)


def test_rejects_asymmetric_and_oversized():
    with pytest.raises(ValueError, match="symmetric"):
        dense_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(UnsupportedDiagnosticError):
        dense_spectrum(np.eye(300))


def test_metric_approx_ratio_basics():
    sig = np.diag([10.0, 1.0])
    assert metric_approx_ratio(np.array([1.0, 0.0]), sig) == pytest.approx(1.0)
    assert metric_approx_ratio(np.array([0.0, 1.0]), sig) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="unit"):
        metric_approx_ratio(np.array([2.0, 0.0]), sig)


def test_metric_matches_quadratic_form():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = 6
        q = rotation(d, rng)
        sig = (q * rng.uniform(0.5, 5.0, size=d)) @ q.T
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        lam1 = dense_spectrum(sig).eigenvalues[0]
        assert metric_approx_ratio(u, sig) == pytest.approx(float(u @ sig @ u) / lam1,
                                                            abs=1e-12)


def test_stopping_condition_trivial_cases():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((400, 4))
    w = np.ones(400, dtype=bool)
    emp = pts.T @ pts / 400
    # Sigma equal to the empirical moment: lhs = rhs / (1 - 250 gamma) > rhs.
    lhs, rhs, holds = stopping_condition_truth(emp, pts, w, p=3, gamma=0.002)
    assert holds and lhs > rhs
    # Empirical moment inflated along one axis, tiny gamma: condition fails.
    infl = pts.copy()
    infl[:, 0] *= 4.0
    lhs, rhs, holds = stopping_condition_truth(emp, infl, w, p=6, gamma=1e-4)
    assert not holds


def test_small_potential_forces_stopping_condition():
    # Random small instances: if tr(B^{2p+1}) is below the stated bound, the
    # trace inner-product condition must hold.
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(200):
        d = int(rng.integers(2, 7))
        n = 60
        pts = rng.standard_normal((n, d)) * rng.uniform(0.3, 1.2, size=d)
        w = rng.random(n) < 0.9
        if not w.any():
            continue
        gamma = 0.003
        p = int(rng.integers(1, 4))
        sigma = np.diag(rng.uniform(0.5, 2.0, size=d))
        b = pts[w].T @ pts[w] / n
        phi = float(np.sum(dense_spectrum(b).eigenvalues ** (2 * p + 1)))
        mass = w.mean()
        lam1 = dense_spectrum(sigma).eigenvalues[0]
        bound = mass * (1 - 2 * gamma) ** (2 * p) / (1 - 250 * gamma) * lam1 ** (2 * p + 1)
        if phi <= bound:
            _, _, holds = stopping_condition_truth(sigma, pts, w, p, gamma)
            assert holds
            checked += 1
    assert checked >= 20  # the regime actually occurred


def test_stability_spotcheck_gaussian_clean():
    rng = np.random.default_rng(3)
    d, n = 4, 60_000
    pts = rng.standard_normal((n, d))
    eps = 0.05
    gamma = 3 * eps * math.log(1 / eps)
    worst = stability_spotcheck(pts, np.eye(d), eps, gamma, trials=8, rng=rng)
    assert worst <= 1 + 1.5 * gamma


def test_stability_spotcheck_no_deletions_is_sampling_error():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((50_000, 3))
    worst = stability_spotcheck(pts, np.eye(3), eps=1e-9, gamma=0.1, trials=4, rng=rng)
    assert worst == pytest.approx(1.0, abs=0.1)


def test_stability_spotcheck_tiny_sample_flags_instability():
    # n = d is far below the sample-size stability needs; the probe should
    # find large deviations. Documents the requirement, not a guarantee.
    rng = np.random.default_rng(7)
    d = 10
    pts = rng.standard_normal((d, d))
    gamma = 0.3
    worst = stability_spotcheck(pts, np.eye(d), eps=0.2, gamma=gamma,
                                trials=8, rng=rng)
    assert worst > 1 + 1.5 * gamma


def test_power_iteration_agrees_with_dense_top_eigenvalue():
    # 100 random second-moment operators: the randomized Rayleigh estimate
    # clears (1 - gamma) of the dense top eigenvalue at the prescribed count.
    from robustpca import SecondMomentOp, power_iteration
    gamma = 0.1
    rng = np.random.default_rng(8)
    for trial in range(100):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(d + 1, 40))
        pts = rng.standard_normal((n, d)) * rng.uniform(0.3, 2.0, size=d)
        op = SecondMomentOp(pts)
        lam1 = float(dense_spectrum(op.materialize()).eigenvalues[0])
        p = math.ceil((4 / gamma) * math.log(d / (gamma * 1e-4)))
        _y, rayleigh = power_iteration(op, p, np.random.default_rng(trial))
        assert rayleigh >= (1 - gamma) * lam1
