import math

import numpy as np
import pytest

from robustpca import (
    AlgoConfig,
    FilterStack,
    ReplaySource,
    ScalarLedger,
    SecondMomentOp,
    sample_top_eigenvector,
    sample_top_eigenvector_streaming,
)
from robustpca.certificate import acceptance_factors
from robustpca.oracle import dense_spectrum


def test_acceptance_factors_clamping():
    f1, f2 = acceptance_factors(0.01, 20.0)
    assert f1 == pytest.approx(0.8) and f2 == pytest.approx(0.99)
    f1, f2 = acceptance_factors(1.0, 20.0)   # nominal factors go nonpositive
    assert f1 == 0.25 and f2 == 0.5
    f1, f2 = acceptance_factors(0.0375, 20.0)
    assert f1 == pytest.approx(0.25)


def test_clean_data_accepts_and_aligns():
    d, n, eps = 20, 5000, 0.02
    gamma = 0.4
    cfg = AlgoConfig(eps=eps, gamma=gamma)
    scales = np.sqrt(np.array([10.0] + [1.0] * (d - 1)))
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d)) * scales
        cand = sample_top_eigenvector(SecondMomentOp(pts), n, eps, gamma, 0.01, cfg,
                                      np.random.default_rng(seed + 1))
        assert abs(np.linalg.norm(cand.u) - 1.0) <= 1e-12
        if cand.accepted and abs(cand.u[0]) >= 0.98:
            hits += 1
    assert hits >= 45


def test_isotropic_survivors_projection_expectation():
    # Empirical second moment exactly I, true Sigma a rank-r projection:
    # candidates are uniform on the sphere, so E[u' Sigma u] = r / d.
    d = 20
    gamma = 0.25
    r = math.ceil(d / (1 + gamma))  # 16
    pts = math.sqrt(d) * np.vstack([np.eye(d), -np.eye(d)])  # moment exactly I
    sigma = np.diag([1.0] * r + [0.0] * (d - r))
    cfg = AlgoConfig(eps=0.01, gamma=gamma)
    rng = np.random.default_rng(0)
    vals = []
    for _ in range(400):
        cand = sample_top_eigenvector(SecondMomentOp(pts), 2 * d, 0.01, gamma, 0.05, cfg, rng)
        vals.append(float(cand.u @ sigma @ cand.u))
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(len(vals))
    assert abs(mean - r / d) <= 3 * se


def test_spiked_survivors_with_low_true_variance_rejected():
    # Survivor moment dominated by a direction where the trimmed variance is
    # tiny: the robust-versus-empirical check must reject.
    d, n, eps = 10, 4000, 0.03
    gamma = 0.6
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((n, d))
    n_out = int(eps * n)
    mag = 2.0 * math.sqrt(1.0 / eps)
    pts[:n_out] = 0.0
    pts[:n_out, 1] = mag * np.where(np.arange(n_out) % 2 == 0, 1.0, -1.0)
    cfg = AlgoConfig(eps=eps, gamma=gamma)
    for seed in range(5):
        cand = sample_top_eigenvector(SecondMomentOp(pts), n, eps, gamma, 0.05, cfg,
                                      np.random.default_rng(seed))
        assert abs(cand.u[1]) > 0.9      # the spike dominates the candidate
        assert not cand.accepted
        assert cand.sigma_robust < 0.25 * cand.rayleigh_emp


def test_rejected_candidate_reports_reference():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((500, 6))
    cfg = AlgoConfig(eps=0.01, gamma=0.2)
    cand = sample_top_eigenvector(SecondMomentOp(pts), 500, 0.01, 0.2, 0.1, cfg, rng)
    assert cand.reference_rayleigh > 0
    assert cand.rayleigh_emp > 0
    if cand.accepted:
        f1, f2 = acceptance_factors(0.2, cfg.c_acc)
        assert cand.sigma_robust >= f1 * cand.rayleigh_emp
        assert cand.rayleigh_emp >= f2 * cand.reference_rayleigh


def test_streaming_certificate_clean_accepts():
    d = 8
    rng = np.random.default_rng(3)
    pop = rng.standard_normal((6000, d)) * np.sqrt(np.array([5.0] + [1.0] * (d - 1)))
    src = ReplaySource(pop, mode="resample", rng=np.random.default_rng(4))
    cfg = AlgoConfig(eps=0.02, gamma=0.4)
    cand = sample_top_eigenvector_streaming(
        src, FilterStack(), 0.02, 0.4, fail_prob=0.05, config=cfg,
        rng=np.random.default_rng(5), batch_size=1500, mean_batch=4000,
        ledger=ScalarLedger())
    assert cand.accepted
    assert abs(cand.u[0]) >= 0.95


SOUNDNESS_SLOPE = 0.75  # accepted => true ratio >= 1 - SOUNDNESS_SLOPE * gamma


def test_acceptance_soundness_across_instances():
    # Whenever a candidate is accepted, its true variance ratio must clear
    # the calibrated soundness line, across clean and contaminated regimes.
    checked = 0
    for gamma, eps, spike in ((0.1, 0.005, 9.0), (0.4, 0.02, 9.0), (1.0, 0.05, 9.0)):
        d, n = 16, 6000
        rng = np.random.default_rng(int(gamma * 1000))
        scales = np.sqrt(np.array([1.0 + spike] + [1.0] * (d - 1)))
        sigma = np.diag(scales ** 2)
        pts = rng.standard_normal((n, d)) * scales
        cfg = AlgoConfig(eps=eps, gamma=gamma)
        for seed in range(10):
            cand = sample_top_eigenvector(SecondMomentOp(pts), n, eps, gamma, 0.05, cfg,
                                          np.random.default_rng(seed))
            if cand.accepted:
                checked += 1
                lam1 = dense_spectrum(sigma).eigenvalues[0]
                ratio = float(cand.u @ sigma @ cand.u) / lam1
                assert ratio >= 1 - SOUNDNESS_SLOPE * gamma
    assert checked >= 20


def test_schatten_blind_pairs_satisfy_derived_bound():
    # Random PSD pairs meeting the trace inner-product stopping condition at
    # p >= 2 ln(d) / gamma must satisfy the Schatten comparison with twice
    # the constant.
    rng = np.random.default_rng(6)
    gamma, c_stop = 0.1, 1.0
    holds_checked = 0
    attempts = 0
    while holds_checked < 200:
        attempts += 1
        assert attempts < 5000
        d = int(rng.integers(2, 13))
        p = math.ceil(2 * math.log(d) / gamma) if d > 1 else 10
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sig_t = (q1 * rng.uniform(0.1, 2.0, size=d)) @ q1.T
        sig = (q2 * rng.uniform(0.5, 4.0, size=d)) @ q2.T
        lam_t = dense_spectrum(sig_t).eigenvalues
        spec_t = dense_spectrum(sig_t)
        m2 = (spec_t.eigenvectors * lam_t ** (2 * p)) @ spec_t.eigenvectors.T
        lhs = float(np.sum(lam_t ** (2 * p + 1)))
        rhs = (1 + c_stop * gamma) * float(np.trace(sig @ m2))
        if lhs <= rhs:
            holds_checked += 1
            schatten = lhs ** (1 / (2 * p + 1))
            op = dense_spectrum(sig).eigenvalues[0]
            assert schatten <= (1 + 2 * c_stop * gamma) * op
