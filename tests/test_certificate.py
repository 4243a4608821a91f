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
    streamed_power_apply,
)
from robustpca import certificate
from robustpca.certificate import REF_START_FAILURE, acceptance_factors, decision_margin
from robustpca.estimators import (
    FIRST_STAGE,
    mean_stages,
    stage_interval,
    stage_log,
    streaming_quantile,
    streaming_quantile_samples,
)
from robustpca.oracle import dense_spectrum
from robustpca.streaming import MEAN_BATCH_CAP


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
        rng=np.random.default_rng(5), batch_size=1500, max_mean_batch=MEAN_BATCH_CAP,
        ledger=ScalarLedger())
    assert cand.accepted
    assert abs(cand.u[0]) >= 0.95


def _stream_certificate(src, eps, gamma, fail_prob, batch_size, max_mean_batch,
                        stack=FilterStack(), seed=5, c_acc=20.0, c_cert=4.0, rng=None):
    cfg = AlgoConfig(eps=eps, gamma=gamma, c_acc=c_acc, c_cert=c_cert)
    return sample_top_eigenvector_streaming(
        src, stack, eps, gamma, fail_prob=fail_prob, config=cfg,
        rng=np.random.default_rng(seed) if rng is None else rng,
        batch_size=batch_size, max_mean_batch=max_mean_batch, ledger=ScalarLedger())


def _chain_samples(d, gamma, batch_size, c_cert=4.0):
    """The shared reference and candidate chain and the batch that scores both.

    The reference chain is sized for one start at REF_START_FAILURE, so the
    count does not depend on the certificate's failure probability. The
    candidate rides its minibatches, so only the longer of the two chains
    costs: (max(p_ref, p_cert) + 1) * batch_size.
    """
    cfg = AlgoConfig(gamma=gamma, c_cert=c_cert)
    return (max(cfg.ref_power(d, REF_START_FAILURE), cfg.cert_power(d)) + 1) * batch_size


def _bernstein_rows(eta, scale, n_stages, fail_prob):
    """The certificate's count: smallest n with sqrt(2 (1 + 2 eta) B mu0 L / n)
    + B L / (3 n) <= eta mu0, for scale = B / mu0 and L = ln(4 J / fail_prob)."""
    var = 2 * (1 + 2 * eta)
    k = ((math.sqrt(var) + math.sqrt(var + 4 * eta / 3)) / (2 * eta)) ** 2
    return math.ceil(k * scale * stage_log(n_stages, fail_prob))


def _stage_bounds(rows, u, cap, n_max, fail_prob):
    """The stream mean's interval over ``rows`` scored along u and capped at cap."""
    f = (rows @ u) ** 2
    f = np.where(f <= cap, f, 0.0)
    moments = (f.size, float(np.mean(f)), float(np.sum((f - np.mean(f)) ** 2)))
    return stage_interval(moments, cap, stage_log(len(mean_stages(n_max, cap)), fail_prob))


def test_streaming_certificate_sample_count_from_its_decision():
    # Clean pool, every row accepted: the certificate draws its chains, one
    # quantile block and a stream mean capped at the Bernstein count
    # n = ceil(k (B / mu0) L), B the trim cutoff. The chains are
    # (max(37, 30) + 1) * 1,500 = 57,000 rows: the candidate (p_cert = 30)
    # rides the reference chain (p_ref = 37) and its scoring batch, which
    # drew 103,500 rows apart. fail_prob splits in three, so the block and
    # the mean each take 0.05 / 3. At eta = 1/4, k = 50.6; L = ln(4 * 13 /
    # (0.05 / 3)) = 8.05 over the 13 stages of MEAN_BATCH_CAP rows; B / mu0
    # is about 12.9, so n = 5,246, in stages of 256, ..., 4,096 and 5,246.
    # A clean trimmed mean sits above the bar (1 + eta) mu0, and an early
    # stage's interval already lies above it: the mean stops there.
    d, eps, gamma, fail_prob, batch = 8, 0.02, 0.4, 0.05, 1500
    pool = np.random.default_rng(3).standard_normal((6000, d)) * np.sqrt([5.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, eps, gamma, fail_prob, batch, MEAN_BATCH_CAP)
    assert cand.accepted

    # The trim cutoff, recomputed over the same rows of a second cycle.
    tail, part = 3 * eps, fail_prob / 3
    pos = _chain_samples(d, gamma, batch)
    twin = ReplaySource(pool, mode="cycle")
    twin.draw(pos)
    cap = streaming_quantile(lambda k: (twin.draw(k) @ cand.u) ** 2, tail, part)
    m = streaming_quantile_samples(tail, part)

    f1, _f2 = acceptance_factors(gamma, AlgoConfig(gamma=gamma).c_acc)
    eta = decision_margin(f1)
    mu0 = f1 * cand.rayleigh_emp
    bar = (1 + eta) * mu0
    assert len(mean_stages(MEAN_BATCH_CAP, cap)) == 13
    n = _bernstein_rows(eta, cap / mu0, 13, part)
    assert 1000 < n < 10_000
    stages = mean_stages(n, cap)
    assert stages[0] == FIRST_STAGE == 256 and stages[-1] == n
    rows = twin.draw(n)
    settled = next(k for k in stages if _stage_bounds(rows[:k], cand.u, cap, n, part)[0] > bar)
    assert settled < n
    assert src.delivered == pos + m + settled


def test_streaming_certificate_small_gamma_accepts_clean_pool():
    # eps = 0.0005 takes the default gamma = 0.01, so f1 = 0.8 and the margin
    # shrinks to eta = 1/16: the top of the band, (1 + 2 eta) f1 R = 0.9 R,
    # stays below the clean trimmed mean (about 0.98 R), where eta = 1/4
    # would put it at 1.0 R, out of a trimmed mean's reach. Every chain
    # batch is one full pass over the cycled pool, so both Rayleigh
    # quotients are exact.
    d, n, eps, fail_prob = 3, 1000, 0.0005, 0.05
    cfg = AlgoConfig(eps=eps)
    f1, _f2 = acceptance_factors(cfg.gamma, cfg.c_acc)
    eta = decision_margin(f1)
    assert f1 == pytest.approx(0.8) and eta == pytest.approx(1 / 16)
    pool = np.random.default_rng(0).standard_normal((n, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, eps, cfg.gamma, fail_prob, n, MEAN_BATCH_CAP)
    assert cand.sigma_robust >= (1 + 2 * eta) * f1 * cand.rayleigh_emp
    assert cand.accepted
    assert abs(cand.u[0]) >= 0.99
    chains_and_block = (_chain_samples(d, cfg.gamma, n)
                        + streaming_quantile_samples(3 * eps, fail_prob / 3))
    assert src.delivered < chains_and_block + MEAN_BATCH_CAP


def test_streaming_certificate_without_margin_takes_the_ceiling():
    # c_acc = 0 sets f1 = 1, where no margin fits under the Rayleigh quotient:
    # eta is 0, the test is sigma >= rayleigh_emp, and the stream mean is
    # capped at max_mean_batch = 700 rows, in stages of 256, 512 and 700,
    # with L = ln(4 * 3 / (0.05 / 3)) = 6.58. A 3 eps trim keeps about two
    # thirds of a Gaussian variance, so the test rejects: an interval before
    # the ceiling already lies below rayleigh_emp. The shared chains draw
    # (max(35, 28) + 1) * 1,000 = 36,000 rows, the quantile block at
    # 0.05 / 3 draws what its size rule gives, and the stream mean stops at
    # that interval's stage.
    d, eps, gamma, fail_prob, batch = 6, 0.02, 0.4, 0.05, 1000
    assert acceptance_factors(gamma, 0.0)[0] == 1.0 and decision_margin(1.0) == 0.0
    pool = np.random.default_rng(7).standard_normal((5000, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, eps, gamma, fail_prob, batch, 700, c_acc=0.0)
    f2 = acceptance_factors(gamma, 0.0)[1]
    assert cand.accepted is (cand.sigma_robust >= cand.rayleigh_emp
                             and cand.rayleigh_emp >= f2 * cand.reference_rayleigh)
    assert not cand.accepted

    # The trim cutoff B, recomputed over the same rows of a second cycle.
    part = fail_prob / 3
    pos = _chain_samples(d, gamma, batch)
    twin = ReplaySource(pool, mode="cycle")
    twin.draw(pos)
    cap = streaming_quantile(lambda k: (twin.draw(k) @ cand.u) ** 2, 3 * eps, part)
    assert mean_stages(700, cap) == [256, 512, 700]
    rows = twin.draw(700)
    settled = next(k for k in (256, 512, 700)
                   if _stage_bounds(rows[:k], cand.u, cap, 700, part)[1] < cand.rayleigh_emp)
    assert settled < 700
    block = streaming_quantile_samples(3 * eps, part)
    assert src.delivered == pos + block + settled


@pytest.mark.parametrize("prune_radius_sq", [math.inf, 1.7e308])
def test_streaming_certificate_unbounded_scores_take_the_ceiling(prune_radius_sq):
    # eps = 0 trims nothing. Under an infinite prune radius the scores have no
    # bound, so the stream mean has one stage of max_mean_batch = 700 rows.
    # Under the largest finite radius B / mu0 overflows the count, so the
    # mean may draw max_mean_batch rows, and the intervals of its stages
    # (256, 512 and 700 rows), whose widths grow with B / n, settle nothing
    # before the ceiling. Total: the shared chains' (max(35, 28) + 1) * 1,000
    # rows and 700.
    d, gamma, fail_prob, batch = 6, 0.4, 0.05, 1000
    pool = np.random.default_rng(7).standard_normal((5000, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, 0.0, gamma, fail_prob, batch, 700,
                               stack=FilterStack(prune_radius_sq=prune_radius_sq))
    assert cand.accepted
    assert len(mean_stages(700, prune_radius_sq)) == (1 if prune_radius_sq == math.inf else 3)
    assert src.delivered == _chain_samples(d, gamma, batch) + 700


def test_streaming_certificate_zero_rayleigh_rejects_without_a_draw():
    # The shared chain sees only rows along e1, so the candidate and every
    # reference column are exactly +-e1; the batch that scores them all sees
    # only rows along e2, so rayleigh_emp (and the reference) is exactly 0.
    # The robust test has no scale and the candidate is rejected before the
    # quantile block and the stream-mean draw: the certificate draws
    # max(p_ref, p_cert) = max(24, 17) chain batches and one scoring batch of
    # 256 (before, 24 + 1 + 17 + 1 batches).
    d, gamma, fail_prob, batch = 2, 0.4, 0.05, 256
    chains = _chain_samples(d, gamma, batch) - batch
    assert chains == 24 * batch
    pool = np.zeros((chains + batch, d))
    pool[:chains, 0] = np.random.default_rng(8).standard_normal(chains)
    pool[chains:, 1] = 1.0
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, 0.02, gamma, fail_prob, batch, 700)
    assert cand.rayleigh_emp == 0.0 and cand.reference_rayleigh == 0.0
    assert not cand.accepted and cand.sigma_robust == 0.0
    assert src.delivered == chains + batch


def test_streaming_reference_chain_cost_ignores_fail_prob(monkeypatch):
    # The block of starts does the boosting, so a smaller fail_prob adds
    # columns to the reference block but no steps to its chain: its
    # ceil(log2(3 / fail_prob)) starts are 6 at 0.05 and 22 at 1e-6, the
    # reference's third of fail_prob. At d = 6, gamma = 0.4 the reference
    # chain (p_ref = 35) outlasts the candidate riding it (p_cert = 28), so
    # each call draws (p_ref + 1) batches.
    calls = []
    real = certificate.approx_power_iteration

    def spy(source, stack, p, reps, batch_size, rng, rider_power, ledger=None, riders=()):
        before = source.delivered
        out = real(source, stack, p, reps, batch_size, rng, rider_power, ledger=ledger,
                   riders=riders)
        calls.append((p, reps, rider_power, source.delivered - before))
        return out

    monkeypatch.setattr(certificate, "approx_power_iteration", spy)
    d, gamma, batch = 6, 0.4, 1000
    pool = np.random.default_rng(7).standard_normal((5000, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    for fail_prob in (0.05, 1e-6):
        _stream_certificate(src, 0.02, gamma, fail_prob, batch, 700)
    cfg = AlgoConfig(gamma=gamma)
    p_ref, p_cert = cfg.ref_power(d, REF_START_FAILURE), cfg.cert_power(d)
    assert (p_ref, p_cert) == (35, 28)
    assert calls == [(p_ref, 6, p_cert, (p_ref + 1) * batch),
                     (p_ref, 22, p_cert, (p_ref + 1) * batch)]


def _rows_and_powers(c_cert):
    d, gamma = 6, 0.4
    pool = np.random.default_rng(7).standard_normal((5000, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    cfg = AlgoConfig(gamma=gamma, c_cert=c_cert)
    return pool, gamma, cfg.ref_power(d, REF_START_FAILURE), cfg.cert_power(d)


@pytest.mark.parametrize("c_cert", [4.0, 12.0])
def test_streaming_candidate_rides_the_reference_chain(c_cert):
    # The candidate's start is column reps of the certificate's (reps + 1, d)
    # Gaussian block, reps = ceil(log2(3 / fail_prob)) for the reference's
    # third of fail_prob. A separate p_cert chain from that start over the same
    # minibatches of a twin cycled pool gives the same direction, and the
    # batch after the longer chain the same Rayleigh quotient. c_cert = 4
    # puts p_cert (28) below p_ref (35), c_cert = 12 above it (82).
    pool, gamma, p_ref, p_cert = _rows_and_powers(c_cert)
    fail_prob, batch = 0.05, 1000
    assert (p_cert > p_ref) is (c_cert > 4.0)
    cand = _stream_certificate(ReplaySource(pool, mode="cycle"), 0.02, gamma, fail_prob,
                               batch, 700, c_cert=c_cert)
    reps = math.ceil(math.log2(3 / fail_prob))
    start = np.random.default_rng(5).standard_normal((reps + 1, pool.shape[1]))[reps]
    twin = ReplaySource(pool, mode="cycle")
    u = streamed_power_apply(twin, FilterStack(), p_cert, batch, start)
    u = u / np.linalg.norm(u)
    np.testing.assert_allclose(cand.u, u, rtol=1e-10, atol=1e-14)
    if p_ref > p_cert:
        twin.draw((p_ref - p_cert) * batch)
    rows = twin.draw(batch)
    assert cand.rayleigh_emp == pytest.approx(float(np.mean((rows @ u) ** 2)), rel=1e-10)


@pytest.mark.parametrize("c_cert", [4.0, 12.0])
def test_streaming_certificate_chains_cost_the_longer_chain(c_cert):
    # Whichever chain is longer, the two chains and the batch that scores
    # both draw (max(p_ref, p_cert) + 1) batches: 36,000 rows at c_cert = 4
    # (p_ref = 35 > p_cert = 28) and 83,000 at c_cert = 12 (p_cert = 82).
    # At eps = 0 under an infinite prune radius the rest is the stream
    # mean's ceiling, 700 rows.
    pool, gamma, p_ref, p_cert = _rows_and_powers(c_cert)
    src = ReplaySource(pool, mode="cycle")
    _stream_certificate(src, 0.0, gamma, 0.05, 1000, 700, c_cert=c_cert)
    assert src.delivered == (max(p_ref, p_cert) + 1) * 1000 + 700


class _RiderCollapses:
    """A Generator whose first block of starts has a zero last row."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.first = True

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if self.first:
            out[-1] = 0.0
            self.first = False
        return out


def test_streaming_collapsed_candidate_takes_the_retry_chain():
    # A zero candidate start collapses its column of the shared chain. The
    # reference is unaffected; the candidate comes from a fresh start on its
    # own p_cert chain after the shared one, scored on its own batch, so the
    # certificate draws (p_ref + 1 + p_cert + 1) batches before the stream
    # mean's 700-row ceiling. The block holds reps = ceil(log2(3 / 0.05)) = 6
    # reference starts and the candidate's.
    pool, gamma, p_ref, p_cert = _rows_and_powers(4.0)
    d, fail_prob, batch = pool.shape[1], 0.05, 1000
    reps = math.ceil(math.log2(3 / fail_prob))
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, 0.0, gamma, fail_prob, batch, 700, rng=_RiderCollapses(5))
    assert src.delivered == (p_ref + 1 + p_cert + 1) * batch + 700

    plain = _stream_certificate(ReplaySource(pool, mode="cycle"), 0.0, gamma, fail_prob,
                                batch, 700)
    assert cand.reference_rayleigh == pytest.approx(plain.reference_rayleigh, rel=1e-10)

    rng = np.random.default_rng(5)
    rng.standard_normal((reps + 1, d))
    twin = ReplaySource(pool, mode="cycle")
    twin.draw((p_ref + 1) * batch)
    u = streamed_power_apply(twin, FilterStack(), p_cert, batch, rng.standard_normal(d))
    u = u / np.linalg.norm(u)
    np.testing.assert_allclose(cand.u, u, rtol=1e-10, atol=1e-14)
    rows = twin.draw(batch)
    assert cand.rayleigh_emp == pytest.approx(float(np.mean((rows @ u) ** 2)), rel=1e-10)


def test_streaming_reference_reaches_top_rayleigh_on_every_seed():
    # Every chain batch and the scoring batch are one full pass over the
    # cycled pool, so the reference is the best exact Rayleigh quotient over
    # its block of starts. The pool's second eigenvalue is 0.535 lambda1,
    # below the (1 - gamma) lambda1 bar, so a start passes only once the
    # chain has lifted its top component: half of all single starts fail
    # after one step.
    d, n, gamma, fail_prob = 10, 2000, 0.4, 0.05
    pool = np.random.default_rng(11).standard_normal((n, d)) * np.sqrt([1.0] + [0.5] * (d - 1))
    lam1 = float(np.linalg.eigvalsh(pool.T @ pool / n)[-1])
    for seed in range(30):
        src = ReplaySource(pool, mode="cycle")
        cand = _stream_certificate(src, 0.02, gamma, fail_prob, n, 700, seed=seed)
        assert cand.reference_rayleigh >= (1 - gamma) * lam1, seed


@pytest.mark.parametrize("high_sq,accept", [(30.0, False), (12.0, True)])
def test_streaming_certificate_decides_against_its_threshold(high_sq, accept):
    # Scores are 1 with probability 0.9 and high_sq with probability 0.1,
    # below the 3 eps = 0.15 trim tail, so the cutoff is 1 and the capped
    # mean is exactly mu = 0.9. With f1 = 1/4 and R = rayleigh_emp (about
    # 0.9 + 0.1 high_sq), mu < f1 R must be rejected and
    # mu >= (1 + 2 eta) f1 R accepted, on every seed.
    eps, gamma, mu = 0.05, 1.0, 0.9
    f1, _f2 = acceptance_factors(gamma, AlgoConfig(gamma=gamma).c_acc)
    pool = np.sqrt(np.array([1.0] * 900 + [high_sq] * 100))[:, None]
    for seed in range(50):
        src = ReplaySource(pool, mode="resample", rng=np.random.default_rng(seed))
        cand = _stream_certificate(src, eps, gamma, 0.01, 20_000, MEAN_BATCH_CAP,
                                   seed=seed)
        mu0 = f1 * cand.rayleigh_emp
        if accept:
            assert mu >= (1 + 2 * decision_margin(f1)) * mu0
        else:
            assert mu < mu0
        assert cand.accepted is accept, seed


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
