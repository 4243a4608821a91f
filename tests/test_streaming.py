import dataclasses
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dense_oracles import dense_power_apply

from robustpca import (
    AdversaryKind,
    AdversarySpec,
    AlgoConfig,
    BudgetedSource,
    FilterStack,
    InlierSpec,
    PcaStatus,
    ReplaySource,
    ScalarLedger,
    SyntheticSource,
    metric_approx_ratio,
    rng_stream,
    streamed_power_apply,
    streaming_robust_pca,
    tv_contaminated_source,
)
from robustpca.certificate import (DECISION_MARGIN, START_FAILURE, chain_quotient,
                                   power_chain_length)
from robustpca.driver import CERT_FAILURE_PROB, FILTER_TRIGGER, BatchEstimators, failure_share
from robustpca.estimators import (STREAM_CHUNK, mean_ceiling, mean_stages, opnorm_bracket,
                                  stage_interval, stage_log, streaming_quantile_samples,
                                  weighted_quantile)
from robustpca.filtering import hard_thresholding_filter
from robustpca.errors import DegenerateStateError, MemoryBudgetError, StreamExhaustedError
from robustpca.linops import (
    accepted_band_mean,
    accepted_rows,
    accepted_scores,
    streamed_rayleigh,
)
from robustpca.streaming import (
    BATCH_SIZE_CAP,
    PRUNE_C_Q,
    MinibatchEstimators,
)


def _solve_shares():
    """A solve's one share sequence, as ``driver.drive`` makes it."""
    return map(failure_share, itertools.count(1))


def test_clean_stream_accepts():
    spec = InlierSpec(dim=10, diag=1.0, spikes=((0, 4.0),))
    src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(0, 1))
    res, stats = streaming_robust_pca(src, eps=0.02, gamma=0.4, r_radius=1.5,
                                      rng_seed=0, max_samples=30_000_000)
    assert res.status is PcaStatus.ACCEPTED
    assert metric_approx_ratio(res.u, spec.covariance()) >= 0.85
    assert stats.samples_consumed == src.delivered


def test_contaminated_stream_recovers():
    spec = InlierSpec(dim=12, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.03, spike_axis=1)
    src = tv_contaminated_source(spec, adv, rng_stream(1, 1))
    res, stats = streaming_robust_pca(src, eps=0.03, gamma=0.6, r_radius=1.5,
                                      rng_seed=1, max_samples=40_000_000)
    assert metric_approx_ratio(res.u, spec.covariance()) >= 0.8
    assert stats.peak_resident_scalars > 0


def test_single_pass_accounting():
    spec = InlierSpec(dim=6, diag=1.0, spikes=((0, 3.0),))
    src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(2, 1))
    _res, stats = streaming_robust_pca(src, eps=0.02, gamma=0.4, r_radius=1.5,
                                       rng_seed=2, max_samples=20_000_000)
    # Every sample the source handed out is accounted for, exactly once.
    assert stats.samples_consumed == src.delivered


def test_peak_memory_independent_of_budget():
    spec = InlierSpec(dim=8, diag=1.0, spikes=((0, 4.0),))
    peaks, consumed = [], []
    for budget in (20_000_000, 40_000_000):
        src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(3, 1))
        _res, stats = streaming_robust_pca(src, eps=0.02, gamma=0.4, r_radius=1.5,
                                           rng_seed=3, max_samples=budget)
        peaks.append(stats.peak_resident_scalars)
        consumed.append(stats.samples_consumed)
    assert peaks[0] == peaks[1]


def test_budget_exhaustion_falls_back():
    spec = InlierSpec(dim=10, diag=1.0, spikes=((0, 4.0),))
    src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(4, 1))
    res, stats = streaming_robust_pca(src, eps=0.02, gamma=0.4, r_radius=1.5,
                                      rng_seed=4, max_samples=40_000)
    assert res.status in (PcaStatus.FALLBACK_BEST, PcaStatus.FAILED)
    assert stats.samples_consumed <= 40_000


def test_declared_memory_budget_enforced():
    spec = InlierSpec(dim=8, diag=1.0)
    src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(5, 1))
    cfg = AlgoConfig(eps=0.02, gamma=0.4, max_resident_scalars=10)
    with pytest.raises(MemoryBudgetError, match="peak resident"):
        streaming_robust_pca(src, eps=0.02, gamma=0.4, r_radius=1.5, config=cfg,
                             rng_seed=5, max_samples=20_000_000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_stream_row_is_rejected():
    # At eps = 0 the stack keeps its infinite radius; an inf row must still
    # get weight 0, so the run matches the one over the clean pool instead
    # of collapsing every power probe. Rejected rows are never scored, so
    # the inf row raises no floating-point warning either.
    clean = np.random.default_rng(0).standard_normal((4000, 5)) * [3, 1, 1, 1, 1]
    bad = clean.copy()
    bad[17] = np.inf
    runs = [streaming_robust_pca(ReplaySource(pool, mode="cycle"), eps=0.0, gamma=0.5,
                                 r_radius=1.5, rng_seed=1)
            for pool in (clean, bad)]
    (res_a, stats_a), (res_b, stats_b) = runs
    assert res_b.status is res_a.status is PcaStatus.ACCEPTED
    # The first certificate accepts. The prologue draws nothing, so the inf
    # row falls in the chain's first minibatch, which drops it and draws no
    # row in its place. The chain is (1 + 1) * 4,096 rows (the starts share
    # a chain of power_chain_length(5, 0.5, 1/2) = 1 step, and one batch
    # scores them all), and the stream mean, whose scores the cap
    # r^2 d rayleigh_emp / q bounds, settles at its stage of 4,096 rows.
    assert power_chain_length(5, 0.5, START_FAILURE) == 1
    assert stats_b.samples_consumed == stats_a.samples_consumed == 8_192 + 4_096
    np.testing.assert_allclose(res_b.u, res_a.u, atol=1e-3)


def test_minibatch_power_tracks_dense_shadow():
    # Streamed score estimates stay above half the dense score minus the
    # additive slack, for nearly all points.
    rng = np.random.default_rng(7)
    d, p, eps, gamma = 8, 6, 0.05, 1.0
    pop = rng.standard_normal((5000, d)) * np.sqrt(np.linspace(2.0, 0.5, d))
    src = SyntheticSource(d, lambda r, k: (pop[r.integers(0, 5000, size=k)], None),
                          np.random.default_rng(8))
    b = pop.T @ pop / pop.shape[0]
    m_frob_sq = float(np.sum(np.linalg.eigvalsh(b) ** (2 * p)))
    sig_op = float(np.max(np.linalg.eigvalsh(b)))
    slack = 0.01 * (gamma / eps) * m_frob_sq * sig_op
    sample = pop[rng.integers(0, pop.shape[0], size=400)]
    # One chain serves all 400 points as the columns of a (d, 400) block.
    applied = streamed_power_apply(src, FilterStack(), p, 3000, sample.T)
    ok = 0
    for x, col in zip(sample, applied.T):
        g_hat = float(np.sum(col ** 2))
        g_true = float(np.sum(dense_power_apply(b, p, x) ** 2))
        if g_hat >= 0.5 * g_true - slack:
            ok += 1
    assert ok >= 0.99 * 400


def test_bounded_family_stream_with_true_radius():
    # Compact-support inliers: the caller-supplied radius is an actual hard
    # bound here, exercising the r_radius contract as intended.
    from robustpca import InlierFamily
    spec = InlierSpec(dim=12, diag=1.0, spikes=((0, 9.0),),
                      family=InlierFamily.BOUNDED_UNIFORM_SPHEREMIX)
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.03,
                        spike_axis=1)
    src = tv_contaminated_source(spec, adv, rng_stream(8, 1))
    # The support bound sqrt(3) (sqrt(d max diag) + sum sqrt(a)) over
    # sqrt(d * op-norm), the op-norm 1 + 9.
    r = max(1.0, math.sqrt(3.0) * (math.sqrt(12 * 1.0) + math.sqrt(9.0))
            / math.sqrt(12 * 10.0))
    res, _stats = streaming_robust_pca(src, eps=0.03, gamma=0.6, r_radius=r,
                                       rng_seed=8, max_samples=40_000_000)
    assert metric_approx_ratio(res.u, spec.covariance()) >= 0.8


def test_zero_eps_stream_runs_clean_schedule():
    # eps = 0: no pruning, no trimming, immediate certification; the huge
    # certificate powers exercise the overflow-protected product chain.
    spec = InlierSpec(dim=6, diag=1.0, spikes=((0, 4.0),))
    src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(9, 1))
    res, _stats = streaming_robust_pca(src, eps=0.0, gamma=0.4, r_radius=1.5,
                                       rng_seed=9, max_samples=60_000_000)
    assert res.status is PcaStatus.ACCEPTED
    assert metric_approx_ratio(res.u, spec.covariance()) >= 0.9


def test_zero_eps_runs_no_filter_step(monkeypatch):
    # At eps = 0 the tail 3 eps is 0, so no filter can fire: after each
    # rejected certificate the driver runs no direction, quantile, trimmed
    # mean or filter mean, and every row the solve draws is a certificate's.
    # The prologue keeps the infinite radius and draws nothing; each
    # certificate caps its own scores from the caller's norm promise.
    spec = InlierSpec(dim=6, diag=1.0, spikes=((0, 4.0),))
    source = tv_contaminated_source(spec, AdversarySpec(), rng_stream(9, 1))
    suite = MinibatchEstimators(source, AlgoConfig(eps=0.0, gamma=0.4), 1.5, ScalarLedger())
    assert suite.prologue(_solve_shares()) == (0.0, 0.0)
    assert suite.stack.prune_radius_sq == math.inf and source.delivered == 0

    called, certs = [], []
    certificate = MinibatchEstimators.certificate

    def reject(self, shares, rng, rng_dir):
        before = self.source.delivered
        cand = certificate(self, shares, rng, rng_dir)
        certs.append(self.source.delivered - before)
        return dataclasses.replace(cand, accepted=False)

    monkeypatch.setattr(MinibatchEstimators, "certificate", reject)
    for name in ("direction", "start_iteration", "quantile_value", "sigma_trimmed",
                 "mean_score", "register_entry"):
        monkeypatch.setattr(MinibatchEstimators, name,
                            lambda self, *args, name=name: called.append(name))
    src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(9, 1))
    res, stats = streaming_robust_pca(src, eps=0.0, gamma=0.4, r_radius=1.5, rng_seed=9,
                                      config=AlgoConfig(t_end=4),
                                      max_samples=60_000_000)
    assert res.status is PcaStatus.FALLBACK_BEST and len(certs) == 4
    assert called == []
    assert stats.samples_consumed == sum(certs)


@pytest.mark.parametrize("r_radius", [0.5, math.nan])
def test_stream_rejects_a_radius_below_one(r_radius):
    src = ReplaySource(np.zeros((4, 3)), mode="cycle")
    with pytest.raises(ValueError, match="r_radius"):
        MinibatchEstimators(src, AlgoConfig(eps=0.03, gamma=0.6), r_radius, ScalarLedger())


@pytest.mark.parametrize("eps", [0.0, 0.03])
@pytest.mark.parametrize("r_radius", [math.inf, math.nan], ids=["inf", "nan"])
def test_stream_rejects_a_non_finite_radius_before_any_draw(r_radius, eps):
    # A radius the caller cannot promise ends in a ValueError, as in the
    # CLI, before the prologue or a certificate draws a row.
    src = ReplaySource(_spiked_pool(rows=1000)[0], mode="cycle")
    with pytest.raises(ValueError, match="r_radius must be finite"):
        streaming_robust_pca(src, eps=eps, gamma=0.6, r_radius=r_radius, rng_seed=0)
    assert src.delivered == 0


def test_zero_eps_certificate_caps_scores_from_its_chain(monkeypatch):
    # At eps = 0 the prologue draws no row and keeps the infinite radius.
    # The certificate's stream mean clips its scores at hi = r^2 d
    # rayleigh_emp / q, q = (1 - gamma / 2) / (1 + gamma / 2): the caller's
    # promise bounds every score by r^2 d lambda1, and the chain's quotient
    # reaches q lambda1 on its success event.
    import robustpca.certificate as certificate

    seen, real = [], certificate.accepted_band_mean

    def spy(source, stack, v, lo, hi, *args, **kwargs):
        seen.append((stack.prune_radius_sq, lo, hi, kwargs["clip"]))
        return real(source, stack, v, lo, hi, *args, **kwargs)

    monkeypatch.setattr(certificate, "accepted_band_mean", spy)
    src = ReplaySource(_spiked_pool(d=8, rows=20_000, rate=0.0)[0], mode="cycle")
    suite = MinibatchEstimators(src, AlgoConfig(eps=0.0, gamma=0.2), 1.5, ScalarLedger())
    shares = _solve_shares()
    suite.prologue(shares)
    assert src.delivered == 0
    cand = suite.certificate(shares, rng_stream(0, 0, 1), rng_stream(0, 0, 2))
    assert chain_quotient(0.2) == pytest.approx(0.9 / 1.1, rel=1e-15)
    cap = 1.5 ** 2 * 8 * cand.rayleigh_emp / chain_quotient(0.2)
    assert seen == [(math.inf, -math.inf, cap, True)]


@pytest.mark.parametrize("d, r_radius", [(1, 2.0), (2, 1.5)])
@pytest.mark.parametrize("seed", [0, 1])
def test_small_clean_streams_accept_at_eps_zero(d, r_radius, seed):
    # At small r^2 d the promise Pr[||X||^2 > r^2 d lambda1] = 0 is broken
    # for a few percent of Gaussian rows (4.6% at d = 1, r = 2). The eps = 0
    # certificate clips their scores at its cap instead of dropping them,
    # which loses only E[(f - cap)+], so its mean still clears the bar. A
    # cut lost E[f; f > cap] and never accepted these cells in 3,000,000 rows.
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, 1.0),) if d > 1 else ())
    res, stats = streaming_robust_pca(
        tv_contaminated_source(spec, AdversarySpec(), rng_stream(seed, 7)), eps=0.0,
        gamma=0.2, r_radius=r_radius, rng_seed=seed, max_samples=3_000_000)
    assert res.status is PcaStatus.ACCEPTED and res.iterations == 1
    assert stats.samples_consumed < 100_000


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clean_stream_costs_less_than_a_contaminated_one(seed):
    # A clean stream solved at eps = 0 consumes fewer samples than the same
    # inliers with 1% orthogonal-spike outliers solved at eps = 0.01.
    spec = InlierSpec(dim=20, diag=1.0, spikes=((0, 1.0),))
    samples = []
    for eps in (0.0, 0.01):
        adv = (AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=eps, spike_axis=1)
               if eps > 0 else AdversarySpec())
        res, stats = streaming_robust_pca(
            tv_contaminated_source(spec, adv, rng_stream(seed, 7)), eps=eps, gamma=0.2,
            r_radius=1.5, rng_seed=seed, max_samples=50_000_000)
        assert res.status is PcaStatus.ACCEPTED
        samples.append(stats.samples_consumed)
    assert samples[0] < samples[1]


def test_stream_mean_ceiling_takes_no_dim():
    # The ceiling rule reads the score bound, the question and the failure
    # probability, and nothing else. A band mean along e1 over rows whose
    # first coordinate is the same in d = 2 and d = 40 draws the same rows
    # and returns the same mean. The minibatch is still a desk constant.
    assert BATCH_SIZE_CAP == 4096
    assert list(inspect.signature(mean_ceiling).parameters) == [
        "score_bound", "fail_prob", "bar", "margin", "rel_tol", "floor"]
    col = np.random.default_rng(3).standard_normal((20_000, 1)) * 2.0
    got = []
    for d in (2, 40):
        src = ReplaySource(np.hstack([col, np.zeros((20_000, d - 1))]), mode="cycle")
        v = np.eye(d)[0]
        mean = accepted_band_mean(src, FilterStack(prune_radius_sq=50.0), v, 0.0, 30.0,
                                  0.01, ScalarLedger(), bar=5.0, margin=0.25)
        got.append((src.delivered, mean))
    assert got[0] == got[1]
    assert got[0][0] <= mean_ceiling(30.0, 0.01, bar=5.0, margin=0.25)


def test_stream_mean_reserves_at_most_a_chunk_of_rows(monkeypatch):
    # Every reserve a stream mean makes, over the solves of the stream
    # benchmark's config, books at most a chunk of rows (STREAM_CHUNK * d
    # scalars) or a chunk of scores and the three running moments; the
    # solve's ledger peak, once a 4,096-row mean chunk at about 86,000
    # scalars, is under half that.
    sizes, reserve = [], ScalarLedger.reserve

    def spy(self, n):
        frame = inspect.currentframe().f_back
        while frame is not None and frame.f_code.co_name != "stream_mean_estimate":
            frame = frame.f_back
        if frame is not None:
            sizes.append(n)
        return reserve(self, n)

    monkeypatch.setattr(ScalarLedger, "reserve", spy)
    d = 20
    pool, _spec = _spiked_pool(d=d, rows=200_000)
    for seed in range(3):
        res, stats = _solve_pool(pool, rng_seed=seed)
        assert res.status is PcaStatus.ACCEPTED and res.filters_created >= 1
        assert stats.peak_resident_scalars < 86_039 / 2
    assert sizes and max(sizes) <= STREAM_CHUNK * d + 3


def test_stream_sigma_trimmed_settles_to_its_precision():
    # The trimmed variance is a value, not a decision: its stream mean stops
    # at the first stage n whose interval [lo, hi] has
    # hi <= (1 + DECISION_MARGIN) lo, B = min(cut, prune radius^2). It is the
    # suite's third estimate, after the prologue's two, so it takes
    # failure_share(3) = 0.1 / 12. The estimate then lies within a factor
    # 1.25 of the exact trimmed mean of the cycled pool, which is its
    # population. Its ceiling is sized for that precision above the floor
    # delta / (FILTER_TRIGGER gamma), and the stop comes well before it.
    pool, _spec = _spiked_pool(d=20, rows=20_000)
    src = ReplaySource(pool, mode="cycle")
    suite = MinibatchEstimators(src, AlgoConfig(eps=0.03, gamma=0.6), 1.5, ScalarLedger())
    shares = _solve_shares()
    _sigma_op, delta = suite.prologue(shares)
    v = np.eye(20)[0]
    assert suite.start_iteration(v) is None
    cut, before = 20.0, src.delivered
    sigma = suite.sigma_trimmed(cut, shares)
    bound = min(cut, suite.stack.prune_radius_sq)
    stages = mean_stages(mean_ceiling(bound, failure_share(3), rel_tol=DECISION_MARGIN,
                                      floor=delta / (FILTER_TRIGGER * 0.6)))
    n = src.delivered - before
    assert n in stages[:-1]

    # The same n rows, replayed and scored, give the stopping interval.
    twin = ReplaySource(pool, mode="cycle")
    twin.draw(before)
    rows = twin.draw(n)
    f = (rows @ v) ** 2
    f = np.where(suite.stack.weights(rows) & (f <= cut), f, 0.0)
    assert sigma == pytest.approx(float(np.mean(f)), rel=1e-12)
    moments = (n, float(np.mean(f)), float(np.sum((f - np.mean(f)) ** 2)))
    lo, hi = stage_interval(moments, bound, stage_log(len(stages), failure_share(3)))
    assert hi <= (1 + DECISION_MARGIN) * lo
    f = (pool[suite.stack.weights(pool)] @ v) ** 2
    exact = float(np.sum(f[f <= cut])) / pool.shape[0]
    assert exact / (1 + DECISION_MARGIN) <= sigma <= exact * (1 + DECISION_MARGIN)


@pytest.mark.parametrize("seed", range(4))
def test_stream_filter_decisions_equal_the_exact_ones(seed):
    # On a cycled pool the population is the pool, whose rows both suites
    # keep whole, so the batch suite's mean_score is the exact mean the
    # stream suite estimates. Along the outlier axis the opening mean (about
    # 40) and the round means (about 0.3) are far from the exit bound (about
    # 2.5), so from the same L, T_hat, R, delta and rng_filt the stream
    # filter makes the batch filter's decisions: the same rounds and the
    # same (direction, threshold) entry. R is the stream's prune radius^2, as
    # drive hands it; rounds whose draw lies above every score keep the
    # opening mean. Each mean is the exit decision at
    # margin DECISION_MARGIN, and none passes its ceiling. The opening
    # scores are all but two-point, 0 or near the prune radius^2 B = 1,143
    # (V about B mu), the worst case for an empirical-Bernstein interval: at
    # the suite's third share, 0.1 / 12, L = ln(4 * 11 / (0.1 / 12)) = 8.57
    # over the 11 stages of its ceiling (about 248,000 rows), and
    # 7 B L / (3 (n - 1)) alone is 22.3 at 1,024 rows, so the interval clears
    # the exit bound at 2,048 rows at the earliest: there, or at a later
    # stage when the rows it reads hold few outliers.
    pool, _spec = _spiked_pool(d=8, rows=20_000, seed=seed)
    cfg = AlgoConfig(eps=0.03, gamma=0.6)
    src = ReplaySource(pool, mode="cycle")
    stream = MinibatchEstimators(src, cfg, 1.5, ScalarLedger())
    shares, none = _solve_shares(), iter(())
    _sigma_op, delta = stream.prologue(shares)
    exact = BatchEstimators(pool, cfg, np.einsum("ij,ij->i", pool, pool))
    exact.prologue(none)
    assert stream.stack.weights(pool).all() and exact.weights.all()
    v = np.eye(8)[1]
    stream.start_iteration(v)
    exact.start_iteration(v)
    L = exact.quantile_value(3 * cfg.eps, none)
    t_hat = FILTER_TRIGGER * cfg.gamma * exact.sigma_trimmed(L, none)
    R = stream.stack.prune_radius_sq
    rows, calls = [], []

    def stream_mean(thr, bound):
        before = src.delivered
        mean = stream.mean_score(L, thr, bound, shares)
        rows.append(src.delivered - before)
        calls.append((before, thr, bound))
        return mean

    outcomes = [hard_thresholding_filter(mean, v, L, t_hat, R, delta, rng_stream(seed, 0, 3))
                for mean in (stream_mean, lambda thr, bound: exact.mean_score(L, thr, bound, none))]
    got, want = outcomes
    assert got.rounds == want.rounds >= 1
    np.testing.assert_array_equal(got.new_entry.direction, want.new_entry.direction)
    assert got.new_entry.threshold_sq == want.new_entry.threshold_sq
    B = stream.stack.prune_radius_sq
    ceilings = [mean_ceiling(min(thr, B), failure_share(3 + j), bar=bound,
                             margin=DECISION_MARGIN)
                for j, (_before, thr, bound) in enumerate(calls)]
    assert all(n <= ceiling for n, ceiling in zip(rows, ceilings))

    # The opening mean stops at the first stage whose interval, over the
    # rows it read from the cycled pool, clears the exit bound.
    before, thr, bound = calls[0]
    assert thr == math.inf
    stages = mean_stages(ceilings[0])
    assert len(stages) == 11
    twin = ReplaySource(pool, mode="cycle")
    twin.draw(before)
    f = (twin.draw(rows[0]) @ v) ** 2
    f = np.where((f > L) & (f <= thr), f, 0.0)
    cleared = []
    for n in stages[:stages.index(rows[0]) + 1]:
        moments = (n, float(np.mean(f[:n])), float(np.sum((f[:n] - np.mean(f[:n])) ** 2)))
        lo, hi = stage_interval(moments, B, stage_log(len(stages), failure_share(3)))
        cleared.append(lo > bound or hi < bound)
    assert cleared[-1] and not any(cleared[:-1])
    assert rows[0] >= 2048


# -- honest memory accounting and typed failure modes ------------------------------

def _spiked_pool(d=8, rows=50_000, rate=0.035, seed=0):
    """A contaminated pool: spike on axis 0, orthogonal outlier spike on axis 1."""
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=rate, spike_axis=1)
    return tv_contaminated_source(spec, adv, rng_stream(seed, 1)).draw(rows), spec


def _solve_pool(pool, **kw):
    args = dict(eps=0.03, gamma=0.6, r_radius=1.5, rng_seed=0, max_samples=20_000_000)
    args.update(kw)
    return streaming_robust_pca(ReplaySource(pool, mode="cycle"), **args)


def test_stream_solve_reads_a_read_only_pool():
    # Replayed draws are read-only views into the pool, so any write into
    # drawn rows raises instead of corrupting every later draw of them: the
    # acceptance-07 solve must run through on its own pool, marked read-only.
    pool, spec = _spiked_pool(d=20, rows=20_000, rate=0.03)
    pool.flags.writeable = False
    res, _stats = _solve_pool(pool)
    assert res.status is PcaStatus.ACCEPTED
    assert metric_approx_ratio(res.u, spec.covariance()) >= 0.9


def _prologue_block(eps):
    """The prologue's block size at eps > 0, from its rule: the larger of the
    prune cut's and the opnorm bracket's blocks at the first two shares."""
    return max(streaming_quantile_samples(eps, failure_share(1), PRUNE_C_Q),
               math.ceil(4 * math.log(4 / failure_share(2)) / eps))


@pytest.mark.parametrize("eps", [0.0, 0.03])
def test_prologue_draws_exactly_one_block(eps, monkeypatch):
    # One block, sized by its rule, at the solve's first two failure shares,
    # and none at eps = 0, where no share is taken; the prologue draws no
    # other row, and the next estimate takes the next share.
    import robustpca.streaming as streaming

    pool, _spec = _spiked_pool()
    src = BudgetedSource(ReplaySource(pool, mode="cycle"), 10 ** 9)
    suite = MinibatchEstimators(src, AlgoConfig(eps=eps, gamma=0.6), 1.5, ScalarLedger())
    shares = _solve_shares()
    suite.prologue(shares)
    if eps == 0:
        assert src.delivered == 0 and next(shares) == failure_share(1)
        return
    assert src.delivered == _prologue_block(eps) == 13_280
    seen = []
    quantile = streaming.streaming_quantile

    def spy(draw_scores, tail, fail_prob, **kw):
        seen.append(fail_prob)
        return quantile(draw_scores, tail, fail_prob, **kw)

    monkeypatch.setattr(streaming, "streaming_quantile", spy)
    suite.start_iteration(np.eye(8)[0])
    suite.quantile_value(0.09, shares)
    suite.sigma_trimmed(20.0, shares)
    assert seen == [failure_share(3)]
    assert next(shares) == failure_share(5)


@pytest.mark.parametrize("eps", [0.03])
def test_prologue_reads_both_answers_from_one_block(eps):
    # A twin source replays the block's m rows: the prune radius^2 is their
    # squared norms' eps-tail cut and sigma_op their opnorm bracket, bitwise.
    pool, _spec = _spiked_pool()
    suite = MinibatchEstimators(ReplaySource(pool, mode="cycle"),
                                AlgoConfig(eps=eps, gamma=0.6), 1.5, ScalarLedger())
    sigma_op, _delta = suite.prologue(_solve_shares())
    m = _prologue_block(eps)
    rows = ReplaySource(pool, mode="cycle").draw(m)
    g = np.einsum("ij,ij->i", rows, rows)
    assert sigma_op == opnorm_bracket(g, eps, m)
    assert suite.stack.prune_radius_sq == weighted_quantile(g, eps)


def test_prune_cut_lands_within_a_sixth_of_eps():
    # Outliers at 0.035 = 7 eps / 6 sit at the edge of the prune's band. Its
    # cut must remove less than 7 eps / 6 of the pool on every seed, so it
    # never cuts those outliers whole, and, with the atom at the cut, reach
    # more than 5 eps / 6 of it. At tau = 1/2 the cut removed them whole on
    # seeds 14, 18 and 19.
    eps = 0.03
    for seed in range(20):
        pool, _spec = _spiked_pool(rate=0.035, seed=seed)
        suite = MinibatchEstimators(ReplaySource(pool, mode="cycle"),
                                    AlgoConfig(eps=eps, gamma=0.6), 1.5, ScalarLedger())
        suite.prologue(_solve_shares())
        sq, radius_sq = np.einsum("ij,ij->i", pool, pool), suite.stack.prune_radius_sq
        assert np.mean(sq > radius_sq) < 7 * eps / 6, seed
        assert np.mean(sq >= radius_sq * (1 - 1e-12)) > 5 * eps / 6, seed


def test_prune_keeps_a_generic_atom_at_its_cut():
    # Outliers at rate 0.035 > eps, all copies of one generic vector of norm
    # 34, put an atom at the prune's cut. The cut is taken over the squared
    # norms the stack compares, so the copies keep their weight and reach
    # the filters. A cut taken over norms and then squared fell one ulp
    # below the atom's squared norm on seeds 1, 5, 7 and 8, and dropped
    # every copy.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(20)
        atom = g * (34.0 / np.linalg.norm(g))
        pool = rng.standard_normal((20_000, 20))
        pool[rng.random(20_000) < 0.035] = atom
        suite = MinibatchEstimators(ReplaySource(pool, mode="cycle"),
                                    AlgoConfig(eps=0.03, gamma=0.6), 1.5, ScalarLedger())
        suite.prologue(_solve_shares())
        row = atom[None]
        assert suite.stack.prune_radius_sq == np.einsum("ij,ij->i", row, row)[0], seed
        assert suite.stack.weights(row)[0], seed


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_column_above_eps_rate(bad):
    # 5% of the rows carry a non-finite coordinate, above the eps = 0.03 the
    # solver assumes. The prune radius comes from the finite rows only, so
    # it stays finite and the non-finite rows are simply rejected.
    pool, spec = _spiked_pool()
    pool[::20, 3] = bad
    res, _stats = _solve_pool(pool)
    assert res.status is PcaStatus.ACCEPTED
    assert metric_approx_ratio(res.u, spec.covariance()) >= 0.99
    assert res.filters_created >= 1


def test_budget_exhausted_in_the_prologue_fails():
    # One row short of the prologue's block, which the prune cut sizes at
    # the solve's first failure share: no certificate ever runs.
    pool, _spec = _spiked_pool(d=12, rows=100_000, rate=0.03, seed=1)
    block = _prologue_block(0.03)
    res, stats = _solve_pool(pool, rng_seed=1, max_samples=block - 1)
    assert res.status is PcaStatus.FAILED
    assert res.iterations == 0 and res.u is None
    assert stats.samples_consumed < block


def _rejecting_certificates(monkeypatch):
    """Make every stream certificate reject; return the candidates, in order."""
    seen, real = [], MinibatchEstimators.certificate

    def reject(self, shares, rng, rng_dir):
        seen.append(dataclasses.replace(real(self, shares, rng, rng_dir), accepted=False))
        return seen[-1]

    monkeypatch.setattr(MinibatchEstimators, "certificate", reject)
    return seen


def test_budget_exhausted_after_rejections_returns_the_best_rejected(monkeypatch):
    # Every certificate rejects until the budget runs out mid-iteration; the
    # solve then returns the rejected candidate of highest robust variance.
    seen = _rejecting_certificates(monkeypatch)
    pool, _spec = _spiked_pool(d=12, rows=100_000, rate=0.03, seed=1)
    res, stats = _solve_pool(pool, rng_seed=1, max_samples=900_000)
    assert res.status is PcaStatus.FALLBACK_BEST
    assert res.iterations == len(seen) >= 2
    best = max(seen, key=lambda cand: cand.sigma_robust)
    assert res.sigma_robust == best.sigma_robust
    assert res.u.tobytes() == best.u.tobytes()
    assert stats.samples_consumed <= 900_000


def test_the_solve_books_one_ledger_from_zero(monkeypatch):
    # The solve builds one suite, whose ledger is empty when its prologue
    # starts and whose peak the solve reports.
    seen = []
    prologue = MinibatchEstimators.prologue

    def spy_prologue(self, shares):
        seen.append((self.ledger, self.ledger.current))
        return prologue(self, shares)

    monkeypatch.setattr(MinibatchEstimators, "prologue", spy_prologue)
    _rejecting_certificates(monkeypatch)
    pool, _spec = _spiked_pool()
    res, stats = _solve_pool(pool, config=AlgoConfig(eps=0.03, gamma=0.6, t_end=1))
    assert res.status is PcaStatus.FALLBACK_BEST and res.filters_created >= 1
    [(ledger, current)] = seen
    assert current == 0
    assert stats.peak_resident_scalars == ledger.peak > 0


def test_samples_consumed_counts_only_this_solves_rows():
    # Solves on one reused source, without a budget, each report the rows
    # they drew, not the source's lifetime count.
    pool, _spec = _spiked_pool()
    src = ReplaySource(pool, mode="cycle")
    for _ in range(3):
        before = src.delivered
        _res, stats = streaming_robust_pca(src, eps=0.03, gamma=0.6, r_radius=1.5,
                                           rng_seed=0)
        assert stats.samples_consumed == src.delivered - before > 0


def test_tracemalloc_peak_within_twice_ledger_peak():
    pool, _spec = _spiked_pool()
    _solve_pool(pool)  # first-call allocations (imports, caches) are not the solver's
    tracemalloc.start()
    try:
        _res, stats = _solve_pool(pool)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak_bytes / 8 <= 2 * stats.peak_resident_scalars


def test_stream_solve_is_scale_equivariant():
    # A scale of 1e60 squares to 1e120 in every second moment; the projections
    # that score Rayleigh quotients must not be rescaled like chain columns.
    pool, _spec = _spiked_pool()
    res_a, stats_a = _solve_pool(pool)
    res_b, stats_b = _solve_pool(pool * 1e60)
    assert res_b.status is res_a.status
    assert res_b.iterations == res_a.iterations
    assert stats_b.samples_consumed == stats_a.samples_consumed
    assert abs(float(res_a.u @ res_b.u)) >= 1 - 1e-9


@st.composite
def _degenerate_pools(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(50, 3_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "zero", "constant", "part_zero"]))
    if kind == "gaussian":
        pool = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d)
    elif kind == "zero":
        pool = np.zeros((n, d))
    elif kind == "constant":
        pool = np.tile(rng.standard_normal(d), (n, 1))
    else:
        pool = rng.standard_normal((n, d))
        pool[rng.random(n) < draw(st.floats(0.1, 0.9))] = 0.0
    frac = draw(st.sampled_from([0.0, 0.05, 0.15, 1.0]))
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    pool[rng.random(n) < frac, draw(st.integers(0, d - 1))] = value
    return pool


@settings(max_examples=50, derandomize=True, deadline=None)
@given(pool=_degenerate_pools(), eps=st.sampled_from([0.0, 0.01, 0.02, 0.04]),
       budget=st.sampled_from([5_000, 200_000, 2_000_000]))
def test_degenerate_pools_end_typed(pool, eps, budget):
    try:
        res, _stats = _solve_pool(pool, eps=eps, gamma=max(0.4, 20 * eps),
                                  max_samples=budget)
    except DegenerateStateError:
        return
    if res.status is PcaStatus.FAILED:
        return
    assert res.status in (PcaStatus.ACCEPTED, PcaStatus.FALLBACK_BEST)
    assert np.all(np.isfinite(res.u))
    assert abs(float(np.linalg.norm(res.u)) - 1.0) <= 1e-9


def test_stream_helpers_restore_the_ledger(monkeypatch):
    # Each helper books what it holds and leaves ``current`` as it found it,
    # on return and on every typed error.
    monkeypatch.setattr("robustpca.linops.STREAM_CHUNK", 16)
    pop = np.array([[1.0, 2.0], [3.0, 0.5], [10.0, 0.0]] * 10)
    stack = FilterStack(prune_radius_sq=20.0)
    v = np.array([1.0, 0.0])
    helpers = {
        "accepted_rows": lambda src, led: list(accepted_rows(src, stack, 50, led)),
        "accepted_scores": lambda src, led: accepted_scores(
            src, stack, lambda x: (x @ v) ** 2, 50, led),
        "streamed_rayleigh": lambda src, led: streamed_rayleigh(src, stack, v, 50, led),
        "accepted_band_mean": lambda src, led: accepted_band_mean(
            src, stack, v, 0.0, 5.0, 0.1, led, bar=1.0, margin=0.25),
        "streamed_power_apply": lambda src, led: streamed_power_apply(
            src, stack, 2, 50, v[:, None], ledger=led),
    }
    rejected = np.full((8, 2), 10.0)
    for name, call in helpers.items():
        for pool, budget, limit, error in ((pop, None, None, None),
                                           (pop, 20, None, StreamExhaustedError),
                                           (rejected, None, None, DegenerateStateError),
                                           (pop, None, 8, MemoryBudgetError)):
            if name == "accepted_band_mean" and error is DegenerateStateError:
                continue  # a band mean over rejected rows is 0, not an error
            led = ScalarLedger(limit=limit)
            led.alloc(7)
            src = ReplaySource(pool, mode="cycle")
            src = BudgetedSource(src, budget) if budget is not None else src
            if error is None:
                call(src, led)
                assert led.peak > 7, name
            else:
                with pytest.raises(error):
                    call(src, led)
            assert led.current == 7, (name, error)


# -- the driver direction riding the certificate's chain --------------------------

def _rider_suite():
    """A prologued suite at eps = gamma / 20 whose first certificate rejects,
    and the rest of its solve's shares."""
    pool, _spec = _spiked_pool(d=20, rows=20_000, rate=0.035)
    src = ReplaySource(pool, mode="cycle")
    cfg = AlgoConfig(eps=0.03, gamma=0.6)
    suite, shares = MinibatchEstimators(src, cfg, 1.5, ScalarLedger()), _solve_shares()
    suite.prologue(shares)
    return pool, src, cfg, suite, shares


def _chain_rows(monkeypatch):
    """Rows each certificate's shared chain draws, recorded per call."""
    import robustpca.certificate as certificate

    rows, real = [], certificate.approx_power_iteration

    def spy(source, *args, **kwargs):
        before = source.delivered
        out = real(source, *args, **kwargs)
        rows.append(source.delivered - before)
        return out

    monkeypatch.setattr(certificate, "approx_power_iteration", spy)
    return rows


@pytest.mark.parametrize("t", [1, 2, 3])
def test_driver_direction_rides_the_certificate_chain(monkeypatch, t):
    # The t-th direction's start, the t-th draw of rng_stream(seed, 0, 2),
    # rides the whole chain of the t-th certificate, whose p = 2 steps are
    # the direction's power: each certificate draws (2 + 1) minibatches and
    # each direction none. It equals a p-step chain from the same start on
    # a twin pool, over that certificate chain's own minibatches.
    chain_rows = _chain_rows(monkeypatch)
    pool, src, cfg, suite, shares = _rider_suite()
    d, b = pool.shape[1], BATCH_SIZE_CAP
    p = power_chain_length(d, cfg.gamma, START_FAILURE)
    assert p == 2

    rng_cert, rng_dir, ref = rng_stream(0, 0, 1), rng_stream(0, 0, 2), rng_stream(0, 0, 2)
    for i in range(1, t + 1):
        start = src.delivered
        cand = suite.certificate(shares, rng_cert, rng_dir)
        before = src.delivered
        v = suite.direction(rng_dir, cand.rider)
        assert src.delivered == before
        z = ref.standard_normal(d)
    assert chain_rows == [(p + 1) * b] * t

    twin = ReplaySource(pool, mode="cycle")
    twin.draw(start)
    want = streamed_power_apply(twin, suite.stack, p, b, z[:, None])[:, 0]
    np.testing.assert_allclose(v, want / np.linalg.norm(want), rtol=1e-10)
    assert rng_dir.standard_normal() == ref.standard_normal()


def test_the_rider_is_booked_until_the_direction_takes_it(monkeypatch):
    # The rider's column, d scalars, is held from the chain's end until the
    # direction takes it, across the certificate's trim quantile and stream
    # mean. So while the quantile block is drawn the ledger holds it beside
    # the block's m scores, which a certificate without a rider does not.
    import robustpca.certificate as certificate

    seen, real = [], certificate.streaming_quantile

    def spy(draw_scores, *args, ledger, **kwargs):
        def draw(k):
            seen.append(ledger.current - held)
            return draw_scores(k)
        return real(draw, *args, ledger=ledger, **kwargs)

    monkeypatch.setattr(certificate, "streaming_quantile", spy)
    _pool, src, cfg, suite, _shares = _rider_suite()
    d, held = 20, suite.ledger.current
    share = failure_share(3)
    m = streaming_quantile_samples(3 * cfg.eps, share, certificate.TRIM_C_Q)
    cand = suite.certificate(itertools.repeat(share), rng_stream(0, 0, 1), rng_stream(0, 0, 2))
    assert suite.ledger.current == held + d
    suite.direction(rng_stream(0, 0, 2), cand.rider)
    assert suite.ledger.current == held
    certificate.sample_top_eigenvector_streaming(
        src, suite.stack, cfg.eps, cfg.gamma, itertools.repeat(share), rng_stream(0, 0, 1),
        BATCH_SIZE_CAP, suite.ledger, 1.5)
    assert seen == [m + d, m]


class _ZeroStarts:
    """Stands in for a Generator whose every start is the zero vector."""

    def __init__(self):
        self.drawn = 0

    def standard_normal(self, d):
        self.drawn += 1
        return np.zeros(d)


def test_a_collapsed_rider_ends_the_rep(monkeypatch):
    # A zero start collapses on any pool. The rider comes back as the zero
    # column; the direction returns None with no second start and no row of
    # its own, and ``drive`` raises DegenerateStateError.
    import robustpca.driver as driver

    pool, src, cfg, suite, shares = _rider_suite()
    rng_dir = _ZeroStarts()
    cand = suite.certificate(shares, rng_stream(0, 0, 1), rng_dir)
    assert not cand.rider.any() and rng_dir.drawn == 1
    before = src.delivered
    assert suite.direction(rng_dir, cand.rider) is None
    assert rng_dir.drawn == 1 and src.delivered == before

    real = driver.rng_stream
    monkeypatch.setattr(driver, "rng_stream",
                        lambda seed, key, i: _ZeroStarts() if i == 2 else real(seed, key, i))
    fresh = MinibatchEstimators(ReplaySource(pool, mode="cycle"), cfg, 1.5, ScalarLedger())
    with pytest.raises(DegenerateStateError, match="collapsed"):
        driver.drive(fresh, cfg, 0)


def test_no_direction_rides_at_eps_zero():
    # At eps = 0 ``drive`` runs no filter direction, so the certificate's
    # chain carries no rider and draws no start from rng_dir.
    pool, _spec = _spiked_pool(d=8, rows=20_000, rate=0.0)
    suite = MinibatchEstimators(ReplaySource(pool, mode="cycle"),
                                AlgoConfig(eps=0.0, gamma=0.6), 1.5, ScalarLedger())
    shares = _solve_shares()
    suite.prologue(shares)
    rng_dir = _ZeroStarts()
    cand = suite.certificate(shares, rng_stream(0, 0, 1), rng_dir)
    assert cand.rider is None and rng_dir.drawn == 0
