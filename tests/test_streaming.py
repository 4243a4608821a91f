import numpy as np
import pytest

from robustpca import (
    AdversaryKind,
    AdversarySpec,
    AlgoConfig,
    FilterStack,
    InlierSpec,
    PcaStatus,
    ReplaySource,
    ScalarLedger,
    metric_approx_ratio,
    rng_stream,
    streamed_power_apply,
    streaming_robust_pca,
    tv_contaminated_source,
)
from robustpca.errors import MemoryBudgetError
from robustpca.oracle import dense_power_apply
from robustpca.streaming import (
    BATCH_SIZE_CAP,
    MEAN_BATCH_CAP,
    MinibatchEstimators,
    default_mean_batch,
)


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
    res, stats = streaming_robust_pca(src, eps=0.02, gamma=0.4, r_radius=1.5,
                                      rng_seed=2, max_samples=20_000_000)
    # Every sample the source handed out is accounted for, exactly once.
    assert stats.samples_consumed == src.delivered
    assert res.samples_consumed == stats.samples_consumed


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
    # At eps = 0 the prune radius is infinite; an inf row must still get
    # weight 0, so the run matches the one over the clean pool instead of
    # collapsing every power probe. Rejected rows are never scored, so the
    # inf row raises no floating-point warning either.
    clean = np.random.default_rng(0).standard_normal((4000, 5)) * [3, 1, 1, 1, 1]
    bad = clean.copy()
    bad[17] = np.inf
    runs = [streaming_robust_pca(ReplaySource(pool, mode="cycle"), eps=0.0, gamma=0.5,
                                 r_radius=1.5, rng_seed=1)
            for pool in (clean, bad)]
    (res_a, stats_a), (res_b, stats_b) = runs
    assert res_b.status is res_a.status is PcaStatus.ACCEPTED
    assert stats_a.samples_consumed == stats_b.samples_consumed == 705_516
    np.testing.assert_allclose(res_b.u, res_a.u, atol=1e-3)


def test_minibatch_power_tracks_dense_shadow():
    # Streamed score estimates stay above half the dense score minus the
    # additive slack, for nearly all points.
    rng = np.random.default_rng(7)
    d, p, eps, gamma = 8, 6, 0.05, 1.0
    pop = rng.standard_normal((5000, d)) * np.sqrt(np.linspace(2.0, 0.5, d))
    src = ReplaySource(pop, mode="resample", rng=np.random.default_rng(8))
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
    r = max(1.0, spec.subgaussian_radius())
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


def test_default_batch_formulas_clamped():
    src = ReplaySource(np.zeros((4, 20)), mode="cycle")
    cfg = AlgoConfig(eps=0.03, gamma=0.6)
    suite = MinibatchEstimators(src, cfg, 1.5, ScalarLedger())
    assert suite.batch == BATCH_SIZE_CAP == 4096
    nb = default_mean_batch(20, 0.03, 0.6, 1.5)
    assert 64 <= nb <= MEAN_BATCH_CAP
    cfg2 = AlgoConfig(eps=0.03, gamma=0.6, batch_size=777)
    assert MinibatchEstimators(src, cfg2, 1.5, ScalarLedger()).batch == 777
