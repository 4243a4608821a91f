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
    WeightedDataset,
    gen_inliers,
    metric_approx_ratio,
    robust_pca,
    rng_stream,
    streamed_power_apply,
    streaming_robust_pca,
    strong_contaminate,
    tv_contaminated_source,
)
from robustpca.errors import MemoryBudgetError
from robustpca.oracle import dense_power_apply
from robustpca.streaming import default_mean_batch, default_stream_batch


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


def test_non_finite_stream_row_is_rejected():
    # At eps = 0 the prune radius is infinite; an inf row must still get
    # weight 0, so the run matches the one over the clean pool instead of
    # collapsing every power probe.
    clean = np.random.default_rng(0).standard_normal((4000, 5)) * [3, 1, 1, 1, 1]
    bad = clean.copy()
    bad[17] = np.inf
    runs = [streaming_robust_pca(ReplaySource(pool, mode="cycle"), eps=0.0, gamma=0.5,
                                 r_radius=1.5, rng_seed=1)
            for pool in (clean, bad)]
    (res_a, stats_a), (res_b, stats_b) = runs
    assert res_b.status is res_a.status is PcaStatus.ACCEPTED
    assert stats_a.samples_consumed == stats_b.samples_consumed == 713_708
    np.testing.assert_allclose(res_b.u, res_a.u, atol=1e-3)


def test_exact_population_mode_reproduces_batch_driver():
    # Zero estimator noise: the streaming entry point run over a replayed
    # population must make exactly the batch driver's decisions.
    spec = InlierSpec(dim=10, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.05, spike_axis=1)
    rng = rng_stream(6, 1)
    pts, labels = gen_inliers(spec, 4000, rng)
    pts, labels = strong_contaminate(pts, labels, adv, spec.covariance(), rng)

    batch_events = []
    res_a = robust_pca(WeightedDataset(pts), eps=0.05, gamma=1.0, rng_seed=6,
                       trace_sink=batch_events.append)

    stream_events = []
    src = ReplaySource(pts, mode="cycle")
    res_b, _stats = streaming_robust_pca(src, eps=0.05, gamma=1.0, r_radius=2.0,
                                         rng_seed=6, exact_population=pts,
                                         trace_sink=stream_events.append)
    assert res_a.status == res_b.status
    assert res_a.iterations == res_b.iterations
    np.testing.assert_array_equal(res_a.u, res_b.u)
    assert len(batch_events) == len(stream_events)
    for ea, eb in zip(batch_events, stream_events):
        np.testing.assert_array_equal(ea["weights"], eb["weights"])


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
    applied, _w = streamed_power_apply(src, FilterStack(), p, 3000, sample.T)
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


def test_oja_strawman_defeated_by_spike_stream():
    # The unfiltered incremental baseline locks onto the planted direction;
    # the robust streaming driver does not (checked separately above).
    from robustpca.streaming import oja_baseline
    spec = InlierSpec(dim=20, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.03, spike_axis=1)
    sigma = spec.covariance()
    bad = 0
    for seed in range(10):
        src = tv_contaminated_source(spec, adv, rng_stream(seed, 77))
        u = oja_baseline(src, 60_000, rng_stream(seed, 78))
        if metric_approx_ratio(u, sigma) <= 0.4:
            bad += 1
    assert bad >= 8


def test_oja_clean_stream_finds_top_direction():
    from robustpca.streaming import oja_baseline
    spec = InlierSpec(dim=10, diag=1.0, spikes=((0, 9.0),))
    src = tv_contaminated_source(spec, AdversarySpec(), rng_stream(0, 79))
    u = oja_baseline(src, 60_000, rng_stream(0, 80))
    assert metric_approx_ratio(u, spec.covariance()) >= 0.9


def test_default_batch_formulas_clamped():
    cfg = AlgoConfig(eps=0.03, gamma=0.6)
    assert default_stream_batch(20, 12, 0.03, 0.6, 1.5, cfg) == cfg.batch_size_cap
    nb = default_mean_batch(20, 0.03, 0.6, 1.5, cfg)
    assert 64 <= nb <= cfg.mean_batch_cap
    cfg2 = AlgoConfig(eps=0.03, gamma=0.6, batch_size=777)
    assert default_stream_batch(20, 12, 0.03, 0.6, 1.5, cfg2) == 777
