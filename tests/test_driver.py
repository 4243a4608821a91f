import math

import numpy as np
import pytest

from robustpca import (
    AdversaryKind,
    AdversarySpec,
    AlgoConfig,
    InlierSpec,
    PcaStatus,
    WeightedDataset,
    gen_inliers,
    metric_approx_ratio,
    naive_pca,
    opnorm_bracket,
    potential_diagnostic,
    robust_pca,
    rng_stream,
    strong_contaminate,
)
from robustpca.driver import BatchEstimators, drive
from robustpca.errors import UnsupportedDiagnosticError
from robustpca.streaming import MinibatchEstimators

SUITE_METHODS = {"prologue", "certificate", "direction", "start_iteration",
                 "quantile_value", "sigma_trimmed", "mean_score", "score_range",
                 "register_entry"}


def spiked_instance(d, n, eps, seed, spike=9.0):
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, spike),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=eps, spike_axis=1)
    rng = rng_stream(seed, 500)
    pts, labels = gen_inliers(spec, n, rng)
    pts, labels = strong_contaminate(pts, labels, adv, spec.covariance(), rng)
    return pts, labels, spec.covariance()


def test_clean_data_accepted_with_high_ratio():
    d, n = 20, 4000
    rng = rng_stream(1, 0)
    pts = rng.standard_normal((n, d)) * np.sqrt([10.0] + [1.0] * (d - 1))
    sigma = np.diag([10.0] + [1.0] * (d - 1))
    res = robust_pca(WeightedDataset(pts), eps=0.0, gamma=0.05, rng_seed=1)
    assert res.status is PcaStatus.ACCEPTED
    assert metric_approx_ratio(res.u, sigma) >= 0.9


def test_contaminated_instance_recovers_where_naive_fails():
    pts, _labels, sigma = spiked_instance(16, 8000, 0.05, seed=3)
    res = robust_pca(WeightedDataset(pts), eps=0.05, gamma=1.0, rng_seed=3)
    assert metric_approx_ratio(res.u, sigma) >= 0.85
    u_naive, _ = naive_pca(pts, rng_stream(3, 501))
    assert metric_approx_ratio(u_naive, sigma) <= 0.3


def test_single_point_dataset():
    d = 4
    pts = np.zeros((1, d))
    pts[0, 0] = 1.0
    res = robust_pca(WeightedDataset(pts), eps=0.04, gamma=0.8, rng_seed=0)
    assert res.status in (PcaStatus.ACCEPTED, PcaStatus.FALLBACK_BEST)
    assert abs(abs(res.u[0]) - 1.0) <= 1e-9


def test_gamma_validation():
    pts = np.eye(3)
    with pytest.raises(ValueError, match="20\\*eps"):
        robust_pca(WeightedDataset(pts), eps=0.05, gamma=0.1)


def test_fallback_when_certificate_cannot_pass():
    # One iteration only and a rigged acceptance constant: the rejected
    # candidate is still returned as the fallback.
    pts, _labels, sigma = spiked_instance(10, 3000, 0.05, seed=5)
    cfg = AlgoConfig(eps=0.05, gamma=1.0, t_end=1, k_end=1, boost_reps=2)
    res = robust_pca(WeightedDataset(pts), eps=0.05, gamma=1.0, config=cfg, rng_seed=5)
    assert res.status in (PcaStatus.FALLBACK_BEST, PcaStatus.ACCEPTED)
    assert res.u is not None


def test_potential_diagnostic_examples():
    pts = np.array([[2.0, 0.0], [0.0, math.sqrt(2.0)]])  # B = diag(2, 1)
    w = np.ones(2, dtype=bool)
    assert potential_diagnostic(pts, w, p=1) == pytest.approx(9.0)
    d = 6
    pts_i = np.sqrt(d) * np.eye(d)  # B = I_d
    assert potential_diagnostic(pts_i, np.ones(d, dtype=bool), p=4) == pytest.approx(d)
    with pytest.raises(UnsupportedDiagnosticError):
        potential_diagnostic(np.zeros((2, 65)), np.ones(2, dtype=bool), 1)


def test_potential_monotone_along_run():
    eps = 0.05
    pts, _labels, _sigma = spiked_instance(12, 3000, eps, seed=7)
    events = []
    robust_pca(WeightedDataset(pts), eps=eps, gamma=1.0, rng_seed=7,
               trace_sink=events.append)
    # Survivors before the first event: the prologue's norm prune.
    n, d = pts.shape
    prune_sq = 10.0 * opnorm_bracket(pts, np.ones(n, dtype=bool), eps) * d / eps
    w_before = np.einsum("ij,ij->i", pts, pts) <= prune_sq
    pots = []
    for e in events:
        if not e["skipped"]:
            pots.append((potential_diagnostic(pts, w_before, e["p_k"]),
                         potential_diagnostic(pts, e["weights"], e["p_k"])))
        w_before = e["weights"]
    assert pots
    for before, after in pots:
        assert after <= before * (1 + 1e-9)


def test_scaling_equivariance_coupled_seeds():
    pts, _labels, sigma = spiked_instance(12, 3000, 0.05, seed=11)
    c = 7.3
    runs = []
    for data in (pts, c * pts):
        events = []
        res = robust_pca(WeightedDataset(data), eps=0.05, gamma=1.0, rng_seed=11,
                         trace_sink=events.append)
        runs.append((res, events))
    res_a, ev_a = runs[0]
    res_b, ev_b = runs[1]
    assert res_a.status == res_b.status
    assert res_a.iterations == res_b.iterations
    assert abs(float(res_a.u @ res_b.u)) >= 1 - 1e-9
    assert len(ev_a) == len(ev_b)
    for ea, eb in zip(ev_a, ev_b):
        np.testing.assert_array_equal(ea["weights"], eb["weights"])


def test_inlier_mass_mostly_conserved():
    eps = 0.05
    hits = 0
    for seed in range(100):
        pts, labels, _sigma = spiked_instance(8, 2000, eps, seed=seed)
        events = []
        robust_pca(WeightedDataset(pts), eps=eps, gamma=1.0, rng_seed=seed,
                   trace_sink=events.append)
        if events:
            final_w = events[-1]["weights"]
        else:
            final_w = np.ones(len(labels), dtype=bool)
        removed_inlier_mass = np.count_nonzero(labels & ~final_w) / len(labels)
        if removed_inlier_mass <= 6 * eps:
            hits += 1
    assert hits >= 80


def test_multi_direction_hide_still_recovered():
    # Outliers spread over several low-variance axes, each boosted past the
    # true top: single-direction filtering would need one pass per axis, but
    # randomized mixing still drives them all out.
    d, n, eps = 16, 12_000, 0.05
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.MULTI_DIRECTION_HIDE, rate=eps,
                        n_directions=3, hide_boost=1.2)
    hits = naive_misses = 0
    for seed in range(6):
        rng = rng_stream(seed, 510)
        pts, labels = gen_inliers(spec, n, rng)
        pts, labels = strong_contaminate(pts, labels, adv, spec.covariance(), rng)
        res = robust_pca(WeightedDataset(pts), eps=eps, gamma=1.0, rng_seed=seed)
        if metric_approx_ratio(res.u, spec.covariance()) >= 0.85:
            hits += 1
        u_naive, _ = naive_pca(pts, rng_stream(seed, 511))
        if metric_approx_ratio(u_naive, spec.covariance()) <= 0.5:
            naive_misses += 1
    assert hits >= 5
    assert naive_misses >= 5


def test_moment_camouflage_clears_average_case_bound():
    # True covariance is a rank-r projection while the corrupted moment is
    # close to identity. In the idealized exactly-isotropic state a random
    # accepted direction carries r/d = 1/(1+gamma) of the top variance on
    # average (pinned by the synthetic certificate test); a finite-sample
    # realization can only leak more information, so the driver must clear
    # that bound from below.
    d, gamma, eps = 40, 0.25, 0.0125
    r = math.ceil(d / (1 + gamma))
    spec = InlierSpec(dim=d, diag=tuple([1.0] * r + [0.0] * (d - r)))
    adv = AdversarySpec(kind=AdversaryKind.SCHATTEN_BLIND, rate=eps,
                        projection_rank=r)
    ratios = []
    for seed in range(10):
        rng = rng_stream(seed, 512)
        pts, labels = gen_inliers(spec, 20_000, rng)
        pts, labels = strong_contaminate(pts, labels, adv, spec.covariance(), rng)
        res = robust_pca(WeightedDataset(pts), eps=eps, gamma=gamma, rng_seed=seed)
        ratios.append(metric_approx_ratio(res.u, spec.covariance()))
    mean = float(np.mean(ratios))
    assert mean >= 1 / (1 + gamma) - 0.1


def test_boost_reps_prefer_highest_robust_variance():
    pts, _labels, _sigma = spiked_instance(8, 2000, 0.05, seed=13)
    cfg = AlgoConfig(eps=0.05, gamma=1.0, t_end=1, k_end=1, boost_reps=3)
    res = robust_pca(WeightedDataset(pts), eps=0.05, gamma=1.0, config=cfg, rng_seed=13)
    assert res.u is not None and res.sigma_robust >= 0


@pytest.mark.parametrize("suite_cls", [BatchEstimators, MinibatchEstimators])
def test_suites_define_exactly_the_contract_methods(suite_cls):
    public = {name for name, val in vars(suite_cls).items()
              if callable(val) and not name.startswith("_")}
    assert public == SUITE_METHODS


def test_drive_uses_only_the_suite_contract():
    class Recorder:
        def __init__(self, suite):
            self._suite = suite
            self.seen = set()

        def __getattr__(self, name):
            self.seen.add(name)
            return getattr(self._suite, name)

    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
    cfg = AlgoConfig(eps=0.05, gamma=1.0)
    suite = Recorder(BatchEstimators(pts, cfg))
    events = []
    res = drive(suite, cfg, seed=7, rep=0, trace_sink=events.append)
    assert res.u is not None and any(not e["skipped"] for e in events)
    assert SUITE_METHODS - {"register_entry"} <= suite.seen
    assert suite.seen <= SUITE_METHODS | {"dim", "stack"}


def test_batch_rows_are_the_masked_points_after_every_filter():
    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
    cfg = AlgoConfig(eps=0.05, gamma=1.0)
    suite = BatchEstimators(pts, cfg)
    register = suite.register_entry
    filters = []

    def register_and_check(entry):
        register(entry)
        want = pts[suite.weights]
        assert suite.rows.shape == want.shape
        assert suite.rows.tobytes() == want.tobytes()
        filters.append(entry)

    suite.register_entry = register_and_check
    drive(suite, cfg, seed=7, rep=0)
    assert filters and len(filters) == len(suite.stack)


def test_overflowing_row_is_dropped_by_batch_prologue():
    # A finite row whose squared norm overflows must not reach the operator
    # norm bracket or survive the infinite prune radius of eps = 0, and no
    # later step may project it (any overflow warning fails the suite).
    clean = np.random.default_rng(0).standard_normal((4000, 5)) * [3, 1, 1, 1, 1]
    bad = clean.copy()
    bad[17] = [1e200, 0, 0, 0, 0]
    runs = [robust_pca(WeightedDataset(pool), eps=0.0, gamma=0.5, rng_seed=1)
            for pool in (clean, bad)]
    for res in runs:
        assert res.status is PcaStatus.ACCEPTED
        assert res.iterations == (1, 1)
    assert abs(float(runs[0].u @ runs[1].u)) >= 1 - 1e-3
