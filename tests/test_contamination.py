import math

import numpy as np
import pytest
from dense_oracles import dense_spectrum

from robustpca import (
    AdversaryKind,
    AdversarySpec,
    InlierFamily,
    InlierSpec,
    gen_inliers,
    load_dataset,
    naive_pca,
    metric_approx_ratio,
    save_dataset,
    strong_contaminate,
    tv_contaminated_source,
)
from robustpca import contamination


def test_gaussian_empirical_covariance_close():
    spec = InlierSpec(dim=3, diag=1.0)
    pts, labels = gen_inliers(spec, 100_000, np.random.default_rng(0))
    emp = pts.T @ pts / pts.shape[0]
    assert np.linalg.norm(emp - np.eye(3), ord=2) <= 0.05
    assert labels.all()


def test_single_sample():
    pts, labels = gen_inliers(InlierSpec(dim=4), 1, np.random.default_rng(1))
    assert pts.shape == (1, 4) and labels[0]


def test_spiked_covariance_variance():
    spec = InlierSpec(dim=5, diag=1.0, spikes=((0, 9.0),))
    pts, _ = gen_inliers(spec, 200_000, np.random.default_rng(2))
    var0 = float(np.mean(pts[:, 0] ** 2))
    assert var0 == pytest.approx(10.0, rel=0.05)
    np.testing.assert_allclose(np.diag(spec.covariance()),
                               [10.0, 1.0, 1.0, 1.0, 1.0])


def test_bounded_family_support_and_covariance():
    spec = InlierSpec(dim=6, diag=2.0, spikes=((1, 3.0),),
                      family=InlierFamily.BOUNDED_UNIFORM_SPHEREMIX)
    pts, _ = gen_inliers(spec, 200_000, np.random.default_rng(3))
    emp = pts.T @ pts / pts.shape[0]
    assert np.linalg.norm(emp - spec.covariance(), ord=2) <= 0.1 * np.linalg.norm(
        spec.covariance(), ord=2)
    norms = np.linalg.norm(pts, axis=1)
    # ||X|| <= sqrt(3) (sqrt(d max diag) + sum sqrt(a)) = 9.
    assert norms.max() <= math.sqrt(3.0) * (math.sqrt(6 * 2.0) + math.sqrt(3.0)) + 1e-9


def test_strong_contaminate_zero_rate_identity():
    spec = InlierSpec(dim=4)
    pts, labels = gen_inliers(spec, 100, np.random.default_rng(4))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.0)
    out, out_labels = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(5))
    np.testing.assert_array_equal(out, pts)
    assert out_labels.all()


def test_strong_contaminate_exact_count_and_labels():
    spec = InlierSpec(dim=6, diag=1.0, spikes=((0, 9.0),))
    pts, labels = gen_inliers(spec, 1234, np.random.default_rng(6))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.07, spike_axis=1)
    out, out_labels = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(7))
    assert np.count_nonzero(~out_labels) == math.floor(0.07 * 1234)
    outliers = out[~out_labels]
    mag = 2.0 * math.sqrt(10.0 / 0.07)
    np.testing.assert_allclose(np.abs(outliers[:, 1]), mag)
    assert np.all(outliers[:, 0] == 0)


def test_orthogonal_spike_defeats_naive_pca():
    spec = InlierSpec(dim=12, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.05, spike_axis=1)
    pts, labels = gen_inliers(spec, 20_000, np.random.default_rng(8))
    pts, labels = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(9))
    # The same adversary mixed into a stream (the TV model), read raw.
    stream = tv_contaminated_source(spec, adv, np.random.default_rng(11)).draw(20_000)
    for data in (pts, stream):
        u, _ = naive_pca(data, np.random.default_rng(10))
        assert metric_approx_ratio(u, spec.covariance()) <= 0.3
        assert abs(u[1]) >= 0.95  # locked onto the planted direction


def test_spike_axis_defaults_to_lowest_variance():
    spec = InlierSpec(dim=4, diag=(1.0, 0.2, 3.0, 1.0))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.1)
    pts, labels = gen_inliers(spec, 500, np.random.default_rng(11))
    out, out_labels = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(12))
    outliers = out[~out_labels]
    assert np.all(outliers[:, 1] != 0)


def test_spike_axis_outside_the_dimension_rejected():
    spec = InlierSpec(dim=4, diag=1.0)
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.1, spike_axis=-1)
    pts, labels = gen_inliers(spec, 50, np.random.default_rng(11))
    with pytest.raises(ValueError, match="spike_axis -1"):
        strong_contaminate(pts, labels, adv, spec, np.random.default_rng(12))


def test_multi_direction_hide_spreads_outliers():
    spec = InlierSpec(dim=8, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.MULTI_DIRECTION_HIDE, rate=0.1,
                        n_directions=3)
    pts, labels = gen_inliers(spec, 3000, np.random.default_rng(13))
    out, out_labels = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(14))
    outliers = out[~out_labels]
    touched_axes = {int(np.flatnonzero(row)[0]) for row in outliers}
    assert len(touched_axes) == 3


def test_schatten_blind_moment_near_identity():
    d, r, rate = 10, 8, 0.1
    diag = [1.0] * r + [0.0] * (d - r)
    spec = InlierSpec(dim=d, diag=tuple(diag))
    adv = AdversarySpec(kind=AdversaryKind.SCHATTEN_BLIND, rate=rate,
                        projection_rank=r)
    pts, labels = gen_inliers(spec, 100_000, np.random.default_rng(15))
    out, out_labels = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(16))
    emp = out.T @ out / out.shape[0]
    assert np.linalg.norm(emp - np.eye(d), ord=2) <= 0.15


def test_tv_source_rate_and_mixture_moment():
    spec = InlierSpec(dim=5, diag=1.0, spikes=((0, 4.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.1, spike_axis=1)
    src = tv_contaminated_source(spec, adv, np.random.default_rng(17))
    pts, labels = src.draw_labeled(100_000)
    frac = np.count_nonzero(~labels) / 100_000
    assert 0.094 <= frac <= 0.106
    emp = pts.T @ pts / pts.shape[0]
    mag_sq = (2.0 * math.sqrt(5.0 / 0.1)) ** 2
    want = 0.9 * spec.covariance()
    want[1, 1] += 0.1 * mag_sq
    assert np.linalg.norm(emp - want, ord=2) <= 0.1 * np.linalg.norm(want, ord=2)


def test_labels_round_trip_through_files(tmp_path):
    spec = InlierSpec(dim=3, diag=1.0)
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.2, spike_axis=0)
    pts, labels = gen_inliers(spec, 50, np.random.default_rng(18))
    pts, labels = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(19))
    path = tmp_path / "labeled.txt"
    save_dataset(path, pts, labels)
    got, got_labels = load_dataset(path)
    np.testing.assert_array_equal(got_labels, labels)
    np.testing.assert_array_equal(got, pts)


def test_rate_validation():
    with pytest.raises(ValueError):
        AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.6)


@pytest.mark.parametrize("make", [
    lambda: AdversarySpec(spike_multiplier=math.nan),
    lambda: AdversarySpec(hide_boost=math.nan),
    lambda: InlierSpec(dim=3, diag=math.nan),
    lambda: InlierSpec(dim=3, spikes=((0, math.nan),)),
], ids=["spike_multiplier", "hide_boost", "diag", "spike_variance"])
def test_nan_spec_values_rejected(make):
    # A NaN value makes NaN rows, which every filter drops: a contaminated
    # run would report clean-data results.
    with pytest.raises(ValueError):
        make()


def test_tv_source_rate_zero_matches_inlier_generator():
    spec = InlierSpec(dim=4, diag=1.0, spikes=((0, 2.0),))
    src = tv_contaminated_source(spec, AdversarySpec(), np.random.default_rng(22))
    direct, _ = gen_inliers(spec, 500, np.random.default_rng(22))
    streamed = src.draw(500)
    np.testing.assert_array_equal(streamed, direct)


def test_strong_contaminate_rejects_points_of_another_dim():
    spec = InlierSpec(dim=4, diag=1.0)
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.1, spike_axis=0)
    pts, labels = gen_inliers(InlierSpec(dim=5), 50, np.random.default_rng(23))
    with pytest.raises(ValueError, match="5 columns"):
        strong_contaminate(pts, labels, adv, spec, np.random.default_rng(24))


def _adversaries(d):
    return [AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.05),
            AdversarySpec(kind=AdversaryKind.MULTI_DIRECTION_HIDE, rate=0.1),
            AdversarySpec(kind=AdversaryKind.SCHATTEN_BLIND, rate=0.1,
                          projection_rank=d // 2)]


def reference_bank(adv, inlier):
    """The outlier bank by the dense rule: lambda_1 from eigh of Sigma, axes
    ordered by Sigma's diagonal. The generators must match it bitwise."""
    sigma = inlier.covariance()
    d = inlier.dim
    lam1 = float(dense_spectrum(sigma).eigenvalues[0])
    order = np.argsort(np.diag(sigma))
    if adv.kind is AdversaryKind.ORTHOGONAL_SPIKE:
        axis = int(order[0]) if adv.spike_axis is None else adv.spike_axis
        axes, mag = [axis], adv.spike_multiplier * math.sqrt(lam1 / adv.rate)
    elif adv.kind is AdversaryKind.MULTI_DIRECTION_HIDE:
        h = min(adv.n_directions, d)
        axes, mag = order[:h], math.sqrt(adv.hide_boost * lam1 * h / adv.rate)
    else:
        r = adv.projection_rank
        axes, mag = np.arange(r, d), math.sqrt(lam1 * (d - r) / adv.rate)
    bank = np.zeros((len(axes), d))
    bank[np.arange(len(axes)), axes] = mag
    return bank


def _generate(spec, adv, seed):
    pts, labels = gen_inliers(spec, 200, np.random.default_rng(seed))
    batch = strong_contaminate(pts, labels, adv, spec, np.random.default_rng(seed + 1))
    stream = tv_contaminated_source(spec, adv, np.random.default_rng(seed + 2))
    return batch, stream.draw_labeled(200)


@pytest.mark.parametrize("family", list(InlierFamily), ids=lambda f: f.name)
@pytest.mark.parametrize("d", [5, 50, 256])
def test_generators_match_the_dense_reference(monkeypatch, family, d):
    rng = np.random.default_rng(d)
    specs = [InlierSpec(dim=d, diag=1.0, spikes=((0, 9.0),), family=family),
             InlierSpec(dim=d, diag=tuple(rng.uniform(0.5, 2.0, size=d)),
                        spikes=((d - 1, 4.0), (d // 3, 2.5)), family=family)]
    for spec in specs:
        sigma = spec.covariance()
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        assert metric_approx_ratio(u, sigma) == (
            float(u @ sigma @ u) / float(dense_spectrum(sigma).eigenvalues[0]))
        for adv in _adversaries(d):
            np.testing.assert_array_equal(contamination._outlier_bank(adv, spec),
                                          reference_bank(adv, spec))
            got = _generate(spec, adv, seed=d)
            with monkeypatch.context() as m:
                m.setattr(contamination, "_outlier_bank", reference_bank)
                want = _generate(spec, adv, seed=d)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part[0], want_part[0])
                np.testing.assert_array_equal(got_part[1], want_part[1])


def test_large_dim_generated_and_scored():
    # Nothing decomposes a d x d matrix while generating, and the score's
    # eigvalsh has no cap on d.
    d, n = 1000, 40
    for family in InlierFamily:
        spec = InlierSpec(dim=d, diag=1.0, spikes=((0, 9.0),), family=family)
        for adv in _adversaries(d):
            src = tv_contaminated_source(spec, adv, np.random.default_rng(25))
            pts, _labels = src.draw_labeled(n)
            assert pts.shape == (n, d)
            pts, labels = gen_inliers(spec, n, np.random.default_rng(26))
            pts, labels = strong_contaminate(pts, labels, adv, spec,
                                             np.random.default_rng(27))
            assert pts.shape == (n, d)
            assert np.count_nonzero(~labels) == math.floor(adv.rate * n)
    u = np.zeros(d)
    u[1] = 1.0
    assert metric_approx_ratio(u, spec.covariance()) == 0.1
