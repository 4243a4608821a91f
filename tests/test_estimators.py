import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpca import (
    opnorm_bracket,
    stream_mean_estimate,
    streaming_quantile,
    trimmed_variance,
    weighted_quantile,
)
from robustpca.errors import DegenerateStateError


def sort_scan_quantile(scores, weights, tail):
    # Independent oracle: try every attained value ascending, return the first
    # whose strictly-greater surviving mass is within the tail.
    surv = np.sort(scores[weights])
    m = surv.size
    for val in surv:
        if np.count_nonzero(surv > val) / m <= tail + 1e-15:
            return float(val)
    raise AssertionError("unreachable")


def attained_tail(scores, value):
    return np.count_nonzero(scores > value) / scores.size


def test_weighted_quantile_uniform_scores():
    scores = np.arange(1.0, 101.0)
    qt = weighted_quantile(scores, 0.03)
    assert qt == 97.0
    assert attained_tail(scores, qt) == pytest.approx(0.03)


def test_weighted_quantile_all_equal():
    scores = np.full(10, 5.0)
    qt = weighted_quantile(scores, 0.2)
    assert qt == 5.0 and attained_tail(scores, qt) == 0.0


def test_weighted_quantile_zero_tail_is_max():
    scores = np.array([3.0, 9.0, 1.0])
    qt = weighted_quantile(scores, 0.0)
    assert qt == 9.0


def test_weighted_quantile_matches_sort_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(5, 60))
        scores = np.round(rng.uniform(0, 10, size=n), 1)  # force ties
        weights = rng.random(n) < 0.8
        if not weights.any():
            weights[0] = True
        tail = float(rng.uniform(0.0, 0.5))
        got = weighted_quantile(scores[weights], tail)
        assert got == sort_scan_quantile(scores, weights, tail)


def test_weighted_quantile_monotone_in_tail():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0, 5, size=50)
    values = [weighted_quantile(scores, t) for t in (0.0, 0.1, 0.2, 0.4)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_weighted_quantile_no_survivors():
    with pytest.raises(DegenerateStateError):
        weighted_quantile(np.ones(4)[np.zeros(4, dtype=bool)], 0.1)


def test_streaming_quantile_constant_source():
    qt = streaming_quantile(lambda k: np.full(k, 2.5), tail=0.1, fail_prob=0.05)
    assert qt == 2.5


def test_streaming_quantile_discrete_source_tail():
    # Values 1..1000 uniformly: exact population tail of {X > L} is known.
    rng = np.random.default_rng(4)

    def draw(k):
        return rng.integers(1, 1001, size=k).astype(float)

    qt = streaming_quantile(draw, tail=0.2, fail_prob=0.01, c_q=20_000)
    pop_tail = np.mean(np.arange(1, 1001) > qt)
    assert abs(pop_tail - 0.2) <= 0.01 * 0.2 + 1e-9


def test_streaming_quantile_frees_buffer():
    from robustpca import ScalarLedger
    led = ScalarLedger()
    streaming_quantile(lambda k: np.random.default_rng(0).random(k),
                       tail=0.1, fail_prob=0.1, ledger=led)
    assert led.current == 0 and led.peak > 0


def test_trimmed_variance_orthogonal_points_zero():
    pts = np.array([[0.0, 1.0], [0.0, -2.0]])
    v = np.array([1.0, 0.0])
    assert trimmed_variance((pts @ v) ** 2, cap=10.0, n_total=2) == 0.0


def normal_sf(t):
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def chi2_1_trimmed_mean(tail):
    """Closed form E[Z^2 1(Z^2 <= q)] with q the upper-`tail` chi^2_1 quantile."""
    lo, hi = 0.0, 40.0
    for _ in range(200):  # bisection for q: P(chi^2_1 > q) = tail
        mid = (lo + hi) / 2
        if 2 * normal_sf(math.sqrt(mid)) > tail:
            lo = mid
        else:
            hi = mid
    t = math.sqrt((lo + hi) / 2)
    phi = math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    return 1.0 - 2.0 * (t * phi + normal_sf(t))


def test_trimmed_variance_clean_gaussian_matches_analytic():
    # Trimming the top 3*eps of chi^2 scores removes real inlier mass too;
    # the estimator must match the closed-form trimmed mean, and sit inside
    # the (1 +- 4 gamma) stability band for any admissible gamma >= 20 eps.
    rng = np.random.default_rng(5)
    n, eps = 50_000, 0.05
    pts = rng.standard_normal((n, 3))
    v = np.array([1.0, 0.0, 0.0])
    f = (pts @ v) ** 2
    cap = weighted_quantile(f, 3 * eps)
    got = trimmed_variance(f, cap, f.size)
    want = chi2_1_trimmed_mean(3 * eps)
    assert got == pytest.approx(want, rel=0.05)
    gamma = 20 * eps
    assert 1 - 4 * gamma <= got <= 1 + 4 * gamma


def test_trimmed_at_most_untrimmed():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((500, 4)) * 2
    w = rng.random(500) < 0.9
    v = rng.standard_normal(4)
    f = (pts @ v) ** 2
    full = trimmed_variance(f[w], math.inf, f.size)
    for cap in (0.5, 2.0, 10.0):
        assert trimmed_variance(f[w], cap, f.size) <= full + 1e-12


def test_trimmed_variance_ratio_band_on_clean_data():
    # Clean Gaussian data, n >= 500 d / eps^2: the trimmed/true ratio stays
    # inside [1 - 5 gamma, 1 + 5 gamma] across random unit directions.
    rng = np.random.default_rng(7)
    d, eps, gamma = 3, 0.05, 0.15
    n = int(500 * d / eps ** 2)
    scales = np.array([2.0, 1.0, 0.5])
    pts = rng.standard_normal((n, d)) * np.sqrt(scales)
    for _ in range(20):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        truth = float(v @ np.diag(scales) @ v)
        f = (pts @ v) ** 2
        cap = weighted_quantile(f, 3 * eps)
        ratio = trimmed_variance(f, cap, f.size) / truth
        assert 1 - 5 * gamma <= ratio <= 1 + 5 * gamma


def test_opnorm_bracket_identity_covariance():
    # Small eps (the regime where the bracket contract applies): the trimmed
    # trace sits near tr(Sigma) = d and inside (0.8 op, 2 d op).
    rng = np.random.default_rng(8)
    d = 10
    pts = rng.standard_normal((20_000, d))
    val = opnorm_bracket(pts, np.ones(20_000, dtype=bool), eps=0.002)
    assert 0.8 * 1.0 < val < 2 * d * 1.0
    assert val == pytest.approx(d, rel=0.1)


def test_opnorm_bracket_identity_desk_scale_eps():
    # At eps = 0.05 the trim bias is substantial but the bracket still holds
    # because the trace carries a factor d of headroom.
    rng = np.random.default_rng(8)
    d = 10
    pts = rng.standard_normal((20_000, d))
    val = opnorm_bracket(pts, np.ones(20_000, dtype=bool), eps=0.05)
    assert 0.8 * 1.0 < val < 2 * d * 1.0


def test_opnorm_bracket_rank_one():
    rng = np.random.default_rng(9)
    pts = np.zeros((30_000, 5))
    pts[:, 0] = rng.standard_normal(30_000)
    val = opnorm_bracket(pts, np.ones(30_000, dtype=bool), eps=0.002)
    assert val == pytest.approx(1.0, rel=0.15)
    assert 0.8 < val < 2 * 5


def test_opnorm_bracket_single_point_no_trim():
    val = opnorm_bracket(np.array([[1.0, 0.0]]), np.ones(1, dtype=bool), eps=0.05)
    assert val == 1.0


def test_stream_mean_constant_source():
    got = stream_mean_estimate(lambda k: np.full(k, 3.25), fail_prob=0.1, n_batch=64)
    assert got == pytest.approx(3.25)


def test_stream_mean_two_point_source():
    rng = np.random.default_rng(10)

    def draw(k):
        signs = rng.integers(0, 2, size=k) * 2.0 - 1.0
        return (signs * 1.0) ** 2  # (v . x)^2 for x = +-e1, v = e1

    # Chebyshev sizing for score bound 1 at rel_tol = abs_tol = 0.05.
    n_batch = math.ceil(1.0 / (0.05 * 0.05))
    got = stream_mean_estimate(draw, fail_prob=0.05, n_batch=n_batch)
    assert got == pytest.approx(1.0)


def test_stream_mean_tracks_batch_oracle():
    # Finite population: the stream estimate of the trimmed second moment
    # should land within its declared tolerance nearly always.
    pop_rng = np.random.default_rng(11)
    pop = pop_rng.standard_normal((4000, 4)) * np.array([2.0, 1.0, 1.0, 0.5])
    v = np.array([1.0, 0.0, 0.0, 0.0])
    f = (pop @ v) ** 2
    cap = weighted_quantile(f, 0.1)
    truth = trimmed_variance(f, cap, f.size)
    rel, abs_ = 0.05, 0.05
    # Chebyshev sizing: n_batch = score bound / (rel_tol * abs_tol).
    n_batch = math.ceil(float(cap) / (rel * abs_))
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)

        def draw(k):
            f = (pop[rng.integers(0, 4000, size=k)] @ v) ** 2
            return np.where(f <= cap, f, 0.0)

        got = stream_mean_estimate(draw, fail_prob=0.05, n_batch=n_batch)
        if abs(got - truth) <= rel * truth + abs_:
            hits += 1
    assert hits >= 95


def test_stream_mean_requires_sizing_information():
    # The per-batch draw count has no default; the caller sizes it.
    with pytest.raises(TypeError):
        stream_mean_estimate(lambda k: np.zeros(k), fail_prob=0.1)


@settings(max_examples=80, deadline=None)
@given(
    scores=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=50),
    tail=st.floats(min_value=0.0, max_value=0.9),
)
def test_weighted_quantile_definition_property(scores, tail):
    # L is attained, the strictly-greater mass is within the tail, and no
    # smaller attained value satisfies that.
    scores = np.asarray(scores)
    qt = weighted_quantile(scores, tail)
    assert qt in scores
    assert attained_tail(scores, qt) <= tail + 1e-12
    smaller = scores[scores < qt]
    if smaller.size:
        runner_up = float(smaller.max())
        assert np.count_nonzero(scores > runner_up) / scores.size > tail
