import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpca import (
    ReplaySource,
    opnorm_bracket,
    stream_mean_estimate,
    streaming_quantile,
    trimmed_variance,
    weighted_quantile,
)
from robustpca.errors import DegenerateStateError
from robustpca.estimators import (
    C_Q,
    FIRST_STAGE,
    QUANTILE_ACCURACY,
    STREAM_CHUNK,
    mean_ceiling,
    mean_stages,
    merge_moments,
    stage_interval,
    stage_log,
    streaming_quantile_samples,
)


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


@pytest.mark.parametrize("c_q", [0.0, -1.0, math.nan, math.inf])
def test_streaming_quantile_samples_rejects_a_bad_constant(c_q):
    with pytest.raises(ValueError, match="c_q must be positive and finite"):
        streaming_quantile_samples(0.1, 0.05, c_q)


# Laws with known tails: a draw of n scores and (P(X > q), P(X >= q)).
_TAIL_LAWS = {
    "uniform": (lambda rng, n: rng.random(n), lambda q: (1.0 - q, 1.0 - q)),
    "exponential": (lambda rng, n: rng.exponential(1.0, n),
                    lambda q: (np.exp(-q), np.exp(-q))),
    # Atoms of 1/10 at 1..10: at tail 0.1 only the cuts 9 and 10 are right.
    "atoms": (lambda rng, n: rng.integers(1, 11, n).astype(float),
              lambda q: ((10.0 - q) / 10.0, (11.0 - q) / 10.0)),
}


@pytest.mark.parametrize("law", sorted(_TAIL_LAWS))
def test_streaming_quantile_cut_lands_within_its_accuracy(law):
    # The claim of streaming_quantile_samples at tau = QUANTILE_ACCURACY =
    # 1/2: the cut drops less than (1 + tau) t of the mass, and with its
    # atom more than (1 - tau) t, but with probability fail_prob. Over 2,000
    # fixed-seed blocks the share that miss may exceed fail_prob only by
    # three binomial standard deviations.
    draw, tails = _TAIL_LAWS[law]
    tail, fail_prob, trials, tau = 0.1, 0.05, 2000, QUANTILE_ACCURACY
    assert C_Q == 3 / tau ** 2 == 12
    m = streaming_quantile_samples(tail, fail_prob)
    assert m == math.ceil(12 * math.log(2 / fail_prob) / tail)
    blocks = draw(np.random.default_rng(11), trials * m).reshape(trials, m)
    cuts = np.array([streaming_quantile(lambda k, b=b: b, tail, fail_prob) for b in blocks])
    above, at_or_above = tails(cuts)
    missed = (above >= (1 + tau) * tail) | (at_or_above <= (1 - tau) * tail)
    slack = 3 * math.sqrt(fail_prob * (1 - fail_prob) / trials)
    assert missed.mean() <= fail_prob + slack


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


def _sq_norms(pts):
    return np.einsum("ij,ij->i", pts, pts)


def test_opnorm_bracket_identity_covariance():
    # Small eps (the regime where the bracket contract applies): the trimmed
    # trace sits near tr(Sigma) = d and inside (0.8 op, 2 d op).
    rng = np.random.default_rng(8)
    d = 10
    pts = rng.standard_normal((20_000, d))
    val = opnorm_bracket(_sq_norms(pts), eps=0.002, n_total=20_000)
    assert 0.8 * 1.0 < val < 2 * d * 1.0
    assert val == pytest.approx(d, rel=0.1)


def test_opnorm_bracket_identity_desk_scale_eps():
    # At eps = 0.05 the trim bias is substantial but the bracket still holds
    # because the trace carries a factor d of headroom.
    rng = np.random.default_rng(8)
    d = 10
    pts = rng.standard_normal((20_000, d))
    val = opnorm_bracket(_sq_norms(pts), eps=0.05, n_total=20_000)
    assert 0.8 * 1.0 < val < 2 * d * 1.0


def test_opnorm_bracket_rank_one():
    rng = np.random.default_rng(9)
    pts = np.zeros((30_000, 5))
    pts[:, 0] = rng.standard_normal(30_000)
    val = opnorm_bracket(_sq_norms(pts), eps=0.002, n_total=30_000)
    assert val == pytest.approx(1.0, rel=0.15)
    assert 0.8 < val < 2 * 5


def test_opnorm_bracket_single_point_no_trim():
    val = opnorm_bracket(np.array([1.0]), eps=0.05, n_total=1)
    assert val == 1.0


def test_stream_mean_constant_source():
    got = stream_mean_estimate(lambda k: np.full(k, 3.25), fail_prob=0.1, score_bound=4.0,
                               rel_tol=0.25, floor=1.0)
    assert got == pytest.approx(3.25)


def test_stream_mean_two_point_source():
    rng = np.random.default_rng(10)

    def draw(k):
        signs = rng.integers(0, 2, size=k) * 2.0 - 1.0
        return (signs * 1.0) ** 2  # (v . x)^2 for x = +-e1, v = e1

    got = stream_mean_estimate(draw, fail_prob=0.05, score_bound=1.0, rel_tol=0.05, floor=0.5)
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
    # Above the floor the estimate lies within a factor 1 + rel of the
    # truth, and below it within floor * rel / (1 + rel) = abs_.
    floor = abs_ * (1 + rel) / rel
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)

        def draw(k):
            f = (pop[rng.integers(0, 4000, size=k)] @ v) ** 2
            return np.where(f <= cap, f, 0.0)

        got = stream_mean_estimate(draw, fail_prob=0.05, score_bound=float(cap),
                                   rel_tol=rel, floor=floor)
        if abs(got - truth) <= rel * truth + abs_:
            hits += 1
    assert hits >= 95


def test_stream_mean_requires_sizing_information():
    # The score bound has no default: the caller states it, and the row
    # ceiling follows from it and the question.
    with pytest.raises(TypeError):
        stream_mean_estimate(lambda k: np.zeros(k), fail_prob=0.1)


def _counted(draw):
    """``draw`` wrapped to record the size of every call."""
    sizes = []

    def inner(k):
        sizes.append(k)
        return draw(k)

    return inner, sizes


def _recorded(draw):
    """``draw`` wrapped to keep every value it hands out."""
    rows = []

    def inner(k):
        rows.append(draw(k))
        return rows[-1]

    return inner, rows


def _interval(x, bound, n_stages, fail_prob):
    """The stage interval of the rows x, from numpy's own mean and variance."""
    n, log_j = x.size, stage_log(n_stages, fail_prob)
    half = (math.sqrt(2 * np.var(x, ddof=1) * log_j / n)
            + 7 * bound * log_j / (3 * (n - 1)))
    return float(np.mean(x)) - half, float(np.mean(x)) + half


def test_stream_mean_settles_a_clear_decision_at_the_first_stage():
    # Scores 0 or 1, mean 1/2, against a bar of 0.05 at margin 1/4. The
    # ceiling is 6,938 rows in J = 6 stages, so L = ln(4 * 6 / 0.1) = 5.48,
    # and at the first stage of 256 rows the half-width is about
    # sqrt(2 * 0.25 * 5.48 / 256) + 7 * 5.48 / (3 * 255) = 0.103 + 0.050:
    # the interval lies above the bar.
    rng = np.random.default_rng(12)
    draw, rows = _recorded(lambda k: (rng.random(k) < 0.5).astype(float))
    got = stream_mean_estimate(draw, 0.1, score_bound=1.0, bar=0.05, margin=0.25)
    assert mean_ceiling(1.0, 0.1, bar=0.05, margin=0.25) == 6938
    assert len(mean_stages(6938)) == 6
    assert [r.size for r in rows] == [FIRST_STAGE]
    assert got == float(np.mean(rows[0]))
    assert _interval(rows[0], 1.0, 6, 0.1)[0] > 0.05


@pytest.mark.parametrize("bound, bar", [(math.inf, 0.05), (1.0, 0.0), (1e308, 1e-300)])
def test_stream_mean_without_a_finite_ceiling_raises(bound, bar):
    # An infinite score bound, a zero level and a B / level that overflows
    # leave no finite count of rows that answers the question: a typed error
    # before any draw, never an endless one.
    draw, sizes = _counted(lambda k: np.zeros(k))
    with pytest.raises(DegenerateStateError, match="no finite row ceiling"):
        stream_mean_estimate(draw, 0.1, score_bound=bound, bar=bar, margin=0.25)
    assert sizes == []


def test_stream_mean_batches_nest_up_to_the_ceiling():
    # A decision against the true mean of U(0, 1) scores, 1/2, settles at no
    # stage here. The ceiling at margin 0.2 is 843 rows, and the one running
    # sample grows by 256, 256 and 331 rows over the stages of 256, 512 and
    # 843 rows, in chunks of at most STREAM_CHUNK; its mean at the ceiling is
    # the mean of the same 843 rows, replayed from a twin source.
    pool = np.random.default_rng(14).random((7000, 1))
    src = ReplaySource(pool, mode="cycle")
    draw, sizes = _counted(lambda k: src.draw(k)[:, 0])
    got = stream_mean_estimate(draw, 0.1, score_bound=1.0, bar=0.5, margin=0.2)
    n = mean_ceiling(1.0, 0.1, bar=0.5, margin=0.2)
    assert mean_stages(n) == [256, 512, n] == [256, 512, 843]
    assert sizes == [256, 256, 331]

    twin = ReplaySource(pool, mode="cycle")
    assert got == pytest.approx(float(np.mean(twin.draw(n))), rel=1e-12)


def test_stream_mean_draws_in_stream_chunks():
    # Stages past STREAM_CHUNK rows are drawn a chunk at a time: the stage
    # of 2,048 rows adds 1,024 rows in one chunk, and the last stage, whose
    # ceiling is not a multiple of the chunk, ends on a short one.
    rng = np.random.default_rng(13)
    draw, sizes = _counted(lambda k: rng.random(k))
    stream_mean_estimate(draw, 0.1, score_bound=1.0, bar=0.5, margin=0.05)
    n = mean_ceiling(1.0, 0.1, bar=0.5, margin=0.05)
    assert STREAM_CHUNK == 1024 and sum(sizes) == n > 4 * STREAM_CHUNK
    assert max(sizes) == STREAM_CHUNK and sizes[-1] == (n - 2048) % STREAM_CHUNK


@pytest.mark.parametrize("bar", [0.36, 0.25])
def test_stream_mean_early_decisions_are_rarely_wrong(bar):
    # Two-point scores (1 with probability 0.3, else 0) have mean 0.3, a
    # fifth off the bar either way. Over 2,000 seeded runs the estimate
    # stops before its ceiling (3,993 or 5,948 rows at margin 0.1) in most,
    # and lands on the wrong side of the bar at an early stop in at most a
    # fail_prob share of them.
    fail_prob, runs = 0.1, 2000
    n_max = mean_ceiling(1.0, fail_prob, bar=bar, margin=0.1)
    rng = np.random.default_rng(15)
    early = wrong = 0
    for _ in range(runs):
        draw, sizes = _counted(lambda k: (rng.random(k) < 0.3).astype(float))
        got = stream_mean_estimate(draw, fail_prob, score_bound=1.0, bar=bar, margin=0.1)
        if sum(sizes) < n_max:
            early += 1
            wrong += (got >= bar) != (0.3 >= bar)
    assert early >= runs // 2
    assert wrong <= fail_prob * runs


@pytest.mark.parametrize("law", ["two_point", "uniform"])
def test_stream_mean_intervals_cover_the_true_mean(law):
    # Every stage interval of a run holds the true mean in at least a
    # 1 - fail_prob share of 400 seeded runs. The two-point law on {0, B}
    # with mean 0.002 B has the largest variance a mean that small allows,
    # B mu; at 256 rows it shows no nonzero score in about 60% of runs, so
    # the sample variance is 0 and only the 7 B L / (3 (n - 1)) term keeps
    # the true mean inside. The uniform law on [0, B] is spread evenly. Each
    # run decides against the true mean itself, so it stops before its
    # ceiling exactly when a stage interval misses the mean.
    fail_prob, bound, runs = 0.1, 8.0, 400
    mu = {"two_point": 0.002 * bound, "uniform": bound / 2}[law]
    margin = {"two_point": 1.0, "uniform": 0.1}[law]
    n_max = mean_ceiling(bound, fail_prob, bar=mu, margin=margin)
    stages = mean_stages(n_max)
    log_j = stage_log(len(stages), fail_prob)
    rng = np.random.default_rng(16)
    covered = 0
    for _ in range(runs):
        if law == "two_point":
            draw, rows = _recorded(lambda k: bound * (rng.random(k) < 0.002))
        else:
            draw, rows = _recorded(lambda k: bound * rng.random(k))
        stream_mean_estimate(draw, fail_prob, score_bound=bound, bar=mu, margin=margin)
        x = np.concatenate(rows)
        inside = True
        for n in stages[:-1]:
            if n <= x.size:
                lo, hi = stage_interval(merge_moments((0, 0.0, 0.0), x[:n]), bound, log_j)
                inside &= lo <= mu <= hi
        assert (x.size == n_max) == inside
        covered += inside
    assert covered >= (1 - fail_prob) * runs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bound=st.floats(1e-3, 1e4), level=st.floats(1e-3, 1e3),
       tol=st.floats(1e-3, 1.0), fail_prob=st.floats(1e-6, 0.5),
       decision=st.booleans())
def test_mean_ceiling_bounds_the_bernstein_deviation(bound, level, tol, fail_prob, decision):
    # At the ceiling n, with L from its own stage count, Bernstein's
    # deviation at the largest mean the question covers, a * level, is at
    # most t * level: (a, t) = (1 + 2 eta, eta) for a decision against
    # bar = (1 + eta) level, (1, rho / (1 + rho)) for a value above the
    # floor. n - 1 rows, with their own stage count, fall short.
    if decision:
        a, t = 1 + 2 * tol, tol
        n = mean_ceiling(bound, fail_prob, bar=(1 + tol) * level, margin=tol)
        level = (1 + tol) * level / (1 + tol)   # the level the rule derives
    else:
        a, t = 1.0, tol / (1 + tol)
        n = mean_ceiling(bound, fail_prob, rel_tol=tol, floor=level)

    def deviation(rows):
        log_j = stage_log(len(mean_stages(rows)), fail_prob)
        return math.sqrt(2 * bound * a * level * log_j / rows) + bound * log_j / (3 * rows)

    assert deviation(n) <= t * level * (1 + 1e-12)
    assert n == 1 or deviation(n - 1) > t * level * (1 - 1e-12)


def test_stream_mean_variance_does_not_cancel():
    # Scores 1e8 + U(0, 1): the sum of squares is about 1e16 n and
    # sum(x^2) - n m^2 keeps no digit of the spread, 1/12. Merged chunk by
    # chunk, the centred sum of squares matches numpy's variance of the
    # same rows to 1e-9 and is never negative.
    x = 1e8 + np.random.default_rng(17).random(3 * STREAM_CHUNK + 123)
    moments = (0, 0.0, 0.0)
    for start in range(0, x.size, STREAM_CHUNK):
        moments = merge_moments(moments, x[start:start + STREAM_CHUNK])
        n, mean, m2 = moments
        assert m2 >= 0.0
        assert n == min(start + STREAM_CHUNK, x.size)
        assert mean == pytest.approx(float(np.mean(x[:n])), rel=1e-12)
        assert m2 / (n - 1) == pytest.approx(float(np.var(x[:n], ddof=1)), rel=1e-9)


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
