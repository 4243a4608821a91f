import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpca import FilterLoopError, hard_thresholding_filter, hard_thresholding_filter_batch


def run_batch(f, w, n, L, t_hat, rng, delta=0.0):
    v = np.zeros(2)
    v[0] = 1.0
    return hard_thresholding_filter_batch(v, f, w, n, L, t_hat, rng, delta=delta)


def test_all_zero_scores_no_op():
    f = np.zeros(50)
    w = np.ones(50, dtype=bool)
    outcome, new_w = run_batch(f, w, 50, L=0.0, t_hat=0.1,
                               rng=np.random.default_rng(0))
    assert outcome.rounds == 0 and outcome.new_entry is None
    np.testing.assert_array_equal(new_w, w)


def test_single_outlier_removed_reliably():
    # Scores {0,...,0,100}: mean 1 > 2.5 * 0.1, and the outlier holds the max
    # score so the first draw r_1 ~ U([0, 100]) removes it almost surely.
    f = np.zeros(100)
    f[-1] = 100.0
    w = np.ones(100, dtype=bool)
    removed = 0
    for seed in range(2000):
        outcome, new_w = run_batch(f, w, 100, L=0.0, t_hat=0.1,
                                   rng=np.random.default_rng(seed))
        assert outcome.final_mean_score <= 2.5 * 0.1
        if not new_w[-1]:
            removed += 1
    assert removed >= 0.99 * 2000


def test_exit_bound_always_met():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(20, 200))
        f = rng.exponential(2.0, size=n) ** 2
        w = rng.random(n) < 0.9
        L = float(rng.uniform(0.0, 2.0))
        t_hat = float(rng.uniform(0.05, 1.0))
        delta = float(rng.uniform(0.0, 0.3))
        outcome, new_w = run_batch(f, w, n, L, t_hat, rng, delta=delta)
        assert outcome.final_mean_score <= 2.5 * (t_hat + delta) + 1e-12
        live = new_w & (f > L)
        assert np.sum(f[live]) / n <= 2.5 * (t_hat + delta) + 1e-12


def test_expected_removed_outlier_mass_dominates():
    # Labeled instance where (1-eps) E_G[w tau] < T and the loop fires: the
    # average removed outlier mass must not lag the removed inlier mass.
    rng = np.random.default_rng(2)
    n = 400
    n_out = 20
    f = np.concatenate([rng.uniform(0.0, 1.0, size=n - n_out),
                        rng.uniform(30.0, 60.0, size=n_out)])
    is_out = np.zeros(n, dtype=bool)
    is_out[n - n_out:] = True
    w = np.ones(n, dtype=bool)
    eps = n_out / n
    t_true = (1 - eps) * np.mean(f[~is_out]) * 1.3  # valid inlier-mean bound
    t_hat = t_true  # |T_hat - T| = 0 < T/5
    rem_out, rem_in = [], []
    for seed in range(2000):
        _outcome, new_w = run_batch(f, w, n, L=0.0, t_hat=t_hat,
                                    rng=np.random.default_rng(10_000 + seed))
        removed = w & ~new_w
        rem_out.append(np.count_nonzero(removed & is_out) / n)
        rem_in.append(np.count_nonzero(removed & ~is_out) / n)
    mean_out, mean_in = np.mean(rem_out), np.mean(rem_in)
    se = math.sqrt((np.var(rem_out) + np.var(rem_in)) / 2000)
    assert mean_out >= mean_in - 3 * se
    assert mean_out > 0


def test_threshold_chain_strictly_decreasing_and_compacted():
    rng = np.random.default_rng(3)
    f = rng.uniform(0.0, 50.0, size=300)
    w = np.ones(300, dtype=bool)
    thresholds = []

    class SpyRng:
        def __init__(self, inner):
            self.inner = inner

        def uniform(self):
            u = self.inner.uniform()
            thresholds.append(u)
            return u

    outcome, new_w = run_batch(f, w, 300, L=1.0, t_hat=0.2, rng=SpyRng(rng))
    assert outcome.rounds == len(thresholds) >= 1
    chain = [float(f[w & (f > 1.0)].max())]
    for u in thresholds:
        chain.append(chain[-1] * u)
    assert all(a > b for a, b in zip(chain, chain[1:]))
    # Survivors are exactly {f <= max(L, r_final)}.
    np.testing.assert_array_equal(new_w, f <= max(1.0, chain[-1]))
    assert outcome.new_entry.threshold_sq == max(1.0, chain[-1])


def test_survivor_monotone_per_round():
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 20, 100)
    w = np.ones(100, dtype=bool)
    seen = []

    def spy_mean(thr, _bound):
        live = w & (f > 0.5) & (f <= thr)
        seen.append(np.count_nonzero(f[w] <= max(0.5, thr)))
        return float(np.sum(f[live])) / 100

    hard_thresholding_filter(spy_mean, np.ones(2), L=0.5, T_hat=0.2,
                             R=float(f.max()), delta=0.0,
                             rng=np.random.default_rng(5))
    assert all(a >= b for a, b in zip(seen, seen[1:]))


def test_every_mean_is_asked_against_the_exit_bound():
    # The loop opens at thr = inf and then cuts at r_1 > r_2 > ...; every call
    # carries the exit bound (5/2)(T_hat + delta), so an estimator can stop
    # sampling once its comparison is settled without knowing the formula.
    f = np.random.default_rng(4).uniform(0, 20, 100)
    calls = []

    def spy_mean(thr, bound):
        calls.append((thr, bound))
        return float(np.sum(f[(f > 0.5) & (f <= thr)])) / 100

    out = hard_thresholding_filter(spy_mean, np.ones(2), L=0.5, T_hat=0.2,
                                   R=float(f.max()), delta=0.1,
                                   rng=np.random.default_rng(5))
    assert out.rounds == len(calls) - 1 >= 1
    assert calls[0][0] == math.inf
    assert all(a > b for (a, _), (b, _) in zip(calls, calls[1:]))
    assert {bound for _thr, bound in calls} == {2.5 * (0.2 + 0.1)}


def test_batch_and_callback_paths_agree_under_coupled_rng():
    rng = np.random.default_rng(6)
    f = rng.uniform(0, 30, size=250)
    w = rng.random(250) < 0.95
    L, t_hat = 2.0, 0.3
    out_a, w_a = run_batch(f, w, 250, L, t_hat, rng=np.random.default_rng(77))

    tau = np.where(w & (f > L), f, 0.0)
    R = float(tau.max())

    def mean_fn(thr, _bound):
        live = w & (f > L) & (f <= thr)
        return float(np.sum(f[live])) / 250

    out_b = hard_thresholding_filter(mean_fn, np.array([1.0, 0.0]), L, t_hat, R,
                                     0.0, np.random.default_rng(77))
    assert out_a.rounds == out_b.rounds
    assert out_a.final_mean_score == out_b.final_mean_score
    if out_a.new_entry is None:
        assert out_b.new_entry is None
    else:
        assert out_a.new_entry.threshold_sq == out_b.new_entry.threshold_sq
        np.testing.assert_array_equal(w_a, w & (f <= out_b.new_entry.threshold_sq))


def test_streaming_delta_loosens_exit():
    f = np.full(50, 4.0)
    w = np.ones(50, dtype=bool)
    # mean = 4; with delta = 1.5, bound = 2.5 * (0.2 + 1.5) = 4.25: no rounds.
    outcome, _ = run_batch(f, w, 50, L=1.0, t_hat=0.2,
                           rng=np.random.default_rng(8), delta=1.5)
    assert outcome.rounds == 0
    # Without the slack the loop must fire.
    outcome, _ = run_batch(f, w, 50, L=1.0, t_hat=0.2,
                           rng=np.random.default_rng(8), delta=0.0)
    assert outcome.rounds >= 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    L=st.floats(min_value=0.0, max_value=5.0),
    t_hat=st.floats(min_value=0.01, max_value=2.0),
)
def test_filter_survivors_are_exactly_a_threshold_cut(seed, L, t_hat):
    rng = np.random.default_rng(seed)
    f = rng.exponential(3.0, size=80) ** 2
    w = rng.random(80) < 0.9
    outcome, new_w = run_batch(f, w, 80, L, t_hat, rng=np.random.default_rng(seed + 1))
    assert outcome.final_mean_score <= 2.5 * t_hat + 1e-12
    if outcome.new_entry is None:
        np.testing.assert_array_equal(new_w, w)
    else:
        np.testing.assert_array_equal(new_w, w & (f <= outcome.new_entry.threshold_sq))
        assert outcome.new_entry.threshold_sq >= L


def test_runaway_guard_raises():
    calls = [0]

    def stuck_mean(thr, _bound):
        calls[0] += 1
        return 100.0  # never drops: simulated estimator failure

    with pytest.raises(FilterLoopError):
        hard_thresholding_filter(stuck_mean, np.ones(2), L=1.0, T_hat=0.1,
                                 R=1000.0, delta=0.0, rng=np.random.default_rng(9))


def test_threshold_law_does_not_depend_on_the_score_range():
    # From any R at or above the largest score, the first draw below it is
    # uniform below it, and draws above it keep the opening mean, so the
    # final threshold has one law whether R is the largest score or 10^4
    # times it. Integer scores keep every mean exact. Over 2,000 seeds a
    # side, the thresholds' two-sample KS distance stays below 0.043, the
    # 5% critical value, and the mean removed counts agree within three
    # standard errors; the looser R costs about ln(10^4) = 9.2 more rounds,
    # and the round cap, which grows with R, is never hit.
    f = np.concatenate([np.tile(np.arange(4.0), 225), np.arange(50.0, 150.0)])

    def mean_at(thr, _bound):
        return float(np.sum(f[f <= thr])) / f.size

    def run(R, seeds):
        outs = [hard_thresholding_filter(mean_at, np.ones(2), L=0.0, T_hat=1.0, R=R,
                                         delta=0.0, rng=np.random.default_rng(seed))
                for seed in seeds]
        thr = np.array([out.new_entry.threshold_sq for out in outs])
        removed = np.array([np.count_nonzero(f > t) for t in thr])
        return np.sort(thr), removed, np.mean([out.rounds for out in outs])

    tight, loose = run(f.max(), range(2000)), run(1e4 * f.max(), range(10_000, 12_000))
    grid = np.concatenate([tight[0], loose[0]])
    ks = np.max(np.abs(np.searchsorted(tight[0], grid, side="right")
                       - np.searchsorted(loose[0], grid, side="right"))) / 2000
    assert ks < 0.043
    se = math.sqrt((np.var(tight[1]) + np.var(loose[1])) / 2000)
    assert abs(np.mean(tight[1]) - np.mean(loose[1])) <= 3 * se
    assert 7 < loose[2] - tight[2] < 11.5


@pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
def test_score_range_is_checked_only_when_the_loop_fires(R):
    # R is read only once the opening mean exceeds the exit bound, so a
    # caller whose scores above L cannot exceed it may pass any R.
    def mean_at(level):
        return lambda _thr, bound: level * bound

    for level in (0.0, 0.5, 1.0):
        out = hard_thresholding_filter(mean_at(level), np.ones(2), L=1.0, T_hat=0.2,
                                       R=R, delta=0.1, rng=np.random.default_rng(10))
        assert out.new_entry is None and out.rounds == 0
        assert out.final_mean_score == level * 2.5 * (0.2 + 0.1)
    with pytest.raises(ValueError, match="score range R"):
        hard_thresholding_filter(mean_at(2.0), np.ones(2), L=1.0, T_hat=0.2,
                                 R=R, delta=0.1, rng=np.random.default_rng(10))
