"""Robust scalar estimators: quantile cutoffs, trimmed variances, stream means.

The common shape: project points onto a direction, square, cut the largest
tail at a quantile threshold, and average what's left. Under light-tailed
inliers the trimmed average tracks the true variance along the direction
even when an adversary inflates the raw average.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DegenerateStateError
from .sources import ScalarLedger

__all__ = [
    "weighted_quantile",
    "streaming_quantile",
    "streaming_quantile_samples",
    "trimmed_variance",
    "opnorm_bracket",
    "stream_mean_estimate",
]

# Rows at the first stage of a sequential stream mean.
FIRST_STAGE = 256
# Rows every streamed draw takes, and holds, at a time: the row chunks of
# ``linops.accepted_rows`` and the score chunks of ``stream_mean_estimate``.
STREAM_CHUNK = 1024
# Every trimmed estimate cuts the top TRIM_TAIL * eps of its scores.
TRIM_TAIL = 3.0
# Default relative accuracy tau of a stream quantile block, and the
# block-size constant c_q = 3 / tau^2 it takes (``streaming_quantile_samples``).
# At tau = 1/2 a block's cut at tail t lands between the t/2 and 3t/2 tails,
# the constant factor the filter's cutoff L needs: at tail 3 eps it lands
# between the 3 eps/2 and 9 eps/2 tails, and L is floored at
# ``driver.QUANTILE_FLOOR`` anyway. The prologue's prune radius (tail eps)
# and the certificate's trim cap take a finer tau = 1/6 of their own
# (``streaming.PRUNE_ACCURACY`` and ``certificate.TRIM_ACCURACY``, which give
# the reasons).
QUANTILE_ACCURACY = 0.5
C_Q = 3.0 / QUANTILE_ACCURACY ** 2


def trim_keep_share(t: float) -> float:
    """kappa(t) = 1 - t - 2 z phi(z), P(|Z| > z) = t: the variance a top-t trim keeps.

    For a standard Gaussian Z, phi its density and z with P(|Z| > z) = t,
    integration by parts (x^2 phi(x) = x phi(x) * x, and phi' = -x phi)
    gives E[Z^2 1(|Z| > z)] = 2 int_z^inf x^2 phi(x) dx = 2 z phi(z) + t.
    Since E[Z^2] = 1, cutting the top t share of the squared scores
    (x . u)^2 of a direction u along which x is Gaussian keeps kappa(t) of
    u's variance. kappa(0) = 1 and kappa falls as t grows, 1 - kappa(t) =
    O(t ln(1 / t)): 0.884 at t = 0.015, 0.684 at 0.06, 0.589 at 0.09.

    kappa is the Gaussian value. For other inliers it is as good as their
    stability: if a t-trim keeps within O(t ln(1 / t)) of the same share
    along every direction, as it does for Gaussians and sub-Gaussian
    families up to constants (Diakonikolas & Kane, "Recent advances in
    algorithmic high-dimensional robust statistics", 2019, section 2), the
    certificate's threshold (``certificate.acceptance_factors``) is off by
    that much, which its 1 - gamma / 2 slack covers at gamma >= eps ln(1 / eps).
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"tail must lie in [0, 1), got {t}")
    if t == 0.0:
        return 1.0
    z = NormalDist().inv_cdf(1.0 - t / 2.0)
    return 1.0 - t - 2.0 * z * NormalDist().pdf(z)


def weighted_quantile(scores: np.ndarray, tail: float) -> float:
    """Smallest survivor score L with surviving mass strictly above L <= tail.

    ``scores`` holds one score per surviving point. Tail mass rounds
    downward: with m survivors the cutoff is the (floor(tail*m)+1)-th largest
    score, so at most floor(tail*m) survivors lie strictly above it. ``tail``
    may be 0, making L the maximum.
    """
    if not (0.0 <= tail < 1.0):
        raise ValueError(f"tail must lie in [0, 1), got {tail}")
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.size
    if m == 0:
        raise DegenerateStateError("quantile over an empty survivor set")
    k_above = int(math.floor(tail * m + 1e-12))
    # (k_above+1)-th largest == index m-1-k_above in ascending order
    return float(np.partition(scores, m - 1 - k_above)[m - 1 - k_above])


def streaming_quantile_samples(tail: float, fail_prob: float, c_q: float = C_Q) -> int:
    """Block size m = ceil(c_q ln(2 / fail_prob) / tail) of a one-pass quantile.

    Claim: for i.i.d. scores X_1..X_m, any rank k with mt <= k <= mt + 1,
    tau <= 1/2 and c_q = 3 / tau^2, the k-th largest score q satisfies, with
    probability at least 1 - fail_prob,

        P(X > q) < (1 + tau) t   and   P(X >= q) > (1 - tau) t,   t = ``tail``.

    So a cut that drops the scores above q drops less than (1 + tau) t of
    the mass, and with the atom at q more than (1 - tau) t; for a law
    without atoms, q lies strictly between the (1 + tau) t and (1 - tau) t
    population tails. ``streaming_quantile`` takes k = ceil(mt) and
    ``weighted_quantile`` k = floor(mt) + 1, both in range (the 1e-12 in
    each only undoes the float error of the product mt).

    Proof. Too high a cut: P(X >= q) <= (1 - tau) t. The scores x with
    P(X >= x) <= (1 - tau) t form an up-set; take E = {X >= x0} if it
    contains its infimum x0 and E = {X > x0} otherwise, so that P(E) <=
    (1 - tau) t (in the second case as the limit of P(X >= x) for x
    decreasing to x0). q lies in the up-set, so the k largest
    scores all fall in E: at least k >= mt of m draws. That count is
    binomial; at its largest mean, mu = m (1 - tau) t, it reaches (1 + b) mu
    with b = tau / (1 - tau) <= 1, and the multiplicative Chernoff bound
    gives probability at most exp(-b^2 mu / 3) =
    exp(-tau^2 mt / (3 (1 - tau))). Too low a cut: P(X > q) >= (1 + tau) t.
    Symmetrically a fixed set F, {X > x1} or {X >= x1}, has P(F) >=
    (1 + tau) t and holds only scores strictly above q, at most k - 1 <= mt
    of them: at its smallest mean, mu' = m (1 + tau) t, a binomial at or
    below (1 - b') mu' with b' = tau / (1 + tau), with probability at most
    exp(-b'^2 mu' / 2) = exp(-tau^2 mt / (2 (1 + tau))). For tau <= 1/2
    both exponents are at least tau^2 mt / 3 = mt / c_q >= ln(2 /
    fail_prob) at the m above, so each side fails with probability at most
    fail_prob / 2. Each count is a sum of independent [0, 1] variables,
    which is all the Chernoff bounds use; ``streaming.MinibatchEstimators.prologue``
    applies them to a mean the same way.
    """
    if not (0.0 < tail < 1.0):
        raise ValueError(f"tail must lie in (0, 1), got {tail}")
    if not (0.0 < fail_prob < 1.0):
        raise ValueError("fail_prob must lie in (0, 1)")
    if not (0.0 < c_q < math.inf):
        raise ValueError(f"c_q must be positive and finite, got {c_q}")
    return int(math.ceil(c_q * math.log(2.0 / fail_prob) / tail))


def streaming_quantile(draw_scores, tail: float, fail_prob: float,
                       c_q: float = C_Q,
                       ledger: ScalarLedger | None = None) -> float:
    """Empirical upper-tail quantile from a one-pass sample block.

    ``draw_scores(k)`` must return k fresh scalar scores. The block of
    m = ``streaming_quantile_samples``(tail, fail_prob, c_q) scores lives
    only for the duration of the call; the estimate is the ceil(m*tail)-th
    largest, whose accuracy that function states and proves.
    """
    m = streaming_quantile_samples(tail, fail_prob, c_q)
    ledger = ledger if ledger is not None else ScalarLedger()
    with ledger.reserve(m):
        block = np.asarray(draw_scores(m), dtype=np.float64)
        if block.shape != (m,):
            raise ValueError(f"draw_scores returned shape {block.shape}, wanted ({m},)")
        k = max(1, int(math.ceil(m * tail - 1e-12)))
        return float(np.partition(block, m - k)[m - k])


def trimmed_variance(scores: np.ndarray, cap: float, n_total: int) -> float:
    """Sum of the survivor scores f(x) <= cap, divided by all n_total points.

    ``scores`` holds one precomputed score per surviving point, typically
    the squared projection (v.x)^2. Unnormalized: the divisor is n, not the
    surviving count, matching the population functional the stability
    bounds speak about.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return float(np.sum(scores[scores <= cap])) / n_total


def opnorm_bracket(sq_norms: np.ndarray, eps: float, n_total: int) -> float:
    """Trimmed mean of the survivors' squared norms at tail 3*eps, over n_total.

    ``sq_norms`` holds one squared norm per surviving point. Brackets the
    top variance within a dimension factor: the value lands between
    (1-O(gamma))*||Sigma||_op and (1+O(gamma))*d*||Sigma||_op for stable
    inlier sets. With fewer than 1/(3 eps) survivors the tail rounds to
    zero samples and no trimming occurs.
    """
    tail = TRIM_TAIL * eps
    if tail >= 1.0:
        raise ValueError(f"3*eps must be below 1, got eps={eps}")
    return trimmed_variance(sq_norms, weighted_quantile(sq_norms, tail), n_total)


def mean_stages(n_max: int) -> list[int]:
    """Total rows at each stage of ``stream_mean_estimate``.

    FIRST_STAGE * 2^j rows, doubling up to ``n_max`` and ending at it; one
    stage, ``n_max``, when it is at most FIRST_STAGE.
    """
    if n_max <= FIRST_STAGE:
        return [n_max]
    doublings = (-(-n_max // FIRST_STAGE) - 1).bit_length()
    return [FIRST_STAGE << j for j in range(doublings)] + [n_max]


def stage_log(n_stages: int, fail_prob: float) -> float:
    """L = ln(4 J / fail_prob), the log factor of each of J stage intervals."""
    return math.log(4.0 * n_stages / fail_prob)


def merge_moments(a: tuple[int, float, float], chunk: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, centred sum of squares) of a sample extended by ``chunk``.

    The chunk's own moments are taken about its own mean and merged with the
    pairwise update of Chan, Golub & LeVeque (1979), so the sum of squares
    is a sum of nonnegative terms: it cannot go negative or cancel the way
    sum(x^2) - n m^2 does when the mean is large against the spread.
    """
    n_a, mean_a, m2_a = a
    n_b = chunk.size
    mean_b = float(np.mean(chunk))
    m2_b = float(np.sum((chunk - mean_b) ** 2))
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta * delta * (n_a * n_b / n)


def stage_interval(moments: tuple[int, float, float], score_bound: float,
                   log_j: float) -> tuple[float, float]:
    """m -+ (sqrt(2 V L / n) + 7 B L / (3 (n - 1))) for a sample (n, m, M2), n >= 2.

    V = M2 / (n - 1) is the unbiased sample variance, B = ``score_bound``
    and L = ``log_j`` (``stage_log``); ``stream_mean_estimate`` states when
    the interval holds the true mean.
    """
    n, m, m2 = moments
    half = (math.sqrt(2.0 * m2 / (n - 1) * log_j / n)
            + 7.0 * score_bound * log_j / (3.0 * (n - 1)))
    return m - half, m + half


def mean_ceiling(score_bound: float, fail_prob: float, *, bar: float | None = None,
                 margin: float | None = None, rel_tol: float | None = None,
                 floor: float | None = None) -> int:
    """Row ceiling n_max of a ``stream_mean_estimate`` asked one question.

    Scores in [0, B], B = ``score_bound``, with mean mu have variance at most
    B mu, so by Bernstein's inequality n rows put the sample mean within
    D(mu) = sqrt(2 B mu L / n) + B L / (3 n) of mu, L = ``stage_log`` over
    the J = len(``mean_stages``(n)) stages. D(mu) <= t l for every mu <= a l
    once n >= k (B / l) L, k = ((sqrt(2 a) + sqrt(2 a + 4 t / 3)) / (2 t))^2,
    the root of sqrt(2 a / x) + 1 / (3 x) = t in x = n l / (B L). n_max is
    the smallest such n with its own J, which n <- ceil(k (B / l) L(J(n)))
    reaches from n = 0, as the right side never falls; no dimension enters.

    - A decision against ``bar`` at ``margin`` eta: l = bar / (1 + eta),
      a = 1 + 2 eta, t = eta. A mean mu <= l gives a sample mean of at most
      bar, and mu >= (1 + 2 eta) l one of at least bar (mu - D(mu) grows
      with mu there, at slope 1 - sqrt(B L / (2 n mu)) > 0): the decision is
      exact outside (bar / (1 + eta), bar (1 + 2 eta) / (1 + eta)).
    - A value to ``rel_tol`` rho above ``floor`` phi: l = phi, a = 1,
      t = rho / (1 + rho). D(mu) / mu falls as mu grows, so a mean mu >= phi
      gets a sample mean in [mu / (1 + rho), (1 + rho) mu], and a smaller
      one a sample mean within phi rho / (1 + rho) of it.

    A ceiling that is not finite (an infinite B, l = 0, or a B / l that
    overflows) raises DegenerateStateError before any draw.
    """
    if (bar is None) == (rel_tol is None):
        raise ValueError("ask one question: bar with margin, or rel_tol with floor")
    if bar is not None:
        level, a, t = bar / (1.0 + margin), 1.0 + 2.0 * margin, margin
    else:
        level, a, t = floor, 1.0, rel_tol / (1.0 + rel_tol)
    k = ((math.sqrt(2.0 * a) + math.sqrt(2.0 * a + 4.0 * t / 3.0)) / (2.0 * t)) ** 2
    scale = k * score_bound / level if level > 0.0 else math.inf
    n = 0
    while not (need := scale * stage_log(len(mean_stages(n)), fail_prob)) <= n:
        if not need < math.inf:
            raise DegenerateStateError(
                f"stream mean has no finite row ceiling: B = {score_bound}, level = {level}")
        n = math.ceil(need)
    return n


def stream_mean_estimate(draw_scores, fail_prob: float, *, score_bound: float,
                         bar: float | None = None, margin: float | None = None,
                         rel_tol: float | None = None, floor: float | None = None,
                         ledger: ScalarLedger | None = None) -> float:
    """Sequential mean of a bounded nonnegative score stream.

    ``draw_scores(k)`` returns k <= ``STREAM_CHUNK`` fresh values of the
    target functional (already weighted and capped by the caller), each in
    [0, ``score_bound``] = [0, B]. The caller asks one question: a decision
    against ``bar`` at ``margin``, settled once lo > bar or hi < bar, or a
    value to ``rel_tol`` above ``floor``, settled once hi <= (1 + rel_tol)
    lo. ``mean_ceiling`` sizes n_max from that question. One running sample
    grows through the stages of ``mean_stages``(n_max), and after each stage
    the interval [lo, hi] is ``stage_interval`` at L = ``stage_log``(J,
    fail_prob) over the J stages. The call returns m at the first stage
    whose interval settles the question, and otherwise at n_max.

    Each side of a stage's interval is the empirical-Bernstein bound of
    Maurer & Pontil (COLT 2009, Theorem 4) at fail_prob / (2 J). That bound
    joins two events of fail_prob / (4 J) each: Bernstein's inequality with
    the true variance sigma^2, |m - mu| <= sqrt(2 sigma^2 L / n) + B L / (3 n)
    on that side, and the sample deviation bounding sigma by sqrt(V) plus
    B sqrt(2 L / (n - 1)). So with probability at least 1 - fail_prob all
    of them hold at every stage: the true mean lies in every stage's
    interval, and an early m, which lies there too, falls on the true mean's
    side of ``bar``, or within a factor 1 + rel_tol of it. At n_max the
    true-variance Bernstein bound still holds, with sigma^2 <= B mu, and
    ``mean_ceiling`` states what it answers there; the robust test of
    ``certificate.sample_top_eigenvector_streaming`` is one such decision.
    """
    n_max = mean_ceiling(score_bound, fail_prob, bar=bar, margin=margin,
                         rel_tol=rel_tol, floor=floor)
    stages = mean_stages(n_max)
    log_j = stage_log(len(stages), fail_prob)
    ledger = ledger if ledger is not None else ScalarLedger()

    moments = (0, 0.0, 0.0)
    with ledger.reserve(min(STREAM_CHUNK, n_max) + 3):
        for n in stages:
            for start in range(moments[0], n, STREAM_CHUNK):
                chunk = np.asarray(draw_scores(min(STREAM_CHUNK, n - start)), dtype=np.float64)
                moments = merge_moments(moments, chunk)
            if n == n_max:
                break
            lo, hi = stage_interval(moments, score_bound, log_j)
            if (bar is not None and (lo > bar or hi < bar)) or \
                    (rel_tol is not None and hi <= (1.0 + rel_tol) * lo):
                break
    return moments[1]
