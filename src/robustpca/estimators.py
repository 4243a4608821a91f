"""Robust scalar estimators: quantile cutoffs, trimmed variances, stream means.

The common shape: project points onto a direction, square, cut the largest
tail at a quantile threshold, and average what's left. Under light-tailed
inliers the trimmed average tracks the true variance along the direction
even when an adversary inflates the raw average.
"""

from __future__ import annotations

import math

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

# Rows per batch at the first stage of a sequential median-of-means.
FIRST_STAGE = 256
# Scores a median-of-means draws, and holds, at a time.
MEAN_CHUNK = 4096
# Every trimmed estimate cuts the top TRIM_TAIL * eps of its scores.
TRIM_TAIL = 3.0


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


def streaming_quantile_samples(tail: float, fail_prob: float, c_q: float = 200.0) -> int:
    if not (0.0 < tail < 1.0):
        raise ValueError(f"tail must lie in (0, 1), got {tail}")
    if not (0.0 < fail_prob < 1.0):
        raise ValueError("fail_prob must lie in (0, 1)")
    return int(math.ceil(c_q * (1.0 / tail) * math.log(1.0 / fail_prob)))


def streaming_quantile(draw_scores, tail: float, fail_prob: float,
                       c_q: float = 200.0,
                       ledger: ScalarLedger | None = None) -> float:
    """Empirical upper-tail quantile from a one-pass sample block.

    ``draw_scores(k)`` must return k fresh scalar scores. The block of
    m = ceil(c_q * (1/tail) * ln(1/fail_prob)) scores lives only for the
    duration of the call; the estimate is the ceil(m*tail)-th largest.
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


def mom_interval(m: float, score_bound: float, n: int) -> tuple[float, float]:
    """Means mu whose batch means over n draws lie within 4 sqrt(B mu / n) of m.

    Scores in [0, B] have variance at most B mu, so a batch mean of n draws
    lies within 4 sqrt(B mu / n) of mu with probability at least 15/16
    (Chebyshev). Solving |m - mu| <= 4 sqrt(B mu / n) for mu gives
    [(s - 2a)^2, (s + 2a)^2] with a = sqrt(B / n), s = sqrt(m + 4 a^2); the
    lower end is computed as (m / (s + 2a))^2, which does not cancel.
    Both ends bracket m.
    """
    a = math.sqrt(score_bound / n)
    root = math.sqrt(m + 4.0 * a * a) + 2.0 * a
    return ((m / root) ** 2 if root > 0.0 else 0.0), root * root


def mom_stages(n_batch: int, score_bound: float) -> list[int]:
    """Rows per batch at each stage of a sequential median-of-means.

    FIRST_STAGE * 2^j rows, doubling up to ``n_batch`` and ending at it. One
    stage, ``n_batch``, when the scores have no finite bound or ``n_batch``
    is at most FIRST_STAGE.
    """
    if not math.isfinite(score_bound) or n_batch <= FIRST_STAGE:
        return [n_batch]
    doublings = (-(-n_batch // FIRST_STAGE) - 1).bit_length()
    return [FIRST_STAGE << j for j in range(doublings)] + [n_batch]


def stream_mean_estimate(draw_scores, fail_prob: float, *, n_batch: int,
                         score_bound: float = math.inf, bar: float | None = None,
                         rel_tol: float | None = None,
                         ledger: ScalarLedger | None = None) -> float:
    """Sequential median of batch means of a nonnegative score stream.

    ``draw_scores(k)`` returns k <= ``MEAN_CHUNK`` fresh values of the
    target functional (already weighted and capped by the caller), each in
    [0, ``score_bound``] = [0, B]. The r batches grow together in the stages
    of ``mom_stages``, and the estimate m is the median of the r running
    batch means. The call returns at the first stage whose interval [lo, hi]
    (``mom_interval``) settles the caller's question, and otherwise at the
    last, ``n_batch`` (at least 32) rows per batch. The question is a
    decision against ``bar``, settled once lo > bar or hi < bar, or a value
    to ``rel_tol``, settled once hi <= (1 + rel_tol) lo.

    The median leaves [lo, hi] only if at least r/2 batch means leave their
    15/16 Chebyshev band, which has probability at most
    2^r (1/16)^(r/2) = 2^-r. With J stages, r = ceil(log2(J / fail_prob)),
    so with probability at least 1 - fail_prob the true mean lies in every
    stage's interval, and an early m, which lies there too, falls on the
    true mean's side of ``bar``, or within a factor 1 + rel_tol of it. The
    last stage is a fixed-size median-of-means of at least
    ceil(log2(1/fail_prob)) batches of ``n_batch`` rows, so a caller that
    sized ``n_batch`` for its decision keeps that guarantee there. An
    estimate that never settles draws r / ceil(log2(1/fail_prob)) times the
    fixed-size rows: 7/4 at fail_prob 0.1 with 9 stages.
    """
    n_batch = max(32, int(n_batch))
    stages = mom_stages(n_batch, score_bound)
    reps = max(1, int(math.ceil(math.log2(len(stages) / fail_prob))))
    ledger = ledger if ledger is not None else ScalarLedger()

    totals = np.zeros(reps)
    drawn = 0
    with ledger.reserve(min(MEAN_CHUNK, n_batch) + reps):
        for n in stages:
            for i in range(reps):
                for start in range(drawn, n, MEAN_CHUNK):
                    totals[i] += np.sum(draw_scores(min(MEAN_CHUNK, n - start)))
            drawn = n
            m = max(0.0, float(np.median(totals / n)))
            if n == n_batch:
                break
            lo, hi = mom_interval(m, score_bound, n)
            if (bar is not None and (lo > bar or hi < bar)) or \
                    (rel_tol is not None and hi <= (1.0 + rel_tol) * lo):
                break
    return m
