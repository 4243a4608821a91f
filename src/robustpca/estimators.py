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
    tail = 3.0 * eps
    if tail >= 1.0:
        raise ValueError(f"3*eps must be below 1, got eps={eps}")
    return trimmed_variance(sq_norms, weighted_quantile(sq_norms, tail), n_total)


def stream_mean_estimate(draw_scores, fail_prob: float, *, n_batch: int,
                         bands: int = 1, chunk: int = 4096,
                         ledger: ScalarLedger | None = None):
    """Median of batch means of a bounded nonnegative score stream.

    ``draw_scores(k)`` returns k fresh values of the target functional
    (already weighted and capped by the caller), or a (bands, k) array that
    scores the same k draws into ``bands`` functionals. The batch count is
    r = ceil(log2(1/fail_prob)); each batch averages max(32, n_batch) draws.
    The caller sizes ``n_batch`` so that a single batch mean lands on the
    wrong side of its decision with probability at most 1/16; the median is
    wrong only if at least r/2 batches are, which has probability at most
    2^r (1/16)^(r/2) = 2^-r <= fail_prob. Each band takes its own median, so
    each of its estimates keeps that bound; a caller that uses several
    union-bounds them. Returns a float, or one value per band.
    """
    n_batch = max(32, int(n_batch))
    reps = max(1, int(math.ceil(math.log2(1.0 / fail_prob))))
    ledger = ledger if ledger is not None else ScalarLedger()

    means = []
    with ledger.reserve(bands * (min(chunk, n_batch) + reps)):
        for _ in range(reps):
            total = 0.0
            for start in range(0, n_batch, chunk):
                total = total + np.sum(draw_scores(min(chunk, n_batch - start)), axis=-1)
            means.append(total / n_batch)
    return np.fmax(0.0, np.median(means, axis=0))
