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


def opnorm_bracket(points: np.ndarray, weights: np.ndarray, eps: float) -> float:
    """Trimmed mean of the survivors' squared norms at tail 3*eps.

    Brackets the top variance within a dimension factor: the value lands
    between (1-O(gamma))*||Sigma||_op and (1+O(gamma))*d*||Sigma||_op for
    stable inlier sets. With fewer than 1/(3 eps) survivors the tail rounds
    to zero samples and no trimming occurs.
    """
    points = np.asarray(points, dtype=np.float64)
    g = np.einsum("ij,ij->i", points, points)[np.asarray(weights, dtype=bool)]
    tail = 3.0 * eps
    if tail >= 1.0:
        raise ValueError(f"3*eps must be below 1, got eps={eps}")
    return trimmed_variance(g, weighted_quantile(g, tail), points.shape[0])


def stream_mean_estimate(draw_scores, fail_prob: float, *, n_batch: int,
                         chunk: int = 4096,
                         ledger: ScalarLedger | None = None) -> float:
    """Median of batch means of a bounded nonnegative score stream.

    ``draw_scores(k)`` returns k fresh values of the target functional
    (already weighted and capped by the caller). The batch count is
    ceil(log2(1/fail_prob)); each batch averages max(32, n_batch) draws.
    """
    n_batch = max(32, int(n_batch))
    reps = max(1, int(math.ceil(math.log2(1.0 / fail_prob))))
    ledger = ledger if ledger is not None else ScalarLedger()

    means = []
    with ledger.reserve(min(chunk, n_batch) + reps):
        for _ in range(reps):
            total = 0.0
            seen = 0
            while seen < n_batch:
                take = min(chunk, n_batch - seen)
                vals = np.asarray(draw_scores(take), dtype=np.float64)
                total += float(np.sum(vals))
                seen += take
            means.append(total / n_batch)
    return max(0.0, float(np.median(means)))
