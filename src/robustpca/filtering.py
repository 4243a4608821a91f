"""Randomized hard-thresholding outlier filter.

One call repeatedly draws a uniform threshold from a geometrically shrinking
range and removes every surviving point whose score exceeds it, until the
weighted mean score drops under (5/2)(T_hat + delta). A point's removal
probability per round is proportional to its score, which is what makes the
expected removed outlier mass dominate the removed inlier mass.

Only the final threshold matters for the surviving set, so the whole loop
compacts into a single (direction, max(L, r_final)) entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FilterEntry
from .errors import FilterLoopError

__all__ = ["FilterOutcome", "hard_thresholding_filter", "hard_thresholding_filter_batch"]

EXIT_FACTOR = 2.5


@dataclass
class FilterOutcome:
    new_entry: FilterEntry | None
    rounds: int
    final_mean_score: float


def hard_thresholding_filter(mean_score_fn, v: np.ndarray, L: float, T_hat: float,
                             R: float, delta: float, rng: np.random.Generator,
                             score_floor: float | None = None) -> FilterOutcome:
    """Run the threshold loop against an abstract mean-score evaluator.

    ``mean_score_fn(thr)`` must return the current mean of
    w(x) * f(x) * 1(L < f(x) <= thr) under the caller's weights, i.e. the
    weighted mean score after hypothetically cutting at thr. The loop draws
    r_0 = R, r_l ~ U([0, r_{l-1}]) and stops once the mean is at most
    (5/2)(T_hat + delta). Returns the compacted entry (v, max(L, r_final)),
    or no entry when the loop never fired.

    ``score_floor`` bounds the smallest positive score and only feeds the
    runaway guard; it defaults to L.
    """
    if T_hat < 0 or delta < 0:
        raise ValueError("T_hat and delta must be nonnegative")
    exit_bound = EXIT_FACTOR * (T_hat + delta)
    mean = float(mean_score_fn(math.inf))
    if mean <= exit_bound:
        return FilterOutcome(new_entry=None, rounds=0, final_mean_score=mean)
    if not (R > 0) or not math.isfinite(R):
        raise ValueError(f"score range R must be positive and finite, got {R}")

    floor = score_floor if score_floor is not None else L
    if floor > 0 and math.isfinite(R / floor) and R / floor > 1:
        max_rounds = 64 * max(1, math.ceil(math.log2(R / floor)))
    else:
        max_rounds = 64 * 64

    r = R
    rounds = 0
    while mean > exit_bound:
        if rounds >= max_rounds:
            raise FilterLoopError(
                f"thresholding loop exceeded {max_rounds} rounds "
                f"(mean={mean}, bound={exit_bound}, r={r})"
            )
        r = r * float(rng.uniform())
        rounds += 1
        mean = float(mean_score_fn(r))
        if r == 0.0:
            break
    # A zero draw (measure zero) removes every positive-score survivor; the
    # smallest positive float encodes that as a representable threshold.
    thr = max(L, r)
    if thr <= 0.0:
        thr = 5e-324
    return FilterOutcome(
        new_entry=FilterEntry(np.asarray(v, dtype=np.float64), thr),
        rounds=rounds,
        final_mean_score=mean,
    )


def hard_thresholding_filter_batch(v: np.ndarray, f_scores: np.ndarray,
                                   weights: np.ndarray, n_total: int, L: float,
                                   T_hat: float, rng: np.random.Generator,
                                   delta: float = 0.0,
                                   R: float | None = None):
    """Batch-exact variant over in-memory scores.

    Evaluates the mean score exactly each round. R defaults to the largest
    surviving score above L (the tightest valid range). Returns
    (outcome, new_weights).
    """
    f = np.asarray(f_scores, dtype=np.float64)
    w = np.asarray(weights, dtype=bool)
    active = w & (f > L)
    tau_active = f[active]

    if R is None:
        R = float(tau_active.max()) if tau_active.size else 0.0

    def mean_at(thr: float) -> float:
        return float(np.sum(tau_active[tau_active <= thr])) / n_total

    floor = L if L > 0 else (float(tau_active.min()) if tau_active.size else 0.0)
    outcome = hard_thresholding_filter(mean_at, v, L, T_hat, R if R > 0 else 1.0,
                                       delta, rng, score_floor=floor)
    if outcome.new_entry is None:
        return outcome, w
    return outcome, w & (f <= outcome.new_entry.threshold_sq)
