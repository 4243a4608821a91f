"""Single-pass streaming driver.

Same control flow as the batch driver, but every population quantity is
answered by a one-pass estimator: minibatch moment products for directions, a
sampled block for quantiles, a sequential empirical-Bernstein mean
(``estimators.stream_mean_estimate``) for score averages, whose rows its
question sizes (``estimators.mean_ceiling``). Each estimate that can fail takes
its share of the solve's failure budget (``driver.failure_share``). At eps = 0
only certificates draw rows. The persistent state is the filter stack, one
candidate vector, and transient buffers of ``estimators.STREAM_CHUNK`` rows and
the minibatch block, whose sizes are set by the configuration, never by the
stream length; a scalar ledger meters the high-water mark. ``driver.drive``
registers at most one filter per iteration, so a solve's stack holds at most
t_end entries of d + 1 ledger scalars each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import DECISION_MARGIN, Candidate, sample_top_eigenvector_streaming
from .core import AlgoConfig, FilterEntry, FilterStack
from .driver import FILTER_TRIGGER, drive, solve_config
from .estimators import (opnorm_bracket, streaming_quantile, streaming_quantile_samples,
                          weighted_quantile)
from .linops import accepted_band_mean, accepted_scores, unit
from .sources import BudgetedSource, SampleSource, ScalarLedger

__all__ = ["StreamStats", "MinibatchEstimators", "streaming_robust_pca"]

# Moment-product minibatch: a desk constant, which no bound on the
# minibatch moment's error backs.
BATCH_SIZE_CAP = 4096
# Relative accuracy tau of the prologue's norm quantile (tail eps), and its
# block constant c_q = 3 / tau^2 (``estimators.streaming_quantile_samples``).
# The prune removes less than 7 eps / 6 of the stream, an O(eps) share as
# the paper's analysis allows, and its cut reaches more than 5 eps / 6 only
# with an atom at the cut counted, which it keeps: on ``stream_replay``,
# whose outliers share one norm, it removes no row. It is finer than the
# other blocks' tau = 1/2 because the prune is all or nothing for a cluster
# of large-norm outliers: a cut below them removes them all, one among them
# keeps them for the filter. For outliers at a rate inside the band the cut
# can land in, the first block's draw picks which, and with it whether a
# solve costs one certificate or several. At tau = 1/2 that band, eps / 2
# to 3 eps / 2, takes in every rate near eps; at 1/6 it is a sixth of eps
# either side. The block is drawn once per solve (13,280 rows at eps = 0.03
# and the solve's first failure share).
PRUNE_ACCURACY = 1.0 / 6.0
PRUNE_C_Q = 3.0 / PRUNE_ACCURACY ** 2


@dataclass
class StreamStats:
    samples_consumed: int
    peak_resident_scalars: int


class MinibatchEstimators:
    """One-pass stream answers for the shared driver loop."""

    def __init__(self, source: SampleSource, config: AlgoConfig, r_radius: float,
                 ledger: ScalarLedger):
        if not 1.0 <= r_radius < math.inf:
            raise ValueError(f"r_radius must be finite and at least 1, got {r_radius}")
        self.source = source
        self.config = config
        self.r_radius = r_radius
        self.ledger = ledger
        self.dim = source.dim
        self.stack = FilterStack()
        self._v: np.ndarray | None = None
        self._trim_floor = 0.0

    # -- prologue -------------------------------------------------------------

    def prologue(self, shares):
        """Prune radius^2 and sigma_op from one block of m squared norms h.

        At eps = 0, where ``drive`` reads neither, it draws nothing and keeps
        the infinite radius: each certificate bounds its own scores
        (``certificate.sample_top_eigenvector_streaming``). At eps > 0 the block
        is drawn under the empty stack, so every h is finite, and it answers two
        questions whose failures are union-bounded although they share rows
        (``linops.approx_power_iteration``). The radius^2 is the block's
        eps-tail cut, of rank floor(m eps) + 1, a squared norm as
        ``FilterStack.within_radius`` computes it, so the rows at the cut keep
        their weight. It errs with at most delta_1, the first share it takes, by
        the claim of ``estimators.streaming_quantile_samples``, which holds at
        any m at least its block. sigma_op = ``estimators.opnorm_bracket`` of
        the same block errs with at most delta_2, the next share. It feeds only
        the filter's additive slack delta and the floor of its cutoff L
        (``driver.QUANTILE_FLOOR``), which need it only to a constant factor.
        Its 3 eps trim drops every row the eps prune drops, so it sums only rows
        the pruned stack keeps. Write T(c) = E[h; h <= c] and A(c) for the same
        mean over the block; sigma_op is A at the block's 3 eps cut, so it lies
        between A(c+) and A(c-) whenever that cut does. m is the larger of the
        cut's block and ceil(4 l / eps), l = ln(4 / delta_2). With probability
        at least 1 - delta_2, T(c+) / 2 <= sigma_op <= 3 T(c-) / 2 +
        2 E[h; h >= c-] / 9, where c+ and c- are the cuts at the 9 eps / 2 and
        3 eps / 2 tails, the lower side provided T(c+) >= 2 eps c+: the kept
        scores do not sit far below their cut, which light-tailed inliers meet
        with room to spare (their cut is O(log(1 / eps)) times their mean, not
        1 / (2 eps)). Proof. m >= 12 ln(2 / (delta_2 / 2)) / (3 eps), so the cut
        of rank floor(3 eps m) + 1 lies in [c+, c-] but with probability
        delta_2 / 2 (the same claim at tau = 1/2). A(c) averages m independent
        scores in [0, c]. Below: P(A(c+) <= T(c+) / 2) <= exp(-m T(c+) / (8 c+))
        <= exp(-l) = delta_2 / 4 by the multiplicative Chernoff bound. Above:
        with T = T(c-), the scores' variance is at most c- T, so by Bernstein's
        inequality A(c-) <= T + sqrt(2 c- T l / m) + c- l / (3 m) <= 3 T / 2 +
        4 c- l / (3 m) <= 3 T / 2 + c- eps / 3 but with probability delta_2 / 4;
        and c- * 3 eps / 2 <= E[h; h >= c-]. Every step holds at any larger m.
        """
        eps, r2d = self.config.eps, self.r_radius ** 2 * self.dim
        sigma_op = delta = 0.0
        if eps > 0:
            prune_fail, opnorm_fail = next(shares), next(shares)
            m = max(streaming_quantile_samples(eps, prune_fail, PRUNE_C_Q),
                    math.ceil(4.0 * math.log(4.0 / opnorm_fail) / eps))
            with self.ledger.reserve(m):
                g = accepted_scores(self.source, FilterStack(),
                                    lambda x: np.einsum("ij,ij->i", x, x), m, self.ledger)
                sigma_op = opnorm_bracket(g, eps, m)
                self.stack = FilterStack(prune_radius_sq=weighted_quantile(g, eps))
            delta = 0.1 * self.config.gamma / r2d * sigma_op
            self._trim_floor = delta / (FILTER_TRIGGER * self.config.gamma)
        self.ledger.alloc(self.dim)  # the candidate vector held across iterations
        return sigma_op, delta

    # -- per-iteration answers -------------------------------------------------

    def certificate(self, shares, rng: np.random.Generator,
                    rng_dir: np.random.Generator) -> Candidate:
        # At eps = 0 ``drive`` runs no direction, so none rides the chain.
        eps = self.config.eps
        return sample_top_eigenvector_streaming(
            self.source, self.stack, eps, self.config.gamma, shares, rng, BATCH_SIZE_CAP,
            self.ledger, self.r_radius, rng_dir if eps > 0 else None)

    def direction(self, _rng: np.random.Generator, rider: np.ndarray) -> np.ndarray | None:
        # The rider rode the certificate's whole chain, the direction's power.
        # A collapsed rider comes back as None, and no start is retried.
        self.ledger.free(self.dim)
        return unit(rider)

    def start_iteration(self, v: np.ndarray) -> None:
        self._v = v

    def quantile_value(self, tail: float, shares) -> float:
        # A cut between the tail / 2 and 3 tail / 2 tails: the filter's L,
        # which drive floors at QUANTILE_FLOOR, needs no more.
        v = self._v
        return streaming_quantile(
            lambda k: accepted_scores(self.source, self.stack, lambda x: (x @ v) ** 2, k,
                                      self.ledger),
            tail, next(shares), ledger=self.ledger)

    def sigma_trimmed(self, cap: float, shares) -> float:
        # Only T_hat = FILTER_TRIGGER gamma sigma reads it, beside delta in the
        # exit bound. To rel_tol rho above the floor delta / (FILTER_TRIGGER
        # gamma), and to rho / (1 + rho) times that floor below it, sigma
        # puts T_hat + delta within a factor 1 + rho of its exact value.
        return accepted_band_mean(self.source, self.stack, self._v, -math.inf, cap,
                                  next(shares), self.ledger,
                                  rel_tol=DECISION_MARGIN, floor=self._trim_floor)

    def mean_score(self, L: float, thr: float, bound: float, shares) -> float:
        # The exit decision, exact unless the mean lies in (0.8, 1.2) x bound.
        return accepted_band_mean(self.source, self.stack, self._v, L, thr,
                                  next(shares), self.ledger,
                                  bar=bound, margin=DECISION_MARGIN)

    def register_entry(self, entry: FilterEntry) -> None:
        self.stack = self.stack.with_entry(entry)
        self.ledger.alloc(self.dim + 1)


def streaming_robust_pca(source: SampleSource, eps: float, gamma: float | None,
                         r_radius: float, config: AlgoConfig | None = None,
                         rng_seed: int | None = None,
                         max_samples: int | None = None):
    """Single-pass recovery of a near-top variance direction from a stream.

    ``r_radius`` is the caller's bound with Pr[||X|| > r * sqrt(d * op-norm)]
    <= eps for the inlier distribution. Running out of ``max_samples`` ends
    the solve with FALLBACK_BEST, or FAILED before its first certificate.
    Returns (PcaResult, StreamStats): the rows this solve drew, and the peak
    of its suite's scalar ledger.
    """
    src = BudgetedSource(source, max_samples) if max_samples is not None else source
    cfg = solve_config(eps, gamma, config)
    suite = MinibatchEstimators(src, cfg, r_radius,
                                ScalarLedger(limit=cfg.max_resident_scalars))
    before = src.delivered
    result = drive(suite, cfg, rng_seed)
    return result, StreamStats(samples_consumed=src.delivered - before,
                               peak_resident_scalars=suite.ledger.peak)

