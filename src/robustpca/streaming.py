"""Single-pass streaming driver.

Same control flow as the batch driver, but every population quantity is
answered by a one-pass estimator: minibatch moment products for directions,
a sampled block for quantiles, a sequential empirical-Bernstein mean for
score averages. Each estimate that can fail takes its share of the rep's
failure budget (``driver.failure_share``). The persistent state is the
filter stack, one candidate vector, and transient buffers whose sizes are
set by the configuration, never by the stream length; a scalar ledger
meters the high-water mark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import DECISION_MARGIN, Candidate, sample_top_eigenvector_streaming
from .core import AlgoConfig, FilterEntry, FilterStack
from .driver import failure_share, run_boosted
from .estimators import (TRIM_TAIL, opnorm_bracket, streaming_quantile,
                          streaming_quantile_samples)
from .linops import accepted_band_mean, accepted_rows, accepted_scores, streamed_power_direction
from .sources import BudgetedSource, SampleSource, ScalarLedger

__all__ = ["StreamStats", "MinibatchEstimators", "streaming_robust_pca"]

BATCH_SIZE_CAP = 4096         # moment-product minibatch
MEAN_BATCH_CAP = 1_000_000    # stream-mean row ceiling


@dataclass
class StreamStats:
    samples_consumed: int
    peak_resident_scalars: int


def default_mean_batch(d: int, eps: float, gamma: float, r_radius: float) -> int:
    """Ceiling on the total rows of one filter stream mean.

    Sized for scores as large as the prune radius; the estimates stop below
    it once settled (``estimators.stream_mean_estimate``). It also caps the
    certificate's own ceiling.
    """
    eps_eff = max(eps, 1e-3)
    log_factor = max(1.0, math.log(max(d, 2) / eps_eff))
    raw = (r_radius ** 4) * d * d / (gamma * gamma) * log_factor
    return int(min(max(64, math.ceil(raw)), MEAN_BATCH_CAP))


class MinibatchEstimators:
    """One-pass stream answers for the shared driver loop."""

    def __init__(self, source: SampleSource, config: AlgoConfig, r_radius: float,
                 ledger: ScalarLedger):
        if not r_radius >= 1.0:
            raise ValueError(f"r_radius must be at least 1, got {r_radius}")
        self.source = source
        self.config = config
        self.r_radius = r_radius
        self.ledger = ledger
        self.dim = source.dim
        self.stack = FilterStack()
        # BATCH_SIZE_CAP is a desk constant: no bound on the minibatch
        # moment's error backs it.
        self.batch = config.batch_size if config.batch_size is not None else BATCH_SIZE_CAP
        self.mean_batch = default_mean_batch(self.dim, config.eps, config.gamma, r_radius)
        self._v: np.ndarray | None = None
        self._rider = None
        self._estimates = 0

    def _fail_prob(self) -> float:
        """The failure probability of the next estimate: the j-th share."""
        self._estimates += 1
        return failure_share(self._estimates)

    # -- prologue -------------------------------------------------------------

    def prologue(self):
        eps = self.config.eps
        if eps > 0:
            # Over the rows the empty stack accepts, whose squared norms are finite.
            norm_cut = streaming_quantile(
                lambda k: accepted_scores(self.source, FilterStack(),
                                          lambda x: np.linalg.norm(x, axis=1), k,
                                          self.ledger),
                tail=eps, fail_prob=self._fail_prob(), ledger=self.ledger,
            )
            prune_sq = norm_cut * norm_cut
        else:
            prune_sq = math.inf
        self.stack = FilterStack(prune_radius_sq=prune_sq)

        # opnorm_bracket over fresh draws, keeping only the squared norms.
        block_m = min(max(512, streaming_quantile_samples(
            max(TRIM_TAIL * eps, 0.01), self._fail_prob())), 200_000)
        with self.ledger.reserve(block_m):
            g = np.concatenate([
                np.einsum("ij,ij->i", rows, rows)
                for rows in accepted_rows(self.source, self.stack, block_m, self.ledger)])
            sigma_op = opnorm_bracket(g, eps, block_m)
        self.ledger.alloc(self.dim)  # the candidate vector held across iterations
        delta = 0.1 * self.config.gamma / (self.r_radius ** 2 * self.dim) * sigma_op
        return sigma_op, delta

    # -- per-iteration answers -------------------------------------------------

    def certificate(self, fail_prob: float, rng: np.random.Generator, p_k: int,
                    rng_dir: np.random.Generator) -> Candidate:
        cand = sample_top_eigenvector_streaming(
            self.source, self.stack, self.config.eps, self.config.gamma, fail_prob,
            self.config, rng, batch_size=self.batch, max_mean_batch=self.mean_batch,
            ledger=self.ledger, direction=(p_k, rng_dir),
        )
        self._rider = (p_k, rng_dir, self.stack, cand.rider)
        return cand

    def direction(self, p_k: int, rng: np.random.Generator) -> np.ndarray | None:
        # The direction that rode the last certificate answers this call once,
        # if that certificate was this iteration's on this stack. A collapsed
        # one has spent its start, so the own chain below takes the next ones.
        rider, self._rider = self._rider, None
        rode = ()
        if rider is not None and rider[0] == p_k and rider[1] is rng and rider[2] is self.stack:
            rode = rider[3]
        if rode and rode[0] is not None:
            return rode[0]
        return streamed_power_direction(self.source, self.stack, p_k, self.batch,
                                        rng, ledger=self.ledger, spent=len(rode))

    def start_iteration(self, v: np.ndarray) -> bool:
        # Whether any surviving score is positive is unknown without a pass;
        # a zero-score iteration exits the filter after its first mean
        # estimate anyway.
        self._v = v
        return True

    def quantile_value(self, tail: float) -> float:
        if tail <= 0:
            return math.inf
        v = self._v
        return streaming_quantile(
            lambda k: accepted_scores(self.source, self.stack, lambda x: (x @ v) ** 2, k,
                                      self.ledger),
            tail, self._fail_prob(), ledger=self.ledger)

    def sigma_trimmed(self, cap: float) -> float:
        return accepted_band_mean(self.source, self.stack, self._v, -math.inf, cap,
                                  self._fail_prob(), self.mean_batch, self.ledger,
                                  rel_tol=DECISION_MARGIN)

    def mean_score(self, L: float, thr: float, bound: float) -> float:
        return accepted_band_mean(self.source, self.stack, self._v, L, thr,
                                  self._fail_prob(), self.mean_batch, self.ledger,
                                  bar=bound)

    def score_range(self, L: float) -> float:
        # Analytic bound: f(x) = (v.x)^2 <= ||x||^2 <= prune radius^2.
        return self.stack.prune_radius_sq

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
    a rep with FALLBACK_BEST, or FAILED before its first certificate, and
    never discards an earlier rep's result. Returns (PcaResult, StreamStats).
    Each boost rep books its scalars on a fresh ledger, since its suite is
    dropped when it ends, plus the earlier reps' best direction while it is
    held; the reported peak is the largest rep's.
    """
    src = BudgetedSource(source, max_samples) if max_samples is not None else source
    ledgers = []

    def fresh_suite(cfg: AlgoConfig, held: int) -> MinibatchEstimators:
        ledgers.append(ScalarLedger(limit=cfg.max_resident_scalars))
        ledgers[-1].alloc(held)
        return MinibatchEstimators(src, cfg, r_radius, ledgers[-1])

    result = run_boosted(fresh_suite, eps, gamma, config, rng_seed)
    stats = StreamStats(
        samples_consumed=src.delivered,
        peak_resident_scalars=max(ledger.peak for ledger in ledgers),
    )
    return result, stats

