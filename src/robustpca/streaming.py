"""Single-pass streaming driver.

Same control flow as the batch driver, but every population quantity is
answered by a one-pass estimator: minibatch moment products for directions,
a sampled block for quantiles, median-of-means for score averages. The
persistent state is the filter stack, one candidate vector, and transient
buffers whose sizes are set by the configuration, never by the stream
length; a scalar ledger meters the high-water mark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import Candidate, sample_top_eigenvector_streaming
from .core import AlgoConfig, FilterEntry, FilterStack
from .driver import run_boosted
from .errors import DegenerateStateError
from .estimators import opnorm_bracket, streaming_quantile, streaming_quantile_samples
from .linops import accepted_band_mean, accepted_scores, streamed_power_direction
from .sources import BudgetedSource, SampleSource, ScalarLedger

__all__ = ["StreamStats", "MinibatchEstimators", "streaming_robust_pca", "oja_baseline"]

BATCH_SIZE_CAP = 4096         # moment-product minibatch
MEAN_BATCH_CAP = 1_000_000    # median-of-means batch


@dataclass
class StreamStats:
    samples_consumed: int
    filters_stored: int
    peak_resident_scalars: int
    wall_time: float


def default_mean_batch(d: int, eps: float, gamma: float, r_radius: float) -> int:
    """Per-batch sample count for the median-of-means score average."""
    eps_eff = max(eps, 1e-3)
    log_factor = max(1.0, math.log(max(d, 2) / eps_eff))
    raw = (r_radius ** 4) * d * d / (gamma * gamma) * log_factor
    return int(min(max(64, math.ceil(raw)), MEAN_BATCH_CAP))


class MinibatchEstimators:
    """One-pass stream answers for the shared driver loop."""

    def __init__(self, source: SampleSource, config: AlgoConfig, r_radius: float,
                 ledger: ScalarLedger):
        if r_radius < 1.0:
            raise ValueError(f"r_radius must be at least 1, got {r_radius}")
        self.source = source
        self.eps = config.eps
        self.gamma = config.gamma
        self.config = config
        self.r_radius = r_radius
        self.ledger = ledger
        self.dim = source.dim
        self.stack = FilterStack()
        # d p^2 log(d/eps) / delta^2, delta <= 0.01 gamma/sqrt(d), always exceeds the cap.
        self.batch = config.batch_size if config.batch_size is not None else BATCH_SIZE_CAP
        self.mean_batch = default_mean_batch(self.dim, self.eps, self.gamma, r_radius)
        self._fail = config.cert_failure_prob
        self._v: np.ndarray | None = None

    # -- prologue -------------------------------------------------------------

    def prologue(self):
        d = self.dim
        if self.eps > 0:
            norm_cut = streaming_quantile(
                lambda k: np.linalg.norm(self.source.draw(k), axis=1),
                tail=self.eps, fail_prob=self._fail, ledger=self.ledger,
            )
            prune_sq = norm_cut * norm_cut
        else:
            prune_sq = math.inf
        self.stack = FilterStack(prune_radius_sq=prune_sq)

        block_m = min(max(512, streaming_quantile_samples(
            max(3 * self.eps, 0.01), self._fail)), 200_000)
        with self.ledger.reserve(block_m * d):
            block = self.source.draw(block_m)
            w = self.stack.weights(block)
            if not w.any():
                raise DegenerateStateError("prune radius rejected an entire block")
            sigma_op = opnorm_bracket(block, w, self.eps)
        self.ledger.alloc(d)  # the candidate vector held across iterations
        delta = 0.1 * self.gamma / (self.r_radius ** 2 * d) * sigma_op
        return sigma_op, delta

    # -- per-iteration answers -------------------------------------------------

    def certificate(self, fail_prob: float, rng: np.random.Generator) -> Candidate:
        return sample_top_eigenvector_streaming(
            self.source, self.stack, self.eps, self.gamma, fail_prob,
            self.config, rng, batch_size=self.batch, mean_batch=self.mean_batch,
            ledger=self.ledger,
        )

    def direction(self, p_k: int, rng: np.random.Generator) -> np.ndarray | None:
        return streamed_power_direction(self.source, self.stack, p_k, self.batch,
                                        rng, ledger=self.ledger)

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
        return streaming_quantile(lambda k: accepted_scores(self.source, self.stack, v, k),
                                  tail, self._fail, ledger=self.ledger)

    def sigma_trimmed(self, cap: float) -> float:
        return accepted_band_mean(self.source, self.stack, self._v, -math.inf, cap,
                                  self._fail, self.mean_batch, ledger=self.ledger)

    def mean_score(self, L: float, thr: float) -> float:
        return accepted_band_mean(self.source, self.stack, self._v, L, thr,
                                  self._fail, self.mean_batch, ledger=self.ledger)

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
    <= eps for the inlier distribution. Running out of ``max_samples``
    mid-run degrades to FALLBACK_BEST rather than raising. Returns
    (PcaResult, StreamStats); the scalar ledger is shared by every boost rep.
    """
    src = BudgetedSource(source, max_samples) if max_samples is not None else source
    ledger = ScalarLedger(limit=None if config is None else config.max_resident_scalars)
    result, suite = run_boosted(
        lambda cfg: MinibatchEstimators(src, cfg, r_radius, ledger),
        eps, gamma, config, rng_seed)
    result.samples_consumed = src.delivered
    stats = StreamStats(
        samples_consumed=src.delivered,
        filters_stored=len(suite.stack),
        peak_resident_scalars=ledger.peak,
        wall_time=result.elapsed,
    )
    return result, stats


def oja_baseline(source: SampleSource, n_samples: int, rng: np.random.Generator,
                 chunk: int = 256) -> np.ndarray:
    """Naive streaming strawman: incremental top-direction updates, no filtering.

    u <- normalize(u + eta_t x (x.u)) with a norm-adaptive decaying step.
    Locks onto whatever direction the raw stream over-weights, outliers
    included.
    """
    d = source.dim
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    norm_sq_mean = 0.0
    seen = 0
    while seen < n_samples:
        take = min(chunk, n_samples - seen)
        pts = source.draw(take)
        for x in pts:
            seen += 1
            norm_sq_mean += (float(x @ x) - norm_sq_mean) / seen
            eta = 1.0 / (max(norm_sq_mean, 1e-12) * (50.0 + seen) / 50.0)
            u = u + eta * x * float(x @ u)
            u /= np.linalg.norm(u)
    return u
