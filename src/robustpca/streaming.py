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
import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .certificate import Candidate, sample_top_eigenvector_streaming
from .core import AlgoConfig, FilterEntry, FilterStack
from .driver import (
    BatchEstimators,
    PcaResult,
    PcaStatus,
    drive,
)
from .errors import DegenerateStateError
from .estimators import (
    opnorm_bracket,
    stream_mean_estimate,
    streaming_quantile,
    streaming_quantile_samples,
)
from .linops import accepted_scores, streamed_power_direction
from .sources import BudgetedSource, SampleSource, ScalarLedger

__all__ = ["StreamStats", "MinibatchEstimators", "streaming_robust_pca", "oja_baseline"]


@dataclass
class StreamStats:
    samples_consumed: int
    filters_stored: int
    peak_resident_scalars: int
    wall_time: float


def default_stream_batch(d: int, p: int, eps: float, gamma: float, r_radius: float,
                         config: AlgoConfig) -> int:
    """Minibatch size for moment-product factors.

    The theory-faithful size c_batch * d * p^2 * log(d/eps) / delta^2 (with
    delta the operator-closeness target) is astronomically large at desk
    scale, so it is clamped to ``config.batch_size_cap``; in practice the cap
    is what you get unless c_batch is set very small.
    """
    if config.batch_size is not None:
        return config.batch_size
    eps_eff = max(eps, 1e-6)
    delta = 0.01 * min(math.sqrt(gamma / eps_eff) / (r_radius * math.sqrt(d)),
                       gamma / math.sqrt(d))
    raw = config.c_batch * d * p * p * math.log(max(d, 2) / eps_eff) / (delta * delta)
    return int(min(max(64, math.ceil(raw)), config.batch_size_cap))


def default_mean_batch(d: int, eps: float, gamma: float, r_radius: float,
                       config: AlgoConfig) -> int:
    """Per-batch sample count for the median-of-means score average."""
    eps_eff = max(eps, 1e-3)
    log_factor = max(1.0, math.log(max(d, 2) / eps_eff))
    raw = config.c_m * (r_radius ** 4) * d * d / (gamma * gamma) * log_factor
    return int(min(max(64, math.ceil(raw)), config.mean_batch_cap))


class MinibatchEstimators:
    """One-pass stream answers for the shared driver loop."""

    def __init__(self, source: SampleSource, eps: float, gamma: float,
                 config: AlgoConfig, r_radius: float, ledger: ScalarLedger):
        if r_radius < 1.0:
            raise ValueError(f"r_radius must be at least 1, got {r_radius}")
        self.source = source
        self.eps = eps
        self.gamma = gamma
        self.config = config
        self.r_radius = r_radius
        self.ledger = ledger
        self.dim = source.dim
        self.stack = FilterStack()
        self.sigma_op = 0.0
        base_p = config.base_power(self.dim)
        self.batch = default_stream_batch(self.dim, base_p, eps, gamma, r_radius, config)
        self.mean_batch = default_mean_batch(self.dim, eps, gamma, r_radius, config)
        self._fail = config.cert_failure_prob

    # -- prologue -------------------------------------------------------------

    def prologue(self):
        d = self.dim
        if self.eps > 0:
            norm_cut = streaming_quantile(
                lambda k: np.linalg.norm(self.source.draw(k), axis=1),
                tail=self.eps, fail_prob=self._fail, c_q=self.config.c_q,
                ledger=self.ledger,
            )
            prune_sq = norm_cut * norm_cut
        else:
            prune_sq = math.inf
        self.stack = FilterStack(prune_radius_sq=prune_sq)

        block_m = min(max(512, streaming_quantile_samples(
            max(3 * self.eps, 0.01), self._fail, self.config.c_q)), 200_000)
        with self.ledger.reserve(block_m * d):
            block = self.source.draw(block_m)
            w = self.stack.weights(block)
            if not w.any():
                raise DegenerateStateError("prune radius rejected an entire block")
            self.sigma_op = opnorm_bracket(block, w, self.eps)
        self.ledger.alloc(d)  # the candidate vector held across iterations
        return prune_sq, self.sigma_op

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

    def start_iteration(self, v: np.ndarray) -> dict:
        return {"v": v}

    def has_positive_score(self, ctx: dict) -> bool:
        # Unknown without a pass; a zero-score iteration exits the filter
        # after its first mean estimate anyway.
        return True

    def quantile_value(self, ctx: dict, tail: float) -> float:
        if tail <= 0:
            return math.inf
        v = ctx["v"]
        return streaming_quantile(lambda k: accepted_scores(self.source, self.stack, v, k),
                                  tail, self._fail, c_q=self.config.c_q,
                                  ledger=self.ledger)

    def _mean_of(self, v: np.ndarray, lo: float, hi: float) -> float:
        def draw(k: int) -> np.ndarray:
            pts = self.source.draw(k)
            w = self.stack.weights(pts)
            f = (pts @ v) ** 2
            return np.where(w & (f > lo) & (f <= hi), f, 0.0)

        return stream_mean_estimate(draw, self._fail, n_batch=self.mean_batch,
                                    ledger=self.ledger)

    def sigma_trimmed(self, ctx: dict, cap: float) -> float:
        return self._mean_of(ctx["v"], -math.inf, cap)

    def mean_score(self, ctx: dict, L: float, thr: float) -> float:
        return self._mean_of(ctx["v"], L, thr)

    def score_range(self, ctx: dict, L: float) -> float:
        # Analytic bound: f(x) = (v.x)^2 <= ||x||^2 <= prune radius^2.
        return self.stack.prune_radius_sq

    def filter_delta(self) -> float:
        return 0.1 * self.gamma / (self.r_radius ** 2 * self.dim) * self.sigma_op

    def register_entry(self, entry: FilterEntry) -> int | None:
        self.stack = self.stack.with_entry(entry)
        self.ledger.alloc(self.dim + 1)
        return None

    def potential(self, p_k: int) -> float | None:
        return None

    def weights_snapshot(self) -> np.ndarray | None:
        return None


def streaming_robust_pca(source: SampleSource, eps: float, gamma: float | None,
                         r_radius: float, config: AlgoConfig | None = None,
                         rng_seed: int | None = None,
                         max_samples: int | None = None,
                         trace_sink=None,
                         exact_population: np.ndarray | None = None):
    """Single-pass recovery of a near-top variance direction from a stream.

    ``r_radius`` is the caller's bound with Pr[||X|| > r * sqrt(d * op-norm)]
    <= eps for the inlier distribution. Running out of ``max_samples``
    mid-run degrades to FALLBACK_BEST rather than raising. Returns
    (PcaResult, StreamStats).

    ``exact_population`` switches every estimator to exact computation over
    the given points (zero estimator noise); it exists so coupled-seed runs
    can be checked against the batch driver.
    """
    start = time.perf_counter()
    if config is None:
        cfg = AlgoConfig(eps=eps, gamma=gamma)
    else:
        cfg = dc_replace(config, eps=eps,
                         gamma=gamma if gamma is not None else config.gamma)
    seed = cfg.seed if rng_seed is None else rng_seed
    src = BudgetedSource(source, max_samples) if max_samples is not None else source
    ledger = ScalarLedger(limit=cfg.max_resident_scalars)

    best: PcaResult | None = None
    filters_stored = 0
    for rep in range(cfg.boost_reps):
        if exact_population is not None:
            suite = BatchEstimators(exact_population, cfg.eps, cfg.gamma, cfg)
        else:
            suite = MinibatchEstimators(src, cfg.eps, cfg.gamma, cfg, r_radius, ledger)
        result = drive(suite, src.dim, cfg.eps, cfg.gamma, cfg, seed, rep,
                       trace_sink=trace_sink)
        filters_stored = len(suite.stack)
        if result.status is PcaStatus.ACCEPTED:
            best = result
            break
        if best is None or result.sigma_robust > best.sigma_robust:
            best = result

    best.elapsed = time.perf_counter() - start
    best.samples_consumed = src.delivered
    stats = StreamStats(
        samples_consumed=src.delivered,
        filters_stored=filters_stored,
        peak_resident_scalars=ledger.peak,
        wall_time=best.elapsed,
    )
    return best, stats


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
