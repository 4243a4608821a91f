"""Batch driver: prune, doubling-power loop, certificate attempts, filtering.

The control flow is shared with the streaming driver through an estimator
suite: the loop below only ever talks to the suite, which answers with
either exact batch quantities or one-pass stream estimates. Each iteration
tries to certify a candidate direction; if that fails it scores points along
a randomized power direction, trims a robust variance, and hard-thresholds
the high scorers.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .certificate import Candidate, sample_top_eigenvector
from .core import AlgoConfig, FilterEntry, FilterStack, WeightedDataset, rng_stream
from .errors import (
    DegenerateStateError,
    StreamExhaustedError,
    UnsupportedDiagnosticError,
)
from .estimators import opnorm_bracket, trimmed_variance, weighted_quantile
from .filtering import hard_thresholding_filter
from .linops import (
    Normalization,
    SecondMomentOp,
    gaussian_retry,
    power_direction,
    power_iteration,
)
from .oracle import dense_spectrum, weighted_second_moment_dense

__all__ = ["PcaStatus", "PcaResult", "robust_pca", "potential_diagnostic", "naive_pca"]

FILTER_TRIGGER = 2.35     # T_hat = 2.35 * gamma * sigma_trimmed
QUANTILE_TAIL_FACTOR = 3.0
PRUNE_FACTOR = 10.0       # prune radius^2 = 10 * sigma_op * d / eps
QUANTILE_FLOOR = 0.1      # L >= 0.1 * sigma_op / d for unit directions


class PcaStatus(enum.Enum):
    ACCEPTED = "accepted"
    FALLBACK_BEST = "fallback_best"
    FAILED = "failed"


@dataclass
class PcaResult:
    u: np.ndarray | None
    sigma_robust: float
    status: PcaStatus
    iterations: tuple[int, int]
    filters_created: int
    potential_trace: list[float] | None = None
    elapsed: float = 0.0
    samples_consumed: int | None = None


class BatchEstimators:
    """Exact batch answers over an in-memory population."""

    def __init__(self, points: np.ndarray, eps: float, gamma: float, config: AlgoConfig):
        self.points = np.asarray(points, dtype=np.float64)
        self.n, self.dim = self.points.shape
        self.eps = eps
        self.gamma = gamma
        self.config = config
        self.weights = np.ones(self.n, dtype=bool)
        self.stack = FilterStack()
        self.sigma_op = 0.0
        self._norms_sq = np.einsum("ij,ij->i", self.points, self.points)

    def prologue(self):
        self.sigma_op = opnorm_bracket(self.points, self.weights, self.eps)
        if self.eps > 0:
            radius_sq = PRUNE_FACTOR * self.sigma_op * self.dim / self.eps
        else:
            radius_sq = math.inf
        self.stack = FilterStack(prune_radius_sq=radius_sq)
        self.weights = self._norms_sq <= radius_sq
        return radius_sq, self.sigma_op

    def certificate(self, fail_prob: float, rng: np.random.Generator) -> Candidate:
        return sample_top_eigenvector(self.points, self.weights, self.eps,
                                      self.gamma, fail_prob, self.config, rng)

    def direction(self, p_k: int, rng: np.random.Generator) -> np.ndarray | None:
        op = SecondMomentOp(self.points, self.weights, Normalization.UNNORMALIZED)
        return gaussian_retry(rng, self.dim, lambda z: power_direction(op, p_k, z))

    def start_iteration(self, v: np.ndarray) -> dict:
        return {"v": v, "f": (self.points @ v) ** 2}

    def has_positive_score(self, ctx: dict) -> bool:
        f = ctx["f"]
        return bool(np.any(f[self.weights] > 0))

    def quantile_value(self, ctx: dict, tail: float) -> float:
        return weighted_quantile(ctx["f"], self.weights, tail)

    def sigma_trimmed(self, ctx: dict, cap: float) -> float:
        return trimmed_variance(ctx["f"], self.weights, cap)

    def mean_score(self, ctx: dict, L: float, thr: float) -> float:
        f = ctx["f"]
        live = self.weights & (f > L) & (f <= thr)
        return float(np.sum(f[live])) / self.n

    def score_range(self, ctx: dict, L: float) -> float:
        f = ctx["f"]
        tau = f[self.weights & (f > L)]
        return float(tau.max()) if tau.size else 0.0

    def filter_delta(self) -> float:
        return self.config.delta_slack

    def register_entry(self, entry: FilterEntry) -> int | None:
        before = int(np.count_nonzero(self.weights))
        f = (self.points @ entry.direction) ** 2
        self.weights = self.weights & (f <= entry.threshold_sq)
        self.stack = self.stack.with_entry(entry)
        return before - int(np.count_nonzero(self.weights))

    def potential(self, p_k: int) -> float | None:
        if not self.config.track_potential or self.dim > 64:
            return None
        return potential_diagnostic(self.points, self.weights, p_k)

    def weights_snapshot(self) -> np.ndarray:
        return self.weights.copy()


def drive(suite, d: int, eps: float, gamma: float, cfg: AlgoConfig, seed: int,
          rep: int, trace_sink=None):
    """Shared outer/inner loop; returns a PcaResult (without timing)."""
    rng_cert = rng_stream(seed, rep, 1)
    rng_dir = rng_stream(seed, rep, 2)
    rng_filt = rng_stream(seed, rep, 3)

    k_end = cfg.k_end_for(d)
    t_end = cfg.t_end_for(d)
    tail = QUANTILE_TAIL_FACTOR * eps
    fail_prob = cfg.cert_failure_prob / (k_end * t_end)

    _radius, sigma_op = suite.prologue()
    best: Candidate | None = None
    potential_trace: list[float] | None = [] if cfg.track_potential else None
    last_iter = (0, 0)

    try:
        for k in range(1, k_end + 1):
            p_k = cfg.power_at(d, k)
            for t in range(1, t_end + 1):
                last_iter = (k, t)
                cand = suite.certificate(fail_prob, rng_cert)
                if cand.accepted:
                    return PcaResult(
                        u=cand.u, sigma_robust=cand.sigma_robust,
                        status=PcaStatus.ACCEPTED, iterations=(k, t),
                        filters_created=len(suite.stack),
                        potential_trace=potential_trace,
                    )
                if best is None or cand.sigma_robust > best.sigma_robust:
                    best = cand

                v = suite.direction(p_k, rng_dir)
                if v is None:
                    raise DegenerateStateError(
                        "surviving second moment collapsed to zero"
                    )

                ctx = suite.start_iteration(v)
                event = {"k": k, "t": t, "p_k": p_k, "rounds": 0, "removed": 0,
                         "skipped": False}
                if not suite.has_positive_score(ctx):
                    # Every surviving score is zero; filtering is a no-op.
                    event["skipped"] = True
                else:
                    pot_before = suite.potential(p_k)
                    L = max(suite.quantile_value(ctx, tail),
                            QUANTILE_FLOOR * sigma_op / d)
                    sigma = suite.sigma_trimmed(ctx, L)
                    t_hat = FILTER_TRIGGER * gamma * sigma
                    delta = suite.filter_delta()
                    r_range = suite.score_range(ctx, L)
                    outcome = hard_thresholding_filter(
                        lambda thr: suite.mean_score(ctx, L, thr),
                        v, L, t_hat, max(r_range, 1.0) if r_range <= 0 else r_range,
                        delta, rng_filt, score_floor=L,
                    )
                    removed = None
                    if outcome.new_entry is not None and outcome.rounds > 0:
                        removed = suite.register_entry(outcome.new_entry)
                    pot_after = suite.potential(p_k)
                    if potential_trace is not None and pot_after is not None:
                        potential_trace.append(pot_after)
                    event.update(
                        rounds=outcome.rounds, removed=removed,
                        mean_score=outcome.final_mean_score, cutoff=L,
                        sigma=sigma, t_hat=t_hat,
                        potential_before=pot_before, potential_after=pot_after,
                    )
                if trace_sink is not None:
                    event["weights"] = suite.weights_snapshot()
                    trace_sink(event)
    except StreamExhaustedError:
        pass

    if best is None:
        return PcaResult(u=None, sigma_robust=0.0, status=PcaStatus.FAILED,
                         iterations=last_iter, filters_created=len(suite.stack),
                         potential_trace=potential_trace)
    return PcaResult(u=best.u, sigma_robust=best.sigma_robust,
                     status=PcaStatus.FALLBACK_BEST, iterations=last_iter,
                     filters_created=len(suite.stack),
                     potential_trace=potential_trace)


def robust_pca(ds: WeightedDataset, eps: float, gamma: float | None = None,
               config: AlgoConfig | None = None, rng_seed: int | None = None,
               trace_sink=None) -> PcaResult:
    """Recover a near-top variance direction from eps-corrupted batch data.

    Returns the first certified candidate (status ACCEPTED). If every
    iteration's candidate is rejected, reruns with fresh seeds up to
    ``config.boost_reps`` times and falls back to the best rejected candidate
    by robust variance (status FALLBACK_BEST).
    """
    start = time.perf_counter()
    if config is None:
        cfg = AlgoConfig(eps=eps, gamma=gamma)
    else:
        cfg = dc_replace(config, eps=eps,
                         gamma=gamma if gamma is not None else config.gamma)
    seed = cfg.seed if rng_seed is None else rng_seed

    best: PcaResult | None = None
    for rep in range(cfg.boost_reps):
        suite = BatchEstimators(ds.points, cfg.eps, cfg.gamma, cfg)
        result = drive(suite, ds.dim, cfg.eps, cfg.gamma, cfg, seed, rep,
                       trace_sink=trace_sink)
        if result.status is PcaStatus.ACCEPTED:
            result.elapsed = time.perf_counter() - start
            return result
        if best is None or result.sigma_robust > best.sigma_robust:
            best = result
    best.elapsed = time.perf_counter() - start
    return best


def potential_diagnostic(points: np.ndarray, weights: np.ndarray, p: int) -> float:
    """Exact tr(B^(2p+1)) of the unnormalized weighted second moment.

    Diagnostic only; the driver never consults it. Requires d <= 64 since the
    moment is materialized densely.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] > 64:
        raise UnsupportedDiagnosticError(
            f"potential diagnostic capped at d <= 64, got {points.shape[1]}"
        )
    b = weighted_second_moment_dense(points, weights, normalized=False)
    eig = dense_spectrum(b).eigenvalues
    return float(np.sum(eig ** (2 * p + 1)))


def naive_pca(points: np.ndarray, rng: np.random.Generator,
              p_iters: int | None = None):
    """Baseline: plain power iteration on the uncorrected second moment."""
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    if p_iters is None:
        p_iters = max(64, 8 * math.ceil(math.log(max(d, 2))))
    op = SecondMomentOp(points, None, Normalization.NORMALIZED)
    return power_iteration(op, p_iters, rng)
