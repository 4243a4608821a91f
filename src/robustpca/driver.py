"""The shared driver loop, its boost wrapper, and the batch estimator suite.

Batch and streaming recovery share one control flow, ``drive``: prune, then
doubling-power rounds that each try to certify a candidate direction and, if
that fails, score points along a randomized power direction, trim a robust
variance, and hard-threshold the high scorers. The loop only ever talks to
an estimator suite, which answers either with exact batch quantities
(``BatchEstimators``) or with one-pass stream estimates
(``streaming.MinibatchEstimators``). A suite has a ``dim``, a filter
``stack``, and exactly these nine methods, all called by ``drive``:

- ``prologue() -> (sigma_op, delta)``: prune; return the operator-norm
  bracket and the filter's additive slack.
- ``certificate(fail_prob, rng) -> Candidate``
- ``direction(p_k, rng)``: unit power direction, or None if it collapsed.
- ``start_iteration(v) -> bool``: keep the direction for the calls below;
  False when every surviving score is zero, so filtering would be a no-op.
- ``quantile_value(tail)``, ``sigma_trimmed(cap)``, ``mean_score(L, thr)``,
  ``score_range(L)``: scalar answers along the kept direction.
- ``register_entry(entry)``: apply a new filter.
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
    elapsed: float = 0.0
    samples_consumed: int | None = None


class BatchEstimators:
    """Exact batch answers over an in-memory population.

    Survivors are the mask ``weights`` and ``rows = points[weights]``, which
    the prologue gathers once and each new filter compresses. Every answer
    reads ``rows``, so no pruned or filtered row is projected again.
    """

    def __init__(self, points: np.ndarray, config: AlgoConfig):
        self.points = np.asarray(points, dtype=np.float64)
        self.n, self.dim = self.points.shape
        self.eps = config.eps
        self.gamma = config.gamma
        self.config = config
        self.weights = np.ones(self.n, dtype=bool)
        self.rows = self.points
        self.stack = FilterStack()
        self._scores: np.ndarray | None = None

    def prologue(self):
        # Rows whose squared norm overflows take no part, even at eps = 0.
        finite = FilterStack().weights(self.points)
        sigma_op = opnorm_bracket(self.points, finite, self.eps)
        if self.eps > 0:
            radius_sq = PRUNE_FACTOR * sigma_op * self.dim / self.eps
        else:
            radius_sq = math.inf
        self.stack = FilterStack(prune_radius_sq=radius_sq)
        self.weights = self.stack.weights(self.points)
        self.rows = self.points[self.weights]
        return sigma_op, 0.0

    def certificate(self, fail_prob: float, rng: np.random.Generator) -> Candidate:
        return sample_top_eigenvector(self.rows, self.n, self.eps,
                                      self.gamma, fail_prob, self.config, rng)

    def direction(self, p_k: int, rng: np.random.Generator) -> np.ndarray | None:
        op = SecondMomentOp(self.rows, self.n)
        return gaussian_retry(rng, self.dim, lambda z: power_direction(op, p_k, z))

    def start_iteration(self, v: np.ndarray) -> bool:
        self._scores = (self.rows @ v) ** 2
        return bool(np.any(self._scores > 0))

    def quantile_value(self, tail: float) -> float:
        return weighted_quantile(self._scores, tail)

    def sigma_trimmed(self, cap: float) -> float:
        return trimmed_variance(self._scores, cap, self.n)

    def mean_score(self, L: float, thr: float) -> float:
        f = self._scores
        live = (f > L) & (f <= thr)
        return float(np.sum(f[live])) / self.n

    def score_range(self, L: float) -> float:
        f = self._scores
        tau = f[f > L]
        return float(tau.max()) if tau.size else 0.0

    def register_entry(self, entry: FilterEntry) -> None:
        keep = (self.rows @ entry.direction) ** 2 <= entry.threshold_sq
        self.rows = self.rows[keep]
        self.weights[self.weights] = keep
        self.stack = self.stack.with_entry(entry)


def drive(suite, cfg: AlgoConfig, seed: int, rep: int, trace_sink=None) -> PcaResult:
    """Shared outer/inner loop; returns a PcaResult (without timing)."""
    rng_cert = rng_stream(seed, rep, 1)
    rng_dir = rng_stream(seed, rep, 2)
    rng_filt = rng_stream(seed, rep, 3)

    d = suite.dim
    k_end = cfg.k_end_for(d)
    t_end = cfg.t_end_for(d)
    tail = QUANTILE_TAIL_FACTOR * cfg.eps
    fail_prob = cfg.cert_failure_prob / (k_end * t_end)

    sigma_op, delta = suite.prologue()
    best: Candidate | None = None
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
                    )
                if best is None or cand.sigma_robust > best.sigma_robust:
                    best = cand

                v = suite.direction(p_k, rng_dir)
                if v is None:
                    raise DegenerateStateError(
                        "surviving second moment collapsed to zero"
                    )

                event = {"k": k, "t": t, "p_k": p_k, "rounds": 0, "skipped": False}
                if not suite.start_iteration(v):
                    # Every surviving score is zero; filtering is a no-op.
                    event["skipped"] = True
                else:
                    L = max(suite.quantile_value(tail), QUANTILE_FLOOR * sigma_op / d)
                    sigma = suite.sigma_trimmed(L)
                    t_hat = FILTER_TRIGGER * cfg.gamma * sigma
                    r_range = suite.score_range(L)
                    outcome = hard_thresholding_filter(
                        lambda thr: suite.mean_score(L, thr),
                        v, L, t_hat, 1.0 if r_range <= 0 else r_range,
                        delta, rng_filt,
                    )
                    if outcome.new_entry is not None and outcome.rounds > 0:
                        suite.register_entry(outcome.new_entry)
                    event.update(
                        rounds=outcome.rounds, mean_score=outcome.final_mean_score,
                        cutoff=L, sigma=sigma, t_hat=t_hat,
                    )
                if trace_sink is not None:
                    trace_sink(event)
    except StreamExhaustedError:
        pass

    if best is None:
        return PcaResult(u=None, sigma_robust=0.0, status=PcaStatus.FAILED,
                         iterations=last_iter, filters_created=len(suite.stack))
    return PcaResult(u=best.u, sigma_robust=best.sigma_robust,
                     status=PcaStatus.FALLBACK_BEST, iterations=last_iter,
                     filters_created=len(suite.stack))


def run_boosted(make_suite, eps: float, gamma: float | None,
                config: AlgoConfig | None, rng_seed: int | None, trace_sink=None):
    """Resolve the config, then ``drive`` fresh suites for up to boost_reps reps.

    ``make_suite(cfg)`` builds the suite of one rep. Stops at the first
    ACCEPTED result; otherwise keeps the rep with the highest robust
    variance. Returns (result with its elapsed time, last suite).
    """
    start = time.perf_counter()
    if config is None:
        cfg = AlgoConfig(eps=eps, gamma=gamma)
    else:
        cfg = dc_replace(config, eps=eps,
                         gamma=gamma if gamma is not None else config.gamma)
    seed = 0 if rng_seed is None else rng_seed

    best: PcaResult | None = None
    for rep in range(cfg.boost_reps):
        suite = make_suite(cfg)
        result = drive(suite, cfg, seed, rep, trace_sink)
        if result.status is PcaStatus.ACCEPTED:
            best = result
            break
        if best is None or result.sigma_robust > best.sigma_robust:
            best = result
    best.elapsed = time.perf_counter() - start
    return best, suite


def robust_pca(ds: WeightedDataset, eps: float, gamma: float | None = None,
               config: AlgoConfig | None = None, rng_seed: int | None = None,
               trace_sink=None) -> PcaResult:
    """Recover a near-top variance direction from eps-corrupted batch data.

    Returns the first certified candidate (status ACCEPTED). If every
    iteration's candidate is rejected, reruns with fresh seeds up to
    ``config.boost_reps`` times and falls back to the best rejected candidate
    by robust variance (status FALLBACK_BEST). Each event passed to
    ``trace_sink`` carries the survivor mask after its iteration as
    ``weights``.
    """
    suite: BatchEstimators | None = None

    def fresh_suite(cfg: AlgoConfig) -> BatchEstimators:
        nonlocal suite
        suite = BatchEstimators(ds.points, cfg)
        return suite

    def sink(event: dict) -> None:
        trace_sink({**event, "weights": suite.weights.copy()})

    result, _suite = run_boosted(fresh_suite, eps, gamma, config, rng_seed,
                                 None if trace_sink is None else sink)
    return result


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
    op = SecondMomentOp(points)
    return power_iteration(op, p_iters, rng)
