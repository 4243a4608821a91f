"""The shared driver loop and the batch estimator suite.

Batch and streaming recovery share one control flow, ``drive``: prune, then
iterations that each try to certify a candidate direction and, if that
fails, score points along a randomized power direction, trim a robust
variance, and hard-threshold the high scorers. The loop only ever talks to
an estimator suite, exact (``BatchEstimators``) or one-pass
(``streaming.MinibatchEstimators``). A suite has a ``dim``, a filter
``stack``, whose ``prune_radius_sq`` is the filter's score range R (a unit
direction scores a row at most its squared norm), and exactly these eight
methods, all called by ``drive``. ``shares`` is the solve's one sequence of
failure shares (``failure_share``); each estimate that can fail takes the next.

- ``prologue(shares) -> (sigma_op, delta)``: prune; return the
  operator-norm bracket and the filter's additive slack, which only a filter
  reads (at eps = 0 the stream suite draws nothing and returns (0, 0)).
- ``certificate(shares, rng, rng_dir) -> Candidate``: a candidate whose
  judgement errs with probability at most the sum of its shares. ``rng_dir``
  is what the iteration's ``direction`` call will be handed; at eps > 0 the
  stream suite draws that direction's start from it and lets it ride the
  certificate's chain, and the batch suite ignores it.
- ``direction(rng, rider)``: unit direction of power p =
  ``certificate.power_chain_length`` at ``certificate.START_FAILURE``, or
  None if its chain collapsed, which ``drive`` ends with DegenerateStateError;
  no start is retried. The stream suite normalizes ``rider``, the same
  iteration's ``certificate.Candidate.rider``, which rode the p steps of the
  certificate's chain, and draws no row; the batch suite runs p steps from a
  start drawn from ``rng`` (its certificate's chain is sized at its share).
- ``start_iteration(v)``: keep the direction for the calls below.
- ``quantile_value(tail, shares)``: a score cutoff along the kept direction.
- ``sigma_trimmed(cap, shares)``: the mean of the scores <= cap over the whole
  population, to within a factor 1 + ``certificate.DECISION_MARGIN`` above
  a floor set by delta.
- ``mean_score(L, thr, bound, shares)``: the mean of the scores in (L, thr]; a
  suite may stop sampling once its comparison with the filter's exit
  ``bound`` is settled.
- ``register_entry(entry)``: apply a new filter, an entry along the kept
  direction.

A direction lies in the survivors' span, so some survivor scores above 0
and no filter step is skipped. At eps = 0 the trim tail is 0 and no filter
can fire, so ``drive`` calls only the first two and reads no prologue value.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import certificate
from .certificate import Candidate, sample_top_eigenvector
from .core import AlgoConfig, FilterEntry, FilterStack, WeightedDataset, rng_stream
from .errors import DegenerateStateError, StreamExhaustedError
from .estimators import TRIM_TAIL, opnorm_bracket, trimmed_variance, weighted_quantile
from .filtering import hard_thresholding_filter
from .linops import SecondMomentOp, power_direction, power_iteration

__all__ = ["PcaStatus", "PcaResult", "robust_pca", "naive_pca"]

FILTER_TRIGGER = 2.35     # T_hat = 2.35 * gamma * sigma_trimmed
PRUNE_FACTOR = 10.0       # prune radius^2 = 10 * sigma_op * d / eps
QUANTILE_FLOOR = 0.1      # L >= 0.1 * sigma_op / d for unit directions
CERT_FAILURE_PROB = 0.1  # one solve's failure budget (``failure_share``)
SAFE_EXPONENT = 200       # batch rows are solved in [2^-200, 2^200]


def failure_share(j: int) -> float:
    """CERT_FAILURE_PROB / (j (j + 1)), the j-th share of a solve's failure budget.

    The one home of the failure argument. ``drive`` makes a solve's only
    share sequence, ``map(failure_share, itertools.count(1))``, and each
    estimate that can fail takes the next share when it runs, so none is
    held for one that never runs. As 1 / (j (j + 1)) = 1 / j - 1 / (j + 1),
    the shares sum to less than CERT_FAILURE_PROB however many a solve takes:
    by the union bound, which needs no independence, a solve whose estimates
    each fail with at most their share fails with at most CERT_FAILURE_PROB.
    """
    return CERT_FAILURE_PROB / (j * (j + 1))


class PcaStatus(enum.Enum):
    ACCEPTED = "accepted"
    FALLBACK_BEST = "fallback_best"
    FAILED = "failed"


@dataclass
class PcaResult:
    u: np.ndarray | None
    sigma_robust: float
    status: PcaStatus
    iterations: int
    filters_created: int


class BatchEstimators:
    """Exact batch answers over an in-memory population.

    Survivors are the mask ``weights`` and the operator ``op`` over
    ``points[weights]``: the prologue reads ``points`` in place when the
    prune keeps every row and gathers the survivors otherwise, and each new
    filter compresses them into a copy. Every answer reads ``op.rows``, so
    no pruned or filtered row is projected again; the certificate and the
    direction share ``op``, so a survivor set forms its Gram matrix at most
    once. Each survivor is projected once per iteration: ``start_iteration``
    keeps the scores, and ``register_entry`` cuts them at the entry's
    threshold.
    """

    def __init__(self, points: np.ndarray, config: AlgoConfig, sq_norms: np.ndarray):
        self.points = np.asarray(points, dtype=np.float64)
        self.sq_norms = sq_norms
        self.n, self.dim = self.points.shape
        self.config = config
        self.weights = np.ones(self.n, dtype=bool)
        self.op: SecondMomentOp | None = None
        self.stack = FilterStack()
        self._scores: np.ndarray | None = None

    def prologue(self, _shares):
        # One squared-norm pass serves the bracket and the prune. Rows whose
        # squared norm overflows take no part, even at eps = 0. The radius^2
        # is clamped to the largest finite squared norm: the same rows stay,
        # and the filter's range R is finite even where 10 sigma_op d / eps
        # overflows.
        g, eps = self.sq_norms, self.config.eps
        finite = g[FilterStack().within_radius(g)]
        sigma_op = opnorm_bracket(finite, eps, self.n)
        radius_sq = PRUNE_FACTOR * sigma_op * self.dim / eps if eps > 0 else math.inf
        self.stack = FilterStack(prune_radius_sq=min(radius_sq, finite.max(initial=0.0)))
        self.weights = self.stack.within_radius(g)
        self.op = SecondMomentOp(self.points if self.weights.all()
                                 else self.points[self.weights])
        return sigma_op, 0.0

    def certificate(self, shares, rng: np.random.Generator,
                    _rng_dir: np.random.Generator) -> Candidate:
        return sample_top_eigenvector(self.op, self.n, self.config.eps,
                                      self.config.gamma, next(shares), rng)

    def direction(self, rng: np.random.Generator, _rider) -> np.ndarray | None:
        p = certificate.power_chain_length(self.dim, self.config.gamma, certificate.START_FAILURE)
        return power_direction(self.op, p, rng.standard_normal(self.dim))

    def start_iteration(self, v: np.ndarray) -> None:
        self._scores = (self.op.rows @ v) ** 2

    def quantile_value(self, tail: float, _shares) -> float:
        return weighted_quantile(self._scores, tail)

    def sigma_trimmed(self, cap: float, _shares) -> float:
        return trimmed_variance(self._scores, cap, self.n)

    def mean_score(self, L: float, thr: float, _bound: float, _shares) -> float:
        f = self._scores
        return float(np.sum(f[(f > L) & (f <= thr)])) / self.n

    def register_entry(self, entry: FilterEntry) -> None:
        keep = self._scores <= entry.threshold_sq
        self.weights[self.weights] = keep
        self.stack = self.stack.with_entry(entry)
        # Not a downdate of G: subtracting the removed rows' share can cancel.
        self.op = SecondMomentOp(self.op.rows[keep])


def drive(suite, cfg: AlgoConfig, seed: int | None, trace_sink=None) -> PcaResult:
    """Iterations t = 1, ..., t_end of one solve; returns a PcaResult (without timing).

    Each estimate takes the next of the solve's ``shares`` (``failure_share``);
    the filter direction takes none, since only the certificate vouches for
    an ACCEPTED output and the filter's trigger is sound along any unit
    direction. So a solve runs at most t_end certificates and registers at
    most t_end filters; ``iterations`` is the t of its last certificate, 0
    if none ran. A ``seed`` of None is seed 0.

    ``trace_sink`` receives one event per rejected iteration, a dict with
    the keys ``t``, ``p`` (the direction's power, the stream certificate
    chain's length, read through ``certificate`` so that a patched length
    sets both), ``rounds`` (the filter's) and ``skipped`` (no direction ran,
    as at eps = 0). An event that is not skipped also has ``mean_score``
    (the filter's final mean), ``cutoff`` (its L), ``sigma`` (the trimmed
    variance) and ``t_hat`` (the trigger). ``robust_pca`` adds ``weights``.
    """
    seed = 0 if seed is None else seed
    rng_cert, rng_dir, rng_filt = (rng_stream(seed, 0, i) for i in (1, 2, 3))

    d = suite.dim
    p = certificate.power_chain_length(d, cfg.gamma, certificate.START_FAILURE)
    t_end = cfg.t_end_for(d)
    tail = TRIM_TAIL * cfg.eps

    best: Candidate | None = None
    last_t = 0
    shares = map(failure_share, itertools.count(1))

    try:
        sigma_op, delta = suite.prologue(shares)
        for t in range(1, t_end + 1):
            last_t = t
            cand = suite.certificate(shares, rng_cert, rng_dir)
            if cand.accepted:
                return PcaResult(
                    u=cand.u, sigma_robust=cand.sigma_robust,
                    status=PcaStatus.ACCEPTED, iterations=t,
                    filters_created=len(suite.stack),
                )
            if best is None or cand.sigma_robust > best.sigma_robust:
                best = cand

            # At eps = 0 the tail cut is the largest score, so no filter can
            # fire and no direction is run.
            event = {"t": t, "p": p, "rounds": 0, "skipped": tail == 0}
            if tail > 0:
                v = suite.direction(rng_dir, cand.rider)
                if v is None:
                    raise DegenerateStateError("surviving second moment collapsed to zero")
                suite.start_iteration(v)
                L = max(suite.quantile_value(tail, shares), QUANTILE_FLOOR * sigma_op / d)
                sigma = suite.sigma_trimmed(L, shares)
                t_hat = FILTER_TRIGGER * cfg.gamma * sigma
                outcome = hard_thresholding_filter(
                    lambda thr, bound: suite.mean_score(L, thr, bound, shares),
                    v, L, t_hat, suite.stack.prune_radius_sq, delta, rng_filt,
                )
                if outcome.new_entry is not None:
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
                         iterations=last_t, filters_created=len(suite.stack))
    return PcaResult(u=best.u, sigma_robust=best.sigma_robust,
                     status=PcaStatus.FALLBACK_BEST, iterations=last_t,
                     filters_created=len(suite.stack))


def solve_config(eps: float, gamma: float | None, config: AlgoConfig | None) -> AlgoConfig:
    """The one config a solve runs: ``config`` (default ``AlgoConfig()``) at ``eps``.

    A config's gamma belongs to the eps it was built with: at another eps
    an unset gamma takes that eps's default. A ``gamma`` passed wins.
    """
    config = config if config is not None else AlgoConfig(eps=eps)
    keep = gamma is None and eps == config.eps
    return dc_replace(config, eps=eps, gamma=config.gamma if keep else gamma)


def robust_pca(ds: WeightedDataset, eps: float, gamma: float | None = None,
               config: AlgoConfig | None = None, rng_seed: int | None = None,
               trace_sink=None) -> PcaResult:
    """Recover a near-top variance direction from eps-corrupted batch data.

    Returns the first certified candidate (status ACCEPTED), else the
    rejected one of highest robust variance (FALLBACK_BEST). Each event
    passed to ``trace_sink`` carries the survivor mask after its iteration
    as ``weights``.

    When the median row's largest |entry| lies outside [2^-200, 2^200], where
    squared norms and matvecs over- or underflow, the solve runs exactly on a
    copy scaled by 2^-k into [1/2, 1), and the reported variances are scaled
    back by 4^k. The median, not the largest entry, sets the scale, so that a
    few outlier rows cannot flush the rest to zero. The rows' squared norms g
    are computed once, here, for the scale check and the prologue, and spare
    the per-row max/min pass when min g and max g lie in [4 d 2^-400, 2^398]:
    row by row, peak^2 <= g <= d peak^2, so every peak, and so the median
    peak, then lies in [2^-200, 2^200] and k = 0 (the factor 4 covers
    rounding).
    """
    cfg = solve_config(eps, gamma, config)
    points = ds.points
    g = np.einsum("ij,ij->i", points, points)
    k = 0
    lo, hi = 4.0 * ds.dim * 2.0 ** (-2 * SAFE_EXPONENT), 2.0 ** (2 * SAFE_EXPONENT - 2)
    if not (lo <= g.min() and g.max() <= hi):
        peak = float(np.median(np.maximum(points.max(axis=1), -points.min(axis=1))))
        if peak > 0 and not 2.0 ** -SAFE_EXPONENT <= peak <= 2.0 ** SAFE_EXPONENT:
            k = math.frexp(peak)[1]
            points = np.ldexp(points, -k)
            g = np.einsum("ij,ij->i", points, points)
    suite = BatchEstimators(points, cfg, g)

    def sink(event: dict) -> None:
        scaled = {key: float(np.ldexp(event[key], 2 * k))
                  for key in ("mean_score", "cutoff", "sigma", "t_hat") if key in event}
        trace_sink({**event, **scaled, "weights": suite.weights.copy()})

    result = drive(suite, cfg, rng_seed, None if trace_sink is None else sink)
    result.sigma_robust = float(np.ldexp(result.sigma_robust, 2 * k))
    return result


def naive_pca(points: np.ndarray, rng: np.random.Generator):
    """Baseline: plain power iteration on the uncorrected second moment."""
    points = np.asarray(points, dtype=np.float64)
    d = points.shape[1]
    p_iters = max(64, 8 * math.ceil(math.log(max(d, 2))))
    op = SecondMomentOp(points)
    return power_iteration(op, p_iters, rng)
