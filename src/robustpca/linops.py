"""Implicit linear-operator layer over weighted second moments.

Everything the recovery algorithms do with a covariance-like matrix goes
through matrix-vector products here; the matrix itself is never formed.
Batch operators read an in-memory dataset, streaming estimators consume
minibatches from a sample source.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FilterStack
from .errors import DegenerateStateError
from .estimators import stream_mean_estimate
from .sources import SampleSource, ScalarLedger

__all__ = [
    "SecondMomentOp",
    "power_direction",
    "streamed_power_apply",
    "streamed_power_direction",
    "accepted_scores",
    "accepted_band_mean",
    "power_iteration",
    "approx_power_iteration",
    "gaussian_retry",
    "rejection_batch",
]

_STREAM_CHUNK = 1024


class SecondMomentOp:
    """Second-moment matvec sum_i x_i (x_i . z) / denominator over the given rows.

    The divisor defaults to the row count (the normalized moment); pass the
    population size n for the unnormalized one. The rows are referenced, not
    copied. ``matvec`` runs in one pass, O(m d) arithmetic, O(d) extra
    memory. Deterministic given the rows.
    """

    def __init__(self, rows: np.ndarray, denominator: float | None = None):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be (m, d)")
        self.surviving, self.dim = rows.shape
        self.denominator = float(self.surviving if denominator is None else denominator)
        if self.denominator == 0:
            raise DegenerateStateError("second moment with divisor 0 (no surviving rows)")
        self._rows = rows

    def matvec(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.ndim not in (1, 2) or z.shape[0] != self.dim:
            raise ValueError(
                f"expected a ({self.dim},) vector or ({self.dim}, m) block, "
                f"got shape {z.shape}"
            )
        return self._rows.T @ (self._rows @ z) / self.denominator

    def materialize(self) -> np.ndarray:
        """Dense (d, d) matrix; diagnostics and small-instance oracles only."""
        return self._rows.T @ self._rows / self.denominator


def power_direction(op: SecondMomentOp, p: int, z: np.ndarray) -> np.ndarray | None:
    """Unit vector along op^p z, renormalizing each step to avoid overflow.

    Returns None when the iterate collapses to the zero vector.
    """
    u = np.asarray(z, dtype=np.float64)
    for _ in range(p):
        u = op.matvec(u)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0 or not math.isfinite(nrm):
            return None
        u = u / nrm
    nrm = float(np.linalg.norm(u))
    if nrm == 0.0:
        return None
    return u / nrm


def rejection_batch(source: SampleSource, stack: FilterStack,
                    batch_size: int) -> np.ndarray:
    """The rows the stack accepts among ``batch_size`` fresh draws.

    Raising when nothing is accepted keeps downstream moment estimates well
    defined.
    """
    pts = source.draw(batch_size)
    keep = stack.weights(pts)
    accepted = pts[keep]
    if accepted.shape[0] == 0:
        raise DegenerateStateError(
            f"minibatch of {batch_size} samples was entirely rejected by the filter stack"
        )
    return accepted


def accepted_scores(source: SampleSource, stack: FilterStack, v: np.ndarray,
                    k: int) -> np.ndarray:
    """k squared projections (x.v)^2 of fresh stream samples the stack accepts.

    Draws one batch of k, then tops up with batches of (missing + 8) until k
    accepted scores are in hand.
    """
    pts = rejection_batch(source, stack, max(k, 1))
    got = (pts @ v) ** 2
    while got.size < k:
        pts = rejection_batch(source, stack, k - got.size + 8)
        got = np.concatenate([got, (pts @ v) ** 2])
    return got[:k]


def accepted_band_mean(source: SampleSource, stack: FilterStack, v: np.ndarray,
                       lo: float, hi: float, fail_prob: float, n_batch: int,
                       ledger: ScalarLedger | None = None) -> float:
    """Median-of-means estimate of E[w(x) f(x) 1(lo < f(x) <= hi)], f = (x.v)^2.

    ``v`` must be a unit vector. Each chunk is scored in one product over all
    its rows, which costs less than gathering the accepted rows first. An
    accepted row has a finite squared norm, which bounds its score, so only
    rejected rows can overflow or turn NaN here; their floating-point flags
    are muted and their scores are replaced by zeros before any sum.
    """
    def draw(k: int) -> np.ndarray:
        pts = source.draw(k)
        keep = stack.weights(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            f = (pts @ v) ** 2
        return np.where(keep & (f > lo) & (f <= hi), f, 0.0)

    return stream_mean_estimate(draw, fail_prob, n_batch=n_batch, ledger=ledger)


def streamed_power_apply(source: SampleSource, stack: FilterStack, p: int,
                         batch_size: int, block: np.ndarray,
                         ledger: ScalarLedger | None = None,
                         chunk: int = _STREAM_CHUNK):
    """Minibatch matrix power applied to a (d, m) block in one streamed pass.

    The first ``batch_size`` draws only estimate the surviving mass W; each of
    the next p batches of ``batch_size`` draws applies one factor
    u -> W^2 * mean(x (x.u)) over its accepted samples, so exactly
    (p+1)*batch_size samples are consumed. Samples stream through a
    fixed-size chunk buffer and no batch is retained, so resident memory is
    O(d*m + chunk*d) regardless of batch_size. In long chains each column is
    rescaled on its own when its values leave the [1e-100, 1e100] range, so at
    large powers every output column is defined up to its own positive scalar.
    Returns (applied_block, w_hat).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    block = np.asarray(block, dtype=np.float64)
    squeeze = block.ndim == 1
    u = block[:, None] if squeeze else block.copy()
    d, m = u.shape
    ledger = ledger if ledger is not None else ScalarLedger()
    chunk = max(1, min(chunk, batch_size))

    with ledger.reserve(2 * d * m + chunk * d):
        kept = 0
        total = 0
        while total < batch_size:
            take = min(chunk, batch_size - total)
            pts = source.draw(take)
            kept += int(np.count_nonzero(stack.weights(pts)))
            total += take
        w_hat = kept / batch_size

        for _ in range(p):
            acc = np.zeros((d, m))
            m_count = 0
            total = 0
            while total < batch_size:
                take = min(chunk, batch_size - total)
                pts = source.draw(take)
                keep = stack.weights(pts)
                sub = pts[keep]
                if sub.shape[0]:
                    acc += sub.T @ (sub @ u)
                    m_count += sub.shape[0]
                total += take
            if m_count == 0:
                raise DegenerateStateError(
                    f"minibatch of {batch_size} samples was entirely rejected "
                    f"by the filter stack"
                )
            u = (w_hat ** 2 / m_count) * acc
            # Rescale each column of a long product chain away from the float
            # range edges (all consumers are scale-free or normalize). A joint
            # rescale would let one large column push a small one into
            # denormals.
            peak = np.max(np.abs(u), axis=0)
            off_range = (peak > 1e100) | ((peak > 0.0) & (peak < 1e-100))
            if off_range.any():
                u = u / np.where(off_range, peak, 1.0)

    return (u[:, 0] if squeeze else u), w_hat


_POWER_RETRIES = 8


def gaussian_retry(rng: np.random.Generator, dim: int, attempt):
    """First non-None ``attempt(g)`` over fresh standard Gaussian starts g.

    Draws ``rng.standard_normal(dim)`` before each of up to 8 attempts, so a
    collapsed attempt (zero or non-finite iterate) costs one start; returns
    None when every attempt collapses.
    """
    for _ in range(_POWER_RETRIES):
        out = attempt(rng.standard_normal(dim))
        if out is not None:
            return out
    return None


def power_iteration(op: SecondMomentOp, p_iters: int, rng: np.random.Generator):
    """Randomized top-direction estimate: normalize(op^p g) for Gaussian g.

    Returns (unit vector, Rayleigh quotient). Retries a fresh g up to 8 times
    if the iterate collapses to zero (rank-deficient operator, unlucky g).
    """
    if p_iters < 1:
        raise ValueError("p_iters must be at least 1")
    y = gaussian_retry(rng, op.dim, lambda g: power_direction(op, p_iters, g))
    if y is None:
        raise DegenerateStateError(
            f"power iteration produced the zero vector {_POWER_RETRIES} times; "
            f"operator appears to be zero"
        )
    return y, float(y @ op.matvec(y))


def streamed_power_direction(source: SampleSource, stack: FilterStack, p: int,
                             batch_size: int, rng: np.random.Generator,
                             ledger: ScalarLedger | None = None) -> np.ndarray | None:
    """Unit vector along a minibatch power chain applied to a Gaussian start.

    Draws a fresh start and a fresh chain up to 8 times while the chain
    output has zero or non-finite norm; returns None if every attempt
    collapses.
    """
    def attempt(z: np.ndarray) -> np.ndarray | None:
        y, _w = streamed_power_apply(source, stack, p, batch_size, z, ledger=ledger)
        nrm = float(np.linalg.norm(y))
        return y / nrm if nrm > 0 and math.isfinite(nrm) else None

    return gaussian_retry(rng, source.dim, attempt)


def approx_power_iteration(source: SampleSource, stack: FilterStack, p: int,
                           reps: int, batch_size: int, rng: np.random.Generator,
                           ledger: ScalarLedger | None = None) -> float:
    """Best Rayleigh quotient over ``reps`` randomized minibatch power probes.

    The ``reps`` Gaussian starts form the columns of one (d, reps) block that
    goes through a single streamed power chain (block iteration). Each output
    column is normalized on its own; columns with zero or non-finite norm are
    dropped. The survivors are scored against one independent minibatch
    moment and the max is kept; the independent starts boost the constant
    success probability of a single probe. Consumes exactly
    (p + 2) * batch_size stream samples whatever ``reps`` is.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    # Row-major fill: column j is the vector the j-th of ``reps`` separate
    # ``standard_normal(d)`` draws would give.
    starts = rng.standard_normal((reps, source.dim)).T
    y, _w = streamed_power_apply(source, stack, p, batch_size, starts, ledger=ledger)
    nrm = np.linalg.norm(y, axis=0)
    alive = np.isfinite(nrm) & (nrm > 0.0)
    if not alive.any():
        raise DegenerateStateError("every power probe collapsed to the zero vector")
    y = y[:, alive] / nrm[alive]
    accepted = rejection_batch(source, stack, batch_size)
    proj = accepted @ y
    return float(np.max(np.sum(proj * proj, axis=0))) / accepted.shape[0]

