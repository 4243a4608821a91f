"""Implicit linear-operator layer over weighted second moments.

Everything the recovery algorithms do with a covariance-like matrix goes
through matrix-vector products here; the matrix itself is never formed.
Batch operators read an in-memory dataset, streaming estimators consume
minibatches from a sample source.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import FilterStack, WeightedDataset
from .errors import DegenerateStateError
from .sources import SampleSource, ScalarLedger

__all__ = [
    "Normalization",
    "SecondMomentOp",
    "StreamingSecondMomentOp",
    "MatrixPowerEstimate",
    "apply_second_moment",
    "matrix_power_apply",
    "power_direction",
    "build_minibatch_power",
    "streamed_power_apply",
    "streamed_power_direction",
    "accepted_scores",
    "power_iteration",
    "approx_power_iteration",
    "frobenius_sq_estimate",
    "rejection_batch",
]

_STREAM_CHUNK = 1024


class Normalization(enum.Enum):
    UNNORMALIZED = "unnormalized"   # (1/n) sum_x w(x) x x^T
    NORMALIZED = "normalized"       # divided further by the surviving mass


class SecondMomentOp:
    """Weighted second-moment matvec over an in-memory dataset.

    ``matvec`` runs in one pass, O(n d) arithmetic, O(d) extra memory beyond
    the cached survivor view. Deterministic given the data.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray | None = None,
                 normalization: Normalization = Normalization.UNNORMALIZED):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be (n, d)")
        self.n_total = points.shape[0]
        self.dim = points.shape[1]
        if weights is None:
            weights = np.ones(self.n_total, dtype=bool)
        weights = np.asarray(weights, dtype=bool)
        if weights.shape != (self.n_total,):
            raise ValueError("weights must have one entry per point")
        self.normalization = normalization
        self.surviving = int(np.count_nonzero(weights))
        if normalization is Normalization.NORMALIZED and self.surviving == 0:
            raise DegenerateStateError("no surviving points under NORMALIZED operator")
        self._survivors = points[weights]

    @classmethod
    def from_dataset(cls, ds: WeightedDataset,
                     normalization: Normalization = Normalization.UNNORMALIZED,
                     weights: np.ndarray | None = None) -> "SecondMomentOp":
        w = ds.weights() if weights is None else weights
        return cls(ds.points, w, normalization)

    @property
    def denominator(self) -> float:
        if self.normalization is Normalization.NORMALIZED:
            return float(self.surviving)
        return float(self.n_total)

    def matvec(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.ndim not in (1, 2) or z.shape[0] != self.dim:
            raise ValueError(
                f"expected a ({self.dim},) vector or ({self.dim}, m) block, "
                f"got shape {z.shape}"
            )
        if self._survivors.shape[0] == 0:
            return np.zeros_like(z, dtype=np.float64)
        return self._survivors.T @ (self._survivors @ z) / self.denominator

    def materialize(self) -> np.ndarray:
        """Dense (d, d) matrix; diagnostics and small-instance oracles only."""
        if self._survivors.shape[0] == 0:
            return np.zeros((self.dim, self.dim))
        return self._survivors.T @ self._survivors / self.denominator


def apply_second_moment(op, z: np.ndarray) -> np.ndarray:
    return op.matvec(z)


class StreamingSecondMomentOp:
    """Second-moment matvec backed by a sample source: one minibatch per call.

    Each matvec draws ``batch_size`` fresh samples, rejects against the
    filter stack, and applies the accepted empirical moment (scaled by the
    batch acceptance rate when unnormalized). Unlike the batch operator,
    successive matvecs use independent estimates.
    """

    def __init__(self, source: SampleSource, stack: FilterStack, batch_size: int,
                 normalization: Normalization = Normalization.NORMALIZED):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.source = source
        self.stack = stack
        self.batch_size = batch_size
        self.normalization = normalization
        self.dim = source.dim

    def matvec(self, z: np.ndarray) -> np.ndarray:
        accepted, rate = rejection_batch(self.source, self.stack, self.batch_size)
        out = accepted.T @ (accepted @ np.asarray(z, dtype=np.float64))
        out /= accepted.shape[0]
        if self.normalization is Normalization.UNNORMALIZED:
            out *= rate
        return out


@dataclass
class _BatchFactor:
    op: SecondMomentOp

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.op.matvec(u)


@dataclass
class _MinibatchFactor:
    """One stored minibatch estimate: u -> W_hat^2 * mean_{x in batch} x (x.u)."""

    accepted: np.ndarray
    w_hat: float

    def apply(self, u: np.ndarray) -> np.ndarray:
        scale = self.w_hat ** 2 / self.accepted.shape[0]
        return scale * (self.accepted.T @ (self.accepted @ u))


class MatrixPowerEstimate:
    """Implicit power of a second-moment matrix: p factors applied in order.

    Batch mode holds p references to one exact operator; streaming mode holds
    p independent minibatch estimates. ``apply`` accepts a vector or a (d, m)
    block and is deterministic once built.
    """

    def __init__(self, factors, dim: int):
        self.factors = list(factors)
        self.dim = dim

    @property
    def power(self) -> int:
        return len(self.factors)

    @classmethod
    def from_op(cls, op: SecondMomentOp, p: int) -> "MatrixPowerEstimate":
        if p < 0:
            raise ValueError("power must be nonnegative")
        return cls([_BatchFactor(op)] * p, op.dim)

    def apply(self, z: np.ndarray) -> np.ndarray:
        u = np.asarray(z, dtype=np.float64)
        for factor in self.factors:
            u = factor.apply(u)
        return u


def matrix_power_apply(est: MatrixPowerEstimate, z: np.ndarray) -> np.ndarray:
    return est.apply(z)


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


def rejection_batch(source: SampleSource, stack: FilterStack, batch_size: int):
    """One batch of ``batch_size`` raw draws, split by the stack's weights.

    Returns (accepted_points, acceptance_fraction). Raising when nothing is
    accepted keeps downstream moment estimates well defined.
    """
    pts = source.draw(batch_size)
    keep = stack.weights(pts)
    accepted = pts[keep]
    if accepted.shape[0] == 0:
        raise DegenerateStateError(
            f"minibatch of {batch_size} samples was entirely rejected by the filter stack"
        )
    return accepted, accepted.shape[0] / batch_size


def accepted_scores(source: SampleSource, stack: FilterStack, v: np.ndarray,
                    k: int) -> np.ndarray:
    """k squared projections (x.v)^2 of fresh stream samples the stack accepts.

    Draws one batch of k, then tops up with batches of (missing + 8) until k
    accepted scores are in hand.
    """
    pts, _ = rejection_batch(source, stack, max(k, 1))
    got = (pts @ v) ** 2
    while got.size < k:
        pts, _ = rejection_batch(source, stack, k - got.size + 8)
        got = np.concatenate([got, (pts @ v) ** 2])
    return got[:k]


def build_minibatch_power(source: SampleSource, stack: FilterStack, p: int,
                          batch_size: int, rng=None) -> MatrixPowerEstimate:
    """Implicit matrix power from (p+1) minibatches off a sample source.

    The first batch only estimates the surviving mass W; each later batch
    yields one factor u -> W^2 * mean(x (x.u)) over its accepted samples.
    Consumes exactly (p+1)*batch_size stream samples; the returned estimate
    re-applies deterministically.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if p < 0:
        raise ValueError("power must be nonnegative")
    s0 = source.draw(batch_size)
    w_hat = float(np.count_nonzero(stack.weights(s0))) / batch_size
    factors = []
    for _ in range(p):
        accepted, _rate = rejection_batch(source, stack, batch_size)
        factors.append(_MinibatchFactor(accepted, w_hat))
    return MatrixPowerEstimate(factors, source.dim)


def streamed_power_apply(source: SampleSource, stack: FilterStack, p: int,
                         batch_size: int, block: np.ndarray,
                         ledger: ScalarLedger | None = None,
                         chunk: int = _STREAM_CHUNK):
    """Fused build-and-apply of a minibatch matrix power to a (d, m) block.

    Mathematically the same estimator as ``build_minibatch_power`` followed by
    ``apply``, but samples stream through a fixed-size chunk buffer and no
    batch is retained, so resident memory is O(d*m + chunk*d) regardless of
    batch_size. In long chains each column is rescaled on its own when its
    values leave the [1e-100, 1e100] range, so at large powers every output
    column is defined up to its own positive scalar. Returns
    (applied_block, w_hat).
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


def power_iteration(op: SecondMomentOp, p_iters: int, rng: np.random.Generator):
    """Randomized top-direction estimate: normalize(op^p g) for Gaussian g.

    Returns (unit vector, Rayleigh quotient). Retries a fresh g up to 8 times
    if the iterate collapses to zero (rank-deficient operator, unlucky g).
    """
    if p_iters < 1:
        raise ValueError("p_iters must be at least 1")
    for _ in range(_POWER_RETRIES):
        g = rng.standard_normal(op.dim)
        y = power_direction(op, p_iters, g)
        if y is not None:
            rayleigh = float(y @ op.matvec(y))
            return y, rayleigh
    raise DegenerateStateError(
        f"power iteration produced the zero vector {_POWER_RETRIES} times; "
        f"operator appears to be zero"
    )


def streamed_power_direction(source: SampleSource, stack: FilterStack, p: int,
                             batch_size: int, rng: np.random.Generator,
                             ledger: ScalarLedger | None = None) -> np.ndarray | None:
    """Unit vector along a minibatch power chain applied to a Gaussian start.

    Draws a fresh start and a fresh chain up to 8 times while the chain
    output has zero or non-finite norm; returns None if every attempt
    collapses.
    """
    for _ in range(_POWER_RETRIES):
        z = rng.standard_normal(source.dim)
        y, _w = streamed_power_apply(source, stack, p, batch_size, z, ledger=ledger)
        nrm = float(np.linalg.norm(y))
        if nrm > 0 and math.isfinite(nrm):
            return y / nrm
    return None


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
    accepted, _rate = rejection_batch(source, stack, batch_size)
    proj = accepted @ y
    return float(np.max(np.sum(proj * proj, axis=0))) / accepted.shape[0]


def frobenius_sq_estimate(apply_fn, dim: int, rng: np.random.Generator,
                          n_probes: int = 8) -> float:
    """Unbiased Frobenius-norm-squared estimate of an implicit matrix.

    Uses E ||M z||^2 = tr(M^T M) for Gaussian z, averaged over a block of
    probes applied in one shot.
    """
    z = rng.standard_normal((dim, n_probes))
    out = apply_fn(z)
    return float(np.sum(out * out)) / n_probes
