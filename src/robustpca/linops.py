"""Linear-operator layer over weighted second moments.

Everything the recovery algorithms do with a covariance-like matrix goes
through matrix-vector products here: ``SecondMomentOp`` over in-memory rows,
minibatch power chains over a stream. Stream rows are drawn only by
``accepted_rows`` and the stream-mean draw of ``accepted_band_mean``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FilterStack
from .errors import DegenerateStateError
from .estimators import STREAM_CHUNK, stream_mean_estimate
from .sources import SampleSource, ScalarLedger

__all__ = [
    "SecondMomentOp",
    "power_direction",
    "streamed_power_apply",
    "accepted_scores",
    "accepted_band_mean",
    "power_iteration",
    "approx_power_iteration",
]


class SecondMomentOp:
    """Normalized second-moment matvec sum_i x_i (x_i . z) / m over the m given rows.

    The rows are referenced, not copied, as ``rows``. Over m > d rows the
    operator is served from G = rows^T rows (``gram``: m d^2 multiply-adds
    once, d^2 memory below the rows' m d): a ``matvec`` column costs d^2,
    and so does a step of a ``power_direction`` chain, which multiplies by
    G itself without a ``matvec``; over m <= d rows a column costs 2 m d and
    G is never formed. A set serving c columns thus costs (m + c) d^2
    against 2 c m d over its rows, so G is never worse once c >= d; the
    solver's sets serve at least p + 1 columns, p the length of the
    certificate's chain (``certificate.power_chain_length``). G is lazy, so
    an operator never multiplied never builds it. Deterministic given the
    rows and the calls.
    """

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be (m, d)")
        self.surviving, self.dim = rows.shape
        if self.surviving == 0:
            raise DegenerateStateError("second moment over no surviving rows")
        self.rows = rows
        self._gram: np.ndarray | None = None

    def gram(self) -> np.ndarray:
        """G = rows^T rows, formed on the first call and kept."""
        if self._gram is None:
            self._gram = self.rows.T @ self.rows
        return self._gram

    def matvec(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.ndim not in (1, 2) or z.shape[0] != self.dim:
            raise ValueError(
                f"expected a ({self.dim},) vector or ({self.dim}, m) block, "
                f"got shape {z.shape}"
            )
        if self.surviving <= self.dim:
            return self.rows.T @ (self.rows @ z) / self.surviving
        return self.gram() @ z / self.surviving


def unit(u: np.ndarray) -> np.ndarray | None:
    """u / ||u|| for a vector u, or None when u is zero or not finite.

    A finite u whose squared norm over- or underflows is first scaled by the
    power of two of its largest |entry|, which is exact.
    """
    nrm = math.sqrt(float(u @ u))
    if (nrm == 0.0 or nrm == math.inf) and np.isfinite(u).all():
        u = np.ldexp(u, -np.frexp(np.abs(u).max())[1])
        nrm = math.sqrt(float(u @ u))
    return u / nrm if 0.0 < nrm < math.inf else None


def power_direction(op: SecondMomentOp, p: int, z: np.ndarray) -> np.ndarray | None:
    """Unit vector along op^p z for a vector z, renormalizing every step.

    Returns None when the iterate collapses to the zero vector or turns
    non-finite. Over m > d rows a chain of p >= 1 steps multiplies by the
    Gram matrix of ``SecondMomentOp.gram``, m times op: the direction is
    scale-free, so the chain is the same one, up to rounding. A step whose
    squared norm is a positive finite float is renormalized in place;
    ``unit`` takes the rest.
    """
    u = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):
        step = op.gram().__matmul__ if p > 0 and op.surviving > op.dim else op.matvec
        for _ in range(p):
            u = step(u)
            sq = float(u @ u)
            if 0.0 < sq < math.inf:
                u /= math.sqrt(sq)
            elif (u := unit(u)) is None:
                return None
        return unit(u)


def accepted_rows(source: SampleSource, stack: FilterStack, k: int,
                  ledger: ScalarLedger | None):
    """Yield the accepted rows of k fresh draws, ``estimators.STREAM_CHUNK`` at a time.

    A chunk the stack keeps whole is yielded as drawn, which may be a
    read-only view into the source's pool (``ReplaySource``); otherwise its
    accepted rows are gathered into a copy. Consumers only read the rows.
    The ledger books the chunk buffer, d scalars per row, until the last
    chunk is handed out; for a view that holds no rows of its own this is
    an upper bound on the memory, never an undercount. Raises
    DegenerateStateError when none of the k draws is accepted.
    """
    ledger = ledger if ledger is not None else ScalarLedger()
    accepted = 0
    with ledger.reserve(min(STREAM_CHUNK, k) * source.dim):
        for start in range(0, k, STREAM_CHUNK):
            pts = source.draw(min(STREAM_CHUNK, k - start))
            keep = stack.weights(pts)
            rows = pts if keep.all() else pts.compress(keep, axis=0)
            accepted += rows.shape[0]
            yield rows
    if accepted == 0:
        raise DegenerateStateError(f"all {k} draws were rejected by the filter stack")


def accepted_scores(source: SampleSource, stack: FilterStack, score, k: int,
                    ledger: ScalarLedger | None) -> np.ndarray:
    """k values of ``score(rows)`` over fresh stream rows the stack accepts.

    Draws k rows, then (missing + 8) at a time until k scores are in hand.
    Raises DegenerateStateError only when the first k draws accept no row: a
    top-up pass that accepts none is followed by another.
    """
    parts = []
    got, want = 0, k
    while got < k:
        try:
            for rows in accepted_rows(source, stack, want, ledger):
                parts.append(score(rows))
                got += rows.shape[0]
        except DegenerateStateError:
            if got == 0:
                raise
        want = k - got + 8
    return np.concatenate(parts)[:k]


def streamed_rayleigh(source: SampleSource, stack: FilterStack, block: np.ndarray,
                      batch_size: int, ledger: ScalarLedger | None):
    """Mean squared projection onto ``block`` of the accepted rows of fresh draws.

    One value per column of a (d, m) block, a scalar for a vector. The rows
    are projected directly, since a power chain rescales off-range columns.
    """
    total, count = 0.0, 0
    for rows in accepted_rows(source, stack, batch_size, ledger):
        proj = rows @ block
        total = total + np.sum(proj * proj, axis=0)
        count += rows.shape[0]
    return total / count


def accepted_band_mean(source: SampleSource, stack: FilterStack, v: np.ndarray,
                       lo: float, hi: float, fail_prob: float, ledger: ScalarLedger,
                       clip: bool = False, **question) -> float:
    """Stream-mean estimate of E[w(x) f(x) 1(lo < f(x) <= hi)], f = (x.v)^2.

    With ``clip`` a score above ``hi`` counts as ``hi``, not 0. ``v`` must be
    a unit vector, so an accepted score is at most B = min(hi, prune
    radius^2), the score bound of ``estimators.stream_mean_estimate``, which
    takes the ``question`` (bar and margin, or rel_tol and floor) as it is
    and sizes its rows from it (``estimators.mean_ceiling``). Each chunk of
    at most ``estimators.STREAM_CHUNK`` rows is booked and scored in one
    product over all its rows, which costs less than gathering the accepted
    rows. An accepted row has a finite squared norm, which bounds its score,
    so only rejected rows can overflow or turn NaN here; their floating-point
    flags are muted and their scores are replaced by zeros before any sum.
    """
    def draw(k: int) -> np.ndarray:
        with ledger.reserve(k * source.dim):
            pts = source.draw(k)
            keep = stack.weights(pts)
            with np.errstate(over="ignore", invalid="ignore"):
                f = (pts @ v) ** 2
                f = np.minimum(f, hi) if clip else f
            return np.where(keep & (f > lo) & (f <= hi), f, 0.0)

    return stream_mean_estimate(draw, fail_prob, score_bound=min(hi, stack.prune_radius_sq),
                                ledger=ledger, **question)


def streamed_power_apply(source: SampleSource, stack: FilterStack, p: int,
                         batch_size: int, block: np.ndarray,
                         ledger: ScalarLedger | None = None):
    """Minibatch matrix power applied to a (d, m) block in one streamed pass.

    Each of p batches of ``batch_size`` fresh draws applies one factor
    u -> mean(x (x.u)) over the rows the stack accepts, so exactly
    p*batch_size samples are consumed. Samples stream through
    ``accepted_rows`` in chunks and no batch is retained, so resident memory
    is O(d*m + d*STREAM_CHUNK) regardless of batch_size. In long chains each
    column is rescaled on its own when its values leave the [1e-100, 1e100]
    range, so at large powers every output column is defined up to its own
    positive scalar.
    Returns the applied block.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    u = np.array(block, dtype=np.float64)
    d, m = u.shape
    ledger = ledger if ledger is not None else ScalarLedger()

    with ledger.reserve(2 * d * m):
        for _ in range(p):
            acc = np.zeros((d, m))
            m_count = 0
            for sub in accepted_rows(source, stack, batch_size, ledger):
                acc += sub.T @ (sub @ u)
                m_count += sub.shape[0]
            u = acc / m_count
            # Rescale per column: every consumer is scale-free or normalizes,
            # and a joint rescale would push a small column into denormals.
            peak = np.max(np.abs(u), axis=0)
            off_range = (peak > 1e100) | ((peak > 0.0) & (peak < 1e-100))
            if off_range.any():
                u = u / np.where(off_range, peak, 1.0)

    return u


def power_iteration(op: SecondMomentOp, p_iters: int, rng: np.random.Generator):
    """Randomized top-direction estimate: normalize(op^p g) for one Gaussian g.

    Returns (unit vector, Rayleigh quotient). A chain that collapses, to
    zero or out of the float range, ends in DegenerateStateError and takes
    no second start: op^p g = 0 only for g in the kernel of op, a null set
    for a Gaussian g unless op = 0.
    """
    if p_iters < 1:
        raise ValueError("p_iters must be at least 1")
    y = power_direction(op, p_iters, rng.standard_normal(op.dim))
    if y is None:
        raise DegenerateStateError(
            "power iteration collapsed to the zero vector; operator appears to be zero"
        )
    return y, float(y @ op.matvec(y))


def approx_power_iteration(source: SampleSource, stack: FilterStack, p: int,
                           reps: int, batch_size: int, rng: np.random.Generator,
                           ledger: ScalarLedger | None = None, riders=()):
    """Best of ``reps`` minibatch power probes by Rayleigh quotient, plus riders.

    The ``reps`` Gaussian starts, drawn from ``rng`` as one (reps, d) block,
    are the columns of a block that goes through a single streamed power
    chain of p steps; the independent starts boost the constant success
    probability of a single probe. Each output column is normalized on its
    own, columns with zero or non-finite norm are dropped, and the column
    with the best ``streamed_rayleigh`` on one fresh minibatch is kept.

    More starts, the vectors of ``riders``, ride the same p steps as further
    columns of the block. So a rider sees p fresh iid minibatches from a
    start drawn independently of them, exactly what a p-step chain on
    minibatches of its own would see, and each estimate keeps the
    distribution it had alone: the stream certificate's rider, which
    ``streaming.MinibatchEstimators.direction`` hands out as the driver's
    filter direction, has the law of a p-step chain of its own. Only the
    estimates' joint law changes, as they share rows; a caller that
    union-bounds their failures needs no independence between them, because
    the union bound holds under any dependence. This is the one home of
    that argument.

    The probes are scored on the minibatch after the chain's; the riders
    are not. Returns (best unit probe, its Rayleigh quotient, [rider
    column, ...]), each rider as the chain left it, unnormalized, so zero
    or not finite if it collapsed. Raises DegenerateStateError when every
    probe collapses. Consumes exactly (p + 1) * batch_size stream samples,
    however many columns there are.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    # Row-major fill: column j is the vector the j-th of separate
    # ``standard_normal(d)`` draws would give.
    block = np.column_stack([rng.standard_normal((reps, source.dim)).T, *riders])
    block = streamed_power_apply(source, stack, p, batch_size, block, ledger=ledger)
    y = block[:, :reps]
    nrm = np.linalg.norm(y, axis=0)
    alive = np.isfinite(nrm) & (nrm > 0.0)
    if not alive.any():
        raise DegenerateStateError("every power probe collapsed to the zero vector")
    y = y[:, alive] / nrm[alive]
    rq = streamed_rayleigh(source, stack, y, batch_size, ledger)
    best = int(np.argmax(rq))
    return y[:, best].copy(), float(rq[best]), list(block[:, reps:].T.copy())
