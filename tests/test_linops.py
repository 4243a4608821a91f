import math

import numpy as np
import pytest
from dense_oracles import dense_power_apply, weighted_second_moment_dense

from robustpca import (
    FilterStack,
    ReplaySource,
    ScalarLedger,
    SecondMomentOp,
    SyntheticSource,
    approx_power_iteration,
    power_direction,
    power_iteration,
    rng_stream,
    streamed_power_apply,
)
from robustpca.errors import DegenerateStateError
from robustpca.linops import accepted_rows, accepted_scores


def op_from(points):
    return SecondMomentOp(np.asarray(points, dtype=float))


def dense_moment(rows):
    """The dense matrix an operator over ``rows`` applies: sum x x^T / m."""
    rows = np.asarray(rows, dtype=float)
    return weighted_second_moment_dense(rows, np.ones(rows.shape[0], dtype=bool))


def axis_points_for_diag(diag):
    """Points whose unnormalized second moment is exactly diag(values)."""
    d = len(diag)
    pts = np.zeros((d, d))
    for i, v in enumerate(diag):
        pts[i, i] = math.sqrt(v * d)
    return pts


# -- second-moment matvec ------------------------------------------------------

def test_two_axis_points_normalized():
    op = op_from([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(op.matvec(np.array([1.0, 1.0])), [0.5, 0.5])


def test_single_point_normalized():
    op = op_from([[2.0, 0.0]])
    np.testing.assert_allclose(op.matvec(np.array([1.0, 0.0])), [4.0, 0.0])


def test_matvec_matches_dense():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((7, 3))
    w = np.array([1, 1, 0, 1, 1, 1, 0], dtype=bool)
    op = op_from(pts[w])
    dense = dense_moment(pts[w])
    for _ in range(5):
        z = rng.standard_normal(3)
        got = op.matvec(z)
        assert np.linalg.norm(got - dense @ z) <= 1e-12 * max(1.0, np.linalg.norm(dense @ z))


def test_zero_survivors_normalized_raises():
    with pytest.raises(DegenerateStateError):
        op_from(np.zeros((0, 3)))


def test_symmetry_and_psd():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 6)) * 3
    op = op_from(pts)
    scale = float(np.trace(dense_moment(pts)))
    for _ in range(100):
        z = rng.standard_normal(6)
        w = rng.standard_normal(6)
        lhs = float(z @ op.matvec(w))
        rhs = float(w @ op.matvec(z))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        quad = float(z @ op.matvec(z))
        assert quad >= -1e-12 * float(z @ z) * scale


def test_matvec_scaling_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((15, 4))
    z = rng.standard_normal(4)
    c = 7.3
    base = op_from(pts).matvec(z)
    scaled = op_from(c * pts).matvec(z)
    np.testing.assert_allclose(scaled, c * c * base, rtol=1e-12)


# -- Gram dispatch ---------------------------------------------------------------
# An operator over m > d rows serves every column from G = rows^T rows, which
# its first matvec forms; over m <= d rows it never forms G.

def gram_op(rows):
    op = op_from(rows)
    op.matvec(np.ones(op.dim))
    assert op._gram is not None
    return op


def test_gram_matvec_matches_rows():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((200, 6))
    op = gram_op(rows)
    for z in (rng.standard_normal(6), rng.standard_normal((6, 3))):
        np.testing.assert_allclose(op.matvec(z), rows.T @ (rows @ z) / 200, rtol=1e-12)


def test_first_matvec_forms_gram():
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((200, 6))
    op = op_from(rows)
    assert op._gram is None
    z = rng.standard_normal(6)
    got = op.matvec(z)
    assert op._gram is not None
    np.testing.assert_allclose(got, rows.T @ (rows @ z) / 200, rtol=1e-12)


@pytest.mark.parametrize("m", [5, 8])
def test_no_gram_when_rows_do_not_outnumber_columns(m):
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((m, 8))
    op = op_from(rows)
    assert power_direction(op, 1000, rng.standard_normal(8)) is not None
    assert op._gram is None
    z = rng.standard_normal(8)
    np.testing.assert_array_equal(op.matvec(z), rows.T @ (rows @ z) / m)


@pytest.mark.parametrize("j", [-300, 300])
def test_gram_matvec_scales_exactly(j):
    rng = np.random.default_rng(14)
    rows = rng.standard_normal((200, 6))
    z = rng.standard_normal(6)
    base, scaled = gram_op(rows), gram_op(np.ldexp(rows, j))
    np.testing.assert_array_equal(scaled.matvec(z), np.ldexp(base.matvec(z), 2 * j))


# -- matrix powers --------------------------------------------------------------
# power_direction returns the unit vector along op^p z.

def test_power_zero_is_identity():
    op = op_from(np.eye(3))
    z = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(power_direction(op, 0, z), z / np.linalg.norm(z))
    op = op_from(np.random.default_rng(17).standard_normal((50, 4)))
    z = np.array([3.0, 0.0, -4.0, 0.0])
    np.testing.assert_array_equal(power_direction(op, 0, z), z / 5.0)
    assert op._gram is None


def test_power_two_on_diag():
    op = op_from([[2.0, 0.0], [0.0, math.sqrt(2.0)]])  # B = diag(2, 1)
    np.testing.assert_allclose(power_direction(op, 2, np.array([1.0, 1.0])),
                               np.array([4.0, 1.0]) / math.sqrt(17.0), rtol=1e-12)


def test_power_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(3, 60))
        p = int(rng.integers(1, 300))
        pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=d)
        op = op_from(pts)
        z = rng.standard_normal(d)
        moment = dense_moment(pts)
        want = dense_power_apply(moment / np.trace(moment), p, z)
        got = power_direction(op, p, z)
        assert np.linalg.norm(got - want / np.linalg.norm(want)) <= 1e-12
        for j in (-300, 300):
            # Every product and squared norm scales by a power of two exactly.
            np.testing.assert_array_equal(power_direction(op_from(np.ldexp(pts, j)), p, z), got)


def test_long_power_on_isotropic_rows_returns_the_start():
    # lambda_1 / tr G = 1 / d, the smallest share a top eigenvalue can take;
    # G = 2 I, so each of the 5,000 steps doubles the iterate before it is
    # renormalized.
    d, p = 1024, 5000
    op = op_from(np.tile(np.eye(d), (2, 1)))
    z = np.random.default_rng(16).standard_normal(d)
    u = power_direction(op, p, z)
    assert u is not None and np.isfinite(u).all()
    assert abs(float(u @ u) - 1.0) <= 1e-12
    np.testing.assert_allclose(u, z / np.linalg.norm(z), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("entry", [0.0, 1e200, np.nan])
def test_power_on_zero_or_non_finite_gram_returns_none(entry):
    # A zero G, one whose entries overflow, or one with a NaN.
    rows = np.zeros((10, 3))
    rows[4, 1] = entry
    assert power_direction(op_from(rows), 5, np.ones(3)) is None


# -- minibatch powers ------------------------------------------------------------
# streamed_power_apply applies p factors u -> mean(x (x.u)) over the accepted
# rows of one fresh batch each.

def constant_source(vec):
    return ReplaySource(np.tile(np.asarray(vec, dtype=float), (64, 1)), mode="cycle")


def test_minibatch_rank_one_deterministic_source():
    e1 = np.array([1.0, 0.0, 0.0])
    src = constant_source(e1)
    stack = FilterStack()
    for p in (1, 2, 4):
        z = np.array([2.0, 5.0, -1.0])
        got = streamed_power_apply(src, stack, p, 8, z[:, None])[:, 0]
        # Each factor is e1 e1^T, so the chain maps z to (z . e1) e1 for every p.
        np.testing.assert_allclose(got, [2.0, 0.0, 0.0], atol=1e-12)


def test_minibatch_survival_rate_squared_scaling():
    # Half the stream is rejected by the stack. A factor is the mean over the
    # 8 accepted rows, so the survival rate does not scale the output.
    pts = np.array([[1.0, 0.0], [10.0, 0.0]] * 8)
    src = ReplaySource(pts, mode="cycle")
    stack = FilterStack(prune_radius_sq=2.0)
    got = streamed_power_apply(src, stack, 1, 16, np.array([[1.0], [0.0]]))[:, 0]
    np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)
    assert src.delivered == 16


def test_minibatch_single_sample():
    x = np.array([1.0, 2.0])
    src = ReplaySource(np.array([x, x, x]), mode="cycle")
    z = np.array([1.0, 1.0])
    got = streamed_power_apply(src, FilterStack(), 1, 1, z[:, None])[:, 0]
    np.testing.assert_allclose(got, x * float(x @ z), rtol=1e-12)


def test_accepted_rows_yields_a_wholly_kept_chunk_as_drawn(monkeypatch):
    # Chunks of 16, 16 and 8 rows; only the second holds a rejected row, so
    # only it is gathered into a copy of its 15 accepted rows.
    monkeypatch.setattr("robustpca.linops.STREAM_CHUNK", 16)
    pop = np.random.default_rng(2).standard_normal((64, 3))
    pop[20] = 100.0
    src = ReplaySource(pop, mode="cycle")
    drawn, draw = [], src.draw

    def spy(k):
        drawn.append(draw(k))
        return drawn[-1]

    monkeypatch.setattr(src, "draw", spy)
    chunks = list(accepted_rows(src, FilterStack(prune_radius_sq=50.0), 40, None))
    assert [c is d for c, d in zip(chunks, drawn)] == [True, False, True]
    np.testing.assert_array_equal(chunks[1], np.delete(pop[16:32], 4, axis=0))


def test_minibatch_all_rejected_raises():
    src = constant_source(np.array([10.0, 0.0]))
    stack = FilterStack(prune_radius_sq=1.0)
    with pytest.raises(DegenerateStateError):
        streamed_power_apply(src, stack, 1, 8, np.array([[1.0], [0.0]]))


def test_minibatch_large_batch_approaches_population():
    rng = np.random.default_rng(5)
    pop = rng.standard_normal((300, 4)) * np.array([2.0, 1.0, 0.7, 0.4])
    src = SyntheticSource(4, lambda r, k: (pop[r.integers(0, 300, size=k)], None),
                          np.random.default_rng(77))
    stack = FilterStack()
    p = 2
    z = rng.standard_normal(4)
    got = streamed_power_apply(src, stack, p, 20_000, z[:, None])[:, 0]
    want = dense_power_apply(dense_moment(pop), p, z)
    assert np.linalg.norm(got - want) <= 0.1 * np.linalg.norm(want)


def test_streamed_apply_matches_built_estimator(monkeypatch):
    # An unchunked pass (chunk >= batch) reads each batch in one draw, as an
    # estimator built batch by batch would; chunking must not change it.
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    pop = np.random.default_rng(1).standard_normal((128, 5))

    def draw(r, k):
        return pop[r.integers(0, 128, size=k)], None

    src_a, src_b = SyntheticSource(5, draw, rng_a), SyntheticSource(5, draw, rng_b)
    stack = FilterStack(prune_radius_sq=20.0)
    z = np.random.default_rng(2).standard_normal((5, 1))
    monkeypatch.setattr("robustpca.linops.STREAM_CHUNK", 50)
    want = streamed_power_apply(src_a, stack, 3, 50, z)
    monkeypatch.setattr("robustpca.linops.STREAM_CHUNK", 7)
    got = streamed_power_apply(src_b, stack, 3, 50, z)
    np.testing.assert_allclose(got, want, rtol=1e-10)
    assert src_a.delivered == src_b.delivered


def test_streamed_apply_ledger_is_batch_size_independent(monkeypatch):
    monkeypatch.setattr("robustpca.linops.STREAM_CHUNK", 32)
    pop = np.random.default_rng(1).standard_normal((64, 4))
    peaks = []
    for batch in (100, 10_000):
        led = ScalarLedger()
        src = ReplaySource(pop, mode="cycle")
        streamed_power_apply(src, FilterStack(), 2, batch, np.ones((4, 1)), ledger=led)
        peaks.append(led.peak)
    assert peaks[0] == peaks[1]


def test_streamed_apply_block_matches_single_columns(monkeypatch):
    # Columns of a block chain are independent runs over the same rows; the
    # 1e200 / 1e-200 columns are only right if each column is rescaled alone.
    pop = np.random.default_rng(3).standard_normal((256, 4))
    stack = FilterStack(prune_radius_sq=30.0)
    p, batch = 8, 60
    g = np.random.default_rng(4).standard_normal((4, 3))
    block = g * np.array([1e200, 1e-200, 1.0])
    monkeypatch.setattr("robustpca.linops.STREAM_CHUNK", 16)

    src = ReplaySource(pop, mode="cycle")
    got = streamed_power_apply(src, stack, p, batch, block)
    assert src.delivered == p * batch
    for j in range(block.shape[1]):
        src_j = ReplaySource(pop, mode="cycle")
        want = streamed_power_apply(src_j, stack, p, batch, block[:, [j]])[:, 0]
        col = got[:, j] / np.linalg.norm(got[:, j])
        want = want / np.linalg.norm(want)
        assert np.linalg.norm(col - want) <= 1e-12


# -- power iteration -------------------------------------------------------------

def test_power_iteration_diag_gap():
    op = op_from(axis_points_for_diag([5.0, 1.0]))
    rng = np.random.default_rng(6)
    y, rayleigh = power_iteration(op, 60, rng)
    assert 4.95 <= rayleigh <= 5.0 + 1e-9
    assert abs(y[0]) >= 0.99


def test_power_iteration_isotropic_exact():
    c = 3.7
    op = op_from(axis_points_for_diag([c, c, c]))
    y, rayleigh = power_iteration(op, 5, np.random.default_rng(7))
    assert rayleigh == pytest.approx(c, rel=1e-12)


def test_power_iteration_rank_one():
    v = np.array([3.0, 4.0])
    op = op_from([v])
    y, _ = power_iteration(op, 10, np.random.default_rng(8))
    assert abs(abs(float(y @ v)) / np.linalg.norm(v) - 1.0) <= 1e-12


def test_power_iteration_zero_operator_raises():
    # After one start: a chain collapses only for a start in the kernel.
    op = op_from(np.zeros((4, 3)))
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    with pytest.raises(DegenerateStateError):
        power_iteration(op, 5, rng)
    ref.standard_normal(3)
    assert rng.standard_normal() == ref.standard_normal()


def test_power_iteration_guarantee_rate():
    # 200 seeded trials on diag(1, 1-gamma, ...): failures at most 5%.
    gamma = 0.1
    d = 12
    diag = [1.0] + [1.0 - gamma] * (d - 1)
    op = op_from(axis_points_for_diag(diag))
    p_iters = math.ceil((4 / gamma) * math.log(d / gamma * 10))
    fails = 0
    for seed in range(200):
        _y, rayleigh = power_iteration(op, p_iters, np.random.default_rng(seed))
        if rayleigh < (1 - gamma) * 1.0:
            fails += 1
    assert fails <= 10


# -- randomized streaming Rayleigh estimates -------------------------------------

def test_approx_power_iteration_two_point_population():
    pop = np.array([[math.sqrt(5.0), 0.0], [-math.sqrt(5.0), 0.0]])
    src = ReplaySource(pop, mode="cycle")
    _u, r_hat, _ = approx_power_iteration(src, FilterStack(), p=4, reps=5, batch_size=16,
                                          rng=np.random.default_rng(1))
    assert 4.5 <= r_hat <= 5.5


def test_approx_power_iteration_isotropic():
    c = 2.0
    d = 5
    pop = np.vstack([np.eye(d), -np.eye(d)]) * math.sqrt(c * d)

    def draw(rng, k):
        idx = rng.integers(0, pop.shape[0], size=k)
        return pop[idx], None

    src = SyntheticSource(d, draw, np.random.default_rng(3))
    _u, r_hat, _ = approx_power_iteration(src, FilterStack(), p=6, reps=6, batch_size=4000,
                                          rng=np.random.default_rng(4))
    assert abs(r_hat - c) <= 0.1 * c  # population second moment is c * I


def test_approx_power_iteration_single_rep_is_one_probe():
    # reps=1 is definitionally one randomized probe: same rng, same draws,
    # same direction and Rayleigh quotient as doing the steps by hand.
    pop = np.random.default_rng(5).standard_normal((256, 4))
    stack = FilterStack(prune_radius_sq=30.0)
    p, batch = 3, 40

    src_a = ReplaySource(pop, mode="cycle")
    u, got, _ = approx_power_iteration(src_a, stack, p, reps=1, batch_size=batch,
                                       rng=np.random.default_rng(42))
    src_b = ReplaySource(pop, mode="cycle")
    g = np.random.default_rng(42).standard_normal(4)
    y = streamed_power_apply(src_b, stack, p, batch, g[:, None])[:, 0]
    y = y / np.linalg.norm(y)
    pts = src_b.draw(batch)
    acc = pts[stack.weights(pts)]
    want = float((acc @ y) @ (acc @ y)) / acc.shape[0]
    np.testing.assert_allclose(u, y, rtol=1e-12)
    assert got == pytest.approx(want, rel=1e-12)


class _FixedStarts:
    """Stands in for a Generator whose next standard_normal block is given."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def standard_normal(self, shape):
        assert tuple(shape) == self.rows.shape
        return self.rows.copy()


def test_approx_power_iteration_drops_collapsed_columns():
    pop = np.random.default_rng(5).standard_normal((256, 4))
    stack = FilterStack(prune_radius_sq=30.0)
    p, batch = 3, 40
    g = np.random.default_rng(42).standard_normal(4)
    zero, nan = np.zeros(4), np.full(4, np.nan)

    u, got, _ = approx_power_iteration(ReplaySource(pop, mode="cycle"), stack, p, reps=3,
                                       batch_size=batch, rng=_FixedStarts([zero, nan, g]))
    v, want, _ = approx_power_iteration(ReplaySource(pop, mode="cycle"), stack, p, reps=1,
                                        batch_size=batch, rng=_FixedStarts([g]))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(u, v, rtol=1e-12)

    with pytest.raises(DegenerateStateError):
        approx_power_iteration(ReplaySource(pop, mode="cycle"), stack, p, reps=2,
                               batch_size=batch, rng=_FixedStarts([zero, nan]))


@pytest.mark.parametrize("p", [2, 5])
def test_approx_power_iteration_rider_shares_the_chain(p):
    # Riders run the chain's p steps over its own minibatches as further
    # columns of the block, so the call draws (p + 1) batches however many
    # ride, and each rider matches a p-step chain of its own over the same
    # minibatches. The probe is scored on the batch after the chain. The
    # riders come back as the chain left them, unnormalized: a collapsed
    # one as zeros, leaving the probe and the other riders as they were.
    pop = np.random.default_rng(5).standard_normal((256, 4))
    stack = FilterStack(prune_radius_sq=30.0)
    batch = 40
    g, k, m = np.random.default_rng(42).standard_normal((3, 4))

    def chain(start):
        return streamed_power_apply(ReplaySource(pop, mode="cycle"), stack, p, batch,
                                    start[:, None])[:, 0]

    src = ReplaySource(pop, mode="cycle")
    u, rayleigh, [v, w] = approx_power_iteration(
        src, stack, p, reps=1, batch_size=batch, rng=_FixedStarts([g]), riders=[m, k])
    assert src.delivered == (p + 1) * batch
    want = chain(g)
    np.testing.assert_allclose(u, want / np.linalg.norm(want), rtol=1e-12)
    twin = ReplaySource(pop, mode="cycle")
    twin.draw(p * batch)
    pts = twin.draw(batch)
    acc = pts[stack.weights(pts)]
    assert rayleigh == pytest.approx(float(np.mean((acc @ u) ** 2)), rel=1e-12)
    np.testing.assert_allclose(v, chain(m), rtol=1e-12)
    np.testing.assert_allclose(w, chain(k), rtol=1e-12)

    src = ReplaySource(pop, mode="cycle")
    u_zero, r_zero, riders = approx_power_iteration(
        src, stack, p, reps=1, batch_size=batch, rng=_FixedStarts([g]),
        riders=[m, np.zeros(4), k])
    assert src.delivered == (p + 1) * batch
    assert not riders[1].any()
    np.testing.assert_allclose(riders[0], v, rtol=1e-12)
    np.testing.assert_allclose(riders[2], w, rtol=1e-12)
    np.testing.assert_allclose(u_zero, u, rtol=1e-12)
    assert r_zero == pytest.approx(rayleigh, rel=1e-12)


@pytest.mark.parametrize("p, n_riders", [(2, 1), (2, 3), (5, 5), (2, 6), (5, 8)])
def test_approx_power_iteration_ragged_riders(p, n_riders):
    # A ragged set of riders: their number varies, their norms spread over
    # six orders of magnitude, and every third one is collapsed. The call
    # still draws (p + 1) batches, the probe is the one it is alone, each
    # live rider matches a p-step chain of its own and each collapsed one
    # comes back as zeros.
    pop = np.random.default_rng(5).standard_normal((256, 4))
    stack = FilterStack(prune_radius_sq=30.0)
    batch = 40
    g = np.random.default_rng(42).standard_normal(4)
    starts = np.random.default_rng(7).standard_normal((n_riders, 4))
    starts *= np.logspace(-3, 3, n_riders)[:, None]
    starts[2::3] = 0.0

    src = ReplaySource(pop, mode="cycle")
    u, rayleigh, riders = approx_power_iteration(
        src, stack, p, reps=1, batch_size=batch, rng=_FixedStarts([g]),
        riders=list(starts))
    assert src.delivered == (p + 1) * batch
    assert len(riders) == n_riders

    u_alone, r_alone, [] = approx_power_iteration(
        ReplaySource(pop, mode="cycle"), stack, p, reps=1, batch_size=batch,
        rng=_FixedStarts([g]))
    np.testing.assert_allclose(u, u_alone, rtol=1e-12)
    assert rayleigh == pytest.approx(r_alone, rel=1e-12)

    for start, rider in zip(starts, riders):
        if not start.any():
            assert not rider.any()
            continue
        want = streamed_power_apply(ReplaySource(pop, mode="cycle"), stack, p, batch,
                                    start[:, None])[:, 0]
        np.testing.assert_allclose(rider, want, rtol=1e-12)


@pytest.mark.parametrize("reps", [1, 6])
def test_approx_power_iteration_sample_cost_ignores_reps(reps):
    pop = np.random.default_rng(6).standard_normal((300, 5))
    p, batch = 4, 50
    src = ReplaySource(pop, mode="cycle")
    approx_power_iteration(src, FilterStack(prune_radius_sq=40.0), p, reps=reps,
                           batch_size=batch, rng=np.random.default_rng(7))
    assert src.delivered == (p + 1) * batch


def test_accepted_scores_tops_up_rejected_rows():
    # Every other row is rejected, so the first batch comes back short.
    pop = np.array([[1.0, 0.0], [10.0, 0.0]] * 8)
    src = ReplaySource(pop, mode="cycle")
    v = np.array([1.0, 0.0])
    got = accepted_scores(src, FilterStack(prune_radius_sq=4.0), lambda x: (x @ v) ** 2,
                          6, ScalarLedger())
    np.testing.assert_array_equal(got, np.ones(6))
    assert src.delivered == 6 + (3 + 8)


def test_accepted_scores_survives_a_top_up_pass_that_accepts_none():
    # A stack that keeps a fifth of a 4-d Gaussian pool: the last top-up
    # pass, of 9 draws when one score is missing, accepts none of them with
    # probability 0.8^9 = 0.13. That pass is followed by another; the call
    # hands out the first k accepted rows' scores of the cycled pool, as
    # every pass draws where the last one stopped. Seed 0 draws such a pass.
    stack = FilterStack(prune_radius_sq=1.6488)  # the chi^2_4 0.2-quantile
    v = np.eye(4)[0]
    for seed in range(4):
        pool = rng_stream(seed, 0).standard_normal((4_000, 4))
        got = accepted_scores(ReplaySource(pool, mode="cycle"), stack,
                              lambda x: (x @ v) ** 2, 1_000, ScalarLedger())
        twice = np.concatenate([pool, pool])
        want = (twice[stack.weights(twice)] @ v)[:1_000] ** 2
        np.testing.assert_array_equal(got, want)


def test_accepted_scores_raises_when_the_stack_rejects_every_row():
    src = ReplaySource(np.full((8, 2), 10.0), mode="cycle")
    with pytest.raises(DegenerateStateError, match="rejected"):
        accepted_scores(src, FilterStack(prune_radius_sq=4.0), lambda x: x[:, 0], 6,
                        ScalarLedger())
    assert src.delivered == 6


def test_gaussian_quadratic_anticoncentration():
    # For PSD A and beta > 0: P[z' A z >= beta tr(A)] >= 1 - sqrt(e beta).
    rng = np.random.default_rng(12)
    for _ in range(5):
        d = 6
        m = rng.standard_normal((d, d))
        a = m @ m.T
        tr = float(np.trace(a))
        beta = float(rng.uniform(0.01, 0.3))
        z = rng.standard_normal((20_000, d))
        quad = np.einsum("ij,jk,ik->i", z, a, z)
        frac = float(np.mean(quad >= beta * tr))
        assert frac >= 1 - math.sqrt(math.e * beta) - 0.02
