import math

import numpy as np
import pytest

from robustpca import (
    FilterStack,
    ReplaySource,
    ScalarLedger,
    SecondMomentOp,
    SyntheticSource,
    approx_power_iteration,
    power_direction,
    power_iteration,
    streamed_power_apply,
)
from robustpca.errors import DegenerateStateError
from robustpca.linops import accepted_scores, streamed_power_direction
from robustpca.oracle import dense_power_apply


def op_from(points, denominator=None):
    return SecondMomentOp(np.asarray(points, dtype=float), denominator)


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
    for denominator in (None, pts.shape[0]):
        op = op_from(pts[w], denominator)
        dense = op.materialize()
        for _ in range(5):
            z = rng.standard_normal(3)
            got = op.matvec(z)
            assert np.linalg.norm(got - dense @ z) <= 1e-12 * max(1.0, np.linalg.norm(dense @ z))


def test_zero_survivors_normalized_raises():
    with pytest.raises(DegenerateStateError):
        op_from(np.zeros((0, 3)))


def test_zero_survivors_unnormalized_is_zero():
    op = op_from(np.zeros((0, 3)), 4)
    np.testing.assert_array_equal(op.matvec(np.ones(3)), np.zeros(3))
    np.testing.assert_array_equal(op.matvec(np.ones((3, 2))), np.zeros((3, 2)))
    np.testing.assert_array_equal(op.materialize(), np.zeros((3, 3)))


def test_symmetry_and_psd():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 6)) * 3
    op = op_from(pts)
    scale = float(np.trace(op.materialize()))
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


# -- matrix powers --------------------------------------------------------------
# power_direction returns the unit vector along op^p z.

def test_power_zero_is_identity():
    op = op_from(np.eye(3))
    z = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(power_direction(op, 0, z), z / np.linalg.norm(z))


def test_power_two_on_diag():
    op = op_from([[2.0, 0.0], [0.0, math.sqrt(2.0)]])  # B = diag(2, 1)
    np.testing.assert_allclose(power_direction(op, 2, np.array([1.0, 1.0])),
                               np.array([4.0, 1.0]) / math.sqrt(17.0), rtol=1e-12)


def test_power_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 12))
        p = int(rng.integers(1, 7))
        pts = rng.standard_normal((n, d))
        op = op_from(pts)
        z = rng.standard_normal(d)
        want = dense_power_apply(op.materialize(), p, z)
        got = power_direction(op, p, z)
        assert np.linalg.norm(got - want / np.linalg.norm(want)) <= 1e-9


# -- minibatch powers ------------------------------------------------------------
# streamed_power_apply draws one batch to estimate the surviving mass W, then
# applies p factors u -> W^2 * mean(x (x.u)), one fresh batch each.

def constant_source(vec):
    return ReplaySource(np.tile(np.asarray(vec, dtype=float), (64, 1)), mode="cycle")


def test_minibatch_rank_one_deterministic_source():
    e1 = np.array([1.0, 0.0, 0.0])
    src = constant_source(e1)
    stack = FilterStack()
    for p in (1, 2, 4):
        z = np.array([2.0, 5.0, -1.0])
        got, _w = streamed_power_apply(src, stack, p, 8, z)
        # W = 1, so the chain maps z to (z . e1) e1 for every p.
        np.testing.assert_allclose(got, [2.0, 0.0, 0.0], atol=1e-12)


def test_minibatch_survival_rate_squared_scaling():
    # Half the stream is rejected by the stack: W = 1/2, factors carry W^2.
    pts = np.array([[1.0, 0.0], [10.0, 0.0]] * 8)
    src = ReplaySource(pts, mode="cycle")
    stack = FilterStack(prune_radius_sq=2.0)
    got, w_hat = streamed_power_apply(src, stack, 1, 16, np.array([1.0, 0.0]))
    assert w_hat == 0.5
    np.testing.assert_allclose(got, [0.25, 0.0], atol=1e-12)


def test_minibatch_single_sample():
    x = np.array([1.0, 2.0])
    src = ReplaySource(np.array([x, x, x]), mode="cycle")
    z = np.array([1.0, 1.0])
    got, _w = streamed_power_apply(src, FilterStack(), 1, 1, z)
    np.testing.assert_allclose(got, x * float(x @ z), rtol=1e-12)


def test_minibatch_all_rejected_raises():
    src = constant_source(np.array([10.0, 0.0]))
    stack = FilterStack(prune_radius_sq=1.0)
    with pytest.raises(DegenerateStateError):
        streamed_power_apply(src, stack, 1, 8, np.array([1.0, 0.0]))


def test_minibatch_large_batch_approaches_population():
    rng = np.random.default_rng(5)
    pop = rng.standard_normal((300, 4)) * np.array([2.0, 1.0, 0.7, 0.4])
    src = ReplaySource(pop, mode="resample", rng=np.random.default_rng(77))
    stack = FilterStack()
    p = 2
    z = rng.standard_normal(4)
    got, _w = streamed_power_apply(src, stack, p, 20_000, z)
    want = dense_power_apply(op_from(pop).materialize(), p, z)
    assert np.linalg.norm(got - want) <= 0.1 * np.linalg.norm(want)


def test_streamed_apply_matches_built_estimator():
    # An unchunked pass (chunk >= batch) reads each batch in one draw, as an
    # estimator built batch by batch would; chunking must not change it.
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    pop = np.random.default_rng(1).standard_normal((128, 5))
    src_a = ReplaySource(pop, mode="resample", rng=rng_a)
    src_b = ReplaySource(pop, mode="resample", rng=rng_b)
    stack = FilterStack(prune_radius_sq=20.0)
    z = np.random.default_rng(2).standard_normal(5)
    want, w_want = streamed_power_apply(src_a, stack, 3, 50, z, chunk=50)
    got, w_hat = streamed_power_apply(src_b, stack, 3, 50, z, chunk=7)
    np.testing.assert_allclose(got, want, rtol=1e-10)
    assert w_hat == w_want
    assert src_a.delivered == src_b.delivered


def test_streamed_apply_ledger_is_batch_size_independent():
    pop = np.random.default_rng(1).standard_normal((64, 4))
    peaks = []
    for batch in (100, 10_000):
        led = ScalarLedger()
        src = ReplaySource(pop, mode="cycle")
        streamed_power_apply(src, FilterStack(), 2, batch, np.ones(4),
                             ledger=led, chunk=32)
        peaks.append(led.peak)
    assert peaks[0] == peaks[1]


def test_streamed_apply_block_matches_single_columns():
    # Columns of a block chain are independent runs over the same rows; the
    # 1e200 / 1e-200 columns are only right if each column is rescaled alone.
    pop = np.random.default_rng(3).standard_normal((256, 4))
    stack = FilterStack(prune_radius_sq=30.0)
    p, batch = 8, 60
    g = np.random.default_rng(4).standard_normal((4, 3))
    block = g * np.array([1e200, 1e-200, 1.0])

    src = ReplaySource(pop, mode="cycle")
    got, w_block = streamed_power_apply(src, stack, p, batch, block, chunk=16)
    assert src.delivered == (p + 1) * batch
    for j in range(block.shape[1]):
        src_j = ReplaySource(pop, mode="cycle")
        want, w_j = streamed_power_apply(src_j, stack, p, batch, block[:, j], chunk=16)
        assert w_j == w_block
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
    op = op_from(np.zeros((4, 3)))
    with pytest.raises(DegenerateStateError):
        power_iteration(op, 5, np.random.default_rng(9))


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
    r_hat = approx_power_iteration(src, FilterStack(), p=4, reps=5,
                                   batch_size=16, rng=np.random.default_rng(1))
    assert 4.5 <= r_hat <= 5.5


def test_approx_power_iteration_isotropic():
    c = 2.0
    d = 5
    pop = np.vstack([np.eye(d), -np.eye(d)]) * math.sqrt(c * d)

    def draw(rng, k):
        idx = rng.integers(0, pop.shape[0], size=k)
        return pop[idx], None

    src = SyntheticSource(d, draw, np.random.default_rng(3))
    r_hat = approx_power_iteration(src, FilterStack(), p=6, reps=6,
                                   batch_size=4000, rng=np.random.default_rng(4))
    assert abs(r_hat - c) <= 0.1 * c  # population second moment is c * I


def test_approx_power_iteration_single_rep_is_one_probe():
    # reps=1 is definitionally one randomized probe: same rng, same draws,
    # same Rayleigh quotient as doing the steps by hand.
    pop = np.random.default_rng(5).standard_normal((256, 4))
    stack = FilterStack(prune_radius_sq=30.0)
    p, batch = 3, 40

    src_a = ReplaySource(pop, mode="cycle")
    got = approx_power_iteration(src_a, stack, p, reps=1, batch_size=batch,
                                 rng=np.random.default_rng(42))
    src_b = ReplaySource(pop, mode="cycle")
    g = np.random.default_rng(42).standard_normal(4)
    y, _w = streamed_power_apply(src_b, stack, p, batch, g)
    y = y / np.linalg.norm(y)
    pts = src_b.draw(batch)
    acc = pts[stack.weights(pts)]
    want = float((acc @ y) @ (acc @ y)) / acc.shape[0]
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

    got = approx_power_iteration(ReplaySource(pop, mode="cycle"), stack, p, reps=3,
                                 batch_size=batch, rng=_FixedStarts([zero, nan, g]))
    want = approx_power_iteration(ReplaySource(pop, mode="cycle"), stack, p, reps=1,
                                  batch_size=batch, rng=_FixedStarts([g]))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)

    with pytest.raises(DegenerateStateError):
        approx_power_iteration(ReplaySource(pop, mode="cycle"), stack, p, reps=2,
                               batch_size=batch, rng=_FixedStarts([zero, nan]))


@pytest.mark.parametrize("reps", [1, 6])
def test_approx_power_iteration_sample_cost_ignores_reps(reps):
    pop = np.random.default_rng(6).standard_normal((300, 5))
    p, batch = 4, 50
    src = ReplaySource(pop, mode="cycle")
    approx_power_iteration(src, FilterStack(prune_radius_sq=40.0), p, reps=reps,
                           batch_size=batch, rng=np.random.default_rng(7))
    assert src.delivered == (p + 2) * batch


def test_streamed_power_direction_retries_then_gives_up():
    d, p, batch = 3, 2, 20
    pop = np.random.default_rng(8).standard_normal((64, d))
    src = ReplaySource(pop, mode="cycle")
    u = streamed_power_direction(src, FilterStack(), p, batch, np.random.default_rng(9))
    want, _w = streamed_power_apply(ReplaySource(pop, mode="cycle"), FilterStack(), p,
                                    batch, np.random.default_rng(9).standard_normal(d))
    np.testing.assert_allclose(u, want / np.linalg.norm(want), rtol=1e-12)

    # A zero stream collapses every start: 8 starts drawn, then None.
    src = ReplaySource(np.zeros((16, d)), mode="cycle")
    rng = np.random.default_rng(10)
    assert streamed_power_direction(src, FilterStack(), p, batch, rng) is None
    assert src.delivered == 8 * (p + 1) * batch
    ref = np.random.default_rng(10)
    ref.standard_normal((8, d))
    assert rng.standard_normal() == ref.standard_normal()


def test_accepted_scores_tops_up_rejected_rows():
    # Every other row is rejected, so the first batch comes back short.
    pop = np.array([[1.0, 0.0], [10.0, 0.0]] * 8)
    src = ReplaySource(pop, mode="cycle")
    got = accepted_scores(src, FilterStack(prune_radius_sq=4.0), np.array([1.0, 0.0]), 6)
    np.testing.assert_array_equal(got, np.ones(6))
    assert src.delivered == 6 + (3 + 8)


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
