import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpca import (
    AlgoConfig,
    BudgetedSource,
    FilterEntry,
    FilterStack,
    ReplaySource,
    StreamExhaustedError,
    WeightedDataset,
    load_dataset,
    save_dataset,
)
from robustpca.certificate import START_FAILURE, power_chain_length


def random_stack(rng, d, n_entries, scale=1.0):
    entries = tuple(
        FilterEntry(rng.standard_normal(d), float(rng.uniform(0.1, 4.0)) * scale)
        for _ in range(n_entries)
    )
    return FilterStack(prune_radius_sq=float(rng.uniform(2.0, 30.0)) * scale,
                       entries=entries)


def sequential_weight(stack, x):
    # Step-by-step simulation of the stack semantics, one constraint at a time.
    w = 1 if float(x @ x) <= stack.prune_radius_sq else 0
    for e in stack.entries:
        w = w * (1 if float(e.direction @ x) ** 2 <= e.threshold_sq else 0)
    return w


def test_empty_stack_accepts_everything():
    stack = FilterStack()
    np.testing.assert_array_equal(stack.weights(np.array([[1e6, -1e6]])), [True])


def test_non_finite_rows_get_zero_weight():
    # An unbounded prune radius still rejects rows whose squared norm is inf
    # or NaN; finite rows keep weight 1.
    pts = np.array([[1.0, 2.0], [np.inf, 0.0], [np.nan, 1.0], [-np.inf, np.inf]])
    np.testing.assert_array_equal(FilterStack().weights(pts), [True, False, False, False])


def test_single_entry_rejects_large_projection():
    stack = FilterStack(prune_radius_sq=4.0,
                        entries=(FilterEntry(np.array([1.0, 0.0]), 1.0),))
    np.testing.assert_array_equal(stack.weights(np.array([[2.0, 0.0], [0.5, 0.5]])),
                                  [False, True])


def test_evaluate_weight_matches_sequential_simulation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        stack = random_stack(rng, 4, 5)
        x = rng.standard_normal(4) * rng.uniform(0.5, 3.0)
        assert int(stack.weights(x[None, :])[0]) == sequential_weight(stack, x)


def test_evaluate_weight_dimension_mismatch():
    stack = FilterStack(entries=(FilterEntry(np.ones(3), 1.0),))
    with pytest.raises(ValueError, match="dimension mismatch"):
        stack.weights(np.ones((1, 4)))


def test_compaction_equivalence_with_threshold_chain():
    # A decreasing threshold chain applied to tau = f * 1(f > L) keeps exactly
    # the points with f <= max(L, r_last).
    rng = np.random.default_rng(5)
    for _ in range(40):
        f = rng.uniform(0.0, 10.0, size=60)
        L = float(rng.uniform(0.0, 5.0))
        chain = [8.0]
        for _ in range(rng.integers(1, 6)):
            chain.append(chain[-1] * float(rng.uniform()))
        surv = np.ones(60, dtype=bool)
        tau = f * (f > L)
        for r in chain[1:]:
            surv &= ~(tau > r)
        np.testing.assert_array_equal(surv, f <= max(L, chain[-1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_appending_entry_never_grows_survivor_set(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((40, 3))
    stack = random_stack(rng, 3, 2)
    w_before = stack.weights(pts)
    bigger = stack.with_entry(FilterEntry(rng.standard_normal(3),
                                          float(rng.uniform(0.05, 2.0))))
    w_after = bigger.weights(pts)
    assert np.all(w_after <= w_before)


def test_weighted_dataset_validation():
    with pytest.raises(ValueError):
        WeightedDataset(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        WeightedDataset(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        WeightedDataset(np.zeros((3, 0)))
    ds = WeightedDataset(np.zeros((3, 1)))
    assert ds.dim == 1 and ds.n == 3


def test_config_validation():
    with pytest.raises(ValueError, match="eps"):
        AlgoConfig(eps=0.7)
    with pytest.raises(ValueError, match="20\\*eps"):
        AlgoConfig(eps=0.05, gamma=0.5)
    cfg = AlgoConfig(eps=0.05, gamma=1.0)  # 20*eps boundary is allowed
    assert cfg.gamma == 1.0
    cfg = AlgoConfig(eps=0.01)
    assert cfg.gamma == pytest.approx(0.2)  # 20*eps dominates the default
    assert AlgoConfig(eps=0.0).gamma == 0.05


NAN = float("nan")


@pytest.mark.parametrize("field, value", [
    ("t_end", 0), ("k_end", 0), ("t_end", -3), ("batch_size", 0),
    ("max_resident_scalars", -1),
    ("t_end", NAN), ("k_end", NAN), ("batch_size", NAN), ("boost_reps", NAN),
    ("max_resident_scalars", NAN),
    ("t_end", 2.5), ("t_end", 3.0), ("k_end", 2.0), ("batch_size", 512.0),
    ("boost_reps", True), ("max_resident_scalars", 1e6),
    ("c_pi", 0.0), ("c_cert", -1.0), ("c_pi", NAN), ("c_acc", NAN), ("c_acc", -1.0),
    ("c_pi", math.inf), ("c_cert", math.inf),
    ("eps", 0.1), ("eps", 0.06),
])
def test_config_rejects_values_no_solve_can_use(field, value):
    # t_end at 0 divides by zero in drive. A NaN count fails
    # mid-solve, and a NaN memory limit switches the budget off. A float
    # count, even 3.0, fails mid-solve in range(), and a bool is no count.
    # The certificate constants c_pi, c_cert and c_acc are derived now, and
    # the stream minibatch is the constant streaming.BATCH_SIZE_CAP, so
    # AlgoConfig refuses them, batch_size included, at any value as unknown
    # keywords; so too k_end, as the driver runs one loop of t_end
    # iterations, and boost_reps, as each solve runs that loop once. eps
    # lies in [0, 0.05], since 20*eps <= gamma <= 1, and a larger one is
    # refused as eps, not as the default gamma it implies.
    known = {f.name for f in dataclasses.fields(AlgoConfig)}
    error = ValueError if field in known else TypeError
    with pytest.raises(error, match=field):
        AlgoConfig(**{"eps": 0.01, field: value})
    AlgoConfig(eps=0.01, t_end=1, max_resident_scalars=0)


def test_config_schedules_sane():
    # The config sizes the loop; the filter direction's power is the
    # certificate chain's length (``driver.drive``), 7 at d = 50.
    cfg = AlgoConfig(eps=0.01, gamma=0.2)
    assert power_chain_length(50, cfg.gamma, START_FAILURE) == 7
    assert 1 <= cfg.t_end_for(50) <= 10_000
    assert AlgoConfig(eps=0.0).t_end_for(50) == 10_000  # capped when eps -> 0
    assert AlgoConfig(eps=0.01, gamma=0.2, t_end=7).t_end_for(50) == 7


def test_dataset_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((20, 3))
    labels = rng.random(20) < 0.8
    path = tmp_path / "data.txt"
    save_dataset(path, pts, labels)
    got, got_labels = load_dataset(path)
    np.testing.assert_array_equal(got, pts)
    np.testing.assert_array_equal(got_labels, labels)

    save_dataset(path, pts)
    got, got_labels = load_dataset(path)
    np.testing.assert_array_equal(got, pts)
    assert got_labels is None


def test_dataset_file_rejects_ragged(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match="inconsistent dimension"):
        load_dataset(path)


@pytest.mark.parametrize("text, line, why", [
    ("1.0 2.0\n3.0 x\n", 2, "could not convert string to float: 'x'"),
    ("inlier\noutlier\n", 1, "no coordinates"),
], ids=["non_numeric", "label_only"])
def test_dataset_file_errors_name_their_line(tmp_path, text, line, why):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path}:{line}: {why}"


def test_file_replay_source_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((12, 3))
    labels = rng.random(12) < 0.5
    path = tmp_path / "replay.txt"
    save_dataset(path, pts, labels)

    src = ReplaySource(*load_dataset(path))
    got, got_labels = src.draw_labeled(12)
    np.testing.assert_array_equal(got, pts)
    np.testing.assert_array_equal(got_labels, labels)
    with pytest.raises(StreamExhaustedError):
        src.draw(1)

    cyclic = ReplaySource(*load_dataset(path), mode="cycle")
    np.testing.assert_array_equal(cyclic.draw(24), np.vstack([pts, pts]))


@pytest.mark.parametrize("pool, mode", [
    (np.zeros((0, 3)), "once"),
    (np.zeros((0, 3)), "cycle"),
    (np.zeros(3), "cycle"),
], ids=["empty_once", "empty_cycle", "one_dimensional"])
def test_replay_source_rejects_a_pool_without_rows(pool, mode):
    with pytest.raises(ValueError, match="non-empty"):
        ReplaySource(pool, mode=mode)


@pytest.mark.parametrize("labels", [np.ones(5, bool), np.ones(11, bool), np.ones((10, 1), bool)],
                         ids=["short", "long", "column"])
def test_replay_source_rejects_labels_that_miss_a_row(labels):
    # Short labels would ride along short of the rows drawn, then fail with
    # a bare IndexError on the first wrapping draw.
    with pytest.raises(ValueError, match="labels"):
        ReplaySource(np.zeros((10, 3)), labels, mode="cycle")


@pytest.mark.parametrize("max_samples", [0, 2.5, True, math.nan])
def test_budgeted_source_rejects_a_budget_that_is_not_a_positive_int(max_samples):
    # No coercion: int(2.5) would cap at 2 rows and True at 1.
    with pytest.raises(ValueError, match="max_samples"):
        BudgetedSource(ReplaySource(np.zeros((4, 3)), mode="cycle"), max_samples)


def _labeled_pool(n=10, d=3):
    rng = np.random.default_rng(3)
    return rng.standard_normal((n, d)), rng.random(n) < 0.5


@pytest.mark.parametrize("sizes", [(3, 4, 5), (10, 10), (25,), (9, 30, 2)],
                         ids=["wraps", "at_the_end", "longer_than_pool", "mixed"])
def test_cycle_replay_follows_the_index_law(sizes):
    # Each draw of k rows returns rows (pos + arange(k)) % n, labels alike,
    # where pos counts the rows drawn before it; views and copies agree.
    pool, labels = _labeled_pool()
    src = ReplaySource(pool, labels, mode="cycle")
    pos = 0
    for k in sizes:
        idx = (pos + np.arange(k)) % pool.shape[0]
        got, got_labels = src.draw_labeled(k)
        np.testing.assert_array_equal(got, pool[idx])
        np.testing.assert_array_equal(got_labels, labels[idx])
        pos += k


def test_once_replay_delivers_each_row_then_exhausts():
    pool, labels = _labeled_pool()
    src = ReplaySource(pool, labels, mode="once")
    for lo, hi in ((0, 4), (4, 9), (9, 10)):
        got, got_labels = src.draw_labeled(hi - lo)
        np.testing.assert_array_equal(got, pool[lo:hi])
        np.testing.assert_array_equal(got_labels, labels[lo:hi])
    with pytest.raises(StreamExhaustedError):
        src.draw(1)
    with pytest.raises(StreamExhaustedError):
        ReplaySource(pool, mode="once").draw(11)


@pytest.mark.parametrize("mode", ["once", "cycle"])
def test_in_order_replay_draw_is_a_read_only_view(mode):
    pool, labels = _labeled_pool()
    src = ReplaySource(pool, labels, mode=mode)
    got, got_labels = src.draw_labeled(6)
    assert np.shares_memory(got, pool) and np.shares_memory(got_labels, labels)
    with pytest.raises(ValueError):
        got[0, 0] = 1.0
    with pytest.raises(ValueError):
        got_labels[0] = True
    assert pool.flags.writeable and labels.flags.writeable
    if mode == "cycle":
        wrapped, wrapped_labels = src.draw_labeled(6)
        assert not np.shares_memory(wrapped, pool)
        assert not np.shares_memory(wrapped_labels, labels)


def test_fortran_ordered_inputs_are_kept_c_ordered():
    # A replay pool or a dataset in another memory order is copied once
    # into C order, so its draws and rows are those of the C-ordered array,
    # bit for bit and in the same layout.
    pool, labels = _labeled_pool()
    src, twin = ReplaySource(np.asfortranarray(pool), labels, mode="cycle"), \
        ReplaySource(pool, labels, mode="cycle")
    for k in (4, 4, 5):
        got, want = src.draw(k), twin.draw(k)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
    ds = WeightedDataset(np.asfortranarray(pool))
    assert ds.points.flags.c_contiguous
    np.testing.assert_array_equal(ds.points, pool)
