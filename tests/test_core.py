import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustpca import (
    AlgoConfig,
    FilterEntry,
    FilterStack,
    WeightedDataset,
    load_dataset,
    save_dataset,
)


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


def test_config_schedules_sane():
    cfg = AlgoConfig(eps=0.01, gamma=0.2)
    assert cfg.power_at(50, 2) == 2 * cfg.base_power(50)
    assert cfg.k_end_for(50) >= 1
    assert 1 <= cfg.t_end_for(50) <= 10_000
    assert AlgoConfig(eps=0.0).t_end_for(50) == 10_000  # capped when eps -> 0
    override = AlgoConfig(eps=0.01, gamma=0.2, t_end=7, k_end=2)
    assert override.t_end_for(50) == 7 and override.k_end_for(50) == 2


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


def test_file_replay_source_round_trip(tmp_path):
    from robustpca import FileReplaySource, StreamExhaustedError
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((12, 3))
    labels = rng.random(12) < 0.5
    path = tmp_path / "replay.txt"
    save_dataset(path, pts, labels)

    src = FileReplaySource(path)
    got, got_labels = src.draw_labeled(12)
    np.testing.assert_array_equal(got, pts)
    np.testing.assert_array_equal(got_labels, labels)
    with pytest.raises(StreamExhaustedError):
        src.draw(1)

    cyclic = FileReplaySource(path, mode="cycle")
    np.testing.assert_array_equal(cyclic.draw(24), np.vstack([pts, pts]))
