import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from dense_oracles import UnsupportedDiagnosticError, potential_diagnostic

from robustpca import (
    AdversaryKind,
    AdversarySpec,
    AlgoConfig,
    InlierSpec,
    PcaStatus,
    ReplaySource,
    ScalarLedger,
    SecondMomentOp,
    WeightedDataset,
    gen_inliers,
    metric_approx_ratio,
    naive_pca,
    opnorm_bracket,
    robust_pca,
    rng_stream,
    streaming_robust_pca,
    strong_contaminate,
    trimmed_variance,
    tv_contaminated_source,
)
from robustpca import certificate, driver, linops
from robustpca.driver import CERT_FAILURE_PROB, BatchEstimators, drive, failure_share
from robustpca.streaming import MinibatchEstimators

SUITE_METHODS = {"prologue", "certificate", "direction", "start_iteration",
                 "quantile_value", "sigma_trimmed", "mean_score", "register_entry"}


def spiked_instance(d, n, eps, seed, spike=9.0):
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, spike),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=eps, spike_axis=1)
    rng = rng_stream(seed, 500)
    pts, labels = gen_inliers(spec, n, rng)
    pts, labels = strong_contaminate(pts, labels, adv, spec, rng)
    return pts, labels, spec.covariance()


def test_clean_data_accepted_with_high_ratio():
    d, n = 20, 4000
    rng = rng_stream(1, 0)
    pts = rng.standard_normal((n, d)) * np.sqrt([10.0] + [1.0] * (d - 1))
    sigma = np.diag([10.0] + [1.0] * (d - 1))
    res = robust_pca(WeightedDataset(pts), eps=0.0, gamma=0.05, rng_seed=1)
    assert res.status is PcaStatus.ACCEPTED
    assert metric_approx_ratio(res.u, sigma) >= 0.9


def test_contaminated_instance_recovers_where_naive_fails():
    pts, _labels, sigma = spiked_instance(16, 8000, 0.05, seed=3)
    res = robust_pca(WeightedDataset(pts), eps=0.05, gamma=1.0, rng_seed=3)
    assert metric_approx_ratio(res.u, sigma) >= 0.85
    u_naive, _ = naive_pca(pts, rng_stream(3, 501))
    assert metric_approx_ratio(u_naive, sigma) <= 0.3


def test_single_point_dataset():
    d = 4
    pts = np.zeros((1, d))
    pts[0, 0] = 1.0
    res = robust_pca(WeightedDataset(pts), eps=0.04, gamma=0.8, rng_seed=0)
    assert res.status in (PcaStatus.ACCEPTED, PcaStatus.FALLBACK_BEST)
    assert abs(abs(res.u[0]) - 1.0) <= 1e-9


def test_gamma_validation():
    pts = np.eye(3)
    with pytest.raises(ValueError, match="20\\*eps"):
        robust_pca(WeightedDataset(pts), eps=0.05, gamma=0.1)


@pytest.mark.parametrize("entry", ["batch", "stream"])
@pytest.mark.parametrize("config, gamma, want", [
    (AlgoConfig(t_end=1), None, 0.4),
    (AlgoConfig(eps=0.02, gamma=0.8, t_end=1), None, 0.8),
    (AlgoConfig(t_end=1), 0.5, 0.5),
], ids=["unset", "built_at_eps", "passed"])
def test_config_gamma_belongs_to_its_eps(monkeypatch, entry, config, gamma, want):
    # AlgoConfig() carries the eps = 0 default gamma = 0.05. Solved at
    # eps = 0.02 with no gamma of its own, the call takes that eps's default
    # 20 eps = 0.4, not the config's 0.05, which 20 eps would exceed. A
    # config built at the call's eps keeps its gamma, and a gamma passed on
    # the call wins. Each entry point calls ``drive`` by its own module's
    # name for it, so the spy replaces both.
    import robustpca.driver as driver
    import robustpca.streaming as streaming

    seen, real = [], driver.drive

    def spy(suite, cfg, *args):
        seen.append(cfg.gamma)
        return real(suite, cfg, *args)

    monkeypatch.setattr(driver, "drive", spy)
    monkeypatch.setattr(streaming, "drive", spy)
    pts, _labels, _sigma = spiked_instance(6, 2000, 0.02, seed=3)
    if entry == "batch":
        robust_pca(WeightedDataset(pts), eps=0.02, gamma=gamma, config=config, rng_seed=1)
    else:
        streaming_robust_pca(ReplaySource(pts, mode="cycle"), 0.02, gamma, 1.5,
                             config=config, rng_seed=1, max_samples=200_000)
    assert seen and set(seen) == {want}


def test_batch_direction_takes_one_start():
    # A zero operator collapses every chain: the direction draws one start
    # and returns None, which ``drive`` ends with DegenerateStateError.
    pts = np.zeros((4, 3))
    suite = BatchEstimators(pts, AlgoConfig(), np.zeros(4))
    suite.op = SecondMomentOp(pts)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    assert suite.direction(rng, None) is None
    ref.standard_normal(3)
    assert rng.standard_normal() == ref.standard_normal()


def test_fallback_when_certificate_cannot_pass(monkeypatch):
    # One iteration only and a rigged acceptance constant: an infinite f1,
    # which no trimmed variance reaches, rejects the candidate, which is
    # still returned as the fallback.
    monkeypatch.setattr(certificate, "acceptance_factors",
                        lambda eps, gamma: (math.inf, 0.25))
    pts, _labels, _sigma = spiked_instance(10, 3000, 0.05, seed=5)
    cfg = AlgoConfig(eps=0.05, gamma=1.0, t_end=1)
    res = robust_pca(WeightedDataset(pts), eps=0.05, gamma=1.0, config=cfg, rng_seed=5)
    assert res.status is PcaStatus.FALLBACK_BEST
    assert res.iterations == 1
    assert res.u is not None


def test_potential_diagnostic_examples():
    pts = np.array([[2.0, 0.0], [0.0, math.sqrt(2.0)]])  # B = diag(2, 1)
    w = np.ones(2, dtype=bool)
    assert potential_diagnostic(pts, w, p=1) == pytest.approx(9.0)
    d = 6
    pts_i = np.sqrt(d) * np.eye(d)  # B = I_d
    assert potential_diagnostic(pts_i, np.ones(d, dtype=bool), p=4) == pytest.approx(d)
    with pytest.raises(UnsupportedDiagnosticError):
        potential_diagnostic(np.zeros((2, 65)), np.ones(2, dtype=bool), 1)


def test_potential_monotone_along_run():
    eps = 0.05
    pts, _labels, _sigma = spiked_instance(12, 3000, eps, seed=7)
    events = []
    robust_pca(WeightedDataset(pts), eps=eps, gamma=1.0, rng_seed=7,
               trace_sink=events.append)
    # Survivors before the first event: the prologue's norm prune.
    n, d = pts.shape
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    prune_sq = 10.0 * opnorm_bracket(sq_norms, eps, n) * d / eps
    w_before = sq_norms <= prune_sq
    pots = []
    for e in events:
        if not e["skipped"]:
            pots.append((potential_diagnostic(pts, w_before, e["p"]),
                         potential_diagnostic(pts, e["weights"], e["p"])))
        w_before = e["weights"]
    assert pots
    for before, after in pots:
        assert after <= before * (1 + 1e-9)


def test_scaling_equivariance_coupled_seeds():
    pts, _labels, sigma = spiked_instance(12, 3000, 0.05, seed=11)
    c = 7.3
    runs = []
    for data in (pts, c * pts):
        events = []
        res = robust_pca(WeightedDataset(data), eps=0.05, gamma=1.0, rng_seed=11,
                         trace_sink=events.append)
        runs.append((res, events))
    res_a, ev_a = runs[0]
    res_b, ev_b = runs[1]
    assert res_a.status == res_b.status
    assert res_a.iterations == res_b.iterations
    assert abs(float(res_a.u @ res_b.u)) >= 1 - 1e-9
    assert len(ev_a) == len(ev_b)
    for ea, eb in zip(ev_a, ev_b):
        np.testing.assert_array_equal(ea["weights"], eb["weights"])


@pytest.mark.parametrize("j", [-520, -300, 300, 500])
def test_batch_solve_at_float_range_edges(j):
    # Entries near 2^500 overflow a squared norm and entries near 2^-520
    # underflow one; the solve runs on a power-of-two rescaled copy and
    # must match the unit-scale solve bit for bit.
    x = np.random.default_rng(0).standard_normal((4000, 5))
    base = robust_pca(WeightedDataset(x), eps=0.02, gamma=0.4, rng_seed=0)
    res = robust_pca(WeightedDataset(np.ldexp(x, j)), eps=0.02, gamma=0.4, rng_seed=0)
    assert base.status is res.status is PcaStatus.ACCEPTED
    np.testing.assert_array_equal(res.u, base.u)
    assert res.sigma_robust == math.ldexp(base.sigma_robust, 2 * j)


def test_outlier_row_does_not_set_the_scale():
    # A row at 1e150 lies far outside [2^-200, 2^200]. Scaling by it would
    # flush every other row's square to zero; the median row sets the scale
    # instead, so the solve prunes the outlier as it would at any scale.
    x = np.random.default_rng(0).standard_normal((4000, 5)) * [3, 1, 1, 1, 1]
    x[17] = [0, 1e150, 0, 0, 0]
    res = robust_pca(WeightedDataset(x), eps=0.02, gamma=0.4, rng_seed=1)
    assert res.status is PcaStatus.ACCEPTED
    assert abs(float(res.u[0])) >= 0.999


def _median_rule_scale(x):
    """The rescale exponent k the median of the squared norms alone decides."""
    g = np.einsum("ij,ij->i", x, x)
    if 4.0 * x.shape[1] * 2.0 ** -400 <= float(np.median(g)) <= 2.0 ** 398:
        return 0
    peak = float(np.median(np.maximum(x.max(axis=1), -x.min(axis=1))))
    return math.frexp(peak)[1] if peak > 0 and not 2.0 ** -200 <= peak <= 2.0 ** 200 else 0


@pytest.mark.parametrize("case", ["median_inside", "median_outside", "overflowing_row"])
def test_scale_check_agrees_with_the_median_rule(monkeypatch, case):
    # The squared norms straddle [4 d 2^-400, 2^398] in every case, so the
    # peak pass runs, and its k must be the one the median rule gives.
    x = np.random.default_rng(3).standard_normal((3000, 5)) * [3, 1, 1, 1, 1]
    if case == "median_inside":
        x[:20] *= 1e-130
        x[20:40] *= 1e130
    elif case == "median_outside":
        x[40:] = np.ldexp(x[40:], 300)
    else:
        x[17] = [0, 1e200, 0, 0, 0]
    g = np.einsum("ij,ij->i", x, x)
    lo, hi = 4.0 * 5 * 2.0 ** -400, 2.0 ** 398
    assert not lo <= g.min() <= g.max() <= hi
    assert (lo <= float(np.median(g)) <= hi) == (case != "median_outside")
    k = _median_rule_scale(x)
    assert (k != 0) == (case == "median_outside")

    solved, real = [], driver.BatchEstimators

    def spy(points, cfg, norms):
        solved.append(points)
        return real(points, cfg, norms)

    monkeypatch.setattr(driver, "BatchEstimators", spy)
    res = robust_pca(WeightedDataset(x), eps=0.02, gamma=0.4, rng_seed=1)
    assert solved
    for points in solved:
        np.testing.assert_array_equal(points, np.ldexp(x, -k))
    monkeypatch.setattr(driver, "BatchEstimators", real)
    ref = robust_pca(WeightedDataset(np.ldexp(x, -k)), eps=0.02, gamma=0.4, rng_seed=1)
    assert res.status is ref.status
    np.testing.assert_array_equal(res.u, ref.u)
    assert res.sigma_robust == math.ldexp(ref.sigma_robust, 2 * k)


@pytest.mark.parametrize("big", [1e100, 1e150])
def test_huge_finite_row_at_eps_zero(big):
    # Nothing prunes at eps = 0 and the row's squared norm is finite, so it
    # stays. The power iterate it pulls along is finite, but its squared norm
    # overflows; the chain rescales the iterate by a power of two first.
    x = np.random.default_rng(0).standard_normal((4000, 5)) * [3, 1, 1, 1, 1]
    x[17] = [0, big, 0, 0, 0]
    res = robust_pca(WeightedDataset(x), eps=0.0, gamma=0.5, rng_seed=1)
    assert res.status is PcaStatus.ACCEPTED
    assert abs(float(res.u[1])) >= 0.999


def test_rescaled_solve_reports_unscaled_events():
    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=11)
    runs = []
    for data in (pts, np.ldexp(pts, 300)):
        events = []
        robust_pca(WeightedDataset(data), eps=0.05, gamma=1.0, rng_seed=11,
                   trace_sink=events.append)
        runs.append(events)
    ev_a, ev_b = runs
    assert len(ev_a) == len(ev_b) and any(e["rounds"] > 0 for e in ev_a)
    for ea, eb in zip(ev_a, ev_b):
        np.testing.assert_array_equal(ea["weights"], eb["weights"])
        for key in ("mean_score", "cutoff", "sigma", "t_hat"):
            if key in ea:
                assert eb[key] == math.ldexp(ea[key], 600), key


def test_inlier_mass_mostly_conserved():
    eps = 0.05
    hits = 0
    for seed in range(100):
        pts, labels, _sigma = spiked_instance(8, 2000, eps, seed=seed)
        events = []
        robust_pca(WeightedDataset(pts), eps=eps, gamma=1.0, rng_seed=seed,
                   trace_sink=events.append)
        if events:
            final_w = events[-1]["weights"]
        else:
            final_w = np.ones(len(labels), dtype=bool)
        removed_inlier_mass = np.count_nonzero(labels & ~final_w) / len(labels)
        if removed_inlier_mass <= 6 * eps:
            hits += 1
    assert hits >= 80


def test_multi_direction_hide_still_recovered():
    # Outliers spread over several low-variance axes, each boosted past the
    # true top: single-direction filtering would need one pass per axis, but
    # randomized mixing still drives them all out.
    d, n, eps = 16, 12_000, 0.05
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.MULTI_DIRECTION_HIDE, rate=eps,
                        n_directions=3, hide_boost=1.2)
    hits = naive_misses = 0
    for seed in range(6):
        rng = rng_stream(seed, 510)
        pts, labels = gen_inliers(spec, n, rng)
        pts, labels = strong_contaminate(pts, labels, adv, spec, rng)
        res = robust_pca(WeightedDataset(pts), eps=eps, gamma=1.0, rng_seed=seed)
        if metric_approx_ratio(res.u, spec.covariance()) >= 0.85:
            hits += 1
        u_naive, _ = naive_pca(pts, rng_stream(seed, 511))
        if metric_approx_ratio(u_naive, spec.covariance()) <= 0.5:
            naive_misses += 1
    assert hits >= 5
    assert naive_misses >= 5


def test_moment_camouflage_clears_average_case_bound():
    # True covariance is a rank-r projection while the corrupted moment is
    # close to identity. In the idealized exactly-isotropic state a random
    # accepted direction carries r/d = 1/(1+gamma) of the top variance on
    # average (pinned by the synthetic certificate test); a finite-sample
    # realization can only leak more information, so the driver must clear
    # that bound from below.
    d, gamma, eps = 40, 0.25, 0.0125
    r = math.ceil(d / (1 + gamma))
    spec = InlierSpec(dim=d, diag=tuple([1.0] * r + [0.0] * (d - r)))
    adv = AdversarySpec(kind=AdversaryKind.SCHATTEN_BLIND, rate=eps,
                        projection_rank=r)
    ratios = []
    for seed in range(10):
        rng = rng_stream(seed, 512)
        pts, labels = gen_inliers(spec, 20_000, rng)
        pts, labels = strong_contaminate(pts, labels, adv, spec, rng)
        res = robust_pca(WeightedDataset(pts), eps=eps, gamma=gamma, rng_seed=seed)
        ratios.append(metric_approx_ratio(res.u, spec.covariance()))
    mean = float(np.mean(ratios))
    assert mean >= 1 / (1 + gamma) - 0.1


@pytest.mark.parametrize("suite_cls", [BatchEstimators, MinibatchEstimators])
def test_suites_define_exactly_the_contract_methods(suite_cls):
    public = {name for name, val in vars(suite_cls).items()
              if callable(val) and not name.startswith("_")}
    assert public == SUITE_METHODS


def test_the_driver_docstring_lists_the_contract_methods():
    # The contract is documented as one "- ``name(...)``" bullet per method.
    listed = re.findall(r"^- ``(\w+)\(", driver.__doc__, flags=re.MULTILINE)
    assert len(listed) == len(SUITE_METHODS) == 8
    assert set(listed) == SUITE_METHODS


def test_suites_and_the_docstring_agree_on_each_methods_parameters():
    # Both suites take each contract method's parameters in the order its
    # "- ``name(...)``" bullet lists them; a leading "_" only marks a
    # parameter a suite ignores.
    listed = dict(re.findall(r"^- ``(\w+)\(([^)]*)\)", driver.__doc__, flags=re.MULTILINE))
    assert set(listed) == SUITE_METHODS
    for name, params in listed.items():
        want = [p.strip() for p in params.split(",") if p.strip()]
        for suite_cls in (BatchEstimators, MinibatchEstimators):
            got = list(inspect.signature(getattr(suite_cls, name)).parameters)[1:]
            assert [p.lstrip("_") for p in got] == want, (suite_cls.__name__, name)


class Recorder:
    """Forwards to a suite, noting each attribute read and each method call."""

    def __init__(self, suite):
        self._suite = suite
        self.seen = set()
        self.calls = []

    def __getattr__(self, name):
        self.seen.add(name)
        attr = getattr(self._suite, name)
        if name not in SUITE_METHODS:
            return attr

        def logged(*args):
            self.calls.append((name, args))
            return attr(*args)
        return logged


def test_drive_uses_only_the_suite_contract():
    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
    cfg = AlgoConfig(eps=0.05, gamma=1.0)
    suite = Recorder(BatchEstimators(pts, cfg, np.einsum("ij,ij->i", pts, pts)))
    events = []
    res = drive(suite, cfg, seed=7, trace_sink=events.append)
    assert res.u is not None and any(not e["skipped"] for e in events)
    assert SUITE_METHODS - {"register_entry"} | {"dim", "stack"} <= suite.seen
    assert suite.seen <= SUITE_METHODS | {"dim", "stack"}


def _stream_suite(cfg, rows=20_000):
    spec = InlierSpec(dim=8, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=0.035, spike_axis=1)
    pool = tv_contaminated_source(spec, adv, rng_stream(0, 1)).draw(rows)
    return MinibatchEstimators(ReplaySource(pool, mode="cycle"), cfg, 1.5, ScalarLedger())


@pytest.mark.parametrize("kind", ["batch", "stream"])
def test_each_direction_follows_its_iterations_certificate(kind):
    # The stream suite hands out the direction that rode its certificate's
    # chain, which is sound only if drive asks for each direction right
    # after the same iteration's certificate, on the stack that certificate
    # saw, with that iteration's generator.
    if kind == "batch":
        cfg = AlgoConfig(eps=0.05, gamma=1.0)
        pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
        suite = Recorder(BatchEstimators(pts, cfg, np.einsum("ij,ij->i", pts, pts)))
    else:
        cfg = AlgoConfig(eps=0.03, gamma=0.6)
        suite = Recorder(_stream_suite(cfg))
    res = drive(suite, cfg, seed=7 if kind == "batch" else 0)
    assert res.u is not None
    names = [name for name, _args in suite.calls]
    assert "direction" in names and "register_entry" in names
    for i, (name, args) in enumerate(suite.calls):
        if name != "direction":
            continue
        j = max(j for j in range(i) if names[j] == "certificate")
        assert "register_entry" not in names[j:i]
        _shares, _rng_cert, rng_dir = suite.calls[j][1]
        assert args[0] is rng_dir


class NeverAccepts(BatchEstimators):
    """A batch suite whose every certificate rejects."""

    def certificate(self, shares, rng, rng_dir):
        return dataclasses.replace(super().certificate(shares, rng, rng_dir),
                                   accepted=False)


@pytest.mark.parametrize("d, gamma", [(20, 0.6), (50, 0.1), (200, 1.0)])
def test_every_direction_runs_at_the_chain_length(monkeypatch, d, gamma):
    # Every direction runs at p, the stream certificate chain's length at
    # START_FAILURE: 2, 14 and 2 steps here, on each iteration of a suite
    # whose certificates never accept. The trace event reports that power.
    powers, real = [], driver.power_direction

    def spy(op, p, z):
        powers.append(p)
        return real(op, p, z)

    monkeypatch.setattr(driver, "power_direction", spy)
    pts = rng_stream(0, 3).standard_normal((4 * d, d))
    cfg = AlgoConfig(eps=gamma / 20, gamma=gamma, t_end=2)
    events = []
    drive(NeverAccepts(pts, cfg, np.einsum("ij,ij->i", pts, pts)), cfg, seed=0,
          trace_sink=events.append)
    p = certificate.power_chain_length(d, gamma, certificate.START_FAILURE)
    assert p == {20: 2, 50: 14, 200: 2}[d]
    assert powers == [p, p]
    assert [(e["t"], e["p"], e["skipped"]) for e in events] == [(1, p, False), (2, p, False)]


def test_a_rejected_first_level_direction_draws_no_row():
    # The direction's power is the chain's length, so the stream direction
    # is its rider as the chain left it: on the d = 8 pool of the tracer's
    # contract test (``tests/test_tracing_contract.py``), every rejected
    # certificate's direction call draws no row.
    cfg = AlgoConfig(eps=0.03, gamma=0.6)
    suite = _stream_suite(cfg, rows=50_000)
    real, drawn = suite.direction, []

    def direction(rng, rider):
        before = suite.source.delivered
        v = real(rng, rider)
        drawn.append(suite.source.delivered - before)
        return v

    suite.direction = direction
    res = drive(suite, cfg, seed=0)
    assert res.status is PcaStatus.ACCEPTED
    assert drawn and drawn == [0] * len(drawn)


def _shares_by_call(monkeypatch, suite, cfg, seed):
    """Drive a Recorder-wrapped suite; return the j of every share the solve
    took, with (method, shares it took) for every contract call in order,
    and the failure probabilities its stream quantiles and means ran at."""
    import robustpca.streaming as streaming

    real, leaves = driver.failure_share, []
    monkeypatch.setattr(driver, "failure_share",
                        lambda j: suite.calls.append(("share", j)) or real(j))

    def spy(fn):
        sig = inspect.signature(fn)

        def inner(*args, **kwargs):
            leaves.append(sig.bind(*args, **kwargs).arguments["fail_prob"])
            return fn(*args, **kwargs)
        return inner

    for module, name in ((streaming, "streaming_quantile"), (certificate, "streaming_quantile"),
                         (linops, "stream_mean_estimate")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    res = drive(suite, cfg, seed=seed)
    js = [arg for name, arg in suite.calls if name == "share"]
    counts = []
    for name, _args in suite.calls:
        if name == "share":
            counts[-1][1] += 1
        else:
            counts.append([name, 0])
    return res, js, [tuple(c) for c in counts], leaves


@pytest.mark.parametrize("kind, eps", [("stream", 0.03), ("stream", 0.0), ("batch", 0.05)])
def test_a_rep_takes_each_share_once_in_call_order(monkeypatch, kind, eps):
    # ``drive`` makes a solve's one share sequence, and each estimate that can
    # fail takes the next share when it runs: a stream prologue two at
    # eps > 0 and none at eps = 0, a stream certificate one for its chain,
    # one for its trim at eps > 0 and one for its mean, each stream
    # quantile, trimmed mean and filter mean one, and a batch certificate
    # one, for its chain. So the solve's shares are failure_share(1..J) in
    # call order, each taken once, and they sum to less than the budget.
    if kind == "batch":
        pts, _labels, _sigma = spiked_instance(12, 3000, eps, seed=7)
        cfg = AlgoConfig(eps=eps, gamma=1.0)
        suite = Recorder(BatchEstimators(pts, cfg, np.einsum("ij,ij->i", pts, pts)))
    else:
        cfg = AlgoConfig(eps=eps, gamma=0.6)
        suite = Recorder(_stream_suite(cfg))
    res, js, counts, leaves = _shares_by_call(monkeypatch, suite, cfg, 7 if kind == "batch" else 0)
    assert res.u is not None
    assert js == list(range(1, len(js) + 1))
    assert [failure_share(j) for j in js] == [CERT_FAILURE_PROB / (j * (j + 1)) for j in js]
    assert sum(failure_share(j) for j in js) < CERT_FAILURE_PROB
    assert all(p in map(failure_share, js) for p in leaves) and len(set(leaves)) == len(leaves)
    if kind == "batch":
        want = {"certificate": 1}
    elif eps > 0:
        want = {"prologue": 2, "certificate": 3, "quantile_value": 1, "sigma_trimmed": 1,
                "mean_score": 1}
        assert res.filters_created >= 1
    else:
        want = {"certificate": 2}
    assert all(n == want.get(name, 0) for name, n in counts), counts


EVENT_KEYS = {"t", "p", "rounds", "skipped"}
FILTER_KEYS = {"mean_score", "cutoff", "sigma", "t_hat"}


@pytest.mark.parametrize("eps", [0.0, 0.03])
@pytest.mark.parametrize("kind", ["batch", "stream"])
def test_trace_events_carry_exactly_the_documented_keys(monkeypatch, kind, eps):
    # The schema of ``drive``'s docstring: every event has t, p, rounds and
    # skipped; one whose direction ran, at eps > 0, also has the filter's
    # mean_score, cutoff, sigma and t_hat; a batch solve adds weights.
    # Certificates are rejected, so each of the t_end = 2 iterations emits.
    suite_cls = BatchEstimators if kind == "batch" else MinibatchEstimators
    real = suite_cls.certificate
    monkeypatch.setattr(suite_cls, "certificate", lambda self, *args: dataclasses.replace(
        real(self, *args), accepted=False))
    cfg = AlgoConfig(eps=eps, gamma=0.6, t_end=2)
    events = []
    if kind == "batch":
        pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
        robust_pca(WeightedDataset(pts), eps=eps, gamma=0.6, config=cfg, rng_seed=7,
                   trace_sink=events.append)
    else:
        drive(_stream_suite(cfg), cfg, seed=0, trace_sink=events.append)
    want = EVENT_KEYS | (FILTER_KEYS if eps > 0 else set())
    want |= {"weights"} if kind == "batch" else set()
    assert [(e["t"], e["skipped"]) for e in events] == [(1, eps == 0), (2, eps == 0)]
    assert all(set(e) == want for e in events)


def test_batch_prune_radius_is_the_largest_finite_squared_norm_where_its_formula_overflows():
    # 10 sigma_op d / eps overflows where the rows below the trim cut have
    # squared norms near the largest float: here 50 rows at 3e306 hold
    # sigma_op at 3.75e305. The radius^2 is then clamped to the largest
    # finite squared norm, 1e307, which keeps the same rows and gives the
    # filter a finite range R; a row whose squared norm overflows stays out.
    pts = np.random.default_rng(3).standard_normal((400, 4))
    pts[:50] = math.sqrt(1e307 / 4)
    pts[50:100] = math.sqrt(3e306 / 4)
    pts[100] = 1e155
    with np.errstate(over="ignore"):
        g = np.einsum("ij,ij->i", pts, pts)
    suite = BatchEstimators(pts, AlgoConfig(eps=0.05, gamma=1.0), g)
    sigma_op, _delta = suite.prologue(iter(()))
    assert 10.0 * sigma_op * 4 / 0.05 == math.inf
    finite = np.isfinite(g)
    assert suite.stack.prune_radius_sq == g[finite].max() < math.inf
    np.testing.assert_array_equal(suite.weights, finite)


def test_a_direction_that_scores_every_survivor_zero_registers_no_entry():
    # A power direction lies in the survivors' span, so some survivor scores
    # above 0 and drive runs the filter step whenever it has a direction.
    # Were every score 0, the step would change nothing: the batch trimmed
    # variance, delta and the opening mean are all 0, and 0 <= 0 is the
    # filter's exit, so no round runs and no entry is made.
    class Orthogonal(BatchEstimators):
        def certificate(self, shares, rng, rng_dir):
            return dataclasses.replace(super().certificate(shares, rng, rng_dir),
                                       accepted=False)

        def direction(self, rng, rider):
            return np.eye(self.dim)[-1]

    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
    pts[:, -1] = 0.0
    cfg = AlgoConfig(eps=0.05, gamma=1.0, t_end=2)
    events = []
    res = drive(Orthogonal(pts, cfg, np.einsum("ij,ij->i", pts, pts)), cfg, seed=7,
                trace_sink=events.append)
    assert res.status is PcaStatus.FALLBACK_BEST and res.filters_created == 0
    assert len(events) == 2
    for event in events:
        assert not event["skipped"] and event["rounds"] == 0
        assert event["sigma"] == event["t_hat"] == event["mean_score"] == 0.0


def test_batch_means_are_exact_whatever_the_bound():
    # The batch suite answers sigma_trimmed with the exact trimmed variance,
    # and mean_score with the exact mean score in (L, thr]: the exit bound
    # the filter hands it, which lets a stream suite stop sampling, changes
    # nothing here, so batch filters keep their thresholds bit for bit.
    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
    suite = BatchEstimators(pts, AlgoConfig(eps=0.05, gamma=1.0),
                            np.einsum("ij,ij->i", pts, pts))
    none = iter(())  # the batch suite takes no share outside its certificate
    suite.prologue(none)
    v = np.zeros(12)
    v[1] = 1.0
    assert suite.start_iteration(v) is None
    cut = suite.quantile_value(0.15, none)
    f = (pts[suite.weights] @ v) ** 2
    assert suite.sigma_trimmed(cut, none) == trimmed_variance(f, cut, 3000)
    opening = float(np.sum(f[f > cut])) / 3000
    assert opening > 0
    for bound in (0.0, opening, math.inf):
        assert suite.mean_score(cut, math.inf, bound, none) == opening


def test_robust_pca_hands_its_squared_norms_to_the_prologue(monkeypatch):
    # robust_pca computes the rows' squared norms once, for its scale check,
    # and its one suite's prologue reads them instead of recomputing.
    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
    seen = []
    real = BatchEstimators.__init__

    def spy(self, points, config, sq_norms):
        seen.append(sq_norms)
        real(self, points, config, sq_norms)

    monkeypatch.setattr(BatchEstimators, "__init__", spy)
    # An infinite f1, which no trimmed variance reaches, rejects every
    # candidate, so the solve runs to its end and builds one suite.
    monkeypatch.setattr(certificate, "acceptance_factors",
                        lambda eps, gamma: (math.inf, 0.25))
    res = robust_pca(WeightedDataset(pts), eps=0.05, gamma=1.0, rng_seed=3,
                     config=AlgoConfig(t_end=1))
    assert res.status is PcaStatus.FALLBACK_BEST
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], np.einsum("ij,ij->i", pts, pts))


def test_batch_rows_are_the_masked_points_after_every_filter():
    pts, _labels, _sigma = spiked_instance(12, 3000, 0.05, seed=7)
    cfg = AlgoConfig(eps=0.05, gamma=1.0)
    suite = BatchEstimators(pts, cfg, np.einsum("ij,ij->i", pts, pts))
    register = suite.register_entry
    filters = []

    def register_and_check(entry):
        register(entry)
        want = pts[suite.weights]
        assert suite.op.rows.shape == want.shape
        assert suite.op.rows.tobytes() == want.tobytes()
        filters.append(entry)

    suite.register_entry = register_and_check
    drive(suite, cfg, seed=7)
    assert filters and len(filters) == len(suite.stack)


def test_batch_solve_of_fortran_ordered_points_matches_c_ordered():
    pts, _labels, _sigma = spiked_instance(d=10, n=2000, eps=0.02, seed=4)
    want = robust_pca(WeightedDataset(pts), eps=0.02, gamma=0.4, rng_seed=4)
    got = robust_pca(WeightedDataset(np.asfortranarray(pts)), eps=0.02, gamma=0.4, rng_seed=4)
    assert got.u.tobytes() == want.u.tobytes()
    assert (got.status, got.iterations, got.filters_created, got.sigma_robust) == \
        (want.status, want.iterations, want.filters_created, want.sigma_robust)


@pytest.mark.parametrize("pruned", [0, 5])
def test_batch_rows_alias_the_points_only_while_every_row_survives(monkeypatch, pruned):
    # A prune that keeps every row leaves the operator on the input points
    # themselves; one that removes rows gathers the survivors.
    suites = []
    real = BatchEstimators.prologue

    def spy(self, shares):
        suites.append(self)
        return real(self, shares)

    monkeypatch.setattr(BatchEstimators, "prologue", spy)
    d, n = 10, 2000
    pts = rng_stream(2, 0).standard_normal((n, d)) * np.sqrt([9.0] + [1.0] * (d - 1))
    pts[:pruned] *= 1e3
    ds = WeightedDataset(pts)
    res = robust_pca(ds, eps=0.01, gamma=0.2, rng_seed=2)
    assert res.status is PcaStatus.ACCEPTED and res.filters_created == 0
    [suite] = suites
    assert suite.op.rows.shape[0] == n - pruned
    assert np.shares_memory(suite.op.rows, ds.points) == (pruned == 0)


def test_overflowing_row_is_dropped_by_batch_prologue():
    # A finite row whose squared norm overflows must not reach the operator
    # norm bracket or survive the infinite prune radius of eps = 0, and no
    # later step may project it (any overflow warning fails the suite).
    clean = np.random.default_rng(0).standard_normal((4000, 5)) * [3, 1, 1, 1, 1]
    bad = clean.copy()
    bad[17] = [1e200, 0, 0, 0, 0]
    runs = [robust_pca(WeightedDataset(pool), eps=0.0, gamma=0.5, rng_seed=1)
            for pool in (clean, bad)]
    for res in runs:
        assert res.status is PcaStatus.ACCEPTED
        assert res.iterations == 1
    assert abs(float(runs[0].u @ runs[1].u)) >= 1 - 1e-3
