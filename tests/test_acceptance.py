"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them inline;
pytest prints captured output for failures regardless).
"""

import math
import time

import numpy as np

from robustpca import (
    AdversaryKind,
    AdversarySpec,
    AlgoConfig,
    InlierSpec,
    PcaStatus,
    SecondMomentOp,
    WeightedDataset,
    gen_inliers,
    hard_thresholding_filter_batch,
    metric_approx_ratio,
    naive_pca,
    potential_diagnostic,
    power_direction,
    robust_pca,
    rng_stream,
    sample_top_eigenvector,
    stopping_condition_truth,
    streaming_quantile,
    streaming_robust_pca,
    strong_contaminate,
    tv_contaminated_source,
    weighted_quantile,
)
from robustpca.estimators import opnorm_bracket
from robustpca.oracle import dense_power_apply, dense_spectrum


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def spiked_instance(d, n, rate, seed, spike=9.0):
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, spike),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=rate, spike_axis=1)
    rng = rng_stream(seed, 900)
    pts, labels = gen_inliers(spec, n, rng)
    pts, labels = strong_contaminate(pts, labels, adv, spec.covariance(), rng)
    return pts, labels, spec.covariance()


def test_01_robust_recovery_under_strong_contamination():
    t0 = time.perf_counter()
    d, n, eps = 50, 20_000, 0.05
    gamma = 20 * eps
    robust_ok = naive_ok = 0
    for seed in range(10):
        pts, _labels, sigma = spiked_instance(d, n, eps, seed)
        res = robust_pca(WeightedDataset(pts), eps=eps, gamma=gamma, rng_seed=seed)
        if metric_approx_ratio(res.u, sigma) >= 0.85:
            robust_ok += 1
        u_naive, _ = naive_pca(pts, rng_stream(seed, 901))
        if metric_approx_ratio(u_naive, sigma) <= 0.3:
            naive_ok += 1
    elapsed = time.perf_counter() - t0
    report(1, "robust recovery", robust_ok >= 9 and naive_ok >= 9 and elapsed < 300,
           f"robust {robust_ok}/10, naive {naive_ok}/10, {elapsed:.1f}s")


def test_02_clean_data_sanity():
    d, n, eps = 50, 20_000, 0.005
    gamma = 20 * eps
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, 9.0),))
    sigma = spec.covariance()
    ok = 0
    for seed in range(20):
        pts, _labels = gen_inliers(spec, n, rng_stream(seed, 902))
        res = robust_pca(WeightedDataset(pts), eps=eps, gamma=gamma, rng_seed=seed)
        if metric_approx_ratio(res.u, sigma) >= 0.95:
            ok += 1
    report(2, "clean-data sanity", ok >= 19, f"{ok}/20 seeds >= 0.95")


def test_03_filter_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n, n_out = 400, 20
    f = np.concatenate([rng.uniform(0.0, 1.0, size=n - n_out),
                        rng.uniform(30.0, 60.0, size=n_out)])
    is_out = np.zeros(n, dtype=bool)
    is_out[n - n_out:] = True
    w0 = np.ones(n, dtype=bool)
    eps = n_out / n
    t_hat = (1 - eps) * float(np.mean(f[~is_out])) * 1.3
    v = np.array([1.0, 0.0])
    rem_out, rem_in = [], []
    exit_ok = True
    for seed in range(2000):
        outcome, new_w = hard_thresholding_filter_batch(
            v, f, w0, n, 0.0, t_hat, rng=np.random.default_rng(seed))
        exit_ok &= outcome.final_mean_score <= 2.5 * t_hat + 1e-12
        removed = w0 & ~new_w
        rem_out.append(np.count_nonzero(removed & is_out) / n)
        rem_in.append(np.count_nonzero(removed & ~is_out) / n)
    mean_out, mean_in = float(np.mean(rem_out)), float(np.mean(rem_in))
    se = math.sqrt((np.var(rem_out) + np.var(rem_in)) / 2000)
    elapsed = time.perf_counter() - t0
    report(3, "filter soundness",
           exit_ok and mean_out >= mean_in - 3 * se and elapsed < 30,
           f"removed outlier mass {mean_out:.4f} vs inlier {mean_in:.4f}, {elapsed:.1f}s")


def test_04_potential_decrease_with_dense_shadow():
    t0 = time.perf_counter()
    d, n = 16, 20_000
    eps, gamma = 1e-4, 0.002
    cfg = AlgoConfig(eps=eps, gamma=gamma, t_end=4, k_end=1,
                     c_pi=0.004, c_cert=0.004)
    ratios = []
    monotone_ok = True
    for seed in range(200):
        pts, _labels, sigma = spiked_instance(d, n, eps, seed)
        events = []
        robust_pca(WeightedDataset(pts), eps=eps, gamma=gamma, config=cfg,
                   rng_seed=seed, trace_sink=events.append)
        prune_sq = 10.0 * opnorm_bracket(pts, np.ones(n, dtype=bool), eps) * d / eps
        w_before = np.einsum("ij,ij->i", pts, pts) <= prune_sq
        for ev in events:
            if not ev["skipped"]:
                before = potential_diagnostic(pts, w_before, ev["p_k"])
                after = potential_diagnostic(pts, ev["weights"], ev["p_k"])
                monotone_ok &= after <= before * (1 + 1e-9)
                _lhs, _rhs, holds = stopping_condition_truth(
                    sigma, pts, w_before, ev["p_k"], gamma)
                if not holds:
                    ratios.append(after / before)
            w_before = ev["weights"]
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - t0
    report(4, "potential decrease",
           len(ratios) >= 200 and mean_ratio <= 1 - gamma / 2 and monotone_ok
           and elapsed < 120,
           f"{len(ratios)} failing-condition rounds, mean ratio {mean_ratio:.2e}, "
           f"{elapsed:.1f}s")


def test_05_certificate_randomization_expectation():
    t0 = time.perf_counter()
    d, gamma = 40, 0.25
    r = math.ceil(d / (1 + gamma))  # 32
    pts = math.sqrt(d) * np.vstack([np.eye(d), -np.eye(d)])  # moment exactly I
    sigma = np.diag([1.0] * r + [0.0] * (d - r))
    cfg = AlgoConfig(eps=0.01, gamma=gamma)
    rng = np.random.default_rng(1)
    vals = []
    for _ in range(500):
        cand = sample_top_eigenvector(pts, 2 * d, 0.01, gamma, 0.05, cfg, rng)
        vals.append(float(cand.u @ sigma @ cand.u))
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(len(vals))
    elapsed = time.perf_counter() - t0
    report(5, "certificate randomization",
           abs(mean - 1 / (1 + gamma)) <= 3 * se and elapsed < 30,
           f"mean {mean:.4f} vs 0.8 +- {3 * se:.4f}, {elapsed:.1f}s")


def test_06_oracle_equivalence():
    rng = np.random.default_rng(2)
    power_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(d + 1, 200))
        p = int(rng.integers(1, 31))
        pts = rng.standard_normal((n, d)) * rng.uniform(0.5, 1.5)
        w = rng.random(n) < 0.9
        if not w.any():
            w[0] = True
        op = SecondMomentOp(pts[w], n)
        z = rng.standard_normal(d)
        got = power_direction(op, p, z)
        want = dense_power_apply(op.materialize(), p, z)
        power_ok &= (np.linalg.norm(got - want / np.linalg.norm(want)) <= 1e-8)

    def sort_scan(scores, weights, tail):
        surv = np.sort(scores[weights])
        for val in surv:
            if np.count_nonzero(surv > val) / surv.size <= tail + 1e-15:
                return float(val)

    quant_ok = True
    for _ in range(100):
        n = int(rng.integers(5, 80))
        scores = np.round(rng.uniform(0, 10, size=n), 1)
        weights = rng.random(n) < 0.85
        if not weights.any():
            weights[0] = True
        tail = float(rng.uniform(0.0, 0.5))
        quant_ok &= (weighted_quantile(scores[weights], tail)
                     == sort_scan(scores, weights, tail))
    report(6, "oracle equivalence", power_ok and quant_ok,
           "matrix powers to 1e-8, quantiles exact")


def test_07_streaming_parity_and_memory():
    t0 = time.perf_counter()
    d, eps = 20, 0.03
    gamma = 20 * eps
    spec = InlierSpec(dim=d, diag=1.0, spikes=((0, 9.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=eps, spike_axis=1)
    sigma = spec.covariance()
    ok = 0
    single_pass_ok = True
    for seed in range(10):
        src = tv_contaminated_source(spec, adv, rng_stream(seed, 903))
        res, stats = streaming_robust_pca(src, eps=eps, gamma=gamma, r_radius=1.5,
                                          rng_seed=seed, max_samples=60_000_000)
        if metric_approx_ratio(res.u, sigma) >= 0.8:
            ok += 1
        single_pass_ok &= stats.samples_consumed == src.delivered

    peaks = []
    filters_seen = []
    for budget in (30_000_000, 60_000_000):
        src = tv_contaminated_source(spec, adv, rng_stream(123, 903))
        _res, stats = streaming_robust_pca(src, eps=eps, gamma=gamma, r_radius=1.5,
                                           rng_seed=123, max_samples=budget)
        peaks.append(stats.peak_resident_scalars)
        filters_seen.append(stats.filters_stored)
    filters_budget = 200
    peak_bound = 50 * (d * filters_budget + (1 / eps) * math.log(d / eps))
    elapsed = time.perf_counter() - t0
    report(7, "streaming parity and memory",
           ok >= 8 and peaks[0] == peaks[1] and single_pass_ok
           and max(filters_seen) <= filters_budget and peaks[0] <= peak_bound
           and elapsed < 600,
           f"{ok}/10 seeds >= 0.8, peak {peaks[0]} <= {peak_bound:.0f} scalars "
           f"at both budgets, {elapsed:.1f}s")


def test_08_streaming_quantile_accuracy():
    tail = 0.1
    fail_prob = 0.02
    c_q = 30_000  # the accuracy constant the tail/100 guarantee needs
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            qt = streaming_quantile(lambda k: rng.random(k), tail, fail_prob, c_q=c_q)
            pop_tail = 1.0 - qt  # exact CDF of U(0, 1)
        else:
            qt = streaming_quantile(lambda k: rng.exponential(1.0, size=k), tail,
                                    fail_prob, c_q=c_q)
            pop_tail = math.exp(-qt)  # exact CDF of Exp(1)
        if abs(pop_tail - tail) <= tail / 100:
            hits += 1
    report(8, "streaming quantile accuracy", hits >= 95, f"{hits}/100 runs in band")


def test_09_near_linear_scaling():
    eps, gamma = 0.005, 0.1
    cfg = AlgoConfig(eps=eps, gamma=gamma)

    def run_cell(n, d, rep):
        rng = rng_stream(904, n, d, rep)
        pts = rng.standard_normal((n, d)) * np.sqrt([10.0] + [1.0] * (d - 1))
        ds = WeightedDataset(pts)
        t0 = time.perf_counter()
        res = robust_pca(ds, eps=eps, gamma=gamma, config=cfg, rng_seed=rep)
        assert res.status is PcaStatus.ACCEPTED
        return time.perf_counter() - t0

    medians = {}
    base = (20_000, 24)
    for cell in (base, (40_000, 24), (20_000, 48)):
        times = [run_cell(cell[0], cell[1], rep) for rep in range(5)]
        medians[cell] = float(np.median(times))
    ratio_n = medians[(40_000, 24)] / medians[base]
    ratio_d = medians[(20_000, 48)] / medians[base]
    report(9, "near-linear scaling", ratio_n <= 2.6 and ratio_d <= 2.6,
           f"2x n -> {ratio_n:.2f}x, 2x d -> {ratio_d:.2f}x "
           f"(base {medians[base]:.3f}s)")


def test_10_scaling_equivariance():
    c = 7.3
    pts, _labels, _sigma = spiked_instance(20, 5000, 0.05, seed=31)
    runs = []
    for data in (pts, c * pts):
        events = []
        res = robust_pca(WeightedDataset(data), eps=0.05, gamma=1.0, rng_seed=31,
                         trace_sink=events.append)
        runs.append((res, events))
    (res_a, ev_a), (res_b, ev_b) = runs
    same_sets = len(ev_a) == len(ev_b) and all(
        np.array_equal(ea["weights"], eb["weights"]) for ea, eb in zip(ev_a, ev_b))
    aligned = abs(float(res_a.u @ res_b.u)) >= 1 - 1e-9
    report(10, "scaling equivariance",
           same_sets and aligned and res_a.iterations == res_b.iterations,
           f"{len(ev_a)} filtering events identical, |<u, u'>| = "
           f"{abs(float(res_a.u @ res_b.u)):.12f}")


def test_11_stopping_condition_dominance():
    rng = np.random.default_rng(3)
    gamma, c_stop = 0.1, 1.0
    holds_checked = 0
    attempts = 0
    dominated = True
    while holds_checked < 200 and attempts < 5000:
        attempts += 1
        d = int(rng.integers(2, 13))
        p = math.ceil(2 * math.log(max(d, 2)) / gamma)
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sig_t = (q1 * rng.uniform(0.1, 2.0, size=d)) @ q1.T
        sig = (q2 * rng.uniform(0.5, 4.0, size=d)) @ q2.T
        spec_t = dense_spectrum(sig_t)
        lam_t = spec_t.eigenvalues
        m2 = (spec_t.eigenvectors * lam_t ** (2 * p)) @ spec_t.eigenvectors.T
        lhs = float(np.sum(lam_t ** (2 * p + 1)))
        rhs = (1 + c_stop * gamma) * float(np.trace(sig @ m2))
        if lhs <= rhs:
            holds_checked += 1
            schatten = lhs ** (1 / (2 * p + 1))
            op = dense_spectrum(sig).eigenvalues[0]
            dominated &= schatten <= (1 + 2 * c_stop * gamma) * op
    report(11, "stopping-condition dominance",
           holds_checked >= 200 and dominated,
           f"{holds_checked} conforming pairs, all dominated")
