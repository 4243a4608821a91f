import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from dense_oracles import dense_spectrum

from robustpca import (
    AdversaryKind,
    AdversarySpec,
    AlgoConfig,
    FilterStack,
    InlierSpec,
    PcaStatus,
    ReplaySource,
    ScalarLedger,
    SecondMomentOp,
    SyntheticSource,
    WeightedDataset,
    gen_inliers,
    metric_approx_ratio,
    robust_pca,
    sample_top_eigenvector,
    sample_top_eigenvector_streaming,
    streamed_power_apply,
    streaming_robust_pca,
    strong_contaminate,
    tv_contaminated_source,
)
from robustpca import certificate
from robustpca.certificate import (START_FAILURE, TRIM_C_Q, acceptance_factors,
                                   power_chain_length)
from robustpca.estimators import (
    FIRST_STAGE,
    mean_ceiling,
    mean_stages,
    stage_interval,
    stage_log,
    streaming_quantile,
    streaming_quantile_samples,
    trim_keep_share,
)
from robustpca.errors import DegenerateStateError


def test_acceptance_factors_clamping():
    # f1 = kappa(3.5 eps) (1 - gamma / 2), kappa(0.0175) = 0.8698; at eps = 0
    # nothing is trimmed and kappa = 1. eta = min(1, gamma / (2 - gamma)) / 4,
    # 1/4 at gamma = 1.
    f1, eta = acceptance_factors(0.005, 0.1)
    assert f1 == pytest.approx(trim_keep_share(0.0175) * 0.95)
    assert f1 == pytest.approx(0.8263, abs=1e-4) and eta == pytest.approx(0.1 / 1.9 / 4)
    f1, eta = acceptance_factors(0.05, 1.0)
    assert f1 == pytest.approx(trim_keep_share(0.175) / 2) and eta == 0.25
    f1, eta = acceptance_factors(0.0, 0.2)
    assert f1 == pytest.approx(0.9)
    # The top of the stream band, (1 + 2 eta) f1, sits halfway from f1 to kappa.
    for eps, gamma in ((0.005, 0.1), (0.02, 0.4), (0.05, 1.0), (0.0005, 0.01)):
        f1, eta = acceptance_factors(eps, gamma)
        kappa = trim_keep_share(3.5 * eps)
        assert (1 + 2 * eta) * f1 == pytest.approx((f1 + kappa) / 2)


def _h(p, gamma):
    """h(p) of ``power_chain_length``'s bound, in a form whose powers stay in range:
    q^(2p+1) (2p / (2p + 1))^(2p) / ((1 - q) (2p + 1))."""
    q = (1 - gamma / 2) / (1 + gamma / 2)
    return q ** (2 * p + 1) * (2 * p / (2 * p + 1)) ** (2 * p) / ((1 - q) * (2 * p + 1))


def _beta_half(d):
    """B(1/2, (d - 1) / 2) for d >= 2, by B(1/2, b + 1) = B(1/2, b) b / (b + 1/2)
    from B(1/2, 1/2) = pi or B(1/2, 1) = 2."""
    b, beta_fn = (0.5, math.pi) if d % 2 == 0 else (1.0, 2.0)
    while b < (d - 1) / 2:
        beta_fn *= b / (b + 0.5)
        b += 1
    return beta_fn


def _start_level(d, fail_prob):
    """s with P(z_1^2 / ||z||^2 < s) <= fail_prob for a Gaussian z in d >= 2 dimensions.

    Exact at d = 2; for d >= 3 the density bound 2 sqrt(s) / B(1/2, (d - 1) / 2).
    """
    if d == 2:
        return math.sin(math.pi * fail_prob / 2) ** 2
    return (fail_prob * _beta_half(d) / 2) ** 2


def _beta_share_below(d, x, n_grid=200_001):
    """P(beta < x) for beta ~ Beta(1/2, (d - 1) / 2), d >= 2 and x < 1.

    With u = sqrt(t) the law's integral is 2 int_0^sqrt(x) (1 - u^2)^((d - 3) / 2) du
    over B(1/2, (d - 1) / 2); the integrand is smooth on [0, sqrt(x)], and
    Simpson's rule on n_grid (odd) points takes it to rounding.
    """
    u = np.linspace(0.0, math.sqrt(x), n_grid)
    weights = np.ones(n_grid)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    integral = (u[1] - u[0]) / 3 * float(weights @ (1 - u * u) ** ((d - 3) / 2))
    return 2 * integral / _beta_half(d)


def _split_bound_length(d, gamma, fail_prob):
    """ceil(ln(2 K / gamma) / gamma): the length that splitting the spectrum at
    (1 - gamma / 2) lambda1 proves when |z_1| >= c and ||z||^2 <= N, two Gaussian
    tails of fail_prob / 2 each (the density bound and Laurent-Massart), K = N / c^2."""
    c = (fail_prob / 2) * math.sqrt(math.pi / 2)
    x = math.log(2 / fail_prob)
    k_level = (d + 2 * math.sqrt(d * x) + 2 * x) / c ** 2
    return math.ceil(math.log(2 * k_level / gamma) / gamma)


@pytest.mark.parametrize("fail_prob", [0.5, 0.025])
@pytest.mark.parametrize("gamma", [0.002, 0.1, 0.4, 0.6, 1.0])
@pytest.mark.parametrize("d", [2, 5, 20, 50, 1000])
def test_chain_length_is_the_least_the_bound_proves(d, gamma, fail_prob):
    # The returned p has h(p) <= s / (1 - s) and p - 1 does not, unless p is
    # the floor of 1 step. The direct bound never asks more steps than a
    # split of the spectrum under two union-bounded Gaussian tails.
    p = power_chain_length(d, gamma, fail_prob)
    s = _start_level(d, fail_prob)
    assert p >= 1
    assert _h(p, gamma) <= s / (1 - s) * (1 + 1e-12)
    assert p == 1 or _h(p - 1, gamma) > s / (1 - s)
    assert p <= _split_bound_length(d, gamma, fail_prob)


def test_chain_length_pinned_values():
    # The stream chain of ``stream_replay`` and acceptance 07, the first
    # batch certificate of acceptance 02 at its share, 0.05, and at half of
    # it, and gamma = 1 at that half. One dimension needs no step, and gets
    # the floor of 1.
    assert power_chain_length(20, 0.6, 0.5) == 2
    assert power_chain_length(50, 0.1, 0.05) == 33
    assert power_chain_length(50, 0.1, 0.025) == 39
    assert power_chain_length(50, 1.0, 0.025) == 4
    assert power_chain_length(1, 0.6, 0.5) == power_chain_length(1, 0.01, 1e-9) == 1


def _worst_spectrum_starts(d, gamma, p, n_starts=20_000):
    """(z_1^2 / ||z_-1||^2, missed) of seeded Gaussian starts after p exact steps.

    The spectrum is {1, b x (d - 1)} with b = 2 p q / (2p + 1), where the
    bound of ``power_chain_length`` holds with equality; ``missed`` marks the
    starts whose Rayleigh quotient ends below q.
    """
    q = (1 - gamma / 2) / (1 + gamma / 2)
    lam = np.full(d, 2 * p * q / (2 * p + 1))
    lam[0] = 1.0
    z = np.random.default_rng(0).standard_normal((n_starts, d))
    y = z * lam ** p
    rayleigh = np.sum(y * y * lam, axis=1) / np.sum(y * y, axis=1)
    return z[:, 0] ** 2 / np.sum(z[:, 1:] ** 2, axis=1), rayleigh < q


def _binomial_slack(prob, n):
    """Three standard deviations of the share of n draws that each hit with prob."""
    return 3 * math.sqrt(prob * (1 - prob) / n)


@pytest.mark.parametrize("d, gamma, fail_prob", [(20, 0.6, 0.5), (50, 0.1, 0.025),
                                                 (50, 1.0, 0.025)])
def test_chain_length_holds_on_its_worst_spectrum(d, gamma, fail_prob):
    # On its worst spectrum p exact steps leave a seeded start below q
    # exactly when z_1^2 / ||z_-1||^2 < h(p), up to rounding at the boundary.
    # The share of such starts is then P(beta < h / (1 + h)) under the Beta
    # law, taken by quadrature rather than sampled: at most fail_prob at p
    # (30.0%, 2.37% and 1.01%) and above it one step fewer, on that step's
    # own worst spectrum (65.9%, 2.65% and 3.46%), so the rule is the least
    # length there.
    p = power_chain_length(d, gamma, fail_prob)
    shares = []
    for steps in (p, p - 1):
        h = _h(steps, gamma)
        ratio, missed = _worst_spectrum_starts(d, gamma, steps)
        clear = np.abs(ratio / h - 1) > 1e-9
        assert np.array_equal(missed[clear], ratio[clear] < h)
        shares.append(_beta_share_below(d, h / (1 + h)))
    assert shares[0] <= fail_prob < shares[1]


@pytest.mark.parametrize("fail_prob", [0.5, 0.025])
@pytest.mark.parametrize("d", [2, 3, 20])
def test_start_level_bounds_the_gaussian_law(d, fail_prob):
    # beta = z_1^2 / ||z||^2 of a Gaussian start falls below s with
    # probability at most fail_prob, sampled over 100,000 seeded starts up
    # to three binomial standard deviations. At d = 2 (exact law) and d = 3
    # (where beta's density is exactly x^(-1/2) / 2) the bound is tight, so
    # the sampled share is also at least fail_prob less that slack; at
    # d = 20 the density bound is loose only at large s, as (1 - x)^(b - 1)
    # is near 1 for small x.
    # The Beta law's own share, by quadrature, is at most fail_prob up to
    # rounding, and equal to it at d <= 3.
    n = 100_000
    s = _start_level(d, fail_prob)
    z = np.random.default_rng(d).standard_normal((n, d))
    beta = z[:, 0] ** 2 / np.sum(z * z, axis=1)
    share = float(np.mean(beta < s))
    slack = _binomial_slack(fail_prob, n)
    assert share <= fail_prob + slack
    assert _beta_share_below(d, s) <= fail_prob * (1 + 1e-9)
    if d <= 3:
        assert share >= fail_prob - slack
        assert _beta_share_below(d, s) == pytest.approx(fail_prob, rel=1e-9)


def test_docstring_chain_lengths_match_the_bound():
    # Every "N steps at d = D, gamma = G, fail_prob = F" example in the
    # module's docstrings is what ``power_chain_length`` returns, so the
    # worked numbers cannot drift from the rule.
    tree = ast.parse(Path(certificate.__file__).read_text())
    text = "\n".join(ast.get_docstring(node, clean=False) or "" for node in ast.walk(tree)
                     if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))
    example = re.compile(r"([\d,]+) steps at\s+d = ([\d,]+),\s+gamma = ([\d.]+),"
                         r"\s+fail_prob = ([\d.]+)")
    found = example.findall(text)
    assert len(found) == len(re.findall(r"steps at\s+d =", text)) >= 4
    for steps, d, gamma, fail_prob in found:
        assert int(steps.replace(",", "")) == power_chain_length(
            int(d.replace(",", "")), float(gamma), float(fail_prob.rstrip("."))), steps


def test_clean_data_accepts_and_aligns():
    d, n, eps = 20, 5000, 0.02
    gamma = 0.4
    scales = np.sqrt(np.array([10.0] + [1.0] * (d - 1)))
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, d)) * scales
        cand = sample_top_eigenvector(SecondMomentOp(pts), n, eps, gamma, 0.01,
                                      np.random.default_rng(seed + 1))
        assert abs(np.linalg.norm(cand.u) - 1.0) <= 1e-12
        if cand.accepted and abs(cand.u[0]) >= 0.98:
            hits += 1
    assert hits >= 45


def test_isotropic_survivors_projection_expectation():
    # Empirical second moment exactly I, true Sigma a rank-r projection:
    # candidates are uniform on the sphere, so E[u' Sigma u] = r / d.
    d = 20
    gamma = 0.25
    r = math.ceil(d / (1 + gamma))  # 16
    pts = math.sqrt(d) * np.vstack([np.eye(d), -np.eye(d)])  # moment exactly I
    sigma = np.diag([1.0] * r + [0.0] * (d - r))
    rng = np.random.default_rng(0)
    vals = []
    for _ in range(400):
        cand = sample_top_eigenvector(SecondMomentOp(pts), 2 * d, 0.01, gamma, 0.05, rng)
        vals.append(float(cand.u @ sigma @ cand.u))
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(len(vals))
    assert abs(mean - r / d) <= 3 * se


def test_spiked_survivors_with_low_true_variance_rejected():
    # Survivor moment dominated by a direction where the trimmed variance is
    # tiny: the robust-versus-empirical check must reject.
    d, n, eps = 10, 4000, 0.03
    gamma = 0.6
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((n, d))
    n_out = int(eps * n)
    mag = 2.0 * math.sqrt(1.0 / eps)
    pts[:n_out] = 0.0
    pts[:n_out, 1] = mag * np.where(np.arange(n_out) % 2 == 0, 1.0, -1.0)
    for seed in range(5):
        cand = sample_top_eigenvector(SecondMomentOp(pts), n, eps, gamma, 0.05,
                                      np.random.default_rng(seed))
        assert abs(cand.u[1]) > 0.9      # the spike dominates the candidate
        assert not cand.accepted
        assert cand.sigma_robust < 0.25 * cand.rayleigh_emp


def test_batch_certificate_runs_one_chain(monkeypatch):
    # The candidate is the chain's own output: p steps on the Gram matrix
    # along a chain sized for the certificate's fail_prob, and one matvec for
    # its Rayleigh quotient, which takes one more product with the same G.
    d, n, gamma, fail_prob = 12, 3000, 0.4, 0.025
    pts = np.random.default_rng(4).standard_normal((n, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    products, matvecs = [], []
    real_gram, real_matvec = SecondMomentOp.gram, SecondMomentOp.matvec

    class CountedGram(np.ndarray):
        def __matmul__(self, other):
            products.append(np.shape(other))
            return np.asarray(self) @ other

    def spy(self, z):
        matvecs.append(z.shape)
        return real_matvec(self, z)

    def counted_gram(self):
        return real_gram(self).view(CountedGram)

    monkeypatch.setattr(SecondMomentOp, "gram", counted_gram)
    monkeypatch.setattr(SecondMomentOp, "matvec", spy)
    sample_top_eigenvector(SecondMomentOp(pts), n, 0.02, gamma, fail_prob,
                           np.random.default_rng(0))
    assert matvecs == [(d,)]
    assert len(products) == power_chain_length(d, gamma, fail_prob) + len(matvecs)


def test_rejected_candidate_reports_reference():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((500, 6))
    cand = sample_top_eigenvector(SecondMomentOp(pts), 500, 0.01, 0.2, 0.1, rng)
    assert cand.rayleigh_emp > 0
    if cand.accepted:
        f1, _eta = acceptance_factors(0.01, 0.2)
        assert cand.sigma_robust >= f1 * cand.rayleigh_emp


def test_streaming_certificate_clean_accepts():
    d = 8
    rng = np.random.default_rng(3)
    pop = rng.standard_normal((6000, d)) * np.sqrt(np.array([5.0] + [1.0] * (d - 1)))
    src = SyntheticSource(d, lambda r, k: (pop[r.integers(0, 6000, size=k)], None),
                          np.random.default_rng(4))
    cand = sample_top_eigenvector_streaming(
        src, FilterStack(), 0.02, 0.4, shares=itertools.repeat(0.05),
        rng=np.random.default_rng(5), batch_size=1500, ledger=ScalarLedger(), r_radius=1.5)
    assert cand.accepted
    assert abs(cand.u[0]) >= 0.95


def _stream_certificate(src, eps, gamma, share, batch_size, stack=FilterStack(),
                        seed=5, rng=None, r_radius=1.5):
    """The stream certificate, each of whose estimates takes ``share``."""
    return sample_top_eigenvector_streaming(
        src, stack, eps, gamma, shares=itertools.repeat(share),
        rng=np.random.default_rng(seed) if rng is None else rng,
        batch_size=batch_size, ledger=ScalarLedger(), r_radius=r_radius)


def _mean_stages(cand, bound, eps, gamma, share):
    """The stages of the certificate's stream mean, over scores in [0, bound]."""
    f1, eta = acceptance_factors(eps, gamma)
    bar = (1 + eta) * f1 * cand.rayleigh_emp
    return mean_stages(mean_ceiling(bound, share, bar=bar, margin=eta))


def _chain_samples(d, gamma, batch_size):
    """The certificate's chain and the batch that scores its starts.

    The chain is sized for one start at START_FAILURE, so the count does not
    depend on the certificate's failure probability: (p + 1) * batch_size.
    """
    return (power_chain_length(d, gamma, START_FAILURE) + 1) * batch_size


def _bernstein_rows(eta, scale, n_stages, fail_prob):
    """The certificate's count: smallest n with sqrt(2 (1 + 2 eta) B mu0 L / n)
    + B L / (3 n) <= eta mu0, for scale = B / mu0 and L = ln(4 J / fail_prob)."""
    var = 2 * (1 + 2 * eta)
    k = ((math.sqrt(var) + math.sqrt(var + 4 * eta / 3)) / (2 * eta)) ** 2
    return math.ceil(k * scale * stage_log(n_stages, fail_prob))


def _stage_bounds(rows, u, cap, n_max, fail_prob):
    """The stream mean's interval over ``rows`` scored along u and capped at cap."""
    f = (rows @ u) ** 2
    f = np.where(f <= cap, f, 0.0)
    moments = (f.size, float(np.mean(f)), float(np.sum((f - np.mean(f)) ** 2)))
    return stage_interval(moments, cap, stage_log(len(mean_stages(n_max)), fail_prob))


def test_streaming_certificate_sample_count_from_its_decision():
    # Clean pool, every row accepted: the certificate draws its chains, one
    # quantile block and a stream mean capped at the Bernstein count
    # n = ceil(k (B / mu0) L), B the trim cutoff. The chain is
    # (2 + 1) * 1,500 = 4,500 rows: p = 2 steps for every start and the
    # batch that scores them. The block and the mean each take a share of
    # 0.05. At gamma = 0.4, eta = 1/16 and k = 586.6; f1 = 0.520 puts
    # B / mu0 near 6.7, and L = ln(4 * 8 / 0.05) = 6.46 over the 8 stages of
    # n itself, so
    # n = 25,611, in stages of 256, ..., 16,384 and 25,611. A clean
    # trimmed mean (about 0.74 R) sits above the bar (1 + eta) mu0 = 0.55 R,
    # and an early stage's interval already lies above it: the mean stops
    # there.
    d, eps, gamma, share, batch = 8, 0.02, 0.4, 0.05, 1500
    pool = np.random.default_rng(3).standard_normal((6000, d)) * np.sqrt([5.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, eps, gamma, share, batch)
    assert cand.accepted

    # The trim cutoff, recomputed over the same rows of a second cycle.
    tail, part = 3 * eps, share
    pos = _chain_samples(d, gamma, batch)
    twin = ReplaySource(pool, mode="cycle")
    twin.draw(pos)
    cap = streaming_quantile(lambda k: (twin.draw(k) @ cand.u) ** 2, tail, part, c_q=TRIM_C_Q)
    m = streaming_quantile_samples(tail, part, TRIM_C_Q)

    f1, eta = acceptance_factors(eps, gamma)
    mu0 = f1 * cand.rayleigh_emp
    bar = (1 + eta) * mu0
    n = mean_ceiling(cap, part, bar=bar, margin=eta)
    assert len(mean_stages(n)) == 8
    assert n == _bernstein_rows(eta, cap / mu0, 8, part)
    assert 20_000 < n < 50_000
    assert n == 25_611
    stages = mean_stages(n)
    assert stages[0] == FIRST_STAGE == 256 and stages[-1] == n
    rows = twin.draw(n)
    settled = next(k for k in stages if _stage_bounds(rows[:k], cand.u, cap, n, part)[0] > bar)
    assert settled < n
    assert src.delivered == pos + m + settled


def test_streaming_certificate_small_gamma_accepts_clean_pool():
    # eps = 0.0005 takes the default gamma = 0.01, so f1 = kappa(0.00175)
    # (1 - gamma / 2) = 0.975 and the margin shrinks to eta = 1/796: the top
    # of the band, (1 + 2 eta) f1 R = 0.977 R, halfway to kappa = 0.980,
    # stays below the clean trimmed mean (about 0.99 R), where eta = 1/4
    # would put it at 1.46 R, out of a trimmed mean's reach. Every chain
    # batch is one full pass over the cycled pool, so the Rayleigh quotient
    # is exact.
    d, n, eps, share = 3, 1000, 0.0005, 0.05
    cfg = AlgoConfig(eps=eps)
    f1, eta = acceptance_factors(eps, cfg.gamma)
    assert f1 == pytest.approx(0.9747, abs=1e-4) and eta == pytest.approx(0.01 / 1.99 / 4)
    pool = np.random.default_rng(0).standard_normal((n, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, eps, cfg.gamma, share, n)
    assert cand.sigma_robust >= (1 + 2 * eta) * f1 * cand.rayleigh_emp
    assert cand.accepted
    assert abs(cand.u[0]) >= 0.99
    chains_and_block = (_chain_samples(d, cfg.gamma, n)
                        + streaming_quantile_samples(3 * eps, share, TRIM_C_Q))
    # The mean settles at one of its doubling stages, before its ceiling.
    rest = src.delivered - chains_and_block
    assert rest >= FIRST_STAGE and rest & (rest - 1) == 0


@pytest.mark.parametrize("prune_radius_sq", [math.inf, 1.7e308])
def test_streaming_certificate_unbounded_scores_raise(prune_radius_sq):
    # eps = 0 trims nothing, and without the caller's norm promise
    # (r_radius = inf) the cap r^2 d rayleigh_emp / q is infinite. Under an
    # infinite prune radius the scores then have no bound, and under the
    # largest finite radius B / mu0 overflows the count: no number of rows
    # decides the test, so the certificate raises a typed error after the
    # chain's (2 + 1) * 1,000 rows and before any mean draw. A stream solve
    # never gets here: it rejects a non-finite r_radius before any draw.
    d, gamma, fail_prob, batch = 6, 0.4, 0.05, 1000
    pool = np.random.default_rng(7).standard_normal((5000, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    with pytest.raises(DegenerateStateError, match="no finite row ceiling"):
        _stream_certificate(src, 0.0, gamma, fail_prob, batch,
                            stack=FilterStack(prune_radius_sq=prune_radius_sq),
                            r_radius=math.inf)
    assert src.delivered == _chain_samples(d, gamma, batch)


def test_streaming_certificate_zero_rayleigh_rejects_without_a_draw():
    # The chain sees only rows along e1, so every column is exactly +-e1;
    # the batch that scores them all sees only rows along e2, so rayleigh_emp
    # is exactly 0. The robust test has no scale and the candidate is
    # rejected before the quantile block and the stream-mean draw: the
    # certificate draws p = 1 chain batch and one scoring batch of 256.
    d, gamma, fail_prob, batch = 2, 0.4, 0.05, 256
    chains = _chain_samples(d, gamma, batch) - batch
    assert chains == batch
    pool = np.zeros((chains + batch, d))
    pool[:chains, 0] = np.random.default_rng(8).standard_normal(chains)
    pool[chains:, 1] = 1.0
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, 0.02, gamma, fail_prob, batch)
    assert cand.rayleigh_emp == 0.0
    assert not cand.accepted and cand.sigma_robust == 0.0
    assert src.delivered == chains + batch


def test_streaming_reference_chain_cost_ignores_fail_prob(monkeypatch):
    # The block of starts does the boosting, so a smaller share adds
    # columns to the block but no steps to its chain: its
    # ceil(log2(1 / share)) starts are 5 at 0.05 and 20 at 1e-6, the
    # chain's share. At d = 6, gamma = 0.4 the chain has
    # p = 2 steps for every column, so each call draws (p + 1) batches.
    calls = []
    real = certificate.approx_power_iteration

    def spy(source, stack, p, reps, batch_size, rng, ledger=None, riders=()):
        before = source.delivered
        out = real(source, stack, p, reps, batch_size, rng, ledger=ledger, riders=riders)
        calls.append((p, reps, source.delivered - before))
        return out

    monkeypatch.setattr(certificate, "approx_power_iteration", spy)
    d, gamma, batch = 6, 0.4, 1000
    pool = np.random.default_rng(7).standard_normal((5000, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    src = ReplaySource(pool, mode="cycle")
    for share in (0.05, 1e-6):
        _stream_certificate(src, 0.02, gamma, share, batch)
    p = power_chain_length(d, gamma, START_FAILURE)
    assert p == 2
    assert calls == [(p, 5, (p + 1) * batch), (p, 20, (p + 1) * batch)]


# A stream solve needs no finite prune radius at eps = 0: its certificate
# caps the scores at r^2 d rayleigh_emp / q from the caller's norm promise.
# Without that promise (r_radius = inf) a finite radius^2 bounds them
# instead; 250 is well above every row of the pool of ``_rows_and_power``.
PROMISED_STACK = FilterStack(prune_radius_sq=250.0)


def _rows_and_power():
    d, gamma = 6, 0.4
    pool = np.random.default_rng(7).standard_normal((5000, d)) * np.sqrt([4.0] + [1.0] * (d - 1))
    return pool, gamma, power_chain_length(d, gamma, START_FAILURE)


def test_streaming_candidate_rides_the_reference_chain():
    # The candidate is the best column of the certificate's (reps, d)
    # Gaussian block, reps = ceil(log2(1 / share)) for the chain's share.
    # A separate p-step chain from the same block over the
    # same minibatches of a twin cycled pool, scored on the batch after it,
    # picks the same column with the same Rayleigh quotient.
    pool, gamma, p = _rows_and_power()
    share, batch = 0.05, 1000
    cand = _stream_certificate(ReplaySource(pool, mode="cycle"), 0.02, gamma, share, batch)
    reps = math.ceil(math.log2(1 / share))
    starts = np.random.default_rng(5).standard_normal((reps, pool.shape[1])).T
    twin = ReplaySource(pool, mode="cycle")
    y = streamed_power_apply(twin, FilterStack(), p, batch, starts)
    y = y / np.linalg.norm(y, axis=0)
    rows = twin.draw(batch)
    rq = np.mean((rows @ y) ** 2, axis=0)
    best = int(np.argmax(rq))
    np.testing.assert_allclose(cand.u, y[:, best], rtol=1e-10, atol=1e-14)
    assert cand.rayleigh_emp == pytest.approx(float(rq[best]), rel=1e-10)


def test_streaming_certificate_chains_cost_one_chain():
    # Every start shares one chain of p = 2 steps, and one batch scores
    # them all: 3,000 rows. At eps = 0 there is no quantile block, and the
    # rest is one stage of the stream mean.
    pool, gamma, p = _rows_and_power()
    src = ReplaySource(pool, mode="cycle")
    cand = _stream_certificate(src, 0.0, gamma, 0.05, 1000, stack=PROMISED_STACK,
                               r_radius=math.inf)
    assert p == 2
    assert src.delivered - 3_000 in _mean_stages(cand, 250.0, 0.0, gamma, 0.05)


def _binomial_ceiling(n, prob, level):
    """Least k with P(Binomial(n, prob) > k) <= level."""
    tail, k = 1.0, -1
    while tail > level:
        k += 1
        tail -= math.comb(n, k) * prob ** k * (1 - prob) ** (n - k)
    return k


def test_streaming_reference_reaches_top_rayleigh_on_every_seed():
    # Every chain batch and the scoring batch are one full pass over the
    # cycled pool, so the candidate's Rayleigh quotient is the best exact one
    # over its block of starts. The pool's second eigenvalue is 0.535
    # lambda1, below the (1 - gamma) lambda1 bar, so a start passes only once
    # the chain has lifted its top component: half of all single starts fail
    # after one step. The stream's block of starts passes on every seed.
    d, n, gamma, fail_prob = 10, 2000, 0.4, 0.05
    pool = np.random.default_rng(11).standard_normal((n, d)) * np.sqrt([1.0] + [0.5] * (d - 1))
    lam1 = float(np.linalg.eigvalsh(pool.T @ pool / n)[-1])
    for seed in range(30):
        src = ReplaySource(pool, mode="cycle")
        cand = _stream_certificate(src, 0.02, gamma, fail_prob, n, seed=seed)
        assert cand.rayleigh_emp >= (1 - gamma) * lam1, seed
    # The batch candidate's one start, on a chain sized for the whole
    # fail_prob, misses with probability at most fail_prob, so its misses
    # over 300 seeds stay within the binomial ceiling at 1e-4, 31; it
    # misses 5.
    op = SecondMomentOp(pool)
    misses = sum(sample_top_eigenvector(op, n, 0.02, gamma, fail_prob,
                                        np.random.default_rng(seed)).rayleigh_emp
                 < (1 - gamma) * lam1 for seed in range(300))
    assert misses <= _binomial_ceiling(300, fail_prob, 1e-4) == 31


@pytest.mark.parametrize("high_sq,accept", [(30.0, False), (12.0, True)])
def test_streaming_certificate_decides_against_its_threshold(high_sq, accept):
    # Scores are 2/3 with probability 0.9 and high_sq with probability 0.1,
    # below the 3 eps = 0.15 trim tail, so the cutoff is 2/3 and the capped
    # mean is exactly mu = 0.6. With f1 = kappa(0.175) / 2 = 0.197,
    # eta = 1/4 and R = rayleigh_emp (about 0.6 + 0.1 high_sq),
    # mu < f1 R must be rejected (f1 R is about 0.71 at high_sq = 30) and
    # mu >= (1 + 2 eta) f1 R accepted (about 0.53 at high_sq = 12), on
    # every seed.
    eps, gamma, mu = 0.05, 1.0, 0.6
    f1, eta = acceptance_factors(eps, gamma)
    pool = np.sqrt(np.array([2 / 3] * 900 + [high_sq] * 100))[:, None]
    for seed in range(50):
        src = SyntheticSource(1, lambda r, k: (pool[r.integers(0, 1000, size=k)], None),
                              np.random.default_rng(seed))
        cand = _stream_certificate(src, eps, gamma, 0.01, 20_000, seed=seed)
        mu0 = f1 * cand.rayleigh_emp
        if accept:
            assert mu >= (1 + 2 * eta) * mu0
        else:
            assert mu < mu0
        assert cand.accepted is accept, seed


SOUNDNESS_SLOPE = 0.75  # accepted => true ratio >= 1 - SOUNDNESS_SLOPE * gamma


def test_acceptance_soundness_across_instances():
    # Whenever a candidate is accepted, its true variance ratio must clear
    # the calibrated soundness line, across clean and contaminated regimes.
    checked = 0
    for gamma, eps, spike in ((0.1, 0.005, 9.0), (0.4, 0.02, 9.0), (1.0, 0.05, 9.0)):
        d, n = 16, 6000
        rng = np.random.default_rng(int(gamma * 1000))
        scales = np.sqrt(np.array([1.0 + spike] + [1.0] * (d - 1)))
        sigma = np.diag(scales ** 2)
        pts = rng.standard_normal((n, d)) * scales
        for seed in range(10):
            cand = sample_top_eigenvector(SecondMomentOp(pts), n, eps, gamma, 0.05,
                                          np.random.default_rng(seed))
            if cand.accepted:
                checked += 1
                lam1 = dense_spectrum(sigma).eigenvalues[0]
                ratio = float(cand.u @ sigma @ cand.u) / lam1
                assert ratio >= 1 - SOUNDNESS_SLOPE * gamma
    assert checked >= 20


def test_schatten_blind_pairs_satisfy_derived_bound():
    # Random PSD pairs meeting the trace inner-product stopping condition at
    # p >= 2 ln(d) / gamma must satisfy the Schatten comparison with twice
    # the constant.
    rng = np.random.default_rng(6)
    gamma, c_stop = 0.1, 1.0
    holds_checked = 0
    attempts = 0
    while holds_checked < 200:
        attempts += 1
        assert attempts < 5000
        d = int(rng.integers(2, 13))
        p = math.ceil(2 * math.log(d) / gamma) if d > 1 else 10
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sig_t = (q1 * rng.uniform(0.1, 2.0, size=d)) @ q1.T
        sig = (q2 * rng.uniform(0.5, 4.0, size=d)) @ q2.T
        lam_t = dense_spectrum(sig_t).eigenvalues
        spec_t = dense_spectrum(sig_t)
        m2 = (spec_t.eigenvectors * lam_t ** (2 * p)) @ spec_t.eigenvectors.T
        lhs = float(np.sum(lam_t ** (2 * p + 1)))
        rhs = (1 + c_stop * gamma) * float(np.trace(sig @ m2))
        if lhs <= rhs:
            holds_checked += 1
            schatten = lhs ** (1 / (2 * p + 1))
            op = dense_spectrum(sig).eigenvalues[0]
            assert schatten <= (1 + 2 * c_stop * gamma) * op


# Near-tie pools: an outlier spike on e2 whose variance is spike_multiplier
# times the inliers' top eigenvalue (4, on e1) at contamination rate eps,
# solved at the default gamma = 20 eps. A chain cannot split the near tie,
# so the candidate mixes both directions: its Rayleigh quotient is near the
# top while most of its variance is outliers. A threshold f1 far below the
# share of variance a trim keeps let such mixtures through.
NEAR_TIE_CELLS = ((0.01, 0.85), (0.02, 0.85), (0.02, 1.0))
NEAR_TIE_POOLS = {"batch": range(2000, 2010), "stream": range(3000, 3010)}


def _near_tie_solve(mode, eps, multiplier, pool_seed):
    dim = 50 if mode == "batch" else 20
    spec = InlierSpec(dim=dim, diag=1.0, spikes=((0, 3.0),))
    adv = AdversarySpec(kind=AdversaryKind.ORTHOGONAL_SPIKE, rate=eps, spike_axis=1,
                        spike_multiplier=multiplier)
    rng = np.random.default_rng(pool_seed)
    if mode == "batch":
        pts, labels = gen_inliers(spec, 20_000, rng)
        pts, _labels = strong_contaminate(pts, labels, adv, spec, rng)
        res = robust_pca(WeightedDataset(pts), eps=eps, rng_seed=8)
    else:
        pool, _labels = tv_contaminated_source(spec, adv, rng).draw_labeled(200_000)
        res, _stats = streaming_robust_pca(ReplaySource(pool, mode="cycle"), eps=eps,
                                           gamma=None, r_radius=1.5, rng_seed=8)
    return res, spec.covariance()


@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_near_tie_pools_accept_no_direction_below_one_minus_gamma(mode):
    # Every ACCEPTED direction on every listed pool of every cell carries at
    # least 1 - gamma of the top variance, the paper's 1 - O(gamma) at
    # constant 1.
    bad = []
    for eps, multiplier in NEAR_TIE_CELLS:
        gamma = AlgoConfig(eps=eps).gamma
        for seed in NEAR_TIE_POOLS[mode]:
            res, sigma = _near_tie_solve(mode, eps, multiplier, seed)
            ratio = metric_approx_ratio(res.u, sigma)
            if res.status is PcaStatus.ACCEPTED and ratio < 1 - gamma:
                bad.append((eps, multiplier, seed, round(ratio, 3)))
    assert not bad
