"""Candidate generation and acceptance.

A candidate is the output of one power chain from Gaussian starts, of the
least length that proves its empirical Rayleigh quotient at least 1 - gamma
times the top one outside the certificate's failure probability
(``power_chain_length``: 2 steps at d = 20, gamma = 0.6, fail_prob = 0.5).
It is accepted when its robust variance is at least f1 times that quotient:
it then carries close to the top true variance. Rejection means the
survivors still over-weight some direction and filtering should continue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FilterStack
from .estimators import (TRIM_TAIL, streaming_quantile, trim_keep_share, trimmed_variance,
                         weighted_quantile)
from .linops import (
    SecondMomentOp,
    accepted_band_mean,
    accepted_scores,
    approx_power_iteration,
    power_iteration,
)
from .sources import SampleSource, ScalarLedger

__all__ = ["Candidate", "acceptance_factors", "power_chain_length",
           "sample_top_eigenvector", "sample_top_eigenvector_streaming"]

# Failure probability of one Gaussian start that every stream chain is sized
# for (``power_chain_length``); the stream certificate boosts it with a block
# of starts.
START_FAILURE = 0.5

# Largest eta of the streaming certificate's robust test (``acceptance_factors``).
DECISION_MARGIN = 0.25

# Relative accuracy tau of the stream certificate's trim cap, and its block
# constant c_q = 3 / tau^2 (``estimators.streaming_quantile_samples``): the
# cap at tail 3 eps lands between the 5 eps / 2 and 7 eps / 2 tails, and f1
# is taken at the wider. At the default tau = 1/2 the band, 3 eps / 2 to
# 9 eps / 2, would set f1 so low that near-tie mixtures pass at eps = 0.01.
TRIM_ACCURACY = 1.0 / 6.0
TRIM_C_Q = 3.0 / TRIM_ACCURACY ** 2


def chain_quotient(gamma: float) -> float:
    """q = (1 - gamma / 2) / (1 + gamma / 2), a chain's target share of lambda1."""
    return (1.0 - gamma / 2.0) / (1.0 + gamma / 2.0)


def power_chain_length(d: int, gamma: float, fail_prob: float) -> int:
    """Power steps after which one Gaussian start fails with at most ``fail_prob``.

    Success means a Rayleigh quotient of at least q lambda1, where
    q = ``chain_quotient``(gamma) >= 1 - gamma; the quotient q, not
    1 - gamma, is the target, as 1 - gamma = 0 at gamma = 1 would ask for
    one step. The length is the least p >= 1 that the bound below proves.

    Let M be PSD with eigenvalues lambda1 >= ... >= lambda_d >= 0, z a
    start with coordinates z_i in M's eigenbasis and y = M^p z. Then
    R(y) >= q lambda1 iff sum_i (lambda_i - q lambda1) lambda_i^(2p) z_i^2
    >= 0. The i = 1 term is (1 - q) lambda1^(2p+1) z_1^2, each lambda_i >=
    q lambda1 adds a term >= 0, and each other term is at least -z_i^2 times
    the largest (q lambda1 - lambda) lambda^(2p) over 0 <= lambda <=
    q lambda1, taken at lambda = 2 p q lambda1 / (2p + 1). So R(y) >=
    q lambda1 once

        z_1^2 / ||z_-1||^2 >= h(p) = q^(2p+1) (2p)^(2p) / ((1 - q) (2p + 1)^(2p+1)),

    z_-1 the other coordinates; a tail at 2 p q lambda1 / (2p + 1) makes it
    an equality. For a standard Gaussian z, beta = z_1^2 / ||z||^2 ~
    Beta(1/2, (d - 1) / 2) and z_1^2 / ||z_-1||^2 = beta / (1 - beta), so p
    is proved once h(p) <= s / (1 - s) for an s with P(beta < s) <= fail_prob:
    - d >= 3: beta's density is at most x^(-1/2) / B(1/2, (d - 1) / 2), so
      P(beta < s) <= 2 sqrt(s) / B(1/2, (d - 1) / 2) = fail_prob at
      s = (fail_prob B(1/2, (d - 1) / 2) / 2)^2;
    - d = 2: beta is the squared cosine of a uniform angle, and
      s = sin^2(pi fail_prob / 2) exactly;
    - d = 1: every start succeeds, and the length is the floor of 1 step,
      the least ``linops.power_iteration`` takes.
    h falls with p, depends on gamma alone and is taken in logs, as its
    powers overflow on long chains; s depends on (d, fail_prob) alone, so
    the length never depends on data.

    The proof takes one exact M: the batch chain runs on B itself, while a
    stream chain multiplies p fresh minibatch moments, whose distance from
    the population moment the minibatch size governs
    (``streaming.BATCH_SIZE_CAP``). This is the one home of the proof, and
    every certificate chain takes its length here: 2 steps at d = 20,
    gamma = 0.6, fail_prob = 0.5 (``START_FAILURE``), and 14 steps at
    d = 50, gamma = 0.1, fail_prob = 0.5.
    """
    if d == 1:
        return 1
    if d == 2:
        s = math.sin(math.pi * fail_prob / 2.0) ** 2
    else:
        log_beta = math.lgamma(0.5) + math.lgamma((d - 1) / 2.0) - math.lgamma(d / 2.0)
        s = (fail_prob * math.exp(log_beta) / 2.0) ** 2
    log_odds = math.log(s) - math.log1p(-s)
    q = chain_quotient(gamma)
    p = 1
    while ((2 * p + 1) * math.log(q) + 2 * p * math.log(2 * p / (2 * p + 1))
           - math.log(2 * p + 1) - math.log1p(-q)) > log_odds:
        p += 1
    return p


def acceptance_factors(eps: float, gamma: float) -> tuple[float, float]:
    """(f1, eta): the robust threshold and the stream margin.

    kappa = ``estimators.trim_keep_share`` at 7 eps / 2, the widest tail the
    stream's trim cap can cut: it lands between the 5 eps / 2 and 7 eps / 2
    tails (``TRIM_ACCURACY``). The batch trim cuts exactly 3 eps of the
    survivors and takes the same kappa, one threshold for both solvers. A
    direction along which the inliers are Gaussian with variance s keeps at
    least kappa s of it under the trim, so

        f1 = kappa (1 - gamma / 2)

    leaves the top direction the slack gamma / 2 for the stability error,
    the inliers the prune and the filters removed, and the outliers' share
    of its Rayleigh quotient. In turn an accepted direction, whose trimmed
    variance is at least f1 times its Rayleigh quotient, carries 1 - O(gamma)
    of that quotient in inlier variance, as 1 - kappa = O(eps ln(1 / eps)) =
    O(gamma); the quotient itself is at least 1 - gamma times the top one,
    which the candidate's chain carries (``power_chain_length``). eta sets the
    stream test's band [f1, (1 + 2 eta) f1] of the Rayleigh quotient:
    eta = ``DECISION_MARGIN`` min(1, (kappa - f1) / f1) =
    DECISION_MARGIN min(1, gamma / (2 - gamma)), computed in the second form
    since kappa - f1 cancels at small gamma. The band's top is then halfway
    from f1 to kappa, so a direction whose trimmed variance keeps kappa of
    its Rayleigh quotient clears it, and eta > 0 for every gamma > 0.
    """
    kappa = trim_keep_share((1.0 + TRIM_ACCURACY) * TRIM_TAIL * eps)
    f1 = kappa * (1.0 - gamma / 2.0)
    eta = DECISION_MARGIN * min(1.0, gamma / (2.0 - gamma))
    return f1, eta


@dataclass(frozen=True)
class Candidate:
    """A unit direction with the quantities its acceptance was judged on."""

    u: np.ndarray
    rayleigh_emp: float
    sigma_robust: float
    accepted: bool
    # Stream only: the driver direction's start after it rode all p steps
    # of the certificate's chain (``sample_top_eigenvector_streaming``), an
    # unnormalized column, zero or not finite if it collapsed. None when
    # none rode.
    rider: np.ndarray | None = None


def sample_top_eigenvector(op: SecondMomentOp, n_total: int, eps: float,
                           gamma: float, fail_prob: float,
                           rng: np.random.Generator) -> Candidate:
    """Batch candidate: u = normalize(B^p z) judged against batch estimates.

    ``op`` is B, the normalized second moment of the m surviving points
    (``op.rows``) of a population of ``n_total``. The chain has one start, so
    it is sized to reach a Rayleigh quotient of at least (1 - gamma) times
    B's top eigenvalue but with probability ``fail_prob``
    (``power_chain_length``): 33 steps at d = 50, gamma = 0.1,
    fail_prob = 0.05, the first certificate's share. The stream's block of
    shorter starts pays only at small d: there it takes 5 starts of 14
    steps, and on a formed G (``linops.power_direction``) one step of a
    5-column block costs about 1.5 (d = 50) to 3 (d = 1,000) single-vector
    steps on one BLAS thread, so about 21 against 33 at d = 50, some tens of
    microseconds saved in a certificate whose trim alone reads all m rows,
    but about 78 (26 block steps) against 46 at d = 1,000. One start stays.
    The robust variance is the 3*eps-tail trimmed mean of squared
    projections of ``op.rows`` onto u, over n_total. All reported scalars
    are per unit norm of u.
    """
    u, rayleigh_emp = power_iteration(op, power_chain_length(op.dim, gamma, fail_prob), rng)

    f_u = (op.rows @ u) ** 2
    sigma = trimmed_variance(f_u, weighted_quantile(f_u, TRIM_TAIL * eps), n_total)

    f1, _eta = acceptance_factors(eps, gamma)
    return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=sigma,
                     accepted=sigma >= f1 * rayleigh_emp)


def sample_top_eigenvector_streaming(source: SampleSource, stack: FilterStack,
                                     eps: float, gamma: float, shares,
                                     rng: np.random.Generator, batch_size: int,
                                     ledger: ScalarLedger, r_radius: float,
                                     rng_dir: np.random.Generator | None = None) -> Candidate:
    """Streaming candidate: every batch quantity becomes a minibatch estimate.

    Each estimate that can fail takes the next of the solve's ``shares``
    (``driver.failure_share``) when it runs: the candidate's chain, the trim
    cutoff at eps > 0, and the robust mean.

    The candidate is the best, by Rayleigh quotient on one fresh minibatch,
    of reps = ceil(log2(1 / delta)) Gaussian starts, delta the chain's share,
    that share one streamed block chain of p = ``power_chain_length(d, gamma,
    START_FAILURE)`` steps, enough for one start to reach (1 - gamma)-accuracy
    with probability at least 1/2. Given the chain's minibatches, whose error
    ``batch_size`` governs, the starts are independent, so all of them miss
    with probability at most (1/2)^reps <= delta: p = 2 steps at
    d = 20, gamma = 0.6, fail_prob = 0.5 for (2 + 1) * ``batch_size`` rows.
    ``rng_dir`` sets the driver's next filter direction, whose power is the
    chain's (``driver.drive``): its start, ``rng_dir.standard_normal(d)``,
    rides all p steps of the chain as one more column, drawing no rows of
    its own, and comes back as ``Candidate.rider``, which
    ``streaming.MinibatchEstimators.direction`` only normalizes. So the
    rider never lengthens the chain, and the ledger books its d scalars
    from the chain's end until the direction takes it. Why it keeps its own
    guarantee is argued at ``linops.approx_power_iteration``.

    The robust test is sigma >= mu0 = f1 * rayleigh_emp, where sigma is the
    mean of scores in [0, B], B = min(cap, prune radius^2). At eps > 0 cap
    is the trim cutoff from a one-pass quantile block at tail 3 eps. Outside
    its failure share it lands between the 5 eps / 2 and 7 eps / 2 tails
    (``estimators.streaming_quantile_samples`` at ``TRIM_ACCURACY``), so
    the test trims up to 7 eps / 2 of the mass, the tail f1 is taken at
    (``acceptance_factors``). With that function's eta, the candidate
    passes only when the stream mean reaches bar = (1 + eta) mu0, and the
    mean (``estimators.stream_mean_estimate``) is asked that decision at
    margin eta, which sizes its rows with L = ``estimators.stage_log`` over
    its own stages (``estimators.mean_ceiling``): outside its failure share
    it is the exact decision outside the band (mu0, (1 + 2 eta) mu0).
    - Soundness. If the true mean mu is below mu0, the mean stays below the
      bar. A stream acceptance thus implies that the exact test passes.
    - Completeness. If mu >= (1 + 2 eta) mu0, the mean reaches the bar, so
      a direction whose trimmed mean clears the band passes.
    At eps = 0 sigma averages min(f, cap), cap = r^2 d rayleigh_emp / q,
    q = ``chain_quotient``(gamma), as ``r_radius`` bounds every score by
    r^2 d lambda1 (``streaming.streaming_robust_pca``); the cap takes no
    share. Soundness holds at any cap, as E[min(f, cap)] <= E[f], and
    completeness on the chain's success event, rayleigh_emp >= q lambda1,
    whose share is spent; a broken promise costs the clip E[(f - cap)+], a
    cut E[f; f > cap]. At eps > 0 the cap stays a cut, as a clip would let
    3 eps of outliers add 3 eps cap. A B / mu0 that overflows ends in
    DegenerateStateError. A zero rayleigh_emp gives the test no scale: the
    candidate is rejected without a draw and reports sigma 0.
    """
    d = source.dim

    reps = max(1, math.ceil(math.log2(1.0 / next(shares)) / -math.log2(START_FAILURE)))
    p = power_chain_length(d, gamma, START_FAILURE)
    riders = () if rng_dir is None else (rng_dir.standard_normal(d),)
    u, rayleigh_emp, rode = approx_power_iteration(source, stack, p, reps, batch_size,
                                                   rng, ledger=ledger, riders=riders)
    rider = rode[0] if rode else None
    ledger.alloc(d * len(rode))

    f1, eta = acceptance_factors(eps, gamma)
    mu0 = f1 * rayleigh_emp
    if not mu0 > 0.0:
        return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=0.0,
                         accepted=False, rider=rider)

    tail = TRIM_TAIL * eps
    if tail > 0:
        cap = streaming_quantile(
            lambda k: accepted_scores(source, stack, lambda x: (x @ u) ** 2, k, ledger),
            tail, next(shares), c_q=TRIM_C_Q, ledger=ledger)
    else:
        cap = r_radius ** 2 * d * rayleigh_emp / chain_quotient(gamma)
    bar = (1.0 + eta) * mu0
    sigma = accepted_band_mean(source, stack, u, -math.inf, cap, next(shares), ledger,
                               clip=tail == 0, bar=bar, margin=eta)
    return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=sigma,
                     accepted=sigma >= bar, rider=rider)
