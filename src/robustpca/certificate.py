"""Candidate generation and acceptance.

A candidate is a power-iterated Gaussian direction. It is accepted when its
robust variance is at least f1 times its empirical Rayleigh quotient, and
that quotient at least f2 times a reference top quotient from independent
starts: it then carries close to the top true variance. Rejection means the
survivors still over-weight some direction and filtering should continue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AlgoConfig, FilterStack
from .errors import DegenerateStateError
from .estimators import (TRIM_TAIL, mean_stages, stage_log, streaming_quantile,
                         trimmed_variance, weighted_quantile)
from .linops import (
    SecondMomentOp,
    accepted_band_mean,
    accepted_scores,
    approx_power_iteration,
    gaussian_retry,
    power_direction,
    power_iteration,
    streamed_power_direction,
    streamed_rayleigh,
)
from .sources import SampleSource, ScalarLedger

__all__ = ["Candidate", "acceptance_factors", "sample_top_eigenvector",
           "sample_top_eigenvector_streaming"]

# Floors keep the two acceptance tests meaningful when gamma is large enough
# that the nominal (1 - c*gamma) factors would go nonpositive. The robust/
# empirical floor sits below the trimming bias of light-tailed scores, the
# Rayleigh floor below plain power-iteration slack.
ACCEPT_ROBUST_FLOOR = 0.25
ACCEPT_RAYLEIGH_FLOOR = 0.5

# Per-start failure probability the streaming reference chain is sized for.
REF_START_FAILURE = 0.5

# Largest eta of the streaming certificate's robust test (``decision_margin``).
DECISION_MARGIN = 0.25


def decision_margin(f1: float) -> float:
    """eta for the threshold f1: (1 + 2 eta) * f1 <= (1 + f1) / 2, eta <= 1/4.

    The stream test resolves sigma up to (1 + 2 eta) * f1 times the Rayleigh
    quotient, which this keeps at most halfway from f1 to 1: a trimmed mean
    never exceeds the Rayleigh quotient, so a band reaching past it would
    reject good directions too. eta shrinks as f1 nears 1.
    """
    return DECISION_MARGIN * min(1.0, (1.0 - f1) / f1)


@dataclass(frozen=True)
class Candidate:
    """A unit direction with the quantities its acceptance was judged on."""

    u: np.ndarray
    rayleigh_emp: float
    sigma_robust: float
    reference_rayleigh: float
    accepted: bool
    # Stream only: the driver direction that rode the certificate's chain
    # (``sample_top_eigenvector_streaming``) as a one-tuple, holding None if
    # it collapsed; empty when none rode.
    rider: tuple = ()


def acceptance_factors(gamma: float, c_acc: float) -> tuple[float, float]:
    f1 = min(1.0, max(1.0 - c_acc * gamma, ACCEPT_ROBUST_FLOOR))
    f2 = min(1.0, max(1.0 - gamma, ACCEPT_RAYLEIGH_FLOOR))
    return f1, f2


def sample_top_eigenvector(op: SecondMomentOp, n_total: int, eps: float,
                           gamma: float, fail_prob: float, config: AlgoConfig,
                           rng: np.random.Generator) -> Candidate:
    """Batch candidate: u = normalize(B^p z) judged against batch estimates.

    ``op`` is B, the normalized second moment of the m surviving points
    (``op.rows``) of a population of ``n_total``. The reference Rayleigh
    quotient comes from an independent power iteration; the robust variance
    from the 3*eps-tail trimmed mean of squared projections of ``op.rows``
    onto u, over n_total. All reported scalars are per unit norm of u.

    The reference chain has one start and so keeps the log(1/fail_prob)
    term: p_ref = ceil((c_pi / gamma) ln(d / (gamma fail_prob))). The
    stream's block of shorter starts would not pay here: on a formed G a
    block step costs about two vector steps.
    """
    d = op.dim

    _y, r_hat = power_iteration(op, config.ref_power(d, fail_prob), rng)

    p_cert = config.cert_power(d)
    u = gaussian_retry(rng, d, lambda z: power_direction(op, p_cert, z))
    if u is None:
        raise DegenerateStateError("candidate power iterate collapsed to zero")

    rayleigh_emp = float(u @ op.matvec(u))

    f_u = (op.rows @ u) ** 2
    tail = TRIM_TAIL * eps
    cap = weighted_quantile(f_u, tail) if tail > 0 else math.inf
    sigma = trimmed_variance(f_u, cap, n_total)

    f1, f2 = acceptance_factors(gamma, config.c_acc)
    accepted = sigma >= f1 * rayleigh_emp and rayleigh_emp >= f2 * r_hat
    return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=sigma,
                     reference_rayleigh=r_hat, accepted=accepted)


def sample_top_eigenvector_streaming(source: SampleSource, stack: FilterStack,
                                     eps: float, gamma: float, fail_prob: float,
                                     config: AlgoConfig, rng: np.random.Generator,
                                     batch_size: int, max_mean_batch: int,
                                     ledger: ScalarLedger,
                                     direction: tuple[int, np.random.Generator] | None = None,
                                     ) -> Candidate:
    """Streaming candidate: every batch quantity becomes a minibatch estimate.

    ``fail_prob`` is split in three equal parts, one for each estimate that
    can fail: the reference quotient, the trim cutoff and the robust mean.
    By the union bound the certificate errs with probability at most
    ``fail_prob``.

    The reference quotient is the best of reps = ceil(log2(3 / fail_prob))
    Gaussian starts that share one streamed block chain of p_ref =
    ``config.ref_power(d, REF_START_FAILURE)`` = ceil((c_pi / gamma)
    ln(2 d / gamma)) steps, enough for one start to reach (1 - gamma)-accuracy
    with probability at least 1/2. Given the chain's minibatches, whose error
    ``batch_size`` governs, the starts are independent, so all of them miss
    with probability at most (1/2)^reps <= fail_prob / 3. The candidate
    rides the same minibatches; a collapsed one is redrawn on a chain and a
    batch of its own. ``direction`` = (p_k, rng_dir) sets the driver's next
    filter direction: when p_k <= max(p_ref, p_cert) its start,
    ``rng_dir.standard_normal(d)``, rides the chain too for p_k steps,
    drawing no rows of its own, and comes back as ``Candidate.rider``; a
    longer chain is not started here, so no certificate draws more rows for
    it. Why every rider keeps its own guarantee is argued at
    ``linops.approx_power_iteration``.

    The robust test is sigma >= mu0 = f1 * rayleigh_emp, where sigma is the
    mean of scores in [0, B], B = min(cap, prune radius^2), and cap is the
    trim cutoff from a one-pass quantile block at tail 3 eps. Outside its
    failure share the cap lands between the 3 eps / 2 and 9 eps / 2 tails
    (``estimators.streaming_quantile_samples`` at tau = 1/2), so the test
    trims up to 9 eps / 2 of the mass: a bound on the share of a good
    direction's variance the trim keeps must hold at 9 eps / 2. Scores in
    [0, B] have variance at most B mu. With eta = ``decision_margin(f1)``, the
    candidate passes only when the stream mean exceeds (1 + eta) * mu0, and
    the mean draws at most n rows, the smallest n with
    sqrt(2 (1 + 2 eta) B mu0 L / n) + B L / (3 n) <= eta mu0, that is
    n = ceil(k (B / mu0) L) with
    k = ((sqrt(2 (1 + 2 eta)) + sqrt(2 (1 + 2 eta) + 4 eta / 3)) / (2 eta))^2.
    L = ``estimators.stage_log`` over the stages of ``max_mean_batch`` rows
    bounds the L of ``estimators.stream_mean_estimate`` at n rows, and with
    it the Bernstein deviation that estimate's failure probability covers.
    Outside that failure:
    - Soundness. If the true mean mu is below mu0, an early stop above the
      bar would put mu in an interval lying above (1 + eta) mu0; and at n
      rows the mean exceeds mu by at most sqrt(2 B mu L / n) + B L / (3 n)
      <= eta mu0, so it stays below the bar. A stream acceptance thus
      implies that the exact test passes.
    - Completeness. If mu >= (1 + 2 eta) mu0, an early stop below the bar is
      ruled out the same way; at n rows the mean is at least
      mu - sqrt(2 B mu L / n) - B L / (3 n), which is (1 + eta) mu0 or more
      at mu = (1 + 2 eta) mu0 by the choice of n and grows with mu beyond
      it (its slope is 1 - sqrt(B L / (2 n mu)) > 0 there), so a direction
      whose trimmed mean clears the band passes.
    n never exceeds ``max_mean_batch``, and takes it when B is infinite
    (eps = 0 under an infinite prune radius), B / mu0 overflows or eta is 0
    (f1 = 1: the test is sigma >= mu0); at the cap the bound need not hold.
    A zero rayleigh_emp gives the test no scale: the candidate is rejected
    without a draw and reports sigma 0.
    """
    d = source.dim

    part = fail_prob / 3.0
    reps = max(1, math.ceil(math.log2(1.0 / part) / -math.log2(REF_START_FAILURE)))
    p_ref = config.ref_power(d, REF_START_FAILURE)
    p_cert = config.cert_power(d)
    riders = ()
    if direction is not None and direction[0] <= max(p_ref, p_cert):
        p_k, rng_dir = direction
        riders = ((rng_dir.standard_normal(d), p_k),)
    r_hat, cand, rode = approx_power_iteration(source, stack, p_ref, reps, batch_size,
                                               rng, p_cert, ledger=ledger, riders=riders)
    if cand is not None:
        u, rayleigh_emp = cand
    else:
        u = streamed_power_direction(source, stack, p_cert, batch_size, rng,
                                     ledger=ledger)
        if u is None:
            raise DegenerateStateError("candidate power iterate collapsed to zero")
        rayleigh_emp = float(streamed_rayleigh(source, stack, u, batch_size, ledger))

    f1, f2 = acceptance_factors(gamma, config.c_acc)
    mu0 = f1 * rayleigh_emp
    if not mu0 > 0.0:
        return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=0.0,
                         reference_rayleigh=r_hat, accepted=False, rider=tuple(rode))

    tail = TRIM_TAIL * eps
    if tail > 0:
        cap = streaming_quantile(
            lambda k: accepted_scores(source, stack, lambda x: (x @ u) ** 2, k, ledger),
            tail, part, ledger=ledger)
    else:
        cap = math.inf
    eta = decision_margin(f1)
    bound = min(cap, stack.prune_radius_sq)
    # inf when eta is 0, B is infinite or B / mu0 overflows: float products
    # and quotients saturate there, and only a finite count reaches ceil.
    need = math.inf
    if eta > 0.0:
        var = 2.0 * (1.0 + 2.0 * eta)
        k = ((math.sqrt(var) + math.sqrt(var + 4.0 * eta / 3.0)) / (2.0 * eta)) ** 2
        need = k * (bound / mu0) * stage_log(len(mean_stages(max_mean_batch, bound)), part)
    n_max = math.ceil(need) if need < max_mean_batch else max_mean_batch
    bar = (1.0 + eta) * mu0
    sigma = accepted_band_mean(source, stack, u, -math.inf, cap, part, n_max,
                               ledger, bar=bar)

    accepted = sigma >= bar and rayleigh_emp >= f2 * r_hat
    return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=sigma,
                     reference_rayleigh=r_hat, accepted=accepted, rider=tuple(rode))
