"""Candidate generation and acceptance.

A candidate direction is a power-iterated Gaussian vector. It is accepted
when (a) its robustly estimated variance is a fixed fraction f1 of its
empirical weighted variance, and (b) its empirical Rayleigh quotient is a
fixed fraction f2 of a top Rayleigh quotient estimated from independent
Gaussian starts. Acceptance certifies the direction carries close to the top
true variance; rejection means the surviving data still over-weights some
direction and filtering should continue.

The streaming certificate runs the candidate's chain on the reference
chain's minibatches and scores both on one batch: the candidate start is one
more column of the reference block. Each estimate keeps the distribution it
had on rows of its own (a p_cert-step chain over fresh iid minibatches from
an independent Gaussian start), and the certificate union-bounds its
estimates' failures, which needs no independence between them.

The streaming certificate decides (a) by median-of-means against the
threshold mu0 = f1 * (empirical Rayleigh quotient). Its scores lie in
[0, B], B the 3*eps trim cutoff, so their variance is at most B * mu and
ceil(16 (1 + 2 eta) B / (eta^2 mu0)) draws per batch put a batch mean on
the wrong side of (1 + eta) * mu0 with probability at most 1/16 whenever
the true mean mu is below mu0 or at least (1 + 2 eta) * mu0 (Chebyshev).
It accepts only above (1 + eta) * mu0, so, whenever that count fits under
the batch ceiling, a stream acceptance implies, with the certificate's
failure probability, that the exact test passes. The margin eta is
1/4 * min(1, (1 - f1) / f1), which keeps the top of that band,
(1 + 2 eta) * mu0, at most halfway from f1 to 1 times the Rayleigh
quotient: a trimmed mean never exceeds the Rayleigh quotient, so a band
reaching past it would reject good directions too.

That count is the ceiling of a sequential median-of-means
(``estimators.stream_mean_estimate``), which starts at 256 rows per batch,
doubles, and stops at the first stage whose interval for the true mean lies
wholly above or below (1 + eta) * mu0. Such an early stop is the exact
decision on the event, of probability at least 1 - fail_prob, that every
stage's interval holds the true mean; the ceiling stage decides as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AlgoConfig, FilterStack
from .errors import DegenerateStateError
from .estimators import streaming_quantile, trimmed_variance, weighted_quantile
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

# Per-start failure probability the streaming reference chain is sized for;
# its block takes ceil(log(1/fail_prob) / log(1/REF_START_FAILURE)) starts.
REF_START_FAILURE = 0.5

# Largest eta of the streaming certificate's robust test: 384 draws per unit
# of B / mu0 when f1 <= 1/2.
DECISION_MARGIN = 0.25


def decision_margin(f1: float) -> float:
    """eta for the threshold f1: (1 + 2 eta) * f1 <= (1 + f1) / 2, eta <= 1/4."""
    return DECISION_MARGIN * min(1.0, (1.0 - f1) / f1)


@dataclass(frozen=True)
class Candidate:
    """A unit direction with the quantities its acceptance was judged on."""

    u: np.ndarray
    rayleigh_emp: float
    sigma_robust: float
    reference_rayleigh: float
    accepted: bool


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
    term: p_ref = ceil((c_pi / gamma) ln(d / (gamma fail_prob))). A block of
    ceil(log2(1/fail_prob)) starts at the streaming chain's length would buy
    nothing here. On a formed 20,000 x 50 G (2-vCPU Xeon, one BLAS thread,
    gamma 0.1, fail_prob 2e-6) the 774-step vector chain took 5.9-6.8 ms and
    a 19-column block at 277 steps 5.7-6.8 ms, since a block step on G costs
    about two vector steps: at most about 1 ms of a 22-27 ms batch solve,
    not worth a second chain shape in the batch path.
    """
    d = op.dim

    _y, r_hat = power_iteration(op, config.ref_power(d, fail_prob), rng)

    p_cert = config.cert_power(d)
    u = gaussian_retry(rng, d, lambda z: power_direction(op, p_cert, z))
    if u is None:
        raise DegenerateStateError("candidate power iterate collapsed to zero")

    rayleigh_emp = float(u @ op.matvec(u))

    f_u = (op.rows @ u) ** 2
    tail = 3.0 * eps
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
                                     ledger: ScalarLedger) -> Candidate:
    """Streaming candidate: every batch quantity becomes a minibatch estimate.

    The reference Rayleigh quotient is boosted over reps =
    ceil(log2(1/fail_prob)) Gaussian starts that share one streamed block
    power chain of p_ref = ``config.ref_power(d, REF_START_FAILURE)`` =
    ceil((c_pi / gamma) ln(2 d / gamma)) steps. p_ref gives one start
    (1 - gamma)-accuracy with probability at least 1/2; given the chain's
    minibatches the starts are independent, so every one of them misses
    with probability at most (1/2)^reps <= fail_prob. The minibatch error
    they share is governed by ``batch_size``.

    The candidate's start, drawn after the reference starts, is one more
    column of that block (``approx_power_iteration``'s rider): it runs
    p_cert = ``config.cert_power(d)`` steps over the chain's minibatches,
    the longer of the two chains goes on alone, and one batch scores the
    reference columns and the candidate's rayleigh_emp. The chains then cost
    (max(p_ref, p_cert) + 1) * batch_size samples whatever fail_prob is. A
    candidate column that collapses is redrawn on a chain of its own
    (``streamed_power_direction``) and scored on a batch of its own. The
    trim cutoff comes from a one-pass quantile block; the robust variance
    comes from the median-of-means estimator, sized from the test it feeds.

    That test is sigma >= mu0 = f1 * rayleigh_emp over scores bounded by
    B = min(cap, prune radius^2). Each of the ceil(log2(1/fail_prob))
    batches draws n = ceil(16 (1 + 2 eta) B / (eta^2 mu0)) rows, eta =
    ``decision_margin(f1)``, and the candidate passes only at sigma >=
    (1 + eta) * mu0: each batch then errs with probability at most 1/16
    when the true mean is below mu0 or at least (1 + 2 eta) * mu0, and the
    median with probability at most fail_prob. eta shrinks as f1 nears 1,
    so that (1 + 2 eta) * mu0 stays within reach of a trimmed mean, and n
    grows as 1/eta^2. A batch never takes more than ``max_mean_batch``
    rows; it takes that many when B is infinite (eps = 0 under an infinite
    prune radius), B / mu0 overflows or eta is 0 (f1 = 1, where the test is
    sigma >= mu0), and the 1/16 bound then no longer holds. n is only the
    ceiling: the batches grow from 256 rows in doubling stages, over
    ceil(log2(J / fail_prob)) batches for J stages, and stop once the
    interval of means the stage's median allows settles sigma against
    (1 + eta) * mu0 (``stream_mean_estimate``). With B infinite or n at most
    256 there is one stage of n rows. A candidate with rayleigh_emp = 0
    gives the test no scale: it is rejected without a draw and reports
    sigma 0.
    """
    d = source.dim

    reps = max(1, math.ceil(math.log2(1.0 / fail_prob) / -math.log2(REF_START_FAILURE)))
    p_ref = config.ref_power(d, REF_START_FAILURE)
    p_cert = config.cert_power(d)
    r_hat, rider = approx_power_iteration(source, stack, p_ref, reps, batch_size, rng,
                                          p_cert, ledger=ledger)
    if rider is not None:
        u, rayleigh_emp = rider
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
                         reference_rayleigh=r_hat, accepted=False)

    tail = 3.0 * eps
    if tail > 0:
        cap = streaming_quantile(
            lambda k: accepted_scores(source, stack, lambda x: (x @ u) ** 2, k, ledger),
            tail, fail_prob, ledger=ledger)
    else:
        cap = math.inf
    eta = decision_margin(f1)
    # inf when eta is 0, B is infinite or B / mu0 overflows: float products
    # and quotients saturate there, and only a finite count reaches ceil.
    scale = min(cap, stack.prune_radius_sq) / mu0
    need = 16.0 * (1.0 + 2.0 * eta) / (eta * eta) * scale if eta > 0.0 else math.inf
    n_batch = math.ceil(need) if need < max_mean_batch else max_mean_batch
    bar = (1.0 + eta) * mu0
    sigma = accepted_band_mean(source, stack, u, -math.inf, cap, fail_prob, n_batch,
                               ledger, bar=bar)

    accepted = sigma >= bar and rayleigh_emp >= f2 * r_hat
    return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=sigma,
                     reference_rayleigh=r_hat, accepted=accepted)
