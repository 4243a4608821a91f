"""Candidate generation and acceptance.

A candidate direction is a power-iterated Gaussian vector. It is accepted
when (a) its robustly estimated variance is a fixed fraction of its
empirical weighted variance, and (b) its empirical Rayleigh quotient is a
fixed fraction of an independently estimated top Rayleigh quotient.
Acceptance certifies the direction carries close to the top true variance;
rejection means the surviving data still over-weights some direction and
filtering should continue.
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


def _decide(sigma_robust: float, rayleigh_emp: float, reference: float,
            gamma: float, c_acc: float) -> bool:
    f1, f2 = acceptance_factors(gamma, c_acc)
    return sigma_robust >= f1 * rayleigh_emp and rayleigh_emp >= f2 * reference


def sample_top_eigenvector(op: SecondMomentOp, n_total: int, eps: float,
                           gamma: float, fail_prob: float, config: AlgoConfig,
                           rng: np.random.Generator) -> Candidate:
    """Batch candidate: u = normalize(B^p z) judged against batch estimates.

    ``op`` is B, the normalized second moment of the m surviving points
    (``op.rows``) of a population of ``n_total``. The reference Rayleigh
    quotient comes from an independent power iteration; the robust variance
    from the 3*eps-tail trimmed mean of squared projections of ``op.rows``
    onto u, over n_total. All reported scalars are per unit norm of u.
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

    accepted = _decide(sigma, rayleigh_emp, r_hat, gamma, config.c_acc)
    return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=sigma,
                     reference_rayleigh=r_hat, accepted=accepted)


def sample_top_eigenvector_streaming(source: SampleSource, stack: FilterStack,
                                     eps: float, gamma: float, fail_prob: float,
                                     config: AlgoConfig, rng: np.random.Generator,
                                     batch_size: int, mean_batch: int,
                                     ledger: ScalarLedger) -> Candidate:
    """Streaming candidate: every batch quantity becomes a minibatch estimate.

    The reference Rayleigh quotient is boosted over ceil(log2(1/fail_prob))
    Gaussian starts that share one streamed block power chain, so it costs
    (p_ref + 1) * batch_size samples whatever the number of starts; the trim
    cutoff comes from a one-pass quantile block; the robust variance comes
    from the median-of-means estimator.
    """
    d = source.dim

    reps = max(1, int(math.ceil(math.log2(1.0 / fail_prob))))
    p_ref = config.ref_power(d, fail_prob)
    r_hat = approx_power_iteration(source, stack, p_ref, reps, batch_size, rng,
                                   ledger=ledger)

    u = streamed_power_direction(source, stack, config.cert_power(d), batch_size,
                                 rng, ledger=ledger)
    if u is None:
        raise DegenerateStateError("candidate power iterate collapsed to zero")

    rayleigh_emp = float(streamed_rayleigh(source, stack, u, batch_size, ledger))

    tail = 3.0 * eps
    if tail > 0:
        cap = streaming_quantile(
            lambda k: accepted_scores(source, stack, lambda x: (x @ u) ** 2, k, ledger),
            tail, fail_prob, ledger=ledger)
    else:
        cap = math.inf
    sigma = accepted_band_mean(source, stack, u, -math.inf, cap, fail_prob,
                               mean_batch, ledger=ledger)

    accepted = _decide(sigma, rayleigh_emp, r_hat, gamma, config.c_acc)
    return Candidate(u=u, rayleigh_emp=rayleigh_emp, sigma_robust=sigma,
                     reference_rayleigh=r_hat, accepted=accepted)
