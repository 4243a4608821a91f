"""Ground-truth-labeled data generation: inliers, adversaries, streams.

Inlier covariances are specified structurally (diagonal plus axis
spikes) so samples can be drawn without any matrix factorization and the
generating covariance is known exactly. Adversaries replace a fixed fraction
of points (finite-set model) or mix in an outlier distribution at a fixed
rate (stream model); labels ride along for oracle metrics only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import check_int
from .oracle import dense_spectrum
from .sources import SampleSource, SyntheticSource

__all__ = [
    "InlierFamily",
    "InlierSpec",
    "AdversaryKind",
    "AdversarySpec",
    "gen_inliers",
    "strong_contaminate",
    "tv_contaminated_source",
]


class InlierFamily(enum.Enum):
    GAUSSIAN = "gaussian"
    BOUNDED_UNIFORM_SPHEREMIX = "bounded_uniform_spheremix"


@dataclass(frozen=True)
class InlierSpec:
    """Mean-zero inlier distribution with the diagonal covariance diag + spikes.

    A spike is (axis, added variance): it adds its variance to Sigma[axis,
    axis], so Sigma stays diagonal and its diagonal is its spectrum, which
    the adversaries read to pick their axes. The bounded family mixes a
    uniform sphere direction with a uniform radial scalar, giving the same
    covariance on compact support: ||X|| <= sqrt(3) (sqrt(d max diag) +
    sum_i sqrt(a_i)).
    """

    dim: int
    diag: tuple[float, ...] | float = 1.0
    spikes: tuple = ()   # ((axis, added variance), ...)
    family: InlierFamily = InlierFamily.GAUSSIAN

    def __post_init__(self):
        # Each range check is written so that NaN fails it.
        check_int("dim", self.dim, 1)
        diag = self.diag
        if np.isscalar(diag):
            diag = (float(diag),) * self.dim
        diag = tuple(float(v) for v in diag)
        if len(diag) != self.dim or not all(0 <= v < math.inf for v in diag):
            raise ValueError("diag must be d finite nonnegative variances")
        object.__setattr__(self, "diag", diag)
        spikes = []
        for axis, add in self.spikes:
            add = float(add)
            if not 0 <= add < math.inf:
                raise ValueError(f"spike variance must be finite and nonnegative, "
                                 f"got {add}")
            if not (np.isscalar(axis) and float(axis).is_integer()
                    and 0 <= axis < self.dim):
                raise ValueError(f"spike axis {axis!r} is not an integer "
                                 f"in [0, {self.dim})")
            spikes.append((int(axis), add))
        object.__setattr__(self, "spikes", tuple(spikes))

    def covariance(self) -> np.ndarray:
        cov = np.diag(np.asarray(self.diag, dtype=np.float64))
        for axis, add in self.spikes:
            cov[axis, axis] += add
        return cov


def gen_inliers(spec: InlierSpec, n: int, rng: np.random.Generator):
    """n i.i.d. mean-zero samples with spec's exact covariance, labeled inlier."""
    if n < 1:
        raise ValueError("n must be positive")
    d = spec.dim
    scale = np.sqrt(np.asarray(spec.diag, dtype=np.float64))
    if spec.family is InlierFamily.GAUSSIAN:
        pts = rng.standard_normal((n, d)) * scale
        for axis, add in spec.spikes:
            pts[:, axis] += math.sqrt(add) * rng.standard_normal(n)
    else:
        g = rng.standard_normal((n, d))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sphere = g / norms * math.sqrt(d)          # covariance exactly I
        radial = rng.uniform(0.0, math.sqrt(3.0), size=(n, 1))  # E[b^2] = 1
        pts = radial * sphere * scale
        for axis, add in spec.spikes:
            signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
            pts[:, axis] += radial[:, 0] * math.sqrt(add) * signs
    return pts, np.ones(n, dtype=bool)


class AdversaryKind(enum.Enum):
    NONE = "none"
    ORTHOGONAL_SPIKE = "orthogonal_spike"
    MULTI_DIRECTION_HIDE = "multi_direction_hide"
    SCHATTEN_BLIND = "schatten_blind"


@dataclass(frozen=True)
class AdversarySpec:
    """Replacement strategy and rate for the finite-set and stream models."""

    kind: AdversaryKind = AdversaryKind.NONE
    rate: float = 0.0
    spike_axis: int | None = None        # None: lowest-variance axis of truth
    spike_multiplier: float = 2.0
    n_directions: int = 3
    hide_boost: float = 0.5
    projection_rank: int | None = None   # SCHATTEN_BLIND: rank of true Sigma

    def __post_init__(self):
        # Each range check is written so that NaN fails it; spike_axis and
        # projection_rank are checked against d where the outlier bank is built.
        if not (0.0 <= self.rate < 0.5):
            raise ValueError(f"rate must lie in [0, 0.5), got {self.rate}")
        if not math.isfinite(self.spike_multiplier):
            raise ValueError(f"spike_multiplier must be finite, got {self.spike_multiplier}")
        if not 0 <= self.hide_boost < math.inf:
            raise ValueError(f"hide_boost must be finite and nonnegative, "
                             f"got {self.hide_boost}")
        check_int("n_directions", self.n_directions, 1)
        check_int("spike_axis", self.spike_axis, optional=True)
        check_int("projection_rank", self.projection_rank, optional=True)


def _axes_by_variance(sigma_truth: np.ndarray) -> np.ndarray:
    return np.argsort(np.diag(sigma_truth))


def _outlier_bank(adv: AdversarySpec, sigma_truth: np.ndarray, d: int) -> np.ndarray:
    """Rows are the (unsigned) outlier positions the adversary cycles over.

    Each kind picks its axes and one magnitude; row i is that magnitude on
    the i-th axis.
    """
    lam1 = float(dense_spectrum(sigma_truth).eigenvalues[0])
    rate = adv.rate
    if adv.kind is AdversaryKind.ORTHOGONAL_SPIKE:
        axis = adv.spike_axis
        if axis is None:
            axis = int(_axes_by_variance(sigma_truth)[0])
        elif not 0 <= axis < d:
            raise ValueError(f"spike_axis {axis} lies outside [0, d) for d = {d}")
        axes, mag = [axis], adv.spike_multiplier * math.sqrt(lam1 / rate)
    elif adv.kind is AdversaryKind.MULTI_DIRECTION_HIDE:
        h = min(adv.n_directions, d)
        axes = _axes_by_variance(sigma_truth)[:h]
        mag = math.sqrt(adv.hide_boost * lam1 * h / rate)
    elif adv.kind is AdversaryKind.SCHATTEN_BLIND:
        r = adv.projection_rank
        if r is None or not (0 < r < d):
            raise ValueError("SCHATTEN_BLIND needs projection_rank in (0, d)")
        axes, mag = np.arange(r, d), math.sqrt(lam1 * (d - r) / rate)
    else:
        raise ValueError(f"no outlier bank for {adv.kind}")
    bank = np.zeros((len(axes), d))
    bank[np.arange(len(axes)), axes] = mag
    return bank


def strong_contaminate(points: np.ndarray, labels: np.ndarray, adv: AdversarySpec,
                       sigma_truth: np.ndarray, rng: np.random.Generator):
    """Replace exactly floor(rate * n) points with adversarial positions.

    Replaced slots are chosen uniformly; replacements cycle through the
    adversary's outlier bank with random signs and get outlier labels.
    """
    points = np.asarray(points, dtype=np.float64).copy()
    labels = np.asarray(labels, dtype=bool).copy()
    n, d = points.shape
    n_out = int(math.floor(adv.rate * n))
    if adv.kind is AdversaryKind.NONE or n_out == 0:
        return points, labels
    bank = _outlier_bank(adv, sigma_truth, d)
    slots = rng.choice(n, size=n_out, replace=False)
    signs = rng.integers(0, 2, size=n_out) * 2.0 - 1.0
    points[slots] = bank[np.arange(n_out) % bank.shape[0]] * signs[:, None]
    labels[slots] = False
    return points, labels


def tv_contaminated_source(inlier: InlierSpec, adv: AdversarySpec,
                           rng: np.random.Generator) -> SampleSource:
    """Bernoulli mixture stream: outlier with probability rate, else inlier."""
    bank = None
    if adv.kind is not AdversaryKind.NONE and adv.rate > 0:
        bank = _outlier_bank(adv, inlier.covariance(), inlier.dim)

    def draw_fn(r: np.random.Generator, k: int):
        pts, _ = gen_inliers(inlier, k, r)
        labels = np.ones(k, dtype=bool)
        if bank is not None:
            is_out = r.random(k) < adv.rate
            n_out = int(np.count_nonzero(is_out))
            if n_out:
                rows = bank[r.integers(0, bank.shape[0], size=n_out)]
                signs = r.integers(0, 2, size=n_out) * 2.0 - 1.0
                pts[is_out] = rows * signs[:, None]
                labels[is_out] = False
        return pts, labels

    return SyntheticSource(inlier.dim, draw_fn, rng)
