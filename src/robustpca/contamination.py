"""Ground-truth-labeled data generation: inliers, adversaries, streams.

Inlier covariances are specified structurally (diagonal plus axis
spikes) so samples can be drawn without any matrix factorization and the
generating covariance is known exactly: its spectrum is
``InlierSpec.variances``, which the adversaries read, so generation
decomposes no matrix. Adversaries replace a fixed fraction of points
(finite-set model) or mix in an outlier distribution at a fixed rate (stream
model); labels ride along for ground-truth metrics only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import check_int
from .sources import SampleSource, SyntheticSource

__all__ = [
    "InlierFamily",
    "InlierSpec",
    "AdversaryKind",
    "AdversarySpec",
    "gen_inliers",
    "metric_approx_ratio",
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
    axis], so Sigma stays diagonal and its diagonal, ``variances``, is its
    spectrum, which the adversaries read for lambda_1 and their axes. The
    bounded family mixes a uniform sphere direction with a uniform radial
    scalar, giving the same covariance on compact support: ||X|| <= sqrt(3)
    (sqrt(d max diag) + sum_i sqrt(a_i)).
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

    def variances(self) -> np.ndarray:
        """Sigma's diagonal, each spike added on its axis: Sigma's eigenvalues."""
        var = np.array(self.diag, dtype=np.float64)
        for axis, add in self.spikes:
            var[axis] += add
        return var

    def covariance(self) -> np.ndarray:
        return np.diag(self.variances())


def metric_approx_ratio(u: np.ndarray, sigma_truth: np.ndarray) -> float:
    """u^T Sigma u / lambda_1(Sigma); the single quality score of a direction.

    sigma_truth is either a square matrix, finite and symmetric to 1e-10,
    such as ``InlierSpec.covariance``, whose lambda_1 comes from LAPACK's
    eigvalsh; or a 1-D spectrum, the diagonal of a diagonal Sigma such as
    ``InlierSpec.variances``, scored in O(d) without eigvalsh.
    """
    u = np.asarray(u, dtype=np.float64)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must be unit norm to 1e-9")
    a = np.asarray(sigma_truth, dtype=np.float64)
    if a.ndim == 1:
        if not np.all(np.isfinite(a)):
            raise ValueError("spectrum must be finite (no NaN/Inf)")
        lam1, quad = float(a.max()), float(a @ (u * u))
    elif a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    else:
        # LAPACK would return NaN eigenvalues for these without complaint.
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix must be finite (no NaN/Inf)")
        scale = max(1.0, float(np.max(np.abs(a))))
        if float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
            raise ValueError("matrix is not symmetric to 1e-10")
        lam1, quad = float(np.linalg.eigvalsh(a)[-1]), float(u @ a @ u)
    if lam1 <= 0:
        raise ValueError("sigma_truth must have a positive top eigenvalue")
    return quad / lam1


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


def _outlier_bank(adv: AdversarySpec, inlier: InlierSpec) -> np.ndarray:
    """Rows are the (unsigned) outlier positions the adversary cycles over.

    Each kind picks its axes, ordered by ``InlierSpec.variances``, and one
    magnitude scaled by lambda_1, their maximum; row i is that magnitude on
    the i-th axis.
    """
    d = inlier.dim
    var = inlier.variances()
    lam1 = float(var.max())
    rate = adv.rate
    if adv.kind is AdversaryKind.ORTHOGONAL_SPIKE:
        axis = adv.spike_axis
        if axis is None:
            axis = int(np.argsort(var)[0])
        elif not 0 <= axis < d:
            raise ValueError(f"spike_axis {axis} lies outside [0, d) for d = {d}")
        axes, mag = [axis], adv.spike_multiplier * math.sqrt(lam1 / rate)
    elif adv.kind is AdversaryKind.MULTI_DIRECTION_HIDE:
        h = min(adv.n_directions, d)
        axes = np.argsort(var)[:h]
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
                       inlier: InlierSpec, rng: np.random.Generator):
    """Replace exactly floor(rate * n) points with adversarial positions.

    Replaced slots are chosen uniformly; replacements cycle through the
    adversary's outlier bank with random signs and get outlier labels.
    """
    points = np.asarray(points, dtype=np.float64).copy()
    labels = np.asarray(labels, dtype=bool).copy()
    n, d = points.shape
    if d != inlier.dim:
        raise ValueError(f"points have {d} columns, inlier spec has dim {inlier.dim}")
    n_out = int(math.floor(adv.rate * n))
    if adv.kind is AdversaryKind.NONE or n_out == 0:
        return points, labels
    bank = _outlier_bank(adv, inlier)
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
        bank = _outlier_bank(adv, inlier)

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
