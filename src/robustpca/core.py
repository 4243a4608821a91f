"""Core data model: filter stacks, weighted datasets, and run configuration.

A filter stack is the entire memory of outlier removal: a squared-norm prune
radius plus an ordered list of (direction, squared-projection threshold)
pairs. A point's binary weight is computable from the stack alone, so the
stack is what a low-memory consumer persists between steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
import numpy as np

__all__ = [
    "FilterEntry",
    "FilterStack",
    "WeightedDataset",
    "AlgoConfig",
    "rng_stream",
    "load_dataset",
    "save_dataset",
]


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Named child generator: same (seed, key) always yields the same stream.

    Separate purposes draw from separate streams so that adding draws to one
    consumer does not shift another's sequence (needed for coupled-run tests).
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class FilterEntry:
    """One projection filter: keep x iff (direction . x)^2 <= threshold_sq."""

    direction: np.ndarray
    threshold_sq: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=np.float64)
        object.__setattr__(self, "direction", d)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("filter direction must be a nonempty 1-d vector")
        if not np.all(np.isfinite(d)):
            raise ValueError("filter direction must be finite")
        if not (self.threshold_sq > 0):
            raise ValueError(f"threshold_sq must be positive, got {self.threshold_sq}")


@dataclass(frozen=True)
class FilterStack:
    """Norm prune plus ordered projection filters; immutable per revision.

    Weight rule: w(x) = 1 iff ||x||^2 <= prune_radius_sq and every entry
    (v, T) satisfies (v.x)^2 <= T. Appending an entry never increases any
    weight.
    """

    prune_radius_sq: float = math.inf
    entries: tuple[FilterEntry, ...] = ()

    def __post_init__(self):
        if self.prune_radius_sq < 0 or math.isnan(self.prune_radius_sq):
            raise ValueError("prune_radius_sq must be nonnegative")
        object.__setattr__(self, "entries", tuple(self.entries))

    def with_entry(self, entry: FilterEntry) -> "FilterStack":
        return replace(self, entries=self.entries + (entry,))

    def __len__(self) -> int:
        return len(self.entries)

    def weights(self, points: np.ndarray) -> np.ndarray:
        """Vectorized weights for an (n, d) array; returns (n,) bool.

        Rows whose squared norm is not finite get weight 0 even under an
        infinite prune radius (a NaN norm fails any comparison, an infinite
        one fails the largest finite radius).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        radius_sq = min(self.prune_radius_sq, sys.float_info.max)
        w = np.einsum("ij,ij->i", pts, pts) <= radius_sq
        for e in self.entries:
            if e.direction.size != pts.shape[1]:
                raise ValueError(
                    f"dimension mismatch: stack direction has {e.direction.size} "
                    f"coords, points have {pts.shape[1]}"
                )
            if not w.any():
                break
            proj = pts @ e.direction
            w &= proj * proj <= e.threshold_sq
        return w


@dataclass(frozen=True)
class WeightedDataset:
    """n finite points in R^d, the input of a batch solve.

    Optional labels mark ground-truth inliers for oracle metrics; they are
    never consulted by the recovery algorithms.
    """

    points: np.ndarray
    inlier_labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
        if pts.shape[0] == 0:
            raise ValueError("dataset must contain at least one point")
        if pts.shape[1] == 0:
            raise ValueError("dimension must be positive")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite (no NaN/Inf)")
        object.__setattr__(self, "points", pts)
        if self.inlier_labels is not None:
            lab = np.asarray(self.inlier_labels, dtype=bool)
            if lab.shape != (pts.shape[0],):
                raise ValueError("inlier_labels must have one entry per point")
            object.__setattr__(self, "inlier_labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _default_gamma(eps: float) -> float:
    if eps <= 0:
        return 0.05
    return max(20.0 * eps, eps * math.log(1.0 / eps))


@dataclass
class AlgoConfig:
    """Run parameters and schedule constants.

    ``eps`` is the assumed corruption rate; ``gamma`` the stability slack
    (at least 20*eps; defaults to max(20*eps, eps*ln(1/eps))). ``c_outer``
    scales the inner-loop length, ``c_inner`` the base matrix power.
    ``t_end``/``k_end`` are normally derived from the schedule formulas and
    only set here to override them.
    """

    eps: float = 0.0
    gamma: float | None = None
    c_outer: float = 30.0
    c_inner: float = 3.0
    t_end: int | None = None
    k_end: int | None = None
    boost_reps: int = 1
    cert_failure_prob: float = 0.1

    # Certificate constants and stream sizes; defaults are desk-scale.
    c_acc: float = 20.0
    c_pi: float = 4.0
    c_cert: float = 4.0
    batch_size: int | None = None
    max_resident_scalars: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.eps < 0.5):
            raise ValueError(
                f"eps must lie in [0, 0.5) and satisfy 20*eps <= gamma; got eps={self.eps}"
            )
        if self.gamma is None:
            self.gamma = _default_gamma(self.eps)
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.gamma < 20.0 * self.eps - 1e-12:
            raise ValueError(
                f"the constraint 20*eps <= gamma is violated: "
                f"20*{self.eps} = {20 * self.eps} > gamma = {self.gamma}"
            )
        if self.boost_reps < 1:
            raise ValueError("boost_reps must be a positive integer")
        if not (0.0 < self.cert_failure_prob < 1.0):
            raise ValueError("cert_failure_prob must lie in (0, 1)")

    # -- schedule formulas ---------------------------------------------------

    def base_power(self, d: int) -> int:
        return max(1, math.ceil(self.c_inner * math.log(max(d, 2))))

    def power_at(self, d: int, k: int) -> int:
        return (2 ** (k - 1)) * self.base_power(d)

    def k_end_for(self, d: int) -> int:
        if self.k_end is not None:
            return self.k_end
        g = self.gamma
        ratio = math.log(max(d, 2) / g) / (g * math.log(max(d, 2)))
        return max(1, math.ceil(math.log2(max(1.0, ratio))) + 1)

    def t_end_for(self, d: int) -> int:
        if self.t_end is not None:
            return self.t_end
        eps_eff = max(self.eps, 1e-12)
        t = math.ceil(self.c_outer * math.log(max(d, 2) / eps_eff) ** 2 / self.gamma)
        return min(max(t, 1), 10_000)

    def cert_power(self, d: int) -> int:
        return max(1, math.ceil((self.c_cert / self.gamma) * math.log(max(d, 2) / self.gamma)))

    def ref_power(self, d: int, fail_prob: float) -> int:
        arg = max(d, 2) / (self.gamma * max(fail_prob, 1e-300))
        return max(1, math.ceil((self.c_pi / self.gamma) * math.log(arg)))


# -- dataset files ------------------------------------------------------------
# One sample per line, whitespace-separated floats; optional leading
# `inlier`/`outlier` label column, kept for oracle metrics only.

def save_dataset(path: str | Path, points: np.ndarray, inlier_labels=None) -> None:
    points = np.asarray(points, dtype=np.float64)
    with open(path, "w") as fh:
        for i, row in enumerate(points):
            coords = " ".join(repr(float(v)) for v in row)
            if inlier_labels is None:
                fh.write(coords + "\n")
            else:
                tag = "inlier" if inlier_labels[i] else "outlier"
                fh.write(f"{tag} {coords}\n")


def load_dataset(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    rows: list[list[float]] = []
    labels: list[bool] = []
    labeled: bool | None = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            has_label = parts[0] in ("inlier", "outlier")
            if labeled is None:
                labeled = has_label
            elif labeled != has_label:
                raise ValueError(f"{path}:{lineno}: inconsistent label column")
            if has_label:
                labels.append(parts[0] == "inlier")
                parts = parts[1:]
            rows.append([float(v) for v in parts])
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: inconsistent dimension")
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    pts = np.asarray(rows, dtype=np.float64)
    return pts, (np.asarray(labels, dtype=bool) if labeled else None)
