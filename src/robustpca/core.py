"""Core data model: filter stacks, weighted datasets, and run configuration.

A filter stack is the entire memory of outlier removal: a squared-norm prune
radius plus an ordered list of (direction, squared-projection threshold)
pairs. A point's binary weight is computable from the stack alone, so the
stack is what a low-memory consumer persists between steps.
"""

from __future__ import annotations

import math
import numbers
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

    def within_radius(self, sq_norms: np.ndarray) -> np.ndarray:
        """The norm-prune part of ``weights``, over precomputed squared norms."""
        return sq_norms <= min(self.prune_radius_sq, sys.float_info.max)

    def weights(self, points: np.ndarray) -> np.ndarray:
        """Vectorized weights for an (n, d) array; returns (n,) bool.

        Rows whose squared norm is not finite get weight 0 even under an
        infinite prune radius (a NaN norm fails any comparison, an infinite
        one fails the largest finite radius).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        w = self.within_radius(np.einsum("ij,ij->i", pts, pts))
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

    The points are kept C-ordered (an input in another memory order is
    copied once), so a solve that reads them in place computes what it
    would on a C-ordered copy.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be an (n, d) array, got shape {pts.shape}")
        if pts.shape[0] == 0:
            raise ValueError("dataset must contain at least one point")
        if pts.shape[1] == 0:
            raise ValueError("dimension must be positive")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite (no NaN/Inf)")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def check_int(name: str, value, low: int | None = None, optional: bool = False) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``low``, or None if optional.

    A bool or an integer-valued float such as 3.0 is not an integer here.
    """
    if optional and value is None:
        return
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (low is not None and value < low)):
        want = "an integer" + ("" if low is None else f" >= {low}")
        raise ValueError(f"{name} must be {want}{' or None' if optional else ''}, "
                         f"got {value!r}")


C_OUTER = 30.0   # scales the loop length t_end


@dataclass
class AlgoConfig:
    """Run parameters.

    ``eps`` is the assumed corruption rate, in [0, 0.05] since
    20*eps <= gamma <= 1; ``gamma`` the stability slack (at least 20*eps;
    defaults to 20*eps, or 0.05 at eps = 0). ``t_end``, the number of
    iterations of a ``driver.drive`` solve, is normally derived
    (``t_end_for``) and only set here to override it.
    """

    eps: float = 0.0
    gamma: float | None = None
    t_end: int | None = None
    max_resident_scalars: int | None = None   # a stream solve's ledger limit

    def __post_init__(self):
        if not (0.0 <= self.eps <= 0.05):
            raise ValueError(
                f"eps must lie in [0, 0.05], since 20*eps <= gamma <= 1; got eps={self.eps}"
            )
        if self.gamma is None:
            self.gamma = 20.0 * self.eps if self.eps > 0 else 0.05
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.gamma < 20.0 * self.eps - 1e-12:
            raise ValueError(
                f"the constraint 20*eps <= gamma is violated: "
                f"20*{self.eps} = {20 * self.eps} > gamma = {self.gamma}"
            )
        # Each check is written so that NaN fails it.
        check_int("t_end", self.t_end, 1, optional=True)
        check_int("max_resident_scalars", self.max_resident_scalars, 0, optional=True)

    def t_end_for(self, d: int) -> int:
        if self.t_end is not None:
            return self.t_end
        eps_eff = max(self.eps, 1e-12)
        t = math.ceil(C_OUTER * math.log(max(d, 2) / eps_eff) ** 2 / self.gamma)
        return min(max(t, 1), 10_000)


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
            try:
                if labeled is None:
                    labeled = has_label
                elif labeled != has_label:
                    raise ValueError("inconsistent label column")
                if has_label:
                    labels.append(parts[0] == "inlier")
                    parts = parts[1:]
                rows.append([float(v) for v in parts])
                if not parts or len(rows[-1]) != len(rows[0]):
                    raise ValueError("inconsistent dimension" if parts else "no coordinates")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    pts = np.asarray(rows, dtype=np.float64)
    return pts, (np.asarray(labels, dtype=bool) if labeled else None)
