"""Sample sources for the streaming algorithms, plus memory accounting.

A source hands out samples exactly once, in order, to a single consumer.
Batched draws (``draw(k)``) exist purely for vectorization; the contract is
still one pass. Labels ride along for ground-truth metrics and are invisible
to the recovery algorithms, which only ever call ``draw``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .core import check_int
from .errors import MemoryBudgetError, StreamExhaustedError

__all__ = [
    "SampleSource",
    "SyntheticSource",
    "ReplaySource",
    "BudgetedSource",
    "ScalarLedger",
]


class SampleSource:
    """Base class. Subclasses implement ``_produce(k) -> (points, labels)``."""

    def __init__(self, dim: int):
        self.dim = dim
        self.delivered = 0

    def _produce(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        raise NotImplementedError

    def draw_labeled(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        if k <= 0:
            raise ValueError("draw size must be positive")
        pts, labels = self._produce(k)
        self.delivered += k
        return pts, labels

    def draw(self, k: int) -> np.ndarray:
        return self.draw_labeled(k)[0]


class SyntheticSource(SampleSource):
    """Unbounded i.i.d. source backed by a seeded draw function.

    ``draw_fn(rng, k)`` must return ``(points, labels_or_None)`` with points
    of shape (k, dim).
    """

    def __init__(self, dim: int, draw_fn, rng: np.random.Generator):
        super().__init__(dim)
        self._draw_fn = draw_fn
        self._rng = rng

    def _produce(self, k: int):
        pts, labels = self._draw_fn(self._rng, k)
        return np.asarray(pts, dtype=np.float64), labels


class ReplaySource(SampleSource):
    """Replays a finite population in order.

    ``mode='once'`` delivers each point a single time then exhausts;
    ``mode='cycle'`` loops over the population. An i.i.d. stream over a pool
    is a ``SyntheticSource`` whose draw function indexes it.

    A draw that does not wrap past the end of the pool is a read-only view
    of its rows (labels alike), so reading it copies nothing and writing
    into it raises ``ValueError``. A ``cycle`` draw that wraps is a fresh
    copy.
    """

    def __init__(self, points: np.ndarray, labels=None, mode: str = "once"):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.size == 0:
            raise ValueError(
                f"replay pool must be a non-empty (n, d) array, got shape {points.shape}")
        super().__init__(points.shape[1])
        if mode not in ("once", "cycle"):
            raise ValueError(f"unknown replay mode {mode!r}")
        # Slices of these read-only views are read-only, fancy-indexed copies
        # not. A pool in another memory order is copied once into C order, so
        # every draw hands its consumers C-ordered rows, view or copy.
        self._points = _read_only(points)
        if labels is not None:
            labels = np.ascontiguousarray(labels, dtype=bool)
            if labels.shape != points.shape[:1]:
                raise ValueError(f"replay labels must have shape ({points.shape[0]},), "
                                 f"got {labels.shape}")
            labels = _read_only(labels)
        self._labels = labels
        self._mode = mode
        self._pos = 0

    def _produce(self, k: int):
        n, pos = self._points.shape[0], self._pos
        if self._mode == "once" and pos + k > n:
            raise StreamExhaustedError(f"replay exhausted after {self.delivered} samples")
        self._pos = pos + k if self._mode == "once" else (pos + k) % n
        idx = slice(pos, pos + k) if pos + k <= n else (pos + np.arange(k)) % n
        labels = None if self._labels is None else self._labels[idx]
        return self._points[idx], labels


def _read_only(pool: np.ndarray) -> np.ndarray:
    view = pool.view()
    view.flags.writeable = False
    return view


class BudgetedSource(SampleSource):
    """Caps total samples drawn from an inner source."""

    def __init__(self, inner: SampleSource, max_samples: int):
        super().__init__(inner.dim)
        check_int("max_samples", max_samples, 1)
        self.inner = inner
        self.max_samples = max_samples

    def _produce(self, k: int):
        if self.delivered + k > self.max_samples:
            raise StreamExhaustedError(
                f"stream budget of {self.max_samples} exhausted "
                f"after {self.delivered} samples")
        return self.inner.draw_labeled(k)


class ScalarLedger:
    """Counts simultaneously live real numbers attributable to algorithm state.

    It counts d scalars per resident stream row, one per score in a score
    block, the blocks a power chain carries, and the persistent state. Code
    brackets allocations with ``reserve``; ``peak`` is the high-water mark.
    It allocates nothing itself. With a ``limit``, the allocation that takes
    the peak above it raises ``MemoryBudgetError``.
    """

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.current = 0
        self.peak = 0

    def alloc(self, count: int) -> None:
        self.current += int(count)
        if self.current > self.peak:
            self.peak = self.current
            if self.limit is not None and self.peak > self.limit:
                raise MemoryBudgetError(
                    f"peak resident scalars {self.peak} exceeded "
                    f"declared budget {self.limit}"
                )

    def free(self, count: int) -> None:
        self.current -= int(count)

    @contextmanager
    def reserve(self, count: int):
        try:
            self.alloc(count)
            yield
        finally:
            self.free(count)
