"""Reference kernels: a fixed amount of numpy work, timed next to every solve.

The cores a run gets are shared with other work on the host, and their speed
drifts: on a 2-vCPU Xeon guest the same stream solve took anywhere from 1.1 s
to 2.1 s within two minutes, with all of that time spent on the CPU (no time
stolen). The reference kernel of a workload does the kind of work its solves
spend their time in, on arrays of the same shape, in code that belongs to the
benchmark and never changes with the program. A solve's wall time divided by
the kernel's wall time around it cancels the drift that slows both alike,
and still moves in full with any change to the work the program does.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """A fixed kernel; ``time()`` runs it once and returns its wall seconds."""

    def __init__(self, name: str, kernel):
        self.name = name
        self._kernel = kernel

    def time(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0


def matvec_reference(n: int, d: int, reps: int) -> Reference:
    """``reps`` second-moment matvecs ``X.T @ (X @ v)`` on an (n, d) array."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, d))
    v = rng.standard_normal(d)

    def kernel():
        for _ in range(reps):
            x.T @ (x @ v)

    return Reference(f"matvec n={n} d={d} x{reps}", kernel)


def stream_reference(pool_rows: int, d: int, chunk: int, chunks: int) -> Reference:
    """``chunks`` chunks of a streamed block power step over a cycled pool.

    Each chunk gathers ``chunk`` rows of the pool in cyclic order, keeps the
    rows inside a norm radius, and accumulates ``sub.T @ (sub @ u)`` for a
    (d, 2) block: the draw, filter and apply steps of one streamed chunk.
    """
    rng = np.random.default_rng(0)
    pool = rng.standard_normal((pool_rows, d))
    u = rng.standard_normal((d, 2))
    radius2 = 2.0 * d
    state = {"pos": 0}

    def kernel():
        acc = np.zeros((d, 2))
        pos = state["pos"]
        for _ in range(chunks):
            pts = pool[(pos + np.arange(chunk)) % pool_rows]
            pos = (pos + chunk) % pool_rows
            sub = pts[np.einsum("ij,ij->i", pts, pts) <= radius2]
            acc += sub.T @ (sub @ u)
        state["pos"] = pos

    return Reference(f"stream pool={pool_rows} d={d} chunk={chunk} x{chunks}", kernel)
