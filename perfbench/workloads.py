"""The two benchmark workloads: inputs, one timed solve and a reference kernel each.

A workload generates ``INPUTS`` distinct inputs during set-up, each from its
own generator derived from the run seed. Solve ``i`` uses input
``i % INPUTS`` and an ``rng_seed`` derived from the run seed and ``i``, so a
seed fixes every input and every solve. ``prepare`` does the untimed work
(wrapping arrays, building the source) and returns the timed call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import Reference, matvec_reference, stream_reference


INPUTS = 3


@dataclass
class Input:
    data: np.ndarray          # the points, or the stream pool
    sigma: np.ndarray         # generating covariance, for the output check
    rows: int                 # rows generated


@dataclass
class Outcome:
    result: object            # PcaResult
    samples: int              # StreamStats.samples_consumed, or n for a batch solve
    ledger_peak: int | None   # StreamStats.peak_resident_scalars (stream only)


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int                  # keeps the workloads' seed streams apart
    bar: float                # approximation ratio a solve must reach to count as ok
    trace_solves: int         # fixed solve count of a traced run
    pace_s: float             # seconds per solve, reference and check, seed code
    generate: Callable        # (rp, np.random.Generator) -> Input
    prepare: Callable         # (rp, Input, rng_seed) -> () -> Outcome
    reference: Callable[[], Reference]

    def solves_for(self, seconds: float) -> int:
        """Solve count of an untraced run: fixed by ``seconds`` alone.

        A run solves a count, not until a deadline, so that two runs of one
        seed attempt the same solves whatever the machine's speed. The count
        fills ``seconds`` at ``pace_s``, the typical pace of the seed code on
        a 2-vCPU Xeon guest, where a run took 0.8 to 1.3 times ``seconds`` as
        the machine's speed drifted.
        """
        return max(1, int(seconds / self.pace_s))


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def solve_seed(seed: int, tag: int, i: int) -> int:
    """Per-solve ``rng_seed``: a 63-bit integer fixed by (run seed, workload, i)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, 1_000_000 + i))
    return int(ss.generate_state(2, dtype=np.uint64)[0] >> np.uint64(1))


# -- batch_longchain: acceptance 02 config -------------------------------------

def _gen_longchain(rp, rng) -> Input:
    spec = rp.InlierSpec(dim=50, diag=1.0, spikes=((0, 9.0),))
    pts, _labels = rp.gen_inliers(spec, 20_000, rng)
    return Input(pts, spec.covariance(), pts.shape[0])


def _prep_longchain(rp, inp: Input, rng_seed: int):
    ds = rp.WeightedDataset(inp.data)

    def call() -> Outcome:
        res = rp.robust_pca(ds, eps=0.005, gamma=0.1, rng_seed=rng_seed)
        return Outcome(res, ds.n, None)

    return call


# -- stream_replay: acceptance 07 solver config over a replayed pool -------------

POOL_ROWS = 200_000
# The pool is contaminated at 0.035 against the solver's eps of 0.03. The
# prologue prunes at the eps-tail norm quantile of its first block, so at a
# rate equal to eps (acceptance 07) whether the spike outliers are pruned is a
# coin flip per solve: half the solves accept at once, half need a filter,
# and a run's mean swings with the flips. At 0.035 the outliers always pass
# the prune, so every solve takes the filter path and all sample stages run.
POOL_RATE = 0.035


def _gen_stream(rp, rng) -> Input:
    spec = rp.InlierSpec(dim=20, diag=1.0, spikes=((0, 9.0),))
    adv = rp.AdversarySpec(kind=rp.AdversaryKind.ORTHOGONAL_SPIKE, rate=POOL_RATE,
                           spike_axis=1)
    pool, _labels = rp.tv_contaminated_source(spec, adv, rng).draw_labeled(POOL_ROWS)
    return Input(pool, spec.covariance(), POOL_ROWS)


def _prep_stream(rp, inp: Input, rng_seed: int):
    src = rp.ReplaySource(inp.data, mode="cycle")

    def call() -> Outcome:
        res, stats = rp.streaming_robust_pca(src, eps=0.03, gamma=0.6, r_radius=1.5,
                                             rng_seed=rng_seed, max_samples=60_000_000)
        return Outcome(res, stats.samples_consumed, stats.peak_resident_scalars)

    return call


WORKLOADS = {
    w.name: w for w in (
        Workload("batch_longchain", tag=1, bar=0.95, trace_solves=6,
                 pace_s=1.4,
                 generate=_gen_longchain, prepare=_prep_longchain,
                 reference=lambda: matvec_reference(20_000, 50, 100)),
        Workload("stream_replay", tag=3, bar=0.8, trace_solves=6,
                 pace_s=2.0,
                 generate=_gen_stream, prepare=_prep_stream,
                 reference=lambda: stream_reference(POOL_ROWS, 20, 1024, 700)),
    )
}
