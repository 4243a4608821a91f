"""robustpca benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch_longchain --seed 1 --seconds 40 --trace 0

``--trace 0`` solves as many solves as fill ``--seconds`` seconds at the
workload's nominal pace, with nothing installed, times the workload's
reference kernel between solves and reports the end-to-end metrics.
``--trace 1`` solves the workload's first ``trace_solves`` solves twice
each, untraced and with every layer wrapped,
reports the per-layer metrics and the tracing overhead, and writes the spans
to ``.bench_out/``. Metric names and units come from ``BENCHMARK.json``. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics. The package is imported from ``src/`` of the same checkout.
"""

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from machine import machine_info  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import STAGES, UNATTRIBUTED, Tracer  # noqa: E402
from workloads import INPUTS, WORKLOADS, Input, derived_rng, solve_seed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, no manifest)."""


@dataclass
class Solve:
    wall_s: float             # the robust_pca / streaming_robust_pca call alone
    ref_s: float | None       # mean reference kernel time just before and after
    status: str               # PcaStatus name, or the error type raised
    ratio: float              # metric_approx_ratio against the generating covariance
    ok: bool
    samples: int | None
    filters: int
    ledger_peak: int | None
    iterations: tuple[int, int] | None
    traced_rows: int | None = None

    def behaviour(self) -> tuple:
        """What the program did, which tracing must not change."""
        return self.status, self.iterations, self.filters, self.samples, self.ratio


# -- set-up ---------------------------------------------------------------------

def import_fresh():
    """Import robustpca from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "robustpca" or m.startswith("robustpca.")]:
        del sys.modules[name]
    rp = importlib.import_module("robustpca")
    if Path(rp.__file__).resolve().parent != (SRC / "robustpca").resolve():
        raise SetupError(f"robustpca imported from {rp.__file__}, not from {SRC}")
    return rp


SETUP_ROUNDS = 11  # at least INPUTS: the first INPUTS rounds make the inputs


def setup(wl, seed: int):
    """Import plus input generation, timed per round; returns the median round.

    Each round re-imports the package (numpy stays loaded) and generates one
    input from its own seed. The first ``INPUTS`` rounds' inputs are kept
    for solving; later rounds only time set-up. The last round's module is the
    one solved with. Each round starts after a full garbage collection, so the
    modules earlier rounds dropped do not make later rounds slower.
    """
    rounds, gen_s, rows, inputs = [], 0.0, 0, []
    for j in range(SETUP_ROUNDS):
        gc.collect()
        t0 = time.perf_counter()
        rp = import_fresh()
        t1 = time.perf_counter()
        inp = wl.generate(rp, derived_rng(seed, wl.tag, j))
        t2 = time.perf_counter()
        rounds.append(t2 - t0)
        gen_s += t2 - t1
        rows += inp.rows
        if j < INPUTS:
            inputs.append(inp)
        del inp  # a discarded input is freed before the next round generates
    return rp, inputs, statistics.median(rounds), gen_s, rows


# -- solving --------------------------------------------------------------------

def run_solves(rp, wl, inputs: list[Input], seed: int, indices, *,
               tracer: Tracer | None = None, reference: Reference | None = None):
    """Solve ``indices``; with a ``reference``, time it before and after each.

    Typed errors are caught per solve and counted; anything else is reported
    with its traceback and makes the run incorrect. Returns the solves, the
    output-check seconds and whether an untyped error occurred.
    """
    typed = (rp.DegenerateStateError, rp.StreamExhaustedError, rp.FilterLoopError)
    solves: list[Solve] = []
    check_s = 0.0
    crashed = False
    ref_before = reference.time() if reference is not None else None
    for i in indices:
        inp = inputs[i % len(inputs)]
        call = wl.prepare(rp, inp, solve_seed(seed, wl.tag, i))
        rows_before = tracer.rows if tracer is not None else 0
        out, status = None, None
        t0 = time.perf_counter()
        try:
            out = call()
        except typed as exc:
            status = type(exc).__name__
        except Exception:  # a bug in the program: report it, keep measuring
            traceback.print_exc(file=sys.stderr)
            status, crashed = "untyped_error", True
        wall = time.perf_counter() - t0
        ref_s = None
        if reference is not None:
            ref_after = reference.time()
            ref_s, ref_before = (ref_before + ref_after) / 2, ref_after

        t0 = time.perf_counter()
        ratio = 0.0
        if out is not None:
            status = out.result.status.name
            u = out.result.u
            if u is not None and np.all(np.isfinite(u)):
                try:
                    ratio = rp.metric_approx_ratio(u, inp.sigma)
                except ValueError:  # not unit norm
                    status = "bad_output"
        check_s += time.perf_counter() - t0

        solves.append(Solve(
            wall_s=wall, ref_s=ref_s, status=status,
            ratio=ratio, ok=out is not None and status != "bad_output" and ratio >= wl.bar,
            samples=None if out is None else out.samples,
            filters=0 if out is None else out.result.filters_created,
            ledger_peak=None if out is None else out.ledger_peak,
            iterations=None if out is None else out.result.iterations,
            traced_rows=None if tracer is None else tracer.rows - rows_before,
        ))
    return solves, check_s, crashed


def tail_percentile(walls: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else the median."""
    n = len(walls)
    if n < 20:
        return "p50", statistics.median(walls)
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(walls)[n - 11]


def end_to_end(solves: list[Solve], setup_s: float) -> dict[str, float]:
    refs = [s.wall_s / s.ref_s for s in solves]
    samples = [s.samples for s in solves if s.samples is not None]
    return {
        "setup_s": setup_s,
        "solve_ref_p50": statistics.median(refs),
        "solves_per_ref": len(refs) / sum(refs),
        "ok_fraction": sum(s.ok for s in solves) / len(solves),
        "approx_ratio_p50": statistics.median(s.ratio for s in solves),
        "samples_per_solve": statistics.fmean(samples) if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def status_counts(solves: list[Solve]) -> dict[str, int]:
    counts = {"ACCEPTED": 0, "FALLBACK_BEST": 0, "FAILED": 0}
    for s in solves:
        counts[s.status] = counts.get(s.status, 0) + 1
    return counts


# -- output ---------------------------------------------------------------------

def emit(spec: list[dict], values: dict[str, float], correct: bool, solves: list[Solve],
         workload: str) -> None:
    """Print one line per metric, then the result object as the last line."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not computed: {missing}")
    metrics = {}
    for m in spec:
        v = float(values[m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{workload}  {m['name']} = {v:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": len(solves),
                      "failed": sum(not s.ok for s in solves), "metrics": metrics}))


def report_solves(wl, solves: list[Solve], crashed: bool) -> bool:
    """Print every solve, the per-status counts and the solve-time tail.

    Returns whether the run is correct: no untyped error, every returned
    direction finite and of unit norm, and the median solve at the bar. A
    single solve below the bar is counted in ``failed`` and ``ok_fraction``
    rather than failing the run, because the certificate's acceptance is
    randomized and occasionally passes a weak direction.
    """
    for i, s in enumerate(solves):
        ref = "" if s.ref_s is None else f" ref={s.ref_s:.4f} s"
        print(f"{wl.name}  solve {i}: input {i % INPUTS} {s.status} "
              f"iterations={s.iterations} filters={s.filters} ratio={s.ratio:.6f} "
              f"samples={s.samples} wall={s.wall_s:.4f} s{ref}")
    ok = sum(s.ok for s in solves)
    walls = [s.wall_s for s in solves]
    label, tail = tail_percentile(walls)
    print(f"{wl.name}  solves={len(solves)} ok={ok} statuses={status_counts(solves)} "
          f"bar={wl.bar} ok_fraction={ok / len(solves):.4f}")
    tail_note = "the median is the highest percentile with ten solves beyond it" \
        if label == "p50" else f"{label} {tail:.6g} s"
    print(f"{wl.name}  solve_s p50 {statistics.median(walls):.6g} s over {len(walls)} "
          f"solves; {tail_note}")
    if solves[0].ref_s is not None:
        refs = [s.wall_s / s.ref_s for s in solves]
        label, tail = tail_percentile(refs)
        tail_note = "" if label == "p50" else f"; {label} {tail:.6g} ref"
        print(f"{wl.name}  reference kernel p50 "
              f"{statistics.median(s.ref_s for s in solves):.6g} s; solve_ref p50 "
              f"{statistics.median(refs):.6g} ref{tail_note}")
    valid = not crashed and all(s.status != "bad_output" for s in solves)
    return valid and statistics.median(s.ratio for s in solves) >= wl.bar


def traced_run(rp, wl, inputs, seed, gen_s, rows_generated) -> tuple[dict, bool, list]:
    """Each solve untraced and traced, alternating which goes first.

    Pairing the two in time keeps drift of the machine's speed out of the
    overhead, and alternating keeps the first solve's warm-up out of it.
    """
    tracer = Tracer(rp)

    def plain(i):
        return run_solves(rp, wl, inputs, seed, indices=[i])

    def traced(i):
        tracer.install()
        try:
            return run_solves(rp, wl, inputs, seed, indices=[i], tracer=tracer)
        finally:
            tracer.uninstall()

    base, solves, check_s, crashed = [], [], 0.0, False
    for i in range(wl.trace_solves):
        pair = (traced, plain) if i % 2 else (plain, traced)
        runs = {run: run(i) for run in pair}
        (b, _chk, c0), (t, chk, c1) = runs[plain], runs[traced]
        base += b
        solves += t
        check_s += chk
        crashed |= c0 or c1

    # Memory probe: one more untraced solve of solve 0 under tracemalloc.
    call = wl.prepare(rp, inputs[0], solve_seed(seed, wl.tag, 0))
    tracemalloc.start()
    try:
        call()
        tm_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    for s in solves:
        tracer.counts["driver.filters_created"] += s.filters
        if s.ledger_peak is not None:
            tracer.counts["streaming.ledger_peak_scalars"] = max(
                tracer.counts["streaming.ledger_peak_scalars"], s.ledger_peak)
    # Every streamed row must be seen at the outermost draw and land in a stage.
    stream = [s for s in solves if s.ledger_peak is not None]
    mismatched = sum(s.traced_rows != s.samples for s in stream)
    values = tracer.layer_metrics()
    traced_wall = sum(s.wall_s for s in solves)
    base_wall = sum(s.wall_s for s in base)
    values.update({
        "streaming.tracemalloc_peak_mb": tm_peak / 2**20,
        "contamination.gen_s": gen_s,
        "contamination.rows": float(rows_generated),
        "oracle.check_s": check_s,
        "stages.sum_mismatch_solves": float(mismatched),
        "trace.overhead_frac": traced_wall / base_wall - 1.0,
        "trace.solves": float(len(solves)),
    })

    stage_total = sum(values[f"stages.{st}"] for st in STAGES + (UNATTRIBUTED,))
    if stream:
        print(f"{wl.name}  stage samples (sum {stage_total:.0f} = samples consumed "
              f"{sum(s.samples for s in stream)}; mismatched solves {mismatched}):")
        for st in STAGES + (UNATTRIBUTED,):
            v = values[f"stages.{st}"]
            print(f"{wl.name}    {st:22s} {v:12.0f}  {100 * v / max(stage_total, 1):6.2f}%")
        ledger_mb = values["streaming.ledger_peak_scalars"] * 8 / 2**20
        print(f"{wl.name}  memory: ledger peak {values['streaming.ledger_peak_scalars']:.0f} "
              f"scalars ({ledger_mb:.2f} MiB as float64) vs tracemalloc peak "
              f"{tm_peak / 2**20:.2f} MiB ({tm_peak / 8:.0f} float64), solve 0")
    else:
        print(f"{wl.name}  memory: tracemalloc peak {tm_peak / 2**20:.2f} MiB, solve 0")
    print(f"{wl.name}  tracing: {len(tracer.spans)} spans, traced "
          f"{traced_wall:.3f} s vs untraced {base_wall:.3f} s over the same "
          f"{len(solves)} solves (overhead {100 * values['trace.overhead_frac']:.1f}%)")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{wl.name}-seed{seed}.json.gz"
    with gzip.open(span_file, "wt") as fh:
        tracer.dump(fh)
    print(f"{wl.name}  spans written to {span_file.relative_to(ROOT)}")

    transparent = [a.behaviour() for a in base] == [b.behaviour() for b in solves]
    print(f"{wl.name}  traced solves behave as untraced: {transparent}")
    correct = report_solves(wl, solves, crashed)
    correct &= transparent and mismatched == 0 and values[f"stages.{UNATTRIBUTED}"] == 0
    return values, correct, solves


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = args.seed % 2**63

    if not (SRC / "robustpca" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'robustpca'}")
    manifest = json.loads(MANIFEST.read_text())
    sys.path.insert(0, str(SRC))

    rp, inputs, setup_s, gen_s, rows_generated = setup(wl, seed)
    info = machine_info(np)
    ws = inputs[0].data.nbytes / 1e6
    info["working_set"] = (
        f"{ws:.1f} MB input per solve ({len(inputs)} inputs, {ws * len(inputs):.1f} MB "
        f"resident) against {info['llc']} of LLC; matvec_bytes is computed as "
        f"2*rows*d*8, not a bandwidth measurement")
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"{wl.name}  seed={seed} setup: median import+generate {setup_s:.4f} s over "
          f"{SETUP_ROUNDS} rounds, generation total {gen_s:.4f} s, "
          f"{rows_generated} rows; {len(inputs)} inputs kept")

    if args.trace:
        values, correct, solves = traced_run(rp, wl, inputs, seed, gen_s, rows_generated)
        emit(manifest["per_layer"], values, correct, solves, wl.name)
    else:
        reference = wl.reference()
        reference.time()  # warm-up, discarded
        count = wl.solves_for(args.seconds)
        print(f"{wl.name}  {count} solves, reference kernel {reference.name}")
        solves, _check_s, crashed = run_solves(rp, wl, inputs, seed, range(count),
                                               reference=reference)
        correct = report_solves(wl, solves, crashed)
        emit(manifest["end_to_end"], end_to_end(solves, setup_s), correct, solves, wl.name)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, OSError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
