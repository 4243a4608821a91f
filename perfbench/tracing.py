"""Span tracing of the robustpca layers, installed from outside the package.

``Tracer.install`` replaces the package's public functions and the hot class
methods with wrappers that record a span per call: name, start, end, parent
and the running count of stream rows drawn. A function bound into another
module by ``from .x import f`` is replaced there too, by identity, so every
call site is seen. Nothing is installed unless a traced run asks for it, and
``uninstall`` puts the originals back.

Spans stay in memory; ``layer_metrics`` folds them into ``module.metric``
numbers at the end of the run and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Modules whose public functions are wrapped. ``contamination`` and ``oracle``
# run outside the solves (input generation, output checks) and are timed by
# the benchmark directly; ``cli`` is not called.
TRACED_MODULES = ("sources", "core", "linops", "estimators", "filtering",
                  "certificate", "driver", "streaming")
EXTRA_FUNCTIONS = {"driver": ("drive",)}
CLASS_METHODS = {
    ("sources", "SampleSource"): ("draw_labeled",),
    ("core", "FilterStack"): ("weights",),
    ("linops", "SecondMomentOp"): ("__init__", "matvec"),
}
SUITES = (("driver", "BatchEstimators"), ("streaming", "MinibatchEstimators"))

# Streamed rows are credited to the innermost enclosing stage.
STAGES = ("prologue", "cert_reference_chain", "cert_candidate_chain",
          "cert_trim_quantile", "cert_mom", "driver_direction",
          "filter_quantile", "filter_means")
_CERT_STAGES = ("cert_candidate_chain", "cert_trim_quantile", "cert_mom",
                "cert_reference_chain")
_STAGE_OF = {
    "streaming.MinibatchEstimators.prologue": lambda outer: "prologue",
    # The candidate chain is the certificate's residual: its power chain and
    # the minibatch that scores the candidate's Rayleigh quotient.
    "certificate.sample_top_eigenvector_streaming": lambda outer: "cert_candidate_chain",
    "linops.approx_power_iteration": lambda outer: "cert_reference_chain",
    "estimators.streaming_quantile":
        lambda outer: "cert_trim_quantile" if outer in _CERT_STAGES else outer,
    "estimators.stream_mean_estimate":
        lambda outer: "cert_mom" if outer in _CERT_STAGES else outer,
    "streaming.MinibatchEstimators.direction": lambda outer: "driver_direction",
    "streaming.MinibatchEstimators.quantile_value": lambda outer: "filter_quantile",
    "streaming.MinibatchEstimators.sigma_trimmed": lambda outer: "filter_means",
    "streaming.MinibatchEstimators.mean_score": lambda outer: "filter_means",
}
UNATTRIBUTED = "unattributed"

# Span record fields.
NAME, START, END, PARENT, ROWS0, ROWS1 = range(6)


class Tracer:
    def __init__(self, rp):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stage_rows: dict[str, int] = defaultdict(int)
        self.rows = 0
        self._stack: list[int] = []
        self._stages: list[str] = []
        self._draw_depth = 0
        self._last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self._typed_errors = {
            rp.DegenerateStateError: "errors.degenerate",
            rp.StreamExhaustedError: "errors.stream_exhausted",
            rp.FilterLoopError: "errors.filter_loop",
        }

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method."""
        mods = {name: sys.modules[f"robustpca.{name}"] for name in TRACED_MODULES}
        originals: dict[int, tuple[object, str]] = {}
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(EXTRA_FUNCTIONS.get(short, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, f"{short}.{attr}")
        self.originals = {name: fn for fn, name in originals.values()}
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        # Replace by identity in every robustpca namespace, so functions bound
        # with ``from .x import f`` are traced at their call sites as well.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "robustpca" or modname.startswith("robustpca.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and originals[id(val)][0] is val:
                    self._patch(mod, attr, wrappers[id(val)])

        methods = dict(CLASS_METHODS)
        for short, cls_name in SUITES:
            cls = getattr(mods[short], cls_name)
            methods[(short, cls_name)] = tuple(
                a for a, v in vars(cls).items()
                if inspect.isfunction(v) and not a.startswith("_"))
        for (short, cls_name), attrs in methods.items():
            cls = getattr(mods[short], cls_name)
            for attr in attrs:
                self._patch(cls, attr, self._wrap(vars(cls)[attr],
                                                  f"{short}.{cls_name}.{attr}"))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _patch(self, obj, attr, new) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        stages = self._stages
        clock = time.perf_counter
        stage_of = _STAGE_OF.get(name)
        after = _AFTER.get(name)
        is_draw = name == "sources.SampleSource.draw_labeled"
        sig = inspect.signature(fn) if name in _BIND else None
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.rows, 0]
            spans.append(rec)
            stack.append(idx)
            if stage_of is not None:
                stages.append(stage_of(stages[-1] if stages else UNATTRIBUTED))
            if is_draw:
                tracer._draw_depth += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(exc)
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if stage_of is not None:
                    stages.pop()
                if is_draw:
                    tracer._draw_depth -= 1
                rec[ROWS1] = tracer.rows
            if is_draw and tracer._draw_depth == 0:
                tracer._credit_rows(args[1] if len(args) > 1 else kwargs["k"])
                rec[ROWS1] = tracer.rows
            if after is not None:
                bound = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                after(tracer, args, bound, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _credit_rows(self, k: int) -> None:
        stage = self._stages[-1] if self._stages else UNATTRIBUTED
        self.stage_rows[stage] += int(k)
        self.rows += int(k)
        self.counts["sources.draw_calls"] += 1

    def _note_error(self, exc: BaseException) -> None:
        # An error passes the wrappers it propagates through one after
        # another, so comparing with the last one seen counts it once.
        if exc is self._last_error:
            return
        self._last_error = exc
        for cls, key in self._typed_errors.items():
            if isinstance(exc, cls):
                self.counts[key] += 1
                return

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers from the recorded spans and counters."""
        n = len(self.spans)
        names = [s[NAME] for s in self.spans]
        dur = np.array([s[END] - s[START] for s in self.spans])
        parent = np.array([s[PARENT] for s in self.spans], dtype=np.int64)
        rows_in = np.array([s[ROWS1] - s[ROWS0] for s in self.spans], dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        self_by = defaultdict(float)
        total_by = defaultdict(float)
        calls_by = defaultdict(int)
        rows_by = defaultdict(int)
        for i, nm in enumerate(names):
            self_by[nm] += self_t[i]
            calls_by[nm] += 1
            # Inclusive time and rows count only the outermost span of a name,
            # so recursion (a budgeted source drawing from its inner source)
            # is not counted twice.
            p = parent[i]
            if p < 0 or names[p] != nm:
                total_by[nm] += dur[i]
                rows_by[nm] += int(rows_in[i])

        def in_ancestry(i: int, target: str) -> bool:
            p = parent[i]
            while p >= 0:
                if names[p] == target:
                    return True
                p = parent[p]
            return False

        ref_batch_s = sum(dur[i] for i, nm in enumerate(names)
                          if nm == "linops.power_iteration"
                          and in_ancestry(i, "certificate.sample_top_eigenvector"))

        c = self.counts
        bs = "driver.BatchEstimators."
        ms = "streaming.MinibatchEstimators."
        cert_b = "certificate.sample_top_eigenvector"
        cert_s = "certificate.sample_top_eigenvector_streaming"
        attempts = calls_by[cert_b] + calls_by[cert_s]
        weighed = c["core.weights_rows"]
        out = {
            "sources.draw_calls": c["sources.draw_calls"],
            "sources.rows": float(self.rows),
            "sources.self_s": self_by["sources.SampleSource.draw_labeled"],
            "core.weights_calls": float(calls_by["core.FilterStack.weights"]),
            "core.weights_rows": weighed,
            "core.weights_entry_rows": c["core.weights_entry_rows"],
            "core.keep_fraction": c["core.weights_kept"] / weighed if weighed else 0.0,
            "core.weights_self_s": self_by["core.FilterStack.weights"],
            "linops.matvec_calls": float(calls_by["linops.SecondMomentOp.matvec"]),
            "linops.matvec_rows": c["linops.matvec_rows"],
            "linops.matvec_bytes": c["linops.matvec_bytes"],
            "linops.matvec_self_s": self_by["linops.SecondMomentOp.matvec"],
            "linops.op_builds": float(calls_by["linops.SecondMomentOp.__init__"]),
            "linops.op_build_bytes": c["linops.op_build_bytes"],
            "linops.op_build_self_s": self_by["linops.SecondMomentOp.__init__"],
            "linops.stream_power_calls": float(calls_by["linops.streamed_power_apply"]),
            "linops.stream_power_samples": float(rows_by["linops.streamed_power_apply"]),
            "linops.stream_power_self_s": self_by["linops.streamed_power_apply"],
            "linops.collapse_retries": c["linops.collapse_retries"],
            "estimators.quantile_calls": float(calls_by["estimators.weighted_quantile"]
                                               + calls_by["estimators.streaming_quantile"]),
            "estimators.quantile_scores": c["estimators.quantile_scores"],
            "estimators.quantile_self_s": (self_by["estimators.weighted_quantile"]
                                           + self_by["estimators.streaming_quantile"]),
            "estimators.mom_calls": float(calls_by["estimators.stream_mean_estimate"]),
            "estimators.mom_samples": float(rows_by["estimators.stream_mean_estimate"]),
            "estimators.mom_self_s": self_by["estimators.stream_mean_estimate"],
            "estimators.opnorm_self_s": self_by["estimators.opnorm_bracket"],
            "filtering.calls": float(calls_by["filtering.hard_thresholding_filter"]),
            "filtering.fired": c["filtering.fired"],
            "filtering.rounds": c["filtering.rounds"],
            "filtering.self_s": (self_by["filtering.hard_thresholding_filter"]
                                 + self_by["filtering.hard_thresholding_filter_batch"]),
            "certificate.attempts": float(attempts),
            "certificate.accepted": c["certificate.accepted"],
            "certificate.accept_ratio": c["certificate.accepted"] / attempts if attempts else 0.0,
            "certificate.total_s": total_by[cert_b] + total_by[cert_s],
            "certificate.self_s": self_by[cert_b] + self_by[cert_s],
            "certificate.samples": float(rows_by[cert_s]),
            "certificate.ref_samples": float(rows_by["linops.approx_power_iteration"]),
            "certificate.ref_total_s": ref_batch_s + total_by["linops.approx_power_iteration"],
            "driver.iterations": float(calls_by[bs + "certificate"] + calls_by[ms + "certificate"]),
            "driver.filters_created": c["driver.filters_created"],
            "driver.score_self_s": self_by[bs + "start_iteration"] + self_by[ms + "start_iteration"],
            "driver.register_self_s": self_by[bs + "register_entry"] + self_by[ms + "register_entry"],
            "driver.direction_total_s": total_by[bs + "direction"],
            "driver.self_s": self_by["driver.drive"],
            "streaming.ledger_peak_scalars": c["streaming.ledger_peak_scalars"],
            "streaming.direction_total_s": total_by[ms + "direction"],
            "streaming.mean_total_s": total_by[ms + "sigma_trimmed"] + total_by[ms + "mean_score"],
            "streaming.self_s": self_by["streaming.streaming_robust_pca"],
            "errors.degenerate": c["errors.degenerate"],
            "errors.stream_exhausted": c["errors.stream_exhausted"],
            "errors.filter_loop": c["errors.filter_loop"],
        }
        for stage in STAGES + (UNATTRIBUTED,):
            out[f"stages.{stage}"] = float(self.stage_rows[stage])
        out["trace.wrapped_calls"] = float(n)
        return out

    def dump(self, fh) -> None:
        """Write the spans as JSON: one [name, start, end, parent] per span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[s[NAME], round(s[START] - t0, 9),
                              round(s[END] - t0, 9), s[PARENT]] for s in self.spans]},
                  fh, separators=(",", ":"))


# -- per-call counters, run after a wrapped call returns -------------------------
# Each takes (tracer, positional args, bound arguments or None, result).

def _after_weights(tr, args, _bound, result):
    stack, pts = args[0], args[1]
    rows = pts.shape[0] if getattr(pts, "ndim", 1) == 2 else 1
    tr.counts["core.weights_rows"] += rows
    tr.counts["core.weights_entry_rows"] += rows * (1 + len(stack.entries))
    tr.counts["core.weights_kept"] += int(np.count_nonzero(result))


def _after_matvec(tr, args, _bound, _result):
    op = args[0]
    tr.counts["linops.matvec_rows"] += op.surviving
    tr.counts["linops.matvec_bytes"] += 2 * op.surviving * op.dim * 8


def _after_op_build(tr, args, _bound, _result):
    op = args[0]
    tr.counts["linops.op_build_bytes"] += op.surviving * op.dim * 8


def _after_power_direction(tr, _args, _bound, result):
    if result is None:
        tr.counts["linops.collapse_retries"] += 1


def _after_stream_power(tr, _args, _bound, result):
    nrm = float(np.linalg.norm(result[0]))
    if nrm == 0.0 or not math.isfinite(nrm):
        tr.counts["linops.collapse_retries"] += 1


def _after_weighted_quantile(tr, _args, bound, _result):
    tr.counts["estimators.quantile_scores"] += np.size(bound["scores"])


def _after_streaming_quantile(tr, _args, bound, _result):
    # The unwrapped block-size rule, so that sizing the block opens no span.
    block_size = tr.originals["estimators.streaming_quantile_samples"]
    tr.counts["estimators.quantile_scores"] += block_size(
        bound["tail"], bound["fail_prob"], bound["c_q"])


def _after_filter(tr, _args, _bound, outcome):
    tr.counts["filtering.rounds"] += outcome.rounds
    if outcome.new_entry is not None:
        tr.counts["filtering.fired"] += 1


def _after_certificate(tr, _args, _bound, result):
    if result.accepted:
        tr.counts["certificate.accepted"] += 1


_AFTER = {
    "core.FilterStack.weights": _after_weights,
    "linops.SecondMomentOp.matvec": _after_matvec,
    "linops.SecondMomentOp.__init__": _after_op_build,
    "linops.power_direction": _after_power_direction,
    "linops.streamed_power_apply": _after_stream_power,
    "estimators.weighted_quantile": _after_weighted_quantile,
    "estimators.streaming_quantile": _after_streaming_quantile,
    "filtering.hard_thresholding_filter": _after_filter,
    "certificate.sample_top_eigenvector": _after_certificate,
    "certificate.sample_top_eigenvector_streaming": _after_certificate,
}
_BIND = {"estimators.weighted_quantile", "estimators.streaming_quantile"}
