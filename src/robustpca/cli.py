"""Experiment harness: seeded generator + algorithm comparisons, reports, CLI.

Configs are versioned JSON. Each section expands into its dataclass, which
rejects unknown keys and out-of-range values; a rejected config exits 2
before any solve, a failed run exits 1. Reports come out as JSON (full) and
CSV (tabular rows); the determinism hash covers everything except
wall-clock columns.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .contamination import (
    AdversaryKind,
    AdversarySpec,
    InlierFamily,
    InlierSpec,
    _outlier_bank,
    gen_inliers,
    metric_approx_ratio,
    strong_contaminate,
    tv_contaminated_source,
)
from .core import AlgoConfig, WeightedDataset, check_int, rng_stream, save_dataset
from .driver import naive_pca, robust_pca
from .linops import SecondMomentOp, power_iteration
from .streaming import streaming_robust_pca

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment", "main"]

OUTPUT_DIR_ENV = "ROBUSTPCA_OUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    inlier: InlierSpec
    adversary: AdversarySpec
    algo: AlgoConfig
    mode: str = "BATCH"
    baselines: tuple[str, ...] = ()
    seeds: tuple[int, ...] = (0,)
    n: int | None = None
    stream_budget: int | None = None
    r_radius: float = 2.0

    def __post_init__(self):
        # Each range check is written so that NaN fails it.
        if self.mode not in ("BATCH", "STREAMING", "BOTH"):
            raise ValueError(f"mode must be BATCH, STREAMING or BOTH, got {self.mode!r}")
        self.baselines, self.seeds = tuple(self.baselines), tuple(self.seeds)
        if not set(self.baselines) <= {"NAIVE_PCA", "ORACLE"}:
            raise ValueError(f"baselines must be NAIVE_PCA or ORACLE, got {self.baselines}")
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
        for seed in self.seeds:
            check_int("seed", seed, 0)
        check_int("n", self.n, 1, optional=True)
        check_int("stream_budget", self.stream_budget, 1, optional=True)
        if not 1 <= self.r_radius < math.inf:
            raise ValueError(f"r_radius must be finite and at least 1, got {self.r_radius}")
        if (self.mode in ("BATCH", "BOTH") or self.baselines) and self.n is None:
            raise ValueError("batch modes and baselines require 'n'")
        if self.mode in ("STREAMING", "BOTH") and self.stream_budget is None:
            raise ValueError("streaming modes require 'stream_budget'")
        if self.adversary.kind is not AdversaryKind.NONE and self.adversary.rate > 0:
            # The bank builder checks spike_axis and projection_rank against d.
            _outlier_bank(self.adversary, self.inlier)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Expand each section of a parsed config into its dataclass.

        Each dataclass checks its own fields, so an unknown key fails as an
        unexpected keyword and a bad value as that dataclass's ValueError;
        either becomes a ConfigError.
        """
        try:
            rest = {**raw}
            version = rest.pop("version")
            if type(version) is not int or version != 1:
                raise ValueError(f"version must be 1, got {version!r}")
            inl, algo = {**rest.pop("inlier")}, {**rest.pop("algo")}
            adv = {**rest.pop("adversary", {})}
            if "family" in inl:
                inl["family"] = InlierFamily(inl["family"])
            if "kind" in adv:
                adv["kind"] = AdversaryKind(adv["kind"])
            # A config must state eps and seeds, which the dataclasses default.
            eps, seeds = algo.pop("eps"), rest.pop("seeds")
            return cls(InlierSpec(**inl), AdversarySpec(**adv),
                       AlgoConfig(eps, **algo), seeds=seeds, **rest)
        except KeyError as exc:
            raise ConfigError(f"missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(raw)


ROW_FIELDS = ["seed", "method", "approx_ratio", "status", "wall_time",
              "filters_created", "samples_consumed", "peak_resident_scalars"]
TIMING_FIELDS = {"wall_time"}


@dataclass
class ExperimentReport:
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def finalize(self) -> None:
        self.rows.sort(key=lambda r: (r["method"], r["seed"]))
        by_method: dict[str, list[float]] = {}
        for row in self.rows:
            by_method.setdefault(row["method"], []).append(row["approx_ratio"])
        self.aggregates = {}
        for method, ratios in sorted(by_method.items()):
            ratios = sorted(ratios)
            q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else [ratios[0]] * 3
            self.aggregates[method] = {
                "median_ratio": statistics.median(ratios),
                "iqr": q[2] - q[0],
                "count": len(ratios),
            }

    def to_json(self) -> str:
        return json.dumps({"rows": self.rows, "aggregates": self.aggregates},
                          indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: row.get(k) for k in ROW_FIELDS})
        return buf.getvalue()

    def determinism_hash(self) -> str:
        scrubbed = [{k: v for k, v in row.items() if k not in TIMING_FIELDS}
                    for row in self.rows]
        blob = json.dumps(scrubbed, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _ratio(u: np.ndarray | None, sigma: np.ndarray) -> float:
    # sigma is the generating spectrum (``InlierSpec.variances``), scored in
    # O(d) without eigvalsh, so any inlier.dim is cheap to score.
    if u is None:  # FAILED runs carry no direction
        return 0.0
    return min(metric_approx_ratio(u, sigma), 1.0 + 1e-9)


def _batch_points(config: ExperimentConfig, seed: int, n: int):
    """n labeled inliers with the adversary's replacements, from stream (seed, 1001)."""
    gen = rng_stream(seed, 1001)
    points, labels = gen_inliers(config.inlier, n, gen)
    return strong_contaminate(points, labels, config.adversary, config.inlier, gen)


def _run_seed(config: ExperimentConfig, seed: int) -> list[dict]:
    sigma = config.inlier.variances()
    rows: list[dict] = []

    def row(method, ratio, status, wall, filters=None, samples=None, peak=None):
        rows.append({
            "seed": seed, "method": method, "approx_ratio": float(ratio),
            "status": status, "wall_time": float(wall),
            "filters_created": filters, "samples_consumed": samples,
            "peak_resident_scalars": peak,
        })

    points = labels = None
    if config.mode in ("BATCH", "BOTH") or config.baselines:
        points, labels = _batch_points(config, seed, config.n)

    if config.mode in ("BATCH", "BOTH"):
        t0 = time.perf_counter()
        res = robust_pca(WeightedDataset(points), config.algo.eps, config.algo.gamma,
                         config=config.algo, rng_seed=seed)
        row("robust_batch", _ratio(res.u, sigma), res.status.value,
            time.perf_counter() - t0, filters=res.filters_created)

    if config.mode in ("STREAMING", "BOTH"):
        src = tv_contaminated_source(config.inlier, config.adversary,
                                     rng_stream(seed, 1002))
        t0 = time.perf_counter()
        res, stats = streaming_robust_pca(
            src, config.algo.eps, config.algo.gamma, config.r_radius,
            config=config.algo, rng_seed=seed, max_samples=config.stream_budget)
        row("robust_streaming", _ratio(res.u, sigma), res.status.value,
            time.perf_counter() - t0, filters=res.filters_created,
            samples=stats.samples_consumed, peak=stats.peak_resident_scalars)

    if "NAIVE_PCA" in config.baselines:
        t0 = time.perf_counter()
        u, _ = naive_pca(points, rng_stream(seed, 1003))
        row("naive_pca", _ratio(u, sigma), "baseline", time.perf_counter() - t0)

    if "ORACLE" in config.baselines:
        # Ground-truth-aware reference: top direction of the true inliers only.
        t0 = time.perf_counter()
        op = SecondMomentOp(points[labels])
        u, _ = power_iteration(op, 256, rng_stream(seed, 1004))
        row("oracle", _ratio(u, sigma), "baseline", time.perf_counter() - t0)

    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport()
    for seed in config.seeds:
        report.rows.extend(_run_seed(config, seed))
    report.finalize()
    return report


def _resolve_out(path: str | None, default_name: str) -> Path:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if path is None:
        path = default_name
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="robustpca",
        description="Seeded experiments comparing robust and naive top-direction recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config and write a report")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--deterministic", action="store_true",
                       help="print the determinism hash")

    p_gen = sub.add_parser("gen", help="write a labeled dataset file")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            report = run_experiment(config)
            out = _resolve_out(args.out, "report.json")
            out.write_text(report.to_json())
            out.with_suffix(".csv").write_text(report.to_csv())
            if args.deterministic:
                print(f"determinism_hash {report.determinism_hash()}")
            for method, agg in report.aggregates.items():
                print(f"{method}: median_ratio={agg['median_ratio']:.4f} "
                      f"iqr={agg['iqr']:.4f} n={agg['count']}")
            print(f"report written to {out}")
        else:
            pts, labels = _batch_points(config, config.seeds[0], config.n or 1000)
            out = _resolve_out(args.out, "dataset.txt")
            save_dataset(out, pts, labels)
            print(f"dataset written to {out}")
    except Exception as exc:  # runtime failure: report and signal exit 1
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
