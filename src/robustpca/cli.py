"""Experiment harness: seeded generator + algorithm comparisons, reports, CLI.

Configs are versioned JSON validated against a strict schema (unknown keys
rejected). Reports come out as JSON (full) and CSV (tabular rows); the
determinism hash covers everything except wall-clock columns.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from .contamination import (
    AdversaryKind,
    AdversarySpec,
    InlierFamily,
    InlierSpec,
    gen_inliers,
    strong_contaminate,
    tv_contaminated_source,
)
from .core import AlgoConfig, WeightedDataset, rng_stream, save_dataset
from .driver import naive_pca, robust_pca
from .linops import SecondMomentOp, power_iteration
from .oracle import metric_approx_ratio
from .streaming import streaming_robust_pca

__all__ = ["ExperimentConfig", "ExperimentReport", "run_experiment",
           "run_scaling_bench", "main", "CONFIG_SCHEMA"]

OUTPUT_DIR_ENV = "ROBUSTPCA_OUT_DIR"

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "inlier", "algo", "seeds"],
    "properties": {
        "version": {"const": 1},
        "inlier": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dim"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "diag": {"oneOf": [{"type": "number"},
                                   {"type": "array", "items": {"type": "number"}}]},
                "spikes": {"type": "array",
                           "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                     "items": {"type": "number"}}},
                "family": {"enum": ["gaussian", "bounded_uniform_spheremix"]},
            },
        },
        "adversary": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["none", "orthogonal_spike",
                                  "multi_direction_hide", "schatten_blind"]},
                "rate": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.5},
                "spike_axis": {"type": ["integer", "null"]},
                "spike_multiplier": {"type": "number"},
                "n_directions": {"type": "integer", "minimum": 1},
                "hide_boost": {"type": "number"},
                "projection_rank": {"type": ["integer", "null"]},
            },
        },
        "algo": {
            "type": "object",
            "additionalProperties": False,
            "required": ["eps"],
            "properties": {
                "eps": {"type": "number"},
                "gamma": {"type": ["number", "null"]},
                "boost_reps": {"type": "integer", "minimum": 1},
                "t_end": {"type": ["integer", "null"]},
                "k_end": {"type": ["integer", "null"]},
                "c_outer": {"type": "number"},
                "c_inner": {"type": "number"},
                "c_acc": {"type": "number"},
                "batch_size": {"type": ["integer", "null"]},
                "max_resident_scalars": {"type": ["integer", "null"]},
            },
        },
        "mode": {"enum": ["BATCH", "STREAMING", "BOTH"]},
        "baselines": {"type": "array", "items": {"enum": ["NAIVE_PCA", "ORACLE"]}},
        "seeds": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "n": {"type": "integer", "minimum": 1},
        "stream_budget": {"type": "integer", "minimum": 1},
        "r_radius": {"type": "number", "minimum": 1},
        "output_path": {"type": "string"},
    },
}


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
    output_path: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise ConfigError(f"config field {path}: {exc.message}") from exc
        inl = raw["inlier"]
        inlier = InlierSpec(
            dim=inl["dim"],
            diag=tuple(inl["diag"]) if isinstance(inl.get("diag", 1.0), list)
            else inl.get("diag", 1.0),
            spikes=tuple((int(a), float(b)) for a, b in inl.get("spikes", [])),
            family=InlierFamily(inl.get("family", "gaussian")),
        )
        advraw = raw.get("adversary", {})
        adversary = AdversarySpec(
            kind=AdversaryKind(advraw.get("kind", "none")),
            rate=advraw.get("rate", 0.0),
            spike_axis=advraw.get("spike_axis"),
            spike_multiplier=advraw.get("spike_multiplier", 2.0),
            n_directions=advraw.get("n_directions", 3),
            hide_boost=advraw.get("hide_boost", 0.5),
            projection_rank=advraw.get("projection_rank"),
        )
        try:
            algo = AlgoConfig(**raw["algo"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field algo: {exc}") from exc
        mode = raw.get("mode", "BATCH")
        if mode in ("BATCH", "BOTH") and "n" not in raw:
            raise ConfigError("batch modes require 'n'")
        if mode in ("STREAMING", "BOTH") and "stream_budget" not in raw:
            raise ConfigError("streaming modes require 'stream_budget'")
        return cls(
            inlier=inlier, adversary=adversary, algo=algo, mode=mode,
            baselines=tuple(raw.get("baselines", [])),
            seeds=tuple(raw.get("seeds", [0])),
            n=raw.get("n"), stream_budget=raw.get("stream_budget"),
            r_radius=raw.get("r_radius", 2.0),
            output_path=raw.get("output_path"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
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
    if u is None:  # FAILED runs carry no direction
        return 0.0
    return min(metric_approx_ratio(u, sigma), 1.0 + 1e-9)


def _run_seed(config: ExperimentConfig, seed: int) -> list[dict]:
    sigma = config.inlier.covariance()
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
        gen = rng_stream(seed, 1001)
        points, labels = gen_inliers(config.inlier, config.n, gen)
        points, labels = strong_contaminate(points, labels, config.adversary,
                                            sigma, gen)

    if config.mode in ("BATCH", "BOTH"):
        ds = WeightedDataset(points, inlier_labels=labels)
        t0 = time.perf_counter()
        res = robust_pca(ds, config.algo.eps, config.algo.gamma,
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
            time.perf_counter() - t0, filters=stats.filters_stored,
            samples=stats.samples_consumed, peak=stats.peak_resident_scalars)

    if "NAIVE_PCA" in config.baselines:
        t0 = time.perf_counter()
        u, _ = naive_pca(points, rng_stream(seed, 1003))
        row("naive_pca", _ratio(u, sigma), "baseline", time.perf_counter() - t0)

    if "ORACLE" in config.baselines:
        # Ground-truth-aware reference: top direction of the true inliers only.
        if config.inlier.dim > 256:
            raise ConfigError("ORACLE baseline requires dim <= 256")
        t0 = time.perf_counter()
        op = SecondMomentOp(points[labels])
        u, _ = power_iteration(op, 256, rng_stream(seed, 1004))
        row("oracle", _ratio(u, sigma), "baseline", time.perf_counter() - t0)

    return rows


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    report = ExperimentReport()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rows in pool.map(_run_seed, [config] * len(config.seeds), config.seeds):
                report.rows.extend(rows)
    else:
        for seed in config.seeds:
            report.rows.extend(_run_seed(config, seed))
    report.finalize()
    return report


def run_scaling_bench(config: ExperimentConfig, grid: list[tuple[int, int]],
                      reps: int = 5) -> list[dict]:
    """Median wall time per (n, d) cell plus doubling ratios vs the base cell."""
    cells = []
    for n, d in grid:
        spec = InlierSpec(dim=d, diag=1.0,
                          spikes=tuple((ax, add) for ax, add in config.inlier.spikes
                                       if ax < d))
        sigma = spec.covariance()
        times = []
        for rep in range(reps):
            gen = rng_stream(config.seeds[0] + rep, 2001, n, d)
            pts, labels = gen_inliers(spec, n, gen)
            pts, labels = strong_contaminate(pts, labels, config.adversary, sigma, gen)
            ds = WeightedDataset(pts)
            t0 = time.perf_counter()
            res = robust_pca(ds, config.algo.eps, config.algo.gamma,
                             config=config.algo, rng_seed=config.seeds[0] + rep)
            times.append(time.perf_counter() - t0)
            ratio = _ratio(res.u, sigma)
        cells.append({"n": n, "d": d, "median_time": statistics.median(times),
                      "approx_ratio": ratio})
    base = cells[0]
    for cell in cells:
        cell["time_vs_base"] = cell["median_time"] / base["median_time"]
        cell["work_vs_base"] = (cell["n"] * cell["d"]) / (base["n"] * base["d"])
    return cells


def _parse_grid(spec: str) -> list[tuple[int, int]]:
    cells = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        n_str, d_str = part.split(",")
        cells.append((int(n_str), int(d_str)))
    if not cells:
        raise ConfigError(f"empty grid spec {spec!r}")
    return cells


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
                       help="single-threaded seeds, print the determinism hash")
    p_run.add_argument("--workers", type=int, default=1)

    p_bench = sub.add_parser("bench", help="scaling benchmark over an (n,d) grid")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--grid", required=True,
                         help="semicolon-separated n,d cells, e.g. '20000,25;40000,25'")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen", help="write a labeled dataset file")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    try:
        config = ExperimentConfig.from_file(args.config)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            workers = 1 if args.deterministic else max(1, args.workers)
            report = run_experiment(config, workers=workers)
            out = _resolve_out(args.out or config.output_path, "report.json")
            out.write_text(report.to_json())
            out.with_suffix(".csv").write_text(report.to_csv())
            if args.deterministic:
                print(f"determinism_hash {report.determinism_hash()}")
            for method, agg in report.aggregates.items():
                print(f"{method}: median_ratio={agg['median_ratio']:.4f} "
                      f"iqr={agg['iqr']:.4f} n={agg['count']}")
            print(f"report written to {out}")
        elif args.command == "bench":
            cells = run_scaling_bench(config, _parse_grid(args.grid), reps=args.reps)
            out = _resolve_out(args.out, "bench.json")
            out.write_text(json.dumps(cells, indent=2))
            for cell in cells:
                print(f"n={cell['n']} d={cell['d']} median={cell['median_time']:.3f}s "
                      f"time_ratio={cell['time_vs_base']:.2f} work_ratio={cell['work_vs_base']:.2f}")
            print(f"bench written to {out}")
        else:
            gen = rng_stream(config.seeds[0], 1001)
            sigma = config.inlier.covariance()
            pts, labels = gen_inliers(config.inlier, config.n or 1000, gen)
            pts, labels = strong_contaminate(pts, labels, config.adversary, sigma, gen)
            out = _resolve_out(args.out, "dataset.txt")
            save_dataset(out, pts, labels)
            print(f"dataset written to {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report and signal exit 1
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
