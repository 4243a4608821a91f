import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustpca
from robustpca import (AdversaryKind, AdversarySpec, AlgoConfig, InlierFamily,
                       InlierSpec, load_dataset)
from robustpca.cli import ConfigError, ExperimentConfig, main, run_experiment

NAN = float("nan")


def minimal_config(**overrides):
    raw = {
        "version": 1,
        "inlier": {"dim": 5, "diag": 1.0, "spikes": [[0, 4.0]]},
        "adversary": {"kind": "none", "rate": 0.0},
        "algo": {"eps": 0.0, "gamma": 0.05},
        "mode": "BATCH",
        "baselines": ["NAIVE_PCA"],
        "seeds": [0],
        "n": 500,
    }
    raw.update(overrides)
    return raw


def test_minimal_clean_run_two_rows():
    config = ExperimentConfig.from_dict(minimal_config())
    report = run_experiment(config)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["approx_ratio"] >= 0.9
        assert 0.0 <= row["approx_ratio"] <= 1.0 + 1e-9


def test_contaminated_run_separates_methods():
    raw = minimal_config(
        inlier={"dim": 12, "diag": 1.0, "spikes": [[0, 9.0]]},
        adversary={"kind": "orthogonal_spike", "rate": 0.05, "spike_axis": 1},
        algo={"eps": 0.05, "gamma": 1.0},
        baselines=["NAIVE_PCA", "ORACLE"],
        seeds=[0, 1, 2],
        n=8000,
    )
    report = run_experiment(ExperimentConfig.from_dict(raw))
    agg = report.aggregates
    assert agg["robust_batch"]["median_ratio"] >= 0.85
    assert agg["naive_pca"]["median_ratio"] <= 0.3
    assert agg["oracle"]["median_ratio"] >= 0.95


def test_unknown_keys_rejected():
    for raw in (minimal_config(bogus=1),
                minimal_config(inlier={"dim": 5, "wat": 2}),
                minimal_config(adversary={"kind": "none", "wat": 2}),
                minimal_config(algo={"eps": 0.0, "wat": 2}),
                # Not a field of AdversarySpec.
                minimal_config(adversary={"inspect": 5}),
                minimal_config(adversary=[]),
                [minimal_config()],
                "config"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_config_sets_every_field():
    # Each section expands into its dataclass, so every field is a config
    # key; none may go missing.
    inlier = {"dim": 6, "diag": 2.0, "spikes": [[1, 3.0]],
              "family": "bounded_uniform_spheremix"}
    adversary = {"kind": "schatten_blind", "rate": 0.1, "spike_axis": 2,
                 "spike_multiplier": 3.0, "n_directions": 2, "hide_boost": 0.25,
                 "projection_rank": 2}
    algo = {"eps": 0.01, "gamma": 0.3, "t_end": 7, "max_resident_scalars": 10**6}
    top = {"mode": "BOTH", "baselines": ["ORACLE"], "seeds": [3, 4], "n": 700,
           "stream_budget": 9000, "r_radius": 1.5}
    config = ExperimentConfig.from_dict(
        {"version": 1, "inlier": inlier, "adversary": adversary, "algo": algo, **top})
    assert set(inlier) == _fields(InlierSpec)
    assert set(adversary) == _fields(AdversarySpec)
    assert set(algo) == _fields(AlgoConfig)
    assert set(top) | {"inlier", "adversary", "algo"} == _fields(ExperimentConfig)
    assert config.inlier == InlierSpec(
        **{**inlier, "family": InlierFamily.BOUNDED_UNIFORM_SPHEREMIX})
    assert config.adversary == AdversarySpec(
        **{**adversary, "kind": AdversaryKind.SCHATTEN_BLIND})
    assert config.algo == AlgoConfig(**algo)
    assert [getattr(config, key) for key in top] == [
        "BOTH", ("ORACLE",), (3, 4), 700, 9000, 1.5]


def test_config_loads_without_jsonschema():
    # The dataclasses are the config's only validator, so loading a config
    # needs no schema package.
    code = ("import json, sys; sys.modules['jsonschema'] = None; "
            "from robustpca.cli import ExperimentConfig; "
            "ExperimentConfig.from_dict(json.loads(sys.argv[1]))")
    src = Path(robustpca.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code, json.dumps(minimal_config())],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)


def test_invalid_eps_cites_constraint(tmp_path, capsys):
    raw = minimal_config(algo={"eps": 0.7})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code = main(["run", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "20*eps <= gamma" in err


def test_missing_n_for_batch():
    raw = minimal_config()
    del raw["n"]
    with pytest.raises(ConfigError, match="require 'n'"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("overrides, drop_n", [
    # Baselines need a finite dataset even when no batch solve runs.
    ({"mode": "STREAMING", "stream_budget": 100_000}, True),
    # Spec values the spec dataclasses reject.
    ({"inlier": {"dim": 5, "diag": 1.0, "spikes": [[9, 1.0]]}}, False),
    ({"inlier": {"dim": 5, "diag": 1.0, "spikes": [[0.7, 4.0]]}}, False),
    # A spike takes an axis, not a direction vector, so Sigma stays diagonal.
    ({"inlier": {"dim": 5, "diag": 1.0, "spikes": [[[1, 1, 0, 0, 0], 8.0]]}}, False),
    ({"adversary": {"kind": "multi_direction_hide", "rate": 0.1,
                    "hide_boost": -1.0}}, False),
    # numpy would wrap -1 to axis d - 1; 7 would raise IndexError mid-run.
    ({"adversary": {"kind": "orthogonal_spike", "rate": 0.05,
                    "spike_axis": -1}}, False),
    ({"adversary": {"kind": "orthogonal_spike", "rate": 0.05,
                    "spike_axis": 7}}, False),
    # schatten_blind keeps the top projection_rank axes clean; it needs one
    # to keep and one to hide.
    ({"adversary": {"kind": "schatten_blind", "rate": 0.1}}, False),
    ({"adversary": {"kind": "schatten_blind", "rate": 0.1,
                    "projection_rank": 0}}, False),
    ({"adversary": {"kind": "schatten_blind", "rate": 0.1,
                    "projection_rank": 5}}, False),
    ({"adversary": {"kind": "schatten_blind", "rate": 0.1,
                    "projection_rank": 9}}, False),
    # Algorithm values no solve can use: a zero schedule length divides by
    # zero. The chain and threshold constants c_pi, c_cert and c_acc are
    # derived now, not set, the stream minibatch is a constant and the loop
    # has one level, so a config that still names one of them, batch_size
    # or k_end, is an unknown key; so is boost_reps, as a solve runs the
    # loop once.
    ({"algo": {"eps": 0.0, "gamma": 0.05, "t_end": 0}}, False),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "k_end": 0}}, False),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "boost_reps": 2}}, False),
    ({"mode": "STREAMING", "stream_budget": 100_000, "baselines": [],
      "algo": {"eps": 0.0, "gamma": 0.05, "batch_size": 0}}, True),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "c_outer": 0}}, False),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "c_inner": -1.0}}, False),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "max_resident_scalars": -1}}, False),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "c_pi": 0}}, False),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "c_cert": -1.0}}, False),
    ({"algo": {"eps": 0.0, "gamma": 0.05, "c_acc": NAN}}, False),
    # A NaN spec value makes NaN rows, which every filter drops: the run
    # would report clean-data results for a contaminated config.
    ({"mode": "STREAMING", "stream_budget": 100_000, "baselines": [],
      "adversary": {"kind": "orthogonal_spike", "rate": 0.05,
                    "spike_multiplier": NAN}}, True),
    ({"adversary": {"kind": "multi_direction_hide", "rate": 0.1,
                    "hide_boost": NAN}}, False),
    ({"inlier": {"dim": 5, "diag": NAN}}, False),
    ({"inlier": {"dim": 5, "diag": 1.0, "spikes": [[0, NAN]]}}, False),
    ({"mode": "BOTH", "stream_budget": 100_000, "r_radius": NAN}, False),
    # Integer-valued floats would fail mid-run in range() or a seed.
    ({"algo": {"eps": 0.0, "gamma": 0.05, "t_end": 3.0}}, False),
    ({"n": 500.0}, False),
    ({"seeds": [0.0]}, False),
], ids=["streaming_baselines_without_n",
        "spike_axis_out_of_range", "fractional_spike_axis", "vector_spike_direction",
        "negative_hide_boost",
        "adversary_spike_axis_negative", "adversary_spike_axis_past_dim",
        "schatten_blind_without_rank", "schatten_blind_rank_zero",
        "schatten_blind_rank_at_dim", "schatten_blind_rank_past_dim",
        "t_end_zero", "k_end_zero", "boost_reps_two", "batch_size_zero", "c_outer_zero",
        "c_inner_negative", "max_resident_scalars_negative", "c_pi_zero",
        "c_cert_negative", "c_acc_nan", "spike_multiplier_nan", "hide_boost_nan",
        "inlier_diag_nan", "spike_variance_nan", "r_radius_nan",
        "t_end_integer_valued_float", "n_integer_valued_float",
        "seed_integer_valued_float"])
def test_config_rejected_before_any_solve(tmp_path, capsys, overrides, drop_n):
    raw = minimal_config(**overrides)
    if drop_n:
        del raw["n"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "r.json")]) == 2
    assert "config error" in capsys.readouterr().err


def _without(*keys):
    raw = minimal_config()
    for key in keys:
        del raw[key]
    return raw


def _algo(**fields):
    return {"algo": {"eps": 0.0, "gamma": 0.05, **fields}}


@pytest.mark.parametrize("raw", [
    minimal_config(version=2),
    minimal_config(version=True),
    _without("inlier"),
    _without("algo"),
    _without("seeds"),
    minimal_config(algo={"gamma": 0.05}),
    minimal_config(inlier={"diag": 1.0}),
    minimal_config(bogus=1),
    minimal_config(inlier={"dim": 5, "wat": 2}),
    minimal_config(adversary={"kind": "none", "wat": 2}),
    minimal_config(**_algo(wat=2)),
    minimal_config(mode="FAST"),
    minimal_config(baselines=["MAGIC"]),
    minimal_config(inlier={"dim": 5, "family": "cauchy"}),
    minimal_config(adversary={"kind": "teleport"}),
    minimal_config(**_algo(t_end=True)),
    minimal_config(seeds=[True]),
    minimal_config(seeds=[]),
    minimal_config(n=500.5),
    minimal_config(n=0),
    minimal_config(**_algo(t_end=2.5)),
    minimal_config(mode="STREAMING", baselines=[], stream_budget=0),
    minimal_config(adversary={"kind": "orthogonal_spike", "rate": -0.1}),
    minimal_config(adversary={"kind": "orthogonal_spike", "rate": 0.5}),
    minimal_config(r_radius=0.5),
    minimal_config(adversary={"kind": "multi_direction_hide", "rate": 0.1,
                              "n_directions": 0}),
    [minimal_config()],
    minimal_config(adversary=[]),
    minimal_config(inlier=[["dim", 5]]),
], ids=["version_2", "version_true", "missing_inlier", "missing_algo",
        "missing_seeds", "missing_algo_eps", "missing_inlier_dim",
        "unknown_top_level_key", "unknown_inlier_key", "unknown_adversary_key",
        "unknown_algo_key", "bad_mode", "bad_baseline", "bad_family", "bad_kind",
        "bool_count", "bool_seed", "no_seeds", "fractional_n", "n_zero",
        "fractional_t_end", "stream_budget_zero", "rate_negative", "rate_half",
        "r_radius_below_one", "n_directions_zero", "top_level_list",
        "adversary_list", "inlier_pairs"])
def test_malformed_config_exits_2(tmp_path, capsys, raw):
    # hide_boost -1 is an id of test_config_rejected_before_any_solve.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "r.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_run_writes_reports_and_is_deterministic(tmp_path, capsys):
    raw = minimal_config(seeds=[0, 1])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    hashes = []
    for _ in range(2):
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--deterministic"])
        assert code == 0
        text = capsys.readouterr().out
        hashes.append([l for l in text.splitlines() if "determinism_hash" in l][0])
    assert hashes[0] == hashes[1]
    body = json.loads(out.read_text())
    assert len(body["rows"]) == 4
    csv_text = out.with_suffix(".csv").read_text()
    assert csv_text.splitlines()[0].startswith("seed,method,approx_ratio")


def test_report_rows_validate_against_row_schema():
    config = ExperimentConfig.from_dict(minimal_config())
    report = run_experiment(config)
    for row in report.rows:
        assert set(row) == {"seed", "method", "approx_ratio", "status",
                            "wall_time", "filters_created", "samples_consumed",
                            "peak_resident_scalars"}
        assert isinstance(row["seed"], int)
        assert isinstance(row["method"], str)


def test_cli_gen_writes_labeled_dataset(tmp_path):
    raw = minimal_config(
        adversary={"kind": "orthogonal_spike", "rate": 0.1, "spike_axis": 1},
        algo={"eps": 0.05, "gamma": 1.0},
        n=200,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "data.txt"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
    pts, labels = load_dataset(out)
    assert pts.shape == (200, 5)
    assert np.count_nonzero(~labels) == 20


def test_cli_gen_has_no_dim_cap(tmp_path):
    # The generators read the spec's variances, so no d x d spectrum caps d.
    raw = minimal_config(
        inlier={"dim": 300, "diag": 1.0, "spikes": [[0, 9.0]]},
        adversary={"kind": "multi_direction_hide", "rate": 0.1},
        n=50,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "data.txt"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
    pts, labels = load_dataset(out)
    assert pts.shape == (50, 300)
    assert np.count_nonzero(~labels) == 5


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ROBUSTPCA_OUT_DIR", str(tmp_path / "outdir"))
    raw = minimal_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", "rep.json"]) == 0
    assert (tmp_path / "outdir" / "rep.json").exists()


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    (tmp_path / "latin1.json").write_bytes(b'{"version": "\xe9"}')
    for name in ("broken.json", "latin1.json", "missing.json", "."):
        assert main(["run", "--config", str(tmp_path / name)]) == 2
        assert "config error" in capsys.readouterr().err


def test_runtime_failure_exits_1(tmp_path, capsys):
    # A valid config whose memory budget is below what the stream solve
    # books: only the solve can show it, so the run fails with exit 1.
    raw = minimal_config(
        algo={"eps": 0.02, "gamma": 0.4, "max_resident_scalars": 100},
        mode="STREAMING",
        baselines=[],
        stream_budget=1_000_000,
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "r.json")]) == 1
    assert "run error: MemoryBudgetError" in capsys.readouterr().err


@pytest.mark.parametrize("mode, methods", [
    ("STREAMING", ["robust_streaming"]),
    ("BOTH", ["robust_batch", "robust_streaming"]),
], ids=["STREAMING", "BOTH"])
def test_streaming_mode_rows(mode, methods):
    raw = minimal_config(
        inlier={"dim": 6, "diag": 1.0, "spikes": [[0, 4.0]]},
        algo={"eps": 0.02, "gamma": 0.4},
        mode=mode,
        baselines=[],
        stream_budget=20_000_000,
        r_radius=1.5,
    )
    if mode == "STREAMING":
        del raw["n"]
    report = run_experiment(ExperimentConfig.from_dict(raw))
    assert [row["method"] for row in report.rows] == methods
    assert all(row["approx_ratio"] >= 0.8 for row in report.rows)
    stream_row = report.rows[-1]  # rows sort by method
    assert stream_row["samples_consumed"] > 0
    assert stream_row["peak_resident_scalars"] > 0

