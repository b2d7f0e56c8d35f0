import csv
import inspect
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ecoprod import causal, cli, gbm, spectral, treeshap
from ecoprod import dataset as ds
from ecoprod.seeding import derive_seed

from test_causal import use_cpus


SYNTH_ARGS = ["--provinces", "14", "--complaints", "160", "--clusters", "3",
              "--embedding-dim", "12", "--seed", "11"]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture")
    assert cli.main(["synth", "--out", str(path), *SYNTH_ARGS]) == 0
    return path


def small_config(out_name, permutations=9):
    return {
        "seed": 11,
        "out_dir": out_name,
        "inputs": {"provinces": "provinces.csv", "complaints": "complaints.jsonl"},
        "cluster": {"k_max": 6, "permutations": permutations},
        "train": {"rounds": 25, "max_depth": 3},
        "causal": {
            "methods": ["diffmeans", "s"],
            "bootstrap": 0,
            "base_learner": {"rounds": 20},
        },
    }


def test_synth_writes_fixture_deterministically(fixture_dir, tmp_path):
    for name in ("provinces.csv", "complaints.jsonl", "ground_truth.json"):
        assert (fixture_dir / name).exists()
    assert cli.main(["synth", "--out", str(tmp_path / "again"), *SYNTH_ARGS]) == 0
    for name in ("provinces.csv", "complaints.jsonl", "ground_truth.json"):
        assert (tmp_path / "again" / name).read_bytes() == (fixture_dir / name).read_bytes()
    truth = json.loads((fixture_dir / "ground_truth.json").read_text())
    assert len(truth["cluster_labels"]) == 160


def test_synth_rejects_zero_clusters(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path), "--clusters", "0"])
    assert rc == 2
    assert "count" in capsys.readouterr().err


def test_synth_without_flags_builds_the_default_spec(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "stage_synth", lambda spec, out_dir: calls.append((spec, out_dir)))
    assert cli.main(["synth", "--out", str(tmp_path)]) == 0
    assert calls == [(ds.SyntheticSpec(), tmp_path)]


def test_cluster_provinces_without_dea_scores_is_a_config_error(fixture_dir, tmp_path, capsys):
    rc = cli.main(["cluster", "--complaints", str(fixture_dir / "complaints.jsonl"),
                   "--provinces", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "give both or neither" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_input_exits_2_naming_path(tmp_path, capsys):
    rc = cli.main(["dea", "--provinces", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 2
    assert "nope.csv" in capsys.readouterr().err
    folder = tmp_path / "complaints.jsonl"
    folder.mkdir()
    rc = cli.main(["cluster", "--complaints", str(folder), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"directory, not a file: {folder}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dea_subcommand_writes_scores(fixture_dir, tmp_path):
    out = tmp_path / "dea"
    rc = cli.main(["dea", "--provinces", str(fixture_dir / "provinces.csv"), "--out", str(out)])
    assert rc == 0
    with (out / "dea_scores.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 14
    assert set(rows[0]) == {"id", "theta_crs", "theta_vrs", "group"}
    thetas = [float(r["theta_vrs"]) for r in rows]
    assert max(thetas) == 1.0
    assert all(float(r["theta_crs"]) <= float(r["theta_vrs"]) + 1e-9 for r in rows)
    # groups match the planted split
    truth = json.loads((fixture_dir / "ground_truth.json").read_text())
    for row in rows:
        assert row["group"] == truth["province_groups"][row["id"]]


@pytest.fixture(scope="module")
def run_a(fixture_dir):
    """The pipeline's artifacts on the shared fixture, from one run per module."""
    (fixture_dir / "config_a.json").write_text(json.dumps(small_config("run_a")))
    assert cli.main(["pipeline", "--config", str(fixture_dir / "config_a.json")]) == 0
    return fixture_dir / "run_a"


def test_pipeline_produces_all_artifacts_and_is_deterministic(fixture_dir, run_a):
    expected = {
        "dea_scores.csv", "clusters.csv", "cluster_report.json", "clusters.svg",
        "coproduction_rates.svg", "model.json", "cv_report.json", "shap.csv",
        "shap_summary.svg", "archetype_report.json", "ate_report.json", "summary.json",
    }
    present = {p.name for p in run_a.iterdir()}
    assert expected <= present
    assert "FAILED" not in present

    config_b = small_config("run_b")
    (fixture_dir / "config_b.json").write_text(json.dumps(config_b))
    assert cli.main(["pipeline", "--config", str(fixture_dir / "config_b.json")]) == 0
    for name in sorted(expected):
        assert (run_a / name).read_bytes() == (fixture_dir / "run_b" / name).read_bytes(), name


def test_pipeline_matches_standalone_stage_with_derived_seed(fixture_dir, run_a, tmp_path):
    # The cluster stage, run standalone with the pipeline's derived sub-seed,
    # must reproduce the pipeline artifact byte for byte.
    master = 11
    out = tmp_path / "standalone"
    rc = cli.main([
        "cluster", "--complaints", str(fixture_dir / "complaints.jsonl"),
        "--out", str(out), "--kmax", "6", "--permutations", "9",
        "--seed", str(derive_seed(master, "cluster")),
        "--provinces", str(fixture_dir / "provinces.csv"),
        "--dea-scores", str(run_a / "dea_scores.csv"),
    ])
    assert rc == 0
    assert (out / "clusters.csv").read_bytes() == (run_a / "clusters.csv").read_bytes()
    assert (out / "cluster_report.json").read_bytes() == (run_a / "cluster_report.json").read_bytes()


def test_pipeline_summary_links_artifacts(run_a):
    summary = json.loads((run_a / "summary.json").read_text())
    assert summary["seed"] == 11
    assert set(summary["stages"]) == {"dea", "cluster", "train", "explain", "causal"}
    assert "dea_scores.csv" in summary["artifacts"]
    assert "ate_report.json" in summary["artifacts"]


def test_cluster_report_contents(run_a):
    report = json.loads((run_a / "cluster_report.json").read_text())
    assert report["auto_k"] is True
    assert report["permutation"]["n"] == 9
    assert 0.0 <= report["permutation"]["p"] <= 1.0
    assert len(report["coproduction_rates"]) == report["k"]
    assert report["centroid_shift_distances"] is not None
    assert len(report["wcss_curve"]) == 6


def test_svg_artifacts_are_well_formed(run_a):
    for name in ("clusters.svg", "shap_summary.svg", "coproduction_rates.svg"):
        root = ET.fromstring((run_a / name).read_text())
        assert root.tag.endswith("svg")


def test_shap_csv_satisfies_local_accuracy(run_a):
    with (run_a / "shap.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    for row in rows[:50]:
        base = float(row["base"])
        margin = float(row["margin"])
        phi_sum = sum(float(v) for k, v in row.items() if k.startswith("phi_"))
        assert abs(base + phi_sum - margin) < 1e-9


def test_pipeline_stage_failure_leaves_marker(tmp_path, capsys):
    # A single province cannot be median-split: the dea stage must fail,
    # exit 1, and leave a FAILED marker naming the stage.
    assert cli.main(["synth", "--out", str(tmp_path), "--provinces", "1", "--complaints", "20",
                     "--clusters", "2", "--embedding-dim", "4", "--seed", "3"]) == 0
    (tmp_path / "config.json").write_text(json.dumps(small_config("out")))
    rc = cli.main(["pipeline", "--config", str(tmp_path / "config.json")])
    assert rc == 1
    marker = tmp_path / "out" / "FAILED"
    assert marker.exists()
    assert "dea" in marker.read_text()
    assert not (tmp_path / "out" / "summary.json").exists()


def test_pipeline_logs_each_stage_start_and_end(fixture_dir, run_a, tmp_path, caplog):
    config = small_config("run")
    config["inputs"] = {name: str(fixture_dir / path) for name, path in config["inputs"].items()}
    (tmp_path / "config.json").write_text(json.dumps(config))
    caplog.set_level(logging.INFO, logger="ecoprod.cli")
    assert cli.main(["--verbose", "pipeline", "--config", str(tmp_path / "config.json")]) == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "ecoprod.cli"]
    stages = ("dea", "cluster", "train", "explain", "causal")
    assert [m.split(":")[0] for m in messages] == [f"stage {s}" for s in stages for _ in range(2)]
    for stage, started, finished in zip(stages, messages[::2], messages[1::2]):
        assert started == f"stage {stage}: started"
        assert re.fullmatch(rf"stage {stage}: finished in \d+\.\d\d s", finished)
    assert (tmp_path / "run" / "summary.json").read_bytes() == (run_a / "summary.json").read_bytes()


def test_set_overrides_config(tmp_path, fixture_dir, capsys):
    config = small_config("override_run", permutations=9)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # point inputs at the shared fixture and change the seed via --set
    rc = cli.main([
        "pipeline", "--config", str(path),
        "--set", f"inputs.provinces={fixture_dir / 'provinces.csv'}",
        "--set", f"inputs.complaints={fixture_dir / 'complaints.jsonl'}",
        "--set", "causal.methods=[\"diffmeans\"]",
        "--set", "cluster.permutations=5",
    ])
    assert rc == 0
    report = json.loads((tmp_path / "override_run" / "cluster_report.json").read_text())
    assert report["permutation"]["n"] == 5
    ate_report = json.loads((tmp_path / "override_run" / "ate_report.json").read_text())
    assert "diffmeans" in ate_report and "s" not in ate_report


def test_causal_province_unit_mode(fixture_dir, run_a, tmp_path):
    out = tmp_path / "prov"
    rc = cli.main([
        "causal", "--provinces", str(fixture_dir / "provinces.csv"),
        "--complaints", str(fixture_dir / "complaints.jsonl"),
        "--dea-scores", str(run_a / "dea_scores.csv"),
        "--clusters", str(run_a / "clusters.csv"),
        "--out", str(out), "--method", "diffmeans,t", "--bootstrap", "60",
        "--unit", "province", "--seed", "5",
    ])
    assert rc == 0
    report = json.loads((out / "ate_report.json").read_text())
    assert report["unit"] == "province"
    for method in ("diffmeans", "t"):
        estimate = report[method]
        assert -1.0 <= estimate["ate"] <= 1.0
        assert estimate["ci_low"] <= estimate["ci_high"]


def causal_args(fixture_dir, run_a, out, *extra):
    return [
        "causal", "--provinces", str(fixture_dir / "provinces.csv"),
        "--complaints", str(fixture_dir / "complaints.jsonl"),
        "--dea-scores", str(run_a / "dea_scores.csv"),
        "--clusters", str(run_a / "clusters.csv"),
        "--out", str(out), *extra,
    ]


@pytest.mark.parametrize("unit", ["message", "province"])
def test_causal_bootstrap_below_fifty_exits_2(fixture_dir, run_a, tmp_path, capsys, unit):
    rc = cli.main(causal_args(fixture_dir, run_a, tmp_path / unit, "--method", "diffmeans",
                              "--bootstrap", "10", "--unit", unit))
    assert rc == 2
    assert "bootstrap" in capsys.readouterr().err
    assert not (tmp_path / unit / "ate_report.json").exists()


def test_causal_bootstrap_zero_gives_cevae_no_interval(fixture_dir, run_a, tmp_path):
    out = tmp_path / "cevae"
    rc = cli.main(causal_args(fixture_dir, run_a, out, "--method", "cevae", "--bootstrap", "0",
                              "--epochs", "2", "--seed", "3"))
    assert rc == 0
    estimate = json.loads((out / "ate_report.json").read_text())["cevae"]
    assert -1.0 <= estimate["ate"] <= 1.0
    assert estimate["ci_low"] is None and estimate["ci_high"] is None


def test_zero_permutations_exits_2(fixture_dir, tmp_path, capsys):
    rc = cli.main(["cluster", "--complaints", str(fixture_dir / "complaints.jsonl"),
                   "--out", str(tmp_path / "flag"), "--permutations", "0"])
    assert rc == 2
    assert "permutations" in capsys.readouterr().err

    config = small_config("zero_perm", permutations=0)
    config["inputs"] = {"provinces": str(fixture_dir / "provinces.csv"),
                        "complaints": str(fixture_dir / "complaints.jsonl")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["pipeline", "--config", str(path)])
    assert rc == 2
    assert "permutations" in capsys.readouterr().err
    assert not (tmp_path / "zero_perm").exists()


def set_key(raw, dotted, value):
    *path, last = dotted.split(".")
    for key in path:
        raw = raw.setdefault(key, {})
    raw[last] = value


CONFIG_ERRORS = [
    ("train.rounds", "ten"),
    ("causal.bootstrap", "50"),
    ("cluster.k_max", "6"),
    ("seed", 1.7),
    ("clustr", {"k_max": 6}),
    ("train.max_dpth", 3),
    ("causal.base_learner.lambda", 1.0),
    ("causal.unit", "provinc"),
    ("causal.methods", ["diffmeans", "s", "tt"]),
    ("causal.methods", "diffmeans"),
    ("causal.preset", "dsek"),
    ("causal.epochs", 0),
    ("cluster.k", 0),
    ("cluster.k_max", 2),
    ("causal.covariates", ["sentiment", "bogus"]),
    ("train.min_child_cover", -1.0),
    ("train.lambda", float("nan")),
]


@pytest.mark.parametrize("via_set", [False, True], ids=["file", "set"])
@pytest.mark.parametrize("key,value", CONFIG_ERRORS, ids=[f"{k}={v!r}" for k, v in CONFIG_ERRORS])
def test_config_error_exits_2_before_any_stage(fixture_dir, tmp_path, capsys, key, value, via_set):
    config = small_config("bad_run")
    config["inputs"] = {"provinces": str(fixture_dir / "provinces.csv"),
                        "complaints": str(fixture_dir / "complaints.jsonl")}
    overrides = []
    if via_set:
        overrides = ["--set", f"{key}={json.dumps(value)}"]
    else:
        set_key(config, key, value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["pipeline", "--config", str(path), *overrides])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "bad_run").exists()


@pytest.mark.parametrize("flag,value,key", [
    ("--k", "0", "cluster.k"), ("--kmax", "2", "cluster.k_max"),
    # more clusters than the fixture's 160 complaints
    ("--k", "161", "cluster.k"), ("--kmax", "161", "cluster.k_max"),
])
def test_cluster_count_flag_out_of_range_exits_2(fixture_dir, tmp_path, capsys, monkeypatch, flag, value, key):
    def no_curve(*args):
        raise AssertionError("the elbow curve ran")

    monkeypatch.setattr(spectral, "wcss_curve", no_curve)
    out = tmp_path / "cluster"
    rc = cli.main(["cluster", "--complaints", str(fixture_dir / "complaints.jsonl"), "--out", str(out), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{key} must" in err and value in err
    assert not out.exists()


def test_cluster_stage_solves_the_observed_embedding_once(fixture_dir, tmp_path, monkeypatch):
    # The permutation test reuses the stage's own spectral embedding, so only
    # each shuffled replicate needs another eigensolve.  One CPU keeps the
    # replicates in this process, where the count sees them.
    use_cpus(monkeypatch, 1)
    calls = []
    original = spectral.spectral_embed

    def counting(lap, k):
        calls.append(k)
        return original(lap, k)

    monkeypatch.setattr(spectral, "spectral_embed", counting)
    cli.stage_cluster(fixture_dir / "complaints.jsonl", cli.ClusterOptions(k=3, permutations=4), 11, tmp_path)
    assert calls == [3] * (1 + 4)


CPU_RUNS = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {0})
from ecoprod import cli
fixture, out, config = sys.argv[2:]
for name, count in (("auto", ["--kmax", "6"]), ("fixed", ["--k", "3"])):
    assert cli.main(["cluster", "--complaints", fixture + "/complaints.jsonl", "--out", out + "/" + name,
                     *count, "--permutations", "9", "--seed", "11"]) == 0
assert cli.main(["pipeline", "--config", config]) == 0
"""


def test_cluster_outputs_do_not_depend_on_the_cpu_count(fixture_dir, tmp_path):
    # OpenBLAS starts one thread per available CPU and splits its sums by
    # thread count; every command runs on one thread, so every artifact
    # comes out the same under one CPU as under all of them.
    root = Path(__file__).resolve().parents[1]
    for cpus in ("one", "all"):
        config = fixture_dir / f"config_{cpus}_cpus.json"
        config.write_text(json.dumps(small_config(str(tmp_path / cpus / "pipeline"))))
        subprocess.run([sys.executable, "-c", CPU_RUNS, cpus, str(fixture_dir), str(tmp_path / cpus), str(config)],
                       cwd=root, env={**os.environ, "PYTHONPATH": "src"}, check=True, timeout=300)
    for run in ("auto", "fixed", "pipeline"):
        names = sorted(path.name for path in (tmp_path / "one" / run).iterdir())
        assert names == sorted(path.name for path in (tmp_path / "all" / run).iterdir())
        for name in names:
            assert (tmp_path / "one" / run / name).read_bytes() == (tmp_path / "all" / run / name).read_bytes(), name


def test_unknown_covariate_flag_exits_2(fixture_dir, run_a, tmp_path, capsys):
    out = tmp_path / "bogus"
    rc = cli.main(causal_args(fixture_dir, run_a, out, "--covariates", "sentiment,bogus"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "causal.covariates" in err and "'bogus'" in err
    assert not out.exists()


def test_explain_attributes_every_row_once(fixture_dir, run_a, tmp_path, monkeypatch):
    # perfbench/tracing.py times and counts TreeSHAP by wrapping the module
    # attribute treeshap.tree_shap, so explain must reach it through that
    # name, once, with every row; the archetype beeswarms reuse its phi.
    calls = []
    original = treeshap.tree_shap

    def counting(model, x_matrix):
        calls.append(x_matrix.shape[0])
        return original(model, x_matrix)

    monkeypatch.setattr(treeshap, "tree_shap", counting)
    summary = cli.stage_explain(
        run_a / "model.json", fixture_dir / "provinces.csv", fixture_dir / "complaints.jsonl",
        run_a / "dea_scores.csv", run_a / "clusters.csv", tmp_path,
    )
    assert calls == [160]
    assert any(name.startswith("shap_archetype_") for name in summary["artifacts"])
    for name in summary["artifacts"]:
        assert (tmp_path / name).read_bytes() == (run_a / name).read_bytes(), name


def test_explain_archetypes_from_shap(fixture_dir, run_a, tmp_path):
    rc = cli.main([
        "explain", "--model", str(run_a / "model.json"), "--provinces", str(fixture_dir / "provinces.csv"),
        "--complaints", str(fixture_dir / "complaints.jsonl"), "--dea-scores", str(run_a / "dea_scores.csv"),
        "--clusters", str(run_a / "clusters.csv"), "--out", str(tmp_path), "--archetype-input", "shap",
    ])
    assert rc == 0
    report = json.loads((tmp_path / "archetype_report.json").read_text())
    assert report["input"] == "shap"
    assert set(report["province_archetype"].values()) == {0, 1}
    means = report["mean_probability_by_archetype"]
    assert means[str(report["coproductive_cluster"])] == max(means.values())


def test_unknown_causal_method_flag_exits_2(fixture_dir, run_a, tmp_path, capsys):
    out = tmp_path / "bogus"
    rc = cli.main(causal_args(fixture_dir, run_a, out, "--method", "diffmeans,cevae,bogus"))
    assert rc == 2
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def drop_column(lines, column):
    index = lines[0].split(",").index(column)
    return [",".join(c for i, c in enumerate(line.split(",")) if i != index) for line in lines]


def repeat_column(lines, column):
    index = lines[0].split(",").index(column)
    return [line + "," + line.split(",")[index] for line in lines]


def set_cell(lines, number, column, value):
    """`lines` with the cell of `column` on 1-based line `number` set to `value`."""
    cells = lines[number - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    return [*lines[:number - 1], ",".join(cells), *lines[number:]]


def reader_faults(name, key, column):
    """The four faults the CSV reader rejects in any of its files."""
    last = {"provinces.csv": "fiscal_general_services", "dea_scores.csv": "group", "clusters.csv": "cluster"}[name]
    stem = name.split(".")[0]
    return {
        f"{stem}-repeated-column": (name, lambda lines: repeat_column(lines, column), 1, column),
        # line 4 again, as line 6
        f"{stem}-repeated-key": (name, lambda lines: [*lines[:5], lines[3], *lines[5:]], 6, key),
        f"{stem}-nan-cell": (name, lambda lines: set_cell(lines, 4, column, "nan"), 4, column),
        f"{stem}-short-row": (name, lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]], 3, last),
    }


ARTIFACT_FAULTS = {
    # name: (file, edit of its lines, 1-based line, column named)
    "missing-column": ("dea_scores.csv", lambda lines: drop_column(lines, "theta_vrs"), 1, "theta_vrs"),
    "bad-id": ("clusters.csv", lambda lines: [*lines[:6], "x7," + lines[6].split(",")[1], *lines[7:]],
               7, "complaint_id"),
    "repeated-row": ("dea_scores.csv", lambda lines: [*lines, lines[3]], 16, "id"),
    "unknown-group": ("dea_scores.csv", lambda lines: [*lines[:4], lines[4].rsplit(",", 1)[0] + ",Medium",
                                                      *lines[5:]], 5, "group"),
    **reader_faults("provinces.csv", "id", "env_water_emissions"),
    **reader_faults("dea_scores.csv", "id", "theta_vrs"),
    **reader_faults("clusters.csv", "complaint_id", "cluster"),
}


@pytest.mark.parametrize("fault", sorted(ARTIFACT_FAULTS))
def test_bad_artifact_exits_2_naming_file_line_and_column(fixture_dir, run_a, tmp_path, capsys, fault):
    name, edit, line, column = ARTIFACT_FAULTS[fault]
    for source in (fixture_dir / "provinces.csv", run_a / "dea_scores.csv", run_a / "clusters.csv"):
        lines = source.read_text().splitlines()
        if source.name == name:
            lines = edit(lines)
        (tmp_path / source.name).write_text("\n".join(lines) + "\n")
    named = f"{tmp_path / name}: line {line}:"
    rc = cli.main([
        "causal", "--provinces", str(tmp_path / "provinces.csv"),
        "--complaints", str(fixture_dir / "complaints.jsonl"),
        "--dea-scores", str(tmp_path / "dea_scores.csv"), "--clusters", str(tmp_path / "clusters.csv"),
        "--out", str(tmp_path / "out"), "--method", "diffmeans", "--bootstrap", "0",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and f"column '{column}'" in err
    assert not (tmp_path / "out").exists()
    if name != "provinces.csv":
        return
    # dea reads provinces.csv alone; the pipeline reads it at config time
    rc = cli.main(["dea", "--provinces", str(tmp_path / "provinces.csv"), "--out", str(tmp_path / "dea")])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and f"column '{column}'" in err
    assert not (tmp_path / "dea" / "dea_scores.csv").exists()
    config = small_config("run")
    config["inputs"]["complaints"] = str(fixture_dir / "complaints.jsonl")
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert named in err and f"column '{column}'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["synth", "dea", "cluster", "train", "explain", "causal", "pipeline"])
def test_output_path_naming_a_file_exits_2(fixture_dir, run_a, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    inputs = ["--provinces", fixture_dir / "provinces.csv", "--complaints", fixture_dir / "complaints.jsonl",
              "--dea-scores", run_a / "dea_scores.csv", "--clusters", run_a / "clusters.csv"]
    argv = {
        "synth": ["synth", *SYNTH_ARGS],
        "dea": ["dea", "--provinces", fixture_dir / "provinces.csv"],
        "cluster": ["cluster", "--complaints", fixture_dir / "complaints.jsonl", "--k", "3"],
        "train": ["train", *inputs],
        "explain": ["explain", *inputs, "--model", run_a / "model.json"],
        "causal": ["causal", *inputs, "--method", "diffmeans", "--bootstrap", "0"],
    }.get(command, [])
    if command == "pipeline":
        config = {**small_config(str(taken)), "inputs": {"provinces": str(fixture_dir / "provinces.csv"),
                                                         "complaints": str(fixture_dir / "complaints.jsonl")}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = ["pipeline", "--config", tmp_path / "config.json"]
    else:
        argv += ["--out", taken]
    assert cli.main([str(a) for a in argv]) == 2
    assert f"cannot create output directory {taken}" in capsys.readouterr().err
    assert taken.read_text() == "a file\n"


def leftmost(node, path):
    while "weight" not in node:
        node, path = node["left"], path + ".left"
    return node, path


def model_fault(name, model):
    """Break `model` (the parsed model.json) in place; the node path the error must name."""
    tree = model["trees"][0]
    if name == "missing-cover":
        del tree["left"]["cover"]
        return "trees[0].left"
    if name == "zero-cover-leaf":
        leaf, path = leftmost(tree, "trees[0]")
        leaf["cover"] = 0.0
        return path + ".cover"
    tree["feature"] = 999
    return "trees[0].feature"


@pytest.mark.parametrize("fault", ["not-json", "missing-cover", "zero-cover-leaf", "feature-out-of-range"])
def test_bad_model_json_exits_2_naming_file_and_node(fixture_dir, run_a, tmp_path, capsys, fault):
    path = tmp_path / "model.json"
    if fault == "not-json":
        path.write_text("{not json")
        named = "JSON"
    else:
        model = json.loads((run_a / "model.json").read_text())
        named = model_fault(fault, model)
        path.write_text(json.dumps(model))
    rc = cli.main([
        "explain", "--model", str(path), "--provinces", str(fixture_dir / "provinces.csv"),
        "--complaints", str(fixture_dir / "complaints.jsonl"),
        "--dea-scores", str(run_a / "dea_scores.csv"), "--clusters", str(run_a / "clusters.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and named in err


@pytest.mark.parametrize("unit", ["message", "province"])
def test_causal_reaches_estimators_through_module_attributes(fixture_dir, run_a, tmp_path, monkeypatch, unit):
    # perfbench/tracing.py wraps these six module attributes to time each
    # method (the causal.method_s.* metrics), so stage_causal must call each
    # through its causal.<name> attribute, once, in both units.
    calls = {}
    for name in ("diff_means", "s_learner", "t_learner", "x_learner", "r_learner", "cevae_ate"):
        original = getattr(causal, name)
        signature = inspect.signature(original)

        def counting(*args, _original=original, _signature=signature, _name=name, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.setdefault(_name, []).append(bound.arguments.get("groups"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(causal, name, counting)
    options = cli.CausalOptions(bootstrap=0, epochs=1, unit=unit,
                                base_learner=gbm.TrainConfig(rounds=5, max_depth=2))
    cli.stage_causal(fixture_dir / "provinces.csv", fixture_dir / "complaints.jsonl", run_a / "dea_scores.csv",
                     run_a / "clusters.csv", options, 3, tmp_path)
    assert sorted(calls) == sorted(["diff_means", "s_learner", "t_learner", "x_learner", "r_learner", "cevae_ate"])
    lines = (fixture_dir / "complaints.jsonl").read_text().splitlines()
    province_ids = [json.loads(line)["province_id"] for line in lines]
    for name, groups in calls.items():
        assert len(groups) == 1, name
        if unit == "message":
            assert groups[0] is None, name
        else:
            assert np.array_equal(groups[0], province_ids), name


@pytest.mark.parametrize("name", ["provinces.csv", "complaints.jsonl", "dea_scores.csv", "clusters.csv"])
def test_non_utf8_input_names_file_and_line(fixture_dir, run_a, tmp_path, capsys, name):
    for source in (fixture_dir / "provinces.csv", fixture_dir / "complaints.jsonl",
                   run_a / "dea_scores.csv", run_a / "clusters.csv"):
        data = source.read_bytes()
        if source.name == name:  # one byte of line 3 becomes 0xff
            at = data.index(b"\n", data.index(b"\n") + 1) + 2
            data = data[:at] + b"\xff" + data[at + 1:]
        (tmp_path / source.name).write_bytes(data)
    rc = cli.main([
        "causal", "--provinces", str(tmp_path / "provinces.csv"), "--complaints", str(tmp_path / "complaints.jsonl"),
        "--dea-scores", str(tmp_path / "dea_scores.csv"), "--clusters", str(tmp_path / "clusters.csv"),
        "--out", str(tmp_path / "out"), "--method", "diffmeans", "--bootstrap", "0",
    ])
    assert rc == 2
    assert f"{tmp_path / name}: line 3: byte 0xff is not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ate_report.json").exists()


@pytest.mark.parametrize("name,fault", [("provinces.csv", "no data rows after the header"),
                                        ("complaints.jsonl", "no records")])
def test_input_without_data_exits_2_naming_file(fixture_dir, run_a, tmp_path, capsys, name, fault):
    shutil.copy(fixture_dir / "provinces.csv", tmp_path)
    shutil.copy(fixture_dir / "complaints.jsonl", tmp_path)
    header = (tmp_path / "provinces.csv").read_text().splitlines()[0] + "\n"
    (tmp_path / name).write_text(header if name == "provinces.csv" else "")
    inputs = ["--provinces", str(tmp_path / "provinces.csv"), "--complaints", str(tmp_path / "complaints.jsonl"),
              "--dea-scores", str(run_a / "dea_scores.csv"), "--clusters", str(run_a / "clusters.csv")]
    alone = (["dea", "--provinces", str(tmp_path / name)] if name == "provinces.csv"
             else ["cluster", "--complaints", str(tmp_path / name)])
    for argv in (alone, ["train", *inputs], ["causal", *inputs, "--method", "diffmeans", "--bootstrap", "0"]):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2, argv
        assert f"{tmp_path / name}: {fault}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_complaint_of_unknown_province_is_named(fixture_dir, run_a, tmp_path, capsys):
    lines = (fixture_dir / "complaints.jsonl").read_text().splitlines()
    stray = json.loads(lines[4])
    lines[4] = json.dumps({**stray, "province_id": 999})
    (tmp_path / "complaints.jsonl").write_text("\n".join(lines) + "\n")
    shutil.copy(fixture_dir / "provinces.csv", tmp_path)
    # the cluster stage looks up each complaint's efficiency group
    (tmp_path / "config.json").write_text(json.dumps(small_config("out")))
    named = f"{tmp_path / 'complaints.jsonl'}: complaint {stray['id']} has province_id 999, which no province has"
    assert cli.main(["pipeline", "--config", str(tmp_path / "config.json")]) == 1
    assert named in capsys.readouterr().err
    assert (tmp_path / "out" / "FAILED").read_text().startswith("cluster:")
    # train, explain and causal join each complaint to its province
    rc = cli.main([
        "train", "--provinces", str(tmp_path / "provinces.csv"), "--complaints", str(tmp_path / "complaints.jsonl"),
        "--dea-scores", str(run_a / "dea_scores.csv"), "--clusters", str(run_a / "clusters.csv"),
        "--out", str(tmp_path / "train"),
    ])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "train" / "model.json").exists()
    rc = cli.main([
        "cluster", "--complaints", str(tmp_path / "complaints.jsonl"), "--provinces", str(tmp_path / "provinces.csv"),
        "--dea-scores", str(run_a / "dea_scores.csv"), "--out", str(tmp_path / "cluster"),
    ])
    assert rc == 2
    assert named in capsys.readouterr().err
