"""The three workloads: their inputs, the program calls they time, and their checks.

Sizes are chosen so that a 40-second run on a 2-core machine holds two or
three rounds of `pipeline` and `cluster` and one of `causal-bootstrap`; the
README records why each workload exists and how its inputs derive from the
seed.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import fixtures

# Bands around the planted effect, as (low, high) offsets: the mean offset of
# a 24-seed sweep plus and minus five standard deviations, rounded outward
# (README, Bands).  The province-unit R-learner has no band: its estimate
# spans 0.13 to 0.86 over the sweep.
PROVINCE_BANDS = {"s": (-0.40, 0.20), "t": (-0.22, 0.21), "x": (-0.26, 0.25), "cevae": (-0.31, 0.31)}
MESSAGE_BANDS = {"s": (-0.28, 0.13), "t": (-0.19, 0.18), "x": (-0.24, 0.23), "r": (-0.25, 0.27), "cevae": (-0.26, 0.25)}

CAUSAL_METHODS = ["diffmeans", "s", "t", "x", "r", "cevae"]


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # mixed with --seed into the fixture's random stream
    spec: fixtures.FixtureSpec
    calls: tuple[str, ...]  # names of the timed program calls, in order
    digest_files: tuple[str, ...]


PIPELINE = Workload(
    "pipeline", 1, fixtures.FixtureSpec(27, 500, 8, 768, separation=10.0),
    calls=("pipeline",), digest_files=("summary.json", "ate_report.json"),
)
CLUSTER = Workload(
    "cluster", 2, fixtures.FixtureSpec(27, 1200, 8, 128),
    calls=("cluster",), digest_files=("cluster_report.json", "clusters.csv"),
)
CAUSAL = Workload(
    "causal-bootstrap", 3, fixtures.FixtureSpec(150, 600, 8, 8),
    calls=("dea", "causal"), digest_files=("ate_report.json",),
)
WORKLOADS = {w.name: w for w in (PIPELINE, CLUSTER, CAUSAL)}


def pipeline_config(seed: int) -> dict:
    """fixtures/pipeline_config.json with the benchmark's sizes."""
    return {
        "seed": seed,
        "out_dir": "../out",
        "inputs": {"provinces": "provinces.csv", "complaints": "complaints.jsonl"},
        "cluster": {"k": 8, "permutations": 9},
        "train": {"rounds": 40, "max_depth": 3, "eta": 0.3, "lambda": 1.0, "folds": 5},
        "causal": {
            "methods": CAUSAL_METHODS, "bootstrap": 50, "preset": "desk", "epochs": 40,
            "unit": "province", "base_learner": {"rounds": 30, "max_depth": 3},
        },
    }


def causal_config() -> dict:
    return {
        "inputs": {"provinces": "provinces.csv", "complaints": "complaints.jsonl"},
        "causal": {
            "methods": CAUSAL_METHODS, "bootstrap": 50, "preset": "desk", "epochs": 40,
            "unit": "message", "base_learner": {"rounds": 6, "max_depth": 2, "eta": 0.5, "folds": 2},
        },
    }


def prepare(workload: Workload, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs and prerequisite artifacts; return the truth."""
    truth = fixtures.generate(workload.spec, [seed, workload.tag], inputs)
    if workload.name == PIPELINE.name:
        (inputs / "pipeline_config.json").write_text(json.dumps(pipeline_config(seed)), encoding="utf-8")
    elif workload.name == CAUSAL.name:
        (inputs / "causal_config.json").write_text(json.dumps(causal_config()), encoding="utf-8")
        with (inputs / "clusters.csv").open("w", encoding="utf-8") as handle:
            handle.write("complaint_id,cluster\n")
            handle.writelines(f"{i + 1},{c}\n" for i, c in enumerate(truth["cluster_labels"]))
    return truth


def program_calls(workload: Workload, seed: int, inputs: Path, out: Path) -> list[tuple[str, Callable[[], None]]]:
    """The timed calls into ecoprod, made the way its users make them."""
    from ecoprod import cli

    def main(*argv: str) -> None:
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"ecoprod {argv[0]} exited {code}")

    if workload.name == PIPELINE.name:
        return [("pipeline", lambda: main("pipeline", "--config", inputs / "pipeline_config.json"))]
    if workload.name == CLUSTER.name:
        return [("cluster", lambda: main(
            "cluster", "--complaints", inputs / "complaints.jsonl", "--out", out,
            "--kmax", 12, "--permutations", 19, "--seed", seed,
        ))]

    def causal_stage() -> None:
        raw = json.loads((inputs / "causal_config.json").read_text(encoding="utf-8"))
        options = cli.PipelineConfig.from_dict(raw, inputs).causal
        cli.stage_causal(
            inputs / "provinces.csv", inputs / "complaints.jsonl", out / "dea_scores.csv",
            inputs / "clusters.csv", options, seed, out,
        )

    return [
        ("dea", lambda: main("dea", "--provinces", inputs / "provinces.csv", "--out", out)),
        ("causal", causal_stage),
    ]


def output_checks(workload: Workload, inputs: Path) -> list[tuple[str, Callable[[Path, dict], str]]]:
    dea = [("dea.theta_vrs", checks.dea_theta), ("dea.groups", checks.dea_groups),
           ("dea.crs_le_vrs", checks.dea_crs_le_vrs)]
    clusters = [("cluster.permutation_p", checks.cluster_permutation_p), ("cluster.rates", checks.cluster_rates)]

    def causal(unit: str, bands: dict) -> list:
        return [(f"causal.diffmeans_{unit}", functools.partial(checks.diffmeans_recomputed, unit=unit))] + [
            (f"causal.band.{m}", functools.partial(checks.estimate_in_band, method=m, band=band))
            for m, band in bands.items()
        ]

    if workload.name == PIPELINE.name:
        explain = [
            ("explain.margin_walk", functools.partial(checks.explain_margin_walk, inputs=inputs)),
            ("explain.additivity", checks.explain_additivity),
            ("explain.brute_force_shapley", functools.partial(checks.explain_brute_force, inputs=inputs)),
            ("train.cv_accuracy", checks.train_cv_accuracy),
        ]
        return dea + [("cluster.ari", checks.cluster_ari)] + clusters + explain + causal("province", PROVINCE_BANDS)
    if workload.name == CLUSTER.name:
        # The elbow's k-means can stop in a local minimum, so auto-k misses the
        # planted 8 on some seeds (CHANGES.md, FOUND); the checks here hold
        # whichever k it picks.
        return clusters + [("cluster.elbow", checks.cluster_elbow), ("cluster.total_ss", checks.cluster_total_ss)]
    return dea + causal("message", MESSAGE_BANDS)
