"""Command-line pipeline: synth, dea, cluster, train, explain, causal, pipeline.

Every stage is runnable standalone given its inputs; the `pipeline` command
chains them with per-stage seeds derived from one master seed (see
`ecoprod.seeding`), so running a stage manually with the derived seed
reproduces the pipeline's artifact byte for byte.

Exit codes: 0 success, 1 stage/computation failure, 2 configuration or
input error.  A failed pipeline leaves its partial outputs plus a `FAILED`
marker file naming the stage.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import causal as causal_mod
from . import dataset as ds
from . import dea as dea_mod
from . import gbm, spectral, svg, treeshap
from .errors import ConfigError, DatasetError, EcoprodError, PipelineStageError
from .seeding import derive_seed

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

DEFAULT_CAUSAL_COVARIATES = (
    "sentiment",
    "attention",
    "cluster_id",
    "gdp_output",
    "fiscal_environment",
    "fiscal_agriculture_forestry",
    "fiscal_transport",
)


def _threads_cap() -> int:
    """Upper bound on worker parallelism from ECOPROD_THREADS (>= 1)."""
    raw = os.environ.get("ECOPROD_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"ECOPROD_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError("ECOPROD_THREADS must be >= 1")
    return value


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_scored_provinces(
    provinces_path: Path, scores_path: Path
) -> tuple[list[ds.ProvinceRecord], ds.ColumnSchema]:
    """Provinces with eco scores and groups attached from dea_scores.csv."""
    with provinces_path.open(newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
    schema = ds.infer_schema(header)
    provinces = ds.load_provinces(provinces_path, schema)
    scores: dict[int, tuple[float, str]] = {}
    with scores_path.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            scores[int(row["id"])] = (float(row["theta_vrs"]), row["group"])
    attached = []
    for province in provinces:
        if province.id not in scores:
            raise ConfigError(f"province {province.id} missing from {scores_path}")
        theta, group = scores[province.id]
        attached.append(
            province.with_score(theta, dea_mod.EcoGroup.HIGH if group == "High" else dea_mod.EcoGroup.LOW)
        )
    return attached, schema


def _load_clustered_complaints(complaints_path: Path, clusters_path: Path) -> list[ds.ComplaintRecord]:
    complaints = ds.load_complaints(complaints_path)
    mapping: dict[int, int] = {}
    with clusters_path.open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            mapping[int(row["complaint_id"])] = int(row["cluster"])
    out = []
    for complaint in complaints:
        if complaint.id not in mapping:
            raise ConfigError(f"complaint {complaint.id} missing from {clusters_path}")
        out.append(complaint.with_cluster(mapping[complaint.id]))
    return out


def _n_clusters(complaints: list[ds.ComplaintRecord]) -> int:
    return max(c.cluster_id for c in complaints) + 1


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and the pipeline)


def stage_synth(spec: ds.SyntheticSpec, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    provinces, complaints, truth = ds.generate_synthetic(spec)
    ds.write_provinces(out_dir / "provinces.csv", provinces, ds.DEFAULT_SCHEMA)
    ds.write_complaints(out_dir / "complaints.jsonl", complaints)
    ds.write_ground_truth(out_dir / "ground_truth.json", truth)
    return {
        "artifacts": ["provinces.csv", "complaints.jsonl", "ground_truth.json"],
        "n_provinces": spec.n_provinces,
        "n_complaints": spec.n_complaints,
    }


def stage_dea(provinces_path: Path, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    with provinces_path.open(newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
    schema = ds.infer_schema(header)
    provinces = ds.load_provinces(provinces_path, schema)
    panel = dea_mod.DeaPanel(
        inputs=np.column_stack([p.env_inputs for p in provinces]),
        outputs=np.array([[p.gdp_output for p in provinces]]),
        unit_ids=tuple(p.id for p in provinces),
    )
    crs = dea_mod.dea_scores(panel, dea_mod.DeaOptions(rts=dea_mod.ReturnsToScale.CRS))
    vrs = dea_mod.dea_scores(panel, dea_mod.DeaOptions(rts=dea_mod.ReturnsToScale.VRS))
    groups = dea_mod.split_by_median(vrs)
    with (out_dir / "dea_scores.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "theta_crs", "theta_vrs", "group"])
        for i, unit_id in enumerate(panel.unit_ids):
            writer.writerow([unit_id, repr(float(crs.theta[i])), repr(float(vrs.theta[i])), groups[i].value])
    return {
        "artifacts": ["dea_scores.csv"],
        "n_units": panel.n_units,
        "theta_vrs_max": float(vrs.theta.max()),
        "n_high": sum(g is dea_mod.EcoGroup.HIGH for g in groups),
    }


@dataclass(frozen=True)
class ClusterOptions:
    k: int | None = None
    auto_k: bool = True
    k_max: int = 12
    permutations: int = 99
    smoothed_p: bool = False
    row_normalize: bool = True

    def __post_init__(self):
        if self.permutations < 1:
            raise ConfigError(f"permutations must be >= 1, got {self.permutations}")


def stage_cluster(
    complaints_path: Path,
    options: ClusterOptions,
    seed: int,
    out_dir: Path,
    province_groups: dict[int, dea_mod.EcoGroup] | None = None,
) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    complaints = ds.load_complaints(complaints_path)
    embeddings = np.array([c.embedding for c in complaints])

    wcss_report: dict[str, float]
    if options.k is not None:
        k = options.k
    else:
        curve = spectral.wcss_curve(embeddings, options.k_max, derive_seed(seed, "elbow"))
        k = spectral.elbow_from_curve(curve)
        wcss_report = {str(i + 1): float(w) for i, w in enumerate(curve)}
    assignment, embedded = spectral.spectral_cluster(
        embeddings, k, derive_seed(seed, "cluster"), row_normalize=options.row_normalize
    )
    if options.k is not None:
        wcss_report = {str(k): assignment.wcss}
    silhouette = spectral.silhouette_score(embedded, assignment.labels)
    perm = spectral.permutation_test(embeddings, k, options.permutations, derive_seed(seed, "perm"))

    clustered = [c.with_cluster(int(label)) for c, label in zip(complaints, assignment.labels)]
    rates = spectral.coproduction_rate_by_cluster(clustered, n_clusters=k)

    shifts_report = None
    if province_groups is not None:
        groups = [province_groups[c.province_id] for c in clustered]
        shifts = spectral.centroid_shift(clustered, embeddings, groups)
        shifts_report = {str(s.cluster): s.distance for s in shifts}

    with (out_dir / "clusters.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["complaint_id", "cluster"])
        for c in clustered:
            writer.writerow([c.id, c.cluster_id])

    report = {
        "k": k,
        "auto_k": options.k is None,
        "wcss_curve": wcss_report,
        "silhouette": silhouette,
        "permutation": {
            "n": options.permutations,
            "s_obs": perm.s_obs,
            "p": perm.p,
            "s_perm": perm.s_perm.tolist(),
        },
        "coproduction_rates": rates,
        "centroid_shift_distances": shifts_report,
    }
    if options.smoothed_p:
        report["permutation"]["smoothed_p"] = perm.smoothed_p
    _write_json(out_dir / "cluster_report.json", report)

    projection = svg.pca_2d(embeddings)
    (out_dir / "clusters.svg").write_text(
        svg.scatter_svg(projection, assignment.labels, title=f"Complaint clusters (k={k})"),
        encoding="utf-8",
    )
    (out_dir / "coproduction_rates.svg").write_text(
        svg.bar_svg(
            [f"cluster {c}" for c in range(k)], rates, title="Co-production rate by cluster"
        ),
        encoding="utf-8",
    )
    return {
        "artifacts": ["clusters.csv", "cluster_report.json", "clusters.svg", "coproduction_rates.svg"],
        "k": k,
        "silhouette": silhouette,
        "permutation_p": perm.p,
    }


def _assemble_features(
    provinces_path: Path, complaints_path: Path, scores_path: Path, clusters_path: Path
) -> tuple[ds.FeatureMatrix, list[ds.ProvinceRecord], list[ds.ComplaintRecord], ds.ColumnSchema]:
    provinces, schema = _load_scored_provinces(provinces_path, scores_path)
    complaints = _load_clustered_complaints(complaints_path, clusters_path)
    plan = ds.default_feature_plan(schema, n_clusters=_n_clusters(complaints))
    matrix = ds.build_feature_matrix(provinces, complaints, plan, schema)
    return matrix, provinces, complaints, schema


def stage_train(
    provinces_path: Path,
    complaints_path: Path,
    scores_path: Path,
    clusters_path: Path,
    config: gbm.TrainConfig,
    out_dir: Path,
) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix, _, _, _ = _assemble_features(provinces_path, complaints_path, scores_path, clusters_path)
    cv = gbm.cross_validate(matrix.rows, matrix.target.astype(np.float64), config)
    model = gbm.train_classifier(
        matrix.rows, matrix.target.astype(np.float64), config, feature_names=matrix.columns
    )
    gbm.save_model(model, out_dir / "model.json")
    _write_json(
        out_dir / "cv_report.json",
        {
            "fold_accuracies": list(cv.fold_accuracies),
            "mean_accuracy": cv.mean_accuracy,
            "fold_sizes": list(cv.fold_sizes),
            "config": asdict(config),
            "n_rows": int(matrix.rows.shape[0]),
            "n_features": len(matrix.columns),
        },
    )
    return {
        "artifacts": ["model.json", "cv_report.json"],
        "mean_cv_accuracy": cv.mean_accuracy,
    }


def stage_explain(
    model_path: Path,
    provinces_path: Path,
    complaints_path: Path,
    scores_path: Path,
    clusters_path: Path,
    out_dir: Path,
    archetype_input: str = "probs",
) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    model = gbm.load_model(model_path)
    matrix, provinces, complaints, _ = _assemble_features(
        provinces_path, complaints_path, scores_path, clusters_path
    )
    if tuple(matrix.columns) != model.feature_names:
        raise ConfigError("feature columns do not match the trained model")

    summary = treeshap.shap_summary(model, matrix.rows)
    margins = gbm.predict_margin(model, matrix.rows)
    probabilities = gbm.predict_proba(model, matrix.rows)

    with (out_dir / "shap.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["complaint_id", "base", "margin", *(f"phi_{c}" for c in matrix.columns)])
        base = treeshap.expected_margin(model)
        for i, complaint in enumerate(complaints):
            writer.writerow(
                [complaint.id, repr(base), repr(float(margins[i])), *(repr(float(v)) for v in summary.phi[i])]
            )

    (out_dir / "shap_summary.svg").write_text(
        svg.beeswarm_svg(
            list(matrix.columns), summary.phi, matrix.rows, list(summary.order),
            title="Feature attributions (margin space)",
        ),
        encoding="utf-8",
    )

    # Governance archetypes on per-province means of either the predicted
    # probabilities (default) or the attribution vectors.
    province_ids = sorted({c.province_id for c in complaints})
    row_province = np.array([c.province_id for c in complaints])
    per_province_prob = np.array(
        [probabilities[row_province == pid].mean() for pid in province_ids]
    )
    if archetype_input == "probs":
        split = gbm.archetype_clusters(per_province_prob)
    elif archetype_input == "shap":
        vectors = np.vstack(
            [summary.phi[row_province == pid].mean(axis=0) for pid in province_ids]
        )
        assignment = spectral.kmeans(vectors, 2, seed=0)
        means = [per_province_prob[assignment.labels == c].mean() for c in (0, 1)]
        split = gbm.ArchetypeSplit(
            labels=assignment.labels,
            centroids=np.array(means),
            coproductive_cluster=int(np.argmax(means)),
        )
    else:
        raise ConfigError(f"unknown archetype input {archetype_input!r}")

    archetype_report = {
        "input": archetype_input,
        "coproductive_cluster": split.coproductive_cluster,
        "province_archetype": {
            str(pid): int(label) for pid, label in zip(province_ids, split.labels)
        },
        "mean_probability_by_archetype": {
            str(c): float(per_province_prob[split.labels == c].mean()) for c in (0, 1)
        },
    }
    artifacts = ["shap.csv", "shap_summary.svg", "archetype_report.json"]
    for c in (0, 1):
        members = {pid for pid, label in zip(province_ids, split.labels) if label == c}
        rows = np.array([cm.province_id in members for cm in complaints])
        if rows.sum() < 2:
            continue
        sub = treeshap.shap_summary(model, matrix.rows[rows])
        name = f"shap_archetype_{c}.svg"
        (out_dir / name).write_text(
            svg.beeswarm_svg(
                list(matrix.columns), sub.phi, matrix.rows[rows], list(sub.order),
                title=f"Archetype {c} attributions",
            ),
            encoding="utf-8",
        )
        artifacts.append(name)
    _write_json(out_dir / "archetype_report.json", archetype_report)
    return {
        "artifacts": sorted(artifacts),
        "top_feature": summary.ranking[0][0],
        "coproductive_cluster": split.coproductive_cluster,
    }


@dataclass(frozen=True)
class CausalOptions:
    methods: tuple[str, ...] = ("diffmeans", "s", "t", "x", "r", "cevae")
    bootstrap: int = 200
    preset: str = "desk"
    covariates: tuple[str, ...] = DEFAULT_CAUSAL_COVARIATES
    epochs: int | None = None
    base_learner: gbm.TrainConfig = causal_mod.DEFAULT_BASE_CONFIG
    unit: str = "message"  # message | province

    def __post_init__(self):
        if self.bootstrap != 0 and self.bootstrap < causal_mod.MIN_BOOTSTRAP:
            raise ConfigError(
                f"bootstrap must be 0 (no intervals) or at least {causal_mod.MIN_BOOTSTRAP}, "
                f"got {self.bootstrap}"
            )


def _complaint_covariate(
    complaint: ds.ComplaintRecord,
    province: ds.ProvinceRecord,
    name: str,
    schema: ds.ColumnSchema,
) -> float:
    if name == "sentiment":
        return complaint.sentiment
    if name == "attention":
        return float(complaint.attention)
    if name == "cluster_id":
        if complaint.cluster_id is None:
            raise ConfigError(f"complaint {complaint.id} has no cluster assignment")
        return float(complaint.cluster_id)
    return ds.province_feature(province, name, schema)


def build_causal_dataset(
    provinces: list[ds.ProvinceRecord],
    complaints: list[ds.ComplaintRecord],
    covariates: tuple[str, ...],
    schema: ds.ColumnSchema,
) -> causal_mod.CausalDataset:
    """Message-level rows; treatment is the province's high-efficiency flag."""
    by_id = {p.id: p for p in provinces}
    rows = np.empty((len(complaints), len(covariates)))
    treatment = np.empty(len(complaints), dtype=np.int64)
    outcome = np.empty(len(complaints), dtype=np.int64)
    for i, complaint in enumerate(complaints):
        province = by_id[complaint.province_id]
        if province.eco_group is None:
            raise ConfigError(f"province {province.id} has no efficiency group")
        rows[i] = [
            _complaint_covariate(complaint, province, name, schema) for name in covariates
        ]
        treatment[i] = province.eco_group is dea_mod.EcoGroup.HIGH
        outcome[i] = complaint.response_label.value
    return causal_mod.CausalDataset(covariates=rows, treatment=treatment, outcome=outcome)


def _province_level_estimate(
    method: str,
    data: causal_mod.CausalDataset,
    province_ids: np.ndarray,
    options: CausalOptions,
    method_seed: int,
    report: dict,
) -> causal_mod.AteEstimate:
    """One-unit-per-province estimate: message-level contrasts are averaged
    within each province before the across-province average."""
    boot = options.bootstrap
    if method == "diffmeans":
        means = causal_mod.group_mean_effects(data.outcome.astype(float), province_ids)
        treated = causal_mod.group_mean_effects(data.treatment.astype(float), province_ids) > 0.5
        ate = float(means[treated].mean() - means[~treated].mean())
        ci_low = ci_high = None
        if boot:
            ci_low, ci_high = causal_mod.bootstrap_group_diff_ci(
                means[treated], means[~treated], boot, 0.95, method_seed
            )
        return causal_mod.AteEstimate(
            ate=float(np.clip(ate, -1, 1)), ci_low=ci_low, ci_high=ci_high,
            method=causal_mod.Method.DIFF_MEANS,
        )

    base = options.base_learner
    if method == "s":
        effects = causal_mod.s_learner_effects(data, base)
        enum = causal_mod.Method.S
    elif method == "t":
        effects = causal_mod.t_learner_effects(data, base)
        enum = causal_mod.Method.T
    elif method == "x":
        effects = causal_mod.x_learner_effects(data, base)
        enum = causal_mod.Method.X
    elif method == "r":
        effects = causal_mod.r_learner_effects(data, base)
        enum = causal_mod.Method.R
    elif method == "cevae":
        model, config = _fit_cevae(data, options, method_seed)
        report["cevae_diagnostics"] = {
            "loss_history": model.loss_history,
            "preset": options.preset,
            "epochs": config.epochs,
        }
        effects = causal_mod.cevae_unit_effects(model, data, config.mc_samples, seed=method_seed)
        enum = causal_mod.Method.CEVAE
    else:
        raise ConfigError(f"unknown causal method {method!r}")

    by_province = causal_mod.group_mean_effects(effects, province_ids)
    ci_low = ci_high = None
    if boot:
        ci_low, ci_high = causal_mod.percentile_bootstrap_mean(
            by_province, boot, 0.95, method_seed
        )
    return causal_mod.AteEstimate(
        ate=float(np.clip(by_province.mean(), -1, 1)), ci_low=ci_low, ci_high=ci_high, method=enum,
    )


def _fit_cevae(
    data: causal_mod.CausalDataset, options: CausalOptions, method_seed: int
) -> tuple[causal_mod.CevaeModel, causal_mod.CevaeConfig]:
    preset = causal_mod.DESK_PRESET if options.preset == "desk" else causal_mod.PAPER_PRESET
    config = replace(preset, seed=method_seed)
    if options.epochs is not None:
        config = replace(config, epochs=options.epochs)
    return causal_mod.cevae_fit(data, config), config


def stage_causal(
    provinces_path: Path,
    complaints_path: Path,
    scores_path: Path,
    clusters_path: Path,
    options: CausalOptions,
    seed: int,
    out_dir: Path,
) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    provinces, schema = _load_scored_provinces(provinces_path, scores_path)
    complaints = _load_clustered_complaints(complaints_path, clusters_path)
    data = build_causal_dataset(provinces, complaints, options.covariates, schema)
    if options.unit not in ("message", "province"):
        raise ConfigError(f"unknown analysis unit {options.unit!r}")
    province_ids = np.array([c.province_id for c in complaints])

    base = options.base_learner
    report: dict[str, dict] = {}
    for method in options.methods:
        method_seed = derive_seed(seed, f"causal:{method}")
        if options.unit == "province":
            estimate = _province_level_estimate(
                method, data, province_ids, options, method_seed, report
            )
        elif method == "diffmeans":
            estimate = causal_mod.diff_means(data, options.bootstrap, seed=method_seed)
        elif method == "s":
            estimate = causal_mod.s_learner(data, base, options.bootstrap, seed=method_seed)
        elif method == "t":
            estimate = causal_mod.t_learner(data, base, options.bootstrap, seed=method_seed)
        elif method == "x":
            estimate = causal_mod.x_learner(data, base, n_boot=options.bootstrap, seed=method_seed)
        elif method == "r":
            estimate = causal_mod.r_learner(data, base, n_boot=options.bootstrap, seed=method_seed)
        elif method == "cevae":
            model, config = _fit_cevae(data, options, method_seed)
            estimate = causal_mod.cevae_ate(model, data, n_boot=options.bootstrap, seed=method_seed)
            report["cevae_diagnostics"] = {
                "loss_history": model.loss_history,
                "preset": options.preset,
                "epochs": config.epochs,
            }
        else:
            raise ConfigError(f"unknown causal method {method!r}")
        report[method] = {
            "ate": estimate.ate,
            "ci_low": estimate.ci_low,
            "ci_high": estimate.ci_high,
        }
    report["n_rows"] = data.n
    report["unit"] = options.unit
    report["covariates"] = list(options.covariates)
    _write_json(out_dir / "ate_report.json", report)
    methods_only = {m: report[m] for m in options.methods}
    return {"artifacts": ["ate_report.json"], "estimates": methods_only}


# ---------------------------------------------------------------------------
# Pipeline configuration and orchestration


@dataclass(frozen=True)
class PipelineConfig:
    provinces: Path
    complaints: Path
    out_dir: Path
    seed: int
    cluster: ClusterOptions
    train: gbm.TrainConfig
    causal: CausalOptions

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path) -> "PipelineConfig":
        try:
            inputs = raw["inputs"]
            provinces = base_dir / inputs["provinces"]
            complaints = base_dir / inputs["complaints"]
        except KeyError as exc:
            raise ConfigError(f"config missing key {exc.args[0]!r}") from None
        for path in (provinces, complaints):
            if not path.exists():
                raise ConfigError(f"input file does not exist: {path}")
        cluster_raw = dict(raw.get("cluster", {}))
        cluster = ClusterOptions(
            k=cluster_raw.get("k"),
            auto_k=cluster_raw.get("k") is None,
            k_max=cluster_raw.get("k_max", 12),
            permutations=cluster_raw.get("permutations", 99),
            smoothed_p=cluster_raw.get("smoothed_p", False),
        )
        train_raw = dict(raw.get("train", {}))
        train = gbm.TrainConfig(
            rounds=train_raw.get("rounds", 100),
            max_depth=train_raw.get("max_depth", 4),
            eta=train_raw.get("eta", 0.3),
            reg_lambda=train_raw.get("lambda", 1.0),
            min_child_cover=train_raw.get("min_child_cover", 1.0),
            folds=train_raw.get("folds", 5),
        )
        causal_raw = dict(raw.get("causal", {}))
        base_raw = dict(causal_raw.get("base_learner", {}))
        base = replace(
            causal_mod.DEFAULT_BASE_CONFIG,
            **{k: base_raw[k] for k in ("rounds", "max_depth", "eta", "folds") if k in base_raw},
        )
        causal = CausalOptions(
            methods=tuple(causal_raw.get("methods", ("diffmeans", "s", "t", "x", "r", "cevae"))),
            bootstrap=causal_raw.get("bootstrap", 200),
            preset=causal_raw.get("preset", "desk"),
            covariates=tuple(causal_raw.get("covariates", DEFAULT_CAUSAL_COVARIATES)),
            epochs=causal_raw.get("epochs"),
            base_learner=base,
            unit=causal_raw.get("unit", "message"),
        )
        return cls(
            provinces=provinces,
            complaints=complaints,
            out_dir=base_dir / raw.get("out_dir", "artifacts"),
            seed=int(raw.get("seed", 0)),
            cluster=cluster,
            train=train,
            causal=causal,
        )


def _set_override(raw: dict, assignment: str) -> None:
    """Apply one `--set dotted.key=value` override; values parse as JSON."""
    if "=" not in assignment:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    dotted, value = assignment.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object key {key!r}")
    node[keys[-1]] = parsed


def run_pipeline(config: PipelineConfig) -> dict:
    """Run dea -> cluster -> train -> explain -> causal, then write summary.json."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    failed_marker = out / "FAILED"
    if failed_marker.exists():
        failed_marker.unlink()

    summary: dict = {
        "seed": config.seed,
        "inputs": {"provinces": config.provinces.name, "complaints": config.complaints.name},
        "stages": {},
    }
    stage = "dea"
    try:
        summary["stages"]["dea"] = stage_dea(config.provinces, out)

        stage = "cluster"
        provinces, _ = _load_scored_provinces(config.provinces, out / "dea_scores.csv")
        groups = {p.id: p.eco_group for p in provinces}
        summary["stages"]["cluster"] = stage_cluster(
            config.complaints, config.cluster, derive_seed(config.seed, "cluster"), out,
            province_groups=groups,
        )

        stage = "train"
        train_config = replace(config.train, seed=derive_seed(config.seed, "train"))
        summary["stages"]["train"] = stage_train(
            config.provinces, config.complaints, out / "dea_scores.csv", out / "clusters.csv",
            train_config, out,
        )

        stage = "explain"
        summary["stages"]["explain"] = stage_explain(
            out / "model.json", config.provinces, config.complaints,
            out / "dea_scores.csv", out / "clusters.csv", out,
        )

        stage = "causal"
        summary["stages"]["causal"] = stage_causal(
            config.provinces, config.complaints, out / "dea_scores.csv", out / "clusters.csv",
            config.causal, derive_seed(config.seed, "causal"), out,
        )
    except EcoprodError as exc:
        failed_marker.write_text(f"{stage}: {exc}\n", encoding="utf-8")
        raise PipelineStageError(stage, str(exc)) from exc

    artifacts = []
    for stage_summary in summary["stages"].values():
        artifacts.extend(stage_summary["artifacts"])
    summary["artifacts"] = sorted(artifacts)
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecoprod",
        description="Efficiency scoring, complaint clustering, prediction, and effect estimation.",
    )
    parser.add_argument("--verbose", action="store_true", help="log solver and stage details")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic fixture with planted ground truth")
    synth.add_argument("--out", required=True)
    synth.add_argument("--provinces", type=int, default=27)
    synth.add_argument("--complaints", type=int, default=4221)
    synth.add_argument("--clusters", type=int, default=8)
    synth.add_argument("--embedding-dim", type=int, default=ds.DEFAULT_EMBEDDING_DIM)
    synth.add_argument("--true-ate", type=float, default=0.24)
    synth.add_argument("--confounding", type=float, default=1.0)
    synth.add_argument("--separation", type=float, default=8.0)
    synth.add_argument("--seed", type=int, default=0)

    dea_cmd = sub.add_parser("dea", help="score provinces and write dea_scores.csv")
    dea_cmd.add_argument("--provinces", required=True)
    dea_cmd.add_argument("--out", required=True)

    cluster_cmd = sub.add_parser("cluster", help="spectral-cluster complaints")
    cluster_cmd.add_argument("--complaints", required=True)
    cluster_cmd.add_argument("--out", required=True)
    group = cluster_cmd.add_mutually_exclusive_group()
    group.add_argument("--k", type=int)
    group.add_argument("--auto-k", action="store_true", default=True)
    cluster_cmd.add_argument("--kmax", type=int, default=12)
    cluster_cmd.add_argument("--permutations", type=int, default=99)
    cluster_cmd.add_argument("--seed", type=int, default=0)
    cluster_cmd.add_argument("--smoothed-p", action="store_true")
    cluster_cmd.add_argument("--provinces", help="optional, for centroid shifts")
    cluster_cmd.add_argument("--dea-scores", help="optional, for centroid shifts")

    def add_feature_inputs(p):
        p.add_argument("--provinces", required=True)
        p.add_argument("--complaints", required=True)
        p.add_argument("--dea-scores", required=True)
        p.add_argument("--clusters", required=True)
        p.add_argument("--out", required=True)

    train_cmd = sub.add_parser("train", help="train the co-production classifier")
    add_feature_inputs(train_cmd)
    train_cmd.add_argument("--rounds", type=int, default=100)
    train_cmd.add_argument("--max-depth", type=int, default=4)
    train_cmd.add_argument("--eta", type=float, default=0.3)
    train_cmd.add_argument("--lambda", dest="reg_lambda", type=float, default=1.0)
    train_cmd.add_argument("--folds", type=int, default=5)
    train_cmd.add_argument("--seed", type=int, default=0)

    explain_cmd = sub.add_parser("explain", help="attribution summaries for a trained model")
    add_feature_inputs(explain_cmd)
    explain_cmd.add_argument("--model", required=True)
    explain_cmd.add_argument("--archetype-input", choices=("probs", "shap"), default="probs")

    causal_cmd = sub.add_parser("causal", help="treatment-effect estimates")
    add_feature_inputs(causal_cmd)
    causal_cmd.add_argument(
        "--method", default="all",
        help="comma list of cevae,s,t,x,r,diffmeans or 'all'",
    )
    causal_cmd.add_argument("--bootstrap", type=int, default=200)
    causal_cmd.add_argument("--seed", type=int, default=0)
    causal_cmd.add_argument("--preset", choices=("desk", "paper"), default="desk")
    causal_cmd.add_argument("--epochs", type=int)
    causal_cmd.add_argument("--covariates", help="comma list of covariate names")
    causal_cmd.add_argument("--unit", choices=("message", "province"), default="message")

    pipeline_cmd = sub.add_parser("pipeline", help="run every stage from a JSON config")
    pipeline_cmd.add_argument("--config", required=True)
    pipeline_cmd.add_argument("--set", action="append", default=[], dest="overrides",
                              metavar="KEY=VALUE")
    return parser


def _require_file(raw: str) -> Path:
    path = Path(raw)
    if not path.exists():
        raise ConfigError(f"input file does not exist: {path}")
    return path


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "synth":
        try:
            spec = ds.SyntheticSpec(
                n_provinces=args.provinces,
                n_complaints=args.complaints,
                n_clusters=args.clusters,
                embedding_dim=args.embedding_dim,
                true_ate=args.true_ate,
                confounding_strength=args.confounding,
                cluster_separation=args.separation,
                seed=args.seed,
            )
        except DatasetError as exc:  # bad flag values are configuration errors
            raise ConfigError(str(exc)) from exc
        stage_synth(spec, Path(args.out))
        return EXIT_OK

    if args.command == "dea":
        stage_dea(_require_file(args.provinces), Path(args.out))
        return EXIT_OK

    if args.command == "cluster":
        options = ClusterOptions(
            k=args.k,
            auto_k=args.k is None,
            k_max=args.kmax,
            permutations=args.permutations,
            smoothed_p=args.smoothed_p,
        )
        groups = None
        if args.dea_scores:
            if not args.provinces:
                raise ConfigError("--dea-scores needs --provinces for the join")
            provinces, _ = _load_scored_provinces(
                _require_file(args.provinces), _require_file(args.dea_scores)
            )
            groups = {p.id: p.eco_group for p in provinces}
        stage_cluster(_require_file(args.complaints), options, args.seed, Path(args.out),
                      province_groups=groups)
        return EXIT_OK

    if args.command == "train":
        config = gbm.TrainConfig(
            rounds=args.rounds, max_depth=args.max_depth, eta=args.eta,
            reg_lambda=args.reg_lambda, folds=args.folds, seed=args.seed,
        )
        stage_train(
            _require_file(args.provinces), _require_file(args.complaints),
            _require_file(args.dea_scores), _require_file(args.clusters),
            config, Path(args.out),
        )
        return EXIT_OK

    if args.command == "explain":
        stage_explain(
            _require_file(args.model), _require_file(args.provinces),
            _require_file(args.complaints), _require_file(args.dea_scores),
            _require_file(args.clusters), Path(args.out),
            archetype_input=args.archetype_input,
        )
        return EXIT_OK

    if args.command == "causal":
        methods = (
            ("diffmeans", "s", "t", "x", "r", "cevae")
            if args.method == "all"
            else tuple(m.strip() for m in args.method.split(","))
        )
        options = CausalOptions(
            methods=methods,
            bootstrap=args.bootstrap,
            preset=args.preset,
            epochs=args.epochs,
            covariates=(
                tuple(c.strip() for c in args.covariates.split(","))
                if args.covariates
                else DEFAULT_CAUSAL_COVARIATES
            ),
            unit=args.unit,
        )
        stage_causal(
            _require_file(args.provinces), _require_file(args.complaints),
            _require_file(args.dea_scores), _require_file(args.clusters),
            options, args.seed, Path(args.out),
        )
        return EXIT_OK

    if args.command == "pipeline":
        config_path = _require_file(args.config)
        try:
            raw = json.loads(config_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from None
        for assignment in args.overrides:
            _set_override(raw, assignment)
        config = PipelineConfig.from_dict(raw, config_path.parent)
        run_pipeline(config)
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _threads_cap()  # validate the env cap up front
        return _dispatch(args)
    except ConfigError as exc:
        print(f"ecoprod: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineStageError as exc:
        print(f"ecoprod: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except EcoprodError as exc:
        print(f"ecoprod: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
