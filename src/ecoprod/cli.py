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
import sys
import types
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import causal as causal_mod
from . import dataset as ds
from . import dea as dea_mod
from . import gbm, spectral, svg, treeshap
from .errors import ConfigError, DatasetError, EcoprodError, IngestionError, PipelineStageError
from .seeding import derive_seed

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

UNITS = ("message", "province")
PRESETS = {"desk": causal_mod.DESK_PRESET, "paper": causal_mod.PAPER_PRESET}
METHODS = tuple(m.value for m in causal_mod.Method)


def _make_dir(path: Path) -> None:
    """Create the output directory `path` and its parents; an OSError, such
    as `path` naming a file, is a ConfigError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path} ({exc.strerror})") from None


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _check_covariates(covariates: tuple[str, ...], provinces_path: Path) -> None:
    """A ConfigError naming causal.covariates for a name that neither a
    complaint nor the header of provinces.csv supplies."""
    known = ds.feature_names(ds.load_provinces(provinces_path)[1])
    unknown = [name for name in covariates if name not in known]
    if unknown:
        raise ConfigError(
            f"causal.covariates has unknown name {unknown[0]!r}; the complaints and the header "
            f"of {provinces_path.name} give {', '.join(known)}"
        )


# The columns of dea_scores.csv and clusters.csv that later stages read.
SCORE_COLUMNS = {"id": int, "theta_vrs": ds.checked(float, lambda theta: 0 < theta <= 1), "group": dea_mod.EcoGroup}
CLUSTER_COLUMNS = {"complaint_id": int, "cluster": ds.checked(int, lambda cluster: cluster >= 0)}


def _rows_for(keys: list, path: Path, parsers: dict) -> list[dict]:
    """The row of the CSV file `path` for each of `keys`, found by its value
    in the first column of `parsers`; a key no row has is an IngestionError
    naming the file."""
    table = ds.read_table(path, parsers)
    missing = [key for key in keys if key not in table]
    if missing:
        raise IngestionError(f"{path}: no row with {missing[0]} in column {next(iter(parsers))!r}")
    return [table[key] for key in keys]


def _province_groups(provinces_path: Path, scores_path: Path) -> dict[int, dea_mod.EcoGroup]:
    """The group dea_scores.csv gives each province of provinces.csv."""
    provinces, _ = ds.load_provinces(provinces_path)
    scores = _rows_for([p.id for p in provinces], scores_path, SCORE_COLUMNS)
    return {p.id: score["group"] for p, score in zip(provinces, scores)}


def _load_inputs(
    provinces_path: Path, complaints_path: Path, scores_path: Path, clusters_path: Path
) -> tuple[list[ds.ProvinceRecord], list[ds.ComplaintRecord], ds.ColumnSchema]:
    """The joined inputs of train, explain and causal: each province of
    provinces.csv with its score and group from dea_scores.csv, each
    complaint of complaints.jsonl with its cluster from clusters.csv, and
    the schema of provinces.csv."""
    provinces, schema = ds.load_provinces(provinces_path)
    scores = _rows_for([p.id for p in provinces], scores_path, SCORE_COLUMNS)
    complaints = ds.load_complaints(complaints_path)
    clusters = _rows_for([c.id for c in complaints], clusters_path, CLUSTER_COLUMNS)
    return (
        [replace(p, eco_score=s["theta_vrs"], eco_group=s["group"]) for p, s in zip(provinces, scores)],
        [replace(c, cluster_id=row["cluster"]) for c, row in zip(complaints, clusters)],
        schema,
    )


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and the pipeline)


def stage_synth(spec: ds.SyntheticSpec, out_dir: Path) -> dict:
    _make_dir(out_dir)
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
    provinces, _ = ds.load_provinces(provinces_path)
    panel = dea_mod.DeaPanel(
        inputs=np.column_stack([p.env_inputs for p in provinces]),
        outputs=np.array([[p.gdp_output for p in provinces]]),
        unit_ids=tuple(p.id for p in provinces),
    )
    crs = dea_mod.dea_scores(panel, dea_mod.DeaOptions(rts=dea_mod.ReturnsToScale.CRS))
    vrs = dea_mod.dea_scores(panel, dea_mod.DeaOptions(rts=dea_mod.ReturnsToScale.VRS))
    groups = dea_mod.split_by_median(vrs)
    _make_dir(out_dir)
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
    k: int | None = None  # None picks k by the elbow of the wcss curve over 1..k_max
    k_max: int = 12
    permutations: int = 99
    smoothed_p: bool = False

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1 or null, got {self.k}")
        if self.k_max < 3:  # the elbow needs a point on each side of its k
            raise ConfigError(f"k_max must be >= 3, got {self.k_max}")
        if self.permutations < 1:
            raise ConfigError(f"permutations must be >= 1, got {self.permutations}")


def stage_cluster(
    complaints_path: Path,
    options: ClusterOptions,
    seed: int,
    out_dir: Path,
    province_groups: dict[int, dea_mod.EcoGroup] | None = None,
) -> dict:
    complaints = ds.load_complaints(complaints_path)
    if province_groups is not None:
        stray = next((c for c in complaints if c.province_id not in province_groups), None)
        if stray is not None:
            raise ConfigError(f"{complaints_path}: complaint {stray.id} has province_id {stray.province_id}, "
                              "which no province has")
    # k-means cannot fill more clusters than there are complaints; say so
    # before the elbow curve spends a best-of-restarts run on every k.
    key, count = ("cluster.k", options.k) if options.k is not None else ("cluster.k_max", options.k_max)
    if count > len(complaints):
        raise ConfigError(f"{key} must be at most the {len(complaints)} complaints, got {count}")
    _make_dir(out_dir)
    embeddings = np.array([c.embedding for c in complaints])

    wcss_report: dict[str, float]
    if options.k is not None:
        k = options.k
    else:
        curve = spectral.wcss_curve(embeddings, options.k_max, derive_seed(seed, "elbow"))
        k = spectral.elbow_from_curve(curve)
        wcss_report = {str(i + 1): float(w) for i, w in enumerate(curve)}
    assignment, embedded = spectral.spectral_cluster(embeddings, k, derive_seed(seed, "cluster"))
    if options.k is not None:
        wcss_report = {str(k): assignment.wcss}
    perm = spectral.permutation_test(
        embeddings, k, options.permutations, derive_seed(seed, "perm"),
        observed=(embedded, assignment.labels),
    )
    silhouette = perm.s_obs

    clustered = [replace(c, cluster_id=int(label)) for c, label in zip(complaints, assignment.labels)]
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


def stage_train(
    provinces_path: Path,
    complaints_path: Path,
    scores_path: Path,
    clusters_path: Path,
    config: gbm.TrainConfig,
    out_dir: Path,
) -> dict:
    provinces, complaints, schema = _load_inputs(provinces_path, complaints_path, scores_path, clusters_path)
    _make_dir(out_dir)
    columns = ds.classifier_columns(schema, max(c.cluster_id for c in complaints) + 1)
    matrix = ds.build_feature_matrix(provinces, complaints, columns, schema)
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
    model = gbm.load_model(model_path)
    provinces, complaints, schema = _load_inputs(provinces_path, complaints_path, scores_path, clusters_path)
    _make_dir(out_dir)
    columns = ds.classifier_columns(schema, max(c.cluster_id for c in complaints) + 1)
    matrix = ds.build_feature_matrix(provinces, complaints, columns, schema)
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
        sub = treeshap.ShapSummary.of(summary.phi[rows], matrix.rows[rows], summary.feature_names)
        name = f"shap_archetype_{c}.svg"
        (out_dir / name).write_text(
            svg.beeswarm_svg(
                list(matrix.columns), sub.phi, sub.values, list(sub.order),
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
    methods: tuple[str, ...] = METHODS
    bootstrap: int = 200
    preset: str = "desk"
    covariates: tuple[str, ...] = ("sentiment", "attention", "cluster_id", "gdp_output", "fiscal_environment",
                                   "fiscal_agriculture_forestry", "fiscal_transport")
    epochs: int | None = None  # None keeps the preset's epoch count
    base_learner: gbm.TrainConfig = causal_mod.DEFAULT_BASE_CONFIG
    unit: str = "message"

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"methods has unknown method {unknown[0]!r}; choose from {', '.join(METHODS)}")
        if self.bootstrap != 0 and self.bootstrap < causal_mod.MIN_BOOTSTRAP:
            raise ConfigError(
                f"bootstrap must be 0 (no intervals) or at least {causal_mod.MIN_BOOTSTRAP}, "
                f"got {self.bootstrap}"
            )
        if self.epochs is not None and self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1 or null, got {self.epochs}")
        for name, allowed in (("preset", tuple(PRESETS)), ("unit", UNITS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {getattr(self, name)!r}")


def stage_causal(
    provinces_path: Path,
    complaints_path: Path,
    scores_path: Path,
    clusters_path: Path,
    options: CausalOptions,
    seed: int,
    out_dir: Path,
) -> dict:
    provinces, complaints, schema = _load_inputs(provinces_path, complaints_path, scores_path, clusters_path)
    _make_dir(out_dir)
    matrix = ds.build_feature_matrix(provinces, complaints, options.covariates, schema)
    eco_group = {p.id: p.eco_group for p in provinces}
    data = causal_mod.CausalDataset(
        covariates=matrix.rows,
        treatment=[eco_group[c.province_id] is dea_mod.EcoGroup.HIGH for c in complaints],
        outcome=matrix.target,
    )
    groups = np.array([c.province_id for c in complaints]) if options.unit == "province" else None

    # Built per call, not at import: perfbench/tracing.py replaces these
    # module attributes with timing wrappers after import, and the wrappers
    # give the causal.method_s.<method> spans.
    learners = {"s": causal_mod.s_learner, "t": causal_mod.t_learner,
                "x": causal_mod.x_learner, "r": causal_mod.r_learner}
    report: dict[str, dict] = {}
    for method in options.methods:
        method_seed = derive_seed(seed, f"causal:{method}")
        if method == "diffmeans":
            estimate = causal_mod.diff_means(data, options.bootstrap, method_seed, groups)
        elif method == "cevae":
            preset = PRESETS[options.preset]
            config = replace(preset, seed=method_seed, epochs=options.epochs or preset.epochs)
            model = causal_mod.cevae_fit(data, config)
            estimate = causal_mod.cevae_ate(model, data, options.bootstrap, method_seed, groups)
            report["cevae_diagnostics"] = {
                "loss_history": model.loss_history,
                "preset": options.preset,
                "epochs": model.config.epochs,
            }
        else:
            estimate = learners[method](data, options.base_learner, options.bootstrap, method_seed, groups)
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


# Sections whose JSON keys are not their class's field names: `train` calls
# reg_lambda `lambda` and takes its seed from the master seed, and the causal
# base learner sets four fields only.
_JSON_KEYS = {
    "train": {**{k: k for k in ("rounds", "max_depth", "eta", "min_child_cover", "folds")}, "lambda": "reg_lambda"},
    "causal.base_learner": {k: k for k in ("rounds", "max_depth", "eta", "folds")},
}


def _typed(value, hint, key: str):
    """`value` if it has the field type `hint`, else a ConfigError naming `key`.
    Nothing is coerced: a bool is no number and a float field keeps an int.
    A JSON list stands for a tuple and a string for a path."""
    optional = typing.get_origin(hint) is types.UnionType  # `X | None`
    if optional:
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:  # tuple[str, ...]
        name = "a list of strings"
        if type(value) in (list, tuple) and all(type(v) is str for v in value):
            return tuple(value)
    elif hint is Path:
        name = "a string"
        if type(value) is str:
            return Path(value)
    else:
        name = hint.__name__
        if type(value) is hint or hint is float and type(value) is int:
            return value
    raise ConfigError(f"{key} must be {name}{' or null' if optional else ''}, got {value!r}")


def _options(base, raw, section: str, keys: dict[str, str] | None = None):
    """The dataclass `base` (a class, or an instance standing in for its
    defaults) with the values of the object `raw`, whose keys map to fields
    through `keys` (default: each field by its name; nested sections use
    `_JSON_KEYS`).  An unknown key, a mistyped value, a missing required key
    or a value the class's checks reject (worded "<field> ...") is a
    ConfigError naming the dotted key."""
    dotted = lambda key: f"{section}.{key}" if section else key  # noqa: E731
    if not isinstance(raw, dict):
        raise ConfigError(f"{section or 'config'} must be an object, got {raw!r}")
    cls = base if isinstance(base, type) else type(base)
    keys = keys or {f.name: f.name for f in fields(cls)}
    hints = typing.get_type_hints(cls)
    values = {f.name: getattr(base, f.name) for f in fields(cls) if hasattr(base, f.name)}
    for key, value in raw.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {dotted(key)}")
        name = keys[key]
        if is_dataclass(hints[name]):
            values[name] = _options(values.get(name, hints[name]), value, dotted(key), _JSON_KEYS.get(dotted(key)))
        else:
            values[name] = _typed(value, hints[name], dotted(key))
    missing = [key for key, name in keys.items() if name not in values]
    if missing:
        raise ConfigError(f"missing config key {dotted(missing[0])}")
    try:
        return cls(**values)
    except EcoprodError as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{dotted(next((k for k, f in keys.items() if f == name), name))} {rest}") from None


@dataclass(frozen=True)
class PipelineInputs:
    provinces: Path
    complaints: Path


@dataclass(frozen=True)
class PipelineConfig:
    inputs: PipelineInputs
    out_dir: Path = Path("artifacts")
    seed: int = 0
    cluster: ClusterOptions = ClusterOptions()
    train: gbm.TrainConfig = gbm.TrainConfig()
    causal: CausalOptions = CausalOptions()

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path) -> "PipelineConfig":
        """The config object; its paths are relative to `base_dir`."""
        config = _options(cls, raw, "")
        paths = (config.inputs.provinces, config.inputs.complaints)
        inputs = PipelineInputs(*(_require_file(base_dir / p) for p in paths))
        _check_covariates(config.causal.covariates, inputs.provinces)
        return replace(config, inputs=inputs, out_dir=base_dir / config.out_dir)


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
    _make_dir(out)
    failed_marker = out / "FAILED"
    if failed_marker.exists():
        failed_marker.unlink()

    provinces, complaints = config.inputs.provinces, config.inputs.complaints
    summary: dict = {
        "seed": config.seed,
        "inputs": {"provinces": provinces.name, "complaints": complaints.name},
        "stages": {},
    }
    stage = "dea"
    try:
        summary["stages"]["dea"] = stage_dea(provinces, out)

        stage = "cluster"
        groups = _province_groups(provinces, out / "dea_scores.csv")
        summary["stages"]["cluster"] = stage_cluster(
            complaints, config.cluster, derive_seed(config.seed, "cluster"), out,
            province_groups=groups,
        )

        stage = "train"
        train_config = replace(config.train, seed=derive_seed(config.seed, "train"))
        summary["stages"]["train"] = stage_train(
            provinces, complaints, out / "dea_scores.csv", out / "clusters.csv",
            train_config, out,
        )

        stage = "explain"
        summary["stages"]["explain"] = stage_explain(
            out / "model.json", provinces, complaints,
            out / "dea_scores.csv", out / "clusters.csv", out,
        )

        stage = "causal"
        summary["stages"]["causal"] = stage_causal(
            provinces, complaints, out / "dea_scores.csv", out / "clusters.csv",
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

    # Flags of the option sets default to None, so only what the user sets
    # reaches `_options`; the defaults live in the dataclasses.
    cluster_cmd = sub.add_parser("cluster", help="spectral-cluster complaints")
    cluster_cmd.add_argument("--complaints", required=True)
    cluster_cmd.add_argument("--out", required=True)
    cluster_cmd.add_argument("--k", type=int, help="fixed cluster count (default: elbow of the wcss curve)")
    cluster_cmd.add_argument("--kmax", dest="k_max", type=int)
    cluster_cmd.add_argument("--permutations", type=int)
    cluster_cmd.add_argument("--seed", type=int, default=0)
    cluster_cmd.add_argument("--smoothed-p", action="store_true", default=None)
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
    train_cmd.add_argument("--rounds", type=int)
    train_cmd.add_argument("--max-depth", type=int)
    train_cmd.add_argument("--eta", type=float)
    train_cmd.add_argument("--lambda", dest="reg_lambda", type=float)
    train_cmd.add_argument("--folds", type=int)
    train_cmd.add_argument("--seed", type=int)

    explain_cmd = sub.add_parser("explain", help="attribution summaries for a trained model")
    add_feature_inputs(explain_cmd)
    explain_cmd.add_argument("--model", required=True)
    explain_cmd.add_argument("--archetype-input", choices=("probs", "shap"), default="probs")

    def comma_list(raw: str) -> tuple[str, ...]:
        return tuple(item.strip() for item in raw.split(","))

    causal_cmd = sub.add_parser("causal", help="treatment-effect estimates")
    add_feature_inputs(causal_cmd)
    causal_cmd.add_argument(
        "--method", dest="methods", type=lambda raw: None if raw == "all" else comma_list(raw),
        help=f"comma list of {','.join(METHODS)} or 'all'",
    )
    causal_cmd.add_argument("--bootstrap", type=int)
    causal_cmd.add_argument("--seed", type=int, default=0)
    causal_cmd.add_argument("--preset", choices=tuple(PRESETS))
    causal_cmd.add_argument("--epochs", type=int)
    causal_cmd.add_argument("--covariates", type=comma_list, help="comma list of covariate names")
    causal_cmd.add_argument("--unit", choices=UNITS)

    pipeline_cmd = sub.add_parser("pipeline", help="run every stage from a JSON config")
    pipeline_cmd.add_argument("--config", required=True)
    pipeline_cmd.add_argument("--set", action="append", default=[], dest="overrides",
                              metavar="KEY=VALUE")
    return parser


def _require_file(raw: str) -> Path:
    path = Path(raw)
    if not path.exists():
        raise ConfigError(f"input file does not exist: {path}")
    if path.is_dir():
        raise ConfigError(f"input path is a directory, not a file: {path}")
    return path


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The flags among `names` that were set on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


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
        options = _options(ClusterOptions, _given(args, "k", "k_max", "permutations", "smoothed_p"), "cluster")
        groups = None
        if args.dea_scores:
            if not args.provinces:
                raise ConfigError("--dea-scores needs --provinces for the join")
            groups = _province_groups(_require_file(args.provinces), _require_file(args.dea_scores))
        stage_cluster(_require_file(args.complaints), options, args.seed, Path(args.out),
                      province_groups=groups)
        return EXIT_OK

    if args.command == "train":
        config = _options(
            gbm.TrainConfig,
            _given(args, "rounds", "max_depth", "eta", "reg_lambda", "folds", "seed"),
            "train",
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
        options = _options(
            CausalOptions,
            _given(args, "methods", "bootstrap", "preset", "epochs", "covariates", "unit"),
            "causal",
        )
        _check_covariates(options.covariates, _require_file(args.provinces))
        stage_causal(
            _require_file(args.provinces), _require_file(args.complaints),
            _require_file(args.dea_scores), _require_file(args.clusters),
            options, args.seed, Path(args.out),
        )
        return EXIT_OK

    if args.command == "pipeline":
        config_path = _require_file(args.config)
        try:
            raw = json.loads(ds.read_text(config_path))
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
        return _dispatch(args)
    except ConfigError as exc:
        print(f"ecoprod: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as exc:
        print(f"ecoprod: input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EcoprodError as exc:  # a PipelineStageError included
        print(f"ecoprod: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
