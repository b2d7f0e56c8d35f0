"""Command-line pipeline: synth, dea, cluster, train, explain, causal, pipeline.

Every stage is runnable standalone given its inputs; the `pipeline` command
chains them with per-stage seeds derived from one master seed (see
`ecoprod.seeding`), so running a stage manually with the derived seed
reproduces the pipeline's artifact byte for byte.  Every command runs with
OpenBLAS pinned to one thread (see `ecoprod.parallel`), so its artifacts
are the same on one CPU or on all.

Exit codes: 0 success, 1 stage/computation failure, 2 configuration or
input error.  A failed pipeline leaves its partial outputs plus a `FAILED`
marker file naming the stage.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import causal as causal_mod
from . import dataset as ds
from . import dea as dea_mod
from . import gbm, parallel, spectral, svg, treeshap
from .errors import ConfigError, EcoprodError, FeatureError, IngestionError, PipelineStageError
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


def _check_covariates(covariates: tuple[str, ...], provinces_path: Path) -> None:
    """A ConfigError naming causal.covariates for a name that neither a
    complaint nor the header of provinces.csv supplies."""
    known = ds.feature_names(ds.load_provinces(provinces_path).schema)
    unknown = [name for name in covariates if name not in known]
    if unknown:
        raise ConfigError(
            f"causal.covariates has unknown name {unknown[0]!r}; the complaints and the header "
            f"of {provinces_path.name} give {', '.join(known)}"
        )


# The columns of dea_scores.csv and clusters.csv that later stages read; a
# group reads as whether it is High.
SCORE_COLUMNS = {"id": int, "theta_vrs": ds.checked(float, lambda theta: 0 < theta <= 1),
                 "group": lambda group: dea_mod.EcoGroup(group) is dea_mod.EcoGroup.HIGH}
CLUSTER_COLUMNS = {"complaint_id": int, "cluster": ds.checked(int, lambda cluster: cluster >= 0)}


def _columns_for(keys: np.ndarray, path: Path, parsers: dict) -> dict[str, np.ndarray]:
    """Each column of `parsers` in the CSV file `path`, with the value of
    the row of each of `keys`, found by its value in the first column; a
    key no row has is an IngestionError naming the file."""
    table = ds.read_table(path, parsers)
    keys = keys.tolist()
    missing = [key for key in keys if key not in table]
    if missing:
        raise IngestionError(f"{path}: no row with {missing[0]} in column {next(iter(parsers))!r}")
    return {column: np.array([table[key][column] for key in keys]) for column in parsers}


def _scored_provinces(
    provinces_path: Path, scores_path: Path, complaints: ds.Complaints, complaints_path: Path
) -> tuple[ds.Provinces, np.ndarray, np.ndarray]:
    """The provinces of provinces.csv, the theta_vrs dea_scores.csv gives
    each, and whether it gives the province of each of `complaints` the
    High group.  A complaint of no province is an IngestionError naming
    complaints.jsonl."""
    provinces = ds.load_provinces(provinces_path)
    scores = _columns_for(provinces.ids, scores_path, SCORE_COLUMNS)
    try:
        home = complaints.province_rows(provinces)
    except FeatureError as exc:
        raise IngestionError(f"{complaints_path}: {exc}") from None
    return provinces, scores["theta_vrs"], scores["group"][home]


def _load_inputs(
    provinces_path: Path, complaints_path: Path, scores_path: Path, clusters_path: Path
) -> tuple[ds.Provinces, ds.Complaints, np.ndarray, np.ndarray, np.ndarray]:
    """The inputs of train, explain and causal: the provinces with the
    theta_vrs of each, the complaints with the cluster clusters.csv gives
    each, and whether each complaint's province is High (see
    `_scored_provinces`)."""
    complaints = ds.load_complaints(complaints_path)
    provinces, theta, treated = _scored_provinces(provinces_path, scores_path, complaints, complaints_path)
    clusters = _columns_for(complaints.ids, clusters_path, CLUSTER_COLUMNS)["cluster"]
    return provinces, complaints, theta, clusters, treated


def _classifier_matrix(
    provinces: ds.Provinces, complaints: ds.Complaints, theta: np.ndarray, clusters: np.ndarray
) -> ds.FeatureMatrix:
    """The rows of train and explain: every feature of the provinces'
    schema and one indicator per cluster."""
    columns = ds.classifier_columns(provinces.schema, int(clusters.max()) + 1)
    return ds.build_feature_matrix(provinces, complaints, columns, theta, clusters)


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and the pipeline)


def stage_synth(spec: ds.SyntheticSpec, out_dir: Path) -> dict:
    _make_dir(out_dir)
    provinces, complaints, truth = ds.generate_synthetic(spec)
    ds.write_provinces(out_dir / "provinces.csv", provinces)
    ds.write_complaints(out_dir / "complaints.jsonl", complaints)
    ds.write_ground_truth(out_dir / "ground_truth.json", truth)
    return {
        "artifacts": ["provinces.csv", "complaints.jsonl", "ground_truth.json"],
        "n_provinces": spec.n_provinces,
        "n_complaints": spec.n_complaints,
    }


def stage_dea(provinces_path: Path, out_dir: Path) -> dict:
    provinces = ds.load_provinces(provinces_path)
    panel = dea_mod.DeaPanel(inputs=provinces.env.T, outputs=provinces.gdp[None, :],
                             unit_ids=tuple(provinces.ids.tolist()))
    crs = dea_mod.dea_scores(panel, dea_mod.DeaOptions(rts=dea_mod.ReturnsToScale.CRS))
    vrs = dea_mod.dea_scores(panel, dea_mod.DeaOptions(rts=dea_mod.ReturnsToScale.VRS))
    groups = dea_mod.split_by_median(vrs)
    _make_dir(out_dir)
    ds.write_csv(
        out_dir / "dea_scores.csv", ["id", "theta_crs", "theta_vrs", "group"],
        ([unit_id, repr(float(crs.theta[i])), repr(float(vrs.theta[i])), groups[i].value]
         for i, unit_id in enumerate(panel.unit_ids)),
    )
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
    scores: tuple[Path, Path] | None = None,  # provinces.csv and dea_scores.csv, for the centroid shifts
) -> dict:
    complaints = ds.load_complaints(complaints_path)
    is_high = None if scores is None else _scored_provinces(*scores, complaints, complaints_path)[2]
    # k-means cannot fill more clusters than there are complaints; say so
    # before the elbow curve spends a best-of-restarts run on every k.
    key, count = ("cluster.k", options.k) if options.k is not None else ("cluster.k_max", options.k_max)
    if count > len(complaints.ids):
        raise ConfigError(f"{key} must be at most the {len(complaints.ids)} complaints, got {count}")
    _make_dir(out_dir)
    embeddings = complaints.embeddings

    wcss_report: dict[str, float]
    if options.k is not None:
        k = options.k
    else:
        curve = spectral.wcss_curve(embeddings, options.k_max, derive_seed(seed, "elbow"))
        k = spectral.elbow_from_curve(curve)
        wcss_report = {str(i + 1): float(w) for i, w in enumerate(curve)}
    assignment, embedded = spectral.spectral_cluster(embeddings, k, derive_seed(seed, "cluster"))
    perm = spectral.permutation_test(
        embeddings, k, options.permutations, derive_seed(seed, "perm"),
        observed=(embedded, assignment.labels),
    )
    if options.k is not None:
        wcss_report = {str(k): assignment.wcss}
    silhouette = perm.s_obs
    rates = spectral.coproduction_rate_by_cluster(assignment.labels, complaints.labels, k)

    shifts_report = None
    if is_high is not None:
        shifts = spectral.centroid_shift(embeddings, assignment.labels, is_high)
        # string keys, so that sort_keys orders cluster 10 after cluster 1
        shifts_report = {str(cluster): distance for cluster, distance in shifts.items()}

    ds.write_csv(out_dir / "clusters.csv", ["complaint_id", "cluster"],
                 zip(complaints.ids.tolist(), assignment.labels.tolist()))

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
    ds.write_json(out_dir / "cluster_report.json", report)

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
    matrix = _classifier_matrix(*_load_inputs(provinces_path, complaints_path, scores_path, clusters_path)[:4])
    _make_dir(out_dir)
    target = matrix.target.astype(np.float64)
    cv = gbm.cross_validate(matrix.rows, target, config)
    model = gbm.train_classifier(matrix.rows, target, config, feature_names=matrix.columns)
    gbm.save_model(model, out_dir / "model.json")
    ds.write_json(
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
    if archetype_input not in ("probs", "shap"):
        raise ConfigError(f"unknown archetype input {archetype_input!r}")
    model = gbm.load_model(model_path)
    provinces, complaints, theta, clusters, _ = _load_inputs(provinces_path, complaints_path, scores_path,
                                                             clusters_path)
    matrix = _classifier_matrix(provinces, complaints, theta, clusters)
    _make_dir(out_dir)
    if tuple(matrix.columns) != model.feature_names:
        raise ConfigError("feature columns do not match the trained model")

    shap = treeshap.tree_shap(model, matrix.rows)
    summary = treeshap.ShapSummary.of(shap.phi, matrix.rows, model.feature_names)
    margins = gbm.predict_margin(model, matrix.rows)
    probabilities = gbm.predict_proba(model, matrix.rows)

    ds.write_csv(
        out_dir / "shap.csv", ["complaint_id", "base", "margin", *(f"phi_{c}" for c in matrix.columns)],
        ([complaint_id, repr(shap.base), repr(float(margin)), *map(repr, phi)]
         for complaint_id, margin, phi in zip(complaints.ids.tolist(), margins, shap.phi.tolist())),
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
    province_ids = np.unique(complaints.province_ids)
    row_province = complaints.province_ids
    in_province = [row_province == pid for pid in province_ids]
    per_province_prob = np.array([probabilities[rows].mean() for rows in in_province])
    vectors = np.vstack([summary.phi[rows].mean(axis=0) for rows in in_province]) if archetype_input == "shap" else None
    split = gbm.archetype_clusters(per_province_prob, vectors)

    archetype_report = {
        "input": archetype_input,
        "coproductive_cluster": split.coproductive_cluster,
        "province_archetype": {
            str(pid): int(label) for pid, label in zip(province_ids.tolist(), split.labels)
        },
        "mean_probability_by_archetype": {
            str(c): float(per_province_prob[split.labels == c].mean()) for c in (0, 1)
        },
    }
    artifacts = ["shap.csv", "shap_summary.svg", "archetype_report.json"]
    for c in (0, 1):
        rows = np.isin(row_province, province_ids[split.labels == c])
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
    ds.write_json(out_dir / "archetype_report.json", archetype_report)
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
    provinces, complaints, theta, clusters, treated = _load_inputs(provinces_path, complaints_path, scores_path,
                                                                   clusters_path)
    _make_dir(out_dir)
    matrix = ds.build_feature_matrix(provinces, complaints, options.covariates, theta, clusters)
    data = causal_mod.CausalDataset(covariates=matrix.rows, treatment=treated, outcome=matrix.target)
    groups = complaints.province_ids if options.unit == "province" else None

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
    ds.write_json(out_dir / "ate_report.json", report)
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
    scores, clusters = out / "dea_scores.csv", out / "clusters.csv"
    summary: dict = {
        "seed": config.seed,
        "inputs": {"provinces": provinces.name, "complaints": complaints.name},
        "stages": {},
    }
    # Each stage is looked up when it runs, so that a wrapper set on this
    # module's attribute after import is the one called.
    stages = {
        "dea": lambda: stage_dea(provinces, out),
        "cluster": lambda: stage_cluster(
            complaints, config.cluster, derive_seed(config.seed, "cluster"), out,
            scores=(provinces, scores),
        ),
        "train": lambda: stage_train(
            provinces, complaints, scores, clusters,
            replace(config.train, seed=derive_seed(config.seed, "train")), out,
        ),
        "explain": lambda: stage_explain(out / "model.json", provinces, complaints, scores, clusters, out),
        "causal": lambda: stage_causal(
            provinces, complaints, scores, clusters, config.causal, derive_seed(config.seed, "causal"), out,
        ),
    }
    for stage, run in stages.items():
        logger.info("stage %s: started", stage)
        started = time.perf_counter()
        try:
            summary["stages"][stage] = run()
        except EcoprodError as exc:
            failed_marker.write_text(f"{stage}: {exc}\n", encoding="utf-8")
            raise PipelineStageError(stage, str(exc)) from exc
        logger.info("stage %s: finished in %.2f s", stage, time.perf_counter() - started)

    summary["artifacts"] = sorted(name for stage in summary["stages"].values() for name in stage["artifacts"])
    ds.write_json(out / "summary.json", summary)
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

    # Flags of the option sets default to None, so only what the user sets
    # reaches `_options`; the defaults live in the dataclasses.
    synth = sub.add_parser("synth", help="write a synthetic fixture with planted ground truth")
    synth.add_argument("--out", required=True)
    synth.add_argument("--provinces", dest="n_provinces", type=int)
    synth.add_argument("--complaints", dest="n_complaints", type=int)
    synth.add_argument("--clusters", dest="n_clusters", type=int)
    synth.add_argument("--embedding-dim", type=int)
    synth.add_argument("--true-ate", type=float)
    synth.add_argument("--confounding", dest="confounding_strength", type=float)
    synth.add_argument("--separation", dest="cluster_separation", type=float)
    synth.add_argument("--seed", type=int)

    dea_cmd = sub.add_parser("dea", help="score provinces and write dea_scores.csv")
    dea_cmd.add_argument("--provinces", required=True)
    dea_cmd.add_argument("--out", required=True)

    cluster_cmd = sub.add_parser("cluster", help="spectral-cluster complaints")
    cluster_cmd.add_argument("--complaints", required=True)
    cluster_cmd.add_argument("--out", required=True)
    cluster_cmd.add_argument("--k", type=int, help="fixed cluster count (default: elbow of the wcss curve)")
    cluster_cmd.add_argument("--kmax", dest="k_max", type=int)
    cluster_cmd.add_argument("--permutations", type=int)
    cluster_cmd.add_argument("--seed", type=int, default=0)
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
        spec = _options(ds.SyntheticSpec, _given(args, *(f.name for f in fields(ds.SyntheticSpec))), "")
        stage_synth(spec, Path(args.out))
        return EXIT_OK

    if args.command == "dea":
        stage_dea(_require_file(args.provinces), Path(args.out))
        return EXIT_OK

    if args.command == "cluster":
        options = _options(ClusterOptions, _given(args, "k", "k_max", "permutations"), "cluster")
        scores = None
        if bool(args.dea_scores) != bool(args.provinces):
            raise ConfigError("--provinces and --dea-scores are joined for the centroid shifts: give both or neither")
        if args.dea_scores:
            scores = (_require_file(args.provinces), _require_file(args.dea_scores))
        stage_cluster(_require_file(args.complaints), options, args.seed, Path(args.out), scores=scores)
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
        with parallel.one_blas_thread():
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
