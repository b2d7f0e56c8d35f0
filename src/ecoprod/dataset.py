"""Data model, file ingestion, feature assembly, and synthetic fixtures.

Two input files drive everything downstream:

* ``provinces.csv`` — one row per decision-making unit.  Header layout is
  ``id,name,<env input columns...>,gdp_output,<fiscal columns...>`` with a
  declared `ColumnSchema`; all numerics are 64-bit reals with ``.`` decimals.
* ``complaints.jsonl`` — one JSON object per line with keys
  ``id, province_id, embedding, sentiment, attention, label`` where label 1
  maps to a co-production response and 0 to a one-way response.

`generate_synthetic` builds a fixture with planted ground truth at every
stage: a known frontier subset among the provinces, well-separated Gaussian
clusters for the complaint embeddings, and response labels drawn from a
logistic model whose treatment shift is calibrated so the average effect on
the probability scale equals exactly the requested value.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dea import EcoGroup, split_by_median
from .errors import DatasetError, FeatureError, IngestionError

DEFAULT_EMBEDDING_DIM = 768


class ResponseLabel(Enum):
    CO_PRODUCTION = 1
    ONE_WAY = 0


@dataclass(frozen=True)
class ProvinceRecord:
    """One decision-making unit: environmental inputs, GDP, fiscal profile."""

    id: int
    name: str
    env_inputs: np.ndarray
    gdp_output: float
    fiscal_features: dict[str, float]
    eco_score: float | None = None
    eco_group: EcoGroup | None = None

    def __post_init__(self):
        env = np.asarray(self.env_inputs, dtype=np.float64)
        if np.any(env < 0) or not np.all(np.isfinite(env)):
            raise IngestionError(f"province {self.id}: env inputs must be finite and >= 0")
        if not np.any(env > 0):
            raise IngestionError(f"province {self.id}: at least one env input must be positive")
        if not (math.isfinite(self.gdp_output) and self.gdp_output > 0):
            raise IngestionError(f"province {self.id}: gdp_output must be positive")
        if self.eco_score is not None and not 0.0 < self.eco_score <= 1.0:
            raise IngestionError(f"province {self.id}: eco_score outside (0, 1]")
        object.__setattr__(self, "env_inputs", env)

    def with_score(self, eco_score: float, eco_group: EcoGroup) -> "ProvinceRecord":
        return ProvinceRecord(
            id=self.id,
            name=self.name,
            env_inputs=self.env_inputs,
            gdp_output=self.gdp_output,
            fiscal_features=dict(self.fiscal_features),
            eco_score=eco_score,
            eco_group=eco_group,
        )


@dataclass(frozen=True)
class ComplaintRecord:
    """One citizen message: embedding vector, sentiment, response label."""

    id: int
    province_id: int
    embedding: np.ndarray
    sentiment: float
    attention: int
    response_label: ResponseLabel
    cluster_id: int | None = None

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        if not np.all(np.isfinite(emb)):
            raise IngestionError(f"complaint {self.id}: non-finite embedding entry")
        if self.attention not in (0, 1):
            raise IngestionError(f"complaint {self.id}: attention must be 0 or 1")
        object.__setattr__(self, "embedding", emb)

    def with_cluster(self, cluster_id: int) -> "ComplaintRecord":
        return ComplaintRecord(
            id=self.id,
            province_id=self.province_id,
            embedding=self.embedding,
            sentiment=self.sentiment,
            attention=self.attention,
            response_label=self.response_label,
            cluster_id=cluster_id,
        )


@dataclass(frozen=True)
class ColumnSchema:
    """Declared province-file layout: env input columns then fiscal columns."""

    env_columns: tuple[str, ...]
    fiscal_columns: tuple[str, ...]

    def header(self) -> list[str]:
        return ["id", "name", *self.env_columns, "gdp_output", *self.fiscal_columns]


DEFAULT_SCHEMA = ColumnSchema(
    env_columns=(
        "env_air_emissions",
        "env_water_emissions",
        "env_energy_use",
        "env_soot_dust",
        "env_sewage",
    ),
    fiscal_columns=(
        "fiscal_environment",
        "fiscal_agriculture_forestry",
        "fiscal_transport",
        "fiscal_education",
        "fiscal_health",
        "fiscal_housing",
        "fiscal_science_tech",
        "fiscal_social_security",
        "fiscal_culture",
        "fiscal_general_services",
    ),
)


def infer_schema(header: list[str]) -> ColumnSchema:
    """Recover the schema from a header following the documented layout."""
    if len(header) < 4 or header[0] != "id" or header[1] != "name":
        raise IngestionError("header must start with 'id,name'")
    if "gdp_output" not in header:
        raise IngestionError("header is missing 'gdp_output'")
    split = header.index("gdp_output")
    if split < 3:
        raise IngestionError("header declares no env input columns")
    return ColumnSchema(
        env_columns=tuple(header[2:split]),
        fiscal_columns=tuple(header[split + 1:]),
    )


def _parse_real(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise IngestionError(f"row {row}: non-numeric value {raw!r} in column '{column}'") from None
    if not math.isfinite(value):
        raise IngestionError(f"row {row}: non-finite value in column '{column}'")
    return value


def load_provinces(path: str | Path, schema: ColumnSchema) -> list[ProvinceRecord]:
    """Read `provinces.csv` against a declared schema.

    Errors name the offending data row (1-based) and column.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"province file not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file, expected a header row") from None
        expected = schema.header()
        if header != expected:
            missing = [c for c in expected if c not in header]
            if missing:
                raise IngestionError(f"{path}: missing column '{missing[0]}'")
            raise IngestionError(f"{path}: header {header} does not match schema {expected}")

        records = []
        for row_number, row in enumerate(reader, start=1):
            if len(row) != len(expected):
                raise IngestionError(f"row {row_number}: expected {len(expected)} cells, got {len(row)}")
            cells = dict(zip(expected, row))
            try:
                province_id = int(cells["id"])
            except ValueError:
                raise IngestionError(f"row {row_number}: non-integer value in column 'id'") from None
            env = np.array([_parse_real(cells[c], row_number, c) for c in schema.env_columns])
            if np.any(env < 0):
                bad = schema.env_columns[int(np.nonzero(env < 0)[0][0])]
                raise IngestionError(f"row {row_number}: negative input in column '{bad}'")
            gdp = _parse_real(cells["gdp_output"], row_number, "gdp_output")
            if gdp <= 0:
                raise IngestionError(f"row {row_number}: non-positive value in column 'gdp_output'")
            fiscal = {c: _parse_real(cells[c], row_number, c) for c in schema.fiscal_columns}
            records.append(
                ProvinceRecord(
                    id=province_id,
                    name=cells["name"],
                    env_inputs=env,
                    gdp_output=gdp,
                    fiscal_features=fiscal,
                )
            )
    return records


def write_provinces(path: str | Path, records: list[ProvinceRecord], schema: ColumnSchema) -> None:
    """Write records in schema order; floats use shortest round-trip form."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(schema.header())
        for record in records:
            writer.writerow(
                [
                    record.id,
                    record.name,
                    *(repr(v) for v in record.env_inputs.tolist()),
                    repr(record.gdp_output),
                    *(repr(record.fiscal_features[c]) for c in schema.fiscal_columns),
                ]
            )


_COMPLAINT_KEYS = ("id", "province_id", "embedding", "sentiment", "attention", "label")


def finite_number(value) -> bool:
    """A JSON number (not a bool) that is neither NaN nor infinite."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _finite_vector(value) -> np.ndarray | None:
    """A JSON list of numbers (not bools), none NaN or infinite, as float64;
    None for anything else."""
    if type(value) is not list or not set(map(type, value)) <= {int, float}:
        return None
    try:
        vector = np.asarray(value, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    return vector if np.all(np.isfinite(vector)) else None


def _complaint_fields(obj, where: str) -> tuple[int, int, np.ndarray, float, int, int]:
    """The six fields of one complaints.jsonl record, each of its declared
    type; anything else is an IngestionError naming `where` and the field."""
    if not isinstance(obj, dict):
        raise IngestionError(f"{where}: expected a JSON object")
    missing = [key for key in _COMPLAINT_KEYS if key not in obj]
    if missing:
        raise IngestionError(f"{where}: missing key {missing[0]!r}")
    for key in ("id", "province_id"):
        if type(obj[key]) is not int:
            raise IngestionError(f"{where}: field {key!r} must be an integer, got {obj[key]!r}")
    for key in ("attention", "label"):
        if type(obj[key]) is not int or obj[key] not in (0, 1):
            raise IngestionError(f"{where}: field {key!r} must be the integer 0 or 1, got {obj[key]!r}")
    if not finite_number(obj["sentiment"]):
        raise IngestionError(f"{where}: field 'sentiment' must be a finite number, got {obj['sentiment']!r}")
    embedding = _finite_vector(obj["embedding"])
    if embedding is None:
        raise IngestionError(f"{where}: field 'embedding' must be a list of finite numbers")
    return obj["id"], obj["province_id"], embedding, float(obj["sentiment"]), obj["attention"], obj["label"]


def load_complaints(path: str | Path, embedding_dim: int | None = None) -> list[ComplaintRecord]:
    """Read `complaints.jsonl`.

    The embedding dimension is declared by the first record unless given
    explicitly; every later record must match it.  Errors name the file,
    the 1-based line and the field.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"complaint file not found: {path}")
    records: list[ComplaintRecord] = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {line_number}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestionError(f"{where}: invalid JSON ({exc.msg})") from None
            record_id, province_id, embedding, sentiment, attention, label = _complaint_fields(obj, where)
            if embedding_dim is None:
                embedding_dim = embedding.shape[0]
            if embedding.shape != (embedding_dim,):
                raise IngestionError(
                    f"{where}: embedding length {embedding.shape[0]} "
                    f"does not match declared dimension {embedding_dim}"
                )
            records.append(
                ComplaintRecord(
                    id=record_id,
                    province_id=province_id,
                    embedding=embedding,
                    sentiment=sentiment,
                    attention=attention,
                    response_label=ResponseLabel(label),
                )
            )
    return records


def write_complaints(path: str | Path, records: list[ComplaintRecord]) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "id": record.id,
                        "province_id": record.province_id,
                        "embedding": record.embedding.tolist(),
                        "sentiment": record.sentiment,
                        "attention": record.attention,
                        "label": record.response_label.value,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Feature-matrix assembly


@dataclass(frozen=True)
class FeaturePlan:
    """Ordered recipe for one feature row per complaint.

    Province features come first (resolved by name: 'eco_efficiency',
    'gdp_output', any env or fiscal column), then complaint features
    ('sentiment', 'attention'), then the cluster encoding.
    """

    province_features: tuple[str, ...]
    complaint_features: tuple[str, ...] = ("sentiment", "attention")
    cluster_encoding: str | None = "onehot"  # onehot | id | None
    n_clusters: int | None = None

    def column_names(self) -> tuple[str, ...]:
        names = list(self.province_features) + list(self.complaint_features)
        if self.cluster_encoding == "onehot":
            if self.n_clusters is None:
                raise FeatureError("onehot cluster encoding needs n_clusters")
            names += [f"cluster_{c}" for c in range(self.n_clusters)]
        elif self.cluster_encoding == "id":
            names.append("cluster_id")
        elif self.cluster_encoding is not None:
            raise FeatureError(f"unknown cluster encoding {self.cluster_encoding!r}")
        return tuple(names)


def default_feature_plan(schema: ColumnSchema = DEFAULT_SCHEMA, n_clusters: int = 8) -> FeaturePlan:
    """Default plan: efficiency + GDP + env + fiscal + sentiment/attention + one-hot clusters."""
    return FeaturePlan(
        province_features=("eco_efficiency", "gdp_output", *schema.env_columns, *schema.fiscal_columns),
        n_clusters=n_clusters,
    )


@dataclass(frozen=True)
class FeatureMatrix:
    columns: tuple[str, ...]
    rows: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise FeatureError("row width does not match declared columns")
        if not np.all(np.isfinite(rows)):
            raise FeatureError("feature matrix contains non-finite entries")
        target = np.asarray(self.target, dtype=np.int64)
        if target.shape != (rows.shape[0],):
            raise FeatureError("target length does not match row count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "target", target)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise FeatureError(f"no feature named {name!r}") from None


def province_feature_names(schema: ColumnSchema) -> tuple[str, ...]:
    """Every name `province_feature` resolves under `schema`."""
    return ("eco_efficiency", "gdp_output", *schema.env_columns, *schema.fiscal_columns)


def province_feature(province: ProvinceRecord, name: str, schema: ColumnSchema) -> float:
    """Resolve one named province-level feature value."""
    if name == "eco_efficiency":
        if province.eco_score is None:
            raise FeatureError(f"province {province.id} has no eco_efficiency score yet")
        return province.eco_score
    if name == "gdp_output":
        return province.gdp_output
    if name in schema.env_columns:
        return float(province.env_inputs[schema.env_columns.index(name)])
    if name in province.fiscal_features:
        return province.fiscal_features[name]
    raise FeatureError(f"requested feature {name!r} absent from province {province.id}")


def build_feature_matrix(
    provinces: list[ProvinceRecord],
    complaints: list[ComplaintRecord],
    plan: FeaturePlan,
    schema: ColumnSchema = DEFAULT_SCHEMA,
) -> FeatureMatrix:
    """One row per complaint: province features ++ complaint features ++ cluster."""
    by_id = {p.id: p for p in provinces}
    columns = plan.column_names()
    rows = np.empty((len(complaints), len(columns)))
    target = np.empty(len(complaints), dtype=np.int64)

    for row_index, complaint in enumerate(complaints):
        province = by_id.get(complaint.province_id)
        if province is None:
            raise FeatureError(
                f"complaint {complaint.id} references unknown province {complaint.province_id}"
            )
        values = [province_feature(province, name, schema) for name in plan.province_features]
        for name in plan.complaint_features:
            if name == "sentiment":
                values.append(complaint.sentiment)
            elif name == "attention":
                values.append(float(complaint.attention))
            else:
                raise FeatureError(f"unknown complaint feature {name!r}")
        if plan.cluster_encoding is not None:
            if complaint.cluster_id is None:
                raise FeatureError(f"complaint {complaint.id} has no cluster assignment")
            if plan.cluster_encoding == "onehot":
                onehot = [0.0] * plan.n_clusters
                if not 0 <= complaint.cluster_id < plan.n_clusters:
                    raise FeatureError(
                        f"complaint {complaint.id}: cluster {complaint.cluster_id} "
                        f"outside [0, {plan.n_clusters})"
                    )
                onehot[complaint.cluster_id] = 1.0
                values.extend(onehot)
            else:
                values.append(float(complaint.cluster_id))
        rows[row_index] = values
        target[row_index] = complaint.response_label.value
    return FeatureMatrix(columns=columns, rows=rows, target=target)


# ---------------------------------------------------------------------------
# Synthetic fixtures with planted ground truth


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything the fixture generator needs; equal specs give equal bytes."""

    n_provinces: int = 27
    n_complaints: int = 4221
    n_clusters: int = 8
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    true_ate: float = 0.24
    confounding_strength: float = 1.0
    seed: int = 0
    cluster_separation: float = 8.0

    def __post_init__(self):
        if min(self.n_provinces, self.n_complaints, self.n_clusters, self.embedding_dim) < 1:
            raise DatasetError("all counts must be >= 1")
        if not -1.0 <= self.true_ate <= 1.0:
            raise DatasetError("true_ate must lie in [-1, 1]")
        if self.confounding_strength < 0:
            raise DatasetError("confounding_strength must be >= 0")
        if self.seed < 0:
            raise DatasetError("seed must be non-negative")
        if self.n_clusters > self.embedding_dim:
            raise DatasetError("n_clusters cannot exceed embedding_dim")
        if self.cluster_separation <= 0:
            raise DatasetError("cluster_separation must be positive")


@dataclass(frozen=True)
class GroundTruth:
    """Planted facts carried alongside a synthetic fixture."""

    frontier_ids: tuple[int, ...]
    planted_theta: dict[int, float]
    province_groups: dict[int, str]
    cluster_labels: np.ndarray
    true_ate: float
    treatment_shift: float

    def to_json(self) -> dict:
        return {
            "frontier_ids": list(self.frontier_ids),
            "planted_theta": {str(k): v for k, v in self.planted_theta.items()},
            "province_groups": dict(sorted(self.province_groups.items())),
            "cluster_labels": self.cluster_labels.tolist(),
            "true_ate": self.true_ate,
            "treatment_shift": self.treatment_shift,
        }


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def calibrate_treatment_shift(eta: np.ndarray, target_effect: float, tol: float = 1e-12) -> float:
    """Find the logit shift whose mean probability lift equals the target.

    Solves mean(sigmoid(eta + g) - sigmoid(eta)) = target_effect for g by
    bisection; the left side is continuous and strictly increasing in g with
    range (-mean(sigmoid(eta)), 1 - mean(sigmoid(eta))).
    """
    base = float(np.mean(_sigmoid(eta)))
    if not -base < target_effect < 1.0 - base:
        raise DatasetError(
            f"target effect {target_effect} is unreachable from a base rate of {base:.4f}"
        )
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lift = float(np.mean(_sigmoid(eta + mid))) - base
        if abs(lift - target_effect) <= tol:
            return mid
        if lift < target_effect:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _planted_frontier(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input levels, GDP values, and exact efficiency scores for n units.

    A concave curve gdp = 10 * level^0.6 hosts the frontier units; interior
    units sit strictly below the piecewise-linear hull of those points, so
    frontier membership and every theta are known in closed form (all units
    share one input mix, which collapses the frontier to a single dimension).
    """
    n_frontier = max(1, min(n, round(0.25 * n) + 1))
    frontier_levels = np.linspace(1.0, 2.0, n_frontier) if n_frontier > 1 else np.array([1.0])
    frontier_gdp = 10.0 * frontier_levels ** 0.6

    levels = np.empty(n)
    gdp = np.empty(n)
    theta = np.empty(n)
    levels[:n_frontier] = frontier_levels
    gdp[:n_frontier] = frontier_gdp
    theta[:n_frontier] = 1.0

    n_interior = n - n_frontier
    if n_interior:
        interior_levels = rng.uniform(1.05, 2.0, n_interior)
        hull_at = np.interp(interior_levels, frontier_levels, frontier_gdp)
        capacity = rng.standard_normal(n_interior)
        ratio = 0.55 + 0.37 * _sigmoid(capacity + 0.5 * rng.standard_normal(n_interior))
        interior_gdp = hull_at * ratio
        # Exact input-oriented score: the cheapest frontier mix matching the
        # unit's output, relative to the unit's own input level.
        min_level = np.where(
            interior_gdp <= frontier_gdp[0],
            frontier_levels[0],
            np.interp(interior_gdp, frontier_gdp, frontier_levels),
        )
        levels[n_frontier:] = interior_levels
        gdp[n_frontier:] = interior_gdp
        theta[n_frontier:] = min_level / interior_levels
    return levels, gdp, theta


def generate_synthetic(
    spec: SyntheticSpec, schema: ColumnSchema = DEFAULT_SCHEMA
) -> tuple[list[ProvinceRecord], list[ComplaintRecord], GroundTruth]:
    """Provinces + complaints + planted truth, a pure function of the spec."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n_provinces

    levels, gdp, theta = _planted_frontier(n, rng)
    order = rng.permutation(n)  # avoid frontier units clumping at low ids
    levels, gdp, theta = levels[order], gdp[order], theta[order]

    capacity = rng.standard_normal(n) + 0.8 * (theta - float(np.mean(theta)))
    mix = rng.uniform(0.5, 3.0, len(schema.env_columns))
    fiscal_base = rng.uniform(50.0, 400.0, len(schema.fiscal_columns))

    if n >= 2:
        groups = split_by_median(theta)
    else:
        groups = [EcoGroup.HIGH]

    provinces = []
    for j in range(n):
        fiscal_values = fiscal_base * np.exp(0.2 * rng.standard_normal(len(fiscal_base)) + 0.25 * capacity[j])
        provinces.append(
            ProvinceRecord(
                id=j + 1,
                name=f"Province{j + 1:02d}",
                env_inputs=levels[j] * mix,
                gdp_output=float(gdp[j]),
                fiscal_features={c: float(v) for c, v in zip(schema.fiscal_columns, fiscal_values)},
            )
        )

    frontier_ids = tuple(int(j + 1) for j in range(n) if theta[j] == 1.0)

    # Complaint embeddings: one Gaussian per cluster, centers pairwise
    # separated by exactly `cluster_separation` (orthonormal directions).
    k, dim = spec.n_clusters, spec.embedding_dim
    directions, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    centers = (spec.cluster_separation / np.sqrt(2.0)) * directions.T
    cluster_labels = rng.integers(0, k, spec.n_complaints)
    embeddings = centers[cluster_labels] + rng.standard_normal((spec.n_complaints, dim))

    province_index = rng.integers(0, n, spec.n_complaints)
    cluster_effect = rng.uniform(-0.7, 0.7, k)
    sentiment_mean = rng.uniform(-1.0, 1.0, k)
    sentiment = sentiment_mean[cluster_labels] + 0.5 * rng.standard_normal(spec.n_complaints)
    attention = (rng.random(spec.n_complaints) < 0.3).astype(np.int64)

    eta = (
        -0.5
        + 0.6 * sentiment
        + 0.8 * attention
        + cluster_effect[cluster_labels]
        + spec.confounding_strength * 0.8 * capacity[province_index]
    )
    shift = calibrate_treatment_shift(eta, spec.true_ate)
    treated = np.array([groups[j] is EcoGroup.HIGH for j in province_index])
    probs = _sigmoid(eta + shift * treated)
    labels = (rng.random(spec.n_complaints) < probs).astype(np.int64)

    complaints = [
        ComplaintRecord(
            id=i + 1,
            province_id=int(province_index[i]) + 1,
            embedding=embeddings[i],
            sentiment=float(sentiment[i]),
            attention=int(attention[i]),
            response_label=ResponseLabel.CO_PRODUCTION if labels[i] else ResponseLabel.ONE_WAY,
        )
        for i in range(spec.n_complaints)
    ]

    truth = GroundTruth(
        frontier_ids=frontier_ids,
        planted_theta={j + 1: float(theta[j]) for j in range(n)},
        province_groups={j + 1: groups[j].value for j in range(n)},
        cluster_labels=cluster_labels.astype(np.int64),
        true_ate=spec.true_ate,
        treatment_shift=float(shift),
    )
    return provinces, complaints, truth


def write_ground_truth(path: str | Path, truth: GroundTruth) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(truth.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
