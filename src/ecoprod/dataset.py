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
import io
import json
import math
import re
import typing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dea import EcoGroup, split_by_median
from .errors import DatasetError, FeatureError, IngestionError


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


def read_text(path: Path) -> str:
    """The whole file as UTF-8 text.  A file that cannot be read, or a byte
    that is not UTF-8, is an IngestionError naming the file (and the
    1-based line of the byte)."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc.strerror})") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise IngestionError(f"{path}: line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None


def read_table(
    path: Path,
    parsers: dict | typing.Callable[[list[str]], dict],
    check: typing.Callable[[dict], str | None] | None = None,
) -> dict:
    """The data rows of the CSV file `path` as {key: {column: value}}: the
    cells of the columns of `parsers` (or of the parsers it returns for the
    header row) parsed by theirs, keyed by the first.  The header must name
    each such column once, each row needs a cell per header column and a key
    of its own, and a parser's ValueError rejects its cell; every breach is
    an IngestionError naming the file, the 1-based line and the column.  A
    fault that `check` returns for a parsed row is one too, naming the file
    and the line."""
    rows = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(rows, [])
    if callable(parsers):
        parsers = parsers(header)
    for column in parsers:
        if header.count(column) != 1:
            fault = "repeated" if column in header else "missing"
            raise IngestionError(f"{path}: line 1: {fault} column {column!r}")
    key = next(iter(parsers))
    table: dict = {}
    for row in rows:
        where = f"{path}: line {rows.line_num}"
        if len(row) != len(header):
            gap = (f"no cell in column {header[len(row)]!r}" if len(row) < len(header)
                   else f"a cell past column {header[-1]!r}")
            raise IngestionError(f"{where}: {len(row)} cells for {len(header)} columns, {gap}")
        cells = dict(zip(header, row))
        values = {}
        for column, parse in parsers.items():
            try:
                values[column] = parse(cells[column])
            except ValueError:
                raise IngestionError(f"{where}: bad value {cells[column]!r} in column {column!r}") from None
        if values[key] in table:
            raise IngestionError(f"{where}: repeated value {values[key]!r} in column {key!r}")
        if check and (fault := check(values)):
            raise IngestionError(f"{where}: {fault}")
        table[values[key]] = values
    return table


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """The one CSV writer: `header`, then each row of `rows`, "\n"-terminated."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: dict) -> None:
    """The one JSON artifact writer: indented by 2, keys sorted, a final newline."""
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def checked(parse: typing.Callable[[str], typing.Any], check: typing.Callable[[typing.Any], bool]):
    """A cell parser: `parse`, then a ValueError unless `check` holds."""
    def parsed(raw: str):
        value = parse(raw)
        if not check(value):
            raise ValueError(raw)
        return value
    return parsed


def load_provinces(path: str | Path) -> tuple[list[ProvinceRecord], ColumnSchema]:
    """Read `provinces.csv` under the schema its header declares: `id` an
    int, env inputs finite, >= 0 and not all 0, `gdp_output` finite and > 0,
    fiscal columns finite.  Errors name the file, the line and the columns."""
    path = Path(path)
    schema = DEFAULT_SCHEMA  # replaced by the header's

    def parsers(header: list[str]) -> dict:
        nonlocal schema
        if header[:2] != ["id", "name"]:
            raise IngestionError(f"{path}: line 1: header must start with columns 'id', 'name'")
        if "gdp_output" not in header:
            raise IngestionError(f"{path}: line 1: missing column 'gdp_output'")
        split = header.index("gdp_output")
        if split < 3:
            raise IngestionError(f"{path}: line 1: no env input column before column 'gdp_output'")
        schema = ColumnSchema(env_columns=tuple(header[2:split]), fiscal_columns=tuple(header[split + 1:]))
        return {
            "id": int,
            "name": str,
            **dict.fromkeys(schema.env_columns, checked(float, lambda value: 0 <= value < math.inf)),
            "gdp_output": checked(float, lambda value: 0 < value < math.inf),
            **dict.fromkeys(schema.fiscal_columns, checked(float, math.isfinite)),
        }

    def all_zero(row: dict) -> str | None:
        if not any(row[c] > 0 for c in schema.env_columns):
            return f"every env input is 0 in columns {', '.join(map(repr, schema.env_columns))}"

    table = read_table(path, parsers, all_zero)
    records = [
        ProvinceRecord(
            id=row["id"],
            name=row["name"],
            env_inputs=np.array([row[c] for c in schema.env_columns]),
            gdp_output=row["gdp_output"],
            fiscal_features={c: row[c] for c in schema.fiscal_columns},
        )
        for row in table.values()
    ]
    return records, schema


def write_provinces(path: str | Path, records: list[ProvinceRecord], schema: ColumnSchema) -> None:
    """Write records in schema order; floats use shortest round-trip form."""
    write_csv(path, schema.header(), (
        [record.id, record.name, *map(repr, record.env_inputs.tolist()), repr(record.gdp_output),
         *(repr(record.fiscal_features[c]) for c in schema.fiscal_columns)]
        for record in records
    ))


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


def load_complaints(path: str | Path) -> list[ComplaintRecord]:
    """Read `complaints.jsonl`.

    The embedding dimension is declared by the first record; every later
    record must match it, and no two records share an `id`.  Errors name
    the file, the 1-based line and the field.
    """
    path = Path(path)
    records: list[ComplaintRecord] = []
    id_lines: dict[int, int] = {}
    embedding_dim = None
    try:
        handle = path.open("rb")  # read line by line: a whole-file read would raise peak RSS
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc.strerror})") from None
    with handle:
        for line_number, raw in enumerate(handle, start=1):
            where = f"{path}: line {line_number}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise IngestionError(f"{where}: byte {raw[exc.start]:#04x} is not UTF-8") from None
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestionError(f"{where}: invalid JSON ({exc.msg})") from None
            record_id, province_id, embedding, sentiment, attention, label = _complaint_fields(obj, where)
            first_line = id_lines.setdefault(record_id, line_number)
            if first_line != line_number:
                raise IngestionError(f"{where}: field 'id' repeats {record_id} from line {first_line}")
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


def feature_names(schema: ColumnSchema) -> tuple[str, ...]:
    """Every name a classifier feature or causal covariate may use under
    `schema`: the province's `eco_efficiency`, `gdp_output`, env inputs and
    fiscal sectors, then the complaint's `sentiment`, `attention` and
    `cluster_id`.  The classifier replaces `cluster_id` with the indicators
    `cluster_<c>` (see `classifier_columns`)."""
    return ("eco_efficiency", "gdp_output", *schema.env_columns, *schema.fiscal_columns,
            "sentiment", "attention", "cluster_id")


def classifier_columns(schema: ColumnSchema, n_clusters: int) -> tuple[str, ...]:
    """The classifier's columns in model order: every feature name but
    `cluster_id`, then `cluster_0` ... `cluster_<n_clusters - 1>`, the 0/1
    indicators of the complaint's cluster.  The default schema with 8
    clusters gives 27 columns."""
    return (
        *(name for name in feature_names(schema) if name != "cluster_id"),
        *(f"cluster_{c}" for c in range(n_clusters)),
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


def build_feature_matrix(
    provinces: list[ProvinceRecord],
    complaints: list[ComplaintRecord],
    columns: tuple[str, ...],
    schema: ColumnSchema = DEFAULT_SCHEMA,
) -> FeatureMatrix:
    """One row per complaint and one column per name in `columns`, each a
    name of `feature_names(schema)` or a cluster indicator `cluster_<c>`; a
    province feature takes the value of the complaint's province.  The
    target is the complaint's response label."""
    index = {p.id: i for i, p in enumerate(provinces)}
    stray = next((c for c in complaints if c.province_id not in index), None)
    if stray is not None:
        raise FeatureError(f"complaint {stray.id} references unknown province {stray.province_id}")
    home = np.array([index[c.province_id] for c in complaints], dtype=np.intp)
    rows = np.empty((len(complaints), len(columns)))
    for j, name in enumerate(columns):
        indicator = re.fullmatch(r"cluster_([0-9]+)", name)
        if name in ("sentiment", "attention"):
            rows[:, j] = [getattr(c, name) for c in complaints]
        elif name == "cluster_id" or indicator:
            bad = next((c for c in complaints if c.cluster_id is None or c.cluster_id < 0), None)
            if bad is not None:
                raise FeatureError(f"complaint {bad.id} has cluster {bad.cluster_id}, not a label >= 0")
            cluster = np.array([c.cluster_id for c in complaints])
            rows[:, j] = cluster == int(indicator[1]) if indicator else cluster
        else:
            if name == "eco_efficiency":
                unscored = next((p for p in provinces if p.eco_score is None), None)
                if unscored is not None:
                    raise FeatureError(f"province {unscored.id} has no eco_efficiency score yet")
                values = [p.eco_score for p in provinces]
            elif name == "gdp_output":
                values = [p.gdp_output for p in provinces]
            elif name in schema.env_columns:
                values = [p.env_inputs[schema.env_columns.index(name)] for p in provinces]
            elif name in schema.fiscal_columns:
                values = [p.fiscal_features[name] for p in provinces]
            else:
                raise FeatureError(f"unknown feature {name!r}")
            rows[:, j] = np.array(values, dtype=np.float64)[home]
    target = [c.response_label.value for c in complaints]
    return FeatureMatrix(columns=tuple(columns), rows=rows, target=target)


# ---------------------------------------------------------------------------
# Synthetic fixtures with planted ground truth


@dataclass(frozen=True)
class SyntheticSpec:
    """Everything the fixture generator needs; equal specs give equal bytes."""

    n_provinces: int = 27
    n_complaints: int = 4221
    n_clusters: int = 8
    embedding_dim: int = 768
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
    write_json(path, truth.to_json())
