import json
import re

import numpy as np
import pytest

from ecoprod import dataset as ds
from ecoprod.dea import EcoGroup
from ecoprod.errors import DatasetError, FeatureError, IngestionError

TWO_COLUMN_SCHEMA = ds.ColumnSchema(env_columns=("in1", "in2"), fiscal_columns=())


def write(tmp_path, text, name="provinces.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_provinces_direct_mapping(tmp_path):
    path = write(tmp_path, "id,name,in1,in2,gdp_output\n1,Alpha,2.0,3.0,10.0\n")
    records, schema = ds.load_provinces(path)
    assert schema == TWO_COLUMN_SCHEMA
    assert len(records) == 1
    record = records[0]
    assert record.env_inputs.tolist() == [2.0, 3.0]
    assert record.gdp_output == 10.0
    assert record.name == "Alpha"
    assert record.eco_score is None and record.eco_group is None


def test_load_provinces_empty_data_section(tmp_path):
    path = write(tmp_path, "id,name,in1,in2,gdp_output\n")
    assert ds.load_provinces(path) == ([], TWO_COLUMN_SCHEMA)


def test_load_provinces_negative_gdp_names_row_and_column(tmp_path):
    path = write(tmp_path, "id,name,in1,in2,gdp_output\n1,Alpha,2.0,3.0,-1\n")
    with pytest.raises(IngestionError, match=re.escape(f"{path}: line 2: ") + ".*'gdp_output'"):
        ds.load_provinces(path)


def test_load_provinces_missing_column(tmp_path):
    path = write(tmp_path, "id,name,in1,in2\n1,Alpha,2.0,10.0\n")
    with pytest.raises(IngestionError, match="gdp_output"):
        ds.load_provinces(path)
    path = write(tmp_path, "id,name,in1,in2,gdp_output\n1,Alpha,2.0,10.0\n")
    with pytest.raises(IngestionError, match=re.escape(f"{path}: line 2: 4 cells for 5 columns") + ".*'gdp_output'"):
        ds.load_provinces(path)


def test_load_provinces_non_numeric_cell(tmp_path):
    path = write(tmp_path, "id,name,in1,in2,gdp_output\n1,Alpha,2.0,oops,10.0\n")
    with pytest.raises(IngestionError, match=re.escape(f"{path}: line 2: ") + ".*'in2'"):
        ds.load_provinces(path)


def test_load_provinces_negative_input_named(tmp_path):
    path = write(tmp_path, "id,name,in1,in2,gdp_output\n1,Alpha,2.0,-3.0,10.0\n")
    with pytest.raises(IngestionError, match=re.escape(f"{path}: line 2: ") + ".*'in2'"):
        ds.load_provinces(path)


def test_province_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    schema = ds.DEFAULT_SCHEMA
    records = [
        ds.ProvinceRecord(
            id=i,
            name=f"P{i}",
            env_inputs=rng.uniform(0.1, 7.3, len(schema.env_columns)),
            gdp_output=float(rng.uniform(1, 100)) + 0.1 + 0.2,  # awkward float
            fiscal_features={c: float(rng.standard_normal()) for c in schema.fiscal_columns},
        )
        for i in range(1, 6)
    ]
    path = tmp_path / "p.csv"
    ds.write_provinces(path, records, schema)
    loaded, loaded_schema = ds.load_provinces(path)
    assert loaded_schema == schema
    for before, after in zip(records, loaded):
        assert after.env_inputs.tolist() == before.env_inputs.tolist()
        assert after.gdp_output == before.gdp_output
        assert after.fiscal_features == before.fiscal_features


def test_load_complaints_trivial(tmp_path):
    line = {"id": 1, "province_id": 1, "embedding": [0.1, 0.2], "sentiment": 0.3,
            "attention": 0, "label": 1}
    path = write(tmp_path, json.dumps(line) + "\n", "c.jsonl")
    records = ds.load_complaints(path)
    assert records[0].response_label is ds.ResponseLabel.CO_PRODUCTION
    assert records[0].embedding.tolist() == [0.1, 0.2]


def test_load_complaints_dimension_mismatch(tmp_path):
    line = {"id": 1, "province_id": 1, "embedding": [0.1, 0.2], "sentiment": 0.0,
            "attention": 0, "label": 0}
    longer = {**line, "id": 2, "embedding": [0.1, 0.2, 0.3]}
    path = write(tmp_path, json.dumps(line) + "\n" + json.dumps(longer) + "\n", "c.jsonl")
    with pytest.raises(IngestionError, match="line 2: embedding length 3 does not match declared dimension 2"):
        ds.load_complaints(path)


def test_load_complaints_rejects_repeated_id(tmp_path):
    line = {"id": 1, "province_id": 1, "embedding": [0.1, 0.2], "sentiment": 0.0,
            "attention": 0, "label": 0}
    lines = [line, {**line, "id": 2}, {**line, "province_id": 2}]
    path = write(tmp_path, "".join(json.dumps(obj) + "\n" for obj in lines), "c.jsonl")
    with pytest.raises(IngestionError) as caught:
        ds.load_complaints(path)
    assert f"{path}: line 3: field 'id' repeats 1 from line 1" in str(caught.value)


@pytest.mark.parametrize("name", ["provinces.csv", "complaints.jsonl"])
def test_non_utf8_byte_names_file_and_line(tmp_path, name):
    if name == "provinces.csv":
        text, load = "id,name,in1,gdp_output\n1,Alpha,2.0,10.0\n2,B\xff,2.0,10.0\n", ds.load_provinces
    else:
        line = json.dumps({"id": 1, "province_id": 1, "embedding": [0.1], "sentiment": 0.0,
                           "attention": 0, "label": 0})
        text, load = line + "\n" + line.replace('"id": 1', '"id": 2, "note": "\xff"') + "\n", ds.load_complaints
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(IngestionError) as caught:
        load(path)
    assert f"{path}: line " in str(caught.value) and "0xff is not UTF-8" in str(caught.value)
    assert f"line {2 if name == 'complaints.jsonl' else 3}:" in str(caught.value)


def test_load_complaints_unknown_label(tmp_path):
    line = {"id": 1, "province_id": 1, "embedding": [0.1], "sentiment": 0.0,
            "attention": 0, "label": 2}
    path = write(tmp_path, json.dumps(line) + "\n", "c.jsonl")
    with pytest.raises(IngestionError, match="label"):
        ds.load_complaints(path)


BAD_COMPLAINT_FIELDS = [
    # (field, its value as written in the file)
    ("id", '"x7"'),
    ("id", "true"),
    ("id", "7.0"),
    ("province_id", "null"),
    ("attention", "0.7"),
    ("attention", "true"),
    ("attention", "2"),
    ("label", "true"),
    ("label", "1.0"),
    ("sentiment", "NaN"),
    ("sentiment", "-Infinity"),
    ("sentiment", '"0.3"'),
    ("sentiment", "false"),
    ("embedding", "[0.1, Infinity]"),
    ("embedding", "[0.1, true]"),
    ("embedding", '[0.1, "0.2"]'),
    ("embedding", '"0.1,0.2"'),
    ("embedding", "[1e400, 0.2]"),
]


@pytest.mark.parametrize("field,raw", BAD_COMPLAINT_FIELDS, ids=[f"{f}={r}" for f, r in BAD_COMPLAINT_FIELDS])
def test_load_complaints_rejects_mistyped_field_naming_file_line_and_field(tmp_path, field, raw):
    good = {"id": 1, "province_id": 1, "embedding": [0.1, 0.2], "sentiment": 0.3,
            "attention": 0, "label": 1}
    bad = json.dumps({**good, "id": 2, field: "RAW"}).replace('"RAW"', raw)
    path = write(tmp_path, json.dumps(good) + "\n" + bad + "\n", "complaints.jsonl")
    with pytest.raises(IngestionError) as caught:
        ds.load_complaints(path)
    message = str(caught.value)
    assert str(path) in message and "line 2:" in message and f"'{field}'" in message


def test_complaint_round_trip_is_exact(tmp_path):
    records = [
        ds.ComplaintRecord(
            id=i, province_id=1, embedding=np.array([0.1 * i, -2.5, 1e-17]),
            sentiment=0.30000000000000004, attention=i % 2,
            response_label=ds.ResponseLabel.ONE_WAY,
        )
        for i in range(1, 4)
    ]
    path = tmp_path / "c.jsonl"
    ds.write_complaints(path, records)
    loaded = ds.load_complaints(path)
    for before, after in zip(records, loaded):
        assert after.embedding.tolist() == before.embedding.tolist()
        assert after.sentiment == before.sentiment


def make_province(pid, eco=0.8):
    return ds.ProvinceRecord(
        id=pid, name=f"P{pid}", env_inputs=np.array([1.0]), gdp_output=2.0,
        fiscal_features={"fiscal_a": 3.0}, eco_score=eco, eco_group=EcoGroup.HIGH,
    )


def make_complaint(cid, pid, cluster=0):
    return ds.ComplaintRecord(
        id=cid, province_id=pid, embedding=np.array([0.0, 1.0]), sentiment=0.1,
        attention=1, response_label=ds.ResponseLabel.CO_PRODUCTION, cluster_id=cluster,
    )


SMALL_SCHEMA = ds.ColumnSchema(env_columns=("env_a",), fiscal_columns=("fiscal_a",))
SMALL_COLUMNS = ("eco_efficiency", "fiscal_a", "cluster_id")


def test_feature_matrix_contains_eco_score():
    matrix = ds.build_feature_matrix(
        [make_province(1, eco=0.8)], [make_complaint(1, 1)], SMALL_COLUMNS, SMALL_SCHEMA
    )
    assert matrix.rows[0, matrix.columns.index("eco_efficiency")] == 0.8
    assert matrix.target.tolist() == [1]


def test_feature_matrix_dangling_province():
    with pytest.raises(FeatureError, match="99"):
        ds.build_feature_matrix([make_province(1)], [make_complaint(1, 99)], SMALL_COLUMNS, SMALL_SCHEMA)


def test_feature_matrix_shares_province_columns():
    matrix = ds.build_feature_matrix(
        [make_province(1)], [make_complaint(1, 1, cluster=0), make_complaint(2, 1, cluster=1)],
        SMALL_COLUMNS, SMALL_SCHEMA,
    )
    assert matrix.rows.shape[0] == 2
    province_cols = [matrix.columns.index("eco_efficiency"), matrix.columns.index("fiscal_a")]
    assert matrix.rows[0, province_cols].tolist() == matrix.rows[1, province_cols].tolist()


def test_feature_matrix_missing_feature_named():
    with pytest.raises(FeatureError, match="nope"):
        ds.build_feature_matrix([make_province(1)], [make_complaint(1, 1)], ("nope",), SMALL_SCHEMA)


def test_feature_matrix_resolves_every_feature_name():
    provinces = [
        ds.ProvinceRecord(id=pid, name=f"P{pid}", env_inputs=np.array([1.0 + pid, 2.0 * pid]),
                          gdp_output=3.0 * pid, fiscal_features={"f": 5.0 + pid}, eco_score=0.1 * pid,
                          eco_group=EcoGroup.HIGH)
        for pid in (1, 2)
    ]
    complaints = [
        ds.ComplaintRecord(id=10 + i, province_id=pid, embedding=np.zeros(2), sentiment=-0.5 * i,
                           attention=i % 2, response_label=ds.ResponseLabel(i % 2), cluster_id=cluster)
        for i, (pid, cluster) in enumerate([(2, 1), (1, 0), (2, 2), (2, 1)])
    ]
    schema = ds.ColumnSchema(env_columns=("e1", "e2"), fiscal_columns=("f",))
    names = ds.feature_names(schema)
    assert names == ("eco_efficiency", "gdp_output", "e1", "e2", "f", "sentiment", "attention", "cluster_id")
    matrix = ds.build_feature_matrix(provinces, complaints, names, schema)
    expected = [
        [p.eco_score, p.gdp_output, *p.env_inputs, p.fiscal_features["f"], c.sentiment, c.attention, c.cluster_id]
        for c in complaints for p in provinces if p.id == c.province_id
    ]
    assert matrix.rows.tolist() == expected
    assert matrix.target.tolist() == [0, 1, 0, 1]
    onehot = ds.build_feature_matrix(provinces, complaints, ("cluster_0", "cluster_1", "cluster_2"), schema)
    assert onehot.rows.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0]]


@pytest.mark.parametrize("cluster", [None, -1])
def test_feature_matrix_rejects_missing_or_negative_cluster(cluster):
    with pytest.raises(FeatureError, match="complaint 1 has cluster"):
        ds.build_feature_matrix([make_province(1)], [make_complaint(1, 1, cluster=cluster)],
                                ("cluster_0",), SMALL_SCHEMA)


def test_classifier_has_27_columns():
    assert len(ds.classifier_columns(ds.DEFAULT_SCHEMA, 8)) == 27


def test_feature_columns_are_stable_and_ordered():
    names = ds.classifier_columns(ds.DEFAULT_SCHEMA, 3)
    assert names[0] == "eco_efficiency"
    assert names[-5:] == ("sentiment", "attention", "cluster_0", "cluster_1", "cluster_2")
    assert names == ds.classifier_columns(ds.DEFAULT_SCHEMA, 3)


def test_synthetic_spec_validation():
    with pytest.raises(DatasetError):
        ds.SyntheticSpec(n_clusters=0)
    with pytest.raises(DatasetError):
        ds.SyntheticSpec(true_ate=1.5)
    with pytest.raises(DatasetError):
        ds.SyntheticSpec(confounding_strength=-0.1)
    with pytest.raises(DatasetError):
        ds.SyntheticSpec(n_clusters=9, embedding_dim=8)


def small_spec(**overrides):
    defaults = dict(
        n_provinces=12, n_complaints=400, n_clusters=3, embedding_dim=8,
        true_ate=0.3, confounding_strength=1.0, seed=5,
    )
    defaults.update(overrides)
    return ds.SyntheticSpec(**defaults)


def test_generate_synthetic_bit_identical(tmp_path):
    for run in ("a", "b"):
        provinces, complaints, truth = ds.generate_synthetic(small_spec())
        ds.write_provinces(tmp_path / f"p_{run}.csv", provinces, ds.DEFAULT_SCHEMA)
        ds.write_complaints(tmp_path / f"c_{run}.jsonl", complaints)
        ds.write_ground_truth(tmp_path / f"g_{run}.json", truth)
    for name in ("p", "c", "g"):
        suffix = "csv" if name == "p" else ("jsonl" if name == "c" else "json")
        assert (tmp_path / f"{name}_a.{suffix}").read_bytes() == (tmp_path / f"{name}_b.{suffix}").read_bytes()


def test_generate_synthetic_unconfounded_diff_means():
    spec = small_spec(n_complaints=3000, true_ate=0.4, confounding_strength=0.0, seed=21)
    provinces, complaints, truth = ds.generate_synthetic(spec)
    treated = np.array([truth.province_groups[c.province_id] == "High" for c in complaints])
    labels = np.array([c.response_label.value for c in complaints], dtype=float)
    diff = labels[treated].mean() - labels[~treated].mean()
    p1, p0 = labels[treated].mean(), labels[~treated].mean()
    se = np.sqrt(p1 * (1 - p1) / treated.sum() + p0 * (1 - p0) / (~treated).sum())
    assert abs(diff - 0.4) <= 3.0 * se


def test_generate_synthetic_nearest_centroid_recovers_clusters():
    spec = small_spec(n_clusters=2, n_complaints=300, cluster_separation=10.0, seed=9)
    _, complaints, truth = ds.generate_synthetic(spec)
    embeddings = np.array([c.embedding for c in complaints])
    centroids = np.array([
        embeddings[truth.cluster_labels == c].mean(axis=0) for c in range(2)
    ])
    nearest = np.argmin(
        ((embeddings[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    assert np.array_equal(nearest, truth.cluster_labels)


def test_generate_synthetic_frontier_is_planted():
    provinces, _, truth = ds.generate_synthetic(small_spec())
    assert truth.frontier_ids
    for pid in truth.frontier_ids:
        assert truth.planted_theta[pid] == 1.0
    interior = set(truth.planted_theta) - set(truth.frontier_ids)
    assert all(truth.planted_theta[pid] < 1.0 for pid in interior)


def test_calibrate_treatment_shift_exact():
    rng = np.random.default_rng(2)
    eta = rng.standard_normal(5000)
    shift = ds.calibrate_treatment_shift(eta, 0.24)
    lift = np.mean(1 / (1 + np.exp(-(eta + shift)))) - np.mean(1 / (1 + np.exp(-eta)))
    assert lift == pytest.approx(0.24, abs=1e-10)
    with pytest.raises(DatasetError):
        ds.calibrate_treatment_shift(np.zeros(10), 0.9)  # base 0.5 cannot lift by 0.9
