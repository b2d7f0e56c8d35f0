"""Output checks, each computed apart from ecoprod.

Every check compares an artifact with the fixture's planted truth, with a
recomputation from the input files, or with a property the method must have;
none compares with a stored copy of an earlier output.  A check returns a
short detail string and raises `CheckFailed` (or any other exception) when
the output is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok: bool, detail: str) -> str:
    if not ok:
        raise CheckFailed(detail)
    return detail


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_dea(path: Path) -> dict[int, tuple[float, float, str]]:
    return {int(r["id"]): (float(r["theta_crs"]), float(r["theta_vrs"]), r["group"]) for r in read_rows(path)}


def read_clusters(path: Path, n_complaints: int) -> np.ndarray:
    labels = np.full(n_complaints, -1, dtype=np.int64)
    for r in read_rows(path):
        labels[int(r["complaint_id"]) - 1] = int(r["cluster"])
    require(bool(np.all(labels >= 0)), "clusters.csv does not cover every complaint")
    return labels


# ---------------------------------------------------------------------------
# DEA


def dea_theta(out: Path, truth: dict) -> str:
    scores = read_dea(out / "dea_scores.csv")
    require(set(scores) == set(truth["theta"]), "dea_scores.csv ids differ from the provinces")
    gap = max(abs(scores[i][1] - truth["theta"][i]) for i in scores)
    return require(gap <= 1e-9, f"max |theta_vrs - planted| = {gap:.3g}")


def dea_groups(out: Path, truth: dict) -> str:
    scores = read_dea(out / "dea_scores.csv")
    wrong = [i for i in truth["groups"] if scores[i][2] != truth["groups"][i]]
    return require(not wrong, f"{len(wrong)} provinces in the wrong group")


def dea_crs_le_vrs(out: Path, truth: dict) -> str:
    scores = read_dea(out / "dea_scores.csv")
    worst = max(crs - vrs for crs, vrs, _ in scores.values())
    low = min(crs for crs, _, _ in scores.values())
    return require(worst <= 1e-12 and low > 0.0, f"max(theta_crs - theta_vrs) = {worst:.3g}")


# ---------------------------------------------------------------------------
# Clusters


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """ARI from the contingency table of two labelings."""
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(table, (ia, ib), 1.0)
    pairs = lambda v: float(np.sum(v * (v - 1.0) / 2.0))  # noqa: E731
    index, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / (len(a) * (len(a) - 1) / 2.0)
    top = 0.5 * (rows + cols)
    return 1.0 if top == expected else (index - expected) / (top - expected)


def cluster_ari(out: Path, truth: dict) -> str:
    labels = read_clusters(out / "clusters.csv", len(truth["cluster_labels"]))
    ari = adjusted_rand_index(labels, np.array(truth["cluster_labels"]))
    return require(ari >= 0.99, f"ARI {ari:.4f} against the planted labels")


def cluster_elbow(out: Path, truth: dict) -> str:
    """The chosen k is the largest wcss second difference over k in [2, k_max - 1]."""
    report = json.loads((out / "cluster_report.json").read_text(encoding="utf-8"))
    curve = np.array([report["wcss_curve"][str(k)] for k in range(1, len(report["wcss_curve"]) + 1)])
    second = curve[:-2] - 2.0 * curve[1:-1] + curve[2:]
    elbow = int(np.argmax(second)) + 2
    return require(report["auto_k"] and report["k"] == elbow, f"k {report['k']}, elbow of the reported curve {elbow}")


def cluster_total_ss(out: Path, truth: dict) -> str:
    """wcss at k = 1 is the total sum of squares about the mean embedding."""
    report = json.loads((out / "cluster_report.json").read_text(encoding="utf-8"))
    points = truth["embedding"]
    total = float(np.sum((points - points.mean(axis=0)) ** 2))
    gap = abs(report["wcss_curve"]["1"] - total) / total
    return require(gap <= 1e-9, f"relative gap of wcss(k=1) to the total sum of squares {gap:.3g}")


def cluster_permutation_p(out: Path, truth: dict) -> str:
    p = json.loads((out / "cluster_report.json").read_text(encoding="utf-8"))["permutation"]["p"]
    return require(p == 0.0, f"permutation p = {p}")


def cluster_rates(out: Path, truth: dict) -> str:
    report = json.loads((out / "cluster_report.json").read_text(encoding="utf-8"))
    labels = read_clusters(out / "clusters.csv", len(truth["response"]))
    response = np.array(truth["response"], dtype=float)
    rates = report["coproduction_rates"]
    require(len(rates) == report["k"], "one rate per cluster expected")
    gap = max(abs(rates[c] - response[labels == c].mean()) for c in range(report["k"]))
    return require(gap <= 1e-12, f"max rate gap {gap:.3g}")


# ---------------------------------------------------------------------------
# Train and explain


def feature_rows(names: list[str], inputs: Path, out: Path, truth: dict) -> np.ndarray:
    """The documented feature plan, rebuilt by column name from the input files."""
    provinces = {int(r["id"]): r for r in read_rows(inputs / "provinces.csv")}
    scores = read_dea(out / "dea_scores.csv")
    labels = read_clusters(out / "clusters.csv", len(truth["response"]))
    rows = np.empty((len(labels), len(names)))
    for i, pid in enumerate(truth["province_of"]):
        for j, name in enumerate(names):
            if name == "eco_efficiency":
                rows[i, j] = scores[pid][1]
            elif name in ("sentiment", "attention"):
                rows[i, j] = truth[name][i]
            elif name.startswith("cluster_"):
                rows[i, j] = float(labels[i] == int(name[len("cluster_"):]))
            else:
                rows[i, j] = float(provinces[pid][name])
    return rows


def _leaf(node: dict, x: np.ndarray) -> float:
    while "weight" not in node:
        node = node["left"] if x[node["feature"]] < node["threshold"] else node["right"]
    return node["weight"]


def walk_margins(model: dict, rows: np.ndarray) -> np.ndarray:
    """margin = base_score + eta * sum of leaf weights; strictly-less goes left."""
    return np.array([model["base_score"] + model["eta"] * sum(_leaf(t, x) for t in model["trees"]) for x in rows])


def read_shap(out: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    with (out / "shap.csv").open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        table = [[float(v) for v in row] for row in reader]
    table = np.array(table)
    require(np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)), "shap.csv rows are not in complaint order")
    return table[:, 1], table[:, 2], table[:, 3:], [h[len("phi_"):] for h in header[3:]]


def explain_margin_walk(out: Path, truth: dict, inputs: Path) -> str:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    _, margin, _, names = read_shap(out)
    require(names == model["feature_names"], "shap.csv columns differ from the model's features")
    rows = feature_rows(model["feature_names"], inputs, out, truth)
    gap = float(np.max(np.abs(walk_margins(model, rows) - margin)))
    return require(gap <= 1e-9, f"max |walked margin - shap.csv margin| = {gap:.3g}")


def explain_additivity(out: Path, truth: dict) -> str:
    base, margin, phi, _ = read_shap(out)
    gap = float(np.max(np.abs(base + phi.sum(axis=1) - margin)))
    return require(gap <= 1e-9, f"max |base + sum(phi) - margin| = {gap:.3g}")


def _conditional(node: dict, x: np.ndarray, known: frozenset) -> float:
    """Cover-weighted expectation of a tree given the features in `known`."""
    if "weight" in node:
        return node["weight"]
    if node["feature"] in known:
        return _conditional(node["left"] if x[node["feature"]] < node["threshold"] else node["right"], x, known)
    left, right = node["left"], node["right"]
    weighted = left["cover"] * _conditional(left, x, known) + right["cover"] * _conditional(right, x, known)
    return weighted / node["cover"]


def _used(node: dict) -> set:
    return set() if "weight" in node else {node["feature"]} | _used(node["left"]) | _used(node["right"])


def brute_force_phi(model: dict, x: np.ndarray) -> np.ndarray:
    """Shapley values by subset enumeration, tree by tree over each tree's own
    features (a feature a tree does not use is a null player in its game)."""
    phi = np.zeros(len(model["feature_names"]))
    for tree in model["trees"]:
        used = sorted(_used(tree))
        m = len(used)
        value = {}
        for r in range(m + 1):
            for subset in itertools.combinations(used, r):
                value[frozenset(subset)] = _conditional(tree, x, frozenset(subset))
        for f in used:
            others = [g for g in used if g != f]
            for r in range(m):
                weight = math.factorial(r) * math.factorial(m - r - 1) / math.factorial(m)
                for subset in itertools.combinations(others, r):
                    s = frozenset(subset)
                    phi[f] += weight * (value[s | {f}] - value[s])
    return model["eta"] * phi


def explain_brute_force(out: Path, truth: dict, inputs: Path, n_rows: int = 3) -> str:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    _, _, phi, _ = read_shap(out)
    rows = feature_rows(model["feature_names"], inputs, out, truth)
    picks = np.linspace(0, rows.shape[0] - 1, n_rows).astype(int)
    gap = max(float(np.max(np.abs(brute_force_phi(model, rows[i]) - phi[i]))) for i in picks)
    return require(gap <= 1e-9, f"max |phi - brute-force Shapley| over {n_rows} rows = {gap:.3g}")


def train_cv_accuracy(out: Path, truth: dict) -> str:
    accuracy = json.loads((out / "cv_report.json").read_text(encoding="utf-8"))["mean_accuracy"]
    share = float(np.mean(truth["response"]))
    majority = max(share, 1.0 - share)
    return require(accuracy > majority, f"CV accuracy {accuracy:.3f} against majority share {majority:.3f}")


# ---------------------------------------------------------------------------
# Causal


def diffmeans_recomputed(out: Path, truth: dict, unit: str) -> str:
    report = json.loads((out / "ate_report.json").read_text(encoding="utf-8"))
    groups = {i: g for i, (_, _, g) in read_dea(out / "dea_scores.csv").items()}
    y = np.array(truth["response"], dtype=float)
    province = np.array(truth["province_of"])
    treated = np.array([groups[p] == "High" for p in province])
    if unit == "message":
        expected = y[treated].mean() - y[~treated].mean()
    else:
        ids = np.unique(province)
        means = np.array([y[province == p].mean() for p in ids])
        high = np.array([groups[p] == "High" for p in ids])
        expected = means[high].mean() - means[~high].mean()
    gap = abs(report["diffmeans"]["ate"] - float(expected))
    return require(gap <= 1e-12, f"|diffmeans - recomputed| = {gap:.3g} ({unit} unit)")


def estimate_in_band(out: Path, truth: dict, method: str, band: tuple[float, float]) -> str:
    ate = json.loads((out / "ate_report.json").read_text(encoding="utf-8"))[method]["ate"]
    low, high = truth["true_ate"] + band[0], truth["true_ate"] + band[1]
    return require(low <= ate <= high, f"{method} ATE {ate:.3f}, band [{low:.2f}, {high:.2f}]")


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()
