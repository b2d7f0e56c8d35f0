"""Seeded input fixtures with planted ground truth, written apart from ecoprod.

The benchmark owns its inputs: this module depends on numpy alone, so a
change to ecoprod's own `synth` generator cannot change what the benchmark
measures.  Each fixture plants

* provinces whose inputs share one mix, so every efficiency score is known in
  closed form (the VRS frontier is the piecewise-linear hull of points on a
  concave curve);
* Gaussian complaint clusters around orthonormal centres a fixed distance
  apart;
* response labels from a logistic model whose treatment shift (treatment =
  the province's high-efficiency group) is calibrated by bisection so the
  average lift on the probability scale equals ``TRUE_ATE`` exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRUE_ATE = 0.24

ENV_COLUMNS = ("env_air_emissions", "env_water_emissions", "env_energy_use", "env_soot_dust", "env_sewage")
FISCAL_COLUMNS = (
    "fiscal_environment", "fiscal_agriculture_forestry", "fiscal_transport", "fiscal_education",
    "fiscal_health", "fiscal_housing", "fiscal_science_tech", "fiscal_social_security",
    "fiscal_culture", "fiscal_general_services",
)


@dataclass(frozen=True)
class FixtureSpec:
    provinces: int
    complaints: int
    clusters: int
    dim: int
    separation: float = 8.0


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def calibrated_shift(eta: np.ndarray, target: float) -> float:
    """Logit shift g with mean(sigmoid(eta + g) - sigmoid(eta)) == target."""
    base = float(np.mean(_sigmoid(eta)))
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lift = float(np.mean(_sigmoid(eta + mid))) - base
        if lift < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def median_groups(theta: np.ndarray) -> list[str]:
    """High strictly above the lower middle order statistic, else Low."""
    median = float(np.sort(theta)[(theta.shape[0] - 1) // 2])
    return ["High" if t > median else "Low" for t in theta]


def _frontier_panel(n: int, rng: np.random.Generator):
    """Input levels, outputs and closed-form input-oriented VRS scores.

    Frontier units sit on gdp = 10 * level**0.6 for levels in [1, 2]; every
    other unit lies strictly below the hull, and its score is the least
    frontier level reaching its output divided by its own level.
    """
    n_frontier = max(2, round(0.25 * n) + 1)
    f_level = np.linspace(1.0, 2.0, n_frontier)
    f_gdp = 10.0 * f_level ** 0.6
    level = rng.uniform(1.05, 2.0, n - n_frontier)
    ratio = 0.55 + 0.37 * _sigmoid(rng.standard_normal(n - n_frontier))
    gdp = np.interp(level, f_level, f_gdp) * ratio
    least = np.where(gdp <= f_gdp[0], f_level[0], np.interp(gdp, f_gdp, f_level))
    levels = np.concatenate([f_level, level])
    gdps = np.concatenate([f_gdp, gdp])
    theta = np.concatenate([np.ones(n_frontier), least / level])
    order = rng.permutation(n)
    return levels[order], gdps[order], theta[order]


def generate(spec: FixtureSpec, seed: list[int], out_dir: Path) -> dict:
    """Write provinces.csv and complaints.jsonl into `out_dir`; return the truth."""
    rng = np.random.default_rng(seed)
    n, m, k = spec.provinces, spec.complaints, spec.clusters
    levels, gdp, theta = _frontier_panel(n, rng)
    groups = median_groups(theta)
    capacity = rng.standard_normal(n) + 0.8 * (theta - theta.mean())
    mix = rng.uniform(0.5, 3.0, len(ENV_COLUMNS))
    fiscal = rng.uniform(50.0, 400.0, len(FISCAL_COLUMNS)) * np.exp(
        0.2 * rng.standard_normal((n, len(FISCAL_COLUMNS))) + 0.25 * capacity[:, None]
    )

    directions, _ = np.linalg.qr(rng.standard_normal((spec.dim, k)))
    centres = spec.separation / np.sqrt(2.0) * directions.T
    labels = rng.integers(0, k, m)
    embedding = centres[labels] + rng.standard_normal((m, spec.dim))
    province = rng.integers(0, n, m)
    sentiment = rng.uniform(-1.0, 1.0, k)[labels] + 0.5 * rng.standard_normal(m)
    attention = (rng.random(m) < 0.3).astype(np.int64)
    eta = (-0.5 + 0.6 * sentiment + 0.8 * attention + rng.uniform(-0.7, 0.7, k)[labels]
           + 0.8 * capacity[province])
    treated = np.array([groups[p] == "High" for p in province])
    shift = calibrated_shift(eta, TRUE_ATE)
    response = (rng.random(m) < _sigmoid(eta + shift * treated)).astype(np.int64)

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "provinces.csv").open("w", encoding="utf-8") as handle:
        handle.write(",".join(["id", "name", *ENV_COLUMNS, "gdp_output", *FISCAL_COLUMNS]) + "\n")
        for j in range(n):
            cells = [str(j + 1), f"Province{j + 1:03d}", *(repr(float(v)) for v in levels[j] * mix),
                     repr(float(gdp[j])), *(repr(float(v)) for v in fiscal[j])]
            handle.write(",".join(cells) + "\n")
    with (out_dir / "complaints.jsonl").open("w", encoding="utf-8") as handle:
        for i in range(m):
            handle.write(json.dumps({
                "id": i + 1, "province_id": int(province[i]) + 1,
                "embedding": embedding[i].tolist(), "sentiment": float(sentiment[i]),
                "attention": int(attention[i]), "label": int(response[i]),
            }, separators=(",", ":")) + "\n")
    return {
        "theta": {j + 1: float(theta[j]) for j in range(n)},
        "groups": {j + 1: groups[j] for j in range(n)},
        "cluster_labels": labels.tolist(),
        "embedding": embedding,
        "province_of": (province + 1).tolist(),
        "response": response.tolist(),
        "sentiment": sentiment.tolist(),
        "attention": attention.tolist(),
        "true_ate": TRUE_ATE,
    }
