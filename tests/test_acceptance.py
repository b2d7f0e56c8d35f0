"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from ecoprod import autodiff as ad
from ecoprod import causal, cli, dataset, dea, gbm, spectral, treeshap
from ecoprod.seeding import derive_seed

from oracles import (
    adjusted_rand_index,
    brute_force_shapley,
    central_difference,
    dea_theta_oracle,
)

CRS = dea.DeaOptions(rts=dea.ReturnsToScale.CRS)
VRS = dea.DeaOptions(rts=dea.ReturnsToScale.VRS)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_panel(rng, n_max=5, m_max=2):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    x = rng.uniform(0.5, 5.0, (m, n))
    y = rng.uniform(0.5, 5.0, (1, n))
    return dea.DeaPanel(inputs=x, outputs=y, unit_ids=tuple(range(1, n + 1)))


def test_dea_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    vrs_ge_crs = True
    for _ in range(50):
        panel = random_panel(rng)
        crs_theta = dea.dea_scores(panel, CRS).theta
        vrs_theta = dea.dea_scores(panel, VRS).theta
        vrs_ge_crs &= bool(np.all(vrs_theta >= crs_theta - 1e-9))
        for o in range(panel.n_units):
            worst = max(
                worst,
                abs(crs_theta[o] - dea_theta_oracle(panel.inputs, panel.outputs, o, vrs=False)),
                abs(vrs_theta[o] - dea_theta_oracle(panel.inputs, panel.outputs, o, vrs=True)),
            )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and vrs_ge_crs and elapsed < 5.0
    report(
        "dea-oracle-equivalence", ok,
        f"50 panels, max |theta - oracle| = {worst:.2e}, VRS>=CRS {vrs_ge_crs}, {elapsed:.2f}s",
    )


def test_dea_invariance_suite():
    rng = np.random.default_rng(103)
    checks = []

    x = rng.uniform(0.5, 5.0, (2, 6))
    y = rng.uniform(0.5, 5.0, (1, 6))
    ids = tuple(range(6))
    base = dea.dea_scores(dea.DeaPanel(inputs=x, outputs=y, unit_ids=ids), VRS).theta
    x_scaled = x.copy()
    x_scaled[1] *= 1234.5
    scaled = dea.dea_scores(dea.DeaPanel(inputs=x_scaled, outputs=y, unit_ids=ids), VRS).theta
    checks.append(("unit invariance", bool(np.max(np.abs(scaled - base)) <= 1e-9)))

    dominated_ok = True
    for _ in range(5):
        x2 = rng.uniform(1.0, 5.0, (2, 4))
        y2 = rng.uniform(1.0, 5.0, (1, 4))
        before = dea.dea_scores(dea.DeaPanel(inputs=x2, outputs=y2, unit_ids=tuple(range(4))), VRS).theta
        x3 = np.column_stack([x2, x2[:, 0] * 0.8])
        y3 = np.column_stack([y2, y2[:, 0] * 1.2])
        after = dea.dea_scores(dea.DeaPanel(inputs=x3, outputs=y3, unit_ids=tuple(range(5))), VRS).theta
        dominated_ok &= bool(np.all(after[:4] <= before + 1e-9))
    checks.append(("dominance monotonicity", dominated_ok))

    frontier_ok = True
    for _ in range(5):
        panel = random_panel(rng, n_max=5, m_max=2)
        theta = dea.dea_scores(panel, VRS).theta
        frontier_ok &= bool(abs(theta.max() - 1.0) <= 1e-9)
    checks.append(("frontier max = 1", frontier_ok))

    provinces, _, _ = dataset.generate_synthetic(
        dataset.SyntheticSpec(n_provinces=27, n_complaints=1, n_clusters=1,
                              embedding_dim=4, seed=7)
    )
    panel27 = dea.DeaPanel(
        inputs=provinces.env.T,
        outputs=provinces.gdp[None, :],
        unit_ids=tuple(provinces.ids.tolist()),
    )
    start = time.perf_counter()
    theta27 = dea.dea_scores(panel27, VRS).theta
    elapsed = time.perf_counter() - start
    checks.append(("27-unit panel < 1 s", elapsed < 1.0 and theta27.shape == (27,)))

    ok = all(flag for _, flag in checks)
    report("dea-invariance-suite", ok, "; ".join(f"{n} {f}" for n, f in checks))


def test_spectral_recovery():
    start = time.perf_counter()
    spec = dataset.SyntheticSpec(
        n_provinces=10, n_complaints=800, n_clusters=8, embedding_dim=32,
        true_ate=0.2, confounding_strength=1.0, seed=42, cluster_separation=8.0,
    )
    _, complaints, truth = dataset.generate_synthetic(spec)
    embeddings = complaints.embeddings

    assignment, _ = spectral.spectral_cluster(embeddings, 8, seed=derive_seed(42, "accept"))
    ari = adjusted_rand_index(truth.cluster_labels, assignment.labels)
    chosen_k = spectral.elbow_k(embeddings, 12, seed=derive_seed(42, "elbow"))
    perm = spectral.permutation_test(embeddings, 8, n_permutations=99, seed=derive_seed(42, "perm"))
    elapsed = time.perf_counter() - start

    ok = ari >= 0.95 and chosen_k == 8 and perm.p <= 0.01 and elapsed < 60.0
    report(
        "spectral-recovery", ok,
        f"ARI {ari:.3f}, elbow k {chosen_k}, permutation p {perm.p:.4f} (N=99), {elapsed:.1f}s",
    )


def test_treeshap_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    worst_local = 0.0
    for n, d, rounds, depth in ((200, 6, 25, 4), (120, 3, 12, 3), (80, 8, 10, 2)):
        x = rng.standard_normal((n, d))
        y = (x[:, 0] + 0.6 * x[:, 1] + 0.2 * rng.standard_normal(n) > 0).astype(float)
        model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=rounds, max_depth=depth))
        shap = treeshap.tree_shap(model, x)
        margins = gbm.predict_margin(model, x)
        worst_local = max(worst_local, float(np.max(np.abs(shap.base + shap.phi.sum(axis=1) - margins))))

    x4 = rng.standard_normal((70, 4))
    y4 = ((x4[:, 0] > 0) ^ (x4[:, 2] > 0.5)).astype(float)
    model4 = gbm.train_classifier(x4, y4, gbm.TrainConfig(rounds=8, max_depth=3))
    shap4 = treeshap.tree_shap(model4, x4[:12])
    worst_brute = max(
        float(np.max(np.abs(shap4.phi[i] - brute_force_shapley(model4, x4[i]))))
        for i in range(12)
    )
    elapsed = time.perf_counter() - start
    ok = worst_local < 1e-9 and worst_brute < 1e-9 and elapsed < 10.0
    report(
        "treeshap-exactness", ok,
        f"local accuracy {worst_local:.2e}, brute-force gap {worst_brute:.2e}, {elapsed:.1f}s",
    )


def test_classifier_sanity():
    rng = np.random.default_rng(109)
    x = rng.standard_normal((600, 5))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    separable = gbm.cross_validate(x, y, gbm.TrainConfig(rounds=50, max_depth=3, folds=5, seed=1))

    x_noise = rng.standard_normal((1500, 5))
    y_noise = (rng.random(1500) < 0.5).astype(float)
    shuffled = gbm.cross_validate(x_noise, y_noise, gbm.TrainConfig(rounds=30, max_depth=3, folds=5, seed=2))
    majority = max(y_noise.mean(), 1 - y_noise.mean())

    ok = separable.mean_accuracy >= 0.95 and abs(shuffled.mean_accuracy - majority) <= 0.05
    report(
        "classifier-sanity", ok,
        f"separable 5-fold mean {separable.mean_accuracy:.4f}, "
        f"shuffled {shuffled.mean_accuracy:.4f} vs majority {majority:.4f}",
    )


def _max_relative_fd_error() -> float:
    rng = np.random.default_rng(111)
    worst = 0.0

    def check(build, *arrays):
        nonlocal worst
        tensors = [ad.Tensor(a) for a in arrays]
        with ad.Tape() as tape:
            tape.backward(build(*tensors))
        for index, tensor in enumerate(tensors):
            def rebuild(data, index=index):
                probes = [ad.Tensor(t.data) for t in tensors]
                probes[index] = ad.Tensor(data)
                return float(build(*probes).data)

            numeric = central_difference(rebuild, tensor.data.copy())
            scale = max(1e-6, float(np.abs(numeric).max()))
            worst = max(worst, float(np.abs(tensor.grad - numeric).max()) / scale)

    a23 = rng.standard_normal((2, 3))
    b32 = rng.standard_normal((3, 2))
    check(lambda p, q: ad.total(ad.matmul(p, q)), a23, b32)
    check(lambda p, q: ad.total(ad.mul(ad.add_bias(p, q), ad.add_bias(p, q))),
          rng.standard_normal((3, 4)), rng.standard_normal(4))
    for op in (ad.relu, ad.tanh, ad.sigmoid):
        check(lambda p, op=op: ad.total(ad.mul(op(p), op(p))),
              rng.standard_normal((3, 3)) + 0.1)
    check(lambda p: ad.total(ad.slice_cols(p, 1, 3)), rng.standard_normal((2, 4)))
    check(lambda p: ad.total(ad.mul(p, p)), rng.standard_normal((3, 2)))
    check(lambda p, q: ad.total(ad.sub(ad.add(p, q), ad.scale(q, 0.3))),
          rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    noise = rng.standard_normal((2, 3))
    check(lambda m, lv: ad.total(ad.mul(ad.gaussian_reparameterize(m, lv, noise),
                                        ad.gaussian_reparameterize(m, lv, noise))),
          rng.standard_normal((2, 3)), 0.5 * rng.standard_normal((2, 3)))
    check(lambda m, lv: ad.kl_diag_gaussian(m, lv),
          rng.standard_normal((2, 3)), 0.5 * rng.standard_normal((2, 3)))
    y = (rng.random((3, 1)) < 0.5).astype(float)
    check(lambda p: ad.bernoulli_logpmf(p, y), rng.uniform(0.2, 0.8, (3, 1)))
    x_obs = rng.standard_normal((3, 2))
    check(lambda m, lv: ad.gaussian_logpdf(x_obs, m, lv),
          rng.standard_normal((3, 2)), 0.5 * rng.standard_normal((3, 2)))

    # three-hidden-layer network end to end
    mlp = ad.Mlp([4, 16, 16, 16, 1], "relu", rng)
    x_in = rng.standard_normal((5, 4))
    with ad.Tape() as tape:
        out = mlp(ad.Tensor(x_in))
        tape.backward(ad.total(ad.mul(out, out)))
    for param in mlp.parameters():
        def rebuild(data, param=param):
            saved = param.data
            param.data = data
            out = mlp(ad.Tensor(x_in))
            value = float(ad.total(ad.mul(out, out)).data)
            param.data = saved
            return value

        numeric = central_difference(rebuild, param.data.copy())
        scale = max(1e-6, float(np.abs(numeric).max()))
        worst = max(worst, float(np.abs(param.grad - numeric).max()) / scale)
    return worst


def test_autodiff_finite_differences():
    worst = _max_relative_fd_error()
    ok = worst < 1e-4
    report("autodiff-finite-differences", ok, f"max relative error {worst:.2e}")


def test_causal_recovery():
    start = time.perf_counter()
    base = gbm.TrainConfig(rounds=60, max_depth=3, eta=0.1, min_child_cover=5.0)

    confounded, _ = causal.synthetic_causal_dataset(2000, 7, true_ate=0.24,
                                                    confounding_strength=1.0, seed=5)
    estimates = {
        "s": causal.s_learner_point(confounded, base),
        "t": causal.t_learner_point(confounded, base),
        "x": causal.x_learner_point(confounded, base),
        "r": causal.r_learner_point(confounded, base),
    }
    meta_ok = all(abs(v - 0.24) <= 0.08 for v in estimates.values())

    cevae_model = causal.cevae_fit(confounded, replace(causal.DESK_PRESET, seed=5))
    cevae_estimate = causal.cevae_ate(cevae_model, confounded, n_boot=0)
    cevae_ok = abs(cevae_estimate.ate - 0.24) <= 0.10

    null_data, _ = causal.synthetic_causal_dataset(2000, 7, true_ate=0.0,
                                                   confounding_strength=1.0, seed=11)
    null_estimates = {
        "s": causal.s_learner_point(null_data, base),
        "t": causal.t_learner_point(null_data, base),
        "x": causal.x_learner_point(null_data, base),
        "r": causal.r_learner_point(null_data, base),
    }
    null_model = causal.cevae_fit(null_data, replace(causal.DESK_PRESET, seed=11))
    null_estimates["cevae"] = causal.cevae_ate(null_model, null_data, n_boot=0).ate
    null_ok = all(abs(v) <= 0.05 for v in null_estimates.values())

    covered = 0
    for rep in range(100):
        data, _ = causal.synthetic_causal_dataset(2000, 7, true_ate=0.24,
                                                  confounding_strength=0.0, seed=1000 + rep)
        low, high = causal.bootstrap_ci(causal.diff_means_point, data, n_boot=200,
                                        level=0.95, seed=rep)
        covered += low <= 0.24 <= high
    coverage_ok = covered >= 90

    elapsed = time.perf_counter() - start
    ok = meta_ok and cevae_ok and null_ok and coverage_ok and elapsed < 900.0
    detail = (
        f"meta {dict((k, round(v, 3)) for k, v in estimates.items())}, "
        f"cevae {cevae_estimate.ate:.3f} (target 0.24), "
        f"null {dict((k, round(v, 3)) for k, v in null_estimates.items())}, "
        f"coverage {covered}/100, {elapsed:.0f}s"
    )
    report("causal-recovery", ok, detail)


def test_end_to_end_determinism(tmp_path):
    fixture = tmp_path / "fixture"
    assert cli.main(["synth", "--out", str(fixture), "--provinces", "14", "--complaints", "150",
                     "--clusters", "3", "--embedding-dim", "12", "--seed", "29"]) == 0
    config = {
        "seed": 29,
        "inputs": {"provinces": "provinces.csv", "complaints": "complaints.jsonl"},
        "cluster": {"k_max": 6, "permutations": 9},
        "train": {"rounds": 25, "max_depth": 3},
        "causal": {"methods": ["diffmeans", "s", "cevae"], "bootstrap": 0, "epochs": 10,
                   "base_learner": {"rounds": 20}},
    }
    summaries = []
    for run in ("one", "two"):
        config["out_dir"] = run
        (fixture / "config.json").write_text(json.dumps(config))
        assert cli.main(["pipeline", "--config", str(fixture / "config.json")]) == 0
        summaries.append((fixture / run / "summary.json").read_bytes())

    expected = {
        "dea_scores.csv", "clusters.csv", "cluster_report.json", "clusters.svg",
        "model.json", "cv_report.json", "shap.csv", "shap_summary.svg",
        "ate_report.json", "summary.json",
    }
    present = {p.name for p in (fixture / "one").iterdir()}
    artifacts_ok = expected <= present
    identical = summaries[0] == summaries[1]
    ok = artifacts_ok and identical
    report(
        "end-to-end-determinism", ok,
        f"summary.json byte-identical {identical}, artifacts present {artifacts_ok}",
    )
