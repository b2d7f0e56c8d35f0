import json
import logging
import multiprocessing
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from ecoprod import causal, cli
from ecoprod.errors import BootstrapError, CausalError
from ecoprod.gbm import TrainConfig
from ecoprod.seeding import derive_seed

from oracles import auc_score, reference_grouped_estimate

RNG = np.random.default_rng(77)

QUICK_BASE = TrainConfig(rounds=30, max_depth=3, eta=0.1, min_child_cover=5.0)
QUICK_CEVAE = replace(causal.DESK_PRESET, epochs=40)


def randomized_data(n=1000, p=4, p1=0.5, p0=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    t = (rng.random(n) < 0.5).astype(int)
    y = (rng.random(n) < np.where(t == 1, p1, p0)).astype(int)
    return causal.CausalDataset(covariates=x, treatment=t, outcome=y)


# --- dataset validation -----------------------------------------------------


def test_dataset_rejects_bad_inputs():
    with pytest.raises(CausalError):
        causal.CausalDataset(covariates=np.array([[np.inf]]), treatment=np.array([1]),
                             outcome=np.array([0]))
    with pytest.raises(CausalError):
        causal.CausalDataset(covariates=np.zeros((3, 1)), treatment=np.array([1, 1, 1]),
                             outcome=np.array([0, 1, 0]))
    with pytest.raises(CausalError):
        causal.CausalDataset(covariates=np.zeros((2, 1)), treatment=np.array([0, 2]),
                             outcome=np.array([0, 1]))


def test_ate_estimate_invariants():
    with pytest.raises(CausalError):
        causal.AteEstimate(ate=1.5, ci_low=None, ci_high=None, method=causal.Method.S)
    with pytest.raises(CausalError):
        causal.AteEstimate(ate=0.2, ci_low=0.3, ci_high=0.1, method=causal.Method.S)


# --- bootstrap --------------------------------------------------------------


def test_bootstrap_constant_estimator_zero_width():
    data = randomized_data(n=100, seed=1)
    low, high = causal.bootstrap_ci(lambda d: 0.42, data, n_boot=60, seed=2)
    assert low == high == 0.42


def test_percentile_interval_uses_order_statistics():
    values = np.arange(1.0, 201.0)  # 1..200
    low, high = causal.percentile_interval(values, 0.95)
    assert low == 5.0 and high == 195.0


def test_bootstrap_interval_contains_point_estimate_on_fixture():
    data = randomized_data(n=400, p1=0.7, p0=0.3, seed=3)
    point = causal.diff_means_point(data)
    low, high = causal.bootstrap_ci(causal.diff_means_point, data, n_boot=200, seed=4)
    assert low <= point <= high


def test_bootstrap_counts_failures():
    data = randomized_data(n=60, seed=5)
    calls = {"n": 0}

    def flaky(d):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise CausalError("boom")
        return 0.0

    with pytest.raises(BootstrapError):
        causal.bootstrap_ci(flaky, data, n_boot=60, seed=6)


def test_bootstrap_lets_a_bug_propagate():
    def buggy(d):
        raise TypeError("not a data-driven failure")

    with pytest.raises(TypeError):
        causal.bootstrap_ci(buggy, randomized_data(n=60, seed=5), n_boot=60, seed=6)


def bootstrap_call(entry, n_boot, level=0.95):
    """The bootstrap entry point `entry` with `n_boot` replicates; the three
    interval routines also take `level`.  The estimators run in the row unit
    or, with a ":province" suffix, over six groups, three in each arm."""
    data = randomized_data(n=60, seed=7)
    values = np.linspace(0.0, 1.0, 12)
    if entry == "bootstrap_ci":
        return causal.bootstrap_ci(causal.diff_means_point, data, n_boot, level)
    if entry == "percentile_bootstrap_mean":
        return causal.percentile_bootstrap_mean(values, n_boot, level, 0)
    if entry == "bootstrap_group_diff_ci":
        return causal.bootstrap_group_diff_ci(values[:6], values[6:], n_boot, level, 0)
    method, _, unit = entry.partition(":")
    groups = data.treatment * 3 + np.arange(data.n) % 3 if unit else None
    if method == "diffmeans":
        return causal.diff_means(data, n_boot, 0, groups)
    if method == "cevae":
        return causal.cevae_ate(causal.cevae_fit(data, replace(causal.DESK_PRESET, epochs=2)), data, n_boot, 0, groups)
    return getattr(causal, f"{method}_learner")(data, TrainConfig(rounds=3, max_depth=2, folds=2), n_boot, 0, groups)


INTERVAL_ROUTINES = ["bootstrap_ci", "percentile_bootstrap_mean", "bootstrap_group_diff_ci"]
ESTIMATORS = [f"{method}{unit}" for method in ("diffmeans", "s", "t", "x", "r", "cevae") for unit in ("", ":province")]


@pytest.mark.parametrize("entry", INTERVAL_ROUTINES + ESTIMATORS)
def test_bootstrap_requires_fifty_replicates(entry):
    with pytest.raises(CausalError, match="at least 50 bootstrap replicates"):
        bootstrap_call(entry, 10)
    assert bootstrap_call(entry, 50) is not None


@pytest.mark.parametrize("entry", INTERVAL_ROUTINES)
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
def test_bootstrap_level_must_lie_between_0_and_1(entry, level):
    with pytest.raises(CausalError, match=re.escape("level must lie in (0, 1)")):
        bootstrap_call(entry, 60, level)


def test_bootstrap_deterministic_per_seed():
    data = randomized_data(n=300, p1=0.6, p0=0.4, seed=8)
    a = causal.bootstrap_ci(causal.diff_means_point, data, n_boot=80, seed=9)
    b = causal.bootstrap_ci(causal.diff_means_point, data, n_boot=80, seed=9)
    assert a == b


# --- bootstrap workers ------------------------------------------------------


def use_cpus(monkeypatch, count):
    """Fix the CPU count, and so the worker count, that `_bootstrap` sees."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_refit_replicates_run_on_forked_workers_and_never_nest_a_pool(monkeypatch):
    parent = os.getpid()
    use_cpus(monkeypatch, 1)
    assert set(causal._bootstrap(50, 6, lambda rng: os.getpid(), fork=True)) == {parent}
    use_cpus(monkeypatch, 2)
    assert parent not in set(causal._bootstrap(50, 6, lambda rng: os.getpid(), fork=True))
    # resample-only replicates stay in the calling process
    assert set(causal._bootstrap(50, 6, lambda rng: os.getpid())) == {parent}

    def nested(rng):
        inner = causal._bootstrap(50, 7, lambda r: os.getpid(), fork=True)
        return float(np.all(inner == os.getpid()))

    assert causal._bootstrap(50, 6, nested, fork=True).tolist() == [1.0] * 50


def test_bootstrap_ci_replicates_identical_for_one_and_two_workers(monkeypatch):
    data = randomized_data(n=300, p1=0.6, p0=0.4, seed=8)
    config = TrainConfig(rounds=5, max_depth=2)
    seen = []
    interval = causal.percentile_interval

    def spy(values, level):
        seen.append(values)
        return interval(values, level)

    monkeypatch.setattr(causal, "percentile_interval", spy)
    intervals = []
    for count in (1, 2):
        use_cpus(monkeypatch, count)
        intervals.append(causal.bootstrap_ci(lambda d: causal.t_learner_point(d, config), data, n_boot=50, seed=9))
    assert intervals[0] == intervals[1]
    assert seen[0].shape == (50,) and seen[0].tobytes() == seen[1].tobytes()


def test_message_unit_report_identical_for_one_and_two_workers(monkeypatch, tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--provinces", "14", "--complaints", "160",
                     "--clusters", "3", "--embedding-dim", "4", "--seed", "11"]) == 0
    assert cli.main(["dea", "--provinces", str(tmp_path / "provinces.csv"), "--out", str(tmp_path)]) == 0
    labels = json.loads((tmp_path / "ground_truth.json").read_text())["cluster_labels"]
    (tmp_path / "clusters.csv").write_text(
        "complaint_id,cluster\n" + "".join(f"{i + 1},{c}\n" for i, c in enumerate(labels))
    )
    options = cli.CausalOptions(bootstrap=50, epochs=2, base_learner=TrainConfig(rounds=3, max_depth=2, folds=2))
    assert options.unit == "message" and len(options.methods) == 6
    reports = []
    for count in (1, 2):
        use_cpus(monkeypatch, count)
        out = tmp_path / f"cpus{count}"
        cli.stage_causal(tmp_path / "provinces.csv", tmp_path / "complaints.jsonl", tmp_path / "dea_scores.csv",
                         tmp_path / "clusters.csv", options, 11, out)
        reports.append((out / "ate_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert all(report[m]["ci_low"] is not None for m in options.methods)


def test_no_worker_outlives_a_bootstrap(monkeypatch):
    use_cpus(monkeypatch, 2)
    data = randomized_data(n=60, seed=5)
    causal.bootstrap_ci(lambda d: 0.0, data, n_boot=50, seed=6)
    assert multiprocessing.active_children() == []

    def one_arm(d):
        raise CausalError("both treatment arms must be non-empty")

    with pytest.raises(BootstrapError, match="50/50"):
        causal.bootstrap_ci(one_arm, data, n_boot=50, seed=6)
    assert multiprocessing.active_children() == []

    def buggy(d):
        raise TypeError("not a data-driven failure")

    with pytest.raises(TypeError, match="not a data-driven failure"):
        causal.bootstrap_ci(buggy, data, n_boot=50, seed=6)
    assert multiprocessing.active_children() == []


def test_failures_are_logged_by_the_parent_in_replicate_order(monkeypatch, caplog):
    use_cpus(monkeypatch, 2)
    n = 60
    rows = np.arange(n)
    data = causal.CausalDataset(covariates=rows[:, None].astype(float), treatment=rows % 2, outcome=rows // 2 % 2)

    def first_row(d):  # a resample that starts with one of rows 0-2 fails
        if d.covariates[0, 0] < 3:
            raise CausalError(f"starts with row {int(d.covariates[0, 0])}")
        return 0.0

    expected = []
    for b in range(50):
        first = np.random.default_rng(derive_seed(9, f"bootstrap:{b}")).integers(0, n, n)[0]
        if first < 3:
            expected.append(f"bootstrap replicate {b} failed: starts with row {first}")
    assert 1 < len(expected) <= 5
    with caplog.at_level(logging.DEBUG, logger="ecoprod.causal"):
        causal.bootstrap_ci(first_row, data, n_boot=50, seed=9)
    records = [r for r in caplog.records if r.getMessage().startswith("bootstrap replicate")]
    assert [r.getMessage() for r in records] == expected
    assert {r.process for r in records} == {os.getpid()}


# --- propensity -------------------------------------------------------------


def test_propensity_independent_treatment_near_half():
    data = randomized_data(n=2000, p=5, seed=10)
    scores = causal.propensity(data)
    assert scores.mean() == pytest.approx(0.5, abs=0.03)
    assert float(np.sqrt(np.mean((scores - 0.5) ** 2))) < 0.1
    assert np.mean(np.abs(scores - 0.5) <= 0.1) > 0.85


def test_propensity_separable_treatment_high_auc():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1500, 4))
    t = (x[:, 0] > 0).astype(int)
    data = causal.CausalDataset(covariates=x, treatment=t,
                                outcome=(rng.random(1500) < 0.5).astype(int))
    scores = causal.propensity(data)
    assert auc_score(t, scores) >= 0.95


def test_propensity_respects_clip_bounds():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((800, 2))
    t = (x[:, 0] > -2.5).astype(int)  # heavily imbalanced, pushes estimates up
    if t.sum() in (0, 800):
        t[0] = 1 - t[0]
    data = causal.CausalDataset(covariates=x, treatment=t,
                                outcome=(rng.random(800) < 0.5).astype(int))
    scores = causal.propensity(data, TrainConfig(rounds=200, max_depth=4, eta=0.5))
    assert scores.min() >= 0.01 and scores.max() <= 0.99


# --- meta-learners ----------------------------------------------------------


def test_t_learner_perfect_effect():
    rng = np.random.default_rng(13)
    t = (rng.random(800) < 0.5).astype(int)
    data = causal.CausalDataset(covariates=rng.standard_normal((800, 3)), treatment=t,
                                outcome=t.copy())
    assert causal.t_learner_point(data, QUICK_BASE) == pytest.approx(1.0, abs=0.02)


def test_all_learners_near_zero_on_independent_outcome():
    data = randomized_data(n=2000, p=6, seed=140)
    assert abs(causal.diff_means_point(data)) <= 0.05
    assert abs(causal.s_learner_point(data, QUICK_BASE)) <= 0.05
    assert abs(causal.t_learner_point(data, QUICK_BASE)) <= 0.05
    assert abs(causal.x_learner_point(data, QUICK_BASE)) <= 0.05
    assert abs(causal.r_learner_point(data, QUICK_BASE)) <= 0.05


def test_learner_wrappers_attach_bootstrap_ci():
    data = randomized_data(n=400, p1=0.8, p0=0.2, seed=15)
    estimate = causal.diff_means(data, n_boot=60, seed=16)
    assert estimate.method is causal.Method.DIFF_MEANS
    assert estimate.ci_low <= estimate.ate <= estimate.ci_high
    no_ci = causal.s_learner(data, QUICK_BASE)
    assert no_ci.ci_low is None and no_ci.ci_high is None


# --- synthetic benchmark ----------------------------------------------------


def test_synthetic_benchmark_plants_exact_sample_effect():
    data, shift = causal.synthetic_causal_dataset(3000, 7, true_ate=0.24,
                                                  confounding_strength=1.0, seed=18)
    # Recompute the planted per-unit lift directly from the construction.
    assert shift > 0
    assert data.n == 3000
    assert 0 < data.treatment.mean() < 1


def test_synthetic_benchmark_confounding_biases_diff_means():
    data, _ = causal.synthetic_causal_dataset(4000, 7, true_ate=0.0,
                                              confounding_strength=1.5, seed=19)
    assert causal.diff_means_point(data) > 0.1  # spurious positive association


def test_estimators_agree_with_diff_means_when_unconfounded():
    data, _ = causal.synthetic_causal_dataset(2000, 7, true_ate=0.3,
                                              confounding_strength=0.0, seed=33)
    diff = causal.diff_means_point(data)
    treated = data.treatment == 1
    p1, p0 = data.outcome[treated].mean(), data.outcome[~treated].mean()
    se = np.sqrt(p1 * (1 - p1) / treated.sum() + p0 * (1 - p0) / (~treated).sum())
    base = causal.DEFAULT_BASE_CONFIG
    estimates = {
        "s": causal.s_learner_point(data, base),
        "t": causal.t_learner_point(data, base),
        "x": causal.x_learner_point(data, base),
        "r": causal.r_learner_point(data, base),
    }
    model = causal.cevae_fit(data, replace(causal.DESK_PRESET, seed=33))
    estimates["cevae"] = causal.cevae_ate(model, data, n_boot=0).ate
    for name, value in estimates.items():
        assert abs(value - diff) <= 2.0 * se, f"{name}: {value} vs {diff} (2se={2*se:.4f})"


def test_group_mean_effects_weights_groups_equally():
    effects = np.array([1.0, 1.0, 1.0, 5.0])
    groups = np.array([10, 10, 10, 20])
    assert causal.group_mean_effects(effects, groups).tolist() == [1.0, 5.0]


@pytest.mark.parametrize("n_boot", [0, 50])
def test_grouped_estimates_match_oracle(n_boot):
    # Groups of 1 to 60 rows with unsorted, non-contiguous ids; treatment is
    # set per group, as a province's efficiency group is.
    rng = np.random.default_rng(31)
    sizes = [1, 2, 5, 9, 14, 20, 27, 35, 47, 60]
    ids = rng.permutation([40, 3, 17, 8, 25, 61, 12, 5, 33, 90])
    groups = rng.permutation(np.repeat(ids, sizes))
    arm = {g: int(i % 2) for i, g in enumerate(ids)}
    t = np.array([arm[g] for g in groups])
    x = rng.standard_normal((groups.shape[0], 3))
    y = (rng.random(groups.shape[0]) < 0.3 + 0.3 * t + 0.1 * (x[:, 0] > 0)).astype(int)
    data = causal.CausalDataset(covariates=x, treatment=t, outcome=y)
    model = causal.cevae_fit(data, replace(causal.DESK_PRESET, epochs=2, seed=32))

    estimates = {
        "diffmeans": causal.diff_means(data, n_boot, 33, groups=groups),
        "s": causal.s_learner(data, QUICK_BASE, n_boot, 33, groups=groups),
        "t": causal.t_learner(data, QUICK_BASE, n_boot, 33, groups=groups),
        "x": causal.x_learner(data, QUICK_BASE, n_boot, 33, groups=groups),
        "r": causal.r_learner(data, QUICK_BASE, n_boot, 33, groups=groups),
        "cevae": causal.cevae_ate(model, data, n_boot, 33, groups=groups),
    }
    for method, estimate in estimates.items():
        expected = reference_grouped_estimate(method, data, groups, n_boot, 33, QUICK_BASE, model)
        assert (estimate.ate, estimate.ci_low, estimate.ci_high) == expected, method
        assert (estimate.ci_low is None) == (n_boot == 0), method


# --- latent-confounder model ------------------------------------------------


def test_cevae_loss_improves_and_is_deterministic():
    data = randomized_data(n=600, p=4, p1=0.7, p0=0.3, seed=20)
    config = replace(causal.DESK_PRESET, epochs=20, seed=21)
    model = causal.cevae_fit(data, config)
    assert len(model.loss_history) == 20
    assert model.loss_history[19] < model.loss_history[0]
    assert all(np.isfinite(model.loss_history))
    again = causal.cevae_fit(data, config)
    assert again.loss_history == model.loss_history


def test_cevae_survives_all_zero_covariates():
    rng = np.random.default_rng(22)
    t = (rng.random(300) < 0.5).astype(int)
    y = (rng.random(300) < 0.5).astype(int)
    data = causal.CausalDataset(covariates=np.zeros((300, 3)), treatment=t, outcome=y)
    model = causal.cevae_fit(data, replace(causal.DESK_PRESET, epochs=5, seed=23))
    assert all(np.isfinite(model.loss_history))


def test_cevae_recovers_randomized_effect():
    data = randomized_data(n=2000, p=5, p1=0.7, p0=0.3, seed=24)
    model = causal.cevae_fit(data, replace(QUICK_CEVAE, seed=25))
    estimate = causal.cevae_ate(model, data, n_boot=0)
    assert estimate.ate == pytest.approx(0.4, abs=0.05)


def test_cevae_null_effect_near_zero():
    data = randomized_data(n=2000, p=5, seed=26)
    model = causal.cevae_fit(data, replace(QUICK_CEVAE, seed=27))
    estimate = causal.cevae_ate(model, data, n_boot=0)
    assert abs(estimate.ate) <= 0.05


def test_cevae_ate_bootstrap_interval():
    data = randomized_data(n=800, p=4, p1=0.75, p0=0.25, seed=28)
    model = causal.cevae_fit(data, replace(causal.DESK_PRESET, epochs=25, seed=29))
    estimate = causal.cevae_ate(model, data, n_boot=100, seed=30)
    assert estimate.ci_low <= estimate.ate <= estimate.ci_high
    assert estimate.method is causal.Method.CEVAE


def test_cevae_config_validation():
    with pytest.raises(CausalError):
        causal.CevaeConfig(latent_dim=0)
    with pytest.raises(CausalError):
        causal.CevaeConfig(learning_rate=0.0)
    assert causal.PAPER_PRESET.latent_dim == 20
    assert causal.PAPER_PRESET.hidden_layers == 3
    assert causal.PAPER_PRESET.hidden_units == 200
    assert causal.DESK_PRESET.latent_dim == 8
