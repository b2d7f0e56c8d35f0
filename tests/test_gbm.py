import json
from dataclasses import replace

import numpy as np
import pytest

from ecoprod import gbm
from ecoprod.errors import DegenerateSplitError, TrainingError

import oracles
from oracles import adjusted_rand_index, reference_boosted_classifier, reference_boosted_regressor


def perfectly_split_data():
    x = np.array([[0.0], [0.1], [1.0], [1.1]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    return x, y


def test_newton_leaf_weight_hand_computed():
    # base p = 0.5 so each pure-positive sample has g = -0.5, h = 0.25;
    # the two-sample leaf gets w = -G/(H + lambda) = 1/1.5.
    x, y = perfectly_split_data()
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=1, max_depth=1, eta=1.0))
    tree = model.trees[0]
    assert tree.right.weight == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert tree.left.weight == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert tree.cover == tree.left.cover + tree.right.cover


def test_rounds_zero_forbidden():
    with pytest.raises(TrainingError):
        gbm.TrainConfig(rounds=0)


def test_single_class_target_rejected():
    x = np.zeros((4, 1))
    with pytest.raises(TrainingError, match="single-class"):
        gbm.train_classifier(x, np.ones(4), gbm.TrainConfig(rounds=1))


def test_non_finite_feature_rejected():
    x = np.array([[np.nan], [1.0]])
    with pytest.raises(TrainingError, match="non-finite"):
        gbm.train_classifier(x, np.array([0.0, 1.0]), gbm.TrainConfig(rounds=1))


def test_empty_ensemble_predicts_half():
    model = gbm.BoostedModel(trees=[], eta=0.3, base_score=0.0, feature_names=("f0",),
                             objective="logistic")
    assert gbm.predict_proba(model, np.array([[5.0]]))[0] == pytest.approx(0.5)


def test_probabilities_are_clamped():
    leaf = gbm.TreeNode(cover=1.0, weight=1e6)
    model = gbm.BoostedModel(trees=[leaf], eta=1.0, base_score=0.0, feature_names=("f0",),
                             objective="logistic")
    p = gbm.predict_proba(model, np.array([[0.0]]))[0]
    assert p == pytest.approx(1.0 - 1e-15)
    assert 0.0 < p < 1.0


def test_hand_built_stump_closed_form():
    stump = gbm.TreeNode(
        cover=4.0, feature=0, threshold=0.5,
        left=gbm.TreeNode(cover=2.0, weight=2.0),
        right=gbm.TreeNode(cover=2.0, weight=-1.0),
    )
    model = gbm.BoostedModel(trees=[stump], eta=1.0, base_score=0.0, feature_names=("f0",),
                             objective="logistic")
    assert gbm.predict_proba(model, np.array([[0.0]]))[0] == pytest.approx(0.8808, abs=1e-4)


def test_prediction_dimension_mismatch():
    x, y = perfectly_split_data()
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=1))
    with pytest.raises(TrainingError, match="features"):
        gbm.predict_proba(model, np.zeros((2, 3)))


def test_training_loss_non_increasing():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 5))
    y = (x[:, 0] + 0.5 * rng.standard_normal(200) > 0).astype(float)
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=40, max_depth=3))
    losses = np.array(model.training_loss)
    assert np.all(np.diff(losses) <= 1e-12)


def test_determinism_identical_model_bytes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((150, 4))
    y = (x[:, 0] > 0).astype(float)
    config = gbm.TrainConfig(rounds=15, max_depth=3, seed=99)
    a = gbm.train_classifier(x, y, config)
    b = gbm.train_classifier(x, y, config)
    assert json.dumps(gbm.model_to_json(a), sort_keys=True) == json.dumps(
        gbm.model_to_json(b), sort_keys=True
    )


def test_model_json_round_trip(tmp_path):
    x, y = perfectly_split_data()
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=3, max_depth=2))
    path = tmp_path / "model.json"
    gbm.save_model(model, path)
    loaded = gbm.load_model(path)
    probe = np.linspace(-1, 2, 7)[:, None]
    assert gbm.predict_margin(loaded, probe) == pytest.approx(gbm.predict_margin(model, probe))
    assert loaded.feature_names == model.feature_names


def _equivalence_case(name):
    """Matrices that stress the presorted-block bookkeeping: ties, constants,
    uneven and zero weights, a binding cover floor, and tiny nodes."""
    rng = np.random.default_rng(sum(map(ord, name)))
    weights = None
    config = gbm.TrainConfig(rounds=6, max_depth=3, eta=0.3)
    if name == "tied-integers":
        x = rng.integers(0, 3, (80, 4)).astype(float)
    elif name == "constant-column":
        x = rng.standard_normal((60, 3))
        x[:, 1] = 2.5
    elif name == "uneven-weights":
        x = np.round(rng.standard_normal((70, 3)), 1)
        weights = rng.choice([0.0, 0.25, 1.0, 4.0], 70)
        weights[:10] = 0.0
    elif name == "binding-cover":
        x = rng.integers(0, 6, (50, 3)).astype(float)
        config = gbm.TrainConfig(rounds=6, max_depth=4, eta=0.3, min_child_cover=9.0)
    else:  # tiny-nodes
        x = rng.integers(0, 4, (9, 3)).astype(float)
        config = gbm.TrainConfig(rounds=6, max_depth=4, eta=0.5, min_child_cover=0.0)
    y = (x[:, 0] + rng.standard_normal(x.shape[0]) > np.median(x[:, 0])).astype(float)
    return x, y, weights, config


def _leaf_covers(node):
    if "weight" in node:
        return [node["cover"]]
    return _leaf_covers(node["left"]) + _leaf_covers(node["right"])


EQUIVALENCE_CASES = ("tied-integers", "constant-column", "uneven-weights", "binding-cover", "tiny-nodes")


@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_presorted_blocks_match_per_node_sort_oracle(name):
    x, y, weights, config = _equivalence_case(name)
    classifier = gbm.train_classifier(x, y, config)
    expected, losses = reference_boosted_classifier(x, y, config)
    assert json.dumps(gbm.model_to_json(classifier), sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert classifier.training_loss == losses

    target = x @ np.arange(1.0, x.shape[1] + 1.0) + np.random.default_rng(0).standard_normal(x.shape[0])
    regressor = gbm.train_regressor(x, target, config, sample_weight=weights)
    expected = reference_boosted_regressor(x, target, config, sample_weight=weights)
    assert json.dumps(gbm.model_to_json(regressor), sort_keys=True) == json.dumps(expected, sort_keys=True)

    covers = [c for tree in expected["trees"] for c in _leaf_covers(tree)]
    if name == "tiny-nodes":
        assert min(covers) <= 2.0
    if name == "binding-cover":
        loose = reference_boosted_regressor(x, target, replace(config, min_child_cover=0.0))
        assert min(covers) >= 9.0
        assert loose["trees"] != expected["trees"]


def _fuzz_case(index):
    """A small seeded fit that varies what split search must get right:
    tied, constant and continuous columns, depths 1-4, no cover floor or a
    binding one, and in half the cases `reg_lambda` 0 with zero regressor
    weights, whose empty-hessian boundaries give NaN gains."""
    rng = np.random.default_rng([7, index])
    n, n_features = int(rng.integers(6, 40)), int(rng.integers(1, 5))
    kind = index % 3
    if kind == 0:
        x = rng.integers(0, 3, (n, n_features)).astype(float)
    elif kind == 1:
        x = np.round(rng.standard_normal((n, n_features)), 1)
    else:
        x = rng.standard_normal((n, n_features))
    x[:, rng.integers(0, n_features)] = 1.5 if rng.random() < 0.3 else x[:, 0]
    y = (x[:, 0] + rng.standard_normal(n) > 0).astype(float)
    y[:2] = (0.0, 1.0)
    floor = 0.0 if index % 2 else float(rng.integers(2, max(3, n // 3)))
    weights = None
    reg_lambda = 1.0
    if index % 4 < 2:
        weights = rng.choice([0.0, 1.0, 2.0], n)
        weights[0] = 1.0
        reg_lambda = 0.0
    config = gbm.TrainConfig(
        rounds=3, max_depth=1 + index // 4 % 4, eta=0.5, reg_lambda=reg_lambda,
        min_child_cover=floor,
    )
    return x, y, x @ np.arange(1.0, n_features + 1.0) + rng.standard_normal(n), weights, config


FUZZ_CASES = 200


@pytest.mark.filterwarnings("ignore:.*encountered in.*divide:RuntimeWarning")
def test_split_search_matches_oracle_on_random_fits(monkeypatch):
    flags = []
    reference_split = oracles._reference_split

    def flagging_split(*args):
        # the oracle divides without suppressing warnings, so a NaN gain at a
        # boundary raises the "invalid" flag; with no cover floor and integer
        # weights every boundary is a candidate
        with np.errstate(invalid="call", call=lambda *_: flags.append(1)):
            return reference_split(*args)

    monkeypatch.setattr(oracles, "_reference_split", flagging_split)
    nan_cases = 0
    for index in range(FUZZ_CASES):
        x, y, target, weights, config = _fuzz_case(index)
        classifier = gbm.train_classifier(x, y, config)
        expected, losses = reference_boosted_classifier(x, y, config)
        assert json.dumps(gbm.model_to_json(classifier)) == json.dumps(expected), index
        assert classifier.training_loss == losses, index
        flags.clear()
        regressor = gbm.train_regressor(x, target, config, sample_weight=weights)
        expected = reference_boosted_regressor(x, target, config, sample_weight=weights)
        assert json.dumps(gbm.model_to_json(regressor)) == json.dumps(expected), index
        nan_cases += bool(flags) and config.min_child_cover == 0.0
    assert nan_cases >= 20


def test_regressor_fits_smooth_target():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, (300, 2))
    y = x[:, 0] * 1.5 - 0.5 * x[:, 1]
    model = gbm.train_regressor(x, y, gbm.TrainConfig(rounds=80, max_depth=3, eta=0.2))
    preds = gbm.predict_margin(model, x)
    assert float(np.mean((preds - y) ** 2)) < 0.05


def test_regressor_rejects_zero_total_weight():
    x = np.arange(6.0)[:, None]
    with pytest.raises(TrainingError):
        gbm.train_regressor(x, np.arange(6.0), gbm.TrainConfig(rounds=1, reg_lambda=0.0),
                            sample_weight=np.zeros(6))


def test_cross_validation_separable_data():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    report = gbm.cross_validate(x, y, gbm.TrainConfig(rounds=40, max_depth=3, folds=5, seed=1))
    assert report.mean_accuracy >= 0.9
    assert len(report.fold_accuracies) == 5
    assert sum(report.fold_sizes) == 300


def test_cross_validation_shuffled_labels_near_majority():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1500, 4))
    y = (rng.random(1500) < 0.5).astype(float)
    report = gbm.cross_validate(x, y, gbm.TrainConfig(rounds=30, max_depth=3, folds=5, seed=2))
    majority = max(y.mean(), 1 - y.mean())
    assert abs(report.mean_accuracy - majority) <= 0.05


def test_stratified_folds_deterministic_and_balanced():
    y = np.array([0.0] * 20 + [1.0] * 10)
    folds_a = gbm.stratified_folds(y, 5, seed=7)
    folds_b = gbm.stratified_folds(y, 5, seed=7)
    for fa, fb in zip(folds_a, folds_b):
        assert np.array_equal(fa, fb)
    for fold in folds_a:
        assert np.any(y[fold] == 0.0) and np.any(y[fold] == 1.0)


def test_stratified_folds_reject_tiny_class():
    y = np.array([0.0] * 20 + [1.0] * 3)
    with pytest.raises(TrainingError, match="stratify"):
        gbm.stratified_folds(y, 5, seed=0)


def test_archetypes_two_regimes():
    split = gbm.archetype_clusters(np.array([0.1, 0.15, 0.8, 0.85]))
    assert split.labels[0] == split.labels[1]
    assert split.labels[2] == split.labels[3]
    assert split.labels[0] != split.labels[2]
    assert split.labels[2] == split.coproductive_cluster


def test_archetypes_identical_probs_degenerate():
    with pytest.raises(DegenerateSplitError):
        gbm.archetype_clusters(np.array([0.5, 0.5]))


def test_archetypes_recover_planted_regimes():
    rng = np.random.default_rng(6)
    regimes = rng.integers(0, 2, 40)
    probs = np.where(regimes == 1, 0.75, 0.2) + rng.uniform(-0.05, 0.05, 40)
    split = gbm.archetype_clusters(probs)
    assert adjusted_rand_index(regimes, split.labels) == pytest.approx(1.0)
    coproductive = split.labels == split.coproductive_cluster
    assert np.array_equal(coproductive, regimes == 1)
