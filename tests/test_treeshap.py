import numpy as np
import pytest

from ecoprod import gbm, treeshap

from oracles import brute_force_shapley, reference_tree_shap


def train_small(rng, n=80, d=4, rounds=8, depth=3):
    x = rng.standard_normal((n, d))
    y = (x[:, 0] + 0.7 * x[:, 1] - 0.4 * x[:, 2] * x[:, 3 % d] > 0).astype(float)
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=rounds, max_depth=depth, eta=0.3))
    return model, x


def test_single_feature_stump_gets_everything():
    stump = {
        "feature": 0, "threshold": 0.0, "cover": 10.0,
        "left": {"weight": -1.0, "cover": 4.0},
        "right": {"weight": 2.0, "cover": 6.0},
    }
    model = gbm.BoostedModel(trees=[stump], eta=1.0, base_score=0.5,
                             feature_names=("f0", "f1", "f2"), objective="logistic")
    x = np.array([[1.0, 9.0, -9.0], [-1.0, 0.0, 0.0]])
    shap = treeshap.tree_shap(model, x)
    margins = gbm.predict_margin(model, x)
    for i in range(2):
        assert shap.phi[i, 0] == pytest.approx(margins[i] - shap.base, abs=1e-12)
        assert shap.phi[i, 1] == 0.0 and shap.phi[i, 2] == 0.0


def test_constant_model_all_zero():
    leaves = [{"weight": 0.7, "cover": 5.0}, {"weight": -0.2, "cover": 5.0}]
    model = gbm.BoostedModel(trees=leaves, eta=0.5, base_score=0.1,
                             feature_names=("a", "b"), objective="logistic")
    shap = treeshap.tree_shap(model, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(shap.phi, np.zeros((2, 2)))
    assert shap.base == pytest.approx(0.1 + 0.5 * 0.5)


def test_local_accuracy_everywhere():
    rng = np.random.default_rng(0)
    model, x = train_small(rng, n=150, d=5, rounds=20, depth=4)
    shap = treeshap.tree_shap(model, x)
    margins = gbm.predict_margin(model, x)
    errors = np.abs(shap.base + shap.phi.sum(axis=1) - margins)
    assert errors.max() < 1e-9


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(1)
    model, x = train_small(rng, n=60, d=4, rounds=6, depth=3)
    shap = treeshap.tree_shap(model, x[:8])
    for i in range(8):
        oracle = brute_force_shapley(model, x[i])
        assert shap.phi[i] == pytest.approx(oracle, abs=1e-9)


def test_depth_two_tree_three_features_vs_enumeration():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((50, 3))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=3, max_depth=2, eta=1.0))
    shap = treeshap.tree_shap(model, x[:10])
    for i in range(10):
        assert shap.phi[i] == pytest.approx(brute_force_shapley(model, x[i]), abs=1e-9)


def test_unused_feature_gets_zero():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 4))
    x[:, 3] = 0.0  # constant: no split can use it
    y = (x[:, 0] > 0).astype(float)
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=10, max_depth=3))
    shap = treeshap.tree_shap(model, x)
    assert np.array_equal(shap.phi[:, 3], np.zeros(100))


def test_summary_single_feature_model_ranks_it_first():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((100, 3))
    y = (x[:, 1] > 0).astype(float)
    x[:, 0] = 0.0
    x[:, 2] = 0.0
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=5, max_depth=2))
    summary = treeshap.ShapSummary.of(treeshap.tree_shap(model, x).phi, x, model.feature_names)
    assert summary.ranking[0][0] == "f1"
    assert summary.ranking[1][1] == 0.0 and summary.ranking[2][1] == 0.0


def test_summary_treatment_column_dominates():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 5))
    treatment = (rng.random(300) < 0.5).astype(float)
    x[:, 2] = treatment
    y = (rng.random(300) < np.where(treatment == 1, 0.9, 0.1)).astype(float)
    model = gbm.train_classifier(x, y, gbm.TrainConfig(rounds=30, max_depth=3))
    summary = treeshap.ShapSummary.of(treeshap.tree_shap(model, x).phi, x, model.feature_names)
    assert summary.ranking[0][0] == "f2"


def test_summary_invariant_to_row_order():
    rng = np.random.default_rng(6)
    model, x = train_small(rng, n=120, d=4, rounds=10)
    forward = treeshap.ShapSummary.of(treeshap.tree_shap(model, x).phi, x, model.feature_names)
    x = x[::-1]
    backward = treeshap.ShapSummary.of(treeshap.tree_shap(model, x).phi, x, model.feature_names)
    assert forward.order == backward.order
    assert [name for name, _ in forward.ranking] == [name for name, _ in backward.ranking]


def test_summary_tie_break_by_feature_index():
    leaves = [{"weight": 0.3, "cover": 4.0}]
    model = gbm.BoostedModel(trees=leaves, eta=1.0, base_score=0.0,
                             feature_names=("a", "b", "c"), objective="logistic")
    x = np.zeros((3, 3))
    summary = treeshap.ShapSummary.of(treeshap.tree_shap(model, x).phi, x, model.feature_names)
    assert [name for name, _ in summary.ranking] == ["a", "b", "c"]


def paths_repeat_a_feature(node, seen=()):
    if "weight" in node:
        return False
    return node["feature"] in seen or any(
        paths_repeat_a_feature(child, (*seen, node["feature"])) for child in (node["left"], node["right"])
    )


def random_covers(node, rng) -> float:
    """Give the tree under `node` random positive, mostly fractional covers,
    each parent's the sum of its children's; returns the root's."""
    if "weight" in node:
        node["cover"] = float(rng.uniform(0.05, 4.0))
    else:
        node["cover"] = random_covers(node["left"], rng) + random_covers(node["right"], rng)
    return node["cover"]


def oracle_cases():
    """(model, rows) pairs: random classifiers and regressors at depths 1-6
    on continuous and tied integer columns, with min_child_cover 0, the
    regressors' trees with random fractional covers, plus a single-leaf tree;
    the rows add one at each tree's root threshold, NaN and +-inf."""
    rng = np.random.default_rng(2024)
    for case in range(36):
        depth = 1 + case % 6
        n = int(rng.integers(12, 60))
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((n, d))
        if case % 3 == 0:
            x = rng.integers(0, 3, (n, d)).astype(float)
        config = gbm.TrainConfig(rounds=int(rng.integers(1, 7)), max_depth=depth, eta=0.3,
                                 min_child_cover=(0.0, 0.5, 1.0)[case % 3])
        if case % 2:
            y = (x[:, 0] + rng.standard_normal(n) > 0).astype(float)
            y[:2] = (0.0, 1.0)
            model = gbm.train_classifier(x, y, config)
        else:
            model = gbm.train_regressor(x, x[:, 0] ** 2 + rng.standard_normal(n), config)
            for tree in model.trees:
                random_covers(tree, rng)
        model.trees.append({"weight": float(rng.standard_normal()), "cover": 1.0})
        rows = np.vstack([x, rng.standard_normal((4, d))])
        for tree in model.trees:
            if "weight" not in tree:
                at_threshold = rows[0].copy()
                at_threshold[tree["feature"]] = tree["threshold"]
                rows = np.vstack([rows, at_threshold])
        rows[-1, 0], rows[-2, -1], rows[-3, 0] = np.nan, np.inf, -np.inf
        yield model, rows


def test_leaf_tables_match_recursion_oracle():
    repeated = 0
    for model, rows in oracle_cases():
        repeated += any(paths_repeat_a_feature(tree) for tree in model.trees)
        phi = treeshap.tree_shap(model, rows).phi
        oracle = reference_tree_shap(model, rows)
        assert np.array_equal(phi, oracle)
        assert np.array_equal(np.signbit(phi), np.signbit(oracle))
    assert repeated >= 5  # the cases split some feature twice on one path


def test_leaf_tables_fail_only_where_the_recursion_does():
    # A leaf with zero cover: the recursion divides by its zero fraction for
    # every row that goes the other way, and for no row that reaches it.
    stump = {
        "feature": 0, "threshold": 0.0, "cover": 10.0,
        "left": {"weight": -1.0, "cover": 0.0},
        "right": {"weight": 2.0, "cover": 10.0},
    }
    model = gbm.BoostedModel(trees=[stump], eta=1.0, base_score=0.5,
                             feature_names=("a", "b"), objective="logistic")
    reaching = np.array([[-1.0, 0.0], [-2.0, 5.0]])
    assert np.array_equal(treeshap.tree_shap(model, reaching).phi, reference_tree_shap(model, reaching))
    for rows in (np.array([[1.0, 0.0]]), np.vstack([reaching, [[1.0, 0.0]]])):
        with pytest.raises(ZeroDivisionError):
            reference_tree_shap(model, rows)
        with pytest.raises(ZeroDivisionError):
            treeshap.tree_shap(model, rows)
