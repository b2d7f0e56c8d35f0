"""Second-order gradient-boosted decision trees.

Training follows the classic second-order recipe: per round, gradients and
hessians of the loss at the current margins drive an exact greedy split
search (every boundary between sorted distinct feature values is scored),

    gain = 1/2 * [G_L^2/(H_L + lambda) + G_R^2/(H_R + lambda) - G^2/(H + lambda)]

and leaves take the Newton weight -G/(H + lambda).  The logistic objective
(g = p - y, h = p(1 - p)) powers the co-production classifier; a squared
objective (g = pred - y, h = 1, optionally sample-weighted) backs the
regressors the treatment-effect meta-learners need.

Split search runs on presorted column blocks (Chen & Guestrin, KDD 2016,
section 4.1).  Each fit sorts every column once with a stable argsort into a
(features x rows) index matrix whose row f lists the training rows in
ascending order of feature f, ties in ascending row index.  When a node
splits, each child keeps the entries of the parent's block that fall on its
side, picked by a boolean mask, so every block row stays sorted by (value,
row index).  A node's block is therefore exactly what a stable argsort of
the node's rows (held in ascending order) would give.  The children of a
node one level above `max_depth` are leaves and get no block.

A node's candidate boundaries are the block positions after which the value
rises and where both sides keep a cover of at least `min_child_cover`.
Neither the matrix nor the cover weights change during a fit, so the root's
sorted values and candidates (its "view") are found once per fit, not once
per round; other nodes find theirs from their block.  The search then
gathers the prefix sums of g and h at the candidates only, feature-major,
and scores the gain formula there.

The result is bit-identical to sorting at every node: the same rows are
summed in the same order (prefix sums run along each block row; node totals
are 1-D sums over the node's rows in ascending order), and the tie-break is
unchanged.  One argmax over the feature-major candidates returns the first
maximum: the first feature among those with the best gain, at its first
best boundary, which is what a per-feature argmax followed by an argmax
over features gives.  A gain must exceed 1e-12.  A feature with a NaN gain
(0/0 at an empty-hessian boundary when lambda is 0) is skipped, as it is
when its own argmax picks the NaN.  The flat argmax also returns the first
NaN, so only then are the gains of every feature holding a NaN set to -inf
and the argmax taken again.  Each leaf adds its weight to the round's
update vector as it is grown, so no tree walk follows a round.

Trees route strictly-less-than-threshold to the left child and record the
training sample count as the node cover, which the Shapley attribution pass
reuses as its background distribution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import finite_number, read_text
from .errors import ConfigError, DegenerateSplitError, TrainingError
from .seeding import derive_seed
from .spectral import ClusterAssignment, kmeans

PROBABILITY_CLAMP = 1e-15
LOSS_INCREASE_TOL = 1e-9


_MODEL_KEYS = {"objective", "base_score", "eta", "feature_names", "trees"}
_LEAF_KEYS = {"weight", "cover"}
_SPLIT_KEYS = {"feature", "threshold", "cover", "left", "right"}


def _check_keys(obj, keys: set, where: str) -> None:
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise ConfigError(f"{where} must be a JSON object with exactly the keys {sorted(keys)}")


def _number(value, where: str):
    """`value`, if it is a finite JSON number; else a ConfigError naming `where`."""
    if not finite_number(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return value


@dataclass
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (weight); cover is
    the training sample weight that reached the node."""

    cover: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"weight": self.weight, "cover": self.cover}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "cover": self.cover,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj, where: str, n_features: int) -> "TreeNode":
        """The node `obj` of a model dump, checked against the schema of
        `to_dict`; a violation is a ConfigError naming `where`."""
        leaf = isinstance(obj, dict) and "weight" in obj
        _check_keys(obj, _LEAF_KEYS if leaf else _SPLIT_KEYS, where)
        if not (finite_number(obj["cover"]) and obj["cover"] > 0):
            raise ConfigError(f"{where}.cover must be a finite number > 0, got {obj['cover']!r}")
        if leaf:
            return cls(cover=obj["cover"], weight=_number(obj["weight"], f"{where}.weight"))
        feature = obj["feature"]
        if type(feature) is not int or not 0 <= feature < n_features:
            raise ConfigError(f"{where}.feature must be an int in [0, {n_features}), got {feature!r}")
        return cls(
            cover=obj["cover"],
            feature=feature,
            threshold=_number(obj["threshold"], f"{where}.threshold"),
            left=cls.from_dict(obj["left"], f"{where}.left", n_features),
            right=cls.from_dict(obj["right"], f"{where}.right", n_features),
        )


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = 100
    max_depth: int = 4
    eta: float = 0.3
    reg_lambda: float = 1.0
    min_child_cover: float = 1.0
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise TrainingError("rounds must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise TrainingError("eta must lie in (0, 1]")
        if not self.reg_lambda >= 0:  # NaN too
            raise TrainingError("reg_lambda must be >= 0")
        if not self.min_child_cover >= 0:  # NaN too
            raise TrainingError("min_child_cover must be >= 0")
        if self.folds < 2:
            raise TrainingError("folds must be >= 2")
        if self.max_depth < 1:
            raise TrainingError("max_depth must be >= 1")


@dataclass
class BoostedModel:
    """Additive tree ensemble: margin(x) = base_score + eta * sum of trees."""

    trees: list[TreeNode]
    eta: float
    base_score: float
    feature_names: tuple[str, ...]
    objective: str  # "logistic" | "squared"
    training_loss: list[float] = field(default_factory=list)  # per-round, not serialized

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _predict_tree(node: TreeNode, x_matrix: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if node.is_leaf:
        out[rows] += node.weight
        return
    goes_left = x_matrix[rows, node.feature] < node.threshold
    _predict_tree(node.left, x_matrix, out, rows[goes_left])
    _predict_tree(node.right, x_matrix, out, rows[~goes_left])


def predict_margin(model: BoostedModel, x_matrix: np.ndarray) -> np.ndarray:
    x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=np.float64))
    if x_matrix.shape[1] != model.n_features:
        raise TrainingError(
            f"expected {model.n_features} features, got {x_matrix.shape[1]}"
        )
    totals = np.zeros(x_matrix.shape[0])
    rows = np.arange(x_matrix.shape[0])
    for tree in model.trees:
        _predict_tree(tree, x_matrix, totals, rows)
    return model.base_score + model.eta * totals


def predict_proba(model: BoostedModel, x_matrix: np.ndarray) -> np.ndarray:
    """Logistic of the margin, clamped away from exact 0 and 1."""
    if model.objective != "logistic":
        raise TrainingError("predict_proba requires a logistic-objective model")
    margins = predict_margin(model, x_matrix)
    return np.clip(1.0 / (1.0 + np.exp(-margins)), PROBABILITY_CLAMP, 1.0 - PROBABILITY_CLAMP)


class _Presorted:
    """One fit's training matrix, presorted for split search.

    `block` is the presorted block: row f lists the rows by ascending feature
    f, ties by ascending row index.  Neither `x` nor the cover weights change
    during a fit, so the root's sorted values and candidate boundaries are
    found once here (`root`) and reused by every round."""

    def __init__(self, x_matrix: np.ndarray, weights: np.ndarray, min_child_cover: float):
        self.columns = np.ascontiguousarray(x_matrix.T)
        n_features, n = self.columns.shape
        self.offsets = np.arange(n_features)[:, None] * n  # start of feature f in columns.ravel()
        self.weights = weights
        self.min_child_cover = min_child_cover
        self.rows = np.arange(n)
        self.block = np.argsort(self.columns, axis=1, kind="stable")
        self.root = self.boundaries(self.rows, self.block)

    def boundaries(self, rows: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The node's sorted values (features x rows) and the flat positions in
        them of its candidate boundaries: the value rises after the position,
        and both sides keep a cover of at least `min_child_cover`."""
        xs = self.columns.ravel()[block + self.offsets]
        left_cover = np.cumsum(self.weights[block], axis=1)
        right_cover = self.weights[rows].sum() - left_cover
        candidate = (left_cover >= self.min_child_cover) & (right_cover >= self.min_child_cover)
        candidate[:, :-1] &= xs[:, 1:] > xs[:, :-1]
        candidate[:, -1] = False
        return xs, np.flatnonzero(candidate)


def _best_split(
    rows: np.ndarray,
    block: np.ndarray,
    view: tuple[np.ndarray, np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    reg_lambda: float,
) -> tuple[float, int, float] | None:
    """Exact greedy search over all features at once, scoring only the
    candidate boundaries of the node's `view`; returns (gain, feature,
    threshold)."""
    xs, candidates = view
    if candidates.shape[0] == 0:
        return None
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    gs = np.cumsum(g[block], axis=1).ravel()[candidates]
    hs = np.cumsum(h[block], axis=1).ravel()[candidates]
    with np.errstate(divide="ignore", invalid="ignore"):  # a NaN gain is handled below
        parent_score = g_total * g_total / (h_total + reg_lambda)
        gains = 0.5 * (
            gs * gs / (hs + reg_lambda)
            + (g_total - gs) ** 2 / (h_total - hs + reg_lambda)
            - parent_score
        )
    best = int(np.argmax(gains))  # feature-major: first boundary, then first feature
    if np.isnan(gains[best]):  # argmax picks the first NaN: skip every feature with one
        features = candidates // block.shape[1]
        gains[np.isin(features, features[np.isnan(gains)])] = -np.inf
        best = int(np.argmax(gains))
    if not gains[best] > 1e-12:
        return None
    position = candidates[best]
    threshold = 0.5 * (xs.flat[position] + xs.flat[position + 1])
    return float(gains[best]), int(position // block.shape[1]), float(threshold)


def _grow_tree(
    data: _Presorted,
    rows: np.ndarray,
    block: np.ndarray | None,
    view: tuple[np.ndarray, np.ndarray] | None,
    g: np.ndarray,
    h: np.ndarray,
    config: TrainConfig,
    depth: int,
    update: np.ndarray,
) -> TreeNode:
    """Grow the subtree over `rows` (ascending) with sorted block `block`
    (None at `max_depth`) and, if already known, its boundary `view`; each
    leaf adds its weight to `update` at its rows."""
    cover = float(data.weights[rows].sum())
    split = None
    if depth < config.max_depth and rows.shape[0] > 1:
        if view is None:
            view = data.boundaries(rows, block)
        split = _best_split(rows, block, view, g, h, config.reg_lambda)
    if split is None:
        weight = float(-g[rows].sum() / (h[rows].sum() + config.reg_lambda))
        update[rows] += weight
        return TreeNode(cover=cover, weight=weight)
    _, feature, threshold = split
    goes_left = data.columns[feature] < threshold
    left = goes_left[rows]
    left_block = right_block = None
    if depth + 1 < config.max_depth:  # leaf children need only their rows
        in_left = goes_left[block]
        left_block = block[in_left].reshape(block.shape[0], -1)
        right_block = block[~in_left].reshape(block.shape[0], -1)
    node = TreeNode(cover=cover, feature=feature, threshold=threshold)
    node.left = _grow_tree(data, rows[left], left_block, None, g, h, config, depth + 1, update)
    node.right = _grow_tree(data, rows[~left], right_block, None, g, h, config, depth + 1, update)
    return node


def _logistic_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, PROBABILITY_CLAMP, 1.0 - PROBABILITY_CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _validate_inputs(x_matrix: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(x_matrix)):
        raise TrainingError("non-finite feature value")
    if y.shape != (x_matrix.shape[0],):
        raise TrainingError("target length does not match row count")
    return x_matrix, y


def train_classifier(
    x_matrix: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    feature_names: tuple[str, ...] | None = None,
) -> BoostedModel:
    """Boosted logistic classifier; the training loss is checked to be
    non-increasing across rounds."""
    x_matrix, y = _validate_inputs(x_matrix, y)
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise TrainingError("targets must be binary 0/1")
    if classes.shape[0] < 2:
        raise TrainingError("single-class target: nothing to separate")
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(x_matrix.shape[1]))

    model = BoostedModel(
        trees=[], eta=config.eta, base_score=0.0, feature_names=tuple(feature_names),
        objective="logistic",
    )
    n = x_matrix.shape[0]
    data = _Presorted(x_matrix, np.ones(n), config.min_child_cover)
    margins = np.full(n, model.base_score)
    p = 1.0 / (1.0 + np.exp(-margins))
    loss = _logistic_loss(y, p)
    for round_index in range(config.rounds):
        g = p - y
        h = p * (1.0 - p)
        update = np.zeros(n)
        tree = _grow_tree(data, data.rows, data.block, data.root, g, h, config, 0, update)
        model.trees.append(tree)
        margins = margins + config.eta * update
        p = 1.0 / (1.0 + np.exp(-margins))
        new_loss = _logistic_loss(y, p)
        if new_loss > loss + LOSS_INCREASE_TOL * max(1.0, abs(loss)):
            raise TrainingError(
                f"training loss increased at round {round_index}: {loss} -> {new_loss}"
            )
        loss = new_loss
        model.training_loss.append(loss)
    return model


def train_regressor(
    x_matrix: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    feature_names: tuple[str, ...] | None = None,
    sample_weight: np.ndarray | None = None,
) -> BoostedModel:
    """Boosted squared-loss regressor (optionally sample-weighted)."""
    x_matrix, y = _validate_inputs(x_matrix, y)
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(x_matrix.shape[1]))
    n = x_matrix.shape[0]
    weights = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if weights.shape != (n,) or np.any(weights < 0) or not np.all(np.isfinite(weights)) or not weights.sum():
        raise TrainingError("sample weights must be finite and non-negative with a positive sum")

    model = BoostedModel(
        trees=[], eta=config.eta, base_score=float(np.average(y, weights=weights)),
        feature_names=tuple(feature_names), objective="squared",
    )
    data = _Presorted(x_matrix, weights, config.min_child_cover)
    preds = np.full(n, model.base_score)
    for _ in range(config.rounds):
        g = weights * (preds - y)
        h = weights.copy()
        update = np.zeros(n)
        tree = _grow_tree(data, data.rows, data.block, data.root, g, h, config, 0, update)
        model.trees.append(tree)
        preds = preds + config.eta * update
    return model


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class CvReport:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    fold_sizes: tuple[int, ...]


def stratified_folds(y: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Shuffle each class and deal it round-robin, so every fold keeps both."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    assignments = np.empty(y.shape[0], dtype=np.int64)
    for cls in np.unique(y):
        members = np.nonzero(y == cls)[0]
        if members.shape[0] < folds:
            raise TrainingError(
                f"class {cls} has {members.shape[0]} rows; cannot stratify into {folds} folds"
            )
        members = members[rng.permutation(members.shape[0])]
        assignments[members] = np.arange(members.shape[0]) % folds
    return [np.nonzero(assignments == f)[0] for f in range(folds)]


def cross_validate(x_matrix: np.ndarray, y: np.ndarray, config: TrainConfig) -> CvReport:
    """Stratified k-fold accuracy of the classifier at the 0.5 threshold."""
    x_matrix, y = _validate_inputs(x_matrix, y)
    if config.folds > x_matrix.shape[0]:
        raise TrainingError("more folds than rows")
    folds = stratified_folds(y, config.folds, derive_seed(config.seed, "cv-folds"))
    accuracies = []
    for fold_index, holdout in enumerate(folds):
        train_mask = np.ones(x_matrix.shape[0], dtype=bool)
        train_mask[holdout] = False
        fold_config = replace(config, seed=derive_seed(config.seed, f"cv-fold:{fold_index}"))
        model = train_classifier(x_matrix[train_mask], y[train_mask], fold_config)
        predictions = predict_proba(model, x_matrix[holdout]) >= 0.5
        accuracies.append(float(np.mean(predictions == (y[holdout] == 1.0))))
    return CvReport(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        fold_sizes=tuple(len(f) for f in folds),
    )


# ---------------------------------------------------------------------------
# Governance archetypes (two-group split of province-level probabilities)


@dataclass(frozen=True)
class ArchetypeSplit:
    labels: np.ndarray
    centroids: np.ndarray
    coproductive_cluster: int


def archetype_clusters(province_probs: np.ndarray, seed: int = 0) -> ArchetypeSplit:
    """Two-means split of province-level probabilities; the cluster with the
    higher centroid is the co-productive archetype."""
    probs = np.asarray(province_probs, dtype=np.float64)
    if probs.ndim != 1 or probs.shape[0] < 2:
        raise DegenerateSplitError("need at least two province probabilities")
    if float(probs.max() - probs.min()) == 0.0:
        raise DegenerateSplitError("identical probabilities cannot be split")
    assignment: ClusterAssignment = kmeans(probs[:, None], 2, seed)
    coproductive = int(np.argmax(assignment.centroids[:, 0]))
    return ArchetypeSplit(
        labels=assignment.labels,
        centroids=assignment.centroids[:, 0],
        coproductive_cluster=coproductive,
    )


# ---------------------------------------------------------------------------
# Serialization (documented model-dump schema)


def model_to_json(model: BoostedModel) -> dict:
    """Schema: {objective, base_score, eta, feature_names, trees: [node...]}
    where node = {feature, threshold, cover, left, right} | {weight, cover}."""
    return {
        "objective": model.objective,
        "base_score": model.base_score,
        "eta": model.eta,
        "feature_names": list(model.feature_names),
        "trees": [tree.to_dict() for tree in model.trees],
    }


def model_from_json(obj) -> BoostedModel:
    """The model of a dump, checked against the schema of `model_to_json`; a
    violation is a ConfigError naming the first offending key or node."""
    _check_keys(obj, _MODEL_KEYS, "the model")
    if obj["objective"] not in ("logistic", "squared"):
        raise ConfigError(f"objective must be 'logistic' or 'squared', got {obj['objective']!r}")
    names = obj["feature_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ConfigError("feature_names must be a list of strings")
    if not isinstance(obj["trees"], list):
        raise ConfigError("trees must be a list")
    return BoostedModel(
        trees=[TreeNode.from_dict(tree, f"trees[{i}]", len(names)) for i, tree in enumerate(obj["trees"])],
        eta=_number(obj["eta"], "eta"),
        base_score=_number(obj["base_score"], "base_score"),
        feature_names=tuple(names),
        objective=obj["objective"],
    )


def save_model(model: BoostedModel, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(model_to_json(model), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path: str | Path) -> BoostedModel:
    """Read a model dump; input that is not JSON or leaves the schema is a
    ConfigError naming the file and the offending key, and a byte that is
    not UTF-8 an IngestionError naming the file and line."""
    try:
        return model_from_json(json.loads(read_text(Path(path))))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file {path}: invalid JSON: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"model file {path}: {exc}") from None
