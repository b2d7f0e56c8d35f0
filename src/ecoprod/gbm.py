"""Second-order gradient-boosted decision trees.

Training follows the classic second-order recipe: per round, gradients and
hessians of the loss at the current margins drive an exact greedy split
search (every boundary between sorted distinct feature values is scored),

    gain = 1/2 * [G_L^2/(H_L + lambda) + G_R^2/(H_R + lambda) - G^2/(H + lambda)]

and leaves take the Newton weight -G/(H + lambda).  The logistic objective
(g = p - y, h = p(1 - p)) powers the co-production classifier; a squared
objective (g = pred - y, h = 1) backs the regressors the treatment-effect
meta-learners need.  Neither is weighted: a node's cover is its row count.

Split search runs on presorted column blocks (Chen & Guestrin, KDD 2016,
section 4.1).  Each fit sorts every column once with a stable argsort into a
(features x rows) index matrix whose row f lists the training rows in
ascending order of feature f, ties in ascending row index.  When a node
splits, each child keeps the entries of the parent's block that fall on its
side, picked by a boolean mask, so every block row stays sorted by (value,
row index).  A node's block is therefore exactly what a stable argsort of
the node's rows (held in ascending order) would give.  The children of a
node one level above `max_depth` are leaves and get no block.

A node's candidate boundaries are the block positions j < m - 1 (of m rows)
after which the value rises and both sides, j + 1 and m - j - 1 rows, keep
`min_child_cover`.  The matrix does not change during a fit, so the root's
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
(0/0 when lambda is 0 and a side holds only rows whose p rounds to 0 or 1)
is skipped, as it is when its own argmax picks the NaN.  The flat argmax
also returns the first NaN, so only then are the gains of every feature
holding a NaN set to -inf and the argmax taken again.  Each leaf adds its
weight to the round's update vector as it is grown, so no tree walk follows
a round.

Trees route strictly-less-than-threshold to the left child and record the
training row count as the node cover, which the Shapley attribution pass
reuses as its background distribution.  A tree is its model.json node: a
split is {feature, threshold, cover, left, right} and a leaf {weight, cover}.
`BoostedModel.trees` holds these same nodes and `model_to_json` shares them,
so copy a dump before editing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import finite_number, read_text, write_json
from .errors import ConfigError, DegenerateSplitError, TrainingError
from .seeding import derive_seed
from .spectral import kmeans

PROBABILITY_CLAMP = 1e-15


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


def _check_tree(node, where: str, n_features: int) -> None:
    """Check the model.json node `node` and every node below it; a violation
    is a ConfigError naming `where`."""
    leaf = isinstance(node, dict) and "weight" in node
    _check_keys(node, _LEAF_KEYS if leaf else _SPLIT_KEYS, where)
    if not (finite_number(node["cover"]) and node["cover"] > 0):
        raise ConfigError(f"{where}.cover must be a finite number > 0, got {node['cover']!r}")
    if leaf:
        _number(node["weight"], f"{where}.weight")
        return
    feature = node["feature"]
    if type(feature) is not int or not 0 <= feature < n_features:
        raise ConfigError(f"{where}.feature must be an int in [0, {n_features}), got {feature!r}")
    _number(node["threshold"], f"{where}.threshold")
    _check_tree(node["left"], f"{where}.left", n_features)
    _check_tree(node["right"], f"{where}.right", n_features)


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

    trees: list[dict]  # model.json nodes, shared with model_to_json's output
    eta: float
    base_score: float
    feature_names: tuple[str, ...]
    objective: str  # "logistic" | "squared"
    training_loss: list[float] = field(default_factory=list)  # per-round, not serialized

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def _predict_tree(node: dict, x_matrix: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if "weight" in node:
        out[rows] += node["weight"]
        return
    goes_left = x_matrix[rows, node["feature"]] < node["threshold"]
    _predict_tree(node["left"], x_matrix, out, rows[goes_left])
    _predict_tree(node["right"], x_matrix, out, rows[~goes_left])


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
    f, ties by ascending row index.  `x` does not change during a fit, so the
    root's sorted values and candidate boundaries are found once here
    (`root`) and reused by every round."""

    def __init__(self, x_matrix: np.ndarray, min_child_cover: float):
        self.columns = np.ascontiguousarray(x_matrix.T)
        n_features, n = self.columns.shape
        self.offsets = np.arange(n_features)[:, None] * n  # start of feature f in columns.ravel()
        self.min_child_cover = min_child_cover
        self.rows = np.arange(n)
        self.block = np.argsort(self.columns, axis=1, kind="stable")
        self.root = self.boundaries(self.block)

    def boundaries(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The node's sorted values (features x rows) and the flat positions in
        them of its candidate boundaries: the value rises after the position,
        and both sides keep a cover of at least `min_child_cover`."""
        xs = self.columns.ravel()[block + self.offsets]
        m = block.shape[1]
        left = np.arange(1, m)  # rows at or before positions 0 .. m - 2
        covered = (left >= self.min_child_cover) & (m - left >= self.min_child_cover)
        candidate = np.zeros(xs.shape, dtype=bool)
        candidate[:, :-1] = (xs[:, 1:] > xs[:, :-1]) & covered
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
) -> dict:
    """Grow the subtree over `rows` (ascending) with sorted block `block`
    (None at `max_depth`) and, if already known, its boundary `view`, as a
    model.json node; each leaf adds its weight to `update` at its rows."""
    cover = float(rows.shape[0])
    split = None
    if depth < config.max_depth and rows.shape[0] > 1:
        if view is None:
            view = data.boundaries(block)
        split = _best_split(rows, block, view, g, h, config.reg_lambda)
    if split is None:
        weight = float(-g[rows].sum() / (h[rows].sum() + config.reg_lambda))
        update[rows] += weight
        return {"weight": weight, "cover": cover}
    _, feature, threshold = split
    goes_left = data.columns[feature] < threshold
    left = goes_left[rows]
    left_block = right_block = None
    if depth + 1 < config.max_depth:  # leaf children need only their rows
        in_left = goes_left[block]
        left_block = block[in_left].reshape(block.shape[0], -1)
        right_block = block[~in_left].reshape(block.shape[0], -1)
    return {
        "feature": feature,
        "threshold": threshold,
        "cover": cover,
        "left": _grow_tree(data, rows[left], left_block, None, g, h, config, depth + 1, update),
        "right": _grow_tree(data, rows[~left], right_block, None, g, h, config, depth + 1, update),
    }


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
    if not y.shape[0]:
        raise TrainingError("no training rows")
    return x_matrix, y


def _boost(x_matrix: np.ndarray, y: np.ndarray, config: TrainConfig, model: BoostedModel) -> BoostedModel:
    """Grow `config.rounds` trees into `model` from its base score.  Each
    round's prediction p is the margin itself (squared objective) or its
    logistic, found once per round: g = p - y, and h = p(1 - p) or 1.  A
    logistic model records the loss after each round in `training_loss`."""
    n = x_matrix.shape[0]
    logistic = model.objective == "logistic"
    data = _Presorted(x_matrix, config.min_child_cover)
    margins = np.full(n, model.base_score)
    p = 1.0 / (1.0 + np.exp(-margins)) if logistic else margins
    h = np.ones(n)
    for _ in range(config.rounds):
        g = p - y
        if logistic:
            h = p * (1.0 - p)
        update = np.zeros(n)
        model.trees.append(_grow_tree(data, data.rows, data.block, data.root, g, h, config, 0, update))
        margins = margins + config.eta * update
        if logistic:
            p = 1.0 / (1.0 + np.exp(-margins))
            model.training_loss.append(_logistic_loss(y, p))
        else:
            p = margins
    return model


def train_classifier(
    x_matrix: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    feature_names: tuple[str, ...] | None = None,
) -> BoostedModel:
    """Boosted logistic classifier; `training_loss` holds the loss after each
    round.  A full Newton step (eta 1, no `reg_lambda`) can raise it."""
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
    return _boost(x_matrix, y, config, model)


def train_regressor(x_matrix: np.ndarray, y: np.ndarray, config: TrainConfig) -> BoostedModel:
    """Boosted squared-loss regressor."""
    x_matrix, y = _validate_inputs(x_matrix, y)
    model = BoostedModel(
        trees=[], eta=config.eta, base_score=float(np.mean(y)),
        feature_names=tuple(f"f{j}" for j in range(x_matrix.shape[1])), objective="squared",
    )
    return _boost(x_matrix, y, config, model)


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
    for holdout in folds:
        train_mask = np.ones(x_matrix.shape[0], dtype=bool)
        train_mask[holdout] = False
        model = train_classifier(x_matrix[train_mask], y[train_mask], config)
        predictions = predict_proba(model, x_matrix[holdout]) >= 0.5
        accuracies.append(float(np.mean(predictions == (y[holdout] == 1.0))))
    return CvReport(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        fold_sizes=tuple(len(f) for f in folds),
    )


# ---------------------------------------------------------------------------
# Governance archetypes (two-group split of the provinces)


@dataclass(frozen=True)
class ArchetypeSplit:
    labels: np.ndarray
    coproductive_cluster: int


def archetype_clusters(province_probs: np.ndarray, vectors: np.ndarray | None = None) -> ArchetypeSplit:
    """Two-means split of the provinces on `vectors`, one row per province
    (by default each province's probability); the cluster with the higher
    mean probability is the co-productive archetype.  Provinces whose
    vectors are all identical cannot be split."""
    probs = np.asarray(province_probs, dtype=np.float64)
    if probs.ndim != 1 or probs.shape[0] < 2:
        raise DegenerateSplitError("need at least two province probabilities")
    points = probs[:, None] if vectors is None else np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] != probs.shape[0]:
        raise DegenerateSplitError("need one vector per province probability")
    if np.all(points == points[0]):
        raise DegenerateSplitError("identical province vectors cannot be split")
    labels = kmeans(points, 2, seed=0).labels
    means = [probs[labels == c].mean() for c in (0, 1)]
    return ArchetypeSplit(labels=labels, coproductive_cluster=int(np.argmax(means)))


# ---------------------------------------------------------------------------
# Serialization (documented model-dump schema)


def model_to_json(model: BoostedModel) -> dict:
    """Schema: {objective, base_score, eta, feature_names, trees: [node...]}
    where node = {feature, threshold, cover, left, right} | {weight, cover}.
    The nodes are the model's own, not copies."""
    return {
        "objective": model.objective,
        "base_score": model.base_score,
        "eta": model.eta,
        "feature_names": list(model.feature_names),
        "trees": list(model.trees),
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
    for i, tree in enumerate(obj["trees"]):
        _check_tree(tree, f"trees[{i}]", len(names))
    return BoostedModel(
        trees=obj["trees"],
        eta=_number(obj["eta"], "eta"),
        base_score=_number(obj["base_score"], "base_score"),
        feature_names=tuple(names),
        objective=obj["objective"],
    )


def save_model(model: BoostedModel, path: str | Path) -> None:
    write_json(path, model_to_json(model))


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
