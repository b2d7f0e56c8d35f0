"""Exact per-feature attributions for boosted tree ensembles.

Computes path-dependent TreeSHAP (Lundberg et al., Nature Machine
Intelligence 2020, Alg. 2).  Per row, that algorithm walks each tree with
its hot child (the side the row goes) first, keeping the set of features
split on so far ("the unique path") with the fraction of training mass
(zero fraction) and of matching paths (one fraction) that flow through,
and extends and unwinds the path's permutation weights as it goes.  At
each leaf it adds one term per path feature to that feature's
attribution.  The background distribution is the training cover recorded
on each node, so no separate background dataset is needed.

The terms a leaf adds depend only on the leaf and on which of its
ancestors the row goes hot at: the leaf's code, one bit per ancestor.  So,
after Fast TreeSHAP v2 (Yang, arXiv:2109.09847), each tree is done with
tables instead of a walk per row.  One comparison per internal node gives
every row's code at every leaf and the leaf's place in that row's visit
order.  The extend/unwind arithmetic then runs once per (leaf, code) that
occurs in the input, giving the ordered (feature, value) terms the walk
would add.  They are applied visit position by position and term by term
as vectorized adds, so every attribution receives the same float
operations in the same order as in the walk, and the result is
bit-identical to it (`tests/oracles.py` keeps the walk as
`reference_tree_shap`).

Attributions live in margin (log-odds) space, where additivity is exact:
``base + sum(phi) == margin(x)`` up to float error for every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError
from .gbm import BoostedModel


@dataclass(frozen=True)
class ShapValues:
    """phi[i, j] is feature j's contribution to sample i's margin."""

    phi: np.ndarray
    base: float
    feature_names: tuple[str, ...]


def _expected_leaf_value(node: dict) -> float:
    if "weight" in node:
        return node["weight"]
    left = _expected_leaf_value(node["left"]) * node["left"]["cover"]
    right = _expected_leaf_value(node["right"]) * node["right"]["cover"]
    return (left + right) / node["cover"]


def expected_margin(model: BoostedModel) -> float:
    """Cover-weighted mean margin: the additive baseline of the attributions."""
    return model.base_score + model.eta * sum(
        _expected_leaf_value(tree) for tree in model.trees
    )


# A path entry is [feature, zero_fraction, one_fraction, weight].


def _extend(path: list[list[float]], zero_fraction: float, one_fraction: float, feature: int) -> list[list[float]]:
    path = [entry.copy() for entry in path]
    depth = len(path)
    path.append([feature, zero_fraction, one_fraction, 1.0 if depth == 0 else 0.0])
    for i in range(depth - 1, -1, -1):
        path[i + 1][3] += one_fraction * path[i][3] * (i + 1) / (depth + 1)
        path[i][3] = zero_fraction * path[i][3] * (depth - i) / (depth + 1)
    return path


def _unwind(path: list[list[float]], index: int) -> list[list[float]]:
    length = len(path)
    one_fraction = path[index][2]
    zero_fraction = path[index][1]
    running = path[length - 1][3]
    weights = [entry[3] for entry in path]
    for j in range(length - 2, -1, -1):
        if one_fraction != 0.0:
            kept = weights[j]
            weights[j] = running * length / ((j + 1) * one_fraction)
            running = kept - weights[j] * zero_fraction * (length - 1 - j) / length
        else:
            weights[j] = weights[j] * length / (zero_fraction * (length - 1 - j))
    out = []
    for j in range(length - 1):
        source = path[j] if j < index else path[j + 1]
        out.append([source[0], source[1], source[2], weights[j]])
    return out


def _unwound_sum(path: list[list[float]], index: int) -> float:
    return sum(entry[3] for entry in _unwind(path, index))


def _tree_leaves(node: dict, ancestors: tuple = ()) -> list[tuple[dict, tuple]]:
    """Every leaf with its ancestors, root first, as (node, went_left)."""
    if "weight" in node:
        return [(node, ancestors)]
    return _tree_leaves(node["left"], (*ancestors, (node, True))) + _tree_leaves(
        node["right"], (*ancestors, (node, False))
    )


def _path_adds(ancestors: tuple, leaf: dict, hot: list[bool]) -> list[tuple[int, float]]:
    """The (feature, value) adds the recursion makes at `leaf` for a row whose
    path to it goes hot at the ancestors flagged in `hot`, in its order."""
    path = _extend([], 1.0, 1.0, -1)
    for (node, went_left), is_hot in zip(ancestors, hot):
        child = node["left" if went_left else "right"]
        incoming_zero = incoming_one = 1.0
        for k, entry in enumerate(path):
            if entry[0] == node["feature"]:
                incoming_zero, incoming_one = entry[1], entry[2]
                path = _unwind(path, k)
                break
        path = _extend(
            path, incoming_zero * child["cover"] / node["cover"], incoming_one if is_hot else 0.0, node["feature"]
        )
    return [
        (path[i][0], _unwound_sum(path, i) * (path[i][2] - path[i][1]) * leaf["weight"])
        for i in range(1, len(path))
    ]


def _add_tree(tree: dict, x_matrix: np.ndarray, phi: np.ndarray, stride: int) -> None:
    """Add one tree's attributions to the flat row-major `phi`, whose rows
    are `stride` long and end in a scratch column."""
    leaves = _tree_leaves(tree)
    if len(leaves) == 1:
        return
    n = x_matrix.shape[0]
    rows = np.arange(n)
    n_leaves: dict[int, int] = {}  # leaves under each internal node
    goes_left: dict[int, np.ndarray] = {}
    for _, ancestors in leaves:
        for node, _ in ancestors:
            n_leaves[id(node)] = n_leaves.get(id(node), 0) + 1
            if id(node) not in goes_left:
                goes_left[id(node)] = x_matrix[:, node["feature"]] < node["threshold"]

    # One row of add lists per (leaf, code) that occurs; slot[p, r] is the
    # one row r takes at the p-th leaf the recursion visits.  Codes no row
    # takes get no table, so arithmetic that fails on a path (a zero cover
    # divides by zero) fails for the same inputs as the walk.
    features: list[list[int]] = []
    values: list[list[float]] = []
    slot = np.empty((len(leaves), n), dtype=np.int64)
    for leaf, ancestors in leaves:
        # Bit k of a row's code is set when the row goes down the leaf's path
        # at ancestor k.  The recursion visits the hot child first, so the
        # leaf comes after every leaf under the hot sibling of each ancestor
        # where the row goes the other way.
        code = np.zeros(n, dtype=np.int64)
        position = np.zeros(n, dtype=np.int64)
        for k, (node, went_left) in enumerate(ancestors):
            if k and k % 62 == 0:  # renumber to keep the codes inside int64
                code = np.unique(code, return_inverse=True)[1].reshape(-1)
            hot = goes_left[id(node)] == went_left
            sibling = node["right" if went_left else "left"]
            code = 2 * code + hot
            position += ~hot * n_leaves.get(id(sibling), 1)
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        slot[position, rows] = len(features) + inverse.reshape(-1)
        for r in first:
            hot = [goes_left[id(node)][r] == went_left for node, went_left in ancestors]
            adds = _path_adds(ancestors, leaf, hot)
            features.append([j for j, _ in adds])
            values.append([v for _, v in adds])

    width = max(map(len, features), default=0)
    if width == 0:
        return
    # Short add lists are padded with 0.0 into the scratch column, so a real
    # column receives the walk's adds and no others.
    feature_table = np.full((width, len(features)), stride - 1)
    value_table = np.zeros((width, len(features)))
    for g, (feature, value) in enumerate(zip(features, values)):
        feature_table[: len(feature), g] = feature
        value_table[: len(value), g] = value
    row_start = rows * stride
    for p in range(len(leaves)):
        index = feature_table[:, slot[p]] + row_start
        value = value_table[:, slot[p]]
        for i in range(width):
            phi[index[i]] += value[i]


def tree_shap(model: BoostedModel, x_matrix: np.ndarray) -> ShapValues:
    """Exact path-dependent attributions for every row, in margin space."""
    x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=np.float64))
    if x_matrix.shape[1] != model.n_features:
        raise TrainingError(
            f"expected {model.n_features} features, got {x_matrix.shape[1]}"
        )
    stride = model.n_features + 1
    phi = np.zeros(x_matrix.shape[0] * stride)
    for tree in model.trees:
        _add_tree(tree, x_matrix, phi, stride)
    phi = model.eta * phi.reshape(-1, stride)[:, :-1]
    return ShapValues(phi=phi, base=expected_margin(model), feature_names=model.feature_names)


@dataclass(frozen=True)
class ShapSummary:
    """Features ranked by mean |phi| with the raw (value, phi) pairs kept for
    plotting; ties break on the lower feature index."""

    ranking: tuple[tuple[str, float], ...]
    order: tuple[int, ...]
    phi: np.ndarray
    values: np.ndarray
    feature_names: tuple[str, ...]

    @classmethod
    def of(cls, phi: np.ndarray, values: np.ndarray, feature_names: tuple[str, ...]) -> "ShapSummary":
        """The summary of attributions `phi` already computed for the rows `values`."""
        mean_abs = np.mean(np.abs(phi), axis=0)
        # argsort on (-mean, index) pairs: descending magnitude, stable tie-break.
        order = tuple(int(j) for j in np.lexsort((np.arange(mean_abs.shape[0]), -mean_abs)))
        ranking = tuple((feature_names[j], float(mean_abs[j])) for j in order)
        return cls(ranking=ranking, order=order, phi=phi, values=values, feature_names=feature_names)

