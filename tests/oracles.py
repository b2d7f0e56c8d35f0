"""Independent oracles the tests check the library against.

Nothing here may call into the implementation paths under test: the LP
oracle enumerates basic solutions directly, the Shapley oracle enumerates
feature subsets, the exact TreeSHAP oracle runs the per-row recursion that
the leaf tables replace, the boosting oracle sorts every feature at every
node and refits by walking each finished tree, the grouped treatment-effect
oracle aggregates per-row effects by group itself, the k-means oracle assigns
points through the full (n, k, d) distance array and averages each cluster's
members picked by a boolean mask, the silhouette oracle scores one row at a
time, and the clustering metrics are computed from first principles.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

FEAS_TOL = 1e-9


def vertex_minimize(
    c: np.ndarray,
    a: np.ndarray,
    relations: tuple[str, ...],
    b: np.ndarray,
    upper: np.ndarray | None = None,
) -> tuple[float, np.ndarray] | None:
    """Brute-force minimum of c.x over {A x (rel) b, 0 <= x <= upper}.

    Enumerates every choice of n active hyperplanes (constraint rows as
    equalities, plus the bound faces), solves the square system, keeps the
    feasible solutions, and returns the best vertex.  Returns None when no
    feasible vertex exists (for a pointed, bounded, non-empty region this
    means the region is empty).
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    n = c.shape[0]

    planes: list[tuple[np.ndarray, float]] = []
    forced: list[int] = []
    for i in range(a.shape[0]):
        if relations[i] == "=":
            forced.append(len(planes))
        planes.append((a[i], b[i]))
    for j in range(n):
        row = np.zeros(n)
        row[j] = 1.0
        planes.append((row, 0.0))
        if upper is not None and np.isfinite(upper[j]):
            planes.append((row.copy(), float(upper[j])))

    free_ids = [i for i in range(len(planes)) if i not in forced]
    need = n - len(forced)
    if need < 0:
        return None

    best: tuple[float, np.ndarray] | None = None
    for combo in itertools.combinations(free_ids, need):
        active = forced + list(combo)
        system = np.array([planes[i][0] for i in active])
        rhs = np.array([planes[i][1] for i in active])
        try:
            x = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if _feasible(x, a, relations, b, upper):
            value = float(c @ x)
            if best is None or value < best[0] - 1e-12:
                best = (value, x)
    return best


def _feasible(x, a, relations, b, upper) -> bool:
    lhs = a @ x
    for i, rel in enumerate(relations):
        if rel == "<=" and lhs[i] > b[i] + FEAS_TOL:
            return False
        if rel == ">=" and lhs[i] < b[i] - FEAS_TOL:
            return False
        if rel == "=" and abs(lhs[i] - b[i]) > FEAS_TOL:
            return False
    if np.any(x < -FEAS_TOL):
        return False
    if upper is not None and np.any(x > upper + FEAS_TOL):
        return False
    return True


def dea_theta_oracle(x_panel: np.ndarray, y_panel: np.ndarray, o: int, vrs: bool) -> float:
    """Efficiency score of unit o by direct vertex enumeration of its LP.

    Builds the program from scratch over variables (theta, lambda_1..n).
    """
    m, n = x_panel.shape
    s = y_panel.shape[0]
    rows = []
    relations = []
    rhs = []
    for i in range(m):
        rows.append(np.concatenate(([-x_panel[i, o]], x_panel[i])))
        relations.append("<=")
        rhs.append(0.0)
    for r in range(s):
        rows.append(np.concatenate(([0.0], y_panel[r])))
        relations.append(">=")
        rhs.append(float(y_panel[r, o]))
    if vrs:
        rows.append(np.concatenate(([0.0], np.ones(n))))
        relations.append("=")
        rhs.append(1.0)
    c = np.zeros(n + 1)
    c[0] = 1.0
    result = vertex_minimize(c, np.array(rows), tuple(relations), np.array(rhs))
    assert result is not None, "DEA oracle: scoring program has no feasible vertex"
    return result[0]


def tree_conditional_expectation(node, x_row: np.ndarray, subset: set[int]) -> float:
    """Cover-weighted expectation of one tree with the subset's features fixed."""
    if "weight" in node:
        return node["weight"]
    if node["feature"] in subset:
        child = node["left"] if x_row[node["feature"]] < node["threshold"] else node["right"]
        return tree_conditional_expectation(child, x_row, subset)
    left = tree_conditional_expectation(node["left"], x_row, subset) * node["left"]["cover"]
    right = tree_conditional_expectation(node["right"], x_row, subset) * node["right"]["cover"]
    return (left + right) / node["cover"]


def brute_force_shapley(model, x_row: np.ndarray) -> np.ndarray:
    """Exact Shapley values by enumeration over all feature subsets."""
    d = model.n_features
    phi = np.zeros(d)
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for size in range(d):
            for subset in itertools.combinations(others, size):
                weight = (
                    math.factorial(size) * math.factorial(d - size - 1) / math.factorial(d)
                )
                with_i = set(subset) | {i}
                without = set(subset)
                for tree in model.trees:
                    phi[i] += weight * (
                        tree_conditional_expectation(tree, x_row, with_i)
                        - tree_conditional_expectation(tree, x_row, without)
                    )
    return model.eta * phi


def _reference_extend(path, zero_fraction, one_fraction, feature):
    path = [entry.copy() for entry in path]
    depth = len(path)
    path.append([feature, zero_fraction, one_fraction, 1.0 if depth == 0 else 0.0])
    for i in range(depth - 1, -1, -1):
        path[i + 1][3] += one_fraction * path[i][3] * (i + 1) / (depth + 1)
        path[i][3] = zero_fraction * path[i][3] * (depth - i) / (depth + 1)
    return path


def _reference_unwind(path, index):
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


def _reference_recurse(node, x_row, phi, path, zero_fraction, one_fraction, feature):
    """One row's walk of one tree, hot child first; a path entry is
    [feature, zero_fraction, one_fraction, weight]."""
    path = _reference_extend(path, zero_fraction, one_fraction, feature)
    if "weight" in node:
        for i in range(1, len(path)):
            weight = sum(entry[3] for entry in _reference_unwind(path, i))
            phi[path[i][0]] += weight * (path[i][2] - path[i][1]) * node["weight"]
        return
    feature = node["feature"]
    hot, cold = (
        (node["left"], node["right"]) if x_row[feature] < node["threshold"] else (node["right"], node["left"])
    )
    incoming_zero = 1.0
    incoming_one = 1.0
    for k, entry in enumerate(path):
        if entry[0] == feature:
            incoming_zero, incoming_one = entry[1], entry[2]
            path = _reference_unwind(path, k)
            break
    _reference_recurse(hot, x_row, phi, path, incoming_zero * hot["cover"] / node["cover"], incoming_one, feature)
    _reference_recurse(cold, x_row, phi, path, incoming_zero * cold["cover"] / node["cover"], 0.0, feature)


def reference_tree_shap(model, x_matrix: np.ndarray) -> np.ndarray:
    """Path-dependent TreeSHAP by the per-row recursion (Lundberg et al.,
    Nature Machine Intelligence 2020, Alg. 2), row by row and tree by tree:
    the exact float operations, in the exact order, that `tree_shap` must
    reproduce."""
    x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=np.float64))
    phi = np.zeros((x_matrix.shape[0], model.n_features))
    for i in range(x_matrix.shape[0]):
        row_phi = np.zeros(model.n_features)
        for tree in model.trees:
            _reference_recurse(tree, x_matrix[i], row_phi, [], 1.0, 1.0, -1)
        phi[i] = model.eta * row_phi
    return phi


def _reference_split(x, rows, g, h, cover, reg_lambda, min_child_cover):
    """Exact greedy split: stable argsort of each feature over the node's rows."""
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    parent_score = g_total * g_total / (h_total + reg_lambda)
    best = None
    for feature in range(x.shape[1]):
        values = x[rows, feature]
        order = np.argsort(values, kind="stable")
        xs = values[order]
        boundaries = np.nonzero(np.diff(xs) > 0)[0]
        if boundaries.size == 0:
            continue
        gs = np.cumsum(g[rows][order])[boundaries]
        hs = np.cumsum(h[rows][order])[boundaries]
        left_cover = np.cumsum(cover[rows][order])[boundaries]
        right_cover = cover[rows].sum() - left_cover
        admissible = (left_cover >= min_child_cover) & (right_cover >= min_child_cover)
        if not np.any(admissible):
            continue
        gains = 0.5 * (
            gs * gs / (hs + reg_lambda)
            + (g_total - gs) ** 2 / (h_total - hs + reg_lambda)
            - parent_score
        )
        gains[~admissible] = -np.inf
        pick = int(np.argmax(gains))
        gain = float(gains[pick])
        if gain > 1e-12 and (best is None or gain > best[0]):
            b = boundaries[pick]
            best = (gain, feature, float(0.5 * (xs[b] + xs[b + 1])))
    return best


def _reference_tree(x, rows, g, h, cover, config, depth):
    """One tree in the documented model.json node schema."""
    node_cover = float(cover[rows].sum())
    split = (
        _reference_split(x, rows, g, h, cover, config.reg_lambda, config.min_child_cover)
        if depth < config.max_depth and rows.shape[0] > 1
        else None
    )
    if split is None:
        weight = -g[rows].sum() / (h[rows].sum() + config.reg_lambda)
        return {"weight": float(weight), "cover": node_cover}
    _, feature, threshold = split
    goes_left = x[rows, feature] < threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "cover": node_cover,
        "left": _reference_tree(x, rows[goes_left], g, h, cover, config, depth + 1),
        "right": _reference_tree(x, rows[~goes_left], g, h, cover, config, depth + 1),
    }


def _reference_walk(node, x, out, rows) -> None:
    if "weight" in node:
        out[rows] += node["weight"]
        return
    goes_left = x[rows, node["feature"]] < node["threshold"]
    _reference_walk(node["left"], x, out, rows[goes_left])
    _reference_walk(node["right"], x, out, rows[~goes_left])


def _reference_fit(x, targets, weights, base_score, gradients, config):
    """Boost `config.rounds` trees; each round refits by walking its tree."""
    n = x.shape[0]
    rows = np.arange(n)
    margins = np.full(n, base_score)
    trees = []
    margins_per_round = []
    for _ in range(config.rounds):
        g, h = gradients(margins, targets, weights)
        tree = _reference_tree(x, rows, g, h, weights, config, 0)
        trees.append(tree)
        update = np.zeros(n)
        _reference_walk(tree, x, update, rows)
        margins = margins + config.eta * update
        margins_per_round.append(margins)
    return trees, margins_per_round


def reference_boosted_classifier(x, y, config) -> tuple[dict, list[float]]:
    """Logistic boosting by per-node sorting; returns (model.json dict,
    per-round training loss)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def gradients(margins, targets, _weights):
        p = 1.0 / (1.0 + np.exp(-margins))
        return p - targets, p * (1.0 - p)

    trees, margins_per_round = _reference_fit(x, y, np.ones(x.shape[0]), 0.0, gradients, config)
    losses = []
    for margins in margins_per_round:
        p = np.clip(1.0 / (1.0 + np.exp(-margins)), 1e-15, 1.0 - 1e-15)
        losses.append(float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    model = {
        "objective": "logistic",
        "base_score": 0.0,
        "eta": config.eta,
        "feature_names": [f"f{j}" for j in range(x.shape[1])],
        "trees": trees,
    }
    return model, losses


def reference_boosted_regressor(x, y, config, sample_weight=None) -> dict:
    """Squared-loss boosting by per-node sorting; returns the model.json dict."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    weights = (
        np.ones(x.shape[0]) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    )
    base_score = float(np.average(y, weights=weights) if weights.sum() else 0.0)

    def gradients(preds, targets, w):
        return w * (preds - targets), w.copy()

    trees, _ = _reference_fit(x, y, weights, base_score, gradients, config)
    return {
        "objective": "squared",
        "base_score": base_score,
        "eta": config.eta,
        "feature_names": [f"f{j}" for j in range(x.shape[1])],
        "trees": trees,
    }


def reference_grouped_estimate(method, data, groups, n_boot, seed, config=None, cevae_model=None):
    """(ate, ci_low, ci_high) with `groups` as the units, formed the way the
    pipeline's province unit did before the estimators took `groups`: the
    mean of per-group mean effects with a percentile bootstrap of those means,
    and for diffmeans the difference of the two arms' group-mean outcomes with
    a bootstrap resampling each arm's groups.  The per-row effects and the
    bootstrap loops are the library's; the grouping is done here."""
    from ecoprod import causal

    groups = np.asarray(groups)

    def group_means(values):
        values = np.asarray(values, dtype=np.float64)
        return np.array([values[groups == g].mean() for g in np.unique(groups)])

    ci = (None, None)
    if method == "diffmeans":
        means = group_means(data.outcome.astype(float))
        treated = group_means(data.treatment.astype(float)) > 0.5
        ate = float(means[treated].mean() - means[~treated].mean())
        if n_boot:
            ci = causal.bootstrap_group_diff_ci(means[treated], means[~treated], n_boot, 0.95, seed)
        return float(np.clip(ate, -1, 1)), *ci
    if method == "cevae":
        effects = causal.cevae_unit_effects(cevae_model, data, seed=seed)
    else:
        learner = {"s": causal.s_learner_effects, "t": causal.t_learner_effects,
                   "x": causal.x_learner_effects, "r": causal.r_learner_effects}[method]
        effects = learner(data, config)
    by_group = group_means(effects)
    if n_boot:
        ci = causal.percentile_bootstrap_mean(by_group, n_boot, 0.95, seed)
    return float(np.clip(by_group.mean(), -1, 1)), *ci


def reference_kmeans(points: np.ndarray, k: int, seed: int):
    """Lloyd iterations with the exact (n, k, d) broadcast assignment: the
    labels, centroids, wcss and iteration count `spectral.kmeans` must
    reproduce bit for bit.  Only the k-means++ seeding is shared with it."""
    from ecoprod import spectral

    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    centroids = spectral._kmeans_pp_init(points, k, np.random.default_rng(seed))
    labels = np.full(n, -1, dtype=np.int64)
    iteration = 0
    for iteration in range(1, spectral.KMEANS_MAX_ITER + 1):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        point_sq = d2[np.arange(n), new_labels]
        empties = [c for c in range(k) if not np.any(new_labels == c)]
        if empties:
            order = np.argsort(-point_sq, kind="stable")
            for slot, c in enumerate(empties):
                idx = int(order[slot])
                centroids[c] = points[idx]
                new_labels[idx] = c
                point_sq[idx] = 0.0
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        if converged:
            break
        for c in range(k):
            members = points[labels == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    wcss = float(np.sum((points - centroids[labels]) ** 2))
    return spectral.ClusterAssignment(labels=labels, centroids=centroids.copy(), wcss=wcss, n_iterations=iteration)


def reference_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette, one row at a time; singletons and rows with
    max(a, b) = 0 score 0."""
    from ecoprod import spectral

    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    cluster_ids = np.unique(labels)
    if cluster_ids.shape[0] < 2:
        return 0.0
    distances = np.sqrt(spectral._pairwise_sq_dists(points))
    n = points.shape[0]
    sums = np.empty((n, cluster_ids.shape[0]))
    counts = np.empty(cluster_ids.shape[0])
    for j, c in enumerate(cluster_ids):
        members = labels == c
        counts[j] = members.sum()
        sums[:, j] = distances[:, members].sum(axis=1)
    scores = np.zeros(n)
    label_pos = np.searchsorted(cluster_ids, labels)
    for i in range(n):
        own = label_pos[i]
        if counts[own] <= 1:
            continue
        a = sums[i, own] / (counts[own] - 1)
        other = [j for j in range(cluster_ids.shape[0]) if j != own]
        b = np.min(sums[i, other] / counts[other])
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(np.mean(scores))


def adjusted_rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = a.shape[0]
    pairs = math.comb(n, 2)
    sum_cells = 0
    for x in np.unique(a):
        for y in np.unique(b):
            sum_cells += math.comb(int(np.sum((a == x) & (b == y))), 2)
    sum_a = sum(math.comb(int(np.sum(a == x)), 2) for x in np.unique(a))
    sum_b = sum(math.comb(int(np.sum(b == y)), 2) for y in np.unique(b))
    expected = sum_a * sum_b / pairs
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC (probability a positive outranks a negative)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.shape[0])
    ranks[order] = np.arange(1, scores.shape[0] + 1)
    # midranks for ties
    sorted_scores = scores[order]
    i = 0
    while i < sorted_scores.shape[0]:
        j = i
        while j + 1 < sorted_scores.shape[0] and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.shape[0] - n_pos
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def central_difference(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    x_flat = x.ravel()
    for i in range(x_flat.shape[0]):
        original = x_flat[i]
        x_flat[i] = original + h
        up = f(x)
        x_flat[i] = original - h
        down = f(x)
        x_flat[i] = original
        flat[i] = (up - down) / (2.0 * h)
    return grad
