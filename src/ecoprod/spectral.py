"""Spectral clustering of complaint embeddings and its validation tooling.

Pipeline: Gaussian similarity with median-distance bandwidth -> symmetric
normalized Laplacian -> eigenvectors of the k smallest eigenvalues ->
k-means.  The eigenvectors come from ARPACK's Lanczos as the k largest of
2I - L: the shift is applied in a `LinearOperator`, never built, and the
start vector comes from a fixed seed.  Each solve is checked; where k >=
n - 1, Lanczos does not converge, or a residual ||L v - lambda v|| exceeds
`RESIDUAL_BOUND`, the dense `scipy.linalg.eigh` answers instead.  The
cluster count can be picked by the elbow rule on the within-cluster sum of
squares, and cluster stability is checked with a permutation test that
independently shuffles every embedding column and compares mean silhouette
scores.

Two descriptive helpers serve the cluster report: the co-production rate
of each cluster and the shift between the mean embeddings of its high- and
low-efficiency members.  Like the rest of the module they take arrays
(cluster labels, 0/1 outcomes, a high-group mask), not complaint records,
so the module depends on no other part of the package but its errors,
seeding and `parallel`.

The k values of the elbow curve and the shuffled replicates of the
permutation test are independent and seeded by their index, so they run
through `parallel.fork_map`: on one forked worker per available CPU, each
on one BLAS thread.  The observed clustering stays in the calling process.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ClusteringError,
    DegenerateSimilarityError,
    EigenSolverError,
    IsolatedVertexError,
)
from .parallel import fork_map
from .seeding import derive_seed

KMEANS_MAX_ITER = 300
DEFAULT_RESTARTS = 5
# Lanczos's start vector and restart vectors come from this fixed seed.
LANCZOS_SEED = 0
# Largest accepted ||L v - lambda v|| of a Lanczos eigenpair; measured ones
# are below 1e-14.
RESIDUAL_BOUND = 1e-10

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric kernel matrix with unit diagonal and entries in [0, 1]."""

    matrix: np.ndarray
    bandwidth: float


@dataclass(frozen=True)
class NormalizedLaplacian:
    """D^{-1/2} (D - W) D^{-1/2} of the similarity graph (self-loops dropped)."""

    matrix: np.ndarray
    degrees: np.ndarray


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    wcss: float
    n_iterations: int


@dataclass(frozen=True)
class PermutationTestResult:
    """Observed score, permuted scores, and the exceedance fraction."""

    s_obs: float
    s_perm: np.ndarray
    p: float


def _pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    sq_norms = np.sum(points * points, axis=1)
    d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * points @ points.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def similarity(embeddings: np.ndarray) -> SimilarityMatrix:
    """Gaussian kernel W_ij = exp(-||e_i - e_j||^2 / (2 sigma^2)).

    The bandwidth sigma is the median pairwise distance, which makes the
    kernel parameter-free.  All-identical inputs have sigma = 0 and raise
    `DegenerateSimilarityError`.
    """
    points = np.asarray(embeddings, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise DegenerateSimilarityError("need at least 2 embedding rows")
    if not np.all(np.isfinite(points)):
        raise DegenerateSimilarityError("non-finite embedding entries")
    d2 = _pairwise_sq_dists(points)
    # sqrt is monotone under rounding, so the two middle pairwise distances
    # are the square roots of the two middle squared distances: the median
    # needs two square roots, not one per pair.
    n = points.shape[0]
    upper_sq = d2[np.arange(n)[:, None] < np.arange(n)]
    half = upper_sq.shape[0] // 2
    part = np.partition(upper_sq, half)
    below = part[:half].max() if upper_sq.shape[0] % 2 == 0 else part[half]
    bandwidth = float(0.5 * (np.sqrt(below) + np.sqrt(part[half])))
    if bandwidth <= 0.0:
        raise DegenerateSimilarityError("median pairwise distance is zero")
    w = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 1.0)
    return SimilarityMatrix(matrix=w, bandwidth=bandwidth)


def normalized_laplacian(w: SimilarityMatrix | np.ndarray) -> NormalizedLaplacian:
    """Symmetric normalized Laplacian of the graph view (diagonal zeroed)."""
    adjacency = np.array(w.matrix if isinstance(w, SimilarityMatrix) else w, dtype=np.float64)
    np.fill_diagonal(adjacency, 0.0)
    degrees = adjacency.sum(axis=1)
    if np.any(degrees <= 0.0):
        raise IsolatedVertexError(
            f"vertex {int(np.argmin(degrees))} has zero degree in the similarity graph"
        )
    inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = np.negative(adjacency, out=adjacency)
    lap *= inv_sqrt[:, None]
    lap *= inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0)
    lap = 0.5 * (lap + lap.T)
    return NormalizedLaplacian(matrix=lap, degrees=degrees)


def _max_residual(matrix: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    """Largest ||L v - lambda v|| over the eigenpairs."""
    return float(np.max(np.linalg.norm(matrix @ vectors - vectors * values, axis=0)))


def _lanczos(matrix: np.ndarray, k: int) -> tuple[np.ndarray | None, str]:
    """Eigenvectors of the k smallest eigenvalues of `matrix`, the k largest
    of 2I - matrix by ARPACK's Lanczos, in ascending eigenvalue order; and a
    note on the solve for the log.  None, with the reason as the note, where
    the dense solver must answer instead: k >= n - 1, which ARPACK cannot
    solve, no convergence, or a residual above `RESIDUAL_BOUND`."""
    n = matrix.shape[0]
    if k >= n - 1:
        return None, f"k={k} >= n - 1"
    from scipy.sparse import linalg as arpack  # lazy: only runs that cluster load ARPACK

    matvecs = 0

    def shifted(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return 2.0 * x - matrix @ x

    rng = np.random.default_rng(LANCZOS_SEED)
    try:
        mu, vectors = arpack.eigsh(arpack.LinearOperator((n, n), matvec=shifted, dtype=np.float64),
                                   k=k, which="LA", tol=0, v0=rng.standard_normal(n), rng=rng)
    except arpack.ArpackError as exc:
        return None, f"ARPACK failed after {matvecs} matvecs: {exc}"
    values = 2.0 - mu
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    residual = _max_residual(matrix, values, vectors)
    if not residual <= RESIDUAL_BOUND:  # `not <=` also catches NaN
        return None, f"Lanczos residual {residual:.1e} above {RESIDUAL_BOUND:.0e} after {matvecs} matvecs"
    return vectors, f"lanczos, {matvecs} matvecs, max residual {residual:.1e}"


def spectral_embed(lap: NormalizedLaplacian, k: int) -> np.ndarray:
    """Eigenvectors of the k smallest eigenvalues, one embedding row per node,
    each row scaled to unit Euclidean length (the usual companion step for
    the symmetric normalization).

    Lanczos finds them (`_lanczos`); where it cannot, or its answer fails
    the residual check, the dense reference solver `scipy.linalg.eigh` does.
    Under `--verbose` each solve logs one line: the solver, Lanczos's matvec
    count, the largest residual and why the dense solver ran."""
    n = lap.matrix.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} outside [1, {n}]")
    vectors, note = _lanczos(lap.matrix, k)
    if vectors is None:
        try:
            values, vectors = scipy.linalg.eigh(lap.matrix, subset_by_index=(0, k - 1))
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            raise EigenSolverError(f"eigendecomposition failed: {exc}") from exc
        note = f"eigh ({note}), max residual {_max_residual(lap.matrix, values, vectors):.1e}"
    logger.debug("eigensolve n=%d k=%d: %s", n, k, note)
    norms = np.linalg.norm(vectors, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return vectors / safe[:, None]


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        totals = closest_sq.sum()
        if totals <= 0.0:
            # All remaining points coincide with a centroid; any choice works.
            centroids[c] = points[int(rng.integers(n))]
        else:
            probs = closest_sq / totals
            centroids[c] = points[int(rng.choice(n, p=probs))]
        closest_sq = np.minimum(closest_sq, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


def _nearest_centroids(points: np.ndarray, point_norms_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid, as the exact (n, k, d) expression
    `argmin(sum((x - c) ** 2))` gives it, ties and rounding included.

    The distances come from one GEMM, ||x||^2 - 2 x.c + ||c||^2.  Let u =
    eps / 2 be the unit roundoff and S = ||x|| + max||c||, so that every
    D = ||x - c||^2 <= S^2.  The exact expression rounds each difference and
    square and sums d terms: it is within (d + 2) u D of D.  The GEMM form
    rounds ||x||^2, ||c||^2 and x.c (d terms each, in any order) and its two
    additions: it is within (d + 2) u (||x||^2 + 2 |x.c| + ||c||^2), again at
    most (d + 2) u S^2.  So the two differ by at most e = 2 (d + 2) u S^2 for
    every centroid, and where the GEMM's best and second-best distances are
    more than 2 e apart, its best centroid is the exact expression's strict
    minimum.  Rows within 8 (d + 2) eps S^2 = 8 e, which leaves room for the
    second-order terms, are recomputed with the exact expression.
    """
    n, d = points.shape
    centroid_norms_sq = np.einsum("ij,ij->i", centroids, centroids)
    d2 = point_norms_sq[:, None] - 2.0 * (points @ centroids.T) + centroid_norms_sq[None, :]
    labels = np.argmin(d2, axis=1)
    rows = np.arange(n)
    best = d2[rows, labels]
    d2[rows, labels] = np.inf
    scale = np.sqrt(point_norms_sq) + np.sqrt(centroid_norms_sq.max())
    close = np.flatnonzero(d2.min(axis=1) - best <= 8.0 * (d + 2) * np.finfo(np.float64).eps * scale**2)
    if close.size:
        exact = np.sum((points[close, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels[close] = np.argmin(exact, axis=1)
    return labels


def kmeans(points: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """Lloyd iterations from k-means++ seeding until the assignment is stable.

    Empty clusters are re-seeded at the globally farthest points from their
    assigned centroids, one point per empty cluster.  The within-cluster sum
    of squares is non-increasing across iterations and recomputed exactly for
    the returned assignment.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    point_norms_sq = np.einsum("ij,ij->i", points, points)

    labels = np.full(n, -1, dtype=np.int64)
    previous_wcss = np.inf
    iteration = 0
    for iteration in range(1, KMEANS_MAX_ITER + 1):
        new_labels = _nearest_centroids(points, point_norms_sq, centroids)
        residual_sq = (points - centroids[new_labels]) ** 2

        empties = np.flatnonzero(np.bincount(new_labels, minlength=k) == 0)
        if empties.size:
            order = np.argsort(-residual_sq.sum(axis=1), kind="stable")
            for slot, c in enumerate(empties):
                idx = int(order[slot])
                centroids[c] = points[idx]
                new_labels[idx] = c
                residual_sq[idx] = 0.0

        wcss = float(np.sum(residual_sq))
        if wcss > previous_wcss + 1e-9 * max(1.0, previous_wcss):
            raise ClusteringError("within-cluster sum of squares increased")
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        previous_wcss = wcss
        if converged:
            break
        # Members in index order, as points[labels == c] lists them, so that
        # each mean adds the same rows in the same order.
        by_label = points[np.argsort(labels, kind="stable")]
        counts = np.bincount(labels, minlength=k)
        ends = np.cumsum(counts)
        for c in range(k):
            if counts[c]:
                centroids[c] = by_label[ends[c] - counts[c]:ends[c]].mean(axis=0)

    if np.any(np.bincount(labels, minlength=k) == 0):
        raise ClusteringError(f"could not populate all {k} clusters")
    wcss = float(np.sum((points - centroids[labels]) ** 2))
    return ClusterAssignment(labels=labels, centroids=centroids.copy(), wcss=wcss, n_iterations=iteration)


def best_kmeans(points: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """Best-of-restarts k-means (lowest wcss), deterministic via derived seeds."""
    best = None
    for r in range(DEFAULT_RESTARTS):
        result = kmeans(points, k, derive_seed(seed, f"kmeans-restart:{r}"))
        if best is None or result.wcss < best.wcss:
            best = result
    return best


def spectral_cluster(embeddings: np.ndarray, k: int, seed: int) -> tuple[ClusterAssignment, np.ndarray]:
    """Full pipeline: similarity -> Laplacian -> embed -> k-means.

    Returns the assignment and the spectral embedding it was computed on.
    """
    lap = normalized_laplacian(similarity(embeddings))
    embedded = spectral_embed(lap, k)
    return best_kmeans(embedded, k, seed), embedded


def wcss_curve(points: np.ndarray, k_max: int, seed: int) -> np.ndarray:
    """wcss for k = 1..k_max (index 0 holds k=1), one k per `fork_map` task."""

    def wcss(i: int) -> float:
        return best_kmeans(points, i + 1, derive_seed(seed, f"elbow:{i + 1}")).wcss

    return np.array(fork_map(wcss, k_max))


def elbow_from_curve(curve: np.ndarray) -> int:
    """Cluster count with the largest wcss second difference in [2, k_max - 1]."""
    curve = np.asarray(curve, dtype=np.float64)
    k_max = curve.shape[0]
    if k_max < 3:
        raise ClusteringError("elbow selection needs k_max >= 3")
    candidates = np.arange(2, k_max)  # k has neighbours k-1 and k+1 in range
    second_diff = curve[candidates - 2] - 2.0 * curve[candidates - 1] + curve[candidates]
    return int(candidates[int(np.argmax(second_diff))])


def elbow_k(points: np.ndarray, k_max: int, seed: int) -> int:
    """Elbow rule over the wcss curve for k = 1..k_max."""
    if k_max < 3:
        raise ClusteringError("elbow selection needs k_max >= 3")
    return elbow_from_curve(wcss_curve(points, k_max, seed))


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over all points; singleton clusters contribute 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    cluster_ids = np.unique(labels)
    if cluster_ids.shape[0] < 2:
        return 0.0
    distances = np.sqrt(_pairwise_sq_dists(points))
    n = points.shape[0]
    sums = np.empty((n, cluster_ids.shape[0]))
    counts = np.empty(cluster_ids.shape[0])
    for j, c in enumerate(cluster_ids):
        members = labels == c
        counts[j] = members.sum()
        sums[:, j] = distances[:, members].sum(axis=1)

    rows = np.arange(n)
    own = np.searchsorted(cluster_ids, labels)
    own_counts = counts[own]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, own] / (own_counts - 1)
        mean_to = sums / counts
        mean_to[rows, own] = np.inf
        b = mean_to.min(axis=1)
        denom = np.maximum(a, b)
        # The silhouette is undefined for singletons; they contribute 0.
        scores = np.where((own_counts > 1) & (denom != 0.0), (b - a) / denom, 0.0)
    return float(np.mean(scores))


def exceedance_fraction(s_obs: float, s_perm: np.ndarray) -> float:
    """Exact fraction of permuted scores at or above the observed score."""
    s_perm = np.asarray(s_perm, dtype=np.float64)
    return int(np.sum(s_perm >= s_obs)) / s_perm.shape[0]


def _shuffle_columns(embeddings: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independently permute every column; marginals survive, structure dies."""
    shuffled = np.empty_like(embeddings)
    for j in range(embeddings.shape[1]):
        shuffled[:, j] = embeddings[rng.permutation(embeddings.shape[0]), j]
    return shuffled


def permutation_test(
    embeddings: np.ndarray,
    k: int,
    n_permutations: int,
    seed: int,
    observed: tuple[np.ndarray, np.ndarray] | None = None,
) -> PermutationTestResult:
    """Observed vs column-shuffled clustering scores.

    The score is the mean silhouette of the spectral clustering measured in
    its own spectral embedding; p is the exact exceedance fraction
    count(s_i >= s_obs) / N with no continuity correction.  A caller
    that already holds a clustering of `embeddings` passes it as `observed`,
    its k-column spectral embedding and its labels; s_obs is then that
    clustering's score, and no observed eigensolve or k-means runs.  Without
    it the observed clustering is computed here.
    """
    if n_permutations < 1:
        raise ClusteringError("need at least one permutation")
    embeddings = np.asarray(embeddings, dtype=np.float64)

    if observed is None:
        assignment, embedded = spectral_cluster(embeddings, k, derive_seed(seed, "observed"))
        observed = embedded, assignment.labels
    s_obs = silhouette_score(*observed)

    def replicate(i: int) -> float:
        replicate_seed = derive_seed(seed, f"replicate:{i}")
        rng = np.random.default_rng(replicate_seed)
        shuffled = _shuffle_columns(embeddings, rng)
        perm_assignment, perm_embedded = spectral_cluster(shuffled, k, replicate_seed)
        return silhouette_score(perm_embedded, perm_assignment.labels)

    s_perm = np.array(fork_map(replicate, n_permutations))
    return PermutationTestResult(s_obs=s_obs, s_perm=s_perm, p=exceedance_fraction(s_obs, s_perm))


def centroid_shift(embeddings: np.ndarray, labels: np.ndarray, is_high: np.ndarray) -> dict[int, float | None]:
    """Per cluster of `labels`: the distance between the mean embeddings of
    its high-group members (`is_high`) and of its low-group members.  A
    cluster with members from only one group maps to None."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    is_high = np.asarray(is_high, dtype=bool)
    if not embeddings.shape[0] == labels.shape[0] == is_high.shape[0]:
        raise ClusteringError("embeddings, labels, and groups must align")
    shifts: dict[int, float | None] = {}
    for cluster in np.unique(labels):
        high = (labels == cluster) & is_high
        low = (labels == cluster) & ~is_high
        shifts[int(cluster)] = (
            float(np.linalg.norm(embeddings[high].mean(axis=0) - embeddings[low].mean(axis=0)))
            if high.any() and low.any()
            else None
        )
    return shifts


def coproduction_rate_by_cluster(labels: np.ndarray, outcomes: np.ndarray, n_clusters: int) -> list[float | None]:
    """Per cluster 0 .. n_clusters - 1, the fraction of its members whose
    outcome is 1 (co-production, against 0 for a one-way response); an empty
    cluster is None."""
    labels = np.asarray(labels)
    outcomes = np.asarray(outcomes, dtype=np.float64)
    if labels.shape != outcomes.shape:
        raise ClusteringError("labels and outcomes must align")
    totals = np.bincount(labels, minlength=n_clusters)
    positives = np.bincount(labels, weights=outcomes, minlength=n_clusters)
    return [float(positives[c] / totals[c]) if totals[c] else None for c in range(n_clusters)]
