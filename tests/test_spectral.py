import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from scipy.sparse import linalg as arpack
from hypothesis import strategies as st

from ecoprod import dataset, spectral
from ecoprod.errors import ClusteringError, DegenerateSimilarityError, EigenSolverError, IsolatedVertexError
from ecoprod.seeding import derive_seed

from oracles import adjusted_rand_index, reference_kmeans, reference_silhouette
from test_causal import use_cpus


# --- similarity -------------------------------------------------------------


def test_similarity_degenerate_on_identical_points():
    with pytest.raises(DegenerateSimilarityError):
        spectral.similarity(np.zeros((4, 3)))


def test_similarity_closed_form_at_sqrt2_bandwidth():
    # Collinear points 0, sqrt(2)-1, sqrt(2): pairwise distances
    # {sqrt(2)-1, 1, sqrt(2)} have median 1, so the extreme pair sits at
    # exactly bandwidth * sqrt(2) and its kernel value is exp(-1).
    points = np.array([[0.0], [np.sqrt(2.0) - 1.0], [np.sqrt(2.0)]])
    sim = spectral.similarity(points)
    assert sim.bandwidth == pytest.approx(1.0, abs=1e-12)
    assert sim.matrix[0, 2] == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_similarity_symmetric_unit_diagonal():
    rng = np.random.default_rng(0)
    sim = spectral.similarity(rng.standard_normal((20, 5)))
    assert np.array_equal(sim.matrix, sim.matrix.T)
    assert np.array_equal(np.diag(sim.matrix), np.ones(20))
    assert sim.matrix.min() >= 0.0 and sim.matrix.max() <= 1.0


@pytest.mark.parametrize("n", [2, 4, 5, 7, 30])  # odd and even pair counts
def test_similarity_and_laplacian_match_direct_formulas(n):
    points = np.random.default_rng(n).standard_normal((n, 3))
    d2 = spectral._pairwise_sq_dists(points)
    sim = spectral.similarity(points)
    assert sim.bandwidth == float(np.median(np.sqrt(d2[np.triu_indices(n, k=1)])))
    adjacency = sim.matrix.copy()
    np.fill_diagonal(adjacency, 0.0)
    inv_sqrt = 1.0 / np.sqrt(adjacency.sum(axis=1))
    lap = -adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    np.fill_diagonal(lap, 1.0)
    assert np.array_equal(spectral.normalized_laplacian(sim).matrix, 0.5 * (lap + lap.T))


# --- normalized Laplacian ---------------------------------------------------


def test_laplacian_two_node_graph():
    lap = spectral.normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert lap.matrix == pytest.approx(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.linalg.eigvalsh(lap.matrix) == pytest.approx([0.0, 2.0], abs=1e-12)


def test_laplacian_null_vector_is_sqrt_degrees():
    rng = np.random.default_rng(1)
    sim = spectral.similarity(rng.standard_normal((15, 4)))
    lap = spectral.normalized_laplacian(sim)
    null_vec = np.sqrt(lap.degrees)
    assert lap.matrix @ null_vec == pytest.approx(np.zeros(15), abs=1e-9)


def test_laplacian_block_diagonal_zero_multiplicity():
    block = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.zeros((4, 4))
    w[:2, :2] = block
    w[2:, 2:] = block
    lap = spectral.normalized_laplacian(w)
    eigenvalues = np.linalg.eigvalsh(lap.matrix)
    assert np.sum(np.abs(eigenvalues) < 1e-9) == 2


def test_laplacian_zero_degree_vertex():
    w = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(IsolatedVertexError):
        spectral.normalized_laplacian(w)


def test_laplacian_eigenvalues_in_zero_two():
    rng = np.random.default_rng(2)
    for _ in range(5):
        sim = spectral.similarity(rng.standard_normal((12, 3)))
        lap = spectral.normalized_laplacian(sim)
        eigenvalues = np.linalg.eigvalsh(lap.matrix)
        assert eigenvalues.min() >= -1e-9
        assert eigenvalues.max() <= 2.0 + 1e-9
        assert np.array_equal(lap.matrix, lap.matrix.T)


# --- spectral embedding -----------------------------------------------------


def test_embed_two_nodes_k1_rows_are_unit():
    lap = spectral.normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    embedding = spectral.spectral_embed(lap, 1)
    assert np.abs(embedding) == pytest.approx(np.ones((2, 1)), abs=1e-12)


def test_embed_block_diagonal_rows_identical_within_block():
    w = np.zeros((6, 6))
    w[:3, :3] = 0.9
    w[3:, 3:] = 0.9
    np.fill_diagonal(w, 0.0)
    lap = spectral.normalized_laplacian(w)
    embedding = spectral.spectral_embed(lap, 2)
    for block in (embedding[:3], embedding[3:]):
        assert block == pytest.approx(np.tile(block[0], (3, 1)), abs=1e-8)


def test_embed_columns_orthonormal_before_row_normalization():
    rng = np.random.default_rng(3)
    sim = spectral.similarity(rng.standard_normal((25, 6)))
    lap = spectral.normalized_laplacian(sim)
    embedding = spectral.spectral_embed(lap, 4)
    _, raw = scipy.linalg.eigh(lap.matrix, subset_by_index=(0, 3))
    gram = raw.T @ raw
    assert gram == pytest.approx(np.eye(4), abs=1e-8)
    # the embedding is those eigenvector rows scaled to unit length
    unit_rows = raw / np.linalg.norm(raw, axis=1)[:, None]
    assert np.abs(embedding) == pytest.approx(np.abs(unit_rows), abs=1e-10)


def eigh_embedding(lap, k):
    """The dense reference: `scipy.linalg.eigh`'s eigenvectors, rows scaled to unit length."""
    _, vectors = scipy.linalg.eigh(lap.matrix, subset_by_index=(0, k - 1))
    return vectors / np.linalg.norm(vectors, axis=1)[:, None]


def synth_embeddings(n_provinces, n_complaints, n_clusters, dim, seed=11):
    spec = dataset.SyntheticSpec(n_provinces=n_provinces, n_complaints=n_complaints, n_clusters=n_clusters,
                                 embedding_dim=dim, seed=seed)
    _, complaints, _ = dataset.generate_synthetic(spec)
    return np.array([c.embedding for c in complaints])


# Largest accepted difference between the silhouettes of the Lanczos and the
# dense embeddings of one observed clustering.
S_OBS_TOLERANCE = 1e-9


@pytest.mark.parametrize("shape,k", [
    pytest.param((14, 160, 3, 12), 3, id="tests' fixture, planted k"),
    pytest.param((14, 160, 3, 12), 6, id="tests' fixture, k_max"),
    pytest.param((27, 1200, 8, 128), 8, id="1200 rows, planted k"),
    pytest.param((27, 1200, 8, 128), 12, id="1200 rows, k_max"),
])
def test_lanczos_clusters_as_the_dense_reference_does(shape, k):
    lap = spectral.normalized_laplacian(spectral.similarity(synth_embeddings(*shape)))
    lanczos, dense = spectral.spectral_embed(lap, k), eigh_embedding(lap, k)
    got, want = spectral.best_kmeans(lanczos, k, 7), spectral.best_kmeans(dense, k, 7)
    assert np.array_equal(got.labels, want.labels)
    s_lanczos = spectral.silhouette_score(lanczos, got.labels)
    assert abs(s_lanczos - spectral.silhouette_score(dense, want.labels)) <= S_OBS_TOLERANCE


def small_laplacian(n=60, seed=27):
    return spectral.normalized_laplacian(spectral.similarity(four_blobs(n=n, seed=seed)))


def test_lanczos_that_does_not_converge_falls_back_to_the_dense_solver(monkeypatch, caplog):
    def no_convergence(*args, **kwargs):
        raise arpack.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((60, 0)))

    lap = small_laplacian()
    monkeypatch.setattr(arpack, "eigsh", no_convergence)
    with caplog.at_level(logging.DEBUG, logger="ecoprod.spectral"):
        embedding = spectral.spectral_embed(lap, 4)
    assert embedding.tobytes() == eigh_embedding(lap, 4).tobytes()
    assert caplog.messages[-1].startswith("eigensolve n=60 k=4: eigh (ARPACK failed after 0 matvecs: ")


def test_lanczos_above_the_residual_bound_falls_back_to_the_dense_solver(monkeypatch, caplog):
    solve = arpack.eigsh

    def perturbed(*args, **kwargs):
        mu, vectors = solve(*args, **kwargs)
        vectors[0, 1] += 1e-8
        return mu, vectors

    lap = small_laplacian()
    monkeypatch.setattr(arpack, "eigsh", perturbed)
    with caplog.at_level(logging.DEBUG, logger="ecoprod.spectral"):
        embedding = spectral.spectral_embed(lap, 4)
    assert embedding.tobytes() == eigh_embedding(lap, 4).tobytes()
    message = caplog.messages[-1]
    assert re.fullmatch(r"eigensolve n=60 k=4: eigh \(Lanczos residual \S+ above 1e-10 after \d+ matvecs\), "
                        r"max residual \S+", message), message


def test_k_of_n_minus_one_goes_to_the_dense_solver(monkeypatch, caplog):
    monkeypatch.setattr(arpack, "eigsh", None)  # never reached
    lap = small_laplacian(n=6)
    with caplog.at_level(logging.DEBUG, logger="ecoprod.spectral"):
        for k in (5, 6):
            assert spectral.spectral_embed(lap, k).tobytes() == eigh_embedding(lap, k).tobytes()
    assert [m.split(", max residual ")[0] for m in caplog.messages] == [
        "eigensolve n=6 k=5: eigh (k=5 >= n - 1)", "eigensolve n=6 k=6: eigh (k=6 >= n - 1)"]


def test_a_dense_failure_after_lanczos_fails_is_an_eigensolver_error(monkeypatch):
    def fails(*args, **kwargs):
        raise arpack.ArpackError(-9999)

    def dense_fails(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(arpack, "eigsh", fails)
    monkeypatch.setattr(scipy.linalg, "eigh", dense_fails)
    with pytest.raises(EigenSolverError, match="did not converge"):
        spectral.spectral_embed(small_laplacian(), 4)


def test_each_lanczos_solve_logs_its_matvecs_and_residual(caplog):
    with caplog.at_level(logging.DEBUG, logger="ecoprod.spectral"):
        spectral.spectral_embed(small_laplacian(), 4)
    (message,) = caplog.messages
    match = re.fullmatch(r"eigensolve n=60 k=4: lanczos, (\d+) matvecs, max residual (\S+)", message)
    assert match and int(match[1]) > 4 and float(match[2]) <= spectral.RESIDUAL_BOUND


ARPACK_LOADS = """
import sys
import numpy as np
from ecoprod import cli, spectral
loaded = [name for name in sys.modules if name.startswith("scipy.sparse")]
spectral.spectral_embed(spectral.normalized_laplacian(spectral.similarity(np.eye(6))), 2)
print(loaded == [], "scipy.sparse.linalg" in sys.modules)
"""


def test_only_an_eigensolve_loads_arpack():
    # A run without a spectral stage, such as the causal stage alone, keeps
    # ARPACK's few MB of memory off its peak.
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", ARPACK_LOADS], cwd=root, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": "src"}, check=True, timeout=300)
    assert run.stdout.split() == ["True", "True"]


def test_lanczos_allocates_less_than_one_copy_of_the_laplacian():
    # 2I - L is applied, never built: one n x n float64 more would be 8 MB here.
    n = 1000
    lap = spectral.normalized_laplacian(spectral.similarity(four_blobs(n=n, seed=28)))
    tracemalloc.start()
    try:
        spectral.spectral_embed(lap, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


# --- k-means ----------------------------------------------------------------


def test_kmeans_two_well_separated_pairs():
    points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    result = spectral.kmeans(points, 2, seed=4)
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]
    assert result.labels[0] != result.labels[2]
    centroids = np.array(sorted(result.centroids.tolist()))
    assert centroids == pytest.approx(np.array([[0.0, 0.5], [10.0, 0.5]]))
    assert result.wcss == pytest.approx(1.0)


def test_kmeans_k_equals_n_gives_zero_wcss():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((6, 2))
    assert spectral.kmeans(points, 6, seed=0).wcss == pytest.approx(0.0, abs=1e-12)


def test_kmeans_recovers_planted_mixture():
    rng = np.random.default_rng(6)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    labels = rng.integers(0, 3, 300)
    points = centers[labels] + rng.standard_normal((300, 2))
    result = spectral.kmeans(points, 3, seed=7)
    assert adjusted_rand_index(labels, result.labels) == pytest.approx(1.0)


def test_kmeans_wcss_matches_definition():
    rng = np.random.default_rng(8)
    points = rng.standard_normal((40, 3))
    result = spectral.kmeans(points, 4, seed=9)
    manual = float(np.sum((points - result.centroids[result.labels]) ** 2))
    assert result.wcss == pytest.approx(manual, abs=1e-12)
    assert all(np.any(result.labels == c) for c in range(4))


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(10)
    points = rng.standard_normal((50, 4))
    a = spectral.kmeans(points, 5, seed=123)
    b = spectral.kmeans(points, 5, seed=123)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def _grid(side, dim):
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * dim, indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


# Two distinct values and k = 3: the third k-means++ centroid repeats one of
# the first two, so the first assignment leaves a cluster empty.
TWO_VALUES = np.repeat([[0.0], [1.0]], 5, axis=0)


def _kmeans_oracle_cases():
    rng = np.random.default_rng(23)
    cases = [
        pytest.param(1e8 + 0.3 + _grid(5, 2), 4, id="exact ties, 1e8 offset"),
        pytest.param(_grid(4, 3), 5, id="exact ties"),
        pytest.param(rng.integers(0, 4, (60, 3)).astype(np.float64), 5, id="integer grid with duplicates"),
        pytest.param(np.repeat(rng.standard_normal((10, 4)), 6, axis=0), 7, id="duplicate rows"),
        pytest.param(1e8 + rng.standard_normal((80, 5)), 6, id="1e8 offset, unit noise"),
        pytest.param(rng.random(40), 2, id="d = 1"),
        pytest.param(rng.random((40, 1)), 3, id="d = 1 column"),
        pytest.param(rng.standard_normal((30, 3)), 1, id="k = 1"),
        pytest.param(rng.standard_normal((12, 3)), 12, id="k = n"),
        pytest.param(TWO_VALUES, 3, id="empty-cluster re-seed"),
    ]
    for i in range(12):
        n, d, k = int(rng.integers(20, 90)), int(rng.integers(1, 20)), int(rng.integers(2, 13))
        cases.append(pytest.param(rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0), k, id=f"random {i}"))
    return cases


@pytest.mark.parametrize("points,k", _kmeans_oracle_cases())
def test_gemm_kmeans_matches_broadcast_oracle(points, k):
    for seed in (0, 1, 2):
        got = spectral.kmeans(points, k, seed)
        want = reference_kmeans(points, k, seed)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.centroids, want.centroids)
        assert got.wcss == want.wcss
        assert got.n_iterations == want.n_iterations


def test_empty_cluster_case_reaches_reseed():
    for seed in (0, 1, 2):
        init = spectral._kmeans_pp_init(TWO_VALUES, 3, np.random.default_rng(seed))
        assert np.unique(init, axis=0).shape[0] < 3


def test_gemm_assignment_falls_back_to_exact_on_ties():
    # Grid points 1e8 from the origin: the exact differences are small
    # integers, so points midway between centroids tie exactly, while the
    # GEMM form's ||x||^2 ~ 2e16 rounds the gaps away (the 0.3 keeps the
    # squares from being exact).  The labels must be the exact expression's
    # first minimum, which plain GEMM misses here.
    points = 1e8 + 0.3 + _grid(5, 2)
    centroids = 1e8 + 0.3 + np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
    norms_sq = np.einsum("ij,ij->i", points, points)
    labels = spectral._nearest_centroids(points, norms_sq, centroids)
    exact = np.argmin(np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2), axis=1)
    gemm = np.argmin(norms_sq[:, None] - 2.0 * points @ centroids.T + np.sum(centroids**2, axis=1), axis=1)
    assert np.array_equal(labels, exact)
    assert not np.array_equal(gemm, exact)


def _silhouette_cases():
    rng = np.random.default_rng(24)
    points = rng.standard_normal((30, 3))
    duplicated = np.repeat(rng.standard_normal((4, 2)), 3, axis=0)
    return [
        pytest.param(points, np.array([0] * 12 + [1] * 15 + [2, 3, 4]), id="singletons"),
        pytest.param(np.zeros((6, 2)), np.array([0, 0, 0, 5, 5, 5]), id="duplicate points, a = b = 0"),
        pytest.param(duplicated, np.array([0, 0, 1, 1, 1, 2, 2, 2, 0, 3, 3, 3]), id="duplicates across clusters"),
        pytest.param(points, rng.choice([-3, 2, 7, 40], 30), id="label ids not contiguous"),
        pytest.param(rng.standard_normal((50, 4)), rng.integers(0, 6, 50), id="random"),
    ]


@pytest.mark.parametrize("points,labels", _silhouette_cases())
def test_vectorized_silhouette_matches_oracle(points, labels):
    assert spectral.silhouette_score(points, labels) == reference_silhouette(points, labels)


# --- elbow ------------------------------------------------------------------


def test_elbow_recovers_planted_three_clusters():
    rng = np.random.default_rng(11)
    centers = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
    points = centers[rng.integers(0, 3, 240)] + rng.standard_normal((240, 2))
    assert spectral.elbow_k(points, 8, seed=12) == 3


def test_elbow_single_blob_returns_valid_k():
    rng = np.random.default_rng(13)
    points = rng.standard_normal((100, 3))
    k = spectral.elbow_k(points, 6, seed=14)
    assert 2 <= k <= 5


def test_elbow_needs_kmax_three():
    with pytest.raises(ClusteringError):
        spectral.elbow_k(np.zeros((10, 2)), 2, seed=0)


# --- permutation test -------------------------------------------------------


def test_exceedance_fraction_arithmetic():
    assert spectral.exceedance_fraction(0.9, np.array([0.1, 0.2, 0.95, 0.3])) == 0.25


def test_exceedance_all_equal_gives_one():
    assert spectral.exceedance_fraction(0.5, np.full(7, 0.5)) == 1.0


@given(st.permutations(list(range(8))))
@settings(max_examples=30, deadline=None)
def test_exceedance_invariant_to_order(order):
    scores = np.array([0.05, 0.1, 0.3, 0.55, 0.6, 0.61, 0.9, 0.95])
    base = spectral.exceedance_fraction(0.5, scores)
    assert spectral.exceedance_fraction(0.5, scores[np.array(order)]) == base


def test_permutation_test_separated_clusters_significant():
    rng = np.random.default_rng(15)
    centers = np.array([[0.0] * 8, [9.0] * 8, [0.0] * 4 + [9.0] * 4])
    points = centers[rng.integers(0, 3, 120)] + rng.standard_normal((120, 8))
    result = spectral.permutation_test(points, 3, n_permutations=19, seed=16)
    assert result.p == 0.0
    assert result.s_obs > max(result.s_perm)


def test_permutation_test_reuses_given_embedding():
    rng = np.random.default_rng(25)
    centers = np.array([[0.0] * 5, [6.0] * 5, [0.0] * 3 + [6.0] * 2])
    points = centers[rng.integers(0, 3, 60)] + rng.standard_normal((60, 5))
    assignment, embedded = spectral.spectral_cluster(points, 3, derive_seed(26, "observed"))
    shared = spectral.permutation_test(points, 3, 4, 26, observed=(embedded, assignment.labels))
    fresh = spectral.permutation_test(points, 3, 4, 26)
    assert shared.s_obs == fresh.s_obs
    assert np.array_equal(shared.s_perm, fresh.s_perm)
    assert shared.p == fresh.p
    # the score is the given clustering's, whatever k-means would find
    other = np.roll(assignment.labels, 1)
    moved = spectral.permutation_test(points, 3, 4, 26, observed=(embedded, other))
    assert moved.s_obs == spectral.silhouette_score(embedded, other) < shared.s_obs
    assert np.array_equal(moved.s_perm, fresh.s_perm)


def four_blobs(n=200, d=8, seed=4):
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.standard_normal((4, d))
    return centers[rng.integers(0, 4, n)] + rng.standard_normal((n, d))


def test_permutation_null_identical_for_one_and_two_workers(monkeypatch):
    points = four_blobs()
    results = []
    for count in (1, 2):
        use_cpus(monkeypatch, count)
        results.append(spectral.permutation_test(points, 4, 5, 8))
    one, two = results
    assert one.s_perm.tobytes() == two.s_perm.tobytes()
    assert one.s_obs == two.s_obs and one.p == two.p


def test_permutation_null_matches_the_serial_loop_it_replaced():
    # The serial loop ran the replicates at the process's default BLAS thread
    # count; the workers sum on one thread, so s_perm may move in the last
    # digits, within a written 1e-9, while s_obs (computed in the caller) and
    # p stay equal.
    points = four_blobs()
    result = spectral.permutation_test(points, 4, 5, 8)
    serial = np.empty(5)
    for i in range(5):
        replicate_seed = derive_seed(8, f"replicate:{i}")
        shuffled = spectral._shuffle_columns(points, np.random.default_rng(replicate_seed))
        assignment, embedded = spectral.spectral_cluster(shuffled, 4, replicate_seed)
        serial[i] = spectral.silhouette_score(embedded, assignment.labels)
    assert np.max(np.abs(result.s_perm - serial)) <= 1e-9
    assert result.p == spectral.exceedance_fraction(result.s_obs, serial)
    assignment, embedded = spectral.spectral_cluster(points, 4, derive_seed(8, "observed"))
    assert result.s_obs == spectral.silhouette_score(embedded, assignment.labels)


NULL_BYTES = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {0})
import numpy as np
from ecoprod import spectral
rng = np.random.default_rng(4)
centers = 3.0 * rng.standard_normal((4, 8))
points = centers[rng.integers(0, 4, 200)] + rng.standard_normal((200, 8))
print(spectral.permutation_test(points, 4, 4, 8).s_perm.tobytes().hex())
"""


def test_permutation_null_bytes_do_not_depend_on_the_cpu_count():
    # Each run pins its replicates to one BLAS thread, on one CPU in-process
    # and on every CPU in forked workers; unpinned, OpenBLAS splits the sums
    # by its thread count and the 12th digit moves.
    root = Path(__file__).resolve().parents[1]
    runs = [subprocess.run([sys.executable, "-c", NULL_BYTES, cpus], cwd=root, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": "src"}, check=True, timeout=300).stdout
            for cpus in ("one", "all")]
    assert len(runs[0].strip()) == 4 * 16 and runs[0] == runs[1]


def test_wcss_curve_matches_the_serial_comprehension(monkeypatch):
    use_cpus(monkeypatch, 2)
    points = four_blobs(n=150)
    serial = np.array([spectral.best_kmeans(points, k, derive_seed(3, f"elbow:{k}")).wcss for k in range(1, 7)])
    assert spectral.wcss_curve(points, 6, 3).tobytes() == serial.tobytes()


# --- silhouette -------------------------------------------------------------


def test_silhouette_bounds_on_random_labelings():
    rng = np.random.default_rng(17)
    for _ in range(10):
        points = rng.standard_normal((30, 3))
        labels = rng.integers(0, 4, 30)
        score = spectral.silhouette_score(points, labels)
        assert -1.0 <= score <= 1.0


def test_silhouette_perfect_separation_near_one():
    points = np.vstack([np.zeros((10, 2)), np.full((10, 2), 50.0)])
    points += np.random.default_rng(18).standard_normal((20, 2)) * 0.01
    labels = np.array([0] * 10 + [1] * 10)
    assert spectral.silhouette_score(points, labels) > 0.99


# --- full pipeline recovery -------------------------------------------------


def test_spectral_pipeline_recovers_planted_gaussians():
    rng = np.random.default_rng(19)
    directions, _ = np.linalg.qr(rng.standard_normal((16, 4)))
    centers = (9.0 / np.sqrt(2.0)) * directions.T
    labels = rng.integers(0, 4, 200)
    points = centers[labels] + rng.standard_normal((200, 16))
    assignment, _ = spectral.spectral_cluster(points, 4, seed=20)
    assert adjusted_rand_index(labels, assignment.labels) >= 0.95


# --- descriptive reports ----------------------------------------------------


def test_centroid_shift_identical_groups_zero_distance():
    embeddings = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    shifts = spectral.centroid_shift(embeddings, np.zeros(4, dtype=int), [True, True, False, False])
    assert shifts[0] == pytest.approx(0.0, abs=1e-12)


def test_centroid_shift_three_four_five():
    embeddings = np.array([[0.0, 0.0], [3.0, 4.0]])
    shifts = spectral.centroid_shift(embeddings, np.array([0, 0]), [True, False])
    assert shifts[0] == pytest.approx(5.0)


def test_centroid_shift_single_group_cluster_absent():
    shifts = spectral.centroid_shift(np.zeros((2, 2)), np.array([0, 0]), [True, True])
    assert shifts == {0: None}


def test_centroid_shift_group_independent_clusters_small():
    # Clusters placed far apart; groups assigned independently of cluster.
    rng = np.random.default_rng(21)
    centers = np.array([[0.0, 0.0], [40.0, 0.0]])
    labels = rng.integers(0, 2, 300)
    embeddings = centers[labels] + rng.standard_normal((300, 2))
    is_high = [rng.random() < 0.5 for _ in range(300)]
    shifts = spectral.centroid_shift(embeddings, labels, is_high)
    inter = np.linalg.norm(centers[0] - centers[1])
    assert sorted(shifts) == [0, 1]
    for distance in shifts.values():
        assert distance is not None
        assert distance < inter / 4


def test_coproduction_rates():
    rates = spectral.coproduction_rate_by_cluster(np.array([0, 0, 0, 0, 1]), np.array([1, 1, 0, 0, 1]), 2)
    assert rates[0] == pytest.approx(0.5)
    assert rates[1] == pytest.approx(1.0)


def test_coproduction_rate_empty_cluster_absent():
    rates = spectral.coproduction_rate_by_cluster(np.array([2]), np.array([1]), n_clusters=4)
    assert rates[0] is None and rates[1] is None and rates[3] is None
    assert rates[2] == 1.0


def test_coproduction_rates_match_planted_probabilities():
    rng = np.random.default_rng(22)
    planted = {0: 0.2, 1: 0.8}
    labels, outcomes = [], []
    for cluster, rate in planted.items():
        for i in range(1000):
            labels.append(cluster)
            outcomes.append(int(rng.random() < rate))
    rates = spectral.coproduction_rate_by_cluster(np.array(labels), np.array(outcomes), 2)
    assert rates[0] == pytest.approx(0.2, abs=0.05)
    assert rates[1] == pytest.approx(0.8, abs=0.05)
