"""Unit tests for the exact and binary k-means baselines and the metrics."""

import itertools
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from pqclust import (
    Binarizer,
    DistanceTables,
    binarize,
    bkmeans_fit,
    cluster_means,
    kmeans_fit,
    majority_center,
    original_space_error,
    rand_index,
    train_binarizer,
)
from pqclust import lloyd
from pqclust.baselines import _BINARIZE_ROWS, _POPCOUNT
from pqclust.baselines import streamed_original_space_error
from pqclust.clustering import _BLOCK_ELEMENTS, _sparse_update_all
from pqclust.lloyd import _MEAN_ROWS
from pqclust.io import generate_synthetic


def _hamming(a, b):
    """Hamming distances between packed codes a (N, W) and b (K, W)."""
    return np.unpackbits(a[:, None] ^ b[None], axis=2).sum(axis=2)


def _bincount_means(points, labels, k):
    """Per-cluster float64 means from one weighted bincount per column,
    which adds each cluster's members in row order; empty clusters are
    zero."""
    points = points.astype(np.float64)
    counts = np.bincount(labels, minlength=k)
    sums = np.stack([np.bincount(labels, weights=column, minlength=k) for column in points.T], axis=1)
    return np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)


class TestClusterMeans:
    def test_matches_manual_means(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 3))
        labels = rng.integers(0, 4, size=50)
        means = cluster_means(points, labels, 5)
        assert means.shape == (5, 3)
        for ki in range(4):
            members = points[labels == ki]
            np.testing.assert_allclose(means[ki], members.mean(axis=0), rtol=1e-12)
        # Cluster 4 received no points.
        assert np.array_equal(means[4], np.zeros(3))

    def test_sums_in_row_order_across_chunks(self):
        # Magnitudes from 1e-12 to 1e5 make a float64 sum depend on the
        # order of its terms.
        rng = np.random.default_rng(31)
        n, k = 3 * _MEAN_ROWS + 17, 7
        scale = 10.0 ** rng.uniform(-12, 5, size=(n, 1))
        points = (rng.normal(size=(n, 5)) * scale).astype(np.float32)
        labels = rng.integers(0, k - 1, size=n).astype(np.uint32)  # cluster 6 stays empty
        expected = _bincount_means(points, labels, k)
        assert cluster_means(points, labels, k).tobytes() == expected.tobytes()
        # Fed in chunks that end inside a block, the sums run in the same order.
        chunks = [(points[a : a + 5000], labels[a : a + 5000]) for a in range(0, n, 5000)]
        means, counts = lloyd._chunked_means(chunks, k, 5)
        assert means.tobytes() == expected.tobytes()
        assert np.array_equal(counts, np.bincount(labels, minlength=k))
        # The same terms summed chunk by chunk, then across chunks, differ.
        counts = np.bincount(labels, minlength=k)[:, None]
        chunked = sum(
            _bincount_means(points[a : a + _MEAN_ROWS], labels[a : a + _MEAN_ROWS], k)
            * np.bincount(labels[a : a + _MEAN_ROWS], minlength=k)[:, None]
            for a in range(0, n, _MEAN_ROWS)
        )
        assert not np.array_equal(chunked[:-1] / counts[:-1], expected[:-1])

    def test_scratch_does_not_grow_with_n(self):
        # The update's passes over N hold one chunk of scratch, never an
        # N-sized label or column copy.
        rng = np.random.default_rng(32)
        points = rng.normal(size=(1 << 20, 4)).astype(np.float32)
        labels = rng.integers(0, 16, size=1 << 20).astype(np.uint32)

        def peak(n):
            tracemalloc.start()
            try:
                cluster_means(points[:n], labels[:n], 16)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 20) <= peak(1 << 16) + (64 << 10)

    def test_validation(self):
        points = np.zeros((4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\), got 2"):
            cluster_means(points, np.array([0, 1, 2, 0]), 2)
        with pytest.raises(ValueError, match=r"labels must have shape \(4,\)"):
            cluster_means(points, np.zeros(3, dtype=np.uint32), 2)


class TestKmeans:
    def test_two_cluster_closed_form(self):
        points = np.array([[0, 0], [0, 2], [10, 0], [10, 2]], dtype=np.float32)
        initial = np.array([[0.0, 1.0], [10.0, 1.0]])
        result = kmeans_fit(points, 2, initial_centers=initial)
        assert result.converged
        assert result.iterations_run == 2
        assert np.array_equal(result.labels, [0, 0, 1, 1])
        assert np.array_equal(result.centers, initial)
        # Every point sits at distance exactly 1 from its center.
        assert result.trace[-1].objective == 1.0
        assert result.trace[-1].objective_sq == 1.0

    def test_objective_equals_original_space_error_at_convergence(self):
        vectors, _ = generate_synthetic(800, 6, 5, 0.05, seed=3)
        result = kmeans_fit(vectors, 5, max_iterations=50, seed=1)
        assert result.converged
        # At the fixed point the centers are the means of the final labels,
        # so the internal objective and the external metric coincide.
        assert result.trace[-1].objective == original_space_error(vectors, result.labels)

    def test_monotone_and_deterministic(self):
        vectors, _ = generate_synthetic(2000, 4, 8, 0.2, seed=5)
        base = kmeans_fit(vectors, 8, seed=2, threads=1)
        sq = [s.objective_sq for s in base.trace]
        assert all(b <= a for a, b in zip(sq, sq[1:]))
        threaded = kmeans_fit(vectors, 8, seed=2, threads=8)
        assert base.labels.tobytes() == threaded.labels.tobytes()
        assert base.centers.tobytes() == threaded.centers.tobytes()

    def test_empty_cluster_repair(self):
        points = np.array([[0.0], [0.0], [9.0], [9.0]], dtype=np.float32)
        initial = np.array([[0.0], [0.0]])
        result = kmeans_fit(points, 2, initial_centers=initial)
        assert result.trace[0].repaired_clusters == 1
        assert sorted(set(result.labels.tolist())) == [0, 1]

    def test_validation(self):
        points = np.zeros((5, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="k must be"):
            kmeans_fit(points, 0)
        with pytest.raises(ValueError, match="k must be"):
            kmeans_fit(points, 6)
        with pytest.raises(ValueError, match="2-d"):
            kmeans_fit(points.ravel(), 2)
        with pytest.raises(ValueError, match="initial_centers"):
            kmeans_fit(points, 2, initial_centers=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="max_iterations"):
            kmeans_fit(points, 2, max_iterations=0)
        # Non-finite input used to put every point in cluster 0 and run to
        # the iteration cap with a NaN objective.
        vectors = np.random.default_rng(0).normal(size=(200, 3)).astype(np.float32)
        vectors[17, 1] = np.nan
        with pytest.raises(ValueError, match="vectors must be finite"):
            kmeans_fit(vectors, 4)
        vectors[17, 1] = -np.inf
        with pytest.raises(ValueError, match="vectors must be finite"):
            kmeans_fit(vectors, 4)
        with pytest.raises(ValueError, match="initial_centers must be finite"):
            kmeans_fit(points, 2, initial_centers=np.full((2, 2), np.inf))

    def test_churn_counts_on_hand_checked_runs(self):
        # The two runs of test_two_cluster_closed_form and
        # test_empty_cluster_repair, as (label_changes, moved_centers,
        # rescanned_points) per iteration. K-means rescans every point
        # unless no center moved.
        def churn(result):
            return [(s.label_changes, s.moved_centers, s.rescanned_points) for s in result.trace]

        points = np.array([[0, 0], [0, 2], [10, 0], [10, 2]], dtype=np.float32)
        initial = np.array([[0.0, 1.0], [10.0, 1.0]])
        # The first update reproduces the initial centers.
        assert churn(kmeans_fit(points, 2, initial_centers=initial)) == [(4, 2, 4), (0, 0, 0)]

        points = np.array([[0.0], [0.0], [9.0], [9.0]], dtype=np.float32)
        result = kmeans_fit(points, 2, initial_centers=np.array([[0.0], [0.0]]))
        # Iteration 1 ties every point to center 0, whose mean is 4.5; the
        # empty center 1 is repaired onto the first 9. Iteration 2 moves
        # both 9s to it, iteration 3 moves center 0 to 0 with no label
        # change, and iteration 4 repeats the objective.
        assert churn(result) == [(4, 2, 4), (2, 2, 4), (0, 1, 4), (0, 0, 0)]
        assert result.converged
        assert np.array_equal(result.centers, [[0.0], [9.0]])

    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize("case", ["converged", "k_over_512", "duplicates_k_near_n"])
    def test_matches_the_reference_lloyd_loop(self, case, threads):
        rng = np.random.default_rng(22)
        if case == "converged":
            vectors, _ = generate_synthetic(800, 6, 5, 0.05, seed=3)
            k = 5
        elif case == "k_over_512":
            vectors, k = rng.normal(size=(3000, 16)).astype(np.float32), 700
        else:
            distinct = rng.normal(size=(40, 12)).astype(np.float32)
            vectors, k = np.repeat(distinct, 3, axis=0), 100
        # kmeans_fit samples its initial centers as the reference does here.
        initial = vectors[np.random.default_rng(4).choice(len(vectors), size=k, replace=False)]
        # The K > 512 run stops at the cap, the others converge.
        cap = 5 if case == "k_over_512" else 40
        # Switching threads every microsecond makes a lost update between
        # the workers' ranges show up as a label or a churn count.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = kmeans_fit(vectors, k, cap, seed=4, threads=threads)
        finally:
            sys.setswitchinterval(interval)
        labels, centers, objectives, churn, converged = _reference_kmeans(vectors, initial, cap)
        assert got.labels.dtype == np.uint32
        assert np.array_equal(got.labels, labels)
        assert got.centers.dtype == np.float64
        assert got.centers.tobytes() == centers.tobytes()
        assert [(s.objective, s.objective_sq) for s in got.trace] == objectives
        assert [(s.label_changes, s.moved_centers, s.rescanned_points) for s in got.trace] == churn
        assert got.iterations_run == len(objectives)
        assert got.converged == converged == (case != "k_over_512")
        if case == "duplicates_k_near_n":
            assert sum(s.repaired_clusters for s in got.trace) > 0


def _reference_kmeans(vectors, centers, max_iterations):
    """Lloyd k-means as one loop over float64 copies: the full cdist matrix,
    argmin, an N × D objective pass, means from one bincount per column and
    the farthest-point repair; it stops when the update reproduced the
    previous centers. Returns labels, centers, the trace's (objective,
    objective_sq) pairs and (label_changes, moved_centers, rescanned_points)
    triples, and the converged flag."""
    points = vectors.astype(np.float64)
    centers = centers.astype(np.float64)
    n, k = len(points), len(centers)
    objectives, churn = [], []
    labels = assigned_to = None
    for _ in range(max_iterations):
        before = labels
        labels = np.argmin(cdist(points, centers, "sqeuclidean"), axis=1)
        sq = np.sum((points - centers[labels]) ** 2, axis=1)
        objectives.append((float(np.mean(np.sqrt(sq))), float(np.mean(sq))))
        if before is None:
            churn.append((n, k, n))
        else:
            moved = int(np.any(centers != assigned_to, axis=1).sum())
            churn.append((int(np.sum(labels != before)), moved, n) if moved else (0, 0, 0))
            if not moved:
                return labels, centers, objectives, churn, True
        assigned_to = centers
        updated = _bincount_means(points, labels, k)
        for ki in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            far = int(np.argmax(sq))
            updated[ki] = points[far]
            sq[far] = -np.inf
        centers = updated
    return labels, centers, objectives, churn, False


class TestNearestCenterScan:
    """kmeans_fit's assignment: a float32 GEMM ranks the centers, and cdist
    and argmin decide every row within the rounding bound of a tie."""

    @staticmethod
    def count_rechecked_rows(monkeypatch):
        rows = []

        def counting(points, *args, **kwargs):
            rows.append(len(points))
            return cdist(points, *args, **kwargs)

        monkeypatch.setattr(lloyd, "cdist", counting)
        return rows

    @pytest.mark.parametrize(
        "points, centers",
        [
            # Centers whose squared norms exceed the float32 range.
            ([[1e19, 1e19], [1e20, 1e20], [3e19, 1e19]], [[1e19, 1e19], [1e20, 1e20]]),
            ([[0.5, 1.0], [-2.0, 3.0], [1e19, 0.0]], [[1e300, 0.0], [0.0, 1.0], [-1.0, 2.0]]),
            # Rows whose float32 products overflow against ordinary centers.
            ([[3e38, 3e38], [1.0, 1.0], [-3e38, 2.0]], [[1.0, 1.0], [2.0, 2.0], [-4.0, 2.0]]),
        ],
    )
    def test_out_of_float32_range_matches_cdist_without_warnings(self, points, centers, monkeypatch):
        points = np.array(points, dtype=np.float32)
        centers = np.array(centers)
        expected = np.argmin(cdist(points.astype(np.float64), centers, "sqeuclidean"), axis=1)
        rechecked = self.count_rechecked_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kmeans_fit(points, len(centers), max_iterations=1, initial_centers=centers)
        assert np.array_equal(got.labels, expected)
        assert sum(rechecked) > 0

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_near_ties_far_from_the_origin_match_the_reference(self, threads, monkeypatch):
        # Lattice points offset by 1e4: distances are small integers with
        # exact ties, while |x|² and |c|² are near 3e8, where float32 keeps
        # no fraction. Only the recheck can rank them.
        rng = np.random.default_rng(41)
        vectors = (rng.integers(0, 6, size=(3000, 3)) + 1e4).astype(np.float32)
        k = 12
        initial = vectors[np.random.default_rng(4).choice(len(vectors), size=k, replace=False)]
        rechecked = self.count_rechecked_rows(monkeypatch)
        got = kmeans_fit(vectors, k, 40, seed=4, threads=threads)
        assert sum(rechecked) > 0
        labels, centers, objectives, churn, converged = _reference_kmeans(vectors, initial, 40)
        assert np.array_equal(got.labels, labels)
        assert got.centers.tobytes() == centers.tobytes()
        assert [(s.objective, s.objective_sq) for s in got.trace] == objectives
        assert [(s.label_changes, s.moved_centers, s.rescanned_points) for s in got.trace] == churn
        assert got.converged == converged

    @pytest.mark.parametrize("dim", [1, 2])
    def test_near_ties_just_above_a_power_of_two_match_cdist(self, dim, monkeypatch):
        # Centers and rows just above 2¹², so -2c, |c|², x·c and the sums
        # all sit just above a power of two, where a float32 rounding errs
        # by the most for its size. The rows step through the float32
        # values across the midpoint of two centers. Here the GEMM's error
        # reaches about a tenth of the rounding bound: with a tenth of the
        # margin, rows of these pairs take the wrong label.
        rng = np.random.default_rng(0)
        rechecked = self.count_rechecked_rows(monkeypatch)
        steps = np.arange(-3000, 3000)[:, None] * 2.0**-11
        for _ in range(10):
            centers = 2.0**12 + rng.uniform(0, 1, size=(2, dim))
            toward = np.sign(centers[1] - centers[0])
            points = (centers.mean(axis=0) + steps * toward).astype(np.float32)
            got = kmeans_fit(points, 2, max_iterations=1, initial_centers=centers)
            expected = np.argmin(cdist(points.astype(np.float64), centers, "sqeuclidean"), axis=1)
            assert np.array_equal(got.labels, expected)
        assert sum(rechecked) > 0

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["one_center", "one_dimension"])
    def test_knock_out_edges_match_the_reference(self, case, threads, monkeypatch):
        # K = 1: with the winner knocked out to +inf there is no finite
        # runner-up, so no row is near a tie. D = 1: each augmented row is
        # [x, 1], and half-integer points tie exactly between lattice
        # centers, so the recheck runs too.
        if case == "one_center":
            vectors, _ = generate_synthetic(2000, 8, 4, 0.2, seed=6)
            k, cap = 1, 5
        else:
            rng = np.random.default_rng(8)
            vectors = (rng.integers(0, 80, size=(5000, 1)) / 2).astype(np.float32)
            k, cap = 16, 40
        initial = vectors[np.random.default_rng(4).choice(len(vectors), size=k, replace=False)]
        rechecked = self.count_rechecked_rows(monkeypatch)
        got = kmeans_fit(vectors, k, cap, seed=4, threads=threads)
        assert (sum(rechecked) > 0) == (case == "one_dimension")
        labels, centers, objectives, churn, converged = _reference_kmeans(vectors, initial, cap)
        assert np.array_equal(got.labels, labels)
        assert got.centers.tobytes() == centers.tobytes()
        assert [(s.objective, s.objective_sq) for s in got.trace] == objectives
        assert [(s.label_changes, s.moved_centers, s.rescanned_points) for s in got.trace] == churn
        assert got.converged == converged

    @pytest.mark.parametrize("centers", [[[0.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])
    def test_exact_float32_ties_are_rechecked_and_go_to_the_lowest_index(self, centers, monkeypatch):
        # On the integer lattice every GEMM entry is exact: rows with
        # x₀ = 1 rank both centers at exactly 0, so the runner-up equals the
        # winner. Every other row leads by at least 4 and skips the recheck.
        grid = np.stack(np.meshgrid(np.arange(-3, 6), np.arange(-3, 4)), axis=-1)
        points = grid.reshape(-1, 2).astype(np.float32)
        centers = np.array(centers)
        rechecked = self.count_rechecked_rows(monkeypatch)
        got = kmeans_fit(points, 2, max_iterations=1, initial_centers=centers)
        tied = points[:, 0] == 1
        assert sum(rechecked) == np.count_nonzero(tied)
        assert np.all(got.labels[tied] == 0)
        expected = np.argmin(cdist(points.astype(np.float64), centers, "sqeuclidean"), axis=1)
        assert np.array_equal(got.labels, expected)


class TestBinarizer:
    def test_rotation_is_orthonormal_and_deterministic(self):
        bz = train_binarizer(24, 16, seed=4)
        assert bz.dim == 24
        assert bz.bits == 16
        gram = bz.rotation.T @ bz.rotation
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-12)
        again = train_binarizer(24, 16, seed=4)
        assert np.array_equal(bz.rotation, again.rotation)
        assert not np.array_equal(bz.rotation, train_binarizer(24, 16, seed=5).rotation)

    def test_validation(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            train_binarizer(24, 12)
        with pytest.raises(ValueError, match="multiple of 8"):
            train_binarizer(24, 0)
        with pytest.raises(ValueError, match="exceeds"):
            train_binarizer(8, 16)
        with pytest.raises(ValueError, match="orthonormal"):
            Binarizer(np.ones((4, 2)))
        with pytest.raises(ValueError, match=r"rotation must be 2-d, got shape \(4,\)"):
            Binarizer(np.ones(4))
        # NaN and infinity used to become 0 bits without a word. The first
        # bad row is named, counted across projection blocks.
        bz = train_binarizer(8, 8, seed=1)
        vectors = np.ones((2 * _BINARIZE_ROWS + 37, 8), dtype=np.float32)
        vectors[_BINARIZE_ROWS + 5, 3] = np.nan
        vectors[2 * _BINARIZE_ROWS + 1, 0] = np.inf
        with pytest.raises(ValueError, match=f"vectors must be finite, row {_BINARIZE_ROWS + 5} "):
            binarize(bz, vectors)
        vectors[_BINARIZE_ROWS + 5, 3] = 1
        with pytest.raises(ValueError, match=f"row {2 * _BINARIZE_ROWS + 1} "):
            binarize(bz, vectors)
        with pytest.raises(ValueError, match="vectors must be finite, row 0 "):
            binarize(bz, np.full(8, -np.inf))

    def test_projection_oracle(self):
        bz = train_binarizer(16, 8, seed=6)
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(30, 16)).astype(np.float32)
        packed = binarize(bz, vectors)
        assert packed.shape == (30, 1)
        assert packed.dtype == np.uint8
        expected = (vectors.astype(np.float64) @ bz.rotation >= 0).astype(np.uint8)
        assert np.array_equal(np.unpackbits(packed, axis=1), expected)

    def test_zero_vector_sets_every_bit(self):
        bz = train_binarizer(16, 16, seed=8)
        packed = binarize(bz, np.zeros(16, dtype=np.float32))
        assert packed.shape == (2,)
        assert np.all(packed == 0xFF)

    def test_sign_flip_complements_the_code(self):
        bz = train_binarizer(12, 8, seed=9)
        rng = np.random.default_rng(10)
        vectors = rng.normal(size=(20, 12)).astype(np.float32)
        assert np.array_equal(binarize(bz, -vectors), 255 - binarize(bz, vectors))

    def test_single_matches_batch_and_rejects_bad_dim(self):
        bz = train_binarizer(8, 8, seed=11)
        rng = np.random.default_rng(12)
        vectors = rng.normal(size=(4, 8)).astype(np.float32)
        batch = binarize(bz, vectors)
        assert np.array_equal(binarize(bz, vectors[2]), batch[2])
        with pytest.raises(ValueError, match="dimension"):
            binarize(bz, np.zeros(9, dtype=np.float32))

    def test_blocks_match_a_one_shot_projection(self):
        # Two full blocks and a short one, float32 and float64 input, and a
        # single vector: every row as one whole-array projection packs it.
        bz = train_binarizer(32, 32, seed=14)
        rng = np.random.default_rng(15)
        vectors = rng.normal(size=(2 * _BINARIZE_ROWS + 37, 32))
        reference = np.packbits(
            (vectors.astype(np.float32).astype(np.float64) @ bz.rotation >= 0).astype(np.uint8),
            axis=1,
        )
        for batch in (vectors.astype(np.float32), vectors):
            packed = binarize(bz, batch)
            assert packed.dtype == np.uint8
            assert packed.tobytes() == reference.tobytes()
        single = binarize(bz, vectors[_BINARIZE_ROWS + 3].astype(np.float32))
        assert single.shape == (4,)
        assert single.tobytes() == reference[_BINARIZE_ROWS + 3].tobytes()


class TestMajorityCenter:
    def test_hand_cases(self):
        members = np.array([[1, 0], [1, 0], [1, 1]], dtype=np.uint8)
        assert np.array_equal(majority_center(members), [1, 0])
        # Exact ties resolve to 0.
        tied = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        assert np.array_equal(majority_center(tied), [0, 0])
        single = np.array([[0, 1, 1]], dtype=np.uint8)
        assert np.array_equal(majority_center(single), [0, 1, 1])

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            majority_center(np.empty((0, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="0 or 1"):
            majority_center(np.array([[0, 2]], dtype=np.uint8))

    def test_never_beaten_by_exhaustive_search(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            bits = int(rng.integers(1, 9))
            members = rng.integers(0, 2, size=(int(rng.integers(1, 30)), bits))
            center = majority_center(members)
            own = int(np.sum(members != center))
            for candidate in itertools.product((0, 1), repeat=bits):
                assert own <= int(np.sum(members != np.array(candidate)))

    def test_update_all_returns_majorities_and_member_counts(self):
        # Fit's update on the popcount tables is the per-bit majority.
        # 3000 random codes in 1000 clusters leave some empty: zero code,
        # count 0. Clusters 1000-1009 hold two codes and their complements,
        # and 1010-1019 one, so every bit of theirs is an exact tie: zero.
        rng = np.random.default_rng(16)
        k = 1020
        byte = np.arange(256, dtype=np.uint8)[:, None]
        tables = DistanceTables(np.broadcast_to(_hamming(byte, byte), (3, 256, 256)))
        tied = rng.integers(0, 256, size=(30, 3), dtype=np.uint8)
        packed = np.concatenate(
            [rng.integers(0, 256, size=(3000, 3), dtype=np.uint8), tied, ~tied]
        )
        pairs = np.arange(30) % 20 + 1000
        labels = np.concatenate([rng.integers(0, 1000, size=3000), pairs, pairs]).astype(np.uint32)
        tracemalloc.start()
        try:
            centers, counts, nnz = _sparse_update_all(packed, labels, k, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One (K, 256) int64 histogram at a time, the next built only once
        # the last is freed, and one block of votes.
        assert peak < 1.5 * k * 256 * 8
        assert np.array_equal(counts, np.bincount(labels, minlength=k))
        assert (counts == 0).any()
        for ki in range(k):
            members = packed[labels == ki]
            expected = (
                np.packbits(majority_center(np.unpackbits(members, axis=1)))
                if len(members) else np.zeros(3, dtype=np.uint8)
            )
            assert np.array_equal(centers[ki], expected)
        assert not centers[1000:].any()
        distinct = sum(
            len(np.unique(packed[labels == ki, m])) for ki in np.flatnonzero(counts) for m in range(3)
        )
        assert nnz == distinct / (3 * np.count_nonzero(counts))


class TestHamming:
    def test_matches_unpacked_xor(self):
        # bkmeans_fit's table scan sums _POPCOUNT[a ^ b] over the bytes.
        rng = np.random.default_rng(15)
        codes = rng.integers(0, 256, size=(25, 4), dtype=np.uint8)
        centers = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
        got = _POPCOUNT[codes[:, None] ^ centers[None]].sum(axis=2)
        assert got.shape == (25, 6)
        a = np.unpackbits(codes, axis=1)
        b = np.unpackbits(centers, axis=1)
        expected = (a[:, None, :] != b[None, :, :]).sum(axis=2)
        assert np.array_equal(got, expected)


class TestBkmeans:
    def test_two_byte_groups(self):
        packed = np.array(
            [[0x00, 0x00]] * 4 + [[0xFF, 0xFF]] * 4, dtype=np.uint8
        )
        initial = np.array([[0x00, 0x00], [0xFF, 0xFF]], dtype=np.uint8)
        result = bkmeans_fit(packed, 2, initial_centers=initial)
        assert result.converged
        assert np.array_equal(result.labels, [0] * 4 + [1] * 4)
        assert np.array_equal(result.centers, initial)
        assert result.trace[-1].objective == 0.0

    def test_monotone_deterministic_and_repairs(self):
        rng = np.random.default_rng(16)
        packed = rng.integers(0, 256, size=(5000, 4), dtype=np.uint8)
        base = bkmeans_fit(packed, 12, seed=3, threads=1)
        objs = [s.objective for s in base.trace]
        assert all(b <= a for a, b in zip(objs, objs[1:]))
        threaded = bkmeans_fit(packed, 12, seed=3, threads=8)
        assert base.labels.tobytes() == threaded.labels.tobytes()
        assert base.centers.tobytes() == threaded.centers.tobytes()

    def test_validation(self):
        packed = np.zeros((4, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="k must be"):
            bkmeans_fit(packed, 5)
        with pytest.raises(ValueError, match=r"shape \(N, B/8\)"):
            bkmeans_fit(np.zeros((4, 0), dtype=np.uint8), 2)
        with pytest.raises(ValueError, match="initial_centers"):
            bkmeans_fit(packed, 2, initial_centers=np.zeros((2, 3), dtype=np.uint8))
        # Out-of-range or fractional bytes used to wrap silently (300 -> 44).
        range_error = r"\[0, 256\)"
        for bad, message in ((300, range_error), (-1, range_error), (1.7, "integers")):
            codes = packed.astype(type(bad))
            codes[1, 0] = bad
            with pytest.raises(ValueError, match=message):
                bkmeans_fit(codes, 2)
            with pytest.raises(ValueError, match=message):
                bkmeans_fit(packed, 2, initial_centers=codes[:2])
        with pytest.raises(ValueError, match="integers"):
            bkmeans_fit(packed.astype(bool), 2)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize(
        "case", ["b8", "b32", "b64", "duplicates_k_near_n", "no_center_moves", "k300"]
    )
    def test_matches_the_unpacked_majority_lloyd_loop(self, case, threads):
        rng = np.random.default_rng(20)
        initial = None
        if case == "b8":
            packed, k = rng.integers(0, 256, size=(1500, 1), dtype=np.uint8), 20
        elif case in ("b32", "b64"):
            width = 4 if case == "b32" else 8
            prototypes = rng.integers(0, 256, size=(12, width), dtype=np.uint8)
            packed, k = _noisy_codes(rng, prototypes, 3000, 0.15), 16
        elif case == "k300":
            # Past the float32 scan's column count; popcount sums are exact.
            prototypes = rng.integers(0, 256, size=(40, 4), dtype=np.uint8)
            packed, k = _noisy_codes(rng, prototypes, 3000, 0.15), 300
        elif case == "duplicates_k_near_n":
            distinct = rng.integers(0, 256, size=(30, 4), dtype=np.uint8)
            packed, k = np.repeat(distinct, 3, axis=0), 80
        else:
            # Each prototype already is its group's majority, so the first
            # update moves no center.
            initial = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
            packed, k = _noisy_codes(rng, initial, 600, 0.05), 6
        if initial is None:
            initial = packed[rng.choice(len(packed), size=k, replace=False)]
        got = bkmeans_fit(packed, k, 12, threads=threads, initial_centers=initial)
        labels, centers, objectives, converged = _reference_bkmeans(packed, initial, 12)
        assert got.labels.dtype == np.uint32
        assert np.array_equal(got.labels, labels)
        assert got.centers.tobytes() == centers.tobytes()
        assert [(s.objective, s.objective_sq) for s in got.trace] == objectives
        assert got.iterations_run == len(objectives)
        assert got.converged == converged
        # Every update is fit's histogram vote, which reports its support.
        updated = got.trace[:-1] if converged else got.trace
        assert all(1.0 <= s.mean_histogram_nnz <= 256.0 for s in updated)
        if case == "duplicates_k_near_n":
            assert sum(s.repaired_clusters for s in got.trace) > 0
        if case == "no_center_moves":
            assert got.trace[1].moved_centers == 0

    def test_runs_without_the_public_fit_or_assign(self, monkeypatch):
        # The benchmark's tracer wraps clustering.fit and clustering.assign
        # and counts their time as pqkmeans time.
        from pqclust import clustering

        def refuse(*args, **kwargs):
            raise AssertionError("bkmeans_fit called a public clustering function")

        monkeypatch.setattr(clustering, "fit", refuse)
        monkeypatch.setattr(clustering, "assign", refuse)
        rng = np.random.default_rng(21)
        packed = rng.integers(0, 256, size=(500, 4), dtype=np.uint8)
        result = bkmeans_fit(packed, 8, 5, seed=2, threads=2)
        assert result.iterations_run >= 2


def _noisy_codes(rng, prototypes, n, flip):
    """n packed codes, each a random prototype with bits flipped at rate flip."""
    picks = rng.integers(0, len(prototypes), size=n)
    bits = np.unpackbits(prototypes[picks], axis=1)
    return np.packbits(bits ^ (rng.random(bits.shape) < flip), axis=1)


def _reference_bkmeans(packed, centers, max_iterations):
    """Bk-means from the reference functions: the full Hamming matrix, argmin,
    and one majority_center call per cluster, and the farthest-point repair;
    it stops when the update reproduced the previous centers. Returns
    labels, centers, the trace's (objective, objective_sq) pairs and the
    converged flag."""
    n, k = len(packed), len(centers)
    objectives = []
    previous = None
    for _ in range(max_iterations):
        distances = _hamming(packed, centers)
        labels = np.argmin(distances, axis=1)
        own = distances[np.arange(n), labels].astype(np.float64)
        objectives.append((float(np.mean(own)), float(np.mean(own**2))))
        if previous is not None and np.array_equal(centers, previous):
            return labels, centers, objectives, True
        updated = np.zeros_like(centers)
        counts = np.bincount(labels, minlength=k)
        for ki in np.flatnonzero(counts):
            members = np.unpackbits(packed[labels == ki], axis=1)
            updated[ki] = np.packbits(majority_center(members))
        for ki in np.flatnonzero(counts == 0):
            far = int(np.argmax(own))
            updated[ki] = packed[far]
            own[far] = -np.inf
        centers, previous = updated, centers
    return labels, centers, objectives, False


class TestMetrics:
    def test_original_space_error_bruteforce(self):
        rng = np.random.default_rng(17)
        vectors = rng.normal(size=(40, 3)).astype(np.float32)
        labels = rng.integers(0, 4, size=40).astype(np.uint32)
        got = original_space_error(vectors, labels)
        points = vectors.astype(np.float64)
        means = {ki: points[labels == ki].mean(axis=0) for ki in range(4)}
        expected = np.mean(
            [np.sqrt(np.sum((points[i] - means[int(labels[i])]) ** 2)) for i in range(40)]
        )
        assert got == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_original_space_error_is_exact_across_blocks(self, k):
        # One block plus one row, so the last block holds a single row;
        # K=300 leaves clusters empty.
        dim = 8
        n = _BLOCK_ELEMENTS // dim + 1
        rng = np.random.default_rng(23)
        vectors = (rng.normal(size=(n, dim)) * 100).astype(np.float32)
        labels = rng.integers(0, k, size=n).astype(np.uint32)
        points = vectors.astype(np.float64)
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=column, minlength=k) for column in points.T], axis=1)
        means = sums / np.maximum(counts, 1)[:, None]
        expected = float(np.mean(np.sqrt(np.sum((points - means[labels]) ** 2, axis=1))))
        assert original_space_error(vectors, labels) == expected
        # Streamed in chunks that end inside a mean block and a distance block.
        for chunk in (3000, _MEAN_ROWS + 1):
            streamed = streamed_original_space_error(
                lambda: (vectors[a : a + chunk] for a in range(0, n, chunk)), labels, dim
            )
            assert streamed == expected

    def test_streamed_error_is_exact_across_leaves(self):
        # 150 001 rows are four leaves of the streamed mean; magnitudes from
        # 1e-6 to 1e6 make its float64 sum depend on the order of its terms.
        n, dim, k = 150_001, 2, 13
        rng = np.random.default_rng(47)
        scale = 10.0 ** rng.uniform(-6, 6, size=(n, 1))
        vectors = (rng.normal(size=(n, dim)) * scale).astype(np.float32)
        labels = rng.integers(0, k, size=n).astype(np.uint32)
        points = vectors.astype(np.float64)
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=column, minlength=k) for column in points.T], axis=1)
        means = sums / np.maximum(counts, 1)[:, None]
        dists = np.sqrt(np.sum((points - means[labels]) ** 2, axis=1))
        expected = float(np.mean(dists))
        leaves = []
        lloyd._pairwise_sum(n, lambda a, b: leaves.append(a) or 0.0)
        assert len(leaves) == 4
        # The leaf sums added left to right give other bits on these data.
        ends = leaves[1:] + [n]
        assert float(sum(np.add.reduce(dists[a:b]) for a, b in zip(leaves, ends)) / n) != expected
        # One-row chunks for 200 rows on each side of every leaf boundary,
        # larger ones between: all one-row chunks would take seconds.
        cuts = sorted({0, n} | {c for a in leaves[1:] for c in range(a - 200, a + 201)})
        ragged = [vectors[a:b] for a, b in zip(cuts, cuts[1:])]
        assert streamed_original_space_error(lambda: ragged, labels, dim) == expected
        for chunk in (1000, 16384, 70000, n):
            streamed = streamed_original_space_error(
                lambda: (vectors[a : a + chunk] for a in range(0, n, chunk)), labels, dim
            )
            assert streamed == expected, chunk

    def test_streamed_error_scratch_does_not_grow_with_n(self):
        # Besides the labels, the second pass holds one leaf of squared
        # distances, never an N-sized array of them.
        rng = np.random.default_rng(45)
        vectors = rng.normal(size=(1 << 20, 2)).astype(np.float32)
        labels = rng.integers(0, 16, size=1 << 20).astype(np.uint32)

        def peak(n):
            tracemalloc.start()
            try:
                streamed_original_space_error(
                    lambda: (vectors[a : min(a + 16384, n)] for a in range(0, n, 16384)),
                    labels[:n], 2,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 20) <= peak(1 << 16) + (64 << 10)

    def test_original_space_error_single_cluster(self):
        vectors = np.array([[0.0], [2.0]], dtype=np.float32)
        labels = np.zeros(2, dtype=np.uint32)
        assert original_space_error(vectors, labels) == 1.0

    def test_original_space_error_validation(self):
        with pytest.raises(ValueError, match="labels must have shape"):
            original_space_error(np.zeros((3, 2), dtype=np.float32), np.zeros(2))
        with pytest.raises(ValueError, match=r"vectors must be 2-d, got shape \(3,\)"):
            original_space_error(np.zeros(3, dtype=np.float32), np.zeros(3))
        with pytest.raises(ValueError, match=r"labels must have shape \(5,\), got \(5, 1\)"):
            streamed_original_space_error(lambda: [], np.zeros((5, 1), dtype=np.uint32), 2)
        with pytest.raises(ValueError, match="empty"):
            original_space_error(np.zeros((0, 2), dtype=np.float32), np.zeros(0))
        vectors, labels = np.zeros((5, 2), dtype=np.float32), np.zeros(5, dtype=np.uint32)
        with pytest.raises(ValueError, match="vectors hold 4 rows, labels 5"):
            streamed_original_space_error(lambda: [vectors[:4]], labels, 2)
        with pytest.raises(ValueError, match="more rows than the 5 labels"):
            streamed_original_space_error(lambda: [vectors, vectors[:1]], labels, 2)

    def test_original_space_error_rejects_a_label_at_or_above_n(self):
        # Checked before the means, which a label of 4e9 would size at
        # tens of GiB.
        vectors = np.ones((100, 2), dtype=np.float32)
        labels = np.zeros(100, dtype=np.uint32)
        labels[3] = 4_000_000_000
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 100\), got 4000000000"):
            original_space_error(vectors, labels)
        labels[3] = 100
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 100\), got 100"):
            original_space_error(vectors, labels)
        labels[3] = 99
        assert original_space_error(vectors, labels) == 0.0

    def test_rand_index_known_values(self):
        assert rand_index(np.array([0, 0, 1, 1]), np.array([5, 5, 9, 9])) == 1.0
        assert rand_index(np.array([0, 0, 1]), np.array([0, 1, 1])) == pytest.approx(1.0 / 3.0)
        assert rand_index(np.array([7]), np.array([3])) == 1.0
        assert rand_index(np.array([], dtype=int), np.array([], dtype=int)) == 1.0

    def test_rand_index_matches_pair_loop(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 4, size=n)
            agree = sum(
                (a[i] == a[j]) == (b[i] == b[j])
                for i in range(n)
                for j in range(i + 1, n)
            )
            expected = agree / (n * (n - 1) / 2)
            assert rand_index(a, b) == pytest.approx(expected, rel=1e-12)
            assert rand_index(b, a) == pytest.approx(expected, rel=1e-12)

    def test_rand_index_memory_is_linear_in_many_labels(self):
        # About 6000 distinct labels on each side: a table of every
        # (label_a, label_b) cell would need hundreds of MB.
        rng = np.random.default_rng(20)
        n = 6000
        a = rng.integers(0, 40_000, size=n)
        b = np.where(rng.random(n) < 0.5, a // 3, rng.integers(0, 40_000, size=n))
        disagree = sum(
            int(np.count_nonzero((a[i + 1 :] == a[i]) != (b[i + 1 :] == b[i])))
            for i in range(n - 1)
        )
        tracemalloc.start()
        try:
            got = rand_index(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert disagree > 0
        assert got == 1.0 - disagree / (n * (n - 1) // 2)
        assert peak < 64 * n

    def test_rand_index_table_and_sort_paths_agree(self):
        # The table path counts labelings of non-negative integers whose
        # (max_a + 1) x (max_b + 1) table has at most N cells; an offset of
        # 2**40, a negative shift or a float labeling sends either side to
        # the sort path. One labeling skips most of its label values.
        rng = np.random.default_rng(21)
        for n, ka, kb in [(200, 3, 4), (1000, 30, 20), (5000, 70, 70)]:
            a = rng.integers(0, ka, size=n).astype(np.uint32)
            b = rng.integers(0, kb, size=n).astype(np.uint32)
            gapped = np.array([0, 3, 7, 12], dtype=np.uint32)[rng.integers(0, 4, size=n)]
            for x, y in [(a, b), (a, gapped), (gapped, b)]:
                counted = rand_index(x, y)
                assert counted == rand_index(y, x)
                assert counted == rand_index(x.astype(np.uint64), y)
                assert counted == rand_index(x.astype(np.uint64) + (1 << 40), y)
                assert counted == rand_index(x, y.astype(np.uint64) + (1 << 40))
                assert counted == rand_index(x.astype(np.int64) - 3, y)
                assert counted == rand_index(x, y.astype(np.float64))

    def test_rand_index_memory_is_a_few_bytes_per_label_at_small_k(self):
        # 10^6 labels against K=100: the table path holds a 100 x 100 table
        # and one chunk of joint indices, where sorting holds several
        # N-sized int64 arrays (about 41 B/label).
        rng = np.random.default_rng(22)
        n = 1_000_000
        a = rng.integers(0, 100, size=n).astype(np.uint32)
        b = np.where(rng.random(n) < 0.9, a, rng.integers(0, 100, size=n)).astype(np.uint32)
        tracemalloc.start()
        try:
            rand_index(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n, f"rand_index took {peak / n:.1f} B/label"

    def test_rand_index_permutation_invariant(self):
        rng = np.random.default_rng(19)
        a = rng.integers(0, 6, size=100)
        b = rng.integers(0, 6, size=100)
        perm = rng.permutation(10)
        assert rand_index(a, b) == rand_index(perm[a % 10], b)

    def test_rand_index_validation(self):
        with pytest.raises(ValueError, match="differ in length"):
            rand_index(np.zeros(3), np.zeros(4))
