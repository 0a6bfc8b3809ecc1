"""Unit tests for k-means on PQ codes."""

import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pqclust import (
    PQCodebook,
    assign,
    build_distance_tables,
    build_histogram,
    estimate_memory,
    estimate_working_set,
    fit,
    init_centers,
    paired_distance_sq,
    pq_cost,
    pq_cost_sq,
    update_center_naive,
    update_center_sparse,
)
import pqclust
from pqclust.clustering import _FULL_SCAN_MOVED, _sparse_update_all, _table_assign, _vote
from pqclust.lloyd import _CHUNK_ROWS, _joint_counts, _joint_dtype, _range_runner


def random_tables(m, l_count, seed=0, sub_dim=2):
    rng = np.random.default_rng(seed)
    book = PQCodebook(rng.standard_normal((m, l_count, sub_dim)).astype(np.float32))
    return build_distance_tables(book)


def lattice_tables(m, l_count):
    """Integer-line codewords: every squared distance is an exact float."""
    grid = np.arange(l_count, dtype=np.float32).reshape(l_count, 1)
    book = PQCodebook(np.broadcast_to(grid, (m, l_count, 1)).copy())
    return build_distance_tables(book)


def incremental_ties(codes, tables, before, after, labels):
    """The exact ties that an incremental assignment from the centers
    `before` (with their labels) to the centers `after` meets, in an
    iteration that takes the two passes: some centers moved, but no more
    than _FULL_SCAN_MOVED of them."""
    d = sum(tables.tables[m][codes[:, m]][:, after[:, m]] for m in range(codes.shape[1]))
    moved = np.any(before != after, axis=1)
    if not 0 < moved.sum() <= _FULL_SCAN_MOVED * len(after):
        return set()
    stale = moved[labels]
    own = d[np.arange(len(codes)), labels]
    at_best = d == d.min(axis=1, keepdims=True)
    kinds = set()
    if np.any(d[~stale][:, moved] == own[~stale, None]):
        kinds.add("kept_vs_moved")
    best = at_best[stale]
    if np.any(best[:, moved].any(axis=1) & best[:, ~moved].any(axis=1)):
        kinds.add("stale_vs_moved_and_unmoved")
    return kinds


class TestHistogram:
    def test_matches_counter(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 16, size=200)
        hist = build_histogram(values, 16)
        tally = Counter(values.tolist())
        assert hist.shape == (16,) and hist.dtype == np.int64
        assert hist.sum() == 200
        for l in range(16):
            assert hist[l] == tally.get(l, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"subindices must have shape \(None,\), got \(2, 2\)"):
            build_histogram(np.zeros((2, 2), dtype=np.int64), 4)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            build_histogram(np.array([0, 4]), 4)


class TestChunkedCounts:
    @pytest.mark.parametrize("n", [2 * _CHUNK_ROWS, 2 * _CHUNK_ROWS + 1])
    def test_match_one_bincount_over_all_rows(self, n):
        rng = np.random.default_rng(30)
        k = 70
        rows = rng.integers(0, k - 1, size=n)  # row k - 1 stays empty
        for dtype, width in ((np.uint8, 256), (np.uint32, 1000), (np.int64, 1000)):
            cols = rng.integers(0, width, size=n)
            expected = np.bincount(rows * width + cols, minlength=k * width).reshape(k, width)
            table = _joint_counts(rows.astype(dtype), cols.astype(dtype), (k, width))
            assert table.dtype == np.intp
            assert np.array_equal(table, expected)
            assert not table[k - 1].any()

    def test_joint_index_widens_when_k_times_l_reaches_2_to_the_32(self):
        assert _joint_dtype(2**24 - 1, 256) == np.uint32
        assert _joint_dtype(2**24, 256) == np.uint64
        assert _joint_dtype(2**32, 2) == np.uint64
        assert _joint_dtype(100_000, 256) == np.uint32


class TestCenterUpdates:
    def test_naive_hand_case(self):
        # Codewords at 0, 1 and 10 on a line; members {0, 0, 1}. Candidate
        # costs are 1, 2 and 281, so codeword 0 wins.
        tables = lattice_tables(1, 11)
        tables_small = build_distance_tables(
            PQCodebook(np.array([[[0.0], [1.0], [10.0]]], dtype=np.float32))
        )
        members = np.array([[0], [0], [1]], dtype=np.uint8)
        assert update_center_naive(members, tables_small)[0] == 0
        # Same members against the full lattice still pick codeword 0.
        assert update_center_naive(members, tables)[0] == 0

    def test_naive_rejects_empty(self):
        tables = random_tables(2, 8)
        with pytest.raises(ValueError, match="empty cluster"):
            update_center_naive(np.empty((0, 2), dtype=np.uint8), tables)

    def test_sparse_equals_naive_randomized(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            m = int(rng.choice([1, 2, 4]))
            l_count = int(rng.choice([4, 16, 64]))
            tables = random_tables(m, l_count, seed=trial)
            members = rng.integers(0, l_count, size=(int(rng.integers(1, 200)), m)).astype(np.uint8)
            hists = [build_histogram(members[:, mm], l_count) for mm in range(m)]
            assert np.array_equal(
                update_center_sparse(hists, tables),
                update_center_naive(members, tables),
            )

    @pytest.mark.parametrize("l_count", [4, 256])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_update_all_matches_naive_per_cluster(self, l_count, lattice):
        # Fit's update, row by row, against the candidate scan on each
        # cluster's members; 3000 codes in 1000 clusters leave some empty.
        m, k = 3, 1000
        rng = np.random.default_rng(l_count + lattice)
        tables = lattice_tables(m, l_count) if lattice else random_tables(m, l_count, seed=l_count)
        codes = rng.integers(0, l_count, size=(3000, m), dtype=np.uint8)
        labels = rng.integers(0, k, size=3000).astype(np.uint32)
        counts = np.bincount(labels, minlength=k)
        assert (counts == 0).any()
        centers, update_counts, mean_nnz = _sparse_update_all(codes, labels, k, tables)
        assert np.array_equal(update_counts, counts)
        assert centers.shape == (k, m) and centers.dtype == np.uint8
        distinct = pairs = ties = 0
        for ki in range(k):
            members = codes[labels == ki]
            if len(members) == 0:
                assert not centers[ki].any()
                continue
            assert np.array_equal(centers[ki], update_center_naive(members, tables))
            for mm in range(m):
                distinct += len(np.unique(members[:, mm]))
                pairs += 1
                costs = tables.tables[mm][members[:, mm]].sum(axis=0)
                ties += np.count_nonzero(costs == costs.min()) > 1
        assert mean_nnz == distinct / pairs
        if lattice:
            assert ties > 0  # exact ties occurred and went to the lowest index

    def test_update_all_holds_one_histogram_and_one_block_of_votes(self):
        # At K=4000, L=256 a (K, L) float64 vote matrix beside the (K, L)
        # histogram would double the peak; blocks of votes keep it near one.
        m, k, l_count = 2, 4000, 256
        rng = np.random.default_rng(22)
        tables = random_tables(m, l_count, seed=22)
        codes = rng.integers(0, l_count, size=(20000, m), dtype=np.uint8)
        labels = rng.integers(0, k, size=20000).astype(np.uint32)
        tracemalloc.start()
        try:
            centers, counts, _ = _sparse_update_all(codes, labels, k, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * k * l_count * 8
        assert np.array_equal(counts, np.bincount(labels, minlength=k))
        for mm in range(m):
            hist = _joint_counts(labels, codes[:, mm], (k, l_count))
            whole = _vote(hist, tables.tables[mm])
            assert np.array_equal(centers[:, mm], whole)

    def test_sparse_validation(self):
        tables = random_tables(2, 8)
        hist = build_histogram(np.array([1, 2]), 8)
        with pytest.raises(ValueError, match="expected 2 histograms"):
            update_center_sparse([hist], tables)
        empty = build_histogram(np.empty(0, dtype=np.int64), 8)
        with pytest.raises(ValueError, match="empty"):
            update_center_sparse([hist, empty], tables)


    def test_sparse_names_a_malformed_histogram(self):
        # A short count array used to fail inside scipy, naming no subspace,
        # and a negative count was voted on.
        tables = random_tables(2, 8)
        hist = build_histogram(np.array([1, 2]), 8)
        with pytest.raises(ValueError, match=r"^histogram for subspace 1 must have shape \(8,\)"):
            update_center_sparse([hist, hist[:5]], tables)
        negative = np.array([3, -1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match=r"^histogram for subspace 0 must lie in \[0, inf\)"):
            update_center_sparse([negative, hist], tables)


class TestAssignment:
    def test_init_centers_samples_rows(self):
        rng = np.random.default_rng(1)
        codes = rng.permutation(64).reshape(64, 1).astype(np.uint8)
        centers = init_centers(codes, 10, seed=3)
        assert centers.shape == (10, 1)
        assert len(np.unique(centers)) == 10
        assert np.array_equal(centers, init_centers(codes, 10, seed=3))
        rows = {int(c) for c in codes.ravel()}
        assert all(int(c) in rows for c in centers.ravel())
        with pytest.raises(ValueError, match="k must be"):
            init_centers(codes, 0)
        with pytest.raises(ValueError, match="k must be"):
            init_centers(codes, 65)
        with pytest.raises(ValueError, match=r"codes must be 2-d, got shape \(64,\)"):
            init_centers(codes.ravel(), 10)

    def test_assign_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        tables = random_tables(3, 16, seed=8)
        codes = rng.integers(0, 16, size=(120, 3), dtype=np.uint8)
        centers = rng.integers(0, 16, size=(9, 3), dtype=np.uint8)
        labels = assign(codes, centers, tables)
        assert labels.dtype == np.uint32
        for i in range(len(codes)):
            dists = []
            for c in centers:
                acc = 0.0
                for m in range(3):
                    acc += float(tables.tables[m][codes[i, m], c[m]])
                dists.append(acc)
            assert labels[i] == min(range(9), key=lambda j: dists[j])

    def test_assign_ties_break_toward_low_index(self):
        tables = lattice_tables(1, 8)
        codes = np.array([[3]], dtype=np.uint8)
        # Centers at 2 and 4 are equidistant from 3; duplicated center rows
        # are exact ties as well. All must resolve to the lowest index.
        assert assign(codes, np.array([[2], [4]], dtype=np.uint8), tables)[0] == 0
        assert assign(codes, np.array([[4], [2]], dtype=np.uint8), tables)[0] == 0
        assert assign(codes, np.array([[5], [5], [2]], dtype=np.uint8), tables)[0] == 2
        assert assign(codes, np.array([[5], [5]], dtype=np.uint8), tables)[0] == 0

    def test_assign_threads_match_single(self):
        rng = np.random.default_rng(9)
        tables = random_tables(2, 32, seed=10)
        codes = rng.integers(0, 32, size=(30000, 2), dtype=np.uint8)
        centers = rng.integers(0, 32, size=(5, 2), dtype=np.uint8)
        one = assign(codes, centers, tables, threads=1)
        many = assign(codes, centers, tables, threads=8)
        assert one.tobytes() == many.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize(
        "n, k, lattice",
        [
            (1000, 3000, False),  # 21-row blocks, the last one partial
            (5, 65537, False),  # 1-row blocks
            (1, 7, False),  # fewer rows than threads
            (1001, 50, False),  # N not divisible by the thread count
            (777, 300, True),  # exact ties across duplicate centers
        ],
    )
    def test_blocked_scan_matches_vectorized_reference(self, n, k, lattice, threads):
        rng = np.random.default_rng(n + k)
        tables = lattice_tables(3, 8) if lattice else random_tables(3, 16, seed=k)
        l_count = tables.num_codewords
        codes = rng.integers(0, l_count, size=(n, 3), dtype=np.uint8)
        centers = rng.integers(0, l_count, size=(k, 3), dtype=np.uint8)
        if lattice:
            centers[1::2] = centers[::2][: k // 2]
        dists = sum(
            tables.tables[m][codes[:, m]][:, centers[:, m]] for m in range(3)
        )
        expected = np.argmin(dists, axis=1).astype(np.uint32)
        got = assign(codes, centers, tables, threads)
        assert got.tobytes() == expected.tobytes()

    def test_assign_validation(self):
        tables = random_tables(2, 8)
        codes = np.zeros((4, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="non-empty"):
            assign(codes, np.empty((0, 2), dtype=np.uint8), tables)
        with pytest.raises(ValueError, match="shape"):
            assign(np.zeros((4, 3), dtype=np.uint8), codes[:1], tables)


class TestCosts:
    def test_costs_match_manual_means(self):
        tables = lattice_tables(1, 10)
        codes = np.array([[0], [2], [9]], dtype=np.uint8)
        centers = np.array([[1], [9]], dtype=np.uint8)
        labels = np.array([0, 0, 1], dtype=np.uint32)
        # Squared distances: 1, 1, 0.
        assert pq_cost_sq(codes, centers, labels, tables) == pytest.approx(2.0 / 3.0)
        assert pq_cost(codes, centers, labels, tables) == pytest.approx(2.0 / 3.0)

    def test_cost_is_the_mean_of_the_whole_sqrt_array(self):
        # Several leaves of the streamed mean, and random tables whose
        # distances make the float64 sum depend on its order.
        rng = np.random.default_rng(44)
        tables = random_tables(4, 256, seed=44)
        codes = rng.integers(0, 256, size=(3 * _CHUNK_ROWS + 5, 4), dtype=np.uint8)
        centers = rng.integers(0, 256, size=(9, 4), dtype=np.uint8)
        labels = rng.integers(0, 9, size=len(codes)).astype(np.uint32)
        sq = paired_distance_sq(tables, codes, centers[labels])
        assert pq_cost(codes, centers, labels, tables) == float(np.mean(np.sqrt(sq)))
        assert pq_cost_sq(codes, centers, labels, tables) == float(np.mean(sq))

    def test_cost_validation(self):
        tables = lattice_tables(1, 4)
        codes = np.zeros((3, 1), dtype=np.uint8)
        centers = np.zeros((2, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="assignment must have shape"):
            pq_cost(codes, centers, np.zeros(2, dtype=np.uint32), tables)
        with pytest.raises(ValueError, match=r"assignment must lie in \[0, 2\), got 2"):
            pq_cost(codes, centers, np.array([0, 1, 2], dtype=np.uint32), tables)
        with pytest.raises(ValueError, match=r"assignment must lie in \[0, 2\), got -1"):
            pq_cost(codes, centers, [0, 1, -1], tables)
        with pytest.raises(ValueError, match=r"assignment must lie in \[0, 2\), got -1"):
            pq_cost_sq(codes, centers, np.array([0, -1, 1], dtype=np.int64), tables)
        with pytest.raises(ValueError, match="assignment must be integers"):
            pq_cost(codes, centers, np.array([0.0, 1.0, 0.0]), tables)
        with pytest.raises(ValueError, match="assignment must be integers"):
            pq_cost_sq(codes, centers, np.array([True, False, True]), tables)


class TestFit:
    def test_k_equals_n_reaches_zero_objective(self):
        tables = lattice_tables(2, 32)
        rng = np.random.default_rng(20)
        codes = np.unique(rng.integers(0, 32, size=(64, 2), dtype=np.uint8), axis=0)
        result = fit(codes, tables, len(codes), seed=0)
        assert result.converged
        assert result.trace[-1].objective == 0.0
        assert result.trace[-1].objective_sq == 0.0
        assert len(set(result.labels.tolist())) == len(codes)

    def test_separated_groups_recovered_from_seeded_centers(self):
        tables = lattice_tables(1, 200)
        groups = [0, 1, 2, 99, 100, 101, 197, 198, 199]
        codes = np.array(groups, dtype=np.uint8).reshape(-1, 1)
        initial = np.array([[1], [100], [198]], dtype=np.uint8)
        result = fit(codes, tables, 3, seed=0, initial_centers=initial)
        assert result.converged
        assert np.array_equal(result.labels, np.repeat([0, 1, 2], 3))
        assert np.array_equal(result.centers, initial)

    def test_trace_is_monotone_in_squared_objective(self):
        rng = np.random.default_rng(30)
        for trial in range(20):
            m = int(rng.choice([1, 2, 4]))
            l_count = int(rng.choice([8, 32]))
            tables = random_tables(m, l_count, seed=100 + trial)
            codes = rng.integers(0, l_count, size=(500, m)).astype(np.uint8)
            result = fit(codes, tables, int(rng.integers(2, 12)), max_iterations=15, seed=trial)
            sq = [s.objective_sq for s in result.trace]
            assert all(b <= a for a, b in zip(sq, sq[1:]))
            assert result.iterations_run == len(result.trace)
            assert [s.iteration for s in result.trace] == list(range(1, len(sq) + 1))
            if result.converged:
                assert result.trace[-1].objective == result.trace[-2].objective
                assert result.trace[-1].update_seconds == 0.0

    def test_sparse_and_naive_updates_agree_end_to_end(self):
        rng = np.random.default_rng(31)
        tables = random_tables(4, 64, seed=32)
        codes = rng.integers(0, 64, size=(3000, 4), dtype=np.uint8)
        sparse = fit(codes, tables, 12, seed=5, update="sparse")
        naive = fit(codes, tables, 12, seed=5, update="naive")
        assert np.array_equal(sparse.labels, naive.labels)
        assert np.array_equal(sparse.centers, naive.centers)
        assert [s.objective for s in sparse.trace] == [s.objective for s in naive.trace]
        # Only the sparse update reports histogram occupancy.
        assert any(s.mean_histogram_nnz is not None for s in sparse.trace)
        assert all(
            s.mean_histogram_nnz is None or 1.0 <= s.mean_histogram_nnz <= 64.0
            for s in sparse.trace
        )
        assert all(s.mean_histogram_nnz is None for s in naive.trace)

    def test_fit_deterministic_across_threads_and_reruns(self):
        rng = np.random.default_rng(33)
        tables = random_tables(2, 32, seed=34)
        codes = rng.integers(0, 32, size=(20000, 2), dtype=np.uint8)
        base = fit(codes, tables, 10, seed=4, threads=1)
        churn = [(s.label_changes, s.moved_centers, s.rescanned_points) for s in base.trace]
        # Switching threads every microsecond makes a lost update between
        # the workers' ranges show up as a label or a churn count.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 4, 8):
                again = fit(codes, tables, 10, seed=4, threads=threads)
                assert base.labels.tobytes() == again.labels.tobytes()
                assert base.centers.tobytes() == again.centers.tobytes()
                assert [s.objective for s in base.trace] == [s.objective for s in again.trace]
                assert churn == [
                    (s.label_changes, s.moved_centers, s.rescanned_points)
                    for s in again.trace
                ]
        finally:
            sys.setswitchinterval(interval)

    def test_empty_cluster_is_reseeded_on_farthest_code(self):
        tables = lattice_tables(1, 6)
        codes = np.array([[0], [0], [5], [5]], dtype=np.uint8)
        initial = np.array([[0], [0]], dtype=np.uint8)
        result = fit(codes, tables, 2, seed=0, initial_centers=initial)
        assert result.trace[0].repaired_clusters == 1
        assert result.converged
        assert sorted(set(result.labels.tolist())) == [0, 1]
        assert np.array_equal(result.labels, [0, 0, 1, 1])

    def test_churn_counts_on_hand_checked_moves(self):
        # Points on a line, centers at 3 and 10. Iteration 1 splits
        # {1, 3, 3, 6} | {7, 9, 9}; the update keeps center 0 at 3 and
        # moves center 1 to 8. In iteration 2, 7, 9 and 9 are no farther
        # from center 1 than before (1, 1, 1 against 9, 1, 1), so no point
        # is rescanned; the merge with the moved center hands point 6 (9
        # from 3, 4 from 8) to it. Center 0 then moves to 2. In iteration 3
        # the two 3s' distance rises from 0 to 1, so they are rescanned,
        # while 1 got closer (1 against 4); nothing changes, and no center
        # moves, so iteration 4 skips its assignment and stops.
        tables = lattice_tables(1, 16)
        codes = np.array([1, 3, 3, 6, 7, 9, 9], dtype=np.uint8).reshape(-1, 1)
        initial = np.array([[3], [10]], dtype=np.uint8)
        result = fit(codes, tables, 2, initial_centers=initial)
        churn = [
            (s.label_changes, s.moved_centers, s.rescanned_points) for s in result.trace
        ]
        assert churn == [(7, 2, 7), (1, 1, 0), (0, 1, 2), (0, 0, 0)]
        assert result.converged
        assert np.array_equal(result.labels, [0, 0, 0, 1, 1, 1, 1])
        assert np.array_equal(result.centers, [[2], [8]])

    @pytest.mark.parametrize("k, moves", [(4, 1), (4, 3), (5, 4), (4, 4)])
    def test_a_step_past_the_moved_share_is_a_full_scan(self, k, moves):
        # Up to _FULL_SCAN_MOVED of the centers moved (1 or 3 of 4) take the
        # two passes, which rescan the rows whose center moved away from
        # them; more (4 of 5, 4 of 4) is a full scan of every row. Either
        # way the labels are the full assignment's.
        rng = np.random.default_rng(46)
        tables = random_tables(2, 16, seed=47)
        codes = rng.integers(0, 16, size=(3000, 2), dtype=np.uint8)
        before = codes[:k].copy()
        after = before.copy()
        after[:moves] = codes[100 : 100 + moves]
        labels = assign(codes, before, tables).astype(np.uint32)
        moved = np.flatnonzero(np.any(after != before, axis=1))
        assert len(moved) == moves
        d_new = paired_distance_sq(tables, codes, after[labels])
        d_old = paired_distance_sq(tables, codes, before[labels])
        far = int(np.sum(np.isin(labels, moved) & (d_new > d_old)))
        with _range_runner(1, len(codes), k) as run:
            _, rescanned = _table_assign(codes, tables, after, before, moved, labels, run)
        full = len(moved) > _FULL_SCAN_MOVED * k
        assert full == (4 * moves > 3 * k)
        assert rescanned == (len(codes) if full else far)
        assert 0 < far < len(codes)
        assert labels.tobytes() == assign(codes, after, tables).astype(np.uint32).tobytes()

    def test_moved_center_row_at_equal_distance_keeps_its_label(self):
        # Codes on a 2-d lattice. Iteration 1 ties (5, 5) between center 0
        # at (4, 5) and center 1 at (5, 6), and gives it to 0 with (5, 3)
        # and (5, 4); center 0 moves to their mean (5, 4), the other
        # centers keep their codes. In iteration 2 every member of center 0
        # is no farther from it than before: (5, 5) at 1 against 1, (5, 3)
        # at 1 against 5, (5, 4) at 0 against 2. So nothing is rescanned,
        # and (5, 5) keeps center 0 against the unmoved center 1 at the same
        # distance, which has the higher index.
        tables = lattice_tables(2, 8)
        codes = np.array(
            [[5, 5], [5, 3], [5, 4], [5, 6], [5, 7], [0, 0]], dtype=np.uint8
        )
        initial = np.array([[4, 5], [5, 6], [0, 0]], dtype=np.uint8)
        for threads in (1, 2):
            result = fit(codes, tables, 3, initial_centers=initial, threads=threads)
            churn = [
                (s.label_changes, s.moved_centers, s.rescanned_points) for s in result.trace
            ]
            assert churn == [(6, 3, 6), (0, 1, 0), (0, 0, 0)]
            assert np.array_equal(result.centers, [[5, 4], [5, 6], [0, 0]])
            assert np.array_equal(result.labels, [0, 0, 0, 1, 1, 2])
            assert np.array_equal(assign(codes, result.centers, tables), result.labels)

    def test_row_whose_distance_rises_is_rescanned(self):
        # Points on a line, centers at 4 and 10. Iteration 1 ties 7 between
        # them and gives it to center 0 with 0 and 2; center 0 moves to 3,
        # center 1 keeps 10 (10 and 11 tie between 10 and 11). In iteration
        # 2 the distance of 7 to center 0 rises from 9 to 16, so 7 alone is
        # rescanned and moves to the unmoved center 1 (9), while 0 and 2 got
        # closer. Both centers then move, so iteration 3 is a full scan of
        # every point, and iteration 4 stops.
        tables = lattice_tables(1, 16)
        codes = np.array([0, 2, 7, 10, 11], dtype=np.uint8).reshape(-1, 1)
        initial = np.array([[4], [10]], dtype=np.uint8)
        result = fit(codes, tables, 2, initial_centers=initial)
        churn = [(s.label_changes, s.moved_centers, s.rescanned_points) for s in result.trace]
        assert churn == [(5, 2, 5), (1, 1, 1), (0, 2, 5), (0, 0, 0)]
        assert np.array_equal(result.labels, [0, 0, 1, 1, 1])
        assert np.array_equal(result.centers, [[1], [9]])
        assert np.array_equal(assign(codes, result.centers, tables), result.labels)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("values", [2, 3])
    def test_repairs_and_rescans_match_a_brute_force_loop(self, values, threads):
        # Bytes of two values give 16 distinct rows, so K=32 leaves clusters
        # empty in every iteration; three values leave fewer empty and
        # rescan rows. 150k rows span three leaves. Each capped fit is
        # checked against the full assignment, the repair picks (the rows
        # farthest from the centers they were assigned to, lowest row on
        # ties) and the rescanned rows (moved center and distance risen, or
        # every row once more than _FULL_SCAN_MOVED of the centers moved).
        rng = np.random.default_rng(44)
        tables = random_tables(4, 16, seed=45)
        codes = rng.integers(0, values, size=(150_000, 4), dtype=np.uint8)
        k, repairs, rescans = 32, 0, 0
        used = init_centers(codes, k, 5)
        labels = None
        for i in range(1, 6):
            capped = fit(codes, tables, k, max_iterations=i, seed=5, threads=threads)
            assert capped.labels.tobytes() == assign(codes, used, tables).tobytes()
            stats = capped.trace[-1]
            if i > 1:
                moved = np.any(previous != used, axis=1)
                stale = moved[labels]
                risen = paired_distance_sq(tables, codes, used[labels]) > paired_distance_sq(
                    tables, codes, previous[labels]
                )
                full = moved.sum() > _FULL_SCAN_MOVED * k
                expected = len(codes) if full else int(np.sum(stale & risen))
                assert stats.rescanned_points == expected
                rescans += expected
            if capped.converged:
                break
            empty = np.flatnonzero(np.bincount(capped.labels, minlength=k) == 0)
            assert stats.repaired_clusters == len(empty)
            d = paired_distance_sq(tables, codes, used[capped.labels])
            far = np.lexsort((np.arange(len(codes)), -d))[: len(empty)]
            assert np.array_equal(capped.centers[empty], codes[far])
            repairs += len(empty)
            previous, labels, used = used, capped.labels, capped.centers
        assert repairs > 0
        assert (rescans > 0) == (values == 3)

    def test_converged_fit_ends_at_a_fixed_point(self):
        # K=8 over 41 codes of 8 values: repairs land on codes that other
        # centers hold, and the objective repeats while centers still move.
        # Convergence must wait until an update moves no center.
        rng = np.random.default_rng(236)
        n, k = int(rng.integers(20, 60)), int(rng.integers(6, 9))
        tables = random_tables(1, 8, seed=236)
        codes = rng.integers(0, 8, (n, 1)).astype(np.uint8)
        result = fit(codes, tables, k, 15, seed=236)
        assert result.converged
        last = result.trace[-1]
        assert (last.label_changes, last.moved_centers, last.rescanned_points) == (0, 0, 0)
        assert np.array_equal(assign(codes, result.centers, tables), result.labels)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize(
        "case", ["duplicate_centers", "repairs", "no_moves", "ties", "random"]
    )
    def test_in_loop_labels_match_a_full_assignment(self, case, threads):
        rng = np.random.default_rng(40)
        initial = None
        if case == "duplicate_centers":
            # Exact ties between duplicated centers on integer tables.
            tables = lattice_tables(3, 8)
            codes = rng.integers(0, 8, size=(3000, 3), dtype=np.uint8)
            initial = codes[:20].copy()
            initial[10:] = initial[:10]
            k = 20
        elif case == "repairs":
            # K close to N over few distinct codes leaves clusters empty.
            tables = lattice_tables(3, 8)
            codes = np.repeat(rng.integers(0, 8, size=(30, 3), dtype=np.uint8), 3, axis=0)
            k = 80
        elif case == "ties":
            # Center codes duplicated at mirrored indices on integer tables:
            # later iterations tie moved centers against kept distances and
            # against unmoved centers (checked below).
            tables = lattice_tables(2, 8)
            codes = rng.integers(0, 8, size=(2000, 2), dtype=np.uint8)
            initial = codes[:12].copy()
            initial[6:] = initial[:6][::-1]
            k = 12
        elif case == "no_moves":
            tables = lattice_tables(1, 200)
            codes = np.array([0, 1, 2, 99, 100, 101, 197, 198, 199], dtype=np.uint8)
            codes = codes.reshape(-1, 1)
            initial = np.array([[1], [100], [198]], dtype=np.uint8)
            k = 3
        else:
            tables = random_tables(4, 32, seed=41)
            codes = rng.integers(0, 32, size=(5000, 4), dtype=np.uint8)
            k = 40
        kwargs = dict(seed=3, threads=threads, initial_centers=initial)
        full = fit(codes, tables, k, **kwargs)
        moved = [s.moved_centers for s in full.trace]
        if case == "repairs":
            assert sum(s.repaired_clusters for s in full.trace) > 0
        elif case == "no_moves":
            assert moved == [3, 0]
        else:
            assert any(0 < m <= _FULL_SCAN_MOVED * k for m in moved)

        used = init_centers(codes, k, 3) if initial is None else initial
        ties = set()
        for i in range(1, full.iterations_run + 1):
            capped = fit(codes, tables, k, max_iterations=i, **kwargs)
            assert capped.labels.tobytes() == assign(codes, used, tables).tobytes()
            stats = capped.trace[-1]
            assert stats.objective_sq == pq_cost_sq(codes, used, capped.labels, tables)
            assert stats.objective == pq_cost(codes, used, capped.labels, tables)
            if case == "ties" and i > 1:
                ties |= incremental_ties(codes, tables, previous, used, labels)
            previous, labels, used = used, capped.labels, capped.centers
        if case == "ties":
            assert ties == {"kept_vs_moved", "stale_vs_moved_and_unmoved"}

    def test_validation(self):
        tables = lattice_tables(1, 4)
        codes = np.zeros((5, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="k must be"):
            fit(codes, tables, 0)
        with pytest.raises(ValueError, match="k must be"):
            fit(codes, tables, 6)
        with pytest.raises(ValueError, match="max_iterations"):
            fit(codes, tables, 2, max_iterations=0)
        with pytest.raises(ValueError, match="update must be"):
            fit(codes, tables, 2, update="fancy")
        with pytest.raises(ValueError, match="initial_centers has"):
            fit(codes, tables, 2, initial_centers=np.zeros((3, 1), dtype=np.uint8))


class TestMemoryEstimate:
    def test_component_arithmetic(self):
        est = estimate_memory(1000, 10, 4, 256)
        # 4 * 8 bits = 4 bytes per code.
        assert est.codes_bytes == 4000.0
        assert est.centers_bytes == 40.0
        assert est.tables_bytes == 4.0 * 256 * 256 * 4
        assert est.assignment_bytes == 4000.0
        assert est.total_bytes == est.codes_bytes + est.centers_bytes + est.tables_bytes + est.assignment_bytes

    def test_sub_byte_codes(self):
        est = estimate_memory(16, 0, 2, 16)
        # Two 4-bit subindices: one byte per code.
        assert est.codes_bytes == 16.0
        assert est.centers_bytes == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            estimate_memory(-1, 0, 2, 4)
        with pytest.raises(ValueError, match="num_subspaces"):
            estimate_memory(1, 1, 0, 4)
        with pytest.raises(ValueError, match="num_codewords"):
            estimate_memory(1, 1, 2, 1)


class TestWorkingSet:
    def test_component_arithmetic(self):
        # M=4: 4 bytes of codes and 4 of labels.
        per_point = 8
        scratch = 2 * 8 * 2**16
        tables = 8 * 4 * 256 * (256 + 100)
        assert estimate_working_set(1000, 100, 4, 256) == 1000 * per_point + scratch + tables
        assert (
            estimate_working_set(1000, 100, 4, 256, threads=3)
            - estimate_working_set(1000, 100, 4, 256)
            == 2 * scratch
        )
        # More centers than a scan block holds widen each thread's blocks.
        big_k = 2**17
        assert estimate_working_set(0, big_k, 1, 2) == 2 * 8 * big_k + 8 * 2 * (2 + big_k)
        figure = estimate_working_set(10**9, 10**5, 4, 256, threads=2)
        assert 8.8 * 10**9 < figure < 8.9 * 10**9

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            estimate_working_set(-1, 0, 2, 4)
        with pytest.raises(ValueError, match="threads"):
            estimate_working_set(1, 1, 2, 4, threads=0)
        with pytest.raises(ValueError, match="M >= 1"):
            estimate_working_set(1, 1, 0, 4)


# Fits 2M random codes (M=4, L=256) whose bytes take `values` distinct
# values into K=32 clusters for 3 iterations on one thread, and prints the
# clusters repaired and the rise in peak RSS over the loaded codes and
# tables, after a small fit has loaded every lazily imported module. The
# peak is VmHWM, the probe's own since its exec: ru_maxrss would start at
# the peak of the test process that spawned it.
_WORKING_SET_PROBE = """
import sys
import numpy as np
from pqclust import PQCodebook, build_distance_tables, fit
def peak():
    with open("/proc/self/status") as fh:
        return 1024 * next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
n, k, values = 2_000_000, 32, int(sys.argv[1])
rng = np.random.default_rng(0)
tables = build_distance_tables(PQCodebook(rng.normal(size=(4, 256, 2)).astype(np.float32)))
codes = rng.integers(0, values, size=(n, 4), dtype=np.uint8)
fit(codes[:5000], tables, k, 2, 0)
before = peak()
result = fit(codes, tables, k, 3, 0)
print(sum(stats.repaired_clusters for stats in result.trace), peak() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is Linux's")
def test_fit_peak_stays_within_the_working_set_figure():
    env = dict(os.environ, PYTHONPATH=str(Path(pqclust.__file__).resolve().parent.parent))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    n, k, m, l_count = 2_000_000, 32, 4, 256
    # The figure less what the fit was given: the codes and the tables.
    held = estimate_working_set(n, k, m, l_count) - n * m - 8 * m * l_count * l_count
    # Random codes repair no cluster. Codes of two values per byte have 16
    # distinct rows, so the 32 initial centers repeat and the farthest-point
    # repair runs in every iteration.
    for values, repairs in ((256, False), (2, True)):
        proc = subprocess.run(
            [sys.executable, "-c", _WORKING_SET_PROBE, str(values)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        repaired, rise = map(int, proc.stdout.split()[-2:])
        assert (repaired > 0) == repairs, repaired
        # The figure less the inputs is 4.6 B/pt here, mostly labels; an
        # N-sized float64 temporary (8 B/pt) would raise the peak past 12.
        assert rise <= 1.25 * held, f"fit raised peak RSS by {rise / n:.1f} B/pt ({values=})"
