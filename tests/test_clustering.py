"""Unit tests for k-means on PQ codes."""

import time
from collections import Counter

import numpy as np
import pytest

from pqclust import (
    PQCodebook,
    assign,
    build_distance_tables,
    build_histogram,
    estimate_memory,
    fit,
    init_centers,
    pq_cost,
    pq_cost_sq,
    register_assignment_strategy,
    registered_assignment_strategies,
    select_assignment_strategy,
    unregister_assignment_strategy,
    update_center_naive,
    update_center_sparse,
)
from pqclust.clustering import _assign_linear_scan


def random_tables(m, l_count, seed=0, sub_dim=2):
    rng = np.random.default_rng(seed)
    book = PQCodebook(rng.standard_normal((m, l_count, sub_dim)).astype(np.float32))
    return build_distance_tables(book)


def lattice_tables(m, l_count):
    """Integer-line codewords: every squared distance is an exact float."""
    grid = np.arange(l_count, dtype=np.float32).reshape(l_count, 1)
    book = PQCodebook(np.broadcast_to(grid, (m, l_count, 1)).copy())
    return build_distance_tables(book)


class TestHistogram:
    def test_matches_counter(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 16, size=200)
        hist = build_histogram(values, 16)
        tally = Counter(values.tolist())
        assert hist.counts.shape == (16,)
        assert hist.counts.sum() == 200
        for l in range(16):
            assert hist.counts[l] == tally.get(l, 0)
        assert np.array_equal(hist.support, np.sort(hist.support))
        assert np.array_equal(hist.support, np.flatnonzero(hist.counts))
        assert hist.nnz == len(set(values.tolist()))

    def test_validation(self):
        with pytest.raises(ValueError, match="1-d"):
            build_histogram(np.zeros((2, 2), dtype=np.int64), 4)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            build_histogram(np.array([0, 4]), 4)


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

    def test_sparse_validation(self):
        tables = random_tables(2, 8)
        hist = build_histogram(np.array([1, 2]), 8)
        with pytest.raises(ValueError, match="expected 2 histograms"):
            update_center_sparse([hist], tables)
        empty = build_histogram(np.empty(0, dtype=np.int64), 8)
        with pytest.raises(ValueError, match="empty"):
            update_center_sparse([hist, empty], tables)


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
        got = _assign_linear_scan(codes, centers, tables, threads)
        assert got.tobytes() == expected.tobytes()

    def test_assign_validation(self):
        tables = random_tables(2, 8)
        codes = np.zeros((4, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="non-empty"):
            assign(codes, np.empty((0, 2), dtype=np.uint8), tables)
        with pytest.raises(ValueError, match="unknown assignment strategy"):
            assign(codes, codes[:1], tables, strategy="nope")
        with pytest.raises(ValueError, match="shape"):
            assign(np.zeros((4, 3), dtype=np.uint8), codes[:1], tables)


class TestStrategyRegistry:
    def test_linear_scan_is_registered_and_protected(self):
        assert "linear_scan" in registered_assignment_strategies()
        with pytest.raises(ValueError, match="cannot be removed"):
            unregister_assignment_strategy("linear_scan")

    def test_register_dispatch_and_selection(self):
        calls = []

        def tracing(codes, centers, tables, threads):
            calls.append(len(codes))
            return _assign_linear_scan(codes, centers, tables, threads)

        def sleepy(codes, centers, tables, threads):
            time.sleep(0.01)
            return _assign_linear_scan(codes, centers, tables, threads)

        tables = random_tables(2, 16, seed=12)
        rng = np.random.default_rng(13)
        codes = rng.integers(0, 16, size=(400, 2), dtype=np.uint8)
        centers = codes[:6].copy()
        try:
            register_assignment_strategy("tracing", tracing)
            got = assign(codes, centers, tables, strategy="tracing")
            assert calls == [400]
            assert np.array_equal(got, assign(codes, centers, tables))

            # The bake-off times every candidate and keeps the fastest; the
            # sleeping strategy can never win it.
            register_assignment_strategy("sleepy", sleepy)
            assert select_assignment_strategy(codes, tables, 6, seed=1) != "sleepy"
        finally:
            unregister_assignment_strategy("tracing")
            unregister_assignment_strategy("sleepy")
        assert "tracing" not in registered_assignment_strategies()

    def test_selection_with_single_strategy_skips_timing(self):
        assert registered_assignment_strategies() == ("linear_scan",)
        # No codes are touched on the singleton path.
        name = select_assignment_strategy(np.empty((0, 2), dtype=np.uint8), random_tables(2, 4), 3)
        assert name == "linear_scan"

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_assignment_strategy("", _assign_linear_scan)


class TestCosts:
    def test_costs_match_manual_means(self):
        tables = lattice_tables(1, 10)
        codes = np.array([[0], [2], [9]], dtype=np.uint8)
        centers = np.array([[1], [9]], dtype=np.uint8)
        labels = np.array([0, 0, 1], dtype=np.uint32)
        # Squared distances: 1, 1, 0.
        assert pq_cost_sq(codes, centers, labels, tables) == pytest.approx(2.0 / 3.0)
        assert pq_cost(codes, centers, labels, tables) == pytest.approx(2.0 / 3.0)

    def test_cost_validation(self):
        tables = lattice_tables(1, 4)
        codes = np.zeros((3, 1), dtype=np.uint8)
        centers = np.zeros((2, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="assignment must have shape"):
            pq_cost(codes, centers, np.zeros(2, dtype=np.uint32), tables)
        with pytest.raises(ValueError, match="references center"):
            pq_cost(codes, centers, np.array([0, 1, 2], dtype=np.uint32), tables)
        with pytest.raises(ValueError, match="references center -1"):
            pq_cost(codes, centers, [0, 1, -1], tables)
        with pytest.raises(ValueError, match="references center -1"):
            pq_cost_sq(codes, centers, np.array([0, -1, 1], dtype=np.int64), tables)
        with pytest.raises(ValueError, match="integer labels"):
            pq_cost(codes, centers, np.array([0.0, 1.0, 0.0]), tables)
        with pytest.raises(ValueError, match="integer labels"):
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
        for threads in (1, 4):
            again = fit(codes, tables, 10, seed=4, threads=threads)
            assert base.labels.tobytes() == again.labels.tobytes()
            assert base.centers.tobytes() == again.centers.tobytes()
            assert [s.objective for s in base.trace] == [s.objective for s in again.trace]

    def test_empty_cluster_is_reseeded_on_farthest_code(self):
        tables = lattice_tables(1, 6)
        codes = np.array([[0], [0], [5], [5]], dtype=np.uint8)
        initial = np.array([[0], [0]], dtype=np.uint8)
        result = fit(codes, tables, 2, seed=0, initial_centers=initial)
        assert result.trace[0].repaired_clusters == 1
        assert result.converged
        assert sorted(set(result.labels.tolist())) == [0, 1]
        assert np.array_equal(result.labels, [0, 0, 1, 1])

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
