"""Unit tests for the product quantization core."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from pqclust import (
    DistanceTables,
    PQCodebook,
    build_distance_tables,
    decode,
    encode,
    paired_distance_sq,
    train_codebook,
)
from pqclust import lloyd, pq
from pqclust.io import generate_synthetic
from pqclust.lloyd import _BLOCK_ELEMENTS


def random_codebook(m, l_count, sub_dim, seed=0):
    rng = np.random.default_rng(seed)
    return PQCodebook(rng.standard_normal((m, l_count, sub_dim)).astype(np.float32))


def lattice_codebook(m, l_count):
    """Codewords on the integer line, so squared distances are exact floats."""
    grid = np.arange(l_count, dtype=np.float32).reshape(l_count, 1)
    return PQCodebook(np.broadcast_to(grid, (m, l_count, 1)).copy())


def reference_train_codebook(vectors, num_subspaces, num_codewords, iterations, seed):
    """The per-subspace Lloyd loop train_codebook ran before it moved onto
    the shared driver: float64 sub-vectors, a full cdist and argmin, means
    from one bincount per dimension, and exactly `iterations` iterations.
    Its repair rule differs from the driver's, so it returns, next to the
    float32 codewords, whether any codeword went empty."""
    rng = np.random.default_rng(seed)
    sub_dim = vectors.shape[1] // num_subspaces
    books, emptied = [], False
    for m in range(num_subspaces):
        points = vectors[:, m * sub_dim : (m + 1) * sub_dim].astype(np.float64)
        centers = points[rng.choice(len(points), size=num_codewords, replace=False)].copy()
        for _ in range(iterations):
            labels = np.argmin(cdist(points, centers, "sqeuclidean"), axis=1)
            counts = np.bincount(labels, minlength=num_codewords)
            sums = np.stack(
                [
                    np.bincount(labels, weights=points[:, d], minlength=num_codewords)
                    for d in range(sub_dim)
                ],
                axis=1,
            )
            filled = counts > 0
            emptied |= not filled.all()
            centers[filled] = sums[filled] / counts[filled, None]
        books.append(centers.astype(np.float32))
    return np.stack(books), emptied


class TestPQCodebook:
    def test_properties(self):
        book = random_codebook(4, 16, 3)
        assert book.num_subspaces == 4
        assert book.num_codewords == 16
        assert book.subspace_dim == 3
        assert book.dim == 12
        assert book.codewords.dtype == np.float32
        assert not book.codewords.flags.writeable

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError, match="shape"):
            PQCodebook(np.zeros((4, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="outside"):
            PQCodebook(np.zeros((2, 1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="outside"):
            PQCodebook(np.zeros((2, 257, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="finite"):
            bad = np.zeros((2, 4, 3), dtype=np.float32)
            bad[0, 0, 0] = np.nan
            PQCodebook(bad)


class TestTrainCodebook:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(300, 8)).astype(np.float32)
        book_a = train_codebook(data, 4, 16, iterations=5, seed=7)
        book_b = train_codebook(data, 4, 16, iterations=5, seed=7)
        book_c = train_codebook(data, 4, 16, iterations=5, seed=8)
        assert book_a.codewords.shape == (4, 16, 2)
        assert np.array_equal(book_a.codewords, book_b.codewords)
        assert not np.array_equal(book_a.codewords, book_c.codewords)

    def test_threads_do_not_change_the_codebook_or_the_codes(self):
        # Ranges of 5003 / t rows split the scan's cache blocks unevenly.
        data, _ = generate_synthetic(5003, 8, 12, 0.3, seed=21)
        book = train_codebook(data, 2, 64, iterations=6, seed=3)
        codes = encode(book, data)
        for threads in (2, 8):
            again = train_codebook(data, 2, 64, iterations=6, seed=3, threads=threads)
            assert again.codewords.tobytes() == book.codewords.tobytes()
            assert encode(book, data, threads=threads).tobytes() == codes.tobytes()
        assert np.array_equal(encode(book, data[7], threads=8), codes[7])

    def test_fixed_point_when_n_equals_l(self):
        # With exactly L distinct training vectors, every vector becomes its
        # own codeword and the quantizer reconstructs the data verbatim.
        rng = np.random.default_rng(11)
        data = rng.normal(size=(32, 6)).astype(np.float32)
        book = train_codebook(data, 2, 32, iterations=5, seed=0)
        assert np.array_equal(decode(book, encode(book, data)), data)

    def test_quantization_error_shrinks_with_iterations(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(2000, 8)).astype(np.float32)

        def mse(iterations):
            book = train_codebook(data, 2, 16, iterations=iterations, seed=0)
            recon = decode(book, encode(book, data)).astype(np.float64)
            return float(np.mean((data.astype(np.float64) - recon) ** 2))

        # Lloyd cost is non-increasing in float64; the final float32 cast
        # may perturb either side by rounding, hence the slack.
        assert mse(12) <= mse(1) * (1.0 + 1e-6)

    @pytest.mark.parametrize(
        "n, dim, components, spread, m, l_count, iterations, seed",
        [
            (3000, 8, 20, 0.1, 4, 16, 8, 1),
            (5000, 12, 40, 0.25, 3, 32, 6, 2),
            (2000, 16, 10, 0.05, 2, 64, 10, 3),
        ],
    )
    def test_matches_the_reference_loop(
        self, n, dim, components, spread, m, l_count, iterations, seed
    ):
        data, _ = generate_synthetic(n, dim, components, spread, seed=seed)
        expected, emptied = reference_train_codebook(data, m, l_count, iterations, seed)
        assert not emptied
        book = train_codebook(data, m, l_count, iterations=iterations, seed=seed)
        assert book.codewords.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_the_reference_at_the_benchmark_shape(self, threads):
        # M=4, L=256 and D/M=8, as in every benchmark workload. A block of
        # the scan holds 452 rows here, so each range of 6000 / threads
        # rows spans several blocks and a partial last one.
        data, _ = generate_synthetic(6000, 32, 100, 0.25, seed=5)
        expected, emptied = reference_train_codebook(data, 4, 256, 3, seed=5)
        assert not emptied
        book = train_codebook(data, 4, 256, iterations=3, seed=5, threads=threads)
        assert book.codewords.tobytes() == expected.tobytes()
        points = data.astype(np.float64)
        codes = np.stack(
            [
                np.argmin(
                    cdist(points[:, 8 * m : 8 * m + 8], expected[m].astype(np.float64), "sqeuclidean"),
                    axis=1,
                )
                for m in range(4)
            ],
            axis=1,
        ).astype(np.uint8)
        assert encode(book, data, threads=threads).tobytes() == codes.tobytes()

    def test_fewer_distinct_subvectors_than_codewords(self):
        # 5 distinct rows repeated 200 times: most of the 16 codewords per
        # subspace start on duplicates, go empty and are re-seeded on the
        # farthest sub-vector, until every distinct one is a codeword.
        rng = np.random.default_rng(12)
        distinct = rng.normal(size=(5, 6)).astype(np.float32)
        data = distinct[rng.integers(0, 5, size=200)]
        for seed in range(4):
            book = train_codebook(data, 3, 16, iterations=10, seed=seed)
            assert np.all(np.isfinite(book.codewords))
            assert np.array_equal(decode(book, encode(book, data)), data)
            again = train_codebook(data, 3, 16, iterations=10, seed=seed)
            assert again.codewords.tobytes() == book.codewords.tobytes()

    def test_validation(self):
        data = np.zeros((100, 10), dtype=np.float32)
        with pytest.raises(ValueError, match="divisible"):
            train_codebook(data, 3, 8)
        with pytest.raises(ValueError, match="num_codewords"):
            train_codebook(data, 2, 1)
        with pytest.raises(ValueError, match="num_codewords"):
            train_codebook(data, 2, 300)
        with pytest.raises(ValueError, match="training vectors"):
            train_codebook(data[:5], 2, 8)
        with pytest.raises(ValueError, match="iterations"):
            train_codebook(data, 2, 8, iterations=0)
        with pytest.raises(ValueError, match="2-d"):
            train_codebook(data.ravel(), 2, 8)
        for bad_value in (np.nan, np.inf):
            bad = data.copy()
            bad[7, 3] = bad_value
            with pytest.raises(ValueError, match="training vectors must be finite, row 7"):
                train_codebook(bad, 2, 8)


class TestEncodeDecode:
    def test_encode_matches_bruteforce_nearest(self):
        book = random_codebook(3, 12, 4, seed=5)
        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(40, 12)).astype(np.float32)
        codes = encode(book, vectors)
        assert codes.shape == (40, 3)
        assert codes.dtype == np.uint8
        points = vectors.astype(np.float64)
        for i in range(len(vectors)):
            for m in range(3):
                sub = points[i, m * 4 : (m + 1) * 4]
                dists = [
                    float(np.sum((sub - cw.astype(np.float64)) ** 2))
                    for cw in book.codewords[m]
                ]
                assert codes[i, m] == int(np.argmin(dists))

    def test_encode_breaks_ties_toward_low_index(self):
        # Duplicate codeword: the lower index must win.
        cw = np.array([[[0.0], [3.0], [3.0], [7.0]]], dtype=np.float32)
        book = PQCodebook(cw)
        assert encode(book, np.array([3.0], dtype=np.float32))[0] == 1
        # Equidistant between codewords 0 and 1 on the integer line.
        lattice = lattice_codebook(1, 4)
        assert encode(lattice, np.array([0.5], dtype=np.float32))[0] == 0

    def test_encode_single_matches_batch(self):
        book = random_codebook(2, 8, 3, seed=1)
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(5, 6)).astype(np.float32)
        batch = encode(book, vectors)
        for i, vec in enumerate(vectors):
            single = encode(book, vec)
            assert single.shape == (2,)
            assert np.array_equal(single, batch[i])

    @pytest.mark.parametrize("lattice", [False, True, "offset"])
    def test_encode_matches_full_cdist_with_a_partial_last_block(self, lattice, monkeypatch):
        l_count = 32
        n = _BLOCK_ELEMENTS // l_count + 1
        rng = np.random.default_rng(23)
        rechecked = []

        def counting(points, *args, **kwargs):
            rechecked.append(len(points))
            return cdist(points, *args, **kwargs)

        monkeypatch.setattr(lloyd, "cdist", counting)
        if lattice:
            # Half-integer sub-vectors lie exactly between two codewords.
            # Offset by 1e4, float32 cancellation is at its worst there.
            offset = 1e4 if lattice == "offset" else 0.0
            book = PQCodebook(lattice_codebook(3, l_count).codewords + offset)
            vectors = (rng.integers(-2, 2 * l_count + 2, size=(n, 3)) / 2 + offset).astype(np.float32)
        else:
            book = random_codebook(3, l_count, 4, seed=24)
            vectors = rng.normal(size=(n, 12)).astype(np.float32)
        sub_dim = book.subspace_dim
        points = vectors.astype(np.float64)
        expected = np.stack(
            [
                np.argmin(
                    cdist(
                        points[:, m * sub_dim : (m + 1) * sub_dim],
                        book.codewords[m].astype(np.float64),
                        "sqeuclidean",
                    ),
                    axis=1,
                )
                for m in range(3)
            ],
            axis=1,
        )
        assert np.array_equal(encode(book, vectors), expected)
        if lattice:
            assert np.count_nonzero(vectors % 1) > 0
            # The exact ties reached the recheck.
            assert sum(rechecked) > 0

    def test_encode_rejects_non_finite_vectors(self):
        book = random_codebook(2, 8, 3)
        vectors = np.zeros((6, 6), dtype=np.float32)
        for bad_value in (np.nan, np.inf, -np.inf):
            vectors[4, 5] = bad_value
            with pytest.raises(ValueError, match="vectors must be finite, row 4"):
                encode(book, vectors)
        with pytest.raises(ValueError, match="row 0"):
            encode(book, vectors[4])

    def test_encode_rejects_wrong_dimension(self):
        book = random_codebook(2, 8, 3)
        with pytest.raises(ValueError, match="dimension"):
            encode(book, np.zeros((4, 7), dtype=np.float32))

    def test_decode_gathers_codewords(self):
        book = random_codebook(3, 8, 2, seed=9)
        rng = np.random.default_rng(10)
        codes = rng.integers(0, 8, size=(20, 3), dtype=np.uint8)
        out = decode(book, codes)
        assert out.shape == (20, 6)
        assert out.dtype == np.float32
        for i in range(20):
            expected = np.concatenate([book.codewords[m][codes[i, m]] for m in range(3)])
            assert np.array_equal(out[i], expected)
        single = decode(book, codes[0])
        assert single.shape == (6,)
        assert np.array_equal(single, out[0])

    def test_decode_rejects_out_of_range_codes(self):
        book = random_codebook(2, 8, 2)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            decode(book, np.array([[0, 9]], dtype=np.int64))
        with pytest.raises(ValueError, match="integers"):
            decode(book, np.array([[0.0, 1.0]]))


class TestDistanceTables:
    def test_tables_match_bruteforce(self):
        book = random_codebook(3, 10, 4, seed=13)
        tables = build_distance_tables(book)
        assert tables.tables.shape == (3, 10, 10)
        assert tables.tables.dtype == np.float64
        cw = book.codewords.astype(np.float64)
        for m in range(3):
            for i in range(10):
                for j in range(10):
                    expected = float(np.sum((cw[m, i] - cw[m, j]) ** 2))
                    assert tables.tables[m, i, j] == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        good = np.zeros((1, 3, 3))
        DistanceTables(good)
        with pytest.raises(ValueError, match="shape"):
            DistanceTables(np.zeros((3, 3)))
        bad_diag = good.copy()
        bad_diag[0, 1, 1] = 2.0
        with pytest.raises(ValueError, match="diagonal"):
            DistanceTables(bad_diag)
        asym = good.copy()
        asym[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            DistanceTables(asym)
        neg = good.copy()
        neg[0, 0, 1] = neg[0, 1, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            DistanceTables(neg)


class TestSymmetricDistance:
    def test_paired_distance_matches_table_sum(self):
        book = random_codebook(4, 16, 3, seed=17)
        tables = build_distance_tables(book)
        rng = np.random.default_rng(18)
        a = rng.integers(0, 16, size=(50, 4), dtype=np.uint8)
        b = rng.integers(0, 16, size=(50, 4), dtype=np.uint8)
        got = paired_distance_sq(tables, a, b)
        for i in range(50):
            acc = 0.0
            for m in range(4):
                acc += float(tables.tables[m][a[i, m], b[i, m]])
            assert got[i] == acc

    def test_chunks_and_row_picks_keep_the_bits(self):
        # Across the kernel's chunk edges, codes paired with gathered rows
        # and with the rows picked by index give the scan's subspace-order
        # sum, for any integer dtype of the codes and any chunk size.
        book = random_codebook(3, 16, 2, seed=23)
        tables = build_distance_tables(book)
        rng = np.random.default_rng(24)
        n = 2 * pq._PAIRED_ROWS + 5
        a = rng.integers(0, 16, size=(n, 3), dtype=np.uint8)
        centers = rng.integers(0, 16, size=(7, 3), dtype=np.uint8)
        rows = rng.integers(0, 7, size=n).astype(np.uint32)
        expected = tables.tables[0][a[:, 0], centers[rows, 0]]
        for m in (1, 2):
            expected = expected + tables.tables[m][a[:, m], centers[rows, m]]
        assert paired_distance_sq(tables, a, centers[rows]).tobytes() == expected.tobytes()
        offsets = pq._flat_offsets(tables, centers)
        picked = pq._paired_distance_sq(tables, a.astype(np.uint64), offsets, rows)
        assert picked.tobytes() == expected.tobytes()
        # A caller's scratch of 2·M·7 values sets chunks of 7 rows.
        small = pq._paired_distance_sq(tables, a, offsets, rows, scratch=np.empty(2 * 3 * 7))
        assert small.tobytes() == expected.tobytes()

    def test_symmetric_distance_properties(self):
        book = random_codebook(2, 8, 3, seed=19)
        tables = build_distance_tables(book)
        a = np.array([[1, 5]], dtype=np.uint8)
        b = np.array([[7, 2]], dtype=np.uint8)
        assert paired_distance_sq(tables, a, a)[0] == 0.0
        assert paired_distance_sq(tables, a, b)[0] == paired_distance_sq(tables, b, a)[0]
        assert paired_distance_sq(tables, a, b)[0] > 0.0

    def test_matches_euclidean_between_decoded_codes(self):
        book = random_codebook(4, 32, 4, seed=21)
        tables = build_distance_tables(book)
        rng = np.random.default_rng(22)
        a = rng.integers(0, 32, size=(200, 4), dtype=np.uint8)
        b = rng.integers(0, 32, size=(200, 4), dtype=np.uint8)
        sd = paired_distance_sq(tables, a, b)
        diff = decode(book, a).astype(np.float64) - decode(book, b).astype(np.float64)
        euclid = np.sum(diff**2, axis=1)
        np.testing.assert_allclose(sd, euclid, rtol=1e-9, atol=0.0)

    def test_validation(self):
        book = random_codebook(2, 8, 2)
        tables = build_distance_tables(book)
        with pytest.raises(ValueError, match="shape"):
            paired_distance_sq(
                tables,
                np.zeros((3, 2), dtype=np.uint8),
                np.zeros((4, 2), dtype=np.uint8),
            )
