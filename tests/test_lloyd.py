"""Unit tests for the exact streamed mean of the Lloyd loop, its
farthest-point repair selection and its thread count check."""

import numpy as np
import pytest

from pqclust import assign, bkmeans_fit, encode, fit, kmeans_fit, train_codebook
from pqclust.lloyd import _CHUNK_ROWS, _farthest, _leaves, _measure, _pairwise_sum, _range_runner
from pqclust.pq import DistanceTables, PQCodebook

# Sizes around numpy's own 8-wide and 128-long blocks, around one leaf, and
# two leaves whose split lands on a multiple of 8.
_BOUNDARY_SIZES = [
    1, 7, 8, 9, 128, 129, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 8,
]


def _spread(rng, n):
    """Positive values from 1e-12 to 1e12: their float64 sum depends on the
    order in which they are added."""
    return 10.0 ** rng.uniform(-12, 12, size=n)


def _pairwise_mean(f, x):
    """The mean of f(x) from _pairwise_sum's leaves, one leaf of f at a time."""
    return float(_pairwise_sum(len(x), lambda a, b: np.add.reduce(f(x[a:b]))) / len(x))


class TestPairwiseSum:
    # _pairwise_sum copies numpy's internal pairwise split, which no API
    # documents: if a numpy changes it, these equalities fail.
    @pytest.mark.parametrize("n", _BOUNDARY_SIZES)
    def test_pairwise_mean_is_numpys_mean_at_block_and_leaf_boundaries(self, n):
        x = _spread(np.random.default_rng(n), n)
        assert _pairwise_mean(np.sqrt, x) == float(np.mean(np.sqrt(x)))
        assert _pairwise_mean(np.square, x) == float(np.mean(np.square(x)))

    def test_pairwise_mean_is_numpys_mean_on_random_sizes(self):
        rng = np.random.default_rng(40)
        for n in rng.integers(1, 3_000_000, size=12):
            x = _spread(rng, int(n))
            assert _pairwise_mean(np.sqrt, x) == float(np.mean(np.sqrt(x))), n
            assert _pairwise_mean(np.square, x) == float(np.mean(np.square(x))), n

    @pytest.mark.parametrize("n", [0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 5 * _CHUNK_ROWS + 13])
    def test_leaves_tile_the_rows_in_order(self, n):
        leaves = _leaves(n)
        assert leaves[0][0] == 0 and leaves[-1][1] == n
        assert all(b == c for (_, b), (c, _) in zip(leaves, leaves[1:]))
        assert all(b - a <= _CHUNK_ROWS for a, b in leaves)

    def test_a_sequential_fold_of_the_leaves_differs(self):
        # The same leaf sums added left to right instead of as a tree: the
        # data are spread enough that the order shows in the last bits.
        n = 9 * _CHUNK_ROWS + 5
        x = _spread(np.random.default_rng(41), n)
        sequential = 0.0
        for a, b in _leaves(n):
            sequential += np.add.reduce(np.sqrt(x[a:b]))
        assert float(sequential / n) != float(np.mean(np.sqrt(x)))
        assert _pairwise_mean(np.sqrt, x) == float(np.mean(np.sqrt(x)))


def _farthest_rows(dists, e, rows=_CHUNK_ROWS):
    """The repair's picks over dists, taken as consecutive chunks of rows."""
    best = (np.empty(0, dtype=np.intp), np.empty(0))
    for a in range(0, len(dists), rows):
        best = _farthest(best, a, dists[a : a + rows], e)
    return best[0].tolist()


def _argmax_loop(dists, e):
    """The repair's reference: e rounds of argmax, each pick set to -inf."""
    own = dists.copy()
    picks = []
    for _ in range(e):
        far = int(np.argmax(own))
        picks.append(far)
        own[far] = -np.inf
    return picks


class TestFarthest:
    @pytest.mark.parametrize(
        "n", [1, 5, _CHUNK_ROWS - 3, _CHUNK_ROWS + 3, 3 * _CHUNK_ROWS + 11, 1_000_003]
    )
    def test_matches_the_argmax_loop_with_ties(self, n):
        # Integer values from a few levels: every selection cuts through a
        # run of ties, which the loop breaks toward the lowest index.
        rng = np.random.default_rng(n)
        dists = rng.integers(0, 6, size=n).astype(np.float64)
        # The largest value on both sides of every chunk boundary, so the
        # lowest index of a tie must win across chunks.
        for edge in range(_CHUNK_ROWS, n, _CHUNK_ROWS):
            dists[edge - 2 : edge + 2] = 9.0
        for e in (1, 2, 3, 40, 300):
            e = min(e, n)
            assert _farthest_rows(dists, e) == _argmax_loop(dists, e), e
        # The picks do not depend on how the values are chunked.
        assert _farthest_rows(dists, 40, 1000) == _argmax_loop(dists, min(40, n))

    def test_matches_the_argmax_loop_on_distinct_values(self):
        rng = np.random.default_rng(42)
        for n in rng.integers(1, 3 * _CHUNK_ROWS, size=20):
            dists = rng.random(int(n))
            e = int(rng.integers(1, min(n, 64) + 1))
            assert _farthest_rows(dists, e) == _argmax_loop(dists, e), (n, e)

    def test_later_rows_equal_to_the_least_held_lose(self):
        # Chunk 0 fills the e picks with 1.0; every later 1.0 ties them and
        # loses on its index, and one later 2.0 displaces the last pick.
        dists = np.ones(2 * _CHUNK_ROWS + 7)
        dists[_CHUNK_ROWS + 5] = 2.0
        assert _farthest_rows(dists, 3) == [_CHUNK_ROWS + 5, 0, 1]


class TestMeasure:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_one_pass_gives_numpy_means_and_the_argmax_picks(self, threads):
        # Ranges of n / threads rows cut through leaves; each leaf is summed
        # by the worker whose range holds its first row, so threads change
        # neither the means' bits nor the picks. Repeated values put ties
        # across leaves and ranges.
        rng = np.random.default_rng(threads)
        n = 3 * _CHUNK_ROWS + 11
        dists = _spread(rng, n)
        dists[rng.integers(0, n, size=50)] = dists.max()

        def distances(a, b, out, scratch):
            out[:] = dists[a:b]

        for squared in (True, False):
            with _range_runner(threads, n, 1) as run:
                (objective, objective_sq), far = _measure(n, distances, squared, 40, run)
            if squared:
                expected = (float(np.mean(np.sqrt(dists))), float(np.mean(dists)))
            else:
                expected = (float(np.mean(dists)), float(np.mean(np.square(dists))))
            assert (objective, objective_sq) == expected
            assert far.tolist() == _argmax_loop(dists, 40)
            with _range_runner(threads, n, 1) as run:
                assert len(_measure(n, distances, squared, 0, run)[1]) == 0


_VECTORS = np.random.default_rng(50).normal(size=(40, 4)).astype(np.float32)
_CODES = np.random.default_rng(51).integers(0, 4, size=(40, 2), dtype=np.uint8)
_BOOK = PQCodebook(np.random.default_rng(52).normal(size=(2, 4, 2)))
_TABLES = DistanceTables(np.broadcast_to(4.0 * (1 - np.eye(4)), (2, 4, 4)))

# Every threaded function of the package, called with the given threads.
_THREADED = {
    "fit": lambda t: fit(_CODES, _TABLES, 3, threads=t),
    "kmeans_fit": lambda t: kmeans_fit(_VECTORS, 3, threads=t),
    "bkmeans_fit": lambda t: bkmeans_fit(_CODES, 3, threads=t),
    "train_codebook": lambda t: train_codebook(_VECTORS, 2, 4, threads=t),
    "encode": lambda t: encode(_BOOK, _VECTORS, threads=t),
    "assign": lambda t: assign(_CODES, _CODES[:3], _TABLES, threads=t),
}


@pytest.mark.parametrize("name", sorted(_THREADED))
def test_threads_below_one_are_rejected(name):
    # These used to run on one thread without a word.
    _THREADED[name](1)
    for threads in (0, -3):
        with pytest.raises(ValueError, match=f"threads must be positive, got {threads}"):
            _THREADED[name](threads)
