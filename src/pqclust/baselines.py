"""Reference clusterers and evaluation metrics.

Two baselines bracket the code-domain clusterer: plain Lloyd k-means on
the original vectors (the accuracy ceiling) and k-means on short binary
codes with Hamming assignment and per-bit majority-vote updates (the
memory-comparable competitor). All three run through the one Lloyd
driver in pqclust.lloyd, so they share its stop rule, empty-cluster
repair and trace. Bk-means is the code-domain clusterer on byte
subspaces with the popcount table, so it also shares fit's assignment
and update; k-means passes its own Euclidean steps.
Evaluation works on the original vectors: mean distance of every point
to the mean of its assigned cluster, plus the Rand index against a
reference labeling.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .clustering import _first_centers, _sparse_update_all, _table_assign, _table_distances
from .lloyd import _BLOCK_ELEMENTS, _CHUNK_ROWS, ClusteringResult, _assigned_sq_distances, _kmeans
from .lloyd import _check_indices, _chunked_means, _joint_counts, _lloyd, _pairwise_sum
from .pq import DistanceTables, _check_finite

_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

# Rows per projection block of binarize.
_BINARIZE_ROWS = 8192


def kmeans_fit(
    vectors: np.ndarray,
    k: int,
    max_iterations: int = 20,
    seed: int = 0,
    *,
    threads: int = 1,
    initial_centers: np.ndarray | None = None,
) -> ClusteringResult:
    """Standard Lloyd k-means on raw vectors.

    Assignment picks the nearest center by squared Euclidean distance
    (lowest index on ties), the update step recomputes cluster means in
    double precision. Converges when an update moves no center (a fixed
    point of the two steps), or stops at the iteration cap. Empty
    clusters are re-seeded on the point farthest from its assigned
    center. Deterministic for fixed inputs and seed, independent of the
    thread count.

    Runs on the package's one Lloyd driver. Its assignment is the blocked
    Euclidean scan that train_codebook and encode use too: a cache block
    of rows at a time, keeping only the labels. The objective and the
    repairs recompute each point's squared distance to its center in one
    pass, D multiply-adds per point. No N × D array is built.

    Args:
        vectors: Data of shape (N, D), stored as float32. Must be finite.
        k: Number of clusters, 1 <= k <= N.
        max_iterations: Iteration cap.
        seed: Seed for center initialization.
        threads: Worker threads for the assignment step.
        initial_centers: Optional finite (K, D) override of the sampled
            initialization.

    Returns:
        ClusteringResult with float64 centers of shape (K, D).
    """
    points = np.asarray(vectors, dtype=np.float32)
    if points.ndim != 2:
        raise ValueError(f"vectors must be 2-d, got shape {points.shape}")
    centers = _first_centers(points, k, max_iterations, seed, initial_centers)
    centers = np.asarray(centers, dtype=np.float64)
    _check_finite(points, "vectors")
    if not np.isfinite(centers).all():
        raise ValueError("initial_centers must be finite, got NaN or infinity")
    # float32 points enter every float64 operation exactly: no float64 copy.
    return _kmeans(points, centers, max_iterations, threads)


@dataclass(frozen=True)
class Binarizer:
    """Maps real vectors to B-bit codes by signs of a rotation.

    Attributes:
        rotation: float64 matrix of shape (D, B) with orthonormal
            columns. Bit b of a vector x is 1 iff (x @ rotation)[b] >= 0.
    """

    rotation: np.ndarray

    def __post_init__(self) -> None:
        rot = np.ascontiguousarray(self.rotation, dtype=np.float64)
        if rot.ndim != 2:
            raise ValueError(f"rotation must be 2-d, got shape {rot.shape}")
        gram = rot.T @ rot
        if not np.allclose(gram, np.eye(rot.shape[1]), atol=1e-6):
            raise ValueError("rotation columns must be orthonormal within 1e-6")
        rot.flags.writeable = False
        object.__setattr__(self, "rotation", rot)

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    @property
    def bits(self) -> int:
        return self.rotation.shape[1]


def train_binarizer(dim: int, bits: int, seed: int = 0) -> Binarizer:
    """Draw a random orthonormal rotation for sign binarization.

    Args:
        dim: Input dimensionality D.
        bits: Code length B, a multiple of 8 with 8 <= B <= D.
        seed: Seed for the Gaussian draw.

    Returns:
        A Binarizer with a (D, B) rotation.
    """
    if bits % 8 != 0 or bits < 8:
        raise ValueError(f"bits must be a positive multiple of 8, got {bits}")
    if bits > dim:
        raise ValueError(f"bits={bits} exceeds vector dimension {dim}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, bits)))
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    return Binarizer(q)


def binarize(binarizer: Binarizer, vectors: np.ndarray) -> np.ndarray:
    """Encode vectors into packed binary codes.

    Args:
        binarizer: Trained binarizer.
        vectors: One vector (D,) or a batch (N, D), finite.

    Returns:
        Packed uint8 codes of shape (B/8,) or (N, B/8). Bit b lives in
        byte b // 8 at MSB-first position b % 8.
    """
    arr = np.asarray(vectors)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != binarizer.dim:
        raise ValueError(
            f"vectors have dimension {arr.shape[1]}, binarizer expects {binarizer.dim}"
        )
    packed = np.empty((len(arr), binarizer.bits // 8), dtype=np.uint8)
    # One block of rows at a time is cast to float32, checked, cast to
    # float64 and projected: no N-sized float64 array.
    for a in range(0, len(arr), _BINARIZE_ROWS):
        block = np.asarray(arr[a : a + _BINARIZE_ROWS], dtype=np.float32)
        _check_finite(block, "vectors", a)
        projection = block.astype(np.float64) @ binarizer.rotation
        packed[a : a + _BINARIZE_ROWS] = np.packbits(projection >= 0, axis=1)
    return packed[0] if single else packed


def majority_center(member_bits: np.ndarray) -> np.ndarray:
    """Per-bit majority vote over one cluster's members.

    Bit b of the result is 1 iff strictly more than half of the members
    have bit b set; exact ties give 0. This choice minimizes the summed
    Hamming distance to the members.

    Args:
        member_bits: 0/1 matrix of shape (N_k, B), N_k >= 1.

    Returns:
        uint8 0/1 vector of shape (B,).
    """
    bits = np.asarray(member_bits)
    if bits.ndim != 2 or len(bits) == 0:
        raise ValueError(
            f"member_bits must be a non-empty 2-d 0/1 array, got shape {bits.shape}"
        )
    if bits.size and not np.isin(bits, (0, 1)).all():
        raise ValueError("member_bits entries must be 0 or 1")
    ones = bits.sum(axis=0, dtype=np.int64)
    return (2 * ones > len(bits)).astype(np.uint8)


def bkmeans_fit(
    codes: np.ndarray,
    k: int,
    max_iterations: int = 20,
    seed: int = 0,
    *,
    threads: int = 1,
    initial_centers: np.ndarray | None = None,
) -> ClusteringResult:
    """K-means on packed binary codes.

    Assignment minimizes the Hamming distance (lowest index on ties),
    the update step takes per-bit majority votes. Converges when an
    update moves no center; the empty-cluster repair matches kmeans_fit.
    The trace objective is the mean Hamming distance to the assigned center.

    B-bit codes are PQ codes of B/8 byte subspaces whose table is the
    byte Hamming distance, so the run is fit's: its loop, table scan,
    exact incremental assignment and histogram vote. That vote is
    majority_center's, bit for bit. A byte's summed Hamming distance to
    the members is a separate sum for each bit, which 1 minimizes when
    more than half of the members set the bit and both values minimize on
    a tie. The lowest-index byte among the minimizers, which the vote's
    argmin takes, therefore sets every tied bit to 0. The votes are sums
    of counts times popcounts, exact in float64.

    Args:
        codes: Packed codes of shape (N, B/8), integers in [0, 255].
        k: Number of clusters, 1 <= k <= N.
        max_iterations: Iteration cap.
        seed: Seed for center initialization.
        threads: Worker threads for the assignment step.
        initial_centers: Optional (K, B/8) packed override of the
            sampled initialization.

    Returns:
        ClusteringResult with packed uint8 centers of shape (K, B/8).
    """
    packed = _check_indices(codes, (None, None), 256, "codes").astype(np.uint8, copy=False)
    width = packed.shape[1]
    if width == 0:
        raise ValueError(f"codes must have shape (N, B/8), B >= 8, got {packed.shape}")
    centers = _first_centers(packed, k, max_iterations, seed, initial_centers)
    centers = _check_indices(centers, (k, width), 256, "initial_centers").astype(np.uint8)
    # Every byte subspace has the table T[a, b] = popcount(a ^ b). Sums of
    # these small integers are exact in float64, so the scan's distances are
    # the exact Hamming distances and its ties are exact ties.
    byte = np.arange(256, dtype=np.uint8)
    hamming = _POPCOUNT[np.bitwise_xor.outer(byte, byte)]
    tables = DistanceTables(np.broadcast_to(hamming, (width, 256, 256)))
    return _lloyd(
        packed, centers, max_iterations, threads, partial(_table_assign, packed, tables),
        partial(_sparse_update_all, tables=tables), partial(_table_distances, packed, tables),
        False,
    )


def original_space_error(vectors: np.ndarray, labels: np.ndarray) -> float:
    """Mean distance of each vector to the mean of its assigned cluster.

    Cluster means are computed from the original vectors grouped by the
    given labels, in double precision. Clusters that received no points
    contribute nothing.

    Args:
        vectors: Original data of shape (N, D).
        labels: Cluster index per point: (N,) integers (not bool) in
            [0, N), else ValueError naming them.

    Returns:
        The mean Euclidean distance as a float.
    """
    data = np.asarray(vectors, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError(f"vectors must be 2-d, got shape {data.shape}")
    if len(data) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    labels = _check_indices(labels, (len(data),), len(data), "labels")
    return streamed_original_space_error(lambda: [data], labels, data.shape[1])


def streamed_original_space_error(
    read_chunks: Callable[[], Iterable[np.ndarray]],
    labels: np.ndarray,
    dim: int,
    labels_name: str = "labels",
) -> float:
    """original_space_error of vectors read twice, one chunk at a time.

    The value is np.mean(np.sqrt(sq)) of the N squared distances to the
    last bit, whatever the chunk sizes: the cluster sums add each member in
    row order, and the second pass writes the squared distances of one
    leaf of lloyd._pairwise_sum at a time, whose leaves are fixed by N
    alone, and folds the leaves' sums as np.add.reduce would. Besides the
    labels, a pass holds one chunk, one leaf of 2**16 distances and
    fixed-size scratch.

    Args:
        read_chunks: Returns a fresh iterable of float32 (n_i, D) chunks
            that together hold the N vectors in row order; called twice.
        labels: Cluster index per point: (N,) integers (not bool) in
            [0, N), N >= 1, else ValueError naming them.
        dim: The vectors' dimension D.
        labels_name: What the labels are called in error messages.

    Returns:
        The mean Euclidean distance as a float.
    """
    n = np.size(labels)
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    # No clustering of N points has a label at or above N; checked before
    # the means, which are sized by the largest label.
    labels = _check_indices(labels, (n,), n, labels_name)
    means = _chunked_means(_labeled_chunks(read_chunks(), labels), int(labels.max()) + 1, dim)[0]
    scratch = np.empty(max(_BLOCK_ELEMENTS, dim))
    block = max(1, len(scratch) // max(1, dim))
    pieces = (
        (chunk[a : a + block], own[a : a + block])
        for chunk, own in _labeled_chunks(read_chunks(), labels)
        for a in range(0, len(chunk), block)
    )
    rows = own = labels[:0]  # what the current piece has left
    sq = np.empty(min(n, _CHUNK_ROWS))

    def leaf(a, b):
        nonlocal rows, own
        filled = 0
        while filled < b - a:
            if not len(own):
                rows, own = next(pieces)
            take = min(len(own), b - a - filled)
            _assigned_sq_distances(
                rows[:take], means, own[:take], scratch, sq[filled : filled + take]
            )
            rows, own, filled = rows[take:], own[take:], filled + take
        return np.add.reduce(np.sqrt(sq[: b - a]))

    total = _pairwise_sum(n, leaf)
    next(pieces, None)  # ends the stream, which checks its row count
    return float(total / n)


def _labeled_chunks(chunks, labels):
    """Yield (chunk, the chunk's labels) per chunk, checking that the
    chunks hold exactly one row per label."""
    start = 0
    for chunk in chunks:
        stop = start + len(chunk)
        if stop > len(labels):
            raise ValueError(f"vectors hold more rows than the {len(labels)} labels")
        yield chunk, labels[start:stop]
        start = stop
    if start != len(labels):
        raise ValueError(f"vectors hold {start} rows, labels {len(labels)}")


def rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Fraction of point pairs on which two labelings agree.

    A pair agrees when both labelings put it in one cluster, or both
    split it. Invariant under label permutation and symmetric in the
    arguments.

    Labelings of non-negative integers whose (max_a + 1) × (max_b + 1)
    contingency table has at most N cells are counted into that table by
    lloyd._joint_counts; any other pair is sorted. Both give the same
    three pair counts, so the same value.

    Args:
        labels_a: First labeling, shape (N,).
        labels_b: Second labeling, shape (N,).

    Returns:
        Agreement fraction in [0, 1]. Defined as 1.0 when N < 2.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"labelings differ in length: {a.shape} vs {b.shape}")
    n = len(a)
    if n < 2:
        return 1.0

    def same_pairs(counts: np.ndarray) -> int:
        c = counts.astype(np.int64)
        return int(np.sum(c * (c - 1))) // 2

    shape = _index_count(a), _index_count(b)
    if shape[0] * shape[1] <= n:
        table = _joint_counts(a, b, shape)
        together_a = same_pairs(table.sum(axis=1))
        together_b = same_pairs(table.sum(axis=0))
        together_both = same_pairs(table)
    else:
        inv_a = np.unique(a, return_inverse=True)[1].astype(np.int64, copy=False)
        inv_b = np.unique(b, return_inverse=True)[1]
        together_a = same_pairs(np.bincount(inv_a))
        together_b = same_pairs(np.bincount(inv_b))
        # The run lengths of the sorted joint labels count its nonempty
        # cells; a bincount would allocate all Ua * Ub of them.
        joint = inv_a
        joint *= int(inv_b.max()) + 1
        joint += inv_b
        joint.sort()
        starts = np.flatnonzero(joint[1:] != joint[:-1]) + 1
        together_both = same_pairs(np.diff(starts, prepend=0, append=n))
    disagreements = (together_a - together_both) + (together_b - together_both)
    return 1.0 - disagreements / (n * (n - 1) // 2)


def _index_count(labels: np.ndarray) -> float:
    """max(labels) + 1 for non-empty labels that are non-negative
    integers, else infinity."""
    if not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0:
        return math.inf
    return int(labels.max()) + 1
