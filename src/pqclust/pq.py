"""Product quantization core.

A product quantizer splits a D-dimensional vector into M contiguous
sub-vectors and quantizes each one against its own codebook of L
codewords. A vector is then represented by M small integer indices
(one byte each, so L <= 256). Squared distances between two encoded
vectors are recovered from per-subspace lookup tables of squared
inter-codeword distances, without touching the original vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.spatial.distance import cdist

from .lloyd import _MAX32, _check_indices, _kmeans, _nearest_center_range, _range_runner

MAX_CODEWORDS = 256

# Rows per chunk of _paired_distance_sq without scratch of the caller's: at
# M=4 its index and its gathered table entries take 256 KiB each. 2**14
# rows, 1 MiB in all, ran 1.5-2x slower on one thread, as did 2**16.
_PAIRED_ROWS = 1 << 13


@dataclass(frozen=True)
class PQCodebook:
    """Trained codewords of a product quantizer.

    Attributes:
        codewords: Array of shape (M, L, D // M), float32. Subspace m
            quantizes the slice [m * D//M, (m+1) * D//M) of a vector
            against codewords[m].
    """

    codewords: np.ndarray

    def __post_init__(self) -> None:
        cw = np.asarray(self.codewords, dtype=np.float32)
        if cw.ndim != 3:
            raise ValueError(f"codewords must have shape (M, L, D/M), got {cw.shape}")
        if not 2 <= cw.shape[1] <= MAX_CODEWORDS:
            raise ValueError(
                f"codeword count L={cw.shape[1]} outside [2, {MAX_CODEWORDS}]"
            )
        if not np.all(np.isfinite(cw)):
            raise ValueError("codewords must be finite")
        cw = np.ascontiguousarray(cw)
        cw.flags.writeable = False
        object.__setattr__(self, "codewords", cw)

    @property
    def num_subspaces(self) -> int:
        return self.codewords.shape[0]

    @property
    def num_codewords(self) -> int:
        return self.codewords.shape[1]

    @property
    def subspace_dim(self) -> int:
        return self.codewords.shape[2]

    @property
    def dim(self) -> int:
        return self.codewords.shape[0] * self.codewords.shape[2]


@dataclass(frozen=True)
class DistanceTables:
    """Per-subspace squared distances between all codeword pairs.

    Attributes:
        tables: Array of shape (M, L, L), float64. tables[m, i, j] is
            the squared Euclidean distance between codewords i and j of
            subspace m. Each slice is symmetric with a zero diagonal.
    """

    tables: np.ndarray

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(self.tables, dtype=np.float64)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise ValueError(f"tables must have shape (M, L, L), got {t.shape}")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ValueError("table entries must be finite and non-negative")
        if np.any(t.diagonal(axis1=1, axis2=2) != 0.0):
            raise ValueError("table diagonals must be exactly zero")
        if not np.array_equal(t, np.swapaxes(t, 1, 2)):
            raise ValueError("tables must be symmetric")
        t.flags.writeable = False
        object.__setattr__(self, "tables", t)

    @property
    def num_subspaces(self) -> int:
        return self.tables.shape[0]

    @property
    def num_codewords(self) -> int:
        return self.tables.shape[1]

    @cached_property
    def _float32_sums(self) -> tuple[bool, bool]:
        """(finite, exact) for every float32 sum of one entry per subspace,
        each entry rounded to float32: finite unless M times the largest
        entry exceeds half the float32 range; exact when, besides, every
        entry is an integer and M times the largest is below 2**24."""
        t = self.tables
        top = t.shape[0] * float(t.max(initial=0.0))
        exact = top < 2**24 and all(np.array_equal(np.floor(table), table) for table in t)
        return top <= _MAX32 / 2, exact


def _check_finite(arr: np.ndarray, name: str, first_row: int = 0) -> None:
    """Raise ValueError naming the first row of a 2-d float32 array that
    holds NaN or infinity, rows counted from first_row."""
    # A float64 sum of float32 values is finite exactly when they all are.
    if not np.isfinite(arr.sum(dtype=np.float64)):
        row = first_row + int(np.argmin(np.isfinite(arr).all(axis=1)))
        raise ValueError(f"{name} must be finite, row {row} holds NaN or infinity")


def train_codebook(
    train_vectors: np.ndarray,
    num_subspaces: int,
    num_codewords: int,
    iterations: int = 20,
    seed: int = 0,
    *,
    threads: int = 1,
) -> PQCodebook:
    """Train per-subspace codebooks with k-means.

    Each of the M subspaces is clustered independently with Lloyd's
    algorithm, k = L, in float64 on the package's Lloyd driver. Initial
    codewords are sampled from the training sub-vectors under the given
    seed, one shared generator drawing the M samples in subspace order.
    A subspace runs `iterations` iterations, or stops early when an
    update moves no codeword.
    A codeword left with no assigned vectors is re-seeded on the training
    sub-vector farthest from the codeword it was assigned to before the
    update, not from the updated mean (lowest index on ties). The result
    is deterministic for fixed inputs and seed.

    Args:
        train_vectors: Training vectors, shape (N, D), finite. D must be
            divisible by num_subspaces and N must be at least num_codewords.
        num_subspaces: Number of subspaces M.
        num_codewords: Codewords per subspace L, between 2 and 256.
        iterations: Lloyd iterations per subspace.
        seed: Seed for codeword initialization.
        threads: Worker threads for the assignment scan. The codebook is
            identical for every value.

    Returns:
        A PQCodebook with float32 codewords of shape (M, L, D // M).
    """
    vectors = np.asarray(train_vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError(f"train_vectors must be 2-d, got shape {vectors.shape}")
    n, dim = vectors.shape
    if num_subspaces < 1 or dim % num_subspaces != 0:
        raise ValueError(
            f"dimension {dim} is not divisible into {num_subspaces} subspaces"
        )
    if not 2 <= num_codewords <= MAX_CODEWORDS:
        raise ValueError(f"num_codewords must be in [2, {MAX_CODEWORDS}], got {num_codewords}")
    if n < num_codewords:
        raise ValueError(
            f"need at least {num_codewords} training vectors, got {n}"
        )
    if iterations < 1:
        raise ValueError(f"iterations must be positive, got {iterations}")
    _check_finite(vectors, "training vectors")
    sub_dim = dim // num_subspaces
    rng = np.random.default_rng(seed)
    books = np.empty((num_subspaces, num_codewords, sub_dim), dtype=np.float32)
    for m in range(num_subspaces):
        # float32 sub-vectors enter every float64 operation exactly.
        sub = vectors[:, m * sub_dim : (m + 1) * sub_dim]
        centers = sub[rng.choice(n, size=num_codewords, replace=False)].astype(np.float64)
        books[m] = _kmeans(sub, centers, iterations, threads).centers
    return PQCodebook(books)


def encode(codebook: PQCodebook, vectors: np.ndarray, *, threads: int = 1) -> np.ndarray:
    """Quantize vectors to PQ codes.

    Every sub-vector maps to the index of its nearest codeword by squared
    Euclidean distance, lowest index on ties. The scan takes a cache
    block of rows at a time: no N x L distance matrix is built.

    Args:
        codebook: Trained codebook.
        vectors: One vector of shape (D,) or a batch of shape (N, D),
            finite.
        threads: Worker threads for the scan. The codes are identical for
            every value.

    Returns:
        uint8 codes, shape (M,) for a single vector or (N, M) for a batch.
    """
    arr = np.asarray(vectors, dtype=np.float32)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != codebook.dim:
        raise ValueError(
            f"vectors have dimension {arr.shape[1]}, codebook expects {codebook.dim}"
        )
    _check_finite(arr, "vectors")
    sub_dim = codebook.subspace_dim
    codes = np.empty((len(arr), codebook.num_subspaces), dtype=np.uint8)
    with _range_runner(threads, len(arr), max(codebook.num_codewords, sub_dim)) as run:
        for m in range(codebook.num_subspaces):
            sub = arr[:, m * sub_dim : (m + 1) * sub_dim]
            codewords = codebook.codewords[m].astype(np.float64)
            run(partial(_nearest_center_range, sub, codewords, codes[:, m]))
    return codes[0] if single else codes


def decode(codebook: PQCodebook, codes: np.ndarray) -> np.ndarray:
    """Reconstruct approximate vectors by codeword lookup.

    Args:
        codebook: Trained codebook.
        codes: uint8 codes, shape (M,) or (N, M).

    Returns:
        float32 vectors of shape (D,) or (N, D) built by concatenating
        the selected codeword of every subspace.
    """
    arr = np.asarray(codes)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    arr = _check_indices(arr, (None, codebook.num_subspaces), codebook.num_codewords, "codes")
    parts = [codebook.codewords[m][arr[:, m]] for m in range(codebook.num_subspaces)]
    out = np.concatenate(parts, axis=1)
    return out[0] if single else out


def build_distance_tables(codebook: PQCodebook) -> DistanceTables:
    """Precompute squared inter-codeword distances for every subspace.

    Args:
        codebook: Trained codebook.

    Returns:
        DistanceTables of shape (M, L, L), float64.
    """
    m_count, l_count, _ = codebook.codewords.shape
    tables = np.empty((m_count, l_count, l_count), dtype=np.float64)
    for m in range(m_count):
        cw = codebook.codewords[m].astype(np.float64)
        tables[m] = cdist(cw, cw, "sqeuclidean")
    return DistanceTables(tables)


def paired_distance_sq(tables: DistanceTables, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared symmetric distance for row-aligned code batches.

    Args:
        tables: Precomputed distance tables.
        a: Codes of shape (N, M).
        b: Codes of shape (N, M).

    Returns:
        float64 array of shape (N,). Entry n sums tables[m][a[n, m], b[n, m]]
        over subspaces.
    """
    a = _check_indices(a, (None, tables.num_subspaces), tables.num_codewords, "a")
    b = _check_indices(b, a.shape, tables.num_codewords, "b")
    return _paired_distance_sq(tables, a, _flat_offsets(tables, b))


def _flat_offsets(tables: DistanceTables, centers: np.ndarray) -> np.ndarray:
    """The (K, M) intp offsets of checked codes into the flattened tables:
    entry (k, m) is m·L·L + centers[k, m]·L. The tables are symmetric, so
    a code x's entry to center k in subspace m sits at flat index
    offsets[k, m] + x[m]. Built once per centers array, and M·K·8 bytes."""
    l_count = tables.num_codewords
    offsets = np.multiply(centers, np.intp(l_count), dtype=np.intp)
    offsets += np.arange(0, offsets.shape[1] * l_count * l_count, l_count * l_count)
    return offsets


def _paired_distance_sq(
    tables: DistanceTables, a: np.ndarray, offsets: np.ndarray, rows=None, out=None, scratch=None
) -> np.ndarray:
    """paired_distance_sq of codes already checked against the tables: (N, M)
    codes a against the centers whose _flat_offsets are offsets, row n of a
    against row rows[n] of offsets, or row n when rows is None. Writes into
    out when given, else into a new array, and returns it.

    Entry n is the table entry of subspace 0 plus those of the later
    subspaces, added in subspace order: the sum, bit for bit, that
    clustering's scan forms for the pair. Every distance the package
    recomputes for a code and a center comes from here. Rows are taken a
    chunk at a time, each with one (chunk, M) index array and one gather of
    its table entries for all subspaces. Both live in the float64 scratch
    when given, which sets the chunk to len(scratch) // 2M rows, else in a
    buffer of _PAIRED_ROWS rows made here.
    """
    m_count = tables.num_subspaces
    n = len(a)
    flat = tables.tables.reshape(-1)
    if out is None:
        out = np.empty(n)
    if scratch is None or len(scratch) < 2 * m_count:
        scratch = np.empty(2 * m_count * max(1, min(n, _PAIRED_ROWS)))
    chunk = len(scratch) // (2 * m_count)
    index_buf = scratch[: m_count * chunk].view(np.intp)
    values_buf = scratch[m_count * chunk : 2 * m_count * chunk]
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        index = index_buf[: m_count * (stop - start)].reshape(-1, m_count)
        if rows is None:
            index[:] = offsets[start:stop]
        else:
            # mode="clip" gathers straight into out; the rows are checked.
            np.take(offsets, rows[start:stop], axis=0, out=index, mode="clip")
        np.add(index, a[start:stop], out=index, casting="unsafe")
        values = values_buf[: m_count * (stop - start)].reshape(-1, m_count)
        np.take(flat, index, out=values, mode="clip")
        acc = out[start:stop]
        acc[:] = values[:, 0]  # the sum starts at subspace 0's entry
        for m in range(1, m_count):
            acc += values[:, m]
    return out
