"""K-means clustering directly on PQ codes.

Points and cluster centers are both PQ codes. Distances come from the
per-subspace lookup tables, so no original vector is touched after
encoding. The update step picks each center's per-subspace codeword by
voting over a histogram of the members' subindices, a plain (L,) count
array, which costs O(N_k + L * nnz(h)) per cluster and subspace instead
of the O(L * N_k) of the naive candidate scan, while returning the same
index. One sparse vote, _vote, serves every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from scipy import sparse

# IterationStats is imported so that callers can still name it here.
from .lloyd import _BLOCK_ELEMENTS, ClusteringResult, IterationStats, _check_indices
from .lloyd import _joint_counts, _lloyd, _mean_of, _range_runner
from .pq import DistanceTables, _flat_offsets, _paired_distance_sq

# Rows per selection group of the incremental assignment: each group picks
# the rows it must scan, scans them in cache blocks, then merges them.
# Selecting per cache block instead costs more numpy calls than the lookups
# it saves. 8192-row groups took 3-12% more time than these over a fit's
# incremental iterations at K=64-1000 (2 vCPUs, 1 and 2 threads).
_GROUP_ROWS = 16384

# The top bit of a uint32 label: pass 1 of the incremental assignment marks
# the rows that pass 2 rescans with it.
_MARK = np.uint32(1 << 31)

# An incremental step after more than this share of the centers moved is a
# full scan instead: the two passes then scan nearly every column for most
# rows and add the recomputes, selections and merges on top. Two passes
# over a full scan, on one thread from a real first Lloyd step: 1.30, 1.21,
# 1.25, 1.11, 1.07 and 0.97 with 4, 8, 16, 24, 32 and 48 of K=100 centers
# kept, 0.81 with 64 kept (500k codes); 0.78-0.84 with 343 of K=1000 kept
# (200k codes).
_FULL_SCAN_MOVED = 3 / 4


def build_histogram(subindices: np.ndarray, num_codewords: int) -> np.ndarray:
    """Tally subindices of one cluster's members into L bins.

    Args:
        subindices: The members' subindices in one subspace: 1-d integers
            (not bool) in [0, L), else ValueError naming them.
        num_codewords: Number of bins L.

    Returns:
        The plain int64 counts of shape (L,): counts[l] is the number of
        members whose subindex is l, and the counts sum to len(subindices).
    """
    values = _check_indices(subindices, (None,), num_codewords, "subindices")
    return np.bincount(values.astype(np.intp), minlength=num_codewords)


def update_center_naive(member_codes: np.ndarray, tables: DistanceTables) -> np.ndarray:
    """Recompute one center by scanning every candidate codeword.

    For each subspace the chosen codeword minimizes the summed tabulated
    squared distance to all member subindices (lowest index on ties).
    Cost is O(L * N_k) per subspace.
    """
    shape, bound = (None, tables.num_subspaces), tables.num_codewords
    codes = _check_indices(member_codes, shape, bound, "member_codes")
    if len(codes) == 0:
        raise ValueError("cannot update a center from an empty cluster")
    return _naive_vote(codes, tables)


def _naive_vote(codes: np.ndarray, tables: DistanceTables) -> np.ndarray:
    """update_center_naive of member codes already checked: per subspace,
    the codeword whose summed table entries to the members are least."""
    center = np.empty(tables.num_subspaces, dtype=np.uint8)
    for m in range(tables.num_subspaces):
        costs = tables.tables[m][codes[:, m]].sum(axis=0)
        center[m] = np.argmin(costs)
    return center


def update_center_sparse(histograms: Sequence[np.ndarray], tables: DistanceTables) -> np.ndarray:
    """Recompute one center from per-subspace member histograms.

    histograms[m] counts the members' subindices in subspace m, as
    build_histogram returns them: (L,) integers (not bool), non-negative and
    not all zero, else ValueError naming subspace m. Each subspace takes
    _vote, the sparse vote of fit's update, at O(L * nnz). Picks the same
    codeword indices as update_center_naive on the same members.
    """
    if len(histograms) != tables.num_subspaces:
        raise ValueError(
            f"expected {tables.num_subspaces} histograms, got {len(histograms)}"
        )
    center = np.empty(tables.num_subspaces, dtype=np.uint8)
    for m, counts in enumerate(histograms):
        name = f"histogram for subspace {m}"
        counts = _check_indices(counts, (tables.num_codewords,), math.inf, name)
        if not np.any(counts):
            raise ValueError(f"{name} is empty")
        center[m] = _vote(counts[None, :], tables.tables[m])[0]
    return center


def _vote(histograms: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per row of the (rows, L) histograms, the codeword whose votes
    sum_j counts[j] * table[j, l] are least, lowest index on ties. The rows
    are held as a CSR matrix, so a row costs O(nnz * L) and sums its terms
    in codeword order."""
    return (sparse.csr_array(histograms) @ table).argmin(axis=1)


def init_centers(codes: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Pick K initial centers by sampling input codes without replacement."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-d, got shape {codes.shape}")
    if not 1 <= k <= len(codes):
        raise ValueError(f"k must be in [1, {len(codes)}], got {k}")
    rng = np.random.default_rng(seed)
    return codes[rng.choice(len(codes), size=k, replace=False)].copy()


def _first_centers(points, k, max_iterations, seed, initial_centers) -> np.ndarray:
    """The set-up every Lloyd fit shares on its (N, width) points: checks
    1 <= k <= N and max_iterations >= 1, and returns init_centers' seeded
    sample, or initial_centers once its shape is (K, width). The caller
    converts and checks the centers' values."""
    n, width = points.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    if initial_centers is None:
        return init_centers(points, k, seed)
    centers = np.asarray(initial_centers)
    if centers.shape != (k, width):
        raise ValueError(f"initial_centers has shape {centers.shape}, expected ({k}, {width})")
    return centers


def _center_columns(tables: DistanceTables, centers: np.ndarray) -> list[np.ndarray]:
    """(L, C) table slice per subspace; a scan then only gathers rows."""
    return [
        np.ascontiguousarray(tables.tables[m][:, centers[:, m]])
        for m in range(tables.num_subspaces)
    ]


def _scan(codes, columns, labels, dists, start, stop, scratch) -> int:
    """Nearest column for every code row of [start, stop), lowest index on
    ties.

    Writes the column index into labels and, when given, its squared
    distance into dists, and returns the number of labels that changed.
    Each block sums the M gathers into the scratch in subspace order, so a
    distance is bit-identical to paired_distance_sq's for the same pair.
    """
    width = columns[0].shape[1]
    block = max(1, _BLOCK_ELEMENTS // width)
    acc_buf, tmp_buf = scratch
    changes = 0
    for a in range(start, stop, block):
        b = min(a + block, stop)
        acc = acc_buf[: (b - a) * width].reshape(b - a, width)
        tmp = tmp_buf[: (b - a) * width].reshape(b - a, width)
        # mode="clip" gathers straight into out; codes are validated.
        np.take(columns[0], codes[a:b, 0], axis=0, out=acc, mode="clip")
        for m in range(1, len(columns)):
            np.take(columns[m], codes[a:b, m], axis=0, out=tmp, mode="clip")
            acc += tmp
        best = acc.argmin(axis=1)
        changes += int(np.count_nonzero(best != labels[a:b]))
        labels[a:b] = best
        if dists is not None:
            dists[a:b] = acc[np.arange(b - a), best]
    return changes


def _table_distances(codes, tables, centers, labels):
    """_lloyd's distances for codes against centers through the tables: a
    function that writes each code row of [start, stop)'s squared distance
    to its labeled center into out, bit-identical to the scan's, through
    the float64 scratch."""
    offsets = _flat_offsets(tables, centers)

    def distances(start, stop, out, scratch):
        _paired_distance_sq(tables, codes[start:stop], offsets, labels[start:stop], out, scratch)

    return distances


def _merge_moved(codes, tables, offsets, old_offsets, moved, moved_mask, columns,
                 labels, start, stop, scratch) -> tuple[int, int]:
    """Pass 1 of the incremental assignment over the rows of [start, stop),
    one group at a time; columns are those of the moved centers, offsets
    and old_offsets the _flat_offsets of the centers and of assigned_to.

    For each row, u is its distance to its center a and, when a moved
    (moved_mask[a]), d_old its distance to a's old code. The far rows,
    whose center moved and whose u > d_old, get _MARK set in their label
    for pass 2. Every other row moves to its best moved center j when
    (d_j, j) < (u, a).

    Returns (labels changed, far rows).
    """
    changes = far_rows = 0
    # The recomputes run in the scan's first scratch, free until the scan.
    recompute = partial(_paired_distance_sq, tables, scratch=scratch[0])
    for g in range(start, stop, _GROUP_ROWS):
        h = min(g + _GROUP_ROWS, stop)
        group, own = codes[g:h], labels[g:h]
        stale = np.flatnonzero(moved_mask[own])
        u = recompute(group, offsets, own)
        # take along axis 0 copies a code row at once; codes[rows] goes
        # element by element and takes several times as long.
        d_old = recompute(group.take(stale, axis=0), old_offsets, own[stale])
        far = stale[u[stale] > d_old]
        far_rows += len(far)
        if len(far):
            own[far] |= _MARK
            rows = np.flatnonzero(own < _MARK)
            group, kept, u = group.take(rows, axis=0), own[rows], u[rows]
        else:
            kept = own
        best = np.empty(len(u), dtype=labels.dtype)
        best_dist = np.empty(len(u))
        _scan(group, columns, best, best_dist, 0, len(u), scratch)
        best = moved.take(best)
        wins = best_dist < u
        wins |= (best_dist == u) & (best < kept)
        changes += int(np.count_nonzero(wins))
        kept[wins] = best[wins]
        if len(far):
            own[rows] = kept
    return changes, far_rows


def _rescan_marked(codes, columns, labels, start, stop, scratch) -> int:
    """Pass 2 of the incremental assignment: the rows of [start, stop) that
    pass 1 marked get their nearest center among all columns, lowest index
    on ties, and lose the mark. Returns the number of labels that changed."""
    changes = 0
    for g in range(start, stop, _GROUP_ROWS):
        h = min(g + _GROUP_ROWS, stop)
        own = labels[g:h]
        rows = np.flatnonzero(own >= _MARK)
        if len(rows):
            kept = own[rows] ^ _MARK
            marked = codes[g:h].take(rows, axis=0)
            changes += _scan(marked, columns, kept, None, 0, len(rows), scratch)
            own[rows] = kept
    return changes


def _table_assign(codes, tables, centers, assigned_to, moved, labels, run) -> tuple[int, int]:
    """Assignment step of _lloyd through the lookup tables, holding no
    distance between iterations.

    The first call (moved is None), and any call after more than
    _FULL_SCAN_MOVED of the centers moved, scans every row against every
    center. Otherwise the centers in `moved` changed since assigned_to,
    the centers the labels were scanned against.
    Pass 1 (_merge_moved) recomputes, per group, every row's distance u to
    its center a and, for a moved a, its distance d_old to the old center,
    both summed in subspace order, so their bits are the scan's.

    An unmoved center j kept its distances, and it lost to the label
    before: (d_j, j) > (d_old, a), with d_old = u when a did not move. When
    u <= d_old, every unmoved j therefore still loses to (u, a), and only a
    moved center can win: pass 1 merges such a row with the moved centers
    alone. The other rows, whose center moved away from them (u > d_old),
    pass 1 marks with the top bit of their uint32 label, free while K <=
    2**31; pass 2 scans them against all centers, whose nearest is the
    label (a is among them). The labels are then exactly the full scan's,
    ties included. The moved centers' columns are dropped before the full
    columns are built, so the two are never held together.

    Returns (labels changed, rows scanned against every center).
    """
    full = moved is None or len(moved) > _FULL_SCAN_MOVED * len(centers)
    if full or len(centers) > _MARK:
        changes = sum(run(partial(_scan, codes, _center_columns(tables, centers), labels, None)))
        return (len(codes) if moved is None else changes), len(codes)
    moved_mask = np.zeros(len(centers), dtype=bool)
    moved_mask[moved] = True
    offsets = _flat_offsets(tables, centers), _flat_offsets(tables, assigned_to)
    merge = partial(_merge_moved, codes, tables, *offsets, moved, moved_mask)
    results = run(partial(merge, _center_columns(tables, centers[moved]), labels))
    changes = sum(r[0] for r in results)
    far = sum(r[1] for r in results)
    if far:
        rescan = partial(_rescan_marked, codes, _center_columns(tables, centers), labels)
        changes += sum(run(rescan))
    return changes, far


def assign(
    codes: np.ndarray,
    centers: np.ndarray,
    tables: DistanceTables,
    threads: int = 1,
) -> np.ndarray:
    """Assign every code to its nearest center.

    Args:
        codes: uint8 codes, shape (N, M).
        centers: uint8 center codes, shape (K, M).
        tables: Distance tables matching the codebook of the codes.
        threads: Worker threads for the scan. Results are identical for
            every value.

    Returns:
        uint32 labels of shape (N,), ties broken toward the lowest
        center index.
    """
    shape, bound = (None, tables.num_subspaces), tables.num_codewords
    codes = _check_indices(codes, shape, bound, "codes")
    centers = _check_indices(centers, shape, bound, "centers")
    if len(centers) == 0:
        raise ValueError("centers must be non-empty")
    labels = np.empty(len(codes), dtype=np.uint32)
    with _range_runner(threads, len(codes), len(centers)) as run:
        run(partial(_scan, codes, _center_columns(tables, centers), labels, None))
    return labels


def pq_cost(
    codes: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray,
    tables: DistanceTables,
) -> float:
    """Mean symmetric distance (non-squared) of points to assigned centers.
    codes (N, M), centers (K, M) and assignment (N,) must be integers (not
    bool) in [0, L), [0, L) and [0, K), else ValueError naming the input."""
    sd_sq = _assigned_distance_sq(codes, centers, assignment, tables)
    return _mean_of(np.sqrt, sd_sq) if len(sd_sq) else 0.0


def pq_cost_sq(
    codes: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray,
    tables: DistanceTables,
) -> float:
    """Mean squared symmetric distance of points to assigned centers."""
    sd_sq = _assigned_distance_sq(codes, centers, assignment, tables)
    return float(np.mean(sd_sq)) if len(sd_sq) else 0.0


def _assigned_distance_sq(
    codes: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray,
    tables: DistanceTables,
) -> np.ndarray:
    shape, bound = (None, tables.num_subspaces), tables.num_codewords
    codes = _check_indices(codes, shape, bound, "codes")
    centers = _check_indices(centers, shape, bound, "centers")
    assignment = _check_indices(assignment, (len(codes),), len(centers), "assignment")
    return _paired_distance_sq(tables, codes, _flat_offsets(tables, centers), assignment)


def _sparse_update_all(
    codes: np.ndarray, labels: np.ndarray, k: int, tables: DistanceTables
) -> tuple[np.ndarray, np.ndarray, float]:
    """update_center_sparse's vote for every cluster at once: per subspace,
    _vote on the (K, L) member histogram, whose row k counts the subindices
    of the codes labeled k. An empty cluster votes 0 and gets the zero code.

    The votes are taken one block of _BLOCK_ELEMENTS // L histogram rows
    at a time, and each row's vote is independent of the others, so the
    update holds one histogram and one block of votes, never a (K, L) vote
    matrix. Each histogram is freed before the next one is built.

    Returns the new centers, each cluster's member count (the first
    subspace's histogram row sums) and the mean histogram support size
    over all (non-empty cluster, subspace) pairs.
    """
    m_count, l_count = tables.num_subspaces, tables.num_codewords
    centers = np.empty((k, m_count), dtype=np.uint8)
    block = max(1, _BLOCK_ELEMENTS // l_count)
    nnz_total = 0
    for m, column in enumerate(codes.T):
        hist = _joint_counts(labels, column, (k, l_count))
        if m == 0:
            counts = hist.sum(axis=1)
        nnz_total += np.count_nonzero(hist)
        for a in range(0, k, block):
            centers[a : a + block, m] = _vote(hist[a : a + block], tables.tables[m])
        del hist
    return centers, counts, float(nnz_total / (np.count_nonzero(counts) * m_count))


def _naive_update_all(
    codes: np.ndarray, labels: np.ndarray, k: int, tables: DistanceTables
) -> tuple[np.ndarray, np.ndarray, None]:
    """Candidate-scan center update for all clusters at once; returns the
    centers and each cluster's member count. fit checked the codes once, so
    each cluster votes unchecked."""
    counts = np.bincount(labels, minlength=k)
    centers = np.zeros((k, tables.num_subspaces), dtype=np.uint8)
    order = np.argsort(labels, kind="stable")
    stops = np.cumsum(counts)
    starts = stops - counts
    for ki in np.flatnonzero(counts > 0):
        members = codes.take(order[starts[ki] : stops[ki]], axis=0)
        centers[ki] = _naive_vote(members, tables)
    return centers, counts, None


def fit(
    codes: np.ndarray,
    tables: DistanceTables,
    k: int,
    max_iterations: int = 20,
    seed: int = 0,
    *,
    threads: int = 1,
    update: str = "sparse",
    initial_centers: np.ndarray | None = None,
) -> ClusteringResult:
    """Cluster PQ codes with k-means in the compressed domain.

    Centers are initialized by sampling K input codes, then assignment
    and center update alternate. The run converges when an update moves
    no center (a fixed point of the two steps), or stops after
    max_iterations. Empty clusters are re-seeded on the code farthest
    from its assigned center (lowest index on ties) and counted in the
    trace. Deterministic for fixed inputs and seed, independent of the
    thread count.

    The first assignment scans every point against every center, and so
    does one after more than 3/4 of the centers moved. Each other one
    keeps only the labels: it recomputes each point's distance to its
    center, and to the old center when that moved, compares the points
    whose center moved away from them against every center and all others
    against the moved centers alone, by one merge rule; the labels are
    exactly those of a full scan (see _table_assign). The fit holds the
    codes, the labels and fixed-size scratch: one pass per iteration
    recomputes the distances for the objective and the repair.

    Args:
        codes: uint8 codes, shape (N, M).
        tables: Distance tables of the codebook that produced the codes.
        k: Number of clusters, 1 <= k <= N.
        max_iterations: Iteration cap.
        seed: Seed for center initialization.
        threads: Worker threads for the assignment step.
        update: "sparse" (histogram voting) or "naive" (candidate scan).
            Both produce identical centers.
        initial_centers: Optional (K, M) codes overriding the sampled
            initialization.

    Returns:
        ClusteringResult with uint8 centers of shape (K, M).
    """
    shape, bound = (None, tables.num_subspaces), tables.num_codewords
    codes = _check_indices(codes, shape, bound, "codes")
    if update not in ("sparse", "naive"):
        raise ValueError(f"update must be 'sparse' or 'naive', got {update!r}")
    centers = _first_centers(codes, k, max_iterations, seed, initial_centers)
    centers = _check_indices(centers, shape, bound, "initial_centers")
    update_all = _sparse_update_all if update == "sparse" else _naive_update_all
    return _lloyd(
        codes, centers, max_iterations, threads, partial(_table_assign, codes, tables),
        partial(update_all, tables=tables), partial(_table_distances, codes, tables), True,
    )


@dataclass(frozen=True)
class MemoryEstimate:
    """Itemized working-set model of a code-domain clustering run.

    All quantities are bytes under the standard cost model: codes and
    centers take M * log2(L) bits each, the distance tables 4 bytes per
    entry, the assignment array 4 bytes per point.
    """

    codes_bytes: float
    centers_bytes: float
    tables_bytes: float
    assignment_bytes: float

    @property
    def total_bytes(self) -> float:
        return (
            self.codes_bytes
            + self.centers_bytes
            + self.tables_bytes
            + self.assignment_bytes
        )


def estimate_memory(n: int, k: int, num_subspaces: int, num_codewords: int) -> MemoryEstimate:
    """Model the memory footprint of clustering N codes into K clusters.

    Pure arithmetic, no allocation.

    Args:
        n: Number of codes (>= 0).
        k: Number of centers (>= 0).
        num_subspaces: Subspace count M (>= 1).
        num_codewords: Codewords per subspace L (>= 2).

    Returns:
        MemoryEstimate with per-component byte counts.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be non-negative, got n={n}, k={k}")
    if num_subspaces < 1:
        raise ValueError(f"num_subspaces must be positive, got {num_subspaces}")
    if num_codewords < 2:
        raise ValueError(f"num_codewords must be at least 2, got {num_codewords}")
    code_bytes = num_subspaces * math.log2(num_codewords) / 8.0
    return MemoryEstimate(
        codes_bytes=code_bytes * n,
        centers_bytes=code_bytes * k,
        tables_bytes=4.0 * num_codewords**2 * num_subspaces,
        assignment_bytes=4.0 * n,
    )


def estimate_working_set(
    n: int, k: int, num_subspaces: int, num_codewords: int, threads: int = 1
) -> int:
    """Bytes that fit holds at its peak, counted from the arrays it allocates.

    Unlike estimate_memory's cost model, this is what a fit of N uint8
    codes into K clusters holds at once:

    * the codes, M bytes per point;
    * the uint32 labels, 4 bytes per point;
    * two float64 scan blocks of max(2**16, K) elements per thread;
    * the float64 distance tables, M * L * L * 8 bytes, and the center
      columns the scan gathers from, M * L * K * 8 bytes.

    No distance is kept between passes, so nothing else grows with N. The
    assignment recomputes the distances it compares against one group of
    rows at a time, in arrays of at most one group's rows per thread, and
    marks the rows it rescans in their labels. The objective and the
    farthest-point repair recompute every distance in one pass, one leaf
    of 2**16 rows per thread, in the scan blocks, and keep at most K
    candidate rows. The recomputes index the tables through the (K, M)
    flat offsets of the centers and of the previous centers, M * K * 8
    bytes each, 1/L of the center columns and not counted. The update
    holds O(K * L). Pure arithmetic, no allocation.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be non-negative, got n={n}, k={k}")
    if num_subspaces < 1 or num_codewords < 2 or threads < 1:
        raise ValueError(
            f"need M >= 1, L >= 2 and threads >= 1, got M={num_subspaces}, "
            f"L={num_codewords}, threads={threads}"
        )
    per_point = num_subspaces + 4
    scratch = 2 * 8 * max(_BLOCK_ELEMENTS, k) * max(1, min(threads, n))
    tables = 8 * num_subspaces * num_codewords * (num_codewords + k)
    return per_point * n + scratch + tables
