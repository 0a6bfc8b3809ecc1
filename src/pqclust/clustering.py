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
from .lloyd import _joint_counts, _lloyd, _mean_of, _range_runner, _squared_objectives
from .pq import DistanceTables, paired_distance_sq

# Rows per selection group of the incremental assignment: each group picks
# the rows it must scan, scans them in cache blocks, then merges them.
# Selecting per cache block instead costs more numpy calls than the lookups
# it saves. 8192-row groups took 3-12% more time than these over a fit's
# incremental iterations at K=64-1000 (2 vCPUs, 1 and 2 threads).
_GROUP_ROWS = 16384


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


def _scan(codes, columns, labels, dists, start, stop, scratch) -> None:
    """Nearest column for every code row of [start, stop), lowest index on
    ties.

    Writes the column index into labels and, when given, its squared
    distance into dists. Each block sums the M gathers into the scratch
    in subspace order, so a distance is bit-identical to
    paired_distance_sq's for the same pair.
    """
    width = columns[0].shape[1]
    block = max(1, _BLOCK_ELEMENTS // width)
    acc_buf, tmp_buf = scratch
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
        labels[a:b] = best
        if dists is not None:
            dists[a:b] = acc[np.arange(b - a), best]


def _merge(codes, columns, ids, pick, labels, dists, start, stop, scratch):
    """Scan the rows of [start, stop) that pick(own, dist) selects from
    each group's labels and distances, against columns whose column c is
    center ids[c] (all centers when ids is None). A row moves to its best
    center j there when (d_j, j) < (d_a, a) for its current center a and
    kept distance d_a.

    Returns (labels changed, rows scanned).
    """
    changes = scanned = 0
    for g in range(start, stop, _GROUP_ROWS):
        h = min(g + _GROUP_ROWS, stop)
        own, dist = labels[g:h], dists[g:h]
        rows = np.flatnonzero(pick(own, dist))
        if len(rows) == 0:
            continue
        best = np.empty(len(rows), dtype=labels.dtype)
        best_dist = np.empty(len(rows))
        _scan(codes[g:h][rows], columns, best, best_dist, 0, len(rows), scratch)
        if ids is not None:
            best = ids[best]
        kept, kept_dist = own[rows], dist[rows]
        wins = best_dist < kept_dist
        wins |= (best_dist == kept_dist) & (best < kept)
        scanned += len(rows)
        rows, best = rows[wins], best[wins]
        changes += int(np.count_nonzero(best != own[rows]))
        own[rows] = best
        dist[rows] = best_dist[wins]
    return changes, scanned


def _keep_or_mark(moved_mask, own, dist):
    """Pick the rows whose center kept its code; set the others' kept
    distance to +inf, which every distance beats."""
    lost = moved_mask[own]
    dist[lost] = np.inf
    return ~lost


def _marked(own, dist):
    """Pick the rows that _keep_or_mark marked."""
    return dist == np.inf


def _table_assign(codes, tables, centers, moved, labels, dists, run) -> tuple[int, int]:
    """Assignment step of _lloyd through the lookup tables.

    The first call (moved is None) scans every row against every center.
    A later one updates labels and dists in place after the centers in
    `moved`, a non-empty index array, changed. A row whose center kept its
    code keeps its distance bit for bit, and so does every other unmoved
    center j, which lost to the label before: d_j > d_a, or d_j == d_a with
    j > a. Pass 1 therefore merges such a row with the moved centers alone,
    and marks every other row +inf. Pass 2 merges the marked rows with all
    centers; any finite distance beats +inf. The labels are then exactly
    the full scan's, ties included.

    Returns (labels changed, rows scanned against every center).
    """
    if moved is None:
        run(partial(_scan, codes, _center_columns(tables, centers), labels, dists))
        return len(codes), len(codes)
    moved_mask = np.zeros(len(centers), dtype=bool)
    moved_mask[moved] = True
    # The moved centers' columns and the full columns are never held at
    # the same time: each pass builds its own and drops it.
    columns = _center_columns(tables, centers[moved])
    pick = partial(_keep_or_mark, moved_mask)
    results = run(partial(_merge, codes, columns, moved, pick, labels, dists))
    del columns
    changes = sum(r[0] for r in results)
    stale = len(codes) - sum(r[1] for r in results)
    if stale:
        columns = _center_columns(tables, centers)
        results = run(partial(_merge, codes, columns, None, _marked, labels, dists))
        changes += sum(r[0] for r in results)
    return changes, stale


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
    return paired_distance_sq(tables, codes, centers[assignment])


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
    centers and each cluster's member count."""
    counts = np.bincount(labels, minlength=k)
    centers = np.zeros((k, tables.num_subspaces), dtype=np.uint8)
    order = np.argsort(labels, kind="stable")
    stops = np.cumsum(counts)
    starts = stops - counts
    for ki in np.flatnonzero(counts > 0):
        members = codes[order[starts[ki] : stops[ki]]]
        centers[ki] = update_center_naive(members, tables)
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

    The first assignment scans every point against every center. Each
    later one keeps the labels and the squared distances to the assigned
    centers. It compares the points whose center kept its code against the
    moved centers alone, then the points whose center moved, marked with
    distance +inf, against every center, by one merge rule; the labels are
    exactly those of a full scan (see _table_assign). The kept distances
    are the objective.

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
        partial(update_all, tables=tables), _squared_objectives,
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
    * dists, each point's float64 squared distance to its center, kept for
      the whole run: 8 bytes per point;
    * two float64 scan blocks of max(2**16, K) elements per thread;
    * the float64 distance tables, M * L * L * 8 bytes, and the center
      columns the scan gathers from, M * L * K * 8 bytes.

    Every other pass over the N points holds one fixed-size chunk of
    scratch: the objective takes its square roots 2**16 at a time, and the
    farthest-point repair keeps one chunk of candidates and at most K
    indices. Pure arithmetic, no allocation.
    """
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be non-negative, got n={n}, k={k}")
    if num_subspaces < 1 or num_codewords < 2 or threads < 1:
        raise ValueError(
            f"need M >= 1, L >= 2 and threads >= 1, got M={num_subspaces}, "
            f"L={num_codewords}, threads={threads}"
        )
    per_point = num_subspaces + 4 + 8
    scratch = 2 * 8 * max(_BLOCK_ELEMENTS, k) * max(1, min(threads, n))
    tables = 8 * num_subspaces * num_codewords * (num_codewords + k)
    return per_point * n + scratch + tables
