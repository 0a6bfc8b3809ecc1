"""The Lloyd loop of every clusterer in the package, and the Euclidean
nearest-center scan that k-means, codebook training and encoding share.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.spatial.distance import cdist

# Float64 elements per assignment block: 512 KiB of scratch stays in L2
# across the M gathers of one block, where a larger block spills to memory.
_BLOCK_ELEMENTS = 1 << 16

# Rows per chunk of a counting pass over all N points: the pass holds one
# chunk of index scratch, never an N-sized index array.
_CHUNK_ROWS = 1 << 16


@dataclass
class IterationStats:
    """Per-iteration record of a clustering run.

    The objective is the mean non-squared distance of every point to its
    assigned center, measured right after the assignment step. The
    squared variant of the same quantity is kept alongside it. For
    bkmeans_fit the distance is the Hamming distance.

    label_changes counts the points whose label differs from the previous
    iteration's, moved_centers the centers whose code differs from the
    previous iteration's, and rescanned_points the points compared against
    every center. The first iteration reports N, K and N. fit, kmeans_fit
    and bkmeans_fit fill all three.
    """

    iteration: int
    objective: float
    objective_sq: float
    assign_seconds: float
    update_seconds: float
    repaired_clusters: int = 0
    mean_histogram_nnz: float | None = None
    label_changes: int | None = None
    moved_centers: int | None = None
    rescanned_points: int | None = None


@dataclass
class ClusteringResult:
    """Output of a clustering run.

    Attributes:
        centers: Final centers, one row per cluster. PQ codes (uint8) for
            code-domain clustering; baselines store their own center types.
        labels: uint32 cluster index per point, computed against the
            centers that preceded the last update. At convergence the two
            coincide.
        trace: One IterationStats per executed iteration.
        iterations_run: len(trace).
        converged: True when the objective repeated exactly between two
            consecutive iterations before the iteration cap.
    """

    centers: np.ndarray
    labels: np.ndarray
    trace: list[IterationStats] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False


@contextmanager
def _range_runner(threads: int, n: int, width: int):
    """Yield run(task), which calls task(start, stop, scratch) per range.

    [0, N) is split into min(threads, N) contiguous ranges, one per worker
    thread. Each range owns a scratch pair for scans over up to `width`
    columns, allocated once here rather than per scan. run returns the
    tasks' results in range order. A row's label depends on that row
    alone, so any split gives the same labels.
    """
    parts = max(1, min(threads, n))
    edges = [n * t // parts for t in range(parts + 1)]
    # A scan over w columns uses max(1, _BLOCK_ELEMENTS // w) * w elements.
    size = max(_BLOCK_ELEMENTS, width)
    scratch = [(np.empty(size), np.empty(size)) for _ in range(parts)]
    if parts == 1:
        yield lambda task: [task(0, n, scratch[0])]
        return
    with ThreadPoolExecutor(max_workers=parts) as pool:

        def run(task):
            futures = [
                pool.submit(task, edges[t], edges[t + 1], scratch[t])
                for t in range(parts)
            ]
            return [future.result() for future in futures]

        yield run


def _squared_objectives(dists: np.ndarray) -> tuple[float, float]:
    """Mean distance and mean squared distance from squared distances."""
    return float(np.mean(np.sqrt(dists))), float(np.mean(dists))


def _lloyd(codes, centers, max_iterations, threads, assign_step, update_all, objectives):
    """The Lloyd loop of every clusterer in the package, on validated points.

    assign_step(centers, moved, labels, dists, run) writes each point's
    nearest center and its distance to it, and returns (labels changed,
    points rescanned). moved is None on the first call, which scans every
    point, then the indices of the centers that changed; no change skips
    the step. objectives(dists) gives the trace's (objective, objective_sq).
    update_all(codes, labels, counts) returns the new centers and the mean
    histogram support, NaN for none. The loop stops when the objective
    repeats exactly. Each empty cluster is re-seeded on a different row of
    codes, the one with the largest kept distance to the center it was
    assigned to (lowest index on ties).
    """
    n, k = len(codes), len(centers)
    trace: list[IterationStats] = []
    labels = np.empty(n, dtype=np.uint32)
    dists = np.empty(n, dtype=np.float64)
    assigned_to = None  # the centers that labels and dists were scanned against
    previous = None
    with _range_runner(threads, n, k) as run:
        for iteration in range(1, max_iterations + 1):
            start = time.perf_counter()
            moved = None
            if assigned_to is not None:
                moved = np.flatnonzero(np.any(centers != assigned_to, axis=1))
            changes = rescanned = 0
            if moved is None or len(moved):
                changes, rescanned = assign_step(centers, moved, labels, dists, run)
            assigned_to = centers
            assign_seconds = time.perf_counter() - start

            objective, objective_sq = objectives(dists)
            stats = IterationStats(
                iteration, objective, objective_sq, assign_seconds, 0.0,
                label_changes=changes,
                moved_centers=k if moved is None else len(moved),
                rescanned_points=rescanned,
            )
            trace.append(stats)
            if previous is not None and objective == previous:
                return ClusteringResult(centers, labels, trace, len(trace), True)

            start = time.perf_counter()
            counts = _chunked_counts(labels, k)
            centers, mean_nnz = update_all(codes, labels, counts)
            empty = np.flatnonzero(counts == 0)
            if len(empty):
                own = dists.copy()
                for ki in empty:
                    far = int(np.argmax(own))
                    centers[ki] = codes[far]
                    own[far] = -np.inf
            stats.update_seconds = time.perf_counter() - start
            stats.repaired_clusters = len(empty)
            stats.mean_histogram_nnz = None if math.isnan(mean_nnz) else mean_nnz
            previous = objective
    return ClusteringResult(centers, labels, trace, len(trace), False)


def _chunked_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """np.bincount(labels, minlength=k), one chunk of labels at a time."""
    counts = np.zeros(k, dtype=np.intp)
    for a in range(0, len(labels), _CHUNK_ROWS):
        np.add.at(counts, labels[a : a + _CHUNK_ROWS], 1)
    return counts


def cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster float64 means; rows of empty clusters are zero."""
    points = np.asarray(points)  # bincount casts one column at a time
    labels = labels.astype(np.intp)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.stack(
        [
            np.bincount(labels, weights=points[:, d], minlength=k)
            for d in range(points.shape[1])
        ],
        axis=1,
    )
    return np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)


def _assigned_sq_distances(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Squared distance of each row to its center in float64; callers pass
    blocks of rows, since the difference is a rows × D temporary."""
    return np.sum((points - centers[labels]) ** 2, axis=1)


def _nearest_center_range(points, centers, labels, dists, start, stop, scratch) -> int:
    """Nearest center of the rows of [start, stop) by cdist, lowest index on
    ties, one cache block of the runner's scratch at a time. Writes labels
    and, when given, the squared distances as _assigned_sq_distances sums
    them; returns the number of labels that changed."""
    k = len(centers)
    block = max(1, _BLOCK_ELEMENTS // k)
    changes = 0
    for a in range(start, stop, block):
        b = min(a + block, stop)
        sq = scratch[0][: (b - a) * k].reshape(b - a, k)
        cdist(points[a:b], centers, "sqeuclidean", out=sq)
        best = sq.argmin(axis=1)
        changes += int(np.count_nonzero(best != labels[a:b]))
        labels[a:b] = best
        if dists is not None:
            dists[a:b] = _assigned_sq_distances(points[a:b], centers, best)
    return changes


def _kmeans_assign(points, centers, moved, labels, dists, run) -> tuple[int, int]:
    """Assignment step of _lloyd on raw vectors: every point against every
    center."""
    changes = sum(run(partial(_nearest_center_range, points, centers, labels, dists)))
    return (len(points) if moved is None else changes), len(points)


def _means_update_all(points, labels, counts):
    return cluster_means(points, labels, len(counts)), math.nan
