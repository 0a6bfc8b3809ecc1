"""The Lloyd loop of every clusterer in the package, and the Euclidean
nearest-center scan that k-means, codebook training and encoding share.

Every index array a caller passes in (codes, labels, subindices, counts)
goes through _check_indices: the expected shape, an integer dtype other
than bool and entries in [0, bound), or a ValueError naming the input.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist

# Float64 elements per assignment block: 512 KiB of scratch stays in L2
# across the M gathers of one block, where a larger block spills to memory.
_BLOCK_ELEMENTS = 1 << 16

# Rows per chunk of a counting pass over all N points: the pass holds one
# chunk of index scratch, never an N-sized index array.
_CHUNK_ROWS = 1 << 16

# Multiply-adds per float32 GEMM of the nearest-center scan. OpenBLAS runs a
# GEMM of at most 4 * 65536 multiply-adds on the calling thread; a larger one
# starts BLAS threads of its own beside the range runner's.
_GEMM_MULADDS = 1 << 18

# Rows per block of cluster_means: a block's float64 copy and sort keys are
# the whole of its scratch.
_MEAN_ROWS = 1 << 12

_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
_TINY32 = 2.0**-126  # smallest normal float32
_MAX32 = float(np.finfo(np.float32).max)


def _check_indices(values, shape: tuple, bound, name: str) -> np.ndarray:
    """values as an array once it has `shape` (None: any length), an integer
    dtype other than bool and every entry in [0, bound); else ValueError
    naming the input and giving the offending shape, dtype or entry."""
    arr = np.asarray(values)
    if arr.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):  # bool is no numpy integer type
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.size:
        low, high = arr.min(), arr.max()
        if low < 0 or high >= bound:
            raise ValueError(f"{name} must lie in [0, {bound}), got {low if low < 0 else high}")
    return arr


@dataclass
class IterationStats:
    """Per-iteration record of a clustering run.

    The objective is the mean non-squared distance of every point to its
    assigned center, measured right after the assignment step. The
    squared variant of the same quantity is kept alongside it. For
    bkmeans_fit the distance is the Hamming distance. assign_seconds times
    the assignment step; update_seconds times the update, the pass that
    recomputes the distances for the objectives and the repair, so the two
    cover the iteration.

    label_changes counts the points whose label differs from the previous
    iteration's, moved_centers the centers whose code differs from the
    previous iteration's, and rescanned_points the points compared against
    every center: every point in a full scan, as in the first iteration
    (N, K and N), in every kmeans_fit iteration and in fit's and
    bkmeans_fit's after more than 3/4 of the centers moved; in their
    incremental assignment, the points whose center moved and whose
    distance to it rose. An iteration that moved no center skips its
    assignment, reports 0, 0 and 0 and ends the run with the objectives of
    the iteration before. fit, kmeans_fit and bkmeans_fit fill all three.
    """

    iteration: int
    objective: float
    objective_sq: float
    assign_seconds: float
    update_seconds: float
    repaired_clusters: int = 0
    mean_histogram_nnz: float | None = None
    label_changes: int = 0
    moved_centers: int = 0
    rescanned_points: int = 0


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
        converged: True when an update moved no center before the cap: the
            last trace entry has moved_centers == label_changes == 0.
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
    columns (centers, or the dimensions of a row), allocated once here
    rather than per scan. run returns the tasks' results in range order.
    A row's label depends on that row alone, so any split gives the same
    labels. Every threaded function of the package enters here, so this
    is where a threads value below 1 is rejected.
    """
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    parts = max(1, min(threads, n))
    edges = [n * t // parts for t in range(parts + 1)]
    # A table scan over w columns uses max(1, _BLOCK_ELEMENTS // w) * w
    # elements of each; _nearest_center_range sizes its blocks to fit.
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


def _pairwise_sum(n: int, leaf, start: int = 0):
    """np.add.reduce of n float64 values to the last bit, from the sums of
    consecutive leaves: leaf(a, b) returns np.add.reduce of values [a, b),
    and is called on ranges of at most _CHUNK_ROWS rows, in row order.

    np.add.reduce on a contiguous float64 array is a pairwise sum (Higham,
    "The accuracy of floating point summation", SIAM J. Sci. Comput. 1993):
    a range longer than 128 splits at n/2, rounded down to a multiple of 8,
    and adds its two halves' sums. This makes the same splits down to
    ranges of at most _CHUNK_ROWS, where numpy's sum of the range is the
    sum of that subtree. The leaves are fixed by n alone.
    """
    if n <= _CHUNK_ROWS:
        return leaf(start, start + n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(half, leaf, start) + _pairwise_sum(n - half, leaf, start + half)


def _leaves(n: int) -> list[tuple[int, int]]:
    """The ranges [a, b) whose sums _pairwise_sum adds, in row order."""
    leaves: list[tuple[int, int]] = []
    _pairwise_sum(n, lambda a, b: leaves.append((a, b)) or 0.0)
    return leaves


def _mean_of(f, x: np.ndarray) -> float:
    """float(np.mean(f(x))) of a 1-d float64 x and an elementwise f, to the
    last bit, holding f of one leaf of _pairwise_sum at a time."""
    return float(_pairwise_sum(len(x), lambda a, b: np.add.reduce(f(x[a:b]))) / len(x))


def _measure(n: int, distances, squared: bool, e: int, run):
    """One pass over the n distances that distances(a, b, out, scratch)
    writes into out for the rows [a, b). Returns the trace's (objective,
    objective_sq), the means of (sqrt(d), d) when squared, else of (d, d²),
    and the rows of the e largest distances, largest first, lowest row on
    ties.

    Each worker of run recomputes the leaves of _pairwise_sum that begin in
    its range, one leaf at a time into its first scan block, with the
    second as the recompute's scratch; it sums both values of each leaf and
    keeps its e largest (see _farthest). The leaves' sums are added up
    numpy's tree, so each mean equals np.mean over all n values to the last
    bit, and the workers' picks merge in (distance, row) order: the thread
    count changes no bit and no row.
    """

    leaves = _leaves(n)

    def task(start, stop, scratch):
        sums, far = {}, (np.empty(0, dtype=np.intp), np.empty(0))
        for a, b in leaves:
            if start <= a < stop:
                d = scratch[0][: b - a]
                distances(a, b, d, scratch[1])
                if e:
                    far = _farthest(far, a, d, e)
                plain = np.add.reduce(d)
                other = np.sqrt(d, out=d) if squared else np.square(d, out=d)
                sums[a] = plain, np.add.reduce(other)
        return sums, far

    parts = run(task)
    sums = {a: pair for part, _ in parts for a, pair in part.items()}
    plain = float(_pairwise_sum(n, lambda a, b: sums[a][0]) / n)
    other = float(_pairwise_sum(n, lambda a, b: sums[a][1]) / n)
    rows, values = (np.concatenate(arrays) for arrays in zip(*(far for _, far in parts)))
    return ((other, plain) if squared else (plain, other)), _best(rows, values, e)[0]


def _farthest(best, a: int, chunk: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The e largest of best's (rows, values) and of the float64 values of
    chunk, whose first row is a and which follows every row of best: largest
    first, lowest row on ties, the rows that e rounds of argmax, each
    setting its pick to -inf, visit. Returns (rows, values).

    Once e are held, a row of chunk enters only by exceeding the least of
    them, since it loses a tie on its index. The order is total, so the e
    best of a union are the e best of the parts' e best: chunks can be
    taken one at a time, and ranges searched apart and merged.
    """
    rows, values = best
    if len(rows) == e:
        picks = np.flatnonzero(chunk > values[-1])
        picks = picks[_top(chunk[picks], e)]
    else:
        picks = _top(chunk, e)
    return _best(np.concatenate([rows, picks + a]), np.concatenate([values, chunk[picks]]), e)


def _top(values: np.ndarray, e: int) -> np.ndarray:
    """Indices of the e largest values, lowest index on ties, unordered:
    those above the e-th largest, then its ties in index order. Holds no
    more than one copy of values and one index per tie."""
    if len(values) <= e:
        return np.arange(len(values))
    least = np.partition(values, len(values) - e)[len(values) - e]
    above = np.flatnonzero(values > least)
    return np.concatenate([above, np.flatnonzero(values == least)[: e - len(above)]])


def _best(rows, values, e):
    """The e rows of largest values, largest first, lowest row on ties."""
    order = np.lexsort((rows, -values))[:e]
    return rows[order], values[order]


def _lloyd(codes, centers, max_iterations, threads, assign_step, update_all, distances, squared):
    """The Lloyd loop of every clusterer in the package, on validated points.

    The loop holds the points, their labels and fixed-size scratch: no
    N-sized float array. distances(centers, labels) returns a function of
    (a, b, out, scratch) that writes the distance of each row of [a, b) to
    its labeled center into out, with a float64 scratch buffer of the
    runner's. After each update one pass of _measure, on the workers of
    the range runner, recomputes every distance to the centers the
    assignment used, for both the trace's objectives, the means of
    (sqrt(d), d) when squared, else of (d, d²), and the repair: the empty
    clusters, in index order, are re-seeded on the rows of codes with the
    largest of those distances, largest first, lowest index on ties.

    assign_step(centers, assigned_to, moved, labels, run) writes each
    point's nearest center and returns (labels changed, points rescanned).
    moved is None on the first call, which scans every point, then the
    indices of the centers that differ from assigned_to, the centers the
    labels were scanned against; when none do, the loop skips the step and
    stops, converged at a fixed point, with the objectives of the iteration
    before. update_all(codes, labels, k) returns the new centers, each
    cluster's member count and the mean histogram support, None for none.
    """
    n, k = len(codes), len(centers)
    trace: list[IterationStats] = []
    labels = np.empty(n, dtype=np.uint32)
    assigned_to = None  # the centers that labels were scanned against
    with _range_runner(threads, n, max(k, codes.shape[1])) as run:
        for iteration in range(1, max_iterations + 1):
            start = time.perf_counter()
            moved = None
            if assigned_to is not None:
                moved = np.flatnonzero(np.any(centers != assigned_to, axis=1))
            if moved is not None and not len(moved):
                # The labels and centers of the last entry: its objectives.
                last = trace[-1]
                stats = IterationStats(
                    iteration, last.objective, last.objective_sq,
                    time.perf_counter() - start, 0.0,
                )
                trace.append(stats)
                return ClusteringResult(centers, labels, trace, len(trace), True)
            changes, rescanned = assign_step(centers, assigned_to, moved, labels, run)
            assigned_to = centers
            assign_seconds = time.perf_counter() - start

            start = time.perf_counter()
            centers, counts, nnz = update_all(codes, labels, k)
            empty = np.flatnonzero(counts == 0)
            measure = distances(assigned_to, labels)
            objectives, far = _measure(n, measure, squared, len(empty), run)
            centers[empty] = codes[far]
            update_seconds = time.perf_counter() - start
            trace.append(IterationStats(
                iteration, *objectives, assign_seconds, update_seconds,
                repaired_clusters=len(empty),
                mean_histogram_nnz=nnz,
                label_changes=changes,
                moved_centers=k if moved is None else len(moved),
                rescanned_points=rescanned,
            ))
    return ClusteringResult(centers, labels, trace, len(trace), False)


def _joint_dtype(rows: int, cols: int) -> type:
    """Index type of the R·C joint (row key, column key) cells."""
    return np.uint32 if rows * cols < 2**32 else np.uint64


def _joint_counts(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The (R, C) intp table whose cell (r, c) counts the i with rows[i] == r
    and cols[i] == c, for integer keys in [0, R) and [0, C).

    The joint index r·C + c is built and counted one chunk of _CHUNK_ROWS
    keys at a time; integer counts sum exactly, so the chunking cannot
    change them. Keys of any integer dtype cast exactly to the joint index's.
    """
    dtype = _joint_dtype(*shape)
    table = np.zeros(shape[0] * shape[1], dtype=np.intp)
    for a in range(0, len(rows), _CHUNK_ROWS):
        joint = rows[a : a + _CHUNK_ROWS].astype(dtype)
        joint *= shape[1]
        np.add(joint, cols[a : a + _CHUNK_ROWS], out=joint, dtype=dtype, casting="unsafe")
        np.add.at(table, joint, 1)
    return table.reshape(shape)


def cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster float64 means; rows of empty clusters are zero.

    labels must be (N,) integers (not bool) in [0, k); else ValueError
    naming them. Each cluster's sum is np.bincount's with weights: float64,
    from zero, the members added in row order.
    """
    points = np.asarray(points)
    n, dim = points.shape
    return _chunked_means([(points, _check_indices(labels, (n,), k, "labels"))], k, dim)[0]


def _chunked_means(chunks, k: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """cluster_means of the rows that chunks yields as (points, labels)
    pairs in row order, whatever their size, and each cluster's intp
    member count. The labels must lie in [0, k).

    The rows are taken _MEAN_ROWS at a time. One CSR product over the stack
    [running sums; block as float64] adds a block to the sums: row k of the
    matrix lists sum k first, then the block's members of cluster k in row
    order, and scipy adds a row's entries in that order to zero. So every
    sum adds its members one by one in row order, and the means do not
    depend on how the rows are chunked.
    """
    key = np.min_scalar_type(max(k - 1, 0))  # narrow sort keys sort by radix
    heads = np.arange(k, dtype=key)
    stack = np.empty((k + _MEAN_ROWS, dim))
    ones = np.ones(len(stack))
    sums = np.zeros((k, dim))
    counts = np.zeros(k, dtype=np.intp)
    indptr = np.zeros(k + 1, dtype=np.intp)
    for points, labels in chunks:
        for a in range(0, len(labels), _MEAN_ROWS):
            block = labels[a : a + _MEAN_ROWS].astype(np.intp)
            members = np.bincount(block, minlength=k)
            counts += members
            np.cumsum(members + 1, out=indptr[1:])
            order = np.argsort(np.concatenate([heads, block.astype(key)]), kind="stable")
            width = k + len(block)
            stack[:k] = sums
            stack[k:width] = points[a : a + len(block)]
            sums = csr_array((ones[:width], order, indptr), shape=(k, width)) @ stack[:width]
    means = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
    return means, counts


def _assigned_sq_distances(points, centers, labels, scratch, out) -> None:
    """Write the float64 squared distance of each row to its center into
    out: np.sum((points - centers[labels]) ** 2, axis=1), with the rows × D
    difference held in the float64 scratch."""
    diff = scratch[: points.size].reshape(points.shape)
    np.take(centers, labels, axis=0, out=diff)
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    np.add.reduce(diff, axis=1, out=out)


def _nearest_center_range(points, centers, labels, start, stop, scratch) -> int:
    """Nearest center of the float32 rows of [start, stop) by squared
    Euclidean distance, lowest index on ties, one cache block of the
    runner's scratch at a time. Writes labels and returns the number of
    labels that changed.

    The labels are those of a float64 cdist and argmin. A float32 GEMM
    ranks the centers: each row x gains a constant 1, each center c_k
    becomes the column [fl(-2c_k); fl(|c_k|²)], and one dot product of
    D + 1 terms gives a_k = fl([x, 1] · [fl(-2c_k); fl(|c_k|²)]), which is
    the squared distance d_k less |x|², up to rounding. With u = 2⁻²⁴,
    γ = (D + 1)u / (1 - (D + 1)u), R = |x|, C = max_k |c_k| and no
    overflow,

        |a_k - (d_k - R²)| <= E = (2γ + 5u)·R·C + (γ + 3u)·C² + 4D·2⁻¹²⁶·(1 + R).

    Rounding -2c to float32 costs 2u·R·C; rounding the float64 |c|² to
    float32, (u + D·2⁻⁵³)·C²; the dot product, in any summation order with
    or without FMA, γ times the sum of its terms' magnitudes, at most
    γ·(2R·C + C²)·(1 + 3u). The remaining 3u·R·C and 2u·C² cover the
    products of these roundings and the float64 evaluation of R and C, and
    the last term every underflow, gradual or flushed. cdist's float64
    sums err by at most γ₆₄(D + 2)·(R + C)², γ₆₄(n) = n·2⁻⁵³ / (1 - n·2⁻⁵³),
    and two more units of γ₆₄ cover the float64 test itself. So when every
    other a_j exceeds the least a_w by more than 2E + 2γ₆₄(D + 4)·(R + C)²,
    cdist ranks w strictly first, and w is the label. The runner-up is the
    least a_j once a_w is set to +inf: an exact tie leaves it equal to a_w,
    and K = 1 leaves it +inf. Every other row goes to the recheck, cdist
    and argmin over all centers: a near tie, a row whose (R + C)² exceeds
    half the float32 range, where the GEMM could overflow, and every row
    when C² does.

    A block holds its float32 ranking in the first float64 scratch, at
    twice the rows a float64 block would, and its augmented float32 rows
    [x, 1] in the second.
    Each GEMM is a slab of at most _GEMM_MULADDS multiply-adds.
    """
    k, dim = centers.shape
    size = len(scratch[1])
    slab = max(1, _GEMM_MULADDS // (k * (dim + 1)))
    block = max(1, min(2 * size // k, size // max(1, dim)))
    if block >= slab:
        block -= block % slab
    gamma = (dim + 1) * _U32 / (1 - (dim + 1) * _U32)
    gamma64 = (dim + 4) * _U64 / (1 - (dim + 4) * _U64)
    rows = np.arange(block)
    changes = 0
    with np.errstate(over="ignore", invalid="ignore"):
        sq_norms = np.einsum("ij,ij->i", centers, centers)
        c_max = math.sqrt(sq_norms.max())
        rankable = c_max * c_max <= _MAX32 / 2
        if rankable:
            ranking = np.empty((dim + 1, k), dtype=np.float32)
            ranking[:dim] = -2 * centers.T
            ranking[dim] = sq_norms
            # The margin 2E + 2γ₆₄(D + 4)·(R + C)² is p·R + q + s·(R + C)².
            p = 2 * ((2 * gamma + 5 * _U32) * c_max + 4 * dim * _TINY32)
            q = 2 * ((gamma + 3 * _U32) * c_max * c_max + 4 * dim * _TINY32)
            s = 2 * gamma64
        for a in range(start, stop, block):
            b = min(a + block, stop)
            x = points[a:b]
            here = rows[: b - a]
            if rankable:
                augmented = scratch[1].view(np.float32)[: (b - a) * (dim + 1)]
                augmented = augmented.reshape(b - a, dim + 1)
                augmented[:, :dim] = x
                augmented[:, dim] = 1
                approx = scratch[0].view(np.float32)[: (b - a) * k].reshape(b - a, k)
                whole = (b - a) // slab * slab
                np.matmul(
                    augmented[:whole].reshape(whole // slab, slab, dim + 1), ranking,
                    out=approx[:whole].reshape(whole // slab, slab, k),
                )
                if whole < b - a:
                    np.matmul(augmented[whole:], ranking, out=approx[whole:])
                best = approx.argmin(axis=1)
                low = approx[here, best].astype(np.float64)
                approx[here, best] = np.inf
                runner_up = approx[here, approx.argmin(axis=1)]
                norm = np.sqrt(np.einsum("ij,ij->i", x, x, dtype=np.float64))
                reach = (norm + c_max) ** 2
                recheck = np.flatnonzero(
                    ~(runner_up > low + (p * norm + q + s * reach)) | (reach > _MAX32 / 2)
                )
            else:
                best, recheck = np.empty(b - a, dtype=np.intp), here
            if len(recheck):
                best[recheck] = cdist(x[recheck], centers, "sqeuclidean").argmin(axis=1)
            changes += int(np.count_nonzero(best != labels[a:b]))
            labels[a:b] = best
    return changes


def _kmeans(points, centers, max_iterations, threads) -> ClusteringResult:
    """Euclidean k-means by _lloyd on float32 points from float64 centers:
    every point is scanned against every center, and the update takes the
    cluster means.

    The scan keeps no distance: _lloyd's objective and repair recompute
    them with _assigned_sq_distances, D multiply-adds per point, the same
    work the scan would do to keep them, and the same bits.
    """

    def assign_step(centers, assigned_to, moved, labels, run):
        changes = sum(run(partial(_nearest_center_range, points, centers, labels)))
        return (len(points) if moved is None else changes), len(points)

    def update_all(points, labels, k):
        return *_chunked_means([(points, labels)], k, points.shape[1]), None

    def distances(centers, labels):
        def write(start, stop, out, scratch):
            block = len(scratch) // max(1, points.shape[1])
            for a in range(start, stop, block):
                b = min(a + block, stop)
                _assigned_sq_distances(
                    points[a:b], centers, labels[a:b], scratch, out[a - start : b - start]
                )

        return write

    return _lloyd(
        points, centers, max_iterations, threads, assign_step, update_all, distances, True
    )
