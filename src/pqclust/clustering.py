"""K-means clustering directly on PQ codes.

Points and cluster centers are both PQ codes. Distances come from the
per-subspace lookup tables, so no original vector is touched after
encoding. The update step picks each center's per-subspace codeword by
voting over a frequency histogram of the members' subindices, which
costs O(N_k + L * nnz(h)) per cluster and subspace instead of the
O(L * N_k) of the naive candidate scan, while returning the same index.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .pq import DistanceTables, _validate_codes, paired_distance_sq

# Float64 elements per assignment block: 512 KiB of scratch stays in L2
# across the M gathers of one block, where a larger block spills to memory.
_BLOCK_ELEMENTS = 1 << 16


@dataclass
class IterationStats:
    """Per-iteration record of a clustering run.

    The objective is the mean non-squared distance of every point to its
    assigned center, measured right after the assignment step. The
    squared variant of the same quantity is kept alongside it.
    """

    iteration: int
    objective: float
    objective_sq: float
    assign_seconds: float
    update_seconds: float
    repaired_clusters: int = 0
    mean_histogram_nnz: float | None = None


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


@dataclass(frozen=True)
class FrequencyHistogram:
    """Counts of codeword indices inside one (cluster, subspace) pair.

    Attributes:
        counts: int64 array of shape (L,), counts[l] = number of member
            codes whose subindex is l.
        support: Sorted indices of the nonzero bins.
    """

    counts: np.ndarray
    support: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.support)


def build_histogram(subindices: np.ndarray, num_codewords: int) -> FrequencyHistogram:
    """Tally subindices of one cluster's members into L bins.

    Args:
        subindices: Integer subindices of the members in one subspace.
        num_codewords: Number of bins L.

    Returns:
        FrequencyHistogram with counts summing to len(subindices).
    """
    values = np.asarray(subindices)
    if values.ndim != 1:
        raise ValueError(f"subindices must be 1-d, got shape {values.shape}")
    if values.size and (values.min() < 0 or values.max() >= num_codewords):
        raise ValueError(
            f"subindices must lie in [0, {num_codewords}), "
            f"got range [{values.min()}, {values.max()}]"
        )
    counts = np.bincount(values.astype(np.intp), minlength=num_codewords)
    return FrequencyHistogram(counts, np.flatnonzero(counts))


def update_center_naive(member_codes: np.ndarray, tables: DistanceTables) -> np.ndarray:
    """Recompute one center by scanning every candidate codeword.

    For each subspace the chosen codeword minimizes the summed tabulated
    squared distance to all member subindices (lowest index on ties).
    Cost is O(L * N_k) per subspace.
    """
    codes = _validate_codes(member_codes, tables.num_subspaces, tables.num_codewords)
    if len(codes) == 0:
        raise ValueError("cannot update a center from an empty cluster")
    center = np.empty(tables.num_subspaces, dtype=np.uint8)
    for m in range(tables.num_subspaces):
        costs = tables.tables[m][codes[:, m]].sum(axis=0)
        center[m] = np.argmin(costs)
    return center


def update_center_sparse(
    histograms: Sequence[FrequencyHistogram], tables: DistanceTables
) -> np.ndarray:
    """Recompute one center from per-subspace member histograms.

    Votes for candidate l are sum_j counts[j] * tables[m][j, l] taken
    over the nonzero bins only, so the cost is O(L * nnz) per subspace.
    Picks the same codeword indices as update_center_naive on the same
    members.
    """
    if len(histograms) != tables.num_subspaces:
        raise ValueError(
            f"expected {tables.num_subspaces} histograms, got {len(histograms)}"
        )
    center = np.empty(tables.num_subspaces, dtype=np.uint8)
    for m, hist in enumerate(histograms):
        if hist.nnz == 0:
            raise ValueError(f"histogram for subspace {m} is empty")
        weights = hist.counts[hist.support].astype(np.float64)
        votes = weights @ tables.tables[m][hist.support]
        center[m] = np.argmin(votes)
    return center


def init_centers(codes: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Pick K initial centers by sampling input codes without replacement."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-d, got shape {codes.shape}")
    if not 1 <= k <= len(codes):
        raise ValueError(f"k must be in [1, {len(codes)}], got {k}")
    rng = np.random.default_rng(seed)
    return codes[rng.choice(len(codes), size=k, replace=False)].copy()


def _assign_linear_scan(
    codes: np.ndarray,
    centers: np.ndarray,
    tables: DistanceTables,
    threads: int = 1,
) -> np.ndarray:
    """Exhaustive nearest-center scan through the lookup tables."""
    n, m_count = codes.shape
    # (L, K) table slice per subspace; assignment then only gathers rows.
    restricted = [
        np.ascontiguousarray(tables.tables[m][:, centers[:, m]])
        for m in range(m_count)
    ]
    labels = np.empty(n, dtype=np.uint32)
    block = max(1, _BLOCK_ELEMENTS // len(centers))

    def scan(start: int, stop: int) -> None:
        for a in range(start, stop, block):
            b = min(a + block, stop)
            acc = restricted[0][codes[a:b, 0]]
            for m in range(1, m_count):
                acc += restricted[m][codes[a:b, m]]
            labels[a:b] = np.argmin(acc, axis=1)

    # A row's label depends on that row alone, so any split of [0, N)
    # gives the same labels.
    parts = min(threads, n)
    if parts > 1:
        edges = [n * t // parts for t in range(parts + 1)]
        with ThreadPoolExecutor(max_workers=parts) as pool:
            futures = [
                pool.submit(scan, edges[t], edges[t + 1]) for t in range(parts)
            ]
            for future in futures:
                future.result()
    else:
        scan(0, n)
    return labels


AssignStrategy = Callable[[np.ndarray, np.ndarray, DistanceTables, int], np.ndarray]

_ASSIGNMENT_STRATEGIES: dict[str, AssignStrategy] = {
    "linear_scan": _assign_linear_scan,
}


def register_assignment_strategy(name: str, strategy: AssignStrategy) -> None:
    """Add an assignment strategy to the registry.

    A strategy must return exactly the labels of the linear scan
    (nearest center by squared symmetric distance, lowest index on ties);
    only its running time may differ.
    """
    if not name:
        raise ValueError("strategy name must be non-empty")
    _ASSIGNMENT_STRATEGIES[name] = strategy


def unregister_assignment_strategy(name: str) -> None:
    if name == "linear_scan":
        raise ValueError("the linear_scan strategy cannot be removed")
    _ASSIGNMENT_STRATEGIES.pop(name, None)


def registered_assignment_strategies() -> tuple[str, ...]:
    return tuple(_ASSIGNMENT_STRATEGIES)


def select_assignment_strategy(
    codes: np.ndarray, tables: DistanceTables, k: int, seed: int = 0
) -> str:
    """Pick the fastest registered assignment strategy.

    With a single registered strategy it is returned without any timing.
    Otherwise every strategy is timed on 10 sampled query codes against
    K sampled centers and the fastest name wins.
    """
    if len(_ASSIGNMENT_STRATEGIES) == 1:
        return next(iter(_ASSIGNMENT_STRATEGIES))
    codes = _validate_codes(codes, tables.num_subspaces, tables.num_codewords)
    rng = np.random.default_rng(seed)
    centers = init_centers(codes, min(k, len(codes)), seed)
    queries = codes[rng.integers(0, len(codes), size=min(10, len(codes)))]
    best_name = ""
    best_time = math.inf
    for name, strategy in _ASSIGNMENT_STRATEGIES.items():
        start = time.perf_counter()
        strategy(queries, centers, tables, 1)
        elapsed = time.perf_counter() - start
        if elapsed < best_time:
            best_name, best_time = name, elapsed
    return best_name


def assign(
    codes: np.ndarray,
    centers: np.ndarray,
    tables: DistanceTables,
    threads: int = 1,
    strategy: str = "linear_scan",
) -> np.ndarray:
    """Assign every code to its nearest center.

    Args:
        codes: uint8 codes, shape (N, M).
        centers: uint8 center codes, shape (K, M).
        tables: Distance tables matching the codebook of the codes.
        threads: Worker threads for the scan. Results are identical for
            every value.
        strategy: Name of a registered assignment strategy.

    Returns:
        uint32 labels of shape (N,), ties broken toward the lowest
        center index.
    """
    codes = _validate_codes(codes, tables.num_subspaces, tables.num_codewords)
    centers = _validate_codes(centers, tables.num_subspaces, tables.num_codewords)
    if len(centers) == 0:
        raise ValueError("centers must be non-empty")
    if strategy not in _ASSIGNMENT_STRATEGIES:
        raise ValueError(f"unknown assignment strategy {strategy!r}")
    return _ASSIGNMENT_STRATEGIES[strategy](codes, centers, tables, threads)


def pq_cost(
    codes: np.ndarray,
    centers: np.ndarray,
    assignment: np.ndarray,
    tables: DistanceTables,
) -> float:
    """Mean symmetric distance (non-squared) of points to assigned centers."""
    sd_sq = _assigned_distance_sq(codes, centers, assignment, tables)
    return float(np.mean(np.sqrt(sd_sq))) if len(sd_sq) else 0.0


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
    codes = _validate_codes(codes, tables.num_subspaces, tables.num_codewords)
    assignment = np.asarray(assignment)
    if assignment.shape != (len(codes),):
        raise ValueError(
            f"assignment must have shape ({len(codes)},), got {assignment.shape}"
        )
    if not np.issubdtype(assignment.dtype, np.integer):
        raise ValueError(
            f"assignment must hold integer labels, got dtype {assignment.dtype}"
        )
    if len(assignment):
        low, high = int(assignment.min()), int(assignment.max())
        if low < 0 or high >= len(centers):
            raise ValueError(
                f"assignment references center {low if low < 0 else high} "
                f"outside [0, {len(centers)})"
            )
    return paired_distance_sq(tables, codes, centers[assignment])


def _sparse_update_all(
    codes: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    tables: DistanceTables,
) -> tuple[np.ndarray, float]:
    """Sparse-voting center update for all clusters at once.

    Returns the new centers and the mean histogram support size over all
    (non-empty cluster, subspace) pairs.
    """
    k = len(counts)
    m_count = tables.num_subspaces
    l_count = tables.num_codewords
    centers = np.zeros((k, m_count), dtype=np.uint8)
    filled = np.flatnonzero(counts > 0)
    nnz_total = 0
    joint_base = labels.astype(np.int64) * l_count
    for m in range(m_count):
        hist = np.bincount(joint_base + codes[:, m], minlength=k * l_count)
        hist = hist.reshape(k, l_count)
        table = tables.tables[m]
        for ki in filled:
            support = np.flatnonzero(hist[ki])
            nnz_total += len(support)
            weights = hist[ki, support].astype(np.float64)
            votes = weights @ table[support]
            centers[ki, m] = np.argmin(votes)
    mean_nnz = nnz_total / (len(filled) * m_count) if len(filled) else 0.0
    return centers, mean_nnz


def _naive_update_all(
    codes: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    tables: DistanceTables,
) -> tuple[np.ndarray, float]:
    """Candidate-scan center update for all clusters at once."""
    k = len(counts)
    centers = np.zeros((k, tables.num_subspaces), dtype=np.uint8)
    order = np.argsort(labels, kind="stable")
    stops = np.cumsum(counts)
    starts = stops - counts
    for ki in np.flatnonzero(counts > 0):
        members = codes[order[starts[ki] : stops[ki]]]
        centers[ki] = update_center_naive(members, tables)
    return centers, math.nan


def fit(
    codes: np.ndarray,
    tables: DistanceTables,
    k: int,
    max_iterations: int = 20,
    seed: int = 0,
    *,
    threads: int = 1,
    update: str = "sparse",
    strategy: str | None = None,
    initial_centers: np.ndarray | None = None,
) -> ClusteringResult:
    """Cluster PQ codes with k-means in the compressed domain.

    Centers are initialized by sampling K input codes, then assignment
    and center update alternate. The run stops when the objective value
    repeats exactly between consecutive iterations, or after
    max_iterations. Empty clusters are re-seeded on the code farthest
    from its assigned center (lowest index on ties) and counted in the
    trace. Deterministic for fixed inputs and seed, independent of the
    thread count.

    Args:
        codes: uint8 codes, shape (N, M).
        tables: Distance tables of the codebook that produced the codes.
        k: Number of clusters, 1 <= k <= N.
        max_iterations: Iteration cap.
        seed: Seed for center initialization.
        threads: Worker threads for the assignment step.
        update: "sparse" (histogram voting) or "naive" (candidate scan).
            Both produce identical centers.
        strategy: Assignment strategy name; None picks the fastest
            registered one (the linear scan when nothing else is
            registered).
        initial_centers: Optional (K, M) codes overriding the sampled
            initialization.

    Returns:
        ClusteringResult with uint8 centers of shape (K, M).
    """
    codes = _validate_codes(codes, tables.num_subspaces, tables.num_codewords)
    if not 1 <= k <= len(codes):
        raise ValueError(f"k must be in [1, {len(codes)}], got {k}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    if update not in ("sparse", "naive"):
        raise ValueError(f"update must be 'sparse' or 'naive', got {update!r}")
    if initial_centers is None:
        centers = init_centers(codes, k, seed)
    else:
        centers = _validate_codes(
            initial_centers, tables.num_subspaces, tables.num_codewords
        ).astype(np.uint8)
        if len(centers) != k:
            raise ValueError(
                f"initial_centers has {len(centers)} rows, expected k={k}"
            )
    if strategy is None:
        strategy = select_assignment_strategy(codes, tables, k, seed)

    update_all = _sparse_update_all if update == "sparse" else _naive_update_all
    trace: list[IterationStats] = []
    labels = np.zeros(len(codes), dtype=np.uint32)
    previous = None
    converged = False
    for iteration in range(1, max_iterations + 1):
        start = time.perf_counter()
        labels = assign(codes, centers, tables, threads=threads, strategy=strategy)
        assign_seconds = time.perf_counter() - start

        sd_sq = paired_distance_sq(tables, codes, centers[labels])
        objective = float(np.mean(np.sqrt(sd_sq)))
        objective_sq = float(np.mean(sd_sq))
        if previous is not None and objective == previous:
            trace.append(
                IterationStats(iteration, objective, objective_sq, assign_seconds, 0.0)
            )
            converged = True
            break

        start = time.perf_counter()
        counts = np.bincount(labels.astype(np.intp), minlength=k)
        new_centers, mean_nnz = update_all(codes, labels, counts, tables)
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            own = sd_sq.copy()
            for ki in empty:
                far = int(np.argmax(own))
                new_centers[ki] = codes[far]
                own[far] = -np.inf
        update_seconds = time.perf_counter() - start

        trace.append(
            IterationStats(
                iteration,
                objective,
                objective_sq,
                assign_seconds,
                update_seconds,
                repaired_clusters=len(empty),
                mean_histogram_nnz=None if math.isnan(mean_nnz) else mean_nnz,
            )
        )
        centers = new_centers
        previous = objective
    return ClusteringResult(centers, labels, trace, len(trace), converged)


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
