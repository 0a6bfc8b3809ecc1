"""Release acceptance suite.

Twelve product-level criteria, one test each, in four groups: exactness
of the sparse center update (1, 2), optimization behavior (3, 4, 12),
numeric and memory fidelity (5, 6), end-to-end quality against the
baselines (7, 8), and infrastructure guarantees (9, 10, 11).

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line
per criterion. Every check is seeded and deterministic; the two timed
criteria (2 and 7) compare wall-clock times with generous margins.
"""

import time

import numpy as np
import pytest

from pqclust import (
    PQCodebook,
    assign,
    binarize,
    bkmeans_fit,
    build_distance_tables,
    build_histogram,
    decode,
    encode,
    estimate_memory,
    fit,
    kmeans_fit,
    majority_center,
    original_space_error,
    paired_distance_sq,
    rand_index,
    train_binarizer,
    train_codebook,
    update_center_naive,
    update_center_sparse,
)
from pqclust.io import (
    generate_synthetic,
    read_binary_codes,
    read_bvecs,
    read_codes,
    read_fvecs,
    write_binary_codes,
    write_bvecs,
    write_codes,
    write_fvecs,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_tables(m, l_count, seed, sub_dim=2):
    rng = np.random.default_rng(seed)
    book = PQCodebook(rng.standard_normal((m, l_count, sub_dim)).astype(np.float32))
    return build_distance_tables(book)


@pytest.fixture(scope="module")
def mixture_runs():
    """Five seeded runs of the 100k-point, 32-d, K=50 method comparison.

    Both methods get a 32-bit budget per vector: PQ codes with M=4,
    L=256 against sign-binarized codes with B=32. Shared by criteria
    7 and 12.
    """
    runs = []
    started = time.perf_counter()
    for seed in range(5):
        vectors, _ = generate_synthetic(100_000, 32, 50, 0.25, seed=seed)
        book = train_codebook(vectors[:20_000], 4, 256, iterations=10, seed=seed)
        codes = encode(book, vectors)
        tables = build_distance_tables(book)
        pq_run = fit(codes, tables, 50, max_iterations=20, seed=seed)
        pq_err = original_space_error(vectors, pq_run.labels)

        binarizer = train_binarizer(32, 32, seed=seed)
        packed = binarize(binarizer, vectors)
        bk_run = bkmeans_fit(packed, 50, max_iterations=20, seed=seed)
        bk_err = original_space_error(vectors, bk_run.labels)
        runs.append({"pq_run": pq_run, "pq_err": pq_err, "bk_err": bk_err})
    return {"runs": runs, "seconds": time.perf_counter() - started}


def test_criterion_01_sparse_voting_exactness():
    """Sparse histogram voting picks the same codeword as the full scan."""
    rng = np.random.default_rng(101)
    grid = [(m, l) for m in (1, 2, 4, 8) for l in (4, 16, 64, 256)]
    tables_pool = {combo: [random_tables(*combo, seed=hash(combo) % 10_000 + rep) for rep in range(2)] for combo in grid}
    clusters = 0
    mismatches = 0
    for trial in range(1000):
        m, l_count = grid[trial % len(grid)]
        tables = tables_pool[(m, l_count)][trial % 2]
        size = int(rng.integers(1, 1001))
        members = rng.integers(0, l_count, size=(size, m)).astype(np.uint8)
        hists = [build_histogram(members[:, mm], l_count) for mm in range(m)]
        sparse = update_center_sparse(hists, tables)
        naive = update_center_naive(members, tables)
        clusters += 1
        if not np.array_equal(sparse, naive):
            mismatches += 1
    report(
        1,
        "sparse voting exactness",
        mismatches == 0 and clusters == 1000,
        f"{clusters} random clusters (N_k up to 1000, L in {{4,16,64,256}}, "
        f"M in {{1,2,4,8}}), {mismatches} index mismatches",
    )


def test_criterion_02_sparse_voting_speedup():
    """Histogram voting must at least halve the center-update time."""
    started = time.perf_counter()
    vectors, _ = generate_synthetic(100_000, 16, 100, 0.05, seed=11)
    book = train_codebook(vectors[:20_000], 4, 256, iterations=10, seed=11)
    codes = encode(book, vectors)
    tables = build_distance_tables(book)

    sparse = fit(codes, tables, 100, max_iterations=5, seed=11, update="sparse")
    naive = fit(codes, tables, 100, max_iterations=5, seed=11, update="naive")
    assert np.array_equal(sparse.labels, naive.labels)
    assert np.array_equal(sparse.centers, naive.centers)

    sparse_seconds = sum(s.update_seconds for s in sparse.trace)
    naive_seconds = sum(s.update_seconds for s in naive.trace)
    ratio = sparse_seconds / naive_seconds
    nnz = [s.mean_histogram_nnz for s in sparse.trace if s.mean_histogram_nnz is not None]
    elapsed = time.perf_counter() - started
    report(
        2,
        "sparse voting speedup",
        ratio <= 0.5 and elapsed < 60.0,
        f"N=100000 K=100 M=4 L=256: sparse update {sparse_seconds:.3f}s vs "
        f"naive {naive_seconds:.3f}s (ratio {ratio:.3f} <= 0.5), mean histogram "
        f"occupancy {np.mean(nnz):.1f}/256, whole check {elapsed:.1f}s < 60s",
    )


def test_criterion_03_objective_monotonicity():
    """The squared-mean objective never increases along a fit trace.

    The update step minimizes the summed squared distance per cluster,
    so the squared objective is the invariant that decreases exactly;
    100 randomized fits must show zero increasing transitions. A fit that
    converged must end at a fixed point: its last iteration changed no
    label and moved no center.
    """
    rng = np.random.default_rng(303)
    transitions = 0
    violations = 0
    converged = 0
    unsettled = 0
    for trial in range(100):
        m = int(rng.choice([1, 2, 4]))
        l_count = int(rng.choice([8, 32, 64]))
        tables = random_tables(m, l_count, seed=2000 + trial)
        n = int(rng.integers(200, 5001))
        codes = rng.integers(0, l_count, size=(n, m)).astype(np.uint8)
        k = int(rng.integers(2, 33))
        result = fit(codes, tables, k, max_iterations=15, seed=trial)
        sq = [s.objective_sq for s in result.trace]
        transitions += len(sq) - 1
        violations += sum(1 for a, b in zip(sq, sq[1:]) if b > a)
        if result.converged:
            converged += 1
            last = result.trace[-1]
            unsettled += bool(last.label_changes or last.moved_centers)
    report(
        3,
        "objective monotonicity",
        violations == 0 and unsettled == 0,
        f"100 fits (N up to 5000), {violations} increases in {transitions} "
        f"consecutive-iteration transitions of the squared-mean objective; "
        f"{converged} converged, {unsettled} of them with a label change or "
        f"moved center in the last iteration",
    )


def test_criterion_04_assignment_optimality():
    """Labels from assign equal exhaustive nearest-center search, ties included."""
    rng = np.random.default_rng(404)
    checked = 0
    wrong = 0

    def bruteforce(codes, centers, tables):
        labels = []
        for code in codes:
            best_j = 0
            best_d = None
            for j, center in enumerate(centers):
                acc = 0.0
                for m in range(tables.num_subspaces):
                    acc += float(tables.tables[m][code[m], center[m]])
                if best_d is None or acc < best_d:
                    best_j, best_d = j, acc
            labels.append(best_j)
        return np.array(labels, dtype=np.uint32)

    instances = []
    for trial in range(20):
        m = int(rng.choice([1, 2, 3]))
        l_count = int(rng.choice([8, 16, 32]))
        tables = random_tables(m, l_count, seed=3000 + trial)
        n = int(rng.integers(20, 161))
        k = int(rng.integers(2, 21))
        codes = rng.integers(0, l_count, size=(n, m)).astype(np.uint8)
        centers = rng.integers(0, l_count, size=(k, m)).astype(np.uint8)
        instances.append((codes, centers, tables))
    # Two instances at the size cap.
    for trial in range(2):
        tables = random_tables(2, 64, seed=3100 + trial)
        codes = rng.integers(0, 64, size=(500, 2)).astype(np.uint8)
        centers = rng.integers(0, 64, size=(20, 2)).astype(np.uint8)
        instances.append((codes, centers, tables))
    # Integer-lattice codewords make exact distance ties common, and
    # duplicated center rows are guaranteed ties.
    for trial in range(10):
        m = int(rng.choice([1, 2]))
        l_count = 16
        grid = np.arange(l_count, dtype=np.float32).reshape(l_count, 1)
        book = PQCodebook(np.broadcast_to(grid, (m, l_count, 1)).copy())
        tables = build_distance_tables(book)
        codes = rng.integers(0, l_count, size=(200, m)).astype(np.uint8)
        centers = rng.integers(0, l_count, size=(10, m)).astype(np.uint8)
        centers[5] = centers[2]
        instances.append((codes, centers, tables))

    for codes, centers, tables in instances:
        got = assign(codes, centers, tables)
        expected = bruteforce(codes, centers, tables)
        checked += len(codes)
        wrong += int(np.sum(got != expected))
    report(
        4,
        "assignment optimality",
        wrong == 0,
        f"{len(instances)} instances (N up to 500, K up to 20, tie-heavy "
        f"lattice and duplicate-center cases included), {wrong} of {checked} "
        f"labels differ from brute force",
    )


def test_criterion_05_symmetric_distance_fidelity():
    """Tabulated distances match decoded-space Euclidean distances to 1e-9."""
    rng = np.random.default_rng(505)
    book = PQCodebook(rng.standard_normal((8, 256, 6)).astype(np.float32))
    tables = build_distance_tables(book)
    a = rng.integers(0, 256, size=(10_000, 8)).astype(np.uint8)
    b = rng.integers(0, 256, size=(10_000, 8)).astype(np.uint8)
    b[:100] = a[:100]

    sd = paired_distance_sq(tables, a, b)
    diff = decode(book, a).astype(np.float64) - decode(book, b).astype(np.float64)
    euclid = np.sum(diff**2, axis=1)
    errors = np.abs(sd - euclid)
    bad = int(np.sum(errors > 1e-9 * np.maximum(euclid, 1e-300)))
    nonzero = euclid > 0
    worst = float(np.max(errors[nonzero] / euclid[nonzero]))
    identical_exact = bool(np.all(sd[:100] == 0.0))
    report(
        5,
        "symmetric distance fidelity",
        bad == 0 and identical_exact,
        f"10000 code pairs, max relative error {worst:.2e} <= 1e-9, "
        f"identical-code pairs exactly zero",
    )


def test_criterion_06_memory_arithmetic():
    """The cost model reproduces the worked 5.12 MB figure and the 32 GB bound."""
    est = estimate_memory(1_281_167, 10_000, 4, 256)
    displayed_mb = round(est.codes_bytes / 1e6, 2)
    codes_exact = est.codes_bytes == 4.0 * 1_281_167

    big = estimate_memory(10**9, 10**5, 4, 256)
    expected_total = 4.0 * 10**9 + 4.0 * 10**5 + 4.0 * 4 * 256**2 + 4.0 * 10**9
    total_exact = big.total_bytes == expected_total
    under_budget = big.total_bytes < 32 * 1024**3
    report(
        6,
        "memory arithmetic",
        codes_exact and abs(displayed_mb - 5.12) <= 0.01 and total_exact and under_budget,
        f"1281167 codes at 32 bits -> {est.codes_bytes:.0f} bytes "
        f"({displayed_mb:.2f} MB vs 5.12 MB), N=1e9 K=1e5 M=4 L=256 -> "
        f"{big.total_bytes / 1024**3:.2f} GiB < 32 GiB, exact arithmetic",
    )


def test_criterion_07_accuracy_vs_binary_baseline(mixture_runs):
    """PQ clustering beats the binary baseline at the same 32-bit budget.

    The binary side uses a random-rotation sign binarizer, so the claim
    is directional: lower original-space error on at least 4 of 5 seeds.
    """
    runs = mixture_runs["runs"]
    wins = sum(1 for r in runs if r["pq_err"] <= r["bk_err"])
    pairs = ", ".join(f"{r['pq_err']:.3f} vs {r['bk_err']:.3f}" for r in runs)
    report(
        7,
        "accuracy vs binary baseline",
        wins >= 4 and mixture_runs["seconds"] < 600.0,
        f"100k points, 32-d, K=50, B=32: PQ error <= binary error on "
        f"{wins}/5 seeds ({pairs}), {mixture_runs['seconds']:.0f}s < 600s",
    )


def test_criterion_08_cluster_recovery():
    """Well-separated mixtures are recovered almost perfectly."""
    rands = []
    for seed in range(5):
        vectors, truth = generate_synthetic(20_000, 16, 40, 0.01, seed=seed)
        book = train_codebook(vectors[:5_000], 4, 256, iterations=10, seed=seed)
        codes = encode(book, vectors)
        tables = build_distance_tables(book)
        result = fit(codes, tables, 40, max_iterations=20, seed=seed)
        rands.append(rand_index(result.labels, truth))
    hits = sum(1 for r in rands if r >= 0.95)
    report(
        8,
        "cluster recovery",
        hits >= 4,
        f"spread 0.01, K=40 true clusters, M=4 L=256: Rand index >= 0.95 on "
        f"{hits}/5 seeds ({', '.join(f'{r:.4f}' for r in rands)})",
    )


def test_criterion_09_thread_determinism():
    """1-thread and 8-thread runs are byte-identical, 20 of 20 trials."""
    rng = np.random.default_rng(909)
    identical = 0
    trials = 0

    def compare(run):
        one = run(1)
        eight = run(8)
        return (
            one.labels.tobytes() == eight.labels.tobytes()
            and one.centers.tobytes() == eight.centers.tobytes()
            and [s.objective for s in one.trace] == [s.objective for s in eight.trace]
        )

    for trial in range(14):
        m = int(rng.choice([2, 4]))
        l_count = int(rng.choice([16, 64, 256]))
        k = int(rng.choice([10, 37, 100, 256]))
        tables = random_tables(m, l_count, seed=4000 + trial)
        codes = rng.integers(0, l_count, size=(12_000, m)).astype(np.uint8)
        trials += 1
        identical += compare(
            lambda t: fit(codes, tables, k, max_iterations=6, seed=trial, threads=t)
        )
    for trial in range(3):
        vectors, _ = generate_synthetic(12_000, 8, 20, 0.1, seed=50 + trial)
        k = int(rng.choice([10, 50]))
        trials += 1
        identical += compare(
            lambda t: kmeans_fit(vectors, k, max_iterations=6, seed=trial, threads=t)
        )
    for trial in range(3):
        packed = rng.integers(0, 256, size=(12_000, int(rng.choice([1, 4])))).astype(np.uint8)
        k = int(rng.choice([10, 50]))
        trials += 1
        identical += compare(
            lambda t: bkmeans_fit(packed, k, max_iterations=6, seed=trial, threads=t)
        )
    report(
        9,
        "thread determinism",
        identical == trials == 20,
        f"{identical}/{trials} trials byte-identical between 1 and 8 threads "
        f"(labels, centers and objective traces)",
    )


def test_criterion_10_format_round_trips(tmp_path):
    """All four binary formats round-trip bit-exactly, 1000 cases each."""
    rng = np.random.default_rng(1010)
    failures = 0

    for case in range(1000):
        path = tmp_path / f"case{case}.fvecs"
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        scale = float(rng.choice([1e-30, 1.0, 1e30]))
        vectors = (rng.standard_normal((n, d)) * scale).astype(np.float32)
        write_fvecs(path, vectors)
        failures += read_fvecs(path).tobytes() != vectors.tobytes()

    for case in range(1000):
        path = tmp_path / f"case{case}.bvecs"
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        vectors = rng.integers(0, 256, size=(n, d), dtype=np.uint8)
        write_bvecs(path, vectors)
        back = read_bvecs(path)
        failures += not np.array_equal(back, vectors.astype(np.float32))

    for case in range(1000):
        path = tmp_path / f"case{case}.pqkc"
        n, m = int(rng.integers(0, 9)), int(rng.integers(1, 9))
        l_count = int(rng.integers(2, 257))
        codes = rng.integers(0, l_count, size=(n, m)).astype(np.uint8)
        write_codes(path, codes, l_count)
        back, back_m, back_l = read_codes(path)
        failures += (
            back.tobytes() != codes.tobytes() or back_m != m or back_l != l_count
        )

    for case in range(1000):
        path = tmp_path / f"case{case}.pqkb"
        n, w = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        packed = rng.integers(0, 256, size=(n, w), dtype=np.uint8)
        write_binary_codes(path, packed)
        back, bits = read_binary_codes(path)
        failures += back.tobytes() != packed.tobytes() or bits != 8 * w
    report(
        10,
        "format round trips",
        failures == 0,
        f"fvecs/bvecs/code/binary-code files, 1000 randomized cases each, "
        f"{failures} round-trip failures",
    )


def test_criterion_11_majority_vote_optimality():
    """Majority-vote centers are never beaten by exhaustive candidate search."""
    rng = np.random.default_rng(1111)
    candidates_by_bits = {
        b: ((np.arange(2**b)[:, None] >> np.arange(b)[::-1]) & 1).astype(np.int64)
        for b in range(1, 13)
    }
    beaten = 0
    for _ in range(1000):
        bits = int(rng.integers(1, 13))
        members = rng.integers(0, 2, size=(int(rng.integers(1, 81)), bits))
        ones = members.sum(axis=0, dtype=np.int64)
        n_k = len(members)
        # Summed Hamming distance to candidate c is
        # sum_b(ones_b) + sum_b c_b * (N_k - 2 * ones_b), exact integers.
        base = int(ones.sum())
        gains = n_k - 2 * ones
        all_costs = base + candidates_by_bits[bits] @ gains
        majority_cost = base + int(majority_center(members).astype(np.int64) @ gains)
        beaten += majority_cost > int(all_costs.min())
    report(
        11,
        "majority vote optimality",
        beaten == 0,
        f"1000 random clusters (B up to 12, exhaustive 2^B candidate scan), "
        f"majority centers beaten {beaten} times",
    )


def test_criterion_12_convergence_within_twenty_iterations(mixture_runs):
    """The compressed-domain fit reaches its fixed point within 20 iterations."""
    runs = mixture_runs["runs"]
    converged = sum(1 for r in runs if r["pq_run"].converged and r["pq_run"].iterations_run <= 20)
    iters = ", ".join(str(r["pq_run"].iterations_run) for r in runs)
    report(
        12,
        "convergence within 20 iterations",
        converged >= 4,
        f"100k-point mixture, K=50: an update moved no center before the cap on "
        f"{converged}/5 seeds (iterations: {iters})",
    )
