"""Batch command line front end.

Subcommands: synth, train-codebook, encode, cluster, eval, bench.
Every command but eval takes a single --seed; stage seeds (data generation,
codebook init, binarizer, clustering init) are derived from it through
fixed SeedSequence keys, so one seed pins the whole pipeline. Exit
status is 0 only when all outputs were written and validated; every
diagnostic names the failing input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import baselines, clustering, io, pq

_METHODS = ("pqkmeans", "kmeans", "bkmeans")
_STAGE_IDS = {"synth": 0, "codebook": 1, "encode": 2, "binarize": 3, "cluster": 4}
# Records of raw vectors that encode and eval hold at a time.
_VECTOR_CHUNK = 16384
_BENCH_COLUMNS = [
    "method",
    "n",
    "k",
    "m",
    "l",
    "bits",
    "threads",
    "seed",
    "iterations_run",
    "converged",
    "objective",
    "original_space_error",
    "assign_seconds",
    "update_seconds",
    "naive_update_seconds",
    "mean_histogram_nnz",
    "memory_bytes",
]


def derive_seed(seed: int, stage: str) -> int:
    """Stable per-stage sub-seed from the single CLI seed."""
    return int(np.random.SeedSequence([seed, _STAGE_IDS[stage]]).generate_state(1)[0])


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


def _add_seed_and_threads(parser: argparse.ArgumentParser) -> None:
    _add_seed(parser)
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads; results do not depend on this (default: all cores)",
    )


def _add_method_inputs(parser: argparse.ArgumentParser) -> None:
    """The inputs and settings that cluster and bench share."""
    parser.add_argument("--max-iterations", type=int, default=20)
    parser.add_argument("--codes", default=None, help="PQ code file (pqkmeans)")
    parser.add_argument("--codebook", default=None, help="codebook file (pqkmeans)")
    parser.add_argument(
        "--data",
        default=None,
        help="fvecs file (kmeans, or bkmeans with --bits); bench also scores the labels on it",
    )
    parser.add_argument("--binary-codes", default=None, help="binary code file (bkmeans)")
    parser.add_argument("--bits", type=int, default=None, help="binarize --data to this many bits")
    parser.add_argument("--binary-codes-out", default=None, help="persist binarized codes here")


def _check_common(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "threads", 1) < 1:
        raise ValueError(f"--threads must be positive, got {args.threads}")
    if getattr(args, "max_iterations", 1) < 1:
        raise ValueError(f"--max-iterations must be positive, got {args.max_iterations}")


def cmd_synth(args: argparse.Namespace) -> int:
    _check_common(args)
    vectors, labels = io.generate_synthetic(
        args.n, args.dim, args.clusters, args.spread, derive_seed(args.seed, "synth")
    )
    targets = [args.out, args.labels_out] if args.labels_out else [args.out]
    with io.staged(*targets) as temps:
        io.write_fvecs(temps[0], vectors)
        if args.labels_out:
            io.write_labels(temps[1], labels)
    print(f"wrote {args.n} vectors of dimension {args.dim} to {args.out}")
    if args.labels_out:
        print(f"wrote ground-truth labels to {args.labels_out}")
    return 0


def cmd_train_codebook(args: argparse.Namespace) -> int:
    _check_common(args)
    train = io.read_fvecs(args.train)
    if train.size == 0:
        raise ValueError(f"{args.train}: training file holds no vectors")
    pq._check_finite(train, f"{args.train}: vectors")
    codebook = pq.train_codebook(
        train,
        args.m,
        args.l,
        iterations=args.iterations,
        seed=derive_seed(args.seed, "codebook"),
        threads=args.threads,
    )
    with io.staged(args.out) as (temp,):
        io.write_codebook(temp, codebook)
    print(f"trained codebook D={codebook.dim} M={args.m} L={args.l} on {len(train)} vectors")
    print(f"wrote codebook to {args.out}")
    return 0


def _finite_chunks(path):
    """Stream the fvecs file at path _VECTOR_CHUNK records at a time,
    naming the first record that holds NaN or infinity."""
    for i, chunk in enumerate(io.iter_fvecs(path, _VECTOR_CHUNK)):
        pq._check_finite(chunk, f"{path}: vectors", i * _VECTOR_CHUNK)
        yield chunk


def cmd_encode(args: argparse.Namespace) -> int:
    _check_common(args)
    codebook = io.read_codebook(args.codebook)
    n, dim = io.fvecs_shape(args.data)
    if n == 0:
        raise ValueError(f"{args.data}: no vectors to encode")
    if dim != codebook.dim:
        raise ValueError(
            f"{args.data}: vectors have dimension {dim}, codebook expects {codebook.dim}"
        )
    with io.CodesWriter(
        args.out, n, codebook.num_subspaces, codebook.num_codewords
    ) as writer:
        for chunk in _finite_chunks(args.data):
            writer.write(pq.encode(codebook, chunk, threads=args.threads))
    print(f"encoded {n} vectors into {args.out}")
    return 0


def _records(records, path, what: str, k_flag: str, k: int):
    """records, once it holds at least one and at least k of them."""
    if len(records) == 0:
        raise ValueError(f"{path}: holds no {what}")
    if k > len(records):
        raise ValueError(f"{k_flag} {k} exceeds the {len(records)} {what} in {path}")
    return records


def _load_inputs(
    args: argparse.Namespace, methods: list[str], k_flag: str, k: int, keep_vectors: bool = False
):
    """Read the inputs of a cluster or bench run, each once.

    Checks that every method is known and has its inputs before reading
    anything, and each input as it is read: it must hold at least one
    record and at least k, the largest value of the flag k_flag. Returns
    ({name: input}, the seconds spent reading and preparing them): "codes"
    holds (codes, L, distance tables) of --codes and --codebook, "vectors"
    the finite --data vectors that kmeans fits or keep_vectors asks for,
    and "packed" the binary codes of bkmeans, read from --binary-codes or
    binarized from --data.
    """
    for method in methods:
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
    if "pqkmeans" in methods and not (args.codes and args.codebook):
        raise ValueError("method pqkmeans needs --codes and --codebook")
    if "kmeans" in methods and not args.data:
        raise ValueError("method kmeans needs --data")
    binarized = "bkmeans" in methods and not args.binary_codes
    if binarized and not (args.data and args.bits):
        raise ValueError("method bkmeans needs --binary-codes, or --data with --bits")
    start = time.perf_counter()
    inputs = {}
    if "pqkmeans" in methods:
        codes, m, l_count = io.read_codes(args.codes)
        _records(codes, args.codes, "codes", k_flag, k)
        codebook = io.read_codebook(args.codebook)
        if codebook.num_subspaces != m or codebook.num_codewords != l_count:
            raise ValueError(
                f"{args.codebook} (M={codebook.num_subspaces}, "
                f"L={codebook.num_codewords}) does not match {args.codes} "
                f"(M={m}, L={l_count})"
            )
        inputs["codes"] = codes, l_count, pq.build_distance_tables(codebook)
    keep_vectors = keep_vectors or "kmeans" in methods
    if keep_vectors or binarized:
        vectors = _records(io.read_fvecs(args.data), args.data, "vectors", k_flag, k)
        pq._check_finite(vectors, f"{args.data}: vectors")
        # Vectors read only to be binarized are not kept for the fit.
        if keep_vectors:
            inputs["vectors"] = vectors
    if binarized:
        binarizer = baselines.train_binarizer(
            vectors.shape[1], args.bits, derive_seed(args.seed, "binarize")
        )
        inputs["packed"] = baselines.binarize(binarizer, vectors)
        if args.binary_codes_out:
            with io.staged(args.binary_codes_out) as (temp,):
                io.write_binary_codes(temp, inputs["packed"])
            print(f"wrote binary codes to {args.binary_codes_out}")
    elif "bkmeans" in methods:
        packed = io.read_binary_codes(args.binary_codes)[0]
        inputs["packed"] = _records(packed, args.binary_codes, "binary codes", k_flag, k)
    # Each fit's labels are scored on the kept vectors: same N, before any fit.
    if keep_vectors:
        read = [(args.codes, inputs["codes"][0])] if "codes" in inputs else []
        if "packed" in inputs and not binarized:
            read.append((args.binary_codes, inputs["packed"]))
        n = len(inputs["vectors"])
        for path, codes in read:
            if len(codes) != n:
                raise ValueError(
                    f"{path} holds {len(codes)} codes but {args.data} holds {n} vectors"
                )
    return inputs, time.perf_counter() - start


def _run_method(args: argparse.Namespace, inputs: dict, method: str, k: int):
    """Run one clustering method on the inputs that _load_inputs read.

    Returns (result, row dict for bench, centers file name, centers writer):
    the writer takes the path to write the result's centers to.
    """
    fit_args = {
        "max_iterations": args.max_iterations,
        "seed": derive_seed(args.seed, "cluster"),
        "threads": args.threads,
    }
    row: dict[str, object] = {"method": method, "k": k, "threads": args.threads, "seed": args.seed}
    if method == "pqkmeans":
        codes, l_count, tables = inputs["codes"]
        m = codes.shape[1]
        result = clustering.fit(codes, tables, k, **fit_args)
        row.update(
            n=len(codes),
            m=m,
            l=l_count,
            memory_bytes=clustering.estimate_memory(len(codes), k, m, l_count).total_bytes,
        )
        if args.time_naive_update:
            naive = clustering.fit(codes, tables, k, update="naive", **fit_args)
            if not np.array_equal(naive.labels, result.labels):
                raise ValueError(
                    "naive and sparse updates disagreed; benchmark aborted"
                )
            row["naive_update_seconds"] = sum(s.update_seconds for s in naive.trace)
        return result, row, "centers.pqkc", lambda path: io.write_codes(
            path, result.centers, l_count
        )
    if method == "kmeans":
        vectors = inputs["vectors"]
        result = baselines.kmeans_fit(vectors, k, **fit_args)
        dim = vectors.shape[1]
        row.update(n=len(vectors), memory_bytes=4.0 * dim * (len(vectors) + k) + 4.0 * len(vectors))
        return result, row, "centers.fvecs", lambda path: io.write_fvecs(
            path, result.centers.astype(np.float32)
        )
    packed = inputs["packed"]
    result = baselines.bkmeans_fit(packed, k, **fit_args)
    bits = 8 * packed.shape[1]
    row.update(
        n=len(packed),
        bits=bits,
        memory_bytes=(bits / 8.0) * (len(packed) + k) + 4.0 * len(packed),
    )
    return result, row, "centers.pqkb", lambda path: io.write_binary_codes(
        path, result.centers
    )


def _write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "assign_ms", "update_ms"])
        for stats in trace:
            writer.writerow(
                [
                    stats.iteration,
                    repr(stats.objective),
                    f"{1000.0 * stats.assign_seconds:.3f}",
                    f"{1000.0 * stats.update_seconds:.3f}",
                ]
            )


def _peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes on macOS, KiB else


def cmd_cluster(args: argparse.Namespace) -> int:
    _check_common(args)
    if args.k < 1:
        raise ValueError(f"--k must be positive, got {args.k}")
    out_dir = Path(args.out_dir)
    inputs, load_seconds = _load_inputs(args, [args.method], "--k", args.k)
    start = time.perf_counter()
    result, row, centers_name, write_centers = _run_method(args, inputs, args.method, args.k)
    fit_seconds = time.perf_counter() - start

    labels_path = out_dir / "labels.bin"
    centers_path = out_dir / centers_name
    trace_path = out_dir / "trace.csv"
    result_path = out_dir / "result.json"

    document = {
        "command": "cluster",
        "config": {
            "method": args.method,
            "k": args.k,
            "max_iterations": args.max_iterations,
            "seed": args.seed,
            "threads": args.threads,
            "codes": args.codes,
            "codebook": args.codebook,
            "data": args.data,
            "binary_codes": args.binary_codes,
            "bits": args.bits,
        },
        "n": int(row["n"]),
        "iterations_run": result.iterations_run,
        "converged": result.converged,
        "objective": result.trace[-1].objective,
        "trace": [dataclasses.asdict(s) for s in result.trace],
        "outputs": {
            "labels": str(labels_path),
            "centers": str(centers_path),
            "trace_csv": str(trace_path),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "threads": args.threads,
        },
    }

    # All four artifacts are staged together and moved into place only
    # after the labels file holds all N labels, so a failed run leaves the
    # previous run's artifacts whole, and a run that fails before here
    # leaves no directory.
    out_dir.mkdir(parents=True, exist_ok=True)
    with io.staged(labels_path, centers_path, trace_path, result_path) as temps:
        labels_temp, centers_temp, trace_temp, result_temp = temps
        start = time.perf_counter()
        io.write_labels(labels_temp, result.labels)
        write_centers(centers_temp)
        _write_trace_csv(trace_temp, result.trace)
        # The record of the whole command, up to the write of result.json.
        document["stage_seconds"] = {
            "load": load_seconds,
            "fit": fit_seconds,
            "write": time.perf_counter() - start,
        }
        document["peak_rss_mb"] = _peak_rss_mb()
        io.save_result_document(result_temp, document)
        if labels_temp.stat().st_size != 4 * int(row["n"]):
            raise ValueError(f"{labels_path}: written labels failed validation")
    print(
        f"{args.method}: n={row['n']} k={args.k} "
        f"iterations={result.iterations_run} converged={result.converged} "
        f"objective={result.trace[-1].objective:.6g}"
    )
    print(f"wrote labels, centers, trace and result.json under {out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    n, dim = io.fvecs_shape(args.data)
    if n == 0:
        raise ValueError(f"{args.data}: holds no vectors")
    labels = io.read_labels(args.labels)
    if len(labels) != n:
        raise ValueError(
            f"{args.labels} holds {len(labels)} labels but {args.data} holds {n} vectors"
        )
    # The error reads the file twice; the first pass checks the records.
    passes = iter([_finite_chunks(args.data), io.iter_fvecs(args.data, _VECTOR_CHUNK)])
    report: dict[str, object] = {
        "n": n,
        "original_space_error": baselines.streamed_original_space_error(
            lambda: next(passes), labels, dim, f"{args.labels}: labels"
        ),
    }
    if args.reference:
        reference = io.read_labels(args.reference)
        if len(reference) != len(labels):
            raise ValueError(
                f"{args.reference} holds {len(reference)} labels, expected {len(labels)}"
            )
        report["rand_index"] = baselines.rand_index(labels, reference)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with io.staged(args.out) as (temp,):
            temp.write_text(text + "\n", encoding="utf-8")
    return 0


def _write_bench_csv(fh, rows: list[dict]) -> None:
    # Columns a method does not fill are left empty (DictWriter's restval).
    writer = csv.DictWriter(fh, fieldnames=_BENCH_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)


def cmd_bench(args: argparse.Namespace) -> int:
    _check_common(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    k_grid = []
    for entry in filter(str.strip, args.k_grid.split(",")):
        try:
            k_grid.append(int(entry))
        except ValueError:
            raise ValueError(f"--k-grid entries must be integers, got {entry!r}") from None
    if not methods or not k_grid:
        raise ValueError("--methods and --k-grid must be non-empty")
    if any(k < 1 for k in k_grid):
        raise ValueError(f"--k-grid entries must be positive, got {k_grid}")
    inputs, _ = _load_inputs(args, methods, "--k-grid", max(k_grid), bool(args.data))
    eval_vectors = inputs.get("vectors")
    rows = []
    for method in methods:
        for k in k_grid:
            result, row, _, _ = _run_method(args, inputs, method, k)
            # Both code clusterers' updates report their histogram support.
            nnz = [s.mean_histogram_nnz for s in result.trace if s.mean_histogram_nnz is not None]
            row.update(
                mean_histogram_nnz=float(np.mean(nnz)) if nnz else "",
                iterations_run=result.iterations_run,
                converged=result.converged,
                objective=result.trace[-1].objective,
                assign_seconds=sum(s.assign_seconds for s in result.trace),
                update_seconds=sum(s.update_seconds for s in result.trace),
                original_space_error=(
                    baselines.original_space_error(eval_vectors, result.labels)
                    if eval_vectors is not None
                    else ""
                ),
            )
            rows.append(row)
    if not args.out:
        _write_bench_csv(sys.stdout, rows)
        return 0
    with io.staged(args.out) as (temp,), open(temp, "w", newline="", encoding="utf-8") as fh:
        _write_bench_csv(fh, rows)
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqclust",
        description="Cluster large vector collections through product-quantized codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled Gaussian-mixture dataset")
    p.add_argument("--out", required=True, help="output fvecs path")
    p.add_argument("--labels-out", default=None, help="optional ground-truth label path")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--dim", type=int, required=True, help="dimensionality")
    p.add_argument("--clusters", type=int, required=True, help="mixture components")
    p.add_argument("--spread", type=float, default=0.05, help="component stddev")
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-codebook", help="train per-subspace codewords")
    p.add_argument("--train", required=True, help="training fvecs path")
    p.add_argument("--out", required=True, help="output codebook path")
    p.add_argument("--m", type=int, required=True, help="number of subspaces")
    p.add_argument("--l", type=int, required=True, help="codewords per subspace")
    p.add_argument("--iterations", type=int, default=20, help="k-means iterations")
    _add_seed_and_threads(p)
    p.set_defaults(func=cmd_train_codebook)

    p = sub.add_parser("encode", help="quantize vectors into a PQ code file")
    p.add_argument("--codebook", required=True, help="codebook path")
    p.add_argument("--data", required=True, help="input fvecs path")
    p.add_argument("--out", required=True, help="output code file path")
    _add_seed_and_threads(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("cluster", help="run a clustering method")
    p.add_argument("--method", required=True, choices=_METHODS)
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    _add_method_inputs(p)
    p.add_argument("--out-dir", required=True, help="output directory")
    _add_seed_and_threads(p)
    p.set_defaults(func=cmd_cluster, time_naive_update=False)

    p = sub.add_parser("eval", help="score labels on the original vectors")
    p.add_argument("--data", required=True, help="fvecs path")
    p.add_argument("--labels", required=True, help="label file to score")
    p.add_argument("--reference", default=None, help="reference labels for the Rand index")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="sweep methods and cluster counts, emit CSV")
    p.add_argument("--methods", default="pqkmeans", help="comma-separated method list")
    p.add_argument("--k-grid", required=True, help="comma-separated cluster counts")
    _add_method_inputs(p)
    p.add_argument(
        "--time-naive-update",
        action="store_true",
        help="also run the naive update and record its time",
    )
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    _add_seed_and_threads(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
