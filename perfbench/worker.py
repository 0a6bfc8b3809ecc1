"""One set-up or one timed repetition of a benchmark workload, in its own process.

    python3 perfbench/worker.py setup --workload W --seed S --inputs DIR --result FILE [--trace]
    python3 perfbench/worker.py timed --workload W --seed S --inputs DIR --work DIR --result FILE
        [--trace] [--verify] [--fit-repeats R]

The orchestrator (run.py) starts a fresh process for every set-up and every
timed repetition, with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread variables pinned, so that ru_maxrss counts only that
process's own work. A set-up writes the workload's inputs into --inputs. A
timed repetition loads them, runs the timed section with every artifact
under the fresh directory --work, then checks and scores the outputs and
writes one JSON result. With --verify it also rebuilds the centers the
fit's last assignment used, by refitting outside the timed section, and
checks the labels against them; the result carries a digest of the labels,
so the orchestrator can hold every other repetition to the verified one.
With --fit-repeats R it then runs the pqkmeans step R more times, untraced,
times each and checks that each returns the timed fit's labels.
With --trace the public functions of the five layers are wrapped and their
spans are returned with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import pqclust
from pqclust import baselines, cli, clustering, io, pq

from checks import (
    Ops,
    StageFailed,
    centers_before_last_assign,
    check_center_update,
    check_labels,
    check_nearest_center,
    check_objective,
)
from tracer import Tracer, instrument, max_rss_mb
from spec import COMPONENTS, DIM, FIT_ITERATIONS, L, M, SPREAD, TRAIN_ITERATIONS, TRAIN_N, WORKLOADS

ENCODE_CHUNK = 65536
# Workloads whose fit runs inside the cluster command, which seeds it with
# cli.derive_seed(seed, "cluster").
CLI_WORKLOADS = ("pipeline", "fit-many-points")
# Workloads whose timed section is the fit alone, so that a repeated fit is
# also a repeated timed section.
FIT_ONLY_WORKLOADS = ("fit-large-k", "fit-many-points")


# ---------------------------------------------------------------------------
# set-up: the inputs each workload's program sees


def setup(workload: str, seed: int, inputs: Path) -> None:
    n = WORKLOADS[workload]["n"]
    vectors, truth = io.generate_synthetic(n, DIM, COMPONENTS, SPREAD, seed)
    io.write_fvecs(inputs / "data.fvecs", vectors)
    io.write_labels(inputs / "truth.bin", truth)
    if workload == "pipeline":
        io.write_fvecs(inputs / "train.fvecs", vectors[:TRAIN_N])
        return
    book = pq.train_codebook(vectors[:TRAIN_N], M, L, TRAIN_ITERATIONS, seed)
    io.write_codebook(inputs / "book.pqcb", book)
    with io.CodesWriter(inputs / "codes.pqkc", n, M, L) as writer:
        for start in range(0, n, ENCODE_CHUNK):
            writer.write(pq.encode(book, vectors[start : start + ENCODE_CHUNK]))


# ---------------------------------------------------------------------------
# timed sections. Each returns the outputs to check and the metrics it timed.


def _load_codes(inputs: Path):
    codes, _, _ = io.read_codes(inputs / "codes.pqkc")
    tables = pq.build_distance_tables(io.read_codebook(inputs / "book.pqcb"))
    return codes, tables


def _cluster_argv(codes: Path, book: Path, out: Path, seed: int, k: int, threads: int):
    return [
        "cluster", "--method", "pqkmeans", "--k", str(k),
        "--max-iterations", str(FIT_ITERATIONS),
        "--codes", str(codes), "--codebook", str(book), "--out-dir", str(out),
        "--seed", str(seed), "--threads", str(threads),
    ]


def _fit_from_cli(ops: Ops, out: Path, codes_path: Path, book_path: Path, n: int, k: int):
    """Parse the cluster command's artifacts back into a fit result."""
    labels = ops.stage("parse labels.bin", io.read_labels, out / "labels.bin")
    centers, _, l_count = ops.stage("parse centers.pqkc", io.read_codes, out / "centers.pqkc")
    doc = ops.stage("parse result.json", io.load_result_document, out / "result.json")
    ops.check("cluster.centers_shape", centers.shape == (k, M) and l_count == L,
              f"centers {centers.shape} L={l_count}")
    ops.check("cluster.result_n", doc["n"] == n, f"result.json n={doc['n']}, want {n}")
    codes, _, _ = io.read_codes(codes_path)
    tables = pq.build_distance_tables(io.read_codebook(book_path))
    return {
        "labels": labels,
        "centers": centers,
        "converged": bool(doc["converged"]),
        "iterations": int(doc["iterations_run"]),
        "objective_sq": [s["objective_sq"] for s in doc["trace"]],
        "codes": codes,
        "tables": tables,
    }


def fit_step(ops, workload, inputs, work, seed, k, threads, out, loaded):
    """The pqkmeans step as the workload runs it.

    In the CLI workloads, the cluster command writing into `out`; returns
    None. Elsewhere, clustering.fit on the loaded codes; returns the result.
    """
    if workload == "pipeline":
        argv = _cluster_argv(work / "codes.pqkc", work / "book.pqcb", out, seed, k, threads)
    elif workload == "fit-many-points":
        argv = _cluster_argv(inputs / "codes.pqkc", inputs / "book.pqcb", out, seed, k, threads)
    else:
        return ops.stage("clustering.fit", clustering.fit, loaded["codes"], loaded["tables"], k,
                         FIT_ITERATIONS, seed, threads=threads)
    ops.command("cli cluster", cli.main, argv)
    return None


def repeat_fit(ops, workload, inputs, work, seed, k, threads, clock, loaded, count):
    """Run the pqkmeans step `count` more times, each into a fresh directory.

    Returns the seconds of each run and the SHA-256 of each run's labels.
    """
    seconds, digests = [], []
    for i in range(count):
        out = work / f"repeat-{i}"
        start = clock()
        result = fit_step(ops, workload, inputs, work, seed, k, threads, out, loaded)
        seconds.append(clock() - start)
        labels = (result.labels if result is not None
                  else ops.stage("parse labels.bin", io.read_labels, out / "labels.bin"))
        digests.append(labels_digest(labels))
    return seconds, digests


def labels_digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def timed_pipeline(ops, inputs, work, seed, k, threads, clock):
    book, codes, out = work / "book.pqcb", work / "codes.pqkc", work / "run"
    common = ["--seed", str(seed), "--threads", str(threads)]
    ops.command("cli train-codebook", cli.main, [
        "train-codebook", "--train", str(inputs / "train.fvecs"), "--out", str(book),
        "--m", str(M), "--l", str(L), "--iterations", str(TRAIN_ITERATIONS), *common])
    ops.command("cli encode", cli.main, [
        "encode", "--codebook", str(book), "--data", str(inputs / "data.fvecs"),
        "--out", str(codes), *common])
    start = clock()
    fit_step(ops, "pipeline", inputs, work, seed, k, threads, out, {})
    fit_s = clock() - start
    ops.command("cli eval", cli.main, [
        "eval", "--data", str(inputs / "data.fvecs"), "--labels", str(out / "labels.bin"),
        "--reference", str(inputs / "truth.bin"), "--out", str(work / "eval.json")])
    return {"fit_s": fit_s}


def timed_fit_large_k(ops, inputs, work, seed, k, threads, clock, codes, tables):
    start = clock()
    result = fit_step(ops, "fit-large-k", inputs, work, seed, k, threads, None,
                      {"codes": codes, "tables": tables})
    return {"fit_s": clock() - start, "result": result}


def timed_fit_many_points(ops, inputs, work, seed, k, threads, clock):
    start = clock()
    fit_step(ops, "fit-many-points", inputs, work, seed, k, threads, work / "run", {})
    return {"fit_s": clock() - start}


def timed_compare(ops, inputs, work, seed, k, threads, clock, codes, tables, vectors, truth):
    out = {}
    start = clock()
    pq_fit = fit_step(ops, "compare", inputs, work, seed, k, threads, None,
                      {"codes": codes, "tables": tables})
    out["fit_s"] = clock() - start
    binarizer = ops.stage("baselines.train_binarizer", baselines.train_binarizer, DIM, 8 * M, seed)
    packed = ops.stage("baselines.binarize", baselines.binarize, binarizer, vectors)
    start = clock()
    bk_fit = ops.stage("baselines.bkmeans_fit", baselines.bkmeans_fit, packed, k, FIT_ITERATIONS,
                       seed, threads=threads)
    out["bkmeans_fit_s"] = clock() - start
    start = clock()
    km_fit = ops.stage("baselines.kmeans_fit", baselines.kmeans_fit, vectors, k, FIT_ITERATIONS,
                       seed, threads=threads)
    out["kmeans_fit_s"] = clock() - start
    for label, fit in (("", pq_fit), ("_bkmeans", bk_fit), ("_kmeans", km_fit)):
        out["error" + label] = ops.stage(
            "baselines.original_space_error", baselines.original_space_error, vectors, fit.labels)
        out["rand_index" + label] = ops.stage(
            "baselines.rand_index", baselines.rand_index, fit.labels, truth)
    out.update(result=pq_fit, bk_fit=bk_fit, km_fit=km_fit)
    return out


TIMED = {
    "pipeline": timed_pipeline,
    "fit-large-k": timed_fit_large_k,
    "fit-many-points": timed_fit_many_points,
    "compare": timed_compare,
}


# ---------------------------------------------------------------------------
# one timed repetition


def timed(
    workload: str, seed: int, inputs: Path, work: Path, tracer: Tracer, verify: bool,
    fit_repeats: int,
) -> dict:
    spec = WORKLOADS[workload]
    n, k, threads = spec["n"], spec["k"], spec["threads"]
    rss_after_imports = max_rss_mb()
    ops = Ops()
    clock = time.perf_counter
    record: dict = {"failures": ops.failures}
    try:
        with tracer.span("bench.load"):
            loaded = {}
            if workload in ("fit-large-k", "compare"):
                loaded["codes"], loaded["tables"] = ops.stage("load codes", _load_codes, inputs)
            if workload == "compare":
                loaded["vectors"] = ops.stage("load vectors", io.read_fvecs, inputs / "data.fvecs")
                loaded["truth"] = ops.stage("load truth", io.read_labels, inputs / "truth.bin")
        start = clock()
        with tracer.span("bench.timed"):
            out = TIMED[workload](ops, inputs, work, seed, k, threads, clock, **loaded)
        wall_s = clock() - start
        tracer.enabled = False
        peak = max_rss_mb()

        # More timings of the pqkmeans step alone, after the peak is read
        # and outside the timed section; fit_s is their median over a run,
        # and so is wall_s where the timed section is the fit alone.
        repeat_s, repeat_digests = repeat_fit(
            ops, workload, inputs, work, seed, k, threads, clock, loaded, fit_repeats)

        # Checks and scoring run after the peak is read and outside the
        # timed section.
        if workload in CLI_WORKLOADS:
            codes_path = work / "codes.pqkc" if workload == "pipeline" else inputs / "codes.pqkc"
            book_path = work / "book.pqcb" if workload == "pipeline" else inputs / "book.pqcb"
            fit = _fit_from_cli(ops, work / "run", codes_path, book_path, n, k)
        else:
            result = out["result"]
            fit = {
                "labels": result.labels,
                "centers": result.centers,
                "converged": result.converged,
                "iterations": result.iterations_run,
                "objective_sq": [s.objective_sq for s in result.trace],
                "codes": loaded["codes"],
                "tables": loaded["tables"],
            }
        check_labels(ops, "pqkmeans", fit["labels"], n, k)
        check_objective(ops, "pqkmeans", fit["objective_sq"])
        codes, tables = fit["codes"], fit["tables"]
        if not fit["converged"]:
            check_center_update(ops, "pqkmeans", codes, fit["centers"], fit["labels"], tables.tables)
        if verify:
            fit_seed = cli.derive_seed(seed, "cluster") if workload in CLI_WORKLOADS else seed
            used = ops.stage(
                "refit to the last assignment", centers_before_last_assign, codes, tables, k,
                fit_seed, threads, fit["iterations"], fit["converged"], fit["centers"])
            check_nearest_center(ops, "pqkmeans", codes, used, fit["labels"], tables.tables, seed)
        record["labels_sha256"] = labels_digest(fit["labels"])
        for i, digest in enumerate(repeat_digests):
            ops.check("pqkmeans.repeat_labels", digest == record["labels_sha256"],
                      f"repeat {i} returned other labels than the timed fit")
        if workload == "pipeline":
            report = ops.stage("parse eval.json", json.loads, (work / "eval.json").read_text())
            error, rand = report["original_space_error"], report["rand_index"]
        elif workload == "compare":
            error, rand = out["error"], out["rand_index"]
            check_labels(ops, "bkmeans", out["bk_fit"].labels, n, k)
            check_labels(ops, "kmeans", out["km_fit"].labels, n, k)
            ops.check(
                "compare.error_below_bkmeans", out["error"] < out["error_bkmeans"],
                f"pq error {out['error']:.6g} >= bkmeans error {out['error_bkmeans']:.6g}")
            for key in ("kmeans_fit_s", "bkmeans_fit_s", "error_kmeans", "error_bkmeans"):
                record[key] = out[key]
        else:
            vectors = io.read_fvecs(inputs / "data.fvecs")
            error = baselines.original_space_error(vectors, fit["labels"])
            rand = baselines.rand_index(fit["labels"], io.read_labels(inputs / "truth.bin"))
        model = clustering.estimate_memory(n, k, M, L).total_bytes
        record.update(
            wall_s=[wall_s, *repeat_s] if workload in FIT_ONLY_WORKLOADS else [wall_s],
            fit_s=[out["fit_s"], *repeat_s],
            iterations=fit["iterations"],
            converged=fit["converged"],
            fit_pts_per_s=[n * fit["iterations"] / s for s in [out["fit_s"], *repeat_s]],
            peak_rss_mb=peak,
            rss_after_imports_mb=rss_after_imports,
            rss_over_model=(peak - rss_after_imports) * 2**20 / model,
            model_bytes=model,
            error=float(error),
            rand_index=float(rand),
        )
    except StageFailed:
        pass
    record["attempted"] = ops.attempted
    return record


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pqclust": pqclust.__file__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["setup", "timed"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--fit-repeats", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = Tracer(args.result.stem)
    if args.trace:
        instrument(tracer)
        tracer.enabled = True
    if args.phase == "setup":
        args.inputs.mkdir(parents=True, exist_ok=False)
        with tracer.span("bench.setup"):
            setup(args.workload, args.seed, args.inputs)
        record: dict = {}
    else:
        args.work.mkdir(parents=True, exist_ok=False)
        record = timed(args.workload, args.seed, args.inputs, args.work, tracer, args.verify,
                       args.fit_repeats)
    record["spans"] = tracer.spans
    record["environment"] = environment()
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
