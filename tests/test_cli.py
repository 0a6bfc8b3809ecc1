"""End-to-end tests of the command line interface.

All commands run in process through cli.main so exit codes and
diagnostics are observable without spawning interpreters; only the
peak-memory test starts a fresh one.
"""

import csv
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from pqclust import baselines, cli, clustering, io


@pytest.fixture
def calls(monkeypatch):
    """Counts of the CLI's calls to the functions that read or prepare its
    inputs, and to the three fits, from the time the fixture is set up."""
    counts = {}
    for owner, name in (
        (io, "read_fvecs"), (io, "read_codes"), (io, "read_binary_codes"),
        (baselines, "binarize"), (clustering, "fit"),
        (baselines, "kmeans_fit"), (baselines, "bkmeans_fit"),
    ):
        counts[name] = 0

        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small synth -> train-codebook -> encode pipeline, built once."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "data": root / "data.fvecs",
        "truth": root / "truth.bin",
        "book": root / "book.pqcb",
        "codes": root / "codes.pqkc",
        "root": root,
    }
    assert cli.main([
        "synth",
        "--out", str(paths["data"]),
        "--labels-out", str(paths["truth"]),
        "--n", "2000", "--dim", "8", "--clusters", "8",
        "--spread", "0.02", "--seed", "1",
    ]) == 0
    assert cli.main([
        "train-codebook",
        "--train", str(paths["data"]),
        "--out", str(paths["book"]),
        "--m", "4", "--l", "16", "--iterations", "8", "--seed", "1",
    ]) == 0
    assert cli.main([
        "encode",
        "--codebook", str(paths["book"]),
        "--data", str(paths["data"]),
        "--out", str(paths["codes"]),
    ]) == 0
    return paths


def run_cluster(pipeline, out_dir, *extra):
    return cli.main([
        "cluster",
        "--method", "pqkmeans",
        "--k", "8",
        "--codes", str(pipeline["codes"]),
        "--codebook", str(pipeline["book"]),
        "--out-dir", str(out_dir),
        "--seed", "1",
        *extra,
    ])


class TestSynth:
    def test_deterministic_for_fixed_seed(self, tmp_path):
        args = ["synth", "--n", "50", "--dim", "4", "--clusters", "3", "--seed", "9"]
        a, b, c = tmp_path / "a.fvecs", tmp_path / "b.fvecs", tmp_path / "c.fvecs"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert cli.main(["synth", "--n", "50", "--dim", "4", "--clusters", "3",
                         "--seed", "10", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        assert io.read_fvecs(a).shape == (50, 4)

    def test_takes_no_threads_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["synth", "--out", str(tmp_path / "x.fvecs"), "--n", "5",
                      "--dim", "2", "--clusters", "1", "--threads", "2"])
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_rejects_bad_arguments(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "x.fvecs"),
                         "--n", "0", "--dim", "4", "--clusters", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch):
        data, truth = tmp_path / "data.fvecs", tmp_path / "truth.bin"
        args = ["synth", "--out", str(data), "--labels-out", str(truth),
                "--n", "50", "--dim", "4", "--clusters", "3"]
        assert cli.main(args + ["--seed", "9"]) == 0
        before = {p: p.read_bytes() for p in (data, truth)}

        def fail_partway(path, labels):
            path.write_bytes(b"\x00" * 8)
            raise OSError(f"{path}: device full")

        monkeypatch.setattr(io, "write_labels", fail_partway)
        assert cli.main(args + ["--seed", "10"]) == 1
        assert {p: p.read_bytes() for p in (data, truth)} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.fvecs", "truth.bin"]


class TestPipeline:
    def test_artifacts(self, pipeline):
        vectors = io.read_fvecs(pipeline["data"])
        assert vectors.shape == (2000, 8)
        assert len(io.read_labels(pipeline["truth"])) == 2000
        book = io.read_codebook(pipeline["book"])
        assert (book.num_subspaces, book.num_codewords, book.dim) == (4, 16, 8)
        codes, m, l_count = io.read_codes(pipeline["codes"])
        assert codes.shape == (2000, 4)
        assert (m, l_count) == (4, 16)

    def test_cluster_outputs(self, pipeline, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cluster(pipeline, out) == 0
        stdout = capsys.readouterr().out
        assert "pqkmeans: n=2000 k=8" in stdout

        labels = io.read_labels(out / "labels.bin")
        assert len(labels) == 2000
        centers, m, l_count = io.read_codes(out / "centers.pqkc")
        assert centers.shape == (8, 4)
        assert (m, l_count) == (4, 16)

        doc = io.load_result_document(out / "result.json")
        assert doc["command"] == "cluster"
        assert doc["config"]["method"] == "pqkmeans"
        assert doc["config"]["k"] == 8
        assert doc["config"]["seed"] == 1
        assert doc["n"] == 2000
        assert doc["iterations_run"] == len(doc["trace"])
        assert isinstance(doc["converged"], bool)
        assert doc["objective"] == doc["trace"][-1]["objective"]
        sq = [row["objective_sq"] for row in doc["trace"]]
        assert all(b <= a for a, b in zip(sq, sq[1:]))

        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "objective", "assign_ms", "update_ms"]
        assert [int(r[0]) for r in rows[1:]] == list(range(1, len(rows)))
        assert float(rows[1][1]) == pytest.approx(doc["trace"][0]["objective"])

    @pytest.mark.parametrize("method", ["pqkmeans", "kmeans", "bkmeans"])
    def test_result_json_records_the_whole_run(self, pipeline, tmp_path, method):
        out = tmp_path / "run"
        inputs = {
            "pqkmeans": ["--codes", str(pipeline["codes"]), "--codebook", str(pipeline["book"])],
            "kmeans": ["--data", str(pipeline["data"])],
            "bkmeans": ["--data", str(pipeline["data"]), "--bits", "8"],
        }[method]
        start = time.perf_counter()
        assert cli.main([
            "cluster", "--method", method, "--k", "8", *inputs,
            "--out-dir", str(out), "--seed", "1", "--threads", "2",
        ]) == 0
        wall = time.perf_counter() - start
        doc = io.load_result_document(out / "result.json")
        assert doc["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "threads": 2,
        }
        assert doc["peak_rss_mb"] > 0
        stages = doc["stage_seconds"]
        assert sorted(stages) == ["fit", "load", "write"]
        assert all(seconds >= 0 for seconds in stages.values())
        assert sum(stages.values()) <= wall

    @pytest.mark.parametrize("method", ["pqkmeans", "kmeans", "bkmeans"])
    def test_result_json_reports_churn(self, pipeline, tmp_path, method):
        out = tmp_path / "run"
        inputs = {
            "pqkmeans": ["--codes", str(pipeline["codes"]), "--codebook", str(pipeline["book"])],
            "kmeans": ["--data", str(pipeline["data"])],
            "bkmeans": ["--data", str(pipeline["data"]), "--bits", "8"],
        }[method]
        assert cli.main([
            "cluster", "--method", method, "--k", "8", *inputs,
            "--out-dir", str(out), "--seed", "1",
        ]) == 0
        trace = io.load_result_document(out / "result.json")["trace"]
        first = trace[0]
        assert (first["label_changes"], first["moved_centers"], first["rescanned_points"]) == (
            2000, 8, 2000,
        )
        for row in trace[1:]:
            assert 0 <= row["moved_centers"] <= 8
            assert 0 <= row["label_changes"] <= 2000
            assert 0 <= row["rescanned_points"] <= 2000
            if row["moved_centers"] == 0:
                assert row["label_changes"] == row["rescanned_points"] == 0
            elif method == "kmeans":
                # K-means compares every point with every center.
                assert row["rescanned_points"] == 2000
        assert len(trace) > 1

    def test_failed_write_keeps_previous_artifacts(self, pipeline, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_cluster(pipeline, out) == 0
        names = ["labels.bin", "centers.pqkc", "trace.csv", "result.json"]
        before = {name: (out / name).read_bytes() for name in names}

        write_codes = io.write_codes

        def fail_partway(path, codes, num_codewords):
            write_codes(path, codes[: len(codes) // 2], num_codewords)
            raise OSError(f"{path}: device full")

        monkeypatch.setattr(io, "write_codes", fail_partway)
        # Another seed, so a completed run would change every artifact.
        assert run_cluster(pipeline, out, "--seed", "2") == 1
        assert {name: (out / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(names)

    def test_rerun_produces_identical_artifacts(self, pipeline, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run_cluster(pipeline, first) == 0
        assert run_cluster(pipeline, second) == 0
        assert (first / "labels.bin").read_bytes() == (second / "labels.bin").read_bytes()
        assert (first / "centers.pqkc").read_bytes() == (second / "centers.pqkc").read_bytes()

    def test_threads_do_not_change_codebook_or_codes(self, pipeline, tmp_path):
        outputs = []
        for threads in ("1", "2", "8"):
            book, codes = tmp_path / f"book{threads}.pqcb", tmp_path / f"codes{threads}.pqkc"
            assert cli.main([
                "train-codebook", "--train", str(pipeline["data"]), "--out", str(book),
                "--m", "4", "--l", "16", "--iterations", "8", "--seed", "1",
                "--threads", threads,
            ]) == 0
            assert cli.main([
                "encode", "--codebook", str(book), "--data", str(pipeline["data"]),
                "--out", str(codes), "--threads", threads,
            ]) == 0
            outputs.append((book.read_bytes(), codes.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0] == (pipeline["book"].read_bytes(), pipeline["codes"].read_bytes())

    def test_labels_are_checked_by_file_size_not_read_back(self, pipeline, tmp_path, monkeypatch):
        out = tmp_path / "run"
        assert run_cluster(pipeline, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def no_read(path):
            raise AssertionError(f"{path} read back")

        monkeypatch.setattr(io, "read_labels", no_read)
        assert run_cluster(pipeline, tmp_path / "again") == 0
        assert (tmp_path / "again" / "labels.bin").read_bytes() == before["labels.bin"]

        write_labels = io.write_labels
        monkeypatch.setattr(io, "write_labels", lambda path, labels: write_labels(path, labels[:-1]))
        assert run_cluster(pipeline, out, "--seed", "2") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_threads_do_not_change_results(self, pipeline, tmp_path):
        one = tmp_path / "one"
        many = tmp_path / "many"
        assert run_cluster(pipeline, one, "--threads", "1") == 0
        assert run_cluster(pipeline, many, "--threads", "8") == 0
        assert (one / "labels.bin").read_bytes() == (many / "labels.bin").read_bytes()
        doc_one = io.load_result_document(one / "result.json")
        doc_many = io.load_result_document(many / "result.json")
        assert doc_one["objective"] == doc_many["objective"]


class TestBaselineMethods:
    def test_kmeans_writes_fvecs_centers(self, pipeline, tmp_path):
        out = tmp_path / "km"
        assert cli.main([
            "cluster", "--method", "kmeans", "--k", "8",
            "--data", str(pipeline["data"]),
            "--out-dir", str(out), "--seed", "1",
        ]) == 0
        assert io.read_fvecs(out / "centers.fvecs").shape == (8, 8)
        assert len(io.read_labels(out / "labels.bin")) == 2000

    def test_bkmeans_binarize_route_matches_saved_codes(self, pipeline, tmp_path):
        direct = tmp_path / "direct"
        saved = tmp_path / "codes.pqkb"
        assert cli.main([
            "cluster", "--method", "bkmeans", "--k", "8",
            "--data", str(pipeline["data"]), "--bits", "8",
            "--binary-codes-out", str(saved),
            "--out-dir", str(direct), "--seed", "1",
        ]) == 0
        packed, bits = io.read_binary_codes(saved)
        assert bits == 8
        assert packed.shape == (2000, 1)
        centers, cbits = io.read_binary_codes(direct / "centers.pqkb")
        assert (len(centers), cbits) == (8, 8)

        # Re-clustering from the saved code file reproduces the labels.
        reread = tmp_path / "reread"
        assert cli.main([
            "cluster", "--method", "bkmeans", "--k", "8",
            "--binary-codes", str(saved),
            "--out-dir", str(reread), "--seed", "1",
        ]) == 0
        assert (direct / "labels.bin").read_bytes() == (reread / "labels.bin").read_bytes()


class TestInputs:
    @pytest.mark.parametrize(
        "method, flags, expected",
        [
            ("pqkmeans", ["--codes", "codes", "--codebook", "book", "--data", "data"],
             {"read_codes": 1, "fit": 1}),
            ("kmeans", ["--data", "data", "--codes", "codes"],
             {"read_fvecs": 1, "kmeans_fit": 1}),
            ("bkmeans", ["--data", "data", "--bits", "8"],
             {"read_fvecs": 1, "binarize": 1, "bkmeans_fit": 1}),
            ("bkmeans", ["--binary-codes", "packed", "--data", "data", "--bits", "8"],
             {"read_binary_codes": 1, "bkmeans_fit": 1}),
        ],
    )
    def test_cluster_reads_each_input_once_and_no_other(
        self, pipeline, tmp_path, method, flags, expected, calls
    ):
        paths = dict(pipeline, packed=tmp_path / "codes.pqkb")
        io.write_binary_codes(paths["packed"], np.zeros((2000, 1), dtype=np.uint8))
        assert cli.main([
            "cluster", "--method", method, "--k", "4", "--max-iterations", "2",
            *[str(paths.get(flag, flag)) for flag in flags],
            "--out-dir", str(tmp_path / "run"),
        ]) == 0
        assert {name: n for name, n in calls.items() if n} == expected


class TestEval:
    def test_matches_library_metrics(self, pipeline, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cluster(pipeline, out) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        assert cli.main([
            "eval",
            "--data", str(pipeline["data"]),
            "--labels", str(out / "labels.bin"),
            "--reference", str(pipeline["truth"]),
            "--out", str(report_path),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads(report_path.read_text()) == report

        vectors = io.read_fvecs(pipeline["data"])
        labels = io.read_labels(out / "labels.bin")
        truth = io.read_labels(pipeline["truth"])
        assert report["n"] == 2000
        assert report["original_space_error"] == baselines.original_space_error(vectors, labels)
        assert report["rand_index"] == baselines.rand_index(labels, truth)
        # Low-spread mixture, K = true component count: recovery is near-perfect.
        assert report["rand_index"] > 0.9

    def test_length_mismatch_is_reported(self, pipeline, tmp_path, capsys):
        short = tmp_path / "short.bin"
        io.write_labels(short, np.zeros(3, dtype=np.uint32))
        code = cli.main([
            "eval", "--data", str(pipeline["data"]), "--labels", str(short),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "3 labels" in err


    def test_streamed_eval_is_exact_across_chunks(self, tmp_path, capsys):
        # Two stream chunks and one row, so the last file chunk and the last
        # block of the means hold a single row. Magnitudes from 1e-6 to 1e4
        # make the float64 sums depend on the order of their terms. Cluster
        # 5 stays empty.
        n, k = 2 * cli._VECTOR_CHUNK + 1, 9
        rng = np.random.default_rng(41)
        scale = 10.0 ** rng.uniform(-6, 4, size=(n, 1))
        vectors = (rng.normal(size=(n, 6)) * scale).astype(np.float32)
        labels = rng.integers(0, k, size=n).astype(np.uint32)
        labels[labels == 5] = 8
        truth = rng.integers(0, 4, size=n).astype(np.uint32)
        io.write_fvecs(tmp_path / "data.fvecs", vectors)
        io.write_labels(tmp_path / "labels.bin", labels)
        io.write_labels(tmp_path / "truth.bin", truth)
        assert cli.main([
            "eval", "--data", str(tmp_path / "data.fvecs"),
            "--labels", str(tmp_path / "labels.bin"),
            "--reference", str(tmp_path / "truth.bin"),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == n
        assert report["original_space_error"] == baselines.original_space_error(vectors, labels)
        assert report["rand_index"] == baselines.rand_index(labels, truth)

    def test_out_of_range_label_is_named(self, pipeline, tmp_path, capsys):
        labels = np.zeros(2000, dtype=np.uint32)
        labels[7] = 4_000_000_000
        path = tmp_path / "labels.bin"
        io.write_labels(path, labels)
        code = cli.main(["eval", "--data", str(pipeline["data"]), "--labels", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: labels must lie in [0, 2000), got 4000000000\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is Linux's")
    def test_eval_peak_stays_far_below_the_file(self, tmp_path):
        # 2^18 vectors of dimension 32, a 33 MiB file. eval holds the labels
        # (4 B/pt, 1 MiB) and a few chunk-sized buffers: it measured a
        # 7.7 MiB rise, 9.3 MiB when it kept every point's squared distance
        # and its square root, and 44.8 MiB when it read the file whole.
        n, dim, k = 1 << 18, 32, 100
        rng = np.random.default_rng(43)
        data = tmp_path / "data.fvecs"
        io.write_fvecs(data, rng.standard_normal((n, dim), dtype=np.float32))
        io.write_labels(tmp_path / "labels.bin", rng.integers(0, k, size=n).astype(np.uint32))
        io.write_labels(tmp_path / "truth.bin", rng.integers(0, k, size=n).astype(np.uint32))
        io.write_fvecs(tmp_path / "small.fvecs", np.zeros((10, dim), dtype=np.float32))
        io.write_labels(tmp_path / "small.bin", np.zeros(10, dtype=np.uint32))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", _EVAL_PEAK_PROBE, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        rise = int(proc.stdout.split()[-1])
        size = data.stat().st_size
        assert size >= 25 << 20
        assert rise <= size / 2, f"eval raised peak RSS by {rise / 2**20:.1f} MiB"


# Runs eval on small.fvecs, so that every lazily imported module is loaded,
# then on data.fvecs, and prints the rise in peak RSS across the second run.
# The peak is VmHWM, the probe's own since its exec: ru_maxrss would start
# at the peak of the test process that spawned it.
_EVAL_PEAK_PROBE = """
import sys
from pqclust import cli
def peak():
    with open("/proc/self/status") as fh:
        return 1024 * next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
root = sys.argv[1]
if cli.main(["eval", "--data", root + "/small.fvecs", "--labels", root + "/small.bin",
             "--reference", root + "/small.bin"]):
    sys.exit(1)
before = peak()
if cli.main(["eval", "--data", root + "/data.fvecs", "--labels", root + "/labels.bin",
             "--reference", root + "/truth.bin"]):
    sys.exit(1)
print(peak() - before)
"""


class TestBench:
    def test_csv_schema_and_rows(self, pipeline, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli.main([
            "bench",
            "--methods", "pqkmeans,kmeans,bkmeans",
            "--k-grid", "4,8",
            "--codes", str(pipeline["codes"]),
            "--codebook", str(pipeline["book"]),
            "--data", str(pipeline["data"]),
            "--bits", "8",
            "--max-iterations", "5",
            "--time-naive-update",
            "--out", str(out),
            "--seed", "2",
        ]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert list(rows[0]) == [
            "method", "n", "k", "m", "l", "bits", "threads", "seed",
            "iterations_run", "converged", "objective", "original_space_error",
            "assign_seconds", "update_seconds", "naive_update_seconds",
            "mean_histogram_nnz", "memory_bytes",
        ]
        assert [r["method"] for r in rows] == [
            "pqkmeans", "pqkmeans", "kmeans", "kmeans", "bkmeans", "bkmeans",
        ]
        assert [r["k"] for r in rows] == ["4", "8"] * 3
        for row in rows:
            assert row["n"] == "2000"
            assert row["converged"] in ("True", "False")
            assert float(row["objective"]) >= 0.0
            assert float(row["original_space_error"]) > 0.0
            assert float(row["memory_bytes"]) > 0.0
        pq_rows = rows[:2]
        for row in pq_rows:
            assert (row["m"], row["l"]) == ("4", "16")
            assert float(row["naive_update_seconds"]) >= 0.0
            assert 1.0 <= float(row["mean_histogram_nnz"]) <= 16.0
            assert row["bits"] == ""
        for row in rows[2:]:
            for column in ("m", "l", "naive_update_seconds"):
                assert row[column] == "", (row["method"], column)
        assert [r["bits"] for r in rows[2:]] == ["", "", "8", "8"]
        # Bk-means votes on one byte subspace of 256 codewords; k-means keeps
        # no histograms.
        assert [r["mean_histogram_nnz"] for r in rows[2:4]] == ["", ""]
        for row in rows[4:]:
            assert 1.0 <= float(row["mean_histogram_nnz"]) <= 256.0

    def test_csv_goes_to_stdout_without_out(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main([
            "bench", "--k-grid", "3", "--codes", str(pipeline["codes"]),
            "--codebook", str(pipeline["book"]), "--max-iterations", "2",
        ]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [(r["method"], r["n"], r["k"]) for r in rows] == [("pqkmeans", "2000", "3")]
        assert list(rows[0]) == cli._BENCH_COLUMNS
        assert list(tmp_path.iterdir()) == []

    def test_disagreeing_naive_update_aborts_the_bench(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        fit = clustering.fit

        def skewed(*args, update="sparse", **kwargs):
            result = fit(*args, update=update, **kwargs)
            if update == "naive":
                result.labels[0] += 1
            return result

        monkeypatch.setattr(clustering, "fit", skewed)
        out = tmp_path / "bench.csv"
        assert cli.main([
            "bench", "--k-grid", "3", "--codes", str(pipeline["codes"]),
            "--codebook", str(pipeline["book"]), "--max-iterations", "2",
            "--time-naive-update", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err == "error: naive and sparse updates disagreed; benchmark aborted\n"
        assert list(tmp_path.iterdir()) == []

    def test_reads_and_binarizes_each_input_once(self, pipeline, tmp_path, calls):
        assert cli.main([
            "bench", "--methods", "pqkmeans,kmeans,bkmeans", "--k-grid", "5,10,20",
            "--codes", str(pipeline["codes"]), "--codebook", str(pipeline["book"]),
            "--data", str(pipeline["data"]), "--bits", "8", "--max-iterations", "3",
            "--out", str(tmp_path / "bench.csv"), "--seed", "2",
        ]) == 0
        assert calls == {
            "read_fvecs": 1, "read_codes": 1, "read_binary_codes": 0, "binarize": 1,
            "fit": 3, "kmeans_fit": 3, "bkmeans_fit": 3,
        }

    @pytest.mark.parametrize("method", ["pqkmeans", "bkmeans"])
    def test_data_of_another_n_fails_before_any_fit(
        self, pipeline, tmp_path, capsys, calls, method
    ):
        # The pqkmeans fits used to run before the labels met a --data of
        # another N, and the error named no file.
        data = tmp_path / "short.fvecs"
        io.write_fvecs(data, io.read_fvecs(pipeline["data"])[:1500])
        packed = tmp_path / "codes.pqkb"
        io.write_binary_codes(packed, np.zeros((2000, 1), dtype=np.uint8))
        codes = {
            "pqkmeans": ["--codes", str(pipeline["codes"]), "--codebook", str(pipeline["book"])],
            "bkmeans": ["--binary-codes", str(packed)],
        }[method]
        out = tmp_path / "bench.csv"
        code = cli.main([
            "bench", "--methods", f"{method},kmeans", "--k-grid", "2", *codes,
            "--data", str(data), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{codes[1]} holds 2000 codes but {data} holds 1500 vectors" in err
        assert calls["fit"] == calls["kmeans_fit"] == calls["bkmeans_fit"] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["codes.pqkb", "short.fvecs"]

    def test_rejects_unknown_method(self, pipeline, capsys):
        code = cli.main([
            "bench", "--methods", "zkmeans", "--k-grid", "2",
            "--codes", str(pipeline["codes"]),
            "--codebook", str(pipeline["book"]),
        ])
        assert code == 1
        assert "unknown method" in capsys.readouterr().err

    def test_unknown_method_fails_before_any_read_or_fit(self, pipeline, capsys, calls):
        # The pqkmeans fits used to run before the unknown method was found.
        code = cli.main([
            "bench", "--methods", "pqkmeans,zkmeans", "--k-grid", "2,3",
            "--codes", str(pipeline["codes"]), "--codebook", str(pipeline["book"]),
            "--data", str(pipeline["data"]),
        ])
        assert code == 1
        assert "unknown method 'zkmeans'" in capsys.readouterr().err
        assert set(calls.values()) == {0}


_PQ = ["--codes", "{codes}", "--codebook", "{book}"]


def _cluster(method, k, *inputs):
    return ["cluster", "--method", method, "--k", str(k), *inputs, "--out-dir", "{out}"]


# Runs that must fail before any fit. Braces name the pipeline's files, the
# small inputs the test writes under in/, and the one output path {out}.
_EARLY_FAILURES = [
    pytest.param(
        [*_cluster("pqkmeans", 2, *_PQ), "--threads", "0"], "--threads must be positive, got 0",
        id="threads",
    ),
    pytest.param(_cluster("kmeans", 2), "method kmeans needs --data", id="kmeans-inputs"),
    pytest.param(
        _cluster("bkmeans", 2, "--data", "{data}"),
        "method bkmeans needs --binary-codes, or --data with --bits", id="bkmeans-inputs",
    ),
    pytest.param(_cluster("pqkmeans", 0, *_PQ), "--k must be positive, got 0", id="k"),
    pytest.param(
        [*_cluster("pqkmeans", 2, *_PQ), "--max-iterations", "0"],
        "--max-iterations must be positive, got 0", id="max-iterations",
    ),
    pytest.param(
        ["eval", "--data", "{data}", "--labels", "{truth}", "--reference", "{short_labels}",
         "--out", "{out}"],
        "{short_labels} holds 1999 labels, expected 2000", id="eval-reference",
    ),
    pytest.param(
        ["bench", "--methods", ",", "--k-grid", "2", *_PQ, "--out", "{out}"],
        "--methods and --k-grid must be non-empty", id="bench-methods",
    ),
    pytest.param(
        ["bench", "--k-grid", ",", *_PQ, "--out", "{out}"],
        "--methods and --k-grid must be non-empty", id="bench-k-grid",
    ),
    pytest.param(
        ["bench", "--k-grid", "0,5", *_PQ, "--out", "{out}"],
        "--k-grid entries must be positive, got [0, 5]", id="bench-k-grid-entry",
    ),
    pytest.param(
        ["bench", "--k-grid", "10,x", *_PQ, "--out", "{out}"],
        "--k-grid entries must be integers, got 'x'", id="bench-k-grid-integer",
    ),
    pytest.param(
        ["bench", "--k-grid", "2.5", *_PQ, "--out", "{out}"],
        "--k-grid entries must be integers, got '2.5'", id="bench-k-grid-float",
    ),
    # Checked before bench binarizes --data, so no code file is written.
    pytest.param(
        ["bench", "--methods", "bkmeans", "--k-grid", "10", "--data", "{data}", "--bits", "8",
         "--binary-codes-out", "{out}", "--max-iterations", "0"],
        "--max-iterations must be positive, got 0", id="bench-max-iterations",
    ),
    # Empty inputs fail by name where they are read.
    pytest.param(
        _cluster("pqkmeans", 2, "--codes", "{empty_codes}", "--codebook", "{book}"),
        "{empty_codes}: holds no codes", id="empty-codes",
    ),
    pytest.param(
        _cluster("bkmeans", 2, "--binary-codes", "{empty_packed}"),
        "{empty_packed}: holds no binary codes", id="empty-binary-codes",
    ),
    pytest.param(
        ["bench", "--k-grid", "2", "--codes", "{empty_codes}", "--codebook", "{book}",
         "--out", "{out}"],
        "{empty_codes}: holds no codes", id="bench-empty-codes",
    ),
    pytest.param(
        _cluster("kmeans", 2, "--data", "{empty_data}"),
        "{empty_data}: holds no vectors", id="kmeans-empty-data",
    ),
    pytest.param(
        _cluster("bkmeans", 2, "--data", "{empty_data}", "--bits", "8",
                 "--binary-codes-out", "{out}"),
        "{empty_data}: holds no vectors", id="bkmeans-empty-data",
    ),
    pytest.param(
        ["eval", "--data", "{empty_data}", "--labels", "{truth}", "--out", "{out}"],
        "{empty_data}: holds no vectors", id="eval-empty-data",
    ),
    pytest.param(
        ["train-codebook", "--train", "{empty_data}", "--out", "{out}", "--m", "2", "--l", "4"],
        "{empty_data}: training file holds no vectors", id="train-empty-data",
    ),
    pytest.param(
        ["encode", "--codebook", "{book}", "--data", "{empty_data}", "--out", "{out}"],
        "{empty_data}: no vectors to encode", id="encode-empty-data",
    ),
    # A k above N names the flag, the value and the file.
    pytest.param(
        _cluster("pqkmeans", 2001, *_PQ), "--k 2001 exceeds the 2000 codes in {codes}",
        id="k-above-codes",
    ),
    pytest.param(
        _cluster("kmeans", 2001, "--data", "{data}"),
        "--k 2001 exceeds the 2000 vectors in {data}", id="k-above-vectors",
    ),
    pytest.param(
        _cluster("bkmeans", 2001, "--data", "{data}", "--bits", "8",
                 "--binary-codes-out", "{out}"),
        "--k 2001 exceeds the 2000 vectors in {data}", id="k-above-binarized",
    ),
    pytest.param(
        _cluster("bkmeans", 6, "--binary-codes", "{packed}"),
        "--k 6 exceeds the 5 binary codes in {packed}", id="k-above-binary-codes",
    ),
    pytest.param(
        ["bench", "--k-grid", "5,3000", *_PQ, "--out", "{out}"],
        "--k-grid 3000 exceeds the 2000 codes in {codes}", id="k-grid-above-codes",
    ),
    pytest.param(
        _cluster("bkmeans", 2, "--binary-codes", "{truncated}"),
        "{truncated}: truncated record 2 (header promises 3 records)", id="truncated-binary-codes",
    ),
]


class TestDiagnostics:
    @pytest.mark.parametrize("argv, message", _EARLY_FAILURES)
    def test_fails_before_any_fit_and_writes_nothing(
        self, pipeline, tmp_path, capsys, calls, argv, message
    ):
        inputs = tmp_path / "in"
        inputs.mkdir()
        paths = {name: str(path) for name, path in pipeline.items()}
        paths.update({name: str(inputs / name) for name in (
            "short_labels", "empty_codes", "empty_packed", "empty_data", "packed", "truncated",
        )})
        paths["out"] = str(tmp_path / "out")
        io.write_labels(paths["short_labels"], np.zeros(1999, dtype=np.uint32))
        io.write_codes(paths["empty_codes"], np.zeros((0, 4), dtype=np.uint8), 16)
        io.write_binary_codes(paths["empty_packed"], np.zeros((0, 1), dtype=np.uint8))
        io.write_fvecs(paths["empty_data"], np.zeros((0, 8), dtype=np.float32))
        io.write_binary_codes(paths["packed"], np.arange(5, dtype=np.uint8)[:, None])
        io.write_binary_codes(paths["truncated"], np.zeros((3, 1), dtype=np.uint8))
        with open(paths["truncated"], "r+b") as fh:
            fh.truncate(os.path.getsize(paths["truncated"]) - 1)
        assert cli.main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {message.format(**paths)}"]
        assert calls["fit"] == calls["kmeans_fit"] == calls["bkmeans_fit"] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["in"]

    def test_indivisible_subspaces(self, pipeline, tmp_path, capsys):
        code = cli.main([
            "train-codebook",
            "--train", str(pipeline["data"]),
            "--out", str(tmp_path / "book.pqcb"),
            "--m", "5", "--l", "16",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not divisible" in err

    def test_failed_codebook_write_keeps_previous_codebook(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        book = tmp_path / "book.pqcb"
        book.write_bytes(pipeline["book"].read_bytes())
        write_codebook = io.write_codebook

        def fail_partway(path, codebook):
            write_codebook(path, codebook)
            with open(path, "r+b") as fh:
                fh.truncate(path.stat().st_size // 2)
            raise OSError(f"{path}: device full")

        monkeypatch.setattr(io, "write_codebook", fail_partway)
        code = cli.main([
            "train-codebook", "--train", str(pipeline["data"]), "--out", str(book),
            "--m", "4", "--l", "16", "--iterations", "2", "--seed", "5",
        ])
        assert code == 1
        assert "device full" in capsys.readouterr().err
        assert book.read_bytes() == pipeline["book"].read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["book.pqcb"]

    # 9 records of dimension 6 fill 252 bytes, exactly 7 records of the
    # codebook's dimension 8, so the file size alone cannot tell them apart;
    # 10 records fill 280 bytes, which no dimension-8 file has.
    @pytest.mark.parametrize("records", [9, 10])
    def test_encode_dimension_mismatch_names_both(self, pipeline, tmp_path, capsys, records):
        data = tmp_path / "six.fvecs"
        io.write_fvecs(data, np.zeros((records, 6), dtype=np.float32))
        out = tmp_path / "codes.pqkc"
        code = cli.main([
            "encode", "--codebook", str(pipeline["book"]),
            "--data", str(data), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{data}: vectors have dimension 6, codebook expects 8" in err
        assert [p.name for p in tmp_path.iterdir()] == ["six.fvecs"]

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main([
            "encode",
            "--codebook", str(tmp_path / "missing.pqcb"),
            "--data", str(tmp_path / "missing.fvecs"),
            "--out", str(tmp_path / "out.pqkc"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_cluster_with_missing_codes_leaves_no_out_dir(self, pipeline, tmp_path, capsys):
        code = cli.main([
            "cluster", "--method", "pqkmeans", "--k", "4",
            "--codes", str(tmp_path / "missing.pqkc"), "--codebook", str(pipeline["book"]),
            "--out-dir", str(tmp_path / "fresh"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "fresh").exists()

    def test_cluster_requires_method_inputs(self, pipeline, tmp_path, capsys):
        code = cli.main([
            "cluster", "--method", "pqkmeans", "--k", "4",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "needs --codes and --codebook" in capsys.readouterr().err

    def test_mismatched_codebook_is_named(self, pipeline, tmp_path, capsys):
        other_book = tmp_path / "other.pqcb"
        assert cli.main([
            "train-codebook",
            "--train", str(pipeline["data"]),
            "--out", str(other_book),
            "--m", "2", "--l", "16", "--iterations", "2",
        ]) == 0
        capsys.readouterr()
        code = cli.main([
            "cluster", "--method", "pqkmeans", "--k", "4",
            "--codes", str(pipeline["codes"]),
            "--codebook", str(other_book),
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "does not match" in err
        assert "other.pqcb" in err

    def test_non_finite_vector_is_named_and_keeps_previous_codes(
        self, pipeline, tmp_path, capsys
    ):
        # Record 70000 lies past the first encode chunk, after that chunk's
        # codes were written.
        rng = np.random.default_rng(31)
        vectors = rng.normal(size=(70_010, 8)).astype(np.float32)
        vectors[70_000, 5] = np.nan
        data = tmp_path / "nan.fvecs"
        io.write_fvecs(data, vectors)
        out = tmp_path / "codes.pqkc"
        out.write_bytes(pipeline["codes"].read_bytes())
        code = cli.main([
            "encode", "--codebook", str(pipeline["book"]),
            "--data", str(data), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{data}: vectors must be finite, row 70000 holds NaN" in err
        assert out.read_bytes() == pipeline["codes"].read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["codes.pqkc", "nan.fvecs"]

        # Every other command that reads the vectors names the file and the
        # record, and writes nothing. eval and bench used to report a NaN
        # error, and cluster --method bkmeans to binarize NaN into 0 bits.
        labels = tmp_path / "labels.bin"
        io.write_labels(labels, np.zeros(len(vectors), dtype=np.uint32))
        for argv in (
            ["train-codebook", "--train", str(data), "--out", str(tmp_path / "book.pqcb"),
             "--m", "2", "--l", "4"],
            ["cluster", "--method", "kmeans", "--k", "2", "--data", str(data),
             "--out-dir", str(tmp_path / "km")],
            ["cluster", "--method", "bkmeans", "--k", "2", "--data", str(data), "--bits", "8",
             "--out-dir", str(tmp_path / "bk")],
            ["bench", "--k-grid", "2", "--codes", str(pipeline["codes"]),
             "--codebook", str(pipeline["book"]), "--data", str(data),
             "--out", str(tmp_path / "bench.csv")],
            ["eval", "--data", str(data), "--labels", str(labels),
             "--out", str(tmp_path / "eval.json")],
        ):
            assert cli.main(argv) == 1, argv
            assert f"{data}: vectors must be finite, row 70000 holds NaN" in capsys.readouterr().err
        # cluster makes its output directory only once the fit is done.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "codes.pqkc", "labels.bin", "nan.fvecs",
        ]
        assert not (tmp_path / "km").exists() and not (tmp_path / "bk").exists()

    def test_negative_seed_rejected(self, pipeline, capsys):
        code = cli.main([
            "eval", "--data", str(pipeline["data"]),
            "--labels", str(pipeline["truth"]),
        ])
        assert code == 0
        capsys.readouterr()
        code = cli.main([
            "cluster", "--method", "pqkmeans", "--k", "2",
            "--codes", str(pipeline["codes"]),
            "--codebook", str(pipeline["book"]),
            "--out-dir", "unused",
            "--seed", "-3",
        ])
        assert code == 1
        assert "--seed must be non-negative" in capsys.readouterr().err


class TestSeedDerivation:
    def test_stages_get_distinct_stable_seeds(self):
        stages = ["synth", "codebook", "encode", "binarize", "cluster"]
        seeds = [cli.derive_seed(7, s) for s in stages]
        assert len(set(seeds)) == len(stages)
        assert seeds == [cli.derive_seed(7, s) for s in stages]
        assert cli.derive_seed(8, "synth") != cli.derive_seed(7, "synth")
