"""Self-tests of the benchmark's checks, tracer and BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a checkout. The repository's own test suite does not
collect this file.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from pqclust import clustering, io, pq  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics, self_seconds  # noqa: E402


@pytest.fixture(scope="module")
def small_problem():
    vectors, _ = io.generate_synthetic(3000, spec.DIM, 10, spec.SPREAD, seed=3)
    book = pq.train_codebook(vectors, spec.M, 32, iterations=5, seed=3)
    return pq.encode(book, vectors), pq.build_distance_tables(book)


def test_corrupted_label_is_counted(small_problem):
    codes, tables = small_problem
    result = clustering.fit(codes, tables, 8, max_iterations=50, seed=1)
    assert result.converged
    args = (codes, result.centers)

    ops = checks.Ops()
    checks.check_labels(ops, "fit", result.labels, len(codes), 8)
    checks.check_nearest_center(ops, "fit", *args, result.labels, tables.tables, seed=0)
    assert (ops.attempted, ops.failures) == (2, [])

    # One label moved to another valid cluster: the sampled brute-force
    # check covers every point here, so it must see it.
    corrupted = result.labels.copy()
    corrupted[17] = (corrupted[17] + 1) % 8
    checks.check_nearest_center(ops, "fit", *args, corrupted, tables.tables, seed=0)
    # One label out of range.
    corrupted[17] = 8
    checks.check_labels(ops, "fit", corrupted, len(codes), 8)
    assert ops.attempted == 4
    assert [f.split(":")[0] for f in ops.failures] == ["fit.nearest_center", "fit.labels"]


@pytest.mark.parametrize("iterations", [1, 3])
def test_wrong_label_on_capped_fit_is_counted(small_problem, iterations):
    codes, tables = small_problem
    result = clustering.fit(codes, tables, 8, max_iterations=iterations, seed=5, threads=2)
    assert not result.converged
    used = checks.centers_before_last_assign(
        codes, tables, 8, 5, 1, result.iterations_run, result.converged, result.centers)
    assert not np.array_equal(used, result.centers)

    ops = checks.Ops()
    checks.check_nearest_center(ops, "fit", codes, used, result.labels, tables.tables, seed=0)
    # A capped fit returns centers updated after its last assignment, so the
    # labels are checked against the rebuilt centers that assignment used.
    corrupted = result.labels.copy()
    corrupted[17] = (corrupted[17] + 1) % 8
    checks.check_nearest_center(ops, "fit", codes, used, corrupted, tables.tables, seed=0)
    assert ops.attempted == 2
    assert [f.split(":")[0] for f in ops.failures] == ["fit.nearest_center"]


def test_corrupted_center_is_counted(small_problem):
    codes, tables = small_problem
    result = clustering.fit(codes, tables, 8, max_iterations=2, seed=1)
    assert not result.converged
    ops = checks.Ops()
    checks.check_center_update(ops, "fit", codes, result.centers, result.labels, tables.tables)
    assert ops.failures == []

    centers = result.centers.copy()
    votes = np.bincount(codes[result.labels == 0, 0], minlength=32) @ tables.tables[0]
    centers[0, 0] = int(np.argmax(votes))
    checks.check_center_update(ops, "fit", codes, centers, result.labels, tables.tables)
    assert [f.split(":")[0] for f in ops.failures] == ["fit.center_update"]


def test_repeated_fits_return_the_timed_fit_labels(small_problem, tmp_path):
    codes, tables = small_problem
    result = clustering.fit(codes, tables, 8, spec.FIT_ITERATIONS, seed=1)
    ops = checks.Ops()
    seconds, digests = worker.repeat_fit(
        ops, "fit-large-k", tmp_path, tmp_path, 1, 8, 2, time.perf_counter,
        {"codes": codes, "tables": tables}, 2)
    assert len(seconds) == 2 and all(s > 0 for s in seconds)
    assert digests == [worker.labels_digest(result.labels)] * 2
    assert (ops.attempted, ops.failures) == (2, [])
    corrupted = result.labels.copy()
    corrupted[17] = (corrupted[17] + 1) % 8
    assert worker.labels_digest(corrupted) != digests[0]


def test_objective_check_and_failed_stage():
    ops = checks.Ops()
    assert checks.check_objective(ops, "fit", [3.0, 2.0, 2.0])
    assert not checks.check_objective(ops, "fit", [3.0, 2.0, 2.5])
    with pytest.raises(checks.StageFailed):
        ops.command("cli", lambda argv: 1, [])
    assert ops.attempted == 3 and len(ops.failures) == 2


def test_tracer_spans_and_layer_metrics(small_problem):
    codes, tables = small_problem
    tracer = Tracer("t")
    tracer.wrap(pq, "build_distance_tables", "pq.build_distance_tables")
    tracer.wrap(clustering, "fit", "clustering.fit", lambda a, r: {
        "n": len(a["codes"]), "k": a["k"], "m": 4, "l": 32,
        "iterations": r.iterations_run, "updates": r.iterations_run,
        "assign_s": 0.0, "update_s": 0.0})
    try:
        tracer.enabled = True
        with tracer.span("bench.timed"):
            clustering.fit(codes, tables, 8, max_iterations=2, seed=1)
        tracer.enabled = False
        clustering.fit(codes, tables, 8, max_iterations=2, seed=1)
    finally:
        tracer.restore()
    assert not hasattr(clustering.fit, "__wrapped__")
    assert [s["name"] for s in tracer.spans] == ["bench.timed", "clustering.fit"]
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]
    _, per_layer = spec.load_metrics()
    metrics = layer_metrics(tracer.spans, [m["name"] for m in per_layer])
    assert metrics["clustering.fit.iterations"] == 2
    assert metrics["clustering.assign.lookups"] == len(codes) * 8 * 4 * 2
    assert set(metrics) == {m["name"] for m in per_layer}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "a", "parent": "", "name": "x", "start": 0.0, "end": 10.0, "attrs": {}},
        {"id": "b", "parent": "a", "name": "y", "start": 1.0, "end": 4.0, "attrs": {}},
        {"id": "c", "parent": "a", "name": "y", "start": 3.0, "end": 5.0, "attrs": {}},
        {"id": "d", "parent": "b", "name": "z", "start": 2.0, "end": 3.0, "attrs": {}},
    ]
    assert self_seconds(spans) == pytest.approx({"a": 6.0, "b": 2.0, "c": 2.0, "d": 1.0})


def test_benchmark_json_is_well_formed():
    doc = json.loads(spec.BENCHMARK_JSON.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    # Every workload BENCHMARK.json names has its sizes in spec.py.
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
