"""One contract for every integer index array a public entry takes: codes,
labels, subindices and histogram counts must have the expected shape, an
integer dtype other than bool and entries in [0, bound). Anything else is
a ValueError that names the input."""

import math
import re

import numpy as np
import pytest

from pqclust import (
    PQCodebook,
    assign,
    bkmeans_fit,
    build_distance_tables,
    build_histogram,
    cluster_means,
    decode,
    fit,
    original_space_error,
    paired_distance_sq,
    update_center_naive,
    update_center_sparse,
)
from pqclust.baselines import streamed_original_space_error
from pqclust.io import CodesWriter, write_binary_codes, write_codes, write_labels

M, L = 2, 4
BOOK = PQCodebook(np.random.default_rng(0).normal(size=(M, L, 2)))
TABLES = build_distance_tables(BOOK)
CODES = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 0], [1, 1]])
CENTERS = CODES[:2]
COUNTS = np.array([1, 0, 2, 0])
POINTS = np.arange(6, dtype=np.float32).reshape(3, 2)
LABELS = np.array([0, 1, 1])


def _write_streamed(path, codes):
    with CodesWriter(path, len(CODES), M, L) as writer:
        writer.write(codes)


# entry: (call with the input under test, a valid input, bound, name)
ENTRIES = {
    "build_histogram": (lambda v, d: build_histogram(v, L), CODES[:, 0], L, "subindices"),
    "update_center_sparse": (
        lambda v, d: update_center_sparse([v, COUNTS], TABLES), COUNTS, math.inf,
        "histogram for subspace 0",
    ),
    "update_center_naive": (lambda v, d: update_center_naive(v, TABLES), CODES, L, "member_codes"),
    "cluster_means": (lambda v, d: cluster_means(POINTS, v, 2), LABELS, 2, "labels"),
    "original_space_error": (lambda v, d: original_space_error(POINTS, v), LABELS, 3, "labels"),
    "streamed_original_space_error": (
        lambda v, d: streamed_original_space_error(lambda: [POINTS], v, 2), LABELS, 3, "labels",
    ),
    "assign.codes": (lambda v, d: assign(v, CENTERS, TABLES), CODES, L, "codes"),
    "assign.centers": (lambda v, d: assign(CODES, v, TABLES), CENTERS, L, "centers"),
    "fit.codes": (lambda v, d: fit(v, TABLES, 2), CODES, L, "codes"),
    "fit.initial_centers": (
        lambda v, d: fit(CODES, TABLES, 2, initial_centers=v), CENTERS, L, "initial_centers",
    ),
    "bkmeans_fit.codes": (lambda v, d: bkmeans_fit(v, 2), CODES, 256, "codes"),
    "bkmeans_fit.initial_centers": (
        lambda v, d: bkmeans_fit(CODES, 2, initial_centers=v), CENTERS, 256, "initial_centers",
    ),
    "decode": (lambda v, d: decode(BOOK, v), CODES, L, "codes"),
    "paired_distance_sq.a": (lambda v, d: paired_distance_sq(TABLES, v, CODES), CODES, L, "a"),
    "paired_distance_sq.b": (lambda v, d: paired_distance_sq(TABLES, CODES, v), CODES, L, "b"),
    "write_labels": (lambda v, d: write_labels(d / "labels.bin", v), LABELS, 2**32, "labels"),
    "write_codes": (lambda v, d: write_codes(d / "codes.pqkc", v, L), CODES, L, "codes"),
    "CodesWriter.write": (lambda v, d: _write_streamed(d / "codes.pqkc", v), CODES, L, "codes"),
    "write_binary_codes": (
        lambda v, d: write_binary_codes(d / "codes.pqkb", v), CODES, 256, "packed codes",
    ),
}


def _bad(kind, good, bound):
    """The valid input made bad in one way, and the message it must get."""
    good = np.asarray(good, dtype=np.int64)
    if kind == "float":
        return good + 0.5, "must be integers, got dtype float64"
    if kind == "bool":
        return good.astype(bool), "must be integers, got dtype bool"
    if kind == "shape":
        # fit and bkmeans_fit check initial_centers' shape when they set up.
        return good[None], "(must have|has) shape"
    value = -1 if kind == "negative" else bound
    bad = good.copy()
    bad.flat[-1] = value
    return bad, re.escape(f"must lie in [0, {bound}), got {value}")


# Counts have no upper bound to reach.
CASES = [
    (entry, kind)
    for entry in ENTRIES
    for kind in ("float", "bool", "negative", "at_bound", "shape")
    if kind != "at_bound" or ENTRIES[entry][2] != math.inf
]


@pytest.mark.parametrize("entry, kind", CASES)
def test_every_index_input_is_checked_and_named(entry, kind, tmp_path):
    call, good, bound, name = ENTRIES[entry]
    bad, message = _bad(kind, good, bound)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {message}"):
        call(bad, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", ENTRIES)
def test_valid_inputs_pass(entry, tmp_path):
    call, good, _, _ = ENTRIES[entry]
    call(good, tmp_path)
