"""Output checks of the benchmark and the operation counter they feed.

Every stage call and every check is one operation. A stage that raises, or
a CLI command that exits non-zero, fails its operation and ends the timed
section; a check that does not hold fails its operation and the run goes
on. The checks recompute what they compare against with numpy, from the
distance tables, and never call clustering.assign or the center update on
the labels they check. Only `centers_before_last_assign` calls the package:
it refits to rebuild the centers a capped fit's last assignment used.
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

from pqclust import clustering

# Rounding allowance when comparing float64 sums that the library and the
# check accumulate in a different order.
_REL_TOL = 1e-9
# Brute-force nearest-center check: at most this many sampled points.
_SAMPLE = 10_000
_SAMPLE_CHUNK = 1_000


class StageFailed(Exception):
    """A stage of the timed section failed; later stages cannot run."""


class Ops:
    """Counts operations attempted and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def stage(self, name: str, fn, *args, **kwargs):
        """Run one stage call; a raised exception fails it."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any stage failure is counted, then reported
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {exc!r}")
            raise StageFailed(name) from exc

    def command(self, name: str, main, argv: list[str]) -> None:
        """Run one CLI command in-process; a non-zero exit status fails it."""
        status = self.stage(name, main, argv)
        if status != 0:
            self.failures.append(f"{name}: exit status {status}")
            raise StageFailed(name)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def check_labels(ops: Ops, name: str, labels: np.ndarray, n: int, k: int) -> bool:
    """Labels have length N and lie in [0, K)."""
    labels = np.asarray(labels)
    ok = labels.shape == (n,) and (n == 0 or (labels.min() >= 0 and labels.max() < k))
    detail = "" if ok else (
        f"shape {labels.shape}, range [{labels.min()}, {labels.max()}], want ({n},) in [0, {k})"
        if labels.size else f"shape {labels.shape}, want ({n},)"
    )
    return ops.check(f"{name}.labels", ok, detail)


def check_objective(ops: Ops, name: str, objective_sq: list[float]) -> bool:
    """The squared objective of the trace never rises."""
    rises = [
        i + 1
        for i, (a, b) in enumerate(zip(objective_sq, objective_sq[1:]))
        if b > a + _REL_TOL * abs(a)
    ]
    return ops.check(
        f"{name}.objective_monotone", not rises, f"objective_sq rose at iterations {rises}"
    )


def nearest_centers(codes: np.ndarray, centers: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Brute-force nearest center by summed table distance, lowest index on ties.

    Sums the subspaces in order 0..M-1 in float64, which is how the
    symmetric distance is defined, so equal distances compare equal.
    """
    dist = np.zeros((len(codes), len(centers)), dtype=np.float64)
    for m in range(tables.shape[0]):
        dist += tables[m][codes[:, m][:, None], centers[:, m][None, :]]
    return np.argmin(dist, axis=1)


def centers_before_last_assign(
    codes: np.ndarray,
    tables,
    k: int,
    seed: int,
    threads: int,
    iterations: int,
    converged: bool,
    centers: np.ndarray,
) -> np.ndarray:
    """The centers the fit's last assignment used.

    A converged fit stops right after its last assignment and returns those
    centers. A fit stopped by the iteration cap updates the centers once
    more; refitting with the same seed and one iteration fewer rebuilds the
    centers that update started from (the fit is deterministic for fixed
    inputs and seed).
    """
    if converged:
        return centers
    if iterations == 1:
        return clustering.init_centers(codes, k, seed)
    return clustering.fit(codes, tables, k, iterations - 1, seed, threads=threads).centers


def check_nearest_center(
    ops: Ops,
    name: str,
    codes: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    tables: np.ndarray,
    seed: int,
) -> bool:
    """On a seeded sample of up to 10k points, each label is the brute-force
    nearest of `centers`, lowest index on ties."""
    rng = np.random.default_rng([seed, 4])
    sample = np.sort(rng.choice(len(codes), size=min(_SAMPLE, len(codes)), replace=False))
    wrong = 0
    for start in range(0, len(sample), _SAMPLE_CHUNK):
        idx = sample[start : start + _SAMPLE_CHUNK]
        expected = nearest_centers(codes[idx], centers, tables)
        wrong += int(np.count_nonzero(expected != labels[idx]))
    return ops.check(
        f"{name}.nearest_center", wrong == 0,
        f"{wrong} of {len(sample)} sampled labels are not the nearest center",
    )


def check_center_update(
    ops: Ops,
    name: str,
    codes: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    tables: np.ndarray,
) -> bool:
    """A fit stopped by the iteration cap returns centers updated from its
    labels: each non-empty cluster's center must minimize, per subspace, the
    summed table distance to its members."""
    k, l_count = len(centers), tables.shape[1]
    filled = np.bincount(labels.astype(np.intp), minlength=k) > 0
    joint = labels.astype(np.int64) * l_count
    bad = 0
    for m in range(tables.shape[0]):
        hist = np.bincount(joint + codes[:, m], minlength=k * l_count).reshape(k, l_count)
        votes = hist[filled].astype(np.float64) @ tables[m]
        best = votes.min(axis=1)
        chosen = votes[np.arange(len(votes)), centers[filled, m]]
        bad += int(np.count_nonzero(chosen > best + _REL_TOL * np.abs(best)))
    return ops.check(
        f"{name}.center_update", bad == 0,
        f"{bad} (cluster, subspace) codewords do not minimize the member distance",
    )
