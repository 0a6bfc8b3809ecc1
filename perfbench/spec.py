"""Workload sizes of the pqclust benchmark, and a reader for its metric list.

Standard library only: the orchestrator imports it before it knows that the
package under test exists. BENCHMARK.json, at the root of the checkout,
holds the workload names with the reason for each and every metric's name,
unit, direction and bound; this module adds what a run needs to build the
inputs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

# Shared by every workload: D=32, M=4, L=256 and a 100-component mixture
# with spread 0.25, codebooks trained on 20k vectors with the CLI default of
# 20 Lloyd iterations per subspace.
DIM = 32
M = 4
L = 256
COMPONENTS = 100
SPREAD = 0.25
TRAIN_N = 20_000
TRAIN_ITERATIONS = 20

# Every fit runs exactly this many Lloyd iterations. Left to converge, the
# count moves with the data seed (6 to 10 at K=1000 on 200k codes), and so
# would every time; a fixed count keeps the work per run seed-independent.
# No pqkmeans fit converged in fewer than 6 on the seeds tried, so the
# checks rebuild the centers a capped fit's last assignment used.
FIT_ITERATIONS = 4

# Fits use every core up to two; the pipeline is the single-thread baseline.
THREADS = max(1, min(2, os.cpu_count() or 1))

# Sizes per workload; the names and the reason for each are in BENCHMARK.json.
# fit_repeats: how many more times each untraced repetition runs the
# pqkmeans step after its timed section. A fit takes a few tenths of a
# second and a repetition's process start, loading and checks take about as
# long again, so more fits per process make fit_s the median of many fits
# rather than of a few.
WORKLOADS = {
    "pipeline": {"n": 500_000, "k": 100, "threads": 1, "fit_repeats": 4},
    "fit-large-k": {"n": 200_000, "k": 1000, "threads": THREADS, "fit_repeats": 1},
    "fit-many-points": {"n": 1_000_000, "k": 64, "threads": THREADS, "fit_repeats": 3},
    "compare": {"n": 400_000, "k": 100, "threads": THREADS, "fit_repeats": 12},
}

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_metrics() -> tuple[list[dict], list[dict]]:
    """The end-to-end and the per-layer metrics BENCHMARK.json lists.

    Each is a dict with name, unit, better and, end-to-end only, bound.
    DESIGN.md gives, for each per-layer metric, the end-to-end metric and
    workload it should move; a layer that does no work in a workload
    reports 0 there.
    """
    doc = json.loads(BENCHMARK_JSON.read_text())
    return doc["end_to_end"], doc["per_layer"]
