"""Run one workload of the pqclust benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the package is imported from ./src, and
every file the run writes goes under ./.perfbench_work, which is removed at
the end. Workloads and metrics are listed in BENCHMARK.json, sizes in spec.py;
DESIGN.md explains them.

With --trace 0 the run sets up the workload's inputs at least three times,
each in its own process, and reports the median as setup_s. It then repeats the
timed section, each time in a fresh process with tracing off, for about
--seconds, and reports the median of every end-to-end metric. Each such
repetition also reruns the pqkmeans step as often as spec.py's fit_repeats
says, after its timed section; fit_s and fit_pts_per_s are the medians over
every fit of every repetition, and so is wall_s where the timed section is
the fit alone. With --trace 1 it sets up once with tracing
on, then alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, with the spans of one of them.

Lines before the last describe the run (environment, failures, each metric
with its unit and spread). The last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is 0 when every
operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spec import DIM, FIT_ITERATIONS, L, M, WORKLOADS, load_metrics
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
# setup_s is the median of at least three set-ups, and of more when they are
# short, until they add up to SETUP_SECONDS.
SETUP_MIN_REPS = 3
SETUP_SECONDS = 4.0
# Every run, set-up included, must end within 180 s.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is itself a git work tree, else 'unknown'."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def pooled(records: list[dict], name: str) -> list[float]:
    """Every value of a metric over the repetitions.

    A repetition reports one value, or, for the metrics its repeated fits
    also measure (wall_s, fit_s, fit_pts_per_s), a list of them.
    """
    return [v for r in records for v in (r[name] if isinstance(r[name], list) else [r[name]])]


class Run:
    def __init__(self, args: argparse.Namespace, root: Path, work: Path) -> None:
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.root = root
        self.work = work
        self.inputs = work / "inputs-0"
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.end_to_end, self.per_layer = load_metrics()
        self.labels_sha256: str | None = None
        self.environment: dict = {}
        threads = str(self.spec["threads"])
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env.update({name: threads for name in THREAD_VARS})

    def worker(
        self, phase: str, name: str, inputs: Path, trace: bool,
        work: Path | None = None, verify: bool = False, fit_repeats: int = 0,
    ):
        """Run worker.py once; returns (seconds, result dict or None on failure)."""
        result = self.work / f"{name}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), phase,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--inputs", str(inputs), "--result", str(result),
        ]
        if work is not None:
            cmd += ["--work", str(work)]
        if trace:
            cmd.append("--trace")
        if verify:
            cmd.append("--verify")
        if fit_repeats:
            cmd += ["--fit-repeats", str(fit_repeats)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL)
        # A blocking wait returns as soon as the worker exits; wait(timeout=)
        # polls with sleeps of up to 50 ms, which would show in setup_s.
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ok = proc.wait() == 0 and result.is_file()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
        if not ok:
            self.attempted += 1
            self.failures.append(f"{phase} {name}: worker process failed")
            return seconds, None
        record = json.loads(result.read_text())
        self.environment.update(record.pop("environment"))
        return seconds, record

    def setup(self, trace: bool) -> tuple[list[float], list[dict]] | None:
        """Set up once when tracing, else as SETUP_MIN_REPS and SETUP_SECONDS ask.

        Returns the seconds of each set-up and the spans of the first; only
        the first one's inputs are used.
        """
        seconds, spans = [], []
        while not seconds or not trace and (
            len(seconds) < SETUP_MIN_REPS or sum(seconds) < SETUP_SECONDS
        ):
            i = len(seconds)
            elapsed, record = self.worker("setup", f"setup-{i}", self.work / f"inputs-{i}", trace)
            if record is None:
                return None
            self.attempted += 1
            seconds.append(elapsed)
            spans = spans or record["spans"]
            if i > 0:
                shutil.rmtree(self.work / f"inputs-{i}")
        return seconds, spans

    def rep(self, index: int, trace: bool) -> dict | None:
        """One timed repetition; returns its record, or None if it failed.

        The first repetition that returns labels checks them against the
        centers its last assignment used, which costs a refit outside the
        timed section. Every later one must return exactly the same labels:
        the fit is deterministic for fixed inputs and seed, at any thread
        count.
        """
        name = f"rep-{index}{'-traced' if trace else ''}"
        verify = self.labels_sha256 is None
        # Only the untraced run reports fit_s, so only it repeats the fit.
        repeats = 0 if self.args.trace else self.spec["fit_repeats"]
        _, record = self.worker("timed", name, self.inputs, trace, self.work / name, verify, repeats)
        if record is None:
            return None
        self.attempted += record["attempted"]
        self.failures += [f"{name}: {f}" for f in record["failures"]]
        digest = record.get("labels_sha256")
        if digest is not None:
            if verify:
                self.labels_sha256 = digest
            else:
                self.attempted += 1
                if digest != self.labels_sha256:
                    self.failures.append(f"{name}: labels differ from the verified repetition's")
        return record if "wall_s" in record and not record["failures"] else None

    def measure(self, trace: bool) -> tuple[list[dict], list[dict]]:
        """Repeat the timed section for about --seconds; traced reps only with trace."""
        plain, traced = [], []
        start = time.monotonic()
        index = 0
        while True:
            # In a traced run, alternate which side of each pair runs first.
            order = [False, True] if index % 2 == 0 else [True, False]
            for with_trace in order if trace else [False]:
                record = self.rep(index, with_trace)
                if record is not None:
                    (traced if with_trace else plain).append(record)
            index += 1
            elapsed = time.monotonic() - start
            per_round = elapsed / index
            if elapsed + per_round > self.args.seconds or time.monotonic() + per_round > self.deadline:
                return plain, traced

    def describe(self) -> dict:
        n, k = self.spec["n"], self.spec["k"]
        env = dict(self.environment)
        env.update(
            workload=self.args.workload,
            seed=self.args.seed,
            git_commit=git_commit(self.root),
            nproc=os.cpu_count(),
            cpus_usable=len(os.sched_getaffinity(0)),
            threads=self.spec["threads"],
            thread_env={name: self.env[name] for name in THREAD_VARS},
            n=n, k=k, m=M, l=L, dim=DIM, fit_iterations=FIT_ITERATIONS,
            computed={
                "assign_lookups_per_iteration": n * k * M,
                "update_hist_bins_per_update": k * L * M,
                "code_bytes": n * M,
                "table_bytes_float64": M * L * L * 8,
                "fvecs_bytes": n * (4 + 4 * DIM),
            },
        )
        return env

    def finish(self, metrics: dict[str, tuple[float, str]]) -> int:
        """Print the environment, failures and the result line; returns the exit status."""
        print("# env " + json.dumps(self.describe(), sort_keys=True))
        for failure in self.failures:
            print(f"# failed: {failure}")
        failed = len(self.failures)
        print(f"# failed_frac {failed / self.attempted:.6g} ({failed} of {self.attempted} operations)")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }))
        return 0 if failed == 0 else 1

    def run(self) -> int:
        trace = self.args.trace == 1
        setup = self.setup(trace)
        if setup is None:
            return self.finish({})
        setup_s, setup_spans = setup
        plain, traced = self.measure(trace)
        if not plain or (trace and not traced):
            self.attempted += 1
            self.failures.append("no timed repetition completed")
            return self.finish({})
        if trace:
            return self.report_layers(plain, traced, setup_spans)
        return self.report_end_to_end(plain, setup_s)

    def report_end_to_end(self, plain: list[dict], setup_s: list[float]) -> int:
        metrics = {}
        for metric in self.end_to_end:
            name, unit = metric["name"], metric["unit"]
            values = setup_s if name == "setup_s" else pooled(plain, name)
            metrics[name] = (statistics.median(values), unit)
            print(f"metric {name} {metrics[name][0]:.6g} {unit} "
                  f"(median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})")
        for name in ("kmeans_fit_s", "bkmeans_fit_s", "error_kmeans", "error_bkmeans"):
            if name in plain[0]:
                unit = "s" if name.endswith("_s") else "dist"
                print(f"metric {name} {statistics.median(r[name] for r in plain):.6g} {unit} "
                      f"(median of {len(plain)}; printed, not bounded)")
        iterations = sorted({r["iterations"] for r in plain})
        print(f"# fit iterations {iterations}, converged {sorted({r['converged'] for r in plain})}")
        return self.finish(metrics)

    def report_layers(self, plain: list[dict], traced: list[dict], setup_spans: list[dict]) -> int:
        units = {m["name"]: m["unit"] for m in self.per_layer}
        per_rep = [layer_metrics(setup_spans + r["spans"], list(units)) for r in traced]
        metrics = {name: (statistics.median(m[name] for m in per_rep), units[name]) for name in units}
        overhead = (statistics.median(pooled(traced, "wall_s"))
                    - statistics.median(pooled(plain, "wall_s")))
        metrics["trace.overhead_s"] = (overhead, "s")
        for span in setup_spans + traced[-1]["spans"]:
            print(f"span {span['id']} parent={span['parent'] or '-'} {span['name']} "
                  f"start={span['start']:.6f} dur={span['end'] - span['start']:.6f}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value:.6g} {unit}")
        print(f"# {len(traced)} traced and {len(plain)} untraced repetitions")
        return self.finish(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one pqclust benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "pqclust" / "__init__.py").is_file():
        print(f"error: no package at {root / 'src' / 'pqclust'}; "
              "run from the root of a pqclust checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        return Run(args, root, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
