"""Spans around pqclust's public functions, recorded from outside the package.

A Tracer replaces functions at their module attribute with wrappers that
record one span per call: name, start, end, the span that was open when the
call began (its parent) and a few attributes read from the arguments and the
result. Callers inside the package look these names up through the module
(`cli` calls `pq.encode`, `clustering.fit` calls `assign`), so the wrappers
see those calls too. A name bound with `from ... import` elsewhere (such as
`paired_distance_sq` inside `clustering`) is not seen, and none is wrapped.

Spans stay in memory; the worker writes them out with its result.
`layer_metrics` turns a list of spans into the per-layer metrics of BENCHMARK.json.
Only the standard library is imported here, so the orchestrator can use
`layer_metrics` without numpy.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import resource
import threading
import time
from collections import defaultdict


def max_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans while `enabled` is true; costs one attribute test when not."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.enabled = False
        self._local = threading.local()
        self._origin = time.perf_counter()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span; yields its attribute dict (None when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = {
            "id": f"{self.trace_id}:{len(self.spans) + 1}",
            "parent": stack[-1] if stack else "",
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter() - self._origin
            stack.pop()

    def _replace(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Trace every call of module.attr as span `name`.

        `describe(bound_arguments, result)` returns attributes for the span.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                if attrs is None:
                    return original(*args, **kwargs)
                before = max_rss_mb()
                result = original(*args, **kwargs)
                if describe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs.update(describe(bound.arguments, result))
                attrs["rss_delta_mb"] = max_rss_mb() - before
                return result

        self._replace(module, attr, traced)

    def wrap_iterator(self, module, attr: str, name: str, describe_item) -> None:
        """Trace each item a generator function yields as its own span."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                with tracer.span(name) as attrs:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    if attrs is not None:
                        attrs.update(describe_item(item))
                yield item

        self._replace(module, attr, traced)

    def wrap_class(self, module, attr: str, name: str, methods: tuple[str, ...]) -> None:
        """Trace the listed methods of module.attr through a subclass."""
        original = getattr(module, attr)
        tracer = self

        def traced_method(method_name):
            method = getattr(original, method_name)

            @functools.wraps(method)
            def traced(obj, *args, **kwargs):
                with tracer.span(name):
                    return method(obj, *args, **kwargs)

            return traced

        subclass = type(
            original.__name__,
            (original,),
            {m: traced_method(m) for m in methods},
        )
        self._replace(module, attr, subclass)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _fit_attrs(args, result) -> dict:
    tables = args["tables"]
    trace = result.trace
    nnz = [s.mean_histogram_nnz for s in trace if s.mean_histogram_nnz is not None]
    return {
        "n": int(len(args["codes"])),
        "k": int(args["k"]),
        "m": int(tables.num_subspaces),
        "l": int(tables.num_codewords),
        "iterations": result.iterations_run,
        "updates": result.iterations_run - int(result.converged),
        "assign_s": sum(s.assign_seconds for s in trace),
        "update_s": sum(s.update_seconds for s in trace),
        "repaired_clusters": sum(s.repaired_clusters for s in trace),
        "nnz_sum": float(sum(nnz)),
        "nnz_count": len(nnz),
    }


def _baseline_attrs(args, result) -> dict:
    return {
        "iterations": result.iterations_run,
        "assign_s": sum(s.assign_seconds for s in result.trace),
        "update_s": sum(s.update_seconds for s in result.trace),
    }


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of the five layers that the metrics read."""
    from pqclust import baselines, cli, clustering, io, pq

    tracer.wrap(pq, "train_codebook", "pq.train_codebook")
    tracer.wrap(
        pq, "encode", "pq.encode",
        lambda a, r: {"vectors": int(len(r)) if r.ndim == 2 else 1},
    )
    tracer.wrap(pq, "build_distance_tables", "pq.build_distance_tables")
    tracer.wrap(clustering, "fit", "clustering.fit", _fit_attrs)
    tracer.wrap(baselines, "kmeans_fit", "baselines.kmeans_fit", _baseline_attrs)
    tracer.wrap(baselines, "bkmeans_fit", "baselines.bkmeans_fit", _baseline_attrs)
    for attr in ("binarize", "original_space_error", "rand_index"):
        tracer.wrap(baselines, attr, f"baselines.{attr}")
    tracer.wrap_iterator(io, "iter_fvecs", "io.iter_fvecs", lambda c: {"bytes": int(c.nbytes)})
    tracer.wrap(io, "read_fvecs", "io.read_fvecs")
    tracer.wrap_class(io, "CodesWriter", "io.codes_writer", ("__init__", "write", "close"))
    tracer.wrap(io, "read_codes", "io.read_codes", lambda a, r: {"bytes": int(r[0].nbytes)})
    tracer.wrap(io, "write_labels", "io.write_labels")
    tracer.wrap(io, "save_result_document", "io.save_result_document")
    for command in ("train-codebook", "encode", "cluster", "eval"):
        tracer.wrap(cli, "cmd_" + command.replace("-", "_"), f"cli.{command}")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_seconds(spans: list[dict]) -> dict[str, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children[s["id"]])
        for s in spans
    }


def layer_metrics(spans: list[dict], names: list[str]) -> dict[str, float]:
    """The per-layer metrics `names` from spans of one or more traces.

    Seconds metrics sum the spans of that name; `.self_s` sums self times.
    trace.overhead_s needs an untraced run and is left at 0 here;
    trace.uncovered_s is the self time of the harness's timed-section span.
    """
    seconds = defaultdict(float)
    own = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    self_s = self_seconds(spans)
    for s in spans:
        seconds[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += self_s[s["id"]]
        for key, value in s["attrs"].items():
            attrs[s["name"]][key] += value

    out = {name: 0.0 for name in names}
    for name in out:
        layer, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = seconds[layer]
        elif kind == "self_s":
            out[name] = own[layer]

    fit = attrs["clustering.fit"]
    out["pq.encode.vec_per_s"] = _ratio(attrs["pq.encode"]["vectors"], seconds["pq.encode"])
    out["clustering.fit.iterations"] = fit["iterations"]
    out["clustering.fit.repaired_clusters"] = fit["repaired_clusters"]
    out["clustering.fit.mean_histogram_nnz"] = _ratio(fit["nnz_sum"], fit["nnz_count"])
    out["clustering.fit.rss_delta_mb"] = fit["rss_delta_mb"]
    out["clustering.assign.s"] = fit["assign_s"]
    out["clustering.update.s"] = fit["update_s"]
    out["clustering.other.s"] = seconds["clustering.fit"] - fit["assign_s"] - fit["update_s"]
    # Computed counts, not measured: N*K*M lookups per assignment and
    # K*L*M histogram bins per update, summed over the fits of the spans.
    lookups = bins = 0.0
    for s in spans:
        if s["name"] == "clustering.fit":
            a = s["attrs"]
            lookups += a["n"] * a["k"] * a["m"] * a["iterations"]
            bins += a["k"] * a["l"] * a["m"] * a["updates"]
    out["clustering.assign.lookups"] = lookups
    out["clustering.assign.lookups_per_s"] = _ratio(lookups, fit["assign_s"])
    out["clustering.update.hist_bins"] = bins
    for method in ("kmeans_fit", "bkmeans_fit"):
        for key in ("assign_s", "update_s", "iterations"):
            out[f"baselines.{method}.{key}"] = attrs[f"baselines.{method}"][key]
    out["io.iter_fvecs.bytes"] = attrs["io.iter_fvecs"]["bytes"]
    out["io.read_codes.bytes"] = attrs["io.read_codes"]["bytes"]
    out["trace.uncovered_s"] = own["bench.timed"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
