"""Spans around the program's layer entry points, for the traced run.

:func:`install` wraps every entry point in :data:`ENTRY_POINTS` with a
timer that records a span (name, start, end, parent, thread, attributes)
into a :class:`Recorder`.  Nothing in ``src/`` changes: the wrappers
replace the module and class attributes at run time, including every
``from module import name`` alias already bound in a ``repro`` module.
A listed entry point that no longer exists raises, so a refactor that
moves one breaks the traced run visibly instead of reporting zeros.

Spans stay in memory and :meth:`Recorder.dump` writes them out once, at
the end of the process.  :func:`summarize` turns the dumps of one traced
run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import threading
import time

#: (span name, module, attribute path).  The span name's first part is
#: the layer; every entry is a public function, method or property.
ENTRY_POINTS = (
    ("trace.materialize", "repro.workloads.registry", "get_workload"),
    ("trace.digest", "repro.trace.trace", "Trace.digest"),
    ("profiling.profile", "repro.profiling.conflict_profile", "profile_blocks"),
    ("profiling.estimator", "repro.profiling.estimator", "MissEstimator.__init__"),
    ("search.search", "repro.search.hill_climb", "hill_climb_front"),
    ("search.search", "repro.search.hill_climb", "hill_climb_restarts"),
    ("search.exhaustive", "repro.search.exhaustive", "optimal_bit_select"),
    ("cache.exact", "repro.cache.engine.dispatch", "simulate"),
    ("cache.exact", "repro.cache.engine.batched", "evaluate_many"),
    ("cache.exact", "repro.cache.engine.batched", "misses_for_index_streams"),
    ("pipeline.load", "repro.pipeline.artifact_cache", "ArtifactCache.load_json"),
    ("pipeline.load", "repro.pipeline.artifact_cache", "ArtifactCache.load_profile"),
    ("pipeline.load", "repro.pipeline.artifact_cache", "ArtifactCache.load_arrays"),
    ("pipeline.store", "repro.pipeline.artifact_cache", "ArtifactCache.store_json"),
    ("pipeline.store", "repro.pipeline.artifact_cache", "ArtifactCache.store_profile"),
    ("pipeline.store", "repro.pipeline.artifact_cache", "ArtifactCache.store_arrays"),
    ("api.spec", "repro.api.spec", "ExperimentSpec.from_dict"),
    ("api.spec", "repro.api.spec", "ExperimentSpec.from_toml"),
    ("api.spec", "repro.api.spec", "ExperimentSpec.load"),
    ("api.report", "repro.core.optimizer", "OptimizationResult.to_json"),
)

#: Layers whose spans count as covered op time for ``core.other_s``.
#: ``cli.body`` spans the whole CLI call, so it is not one of them.
_COVERING = ("api", "trace", "profiling", "search", "cache", "pipeline")


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.profile_inputs: set[str] = set()
        self.caches: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else -1,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> dict:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span["attrs"]

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (imports, the CLI body)."""
        with self._lock:
            self.spans.append(
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": -1,
                    "thread": threading.get_ident(),
                    "attrs": {},
                }
            )

    def cache_counters(self) -> dict[str, int]:
        """The artifact caches' own hit/miss/store counters, summed."""
        totals = {"hits": 0, "misses": 0, "stores": 0}
        for cache in self.caches:
            for per_kind in cache.stats().values():
                for event in totals:
                    totals[event] += per_kind.get(event, 0)
        return totals

    def dump(self, path: str) -> None:
        payload = {
            "spans": [s for s in self.spans if s["end"] is not None],
            "profile_inputs": sorted(self.profile_inputs),
            "cache": self.cache_counters(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- attribute extractors (run after the span closes) -----------------------


def _materialized(fn, result, before):
    if fn.cache_info().misses > before:
        return {"accesses": len(result.data) + len(result.instructions)}
    return {}


def _profiled(recorder, args, kwargs):
    import numpy as np

    bound = dict(zip(("blocks", "capacity_blocks", "n"), args), **kwargs)
    blocks = np.ascontiguousarray(bound["blocks"])
    digest = hashlib.blake2b(blocks.tobytes(), digest_size=16).hexdigest()
    recorder.profile_inputs.add(f"{digest}:{bound['capacity_blocks']}:{bound['n']}")
    return {"accesses": len(blocks)}


def _searched(result):
    results = result if isinstance(result, list) else [result]
    return {
        "evaluations": sum(r.evaluations for r in results),
        "nodes_expanded": sum(r.nodes_expanded for r in results),
    }


def _simulated(name, args):
    if name == "simulate":
        return {"accesses": len(args[0])}
    if name == "evaluate_many":
        trace, _geometry, functions = args[:3]
        return {"accesses": len(trace) * len(functions)}
    rows, count = args[0].shape
    return {"accesses": rows * count}


# -- installation -----------------------------------------------------------


def _wrap(recorder: Recorder, span: str, attr: str, fn):
    func_name = attr.rsplit(".", 1)[-1]

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        before = fn.cache_info().misses if span == "trace.materialize" else 0
        index = recorder.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            attrs = recorder.end(index)
        if span == "trace.materialize":
            attrs.update(_materialized(fn, result, before))
        elif span == "profiling.profile":
            attrs.update(_profiled(recorder, args, kwargs))
        elif span == "search.search":
            attrs.update(_searched(result))
        elif span == "cache.exact":
            attrs.update(_simulated(func_name, args))
        return result

    if hasattr(fn, "cache_info"):
        timed.cache_info = fn.cache_info
        timed.cache_clear = fn.cache_clear
    return timed


def _wrap_digest(recorder: Recorder, getter):
    @functools.wraps(getter)
    def digest(self):
        if "_digest" in self.__dict__:
            return getter(self)
        index = recorder.begin("trace.digest")
        try:
            return getter(self)
        finally:
            recorder.end(index).update(accesses=len(self))

    return property(digest)


def _wrap_cache_init(recorder: Recorder, init):
    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.caches.append(self)

    return __init__


def install(recorder: Recorder) -> None:
    """Wrap every entry point; raise if one is missing."""
    missing = []
    for span, module_name, attr in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[name] if owner_name else getattr(module, name)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{attr}")
            continue
        if isinstance(raw, property):
            setattr(owner, name, _wrap_digest(recorder, raw.fget))
        elif isinstance(raw, classmethod):
            setattr(owner, name, classmethod(_wrap(recorder, span, attr, raw.__func__)))
        elif owner_name:
            setattr(owner, name, _wrap(recorder, span, attr, raw))
        else:
            _replace_everywhere(raw, _wrap(recorder, span, attr, raw))
    if missing:
        raise RuntimeError(
            "traced entry points no longer exist: " + ", ".join(missing)
            + " (update perfbench/tracing.py ENTRY_POINTS)"
        )
    from repro.pipeline.artifact_cache import ArtifactCache

    ArtifactCache.__init__ = _wrap_cache_init(recorder, ArtifactCache.__init__)


def _replace_everywhere(original, wrapped) -> None:
    """Rebind ``original`` in every loaded ``repro`` module namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


# -- summarizing a traced run -----------------------------------------------


def _top_level(spans: list[dict], name: str):
    """Spans called ``name`` with no ancestor of the same name."""
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        nested = False
        while parent != -1:
            if spans[parent]["name"] == name:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            yield span


def _covered(spans: list[dict], windows: list[tuple[float, float]]) -> float:
    """Time of root library spans inside the op windows."""
    merged: list[list[float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    for span in spans:
        if span["parent"] != -1 or span["name"].split(".")[0] not in _COVERING:
            continue
        for start, end in merged:
            total += max(0.0, min(end, span["end"]) - max(start, span["start"]))
    return total


def summarize(dumps: list[dict], windows: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``dumps`` are the :meth:`Recorder.dump` payloads of every program
    process of the run; ``windows`` are the (start, end) perf-counter
    times of its timed ops, for ``core.other_s``.
    """
    seconds: dict[str, float] = {}
    counts: dict[str, float] = {}
    profile_inputs: set[str] = set()
    cache = {"hits": 0, "misses": 0, "stores": 0}
    covered = 0.0
    for dump in dumps:
        spans = dump["spans"]
        for name in {s["name"] for s in spans}:
            for span in _top_level(spans, name):
                seconds[name] = seconds.get(name, 0.0) + span["end"] - span["start"]
                for key, value in span["attrs"].items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + int(value)
                counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        profile_inputs.update(dump["profile_inputs"])
        for event in cache:
            cache[event] += dump["cache"][event]
        covered += _covered(spans, windows)

    def s(name):
        return seconds.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def rate(amount, busy):
        return amount / busy if busy > 0 else 0.0

    lookups = cache["hits"] + cache["misses"]
    return {
        "profiling.profile_s": s("profiling.profile"),
        "profiling.calls": c("profiling.profile.calls"),
        "profiling.distinct_inputs": len(profile_inputs),
        "profiling.accesses_per_s": rate(c("profiling.profile.accesses"), s("profiling.profile")),
        "profiling.estimator_s": s("profiling.estimator"),
        "search.search_s": s("search.search"),
        "search.evaluations": c("search.search.evaluations"),
        "search.evaluations_per_s": rate(c("search.search.evaluations"), s("search.search")),
        "search.nodes_expanded": c("search.search.nodes_expanded"),
        "search.exhaustive_s": s("search.exhaustive"),
        "cache.exact_s": s("cache.exact"),
        "cache.simulated_accesses": c("cache.exact.accesses"),
        "cache.accesses_per_s": rate(c("cache.exact.accesses"), s("cache.exact")),
        "trace.materialize_s": s("trace.materialize"),
        "trace.digest_s": s("trace.digest"),
        "trace.accesses": c("trace.materialize.accesses"),
        "pipeline.load_s": s("pipeline.load"),
        "pipeline.hits": cache["hits"],
        "pipeline.misses": cache["misses"],
        "pipeline.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "pipeline.store_s": s("pipeline.store"),
        "pipeline.stores": cache["stores"],
        "api.import_s": s("api.import"),
        "cli.import_s": s("cli.import"),
        "cli.body_s": s("cli.body"),
        "api.spec_s": s("api.spec"),
        "api.report_s": s("api.report"),
        "core.other_s": max(0.0, sum(e - b for b, e in windows) - covered),
    }
