"""The program side of a run: a process that imports ``repro``.

    python3 perfbench/worker.py PLAN.json

``PLAN.json`` names a mode and its inputs (see ``run.py``).  The worker
sets up, prints ``READY`` on stdout when set-up ends (run.py times
set-up up to that line), runs the timed ops closed-loop, checks every
output with :mod:`checkers`, and writes its results to ``plan["out"]``.
With ``plan["spans"]`` it installs the :mod:`tracing` wrappers right
after ``import repro`` and dumps the spans there at exit.

Modes: ``grid_cold`` and ``search_exact`` (whole workloads in-process),
``prime`` (``cli_warm`` set-up: fill an artifact cache), and ``verify``
(check reports another process produced).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import repro  # noqa: E402,F401  (timed as api.import in a traced run)

_T_IMPORT = time.perf_counter()

import checkers  # noqa: E402

perf = time.perf_counter


def ready() -> None:
    print("READY", flush=True)


def environment() -> dict:
    import numpy

    from repro.backend import backend_status

    return {
        "numpy": numpy.__version__,
        "backend": next(b["name"] for b in backend_status() if b["active"]),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def resolve_traces(spec_dicts) -> dict:
    """Materialize (and digest) every distinct trace: input generation."""
    from repro.api import ExperimentSpec

    traces = {}
    for spec in spec_dicts:
        key = json.dumps(spec["trace"], sort_keys=True)
        if key not in traces:
            trace = ExperimentSpec.from_dict(spec).trace.resolve()
            trace.digest
            traces[key] = trace
    return traces


def trace_of(traces: dict, spec: dict):
    return traces[json.dumps(spec["trace"], sort_keys=True)]


def warm_up(spec_dicts) -> None:
    """Run each distinct (geometry, family, strategy) once, off the clock,
    on the shortest trace, in a cache-less session: lazily imported code
    and first-use tables are then ready before the first timed op."""
    from repro.api import Session

    traces = resolve_traces(spec_dicts)
    shortest = min(spec_dicts, key=lambda s: len(trace_of(traces, s)))
    seen = set()
    with Session(cache_dir=None, workers=1) as session:
        for spec in spec_dicts:
            shape = (json.dumps(spec["geometry"], sort_keys=True), spec["search"]["family"],
                     spec["search"]["strategy"].split(":")[0])
            if shape not in seen:
                seen.add(shape)
                session.optimize(dict(shortest, geometry=spec["geometry"], search=spec["search"]))


def run_op(fn, ops: list, **fields) -> dict | None:
    """Time one op; an op that raises is reported and counted as failed."""
    start = perf()
    try:
        value = fn()
    except Exception:
        traceback.print_exc(limit=4)
        value = None
    ops.append(dict(fields, start=start, end=perf(), ok=value is not None))
    return value


def miss_totals(results) -> tuple[int, int]:
    """(Σ baseline misses, Σ optimized misses) over (baseline, optimized) pairs."""
    return (sum(b for b, _ in results), sum(o for _, o in results))


# -- grid_cold --------------------------------------------------------------


def grid_cold(plan: dict) -> dict:
    from repro.api import Session

    specs = plan["specs"]
    traces = resolve_traces(specs)
    warm_up(specs)
    ready()
    if plan["setup_only"]:
        return {}
    work = Path(plan["work"])
    ops, reports = [], {}
    phase = cache_bytes = 0.0
    for r in range(plan["rounds"]):
        cache_dir = work / f"round-{r}"
        start = perf()
        with Session(cache_dir=cache_dir, workers=1) as session:
            for i, spec in enumerate(specs):
                report = run_op(lambda: session.optimize(spec).to_json(), ops, i=i)
                if report is not None:
                    reports.setdefault(i, []).append(report)
        phase += perf() - start
        cache_bytes += dir_bytes(cache_dir)
        shutil.rmtree(cache_dir)

    problems, results = [], []
    for i, runs in sorted(reports.items()):
        addresses = trace_of(traces, specs[i]).addresses
        problems += checkers.check_report(runs[0], addresses)
        problems += same_in_every_round(runs, f"grid cell {i}")
        results += [(run["baseline"]["misses"], run["optimized"]["misses"]) for run in runs]
    return {
        "ops": ops,
        "phase_seconds": phase,
        "problems": problems,
        "misses": miss_totals(results),
        "cache_bytes": cache_bytes,
    }


def same_in_every_round(runs: list, label: str) -> list[str]:
    first = checkers.strip_timing(runs[0])
    if all(checkers.strip_timing(run) == first for run in runs[1:]):
        return []
    return [f"{label}: results differ between rounds of one run"]


# -- search_exact -----------------------------------------------------------


def search_exact(plan: dict) -> dict:
    from repro.api import Session
    from repro.search import optimal_bit_select

    trace_specs = plan["traces"]
    traces = resolve_traces(trace_specs)
    geometry = trace_specs[0]["geometry"]
    m = (geometry["cache_bytes"] // geometry["block_size"]).bit_length() - 1
    n = trace_specs[0]["search"]["n"]
    blocks = [
        trace_of(traces, t).block_addresses(geometry["block_size"]) for t in trace_specs
    ]
    # One in-memory session for set-up and every round: profiles come from
    # Session.profile in set-up, and a warm-up pass over the optimize ops
    # fills the session's memo of exact verifications, so every timed
    # round does the same work (search, and exact bit selection).
    session = Session(cache_dir=None, workers=1)
    for t in trace_specs:
        session.profile(t)
    for op in plan["ops"]:
        if op["kind"] == "optimize":
            session.optimize(op["spec"])
    optimal_bit_select(n, m, blocks=blocks[0][:64], mode="exact")
    ready()
    if plan["setup_only"]:
        return {}

    def exact(t):
        result = optimal_bit_select(n, m, blocks=blocks[t], mode="exact")
        return {"columns": list(result.function.columns), "misses": result.misses}

    ops, outputs = [], {}
    start = perf()
    for r in range(plan["rounds"]):
        for k, op in enumerate(plan["ops"]):
            if op["kind"] == "exact":
                fn = lambda: exact(op["trace"])  # noqa: E731
            else:
                fn = lambda: session.optimize(op["spec"]).to_json()  # noqa: E731
            out = run_op(fn, ops, i=k)
            if out is not None:
                outputs.setdefault(k, []).append(out)
    phase = perf() - start
    session.close()

    problems = []
    for k, runs in outputs.items():
        problems += same_in_every_round(runs, f"op {k}")
    first = {k: runs[0] for k, runs in outputs.items()}
    found, modulo = check_search_exact(plan, traces, first, m)
    results = []
    for k, runs in outputs.items():
        op = plan["ops"][k]
        for out in runs:
            if op["kind"] == "exact":
                results.append((modulo[op["trace"]], out["misses"]))
            else:
                results.append((out["baseline"]["misses"], out["optimized"]["misses"]))
    return {
        "ops": ops,
        "phase_seconds": phase,
        "problems": problems + found,
        "misses": miss_totals(results),
        "cache_bytes": 0,
    }


def check_search_exact(plan, traces, first, m) -> tuple[list[str], dict[int, int]]:
    """Exact optimum and certified bound against the 1-in heuristics.

    Returns the problems found and each trace's modulo miss count.
    """
    problems, modulo_misses = [], {}
    trace_specs = plan["traces"]
    by_trace: dict[int, dict[str, object]] = {}
    for k, out in first.items():
        op = plan["ops"][k]
        strategy = op["spec"]["search"]["strategy"].split(":")[0] if op["kind"] == "optimize" else "exact"
        by_trace.setdefault(op["trace"], {})[strategy] = out
    for t, outs in by_trace.items():
        spec = trace_specs[t]
        addresses = trace_of(traces, spec).addresses
        label = f"powerstone/{spec['trace']['benchmark']}"
        heuristics = [outs[s] for s in ("steepest", "portfolio", "anneal") if s in outs]
        for name, report in outs.items():
            if name != "exact":
                problems += checkers.check_report(report, addresses)
        if "exact" in outs:
            exact = outs["exact"]
            blocks = checkers.block_addresses(addresses, spec["geometry"]["block_size"])
            counted = checkers.direct_mapped_misses(
                blocks, checkers.xor_set_index(blocks, exact["columns"])
            )
            modulo = modulo_misses[t] = checkers.direct_mapped_misses(
                blocks, checkers.xor_set_index(blocks, checkers.modulo_columns(m))
            )
            if counted != exact["misses"]:
                problems.append(f"{label}: exact bit selection reports {exact['misses']} misses, trace gives {counted}")
            if checkers.gf2_rank(exact["columns"]) != m:
                problems.append(f"{label}: exact bit selection is not full rank")
            if exact["misses"] > modulo:
                problems.append(f"{label}: exact bit selection misses more than modulo indexing")
            if "steepest" in outs and exact["misses"] > outs["steepest"]["optimized"]["misses"]:
                problems.append(f"{label}: exact bit selection misses more than the 1-in heuristic")
        bb = outs.get("branch-bound")
        if bb is not None:
            bound = bb["search"]["estimated_misses"] - bb["search"]["optimality_gap"]
            for report in heuristics:
                if bound > report["search"]["estimated_misses"]:
                    problems.append(
                        f"{label}: branch-and-bound lower bound {bound} exceeds the "
                        f"{report['search']['strategy']} estimate {report['search']['estimated_misses']}"
                    )
    return problems, modulo_misses


# -- cli_warm set-up and report checks --------------------------------------


def prime_cache(plan: dict) -> dict:
    """Fill the artifact caches the ``repro run`` replays will read."""
    from repro.api import ExperimentSpec, Session

    for path in plan["spec_files"]:
        spec = ExperimentSpec.load(path)
        with Session(cache_dir=spec.execution.cache_dir) as session:
            session.optimize(spec).to_json()
    ready()
    return {}


def verify(plan: dict) -> dict:
    """Check reports produced elsewhere (serve jobs, CLI replays)."""
    ready()
    reports = plan["reports"]
    traces = resolve_traces([r["spec"] for r in reports])
    problems = []
    for report in reports:
        problems += checkers.check_report(report, trace_of(traces, report["spec"]).addresses)
    return {"problems": problems}


MODES = {
    "grid_cold": grid_cold,
    "search_exact": search_exact,
    "prime": prime_cache,
    "verify": verify,
}


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    recorder = None
    if plan.get("spans"):
        import tracing

        recorder = tracing.Recorder()
        recorder.record("api.import", _T0, _T_IMPORT)
        tracing.install(recorder)
    try:
        out = MODES[plan["mode"]](plan)
    finally:
        if recorder is not None:
            recorder.dump(plan["spans"])
    out["env"] = environment()
    Path(plan["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
