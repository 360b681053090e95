"""Command-line interface: ``python -m repro <command>``.

Every experiment-shaped command is a thin constructor over the
declarative spec API (:mod:`repro.api`): it assembles an
:class:`~repro.api.ExperimentSpec` from its flags, validates it at the
boundary (any problem is one :class:`~repro.api.SpecError` with an
actionable message and exit code 2), and hands it to a
:class:`~repro.api.Session`.  ``--json`` flags emit the stable
``repro-report/v1`` schema to stdout.

Commands:

* ``run``       — execute a TOML/JSON experiment-spec file;
* ``spec``      — scaffold an experiment-spec file from flags;
* ``optimize``  — construct an index function for a bundled workload;
* ``profile``   — conflict-vector profile (Fig. 1) for a workload or an
  on-disk trace file, optionally through the sharded out-of-core
  driver (``--shard-size`` / ``--workers``);
* ``search``    — run the estimate-only search (any strategy, any
  restart count) without the exact verification replay;
* ``campaign``  — run a benchmark x cache x family grid through the
  artifact cache, in parallel across cores;
* ``serve``     — long-lived HTTP optimization service: POST specs to
  ``/v1/jobs``, in-flight dedup by spec digest, reports over HTTP;
* ``tables``    — regenerate the paper's tables/figures;
* ``workloads`` — list the bundled benchmark kernels;
* ``backends``  — list the registered compute backends and which one
  the engine kernels dispatch to;
* ``classify``  — three-Cs miss breakdown for a workload and cache.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    GeometrySpec,
    SearchSpec,
    Session,
    SpecError,
    TraceSpec,
    expand_grid,
)
from repro.api.report import profile_report, search_report
from repro.cache.classify import classify_misses
from repro.pipeline import PipelineContext, default_cache_dir, format_campaign
from repro.search.families import FAMILY_CHOICES
from repro.trace import TRACE_FORMATS
from repro.workloads import SUITES, get_workload, workload_names
from repro.workloads.registry import SCALES, TRACE_KINDS


def _fail(error: SpecError) -> int:
    print(f"error: {error}", file=sys.stderr)
    return 2


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("suite", choices=sorted(SUITES), help="benchmark suite")
    parser.add_argument("name", help="kernel name (see `workloads`)")
    parser.add_argument(
        "--kind", choices=TRACE_KINDS, default="data",
        help="which address stream to use",
    )
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument("--cache-kb", type=int, default=4, help="cache size in KB")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, default=0,
        help="failed-attempt budget per task (exceptions, timeouts, "
        "dead workers); digest-neutral",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="fail a task attempt after this many seconds and recycle "
        "its worker (parallel runs only)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "retry"), default="raise",
        help="post-budget policy: abort (raise), record a failed row "
        "and continue (skip), or raise with a minimum retry budget "
        "(retry)",
    )


def _resilience_overrides(args: argparse.Namespace) -> dict:
    """The non-default resilience flags, as with_execution kwargs."""
    overrides = {}
    if getattr(args, "retries", 0):
        overrides["retries"] = args.retries
    if getattr(args, "task_timeout", None) is not None:
        overrides["task_timeout"] = args.task_timeout
    if getattr(args, "on_error", "raise") != "raise":
        overrides["on_error"] = args.on_error
    return overrides


def _spec_from_args(args: argparse.Namespace, **search_overrides) -> ExperimentSpec:
    """The spec an ``optimize``/``search``/``spec`` invocation denotes.

    Raises :class:`SpecError` — the single validation point for every
    flag combination, before any expensive work starts.
    """
    search = dict(
        family=getattr(args, "family", "2-in"),
        strategy=getattr(args, "strategy", "steepest"),
        restarts=getattr(args, "restarts", 0),
        seed=getattr(args, "search_seed", 0) or 0,
        guard=getattr(args, "guard", False),
        max_steps=getattr(args, "max_steps", None),
    )
    search.update(search_overrides)
    return ExperimentSpec(
        trace=TraceSpec(
            suite=args.suite, benchmark=args.name, kind=args.kind,
            scale=args.scale, seed=args.seed,
        ),
        geometry=GeometrySpec(cache_bytes=args.cache_kb * 1024),
        search=SearchSpec(**search),
        execution=ExecutionSpec(
            workers=getattr(args, "workers", None),
            cache_dir=getattr(args, "cache_dir", None),
        ),
    )


def _print_report(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_optimize(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except SpecError as error:
        return _fail(error)
    result = Session(cache_dir=args.cache_dir).optimize(spec)
    if args.json:
        _print_report(result.to_json())
        return 0
    print(result.summary())
    print(f"search: {result.search.steps} steps, "
          f"{result.search.evaluations} evaluations, "
          f"{result.search.seconds:.2f}s")
    print()
    print(result.hash_function.describe())
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from repro.profiling.conflict_profile import profile_trace
    from repro.search import hill_climb_front

    try:
        spec = _spec_from_args(args)
    except SpecError as error:
        return _fail(error)
    trace = spec.trace.resolve()
    geometry = spec.geometry.resolve()
    family = spec.search.resolve_family(geometry.index_bits)
    strategy = spec.search.resolve_strategy()
    profile = profile_trace(trace, geometry, spec.search.n)
    front = hill_climb_front(
        profile, family, restarts=spec.search.restarts, seed=spec.search.seed,
        max_steps=spec.search.max_steps, strategy=strategy,
    )
    if args.json:
        _print_report(search_report(spec, front))
        return 0
    best = min(front, key=lambda result: result.estimated_misses)
    print(f"{trace.name} @ {geometry}: family {family.name}, "
          f"strategy {strategy.name}")
    for i, result in enumerate(front):
        label = "conventional" if i == 0 else f"restart {i}"
        marker = " <- best" if result is best else ""
        print(f"  {label:>12}: est {result.estimated_misses} "
              f"(from {result.start_misses}), {result.steps} steps, "
              f"{result.evaluations} evaluations, "
              f"{result.seconds:.2f}s{marker}")
    print()
    print(best.function.describe())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    try:
        if args.trace_file is not None:
            if args.suite or args.name:
                raise SpecError(
                    "profile takes either a registry workload (suite + "
                    "name) or --trace-file, not both",
                    field="trace.path",
                )
            trace_spec = TraceSpec(
                path=args.trace_file, format=args.format, kind=args.kind
            )
        else:
            if not args.suite or not args.name:
                raise SpecError(
                    "name a workload (repro profile <suite> <name>) or an "
                    "on-disk trace (--trace-file PATH)"
                )
            if args.format:
                raise SpecError(
                    "--format only applies to --trace-file",
                    field="trace.format",
                )
            trace_spec = TraceSpec(
                suite=args.suite, benchmark=args.name, kind=args.kind,
                scale=args.scale, seed=args.seed,
            )
        spec = ExperimentSpec(
            trace=trace_spec,
            geometry=GeometrySpec(
                cache_bytes=args.cache_kb * 1024, block_size=args.block_size
            ),
            search=SearchSpec(n=args.n),
            execution=ExecutionSpec(
                shard_size=args.shard_size, workers=args.workers,
                cache_dir=args.cache_dir, **_resilience_overrides(args),
            ),
        )
        trace = spec.trace.resolve()
    except SpecError as error:
        return _fail(error)
    geometry = spec.geometry.resolve()
    session = Session(cache_dir=args.cache_dir, workers=args.workers)
    context = session.context()
    sharded = None
    if spec.execution.shard_size is not None:
        sharded = context.profile_sharded(
            trace, geometry, spec.search.n,
            shard_size=spec.execution.shard_size,
            workers=spec.execution.workers,
            retries=spec.execution.retries,
            task_timeout=spec.execution.task_timeout,
            on_error=spec.execution.on_error,
        )
        profile = sharded.profile
    else:
        profile = context.profile(trace, geometry, spec.search.n)
    if args.json:
        _print_report(
            profile_report(
                spec, profile, trace_digest=trace.digest, sharded=sharded
            )
        )
    else:
        print(f"{trace.name or spec.trace.label} @ {geometry}, "
              f"window n={spec.search.n}")
        print(f"  accesses:         {profile.accesses}")
        print(f"  compulsory:       {profile.compulsory}")
        print(f"  capacity:         {profile.capacity}")
        print(f"  beyond window:    {profile.beyond_window}")
        print(f"  conflict weight:  {profile.total_weight} over "
              f"{profile.num_distinct_vectors} distinct vectors")
        if sharded is not None:
            print(f"  sharding:         {len(sharded.plan)} shard(s) x "
                  f"{sharded.plan.shard_size} accesses, "
                  f"workers {sharded.workers}, "
                  f"{sharded.recomputed_shards} recomputed / "
                  f"{sharded.cached_shards} cached, {sharded.seconds:.2f}s")
    if args.expect_cached:
        if sharded is not None:
            cached = sharded.fully_cached
            detail = (f"{sharded.recomputed_shards} shard(s) and "
                      f"{sharded.recomputed_scans} scan(s) recomputed")
        else:
            totals = context.cache_stats()
            recomputed = sum(
                per_kind.get("misses", 0) + per_kind.get("stores", 0)
                for per_kind in totals.values()
            )
            cached = args.cache_dir is not None and recomputed == 0
            detail = str(totals or "no cache directory")
        if not cached:
            print(
                "FAIL: expected a fully cached replay but artifacts were "
                f"recomputed ({detail})",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec.load(args.spec_file)
    except SpecError as error:
        return _fail(error)
    if args.cache_dir:
        spec = spec.with_execution(cache_dir=args.cache_dir)
    overrides = _resilience_overrides(args)
    if overrides:
        spec = spec.with_execution(**overrides)
    if args.dry_run:
        print(f"spec ok: {spec.describe()}")
        print(f"digest:  {spec.digest}")
        return 0
    session = Session(
        cache_dir=spec.execution.cache_dir,
        workers=args.workers if args.workers is not None
        else spec.execution.workers,
    )
    result = session.optimize(spec)
    if args.json:
        _print_report(result.to_json())
    else:
        print(result.summary())
        print()
        print(result.hash_function.describe())
    if args.expect_cached:
        totals = session.cache_stats()
        recomputed = sum(
            per_kind.get("misses", 0) + per_kind.get("stores", 0)
            for per_kind in totals.values()
        )
        if recomputed or spec.execution.cache_dir is None:
            print(
                "FAIL: expected a fully cached replay but artifacts were "
                f"recomputed ({totals or 'no cache directory'})",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_spec(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except SpecError as error:
        return _fail(error)
    text = spec.to_toml(
        header=(
            "repro experiment spec (schema: see `repro run --help`)\n"
            f"{spec.describe()}\n"
            "run with:  repro run <this file> [--json]"
        )
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    trace = get_workload(args.suite, args.name, args.scale, args.seed).trace(args.kind)
    geometry = GeometrySpec(cache_bytes=args.cache_kb * 1024).resolve()
    blocks = trace.block_addresses(geometry.block_size)
    breakdown = classify_misses(blocks, geometry)
    print(f"{trace.name} ({args.kind}) @ {geometry}")
    print(breakdown.format())
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    for suite in sorted(SUITES):
        print(f"{suite}:")
        for name in workload_names(suite):
            print(f"  {name}")
    return 0


def cmd_backends(args: argparse.Namespace) -> int:
    from repro.backend import BACKEND_ENV_VAR, backend_status

    rows = backend_status()
    if getattr(args, "json", False):
        print(json.dumps({"backends": rows}, indent=2))
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        marker = "*" if row["active"] else " "
        state = "available" if row["available"] else "unavailable"
        print(
            f"{marker} {row['name'].ljust(width)}  {state:<11}  "
            f"{row['description']}"
        )
    print(
        f"\n* = active (override with {BACKEND_ENV_VAR}=<name> or a "
        "spec's execution.backend)"
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    try:
        specs = expand_grid(
            {
                "suite": args.suite,
                "benchmarks": list(args.benchmarks) if args.benchmarks else None,
                "kinds": list(args.kinds),
                "cache_bytes": [kb * 1024 for kb in args.cache_kb],
                "families": list(args.families),
                "strategies": [args.strategy],
                "scale": args.scale,
                "workload_seed": args.seed,
                "guard": args.guard,
            }
        )
    except SpecError as error:
        return _fail(error)
    if not specs:
        print("error: the campaign grid is empty", file=sys.stderr)
        return 2
    overrides = _resilience_overrides(args)
    if overrides:
        specs = [spec.with_execution(**overrides) for spec in specs]
    session = Session(
        cache_dir=args.cache_dir if args.cache_dir else default_cache_dir(),
        workers=args.workers,
    )
    # Grid semantics: every cell derives its own deterministic seed
    # from its identity and --seed, as before the spec API existed.
    result = session.campaign(specs, base_seed=args.seed)
    report = result.to_json()
    if args.json == "-":
        _print_report(report)
    else:
        print(format_campaign(result))
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
            print(f"wrote {args.json}")
    if args.expect_cached and not result.fully_cached:
        totals = result.cache_totals()
        print(
            f"FAIL: expected a fully cached replay but {totals['misses']} "
            f"artifact(s) were recomputed ({totals['stores']} stored)",
            file=sys.stderr,
        )
        return 1
    return 0


def _tables_session(args: argparse.Namespace):
    """Artifact-cache session for the tables command (if requested)."""
    if args.cache_dir is None:
        return contextlib.nullcontext()
    return PipelineContext(args.cache_dir).activate()


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments import (
        format_counting,
        format_general_vs_perm,
        format_table1,
        format_table2,
        format_table3,
        run_general_vs_perm,
        run_table2,
        run_table3,
    )

    which = set(args.only) if args.only else {"counting", "table1", "table2", "table3", "general-vs-perm"}
    with _tables_session(args):
        if "counting" in which:
            print(format_counting())
            print()
        if "table1" in which:
            print(format_table1())
            print()
        if "general-vs-perm" in which:
            print(format_general_vs_perm(run_general_vs_perm(scale=args.scale)))
            print()
        if "table2" in which:
            print(format_table2(run_table2(
                kind="data", scale=args.scale, workers=args.workers)))
            print()
            print(format_table2(run_table2(
                kind="instruction", scale=args.scale, workers=args.workers)))
            print()
        if "table3" in which:
            print(format_table3(run_table3(
                scale=args.scale, max_refs=40_000, workers=args.workers)))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ReproServer

    # Session workers stay None so each spec's own execution.workers
    # governs sharded profiling; --workers bounds the job thread pool.
    session = Session(cache_dir=args.cache_dir, storage=args.storage)
    server = ReproServer(
        session=session,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        retries=args.retries,
        own_session=True,
    )
    server.run()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Application-specific reconfigurable XOR-indexing (DATE 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="execute a TOML/JSON experiment-spec file"
    )
    p_run.add_argument("spec_file", help="path to experiment.toml / .json")
    p_run.add_argument(
        "--dry-run", action="store_true",
        help="validate the spec and print what it would run, then exit",
    )
    p_run.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 result to stdout",
    )
    p_run.add_argument(
        "--cache-dir", default=None,
        help="override the spec's execution.cache_dir",
    )
    p_run.add_argument(
        "--workers", type=int, default=None,
        help="override the spec's execution.workers",
    )
    p_run.add_argument(
        "--expect-cached", action="store_true",
        help="exit non-zero if any artifact had to be (re)computed",
    )
    _add_resilience_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_spec = sub.add_parser(
        "spec", help="scaffold an experiment-spec file from flags"
    )
    p_spec.add_argument("--suite", choices=sorted(SUITES), default="mibench")
    p_spec.add_argument("--benchmark", dest="name", metavar="BENCHMARK", default="fft")
    p_spec.add_argument("--kind", choices=TRACE_KINDS, default="data")
    p_spec.add_argument("--scale", choices=SCALES, default="small")
    p_spec.add_argument("--cache-kb", type=int, default=4)
    p_spec.add_argument("--seed", type=int, default=0, help="workload seed")
    p_spec.add_argument("--family", default="2-in", choices=FAMILY_CHOICES)
    p_spec.add_argument("--strategy", default="steepest")
    p_spec.add_argument("--restarts", type=int, default=0)
    p_spec.add_argument("--guard", action="store_true")
    p_spec.add_argument("--workers", type=int, default=None)
    p_spec.add_argument("--cache-dir", default=None)
    p_spec.add_argument(
        "-o", "--output", default=None,
        help="write the spec here instead of stdout",
    )
    p_spec.set_defaults(func=cmd_spec)

    p_opt = sub.add_parser("optimize", help="construct an index function")
    _add_workload_args(p_opt)
    p_opt.add_argument("--family", default="2-in", choices=FAMILY_CHOICES)
    p_opt.add_argument(
        "--guard", action="store_true",
        help="revert to modulo indexing if the function adds misses (Sec. 6)",
    )
    p_opt.add_argument(
        "--strategy", default="steepest",
        help="search strategy: steepest (paper), first-improvement, "
             "beam[:K], anneal[:ITERS[:SEED]], branch-bound[:NODES] "
             "(certified optimum), portfolio[:K] (lockstep race)",
    )
    p_opt.add_argument("--restarts", type=int, default=0)
    p_opt.add_argument(
        "--search-seed", type=int, default=0, help="hill-climb restart seed"
    )
    p_opt.add_argument(
        "--cache-dir", default=None,
        help="read/write artifacts at this directory",
    )
    p_opt.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 result to stdout",
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_prof = sub.add_parser(
        "profile",
        help="conflict-vector profile (Fig. 1) for a workload or trace file",
    )
    p_prof.add_argument(
        "suite", nargs="?", choices=sorted(SUITES), default=None,
        help="benchmark suite (omit when using --trace-file)",
    )
    p_prof.add_argument(
        "name", nargs="?", default=None,
        help="kernel name (see `workloads`)",
    )
    p_prof.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="profile an on-disk trace instead of a registry workload "
             "(.bin memory-maps out of core; npz/text/dinero/lackey load "
             "through their readers)",
    )
    p_prof.add_argument(
        "--format", default=None, choices=TRACE_FORMATS,
        help="trace-file format (default: inferred from the suffix)",
    )
    p_prof.add_argument(
        "--kind", choices=TRACE_KINDS, default="data",
        help="which address stream to use",
    )
    p_prof.add_argument("--scale", choices=SCALES, default="small")
    p_prof.add_argument("--seed", type=int, default=0, help="workload seed")
    p_prof.add_argument("--cache-kb", type=int, default=4, help="cache size in KB")
    p_prof.add_argument("--block-size", type=int, default=4)
    p_prof.add_argument(
        "--n", type=int, default=16,
        help="conflict-window length (paper's n)",
    )
    p_prof.add_argument(
        "--shard-size", type=int, default=None,
        help="run the out-of-core sharded driver with this many "
             "accesses per shard (bit-identical to the single pass)",
    )
    p_prof.add_argument(
        "--workers", type=int, default=None,
        help="process count for sharded profiling (1 = serial)",
    )
    p_prof.add_argument(
        "--cache-dir", default=None,
        help="read/write per-shard artifacts at this directory",
    )
    p_prof.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 profile report to stdout",
    )
    p_prof.add_argument(
        "--expect-cached", action="store_true",
        help="exit non-zero if any shard had to be (re)computed "
             "(CI warm-cache check)",
    )
    _add_resilience_args(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_search = sub.add_parser(
        "search",
        help="estimate-only hash search with a pluggable strategy",
    )
    _add_workload_args(p_search)
    p_search.add_argument("--family", default="2-in", choices=FAMILY_CHOICES)
    p_search.add_argument(
        "--strategy", default="steepest",
        help="search strategy: steepest (paper), first-improvement, "
             "beam[:K], anneal[:ITERS[:SEED]], branch-bound[:NODES] "
             "(certified optimum), portfolio[:K] (lockstep race)",
    )
    p_search.add_argument(
        "--restarts", type=int, default=0,
        help="random restarts beyond the conventional start "
             "(advanced in lockstep for point strategies)",
    )
    p_search.add_argument(
        "--search-seed", type=int, default=0, help="hill-climb restart seed"
    )
    p_search.add_argument(
        "--max-steps", type=int, default=None,
        help="bound on accepted search steps",
    )
    p_search.add_argument(
        "--json", action="store_true",
        help="emit the repro-report/v1 search front to stdout",
    )
    p_search.set_defaults(func=cmd_search)

    p_cls = sub.add_parser("classify", help="three-Cs miss breakdown")
    _add_workload_args(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_wl = sub.add_parser("workloads", help="list bundled kernels")
    p_wl.set_defaults(func=cmd_workloads)

    p_be = sub.add_parser(
        "backends", help="list compute backends and the active one"
    )
    p_be.add_argument(
        "--json", action="store_true", help="emit the status rows as JSON"
    )
    p_be.set_defaults(func=cmd_backends)

    p_camp = sub.add_parser(
        "campaign",
        help="run a benchmark x cache x family grid through the artifact cache",
    )
    p_camp.add_argument("--suite", choices=sorted(SUITES), default="mibench")
    p_camp.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="kernel names (default: the whole suite)",
    )
    p_camp.add_argument(
        "--kinds", nargs="*", choices=TRACE_KINDS, default=["data"]
    )
    p_camp.add_argument(
        "--cache-kb", nargs="*", type=int, default=[1, 4, 16],
        help="cache sizes in KB",
    )
    p_camp.add_argument(
        "--families", nargs="*", default=["2-in"], choices=FAMILY_CHOICES,
    )
    p_camp.add_argument(
        "--strategy", default="steepest",
        help="search strategy for every task (default: the paper's "
             "steepest descent)",
    )
    p_camp.add_argument("--scale", choices=SCALES, default="small")
    p_camp.add_argument("--seed", type=int, default=0)
    p_camp.add_argument("--guard", action="store_true")
    p_camp.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: one per core; 1 = serial)",
    )
    p_camp.add_argument(
        "--cache-dir", default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-xor-indexing)",
    )
    p_camp.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="emit the repro-report/v1 campaign report: bare --json "
             "prints to stdout, --json FILE writes the file",
    )
    p_camp.add_argument(
        "--expect-cached", action="store_true",
        help="exit non-zero if any artifact had to be (re)computed "
             "(CI warm-cache check)",
    )
    _add_resilience_args(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived HTTP optimization service (POST specs, GET reports)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8738,
        help="TCP port (default 8738; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="artifact-cache root shared by every job (and, with sqlite "
        "storage, by other service replicas); default: in-memory only",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="job worker threads (default 2)",
    )
    p_serve.add_argument(
        "--storage", choices=("local", "sqlite"), default="sqlite",
        help="cache storage backend (default sqlite: one WAL-journaled "
        "index safe for many concurrent replicas; pass local to reuse an "
        "existing directory-layout cache)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="max jobs in flight before submissions get 503 (default 64)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=0,
        help="default retry budget for jobs whose spec sets none",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_tab = sub.add_parser("tables", help="regenerate paper tables")
    p_tab.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="tiny"
    )
    p_tab.add_argument(
        "--only", nargs="*", default=None,
        choices=("counting", "table1", "table2", "table3", "general-vs-perm"),
    )
    p_tab.add_argument(
        "--workers", type=int, default=1,
        help="process count for the table grids (1 = serial)",
    )
    p_tab.add_argument(
        "--cache-dir", default=None,
        help="run all drivers through an artifact cache at this directory",
    )
    p_tab.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as error:
        return _fail(error)


if __name__ == "__main__":
    sys.exit(main())
