#!/usr/bin/env python3
"""One benchmark for the profile -> search -> verify pipeline.

    python3 perfbench/run.py --workload grid_cold --seed 0 --seconds 15 --trace 0

Run it from the repository root.  It builds the program from ``src/``
into ``.bench_build/perfbench`` (a copy with fresh bytecode), runs one
workload closed-loop against a public surface (``Session``, ``repro
run``, ``repro serve``), checks every output against the independent
checkers, and prints one JSON object as its last line:

    {"correct": true, "attempted": 180, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced then with the layer wrappers of
``tracing.py``, and reports the per-layer metrics and the tracing
overhead.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from checkers import strip_timing

HERE = Path(__file__).resolve().parent
PYTHON = sys.executable
perf = time.perf_counter

SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: A run must end within this many seconds or it is stopped.
DEADLINE_S = 170
#: Serve load generator: each batch of ops polls its jobs, waiting
#: between polls a quarter of the time the batch has run, within bounds.
POLL_MIN_S = 0.001
POLL_MAX_S = 0.008
JOB_TIMEOUT_S = 60

CHILDREN: list[subprocess.Popen] = []


class BenchmarkError(Exception):
    """The run cannot produce a result."""


# -- the program under test ---------------------------------------------------


class Program:
    """``src/`` copied into the benchmark's build directory and compiled.

    Running from a copy keeps the repository's tracked ``__pycache__``
    untouched, and compiling it up front means no process measures the
    bytecode compiler.
    """

    def __init__(self, root: Path):
        self.root = root
        self.build = root / ".bench_build" / "perfbench"
        self.src = self.build / "src"
        self.env = pinned_environment(self.src, self.build / "tmp")

    def prepare(self) -> None:
        source = self.root / "src"
        digest = tree_digest(source)
        stamp = self.build / "src.stamp"
        if stamp.exists() and stamp.read_text() == digest and self.src.is_dir():
            return
        shutil.rmtree(self.src, ignore_errors=True)
        shutil.copytree(source, self.src, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        done = subprocess.run(
            [PYTHON, "-m", "compileall", "-q", str(self.src)],
            env=self.env, stdout=subprocess.DEVNULL,
        )
        if done.returncode != 0:
            raise BenchmarkError("compiling src/ failed")
        stamp.write_text(digest)

    def popen(self, args, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen([str(a) for a in args], env=self.env, **kwargs)
        CHILDREN.append(proc)
        return proc


def pinned_environment(src: Path, tmp: Path) -> dict:
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    for name in ("REPRO_FAULTS", "REPRO_CACHE_STORAGE", "PYTHONPYCACHEPREFIX",
                 "PYTHONSTARTUP", "PYTHONINSPECT", "PYTHONOPTIMIZE"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONUNBUFFERED="1",
        REPRO_BACKEND="numpy",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        TMPDIR=str(tmp),
    )
    return env


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def wait_rusage(proc: subprocess.Popen) -> tuple[int, int]:
    """Reap ``proc``; its exit code and peak RSS in KiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(proc)
    return proc.returncode, usage.ru_maxrss


def stop_children(signum=None, frame=None) -> None:
    for proc in list(CHILDREN):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if signum is not None:
        print(f"perfbench: stopped after {DEADLINE_S} s", file=sys.stderr)
        os._exit(3)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


# -- in-process workloads (grid_cold, search_exact) ---------------------------


def run_worker(program: Program, mode: str, plan: dict, work: Path, spans: Path | None,
               setup_only: bool = False) -> tuple[float, dict, int]:
    """Run ``worker.py``; its set-up seconds, output and peak RSS (KiB)."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / f"{mode}.out.json"
    plan_path = work / f"{mode}.plan.json"
    plan = dict(plan, mode=mode, setup_only=setup_only, work=str(work), out=str(out),
                spans=str(spans) if spans else None)
    plan_path.write_text(json.dumps(plan))
    start = perf()
    proc = program.popen([PYTHON, HERE / "worker.py", plan_path], stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    setup = perf() - start
    proc.stdout.read()
    code, rss = wait_rusage(proc)
    if code != 0 or line.strip() != b"READY":
        raise BenchmarkError(f"worker {mode} failed (exit {code})")
    return setup, json.loads(out.read_text()), rss


def in_process(mode: str):
    def run(program, plan, work, traced, setup_only=False):
        spans = work / "spans-worker.json" if traced else None
        setup, out, rss = run_worker(program, mode, plan, work, spans, setup_only)
        if setup_only:
            return {"setup_s": setup}
        ops = out["ops"]
        return {
            "setup_s": setup,
            "latencies": [op["end"] - op["start"] for op in ops if op["ok"]],
            "windows": [(op["start"], op["end"]) for op in ops],
            "phase_seconds": out["phase_seconds"],
            "attempted": len(ops),
            "failed": sum(not op["ok"] for op in ops),
            "peak_rss_kb": rss,
            "misses": out["misses"],
            "problems": out["problems"],
            "env": out["env"],
            "span_files": [spans] if spans else [],
            "layers": {"pipeline.cache_bytes": out["cache_bytes"]},
        }

    return run


# -- serve_mixed --------------------------------------------------------------


class Client:
    """Plain HTTP/1.1 against ``repro serve``; one request at a time."""

    def __init__(self, port: int):
        self.port = port

    def request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


def serve_run(program, plan, work, traced, setup_only=False):
    work.mkdir(parents=True, exist_ok=True)
    cache = work / "cache"
    spans = work / "spans-server.json"
    head = [PYTHON, HERE / "launcher.py", spans, "--"] if traced else [PYTHON, "-m", "repro"]
    start = perf()
    proc = program.popen(
        head + ["serve", "--host", "127.0.0.1", "--port", "0", "--cache-dir", cache,
                "--storage", "sqlite", "--workers", "2"],
        stdout=subprocess.PIPE,
    )
    announce = proc.stdout.readline().decode()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", announce)
    try:
        if match is None:
            raise BenchmarkError(f"repro serve did not start: {announce!r}")
        client = Client(int(match.group(1)))
        status, _ = client.request("GET", "/v1/healthz")
        if status != 200:
            raise BenchmarkError(f"repro serve healthz answered {status}")
        setup = perf() - start
        if not setup_only:
            load = drive(client, plan)
            _, stats = client.request("GET", "/v1/stats")
            hwm_kb = vm_hwm_kb(proc.pid)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.stdout.read()
        code, _ = wait_rusage(proc)
    if code != 0:
        raise BenchmarkError(f"repro serve exited {code} on SIGTERM")
    if setup_only:
        return {"setup_s": setup}
    problems = load["problems"] + serve_problems(plan, load, stats)
    reports = list(load["reports"].values())
    verified = run_worker(program, "verify", {"reports": reports}, work / "verify", None)[1]
    return {
        "setup_s": setup,
        "latencies": [op["latency"] for op in load["ops"] if op["ok"]],
        "windows": [(op["start"], op["start"] + op["latency"]) for op in load["ops"] if op["ok"]],
        "phase_seconds": load["phase_seconds"],
        "attempted": len(load["ops"]),
        "failed": sum(not op["ok"] for op in load["ops"]),
        "peak_rss_kb": hwm_kb,
        "misses": load["misses"],
        "problems": problems + verified["problems"],
        "env": verified["env"],
        "span_files": [spans] if traced else [],
        "layers": dict(serve_layers(load, stats), **{"pipeline.cache_bytes": dir_bytes(cache)}),
    }


def vm_hwm_kb(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))


def drive(client: Client, plan: dict) -> dict:
    """Send the fixed op list batch by batch and wait for each batch's jobs."""
    ops, jobs, problems = [], {}, []
    reports: dict[str, dict] = {}
    base = opt = 0
    phase_start = perf()
    for rnd in plan["rounds"]:
        for kind, indices in rnd["batches"]:
            batch_start = perf()
            batch = []
            for index in indices:
                spec = rnd["specs"][index]
                wall, start = time.time(), perf()
                status, reply = client.request("POST", "/v1/jobs", spec)
                op = {"kind": kind, "spec": index, "start": start, "wall": wall,
                      "ok": status == 202, "job": reply.get("job_id"),
                      "dedup": reply.get("deduplicated")}
                if status != 202:
                    print(f"perfbench: POST /v1/jobs answered {status}: {reply}", file=sys.stderr)
                batch.append(op)
                ops.append(op)
            if kind == "cold" and batch[1]["ok"] and (
                not batch[1]["dedup"] or batch[1]["job"] != batch[0]["job"]
            ):
                problems.append("a duplicate submission did not join the in-flight job")
            pending = {op["job"] for op in batch if op["ok"]}
            deadline = perf() + JOB_TIMEOUT_S
            while pending:
                time.sleep(min(POLL_MAX_S, max(POLL_MIN_S, 0.25 * (perf() - batch_start))))
                for job_id in sorted(pending):
                    _, job = client.request("GET", f"/v1/jobs/{job_id}")
                    if job["state"] in ("done", "failed"):
                        jobs[job_id] = job
                        pending.discard(job_id)
                if perf() > deadline:
                    raise BenchmarkError(f"jobs {sorted(pending)} unfinished after {JOB_TIMEOUT_S} s")
            for op in batch:
                if not op["ok"]:
                    continue
                job = jobs[op["job"]]
                op["latency"] = job["finished"] - op["wall"]
                if job["state"] != "done":
                    op["ok"] = False
                    print(f"perfbench: job {op['job']} failed: {job['error']}", file=sys.stderr)
                    continue
                report = job["report"]
                base += report["baseline"]["misses"]
                opt += report["optimized"]["misses"]
                key = json.dumps(rnd["specs"][op["spec"]], sort_keys=True)
                first = reports.setdefault(key, report)
                if strip_timing(first) != strip_timing(report):
                    problems.append(f"job {op['job']}: report differs from its spec's first report")
    return {
        "ops": ops,
        "jobs": jobs,
        "reports": reports,
        "phase_seconds": perf() - phase_start,
        "problems": problems,
        "misses": (base, opt),
    }


def serve_expected(plan: dict) -> dict[str, int]:
    cold = sum(kind == "cold" for r in plan["rounds"] for kind, _ in r["batches"])
    warm = sum(kind == "warm" for r in plan["rounds"] for kind, _ in r["batches"])
    return {"created": cold + warm, "coalesced": cold, "cached": warm}


def serve_counts(load: dict, stats: dict) -> dict[str, int]:
    jobs = load["jobs"].values()
    return {
        "created": sum(stats["jobs"].values()),
        "coalesced": sum(job["submissions"] - 1 for job in jobs),
        "cached": sum(bool(job["cached"]) for job in jobs),
    }


def serve_problems(plan: dict, load: dict, stats: dict) -> list[str]:
    expected, seen = serve_expected(plan), serve_counts(load, stats)
    return [
        f"serve: {name} jobs {seen[name]}, the op list implies {count}"
        for name, count in expected.items()
        if seen[name] != count
    ]


def serve_layers(load: dict, stats: dict) -> dict[str, float]:
    creating = [op for op in load["ops"] if op["ok"] and not op["dedup"]]
    jobs = [load["jobs"][op["job"]] for op in creating]
    counts = serve_counts(load, stats)
    return {
        "serve.queue_wait_ms": 1000 * statistics.median(j["started"] - j["created"] for j in jobs),
        "serve.run_ms": 1000 * statistics.median(j["finished"] - j["started"] for j in jobs),
        "serve.overhead_ms": 1000 * statistics.median(
            load["jobs"][op["job"]]["created"] - op["wall"] for op in creating
        ),
        "serve.jobs_created": counts["created"],
        "serve.coalesced": counts["coalesced"],
        "serve.cached_jobs": counts["cached"],
        "serve.jobs_retained": sum(stats["jobs"].values()),
    }


# -- cli_warm -----------------------------------------------------------------


def cli_run(program, plan, work, traced, setup_only=False):
    start = perf()
    work.mkdir(parents=True, exist_ok=True)
    cache = work / "cache"
    files = []
    for i, spec in enumerate(plan["specs"]):
        path = work / f"spec-{i}.toml"
        path.write_text(workloads.to_toml(spec, str(cache)))
        files.append(path)
    prime_spans = work / "spans-prime.json" if traced else None
    run_worker(program, "prime", {"spec_files": [str(f) for f in files]}, work, prime_spans)
    setup = perf() - start
    if setup_only:
        return {"setup_s": setup}

    ops, problems, reports, span_files = [], [], {}, []
    base = opt = 0
    phase_start = perf()
    for r in range(plan["rounds"]):
        for i, path in enumerate(files):
            if traced:
                spans = work / f"spans-cli-{r}-{i}.json"
                span_files.append(spans)
                head = [PYTHON, HERE / "launcher.py", spans, "--"]
            else:
                head = [PYTHON, "-m", "repro"]
            err_path = work / "cli.stderr"
            with open(err_path, "wb") as err:
                begin = perf()
                proc = program.popen(head + ["run", path, "--expect-cached", "--json"],
                                     stdout=subprocess.PIPE, stderr=err)
                output = proc.stdout.read()
                code, rss = wait_rusage(proc)
                end = perf()
            op = {"start": begin, "end": end, "ok": code == 0, "rss": rss}
            ops.append(op)
            if code != 0:
                print(f"perfbench: repro run {path.name} --expect-cached exited {code}: "
                      f"{err_path.read_text().strip()[-300:]}", file=sys.stderr)
                continue
            report = json.loads(output)
            base += report["baseline"]["misses"]
            opt += report["optimized"]["misses"]
            first = reports.setdefault(i, report)
            if first != report:
                problems.append(f"replay of spec {i} differs from its first replay")
    phase = perf() - phase_start
    verified = run_worker(program, "verify", {"reports": list(reports.values())},
                          work / "verify", None)[1]
    return {
        "setup_s": setup,
        "latencies": [op["end"] - op["start"] for op in ops if op["ok"]],
        "windows": [(op["start"], op["end"]) for op in ops],
        "phase_seconds": phase,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "peak_rss_kb": max(op["rss"] for op in ops),
        "misses": (base, opt),
        "problems": problems + verified["problems"],
        "env": verified["env"],
        "span_files": ([prime_spans] if traced else []) + span_files,
        "layers": {"pipeline.cache_bytes": dir_bytes(cache)},
    }


RUNNERS = {
    "grid_cold": in_process("grid_cold"),
    "search_exact": in_process("search_exact"),
    "serve_mixed": serve_run,
    "cli_warm": cli_run,
}

SERVE_LAYERS = ("serve.queue_wait_ms", "serve.run_ms", "serve.overhead_ms",
                "serve.jobs_created", "serve.coalesced", "serve.cached_jobs",
                "serve.jobs_retained")


# -- metrics ------------------------------------------------------------------


def ops_per_s(m: dict) -> float:
    return (m["attempted"] - m["failed"]) / m["phase_seconds"]


def end_to_end(m: dict, setups: list[float]) -> dict:
    latencies = sorted(m["latencies"])
    if len(latencies) < 4 * TAIL_BEYOND:
        raise BenchmarkError(f"only {len(latencies)} ops; op_tail_ms needs 40")
    base, opt = m["misses"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(m), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * latencies[len(latencies) - 1 - TAIL_BEYOND], "ms"),
        "peak_rss_mb": (m["peak_rss_kb"] / 1024, "MB"),
        "misses_removed_pct": (100 * (1 - opt / base), "%"),
    }


#: Per-layer units by name suffix (first match wins); the rest are counts.
LAYER_UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_pct", "%"),
               ("_ratio", "ratio"), ("_bytes", "B"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")


def per_layer(untraced: dict, traced: dict) -> dict:
    dumps = [json.loads(Path(f).read_text()) for f in traced["span_files"]]
    values = tracing.summarize(dumps, traced["windows"])
    values.update({name: 0 for name in SERVE_LAYERS})
    values.update(traced["layers"])
    plain, timed = ops_per_s(untraced), ops_per_s(traced)
    values["tracing.untraced_ops_per_s"] = plain
    values["tracing.traced_ops_per_s"] = timed
    values["tracing.overhead_pct"] = 100 * (plain / timed - 1)
    return {name: (value, unit_of(name)) for name, value in values.items()}


# -- running a workload -------------------------------------------------------


def run_workload(program: Program, name: str, seed: int, seconds: float, trace: bool) -> dict:
    plan = workloads.PLANS[name](seed, seconds)
    runner = RUNNERS[name]
    work_root = program.build / "work" / name
    shutil.rmtree(work_root, ignore_errors=True)
    if trace:
        measured = runner(program, plan, work_root / "untraced", traced=False)
        traced = runner(program, plan, work_root / "traced", traced=True)
        metrics = per_layer(measured, traced)
        problems = measured["problems"] + traced["problems"]
    else:
        setups = [
            runner(program, plan, work_root / f"setup-{k}", traced=False, setup_only=True)["setup_s"]
            for k in range(SETUP_REPEATS - 1)
        ]
        measured = runner(program, plan, work_root / "run", traced=False)
        setups.append(measured["setup_s"])
        metrics = end_to_end(measured, setups)
        problems = measured["problems"]
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    info = dict(measured["env"], workload=name, seed=seed, seconds=seconds, trace=int(trace))
    print("perfbench env: " + json.dumps(info, sort_keys=True))
    return {
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.PLANS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    names = list(workloads.PLANS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, stop_children)
    signal.alarm(DEADLINE_S * len(names))
    program = Program(root)
    try:
        program.prepare()
        for name in names:
            result = run_workload(program, name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        stop_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
