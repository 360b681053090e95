"""The four workloads' inputs, generated from ``--seed`` alone.

Pure standard library: run.py builds every spec here without
importing ``repro``, and the program receives only these generated
specs.  Each workload's op list is a fixed number of identical rounds;
``--seconds`` sets how many rounds run, never which ops a round holds.
"""

from __future__ import annotations

import hashlib
import math

DEFAULT_SEED = 0
BLOCK_SIZE = 4
HASHED_BITS = 16

#: The MiBench kernels except lame and rijndael.  lame's 16 KB 2-in cell
#: alone takes 3.4 s: with it a run held two rounds and the median op
#: latency drifted 19% between runs.  rijndael's trace content, and with
#: it the cost of its 16 KB profile (0.4 to 0.8 s), changes with the
#: seed, which moved the 11th-largest op between two clusters of cells.
MIBENCH = (
    "dijkstra", "fft", "jpeg_enc", "jpeg_dec",
    "susan", "adpcm_dec", "adpcm_enc", "mpeg2_dec",
)
PAPER_CAPACITIES = (1024, 4096, 16384)
PAPER_FAMILIES = ("2-in", "4-in", "16-in")

#: Table 3 traces for ``search_exact`` (PowerStone, 4 KB; v42 and the
#: long fir and compress traces are left out).  The exact bit-select op
#: runs on the four ``EXACT_TRACES``: its cost grows with trace length
#: (0.1 to 0.9 s here; v42 alone would take 12 s).
SEARCH_TRACES = (
    "adpcm", "bcnt", "blit", "crc", "des", "engine",
    "g3fax", "jpeg", "pocsag", "qurt", "ucbqsort",
)
EXACT_TRACES = ("qurt", "pocsag", "adpcm", "bcnt")
BRANCH_BOUND_NODES = 100
ANNEAL_ITERATIONS = 500

#: ``serve_mixed`` cold specs: kernels whose trace content changes with
#: the trace seed, so every round's specs are new to the server.
SERVE_COLD = (
    ("mibench", "dijkstra", 1024, "2-in"),
    ("mibench", "mpeg2_dec", 4096, "2-in"),
    ("powerstone", "des", 4096, "2-in"),
    ("powerstone", "g3fax", 4096, "2-in"),
)
SERVE_WARM_PASSES = 8

#: ``cli_warm`` specs, replayed round-robin.
CLI_SPECS = (
    ("mibench", "fft", 4096, "2-in"),
    ("mibench", "susan", 1024, "4-in"),
    ("powerstone", "blit", 4096, "16-in"),
    ("mibench", "jpeg_enc", 16384, "2-in"),
)

#: Nominal wall seconds of one round on the reference container (2 cores,
#: NumPy backend); the round count is ``seconds`` divided by this.
ROUND_SECONDS = {
    "grid_cold": 2.8,
    "search_exact": 2.6,
    "serve_mixed": 0.8,
    "cli_warm": 1.6,
}
#: At least 40 ops per run, so ``op_tail_ms`` has 10 ops beyond it.
MIN_ROUNDS = {"grid_cold": 2, "search_exact": 3, "serve_mixed": 4, "cli_warm": 10}


def derive(seed: int, *labels) -> int:
    """A 31-bit seed for one input, determined by ``seed`` and its labels."""
    text = "|".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS[workload], math.ceil(seconds / ROUND_SECONDS[workload]))


def spec(suite, benchmark, trace_seed, cache_bytes, family, strategy, search_seed):
    return {
        "trace": {
            "suite": suite,
            "benchmark": benchmark,
            "kind": "data",
            "scale": "tiny",
            "seed": trace_seed,
        },
        "geometry": {
            "cache_bytes": cache_bytes,
            "block_size": BLOCK_SIZE,
            "associativity": 1,
        },
        "search": {
            "family": family,
            "strategy": strategy,
            "n": HASHED_BITS,
            "restarts": 0,
            "seed": search_seed,
            "guard": False,
        },
    }


def grid_cold(seed: int, seconds: float) -> dict:
    """Table 2 data-cache grid: 10 MiBench traces x 3 sizes x 3 families."""
    specs = [
        spec(
            "mibench", name, derive(seed, "grid", name), size, family, "steepest",
            derive(seed, "grid-search", name, size, family),
        )
        for name in MIBENCH
        for size in PAPER_CAPACITIES
        for family in PAPER_FAMILIES
    ]
    return {"specs": specs, "rounds": rounds_for("grid_cold", seconds)}


def search_exact(seed: int, seconds: float) -> dict:
    """Table 3 shape: exact bit selection plus four 1-in searches per trace."""
    traces, ops = [], []
    for name in SEARCH_TRACES:
        search_seed = derive(seed, "search", name)
        base = spec(
            "powerstone", name, derive(seed, "trace", name), 4096, "1-in",
            "steepest", search_seed,
        )
        t = len(traces)
        traces.append(base)
        if name in EXACT_TRACES:
            ops.append({"kind": "exact", "trace": t})
        for strategy in (
            "steepest",
            f"branch-bound:{BRANCH_BOUND_NODES}",
            "portfolio",
            f"anneal:{ANNEAL_ITERATIONS}:{search_seed}",
        ):
            op_spec = dict(base, search=dict(base["search"], strategy=strategy))
            ops.append({"kind": "optimize", "trace": t, "spec": op_spec})
    return {"traces": traces, "ops": ops, "rounds": rounds_for("search_exact", seconds)}


def serve_mixed(seed: int, seconds: float) -> dict:
    """Rounds of new cold specs (each sent twice) then warm re-submissions.

    Ops go out in batches: a cold batch is one spec submitted twice back
    to back, two ops in flight (the second joins the first's job); a warm
    batch is one re-submission of this round's specs.  Warm ops go one at
    a time: sent two at a time, their median latency jumped between 2 and
    4.5 ms from run to run.
    """
    rounds = []
    for r in range(rounds_for("serve_mixed", seconds)):
        cold = [
            spec(
                suite, name, derive(seed, "serve", r, i), size, family, "steepest",
                derive(seed, "serve-search", r, i),
            )
            for i, (suite, name, size, family) in enumerate(SERVE_COLD)
        ]
        batches = [("cold", [i, i]) for i in range(len(cold))]
        batches += [("warm", [i]) for _ in range(SERVE_WARM_PASSES) for i in range(len(cold))]
        rounds.append({"specs": cold, "batches": batches})
    return {"rounds": rounds}


def cli_warm(seed: int, seconds: float) -> dict:
    specs = [
        spec(
            suite, name, derive(seed, "cli", i), size, family, "steepest",
            derive(seed, "cli-search", i),
        )
        for i, (suite, name, size, family) in enumerate(CLI_SPECS)
    ]
    return {"specs": specs, "rounds": rounds_for("cli_warm", seconds)}


PLANS = {
    "grid_cold": grid_cold,
    "search_exact": search_exact,
    "serve_mixed": serve_mixed,
    "cli_warm": cli_warm,
}


def to_toml(spec_dict: dict, cache_dir: str) -> str:
    """A spec as the TOML file ``repro run`` reads."""
    lines = []
    for section in ("trace", "geometry", "search"):
        lines.append(f"[{section}]")
        for key, value in spec_dict[section].items():
            lines.append(f"{key} = {_toml_value(value)}")
        lines.append("")
    lines += ["[execution]", f"cache_dir = {_toml_value(cache_dir)}", ""]
    return "\n".join(lines)


def _toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'
