"""Independent checks of the program's outputs, written without ``repro``.

Every figure the benchmark accepts from the program is recomputed here
from first principles, with NumPy only:

* :func:`direct_mapped_misses` counts direct-mapped misses by sorting the
  accesses by set and comparing each access with the previous access to
  its set (a hit iff it is the same block);
* :func:`xor_set_index` computes the set index of an XOR function from a
  report's ``function.columns`` (index bit ``c`` is the parity of
  ``block & columns[c]``);
* :func:`gf2_rank` is Gaussian elimination over GF(2) on column masks.

:func:`check_report` applies them, plus the properties the paper's
method must have, to one ``repro-report/v1`` optimization report.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_addresses",
    "direct_mapped_misses",
    "xor_set_index",
    "modulo_columns",
    "gf2_rank",
    "strip_timing",
    "check_report",
]


def block_addresses(addresses, block_size: int) -> np.ndarray:
    """Byte addresses to block addresses (``block_size`` a power of two)."""
    if block_size <= 0 or block_size & (block_size - 1):
        raise ValueError(f"block size must be a power of two, got {block_size}")
    return np.asarray(addresses, dtype=np.uint64) // np.uint64(block_size)


def _parity(values: np.ndarray) -> np.ndarray:
    """Parity of each uint64 (XOR-fold down to one bit)."""
    x = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(shift)
    return x & np.uint64(1)


def xor_set_index(blocks, columns) -> np.ndarray:
    """Set index of every block under the XOR function ``columns``."""
    blocks = np.asarray(blocks, dtype=np.uint64)
    index = np.zeros(len(blocks), dtype=np.uint64)
    for c, column in enumerate(columns):
        index |= _parity(blocks & np.uint64(column)) << np.uint64(c)
    return index


def modulo_columns(m: int) -> list[int]:
    """Columns of conventional indexing: set bit ``c`` is address bit ``c``."""
    return [1 << c for c in range(m)]


def direct_mapped_misses(blocks, set_index) -> int:
    """Misses of a direct-mapped cache given each access's block and set.

    After a stable sort by set, consecutive entries of one set are that
    set's accesses in program order; an access hits iff the previous
    access to its set touched the same block.
    """
    blocks = np.asarray(blocks, dtype=np.uint64)
    set_index = np.asarray(set_index)
    if len(blocks) != len(set_index):
        raise ValueError("one set index per access is required")
    if len(blocks) == 0:
        return 0
    order = np.argsort(set_index, kind="stable")
    sets = set_index[order]
    sorted_blocks = blocks[order]
    new_set = sets[1:] != sets[:-1]
    other_block = sorted_blocks[1:] != sorted_blocks[:-1]
    return 1 + int(np.count_nonzero(new_set | other_block))


def gf2_rank(columns) -> int:
    """Rank over GF(2) of integer bit-vectors."""
    basis: dict[int, int] = {}
    for column in columns:
        v = int(column)
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def strip_timing(report: dict) -> dict:
    """A copy of ``report`` without its one wall-clock field, ``search.seconds``."""
    out = dict(report)
    if isinstance(out.get("search"), dict):
        out["search"] = {k: v for k, v in out["search"].items() if k != "seconds"}
    return out


def check_report(report: dict, addresses) -> list[str]:
    """Problems found in one optimization report (empty when it is right).

    ``addresses`` is the byte-address trace the report's spec names.
    """
    problems = []
    label = _label(report)
    geometry = report["spec"]["geometry"]
    if geometry["associativity"] != 1:
        return [f"{label}: only direct-mapped reports are checked"]
    num_sets = geometry["cache_bytes"] // geometry["block_size"]
    m = num_sets.bit_length() - 1
    blocks = block_addresses(addresses, geometry["block_size"])
    columns = report["function"]["columns"]
    if len(columns) != m:
        problems.append(f"{label}: {len(columns)} index bits, expected {m}")
    if gf2_rank(columns) != len(columns):
        problems.append(f"{label}: function has GF(2) rank {gf2_rank(columns)} < m")
    for name, cols in (("baseline", modulo_columns(m)), ("optimized", columns)):
        counted = direct_mapped_misses(blocks, xor_set_index(blocks, cols))
        reported = report[name]["misses"]
        if counted != reported:
            problems.append(
                f"{label}: {name} misses {reported} but the trace gives {counted}"
            )
        if report[name]["accesses"] != len(blocks):
            problems.append(f"{label}: {name} accesses != trace length")
    search = report["search"]
    if search["strategy"] == "steepest" and search["estimated_misses"] > search["start_misses"]:
        problems.append(
            f"{label}: steepest descent worsened the estimate "
            f"({search['start_misses']} -> {search['estimated_misses']})"
        )
    return problems


def _label(report: dict) -> str:
    spec = report.get("spec") or {}
    trace = spec.get("trace", {})
    geometry = spec.get("geometry", {})
    search = spec.get("search", {})
    return (
        f"{trace.get('suite')}/{trace.get('benchmark')}[seed {trace.get('seed')}] "
        f"{geometry.get('cache_bytes')}B {search.get('family')} {search.get('strategy')}"
    )
