"""Hand-worked cases for the benchmark's independent checkers.

Run with ``python3 -m pytest perfbench`` or
``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import unittest

import numpy as np

from checkers import (
    block_addresses,
    check_report,
    direct_mapped_misses,
    gf2_rank,
    modulo_columns,
    strip_timing,
    xor_set_index,
)

# Two blocks that share modulo set 0 of a 4-set cache (m = 2): block 0
# and block 0b100.  Alternating between them evicts the other each time.
A, B = 0b000, 0b100
PING_PONG = np.array([A, B] * 4, dtype=np.uint64)
# Index bit 0 = a0 ^ a2 separates them: A -> set 0, B -> set 1.
SEPARATING = [0b101, 0b010]


def _report(addresses, columns, baseline, optimized, block_size=4, cache_bytes=16):
    return {
        "spec": {
            "trace": {"suite": "hand", "benchmark": "worked", "seed": 0},
            "geometry": {
                "cache_bytes": cache_bytes,
                "block_size": block_size,
                "associativity": 1,
            },
            "search": {"family": "2-in", "strategy": "steepest"},
        },
        "function": {"n": 4, "columns": list(columns)},
        "baseline": {"misses": baseline, "accesses": len(addresses)},
        "optimized": {"misses": optimized, "accesses": len(addresses)},
        "search": {
            "strategy": "steepest",
            "estimated_misses": 0,
            "start_misses": 6,
            "seconds": 0.5,
        },
    }


class DirectMappedMissCounter(unittest.TestCase):
    def test_modulo_ping_pong_misses_every_access(self):
        sets = xor_set_index(PING_PONG, modulo_columns(2))
        self.assertEqual(sets.tolist(), [0] * 8)
        self.assertEqual(direct_mapped_misses(PING_PONG, sets), 8)

    def test_separating_xor_function_takes_two_compulsory_misses(self):
        sets = xor_set_index(PING_PONG, SEPARATING)
        self.assertEqual(sets.tolist(), [0, 1] * 4)
        self.assertEqual(direct_mapped_misses(PING_PONG, sets), 2)

    def test_repeated_block_hits(self):
        blocks = np.array([7, 7, 7], dtype=np.uint64)
        self.assertEqual(direct_mapped_misses(blocks, np.zeros(3, np.uint64)), 1)

    def test_distinct_sets_only_compulsory(self):
        blocks = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint64)
        sets = xor_set_index(blocks, modulo_columns(2))
        self.assertEqual(direct_mapped_misses(blocks, sets), 4)

    def test_eviction_then_return_misses_again(self):
        # 0 and 4 conflict in set 0; 1 lives in set 1 undisturbed.
        blocks = np.array([0, 1, 4, 1, 0], dtype=np.uint64)
        sets = xor_set_index(blocks, modulo_columns(2))
        self.assertEqual(direct_mapped_misses(blocks, sets), 4)

    def test_empty_trace(self):
        empty = np.array([], dtype=np.uint64)
        self.assertEqual(direct_mapped_misses(empty, empty), 0)


class XorSetIndex(unittest.TestCase):
    def test_hand_computed_index(self):
        # block 0b1101: bit 0 = parity(0b0001) = 1, bit 1 = parity(0b1100) = 0
        blocks = np.array([0b1101], dtype=np.uint64)
        self.assertEqual(xor_set_index(blocks, [0b0011, 0b1100]).tolist(), [1])

    def test_parity_uses_all_64_bits(self):
        blocks = np.array([1 << 63, (1 << 63) | 1], dtype=np.uint64)
        column = (1 << 63) | 1
        self.assertEqual(xor_set_index(blocks, [column]).tolist(), [1, 0])

    def test_block_addresses(self):
        addresses = np.array([0, 3, 4, 7, 8], dtype=np.uint64)
        self.assertEqual(block_addresses(addresses, 4).tolist(), [0, 0, 1, 1, 2])
        with self.assertRaises(ValueError):
            block_addresses(addresses, 3)


class Gf2Rank(unittest.TestCase):
    def test_ranks(self):
        self.assertEqual(gf2_rank([1, 2, 4]), 3)
        self.assertEqual(gf2_rank([1, 2, 3]), 2)
        self.assertEqual(gf2_rank([0b101, 0b011, 0b110]), 2)
        self.assertEqual(gf2_rank([0, 0]), 0)
        self.assertEqual(gf2_rank([]), 0)
        self.assertEqual(gf2_rank(SEPARATING), 2)


class CheckReport(unittest.TestCase):
    # Byte addresses of the ping-pong blocks with 4-byte blocks; a 16-byte
    # cache has 4 sets, so m = 2.
    addresses = PING_PONG * np.uint64(4)

    def test_correct_report_passes(self):
        report = _report(self.addresses, SEPARATING, baseline=8, optimized=2)
        self.assertEqual(check_report(report, self.addresses), [])

    def test_wrong_miss_count_is_caught(self):
        report = _report(self.addresses, SEPARATING, baseline=8, optimized=3)
        problems = check_report(report, self.addresses)
        self.assertEqual(len(problems), 1)
        self.assertIn("optimized misses 3", problems[0])

    def test_rank_deficient_function_is_caught(self):
        report = _report(self.addresses, [0b101, 0b101], baseline=8, optimized=8)
        self.assertTrue(any("rank" in p for p in check_report(report, self.addresses)))

    def test_worsening_descent_is_caught(self):
        report = _report(self.addresses, SEPARATING, baseline=8, optimized=2)
        report["search"]["estimated_misses"] = 7
        self.assertTrue(any("worsened" in p for p in check_report(report, self.addresses)))

    def test_strip_timing_drops_only_seconds(self):
        report = _report(self.addresses, SEPARATING, baseline=8, optimized=2)
        other = _report(self.addresses, SEPARATING, baseline=8, optimized=2)
        other["search"]["seconds"] = 9.0
        self.assertNotEqual(report, other)
        self.assertEqual(strip_timing(report), strip_timing(other))


if __name__ == "__main__":
    unittest.main()
