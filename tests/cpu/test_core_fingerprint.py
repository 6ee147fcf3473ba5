"""Frozen fingerprints of the CPU baseline model on every Rodinia kernel.

The trace collector, the out-of-order scoreboard and the cache hierarchy
are rewritten for speed from time to time; this table is the oracle that
keeps every such rewrite bit-identical.  Each kernel runs at 48 iterations,
seed 1, and pins:

* the trace: length, a SHA-256 over ``(seq, pc, address, taken)`` per
  entry, and a SHA-256 over the final register snapshot;
* the single-core run: cycles, instructions, ``by_class`` in its dict
  order, branch mispredicts and load forwards;
* the memory hierarchy after that run: L1/L2 ``CacheStats``, DRAM
  accesses, and a SHA-256 over the per-PC AMAT ``(total_cycles,
  accesses)`` in first-access order;
* the analytic ``MulticoreCpu(16)`` cycles.

To regenerate after an intended model change, print ``fingerprint(name)``
for every kernel and paste the result into :data:`EXPECTED`.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cpu import CpuConfig, MulticoreCpu, OutOfOrderCore, collect_trace
from repro.mem import MemoryHierarchy
from repro.workloads import build_kernel, kernel_names

ITERATIONS = 48
SEED = 1


def _sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]


def _stats(cache) -> tuple[int, int, int]:
    s = cache.stats
    return (s.hits, s.misses, s.evictions)


def fingerprint(name: str) -> dict:
    kernel = build_kernel(name, iterations=ITERATIONS, seed=SEED)
    trace = collect_trace(kernel.program, kernel.fresh_state())
    hierarchy = MemoryHierarchy()
    result = OutOfOrderCore(hierarchy=hierarchy).run(trace)
    counters = result.counters
    multicore = MulticoreCpu(CpuConfig(num_cores=16)).run(
        trace, 1.0 if kernel.parallelizable else 0.0)
    return {
        "trace_len": len(trace),
        "trace_sha": _sha((i, e.pc, e.address, e.taken)
                          for i, e in enumerate(trace)),
        "regs_sha": _sha(trace.final_state.snapshot().items()),
        "cycles": result.cycles,
        "instructions": counters.instructions,
        "by_class": [(cls.value, n) for cls, n in counters.by_class.items()],
        "branch_mispredicts": counters.branch_mispredicts,
        "load_forwards": counters.load_forwards,
        "l1": _stats(hierarchy.l1),
        "l2": _stats(hierarchy.l2),
        "dram_accesses": hierarchy.dram_accesses,
        "amat_sha": _sha((pc, c.total_cycles, c.accesses)
                         for pc, c in hierarchy.amat_counters().items()),
        "multicore_cycles": multicore.cycles,
    }


EXPECTED: dict[str, dict] = {
    "backprop": {
        "trace_len": 387,
        "trace_sha": "9244fc8dada1b2e7",
        "regs_sha": "ed645c26d2c74ba1",
        "cycles": 315,
        "instructions": 387,
        "by_class": [
            ("int_alu", 147),
            ("load", 96),
            ("fp_mul", 48),
            ("fp_add", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (90, 6, 0),
        "l2": (0, 6, 0),
        "dram_accesses": 6,
        "amat_sha": "229f9cd192ba60ca",
        "multicore_cycles": 315.0,
    },
    "bfs": {
        "trace_len": 407,
        "trace_sha": "97636efe6c66bd07",
        "regs_sha": "7a2d5c4aacd2d3c0",
        "cycles": 2492,
        "instructions": 407,
        "by_class": [
            ("int_alu", 196),
            ("load", 96),
            ("branch", 96),
            ("store", 19),
        ],
        "branch_mispredicts": 30,
        "load_forwards": 2,
        "l1": (95, 18, 0),
        "l2": (0, 18, 0),
        "dram_accesses": 18,
        "amat_sha": "34703c43aeebedf9",
        "multicore_cycles": 655.75,
    },
    "btree": {
        "trace_len": 1060,
        "trace_sha": "bbef8210425038ac",
        "regs_sha": "d6474f2aeb2c5313",
        "cycles": 1703,
        "instructions": 1060,
        "by_class": [
            ("int_alu", 628),
            ("load", 192),
            ("branch", 192),
            ("store", 48),
        ],
        "branch_mispredicts": 49,
        "load_forwards": 0,
        "l1": (230, 10, 0),
        "l2": (0, 10, 0),
        "dram_accesses": 10,
        "amat_sha": "ec73be89ffb9490b",
        "multicore_cycles": 606.4375,
    },
    "cfd": {
        "trace_len": 773,
        "trace_sha": "c11dec75ef228eac",
        "regs_sha": "6bee6bd93754bac9",
        "cycles": 1337,
        "instructions": 773,
        "by_class": [
            ("int_alu", 245),
            ("load", 144),
            ("fp_div", 48),
            ("fp_mul", 144),
            ("fp_add", 96),
            ("store", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (180, 12, 0),
        "l2": (0, 12, 0),
        "dram_accesses": 12,
        "amat_sha": "02d2fe6cc9d43ef4",
        "multicore_cycles": 583.5625,
    },
    "gaussian": {
        "trace_len": 435,
        "trace_sha": "e68634af09c581d5",
        "regs_sha": "9f49cb5cea907dd3",
        "cycles": 629,
        "instructions": 435,
        "by_class": [
            ("int_alu", 147),
            ("load", 96),
            ("fp_mul", 48),
            ("fp_add", 48),
            ("store", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (138, 6, 0),
        "l2": (0, 6, 0),
        "dram_accesses": 6,
        "amat_sha": "143cf9d2d27a0570",
        "multicore_cycles": 539.3125,
    },
    "heartwall": {
        "trace_len": 771,
        "trace_sha": "f2a09c19b31383e8",
        "regs_sha": "6bb90cf6c744508c",
        "cycles": 886,
        "instructions": 771,
        "by_class": [
            ("int_alu", 147),
            ("load", 192),
            ("fp_mul", 192),
            ("fp_add", 144),
            ("store", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (233, 7, 0),
        "l2": (0, 7, 0),
        "dram_accesses": 7,
        "amat_sha": "d83d85cf6d292d30",
        "multicore_cycles": 555.375,
    },
    "hotspot": {
        "trace_len": 1015,
        "trace_sha": "160d91a0756df56a",
        "regs_sha": "ef58ab0c15aca81d",
        "cycles": 1299,
        "instructions": 1015,
        "by_class": [
            ("int_alu", 199),
            ("load", 288),
            ("fp_add", 384),
            ("fp_mul", 48),
            ("store", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (319, 17, 0),
        "l2": (0, 17, 0),
        "dram_accesses": 17,
        "amat_sha": "9ff59e4fb4b3ae03",
        "multicore_cycles": 581.1875,
    },
    "hotspot3d": {
        "trace_len": 917,
        "trace_sha": "ba86d37148c3c68d",
        "regs_sha": "76016b80aa16919e",
        "cycles": 1038,
        "instructions": 917,
        "by_class": [
            ("int_alu", 149),
            ("load", 336),
            ("fp_add", 288),
            ("fp_mul", 48),
            ("store", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (366, 18, 0),
        "l2": (0, 18, 0),
        "dram_accesses": 18,
        "amat_sha": "3b62b8ed5b6cd0ce",
        "multicore_cycles": 572.0,
    },
    "kmeans": {
        "trace_len": 963,
        "trace_sha": "98b5c184a3e8247f",
        "regs_sha": "a411903c829a35a5",
        "cycles": 1684,
        "instructions": 963,
        "by_class": [
            ("int_alu", 147),
            ("load", 96),
            ("fp_add", 288),
            ("fp_mul", 192),
            ("fp_cmp", 96),
            ("store", 96),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (180, 12, 0),
        "l2": (0, 12, 0),
        "dram_accesses": 12,
        "amat_sha": "5dfd07bebc548802",
        "multicore_cycles": 605.25,
    },
    "lavamd": {
        "trace_len": 1203,
        "trace_sha": "b46bf522f4d40f30",
        "regs_sha": "154fdadb338c87fe",
        "cycles": 4217,
        "instructions": 1203,
        "by_class": [
            ("int_alu", 147),
            ("load", 144),
            ("fp_add", 288),
            ("fp_mul", 336),
            ("fp_sqrt", 48),
            ("fp_div", 48),
            ("store", 144),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (270, 18, 0),
        "l2": (0, 18, 0),
        "dram_accesses": 18,
        "amat_sha": "987e831f03305692",
        "multicore_cycles": 763.5625,
    },
    "leukocyte": {
        "trace_len": 786,
        "trace_sha": "43cdd78e267934cc",
        "regs_sha": "b76cd1ba2035a80c",
        "cycles": 1953,
        "instructions": 786,
        "by_class": [
            ("int_alu", 196),
            ("load", 96),
            ("fp_mul", 192),
            ("fp_add", 96),
            ("fp_cmp", 62),
            ("branch", 96),
            ("store", 48),
        ],
        "branch_mispredicts": 35,
        "load_forwards": 0,
        "l1": (135, 9, 0),
        "l2": (0, 9, 0),
        "dram_accesses": 9,
        "amat_sha": "1a99245b025baf7d",
        "multicore_cycles": 622.0625,
    },
    "lud": {
        "trace_len": 387,
        "trace_sha": "9244fc8dada1b2e7",
        "regs_sha": "432b13b71d6c3814",
        "cycles": 315,
        "instructions": 387,
        "by_class": [
            ("int_alu", 147),
            ("load", 96),
            ("fp_mul", 48),
            ("fp_add", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (90, 6, 0),
        "l2": (0, 6, 0),
        "dram_accesses": 6,
        "amat_sha": "229f9cd192ba60ca",
        "multicore_cycles": 315.0,
    },
    "myocyte": {
        "trace_len": 625,
        "trace_sha": "573a2740d8cf6e80",
        "regs_sha": "fd23a5e591cc9e45",
        "cycles": 1682,
        "instructions": 625,
        "by_class": [
            ("int_alu", 49),
            ("fp_mul", 288),
            ("fp_add", 240),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (0, 0, 0),
        "l2": (0, 0, 0),
        "dram_accesses": 0,
        "amat_sha": "e3b0c44298fc1c14",
        "multicore_cycles": 1682.0,
    },
    "nn": {
        "trace_len": 627,
        "trace_sha": "e7717148203e7815",
        "regs_sha": "39bbacf6532abe52",
        "cycles": 1515,
        "instructions": 627,
        "by_class": [
            ("int_alu", 147),
            ("load", 96),
            ("fp_add", 144),
            ("fp_mul", 96),
            ("fp_sqrt", 48),
            ("store", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (135, 9, 0),
        "l2": (0, 9, 0),
        "dram_accesses": 9,
        "amat_sha": "ddd2f190abbc2e76",
        "multicore_cycles": 594.6875,
    },
    "nw": {
        "trace_len": 763,
        "trace_sha": "0b9995a6585868bd",
        "regs_sha": "8febacba42fe3fa6",
        "cycles": 1663,
        "instructions": 763,
        "by_class": [
            ("int_alu", 427),
            ("load", 144),
            ("branch", 144),
            ("store", 48),
        ],
        "branch_mispredicts": 61,
        "load_forwards": 0,
        "l1": (182, 10, 0),
        "l2": (0, 10, 0),
        "dram_accesses": 10,
        "amat_sha": "c4532e859bc7731d",
        "multicore_cycles": 1663.0,
    },
    "particlefilter": {
        "trace_len": 531,
        "trace_sha": "cdfa0f2b87e6c3e2",
        "regs_sha": "b247bcfed6d206b7",
        "cycles": 1137,
        "instructions": 531,
        "by_class": [
            ("int_alu", 147),
            ("load", 96),
            ("fp_mul", 96),
            ("fp_add", 48),
            ("fp_div", 48),
            ("store", 48),
            ("branch", 48),
        ],
        "branch_mispredicts": 1,
        "load_forwards": 0,
        "l1": (138, 6, 0),
        "l2": (0, 6, 0),
        "dram_accesses": 6,
        "amat_sha": "e50ec70d00a9302f",
        "multicore_cycles": 571.0625,
    },
    "pathfinder": {
        "trace_len": 673,
        "trace_sha": "f8fdfe27a9d26b01",
        "regs_sha": "5991333a2f74e909",
        "cycles": 1571,
        "instructions": 673,
        "by_class": [
            ("int_alu", 289),
            ("load", 192),
            ("branch", 144),
            ("store", 48),
        ],
        "branch_mispredicts": 55,
        "load_forwards": 0,
        "l1": (228, 12, 0),
        "l2": (0, 12, 0),
        "dram_accesses": 12,
        "amat_sha": "a0e40626d87d38bf",
        "multicore_cycles": 598.1875,
    },
    "srad": {
        "trace_len": 1395,
        "trace_sha": "8c86adf23ea3c578",
        "regs_sha": "fcf969f5b63ddcd7",
        "cycles": 1279,
        "instructions": 1395,
        "by_class": [
            ("int_alu", 915),
            ("load", 192),
            ("branch", 240),
            ("store", 48),
        ],
        "branch_mispredicts": 49,
        "load_forwards": 0,
        "l1": (233, 7, 0),
        "l2": (0, 7, 0),
        "dram_accesses": 7,
        "amat_sha": "eb0d8444afd5e791",
        "multicore_cycles": 579.9375,
    },
    "streamcluster": {
        "trace_len": 850,
        "trace_sha": "be7e47e15148d6c8",
        "regs_sha": "43b978e87ab7484a",
        "cycles": 1681,
        "instructions": 850,
        "by_class": [
            ("int_alu", 196),
            ("load", 192),
            ("fp_add", 144),
            ("fp_mul", 144),
            ("fp_cmp", 48),
            ("branch", 96),
            ("store", 30),
        ],
        "branch_mispredicts": 19,
        "load_forwards": 0,
        "l1": (210, 12, 0),
        "l2": (0, 12, 0),
        "dram_accesses": 12,
        "amat_sha": "25e45baaa1c09459",
        "multicore_cycles": 605.0625,
    },
}


def test_every_kernel_is_pinned():
    assert sorted(EXPECTED) == kernel_names()


@pytest.mark.parametrize("name", kernel_names())
def test_cpu_model_fingerprint(name):
    assert fingerprint(name) == EXPECTED[name]
