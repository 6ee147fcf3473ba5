"""Tests for the DynaSpAM-style 1-D feed-forward baseline."""

import pytest

from repro.baselines import DynaSpamError, DynaSpamMapper
from repro.baselines.dynaspam import (
    CAPACITY,
    CONFIG_CYCLES,
    DEPTH,
    LANES,
    MEMORY_LATENCY,
    STAGE_LATENCY,
)
from repro.core import build_ldfg
from repro.cpu import CpuConfig
from repro.isa import OpClass, assemble
from repro.latency import OP_LATENCY

#: The fabric inside the default core.
MAPPER = DynaSpamMapper(CpuConfig())


def ldfg_of(text: str):
    return build_ldfg(list(assemble(text).instructions))


SMALL_LOOP = """
loop:
    lw t1, 0(a0)
    addi t1, t1, 1
    sw t1, 0(a0)
    addi a0, a0, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


class TestMapping:
    def test_small_loop_maps(self):
        mapping = MAPPER.map(ldfg_of(SMALL_LOOP))
        assert mapping.nodes == 6
        assert mapping.cycles_per_iteration > 0
        assert mapping.initiation_interval >= 1

    def test_levels_respect_dependences(self):
        mapping = MAPPER.map(ldfg_of(SMALL_LOOP))
        level_of = {nid: i for i, level in enumerate(mapping.levels)
                    for nid in level}
        assert level_of[1] > level_of[0], "addi after lw"
        assert level_of[2] > level_of[1], "sw after addi"

    def test_lane_limit_spills_levels(self):
        text = "\n".join(f"addi t{i % 6 + 1}, zero, {i}"
                         for i in range(2 * LANES))
        mapping = MAPPER.map(ldfg_of(text))
        assert [len(level) for level in mapping.levels] == [LANES, LANES], (
            "independent ops serialized by lanes")

    def test_capacity_exceeded_raises(self):
        text = "\n".join(f"addi t{i % 6 + 1}, zero, {i}"
                         for i in range(CAPACITY + 1))
        with pytest.raises(DynaSpamError, match="capacity"):
            MAPPER.map(ldfg_of(text))

    def test_depth_exceeded_raises(self):
        chain = "\n".join(["addi t1, zero, 1"]
                          + ["addi t1, t1, 1"] * DEPTH)
        with pytest.raises(DynaSpamError, match="depth"):
            MAPPER.map(ldfg_of(chain))

    def test_memory_latency_exposed(self):
        # The critical path is lw -> addi -> sw: two memory operations at
        # the core's AMAT, one ALU op and two stage crossings.
        mapping = MAPPER.map(ldfg_of(SMALL_LOOP))
        assert mapping.cycles_per_iteration == (
            2 * MEMORY_LATENCY + 2 * STAGE_LATENCY
            + OP_LATENCY[OpClass.INT_ALU])

    def test_ii_bounded_by_memory_ports(self):
        loads = "\n".join(f"lw t{i % 6 + 1}, {4 * i}(a0)" for i in range(8))
        mapping = MAPPER.map(ldfg_of(
            f"loop:\n{loads}\naddi t0, t0, -1\nbne t0, zero, loop"))
        # 8 loads on the core's 2 load/store ports + the writeback bubble.
        ports = CpuConfig().load_store_ports
        assert mapping.initiation_interval == 8 / ports + 1

    def test_ipc(self):
        mapping = MAPPER.map(ldfg_of(SMALL_LOOP))
        assert mapping.ipc == pytest.approx(
            mapping.nodes / mapping.initiation_interval)

    def test_config_cost_is_nanoseconds(self):
        """Table 2: DynaSpAM configures in nanoseconds (tens of cycles),
        far below MESA's 10^3-10^4 cycles."""
        assert CONFIG_CYCLES < 100
