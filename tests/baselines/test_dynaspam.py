"""Tests for the DynaSpAM-style 1-D feed-forward baseline."""

import pytest

from repro.baselines import DynaSpamConfig, DynaSpamError, DynaSpamMapper
from repro.core import build_ldfg
from repro.isa import assemble


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
        mapping = DynaSpamMapper().map(ldfg_of(SMALL_LOOP))
        assert mapping.nodes == 6
        assert mapping.cycles_per_iteration > 0
        assert mapping.initiation_interval >= 1

    def test_levels_respect_dependences(self):
        mapping = DynaSpamMapper().map(ldfg_of(SMALL_LOOP))
        level_of = {nid: i for i, level in enumerate(mapping.levels)
                    for nid in level}
        assert level_of[1] > level_of[0], "addi after lw"
        assert level_of[2] > level_of[1], "sw after addi"

    def test_lane_limit_spills_levels(self):
        narrow = DynaSpamConfig(lanes=1, depth=16)
        text = "\n".join(f"addi t{i + 1}, zero, {i}" for i in range(4))
        mapping = DynaSpamMapper(narrow).map(ldfg_of(text))
        assert len(mapping.levels) == 4, "independent ops serialized by lanes"

    def test_capacity_exceeded_raises(self):
        tiny = DynaSpamConfig(lanes=2, depth=2)
        with pytest.raises(DynaSpamError, match="capacity"):
            DynaSpamMapper(tiny).map(ldfg_of(SMALL_LOOP))

    def test_depth_exceeded_raises(self):
        shallow = DynaSpamConfig(lanes=8, depth=2)
        chain = "\n".join(["addi t1, zero, 1"]
                          + ["addi t1, t1, 1"] * 5)
        with pytest.raises(DynaSpamError, match="depth"):
            DynaSpamMapper(shallow).map(ldfg_of(chain))

    def test_memory_latency_exposed(self):
        fast = DynaSpamMapper().map(ldfg_of(SMALL_LOOP),
                                    average_memory_latency=2.0)
        slow = DynaSpamMapper().map(ldfg_of(SMALL_LOOP),
                                    average_memory_latency=40.0)
        assert slow.cycles_per_iteration > fast.cycles_per_iteration

    def test_ii_bounded_by_memory_ports(self):
        config = DynaSpamConfig(memory_ports=1)
        mapping = DynaSpamMapper(config).map(ldfg_of(SMALL_LOOP))
        # 2 memory ops on one port + the writeback bubble.
        assert mapping.initiation_interval >= 3

    def test_ipc(self):
        mapping = DynaSpamMapper().map(ldfg_of(SMALL_LOOP))
        assert mapping.ipc == pytest.approx(
            mapping.nodes / mapping.initiation_interval)

    def test_config_cost_is_nanoseconds(self):
        """Table 2: DynaSpAM configures in nanoseconds (tens of cycles),
        far below MESA's 10^3-10^4 cycles."""
        assert DynaSpamConfig().config_cycles < 100
