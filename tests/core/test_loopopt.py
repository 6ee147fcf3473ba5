"""Tests for loop-level optimization planning (paper §4.3, Fig. 6)."""

import pytest

from repro.accel import AcceleratorConfig, InterconnectKind, M_128
from repro.core import (
    InstructionMapper,
    build_ldfg,
    build_program,
    plan_loop_optimizations,
)
from repro.core.loopopt import MAX_TILE
from repro.isa import assemble


def mapped(text: str, config=M_128):
    ldfg = build_ldfg(list(assemble(text).instructions))
    return build_program(InstructionMapper(config).map(ldfg))


SMALL_LOOP = """
loop:
    lw t1, 0(a0)
    addi t1, t1, 1
    sw t1, 0(a0)
    addi a0, a0, 4
    addi t0, t0, -1
    bne t0, zero, loop
"""


class TestPlanning:
    def test_serial_loop_never_tiled(self):
        plan = plan_loop_optimizations(mapped(SMALL_LOOP), parallelizable=False)
        assert plan.tile_factor == 1

    def test_parallel_loop_tiled(self):
        plan = plan_loop_optimizations(mapped(SMALL_LOOP), parallelizable=True,
                                       expected_iterations=1000)
        assert plan.tile_factor > 1

    def test_tile_is_power_of_two(self):
        plan = plan_loop_optimizations(mapped(SMALL_LOOP), parallelizable=True,
                                       expected_iterations=1000)
        assert plan.tile_factor & (plan.tile_factor - 1) == 0

    def test_tile_bounded_by_pe_capacity(self):
        config = AcceleratorConfig(rows=4, cols=4, lsu_entries=32)
        plan = plan_loop_optimizations(mapped(SMALL_LOOP, config),
                                       parallelizable=True,
                                       expected_iterations=1000)
        # 4 PE nodes per instance on a 16-PE array: at most 4 instances.
        assert plan.tile_factor <= 4

    def test_tile_bounded_by_lsu_capacity(self):
        config = AcceleratorConfig(rows=16, cols=8, lsu_entries=4)
        plan = plan_loop_optimizations(mapped(SMALL_LOOP, config),
                                       parallelizable=True,
                                       expected_iterations=1000)
        # 2 LSU entries per instance, 4 total: at most 2 instances.
        assert plan.tile_factor <= 2

    def test_tile_bounded_by_trip_count(self):
        plan = plan_loop_optimizations(mapped(SMALL_LOOP), parallelizable=True,
                                       expected_iterations=3)
        assert plan.tile_factor <= 3

    def test_tiling_switch(self):
        plan = plan_loop_optimizations(mapped(SMALL_LOOP), parallelizable=True,
                                       enable_tiling=False)
        assert plan.tile_factor == 1

    def test_max_tile_cap(self):
        # Room for 256 instances by PEs and by LSU entries alike.
        config = AcceleratorConfig(rows=32, cols=32, lsu_entries=512)
        plan = plan_loop_optimizations(mapped(SMALL_LOOP, config),
                                       parallelizable=True,
                                       expected_iterations=10_000)
        assert plan.tile_factor == MAX_TILE

    def test_to_execution_options(self):
        plan = plan_loop_optimizations(mapped(SMALL_LOOP), parallelizable=True,
                                       expected_iterations=100)
        options = plan.to_execution_options(max_iterations=50)
        assert options.tile_factor == plan.tile_factor
        assert options.max_iterations == 50

    def test_reason_strings(self):
        serial = plan_loop_optimizations(mapped(SMALL_LOOP), False)
        parallel = plan_loop_optimizations(mapped(SMALL_LOOP), True,
                                           expected_iterations=1000)
        assert "not annotated" in serial.reason
        assert "tile" in parallel.reason
