"""Integration: configuration-cache reuse across executions and regions.

Paper §4.3: "a configuration cache is stored on MESA for loops that have
already been mapped in case they are re-encountered in the near future."
One controller serves a whole chip, so repeated executions of the same
binary (or a binary whose loop is visited repeatedly) must hit the cache.
"""

import pytest

from repro.accel import M_128
from repro.core import MesaController, RegionKey, region_digest
from repro.isa import MachineState, assemble, x
from repro.mem import Memory
from repro.workloads import build_kernel, kernel_names


class TestCacheReuse:
    def test_second_execution_hits_cache(self):
        kernel = build_kernel("nn", iterations=128)
        controller = MesaController(M_128)
        cold = controller.execute(kernel.program, kernel.state_factory,
                                  parallelizable=True)
        assert cold.accelerated and not cold.config_cache_hit

        warm = controller.execute(kernel.program, kernel.state_factory,
                                  parallelizable=True)
        # The re-encounter hits during execute: T1-T3 are skipped and the
        # region pays only the bitstream load (Table 2's cached path).
        assert warm.accelerated and warm.config_cache_hit
        assert warm.cache_stats.hits == 1
        assert warm.cache_stats.insertions == 0, "no re-configuration"
        assert warm.config_cost.total == cold.config_cost.write_cycles
        assert warm.total_cycles < cold.total_cycles
        start = kernel.program.labels["loop"]
        end = kernel.program.end_address - 4
        loop = controller.config_cache.lookup(RegionKey(
            M_128.name, start, end,
            region_digest(kernel.program, start, end)))
        assert loop is not None

    def test_distinct_kernels_distinct_entries(self):
        controller = MesaController(M_128)
        for name in ("nn", "gaussian"):
            kernel = build_kernel(name, iterations=128)
            result = controller.execute(kernel.program, kernel.state_factory,
                                        parallelizable=True)
            assert result.accelerated
        # Both regions are cached under their own addresses.
        hits = 0
        for name in ("nn", "gaussian"):
            kernel = build_kernel(name, iterations=128)
            start = kernel.program.labels["loop"]
            end = kernel.program.end_address - 4
            entry = controller.config_cache.lookup(RegionKey(
                M_128.name, start, end,
                region_digest(kernel.program, start, end)))
            hits += entry is not None
        assert hits == 2

    def test_records_are_named_by_their_region_keys(self):
        """``RegionKey.of`` gives back, for every exported record, the key
        the controller configured its region under."""
        controller = MesaController(M_128)
        keys = []
        for name in ("nn", "gaussian", "kmeans"):
            kernel = build_kernel(name, iterations=128)
            result = controller.execute(kernel.program, kernel.state_factory,
                                        parallelizable=True)
            keys += [region.key for region in result.regions]
        records = controller.config_cache.export_regions()
        assert len(keys) == 3
        assert [RegionKey.of(record) for record in records] == keys

    def test_revisited_loop_offloads_every_visit(self):
        """A loop inside an outer phase structure is re-entered; after the
        first (configuring) visit, later visits offload immediately."""
        program = assemble(
            """
            addi s0, zero, 3            # three visits
            phase:
                addi t0, zero, 120      # trip count per visit
                lui  a0, 16
                loop:
                    lw   t1, 0(a0)
                    addi t1, t1, 1
                    sw   t1, 0(a0)
                    addi a0, a0, 4
                    addi t0, t0, -1
                    bne  t0, zero, loop
                addi s0, s0, -1
                bne s0, zero, phase
            """
        )

        def make_state():
            state = MachineState(pc=program.base_address)
            memory = Memory()
            memory.store_words(0x10000, [0] * 200)
            state.memory = memory
            return state

        controller = MesaController(M_128)
        result = controller.execute(program, make_state, parallelizable=True)
        assert result.accelerated
        assert result.offload_count >= 2, (
            "later visits must offload without re-detection")
        # Functional: 3 visits x 120 increments over the same array region.
        memory = result.final_state.memory
        assert memory.load_word(0x10000) == 3
        assert memory.load_word(0x10000 + 4 * 119) == 3
        assert memory.load_word(0x10000 + 4 * 120) == 0


@pytest.mark.parametrize("name", kernel_names())
def test_every_hit_takes_one_warm_path(name):
    """A hit on the controller that configured the region and a hit on a
    fresh controller seeded from its exported records are the same warm
    path: identical cycles, and the cold run's loop plan."""
    kernel = build_kernel(name, iterations=128)

    def execute(controller):
        return controller.execute(kernel.program, kernel.state_factory,
                                  parallelizable=kernel.parallelizable)

    controller = MesaController(M_128)
    cold = execute(controller)
    warm = execute(controller)
    seeded = MesaController(M_128)
    seeded.config_cache.restore_regions(
        controller.config_cache.export_regions(), M_128)
    restored = execute(seeded)

    assert warm.total_cycles == restored.total_cycles
    assert warm.loop_plan == cold.loop_plan
    assert restored.loop_plan == cold.loop_plan
    assert warm.config_cache_hit == restored.config_cache_hit
    if cold.accelerated:
        assert warm.config_cache_hit
        for hit in (warm, restored):
            assert hit.sdfg is None and hit.memopt_report is None
