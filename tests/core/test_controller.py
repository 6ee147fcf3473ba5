"""End-to-end tests of the MESA controller."""

import threading
import time

import pytest

from repro import M_128, MesaController, MesaOptions, assemble
from repro.accel import AcceleratorConfig
from repro.core import RegionKey, region_digest
from repro.isa import MachineState, run, x
from repro.mem import Memory


INCREMENT_LOOP = assemble(
    """
    addi t0, zero, 400
    loop:
        lw   t1, 0(a0)
        addi t1, t1, 1
        sw   t1, 0(a0)
        addi a0, a0, 4
        addi t0, t0, -1
        bne  t0, zero, loop
    """
)


def increment_state():
    state = MachineState(pc=INCREMENT_LOOP.base_address)
    memory = Memory()
    memory.store_words(0x4000, [5] * 500)
    state.memory = memory
    state.write(x(10), 0x4000)
    return state


@pytest.fixture(scope="module")
def accelerated_result():
    controller = MesaController(M_128)
    return controller.execute(INCREMENT_LOOP, increment_state,
                              parallelizable=True)


class TestAcceleratedExecution:
    def test_loop_offloaded(self, accelerated_result):
        assert accelerated_result.accelerated
        assert accelerated_result.offload_count == 1
        assert accelerated_result.accel_iterations > 300

    def test_speedup_over_single_core(self, accelerated_result):
        assert accelerated_result.speedup_vs_single_core > 1.0

    def test_functional_correctness(self, accelerated_result):
        memory = accelerated_result.final_state.memory
        for i in range(400):
            assert memory.load_word(0x4000 + 4 * i) == 6
        assert memory.load_word(0x4000 + 4 * 400) == 5

    def test_breakdown_accounts_everything(self, accelerated_result):
        b = accelerated_result.breakdown
        assert b.cpu_cycles > 0, "warm-up iterations ran on the CPU"
        assert b.offload_cycles > 0
        assert b.accel_cycles > 0
        assert b.return_cycles > 0
        assert accelerated_result.total_cycles == pytest.approx(
            b.cpu_cycles + b.offload_cycles + b.accel_cycles
            + b.return_cycles + b.exposed_config_cycles)

    def test_config_cost_in_paper_range(self, accelerated_result):
        # Small loop: cost is modest, but must be nonzero and bounded.
        assert 10 <= accelerated_result.config_cost.total <= 1e4

    def test_loop_plan_tiles_parallel_loop(self, accelerated_result):
        assert accelerated_result.loop_plan.tile_factor > 1

    def test_memopt_ran(self, accelerated_result):
        assert accelerated_result.memopt_report is not None
        assert accelerated_result.memopt_report.prefetched_loads >= 1

    def test_activity_counters_merged(self, accelerated_result):
        activity = accelerated_result.activity
        assert activity.loads == accelerated_result.accel_iterations
        assert activity.stores == accelerated_result.accel_iterations


class TestFallbackPaths:
    def test_no_loop_program_runs_on_cpu(self):
        program = assemble("addi t0, zero, 1\naddi t1, t0, 2")
        controller = MesaController(M_128)
        result = controller.execute(program,
                                    lambda: MachineState(pc=program.base_address))
        assert not result.accelerated
        assert "no hot loop" in result.reason
        assert result.total_cycles == result.cpu_only.cycles

    def test_low_trip_count_runs_on_cpu(self):
        program = assemble(
            """
            addi t0, zero, 8
            loop:
                addi t1, t1, 1
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        controller = MesaController(M_128)
        result = controller.execute(program,
                                    lambda: MachineState(pc=program.base_address))
        assert not result.accelerated
        assert any("C3" in r or "amortize" in r for r in [result.reason])

    def test_unmappable_loop_runs_on_cpu(self):
        config = AcceleratorConfig(rows=2, cols=2, lsu_entries=64)
        body = "\n".join(f"addi t{1 + i % 5}, t{i % 5}, 1" for i in range(12))
        program = assemble(
            f"""
            addi t0, zero, 200
            loop:
                {body}
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        controller = MesaController(config)
        result = controller.execute(program,
                                    lambda: MachineState(pc=program.base_address))
        assert not result.accelerated
        assert "mapping failed" in result.reason

    def test_serial_loop_not_tiled_but_accelerated(self):
        controller = MesaController(M_128)
        result = controller.execute(INCREMENT_LOOP, increment_state,
                                    parallelizable=False)
        assert result.accelerated
        assert result.loop_plan.tile_factor == 1

    def test_final_state_correct_even_without_acceleration(self):
        program = assemble(
            """
            addi t0, zero, 8
            loop:
                addi t1, t1, 2
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        controller = MesaController(M_128)
        result = controller.execute(program,
                                    lambda: MachineState(pc=program.base_address))
        assert result.final_state.read(x(6)) == 16


class TestSharedBaseline:
    def test_cpu_only_results_do_not_alias_the_shared_trace(self):
        program = assemble(
            """
            addi t0, zero, 8
            loop:
                lw   t1, 0(a0)
                addi t1, t1, 2
                sw   t1, 0(a0)
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )

        def fresh():
            state = MachineState(pc=program.base_address)
            state.write(x(10), 0x4000)
            return state

        controller = MesaController(M_128)
        baseline = controller.cpu_baseline(program, fresh)
        trace = baseline[0]
        first, second = (controller.execute(program, fresh,
                                            baseline=baseline)
                         for _ in range(2))
        assert not first.accelerated and not second.accelerated
        assert first.final_state.memory.load(0x4000, 4) == 16
        assert first.final_state.read(x(6)) == 16

        first.final_state.memory.store(0x4000, 4, 99)
        first.final_state.write(x(6), 99)
        for state in (second.final_state, trace.final_state):
            assert state.memory.load(0x4000, 4) == 16
            assert state.read(x(6)) == 16


class TestOptions:
    def test_iterative_rounds_recorded(self):
        controller = MesaController(M_128,
                                    options=MesaOptions(iterative_rounds=2))
        result = controller.execute(INCREMENT_LOOP, increment_state,
                                    parallelizable=True)
        assert result.accelerated
        assert 1 <= len(result.optimizer_history) <= 2

    def test_memopt_can_be_disabled(self):
        controller = MesaController(M_128, options=MesaOptions(memopt=False))
        result = controller.execute(INCREMENT_LOOP, increment_state)
        assert result.accelerated
        assert result.memopt_report is None

    def test_parallel_beats_serial(self):
        serial = MesaController(M_128).execute(
            INCREMENT_LOOP, increment_state, parallelizable=False)
        parallel = MesaController(M_128).execute(
            INCREMENT_LOOP, increment_state, parallelizable=True)
        assert parallel.total_cycles < serial.total_cycles

    def test_config_cache_populated(self):
        controller = MesaController(M_128)
        controller.execute(INCREMENT_LOOP, increment_state)
        loop_start = 0x1004
        loop_end = 0x1018
        digest = region_digest(INCREMENT_LOOP, loop_start, loop_end)
        assert controller.config_cache.lookup(
            RegionKey(M_128.name, loop_start, loop_end, digest)) is not None


class TestConfigCacheWarmPath:
    """Re-encountered regions hit the cache and skip T1-T3 (paper §5.1)."""

    def test_second_execute_hits_cache_and_skips_translation(self):
        controller = MesaController(M_128)
        cold = controller.execute(INCREMENT_LOOP, increment_state,
                                  parallelizable=True)
        assert cold.accelerated and not cold.config_cache_hit
        assert cold.cache_stats.misses == 1
        assert cold.cache_stats.insertions == 1

        calls = []
        original = controller._translate
        controller._translate = lambda *a, **k: (
            calls.append(1) or original(*a, **k))
        warm = controller.execute(INCREMENT_LOOP, increment_state,
                                  parallelizable=True)
        assert warm.accelerated and warm.config_cache_hit
        assert warm.cache_stats.hits == 1
        assert warm.cache_stats.misses == 0
        assert calls == [], "a cache hit must not translate or map"

    def test_warm_config_cost_is_bitstream_load_only(self):
        controller = MesaController(M_128)
        cold = controller.execute(INCREMENT_LOOP, increment_state,
                                  parallelizable=True)
        warm = controller.execute(INCREMENT_LOOP, increment_state,
                                  parallelizable=True)
        assert warm.config_cost.total == cold.config_cost.write_cycles
        assert warm.config_cost.ldfg_build_cycles == 0
        assert warm.config_cost.mapping_cycles == 0
        assert warm.config_cost.stall_fill_cycles == 0
        assert warm.bitstream_words == cold.bitstream_words
        # Shorter warm-up => fewer CPU iterations => faster end to end.
        assert warm.total_cycles < cold.total_cycles
        assert warm.regions[0].cache_hit

    def test_warm_run_functionally_correct(self):
        controller = MesaController(M_128)
        controller.execute(INCREMENT_LOOP, increment_state,
                           parallelizable=True)
        warm = controller.execute(INCREMENT_LOOP, increment_state,
                                  parallelizable=True)
        memory = warm.final_state.memory
        for i in range(400):
            assert memory.load_word(0x4000 + 4 * i) == 6

    def test_distinct_backends_do_not_cross_hit(self):
        from repro.accel import M_64

        shared_cache_controller = MesaController(M_128)
        shared_cache_controller.execute(INCREMENT_LOOP, increment_state,
                                        parallelizable=True)
        other = MesaController(M_64)
        other.config_cache = shared_cache_controller.config_cache
        result = other.execute(INCREMENT_LOOP, increment_state,
                               parallelizable=True)
        assert not result.config_cache_hit, (
            "an M-128 configuration must not be replayed on M-64")


class TestPhaseTimingThreadSafety:
    """Regression: two threads sharing one controller used to clobber each
    other's ``phase_seconds`` (the accumulator was an instance dict that
    ``execute`` reset, so a concurrent run wiped the other's partial
    timings).  Each execute now owns its record."""

    # Phases every execute records; translate/map/configure additionally
    # run on a config-cache miss ("optimize" needs iterative_rounds > 0).
    ALWAYS = {"trace", "cpu-model", "detect", "execute"}
    COLD = {"translate", "map", "configure"}

    def test_concurrent_executes_keep_phase_timings_complete(self):
        controller = MesaController(M_128)
        barrier = threading.Barrier(2)
        results = [None, None]
        walls = [0.0, 0.0]

        def run(slot):
            barrier.wait()
            start = time.perf_counter()
            results[slot] = controller.execute(
                INCREMENT_LOOP, increment_state, parallelizable=True)
            walls[slot] = time.perf_counter() - start

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for slot, result in enumerate(results):
            assert result.accelerated
            expected = set(self.ALWAYS)
            if not result.config_cache_hit:
                expected |= self.COLD
            recorded = set(result.phase_seconds)
            assert expected <= recorded, (
                f"thread {slot} lost phases: {expected - recorded}")
            assert all(seconds >= 0.0
                       for seconds in result.phase_seconds.values())
            # Disjoint: a thread's timings cover only its own run, so they
            # cannot exceed its own wall clock (the shared-dict bug let one
            # thread's phases leak into — and inflate — the other's).
            assert sum(result.phase_seconds.values()) <= walls[slot] + 0.05
        assert results[0].phase_seconds is not results[1].phase_seconds


class TestFailureReasons:
    def test_all_region_failures_reported(self):
        """A later region's failure must not be dropped because an earlier
        one was recorded first."""
        config = AcceleratorConfig(rows=2, cols=2, lsu_entries=64)
        body_a = "\n".join(f"addi t{1 + i % 5}, t{i % 5}, 1"
                           for i in range(12))
        body_b = "\n".join(f"addi s{2 + i % 5}, s{1 + i % 5}, 1"
                           for i in range(14))
        program = assemble(
            f"""
            addi t0, zero, 200
            loop_a:
                {body_a}
                addi t0, t0, -1
                bne t0, zero, loop_a
            addi s1, zero, 200
            loop_b:
                {body_b}
                addi s1, s1, -1
                bne s1, zero, loop_b
            """
        )
        controller = MesaController(config)
        result = controller.execute(
            program, lambda: MachineState(pc=program.base_address))
        assert not result.accelerated
        assert result.reason.count("mapping failed") == 2, (
            f"both regions' failures must be reported, got: {result.reason}")
        assert "; " in result.reason

    def test_unencodable_immediate_is_a_named_rejection(self):
        """An immediate the bitstream cannot hold rejects the region with
        a reason; the program still completes on the CPU."""
        program = assemble(
            """
            addi t0, zero, 300
            lui a0, 16
            loop:
                addi t1, t0, 40000
                sw t1, 0(a0)
                addi a0, a0, 4
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )

        def fresh():
            return MachineState(pc=program.base_address)

        controller = MesaController(M_128)
        result = controller.execute(program, fresh)
        assert result.accelerated is False
        assert result.reason.startswith("configuration failed:")
        assert "40000" in result.reason
        assert len(controller.config_cache) == 0
        reference = run(program, fresh(), max_steps=100_000)
        assert result.final_state.snapshot() == reference.snapshot()
        assert result.final_state.memory._bytes == reference.memory._bytes
