"""Tests for the out-of-order core timing model."""

import pytest

from repro.cpu import CpuConfig, OutOfOrderCore, collect_trace
from repro.isa import OpClass, assemble
from repro.latency import OP_LATENCY
from repro.mem import MemoryHierarchy


def run_core(text: str, config: CpuConfig | None = None):
    trace = collect_trace(assemble(text))
    core = OutOfOrderCore(config)
    return core.run(trace), trace


class TestBasicTiming:
    def test_empty_program(self):
        trace = collect_trace(assemble(""))
        result = OutOfOrderCore().run(trace)
        assert result.cycles == 0

    def test_independent_instructions_exploit_width(self):
        parallel, _ = run_core(
            "\n".join(f"addi t{i}, zero, {i}" for i in range(4))
        )
        serial, _ = run_core(
            """
            addi t0, zero, 1
            addi t0, t0, 1
            addi t0, t0, 1
            addi t0, t0, 1
            """
        )
        assert parallel.cycles < serial.cycles

    def test_dependency_chain_latency_dominates(self):
        """A chain of N dependent FP multiplies takes at least N*latency."""
        n = 8
        text = "\n".join(["fadd.s ft0, ft0, ft1"] + ["fmul.s ft0, ft0, ft0"] * n)
        result, _ = run_core(text)
        assert result.cycles >= n * OP_LATENCY[OpClass.FP_MUL]

    def test_issue_width_limits_throughput(self):
        wide, _ = run_core("\n".join(f"addi t{i % 7}, zero, 1" for i in range(64)),
                           CpuConfig(issue_width=4, int_alu_units=4))
        narrow, _ = run_core("\n".join(f"addi t{i % 7}, zero, 1" for i in range(64)),
                             CpuConfig(issue_width=1, int_alu_units=4))
        assert narrow.cycles > wide.cycles

    def test_fu_pool_contention(self):
        # 16 independent FP multiplies on 1 vs 4 FP units.
        text = "\n".join(f"fmul.s ft{i % 8}, fa0, fa1" for i in range(16))
        few, _ = run_core(text, CpuConfig(fp_units=1))
        many, _ = run_core(text, CpuConfig(fp_units=4))
        assert few.cycles > many.cycles

    def test_unpipelined_divide(self):
        text = "\n".join("div t0, a0, a1" for _ in range(4))
        result, _ = run_core(text, CpuConfig(int_mul_units=1))
        # 4 divides on one unpipelined unit: at least 4 * 12 cycles.
        assert result.cycles >= 4 * OP_LATENCY[OpClass.INT_DIV]

    def test_ipc_reported(self):
        result, trace = run_core("\n".join("addi t0, t0, 1" for _ in range(10)))
        assert result.ipc == pytest.approx(len(trace) / result.cycles)
        assert result.counters.instructions == 10


class TestMemoryBehaviour:
    def test_cold_miss_slower_than_warm(self):
        text = """
        addi a0, zero, 0x100
        lw t0, 0(a0)
        lw t1, 0(a0)
        """
        trace = collect_trace(assemble(text))
        hierarchy = MemoryHierarchy()
        result = OutOfOrderCore(hierarchy=hierarchy).run(trace)
        assert hierarchy.l1.stats.misses == 1
        assert hierarchy.l1.stats.hits == 1

    def test_store_load_forwarding_counted(self):
        result, _ = run_core(
            """
            addi a0, zero, 0x100
            addi t0, zero, 7
            sw t0, 0(a0)
            lw t1, 0(a0)
            """
        )
        assert result.counters.load_forwards == 1

    def test_forwarded_load_faster_than_missing_load(self):
        forwarded, _ = run_core(
            "addi a0, zero, 0x100\naddi t0, zero, 7\nsw t0, 0(a0)\nlw t1, 0(a0)"
        )
        cold, _ = run_core(
            "addi a0, zero, 0x100\naddi t0, zero, 7\nlw t1, 0(a0)"
        )
        assert forwarded.cycles < cold.cycles

    def test_amat_recorded_per_pc(self):
        text = """
        addi a0, zero, 0x100
        loop_head:
        lw t0, 0(a0)
        addi a0, a0, 64
        addi t1, t1, 1
        slti t2, t1, 20
        bne t2, zero, loop_head
        """
        trace = collect_trace(assemble(text))
        hierarchy = MemoryHierarchy()
        OutOfOrderCore(hierarchy=hierarchy).run(trace)
        load_pc = 0x1004
        assert hierarchy.amat(load_pc) > hierarchy.ideal_latency


class TestBranchPrediction:
    def test_loop_branch_mispredicts_once_on_exit(self):
        result, _ = run_core(
            """
            addi t0, zero, 50
            loop:
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        assert result.counters.branch_mispredicts == 1

    def test_taken_forward_branch_mispredicts(self):
        result, _ = run_core(
            """
            beq zero, zero, skip
            addi t0, zero, 1
            skip:
                nop
            """
        )
        assert result.counters.branch_mispredicts == 1

    def test_mispredict_penalty_costs_cycles(self):
        # The taken forward branch mispredicts and delays the fetch of
        # everything after it.
        base = """
        beq zero, zero, skip
        nop
        skip:
        addi t0, zero, 1
        addi t1, zero, 2
        addi t2, zero, 3
        """
        cheap, _ = run_core(base, CpuConfig(mispredict_penalty=0))
        costly, _ = run_core(base, CpuConfig(mispredict_penalty=40))
        assert costly.cycles > cheap.cycles


class TestStructuralLimits:
    def test_rob_pressure_slows_execution(self):
        # A long stream with one very slow head: a tiny ROB stalls dispatch.
        text = "addi a0, zero, 0x100\nlw t0, 0(a0)\n" + "\n".join(
            f"addi t{1 + (i % 5)}, zero, {i}" for i in range(120)
        )
        small, _ = run_core(text, CpuConfig(rob_size=8))
        large, _ = run_core(text, CpuConfig(rob_size=192))
        assert small.cycles >= large.cycles

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CpuConfig(issue_width=0)
        with pytest.raises(ValueError):
            CpuConfig(mispredict_penalty=-1)

    def test_counters_classify_mix(self):
        result, _ = run_core(
            """
            addi a0, zero, 0x100
            lw t0, 0(a0)
            sw t0, 4(a0)
            fadd.s ft0, ft0, ft1
            beq zero, zero, out
            out:
            nop
            """
        )
        c = result.counters
        assert c.loads == 1
        assert c.stores == 1
        assert c.fp_ops == 1
        assert c.branches == 1
        assert c.memory_ops == 2
