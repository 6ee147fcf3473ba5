"""Tests for LDFG construction and the rename table (paper §3.2)."""

import pytest

from repro.accel import OperandKind
from repro.core import LdfgError, build_ldfg
from repro.core.ldfg import INITIAL_AMAT
from repro.isa import assemble, f, x


def body_of(text: str):
    return list(assemble(text).instructions)


class TestRenaming:
    def test_simple_dependency_chain(self):
        """The paper's Fig. 3 example: i1 writes r0, i2 reads r0 -> edge."""
        ldfg = build_ldfg(body_of(
            """
            addi t0, zero, 1
            addi t1, t0, 2
            """
        ))
        assert ldfg[1].s1.kind is OperandKind.NODE
        assert ldfg[1].s1.node_id == 0

    def test_rename_to_last_writer(self):
        ldfg = build_ldfg(body_of(
            """
            addi t0, zero, 1
            addi t0, zero, 2
            add  t1, t0, t0
            """
        ))
        assert ldfg[2].s1.node_id == 1, "must see the *last* writer"
        assert ldfg[2].s2.node_id == 1

    def test_live_in_register(self):
        ldfg = build_ldfg(body_of("addi t0, a0, 1"))
        assert ldfg[0].s1.kind is OperandKind.REGISTER
        assert ldfg[0].s1.register == x(10)
        assert x(10) in ldfg.live_in

    def test_loop_carried_source(self):
        """A register read before it is written in the body arrives from
        the previous iteration (e.g. the induction update)."""
        ldfg = build_ldfg(body_of(
            """
            loop:
                lw t1, 0(a0)
                addi a0, a0, 4
                bne t1, zero, loop
            """
        ))
        load = ldfg[0]
        assert load.s1.kind is OperandKind.LOOP_CARRIED
        assert load.s1.node_id == 1, "the body's final writer of a0"
        assert load.s1.register == x(10)
        assert x(10) in ldfg.live_in, "needed for iteration 0"

    def test_self_loop_induction(self):
        ldfg = build_ldfg(body_of("loop:\naddi a0, a0, 4\nbne a0, zero, loop"))
        assert ldfg[0].s1.kind is OperandKind.LOOP_CARRIED
        assert ldfg[0].s1.node_id == 0

    def test_zero_register_is_no_source(self):
        ldfg = build_ldfg(body_of("addi t0, zero, 5"))
        assert ldfg[0].s1.kind is OperandKind.NONE

    def test_rename_table_holds_live_outs(self):
        ldfg = build_ldfg(body_of(
            """
            addi t0, zero, 1
            addi t1, zero, 2
            addi t0, zero, 3
            """
        ))
        assert ldfg.rename_table[x(5)] == 2
        assert ldfg.rename_table[x(6)] == 1

    def test_store_has_two_sources(self):
        ldfg = build_ldfg(body_of(
            """
            addi t0, zero, 7
            sw t0, 0(a0)
            """
        ))
        store = ldfg[1]
        assert store.s1.kind is OperandKind.REGISTER, "base address"
        assert store.s2.kind is OperandKind.NODE, "data from node 0"

    def test_prev_writer_recorded_for_predication(self):
        ldfg = build_ldfg(body_of(
            """
            addi t0, zero, 1
            addi t0, t0, 2
            """
        ))
        assert ldfg[1].prev_writer is not None
        assert ldfg[1].prev_writer.node_id == 0

    def test_fp_registers_renamed_independently(self):
        ldfg = build_ldfg(body_of(
            """
            fadd.s ft0, fa0, fa1
            fmul.s ft1, ft0, fa0
            """
        ))
        assert ldfg[1].s1.node_id == 0
        assert ldfg[1].s2.kind is OperandKind.REGISTER
        assert f(10) in ldfg.live_in


class TestStructure:
    def test_loop_branch_identified(self):
        ldfg = build_ldfg(body_of("loop:\nnop\nbne t0, zero, loop"))
        assert ldfg.loop_branch_id == 1

    def test_straight_line_has_no_loop_branch(self):
        ldfg = build_ldfg(body_of("addi t0, zero, 1"))
        assert ldfg.loop_branch_id is None

    def test_forward_branch_guards_span(self):
        ldfg = build_ldfg(body_of(
            """
            loop:
                beq t0, zero, skip
                addi t1, t1, 1
                addi t2, t2, 1
            skip:
                addi t0, t0, -1
                bne t0, zero, loop
            """
        ))
        assert ldfg[1].guard_branch == 0
        assert ldfg[2].guard_branch == 0
        assert ldfg[3].guard_branch is None

    def test_op_latencies_assigned(self):
        ldfg = build_ldfg(body_of(
            """
            fmul.s ft0, fa0, fa1
            lw t0, 0(a0)
            """
        ))
        assert ldfg[0].op_latency == 5.0
        assert ldfg[1].op_latency == INITIAL_AMAT, \
            "memory starts at the AMAT estimate"

    def test_dataflow_graph_export(self):
        ldfg = build_ldfg(body_of(
            """
            addi t0, zero, 1
            addi t1, t0, 1
            addi t2, t1, 1
            """
        ))
        graph = ldfg.to_dataflow_graph()
        assert len(graph) == 3
        assert graph.total_latency() == 3.0

    def test_memory_and_compute_partitions(self):
        ldfg = build_ldfg(body_of(
            """
            lw t0, 0(a0)
            addi t0, t0, 1
            sw t0, 0(a0)
            """
        ))
        memory = [e for e in ldfg if e.instruction.is_memory]
        assert len(memory) == 2
        assert len(ldfg) - len(memory) == 1


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(LdfgError):
            build_ldfg([])

    def test_system_instruction_rejected(self):
        with pytest.raises(LdfgError, match="system"):
            build_ldfg(body_of("ecall"))

    def test_jump_rejected(self):
        with pytest.raises(LdfgError, match="jump"):
            build_ldfg(body_of("target:\nj target\nnop"))

    def test_inner_backward_branch_rejected(self):
        with pytest.raises(LdfgError, match="inner"):
            build_ldfg(body_of(
                """
                outer:
                    inner:
                    bne t0, zero, inner
                    bne t1, zero, outer
                """
            ))
