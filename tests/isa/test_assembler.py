"""Tests for the RISC-V text assembler."""

import pytest

from repro.isa import AssemblyError, OpClass, Opcode, assemble, f, x


class TestBasicAssembly:
    def test_r_type(self):
        prog = assemble("add a0, a1, a2")
        (instr,) = prog.instructions
        assert instr.opcode is Opcode.ADD
        assert instr.rd == x(10)
        assert instr.rs1 == x(11)
        assert instr.rs2 == x(12)

    def test_i_type_with_negative_imm(self):
        prog = assemble("addi t0, t0, -1")
        assert prog[0].imm == -1

    def test_hex_immediate(self):
        prog = assemble("addi a0, zero, 0xff")
        assert prog[0].imm == 255

    def test_load_operand_form(self):
        prog = assemble("lw a0, 8(sp)")
        instr = prog[0]
        assert instr.opcode is Opcode.LW
        assert instr.rd == x(10)
        assert instr.rs1 == x(2)
        assert instr.imm == 8

    def test_store_operand_order(self):
        """Stores take the data register first: sw rs2, imm(rs1)."""
        prog = assemble("sw t1, -4(a0)")
        instr = prog[0]
        assert instr.rs2 == x(6), "data register"
        assert instr.rs1 == x(10), "base register"
        assert instr.imm == -4

    def test_fp_load_store(self):
        prog = assemble("flw fa0, 0(a0)\nfsw fa0, 4(a1)")
        assert prog[0].rd == f(10)
        assert prog[1].rs2 == f(10)
        assert prog[1].rs1 == x(11)

    def test_fp_arith(self):
        prog = assemble("fmul.s fa2, fa0, fa1")
        instr = prog[0]
        assert instr.opcode is Opcode.FMUL_S
        assert instr.op_class is OpClass.FP_MUL
        assert instr.sources == (f(10), f(11))

    def test_fsqrt_single_source(self):
        prog = assemble("fsqrt.s fa0, fa1")
        assert prog[0].sources == (f(11),)

    def test_addresses_advance_by_four(self):
        prog = assemble("nop\nnop\nnop", base_address=0x2000)
        assert [i.address for i in prog] == [0x2000, 0x2004, 0x2008]
        assert prog.end_address == 0x200C


class TestLabelsAndBranches:
    def test_backward_branch_offset(self):
        prog = assemble(
            """
            loop:
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        branch = prog[1]
        assert branch.imm == -4
        assert branch.address + branch.imm == prog[0].address

    def test_forward_branch_offset(self):
        prog = assemble(
            """
                beq a0, a1, skip
                addi a2, a2, 1
            skip:
                nop
            """
        )
        assert prog[0].imm == 8
        assert prog[0].address + prog[0].imm == prog[2].address

    def test_label_at_end(self):
        prog = assemble("jal zero, end\nend:")
        # A trailing label with no following instruction points past the end.
        assert prog.labels["end"] == prog.end_address

    def test_numeric_branch_target(self):
        prog = assemble("bne t0, zero, -8")
        assert prog[0].imm == -8

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("a:\nnop\na:\nnop")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("beq a0, a1, nowhere")

    def test_at_lookup(self):
        prog = assemble("nop\nadd a0, a0, a1")
        assert prog.at(prog.base_address + 4).opcode is Opcode.ADD
        with pytest.raises(KeyError):
            prog.at(prog.base_address + 2)
        with pytest.raises(KeyError):
            prog.at(prog.end_address)


class TestPseudoInstructions:
    def test_mv(self):
        prog = assemble("mv a0, a1")
        assert prog[0].opcode is Opcode.ADDI
        assert prog[0].imm == 0

    def test_li_small(self):
        prog = assemble("li t0, 100")
        instr = prog[0]
        assert instr.opcode is Opcode.ADDI
        assert instr.rs1 == x(0)
        assert instr.imm == 100

    def test_li_large_expands_to_lui_addi(self):
        prog = assemble("li t0, 100000")
        assert len(prog) == 2
        assert prog[0].opcode is Opcode.LUI
        assert prog[1].opcode is Opcode.ADDI
        from repro.isa import run

        state = run(prog)
        assert state.read(x(5)) == 100000

    def test_li_negative_large(self):
        from repro.isa import run

        state = run(assemble("li t0, -100000"))
        assert state.read(x(5)) == -100000

    def test_li_exact_page_boundary(self):
        from repro.isa import run

        state = run(assemble("li t0, 0x10000"))
        assert state.read(x(5)) == 0x10000
        assert len(assemble("li t0, 0x10000")) == 1, "low bits zero: lui only"

    def test_li_beyond_32_bits_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("li t0, 0x100000000")

    def test_la_alias(self):
        from repro.isa import run

        state = run(assemble("la a0, 0x30000"))
        assert state.read(x(10)) == 0x30000

    def test_multi_instruction_pseudo_keeps_labels_aligned(self):
        prog = assemble(
            """
            li t0, 100000
            loop:
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        assert prog.labels["loop"] == prog.base_address + 8
        assert prog[3].imm == -4

    def test_j(self):
        prog = assemble("start:\nj start")
        instr = prog[0]
        assert instr.opcode is Opcode.JAL
        assert instr.rd == x(0)
        assert instr.imm == 0

    def test_ret(self):
        prog = assemble("ret")
        assert prog[0].opcode is Opcode.JALR
        assert prog[0].rs1 == x(1)

    def test_bnez(self):
        prog = assemble("top:\nbnez t0, top")
        assert prog[0].opcode is Opcode.BNE
        assert prog[0].rs2 == x(0)

    def test_fmv_s(self):
        prog = assemble("fmv.s fa0, fa1")
        instr = prog[0]
        assert instr.opcode is Opcode.FSGNJ_S
        assert instr.rs1 == instr.rs2 == f(11)


class TestCommentsAndErrors:
    @pytest.mark.parametrize("comment", ["# c", "// c", "; c"])
    def test_comment_styles(self, comment):
        prog = assemble(f"nop {comment}\n{comment}\nnop")
        assert len(prog) == 2

    def test_blank_lines_ignored(self):
        assert len(assemble("\n\nnop\n\n")) == 1

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble("frobnicate a0, a1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblyError):
            assemble("add a0, a1")

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblyError):
            assemble("lw a0, a1")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblyError, match="line 3"):
            assemble("nop\nnop\nbogus x, y")

    def test_listing_contains_labels_and_addresses(self):
        prog = assemble("loop:\naddi t0, t0, -1\nbne t0, zero, loop")
        listing = prog.listing()
        assert "loop:" in listing
        assert "addi" in listing
        assert "0x1000" in listing
