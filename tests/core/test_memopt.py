"""Tests for the memory optimizations (paper §4.2)."""

import pytest

from repro.core import (
    apply_memory_optimizations,
    build_ldfg,
    forward_store_loads,
    mark_prefetchable,
    vectorize_loads,
)
from repro.isa import assemble


def ldfg_of(text: str):
    return build_ldfg(list(assemble(text).instructions))


class TestStoreLoadForwarding:
    def test_matching_pair_forwarded(self):
        ldfg = ldfg_of(
            """
            addi t0, zero, 7
            sw t0, 0(a0)
            lw t1, 0(a0)
            """
        )
        assert forward_store_loads(ldfg) == 1
        assert ldfg[2].forwarded_from_store == 1
        assert ldfg[2].eliminated

    @pytest.mark.parametrize("store, load, xlen, forwarded", [
        ("sw", "lw", 32, 1), ("sd", "ld", 64, 1),
        ("fsw", "flw", 32, 1), ("fsw", "flw", 64, 1),
        ("sw", "lw", 64, 0), ("sw", "lwu", 64, 0),
        ("sb", "lbu", 32, 0), ("sb", "lb", 32, 0), ("sh", "lh", 32, 0),
        ("fsw", "lw", 32, 0), ("sw", "flw", 32, 0),
    ])
    def test_only_exact_pairs_forwarded(self, store, load, xlen, forwarded):
        """Forwarding hands consumers the stored register unconverted, so
        only pairs whose load reproduces it exactly at ``xlen`` qualify."""
        data = "ft0" if store.startswith("f") else "t0"
        produce = ("fcvt.s.w ft0, t2" if data == "ft0"
                   else "addi t0, zero, 7")
        dest = "ft1" if load.startswith("f") else "t1"
        text = f"{produce}\n{store} {data}, 0(a0)\n{load} {dest}, 0(a0)"
        assert forward_store_loads(ldfg_of(text), xlen) == forwarded
        report = apply_memory_optimizations(ldfg_of(text), xlen=xlen)
        assert report.forwarded_loads == forwarded

    def test_different_offset_not_forwarded(self):
        ldfg = ldfg_of(
            """
            addi t0, zero, 7
            sw t0, 0(a0)
            lw t1, 4(a0)
            """
        )
        assert forward_store_loads(ldfg) == 0

    def test_different_base_not_forwarded(self):
        ldfg = ldfg_of(
            """
            addi t0, zero, 7
            sw t0, 0(a0)
            lw t1, 0(a1)
            """
        )
        assert forward_store_loads(ldfg) == 0

    def test_rebased_register_not_forwarded(self):
        """The base register is *renamed* between store and load, so the
        addresses differ even though the register name matches."""
        ldfg = ldfg_of(
            """
            addi t0, zero, 7
            sw t0, 0(a0)
            addi a0, a0, 4
            lw t1, 0(a0)
            """
        )
        assert forward_store_loads(ldfg) == 0

    def test_intervening_store_blocks(self):
        """A nearer store to an unknown address may alias: no forwarding."""
        ldfg = ldfg_of(
            """
            addi t0, zero, 7
            sw t0, 0(a0)
            sw t0, 0(a1)
            lw t1, 0(a0)
            """
        )
        assert forward_store_loads(ldfg) == 0

    def test_guarded_pair_not_forwarded(self):
        ldfg = ldfg_of(
            """
            loop:
                beq t2, zero, skip
                addi t0, zero, 7
                sw t0, 0(a0)
            skip:
                lw t1, 0(a0)
                addi t2, t2, -1
                bne t2, zero, loop
            """
        )
        assert forward_store_loads(ldfg) == 0

    def test_memory_entries_shrink(self):
        ldfg = ldfg_of("addi t0, zero, 1\nsw t0, 0(a0)\nlw t1, 0(a0)")
        def live_memory():
            return [e for e in ldfg.entries
                    if e.instruction.is_memory and not e.eliminated]

        before = len(live_memory())
        forward_store_loads(ldfg)
        assert len(live_memory()) == before - 1


class TestVectorization:
    def test_same_base_different_offsets_grouped(self):
        ldfg = ldfg_of(
            """
            lw t0, 0(a0)
            lw t1, 4(a0)
            lw t2, 8(a0)
            """
        )
        groups, members = vectorize_loads(ldfg)
        assert groups == 1
        assert members == 3
        assert ldfg[0].vector_group == ldfg[1].vector_group == ldfg[2].vector_group

    def test_single_load_not_grouped(self):
        ldfg = ldfg_of("lw t0, 0(a0)")
        assert vectorize_loads(ldfg) == (0, 0)
        assert ldfg[0].vector_group is None

    def test_same_offset_not_grouped(self):
        """Two loads of the same word are redundancy, not a vector."""
        ldfg = ldfg_of("lw t0, 0(a0)\nlw t1, 0(a0)")
        assert vectorize_loads(ldfg) == (0, 0)

    def test_distinct_bases_distinct_groups(self):
        ldfg = ldfg_of(
            """
            lw t0, 0(a0)
            lw t1, 4(a0)
            lw t2, 0(a1)
            lw t3, 4(a1)
            """
        )
        groups, members = vectorize_loads(ldfg)
        assert groups == 2
        assert members == 4
        assert ldfg[0].vector_group != ldfg[2].vector_group

    def test_rebased_loads_not_grouped(self):
        ldfg = ldfg_of(
            """
            lw t0, 0(a0)
            addi a0, a0, 4
            lw t1, 0(a0)
            """
        )
        # Base renamed between loads: second base is a NODE source.
        groups, _ = vectorize_loads(ldfg)
        assert groups == 0


class TestPrefetching:
    def test_induction_based_load_marked(self):
        ldfg = ldfg_of(
            """
            loop:
                lw t1, 0(a0)
                addi a0, a0, 4
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        assert mark_prefetchable(ldfg) == 1
        assert ldfg[0].prefetched

    def test_loop_invariant_base_marked(self):
        ldfg = ldfg_of("lw t0, 0(a0)")
        assert mark_prefetchable(ldfg) == 1

    def test_data_dependent_address_not_marked(self):
        """A pointer-chasing load cannot be prefetched an iteration ahead."""
        ldfg = ldfg_of(
            """
            loop:
                lw a0, 0(a0)
                addi t0, t0, -1
                bne t0, zero, loop
            """
        )
        assert mark_prefetchable(ldfg) == 0


class TestCombinedPass:
    def test_report(self):
        ldfg = ldfg_of(
            """
            loop:
                addi t0, t0, 1
                sw t0, 0(a0)
                lw t1, 0(a0)
                lw t2, 0(a1)
                lw t3, 4(a1)
                addi a0, a0, 4
                addi t4, t4, -1
                bne t4, zero, loop
            """
        )
        report = apply_memory_optimizations(ldfg)
        assert report.forwarded_loads == 1
        assert report.vector_groups == 1
        assert report.vectorized_loads == 2
        assert report.prefetched_loads >= 2
