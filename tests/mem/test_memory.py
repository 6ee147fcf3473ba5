"""Tests for the functional memory storage."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.mem import Memory


class TestBasicStorage:
    def test_unwritten_reads_zero(self):
        assert Memory().load(0x1000, 4) == 0

    def test_store_load_round_trip(self):
        mem = Memory()
        mem.store(0x100, 4, 0xDEADBEEF)
        assert mem.load(0x100, 4) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = Memory()
        mem.store(0x10, 4, 0x11223344)
        assert mem.load(0x10, 1) == 0x44
        assert mem.load(0x13, 1) == 0x11

    def test_partial_overwrite(self):
        mem = Memory()
        mem.store(0x20, 4, 0xAABBCCDD)
        mem.store(0x21, 1, 0x00)
        assert mem.load(0x20, 4) == 0xAABB00DD

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Memory().load(-4, 4)
        with pytest.raises(ValueError):
            Memory().store(-4, 4, 0)

    def test_store_masks_to_size(self):
        mem = Memory()
        mem.store(0x30, 2, 0x12345678)
        assert mem.load(0x30, 2) == 0x5678
        assert mem.load(0x32, 2) == 0


class TestTypedHelpers:
    def test_signed_word(self):
        mem = Memory()
        mem.store_words(0x40, [-5])
        assert mem.load_word(0x40) == -5

    def test_float_round_trip(self):
        mem = Memory()
        mem.store_floats(0x50, [2.75])
        assert mem.load_float(0x50) == 2.75

    def test_float_single_precision(self):
        mem = Memory()
        mem.store_floats(0x60, [0.1])
        assert mem.load_float(0x60) != 0.1  # binary32 cannot represent 0.1
        assert math.isclose(mem.load_float(0x60), 0.1, rel_tol=1e-6)

    def test_array_helpers(self):
        mem = Memory()
        mem.store_floats(0x100, [1.0, 2.0, 3.0])
        mem.store_words(0x200, [10, -20, 30])
        assert [mem.load_float(0x100 + 4 * i) for i in range(3)] == [1.0, 2.0, 3.0]
        assert [mem.load_word(0x200 + 4 * i) for i in range(3)] == [10, -20, 30]

    def test_footprint_counts_written_bytes(self):
        mem = Memory()
        mem.store_words(0, [1])
        mem.store_words(100, [2])
        assert mem.footprint() == 8

    def test_copy_is_independent(self):
        mem = Memory()
        mem.store_words(0, [7])
        clone = mem.copy()
        clone.store_words(0, [9])
        assert mem.load_word(0) == 7
        assert clone.load_word(0) == 9


class TestProperties:
    @given(address=st.integers(0, 1 << 20),
           value=st.integers(0, (1 << 32) - 1))
    def test_word_round_trip(self, address, value):
        mem = Memory()
        mem.store(address, 4, value)
        assert mem.load(address, 4) == value

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     width=32), max_size=20))
    def test_float_array_round_trip(self, values):
        mem = Memory()
        mem.store_floats(0x1000, values)
        assert [mem.load_float(0x1000 + 4 * i)
                for i in range(len(values))] == values
