"""Tests for the accelerator's load/store entries."""

import pytest

from repro.accel import AcceleratorConfig, LoadStoreEntries


def lsu(entries=8, rows=16, cols=4) -> LoadStoreEntries:
    return LoadStoreEntries(AcceleratorConfig(rows=rows, cols=cols,
                                              lsu_entries=entries))


class TestAllocation:
    def test_program_order_allocation(self):
        entries = lsu()
        a = entries.allocate(node_id=3)
        b = entries.allocate(node_id=5)
        assert a == entries.entry_coord(0)
        assert b == entries.entry_coord(1)

    def test_capacity_overflow(self):
        entries = lsu(entries=2)
        entries.allocate(0)
        entries.allocate(1)
        assert entries.full
        with pytest.raises(OverflowError):
            entries.allocate(2)

    def test_duplicate_node_rejected(self):
        entries = lsu()
        entries.allocate(0)
        with pytest.raises(ValueError):
            entries.allocate(0)


class TestPlacement:
    def test_entries_on_edge_column(self):
        entries = lsu()
        for i in range(8):
            assert entries.entry_coord(i)[1] == -1

    def test_entries_spread_across_rows(self):
        entries = lsu(entries=8, rows=16)
        rows = {entries.entry_coord(i)[0] for i in range(8)}
        assert len(rows) > 1, "entries must not pile onto one row"

    def test_rows_within_grid(self):
        entries = lsu(entries=32, rows=16)
        for i in range(32):
            assert 0 <= entries.entry_coord(i)[0] < 16
