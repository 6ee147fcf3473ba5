"""Tests for the per-access store→load ordering rule (store-load forwarding)."""

from repro.mem.lsq import forwarding_store


class TestForwarding:
    def test_load_forwards_from_older_resolved_store(self):
        store = (0x100, 4, 7.0)
        assert forwarding_store([store], 0x100, 4) is store

    def test_load_forwards_from_newest_matching_store(self):
        older, newer = (0x100, 4, 3.0), (0x100, 4, 5.0)
        assert forwarding_store([older, newer], 0x100, 4) is newer, (
            "must forward from the newest older store")

    def test_partial_overlap_forwards(self):
        store = (0x100, 4, 1.0)
        assert forwarding_store([store], 0x102, 1) is store
        # A word load straddling the store's last byte overlaps it too.
        assert forwarding_store([store], 0x103, 4) is store

    def test_disjoint_addresses_go_to_memory(self):
        assert forwarding_store([(0x100, 4, 1.0)], 0x200, 4) is None
        # Adjacent byte ranges do not overlap.
        assert forwarding_store([(0x100, 4, 1.0)], 0x104, 4) is None
        assert forwarding_store([(0x104, 2, 1.0)], 0x100, 4) is None

    def test_load_before_any_store(self):
        assert forwarding_store([], 0x100, 4) is None

    def test_newest_overlapping_store_wins_over_newer_disjoint_one(self):
        overlapping, disjoint = (0x100, 4, 1.0), (0x200, 4, 2.0)
        assert forwarding_store([overlapping, disjoint], 0x100, 4) \
            is overlapping
