"""Tests for memory disambiguation and store-load forwarding."""

import pytest

from repro.mem import AccessKind, LoadOutcome, LoadStoreQueue


class TestAllocation:
    def test_push_in_program_order(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        with pytest.raises(ValueError):
            lsq.push(0, AccessKind.LOAD)  # not increasing

    def test_capacity_limit(self):
        lsq = LoadStoreQueue(capacity=2)
        lsq.push(0, AccessKind.LOAD)
        lsq.push(1, AccessKind.LOAD)
        assert lsq.full
        with pytest.raises(OverflowError):
            lsq.push(2, AccessKind.LOAD)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LoadStoreQueue(capacity=0)


class TestForwarding:
    def test_load_forwards_from_older_resolved_store(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        lsq.resolve_store(0, 0x100)
        outcome, store = lsq.resolve_load(1, 0x100)
        assert outcome is LoadOutcome.FORWARDED
        assert store.seq == 0
        assert lsq.stats.forwards == 1

    def test_load_forwards_from_newest_matching_store(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.STORE)
        lsq.push(2, AccessKind.LOAD)
        lsq.resolve_store(0, 0x100)
        lsq.resolve_store(1, 0x100)
        outcome, store = lsq.resolve_load(2, 0x100)
        assert outcome is LoadOutcome.FORWARDED
        assert store.seq == 1, "must forward from the newest older store"

    def test_partial_overlap_forwards(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE, size=4)
        lsq.push(1, AccessKind.LOAD, size=1)
        lsq.resolve_store(0, 0x100)
        outcome, _ = lsq.resolve_load(1, 0x102)
        assert outcome is LoadOutcome.FORWARDED

    def test_disjoint_addresses_go_to_memory(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        lsq.resolve_store(0, 0x100)
        outcome, _ = lsq.resolve_load(1, 0x200)
        assert outcome is LoadOutcome.MEMORY

    def test_load_before_any_store(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.LOAD)
        outcome, _ = lsq.resolve_load(0, 0x100)
        assert outcome is LoadOutcome.MEMORY


class TestSpeculationAndViolations:
    def test_unresolved_older_store_reports_unknown(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        outcome, _ = lsq.resolve_load(1, 0x100, speculate=True)
        assert outcome is LoadOutcome.UNKNOWN_STORE

    def test_conservative_mode_counts_stall(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        lsq.resolve_load(1, 0x100, speculate=False)
        assert lsq.stats.stalls == 1

    def test_violation_on_matching_late_store(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        lsq.resolve_load(1, 0x100, speculate=True)   # speculative
        victims = lsq.resolve_store(0, 0x100)        # same address: squash
        assert [v.seq for v in victims] == [1]
        assert lsq.stats.violations == 1
        assert not victims[0].performed

    def test_no_violation_on_disjoint_late_store(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        lsq.resolve_load(1, 0x200, speculate=True)
        assert lsq.resolve_store(0, 0x100) == []

    def test_no_violation_when_load_forwarded_from_newer_store(self):
        """A load that forwarded from a store *between* it and the resolver
        already has the right value and must not be squashed."""
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)  # resolves late
        lsq.push(1, AccessKind.STORE)  # resolves early, same address
        lsq.push(2, AccessKind.LOAD)
        lsq.resolve_store(1, 0x100)
        outcome, store = lsq.resolve_load(2, 0x100)
        assert store.seq == 1
        assert lsq.resolve_store(0, 0x100) == [], "load got data from store 1"

    def test_older_load_not_squashed(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.LOAD)
        lsq.push(1, AccessKind.STORE)
        lsq.resolve_load(0, 0x100)
        assert lsq.resolve_store(1, 0x100) == []


class TestCommit:
    def test_commit_in_order(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        lsq.resolve_store(0, 0x100)
        lsq.resolve_load(1, 0x200)
        entry = lsq.commit(0)
        assert entry.kind is AccessKind.STORE
        lsq.commit(1)
        assert len(lsq) == 0

    def test_commit_out_of_order_rejected(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        lsq.push(1, AccessKind.LOAD)
        lsq.resolve_load(1, 0x100)
        with pytest.raises(ValueError):
            lsq.commit(1)

    def test_commit_unresolved_rejected(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.STORE)
        with pytest.raises(ValueError):
            lsq.commit(0)

    def test_commit_empty_rejected(self):
        with pytest.raises(ValueError):
            LoadStoreQueue().commit(0)

    def test_wrong_kind_rejected(self):
        lsq = LoadStoreQueue()
        lsq.push(0, AccessKind.LOAD)
        with pytest.raises(ValueError):
            lsq.resolve_store(0, 0x100)
        with pytest.raises(KeyError):
            lsq.resolve_load(5, 0x100)
