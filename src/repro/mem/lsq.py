"""Load-store queue: memory disambiguation and store→load forwarding.

Paper §4.2: "If the accelerator uses traditional load-store queues that
enforce ordering, memory disambiguation can be performed in much the same way
as out-of-order cores. ... a load can be invalidated if a prior store
instruction commits and matches its address."  This module implements that
machinery for the accelerator: the interpreter
(:class:`repro.accel.engine.DataflowEngine`) steps one queue per run, and
:func:`block_alias_hazard` is its block-level form for the batched drive.
The CPU core model does not use it; it reads only ``CpuConfig.lsq_size``.

The queue's rules:

* loads may issue out of order as soon as their address is known;
* a load that overlaps an older resolved store forwards the store's data;
* a load that issued speculatively past an older *unresolved* store is
  squashed (a *violation*) when the store's address later matches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["AccessKind", "LoadOutcome", "LsqEntry", "LsqStats",
           "LoadStoreQueue", "block_alias_hazard"]


def block_alias_hazard(load_streams, store_streams) -> int | None:
    """Block-level disambiguation for the batched engine: the first
    iteration of the block with a load that byte-overlaps an earlier store
    — one of the same iteration that precedes it in program order, or of
    any earlier iteration in the block — or None when there is none.

    This is the vectorized form of the ordering the queue enforces one
    access at a time.  Every iteration before the returned one reads only
    memory no store of the block has written, so the LSQ is provably inert
    for them (no forward, no violation, no stall), which is what lets
    :mod:`repro.accel.batch` gather a block of loads before any store
    commits.  Streams are ``(addresses, size, node_id, on_mask)`` tuples;
    ``on_mask`` marks the lanes a guarded access actually issues on (None
    = always issues), since a predicated-off access never enters the queue.
    """
    first = None
    for s_addr, s_size, s_id, s_on in store_streams:
        s_lo = int(s_addr.min())
        s_hi = int(s_addr.max()) + s_size
        for l_addr, l_size, l_id, l_on in load_streams:
            if s_hi <= int(l_addr.min()) or int(l_addr.max()) + l_size <= s_lo:
                continue
            overlap = ((s_addr[None, :] < l_addr[:, None] + l_size)
                       & (l_addr[:, None] < s_addr[None, :] + s_size))
            if s_on is not None:
                overlap &= s_on[None, :]
            if l_on is not None:
                overlap &= l_on[:, None]
            # Rows index the load's iteration, columns the store's.
            rows = (np.tril(overlap) if s_id < l_id
                    else np.tril(overlap, -1)).any(axis=1)
            if rows.any():
                row = int(rows.argmax())
                if first is None or row < first:
                    first = row
    return first


class AccessKind(enum.Enum):
    LOAD = "load"
    STORE = "store"


class LoadOutcome(enum.Enum):
    """What a load should do once its address is known."""

    #: Data comes straight from an older store in the queue (no memory access).
    FORWARDED = "forwarded"
    #: No older conflicting store: go to the memory hierarchy.
    MEMORY = "memory"
    #: An older store's address is still unknown; issuing now is a speculation.
    UNKNOWN_STORE = "unknown_store"


@dataclass
class LsqEntry:
    """One in-flight memory operation, in program order by ``seq``."""

    seq: int
    kind: AccessKind
    pc: int = 0
    address: int | None = None
    size: int = 4
    performed: bool = False  # load has obtained data / store has committed
    forwarded_from: int | None = None  # seq of the store a load forwarded from

    @property
    def resolved(self) -> bool:
        return self.address is not None

    def overlaps(self, other: "LsqEntry") -> bool:
        """True when both addresses are resolved and the byte ranges overlap."""
        if self.address is None or other.address is None:
            return False
        return (self.address < other.address + other.size
                and other.address < self.address + self.size)


@dataclass
class LsqStats:
    loads: int = 0
    stores: int = 0
    forwards: int = 0
    violations: int = 0
    stalls: int = 0


class LoadStoreQueue:
    """Program-ordered queue of in-flight memory operations."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: dict[int, LsqEntry] = {}
        self.stats = LsqStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, seq: int, kind: AccessKind, pc: int = 0, size: int = 4) -> LsqEntry:
        """Allocate an entry in program order (seq must be unique, increasing).

        Raises:
            OverflowError: if the queue is full (a structural hazard the
                caller must model as a stall).
        """
        if self.full:
            raise OverflowError("load-store queue full")
        if seq in self._entries:
            raise ValueError(f"duplicate sequence number {seq}")
        if self._entries and seq <= max(self._entries):
            raise ValueError(f"sequence number {seq} not in program order")
        entry = LsqEntry(seq=seq, kind=kind, pc=pc, size=size)
        self._entries[seq] = entry
        if kind is AccessKind.LOAD:
            self.stats.loads += 1
        else:
            self.stats.stores += 1
        return entry

    def _older_stores(self, seq: int) -> list[LsqEntry]:
        return [e for s, e in sorted(self._entries.items(), reverse=True)
                if s < seq and e.kind is AccessKind.STORE]

    def resolve_load(self, seq: int, address: int,
                     speculate: bool = True) -> tuple[LoadOutcome, LsqEntry | None]:
        """Provide a load's address; decide how it obtains data.

        Returns the outcome and, for :data:`LoadOutcome.FORWARDED`, the store
        entry supplying the data.  With ``speculate=False`` an unresolved
        older store forces :data:`LoadOutcome.UNKNOWN_STORE` (the caller
        stalls); with ``speculate=True`` the load is marked performed and a
        later conflicting store resolution will report a violation.
        """
        entry = self._require(seq, AccessKind.LOAD)
        entry.address = address
        for store in self._older_stores(seq):  # newest-first
            if store.resolved and store.overlaps(entry):
                entry.performed = True
                entry.forwarded_from = store.seq
                self.stats.forwards += 1
                return LoadOutcome.FORWARDED, store
            if not store.resolved:
                if speculate:
                    entry.performed = True
                    return LoadOutcome.UNKNOWN_STORE, None
                self.stats.stalls += 1
                return LoadOutcome.UNKNOWN_STORE, None
        entry.performed = True
        return LoadOutcome.MEMORY, None

    def resolve_store(self, seq: int, address: int) -> list[LsqEntry]:
        """Provide a store's address; returns younger loads to squash.

        A younger load that already performed against memory (or forwarded
        from an even older store) and overlaps this store was mis-speculated:
        the paper's invalidation "forces the new value to propagate through
        the remainder of the DFG as if the load had initially been completed".
        """
        entry = self._require(seq, AccessKind.STORE)
        entry.address = address
        victims = []
        for other_seq, other in sorted(self._entries.items()):
            if (other_seq > seq and other.kind is AccessKind.LOAD
                    and other.performed and other.overlaps(entry)
                    and (other.forwarded_from is None or other.forwarded_from < seq)):
                victims.append(other)
        self.stats.violations += len(victims)
        for victim in victims:
            victim.performed = False
            victim.forwarded_from = None
        return victims

    def commit(self, seq: int) -> LsqEntry:
        """Retire the oldest entry; it must be the given seq and resolved."""
        if not self._entries:
            raise ValueError("commit on empty queue")
        oldest = min(self._entries)
        if seq != oldest:
            raise ValueError(f"commit out of order: {seq} (oldest is {oldest})")
        entry = self._entries.pop(seq)
        if not entry.resolved:
            raise ValueError(f"committing unresolved entry {seq}")
        entry.performed = True
        return entry

    def _require(self, seq: int, kind: AccessKind) -> LsqEntry:
        entry = self._entries.get(seq)
        if entry is None:
            raise KeyError(f"no LSQ entry with seq {seq}")
        if entry.kind is not kind:
            raise ValueError(f"entry {seq} is a {entry.kind.value}, not a {kind.value}")
        return entry
