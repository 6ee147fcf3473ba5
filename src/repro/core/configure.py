"""Accelerator configuration (T3: Spatial DFG → Configuration).

Turns a mapped :class:`~repro.core.sdfg.Sdfg` into the
:class:`~repro.accel.program.AcceleratorProgram` the fabric executes, models
the *time* configuration takes (the imap FSM of Fig. 8 plus the ConfigBlock's
sequential bitstream writes), and caches configurations per code region —
"a configuration cache is stored on MESA for loops that have already been
mapped in case they are re-encountered in the near future" (§4.3).

A cache entry maps a :class:`RegionKey` ``(config, start, end, digest)`` to
``(program, bitstream, cost)``.  This module alone turns entries into
JSON-serializable region records (:data:`REGION_RECORD_FIELDS`) and records
back into entries (:meth:`ConfigCache.export_regions` /
:meth:`ConfigCache.restore_regions`); the service's checkpoints and worker
seeding only carry the records, and name one by :meth:`RegionKey.of`.

The cycle model places MESA's configuration latency in the paper's reported
10^3–10^4-cycle range for 64–512-instruction regions (Table 2's "JIT
(ns–µs)" row at 2 GHz).  MESA's configuration path is fixed hardware, so
each stage cost is one module constant, and the imap time comes only from
stepping the Fig. 8 state machine over the mapper's candidate counts.
"""

from __future__ import annotations

import threading
from dataclasses import astuple, dataclass
from typing import NamedTuple

from ..accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    BitstreamError,
    ConfiguredNode,
    Guard,
    Operand,
    OperandKind,
    decode_bitstream,
)
from .imap_fsm import ImapFsm
from .mapping import MappingStats
from .sdfg import Sdfg

__all__ = ["ConfigurationCost", "ConfigCache", "CacheStats",
           "CachedConfiguration", "RegionKey", "REGION_RECORD_FIELDS",
           "build_program", "configuration_cost",
           "RENAME_CYCLES", "MEMORY_IMAP_CYCLES", "WRITE_CYCLES_PER_WORD",
           "STALL_FILL_CYCLES"]


#: Rename + LDFG insert per instruction (frontend, §5).
RENAME_CYCLES = 1
#: imap cycles per memory instruction: program-order LSU allocation
#: replaces the candidate generation and reduction, leaving the FSM's four
#: other one-cycle states.
MEMORY_IMAP_CYCLES = 4
#: ConfigBlock: one configuration word written per cycle.
WRITE_CYCLES_PER_WORD = 1
#: Stall-fetching a missing instruction from the I-cache (§4.1).
STALL_FILL_CYCLES = 8


@dataclass(frozen=True)
class ConfigurationCost:
    """Cycle breakdown of one configuration pass."""

    ldfg_build_cycles: int
    mapping_cycles: int
    write_cycles: int
    stall_fill_cycles: int = 0

    @property
    def total(self) -> int:
        return (self.ldfg_build_cycles + self.mapping_cycles
                + self.write_cycles + self.stall_fill_cycles)

    def microseconds(self, frequency_ghz: float) -> float:
        return self.total / (frequency_ghz * 1000.0)

    def warm(self) -> "ConfigurationCost":
        """The amortized re-encounter cost (Table 2's cached path).

        A configuration-cache hit skips the LDFG build and imap entirely;
        only the ConfigBlock's sequential bitstream load is paid again.
        """
        return ConfigurationCost(
            ldfg_build_cycles=0,
            mapping_cycles=0,
            write_cycles=self.write_cycles,
            stall_fill_cycles=0,
        )


def configuration_cost(sdfg: Sdfg, bitstream_words: int,
                       mapper_stats: MappingStats,
                       stall_fills: int = 0) -> ConfigurationCost:
    """Cycles to build the LDFG, run imap, and write the configuration.

    The imap time comes from stepping the Fig. 8 state machine
    (:class:`~repro.core.imap_fsm.ImapFsm`) over the mapper's
    per-instruction candidate counts.
    """
    mapping_cycles = (
        ImapFsm().simulate(mapper_stats.per_instruction_candidates)
        .total_cycles
        + mapper_stats.memory_placed * MEMORY_IMAP_CYCLES)
    return ConfigurationCost(
        ldfg_build_cycles=len(sdfg.ldfg) * RENAME_CYCLES,
        mapping_cycles=mapping_cycles,
        write_cycles=bitstream_words * WRITE_CYCLES_PER_WORD,
        stall_fill_cycles=stall_fills * STALL_FILL_CYCLES,
    )


def build_program(sdfg: Sdfg) -> AcceleratorProgram:
    """Lower a mapped SDFG to the fabric's program representation.

    Eliminated (store-forwarded) loads are compiled out: node ids are
    renumbered densely and every reference to an eliminated load is rewired
    to the forwarding store's data producer — the "direct forwarding path"
    of §4.2.
    """
    ldfg = sdfg.ldfg
    new_id: dict[int, int] = {}
    for entry in ldfg.entries:
        if not entry.eliminated:
            new_id[entry.node_id] = len(new_id)

    def redirect(node_id: int) -> int:
        """Follow a forwarded load to the store's same-iteration data node."""
        entry = ldfg[node_id]
        if entry.eliminated:
            store = ldfg[entry.forwarded_from_store]
            data = store.s2
            assert data.kind is OperandKind.NODE, \
                "memopt only forwards stores with same-iteration data"
            return redirect(data.node_id)
        return node_id

    def to_operand(ref: Operand | None) -> Operand:
        """Renumber a node reference into the program's dense ids."""
        if ref is None:
            return Operand.none()
        if ref.node_id is None:
            return ref
        return Operand(ref.kind, new_id[redirect(ref.node_id)], ref.register)

    nodes: list[ConfiguredNode] = []
    for entry in ldfg.entries:
        if entry.eliminated:
            continue
        guard = None
        if entry.guard_branch is not None:
            guard = Guard(
                branch_node_id=new_id[redirect(entry.guard_branch)],
                fallback=to_operand(entry.prev_writer),
            )
        nodes.append(ConfiguredNode(
            node_id=new_id[entry.node_id],
            instruction=entry.instruction,
            coord=sdfg.positions[entry.node_id],
            src1=to_operand(entry.s1),
            src2=to_operand(entry.s2),
            guard=guard,
            is_memory=entry.instruction.is_memory,
            vector_group=entry.vector_group,
            prefetched=entry.prefetched,
        ))

    loop_branch_id = (new_id[ldfg.loop_branch_id]
                      if ldfg.loop_branch_id is not None else None)
    live_out = {reg: new_id[redirect(node)]
                for reg, node in ldfg.rename_table.items()}
    return AcceleratorProgram(
        config=sdfg.config,
        nodes=nodes,
        loop_branch_id=loop_branch_id,
        live_out=live_out,
        live_in=set(ldfg.live_in),
    )


@dataclass(frozen=True)
class CacheStats:
    """Configuration-cache activity of one execute (its own lookups and
    puts, ``MesaResult.cache_stats``), or a sum of such tallies."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            insertions=self.insertions - other.insertions,
        )

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            insertions=self.insertions + other.insertions,
        )


class RegionKey(NamedTuple):
    """A configured region's identity, and its cache entry's key; the
    content ``digest`` is :func:`~repro.core.controller.region_digest`."""

    config: str
    start: int
    end: int
    digest: str

    @classmethod
    def of(cls, record: dict) -> "RegionKey":
        """The key a region record was exported under."""
        return cls(record["config"], record["start"], record["end"],
                   record["digest"])


#: Fields of a region record: its key, then the four
#: :class:`ConfigurationCost` components and the bitstream words.
REGION_RECORD_FIELDS = (*RegionKey._fields, "cost", "bitstream")


class CachedConfiguration(NamedTuple):
    """One configuration-cache entry: everything needed to skip T1–T3."""

    program: AcceleratorProgram
    bitstream: list[int]
    cost: ConfigurationCost


class ConfigCache:
    """Per-region configuration cache (re-encountered loops skip T1–T3).

    Entries are keyed by :class:`RegionKey`: backend name, region start
    and end, and the content digest of the region's instruction words, so
    two binaries whose loops collide at the same virtual addresses occupy
    two distinct entries, never a wrong configuration.

    An entry is exactly what a region record holds — the accelerator
    program, its bitstream words and its configuration cost — so a hit
    serves the same warm path whether the entry was configured here or
    restored from a record (:meth:`export_regions` /
    :meth:`restore_regions`, the one record codec).

    ``policy`` is the eviction victim order: ``"fifo"`` (insertion order,
    the hardware-simple default) or ``"lru"`` (a hit refreshes the entry,
    so a popularity-skewed request mix keeps its hot regions resident —
    the service deployment's choice).

    The cache keeps no counters (each execute tallies its own
    :class:`CacheStats`).  Every path takes a lock: a timed-out in-process
    service task can still be running when the next request executes.
    """

    POLICIES = ("fifo", "lru")

    def __init__(self, capacity: int = 8, policy: str = "fifo") -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}; "
                             f"expected one of {self.POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self._entries: dict[RegionKey, CachedConfiguration] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: RegionKey) -> CachedConfiguration | None:
        """The entry held for ``key``, or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self.policy == "lru":
                # A hit refreshes the entry: eviction takes the dict's
                # first (least-recently-touched) key.
                self._entries[key] = self._entries.pop(key)
            return entry

    def put(self, key: RegionKey, entry: CachedConfiguration) -> bool:
        """Cache a configuration; returns whether it forced an eviction.

        Overwriting the key already present never evicts an unrelated
        entry: membership is checked *before* the capacity test, so an
        at-capacity cache updates in place.
        """
        with self._lock:
            replaced = key in self._entries
            evicted = not replaced and len(self._entries) >= self.capacity
            if evicted:
                # The victim is the dict's first key: insertion order under
                # FIFO (keeps the hardware simple), least-recently-touched
                # under LRU (lookup hits refresh entries).
                del self._entries[next(iter(self._entries))]
            elif replaced and self.policy == "lru":
                del self._entries[key]  # refresh: re-fill counts as a touch
            self._entries[key] = entry
        return evicted

    def export_regions(self, keys=None) -> list[dict]:
        """Portable snapshot of the resident configurations.

        Each record is plain JSON-serializable data with the
        :data:`REGION_RECORD_FIELDS` — the key's fields, the four
        :class:`ConfigurationCost` components, and the bitstream words —
        and :meth:`restore_regions` turns it back into the same entry.
        Export order is the cache's current victim order (oldest first),
        so a restore into a smaller cache keeps the hottest entries.

        Args:
            keys: if given, a collection of :class:`RegionKey`; only the
                entries they name are exported.
        """
        with self._lock:
            return [{**key._asdict(), "cost": list(astuple(entry.cost)),
                     "bitstream": list(entry.bitstream)}
                    for key, entry in self._entries.items()
                    if keys is None or key in keys]

    def restore_regions(self, records, config: AcceleratorConfig) -> int:
        """Re-seed the cache from exported records for backend ``config``.

        Records for other backends, for keys already held, or that fail to
        decode (corrupt bitstream, missing fields, no digest) are skipped
        silently — a partial restore is strictly better than none.  Returns
        the number of regions restored.
        """
        restored = 0
        for record in records:
            try:
                if record["config"] != config.name:
                    continue
                key = RegionKey(config.name, int(record["start"]),
                                int(record["end"]), record["digest"])
                if not isinstance(key.digest, str):
                    continue
                with self._lock:
                    if key in self._entries:
                        continue
                bitstream = [int(word) for word in record["bitstream"]]
                entry = CachedConfiguration(
                    program=decode_bitstream(bitstream, config),
                    bitstream=bitstream,
                    cost=ConfigurationCost(
                        *(int(cycles) for cycles in record["cost"])))
            except (BitstreamError, KeyError, TypeError, ValueError,
                    IndexError):
                continue
            self.put(key, entry)
            restored += 1
        return restored
