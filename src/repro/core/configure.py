"""Accelerator configuration (T3: Spatial DFG → Configuration).

Turns a mapped :class:`~repro.core.sdfg.Sdfg` into the
:class:`~repro.accel.program.AcceleratorProgram` the fabric executes, models
the *time* configuration takes (the imap FSM of Fig. 8 plus the ConfigBlock's
sequential bitstream writes), and caches configurations per code region —
"a configuration cache is stored on MESA for loops that have already been
mapped in case they are re-encountered in the near future" (§4.3).

The cycle model places MESA's configuration latency in the paper's reported
10^3–10^4-cycle range for 64–512-instruction regions (Table 2's "JIT
(ns–µs)" row at 2 GHz).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

from ..accel import (
    AcceleratorProgram,
    ConfiguredNode,
    Guard,
    Operand,
    encode_bitstream,
)
from .ldfg import SourceKind, SourceRef
from .mapping import MappingStats
from .sdfg import Sdfg

__all__ = ["ConfigTimingModel", "ConfigurationCost", "ConfigCache",
           "CacheStats", "CachedConfiguration", "InsertOutcome",
           "build_program", "configuration_cost"]


@dataclass(frozen=True)
class ConfigTimingModel:
    """Per-stage cycle costs of MESA's hardware pipeline."""

    #: Rename + LDFG insert per instruction (frontend, §5).
    rename_cycles: int = 1
    #: Fixed imap FSM states per instruction (candidate generation, filter,
    #: latency computation, writeback — Fig. 8).
    imap_fixed_stages: int = 4
    #: The reduction stage "depends on the dimensions of the candidate
    #: matrix": a log-depth comparator tree over the window cells.
    def reduction_cycles(self, window_cells: int) -> int:
        return max(1, math.ceil(math.log2(max(2, window_cells))))

    #: ConfigBlock: one configuration word written per cycle.
    write_cycles_per_word: int = 1
    #: Stall-fetching a missing instruction from the I-cache (§4.1).
    stall_fill_cycles: int = 8


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
                       mapper_stats: MappingStats | None = None,
                       stall_fills: int = 0,
                       timing: ConfigTimingModel | None = None,
                       window_cells: int = 32) -> ConfigurationCost:
    """Cycles to build the LDFG, run imap, and write the configuration.

    When mapper statistics carry per-instruction candidate counts, the imap
    time comes from stepping the Fig. 8 state machine exactly
    (:class:`~repro.core.imap_fsm.ImapFsm`); otherwise the analytic
    fixed-stages + log-depth-reduction estimate is used.
    """
    from .imap_fsm import ImapFsm

    timing = timing if timing is not None else ConfigTimingModel()
    instructions = len(sdfg.ldfg)
    if (mapper_stats is not None
            and mapper_stats.per_instruction_candidates):
        mapping_cycles = ImapFsm().simulate(
            mapper_stats.per_instruction_candidates).total_cycles
        # Memory instructions skip the candidate search (program-order LSU
        # allocation) but still pass through the constant FSM states.
        mapping_cycles += (mapper_stats.memory_placed
                           * timing.imap_fixed_stages)
    else:
        per_instruction = (timing.imap_fixed_stages
                           + timing.reduction_cycles(window_cells))
        mapped = (mapper_stats.placed if mapper_stats is not None
                  else instructions)
        mapping_cycles = mapped * per_instruction
    return ConfigurationCost(
        ldfg_build_cycles=instructions * timing.rename_cycles,
        mapping_cycles=mapping_cycles,
        write_cycles=bitstream_words * timing.write_cycles_per_word,
        stall_fill_cycles=stall_fills * timing.stall_fill_cycles,
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
            assert data.kind is SourceKind.NODE, \
                "memopt only forwards stores with same-iteration data"
            return redirect(data.node_id)
        return node_id

    def to_operand(ref: SourceRef | None) -> Operand:
        if ref is None or ref.kind is SourceKind.NONE:
            return Operand.none()
        if ref.kind is SourceKind.LIVE_IN:
            return Operand.from_register(ref.register)
        target = redirect(ref.node_id)
        if ref.kind is SourceKind.NODE:
            return Operand.node(new_id[target])
        return Operand.loop_carried(new_id[target], ref.register)

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
    """Snapshot of the configuration cache's observability counters."""

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


class CachedConfiguration(NamedTuple):
    """A configuration-cache hit: everything needed to skip T1–T3."""

    program: AcceleratorProgram
    bitstream: list[int]
    cost: ConfigurationCost
    sdfg: Sdfg | None
    memopt_report: object | None


class InsertOutcome(NamedTuple):
    """What :meth:`ConfigCache.put` did to make room for an entry."""

    bitstream: list[int]
    evicted: bool
    replaced: bool


@dataclass
class _CacheEntry:
    program: AcceleratorProgram
    bitstream: list[int]
    cost: ConfigurationCost
    sdfg: Sdfg | None = None
    memopt_report: object | None = None
    digest: str | None = None


class ConfigCache:
    """Per-region configuration cache (re-encountered loops skip T1–T3).

    Entries are keyed by (region start, region end, backend name) and
    optionally tagged with a content *digest* of the region's instruction
    words: a chip-wide cache sees many address spaces, so two different
    binaries can place different loops at the same virtual addresses.  A
    lookup that presents a digest only hits when the tag matches — an
    address collision is a (conflict) miss, never a wrong configuration.

    Two deployment knobs generalize the hardware model for the service
    layer (:mod:`repro.service`):

    * ``policy`` — the eviction victim order: ``"fifo"`` (insertion order,
      the hardware-simple default) or ``"lru"`` (a hit refreshes the
      entry, so a popularity-skewed request mix keeps its hot regions
      resident).
    * ``tag_indexed`` — index entries by the content digest *as well as*
      the addresses.  Two binaries whose loops collide at the same
      virtual addresses then occupy distinct entries instead of
      conflict-thrashing one slot; a hardware cache would pay wider tags
      for this, a software-managed one gets it for free.

    The cache is shared by every core on the chip, so all mutating paths
    take an internal lock; counters (hits/misses/evictions/insertions) are
    monotonic and can be snapshot via :meth:`stats`.
    """

    POLICIES = ("fifo", "lru")

    def __init__(self, capacity: int = 8, policy: str = "fifo",
                 tag_indexed: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}; "
                             f"expected one of {self.POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.tag_indexed = tag_indexed
        self._entries: dict[tuple, _CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    def _key(self, start: int, end: int, config_name: str,
             digest: str | None = None) -> tuple:
        if self.tag_indexed:
            return (start, end, config_name, digest)
        return (start, end, config_name)

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> CacheStats:
        """Consistent snapshot of the observability counters."""
        with self._lock:
            return CacheStats(hits=self.hits, misses=self.misses,
                              evictions=self.evictions,
                              insertions=self.insertions)

    def lookup(self, start: int, end: int, config_name: str,
               digest: str | None = None) -> CachedConfiguration | None:
        """Probe the cache; counts a hit or a miss.

        Args:
            digest: content tag of the region being looked up.  ``None``
                matches any entry at the key (address-only probe); a
                mismatched digest is a conflict miss.
        """
        with self._lock:
            key = self._key(start, end, config_name, digest)
            entry = self._entries.get(key)
            if entry is None or (digest is not None
                                 and entry.digest is not None
                                 and entry.digest != digest):
                self.misses += 1
                return None
            self.hits += 1
            if self.policy == "lru":
                # A hit refreshes the entry: eviction takes the dict's
                # first (least-recently-touched) key.
                self._entries[key] = self._entries.pop(key)
            return CachedConfiguration(
                program=entry.program, bitstream=entry.bitstream,
                cost=entry.cost, sdfg=entry.sdfg,
                memopt_report=entry.memopt_report)

    def put(self, start: int, end: int, config_name: str,
            program: AcceleratorProgram, cost: ConfigurationCost,
            sdfg: Sdfg | None = None, memopt_report: object | None = None,
            digest: str | None = None) -> InsertOutcome:
        """Cache a configuration, reporting any eviction it forced.

        Overwriting the key already present never evicts an unrelated
        entry: membership is checked *before* the capacity test, so an
        at-capacity cache updates in place.
        """
        bitstream = encode_bitstream(program)
        key = self._key(start, end, config_name, digest)
        with self._lock:
            replaced = key in self._entries
            evicted = False
            if not replaced and len(self._entries) >= self.capacity:
                # The victim is the dict's first key: insertion order under
                # FIFO (keeps the hardware simple), least-recently-touched
                # under LRU (lookup hits refresh entries).
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1
                evicted = True
            if replaced and self.policy == "lru":
                del self._entries[key]  # refresh: re-fill counts as a touch
            self._entries[key] = _CacheEntry(
                program=program, bitstream=bitstream, cost=cost,
                sdfg=sdfg, memopt_report=memopt_report, digest=digest)
            self.insertions += 1
        return InsertOutcome(bitstream=bitstream, evicted=evicted,
                             replaced=replaced)

    def holds(self, start: int, end: int, config_name: str,
              digest: str | None = None) -> bool:
        """Whether :meth:`lookup` would hit, without counting or touching."""
        with self._lock:
            entry = self._entries.get(
                self._key(start, end, config_name, digest))
            return entry is not None and (digest is None
                                          or entry.digest is None
                                          or entry.digest == digest)

    def export_regions(self, keys=None) -> list[dict]:
        """Portable snapshot of the resident configurations.

        Each record is plain JSON-serializable data — addresses, content
        digest, the four :class:`ConfigurationCost` components, and the
        encoded bitstream words.  The bitstream codec is exact
        (``decode_bitstream(encode_bitstream(p))`` reconstructs the
        program), so a record round-trips through disk and back into a
        cache entry via :meth:`MesaController.restore_cache_regions
        <repro.core.controller.MesaController.restore_cache_regions>`.
        Export order is the cache's current victim order (oldest first),
        so a restore into a smaller cache keeps the hottest entries.

        Args:
            keys: if given, a collection of ``(start, end, digest)``
                triples; only the entries they name are exported.
        """
        with self._lock:
            records = []
            for key, entry in self._entries.items():
                if keys is not None and (key[0], key[1],
                                         entry.digest) not in keys:
                    continue
                records.append({
                    "config": key[2],
                    "start": key[0],
                    "end": key[1],
                    "digest": entry.digest,
                    "cost": [entry.cost.ldfg_build_cycles,
                             entry.cost.mapping_cycles,
                             entry.cost.write_cycles,
                             entry.cost.stall_fill_cycles],
                    "bitstream": list(entry.bitstream),
                })
            return records
