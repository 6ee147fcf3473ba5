"""Memory-access optimizations on the LDFG (paper §4.2).

Three rewrites, all driven by the rename information the LDFG already holds:

* **store→load forwarding** — "extraneous store-load pairs to the same
  addresses can be detected as they have the same address register and
  offset.  Such pairs become a direct forwarding path (an edge in the DFG),
  thereby eliminating redundant accesses."  The load is eliminated: its
  consumers read the store's data producer directly and it occupies no LSU
  entry;
* **vectorization** — "load accesses sharing the same (unchanged) base
  address register with different offsets can be vectorized": such loads are
  grouped to share one memory-port grant;
* **prefetching** — "loads whose base address registers depend only on
  induction registers can be speculatively prefetched an iteration ahead",
  hiding their miss latency after the first iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import ACCESS_FORMATS, OpClass
from .ldfg import Ldfg, LdfgEntry, SourceKind

__all__ = ["MemoptReport", "apply_memory_optimizations",
           "forward_store_loads", "vectorize_loads", "mark_prefetchable"]


@dataclass
class MemoptReport:
    """What the optimization pass changed."""

    forwarded_loads: int = 0
    vector_groups: int = 0
    vectorized_loads: int = 0
    prefetched_loads: int = 0


def _same_address(a: LdfgEntry, b: LdfgEntry) -> bool:
    """Same base-register source (post-rename) and same offset and width."""
    return (a.s1 == b.s1
            and a.instruction.imm == b.instruction.imm
            and (ACCESS_FORMATS[a.instruction.opcode][0]
                 == ACCESS_FORMATS[b.instruction.opcode][0]))


def forward_store_loads(ldfg: Ldfg) -> int:
    """Eliminate loads covered by an earlier store to the same address.

    Conservative conditions: the store's *data* must be a same-iteration
    node (so consumers can be rewired without cross-iteration bookkeeping),
    no other store may intervene (it could alias), and neither instruction
    may be predicated (the pair might not execute together).
    Returns the number of loads eliminated.
    """
    eliminated = 0
    for index, load in enumerate(ldfg.entries):
        if not load.instruction.is_load or load.eliminated:
            continue
        if load.guard_branch is not None:
            continue
        # Walk backwards to the nearest store; it alone decides the outcome
        # (any nearer store could alias, so we never look past it).
        for prior in reversed(ldfg.entries[:index]):
            if not prior.instruction.is_store:
                continue
            if (prior.guard_branch is None
                    and _same_address(prior, load)
                    and prior.s2.kind is SourceKind.NODE):
                load.forwarded_from_store = prior.node_id
                eliminated += 1
            break
    return eliminated


def vectorize_loads(ldfg: Ldfg) -> tuple[int, int]:
    """Group loads that share an unchanged base register.

    Returns ``(groups, loads_in_groups)``.  Only loads whose base is
    loop-invariant (``LIVE_IN``) or arrives loop-carried from the same
    producer qualify — the base must be "the same (unchanged) base address
    register" within the iteration.
    """
    groups: dict[tuple, list[LdfgEntry]] = {}
    for entry in ldfg.entries:
        if not entry.instruction.is_load or entry.eliminated:
            continue
        base = entry.s1
        if base.kind in (SourceKind.LIVE_IN, SourceKind.LOOP_CARRIED):
            key = (base.kind, base.node_id, base.register)
            groups.setdefault(key, []).append(entry)
    group_count = 0
    vectorized = 0
    for members in groups.values():
        offsets = {m.instruction.imm for m in members}
        if len(members) >= 2 and len(offsets) == len(members):
            for member in members:
                member.vector_group = group_count
            group_count += 1
            vectorized += len(members)
    return group_count, vectorized


def _is_induction(entry: LdfgEntry) -> bool:
    """An induction update: an integer op whose only source is its own
    previous-iteration value (e.g. ``addi a0, a0, 4``)."""
    return (entry.op_class is OpClass.INT_ALU
            and entry.s1.kind is SourceKind.LOOP_CARRIED
            and entry.s1.node_id == entry.node_id
            and entry.s2.kind is SourceKind.NONE)


def mark_prefetchable(ldfg: Ldfg) -> int:
    """Mark loads whose address depends only on induction registers.

    Their next-iteration address is computable one iteration ahead, so the
    access can be issued early and its latency hidden (after iteration 0).
    Returns the number of loads marked.
    """
    induction_nodes = {e.node_id for e in ldfg.entries if _is_induction(e)}
    marked = 0
    for entry in ldfg.entries:
        if not entry.instruction.is_load or entry.eliminated:
            continue
        base = entry.s1
        depends_on_induction = (
            (base.kind in (SourceKind.LOOP_CARRIED, SourceKind.NODE)
             and base.node_id in induction_nodes)
        )
        if depends_on_induction or base.kind is SourceKind.LIVE_IN:
            entry.prefetched = True
            marked += 1
    return marked


def apply_memory_optimizations(ldfg: Ldfg,
                               forwarding: bool = True,
                               vectorization: bool = True,
                               prefetching: bool = True) -> MemoptReport:
    """Run the enabled §4.2 optimizations in order; returns a report."""
    report = MemoptReport()
    if forwarding:
        report.forwarded_loads = forward_store_loads(ldfg)
    if vectorization:
        report.vector_groups, report.vectorized_loads = vectorize_loads(ldfg)
    if prefetching:
        report.prefetched_loads = mark_prefetchable(ldfg)
    return report
