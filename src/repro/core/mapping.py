"""The data-driven instruction mapping algorithm (paper Algorithm 1, T2).

For each LDFG instruction in program order, the mapper:

1. gathers a candidate rectangle around the higher-latency predecessor
   (:mod:`repro.core.candidates`), filtered by ``F_free ⊙ F_op``;
2. evaluates the expected latency of every candidate position with the
   weighted DFG model — ``L_i = L_i.op + max(L_s1 + L_(s1,c), L_s2 +
   L_(s2,c))`` — using the interconnect's point-to-point latency function;
3. places the instruction at the latency-minimizing position, breaking ties
   toward positions with more free neighbours (room for future consumers).

Mapping is **single-pass without backtracking**; an instruction whose
candidate window is exhausted always falls back to any free compatible PE
reached over the secondary interconnect (the NoC), and a loop that cannot
place at all raises :class:`MappingError` — a structural hazard that
disqualifies the region (paper §4.1).

Memory instructions are assigned to load/store entries in program order
(they keep original ordering for disambiguation, Fig. 5) rather than to PEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel import (
    AcceleratorConfig,
    Coord,
    Interconnect,
    LoadStoreEntries,
    OperandKind,
    PEGrid,
    build_interconnect,
)
from ..accel.grid import Rect
from .candidates import CandidateStrategy, candidate_rect
from .ldfg import Ldfg, LdfgEntry
from .sdfg import Sdfg

__all__ = ["MappingError", "MappingOptions", "MappingStats", "InstructionMapper"]


class MappingError(RuntimeError):
    """A structural hazard: the loop cannot be placed on this backend."""


@dataclass(frozen=True)
class MappingOptions:
    """Candidate-matrix policy (the candidate ablation bench sweeps it)."""

    strategy: CandidateStrategy = CandidateStrategy.FIXED_WINDOW
    #: The fixed hardware window dimensions (4×8 in the paper).
    window: tuple[int, int] = (4, 8)

    def __post_init__(self) -> None:
        if self.window[0] < 1 or self.window[1] < 1:
            raise ValueError("window must be at least 1x1")


@dataclass
class MappingStats:
    """Instrumentation of one mapping pass."""

    memory_placed: int = 0
    fallbacks: int = 0
    candidates_evaluated: int = 0
    #: Candidate-matrix size per placed compute instruction, in placement
    #: order — the input of the imap FSM's reduction-stage timing (Fig. 8).
    per_instruction_candidates: list[int] = field(default_factory=list)


class InstructionMapper:
    """Implements Algorithm 1 over a PE grid and LSU entry pool."""

    def __init__(self, config: AcceleratorConfig,
                 interconnect: Interconnect | None = None,
                 options: MappingOptions | None = None) -> None:
        self.config = config
        self.interconnect = (interconnect if interconnect is not None
                             else build_interconnect(config))
        self.options = options if options is not None else MappingOptions()
        self.stats = MappingStats()

    def map(self, ldfg: Ldfg) -> Sdfg:
        """Place every non-eliminated LDFG entry; returns the SDFG.

        Raises:
            MappingError: when a PE or LSU entry cannot be found (structural
                hazard) — the caller must disqualify the loop.
        """
        self.stats = MappingStats()
        grid = PEGrid(self.config)
        lsu = LoadStoreEntries(self.config)
        positions: dict[int, Coord] = {}
        completion: dict[int, float] = {}
        fallback_nodes: set[int] = set()
        last_placed: Coord | None = None

        for entry in ldfg.entries:
            if entry.eliminated:
                # Forwarded loads occupy no hardware; their "completion" is
                # the store data's availability (handled at configure time).
                store = ldfg[entry.forwarded_from_store]
                completion[entry.node_id] = completion.get(store.node_id, 0.0)
                continue
            if entry.instruction.is_memory:
                coord = self._place_memory(entry, lsu)
                self.stats.memory_placed += 1
            else:
                coord, fell_back = self._place_compute(
                    entry, grid, positions, completion, last_placed)
                if fell_back:
                    fallback_nodes.add(entry.node_id)
                last_placed = coord
            positions[entry.node_id] = coord
            completion[entry.node_id] = self._expected_latency(
                entry, coord, positions, completion)

        return Sdfg(
            ldfg=ldfg,
            config=self.config,
            positions=positions,
            predicted_completion=completion,
            fallback_nodes=fallback_nodes,
        )

    # -- placement ------------------------------------------------------------

    def _place_memory(self, entry: LdfgEntry, lsu: LoadStoreEntries) -> Coord:
        try:
            return lsu.allocate(entry.node_id)
        except OverflowError as exc:
            raise MappingError(
                f"out of load/store entries at node {entry.node_id}"
            ) from exc

    def _place_compute(self, entry: LdfgEntry, grid: PEGrid,
                       positions: dict[int, Coord],
                       completion: dict[int, float],
                       last_placed: Coord | None) -> tuple[Coord, bool]:
        anchor, other = self._anchors(entry, positions, completion, last_placed)
        rect = candidate_rect(self.options.strategy, grid.shape, anchor,
                              other, window=self.options.window)
        coord, candidates = self._best_position(entry, rect, grid, positions,
                                                completion)
        self.stats.per_instruction_candidates.append(candidates)
        fell_back = coord is None
        if fell_back:
            # Secondary interconnect fallback: any free, compatible PE.
            rows, cols = grid.shape
            coord, _ = self._best_position(entry, (0, rows, 0, cols), grid,
                                           positions, completion)
        if coord is None:
            raise MappingError(
                f"no free PE supports {entry.op_class.value} for node "
                f"{entry.node_id} ({entry.instruction})"
            )
        self.stats.fallbacks += fell_back
        grid.occupy(coord, entry.node_id)
        return coord, fell_back

    def _anchors(self, entry: LdfgEntry, positions: dict[int, Coord],
                 completion: dict[int, float],
                 last_placed: Coord | None) -> tuple[Coord | None, Coord | None]:
        """Positions of the predecessors, higher-latency first."""
        placed: list[tuple[float, Coord]] = []
        for ref in (entry.s1, entry.s2):
            node_id = ref.node_id
            if node_id is None or node_id not in positions:
                continue
            if ref.kind is OperandKind.NODE:
                placed.append((completion.get(node_id, 0.0), positions[node_id]))
            elif ref.kind is OperandKind.LOOP_CARRIED:
                # Arrives at iteration start; still a locality hint.
                placed.append((0.0, positions[node_id]))
        placed.sort(key=lambda item: -item[0])
        anchor = placed[0][1] if placed else last_placed
        other = placed[1][1] if len(placed) > 1 else None
        return anchor, other

    def _best_position(self, entry: LdfgEntry, rect: Rect, grid: PEGrid,
                       positions: dict[int, Coord],
                       completion: dict[int, float],
                       ) -> tuple[Coord | None, int]:
        """arg min of l(C) over ``rect`` and the number of candidates in it.

        Evaluates every candidate of the rectangle at once: each placed
        source contributes ``completion + latency_matrix(src)`` and the
        element-wise max across sources is Eq. 1 at every candidate.  The
        paper's tie-break order — more free neighbours, then row-major
        position — is replicated with a stable lexicographic sort, so the
        chosen PE is exactly the one the per-candidate scan picked.
        """
        r0, r1, c0, c1 = rect
        cand_r, cand_c = np.nonzero(grid.available_mask(entry.op_class, rect))
        if cand_r.size == 0:
            return None, 0
        self.stats.candidates_evaluated += int(cand_r.size)
        arrival = np.zeros(cand_r.size, dtype=np.float64)
        for ref in (entry.s1, entry.s2):
            if ref.kind is OperandKind.NODE and ref.node_id in positions:
                transfer = self.interconnect.latency_matrix(
                    positions[ref.node_id])[r0:r1, c0:c1][cand_r, cand_c]
                np.maximum(arrival, completion.get(ref.node_id, 0.0) + transfer,
                           out=arrival)
        latency = entry.op_latency + arrival
        free = grid.free_neighbours[r0:r1, c0:c1][cand_r, cand_c]
        best = np.lexsort((cand_c, cand_r, -free, latency))[0]
        return (r0 + int(cand_r[best]), c0 + int(cand_c[best])), int(cand_r.size)

    def _expected_latency(self, entry: LdfgEntry, coord: Coord,
                          positions: dict[int, Coord],
                          completion: dict[int, float]) -> float:
        """Eq. 1 at a candidate position: op latency + latest input arrival."""
        arrival = 0.0
        for ref in (entry.s1, entry.s2):
            if ref.kind is OperandKind.NODE and ref.node_id in positions:
                transfer = self.interconnect.latency(
                    positions[ref.node_id], coord)
                arrival = max(arrival,
                              completion.get(ref.node_id, 0.0) + transfer)
        return entry.op_latency + arrival
