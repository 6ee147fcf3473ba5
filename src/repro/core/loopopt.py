"""Loop-level optimizations: spatial tiling and pipelining (paper §4.3).

"If a loop is known to be parallelizable without inter-iteration
dependencies, then we can apply more advanced loop-level optimizations.  As
MESA does not speculate at the thread level, this scenario only applies to
pre-annotated programs with OpenMP (``omp parallel`` / ``omp simd``). ...
we can fully duplicate instances of the same (virtual) SDFG when configuring
the spatial accelerator" (Fig. 6), and "loop pipelining can also be enabled
if supported by the hardware".

The modeled fabric supports pipelining, so every run pipelines (the
engine's one timing formula).  The planner computes the largest tile factor
that fits the PE array and the load/store entry pool, and returns the
:class:`~repro.accel.engine.ExecutionOptions` the engine consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import AcceleratorProgram, ExecutionOptions

__all__ = ["LoopPlan", "plan_loop_optimizations"]

#: Upper bound on duplicated SDFG instances.
MAX_TILE = 64


@dataclass(frozen=True)
class LoopPlan:
    """The chosen loop-level execution strategy."""

    tile_factor: int
    reason: str

    def to_execution_options(self, **overrides) -> ExecutionOptions:
        return ExecutionOptions(tile_factor=self.tile_factor, **overrides)


def _floor_power_of_two(value: int) -> int:
    power = 1
    while power * 2 <= value:
        power *= 2
    return power


def plan_loop_optimizations(mapped: AcceleratorProgram,
                            parallelizable: bool,
                            expected_iterations: float | None = None,
                            enable_tiling: bool = True) -> LoopPlan:
    """Decide the tile factor of a mapped loop.

    Args:
        mapped: the mapped loop's accelerator program (it supplies the
            PE/LSU occupancy and the backend).
        parallelizable: the loop carries an ``omp parallel``/``omp simd``
            annotation (no inter-iteration dependencies beyond induction).
        expected_iterations: trip-count estimate; tiling beyond the trip
            count wastes PEs.
        enable_tiling: ablation switch.
    """
    # Pipelining is the fabric's natural dataflow overlap: successive
    # iterations launch as soon as their loop-carried inputs arrive, which
    # is always dependence-safe.  Only *tiling* (duplicating the SDFG over
    # disjoint iterations) requires the explicit parallel annotation.
    if not parallelizable:
        return LoopPlan(1, "loop not annotated parallel; no tiling")
    if not enable_tiling:
        return LoopPlan(1, "tiling disabled")

    pe_nodes = max(1, mapped.pe_count)
    lsu_nodes = mapped.lsu_count
    by_pes = mapped.config.num_pes // pe_nodes
    by_lsu = (mapped.config.lsu_entries // lsu_nodes if lsu_nodes
              else MAX_TILE)
    limit = max(1, min(by_pes, by_lsu, MAX_TILE))
    if expected_iterations is not None:
        limit = max(1, min(limit, int(expected_iterations) or 1))
    tile = _floor_power_of_two(limit)
    reason = (f"tile x{tile} (PE capacity {by_pes}, LSU capacity {by_lsu})"
              if tile > 1 else "no room to tile")
    return LoopPlan(tile, reason)
