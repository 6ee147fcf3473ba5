"""McPAT-like CPU energy model.

The paper models baseline CPU power "with McPAT by modifying a similarly
configured ARM model" (§6.1).  This module reproduces the *structure* of
that model: every dynamically executed instruction pays front-end (fetch,
decode, rename), scheduling (issue queue wakeup/select), register file, and
commit energy on top of its functional-unit operation — the von Neumann
overheads the paper's Fig. 13 argument contrasts against the accelerator,
where "CPU instructions waste significant energy on control overheads".

Every per-event energy is a module constant (picojoules, McPAT-style at
~15nm); the functional-unit and cache energies are the accelerator model's
(:mod:`repro.power.model`).
"""

from __future__ import annotations

from ..cpu import PerfCounters
from ..mem import MemoryHierarchy
from .model import FP_OP_PJ, INT_OP_PJ, EnergyBreakdown, hierarchy_energy

__all__ = ["CpuEnergyModel"]

# Front-end: I-cache read + decode + rename, per instruction.
FETCH_DECODE_PJ = 45.0
RENAME_PJ = 12.0
# Scheduling: issue-queue wakeup/select + bypass, per instruction.
ISSUE_PJ = 18.0
# Register file read/write ports, per instruction.
REGFILE_PJ = 14.0
# Reorder buffer + commit, per instruction.
COMMIT_PJ = 10.0
#: The per-instruction von Neumann tax (everything but the op).
OVERHEAD_PJ = FETCH_DECODE_PJ + RENAME_PJ + ISSUE_PJ + REGFILE_PJ + COMMIT_PJ
BRANCH_PJ = 6.0
# LSQ search + TLB per memory op (cache energy counted via hierarchy).
LSQ_PJ = 16.0
# Branch misprediction: wasted wrong-path work.
MISPREDICT_PJ = 600.0
# Core static/clock power per cycle (leakage + clock tree).
STATIC_PJ_PER_CYCLE = 120.0


class CpuEnergyModel:
    """Energy of a CPU core run from its performance counters."""

    def energy(self, counters: PerfCounters, cycles: float,
               hierarchy: MemoryHierarchy | None = None,
               cores: int = 1) -> EnergyBreakdown:
        """Energy breakdown of one run.

        Args:
            counters: dynamic instruction counters.
            cycles: execution cycles (for static energy).
            hierarchy: memory hierarchy (cache/DRAM access counts).
            cores: active core count (static energy scales; dynamic energy
                already scales with instruction counts).
        """
        n = counters.instructions
        breakdown = EnergyBreakdown()
        # Control = the von Neumann overheads + branch handling.
        breakdown.control_pj = (
            n * OVERHEAD_PJ
            + counters.branches * BRANCH_PJ
            + counters.branch_mispredicts * MISPREDICT_PJ
        )
        int_ops = sum(count for cls, count in counters.by_class.items()
                      if cls.is_compute and not cls.is_fp)
        breakdown.compute_pj = (int_ops * INT_OP_PJ
                                + counters.fp_ops * FP_OP_PJ)
        breakdown.memory_pj = counters.memory_ops * LSQ_PJ
        if hierarchy is not None:
            breakdown.memory_pj += hierarchy_energy(hierarchy)
        breakdown.static_pj = cycles * STATIC_PJ_PER_CYCLE * cores
        return breakdown
