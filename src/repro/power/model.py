"""Activity-based energy model for the accelerator + MESA.

Paper §6.1: "we track the activity of PEs in the spatial backend at every
cycle ... A disabled FPU or integer ALU is assumed to be clock-gated and we
do not consider its dynamic power.  We accumulate the total energy consumed
based on the fraction of dynamically active components at every cycle."

Per-event energies are derived from Table 1's power numbers at the 2 GHz
design point: e.g. the PE array's 4.08 W across 128 PEs gives ~16 pJ/cycle
per fully active PE, split between cheaper integer and costlier FP
operations.  Memory energy uses standard per-access costs for L1/L2/DRAM
(CACTI-class numbers for the 15/22nm range), which makes Fig. 13's headline
— ~87% of energy in memory + compute — an output of the model rather than an
assumption.

Every per-event energy is a module constant (picojoules).  The functional-unit
and cache energies are the same numbers in the CPU model
(:mod:`repro.power.cpu_power`), which reads them from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import AcceleratorConfig, ActivityCounters
from ..mem import MemoryHierarchy

__all__ = ["EnergyBreakdown", "AcceleratorEnergyModel", "hierarchy_energy"]

# -- shared with the CPU model ------------------------------------------------
INT_OP_PJ = 8.0
FP_OP_PJ = 24.0
L1_ACCESS_PJ = 20.0
L2_ACCESS_PJ = 120.0
DRAM_ACCESS_PJ = 2000.0

# -- the fabric and MESA -------------------------------------------------------
FORWARD_PJ = 1.0          # predicated-off value forward
LOCAL_HOP_PJ = 1.2
NOC_HOP_PJ = 4.0
LSU_ACCESS_PJ = 12.0
LSQ_FORWARD_PJ = 4.0
CONTROL_EVENT_PJ = 3.0
CONFIG_WORD_PJ = 10.0
#: Idle (clock-gated) leakage per PE per cycle.  Clock gating removes
#: dynamic power but 15nm leakage remains a meaningful fraction of the
#: array's nameplate power.
PE_IDLE_PJ_PER_CYCLE = 1.2
#: MESA controller energy per active configuration cycle, from Table 1's
#: 0.36 W at 2 GHz = 180 pJ/cycle.
MESA_PJ_PER_CYCLE = 180.0


def hierarchy_energy(hierarchy: MemoryHierarchy) -> float:
    """Energy of every L1, L2 and DRAM access a hierarchy counted."""
    return (hierarchy.l1.stats.accesses * L1_ACCESS_PJ
            + hierarchy.l2.stats.accesses * L2_ACCESS_PJ
            + hierarchy.dram_accesses * DRAM_ACCESS_PJ)


@dataclass
class EnergyBreakdown:
    """Energy by subsystem (picojoules)."""

    compute_pj: float = 0.0
    memory_pj: float = 0.0
    network_pj: float = 0.0
    control_pj: float = 0.0
    static_pj: float = 0.0
    config_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return (self.compute_pj + self.memory_pj + self.network_pj
                + self.control_pj + self.static_pj + self.config_pj)

    def merged(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            compute_pj=self.compute_pj + other.compute_pj,
            memory_pj=self.memory_pj + other.memory_pj,
            network_pj=self.network_pj + other.network_pj,
            control_pj=self.control_pj + other.control_pj,
            static_pj=self.static_pj + other.static_pj,
            config_pj=self.config_pj + other.config_pj,
        )


class AcceleratorEnergyModel:
    """Turns activity counters into an energy breakdown."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config

    def energy(self, activity: ActivityCounters, cycles: float,
               hierarchy: MemoryHierarchy | None = None,
               config_cycles: float = 0.0,
               bitstream_words: int = 0) -> EnergyBreakdown:
        """Energy of one accelerated region execution.

        Args:
            activity: the engine's activity counters.
            cycles: total accelerator-active cycles (for idle leakage).
            hierarchy: the memory hierarchy used (for cache/DRAM accesses).
            config_cycles: MESA controller active cycles (translation +
                mapping + configuration).
            bitstream_words: configuration words written to the fabric.
        """
        breakdown = EnergyBreakdown()
        breakdown.compute_pj = (activity.int_ops * INT_OP_PJ
                                + activity.fp_ops * FP_OP_PJ
                                + activity.forwards * FORWARD_PJ)
        breakdown.memory_pj = (activity.memory_accesses * LSU_ACCESS_PJ
                               + activity.lsq_forwards * LSQ_FORWARD_PJ)
        if hierarchy is not None:
            breakdown.memory_pj += hierarchy_energy(hierarchy)
        breakdown.network_pj = (activity.local_hops * LOCAL_HOP_PJ
                                + activity.noc_hops * NOC_HOP_PJ)
        breakdown.control_pj = activity.control_events * CONTROL_EVENT_PJ
        idle_pe_cycles = max(
            0.0, cycles * self.config.num_pes - activity.pe_busy_cycles)
        breakdown.static_pj = idle_pe_cycles * PE_IDLE_PJ_PER_CYCLE
        breakdown.config_pj = (config_cycles * MESA_PJ_PER_CYCLE
                               + bitstream_words * CONFIG_WORD_PJ)
        return breakdown
