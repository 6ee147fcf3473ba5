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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import AcceleratorConfig, ActivityCounters
from ..mem import MemoryHierarchy

__all__ = ["EnergyParams", "EnergyBreakdown", "AcceleratorEnergyModel"]


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (picojoules) and static power shares."""

    int_op_pj: float = 8.0
    fp_op_pj: float = 24.0
    forward_pj: float = 1.0          # predicated-off value forward
    local_hop_pj: float = 1.2
    noc_hop_pj: float = 4.0
    lsu_access_pj: float = 12.0
    lsq_forward_pj: float = 4.0
    l1_access_pj: float = 20.0
    l2_access_pj: float = 120.0
    dram_access_pj: float = 2000.0
    control_event_pj: float = 3.0
    config_word_pj: float = 10.0
    #: Idle (clock-gated) leakage per PE per cycle.  Clock gating removes
    #: dynamic power but 15nm leakage remains a meaningful fraction of the
    #: array's nameplate power.
    pe_idle_pj_per_cycle: float = 1.2
    #: MESA controller energy per active configuration cycle, from Table 1's
    #: 0.36 W at 2 GHz = 180 pJ/cycle.
    mesa_pj_per_cycle: float = 180.0


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

    def fractions(self) -> dict[str, float]:
        total = self.total_pj
        if total <= 0:
            return {}
        return {
            "compute": self.compute_pj / total,
            "memory": self.memory_pj / total,
            "network": self.network_pj / total,
            "control": self.control_pj / total,
            "static": self.static_pj / total,
            "config": self.config_pj / total,
        }

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

    def __init__(self, config: AcceleratorConfig,
                 params: EnergyParams | None = None) -> None:
        self.config = config
        self.params = params if params is not None else EnergyParams()

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
        p = self.params
        breakdown = EnergyBreakdown()
        breakdown.compute_pj = (activity.int_ops * p.int_op_pj
                                + activity.fp_ops * p.fp_op_pj
                                + activity.forwards * p.forward_pj)
        breakdown.memory_pj = (activity.memory_accesses * p.lsu_access_pj
                               + activity.lsq_forwards * p.lsq_forward_pj)
        if hierarchy is not None:
            l1 = hierarchy.l1.stats
            l2 = hierarchy.l2.stats
            breakdown.memory_pj += (l1.accesses * p.l1_access_pj
                                    + l2.accesses * p.l2_access_pj
                                    + hierarchy.dram_accesses * p.dram_access_pj)
        breakdown.network_pj = (activity.local_hops * p.local_hop_pj
                                + activity.noc_hops * p.noc_hop_pj)
        breakdown.control_pj = activity.control_events * p.control_event_pj
        idle_pe_cycles = max(
            0.0, cycles * self.config.num_pes - activity.pe_busy_cycles)
        breakdown.static_pj = idle_pe_cycles * p.pe_idle_pj_per_cycle
        breakdown.config_pj = (config_cycles * p.mesa_pj_per_cycle
                               + bitstream_words * p.config_word_pj)
        return breakdown
