"""CPU core configuration.

The evaluation baseline in the paper is "a 16-core quad-issue out-of-order
RISC-V CPU simulated in gem5 (based on BOOM as the baseline core)" running at
2.0 GHz (the frequency MESA's extensions close timing at,
:data:`repro.accel.FREQUENCY_GHZ`).  The defaults here mirror that machine;
the DynaSpAM comparison (Fig. 14) re-uses the single-core variant.  Operation
latencies are the constants of :mod:`repro.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mem.hierarchy import HierarchyConfig

__all__ = ["CpuConfig", "BOOM_LIKE", "SINGLE_CORE", "MULTICORE_16"]


@dataclass(frozen=True)
class CpuConfig:
    """Parameters of the out-of-order core timing model."""

    name: str = "boom-like"
    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 192
    lsq_size: int = 48
    #: Functional-unit counts by pool.
    int_alu_units: int = 4
    int_mul_units: int = 2
    fp_units: int = 2
    load_store_ports: int = 2
    branch_units: int = 1
    #: Cycles lost on a mispredicted branch (front-end refill).
    mispredict_penalty: int = 12
    #: Memory system configuration (64KB L1 + 8MB unified L2 per the paper).
    memory: HierarchyConfig = field(default_factory=HierarchyConfig)
    #: Number of cores for multicore runs.
    num_cores: int = 1

    def __post_init__(self) -> None:
        for attr in ("fetch_width", "issue_width", "commit_width", "rob_size",
                     "lsq_size", "int_alu_units", "int_mul_units", "fp_units",
                     "load_store_ports", "branch_units", "num_cores"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{attr} must be >= 1")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict penalty must be >= 0")


#: Single BOOM-like out-of-order core (the Fig. 14 baseline).
BOOM_LIKE = CpuConfig()

#: Alias used by experiment drivers.
SINGLE_CORE = BOOM_LIKE

#: The paper's 16-core multicore baseline (Fig. 11).
MULTICORE_16 = CpuConfig(name="multicore-16", num_cores=16)
