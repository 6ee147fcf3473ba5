"""Performance counters for the CPU core model.

These mirror the activity counters MESA's monitoring logic reads (paper F1):
instruction mix by class, branch behaviour, and memory activity.  They also
feed the McPAT-like CPU energy model in :mod:`repro.power.cpu_power`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import OpClass

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Dynamic-execution counters for one core run."""

    cycles: int = 0
    instructions: int = 0
    by_class: dict[OpClass, int] = field(default_factory=dict)
    branch_mispredicts: int = 0
    load_forwards: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def count(self, *classes: OpClass) -> int:
        """Total dynamic count over the given classes."""
        return sum(self.by_class.get(cls, 0) for cls in classes)

    @property
    def loads(self) -> int:
        return self.count(OpClass.LOAD)

    @property
    def stores(self) -> int:
        return self.count(OpClass.STORE)

    @property
    def memory_ops(self) -> int:
        return self.loads + self.stores

    @property
    def branches(self) -> int:
        return self.count(OpClass.BRANCH, OpClass.JUMP)

    @property
    def fp_ops(self) -> int:
        return sum(n for cls, n in self.by_class.items() if cls.is_fp)
