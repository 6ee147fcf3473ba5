"""Comparison baselines used by the paper's evaluation.

* :class:`OpenCgraScheduler` — an OpenCGRA-style compiler that time-schedules
  the same LDFG with iterative modulo scheduling (Fig. 12);
* :class:`DynaSpamMapper` — a DynaSpAM-style dynamic mapper onto a 1-D
  feed-forward in-pipeline fabric (Fig. 14, Table 2);
* the CPU baselines live in :mod:`repro.cpu` (:class:`OutOfOrderCore` and
  :class:`MulticoreCpu`).
"""

from .dynaspam import DynaSpamError, DynaSpamMapper, DynaSpamMapping
from .opencgra import CgraSchedule, OpenCgraScheduler, ScheduleError

__all__ = [
    "DynaSpamError",
    "DynaSpamMapper",
    "DynaSpamMapping",
    "CgraSchedule",
    "OpenCgraScheduler",
    "ScheduleError",
]
