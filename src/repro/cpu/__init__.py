"""CPU substrate: out-of-order core model, loop detection, multicore baseline.

* :func:`collect_trace` — run a program and record its dynamic stream;
* :class:`OutOfOrderCore` — BOOM-like scoreboard timing model;
* :class:`LoopStreamDetector` — backward-branch loop detection (MESA's C1);
* :class:`MulticoreCpu` — the paper's 16-core baseline, analytically scaled.
"""

from .config import BOOM_LIKE, CpuConfig, MULTICORE_16, SINGLE_CORE
from .core import CoreResult, OutOfOrderCore
from .counters import PerfCounters
from .lsd import LoopCandidate, LoopStreamDetector
from .multicore import MulticoreCpu, MulticoreResult
from .trace import Trace, TraceEntry, collect_trace

__all__ = [
    "BOOM_LIKE",
    "CpuConfig",
    "MULTICORE_16",
    "SINGLE_CORE",
    "CoreResult",
    "OutOfOrderCore",
    "PerfCounters",
    "LoopCandidate",
    "LoopStreamDetector",
    "MulticoreCpu",
    "MulticoreResult",
    "Trace",
    "TraceEntry",
    "collect_trace",
]
