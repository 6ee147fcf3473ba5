"""MESA core: the paper's primary contribution.

* :class:`DataflowGraph` — the Eq. 1/2 weighted performance model;
* :func:`build_ldfg` / :class:`Ldfg` — rename-table translation (T1);
* :class:`InstructionMapper` — the data-driven spatial mapping Algorithm 1
  (T2), with :class:`CandidateStrategy` window policies;
* :func:`build_program` / :class:`ConfigCache` — configuration (T3);
* :class:`CodeRegionDetector` — conditions C1–C3 + :class:`TraceCache`;
* :func:`apply_memory_optimizations` — §4.2 (forwarding, vectorize, prefetch);
* :func:`plan_loop_optimizations` — §4.3 (tiling; every run pipelines);
* :class:`IterativeOptimizer` — F3 runtime feedback re-optimization;
* :class:`MesaController` — the end-to-end system.
"""

from .candidates import CandidateStrategy, candidate_rect
from .configure import (
    CacheStats,
    CachedConfiguration,
    ConfigCache,
    ConfigurationCost,
    RegionKey,
    build_program,
    configuration_cost,
)
from .controller import (
    AcceleratedRegion,
    CycleBreakdown,
    MesaController,
    MesaOptions,
    MesaResult,
    TranslationResult,
    region_digest,
    state_at_loop_entry,
)
from .dfg import DataflowGraph, DfgNode
from .imap_fsm import ImapFsm, ImapRun, ImapState
from .ldfg import Ldfg, LdfgEntry, LdfgError, build_ldfg
from .loopopt import LoopPlan, plan_loop_optimizations
from .mapping import InstructionMapper, MappingError, MappingOptions, MappingStats
from .memopt import (
    MemoptReport,
    apply_memory_optimizations,
    forward_store_loads,
    mark_prefetchable,
    vectorize_loads,
)
from .optimizer import IterativeOptimizer, OptimizationRound
from .region import CodeRegionDetector, RegionDecision
from .sdfg import Sdfg
from .system import (
    MesaSystem,
    SchedulingPolicy,
    SystemRun,
    ThreadOutcome,
    ThreadSpec,
)
from .trace_cache import TraceCache

__all__ = [
    "CandidateStrategy",
    "candidate_rect",
    "CacheStats",
    "CachedConfiguration",
    "ConfigCache",
    "ConfigurationCost",
    "RegionKey",
    "build_program",
    "configuration_cost",
    "AcceleratedRegion",
    "CycleBreakdown",
    "MesaController",
    "MesaOptions",
    "MesaResult",
    "TranslationResult",
    "region_digest",
    "state_at_loop_entry",
    "DataflowGraph",
    "DfgNode",
    "ImapFsm",
    "ImapRun",
    "ImapState",
    "Ldfg",
    "LdfgEntry",
    "LdfgError",
    "build_ldfg",
    "LoopPlan",
    "plan_loop_optimizations",
    "InstructionMapper",
    "MappingError",
    "MappingOptions",
    "MappingStats",
    "MemoptReport",
    "apply_memory_optimizations",
    "forward_store_loads",
    "mark_prefetchable",
    "vectorize_loads",
    "IterativeOptimizer",
    "OptimizationRound",
    "CodeRegionDetector",
    "RegionDecision",
    "Sdfg",
    "MesaSystem",
    "SchedulingPolicy",
    "SystemRun",
    "ThreadOutcome",
    "ThreadSpec",
    "TraceCache",
]
