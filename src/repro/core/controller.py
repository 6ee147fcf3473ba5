"""The MESA controller: monitor → translate → map → configure → offload.

This is the top of the library: :class:`MesaController.execute` runs a whole
program through the modeled system, performing the paper's three functions —

* **F1** monitor CPU execution for acceleration opportunities (loop-stream
  detection + conditions C1–C3 on the dynamic trace);
* **F2** translate the hot region's binary into a latency-weighted DFG and
  map it onto the spatial accelerator (T1–T3);
* **F3** iteratively re-optimize the configuration from runtime counters.

Timing model of the end-to-end flow (paper §5.1): detection and
configuration overlap with normal CPU execution — the CPU keeps running loop
iterations while MESA builds the LDFG and maps it.  Once the configuration is
written, the CPU halts at the loop entry PC, drains, transfers architectural
state, and the remaining iterations execute on the fabric; control then
returns like a subroutine return.

Re-encountered regions (same addresses, same instruction bytes, same
backend) hit the configuration cache: ``execute`` consults
:meth:`ConfigCache.lookup` before translating, and on a hit skips T1–T3
entirely — the region pays only the ConfigBlock's bitstream load
(:meth:`ConfigurationCost.warm`), so its warm-up shrinks and the result
records ``config_cache_hit`` plus per-execute ``cache_stats``.  A hit
carries the cached accelerator program only (its ``sdfg`` and
``memopt_report`` are ``None``), and both paths plan loops from that
program, so every hit runs the same warm path.  One
controller serves the whole chip (see :mod:`repro.core.system`), so the
cache is shared — and thread-safe — across all cores.
"""

from __future__ import annotations

import cProfile
import hashlib
import math
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..accel import (
    AcceleratorConfig,
    AcceleratorProgram,
    AcceleratorRun,
    ActivityCounters,
    DataflowEngine,
    build_interconnect,
)
from ..cpu import CoreResult, CpuConfig, OutOfOrderCore, Trace, collect_trace
from ..isa import EncodingError, Executor, MachineState, Program
from ..mem import MemoryHierarchy
from .configure import (
    CacheStats,
    CachedConfiguration,
    ConfigCache,
    ConfigTimingModel,
    ConfigurationCost,
    build_program,
    configuration_cost,
)
from .ldfg import LdfgError, build_ldfg
from .loopopt import LoopPlan, plan_loop_optimizations
from .mapping import (
    InstructionMapper,
    MappingError,
    MappingOptions,
    MappingStats,
)
from .memopt import MemoptReport, apply_memory_optimizations
from .offload import OffloadCostModel
from .optimizer import IterativeOptimizer
from .region import CodeRegionDetector, RegionCriteria, RegionDecision
from .sdfg import Sdfg
from .trace_cache import TraceCache

__all__ = ["MesaOptions", "CycleBreakdown", "AcceleratedRegion",
           "MesaResult", "MesaController", "TranslationResult",
           "region_digest"]

#: Functional-execution safety bound of a controller's CPU runs.
MAX_STEPS = 4_000_000


def region_digest(program: Program, start_address: int,
                  end_address: int) -> str:
    """Content tag of a code region: the encoded instruction words.

    A chip-wide configuration cache is indexed by virtual addresses, which
    different binaries reuse freely; keying every entry by the region's
    instruction bytes as well keeps two colliding binaries in distinct
    entries instead of replaying a wrong configuration.
    """
    from ..isa.encoding import encode

    hasher = hashlib.blake2b(digest_size=16)
    for instr in program:
        if start_address <= instr.address <= end_address:
            try:
                hasher.update(struct.pack("<I", encode(instr)))
            except (EncodingError, struct.error):
                hasher.update(repr(instr).encode())
    return hasher.hexdigest()


@dataclass(frozen=True)
class MesaOptions:
    """Feature switches and policy knobs for one controller instance."""

    memopt: bool = True
    tiling: bool = True
    pipelining: bool = True
    #: Out-of-order load issue with invalidation replay (§4.2).
    speculative_loads: bool = True
    #: Extra profile→remap rounds after the initial configuration.
    iterative_rounds: int = 0
    mapping: MappingOptions = field(default_factory=MappingOptions)
    criteria: RegionCriteria = field(default_factory=RegionCriteria)
    offload: OffloadCostModel = field(default_factory=OffloadCostModel)
    config_timing: ConfigTimingModel = field(default_factory=ConfigTimingModel)
    #: Iterations the LSD needs before a loop is considered hot.
    detection_iterations: int = 4
    #: Iterations per profiling window in iterative mode.
    profile_iterations: int = 16
    #: Consult the configuration cache before translating (§4.3).  Disable
    #: to model a cache-less controller (the per-thread-chip baseline).
    enable_config_cache: bool = True
    #: Configuration-cache entries the chip retains.
    cache_capacity: int = 8
    #: Cache eviction policy: "fifo" (hardware default) or "lru" (a hit
    #: refreshes the entry — the service deployment's choice).
    cache_policy: str = "fifo"


@dataclass
class CycleBreakdown:
    """Where the modeled execution time went."""

    cpu_cycles: float = 0.0       # instructions executed on the CPU
    offload_cycles: float = 0.0   # drain + state transfer + handshake
    accel_cycles: float = 0.0     # iterations executed on the fabric
    return_cycles: float = 0.0    # state/control return
    #: Configuration work not hidden behind concurrent CPU execution.
    exposed_config_cycles: float = 0.0

    @property
    def total(self) -> float:
        return (self.cpu_cycles + self.offload_cycles + self.accel_cycles
                + self.return_cycles + self.exposed_config_cycles)


@dataclass
class AcceleratedRegion:
    """One configured code region and its execution record."""

    decision: RegionDecision
    #: Content tag of the region's instruction words (its cache key's tag).
    digest: str
    #: ``None`` when the configuration came from the cache: an entry holds
    #: the accelerator program, not the mapping that produced it.
    sdfg: Sdfg | None
    accel_program: AcceleratorProgram
    bitstream_words: int
    cost: ConfigurationCost
    memopt_report: MemoptReport | None
    plan: LoopPlan
    #: CPU iterations before the first offload (detection + config overlap).
    warmup: int
    #: The configuration came from the cache (T1–T3 skipped; ``cost`` is
    #: the warm bitstream-load-only cost).
    cache_hit: bool = False
    runs: list[AcceleratorRun] = field(default_factory=list)
    offloads: int = 0

    @property
    def loop(self):
        return self.decision.loop


@dataclass
class MesaResult:
    """Outcome of running one program through the MESA-enabled system.

    The top-level fields (``decision``, ``sdfg``, ...) describe the
    *primary* (hottest) accelerated region; ``regions`` lists every region
    the controller configured — a program with several hot loops gets each
    of them offloaded.
    """

    accelerated: bool
    reason: str
    breakdown: CycleBreakdown
    cpu_only: CoreResult
    trace: Trace
    decision: RegionDecision | None = None
    sdfg: Sdfg | None = None
    accel_program: AcceleratorProgram | None = None
    bitstream_words: int = 0
    config_cost: ConfigurationCost | None = None
    memopt_report: MemoptReport | None = None
    loop_plan: LoopPlan | None = None
    runs: list[AcceleratorRun] = field(default_factory=list)
    offload_count: int = 0
    cpu_instructions: int = 0
    final_state: MachineState | None = None
    accel_hierarchy: MemoryHierarchy | None = None
    optimizer_history: list = field(default_factory=list)
    regions: list[AcceleratedRegion] = field(default_factory=list)
    #: At least one region's configuration came from the cache.
    config_cache_hit: bool = False
    #: Cache activity attributable to *this* execute call.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Host wall-clock seconds per pipeline phase (trace, cpu-model, detect,
    #: translate, map, optimize, configure, execute) — simulation cost, not
    #: modeled cycles.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_cycles(self) -> float:
        return self.breakdown.total

    @property
    def speedup_vs_single_core(self) -> float:
        return (self.cpu_only.cycles / self.total_cycles
                if self.total_cycles else 0.0)

    @property
    def accel_iterations(self) -> int:
        return sum(run.iterations for run in self.runs)

    @property
    def activity(self) -> ActivityCounters:
        merged = ActivityCounters()
        for run in self.runs:
            merged = merged.merged(run.activity)
        return merged

    @property
    def drive_path(self) -> str:
        """Which engine drive path(s) executed the offloaded iterations —
        "batched" (the vectorized block executor), "interpreted" (a plan
        its capability analysis rejects), or a comma-joined set if
        offloads diverged.  ``drive_reason`` says why a run was not
        purely batched."""
        paths = []
        for run in self.runs:
            if run.drive_path not in paths:
                paths.append(run.drive_path)
        return ",".join(paths)

    @property
    def drive_reason(self) -> str:
        """Why the batched path was not (fully) used ("" if it was)."""
        for run in self.runs:
            if run.drive_reason:
                return run.drive_reason
        return ""


@dataclass(frozen=True)
class TranslationResult:
    """Product of one region's T1 + §4.2 memory optimization + T2 pass."""

    sdfg: Sdfg
    memopt_report: MemoptReport | None
    trace_cache: TraceCache
    mapper_stats: MappingStats


class MesaController:
    """Drives the full MESA pipeline over one program.

    One controller serves the whole chip: its :class:`ConfigCache` is
    shared (and thread-safe) across every ``execute`` call, so repeated
    executions of the same binary — from the same core or another one —
    skip translation and mapping and pay only the warm bitstream load.
    """

    def __init__(self, config: AcceleratorConfig,
                 cpu_config: CpuConfig | None = None,
                 options: MesaOptions | None = None) -> None:
        self.config = config
        self.cpu_config = cpu_config if cpu_config is not None else CpuConfig()
        self.options = options if options is not None else MesaOptions()
        self.interconnect = build_interconnect(config)
        self.config_cache = ConfigCache(
            capacity=self.options.cache_capacity,
            policy=self.options.cache_policy)
        #: Enable per-phase cProfile capture (``repro run --profile``).
        #: Profiling is a single-threaded diagnostic: cProfile registers a
        #: global trace hook, so leave this off when several threads drive
        #: one controller.
        self.profile_phases = False
        #: Accumulated cProfile data per phase, when enabled.
        self.phase_profiles: dict[str, cProfile.Profile] = {}
        #: Per-thread phase-timing accumulator.  One controller serves the
        #: whole chip, so concurrent ``execute`` calls (each confined to its
        #: own thread) must not interleave writes into a shared dict — the
        #: thread-local keeps every execute's ``phase_seconds`` complete and
        #: disjoint.
        self._phase_state = threading.local()

    def _phase_seconds_for_thread(self) -> dict[str, float]:
        """The calling thread's phase accumulator (created on first use)."""
        seconds = getattr(self._phase_state, "seconds", None)
        if seconds is None:
            seconds = {}
            self._phase_state.seconds = seconds
        return seconds

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        """Attribute the enclosed work to one pipeline phase.

        Phases are flat (never nested) so a single cProfile.Profile per
        phase can be enabled/disabled around the section; wall seconds
        always accumulate into the calling thread's current execute's
        ``phase_seconds``.
        """
        profiler = None
        if self.profile_phases:
            profiler = self.phase_profiles.setdefault(name, cProfile.Profile())
            profiler.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
            seconds = self._phase_seconds_for_thread()
            seconds[name] = seconds.get(name, 0.0) + elapsed

    # -- top level ------------------------------------------------------------

    def execute(self, program: Program,
                state_factory: Callable[[], MachineState],
                parallelizable: bool = False,
                max_steps: int = MAX_STEPS,
                trace: Trace | None = None,
                cpu_only: CoreResult | None = None) -> MesaResult:
        """Run a program on the MESA-enabled system.

        Args:
            program: the assembled binary.
            state_factory: builds a fresh initial architectural state
                (registers + memory image); called several times — for the
                reference trace, profiling windows, and the measured run.
            parallelizable: the hot loop carries an OpenMP-style annotation
                (enables tiling/pipelining, §4.3).
            max_steps: functional-execution safety bound.
            trace, cpu_only: the program's CPU baseline, as
                :meth:`cpu_baseline` computes it — pass both or neither.
                Both are deterministic for a given program, initial state
                and ``cpu_config``, so a caller running several backends
                over one binary (the benchmark harness), or serving the
                same request again (the offload service), computes them
                once and shares them; omitted, the controller computes its
                own.  A shared trace is never mutated, and a CPU-only
                result's ``final_state`` is a copy of its final state.
        """
        if (trace is None) != (cpu_only is None):
            raise ValueError("pass trace and cpu_only together")
        tally = {"hits": 0, "misses": 0, "evictions": 0, "insertions": 0}
        self._phase_state.seconds = {}
        result = self._run(program, state_factory, parallelizable, max_steps,
                           tally, trace, cpu_only)
        result.cache_stats = CacheStats(**tally)
        result.config_cache_hit = tally["hits"] > 0
        result.phase_seconds = dict(self._phase_seconds_for_thread())
        return result

    def cpu_baseline(self, program: Program,
                     state_factory: Callable[[], MachineState],
                     max_steps: int = MAX_STEPS) -> tuple[Trace, CoreResult]:
        """The program's CPU baseline: its dynamic trace from a fresh
        ``state_factory()`` state, and the core model's result over it.

        This is what :meth:`execute` computes when it is not handed them,
        timed as its ``trace`` and ``cpu-model`` phases.
        """
        with self._phase("trace"):
            trace = collect_trace(program, state_factory(),
                                  max_steps=max_steps)
        with self._phase("cpu-model"):
            cpu_only = OutOfOrderCore(
                self.cpu_config,
                MemoryHierarchy(self.cpu_config.memory)).run(trace)
        return trace, cpu_only

    def _run(self, program: Program,
             state_factory: Callable[[], MachineState],
             parallelizable: bool, max_steps: int,
             tally: dict[str, int],
             trace: Trace | None = None,
             cpu_only: CoreResult | None = None) -> MesaResult:
        if trace is None:
            trace, cpu_only = self.cpu_baseline(program, state_factory,
                                                max_steps)

        detector = CodeRegionDetector(self.config, self.options.criteria)
        with self._phase("detect"):
            decisions = detector.detect(trace, program)
        accepted = [d for d in decisions if d.accepted]
        if not accepted:
            reason = ("no hot loop detected" if not decisions else
                      "; ".join(decisions[0].reasons) or "no accepted region")
            return self._cpu_only_result(reason, trace, cpu_only, decision=None)

        # Configure every accepted region (hottest first); a region whose
        # translation or mapping fails simply stays on the CPU.
        optimizer_history: list = []
        accel_hierarchy = MemoryHierarchy(self.cpu_config.memory)
        regions: list[AcceleratedRegion] = []
        failure_reasons: list[str] = []
        cpi = cpu_only.cycles / max(1, len(trace))
        for decision in accepted:
            loop = decision.loop
            digest = region_digest(program, loop.start_address,
                                   loop.end_address)
            cached: CachedConfiguration | None = None
            if self.options.enable_config_cache:
                cached = self.config_cache.lookup(
                    loop.start_address, loop.end_address, self.config.name,
                    digest)
                tally["hits" if cached is not None else "misses"] += 1
            if cached is not None:
                # Warm path: skip T1–T3, pay only the bitstream load.
                regions.append(self._region_from_cache(
                    decision, digest, cached, parallelizable, trace, cpi))
                continue
            translated = self._translate(decision, trace, program)
            if isinstance(translated, str):
                failure_reasons.append(translated)
                continue
            sdfg = translated.sdfg
            if not regions and self.options.iterative_rounds > 0:
                # Iterative re-optimization (F3) on the primary region.
                optimizer = IterativeOptimizer(
                    self.config, self.options.mapping, self.interconnect)
                with self._phase("optimize"):
                    sdfg = optimizer.optimize(
                        sdfg.ldfg, sdfg,
                        state_factory=lambda d=decision:
                            self._state_at_loop_entry(
                                program, d, state_factory(), max_steps),
                        hierarchy=MemoryHierarchy(self.cpu_config.memory),
                        rounds=self.options.iterative_rounds,
                        profile_iterations=self.options.profile_iterations,
                    )
                optimizer_history = optimizer.history
            with self._phase("configure"):
                region = self._configure_region(
                    decision, translated, sdfg, parallelizable, trace, cpi,
                    digest, tally)
            if isinstance(region, str):
                failure_reasons.append(region)
                continue
            regions.append(region)
        if not regions:
            # Every per-region failure is preserved: a later region's
            # reason must not be dropped because an earlier one was
            # recorded first.
            unique_reasons = list(dict.fromkeys(failure_reasons))
            return self._cpu_only_result(
                "; ".join(unique_reasons) or "no region survived translation",
                trace, cpu_only, accepted[0])

        with self._phase("execute"):
            return self._execute_with_offload(
                program, state_factory, regions, trace, cpu_only,
                accel_hierarchy, optimizer_history, max_steps)

    def _configure_region(self, decision, translated: TranslationResult,
                          sdfg, parallelizable, trace, cpi, digest,
                          tally) -> AcceleratedRegion | str:
        """T3 + loop planning + warm-up estimate for one accepted region.

        Returns the failure reason as a string when the configuration
        cannot be encoded (an immediate the bitstream has no room for).
        """
        from ..accel import encode_bitstream

        accel_program = build_program(sdfg)
        try:
            bitstream = encode_bitstream(accel_program)
        except EncodingError as exc:
            return f"configuration failed: {exc}"
        window_cells = (self.options.mapping.window[0]
                        * self.options.mapping.window[1])
        cost = configuration_cost(
            sdfg, len(bitstream),
            mapper_stats=translated.mapper_stats,
            stall_fills=translated.trace_cache.stall_fills,
            timing=self.options.config_timing,
            window_cells=window_cells,
        )
        outcome = self.config_cache.put(
            decision.loop.start_address, decision.loop.end_address,
            self.config.name, digest,
            CachedConfiguration(accel_program, bitstream, cost))
        tally["insertions"] += 1
        tally["evictions"] += outcome.evicted
        return AcceleratedRegion(
            decision=decision,
            digest=digest,
            sdfg=sdfg,
            accel_program=accel_program,
            bitstream_words=len(bitstream),
            cost=cost,
            memopt_report=translated.memopt_report,
            plan=self._plan(accel_program, decision, parallelizable),
            warmup=self._warmup_iterations(decision, trace, cpi, cost),
        )

    def _region_from_cache(self, decision, digest,
                           cached: CachedConfiguration, parallelizable,
                           trace, cpi) -> AcceleratedRegion:
        """Warm path: rebuild the region record from a cache hit.

        Translation (T1), memory optimization, and mapping (T2) are all
        skipped; the only configuration work charged is the ConfigBlock's
        bitstream load (:meth:`ConfigurationCost.warm`), which shrinks the
        warm-up window accordingly.  Loop planning reads the cached
        program, as the cold path does, and is recomputed because it
        depends on this call's ``parallelizable`` annotation and expected
        trip count.
        """
        warm_cost = cached.cost.warm()
        return AcceleratedRegion(
            decision=decision,
            digest=digest,
            sdfg=None,
            accel_program=cached.program,
            bitstream_words=len(cached.bitstream),
            cost=warm_cost,
            memopt_report=None,
            plan=self._plan(cached.program, decision, parallelizable),
            warmup=self._warmup_iterations(decision, trace, cpi, warm_cost),
            cache_hit=True,
        )

    def _plan(self, program, decision, parallelizable) -> LoopPlan:
        return plan_loop_optimizations(
            program, parallelizable,
            expected_iterations=decision.loop.expected_trip_count,
            enable_tiling=self.options.tiling,
            enable_pipelining=self.options.pipelining,
        )

    def _warmup_iterations(self, decision, trace, cpi,
                           cost: ConfigurationCost) -> int:
        """CPU iterations that overlap detection + configuration."""
        loop = decision.loop
        loop_entries = trace.executions(loop.start_address, loop.end_address)
        iterations = max(1, loop.total_iterations)
        cycles_per_iteration = max(1.0, loop_entries / iterations * cpi)
        return self.options.detection_iterations + math.ceil(
            cost.total / cycles_per_iteration)

    # -- translation (T1 + §4.2 optimizations + T2) -----------------------------

    def _translate(self, decision: RegionDecision, trace: Trace,
                   program: Program) -> TranslationResult | str:
        """Trace cache capture, LDFG build, memopt, and spatial mapping.

        Returns a :class:`TranslationResult` on success, or the failure
        reason as a string when the region cannot be translated or mapped.
        """
        with self._phase("translate"):
            trace_cache = TraceCache(self.config.max_instructions)
            trace_cache.set_region(decision.loop.start_address,
                                   decision.loop.end_address)
            for entry in trace:
                trace_cache.observe_fetch(entry.instruction)
                if trace_cache.complete:
                    break
            if not trace_cache.complete:
                trace_cache.fill_missing(program)

            try:
                ldfg = build_ldfg(trace_cache.body(),
                                  latencies=self.config.latencies)
            except LdfgError as exc:
                return f"translation failed: {exc}"
            memopt_report = None
            if self.options.memopt:
                memopt_report = apply_memory_optimizations(
                    ldfg, xlen=self.config.xlen)
        mapper = InstructionMapper(self.config, self.interconnect,
                                   self.options.mapping)
        with self._phase("map"):
            try:
                sdfg = mapper.map(ldfg)
            except MappingError as exc:
                return f"mapping failed: {exc}"
        return TranslationResult(sdfg=sdfg, memopt_report=memopt_report,
                                 trace_cache=trace_cache,
                                 mapper_stats=mapper.stats)

    # -- measured execution with offload --------------------------------------

    def _execute_with_offload(self, program, state_factory,
                              regions: list[AcceleratedRegion], trace,
                              cpu_only, accel_hierarchy, optimizer_history,
                              max_steps):
        """Measured run: step the CPU, offloading at every configured
        region's entry PC once its configuration has warmed up."""
        options = self.options
        cpi = cpu_only.cycles / max(1, len(trace))

        state = state_factory()
        executor = Executor(program, state)
        breakdown = CycleBreakdown()
        by_entry = {region.loop.start_address: region for region in regions}
        engines = {
            region.loop.start_address: DataflowEngine(
                region.accel_program, hierarchy=accel_hierarchy,
                interconnect=self.interconnect)
            for region in regions
        }
        visits: dict[int, int] = {addr: 0 for addr in by_entry}
        configured: set[int] = set()  # regions past their first offload

        # The executor stops at every region entry; each stop either
        # offloads the region or steps past its entry on the CPU.
        stepped = executor.run(max_steps, stop_pcs=by_entry)
        while state.pc in by_entry:
            entry = state.pc
            region = by_entry[entry]
            visits[entry] += 1
            threshold = 0 if entry in configured else region.warmup
            if visits[entry] > threshold:
                # Offload: drain, transfer state, run on the fabric.
                region.offloads += 1
                configured.add(entry)
                accel_program = region.accel_program
                breakdown.offload_cycles += options.offload.offload_cycles(
                    len(accel_program.live_in))
                run = engines[entry].run(
                    state, region.plan.to_execution_options(
                        speculative_loads=options.speculative_loads))
                region.runs.append(run)
                breakdown.accel_cycles += run.cycles
                breakdown.return_cycles += options.offload.return_cycles(
                    len(accel_program.live_out))
                state.pc = region.loop.end_address + 4
                visits[entry] = 0
            else:
                executor.step()
                stepped += 1
            stepped += executor.run(max_steps - stepped, stop_pcs=by_entry)
        breakdown.cpu_cycles = stepped * cpi

        # The primary region is the hottest one that actually ran.
        primary = next((r for r in regions if r.runs), regions[0])
        all_runs = [run for region in regions for run in region.runs]
        if not all_runs:
            reason = ("loop completed on the CPU before configuration "
                      "amortized (trip count below warm-up)")
            result = self._cpu_only_result(reason, trace, cpu_only,
                                           primary.decision)
            result.config_cost = primary.cost
            return result

        return MesaResult(
            accelerated=True,
            reason="offloaded",
            breakdown=breakdown,
            cpu_only=cpu_only,
            trace=trace,
            decision=primary.decision,
            sdfg=primary.sdfg,
            accel_program=primary.accel_program,
            bitstream_words=primary.bitstream_words,
            config_cost=primary.cost,
            memopt_report=primary.memopt_report,
            loop_plan=primary.plan,
            runs=all_runs,
            offload_count=sum(region.offloads for region in regions),
            cpu_instructions=stepped,
            final_state=state,
            accel_hierarchy=accel_hierarchy,
            optimizer_history=optimizer_history,
            regions=regions,
        )

    # -- helpers ---------------------------------------------------------------

    def _state_at_loop_entry(self, program: Program, decision: RegionDecision,
                             state: MachineState, max_steps: int) -> MachineState:
        """Functionally advance a fresh state to the loop's entry point."""
        Executor(program, state).run(
            max_steps, stop_pcs=(decision.loop.start_address,))
        return state

    def _cpu_only_result(self, reason: str, trace: Trace,
                         cpu_only: CoreResult,
                         decision: RegionDecision | None) -> MesaResult:
        return MesaResult(
            accelerated=False,
            reason=reason,
            breakdown=CycleBreakdown(cpu_cycles=float(cpu_only.cycles)),
            cpu_only=cpu_only,
            trace=trace,
            decision=decision,
            cpu_instructions=len(trace),
            # A copy: the trace may be shared across calls.
            final_state=trace.final_state.copy(),
        )
