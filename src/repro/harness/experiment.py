"""Experiment runner: one kernel on one system, with timing and energy.

Every figure/table driver composes these primitives:

* :meth:`ExperimentRunner.mesa` — the full MESA pipeline on a chosen
  backend (detection, translation, mapping, offload, measured execution);
* :meth:`ExperimentRunner.single_core` / :meth:`multicore` — the CPU
  baselines (detailed OoO model / analytic 16-core scaling);
* :meth:`ExperimentRunner.opencgra` — the modulo-scheduling comparator
  (per-iteration IPC, Fig. 12);
* :meth:`ExperimentRunner.dynaspam` — the in-pipeline 1-D fabric
  comparator (Fig. 14).

Both comparators run the kernel's hot loop as the loop-stream detector
finds it in the kernel's trace (:attr:`~repro.cpu.Trace.hot_loops`), the
same scan MESA's region detection reads.  Results carry cycles and energy
so speedup and energy-efficiency ratios can be formed uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..accel import AcceleratorConfig, M_128
from ..baselines import DynaSpamError, DynaSpamMapper, OpenCgraScheduler
from ..baselines.dynaspam import CONFIG_CYCLES
from ..core import LdfgError, MesaController, MesaOptions, build_ldfg
from ..core.controller import MAX_STEPS
from ..cpu import (
    CoreResult,
    CpuConfig,
    MulticoreCpu,
    OutOfOrderCore,
    Trace,
    collect_trace,
)
from ..mem import MemoryHierarchy
from ..power import AcceleratorEnergyModel, CpuEnergyModel
from ..workloads import KernelInstance, build_kernel

__all__ = ["SystemResult", "ExperimentRunner"]


@dataclass
class SystemResult:
    """One kernel executed on one system."""

    kernel: str
    system: str
    cycles: float
    energy_pj: float = 0.0
    accelerated: bool = True
    details: dict[str, Any] = field(default_factory=dict)


class ExperimentRunner:
    """Builds kernels and runs them on the modeled systems."""

    def __init__(self, iterations: int = 256, seed: int = 1) -> None:
        self.iterations = iterations
        self.seed = seed
        self.cpu_config = CpuConfig()
        self._kernel_cache: dict[str, KernelInstance] = {}
        self._trace_cache: dict[str, Trace] = {}
        self._core_cache: dict[str, tuple[CoreResult, MemoryHierarchy]] = {}

    def kernel(self, name: str) -> KernelInstance:
        if name not in self._kernel_cache:
            self._kernel_cache[name] = build_kernel(
                name, iterations=self.iterations, seed=self.seed)
        return self._kernel_cache[name]

    def trace(self, name: str) -> Trace:
        """The kernel's dynamic trace, collected once per runner.

        Trace collection is deterministic — the program and the state built
        by ``fresh_state()`` are fixed by (name, iterations, seed) — so every
        system model over the same kernel shares one trace.
        """
        if name not in self._trace_cache:
            kernel = self.kernel(name)
            self._trace_cache[name] = collect_trace(
                kernel.program, kernel.fresh_state(), max_steps=MAX_STEPS)
        return self._trace_cache[name]

    def _core_run(self, name: str) -> tuple[CoreResult, MemoryHierarchy]:
        """Detailed single-core run of the kernel, computed once per runner."""
        if name not in self._core_cache:
            hierarchy = MemoryHierarchy(self.cpu_config.memory)
            result = OutOfOrderCore(self.cpu_config, hierarchy).run(
                self.trace(name))
            self._core_cache[name] = (result, hierarchy)
        return self._core_cache[name]

    # -- MESA ---------------------------------------------------------------

    def mesa(self, kernel_name: str,
             config: AcceleratorConfig = M_128,
             options: MesaOptions | None = None) -> SystemResult:
        """Run the full MESA pipeline; falls back to CPU timing when the
        kernel does not qualify (exactly as the real system would)."""
        kernel = self.kernel(kernel_name)
        controller = MesaController(config, self.cpu_config, options)
        cpu_only, _ = self._core_run(kernel_name)
        result = controller.execute(
            kernel.program, kernel.state_factory,
            parallelizable=kernel.parallelizable,
            baseline=(self.trace(kernel_name), cpu_only))
        energy, accel_breakdown = self._mesa_energy(result, config)
        return SystemResult(
            kernel=kernel_name,
            system=config.name,
            cycles=result.total_cycles,
            energy_pj=energy,
            accelerated=result.accelerated,
            details={"mesa": result, "accel_energy": accel_breakdown},
        )

    def _mesa_energy(self, result, config: AcceleratorConfig):
        """Total energy (pJ) of a MESA run plus the accelerator breakdown."""
        accel_model = AcceleratorEnergyModel(config)
        cpu_model = CpuEnergyModel()
        total = 0.0
        accel_breakdown = None
        if result.accelerated:
            accel_breakdown = accel_model.energy(
                result.activity,
                cycles=result.breakdown.accel_cycles,
                hierarchy=result.accel_hierarchy,
                config_cycles=result.config_cost.total if result.config_cost else 0,
                bitstream_words=result.bitstream_words,
            )
            total += accel_breakdown.total_pj
        # The CPU-executed portion (warm-up + pre/post-loop), scaled from
        # the full-trace counters.
        trace_len = max(1, len(result.trace))
        fraction = result.cpu_instructions / trace_len
        scaled = _scale_counters(result.cpu_only.counters, fraction)
        cpu_breakdown = cpu_model.energy(scaled, result.breakdown.cpu_cycles)
        total += cpu_breakdown.total_pj
        return total, accel_breakdown

    # -- CPU baselines -----------------------------------------------------

    def single_core(self, kernel_name: str) -> SystemResult:
        result, hierarchy = self._core_run(kernel_name)
        energy = CpuEnergyModel().energy(result.counters, result.cycles,
                                         hierarchy)
        return SystemResult(
            kernel=kernel_name,
            system="single-core",
            cycles=float(result.cycles),
            energy_pj=energy.total_pj,
            details={"core": result},
        )

    def multicore(self, kernel_name: str, cores: int = 16) -> SystemResult:
        kernel = self.kernel(kernel_name)
        trace = self.trace(kernel_name)
        config = CpuConfig(name=f"multicore-{cores}", num_cores=cores)
        parallel_fraction = 1.0 if kernel.parallelizable else 0.0
        model = MulticoreCpu(config)
        # name/num_cores do not enter the single-core timing model, so the
        # runner's cached single-core run is this config's too.
        single, hierarchy = self._core_run(kernel_name)
        result = model.run(trace, parallel_fraction,
                           single=single, hierarchy=hierarchy)
        hierarchy = MemoryHierarchy(config.memory)
        # Dynamic energy for the same work + static across active cores.
        energy = CpuEnergyModel().energy(
            result.single_core.counters, result.cycles, hierarchy,
            cores=cores if kernel.parallelizable else 1)
        return SystemResult(
            kernel=kernel_name,
            system=f"multicore-{cores}",
            cycles=result.cycles,
            energy_pj=energy.total_pj,
            details={"multicore": result},
        )

    # -- comparators -------------------------------------------------------

    def opencgra(self, kernel_name: str,
                 config: AcceleratorConfig = M_128) -> SystemResult:
        """Schedule the kernel's loop body with the CGRA compiler baseline,
        on a CGRA with the grid and memory ports of ``config``."""
        kernel = self.kernel(kernel_name)
        body = self._loop_body(kernel)
        ldfg = build_ldfg(body)
        schedule = OpenCgraScheduler(config).schedule(ldfg)
        cycles = (schedule.ii * self.iterations + schedule.schedule_length)
        return SystemResult(
            kernel=kernel_name,
            system="opencgra",
            cycles=float(cycles),
            details={"schedule": schedule, "ipc": schedule.ipc},
        )

    def dynaspam(self, kernel_name: str) -> SystemResult:
        """Run the DynaSpAM-style comparator; non-fitting kernels fall back
        to the single-core result (it accelerates regions opportunistically,
        speculation covers inner control)."""
        kernel = self.kernel(kernel_name)
        single = self.single_core(kernel_name)
        mapper = DynaSpamMapper(self.cpu_config)
        try:
            body = self._loop_body(kernel, accept_inner=True)
            ldfg = build_ldfg(body)
            mapping = mapper.map(ldfg)
        except (DynaSpamError, LdfgError):
            return SystemResult(
                kernel=kernel_name, system="dynaspam",
                cycles=single.cycles, energy_pj=single.energy_pj,
                accelerated=False,
                details={"fallback": "single-core"},
            )
        fabric_cycles = (mapping.cycles_per_iteration
                         + (self.iterations - 1) * mapping.initiation_interval
                         + CONFIG_CYCLES)
        # Pre/post-loop work still runs normally on the core.
        loop_fraction = self._loop_fraction(kernel)
        cycles = single.cycles * (1 - loop_fraction) + fabric_cycles
        return SystemResult(
            kernel=kernel_name,
            system="dynaspam",
            cycles=cycles,
            energy_pj=single.energy_pj * 0.85,  # saved fetch/decode energy
            details={"mapping": mapping},
        )

    # -- helpers ------------------------------------------------------------

    def _loop_body(self, kernel: KernelInstance,
                   accept_inner: bool = False) -> list:
        """The hot loop's body: the hottest loop the loop-stream detector
        finds in the kernel's trace, the one MESA's own detection sees."""
        loops = self.trace(kernel.name).hot_loops
        if not loops:
            raise LdfgError("kernel has no loop")
        loop = loops[0]
        body = [kernel.program.at(address) for address in
                range(loop.start_address, loop.end_address + 4, 4)]
        if accept_inner:
            # Strip any inner loop by unrolling once: drop every backward
            # branch but the loop-closing one.
            body = [i for i in body[:-1]
                    if not (i.is_branch and i.imm < 0)] + body[-1:]
        return body

    def _loop_fraction(self, kernel: KernelInstance) -> float:
        trace = self.trace(kernel.name)
        body = self._loop_body(kernel, accept_inner=True)
        counts = trace.pc_counts
        in_loop = sum(counts[address]
                      for address in {i.address for i in body})
        return in_loop / max(1, len(trace))


def _scale_counters(counters, fraction: float):
    from ..cpu import PerfCounters

    scaled = PerfCounters(
        cycles=int(counters.cycles * fraction),
        instructions=int(counters.instructions * fraction),
        branch_mispredicts=int(counters.branch_mispredicts * fraction),
        load_forwards=int(counters.load_forwards * fraction),
    )
    scaled.by_class = {cls: int(count * fraction)
                       for cls, count in counters.by_class.items()}
    return scaled
