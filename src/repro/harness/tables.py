"""Table drivers: Table 1 (area/power) and Table 2 (approach comparison)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel import FREQUENCY_GHZ, AcceleratorConfig, M_128
from ..core import MesaController
from ..power import table1_rows
from ..workloads import FIG12_SET, build_kernel
from .report import render_table

__all__ = ["Table1Result", "table1_area_power",
           "Table2Result", "table2_config_latency"]


@dataclass
class Table1Result:
    """Area/power rows for one backend configuration."""

    config_name: str
    rows: list[tuple[str, float, float]] = field(default_factory=list)

    def lookup(self, name: str) -> tuple[float, float]:
        for row_name, area, power in self.rows:
            if row_name == name:
                return area, power
        raise KeyError(name)

    def render(self) -> str:
        body = []
        for name, area, power in self.rows:
            area_text = (f"{area:.3f} mm2" if area >= 0.01
                         else f"{area * 1e6:.1f} um2")
            power_text = (f"{power:.2f} W" if power >= 0.05
                          else f"{power * 1e3:.3f} mW")
            body.append([name, area_text, power_text])
        return render_table(["component", "area", "power"], body,
                            title=f"Table 1: area/power ({self.config_name})")


def table1_area_power(config: AcceleratorConfig = M_128) -> Table1Result:
    """Table 1: hardware area and power breakdown by component."""
    result = Table1Result(config_name=config.name)
    for spec in table1_rows(config):
        indent = "- " * spec.level
        result.rows.append((f"{indent}{spec.name}".strip() or spec.name,
                            spec.area_mm2, spec.power_w))
    return result


_STATIC_ROWS = [
    # (work, config latency, targets, optimizations)
    ("TRIPS", "AOT", "2D Spatial", "H-Block (EDGE)"),
    ("CCA", "-", "1D FF", "N/A"),
    ("DynaSpAM", "JIT (ns)", "1D FF", "Out-of-order"),
    ("DORA", "JIT (ms)", "2D Spatial", "Vect., Unroll, Deepen"),
]


@dataclass
class Table2Result:
    """Approach comparison with MESA's *measured* configuration latency.

    Carries two MESA latency bands: the cold path (full T1–T3) and the
    warm path — a re-encountered region that hits the configuration cache
    and pays only the bitstream load (§4.3).
    """

    static_rows: list[tuple[str, str, str, str]] = field(default_factory=list)
    mesa_min_cycles: int = 0
    mesa_max_cycles: int = 0
    mesa_warm_min_cycles: int = 0
    mesa_warm_max_cycles: int = 0
    frequency_ghz: float = 2.0

    def _latency_text(self, low: int, high: int) -> str:
        low_us = low / (self.frequency_ghz * 1000)
        high_us = high / (self.frequency_ghz * 1000)
        return (f"JIT ({low}-{high} cycles"
                f" = {low_us:.2f}-{high_us:.2f} us)")

    @property
    def mesa_latency_text(self) -> str:
        return self._latency_text(self.mesa_min_cycles, self.mesa_max_cycles)

    @property
    def mesa_warm_latency_text(self) -> str:
        return self._latency_text(self.mesa_warm_min_cycles,
                                  self.mesa_warm_max_cycles)

    def render(self) -> str:
        body = [list(row) for row in self.static_rows]
        body.append(["MESA", self.mesa_latency_text, "2D Spatial",
                     "Dynamic, Tile, Pipeline"])
        if self.mesa_warm_max_cycles:
            body.append(["MESA (cached)", self.mesa_warm_latency_text,
                         "2D Spatial", "Config-cache re-encounter"])
        return render_table(
            ["work", "config latency", "targets", "optimizations"], body,
            title="Table 2: approach comparison")


def table2_config_latency(
        iterations: int = 256,
        kernels: tuple[str, ...] = FIG12_SET) -> Table2Result:
    """Table 2: measure MESA's configuration latency across kernels.

    The paper reports "generally between 10^3 and 10^4 cycles", i.e. the
    ns-µs range at 2 GHz — between DynaSpAM's nanoseconds and DORA's
    milliseconds.  Each kernel is executed twice on one controller: the
    first encounter measures the cold latency, the second hits the
    configuration cache and measures the warm (bitstream-load-only) path.
    """
    result = Table2Result(static_rows=list(_STATIC_ROWS),
                          frequency_ghz=FREQUENCY_GHZ)
    costs = []
    warm_costs = []
    for name in kernels:
        kernel = build_kernel(name, iterations=iterations)
        controller = MesaController(M_128)
        run = controller.execute(kernel.program, kernel.state_factory,
                                 parallelizable=kernel.parallelizable)
        if run.config_cost is None:
            continue
        costs.append(run.config_cost.total)
        rerun = controller.execute(kernel.program, kernel.state_factory,
                                   parallelizable=kernel.parallelizable)
        if rerun.config_cache_hit and rerun.config_cost is not None:
            warm_costs.append(rerun.config_cost.total)
    if costs:
        result.mesa_min_cycles = min(costs)
        result.mesa_max_cycles = max(costs)
    if warm_costs:
        result.mesa_warm_min_cycles = min(warm_costs)
        result.mesa_warm_max_cycles = max(warm_costs)
    return result
