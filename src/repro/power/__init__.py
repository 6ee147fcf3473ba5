"""Area, power, and energy models.

* :mod:`repro.power.tables` — the paper's Table 1 (synthesis results),
  scalable across backend configurations;
* :mod:`repro.power.model` — activity-based accelerator energy accounting;
* :mod:`repro.power.cpu_power` — McPAT-like CPU energy model.
"""

from .cpu_power import CpuEnergyModel
from .model import AcceleratorEnergyModel, EnergyBreakdown
from .tables import (
    ComponentSpec,
    accelerator_components,
    cpu_core_additions,
    mesa_extensions,
    table1_rows,
)

__all__ = [
    "CpuEnergyModel",
    "AcceleratorEnergyModel",
    "EnergyBreakdown",
    "ComponentSpec",
    "accelerator_components",
    "cpu_core_additions",
    "mesa_extensions",
    "table1_rows",
]
