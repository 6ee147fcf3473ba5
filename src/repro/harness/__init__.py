"""Experiment harness: runners, figure drivers, table drivers, rendering.

One driver per table/figure in the paper's evaluation section:

=========  ==========================================
Fig. 11    :func:`fig11_rodinia`
Fig. 12    :func:`fig12_opencgra`
Fig. 13    :func:`fig13_breakdown`
Fig. 14    :func:`fig14_dynaspam`
Fig. 15    :func:`fig15_pe_scaling`
Fig. 16    :func:`fig16_amortization`
Table 1    :func:`table1_area_power`
Table 2    :func:`table2_config_latency`
=========  ==========================================
"""

from .experiment import ExperimentRunner, SystemResult
from .figures import (
    Fig11Result,
    Fig12Result,
    Fig13Result,
    Fig14Result,
    Fig15Result,
    Fig16Result,
    fig11_rodinia,
    fig12_opencgra,
    fig13_breakdown,
    fig14_dynaspam,
    fig15_pe_scaling,
    fig16_amortization,
)
from .parallel import (
    Shard,
    ShardOutcome,
    ShardRunner,
    describe_error,
)
from .report import (
    format_cache_stats,
    format_latency,
    format_service_stats,
    format_value,
    geomean,
    render_table,
)
from .sweep import SweepPoint, SweepResult, pe_count_configs, sweep_backends
from .tables import (
    Table1Result,
    Table2Result,
    table1_area_power,
    table2_config_latency,
)

__all__ = [
    "ExperimentRunner",
    "SystemResult",
    "Fig11Result",
    "Fig12Result",
    "Fig13Result",
    "Fig14Result",
    "Fig15Result",
    "Fig16Result",
    "fig11_rodinia",
    "fig12_opencgra",
    "fig13_breakdown",
    "fig14_dynaspam",
    "fig15_pe_scaling",
    "fig16_amortization",
    "format_cache_stats",
    "format_latency",
    "format_service_stats",
    "format_value",
    "geomean",
    "render_table",
    "Shard",
    "ShardOutcome",
    "ShardRunner",
    "describe_error",
    "SweepPoint",
    "SweepResult",
    "pe_count_configs",
    "sweep_backends",
    "Table1Result",
    "Table2Result",
    "table1_area_power",
    "table2_config_latency",
]
