"""Cycle-accurate execution simulation and utilization metrics.

The evaluation of the paper is "based on a cycle-accurate simulation
according to the kernel mapping" (section V-B): this package executes a
mapping's modulo schedule at base-clock granularity over many loop
iterations, producing execution cycles, per-tile activity and the
utilization / average-DVFS-level metrics of Figures 2, 9, 10 and 12.
"""

from repro.sim.simulator import ExecutionStats, simulate_execution
from repro.sim.utilization import (
    UtilizationStats,
    tile_utilization,
    utilization_stats,
    average_dvfs_fraction,
)

__all__ = [
    "ExecutionStats",
    "simulate_execution",
    "UtilizationStats",
    "tile_utilization",
    "utilization_stats",
    "average_dvfs_fraction",
]
