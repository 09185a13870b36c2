"""The benchmark's specification: workloads and metrics.

This module is the single source of ``BENCHMARK.json`` at the repo
root. Regenerate it after changing anything here::

    python3 perfbench/spec.py > BENCHMARK.json

``test_perfbench.py`` fails when the committed file and this module
disagree.
"""

from __future__ import annotations

import json

#: How long one run measures (seconds); every workload repeats its unit
#: of work until this much measured time has passed (at least once).
RUN_SECONDS = 8

WORKLOADS = (
    ("map_sweep",
     "cold 10 kernels x 4 strategies x 2 unrolls on 6x6: place_route and "
     "the cache write side (Fig 9-11 path)"),
    ("stream_lu",
     "cold sparse_lu partition (24 restricted compiles, failing IIs) then "
     "the iced/drips/static fast engines"),
    ("fleet_day",
     "warm 1,000-tenant day on 16 fabrics: zero place_route; scenario "
     "bind, placement, batched and sequential stream engines"),
    ("serve_hot",
     "warm daemon, 2 keep-alive clients replay seeded /compile requests: "
     "cache read side, post-passes, HTTP and queue"),
)

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median a metric may worsen by before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ok_rate", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("latency_ms.p50", "ms", "lower", 0.25),
    ("latency_ms.p90", "ms", "lower", 0.25),
    ("sim.ii_sum", "count", "lower", 0.05),
    ("sim.energy_uj", "uJ", "lower", 0.1),
    ("sim.latency_cycles", "cycles", "lower", 0.1),
)

#: (name, unit, better). Reported by ``--trace 1`` runs only; a layer a
#: workload does not exercise reads 0.
PER_LAYER = (
    ("kernels.load.busy_s", "s", "lower"),
    ("kernels.load.calls", "count", "lower"),
    ("dfg.analyze.busy_s", "s", "lower"),
    ("dfg.analyze.calls", "count", "lower"),
    ("compile.pipeline.busy_s", "s", "lower"),
    ("compile.pipeline.calls", "count", "lower"),
    ("mapper.place_route.busy_s", "s", "lower"),
    ("mapper.place_route.calls", "count", "lower"),
    ("mapper.route_search.busy_s", "s", "lower"),
    ("mapper.route_search.calls", "count", "lower"),
    ("mapper.iis_tried", "count", "lower"),
    ("mapper.attempts", "count", "lower"),
    ("mapper.reschedules", "count", "lower"),
    ("mapper.candidates_probed", "count", "lower"),
    ("mapper.candidates_pruned", "count", "higher"),
    ("mapper.placements_committed", "count", "lower"),
    ("mapper.routes_searched", "count", "lower"),
    ("mapper.route_memo_hit_ratio", "ratio", "higher"),
    ("mapper.commit_ratio", "ratio", "higher"),
    ("mapper.post.busy_s", "s", "lower"),
    ("mapper.validate.busy_s", "s", "lower"),
    ("mapper.validate.calls", "count", "lower"),
    ("sim.busy_s", "s", "lower"),
    ("sim.simulated_cycles", "cycles", "lower"),
    ("power.busy_s", "s", "lower"),
    ("streaming.partition.busy_s", "s", "lower"),
    ("streaming.partition.restricted_compiles", "count", "lower"),
    ("streaming.partition.infeasible_iis", "count", "lower"),
    ("streaming.partition.ii_table_entries", "count", "lower"),
    ("streaming.sim.busy_s", "s", "lower"),
    ("streaming.sim.inputs", "count", "higher"),
    ("streaming.sim.windows", "count", "higher"),
    ("fleet.bind.busy_s", "s", "lower"),
    ("fleet.place.busy_s", "s", "lower"),
    ("fleet.materialize.busy_s", "s", "lower"),
    ("fleet.compile.busy_s", "s", "lower"),
    ("fleet.simulate.busy_s", "s", "lower"),
    ("fleet.batched_groups", "count", "lower"),
    ("fleet.fallback_runs", "count", "lower"),
    ("cache.lookup.busy_s", "s", "lower"),
    ("cache.store.busy_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.disk_bytes", "B", "lower"),
    ("serve.jobs", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.compile_ms.p50", "ms", "lower"),
    ("serve.daemon_overhead_ms.p50", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.residue_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("host.calibration_s", "s", "lower"),
)

#: Per-layer counts that repeat exactly across two runs with one seed
#: (``test_perfbench.py`` pins this; see :func:`exact_counts`).
EXACT_COUNTS = (
    "kernels.load.calls", "dfg.analyze.calls", "compile.pipeline.calls",
    "mapper.place_route.calls", "mapper.route_search.calls",
    "mapper.iis_tried", "mapper.attempts", "mapper.reschedules",
    "mapper.candidates_probed", "mapper.candidates_pruned",
    "mapper.placements_committed", "mapper.routes_searched",
    "mapper.validate.calls", "sim.simulated_cycles",
    "streaming.partition.restricted_compiles",
    "streaming.partition.infeasible_iis",
    "streaming.partition.ii_table_entries",
    "streaming.sim.inputs", "streaming.sim.windows",
    "fleet.batched_groups", "fleet.fallback_runs",
)



def exact_counts(workload: str) -> tuple[str, ...]:
    """The counts that repeat exactly on ``workload``.

    On ``serve_hot`` every call count follows the number of compile
    jobs, which coalescing decides, and coalescing depends on timing; so
    do ``serve.jobs``, ``serve.coalesced`` and the cache counts. The
    cache counts are exact on the cold workloads.
    """
    if workload == "serve_hot":
        return tuple(n for n in EXACT_COUNTS if not n.endswith(".calls"))
    if workload in ("map_sweep", "stream_lu"):
        return EXACT_COUNTS + ("cache.hits", "cache.misses", "cache.stores")
    return EXACT_COUNTS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
