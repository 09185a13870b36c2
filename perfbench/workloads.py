"""The four workloads: set-up, timed phase and output checks.

Each workload object is used in one fresh process:

* ``setup(seed, workdir)`` — imports and, for the warm workloads,
  warming; timed as ``setup_s``;
* ``run(rec)`` — one repetition of the timed phase; ``rec`` is a
  :class:`tracing.Recorder` in traced repetitions, else ``None``;
* ``check(outcome)`` — independent checks of that repetition's outputs,
  outside the timed phase.

Calls into the program go through module attributes (``pipeline.
compile_kernel``, not a name imported once), so the tracing wrappers
see them. The layer counters a workload reports come from what the
public API already returns (``CompileResult.engine_stats``, cache
``stats_dict()``, the fleet report's ``stats``, the daemon's
``/metrics``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Recorder, account, request_key

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Outcome:
    """One repetition of a workload's timed phase."""

    wall_s: float
    latencies_ms: list[float]
    attempted: int
    failed: int = 0
    quality: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    detail: object = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


class Workload:
    """Shared behaviour: the workload's metrics under the names the
    benchmark's issue asked for (``ALIASES``: asked-for name -> metric)."""

    cold = True
    #: Fresh processes timed for ``setup_s``. A warm workload sets up
    #: once per run: its set-up compiles (~5-10 s), and three of them per
    #: run would not fit the 92 runs of a benchmark check in its time.
    SETUP_SAMPLES = 3
    #: Untraced repetitions a run measures at least, whatever
    #: ``--seconds`` says; two halve the per-operation noise of
    #: workloads whose operations last about a second or less.
    MIN_REPS = 1
    ALIASES: dict[str, str] = {}

    def asked_for(self, metrics: dict) -> dict[str, tuple[float, str]]:
        return {alias: (metrics[name], name)
                for alias, name in self.ALIASES.items()}


# -- map_sweep ---------------------------------------------------------------

class MapSweep(Workload):
    """Cold compile of the standalone Table I kernels, every strategy
    and unroll, each mapping simulated and costed (Figs 9-11)."""

    MIN_REPS = 2
    ALIASES = {"map.ii_sum": "sim.ii_sum", "map.energy_uj": "sim.energy_uj"}
    STRATEGIES = ("baseline", "baseline+gating", "per_tile_dvfs", "iced")
    UNROLLS = (1, 2)
    ITERATIONS = 1000

    def setup(self, seed: int, workdir: Path) -> None:
        # No random inputs: the kernel set is fixed, the seed unused.
        from repro.arch.cgra import CGRA
        from repro.compile import DiskCache, MappingCache, TieredCache
        from repro.kernels.table1 import STANDALONE_KERNELS

        self.kernels = STANDALONE_KERNELS
        self.cgra = CGRA.build(6, 6, island_shape=(2, 2))
        self.cache = TieredCache(MappingCache(),
                                 DiskCache(workdir / "cache"))

    def run(self, rec: Recorder | None) -> Outcome:
        from repro.compile import pipeline
        from repro.errors import MappingError
        from repro.power import model as power
        from repro.sim import simulator

        produced = []
        latencies = []
        problems = []
        start = time.perf_counter()
        for kernel in self.kernels:
            t0 = time.perf_counter()
            for strategy in self.STRATEGIES:
                for unroll in self.UNROLLS:
                    try:
                        result = pipeline.compile_kernel(
                            kernel, self.cgra, strategy, unroll=unroll,
                            cache=self.cache)
                    except MappingError as exc:
                        problems.append(f"{kernel}/{strategy}/u{unroll}: "
                                        f"{exc}")
                        continue
                    stats = simulator.simulate_execution(result.mapping,
                                                         self.ITERATIONS)
                    report = power.mapping_power(result.mapping)
                    energy = power.energy_uj(report,
                                             stats.execution_time_us)
                    produced.append((kernel, strategy, unroll, result,
                                     stats, energy))
            # One operation is a kernel's row of Figs 9-11: a single
            # variant's latency swings with host noise far more.
            latencies.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - start

        outcome = Outcome(wall_s=wall, latencies_ms=latencies,
                          attempted=len(self.kernels) * len(
                              self.STRATEGIES) * len(self.UNROLLS),
                          detail=produced)
        for message in problems:
            outcome.fail(message)
        outcome.quality = {
            "sim.ii_sum": sum(r.mapping.ii for _, _, _, r, _, _ in produced),
            "sim.energy_uj": sum(e for *_, e in produced),
            "sim.latency_cycles": sum(s.total_cycles
                                      for *_, s, _ in produced),
        }
        cache = self.cache.stats_dict()
        outcome.layers = {
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
            "cache.stores": cache["disk_stores"],
            "cache.disk_bytes": cache["disk_bytes"],
        }
        return outcome

    def check(self, outcome: Outcome) -> None:
        """Revalidate every mapping; its II must reach the DFG's MII."""
        from repro.dfg.analysis import rec_mii, res_mii
        from repro.errors import ValidationError
        from repro.mapper.validation import validate_mapping

        for kernel, strategy, unroll, result, _, _ in outcome.detail:
            label = f"{kernel}/{strategy}/u{unroll}"
            mapping = result.mapping
            try:
                report = validate_mapping(mapping)
            except ValidationError as exc:
                outcome.fail(f"{label}: invalid mapping: {exc}")
                continue
            bound = max(rec_mii(mapping.dfg),
                        res_mii(mapping.dfg, len(mapping.cgra.tiles)))
            if report.ii != mapping.ii or mapping.ii < bound:
                outcome.fail(f"{label}: II {mapping.ii} below the MII "
                             f"{bound} or inconsistent ({report.ii})")


# -- stream_lu ---------------------------------------------------------------

class StreamLU(Workload):
    """Cold sparse_lu run: partition the LU app on the streaming fabric
    from the stream's profile prefix, then stream it through the three
    fast engines."""

    ALIASES = {"stream.iced_energy_uj": "sim.energy_uj",
               "stream.iced_p99_latency_cycles": "sim.latency_cycles"}
    SCENARIO = "sparse_lu"
    #: 40 envelope lengths: p99 over 960 windows holds still across seeds.
    INPUTS = 9600
    WINDOW = 10
    PROFILE = 50
    GOLDEN_SEED = 11
    GOLDEN = Path("tests") / "envelopes" / "sparse_lu.json"

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.streaming import (  # noqa: F401  (timed import)
            drips,
            engine,
            partitioner,
            scenarios,
        )

        self.seed = seed

    def run(self, rec: Recorder | None) -> Outcome:
        from repro.streaming import drips, engine, partitioner, scenarios
        from repro.streaming.envelopes import summarize_result
        from repro.streaming.workloads import take_inputs

        runners = {
            "iced": engine.fast_simulate_stream,
            "drips": drips.fast_simulate_drips,
            "static": drips.fast_simulate_static,
        }
        start = time.perf_counter()
        scenario = scenarios.make_scenario(self.SCENARIO, seed=self.seed,
                                           n=self.INPUTS)
        profile = take_inputs(scenario.feature_blocks(), self.PROFILE)
        partition = partitioner.partition_app(
            scenario.app, partitioner.streaming_cgra(), profile)
        results = {
            name: runner(partition, scenario.feature_blocks(), self.WINDOW)
            for name, runner in runners.items()
        }
        wall = time.perf_counter() - start

        iced = summarize_result(results["iced"])
        iis = [ii for ii in partition.ii_table.values() if ii is not None]
        iis += [p.ii for p in partition.placements]
        outcome = Outcome(wall_s=wall, latencies_ms=[wall * 1e3],
                          attempted=1 + len(results),
                          detail=(scenario, partition, results))
        outcome.quality = {
            "sim.ii_sum": sum(iis),
            "sim.energy_uj": iced["energy_uj"],
            "sim.latency_cycles": iced["p99_latency_cycles"],
        }
        from repro.compile import get_cache

        cache = get_cache().stats_dict()
        outcome.layers = {
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
            "cache.stores": cache["stores"],
        }
        return outcome

    def check(self, outcome: Outcome) -> None:
        """The scalar reference engines must equal the fast ones float
        for float; on the golden seed the 240-input envelope must sit
        inside the committed golden's tolerance band."""
        from repro.streaming import drips, engine
        from repro.streaming.envelopes import (
            compare_envelopes,
            load_envelope,
            scenario_envelope,
        )

        scenario, partition, results = outcome.detail
        inputs = scenario.generate()
        reference = {
            "iced": engine.simulate_stream,
            "drips": drips.simulate_drips,
            "static": drips.simulate_static,
        }
        for name, fast in results.items():
            scalar = reference[name](partition, inputs, self.WINDOW)
            if dataclasses.asdict(scalar) != dataclasses.asdict(fast):
                outcome.fail(f"{name}: fast engine differs from the "
                             "scalar reference")
        if self.seed == self.GOLDEN_SEED:
            outcome.attempted += 1
            golden = load_envelope(ROOT / self.GOLDEN)
            fresh = scenario_envelope(self.SCENARIO, seed=self.seed,
                                      inputs=golden["inputs"],
                                      window=golden["window"],
                                      partition=partition)
            problems = compare_envelopes(golden, fresh)
            if problems:
                outcome.fail("golden envelope: " + "; ".join(problems[:3]))


# -- fleet_day ---------------------------------------------------------------

class FleetDay(Workload):
    """Warm 1,000-tenant simulated day: every tenant binds its scenario,
    placement balances load, the batched engine runs iced/static
    groups and drips tenants take the sequential fallback."""

    cold = False
    SETUP_SAMPLES = 1
    ALIASES = {"fleet.energy_uj": "sim.energy_uj",
               "fleet.max_load_cycles": "sim.latency_cycles"}
    TENANTS = 1000
    FABRICS = 16
    INPUTS = 288
    SCENARIOS = ("enzyme", "diurnal", "bursty", "trace_fleet")
    STRATEGIES = ("iced", "static", "drips")
    PLACEMENT = "load_balanced"
    SAMPLE = 24

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.fleet import FleetSim
        from repro.streaming.partitioner import partition_app, streaming_cgra
        from repro.streaming.scenarios import make_scenario
        from repro.streaming.workloads import take_inputs

        self.seed = seed
        self.spec = self._spec(self.TENANTS)
        # Warm the partition cache: tenant 0 is the first (and only)
        # gcn tenant the fleet profiles, so a one-tenant fleet compiles
        # exactly the partition the timed run looks up.
        FleetSim(self._spec(1)).run()
        # The same partition again (a cache hit), for sim.ii_sum: the
        # fleet profiles tenant 0's first min(50, max(5, n // 3)) inputs.
        first = self.spec.tenants[0]
        scenario = make_scenario(first.scenario, seed=first.seed,
                                 n=first.inputs)
        profile = take_inputs(scenario.feature_blocks(),
                              min(50, max(5, first.inputs // 3)))
        self.partition = partition_app(scenario.app, streaming_cgra(),
                                       profile)

    def _spec(self, tenants: int):
        from repro.fleet import synthesize_fleet

        return synthesize_fleet(
            tenants, self.FABRICS, scenarios=self.SCENARIOS,
            strategies=self.STRATEGIES, inputs=self.INPUTS,
            placement=self.PLACEMENT, seed=self.seed)

    def run(self, rec: Recorder | None) -> Outcome:
        from repro.compile import get_cache
        from repro.fleet import sim as fleet

        before = get_cache().stats_dict()
        start = time.perf_counter()
        report = fleet.FleetSim(self.spec).run()
        wall = time.perf_counter() - start
        after = get_cache().stats_dict()

        stats = report["stats"]
        outcome = Outcome(wall_s=wall, latencies_ms=[wall * 1e3],
                          attempted=report["num_tenants"], detail=report)
        iis = [ii for ii in self.partition.ii_table.values()
               if ii is not None]
        iis += [p.ii for p in self.partition.placements]
        outcome.quality = {
            "sim.ii_sum": sum(iis),
            "sim.energy_uj": report["rollup"]["total_energy_uj"],
            "sim.latency_cycles":
                report["rollup"]["max_fabric_load_cycles"],
        }
        outcome.layers = {
            "fleet.batched_groups": stats["batched_groups"],
            "fleet.fallback_runs": stats["fallback_runs"],
            **{f"cache.{k}": after[k] - before[k]
               for k in ("hits", "misses", "stores")},
        }
        return outcome

    def check(self, outcome: Outcome) -> None:
        """A seeded sample of tenants, rerun one by one through the
        sequential fast engine, must reproduce their report rows."""
        from repro.fleet import FleetSim, FleetSpec

        report = outcome.detail
        rng = random.Random(self.seed)
        sample = sorted(rng.sample(range(1, self.TENANTS), self.SAMPLE))
        # Tenant 0 leads so the subset profiles the same partition.
        tenants = [self.spec.tenants[i] for i in [0] + sample]
        subset = FleetSpec(tenants=tenants, fabrics=self.spec.fabrics,
                           placement=self.spec.placement,
                           seed=self.spec.seed)
        reference = FleetSim(subset).run(batched=False)
        for tenant in tenants:
            got = dict(report["tenants"][tenant.tenant_id])
            want = dict(reference["tenants"][tenant.tenant_id])
            got.pop("fabric")
            want.pop("fabric")
            if got != want:
                outcome.fail(f"{tenant.tenant_id}: batched row differs "
                             "from its sequential rerun")
        if report["rollup"]["total_inputs"] != self.TENANTS * self.INPUTS:
            outcome.fail("fleet lost inputs")


# -- serve_hot ---------------------------------------------------------------

def _histogram_p50(before: dict, after: dict) -> float:
    """Median of the observations between two snapshots of one fixed-
    bucket histogram, interpolated linearly inside its bucket."""
    if not after:
        return 0.0
    counts = list(after["counts"])
    if before:
        counts = [a - b for a, b in zip(counts, before["counts"])]
    total = sum(counts)
    if total == 0:
        return 0.0
    bounds = [0.0] + list(after["buckets"])
    seen = 0
    for i, n in enumerate(counts):
        if n and seen + n >= total / 2:
            if i >= len(after["buckets"]):
                return bounds[-1]
            low, high = bounds[i], bounds[i + 1]
            return low + (high - low) * (total / 2 - seen) / n
        seen += n
    return bounds[-1]


class ServeHot(Workload):
    """Warm in-process daemon; two keep-alive connections in a closed
    loop replay a seeded mix of /compile requests."""

    cold = False
    SETUP_SAMPLES = 1
    MIN_REPS = 2
    ALIASES = {"serve.latency_ms.p50": "latency_ms.p50",
               "serve.latency_ms.p99": "latency_ms.p99"}
    KERNELS = ("fir", "latnrm", "mvt", "spmv", "relu", "conv")
    STRATEGIES = ("baseline", "baseline+gating", "per_tile_dvfs", "iced")
    REQUESTS = 1200
    CONNECTIONS = 2
    WORKERS = 2
    ITERATIONS = 1000

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.arch.cgra import CGRA
        from repro.compile import MappingCache, compile_kernel
        from repro.power.model import energy_uj, mapping_power
        from repro.serve import BackgroundServer, canonical_json
        from repro.sim.simulator import simulate_execution

        self.canonical_json = canonical_json
        rng = random.Random(seed)
        self.mix = [
            {"kernel": rng.choice(self.KERNELS),
             "strategy": rng.choice(self.STRATEGIES),
             "priority": ("interactive" if rng.random() < 0.25
                          else "batch")}
            for _ in range(self.REQUESTS)
        ]
        # Independent reference: direct compiles through a private cache.
        cgra = CGRA.build(6, 6, island_shape=(2, 2))
        direct = MappingCache()
        self.expected = {}
        self.quality = {"sim.ii_sum": 0, "sim.energy_uj": 0.0,
                        "sim.latency_cycles": 0}
        for kernel in self.KERNELS:
            for strategy in self.STRATEGIES:
                result = compile_kernel(kernel, cgra, strategy,
                                        cache=direct)
                self.expected[(kernel, strategy)] = (
                    result.cache_key,
                    canonical_json(result.mapping.to_dict()))
                stats = simulate_execution(result.mapping, self.ITERATIONS)
                self.quality["sim.ii_sum"] += result.mapping.ii
                self.quality["sim.energy_uj"] += energy_uj(
                    mapping_power(result.mapping), stats.execution_time_us)
                self.quality["sim.latency_cycles"] += stats.total_cycles
        self.server = BackgroundServer(
            workers=self.WORKERS, cache_dir=str(workdir / "cache"),
            shard="bench").start()
        # Warm every fingerprint of the mix (a fresh shard compiles).
        warm = [{"kernel": k, "strategy": s, "priority": "batch"}
                for k in self.KERNELS for s in self.STRATEGIES]
        responses = asyncio.run(self._replay(warm, None, 1))
        bad = [r for r in responses if r[1] != 200]
        if bad:
            raise RuntimeError(f"warm-up requests failed: {bad[:3]}")

    def asked_for(self, metrics: dict) -> dict[str, tuple[float, str]]:
        asked = super().asked_for(metrics)
        asked["serve.rps"] = (self.REQUESTS / metrics["wall_s"],
                              f"{self.REQUESTS} / wall_s")
        return asked

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.server = None

    async def _replay(self, bodies, rec, connections):
        """Closed loop: each connection sends its next request only after
        the previous answer arrived. Returns (index, status, payload,
        latency_ms) rows in completion order."""
        from repro.serve import HTTPClient

        queue: asyncio.Queue = asyncio.Queue()
        for item in enumerate(bodies):
            queue.put_nowait(item)
        rows = []

        async def connection():
            async with HTTPClient(self.server.url) as client:
                while True:
                    try:
                        index, body = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    t0 = time.perf_counter()
                    status, _, payload = await client.post("/compile", body)
                    t1 = time.perf_counter()
                    if rec is not None:
                        rec.record("serve.request", t0, t1, request_key(
                            body["kernel"], body["strategy"]))
                    rows.append((index, status, payload, (t1 - t0) * 1e3))

        await asyncio.gather(*(connection() for _ in range(connections)))
        return rows

    async def _metrics(self):
        from repro.serve import HTTPClient

        async with HTTPClient(self.server.url) as client:
            _, _, metrics = await client.get("/metrics")
            _, _, cache = await client.get("/cache/stats")
        return metrics, cache

    def run(self, rec: Recorder | None) -> Outcome:
        before, cache_before = asyncio.run(self._metrics())
        start = time.perf_counter()
        rows = asyncio.run(self._replay(self.mix, rec, self.CONNECTIONS))
        wall = time.perf_counter() - start
        after, cache_after = asyncio.run(self._metrics())

        def delta(name):
            return (after.get(name, {}).get("value", 0)
                    - before.get(name, {}).get("value", 0))

        outcome = Outcome(wall_s=wall,
                          latencies_ms=[row[3] for row in rows],
                          attempted=len(self.mix), detail=rows,
                          quality=dict(self.quality))
        outcome.layers = {
            "serve.jobs": delta("serve.compiles"),
            "serve.coalesced": delta("serve.coalesced"),
            "serve.rejected": delta("serve.rejected"),
            "serve.queue_wait_ms.p50": _histogram_p50(
                before.get("serve.queue_wait_ms"),
                after.get("serve.queue_wait_ms")),
            "serve.compile_ms.p50": _histogram_p50(
                before.get("serve.compile_ms"),
                after.get("serve.compile_ms")),
            "cache.hits": cache_after["hits"] - cache_before["hits"],
            "cache.misses": cache_after["misses"] - cache_before["misses"],
            "cache.stores": (cache_after["disk_stores"]
                             - cache_before["disk_stores"]),
            "cache.disk_bytes": cache_after["disk_bytes"],
        }
        return outcome

    def check(self, outcome: Outcome) -> None:
        """Every answer is 200 and carries exactly the bytes a direct
        compile produced for its kernel and strategy."""
        if len(outcome.detail) != len(self.mix):
            outcome.fail(f"{len(self.mix) - len(outcome.detail)} requests "
                         "never answered",
                         len(self.mix) - len(outcome.detail))
        for index, status, payload, _ in outcome.detail:
            body = self.mix[index]
            if status != 200:
                outcome.fail(f"request {index}: HTTP {status}")
                continue
            key, mapping = self.expected[(body["kernel"], body["strategy"])]
            if (payload.get("key") != key
                    or self.canonical_json(payload.get("mapping")) != mapping):
                outcome.fail(f"request {index}: served artifact differs "
                             "from a direct compile")


def daemon_overhead_ms(rec: Recorder) -> list[float]:
    """Per request: client latency minus the in-worker compile that
    served it (the longest overlapping compile span with the same
    kernel and strategy; a coalesced request shares its job's span)."""
    cols = rec.columns()
    if not len(cols["start"]):
        return []
    names = rec.layers
    request_id = names.index("serve.request") if "serve.request" in names \
        else -1
    executor_id = names.index("compile.executor") \
        if "compile.executor" in names else -1
    compiles: dict[str, list[tuple[float, float]]] = {}
    requests = []
    for index, span_id in rec.ids.items():
        layer = cols["layer"][index]
        interval = (cols["start"][index], cols["end"][index])
        if layer == executor_id:
            compiles.setdefault(span_id, []).append(interval)
        elif layer == request_id:
            requests.append((span_id, interval))
    overhead = []
    for span_id, (start, end) in requests:
        covered = max((min(end, e) - max(start, s)
                       for s, e in compiles.get(span_id, ())), default=0.0)
        overhead.append((end - start - max(covered, 0.0)) * 1e3)
    return overhead


WORKLOADS = {
    "map_sweep": MapSweep,
    "stream_lu": StreamLU,
    "fleet_day": FleetDay,
    "serve_hot": ServeHot,
}


def trace_layers(rec: Recorder, outcome: Outcome):
    """Per-layer metric values, the accounting table of one traced
    repetition and the (label, seconds) total its rows add up to.

    Single-threaded workloads account the main thread: layer self times
    plus the untraced residue equal the traced wall time. For
    ``serve_hot`` the layers are the daemon's (worker threads) and the
    table splits the clients' summed latency into those layers and the
    daemon overhead around them.
    """
    serve = "serve.request" in rec.layers
    main = rec.thread_index(threading.main_thread().ident)
    acc = account(rec, exclude_thread=main) if serve else account(
        rec, thread=main)
    values = {}
    for prefix in ("kernels.load", "dfg.analyze", "compile.pipeline",
                   "mapper.place_route", "mapper.route_search",
                   "mapper.validate"):
        values[f"{prefix}.busy_s"] = acc.busy(prefix)
        values[f"{prefix}.calls"] = acc.calls(prefix)
    for layer in ("mapper.post", "sim", "power", "streaming.partition",
                  "streaming.sim", "fleet.bind", "fleet.place",
                  "fleet.materialize", "fleet.compile", "fleet.simulate",
                  "cache.lookup", "cache.store"):
        values[f"{layer}.busy_s"] = acc.busy(layer)
    values.update(rec.counters)
    hits = values.get("mapper.route_memo_hits", 0)
    misses = values.get("mapper.route_memo_misses", 0)
    values["mapper.route_memo_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    probed = values.get("mapper.candidates_probed", 0)
    values["mapper.commit_ratio"] = (
        values.get("mapper.placements_committed", 0) / probed
        if probed else 0.0)
    values.update(outcome.layers)
    looked = values.get("cache.hits", 0) + values.get("cache.misses", 0)
    values["cache.hit_ratio"] = (values.get("cache.hits", 0) / looked
                                 if looked else 0.0)
    values["trace.spans"] = len(rec)
    rows = [(r.layer, r.self_s, r.calls) for r in acc.rows]
    if serve:
        overhead = daemon_overhead_ms(rec)
        values["serve.daemon_overhead_ms.p50"] = (
            statistics.median(overhead) if overhead else 0.0)
        values["trace.residue_s"] = 0.0
        basis = ("client latency, all requests",
                 sum(outcome.latencies_ms) / 1e3)
        rows.append(("(daemon overhead)", sum(overhead) / 1e3,
                     len(overhead)))
        rows.append(("(compile time shared by coalesced requests)",
                     basis[1] - sum(r[1] for r in rows), 0))
    else:
        values["trace.residue_s"] = outcome.wall_s - acc.roots_s
        basis = ("traced wall", outcome.wall_s)
        rows.append(("(untraced residue)", values["trace.residue_s"], 0))
    return values, rows, basis
