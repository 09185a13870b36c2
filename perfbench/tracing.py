"""Spans around calls into each layer, recorded from the benchmark only.

:func:`install` replaces a fixed list of layer entry points with timing
wrappers and :func:`uninstall` restores them; nothing under ``src/``
changes. Functions are imported by name, so each wrapper is installed
at the attribute its caller resolves at call time (for example
``repro.mapper.engine.find_route``, not ``repro.mapper.routing``).

One span per wrapped call is kept in memory as columns (layer, start,
end, parent, thread, id) and written out when the run ends. A span's
*self time* is its duration minus the time its child spans cover;
children run on the parent's thread, one after another, so that is the
sum of their durations. Summed per layer, self times plus the untraced
residue add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field

import numpy as np


class Recorder:
    """Columnar in-memory span store; safe to share across threads."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ids: dict[int, str] = {}
        self.counters: dict[str, float] = {}
        self._threads: dict[int, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def thread_index(self, ident: int) -> int:
        """The ``thread`` column value of a thread (by ``ident``)."""
        with self._lock:
            return self._threads.get(ident, -1)

    def layer_id(self, name: str) -> int:
        with self._lock:
            if name not in self._layer_ids:
                self._layer_ids[name] = len(self.layers)
                self.layers.append(name)
            return self._layer_ids[name]

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, layer_id: int, span_id: str | None = None) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.start)
            tid = self._threads.setdefault(threading.get_ident(),
                                           len(self._threads))
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.thread.append(tid)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            if span_id is not None:
                self.ids[index] = span_id
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._local.stack.pop()

    def record(self, layer: str, start: float, end: float,
               span_id: str | None = None) -> None:
        """Add a finished top-level span timed by the caller (for work
        that interleaves on one thread, such as asyncio requests)."""
        layer_id = self.layer_id(layer)
        with self._lock:
            index = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(-1)
            self.thread.append(self._threads.setdefault(
                threading.get_ident(), len(self._threads)))
            self.start.append(start)
            self.end.append(end)
            if span_id is not None:
                self.ids[index] = span_id

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the layer names and ids) to ``path``."""
        ids = sorted(self.ids.items())
        np.savez_compressed(
            path, layers=np.array(self.layers), **self.columns(),
            id_index=np.array([i for i, _ in ids], dtype=np.int64),
            id_value=np.array([v for _, v in ids]),
        )


@dataclass
class LayerRow:
    layer: str
    self_s: float
    calls: int


@dataclass
class Accounting:
    """Per-layer self times of one traced phase."""

    rows: list[LayerRow] = field(default_factory=list)
    roots_s: float = 0.0

    def busy(self, layer: str) -> float:
        return sum(r.self_s for r in self.rows if r.layer == layer)

    def calls(self, layer: str) -> int:
        return sum(r.calls for r in self.rows if r.layer == layer)


def account(rec: Recorder, thread: int | None = None,
            exclude_thread: int | None = None) -> Accounting:
    """Self time and call count per layer, over the spans of ``thread``
    (default: every thread but ``exclude_thread``).

    ``calls`` counts spans not directly nested in a span of the same
    layer, so a memory lookup inside a tiered lookup is one call.
    ``roots_s`` sums the durations of the selected top-level spans —
    the traced time the layers account for.
    """
    cols = rec.columns()
    n = len(cols["start"])
    if n == 0:
        return Accounting()
    duration = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child_time = np.zeros(n)
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    layer = cols["layer"]
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
    outermost = parent_layer != layer
    if thread is not None:
        selected = cols["thread"] == thread
    else:
        selected = cols["thread"] != exclude_thread
    rows = []
    for lid, name in enumerate(rec.layers):
        mask = (layer == lid) & selected
        if mask.any():
            rows.append(LayerRow(name, float(self_time[mask].sum()),
                                 int((mask & outermost).sum())))
    rows.sort(key=lambda r: -r.self_s)
    roots = (~has_parent) & selected
    return Accounting(rows, float(duration[roots].sum()))


# -- wrap targets -------------------------------------------------------------

def _compile_hook(rec: Recorder, result, args, kwargs) -> None:
    stats = getattr(result, "engine_stats", None)
    if stats is not None:
        for key, value in stats.as_counters().items():
            rec.count(f"mapper.{key}", value)


def _restricted_compile_hook(rec: Recorder, result, args, kwargs) -> None:
    _compile_hook(rec, result, args, kwargs)
    rec.count("streaming.partition.restricted_compiles")
    stats = result.engine_stats
    if stats is not None:
        rec.count("streaming.partition.infeasible_iis", stats.iis_tried - 1)


def _restricted_compile_error(rec: Recorder, exc) -> None:
    rec.count("streaming.partition.restricted_compiles")


def _partition_hook(rec: Recorder, result, args, kwargs) -> None:
    rec.count("streaming.partition.ii_table_entries", len(result.ii_table))


def _sim_hook(rec: Recorder, result, args, kwargs) -> None:
    rec.count("sim.simulated_cycles", result.total_cycles)


def _stream_hook(rec: Recorder, result, args, kwargs) -> None:
    rec.count("streaming.sim.inputs", result.inputs)
    rec.count("streaming.sim.windows", len(result.windows))


def _batched_hook(rec: Recorder, result, args, kwargs) -> None:
    tenants = len(result.total_energy_uj)
    rec.count("streaming.sim.inputs", result.inputs * tenants)
    rec.count("streaming.sim.windows", len(result.window_inputs) * tenants)


def _executor_id(args, kwargs) -> str:
    items = args[1] if len(args) > 1 else kwargs["items"]
    return ";".join(request_key(i.kernel, i.strategy, i.unroll)
                    for i in items)


def request_key(kernel, strategy, unroll=1) -> str:
    """Identity shared by a client request span and the compile span
    that served it."""
    return f"{kernel}/{strategy}/u{unroll}"


#: (module, attribute path, layer, result hook, span-id function).
#: ``Class.method`` patches the class; ``NAME[key]`` patches a dict entry.
TARGETS = (
    ("repro.kernels.suite", "load_kernel", "kernels.load", None, None),
    ("repro.streaming.app", "load_kernel", "kernels.load", None, None),
    ("repro.serve.service", "load_kernel", "kernels.load", None, None),
    ("repro.kernels.synthesis", "dfg_stats", "dfg.analyze", None, None),
    ("repro.dfg.analysis", "rec_mii", "dfg.analyze", None, None),
    ("repro.dfg.analysis", "analyze_dfg", "dfg.analyze", None, None),
    ("repro.compile.pipeline", "analyze_dfg", "dfg.analyze", None, None),
    ("repro.compile.pipeline", "compile_kernel", "compile.pipeline",
     _compile_hook, None),
    ("repro.compile.parallel", "compile_kernel", "compile.pipeline",
     _compile_hook, None),
    ("repro.compile.parallel", "compile_dfg", "compile.pipeline",
     _compile_hook, None),
    ("repro.streaming.partitioner", "compile_dfg", "compile.pipeline",
     _restricted_compile_hook, None),
    ("repro.compile.parallel", "SweepExecutor.run", "compile.executor",
     None, _executor_id),
    ("repro.mapper.backends", "EngineBackend.map", "mapper.place_route",
     None, None),
    ("repro.mapper.engine", "find_route", "mapper.route_search", None,
     None),
    ("repro.compile.pipeline", "refine_island_levels", "mapper.post",
     None, None),
    ("repro.compile.pipeline", "gate_unused_tiles", "mapper.post", None,
     None),
    ("repro.compile.pipeline", "assign_per_tile_dvfs", "mapper.post",
     None, None),
    ("repro.compile.pipeline", "validate_mapping", "mapper.validate", None,
     None),
    ("repro.compile.parallel", "validate_mapping", "mapper.validate", None,
     None),
    ("repro.compile.cache", "MappingCache.lookup", "cache.lookup", None,
     None),
    ("repro.compile.cache", "MappingCache.store", "cache.store", None,
     None),
    ("repro.compile.cache", "MappingCache.store_serialized", "cache.store",
     None, None),
    ("repro.compile.diskcache", "DiskCache.load_blob", "cache.lookup",
     None, None),
    ("repro.compile.diskcache", "DiskCache.store_serialized",
     "cache.store", None, None),
    ("repro.compile.diskcache", "TieredCache.lookup", "cache.lookup", None,
     None),
    ("repro.compile.diskcache", "TieredCache.store", "cache.store", None,
     None),
    ("repro.sim.simulator", "simulate_execution", "sim", _sim_hook, None),
    ("repro.power.model", "mapping_power", "power", None, None),
    ("repro.power.model", "energy_uj", "power", None, None),
    ("repro.streaming.partitioner", "partition_app", "streaming.partition",
     _partition_hook, None),
    ("repro.fleet.sim", "partition_app", "streaming.partition",
     _partition_hook, None),
    ("repro.streaming.engine", "fast_simulate_stream", "streaming.sim",
     _stream_hook, None),
    ("repro.streaming.drips", "fast_simulate_static", "streaming.sim",
     _stream_hook, None),
    ("repro.streaming.drips", "fast_simulate_drips", "streaming.sim",
     _stream_hook, None),
    ("repro.fleet.sim", "_SEQUENTIAL_RUNNERS[iced]", "streaming.sim",
     _stream_hook, None),
    ("repro.fleet.sim", "_SEQUENTIAL_RUNNERS[static]", "streaming.sim",
     _stream_hook, None),
    ("repro.fleet.sim", "_SEQUENTIAL_RUNNERS[drips]", "streaming.sim",
     _stream_hook, None),
    ("repro.fleet.sim", "make_scenario", "fleet.bind", None, None),
    ("repro.fleet.sim", "place_tenants", "fleet.place", None, None),
    ("repro.fleet.sim", "FleetSim._materialize", "fleet.materialize", None,
     None),
    ("repro.fleet.sim", "FleetSim._compile", "fleet.compile", None, None),
    ("repro.fleet.sim", "simulate_group_batched", "fleet.simulate",
     _batched_hook, None),
)

#: Hooks for calls that raise (the exception still propagates).
ERROR_HOOKS = {_restricted_compile_hook: _restricted_compile_error}


def _wrap(rec: Recorder, fn, layer: str, hook, id_of):
    layer_id = rec.layer_id(layer)
    on_error = ERROR_HOOKS.get(hook)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(layer_id,
                         id_of(args, kwargs) if id_of else None)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(rec, exc)
            raise
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, result, args, kwargs)
        return result

    return wrapper


class _Patch:
    """One installed wrapper and how to put the original back."""

    def __init__(self, owner, attr: str, key, original):
        self.owner, self.attr, self.key = owner, attr, key
        self.original = original

    def restore(self) -> None:
        if self.key is None:
            setattr(self.owner, self.attr, self.original)
        else:
            getattr(self.owner, self.attr)[self.key] = self.original


def install(rec: Recorder) -> list[_Patch]:
    """Wrap every target; returns the patches :func:`uninstall` undoes.

    A target that no longer exists is reported on stderr and skipped,
    so a renamed function costs that layer's attribution, not the run.
    """
    patches: list[_Patch] = []
    for module_name, path, layer, hook, id_of in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            attr, key = path, None
            if "[" in path:
                attr, key = path[:-1].split("[")
            elif "." in path:
                cls, attr = path.split(".")
                owner = getattr(owner, cls)
            if key is None:
                original = owner.__dict__[attr] if isinstance(
                    owner, type) else getattr(owner, attr)
            else:
                original = getattr(owner, attr)[key]
        except (ImportError, AttributeError, KeyError, ValueError):
            print(f"perfbench: wrap target {module_name}.{path} not found; "
                  f"layer {layer} loses that attribution", file=sys.stderr)
            continue
        wrapper = _wrap(rec, original, layer, hook, id_of)
        if key is None:
            setattr(owner, attr, wrapper)
        else:
            getattr(owner, attr)[key] = wrapper
        patches.append(_Patch(owner, attr, key, original))
    return patches


def uninstall(patches: list[_Patch]) -> None:
    for patch in reversed(patches):
        patch.restore()
