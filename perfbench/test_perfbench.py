"""Tests of the benchmark itself (not part of the repository's tier-1
suite, which collects ``tests/`` only).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

``test_counts_repeat_exactly`` runs every workload twice with tracing
on and takes several minutes; deselect it with ``-k 'not exactly'``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_spec_names_units_and_bounds():
    doc = spec.benchmark_json()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    metrics = doc["end_to_end"] + doc["per_layer"]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    per_layer = {m["name"] for m in doc["per_layer"]}
    assert set(spec.EXACT_COUNTS) <= per_layer


def test_self_times_add_up_to_the_traced_time():
    rec = tracing.Recorder()

    def span(layer, seconds, *children):
        index = rec.open(rec.layer_id(layer))
        time.sleep(seconds)
        for child in children:
            span(*child)
        rec.close(index)

    span("outer", 0.01, ("inner", 0.02, ("inner", 0.01)), ("other", 0.01))
    span("other", 0.005)
    rec.record("client", time.perf_counter() - 0.5, time.perf_counter())
    acc = tracing.account(rec, thread=0)
    assert sum(r.self_s for r in acc.rows) == pytest.approx(acc.roots_s)
    assert acc.calls("inner") == 1  # the nested same-layer span folds in
    assert acc.calls("other") == 2
    assert acc.busy("inner") >= 0.03


def test_install_wraps_and_uninstall_restores():
    import repro.compile.diskcache as diskcache
    import repro.fleet.sim as fleet_sim
    import repro.mapper.engine as engine

    originals = (engine.find_route, diskcache.TieredCache.lookup,
                 fleet_sim._SEQUENTIAL_RUNNERS["drips"])
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    try:
        assert len(patches) == len(tracing.TARGETS)
        assert engine.find_route is not originals[0]
        assert engine.find_route.__wrapped__ is originals[0]
    finally:
        tracing.uninstall(patches)
    assert (engine.find_route, diskcache.TieredCache.lookup,
            fleet_sim._SEQUENTIAL_RUNNERS["drips"]) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("map_sweep", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", [n for n, _ in spec.WORKLOADS])
def test_counts_repeat_exactly(workload):
    """Two same-seed traced runs: every named count, and every simulated
    quality figure, must match exactly."""
    runs = []
    for _ in range(2):
        proc = _run(workload, 3, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        record = json.loads((ROOT / ".perfbench" / "runs"
                             / f"{workload}-s3-t1.json").read_text())
        runs.append((result["metrics"], record["end_to_end"]))
    (first, first_e2e), (second, second_e2e) = runs
    for name in spec.exact_counts(workload):
        assert first[name]["value"] == second[name]["value"], name
    for name in ("sim.ii_sum", "sim.energy_uj", "sim.latency_cycles"):
        assert first_e2e[name] == second_e2e[name], name
