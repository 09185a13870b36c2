"""The repository benchmark: one workload per run, every metric printed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload map_sweep --seed 1 --seconds 10 \\
        --trace 0

``--workload`` is one of ``map_sweep``, ``stream_lu``, ``fleet_day`` and
``serve_hot`` (see ``perfbench/README.md``). Each run repeats its
workload's timed phase until ``--seconds`` of measured time have
passed and at least the workload's ``MIN_REPS`` repetitions ran:

* cold workloads (``map_sweep``, ``stream_lu``) run every repetition in
  a fresh process with an empty cache directory;
* warm workloads (``fleet_day``, ``serve_hot``) set up and warm once in
  one process, then repeat the timed phase there.

Every measuring process runs on one core.

Set-up (process start, imports, warming) is timed in fresh processes
(three for a cold workload, the run's one for a warm workload, whose
set-up compiles) and reported as their median, ``setup_s``.
Every repetition's outputs are checked; ``failed`` counts wrong or
failed operations.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` the run alternates untraced and
traced repetitions, records one span per call into each layer (see
``tracing.py``), prints the per-layer self-time table and reports the
per-layer metrics instead. Spans go to ``.perfbench/traces/`` and the
full run record (host, repetitions, tables) to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: A run starts no new process once this many seconds have passed, so
#: it ends well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, best of three. Recorded
    beside each run to compare hosts; never gated."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - t0)
    return best


def host_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": calibrate(),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def enough(reps: list[dict], workload, args) -> bool:
    """Whether a run has measured enough: ``--seconds`` of timed phase,
    the workload's minimum of untraced repetitions and, when tracing,
    at least one traced repetition."""
    plain = sum(not r["traced"] for r in reps)
    return (sum(r["wall_s"] for r in reps) >= args.seconds
            and plain >= workload.MIN_REPS
            and (not args.trace or plain < len(reps)))


# -- child process -------------------------------------------------------------

def _rep(workload, traced: bool, trace_path: Path) -> dict:
    import tracing
    import workloads

    rec = patches = None
    if traced:
        rec = tracing.Recorder()
        patches = tracing.install(rec)
    try:
        outcome = workload.run(rec)
    finally:
        if patches is not None:
            tracing.uninstall(patches)
    workload.check(outcome)
    rep = {
        "traced": traced,
        "wall_s": outcome.wall_s,
        "latencies_ms": outcome.latencies_ms,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "quality": outcome.quality,
    }
    if traced:
        layers, table, basis = workloads.trace_layers(rec, outcome)
        rep["layers"] = layers
        rep["table"] = table
        rep["basis"] = basis
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        rec.save(trace_path)
        rep["trace_file"] = str(trace_path.relative_to(ROOT))
    return rep


def child(args) -> int:
    import workloads

    # One core: serve_hot's event loop, workers and clients share one
    # interpreter lock, and handing it across two cores the host also
    # runs other work on made that workload ~60% slower and its run-to-
    # run spread 3x wider; the single-threaded workloads do not care.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload]()
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload.setup(args.seed, workdir)
        result = {"setup_s": time.monotonic() - args.spawned_at, "reps": []}
        if args.child == "run":
            trace_path = (OUT / "traces"
                          / f"{args.workload}-s{args.seed}.npz")
            reps = result["reps"]
            traced = bool(args.first_traced)
            while True:
                t0 = time.monotonic()
                reps.append(_rep(workload, traced, trace_path))
                rep_s = time.monotonic() - t0
                if workload.cold or enough(reps, workload, args):
                    break
                if time.monotonic() + rep_s > args.deadline:
                    break
                if args.trace:
                    traced = not traced
        result["peak_rss_mb"] = peak_rss_mb()
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# -- parent process ------------------------------------------------------------

def _spawn(args, mode: str, traced: bool, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--child", mode, "--spawned-at", repr(time.monotonic()),
        "--deadline", repr(deadline), "--first-traced", str(int(traced)),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=175)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args.workload} {mode} process exited "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parent(args) -> int:
    import workloads
    from spec import END_TO_END, PER_LAYER

    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    host = host_record()
    workload = workloads.WORKLOADS[args.workload]()
    runs = []
    traced = False
    while True:
        t0 = time.monotonic()
        runs.append(_spawn(args, "run", traced, deadline))
        reps = [r for run in runs for r in run["reps"]]
        if not workload.cold or enough(reps, workload, args):
            break
        if time.monotonic() + (time.monotonic() - t0) > deadline:
            break
        if args.trace:
            traced = not traced
    setups = [run["setup_s"] for run in runs]
    while len(setups) < workload.SETUP_SAMPLES:
        if time.monotonic() + max(setups) > deadline:
            break
        setups.append(_spawn(args, "setup", False, deadline)["setup_s"])

    reps = [r for run in runs for r in run["reps"]]
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    qualities = {json.dumps(r["quality"], sort_keys=True) for r in reps}
    if len(qualities) > 1:
        failed += 1
        problems.append("simulated quality differs between repetitions")

    wall = statistics.median(r["wall_s"] for r in plain)
    latencies = [x for r in plain for x in r["latencies_ms"]]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ok_rate": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(
            run["peak_rss_mb"] for run in runs
            if any(not r["traced"] for r in run["reps"])),
        "latency_ms.p50": percentile(latencies, 0.50),
        "latency_ms.p90": percentile(latencies, 0.90),
        **plain[0]["quality"],
    }
    # Printed and recorded, not gated: across runs it swings with host
    # noise by more than any bound the benchmark may set.
    p99 = percentile(latencies, 0.99)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    print(f"host: {host['nproc']} cpus ({host['affinity']} usable), "
          f"python {host['python']}, numpy {host['numpy']}, "
          f"calibration {host['calibration_s']:.4f} s")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced + "
          f"{len(traced_reps)} traced repetitions, {len(setups)} set-ups, "
          f"{len(latencies)} latency samples, "
          f"fail_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for message in problems[:10]:
        print(f"  FAILED: {message}")
    for name, value in end_to_end.items():
        print(f"  {name:<22} {value:>16.6g} {units[name]}")
    print(f"  {'latency_ms.p99':<22} {p99:>16.6g} ms (not gated)")
    asked = workload.asked_for({**end_to_end, "latency_ms.p99": p99})
    for alias, (value, source) in asked.items():
        print(f"  {alias:<30} {value:>14.6g}  (= {source})")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "host": host, "setups_s": setups,
              "end_to_end": end_to_end, "latency_ms.p99": p99,
              "runs": runs}

    metrics = end_to_end
    if args.trace:
        first = traced_reps[0]
        layers = dict(first["layers"])
        layers["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced_reps) / wall)
        layers["host.calibration_s"] = host["calibration_s"]
        metrics = {name: layers.get(name, 0) for name, *_ in PER_LAYER}
        print(f"traced wall {first['wall_s']:.3f} s vs untraced "
              f"{wall:.3f} s (overhead x{layers['trace.overhead_ratio']:.3f})"
              f"; spans in {first['trace_file']}")
        label, total = first["basis"]
        print(f"  {'layer':<44} {'self s':>10} {'share':>7} {'calls':>9}")
        for layer, self_s, calls in first["table"]:
            print(f"  {layer:<44} {self_s:>10.4f} {self_s / total:>7.1%} "
                  f"{calls:>9}")
        print(f"  {'(' + label + ')':<44} {total:>10.4f}")
        record["per_layer"] = metrics

    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=("map_sweep", "stream_lu", "fleet_day",
                                 "serve_hot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    hidden = argparse.SUPPRESS
    parser.add_argument("--child", choices=("run", "setup"), help=hidden)
    parser.add_argument("--spawned-at", type=float, help=hidden)
    parser.add_argument("--deadline", type=float, help=hidden)
    parser.add_argument("--first-traced", type=int, default=0, help=hidden)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
