"""Print (or check) the sha256 of every mapping the benchmark produces.

Byte identity across commits is the contract of every mapper speedup:
a change that only makes place-and-route faster must leave each
mapping's canonical JSON unchanged. This script compiles, cold and
serially:

* the map_sweep set: the 10 standalone kernels x 4 strategies x
  unroll 1/2 on a 6x6 fabric with 2x2 islands;
* the sparse_lu partition on the streaming fabric (seed 1, 50-input
  profile): every kernel's final mapping plus the II table.

and prints one sha256 per mapping as canonical JSON. Usage:

    PYTHONPATH=src python tools/mapping_digests.py            # print
    PYTHONPATH=src python tools/mapping_digests.py --check    # gate
    PYTHONPATH=src python tools/mapping_digests.py --write    # re-record

``--check`` compares against ``tests/golden/mapping_digests.json`` and
exits 1 naming every mapping whose digest moved. Re-record only for a
change that is meant to alter mappings, and say so in its description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

GOLDEN = (Path(__file__).resolve().parent.parent / "tests" / "golden"
          / "mapping_digests.json")

STRATEGIES = ("baseline", "baseline+gating", "per_tile_dvfs", "iced")
UNROLLS = (1, 2)
STREAM_SEED = 1
STREAM_PROFILE = 50


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def map_sweep_digests() -> dict[str, str]:
    from repro.arch.cgra import CGRA
    from repro.compile import MappingCache, pipeline
    from repro.kernels.table1 import STANDALONE_KERNELS

    cgra = CGRA.build(6, 6, island_shape=(2, 2))
    cache = MappingCache()
    digests = {}
    for kernel in STANDALONE_KERNELS:
        for strategy in STRATEGIES:
            for unroll in UNROLLS:
                result = pipeline.compile_kernel(
                    kernel, cgra, strategy, unroll=unroll, cache=cache)
                digests[f"{kernel}/{strategy}/u{unroll}"] = _sha(
                    result.mapping.to_dict())
    return digests


def sparse_lu_digests() -> dict[str, str]:
    from repro.streaming import partitioner, scenarios
    from repro.streaming.workloads import take_inputs

    scenario = scenarios.make_scenario("sparse_lu", seed=STREAM_SEED)
    profile = take_inputs(scenario.feature_blocks(), STREAM_PROFILE)
    partition = partitioner.partition_app(
        scenario.app, partitioner.streaming_cgra(), profile)
    digests = {
        "ii_table": _sha(sorted(
            [name, count, ii]
            for (name, count), ii in partition.ii_table.items()
        )),
    }
    for placement in partition.placements:
        digests[f"{placement.kernel.name}@{list(placement.island_ids)}"] = \
            _sha(placement.mapping.to_dict())
    return digests


def all_digests() -> dict[str, dict[str, str]]:
    return {"map_sweep": map_sweep_digests(),
            "sparse_lu": sparse_lu_digests()}


def _diff(expected: dict, actual: dict) -> list[str]:
    problems = []
    for group in sorted(set(expected) | set(actual)):
        want, got = expected.get(group, {}), actual.get(group, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                problems.append(f"{group}/{name}: expected "
                                f"{want.get(name)}, got {got.get(name)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"compare against {GOLDEN.name}; exit 1 on drift")
    mode.add_argument("--write", action="store_true",
                      help=f"re-record {GOLDEN.name}")
    args = parser.parse_args(argv)

    digests = all_digests()
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    total = sum(map(len, digests.values()))
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text)
        print(f"wrote {total} digests to {GOLDEN}")
        return 0
    if args.check:
        problems = _diff(json.loads(GOLDEN.read_text()), digests)
        for line in problems:
            print(f"DRIFT {line}")
        print(f"{total - len(problems)}/{total} mapping digests match "
              f"{GOLDEN.name}")
        return 1 if problems else 0
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
