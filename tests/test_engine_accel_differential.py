"""Differential tests: engine accelerations are result-neutral.

The engine's numpy candidate scorer and ``EngineConfig.min_ii`` (sound
II warm starts) exist purely to make sweeps fast. Their contract —
enforced here, and for ``min_ii`` assumed by the cache layer, which
strips ``ACCEL_FIELDS`` from fingerprints — is *byte identity*: the
same mapping, the same search counters, the same per-II effort rows as
the unaccelerated reference, on every fabric/kernel pairing. The
scorer's reference is the scalar loop in :mod:`tests.reference_scoring`,
patched onto ``_Attempt`` for the reference run.

The routing distance-oracle cache is process-global by design (that is
the cross-point reuse feature), so each run clears it first. The
oracle build/reuse tallies — cache-state accounting, not search
effort — live on :class:`EngineStats` fields but are deliberately
absent from ``as_counters()`` (they would differ between ``--jobs 1``
and ``--jobs N``); counter equality below therefore covers every
counter the engine exports.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.compile.fingerprint import mapping_cache_key
from repro.kernels import load_kernel
from repro.mapper import routing
from repro.mapper.backends import KNOWN_STRATEGIES
from repro.mapper.engine import (
    ACCEL_FIELDS,
    EngineConfig,
    EngineStats,
    _Attempt,
    map_dfg,
)
from repro.mapper.exact import exact_lower_bound
from tests.reference_scoring import (
    reference_best_candidate,
    reference_candidate_tiles,
)

FABRICS = {
    "mesh44": CGRA.build(4, 4, island_shape=(2, 2)),
    "mesh63": CGRA.build(6, 3, island_shape=(3, 3)),
    "torus44": CGRA.build(4, 4, island_shape=(2, 2), topology="torus"),
    "king44": CGRA.build(4, 4, island_shape=(1, 1), topology="king"),
}

KERNELS = ("fir", "mvt", "latnrm", "dtw", "solver0", "histogram")


def _run(kernel: str, fabric: str, dvfs_aware: bool, **accel):
    """One cold engine run; returns (blob, effort counters, per-II)."""
    routing.clear_oracle_cache()
    dfg = load_kernel(kernel, 1)
    cgra = FABRICS[fabric]
    stats = EngineStats()
    config = EngineConfig(dvfs_aware=dvfs_aware, **accel)
    mapping = map_dfg(dfg, cgra, config, stats=stats)
    blob = json.dumps(mapping.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return blob, stats.as_counters(), stats.per_ii


@given(kernel=st.sampled_from(KERNELS),
       fabric=st.sampled_from(sorted(FABRICS)),
       dvfs_aware=st.booleans())
@settings(max_examples=25, deadline=None)
def test_vectorized_scoring_is_bit_identical(kernel, fabric, dvfs_aware):
    with mock.patch.object(_Attempt, "_best_candidate",
                           reference_best_candidate), \
            mock.patch.object(_Attempt, "_candidate_tiles",
                              reference_candidate_tiles):
        ref = _run(kernel, fabric, dvfs_aware)
    vec = _run(kernel, fabric, dvfs_aware)
    assert vec[0] == ref[0], "mapping blob diverged"
    assert vec[1] == ref[1], "search counters diverged"
    assert vec[2] == ref[2], "per-II effort rows diverged"


@given(kernel=st.sampled_from(KERNELS),
       fabric=st.sampled_from(sorted(FABRICS)),
       dvfs_aware=st.booleans())
@settings(max_examples=15, deadline=None)
def test_min_ii_warm_start_is_bit_identical(kernel, fabric, dvfs_aware):
    dfg = load_kernel(kernel, 1)
    bound = exact_lower_bound(dfg, FABRICS[fabric])
    cold = _run(kernel, fabric, dvfs_aware, min_ii=0)
    warm = _run(kernel, fabric, dvfs_aware, min_ii=bound)
    assert warm[0] == cold[0], "mapping blob diverged"
    # Warm starts may *skip* doomed low-II attempts entirely, so the
    # per-II row lists agree on every II both runs actually tried —
    # and the warm run tried a suffix of the cold run's IIs.
    cold_iis = [row["ii"] for row in cold[2]]
    warm_iis = [row["ii"] for row in warm[2]]
    assert warm_iis == [ii for ii in cold_iis if ii >= bound]
    assert warm[2] == [row for row in cold[2] if row["ii"] >= bound]


def test_min_ii_above_bound_skips_attempts():
    """A warm start strictly above the natural floor provably skips
    deepening work (the mechanism the DSE sibling seeding relies on)."""
    cold = _run("fft", "mesh44", False, min_ii=0)
    solved_ii = cold[2][-1]["ii"]
    assert cold[2][-1]["outcome"] == "mapped"
    warm = _run("fft", "mesh44", False, min_ii=solved_ii)
    assert warm[0] == cold[0]
    assert len(warm[2]) == 1 and warm[2][0]["ii"] == solved_ii


@pytest.mark.parametrize("field", ACCEL_FIELDS)
def test_accel_fields_do_not_split_the_cache(field):
    dfg = load_kernel("fir", 1)
    cgra = FABRICS["mesh44"]
    toggled = {"min_ii": EngineConfig(min_ii=7)}[field]
    assert (mapping_cache_key(dfg, cgra, EngineConfig(), "engine")
            == mapping_cache_key(dfg, cgra, toggled, "engine"))


#: ``mapping_cache_key`` of fir on ``FABRICS["mesh44"]`` per strategy,
#: recorded before ``EngineConfig`` lost its ``vectorize`` field. Equal
#: digests mean no disk-cache entry or served artifact changed identity.
PINNED_KEYS = {
    "baseline":
        "3545eac7904c39adb91e41efe128b8df5e67e098687a8b3805e53ed63ae26418",
    "baseline+gating":
        "3545eac7904c39adb91e41efe128b8df5e67e098687a8b3805e53ed63ae26418",
    "per_tile_dvfs":
        "3545eac7904c39adb91e41efe128b8df5e67e098687a8b3805e53ed63ae26418",
    "iced":
        "b54369d91cf9deb5ba33afd1e753b0a9b3540aa7b1baae41db193dc68c65fb78",
    "anneal":
        "3545eac7904c39adb91e41efe128b8df5e67e098687a8b3805e53ed63ae26418",
}


def test_cache_keys_are_pinned():
    dfg = load_kernel("fir", 1)
    cgra = FABRICS["mesh44"]
    assert ACCEL_FIELDS == ("min_ii",)
    assert set(PINNED_KEYS) == set(KNOWN_STRATEGIES)
    for strategy in KNOWN_STRATEGIES:
        config = EngineConfig.for_strategy(strategy)
        assert (mapping_cache_key(dfg, cgra, config, "engine")
                == PINNED_KEYS[strategy]), strategy


def test_oracle_cache_reuse_is_observable():
    """Two identical runs without clearing: the second reuses columns
    the first built (the cross-point channel the DSE driver exploits)."""
    routing.clear_oracle_cache()
    dfg = load_kernel("fir", 1)
    cgra = FABRICS["mesh44"]
    first = EngineStats()
    map_dfg(dfg, cgra, EngineConfig(), stats=first)
    second = EngineStats()
    map_dfg(dfg, cgra, EngineConfig(), stats=second)
    assert first.oracle_cols_built > 0
    assert second.oracle_cols_built == 0
    assert second.oracle_cols_reused > 0
    routing.clear_oracle_cache()
