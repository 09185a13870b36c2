"""Differential property tests: optimized router vs. reference Dijkstra.

The optimized ``find_route`` (distance-oracle pruning, deadline-tight
first pass, bit-parallel layered search over the pool's capacity masks,
route memo) must return exactly what the plain reference Dijkstra in
:mod:`tests.reference_routing` returns, on random fabrics under random
congestion — same path, same depart, same arrival, and the same
earliest-arrival probe the engine's issue-time jump relies on.
Same-tile queries are the one deliberate divergence (the optimized
probe is strictly more informative); their contract is pinned down
separately.

The layered search serves every slowdown vector, so scenarios draw
three kinds — mixed, all ones, and all slowed (no tile at speed) — on
mesh, torus and king fabrics up to 6x6, including a non-square torus
whose wrap shifts differ from its row shifts. Congestion is built from
claims interleaved with a checkpoint and a rollback, so the masks the
rollback clears are exercised too. Queries run with and without a route
memo (whose cached horizon masks and slowdown groups the search reads),
and with congested destination registers that push the accepted
arrival past the earliest one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.errors import MappingError
from repro.mapper.routing import RouteMemo, find_route
from repro.mrrg.mrrg import MRRG, wait_claims
from tests.reference_routing import reference_find_route

FABRICS = {
    "mesh33": CGRA.build(3, 3, island_shape=(1, 1)),
    "mesh42": CGRA.build(4, 2, island_shape=(2, 2)),
    "torus33": CGRA.build(3, 3, island_shape=(1, 1), topology="torus"),
    "king33": CGRA.build(3, 3, island_shape=(1, 1), topology="king"),
    "mesh66": CGRA.build(6, 6, island_shape=(2, 2)),
    "torus34": CGRA.build(3, 4, island_shape=(1, 1), topology="torus"),
    "mesh25": CGRA.build(2, 5, island_shape=(1, 1)),
}


def _examples(n: int) -> int:
    """``n`` examples under the default profile, scaled with the loaded
    profile's ``max_examples`` (the ``deep`` profile runs 10x)."""
    return n * settings.default.max_examples // 100


def _fill(pool, key, start: int, length: int) -> None:
    """Claim ``key`` over the interval until it is at capacity."""
    for _ in range(pool.capacity(key)):
        try:
            pool.claim(key, start, length)
        except MappingError:
            return


def _congest(draw, pool, keys, ii: int, max_claims: int) -> None:
    """Up to ``max_claims`` random claims, applied best-effort
    (overflows are simply skipped)."""
    for _ in range(draw(st.integers(min_value=0, max_value=max_claims))):
        key = draw(st.sampled_from(keys))
        start = draw(st.integers(min_value=0, max_value=2 * ii))
        length = draw(st.integers(min_value=1, max_value=ii + 2))
        try:
            pool.claim(key, start, length)
        except MappingError:
            pass


SLOWDOWN_KINDS = ("mixed", "uniform", "slowed")


@st.composite
def routing_scenario(draw, slowdowns=SLOWDOWN_KINDS):
    """A congested MRRG plus one routing query.

    ``slowdowns`` picks the slowdown vector's kind: ``"mixed"`` draws
    each tile from ``[1, 1, 2, 4]``, ``"uniform"`` is all ones and
    ``"slowed"`` draws each tile from ``[2, 4]``.
    """
    cgra = FABRICS[draw(st.sampled_from(sorted(FABRICS)))]
    num = cgra.num_tiles
    ii = draw(st.integers(min_value=1, max_value=5))
    mrrg = MRRG(cgra, ii, xbar_capacity=draw(st.integers(1, 3)))
    src = draw(st.integers(0, num - 1))
    dst = draw(st.integers(0, num - 1))

    # Random congestion against every resource kind: claims, then a
    # checkpoint, more claims and (usually) a rollback of those.
    keys = [("link", u, v) for u in range(num) for v in cgra._neighbors[u]]
    keys += [(kind, tile) for kind in ("fu", "xbar", "reg")
             for tile in range(num)]
    _congest(draw, mrrg.pool, keys, ii, 25)
    token = mrrg.pool.checkpoint()
    _congest(draw, mrrg.pool, keys, ii, 15)
    if draw(st.integers(0, 3)):
        mrrg.pool.rollback(token)
    # Full destination registers in some slots: early arrivals cannot
    # wait there, so the search runs on to a later one.
    for slot in draw(st.sets(st.integers(0, ii - 1), max_size=ii)):
        _fill(mrrg.pool, ("reg", dst), slot, 1)

    kind = draw(st.sampled_from(slowdowns))
    if kind == "uniform":
        slow = (1,) * num
    else:
        choices = [1, 1, 2, 4] if kind == "mixed" else [2, 4]
        slow = tuple(draw(st.sampled_from(choices)) for _ in range(num))
    ready = draw(st.integers(min_value=0, max_value=8))
    deadline = ready + draw(st.integers(min_value=-3, max_value=12))
    horizon = deadline + draw(st.sampled_from([0, 0, ii, 2 * ii]))
    max_wait = draw(st.sampled_from([None, 0, 1, 2 * ii]))
    return mrrg, slow, src, ready, dst, deadline, horizon, max_wait


def _run_both(scenario, memo=None):
    mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
    slowdown_of = slow.__getitem__
    ref = reference_find_route(mrrg, slowdown_of, src, ready, dst,
                               deadline, max_wait=max_wait, horizon=horizon)
    new = find_route(mrrg, slowdown_of, src, ready, dst, deadline,
                     max_wait=max_wait, horizon=horizon, memo=memo)
    return ref, new


def _assert_same(ref, new):
    (ref_route, ref_probe), (new_route, new_probe) = ref, new
    assert (ref_route is None) == (new_route is None)
    if ref_route is not None:
        assert new_route.path == ref_route.path
        assert new_route.depart == ref_route.depart
        assert new_route.arrival == ref_route.arrival
    assert new_probe == ref_probe


class TestRouterEquivalence:
    @given(scenario=routing_scenario())
    @settings(max_examples=_examples(120), deadline=None)
    def test_cross_tile_results_identical(self, scenario):
        """src != dst: the full (route, probe) pair must match."""
        mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
        if src == dst:
            return
        _assert_same(*_run_both(scenario))

    @given(scenario=routing_scenario(), memoized=st.booleans())
    @settings(max_examples=_examples(240), deadline=None)
    def test_layered_search_identical(self, scenario, memoized):
        """Every slowdown kind, with the plain distance oracle or a
        memo's weighted one: same (route, probe)."""
        mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
        if src == dst:
            return
        memo = RouteMemo() if memoized else None
        _assert_same(*_run_both(scenario, memo=memo))

    @pytest.mark.parametrize("fabric", ["mesh66", "king33", "torus33"])
    @pytest.mark.parametrize("memoized", [False, True])
    def test_congested_destination_forces_late_arrival(self, fabric,
                                                       memoized):
        """The heavy tail: the destination registers are full in the
        slot just before the deadline, so only an arrival exactly at the
        deadline can hold the value, long after the earliest one."""
        cgra = FABRICS[fabric]
        ii, src, dst, ready, deadline = 5, 0, cgra.num_tiles - 1, 1, 12
        mrrg = MRRG(cgra, ii)
        _fill(mrrg.pool, ("reg", dst), deadline - 1, 1)
        scenario = (mrrg, (1,) * cgra.num_tiles, src, ready, dst,
                    deadline, deadline + ii, None)
        ref, new = _run_both(scenario,
                             memo=RouteMemo() if memoized else None)
        _assert_same(ref, new)
        route, probe = new
        assert route.arrival == probe == deadline
        assert ready + cgra.distance(src, dst) < deadline

    @given(scenario=routing_scenario())
    @settings(max_examples=_examples(80), deadline=None)
    def test_same_tile_contract(self, scenario):
        """src == dst: same feasibility; the optimized probe is the
        latest deadline the registers can hold the value for."""
        mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
        if src != dst:
            return
        (ref_route, ref_probe), (new_route, new_probe) = _run_both(scenario)
        if deadline < ready:
            # Reference gives no hint; the optimized router reports
            # ``ready`` so the engine can jump the issue time.
            assert ref_route is None and ref_probe is None
            assert new_route is None and new_probe == ready
            return
        assert (ref_route is None) == (new_route is None)
        if ref_route is not None:
            assert (new_route.path, new_route.depart, new_route.arrival) \
                == (ref_route.path, ref_route.depart, ref_route.arrival)
            assert new_probe == ref_probe == ready
            return
        # Blocked wait: the reference only says ``ready``; the optimized
        # probe must be the exact feasibility frontier.
        assert ref_probe == ready
        assert ready <= new_probe < deadline
        assert mrrg.is_free(wait_claims(src, ready, new_probe))
        assert not mrrg.is_free(wait_claims(src, ready, new_probe + 1))

    @given(scenario=routing_scenario())
    @settings(max_examples=_examples(60), deadline=None)
    def test_memoized_result_identical(self, scenario):
        """A memo hit must reproduce the fresh search exactly, and a
        pool mutation (new congestion epoch) must not serve stale hits."""
        mrrg, slow, src, ready, dst, deadline, horizon, max_wait = scenario
        memo = RouteMemo()
        first = _run_both(scenario, memo=memo)[1]
        again = _run_both(scenario, memo=memo)[1]
        assert again == first
        if src != dst and memo.misses:
            assert memo.hits >= 1
        # Mutate routing-visible occupancy, then compare the memoized
        # router against the reference on the new state.
        try:
            mrrg.pool.claim(("xbar", dst), 0, 1)
        except MappingError:
            return
        ref, new = _run_both(scenario, memo=memo)
        if src != dst:
            assert (ref[0] is None) == (new[0] is None)
            assert ref[1] == new[1]
            if ref[0] is not None:
                assert (new[0].path, new[0].depart, new[0].arrival) == \
                    (ref[0].path, ref[0].depart, ref[0].arrival)
