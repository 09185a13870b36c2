"""Routing over the time-extended MRRG.

A route departs the producer tile after an optional register wait,
traverses mesh hops back-to-back (each hop paced by the receiving
tile's clock: a hop into a tile with slowdown ``s`` takes ``s`` base
cycles and holds that tile's crossbar and the link for ``s`` cycles),
and finally waits in the consumer tile's registers until the consumer
issues. The search state is (tile, time); cost is arrival time, so the
first accepted goal pop is the earliest feasible arrival.

Three accelerations sit on top of the plain Dijkstra, all chosen so
the returned routes (and the earliest-arrival probe) are
**bit-identical** to the unaccelerated search:

* **Distance-oracle pruning.** The fabric's all-pairs hop-distance
  table (BFS per tile, computed once per :class:`CGRA`) gives the
  admissible, consistent lower bound ``h(tile) = dist(tile, dst) *
  min(slowdown)``. A state with ``t + h(tile) > horizon`` can never
  reach the destination within the horizon, and — because ``h`` is
  consistent — neither can any of its descendants, so dropping it
  cannot change the parent, path or probe of any surviving state. The
  heuristic only filters pushes and rejects hopeless queries in O(1)
  before any frontier exists. When a :class:`RouteMemo` is supplied the
  bound is sharpened to the *slowdown-weighted* shortest transit time
  to the destination (one small Dijkstra per (slowdown vector, dst),
  cached in the memo): still an exact lower bound — it ignores only
  congestion and waits — and still consistent by the shortest-path
  triangle inequality, so the same argument applies while pruning far
  harder around slowed DVFS islands.

* **Route memoization.** Candidate scoring and reschedule retries
  repeat the same (src, dst, timing) query against the same congestion
  state over and over. The search outcome is a
  function of (II, endpoints, ready mod II, the deadline/horizon/wait
  deltas, the slowdown vector, and the routing-visible occupancy), so
  :class:`RouteMemo` caches results under exactly that key, using the
  pool's Zobrist :attr:`~repro.mrrg.resources.ModuloResourcePool.epoch`
  as the occupancy component. Values are stored relative to ``ready``
  (the search is shift-invariant under ``ready -> ready + k*II`` with
  fixed deltas), so probes of later iterations hit too.

* **Bit-parallel layered search.** A hop's duration is the *receiving*
  tile's slowdown, so every state that can push ``(t, v)`` sits in time
  layer ``t - slow[v]``; Dijkstra pops a layer in ascending tile id, so
  a state's parent is the lowest-id open pusher in that one layer. The
  search therefore runs as one tile bitmask per time layer, in any
  slowdown vector: layer ``t`` is the seed departing at ``t`` plus, for
  each distinct slowdown ``s``, the slowdown-``s`` tiles that frontier
  ``t - s`` reaches over links free (and into crossbars with room) in
  all ``s`` slots of ``[t - s, t)``, ANDed with the horizon mask ``{v :
  h(v) <= horizon - t}``. The pool keeps per-slot "full" bitmasks per
  link class (links sharing one tile-id shift) and for the crossbars
  exact on every claim and rollback, so expanding a layer is a few
  integer operations (see :func:`_window`). The destination is never
  expanded. The earliest-arrival probe is the first layer holding the
  destination; only the accepted goal's path is rebuilt, walking back
  ``slow[v]`` layers per hop to the lowest-id predecessor whose link
  was free over the hop. The horizon masks and the per-slowdown tile
  groups are cached next to the oracle column.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass
from operator import or_

from repro.mrrg.mrrg import MRRG, Claim, hop_claims, wait_claims
from repro.mrrg.resources import MAX_CLAIM_LENGTH


@dataclass(frozen=True)
class RouteResult:
    """A feasible route found by the router."""

    path: tuple[int, ...]
    depart: int
    arrival: int


SlowdownFn = Callable[[int], int]


class RouteMemo:
    """A per-``map_dfg`` cache of router outcomes.

    Shared across every (II, soften, reschedule) attempt of one mapping
    run: the key pins down everything the search depends on, including
    the pool's congestion epoch, so entries from one attempt are served
    to another only when the routing-visible occupancy really is the
    same (rollbacks restore the epoch exactly).
    """

    #: Safety valve: drop everything rather than grow without bound.
    MAX_ENTRIES = 200_000

    __slots__ = ("table", "hits", "misses", "hcols", "hcol_builds",
                 "hcol_reuses")

    def __init__(self) -> None:
        self.table: dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0
        #: (dst_tile, slow) -> (weighted-distance heuristic column, its
        #: horizon masks, the slowdown groups; see :func:`_horizon_masks`
        #: and :func:`_slow_groups`).
        self.hcols: dict[tuple, tuple] = {}
        #: Oracle columns built by Dijkstra vs served from the
        #: process-level topology-keyed cache (cross-point reuse).
        self.hcol_builds = 0
        self.hcol_reuses = 0


def find_route(mrrg: MRRG, slowdown_of: SlowdownFn, src_tile: int,
               ready: int, dst_tile: int, deadline: int,
               max_wait: int | None = None,
               horizon: int | None = None,
               memo: RouteMemo | None = None,
               slow: tuple[int, ...] | None = None,
               ) -> tuple[RouteResult | None, int | None]:
    """Find the earliest-arrival route from ``src_tile`` to ``dst_tile``.

    ``ready`` is when the producer's value exists; ``deadline`` is the
    absolute time the consumer reads it. Waiting is allowed only at the
    endpoints (source registers before departing, destination registers
    after arriving).

    The search explores up to ``horizon`` (default: the deadline) even
    though only arrivals within the deadline are acceptable; the second
    element of the returned pair is the earliest arrival time observed
    at the destination, which lets the placement engine jump its issue
    time forward by exactly the shortfall instead of probing cycle by
    cycle. Returns ``(None, None)`` when the destination is unreachable
    within the horizon.

    A failed same-tile route still reports a probe: ``ready`` when the
    consumer reads before the value exists (issue late enough and the
    wait becomes trivially feasible), otherwise the latest deadline the
    source registers could actually hold the value for.

    ``slow`` optionally supplies the per-tile slowdown vector (saves
    re-evaluating ``slowdown_of`` per query); ``memo`` enables result
    caching across repeated queries.
    """
    if horizon is None:
        horizon = deadline
    horizon = max(horizon, deadline)
    pool = mrrg.pool

    if src_tile == dst_tile:
        return _same_tile_route(pool, src_tile, ready, deadline)

    if deadline < ready:
        return None, None

    ii = mrrg.ii
    num_tiles = mrrg.cgra.num_tiles
    if slow is None:
        slow = tuple(slowdown_of(t) for t in range(num_tiles))

    # Oracle early reject: even a congestion-free best-case transit
    # misses the horizon, so the full search would return (None, None).
    if memo is None:
        hcol = None
        if ready + mrrg.cgra._distance[src_tile][dst_tile] * min(slow) \
                > horizon:
            return None, None
    else:
        hcol, hmasks, groups = _weighted_hcol(memo, mrrg.cgra, slow,
                                              dst_tile)
        if ready + hcol[src_tile] > horizon:
            return None, None

    max_wait = deadline - ready if max_wait is None else min(
        max_wait, deadline - ready
    )
    max_wait = min(max_wait, 2 * ii)

    if memo is not None:
        key = (ii, src_tile, dst_tile, ready % ii, deadline - ready,
               horizon - ready, max_wait, slow, pool.epoch)
        hit = memo.table.get(key)
        if hit is not None:
            memo.hits += 1
            path, depart_rel, arrival_rel, probe_rel = hit
            probe = None if probe_rel is None else ready + probe_rel
            if path is None:
                return None, probe
            return RouteResult(path, ready + depart_rel,
                               ready + arrival_rel), probe
        memo.misses += 1

    if hcol is None:
        min_slow = min(slow)
        hcol = [row[dst_tile] * min_slow for row in mrrg.cgra._distance]
        hmasks = _horizon_masks(hcol)
        groups = _slow_groups(slow)

    # Deadline-tight pass first: a returned route always has arrival <=
    # deadline, and every ancestor of a returned goal state has f <=
    # arrival, so pruning at the deadline cannot change a successful
    # search's outcome — nor the probe, when some arrival <= deadline
    # exists. Only the no-arrival-by-deadline case needs the wide rerun
    # (the probe in (deadline, horizon] is what the engine jumps on).
    result, probe = _search(pool, slow, hcol, hmasks, groups, src_tile,
                            ready, dst_tile, deadline, deadline, max_wait)
    if result is None and probe is None and horizon > deadline:
        result, probe = _search(pool, slow, hcol, hmasks, groups, src_tile,
                                ready, dst_tile, deadline, horizon, max_wait)

    if memo is not None:
        if len(memo.table) >= RouteMemo.MAX_ENTRIES:
            memo.table.clear()
        if result is None:
            memo.table[key] = (
                None, 0, 0, None if probe is None else probe - ready
            )
        else:
            memo.table[key] = (result.path, result.depart - ready,
                               result.arrival - ready, probe - ready)
    return result, probe


def _same_tile_route(pool, tile: int, ready: int, deadline: int,
                     ) -> tuple[RouteResult | None, int | None]:
    """Source and destination coincide: the route is a register wait."""
    ii = pool.ii
    rid = 2 * pool.num_tiles + tile
    if deadline < ready:
        # The consumer reads before the value exists. The earliest
        # deadline that could work is ``ready`` — report it so the
        # engine can jump its issue time by the shortfall instead of
        # crawling cycle by cycle.
        return None, ready
    if pool.interval_free(rid, ready, deadline - ready):
        return RouteResult((tile,), ready, ready), ready
    # Blocked: walk the wait forward to the last deadline the registers
    # can actually hold the value for (feasibility is monotone in the
    # wait length, so everything past the first conflict is infeasible).
    use = pool._use
    cap = pool._caps[rid]
    base = rid * ii
    held = [0] * ii
    feasible_until = ready
    for t in range(ready, min(deadline, ready + MAX_CLAIM_LENGTH)):
        slot = t % ii
        held[slot] += 1
        if use[base + slot] + held[slot] > cap:
            break
        feasible_until = t + 1
    return None, feasible_until


#: Weighted-oracle value for tiles that cannot reach the destination.
_UNREACHABLE = 1 << 60


def _pred_rows(cgra) -> tuple[tuple[int, ...], ...]:
    """Per-tile predecessor lists (cached on the CGRA): ``u`` is a
    predecessor of ``v`` iff the fabric has a link ``u -> v``. Mesh
    topologies are symmetric, but the reverse adjacency is built
    explicitly so the oracle stays correct on any link graph."""
    rows = getattr(cgra, "_pred_neighbors", None)
    if rows is None:
        lists: list[list[int]] = [[] for _ in range(cgra.num_tiles)]
        for u, nbrs in cgra._neighbors.items():
            for v in nbrs:
                lists[v].append(u)
        rows = tuple(tuple(r) for r in lists)
        cgra._pred_neighbors = rows
    return rows


#: Process-level oracle-column cache shared across ``map_dfg`` calls.
#: Keyed by the *topology fingerprint* — everything the column depends
#: on: the link graph is fully determined by (rows, cols, topology), and
#: the column itself additionally by (dst_tile, slow). Two sweep points
#: whose fabrics share a topology therefore reuse each other's routing
#: lower bounds, no matter how their islands or V/F tables differ.
#: Reuse cannot change any mapping: the column is a pure function of
#: the key, so a cached value is byte-identical to a rebuilt one.
_HCOL_CACHE: dict[tuple, tuple] = {}

#: Safety valve for long-lived processes sweeping many fabrics.
_HCOL_CACHE_MAX = 100_000


def topology_fingerprint(cgra) -> tuple:
    """The part of a fabric's identity that the routing oracle sees.

    Islands, V/F tables, SPM geometry, ALU-only restrictions and op
    latencies are all invisible to :func:`_weighted_hcol`; only the
    link graph matters, and ``CGRA.build`` derives it entirely from
    these three values.
    """
    return (cgra.rows, cgra.cols, cgra.topology)


def clear_oracle_cache() -> None:
    """Drop all process-level oracle columns (tests / memory pressure)."""
    _HCOL_CACHE.clear()


def _horizon_masks(hcol: list[int]) -> tuple[int, ...]:
    """Tile bitmasks of the oracle column, by remaining budget:
    ``masks[k]`` holds every tile ``v`` with ``0 <= hcol[v] <= k``, and
    the last entry every tile that can reach the destination at all.

    Tiles that cannot reach the destination (``_UNREACHABLE``, or the
    plain distance table's ``-1``) are left out everywhere: they lead
    nowhere, so dropping them cannot change an arrival or a parent.
    """
    finite = [h for h in hcol if 0 <= h < _UNREACHABLE]
    masks = [0] * (max(finite) + 1)
    for tile, h in enumerate(hcol):
        if 0 <= h < _UNREACHABLE:
            masks[h] |= 1 << tile
    for k in range(1, len(masks)):
        masks[k] |= masks[k - 1]
    return tuple(masks)


def _slow_groups(slow: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """``(s, tiles)`` for every distinct slowdown ``s``, ascending, where
    ``tiles`` is the bitmask of the tiles whose slowdown is ``s`` (a hop
    into any of them takes ``s`` cycles)."""
    masks: dict[int, int] = {}
    for tile, s in enumerate(slow):
        masks[s] = masks.get(s, 0) | 1 << tile
    return tuple(sorted(masks.items()))


def _weighted_hcol(memo: RouteMemo, cgra, slow: tuple[int, ...],
                   dst_tile: int) -> tuple:
    """``h[tile]`` = cheapest congestion-free transit time from ``tile``
    to ``dst_tile`` under ``slow`` (a hop into tile ``v`` costs
    ``slow[v]``), with its :func:`_horizon_masks` and the
    :func:`_slow_groups` of ``slow``. The column comes from one Dijkstra
    from the destination over the reversed link graph; the triple is
    cached in the memo per (dst, slow) and in the process-level
    ``_HCOL_CACHE`` per (topology, dst, slow) so sweeps over fabric
    variants sharing a topology build each column once."""
    key = (dst_tile, slow)
    entry = memo.hcols.get(key)
    if entry is not None:
        return entry
    global_key = (topology_fingerprint(cgra), dst_tile, slow)
    entry = _HCOL_CACHE.get(global_key)
    if entry is not None:
        memo.hcols[key] = entry
        memo.hcol_reuses += 1
        return entry
    preds = _pred_rows(cgra)
    col = [_UNREACHABLE] * cgra.num_tiles
    col[dst_tile] = 0
    heap = [(0, dst_tile)]
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        d, x = heappop(heap)
        if d > col[x]:
            continue
        nd = d + slow[x]
        for y in preds[x]:
            if nd < col[y]:
                col[y] = nd
                heappush(heap, (nd, y))
    entry = (col, _horizon_masks(col), _slow_groups(slow))
    memo.hcols[key] = entry
    memo.hcol_builds += 1
    if len(_HCOL_CACHE) < _HCOL_CACHE_MAX:
        _HCOL_CACHE[global_key] = entry
    return entry


def _lanes(pool) -> tuple[int, int, int, int, tuple[int, ...],
                          tuple[int, ...]]:
    """Constants of the one-multiply layer expansion (cached on the
    CGRA; they depend on its link classes alone).

    Returns ``(rep, land_rep, sources, off, positions, folds)``. Lane
    ``c`` is ``width = num_tiles + off + max shift`` bits wide, with
    ``off = -min shift`` (shifts clamped at 0), and ``positions[c] = c *
    width + off + shift_c``. ``frontier * rep`` then holds, in lane
    ``c`` at offset ``off + v``, every tile ``v`` that a frontier
    tile's class-``c`` link would reach — a plain OR of shifted copies,
    because ``width`` keeps the copies disjoint so the product never
    carries. ``sources`` holds every link the same way, ``land *
    land_rep`` copies a tile mask into every lane at offset 0, and
    ``folds`` are the right shifts that OR every lane into lane 0 (the
    lane count padded to a power of two).
    """
    lanes = getattr(pool.cgra, "_route_lanes", None)
    if lanes is None:
        shifts = [shift for shift, _sources in pool.link_classes]
        off = max(0, -min(shifts, default=0))
        width = pool.num_tiles + off + max(0, max(shifts, default=0))
        positions = tuple(c * width + off + shift
                          for c, shift in enumerate(shifts))
        rep = sum(1 << pos for pos in positions)
        land_rep = sum(1 << (c * width) for c in range(len(shifts)))
        sources = sum(srcs << pos for (_shift, srcs), pos
                      in zip(pool.link_classes, positions))
        folds = []
        span = 1
        while span < len(shifts):
            span *= 2
        while span > 1:
            span //= 2
            folds.append(span * width)
        lanes = (rep, land_rep, sources, off, positions, tuple(folds))
        pool.cgra._route_lanes = lanes
    return lanes


def _window(pool, lanes, s: int, start: int, tiles: int) -> int:
    """The open hops into ``tiles`` (each of slowdown ``s``) that leave
    at time ``start``, in the lane layout of :func:`_lanes`.

    Lane ``c`` holds, at offset ``off + v``, every tile ``v`` of
    ``tiles`` whose crossbar has room and whose class-``c`` in-link is
    free in each of the ``s`` slots from ``start`` on — Dijkstra's push
    test, read from the pool's capacity masks.
    """
    ii = pool.ii
    full = pool.full
    _rep, land_rep, packed, off, positions, _folds = lanes
    # One slice per slot: the class masks, then the crossbar mask.
    row = full[start % ii::ii]
    for k in range(1, min(s, ii)):
        row = list(map(or_, row, full[(start + k) % ii::ii]))
    for busy, pos in zip(row, positions):
        if busy:
            # ``busy`` only ever holds class-c sources: XOR drops them.
            packed ^= busy << pos
    return packed & (tiles & ~row[-1]) * land_rep << off


def _seed_count(pool, src_tile: int, ready: int, h_src: int, horizon: int,
                max_wait: int) -> int:
    """How many seeds the search starts from: seed ``w`` departs after
    waiting ``w`` cycles in the source registers. Feasibility of the
    wait is monotone in ``w``, so counting stops at the first blocked
    prefix, and at the first departure that cannot reach the
    destination by the horizon (later ones cannot either)."""
    ii = pool.ii
    rid = 2 * pool.num_tiles + src_tile
    base = rid * ii
    cap = pool._caps[rid]
    use = pool._use
    n_seeds = 0
    for wait in range(max_wait + 1):
        if wait and use[base + (ready + wait - 1) % ii] >= cap:
            break
        if ready + wait + h_src > horizon:
            break
        n_seeds += 1
    return n_seeds


def _search(pool, slow, hcol, hmasks, groups, src_tile: int, ready: int,
            dst_tile: int, deadline: int, horizon: int, max_wait: int,
            ) -> tuple[RouteResult | None, int | None]:
    """The pruned Dijkstra, run as one tile bitmask per time layer (see
    the module docstring for why neither the pruning nor the layering
    can change the result).

    Layer ``t`` holds the seed departing at ``t`` plus, for each
    slowdown group ``(s, tiles)``, the tiles of ``tiles`` reachable by
    an open hop from frontier ``t - s``: one multiply spreads the
    frontier over the link-class lanes, one AND with the cached
    :func:`_window` keeps the open hops, and the folds OR the lanes
    together. The horizon mask then drops every tile that cannot reach
    the destination in the budget left. The destination is never
    expanded, so it is dropped from the stored frontier.
    """
    n_seeds = _seed_count(pool, src_tile, ready, hcol[src_tile], horizon,
                          max_wait)
    if not n_seeds:
        return None, None
    seed_end = ready + n_seeds
    ii = pool.ii
    lanes = _lanes(pool)
    rep, _land_rep, _sources, off, _positions, folds = lanes
    src_bit = 1 << src_tile
    dst_bit = 1 << dst_tile
    dst_reg_rid = 2 * pool.num_tiles + dst_tile
    top = len(hmasks) - 1
    max_slow = groups[-1][0]
    frontiers: list[int] = []
    windows: dict[int, int] = {}
    earliest_arrival: int | None = None
    t = last = ready
    while t <= horizon and t - last <= max_slow:
        layer = src_bit if t < seed_end else 0
        reach = 0
        for s, tiles in groups:
            start = t - s
            if start < ready:
                break
            frontier = frontiers[start - ready]
            if frontier:
                key = s * ii + start % ii
                window = windows.get(key)
                if window is None:
                    window = windows[key] = _window(pool, lanes, s, start,
                                                    tiles)
                reach |= frontier * rep & window
        if reach:
            for fold in folds:
                reach |= reach >> fold
            budget = horizon - t
            layer |= reach >> off & hmasks[budget if budget < top else top]
        if layer & dst_bit:
            if earliest_arrival is None:
                earliest_arrival = t
            if t <= deadline and (
                t == deadline
                or pool.interval_free(dst_reg_rid, t, deadline - t)
            ):
                path, depart = _rebuild_layers(
                    pool, frontiers, slow, src_tile, ready, seed_end,
                    dst_tile, t
                )
                return RouteResult(path, depart, t), t
            layer ^= dst_bit
        frontiers.append(layer)
        if layer:
            last = t
        t += 1
    return None, earliest_arrival


def _rebuild_layers(pool, frontiers: list[int], slow, src_tile: int,
                    ready: int, seed_end: int, dst_tile: int, arrival: int,
                    ) -> tuple[tuple[int, ...], int]:
    """The path and departure of the layered search's goal state.

    Walks back ``slow[v]`` layers per hop into ``v``: the parent of
    ``(t, v)`` is the lowest-id tile of frontier ``t - slow[v]`` whose
    link into ``v`` is free in every slot of ``[t - slow[v], t)`` — the
    state Dijkstra pops first among ``v``'s pushers, since they all sit
    in that one layer. (The crossbar and horizon checks depend on ``v``
    and the window alone, so ``v``'s presence in its layer already
    vouches for them.) The walk ends at a seed, whose time is the
    departure.
    """
    use = pool._use
    ii = pool.ii
    radj = pool.radj
    path = [dst_tile]
    tile, t = dst_tile, arrival
    while tile != src_tile or t >= seed_end:
        s = slow[tile]
        t -= s
        prev = frontiers[t - ready]
        slot = t % ii
        for pred, link_base in radj[tile]:
            if prev >> pred & 1 and not use[link_base + slot] and (
                s == 1 or not any(use[link_base + (t + k) % ii]
                                  for k in range(1, s))
            ):
                break
        tile = pred
        path.append(tile)
    path.reverse()
    return tuple(path), t


def route_claims(path: tuple[int, ...], ready: int, depart: int,
                 deadline: int, slowdown_of: SlowdownFn) -> list[Claim]:
    """The canonical resource claims of a route (shared with the
    timing validator, so the mapper and the checker cannot disagree)."""
    claims: list[Claim] = []
    if len(path) == 1:
        claims.extend(wait_claims(path[0], ready, deadline))
        return claims
    claims.extend(wait_claims(path[0], ready, depart))
    t = depart
    for src, dst in zip(path, path[1:]):
        s = slowdown_of(dst)
        claims.extend(hop_claims(src, dst, t, s))
        t += s
    claims.extend(wait_claims(path[-1], t, deadline))
    return claims


def route_arrival(path: tuple[int, ...], depart: int,
                  slowdown_of: SlowdownFn) -> int:
    """Arrival time implied by a path and its departure time."""
    t = depart
    for dst in path[1:]:
        t += slowdown_of(dst)
    return t
