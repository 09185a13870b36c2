"""The scalar reference candidate scorer, kept verbatim for testing.

These are the per-candidate python loops the placement engine's
numpy scorer (:meth:`repro.mapper.engine._Attempt._best_candidate`)
replaced: one ``_time_window`` call per tile, a ``(sum, t)`` sort for
the anchor-distance order and one claim-pool read per feasible probe.
The differential suite patches both functions onto ``_Attempt`` (as
``_best_candidate`` and ``_candidate_tiles``) and requires the same
mapping, the same search counters and the same per-II rows as the
production scorer.
"""

from __future__ import annotations

from repro.dfg.ops import Opcode
from repro.mapper.engine import _Candidate


def reference_best_candidate(self, node: int) -> _Candidate | None:
    """Scalar reference scorer. The engine's ``_best_candidate`` must
    agree with this loop bit-for-bit — mapping, cost tuples and stats
    counters alike (pinned by the differential suite); any change
    there must be mirrored here."""
    label = self.labels[node]
    opcode = self.dfg.node(node).opcode
    tiles = self._candidate_tiles(node, opcode)
    best: _Candidate | None = None
    feasible = 0
    for tile in tiles:
        if feasible >= self.config.max_good_candidates:
            break
        island = self.cgra.island_of(tile).id
        assigned = self.island_levels.get(island)
        if assigned is None:
            # A fresh island could be opened at the label's level or
            # at normal; evaluate both (a too-slow label must not
            # sink the node — Alg. 1 falls back to normal for the
            # same reason).
            allowed_names = self.config.allowed_level_names
            option_levels = {label, self.cgra.dvfs.normal}
            options = [
                (level, True) for level in self.cgra.dvfs.levels
                if level in option_levels
                and (allowed_names is None or level.name in allowed_names)
            ]
        else:
            if not assigned.at_least_as_fast_as(label):
                continue  # Alg. 2 line 17: never onto a slower island
            options = [(assigned, False)]
        if not options:
            continue
        # Oracle pruning: the issue-time window only shrinks as the
        # op slows down, so an empty window at the fastest available
        # level means every option would fail its first feasibility
        # check — skip the tile without probing.
        s_best = self._op_cycles(node, tile) * min(
            level.slowdown for level, _fresh in options
        )
        earliest, latest = self._time_window(node, tile, s_best)
        if earliest > latest:
            self.stats.candidates_pruned += len(options)
            continue
        for level, fresh in options:
            self.stats.candidates_probed += 1
            result = self._try_tile(node, tile, level, island,
                                    s_hint=s_best,
                                    window=(earliest, latest))
            if result is None:
                continue
            feasible += 1
            time, routes, route_latency = result
            pressure = self.mrrg.tile_busy_slots(tile) / self.ii
            cost = (
                self.config.w_time * time
                + self.config.w_route * route_latency
                + self.config.w_pressure * pressure
            )
            if self.config.dvfs_aware:
                mismatch = abs(
                    self.cgra.dvfs.index_of(level)
                    - self.cgra.dvfs.index_of(label)
                )
                cost += self.config.w_mismatch * mismatch
                cost += self.config.w_new_island * (1 if fresh else 0)
            if best is None or (cost, tile, time) < (
                best.cost, best.tile, best.time
            ):
                best = _Candidate(cost, tile, time, level, routes)
    return best


def reference_candidate_tiles(self, node: int, opcode: Opcode) -> list[int]:
    tiles = [
        t for t in self.tiles if self.cgra.tile(t).supports(opcode)
    ]
    anchors = [
        self.placements[e.src].tile
        for _i, e in self._in[node] if e.src in self.placements
    ] + [
        self.placements[e.dst].tile
        for _i, e in self._out[node] if e.dst in self.placements
    ]
    if anchors:
        dist = self.cgra._distance
        tiles.sort(key=lambda t: (
            sum(dist[t][a] for a in anchors), t
        ))
    if self.config.beam_width and len(tiles) > self.config.beam_width:
        tiles = tiles[: self.config.beam_width]
    return tiles
