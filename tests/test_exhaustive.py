"""Ground truth by exhaustion: the exact mapper's minimum-II proofs on
tiny instances, and the heuristic engine's gap against them.

``map_exact`` proves an II minimal by exhausting every smaller II (or
by meeting a sound lower bound), so on these instances it is the
ground truth the heuristic is measured against.
"""

import pytest

from repro.arch import CGRA
from repro.dfg import DFGBuilder, Opcode
from repro.errors import MappingError
from repro.kernels import load_kernel
from repro.mapper import map_baseline, validate_mapping
from repro.mapper.engine import EngineConfig
from repro.mapper.exact import MAX_NODES, ExactStats, exact_lower_bound, map_exact


def tiny_chain(n: int = 4):
    b = DFGBuilder("chain")
    prev = b.op(Opcode.LOAD)
    for _ in range(n - 2):
        prev = b.op(Opcode.ADD, prev)
    b.op(Opcode.STORE, prev)
    return b.build()


def tiny_recurrence():
    b = DFGBuilder("rec")
    phi, add = b.recurrence([Opcode.PHI, Opcode.ADD])
    ld = b.op(Opcode.LOAD)
    b.edge(ld, phi)
    b.op(Opcode.STORE, add)
    return b.build()


def diamond():
    b = DFGBuilder("diamond")
    ld = b.op(Opcode.LOAD)
    left = b.op(Opcode.ADD, ld)
    right = b.op(Opcode.MUL, ld)
    join = b.op(Opcode.SUB, left, right)
    b.op(Opcode.STORE, join)
    return b.build()


def dense():
    b = DFGBuilder("dense")
    lds = [b.op(Opcode.LOAD) for _ in range(2)]
    m1 = b.op(Opcode.MUL, lds[0], lds[1])
    m2 = b.op(Opcode.ADD, lds[0], m1)
    m3 = b.op(Opcode.SUB, m1, m2)
    b.op(Opcode.STORE, m3)
    return b.build()


FABRIC = CGRA.build(3, 3, island_shape=(3, 3))

#: The minimum II of each instance on FABRIC, as the retired brute-force
#: mapper found it by enumerating every (tile, issue time) placement.
GROUND_TRUTH = {tiny_chain: 1, tiny_recurrence: 2, diamond: 1}


def _proved(dfg):
    stats = ExactStats()
    mapping = map_exact(dfg, FABRIC, stats=stats)
    assert stats.proved_optimal
    validate_mapping(mapping)
    return mapping


class TestExhaustive:
    @pytest.mark.parametrize("factory", [tiny_chain, tiny_recurrence,
                                         diamond])
    def test_finds_valid_minimum(self, factory):
        dfg = factory()
        mapping = _proved(dfg)
        assert mapping.ii == GROUND_TRUTH[factory]
        assert map_baseline(dfg, FABRIC).ii == mapping.ii
        # Optimality: no mapping exists at II - 1.
        if mapping.ii > 1:
            with pytest.raises(MappingError):
                map_exact(dfg, FABRIC, EngineConfig(max_ii=mapping.ii - 1))

    def test_size_caps_enforced(self):
        with pytest.raises(MappingError, match="caps"):
            map_exact(tiny_chain(MAX_NODES + 1), FABRIC)

    def test_probe_budget_enforced(self):
        # Capping the II at the lower bound leaves the engine without an
        # incumbent (it needs a longer II), so the budget cut is fatal.
        dfg = load_kernel("fir", 1)
        bound = exact_lower_bound(dfg, FABRIC)
        with pytest.raises(MappingError, match="probes"):
            map_exact(dfg, FABRIC, EngineConfig(max_ii=bound),
                      max_probes=1)

    @pytest.mark.parametrize("factory", [tiny_chain, tiny_recurrence,
                                         diamond])
    def test_heuristic_engine_matches_optimum(self, factory):
        """The production engine's II must equal the provable minimum
        on these instances (they are small enough to demand it)."""
        dfg = factory()
        optimal = _proved(dfg)
        heuristic = map_baseline(dfg, FABRIC)
        assert heuristic.ii == optimal.ii

    def test_heuristic_gap_on_denser_instance(self):
        dfg = dense()
        optimal = _proved(dfg)
        assert optimal.ii == 1
        heuristic = map_baseline(dfg, FABRIC)
        assert heuristic.ii == optimal.ii
