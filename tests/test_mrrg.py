"""Tests for the modulo resource pool and MRRG claim vocabulary."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import CGRA
from repro.errors import MappingError
from repro.mrrg import MRRG, ModuloResourcePool, fu_key, link_key, reg_key, xbar_key
from repro.mrrg.mrrg import hop_claims, op_claims, wait_claims


@pytest.fixture
def pool(cgra44):
    return ModuloResourcePool(cgra44, ii=4)


class TestPool:
    def test_capacities(self, pool, cgra44):
        assert pool.capacity(fu_key(0)) == 1
        assert pool.capacity(link_key(0, 1)) == 1
        assert pool.capacity(xbar_key(0)) == 4
        assert pool.capacity(reg_key(0)) == cgra44.tile(0).num_registers

    def test_unknown_kind(self, pool):
        with pytest.raises(MappingError):
            pool.capacity(("bogus", 0))

    def test_claim_and_used(self, pool):
        pool.claim(fu_key(0), 1, 1)
        assert pool.used(fu_key(0), 1) == 1
        assert pool.used(fu_key(0), 5) == 1  # modulo wrap
        assert pool.used(fu_key(0), 0) == 0

    def test_exclusive_conflict(self, pool):
        pool.claim(fu_key(0), 1, 1)
        assert not pool.is_free(fu_key(0), 1, 1)
        with pytest.raises(MappingError):
            pool.claim(fu_key(0), 5, 1)  # same slot mod 4

    def test_interval_wraps(self, pool):
        pool.claim(fu_key(0), 3, 2)  # slots 3 and 0
        assert pool.used(fu_key(0), 0) == 1
        assert pool.used(fu_key(0), 3) == 1
        assert pool.is_free(fu_key(0), 1, 2)

    def test_capacity_resource_stacks(self, pool):
        for _ in range(4):
            pool.claim(xbar_key(0), 0, 1)
        assert not pool.is_free(xbar_key(0), 0, 1)

    def test_long_claim_counts_multiplicity(self, pool):
        # Holding a register for 2*II cycles occupies 2 registers per slot.
        pool.claim(reg_key(0), 0, 8)
        assert pool.used(reg_key(0), 0) == 2

    def test_is_free_accounts_multiplicity(self, pool):
        cap = pool.capacity(reg_key(0))
        assert pool.is_free(reg_key(0), 0, 4 * cap)
        assert not pool.is_free(reg_key(0), 0, 4 * cap + 1)

    def test_rollback(self, pool):
        token = pool.checkpoint()
        pool.claim(fu_key(0), 0, 2)
        pool.claim(link_key(0, 1), 1, 1)
        pool.rollback(token)
        assert pool.used(fu_key(0), 0) == 0
        assert pool.is_free(link_key(0, 1), 1, 1)

    def test_nested_rollback(self, pool):
        pool.claim(fu_key(0), 0, 1)
        outer = pool.checkpoint()
        pool.claim(fu_key(1), 0, 1)
        inner = pool.checkpoint()
        pool.claim(fu_key(2), 0, 1)
        pool.rollback(inner)
        assert pool.used(fu_key(2), 0) == 0
        assert pool.used(fu_key(1), 0) == 1
        pool.rollback(outer)
        assert pool.used(fu_key(1), 0) == 0
        assert pool.used(fu_key(0), 0) == 1

    def test_zero_length_claim_is_noop(self, pool):
        pool.claim(fu_key(0), 0, 0)
        assert pool.used(fu_key(0), 0) == 0

    def test_sanity_cap(self, pool):
        with pytest.raises(MappingError):
            pool.claim(fu_key(0), 0, 10**6)

    def test_busy_slot_stats(self, pool):
        pool.claim(fu_key(0), 0, 2)
        pool.claim(xbar_key(0), 1, 2)
        assert pool.busy_slots(fu_key(0)) == 2
        assert pool.tile_busy_slots(0) == 3  # slots 0,1,2

    def test_bad_ii(self, cgra44):
        with pytest.raises(MappingError):
            ModuloResourcePool(cgra44, ii=0)


class TestClaimBuilders:
    def test_op_claims(self):
        assert op_claims(3, 5, 2) == [(fu_key(3), 5, 2)]

    def test_hop_claims(self):
        claims = hop_claims(0, 1, 4, 2)
        assert (link_key(0, 1), 4, 2) in claims
        assert (xbar_key(1), 4, 2) in claims

    def test_wait_claims(self):
        assert wait_claims(2, 5, 9) == [(reg_key(2), 5, 4)]
        assert wait_claims(2, 5, 5) == []
        assert wait_claims(2, 5, 3) == []


class TestMRRG:
    def test_atomic_claim_all(self, cgra44):
        mrrg = MRRG(cgra44, 4)
        claims = [(fu_key(0), 0, 1), (fu_key(0), 0, 1)]  # conflicts
        with pytest.raises(MappingError):
            mrrg.claim_all(claims)
        # Atomicity: the first claim must have been rolled back.
        assert mrrg.pool.used(fu_key(0), 0) == 0

    def test_is_free_handles_self_overlap(self, cgra44):
        mrrg = MRRG(cgra44, 4)
        cap = mrrg.pool.capacity(reg_key(0))
        overlapping = [(reg_key(0), 0, 4)] * cap
        assert mrrg.is_free(overlapping)
        assert not mrrg.is_free(overlapping + [(reg_key(0), 0, 1)])
        # And it must not leave anything claimed behind.
        assert mrrg.pool.used(reg_key(0), 0) == 0

    def test_to_networkx_shape(self, cgra44):
        mrrg = MRRG(cgra44, 3)
        g = mrrg.to_networkx()
        assert g.number_of_nodes() == 16 * 3
        # Each node has a self-register edge plus one per neighbour.
        out_deg = dict(g.out_degree())
        assert out_deg[("tile", 0, 0)] == 1 + 2
        assert out_deg[("tile", 5, 1)] == 1 + 4


class TestCongestionEpoch:
    """The Zobrist epoch is the route memo's invalidation key: it must
    track exactly the routing-visible occupancy (links, xbars,
    registers), ignore FU-only changes, and be order-independent."""

    def test_routing_visible_claim_bumps_epoch(self, pool):
        before = pool.epoch
        pool.claim(link_key(0, 1), 0, 2)
        assert pool.epoch != before

    def test_fu_claim_leaves_epoch_unchanged(self, pool):
        before = pool.epoch
        pool.claim(fu_key(3), 1, 2)
        assert pool.epoch == before

    def test_rollback_restores_epoch(self, pool):
        pool.claim(xbar_key(2), 0, 3)
        before = pool.epoch
        token = pool.checkpoint()
        pool.claim(reg_key(1), 2, 5)
        pool.claim(link_key(1, 2), 0, 1)
        assert pool.epoch != before
        pool.rollback(token)
        assert pool.epoch == before

    def test_epoch_is_order_independent(self, cgra44):
        a = ModuloResourcePool(cgra44, ii=4)
        b = ModuloResourcePool(cgra44, ii=4)
        claims = [(link_key(0, 1), 0, 2), (reg_key(5), 1, 3),
                  (xbar_key(2), 2, 2)]
        for key, start, length in claims:
            a.claim(key, start, length)
        for key, start, length in reversed(claims):
            b.claim(key, start, length)
        assert a.epoch == b.epoch

    def test_is_free_query_leaves_epoch_unchanged(self, pool, cgra44):
        mrrg = MRRG(cgra44, 4)
        before = mrrg.pool.epoch
        # is_free runs a scratch transaction; it must not leak epoch.
        assert mrrg.is_free([(reg_key(0), 0, 6), (link_key(0, 1), 0, 1)])
        assert mrrg.pool.epoch == before


MASK_FABRICS = {
    "mesh66": CGRA.build(6, 6, island_shape=(2, 2)),
    "king33": CGRA.build(3, 3, island_shape=(1, 1), topology="king"),
    # Non-square torus: its wrap shifts (+-3, +-8) differ from its row
    # and column shifts (+-1, +-4).
    "torus34": CGRA.build(3, 4, island_shape=(1, 1), topology="torus"),
}


def _recomputed_full(pool: ModuloResourcePool) -> list[int]:
    """``pool.full`` rebuilt from scratch out of the usage counts, with
    the link classes rederived from the fabric's neighbour lists."""
    cgra, ii = pool.cgra, pool.ii
    shifts = sorted({v - u for u in range(cgra.num_tiles)
                     for v in cgra._neighbors[u]})
    full = [0] * ((len(shifts) + 1) * ii)
    for (key, slot), count in pool.usage_snapshot().items():
        if key[0] == "link" and count >= 1:
            _kind, src, dst = key
            full[shifts.index(dst - src) * ii + slot] |= 1 << src
        elif key[0] == "xbar" and count >= pool.xbar_capacity:
            full[len(shifts) * ii + slot] |= 1 << key[1]
    return full


@st.composite
def _pool_ops(draw):
    """A pool plus a random sequence of claims, route claims,
    checkpoints and rollbacks (overflowing claims included)."""
    cgra = MASK_FABRICS[draw(st.sampled_from(sorted(MASK_FABRICS)))]
    ii = draw(st.integers(1, 5))
    pool = ModuloResourcePool(cgra, ii, xbar_capacity=draw(st.integers(1, 3)))
    num = cgra.num_tiles
    links = [(u, v) for u in range(num) for v in cgra._neighbors[u]]
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        op = draw(st.sampled_from(
            ["claim", "claim", "route", "checkpoint", "rollback"]
        ))
        if op == "claim":
            kind = draw(st.sampled_from(["fu", "xbar", "reg", "link"]))
            if kind == "link":
                key = ("link", *draw(st.sampled_from(links)))
            else:
                key = (kind, draw(st.integers(0, num - 1)))
            # Lengths past II wrap onto slots already claimed in the same
            # call, so some overflow midway and undo a partial write.
            ops.append((op, key, draw(st.integers(0, 2 * ii)),
                        draw(st.integers(1, 2 * ii + 2))))
        elif op == "route":
            path = [draw(st.integers(0, num - 1))]
            for _ in range(draw(st.integers(0, 4))):
                path.append(draw(st.sampled_from(cgra._neighbors[path[-1]])))
            slow = tuple(draw(st.sampled_from([1, 1, 2, 4]))
                         for _ in range(num))
            ready = draw(st.integers(0, 2 * ii))
            depart = ready + draw(st.integers(0, 2))
            arrival = depart + sum(slow[v] for v in path[1:])
            deadline = arrival + draw(st.integers(0, 3))
            ops.append((op, tuple(path), ready, depart, deadline, slow))
        else:
            ops.append((op,))
    return pool, ops


class TestFullMasks:
    """``pool.full`` is what the router expands layers with: it must
    equal a from-scratch recomputation after every mutation."""

    @given(case=_pool_ops())
    @settings(max_examples=settings.default.max_examples, deadline=None)
    def test_masks_track_every_mutation(self, case):
        pool, ops = case
        tokens = []
        for op, *args in ops:
            if op == "claim":
                try:
                    pool.claim(*args)
                except MappingError:
                    pass
            elif op == "route":
                try:
                    pool.claim_route(*args)
                except MappingError:
                    pass
            elif op == "checkpoint":
                tokens.append(pool.checkpoint())
            elif tokens:
                pool.rollback(tokens.pop())
            assert pool.full == _recomputed_full(pool)
        pool.rollback(0)
        assert not any(pool.full)

    def test_pools_do_not_share_masks(self):
        cgra = MASK_FABRICS["torus34"]
        a = ModuloResourcePool(cgra, ii=3)
        b = ModuloResourcePool(cgra, ii=3)
        # The per-II tables are cached on the fabric; the masks are not.
        assert a.adj is b.adj
        assert a.full is not b.full
        a.claim(link_key(0, 1), 0, 3)
        a.claim(xbar_key(5), 1, 1)
        assert any(a.full)
        assert not any(b.full)
        assert b.full == _recomputed_full(b)

    def test_pickled_fabric_drops_cached_tables(self):
        cgra = CGRA.build(3, 3, island_shape=(1, 1))
        ModuloResourcePool(cgra, ii=2)
        assert hasattr(cgra, "_mrrg_ii_tables")
        copy = pickle.loads(pickle.dumps(cgra))
        assert not hasattr(copy, "_mrrg_ii_tables")
        pool = ModuloResourcePool(copy, ii=2)
        pool.claim(link_key(0, 1), 0, 1)
        assert pool.full == _recomputed_full(pool)
