"""Tests for the simulated-annealing refinement mapper."""

import pytest

from repro.arch import CGRA
from repro.kernels import load_kernel
from repro.mapper import map_baseline, validate_mapping
from repro.mapper.anneal import AnnealStats, _cost, anneal_mapping


@pytest.fixture(scope="module")
def base():
    return map_baseline(load_kernel("histogram", 1), CGRA.build(6, 6))


class TestAnneal:
    def test_result_validates_and_keeps_ii(self, base):
        refined, stats = anneal_mapping(base, moves=300, seed=1)
        validate_mapping(refined)
        assert refined.ii == base.ii
        assert isinstance(stats, AnnealStats)

    def test_never_worsens_cost(self, base):
        refined, stats = anneal_mapping(base, moves=300, seed=2)
        assert _cost(refined) <= _cost(base)
        assert stats.final_cost <= stats.initial_cost

    def test_deterministic_per_seed(self, base):
        a, stats_a = anneal_mapping(base, moves=200, seed=7)
        b, stats_b = anneal_mapping(base, moves=200, seed=7)
        assert a.to_dict() == b.to_dict()
        assert stats_a.moves_accepted == stats_b.moves_accepted

    def test_seed_changes_walk(self, base):
        _, stats_a = anneal_mapping(base, moves=200, seed=1)
        _, stats_b = anneal_mapping(base, moves=200, seed=2)
        assert (stats_a.moves_tried, stats_a.moves_accepted) != \
            (stats_b.moves_tried, stats_b.moves_accepted) or \
            stats_a.final_cost != stats_b.final_cost

    def test_zero_moves_is_identity(self, base):
        refined, stats = anneal_mapping(base, moves=0, seed=0)
        assert refined.to_dict() == base.to_dict()
        assert stats.moves_tried == 0

    def test_semantics_preserved_under_refinement(self):
        # The refined mapping of a real kernel must still compute the
        # reference results: its bitstream runs on the machine model.
        from repro.frontend import lower_kernel, run_kernel_ast
        from repro.kernels.programs import fir_program
        from repro.machine import run_bitstream
        from repro.mapper.bitstream import bitstream_for_lowered
        from repro.utils.rng import make_rng

        kernel = fir_program(n=8, taps=3)
        lowered = lower_kernel(kernel, flatten=True)
        rng = make_rng(3)
        memory = {
            arr: rng.normal(size=size).tolist()
            for arr, size in kernel.arrays.items()
        }
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        refined, _stats = anneal_mapping(mapping, moves=250, seed=5)
        expected = run_kernel_ast(kernel, memory)
        result = run_bitstream(bitstream_for_lowered(refined, lowered),
                               memory, lowered.trip_count)
        assert result.memory["y"] == pytest.approx(expected["y"])
