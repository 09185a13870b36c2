"""Tests for configuration-word (bitstream) generation."""

import json

import pytest

from repro.errors import ValidationError
from repro.frontend import lower_kernel
from repro.kernels import load_kernel
from repro.kernels.programs import relu_program
from repro.mapper import map_baseline, map_dvfs_aware
from repro.mapper.bitstream import (
    Bitstream,
    PortName,
    bitstream_for_lowered,
    generate_bitstream,
)


@pytest.fixture(scope="module")
def fir_bitstream(baseline_fir):
    return generate_bitstream(baseline_fir)


class TestStructure:
    def test_one_word_per_tile_per_slot(self, fir_bitstream, baseline_fir):
        assert set(fir_bitstream.words) == {
            t.id for t in baseline_fir.cgra.tiles
        }
        for slots in fir_bitstream.words.values():
            assert len(slots) == baseline_fir.ii

    def test_every_op_issued_once(self, fir_bitstream, baseline_fir):
        issued = sum(
            1 for slots in fir_bitstream.words.values()
            for word in slots if word.opcode is not None
        )
        assert issued == len(baseline_fir.placements)

    def test_issue_slot_matches_placement(self, fir_bitstream,
                                          baseline_fir):
        for node, placement in baseline_fir.placements.items():
            slot = placement.time % baseline_fir.ii
            word = fir_bitstream.words[placement.tile][slot]
            assert word.opcode is baseline_fir.dfg.node(node).opcode
            assert word.node == node

    def test_operand_count_matches_inputs(self, fir_bitstream,
                                          baseline_fir):
        for node, placement in baseline_fir.placements.items():
            slot = placement.time % baseline_fir.ii
            word = fir_bitstream.words[placement.tile][slot]
            expected = len(baseline_fir.dfg.in_edges(node))
            assert len(word.operands) == expected

    def test_one_send_per_hop(self, fir_bitstream, baseline_fir):
        total_hops = sum(
            len(r.path) - 1 for r in baseline_fir.routes.values()
        )
        total_sends = sum(
            len(word.sends) for slots in fir_bitstream.words.values()
            for word in slots
        )
        assert total_sends == total_hops

    def test_sends_target_neighbours(self, fir_bitstream, baseline_fir):
        cgra = baseline_fir.cgra
        for tile_id, slots in fir_bitstream.words.items():
            for word in slots:
                for send in word.sends:
                    assert send.to_tile in cgra.neighbors(tile_id)
                    assert send.delay >= 1

    def test_out_edges_cover_routed_fanout(self, fir_bitstream,
                                           baseline_fir):
        edges = baseline_fir.dfg.edges()
        for node, placement in baseline_fir.placements.items():
            slot = placement.time % baseline_fir.ii
            word = fir_bitstream.words[placement.tile][slot]
            expected = {
                idx for idx, e in enumerate(edges)
                if e.src == node and idx in baseline_fir.routes
            }
            assert set(word.out_edges) == expected

    def test_phi_operands_carry_distance(self, fir_bitstream,
                                         baseline_fir):
        phis = [
            w for slots in fir_bitstream.words.values() for w in slots
            if w.opcode is not None and w.opcode.name == "PHI"
        ]
        assert phis
        for word in phis:
            assert any(
                sel.kind == "phi" and sel.dist >= 1
                for sel in word.operands
            )

    def test_gated_tiles_idle(self, cgra66):
        mapping = map_dvfs_aware(load_kernel("relu", 1), cgra66)
        bitstream = generate_bitstream(mapping)
        for tile in mapping.gated_tiles():
            assert all(word.is_idle for word in bitstream.words[tile])

    def test_levels_recorded(self, cgra66):
        mapping = map_dvfs_aware(load_kernel("relu", 1), cgra66)
        bitstream = generate_bitstream(mapping)
        assert set(bitstream.levels) == {i.id for i in cgra66.islands}
        names = set(bitstream.levels.values())
        assert names <= {"normal", "relax", "rest", "power_gated"}


class TestSerialization:
    def test_json_round_trip(self, fir_bitstream):
        payload = json.loads(fir_bitstream.to_json())
        assert payload["kernel"] == "fir"
        assert payload["ii"] == fir_bitstream.ii
        assert len(payload["tiles"]) == 36

    def test_words_used_counts_non_idle(self, fir_bitstream):
        used = fir_bitstream.words_used()
        assert 0 < used <= 36 * fir_bitstream.ii

    def test_send_ports_valid(self, fir_bitstream):
        valid = {p.value for p in PortName}
        for slots in fir_bitstream.words.values():
            for word in slots:
                for send in word.sends:
                    assert send.to_port in valid


class TestDeterminism:
    def test_same_mapping_same_bitstream(self, baseline_fir):
        a = generate_bitstream(baseline_fir).to_json()
        b = generate_bitstream(baseline_fir).to_json()
        assert a == b

    def test_iced_bitstream_generates(self, iced_fir):
        bitstream = generate_bitstream(iced_fir)
        assert isinstance(bitstream, Bitstream)
        assert bitstream.ii == iced_fir.ii


class TestLoweredAnnotations:
    def test_foreign_mapping_rejected(self, fir_lowered, cgra66):
        # A relu mapping annotated with fir's lowering would carry fir's
        # memory layout onto relu's node ids.
        relu = lower_kernel(relu_program(n=12), flatten=True)
        mapping = map_baseline(relu.dfg, cgra66)
        with pytest.raises(ValidationError, match="disagree on the DFG"):
            bitstream_for_lowered(mapping, fir_lowered)

    def test_structurally_equal_dfg_accepted(self, fir_lowered, cgra66):
        mapping = map_baseline(fir_lowered.dfg.copy(), cgra66)
        bitstream = bitstream_for_lowered(mapping, fir_lowered)
        assert bitstream.memory_layout == {"x": 0, "h": 20, "y": 24}
