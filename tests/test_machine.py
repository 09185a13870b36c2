"""Machine-level bitstream execution tests.

The machine sees only configuration words — no mapping, no DFG — so a
match against the AST interpreter validates the entire lowering chain:
frontend -> mapper -> bitstream generator -> machine.
"""

import copy

import pytest

from repro.arch import CGRA
from repro.dfg.ops import Opcode
from repro.errors import SimulationError, ValidationError
from repro.frontend import lower_kernel, run_kernel_ast, run_lowered_dfg
from repro.kernels.programs import (
    conv1d_program,
    dtw_band_program,
    fir_program,
    histogram_program,
    relu_program,
)
from repro.kernels.suite import executable_kernel_names, load_program
from repro.machine import run_bitstream
from repro.mapper import map_baseline, map_dvfs_aware
from repro.mapper.bitstream import bitstream_for_lowered
from repro.mapper.mapping import Placement
from repro.utils.rng import make_rng

#: Small programs for the machine's own counters and failure modes; the
#: full program x strategy value matrix lives in tests/test_differential.
PROGRAMS = {
    "fir": lambda: fir_program(n=10, taps=3),
    "relu": lambda: relu_program(n=12),
    "conv1d": lambda: conv1d_program(n=8, k=2),
    "dtw_band": lambda: dtw_band_program(n=8),
}


def prepared(name, seed=0):
    kernel = PROGRAMS[name]()
    rng = make_rng(seed)
    memory = {
        arr: rng.normal(size=size).tolist()
        for arr, size in kernel.arrays.items()
    }
    return kernel, memory, lower_kernel(kernel, flatten=True)


class TestMachineExecution:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_baseline_bitstream_computes_reference(self, name):
        kernel, memory, lowered = prepared(name)
        expected = run_kernel_ast(kernel, memory)
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        result = run_bitstream(bitstream, memory, lowered.trip_count)
        for array in kernel.arrays:
            assert result.memory[array] == pytest.approx(
                expected[array]
            ), f"array {array!r} diverged for {name}"

    @pytest.mark.parametrize("name", ["fir", "relu"])
    def test_iced_bitstream_computes_reference(self, name):
        kernel, memory, lowered = prepared(name, seed=7)
        expected = run_kernel_ast(kernel, memory)
        mapping = map_dvfs_aware(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        result = run_bitstream(bitstream, memory, lowered.trip_count)
        for array in kernel.arrays:
            assert result.memory[array] == pytest.approx(expected[array])

    def test_issue_and_send_counts(self):
        _, memory, lowered = prepared("fir")
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        result = run_bitstream(bitstream, memory, lowered.trip_count)
        placed = len(mapping.placements)
        assert result.issues == placed * lowered.trip_count
        assert result.sends > 0
        assert result.queue_high_water >= 1

    def test_cycle_count_near_static_prediction(self):
        _, memory, lowered = prepared("fir")
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        result = run_bitstream(bitstream, memory, lowered.trip_count)
        static = (lowered.trip_count - 1) * mapping.ii \
            + mapping.schedule_depth()
        # Elastic execution may drain slightly past the static estimate
        # but must stay within a couple of periods of it.
        assert result.cycles <= static + 3 * mapping.ii
        assert result.cycles >= (lowered.trip_count - 1) * mapping.ii

    def test_predicated_stores_counted(self):
        kernel, memory, lowered = prepared("relu", seed=3)
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        result = run_bitstream(bitstream, memory, lowered.trip_count)
        # relu writes through one of two predicated stores per element.
        assert result.stores_committed >= lowered.trip_count
        assert result.stores_predicated_off > 0

    def test_zero_iterations(self):
        _, memory, lowered = prepared("fir")
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        result = run_bitstream(bitstream, memory, 0)
        assert result.cycles == 0 and result.issues == 0

    def test_missing_memory_rejected(self):
        _, memory, lowered = prepared("fir")
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        del memory["h"]
        with pytest.raises(SimulationError, match="missing"):
            run_bitstream(bitstream, memory, 4)

    def test_sabotaged_send_stalls_loudly(self):
        # Drop one send from the image: the machine must detect the
        # starvation instead of silently producing wrong data.
        _, memory, lowered = prepared("fir")
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        for slots in bitstream.words.values():
            for word in slots:
                if word.sends:
                    word.sends.pop()
                    with pytest.raises(SimulationError, match="stalled"):
                        run_bitstream(bitstream, memory, 4,
                                      max_cycles=2000)
                    return
        pytest.skip("no sends to sabotage")


class TestMemoryOrdering:
    """The lowering always orders a store before later loads of the same
    array; only aliasing kernels (histogram) get such an edge."""

    def _setup(self):
        kernel = histogram_program(n=24, bins=4)
        rng = make_rng(11)
        memory = {
            "data": [float(abs(int(v * 10))) for v in rng.normal(size=24)],
            "hist": [0.0] * 4,
        }
        return kernel, memory

    @staticmethod
    def _store_to_load(dfg):
        return [
            e for e in dfg.edges()
            if dfg.node(e.src).opcode is Opcode.STORE
            and dfg.node(e.dst).opcode is Opcode.LOAD
        ]

    def test_ordered_lowering_adds_edges(self):
        kernel, _memory = self._setup()
        lowered = lower_kernel(kernel, flatten=True)
        edges = self._store_to_load(lowered.dfg)
        # The last store of hist orders the next iteration's load.
        assert [e.dist for e in edges] == [1]
        assert lowered.meta[edges[0].src]["array"] == "hist"
        assert lowered.meta[edges[0].dst]["array"] == "hist"

    def test_interpreter_unaffected_by_ordering_edges(self):
        kernel, memory = self._setup()
        expected = run_kernel_ast(kernel, memory)
        lowered = lower_kernel(kernel, flatten=True)
        out = run_lowered_dfg(lowered, memory)
        assert out.memory["hist"] == expected["hist"]

    def test_histogram_on_machine(self):
        kernel, memory = self._setup()
        expected = run_kernel_ast(kernel, memory)
        lowered = lower_kernel(kernel, flatten=True)
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        bitstream = bitstream_for_lowered(mapping, lowered)
        result = run_bitstream(bitstream, memory, lowered.trip_count)
        assert result.memory["hist"] == expected["hist"]

    def test_non_aliasing_kernel_unchanged(self):
        # No other program both reads and writes one array, so none
        # gets an ordering edge: they keep their parallelism.
        for name in executable_kernel_names():
            if name == "histogram":
                continue
            lowered = lower_kernel(load_program(name), flatten=True)
            assert self._store_to_load(lowered.dfg) == [], name


class TestCorruptedSchedule:
    def test_consumer_before_operands_rejected(self):
        # Pull the latest-issued consumer to time 0, before its
        # operands: the bitstream generator's timing check must refuse.
        _, _memory, lowered = prepared("fir")
        mapping = map_baseline(lowered.dfg, CGRA.build(6, 6))
        broken = copy.copy(mapping)
        broken.placements = dict(mapping.placements)
        victim = max(
            (n for n in broken.placements if lowered.dfg.in_edges(n)),
            key=lambda n: broken.placements[n].time,
        )
        old = broken.placements[victim]
        broken.placements[victim] = Placement(victim, old.tile, 0)
        with pytest.raises(ValidationError):
            bitstream_for_lowered(broken, lowered)
