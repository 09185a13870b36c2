"""Differential testing across the three execution models.

Every executable suite kernel runs through three independent
implementations of the same semantics:

1. the frontend AST reference interpreter (``run_kernel_ast``),
2. the lowered-DFG interpreter (``run_lowered_dfg``),
3. the generated bitstream on the machine model
   (``machine.run_bitstream``), for a mapping produced by the unified
   compile pipeline under every strategy in ``KNOWN_STRATEGIES``.

All three must agree on every output array. The machine sees only
configuration words and follows the pipelined schedule cycle by cycle,
so it also catches cross-iteration memory hazards that an interpreter
evaluating iterations in program order cannot. Its cycle count must
stay within a few periods of the analytic execution model
(``sim.simulator.simulate_execution``). A disagreement localizes a bug
to whichever layer diverges — the point of differential testing.
"""

from functools import lru_cache

import pytest

from repro.arch.cgra import CGRA
from repro.compile import MappingCache, compile_dfg
from repro.errors import DFGError
from repro.frontend import lower_kernel, run_kernel_ast, run_lowered_dfg
from repro.kernels.programs import ALL_PROGRAMS
from repro.kernels.suite import executable_kernel_names, load_program
from repro.machine import run_bitstream
from repro.mapper.backends import KNOWN_STRATEGIES
from repro.mapper.bitstream import bitstream_for_lowered
from repro.sim.simulator import simulate_execution
from repro.utils.rng import make_rng

#: Simulation-friendly instance sizes (small trip counts, same shapes).
SIZES = {
    "fir": dict(n=10, taps=3),
    "relu": dict(n=12),
    "mvt": dict(n=4),
    "conv1d": dict(n=8, k=2),
    "histogram": dict(n=16, bins=4),
    "dotprod": dict(n=12),
    "spmv": dict(rows=4, nnz_per_row=2),
    "dtw_band": dict(n=8),
}

#: One pipeline cache across the whole module: the mapping of a kernel
#: is compiled once per strategy no matter how many tests probe it.
_CACHE = MappingCache()


@lru_cache(maxsize=None)
def _cgra() -> CGRA:
    return CGRA.build(6, 6)


@lru_cache(maxsize=None)
def _prepared(name: str):
    kernel = load_program(name, **SIZES[name])
    return kernel, lower_kernel(kernel, flatten=True)


def _memory(name: str, kernel, seed: int = 0):
    rng = make_rng(seed)
    mem = {
        arr: rng.normal(size=size).tolist()
        for arr, size in kernel.arrays.items()
    }
    # Integer-valued index arrays need sane contents.
    if name == "histogram":
        mem["data"] = [float(abs(int(v * 10))) for v in mem["data"]]
        mem["hist"] = [0.0] * len(mem["hist"])
    if name == "spmv":
        rows = len(mem["x"])
        mem["col"] = [float(abs(int(v * 100)) % rows) for v in mem["col"]]
    return mem


@lru_cache(maxsize=None)
def _mapped(name: str, strategy: str):
    _, lowered = _prepared(name)
    return compile_dfg(lowered.dfg, _cgra(), strategy,
                       cache=_CACHE).mapping


@lru_cache(maxsize=None)
def _machine(name: str, strategy: str, seed: int = 0):
    """The mapped kernel's bitstream run on the machine model."""
    kernel, lowered = _prepared(name)
    bitstream = bitstream_for_lowered(_mapped(name, strategy), lowered)
    return run_bitstream(bitstream, _memory(name, kernel, seed),
                         lowered.trip_count)


class TestRegistry:
    def test_executable_names_match_programs(self):
        assert executable_kernel_names() == sorted(ALL_PROGRAMS)
        assert sorted(SIZES) == executable_kernel_names()

    def test_load_program_resizes(self):
        kernel = load_program("fir", n=10, taps=3)
        assert kernel.arrays == {"x": 13, "h": 3, "y": 10}

    def test_unknown_program_rejected(self):
        with pytest.raises(DFGError, match="no executable program"):
            load_program("nonesuch")


class TestThreeWayAgreement:
    """Reference interp == DFG interp == bitstream on the machine."""

    @pytest.mark.parametrize("strategy", KNOWN_STRATEGIES)
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_outputs_agree(self, name, strategy):
        kernel, lowered = _prepared(name)
        memory = _memory(name, kernel)
        reference = run_kernel_ast(kernel, memory)
        interp = run_lowered_dfg(lowered, memory)
        machine = _machine(name, strategy)
        for array in kernel.arrays:
            assert interp.memory[array] == pytest.approx(
                reference[array]
            ), f"DFG interp diverges from reference on {array!r}"
            assert machine.memory[array] == pytest.approx(
                reference[array]
            ), (f"{strategy} bitstream diverges from reference on "
                f"{array!r}")

    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_baseline_and_iced_compute_identically(self, name):
        """DVFS awareness may change timing, never values."""
        kernel, _ = _prepared(name)
        runs = {
            strategy: _machine(name, strategy, seed=7).memory
            for strategy in ("baseline", "iced")
        }
        for array in kernel.arrays:
            assert runs["iced"][array] == pytest.approx(
                runs["baseline"][array]
            )


class TestCycleModelConsistency:
    """The analytic execution model and the machine agree on length."""

    @pytest.mark.parametrize("strategy", KNOWN_STRATEGIES)
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_total_cycles_agree(self, name, strategy):
        _, lowered = _prepared(name)
        mapping = _mapped(name, strategy)
        trip = lowered.trip_count
        stats = simulate_execution(mapping, trip)
        assert stats.ii == mapping.ii
        assert stats.iterations == trip
        assert stats.total_cycles == \
            (trip - 1) * mapping.ii + mapping.schedule_depth()

    @pytest.mark.parametrize("strategy", KNOWN_STRATEGIES)
    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_machine_cycles_near_static_prediction(self, name, strategy):
        _, lowered = _prepared(name)
        mapping = _mapped(name, strategy)
        trip = lowered.trip_count
        static = (trip - 1) * mapping.ii + mapping.schedule_depth()
        # Elastic execution may drain slightly past the static estimate
        # but must stay within a couple of periods of it.
        cycles = _machine(name, strategy).cycles
        assert (trip - 1) * mapping.ii <= cycles <= static + 3 * mapping.ii
