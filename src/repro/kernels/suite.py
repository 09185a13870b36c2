"""Loading Table I kernels by name and unroll factor.

Two registries live here. :func:`load_kernel` serves the *synthesized*
Table I suite — graphs matching the published statistics, with no
executable semantics. :func:`load_program` serves the *executable*
program suite (:data:`repro.kernels.programs.ALL_PROGRAMS`) — real
frontend ASTs whose reference interpretation, DFG interpretation and
generated bitstream on the machine model must all agree (the
differential tests).
"""

from __future__ import annotations

from repro.dfg.graph import DFG
from repro.dfg.transforms import unroll as unroll_transform
from repro.errors import DFGError
from repro.kernels.synthesis import synthesize_dfg
from repro.kernels.table1 import TABLE1_SPECS, kernel_spec


def kernel_names() -> list[str]:
    """All Table I kernel names."""
    return sorted(TABLE1_SPECS)


def executable_kernel_names() -> list[str]:
    """The kernels with real, executable semantics (frontend ASTs)."""
    from repro.kernels.programs import ALL_PROGRAMS

    return sorted(ALL_PROGRAMS)


def load_program(name: str, **sizes):
    """The executable program ``name``, optionally resized.

    ``sizes`` forwards to the program factory (e.g. ``n=10, taps=3``
    for ``fir``) so tests can shrink instances to simulation-friendly
    trip counts.
    """
    from repro.kernels.programs import ALL_PROGRAMS

    if name not in ALL_PROGRAMS:
        raise DFGError(
            f"no executable program {name!r} "
            f"(have: {', '.join(sorted(ALL_PROGRAMS))})"
        )
    return ALL_PROGRAMS[name](**sizes)


def load_kernel(name: str, unroll: int = 1) -> DFG:
    """The Table I kernel ``name`` at ``unroll``.

    Unroll factors 1 and 2 reproduce the published statistics exactly;
    higher factors apply the generic graph-level unrolling transform to
    the unroll-2 graph (Table I does not publish them).
    """
    spec = kernel_spec(name)
    if unroll < 1:
        raise DFGError("unroll factor must be >= 1")
    if unroll <= 2:
        n, e, r = spec.stats(unroll)
        dfg = synthesize_dfg(
            f"{name}_u{unroll}" if unroll > 1 else name,
            n, e, r, domain=spec.domain,
        )
        return dfg
    if unroll % 2:
        raise DFGError(
            "unroll factors above 2 must be even (they extend the "
            "published unroll-2 graph)"
        )
    base = load_kernel(name, 2)
    return unroll_transform(base, unroll // 2)
