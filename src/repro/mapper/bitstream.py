"""Configuration-word (bitstream) generation from a mapping.

A spatio-temporal CGRA executes a modulo schedule by replaying, every II
cycles, one configuration word per tile per slot. This module lowers a
validated :class:`~repro.mapper.mapping.Mapping` into a complete,
*executable* configuration image — the artifact a DMA engine would load
into each tile's control memory (Fig 5's "control memory" path), and
the input of the machine-level simulator (:mod:`repro.machine`).

Encoding model (elastic, tag-indexed — UE-CGRA-lineage buffers):

* every in-flight value lives in a per-edge FIFO queue on some tile;
* an FU issue word names its opcode, one *operand selector* per input
  port (an edge queue to pop, or an immediate), and the list of edge
  queues its result fans out into;
* a *send* word pops an edge queue and injects the value into a mesh
  link, which delivers it to the neighbour's matching queue after the
  receiving tile's clock-domain delay;
* LOAD/STORE words carry their array's base address, CMP words their
  comparison operator, PHI words their initialization immediate.

The generator is strict: it re-derives everything from the mapping's
placements, routes and timing reconstruction, and refuses to emit
colliding control words — one more independent consistency check on
the mapper.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from repro.dfg.ops import Opcode
from repro.errors import ValidationError
from repro.frontend.lower import LoweredKernel
from repro.mapper.mapping import Mapping
from repro.mapper.timing import compute_timing


class PortName(enum.Enum):
    """Mesh directions a tile's crossbar can drive."""

    NORTH = "N"
    WEST = "W"
    EAST = "E"
    SOUTH = "S"
    NORTHWEST = "NW"
    NORTHEAST = "NE"
    SOUTHWEST = "SW"
    SOUTHEAST = "SE"


def _direction(cgra, src: int, dst: int) -> PortName:
    """The output port of ``src`` that reaches neighbour ``dst``."""
    a, b = cgra.tile(src), cgra.tile(dst)
    dx = b.x - a.x
    dy = b.y - a.y
    # Torus wrap: a +/-(n-1) offset is a single wrapped hop.
    if abs(dx) > 1:
        dx = -1 if dx > 0 else 1
    if abs(dy) > 1:
        dy = -1 if dy > 0 else 1
    name = {(0, 1): "S", (0, -1): "N", (1, 0): "E", (-1, 0): "W",
            (-1, -1): "NW", (1, -1): "NE", (-1, 1): "SW",
            (1, 1): "SE"}.get((dx, dy))
    if name is None:
        raise ValidationError(
            f"tiles {src} and {dst} are not neighbours"
        )
    return PortName(name)


@dataclass
class OperandSel:
    """One FU input-port selector.

    ``phi`` selectors additionally carry the loop-carried distance: the
    first ``dist`` firings consume the initialization immediate, every
    later one must wait for the back-edge queue.
    """

    kind: str          # "edge" | "imm" | "phi"
    edge: int | None = None
    value: float | None = None   # immediate / PHI init
    dist: int = 0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "edge": self.edge, "value": self.value,
                "dist": self.dist}


@dataclass
class Send:
    """Pop an edge queue and inject its value into a mesh link."""

    edge: int
    to_port: str
    to_tile: int
    delay: int  # base cycles until delivery (receiver's clock domain)

    def to_dict(self) -> dict:
        return {"edge": self.edge, "to": self.to_port,
                "to_tile": self.to_tile, "delay": self.delay}


@dataclass
class ConfigWord:
    """One tile's control word for one slot of the II."""

    opcode: Opcode | None = None
    node: int | None = None
    operands: list[OperandSel] = field(default_factory=list)
    out_edges: list[int] = field(default_factory=list)
    sends: list[Send] = field(default_factory=list)
    latency: int = 1           # base cycles the issue takes
    mem_base: int | None = None
    mem_index_const: int | None = None
    array: str | None = None
    cmp_op: str | None = None

    @property
    def is_idle(self) -> bool:
        return self.opcode is None and not self.sends

    def to_dict(self) -> dict:
        return {
            "opcode": self.opcode.name if self.opcode else None,
            "node": self.node,
            "operands": [op.to_dict() for op in self.operands],
            "out_edges": list(self.out_edges),
            "sends": [s.to_dict() for s in self.sends],
            "latency": self.latency,
            "mem_base": self.mem_base,
            "mem_index_const": self.mem_index_const,
            "array": self.array,
            "cmp_op": self.cmp_op,
        }


@dataclass
class Bitstream:
    """The full configuration image of a mapping."""

    kernel: str
    fabric: str
    ii: int
    words: dict[int, list[ConfigWord]]
    levels: dict[int, str]
    memory_layout: dict[str, int] = field(default_factory=dict)

    def words_used(self) -> int:
        """Non-idle configuration words (control-memory pressure)."""
        return sum(
            1 for slots in self.words.values()
            for word in slots if not word.is_idle
        )

    def to_json(self, indent: int | None = None) -> str:
        payload = {
            "kernel": self.kernel,
            "fabric": self.fabric,
            "ii": self.ii,
            "islands": self.levels,
            "memory_layout": self.memory_layout,
            "tiles": {
                str(tile): [w.to_dict() for w in slots]
                for tile, slots in self.words.items()
            },
        }
        return json.dumps(payload, indent=indent)


def memory_layout_of(lowered: LoweredKernel) -> dict[str, int]:
    """Array -> base word address: arrays packed in declaration order."""
    layout: dict[str, int] = {}
    offset = 0
    for array, size in lowered.kernel.arrays.items():
        layout[array] = offset
        offset += size
    return layout


def immediates_from_lowered(
    lowered: LoweredKernel,
    externals: dict[str, float] | None = None,
) -> dict[int, float]:
    """CONST-node values (and resolved externals) for the generator."""
    externals = externals or {}
    values: dict[int, float] = {}
    for node_id, info in lowered.meta.items():
        if "value" in info:
            values[node_id] = float(info["value"])
        elif "external" in info:
            values[node_id] = float(externals.get(info["external"], 0.0))
    return values


def phi_inits_from_lowered(
    lowered: LoweredKernel,
    externals: dict[str, float] | None = None,
) -> dict[int, float]:
    """PHI-node initialization values for the generator."""
    externals = externals or {}
    inits: dict[int, float] = {}
    for node_id, info in lowered.meta.items():
        if "init" in info:
            inits[node_id] = float(info["init"])
        elif "init_external" in info:
            inits[node_id] = float(
                externals.get(info["init_external"], 0.0)
            )
    return inits


def generate_bitstream(mapping: Mapping,
                       immediates: dict[int, float] | None = None,
                       phi_inits: dict[int, float] | None = None,
                       memory_layout: dict[str, int] | None = None,
                       node_meta: dict[int, dict] | None = None,
                       ) -> Bitstream:
    """Lower a validated mapping into per-tile configuration words.

    ``immediates``/``phi_inits``/``memory_layout``/``node_meta`` carry
    the semantic annotations of frontend-lowered kernels (use the
    ``*_from_lowered`` helpers); purely structural kernels (the Table I
    suite) can omit them — the bitstream is then schedule-complete but
    executes on zero-valued immediates.
    """
    report = compute_timing(mapping)  # refuses inconsistent mappings
    cgra, dfg, ii = mapping.cgra, mapping.dfg, mapping.ii
    immediates = immediates or {}
    phi_inits = phi_inits or {}
    node_meta = node_meta or {}
    memory_layout = memory_layout or {}
    edges = dfg.edges()
    words: dict[int, list[ConfigWord]] = {
        tile.id: [ConfigWord() for _ in range(ii)] for tile in cgra.tiles
    }

    # -- FU issue words -----------------------------------------------------
    for node_id, placement in mapping.placements.items():
        node = dfg.node(node_id)
        slot = placement.time % ii
        word = words[placement.tile][slot]
        if word.opcode is not None:
            raise ValidationError(
                f"bitstream collision: tile {placement.tile} slot {slot} "
                f"already issues {word.opcode.name}"
            )
        word.opcode = node.opcode
        word.node = node_id
        word.latency = (
            cgra.op_latency(placement.tile, node.opcode)
            * mapping.slowdown(placement.tile)
        )
        word.operands = _operand_selectors(
            dfg, mapping, node_id, immediates, phi_inits,
        )
        word.out_edges = [
            idx for idx, edge in enumerate(edges)
            if edge.src == node_id and idx in mapping.routes
        ]
        info = node_meta.get(node_id, {})
        if node.opcode is Opcode.CMP:
            word.cmp_op = info.get("op", "<")
        if node.opcode in (Opcode.LOAD, Opcode.STORE):
            word.array = info.get("array")
            if word.array is not None:
                word.mem_base = memory_layout.get(word.array, 0)
            if info.get("index_const") is not None:
                word.mem_index_const = int(info["index_const"])

    # -- send words: one per link traversal ---------------------------------
    for idx, route in mapping.routes.items():
        timing = report.edge_timings[idx]
        t = timing.depart
        for hop_src, hop_dst in zip(route.path, route.path[1:]):
            delay = mapping.slowdown(hop_dst)
            words[hop_src][t % ii].sends.append(Send(
                edge=idx,
                to_port=_direction(cgra, hop_src, hop_dst).value,
                to_tile=hop_dst,
                delay=delay,
            ))
            t += delay

    levels = {
        island.id: mapping.tile_levels[island.tile_ids[0]].name
        for island in cgra.islands
    }
    return Bitstream(
        kernel=dfg.name,
        fabric=cgra.name,
        ii=ii,
        words=words,
        levels=levels,
        memory_layout=dict(memory_layout),
    )


def bitstream_for_lowered(mapping: Mapping, lowered: LoweredKernel,
                          externals: dict[str, float] | None = None,
                          ) -> Bitstream:
    """Convenience: a fully annotated, machine-executable bitstream.

    Raises :class:`ValidationError` when ``mapping`` places a different
    DFG than ``lowered`` carries: the annotations (memory layout, PHI
    initial values, immediates) are keyed by ``lowered``'s node ids.
    """
    if _structure(mapping.dfg) != _structure(lowered.dfg):
        raise ValidationError(
            "mapping and lowered kernel disagree on the DFG "
            f"({mapping.dfg.name!r} vs {lowered.dfg.name!r})"
        )
    return generate_bitstream(
        mapping,
        immediates=immediates_from_lowered(lowered, externals),
        phi_inits=phi_inits_from_lowered(lowered, externals),
        memory_layout=memory_layout_of(lowered),
        node_meta=lowered.meta,
    )


def _structure(dfg) -> tuple:
    return ([(n.id, n.opcode) for n in dfg.nodes()], dfg.edges())


def _operand_selectors(dfg, mapping: Mapping, node_id: int,
                       immediates: dict[int, float],
                       phi_inits: dict[int, float]) -> list[OperandSel]:
    """One selector per input port, in port order."""
    selectors: list[tuple[int, OperandSel]] = []
    for idx, edge in enumerate(dfg.edges()):
        if edge.dst != node_id:
            continue
        if idx in mapping.routes:
            init = phi_inits.get(node_id)
            if edge.dist >= 1:
                selectors.append((edge.port, OperandSel(
                    "phi", edge=idx,
                    value=init if init is not None else 0.0,
                    dist=edge.dist,
                )))
            else:
                selectors.append((edge.port, OperandSel("edge", edge=idx)))
        else:  # immediate (CONST) operand
            value = immediates.get(edge.src, 0.0)
            selectors.append((edge.port, OperandSel("imm", value=value)))
    selectors.sort(key=lambda pair: pair[0])
    return [sel for _port, sel in selectors]
