"""Closed-form access counting for a mapped loop nest.

The model walks each tensor's keeper chain (the storage levels holding it,
outermost first, ending at the compute consumer) and counts, per hop:

* how many times the inner end's tile changes (temporal reuse collapses
  loop iterations that do not move the tile);
* how many transmissions cross each edge on the hop once spatial
  multicast merges instances that receive identical data;
* for Outputs, the read-modify-update stream into the accumulation level,
  drains of finished partials upward with spatial reduction, and refetch
  of previously drained partials when a tile becomes resident again.

Counting conventions (shared verbatim by the interpreter in oracle):

* the compute level buffers nothing: every MAC fetches each operand, so
  demand at the innermost edge is one value per MAC per tensor;
* fills record multicast-collapsed transmissions, so a hop's fills at the
  inner level equal its reads at the outer level;
* every update at the accumulation level is a read-modify-write,
  including the first touch of a tile;
* a tile is identified by its loop indices, not its contents, so
  overlapping convolution halos are re-sent (documented overcount).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .spec_model import (
    DIMS,
    INPUTS,
    OUTPUTS,
    TENSOR_DIMS,
    TENSORS,
    WEIGHTS,
    Architecture,
    Layer,
    Mapping,
    MappingError,
    effective_bounds,
    effective_keeps,
    keeper_levels,
    multicast_width,
    reduce_width,
    tile_values,
    validate_mapping,
)

DOWN = "down"
UP = "up"


@dataclass(eq=True)
class LevelCounts:
    reads: int = 0
    fills: int = 0
    updates: int = 0
    drains: int = 0

    def total(self) -> int:
        return self.reads + self.fills + self.updates + self.drains


@dataclass(eq=True)
class AccessCounts:
    """Access counts for one (architecture, layer, mapping) triple.

    per_level is keyed by (level index, tensor) for storage levels and the
    tensors they keep. conversions is keyed by (converter name, tensor).
    edge_crossings / edge_demand are keyed by (edge, tensor, direction) and
    record unique values crossing each edge and the consumer demand just
    inside it, whether or not a converter sits there.
    """

    per_level: dict[tuple[int, str], LevelCounts] = field(default_factory=dict)
    conversions: dict[tuple[str, str], int] = field(default_factory=dict)
    compute_reads: dict[str, int] = field(default_factory=dict)
    macs: int = 0
    real_macs: int = 0
    edge_crossings: dict[tuple[int, str, str], int] = field(default_factory=dict)
    edge_demand: dict[tuple[int, str, str], int] = field(default_factory=dict)


@dataclass(frozen=True)
class ReuseFactor:
    """Reuse decomposition at one edge for one tensor and flow direction.

    Invariant: conversions * spatial_multicast * temporal_reuse equals the
    demand just inside the edge.
    """

    edge: int
    tensor: str
    direction: str
    converter: str | None
    conversions: int
    spatial_multicast: int
    temporal_reuse: int | Fraction


# ----------------------------------------------------------------------------
# Nest structure shared with the interpreter oracle
# ----------------------------------------------------------------------------


def loop_list(mapping: Mapping) -> list[tuple[int, str, int]]:
    """Global temporal loops, outermost first: (level, dim, extent), extent > 1.
    Level blocks are contiguous; within a level the permutation rules."""

    loops = []
    for j, lm in enumerate(mapping.levels):
        for d, e in lm.loops():
            if e > 1:
                loops.append((j, d, e))
    return loops


def innermost_relevant(loops: list[tuple[int, str, int]], level: int, tensor: str) -> int:
    """Position of the innermost temporal loop at or above `level` whose dim
    moves this tensor's tile; -1 if none (the tile never changes)."""

    dims = TENSOR_DIMS[tensor]
    for i in range(len(loops) - 1, -1, -1):
        lj, d, _ = loops[i]
        if lj <= level and d in dims:
            return i
    return -1


def residencies(loops: list[tuple[int, str, int]], level: int, tensor: str) -> int:
    """Times the (level, tensor) tile changes over the walk, counting the
    initial fill: the product of loop extents at or outside the innermost
    relevant loop, because any of them advancing resets or moves it."""

    pos = innermost_relevant(loops, level, tensor)
    n = 1
    for i in range(pos + 1):
        n *= loops[i][2]
    return n


def distinct_tiles(loops: list[tuple[int, str, int]], level: int, tensor: str) -> int:
    dims = TENSOR_DIMS[tensor]
    n = 1
    for lj, d, e in loops:
        if lj <= level and d in dims:
            n *= e
    return n


@dataclass(frozen=True)
class Hop:
    """One transfer leg of a tensor's keeper chain. inner == the compute
    level index means the consumer is the (bufferless) compute stage."""

    tensor: str
    outer: int
    inner: int
    edges: tuple[int, ...]   # physical edges crossed, outermost first


def tensor_hops(arch: Architecture, mapping: Mapping, tensor: str) -> list[Hop]:
    """Descending chain for a tensor, ending at compute for operands read
    by the MACs. For Outputs the chain stops at the accumulation level."""

    keepers = keeper_levels(arch, mapping.keep_overrides, tensor)
    ends = keepers + ([] if tensor == OUTPUTS else [len(arch.levels) - 1])
    hops = []
    for outer, inner in zip(ends, ends[1:]):
        hops.append(Hop(tensor, outer, inner, tuple(range(outer + 1, inner + 1))))
    return hops


def accumulation_level(arch: Architecture, mapping: Mapping) -> int:
    return keeper_levels(arch, mapping.keep_overrides, OUTPUTS)[-1]


def output_stream(arch: Architecture, mapping: Mapping) -> Hop:
    """The leg MAC partials take up from the compute level to the
    accumulation level, where they are read, modified and updated."""

    acc = accumulation_level(arch, mapping)
    compute = len(arch.levels) - 1
    return Hop(OUTPUTS, acc, compute, tuple(range(acc + 1, compute + 1)))


def _edge_crosses_domain(arch: Architecture, edge: int) -> bool:
    return (arch.levels[edge - 1].component.domain_out
            != arch.levels[edge].component.domain_in)


def converter_at(arch: Architecture, edge: int, tensor: str, direction: str):
    outer = arch.levels[edge - 1].component.domain_out
    for cv in arch.converters:
        if cv.edge != edge or tensor not in cv.tensors:
            continue
        descending = cv.component.domain_in == outer
        if (direction == DOWN) == descending:
            return cv
    return None


def _collapse(arch: Architecture, mapping: Mapping, hop: Hop, edge: int,
              direction: str) -> int:
    """Width of the transmission merge seen by edge `edge` of a hop: forks
    (descending) or merges (ascending) at this edge and all deeper ones
    happen at or after the crossing, so they share one signal."""

    w = 1
    for m in hop.edges:
        if m < edge:
            continue
        if direction == DOWN:
            w *= multicast_width(arch, mapping, m, hop.tensor)
        else:
            w *= reduce_width(arch, mapping, m)
    return w


def _div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise AssertionError(f"inexact collapse {n}/{d}")
    return q


# ----------------------------------------------------------------------------
# Analytical counting
# ----------------------------------------------------------------------------


def analyze(arch: Architecture, layer: Layer, mapping: Mapping) -> AccessCounts:
    """Count every access implied by the mapping, in closed form."""

    validate_mapping(mapping, layer, arch)

    loops = loop_list(mapping)
    compute = len(arch.levels) - 1
    nest = mapping.nest
    padded = nest.padded
    bounds = effective_bounds(layer, mapping)
    macs = 1
    real = 1
    for d in DIMS:
        macs *= padded[d]
        real *= min(padded[d], bounds[d])

    counts = AccessCounts(macs=macs, real_macs=real)
    for i in range(compute):
        for t in TENSORS:
            if t in effective_keeps(arch, mapping.keep_overrides, i):
                counts.per_level[(i, t)] = LevelCounts()
    for cv in arch.converters:
        for t in cv.tensors:
            counts.conversions[(cv.name, t)] = 0
    counts.compute_reads = {t: macs for t in TENSORS}

    sizes = {(i, t): tile_values(layer, nest.tiles[i], t)
             for i in range(compute) for t in TENSORS}

    def record_crossings(hop: Hop, base: int, direction: str) -> None:
        for k in hop.edges:
            n = _div(base, _collapse(arch, mapping, hop, k, direction))
            key = (k, hop.tensor, direction)
            counts.edge_crossings[key] = counts.edge_crossings.get(key, 0) + n
            cv = converter_at(arch, k, hop.tensor, direction)
            if cv is not None:
                counts.conversions[(cv.name, hop.tensor)] += n
            elif _edge_crosses_domain(arch, k):
                if direction == DOWN and hop.tensor == OUTPUTS:
                    raise MappingError(
                        "ConverterMissing",
                        f"partial {OUTPUTS} refetched across the "
                        f"domain-crossing edge into level "
                        f"{arch.levels[k].name!r} with no descending "
                        f"converter", tensor=OUTPUTS,
                        level=arch.levels[k].name)
                raise AssertionError("uncovered domain crossing")

    # Operand tensors flow down their keeper chains.
    for tensor in (WEIGHTS, INPUTS):
        hops = tensor_hops(arch, mapping, tensor)
        bases = []
        for hop in hops:
            if hop.inner == compute:
                base = macs
            else:
                base = (residencies(loops, hop.inner, tensor)
                        * sizes[(hop.inner, tensor)]
                        * nest.instances[hop.inner])
            bases.append(base)
        for i, hop in enumerate(hops):
            base = bases[i]
            delivered = _div(base, _collapse(arch, mapping, hop, hop.edges[0], DOWN))
            counts.per_level[(hop.outer, tensor)].reads += delivered
            if hop.inner != compute:
                counts.per_level[(hop.inner, tensor)].fills += delivered
            record_crossings(hop, base, DOWN)
            demand = bases[i + 1] if i + 1 < len(hops) else macs
            for k in hop.edges:
                key = (k, tensor, DOWN)
                counts.edge_demand[key] = counts.edge_demand.get(key, 0) + demand

    # Outputs: MAC partials ascend to the accumulation level...
    stream = output_stream(arch, mapping)
    acc = stream.outer
    arrivals = _div(macs, _collapse(arch, mapping, stream, stream.edges[0], UP))
    record_crossings(stream, macs, UP)
    for k in stream.edges:
        counts.edge_demand[(k, OUTPUTS, UP)] = macs
    counts.per_level[(acc, OUTPUTS)].updates += arrivals
    counts.per_level[(acc, OUTPUTS)].reads += arrivals

    # ...then finished tiles drain upward hop by hop, and partial tiles whose
    # residency recurs are refetched back down first.
    demand_into = arrivals
    for hop in reversed(tensor_hops(arch, mapping, OUTPUTS)):
        inner, outer = hop.inner, hop.outer
        tc = residencies(loops, inner, OUTPUTS)
        size = sizes[(inner, OUTPUTS)]
        inst = nest.instances[inner]
        drained = tc * size * inst
        counts.per_level[(inner, OUTPUTS)].drains += drained
        merged = _div(drained, _collapse(arch, mapping, hop, hop.edges[0], UP))
        counts.per_level[(outer, OUTPUTS)].updates += merged
        record_crossings(hop, drained, UP)
        for k in hop.edges:
            counts.edge_demand[(k, OUTPUTS, UP)] = demand_into

        refetch = tc - distinct_tiles(loops, inner, OUTPUTS)
        if refetch:
            base = refetch * size * inst
            filled = _div(base, _collapse(arch, mapping, hop, hop.edges[0], DOWN))
            counts.per_level[(inner, OUTPUTS)].fills += filled
            counts.per_level[(outer, OUTPUTS)].reads += filled
            record_crossings(hop, base, DOWN)
            for k in hop.edges:
                counts.edge_demand[(k, OUTPUTS, DOWN)] = base
        demand_into = merged

    return counts


# ----------------------------------------------------------------------------
# Reuse factor report
# ----------------------------------------------------------------------------


def reuse_factors(counts: AccessCounts, arch: Architecture,
                  mapping: Mapping) -> list[ReuseFactor]:
    """Decompose each edge crossing into conversions x spatial sharing x
    temporal reuse of the delivered values. Entries with zero crossings are
    omitted."""

    out = []
    for (edge, tensor, direction), crossing in sorted(counts.edge_crossings.items()):
        if crossing == 0:
            continue
        hop = _hop_crossing(arch, mapping, edge, tensor)
        sm = _collapse(arch, mapping, hop, edge, direction)
        demand = counts.edge_demand[(edge, tensor, direction)]
        tr = Fraction(demand, crossing * sm)
        cv = converter_at(arch, edge, tensor, direction)
        out.append(ReuseFactor(
            edge=edge,
            tensor=tensor,
            direction=direction,
            converter=None if cv is None else cv.name,
            conversions=crossing,
            spatial_multicast=sm,
            temporal_reuse=int(tr) if tr.denominator == 1 else tr,
        ))
    return out


def _hop_crossing(arch: Architecture, mapping: Mapping, edge: int, tensor: str) -> Hop:
    hops = tensor_hops(arch, mapping, tensor)
    if tensor == OUTPUTS:
        hops.append(output_stream(arch, mapping))
    for hop in hops:
        if edge in hop.edges:
            return hop
    raise KeyError((edge, tensor))
