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

Counting assumes a mapping validate_mapping accepted and rejects none: in
particular, partials are refetched only down edges that convert them. So
analyze validates first, and count_valid does not: it serves the mapper's
search, whose filter admits only mappings validation accepts.

What counting reads that depends only on the architecture and the keep
overrides is planned once per (architecture, override set) as a CountPlan,
kept on the architecture (count_plan): the AccessCounts keys, each keeper
chain's hops as legs, the output stream, and per edge crossed the
converter and the spatial dims its mesh merges (spec_model.merge_dims).
analyze does per-mapping arithmetic only; a leg's merge widths are one
suffix product over the mapping's spatial factors (Leg.merge_widths),
which reuse_factors reads too. The oracle shares only the Hop vocabulary,
never the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .spec_model import (
    DIMS,
    DOWN,
    INPUTS,
    OUTPUTS,
    TENSOR_DIMS,
    TENSORS,
    UP,
    WEIGHTS,
    Architecture,
    Layer,
    LevelMapping,
    Mapping,
    effective_bounds,
    effective_keeps,
    merge_dims,
    override_key,
    tile_values,
    validate_mapping,
)


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
# Nest structure
# ----------------------------------------------------------------------------


def innermost_relevant(loops: tuple[tuple[int, str, int], ...],
                       level: int, tensor: str) -> int:
    """Position of the innermost temporal loop at or above `level` whose dim
    moves this tensor's tile; -1 if none (the tile never changes)."""

    dims = TENSOR_DIMS[tensor]
    for i in range(len(loops) - 1, -1, -1):
        lj, d, _ = loops[i]
        if lj <= level and d in dims:
            return i
    return -1


def residencies(loops: tuple[tuple[int, str, int], ...],
                level: int, tensor: str) -> int:
    """Times the (level, tensor) tile changes over the walk, counting the
    initial fill: the product of loop extents at or outside the innermost
    relevant loop, because any of them advancing resets or moves it."""

    pos = innermost_relevant(loops, level, tensor)
    n = 1
    for i in range(pos + 1):
        n *= loops[i][2]
    return n


def distinct_tiles(loops: tuple[tuple[int, str, int], ...],
                   level: int, tensor: str) -> int:
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

    keepers = arch.keepers(mapping.keep_overrides)[0][tensor]
    ends = keepers + (() if tensor == OUTPUTS else (len(arch.levels) - 1,))
    hops = []
    for outer, inner in zip(ends, ends[1:]):
        hops.append(Hop(tensor, outer, inner, tuple(range(outer + 1, inner + 1))))
    return hops


def accumulation_level(arch: Architecture, mapping: Mapping) -> int:
    return arch.keepers(mapping.keep_overrides)[0][OUTPUTS][-1]


def output_stream(arch: Architecture, mapping: Mapping) -> Hop:
    """The leg MAC partials take up from the compute level to the
    accumulation level, where they are read, modified and updated."""

    acc = accumulation_level(arch, mapping)
    compute = len(arch.levels) - 1
    return Hop(OUTPUTS, acc, compute, tuple(range(acc + 1, compute + 1)))


class Crossing(NamedTuple):
    """One edge of a leg: its (edge, tensor, direction) key, the spatial
    dims whose copies share one signal there (merge_dims), and the
    (converter name, tensor) conversion key, or None with no converter."""

    key: tuple[int, str, str]
    dims: tuple[str, ...]
    conversion: tuple[str, str] | None


@dataclass(frozen=True)
class Leg:
    """One hop walked in one direction, as counting reads it: its
    crossings, outermost edge first."""

    outer: int
    inner: int
    crossings: tuple[Crossing, ...]

    def merge_widths(self, levels: tuple[LevelMapping, ...]) -> list[int]:
        """Width of the transmission merge seen at each edge, outermost
        first: forks (descending) or merges (ascending) at an edge and all
        deeper ones happen at or after the crossing, so they share one
        signal. widths[0] merges the whole hop."""

        widths = []
        w = 1
        for key, dims, _ in reversed(self.crossings):
            spatial = levels[key[0]].spatial
            for d in dims:
                w *= spatial.get(d, 1)
            widths.append(w)
        widths.reverse()
        return widths


def _leg(arch: Architecture, hop: Hop, direction: str) -> Leg:
    crossings = []
    for k in hop.edges:
        key = (k, hop.tensor, direction)
        cv = arch.edge_converters.get(key)
        crossings.append(Crossing(
            key, merge_dims(arch, k, hop.tensor, direction),
            None if cv is None else (cv.name, hop.tensor)))
    return Leg(hop.outer, hop.inner, tuple(crossings))


@dataclass(frozen=True)
class CountPlan:
    """Everything counting reads that depends only on the architecture and
    a mapping's keep overrides, built once per pair (count_plan).

    level_keys and conversion_keys are the (level, tensor) and (converter
    name, tensor) keys of AccessCounts, in their order. operands holds the
    Weights and Inputs legs down their keeper chains; stream the Outputs
    leg up from compute to the accumulation level; drains, innermost hop
    first, each Outputs hop's ascending leg and its descending (refetch)
    leg. A leg's inner level names the tile size its hop counts. leg_at
    maps each (edge, tensor, direction) a leg crosses to (leg, position).
    """

    compute: int
    level_keys: tuple[tuple[int, str], ...]
    conversion_keys: tuple[tuple[str, str], ...]
    operands: tuple[tuple[str, tuple[Leg, ...]], ...]
    stream: Leg
    drains: tuple[tuple[Leg, Leg], ...]
    leg_at: MappingProxyType[tuple[int, str, str], tuple[Leg, int]]

    @classmethod
    def of(cls, arch: Architecture, mapping: Mapping) -> CountPlan:
        compute = len(arch.levels) - 1
        overrides = mapping.keep_overrides
        operands = tuple((t, tuple(_leg(arch, hop, DOWN)
                                   for hop in tensor_hops(arch, mapping, t)))
                         for t in (WEIGHTS, INPUTS))
        stream = _leg(arch, output_stream(arch, mapping), UP)
        drains = tuple((_leg(arch, hop, UP), _leg(arch, hop, DOWN))
                       for hop in reversed(tensor_hops(arch, mapping, OUTPUTS)))
        legs = [leg for _, ls in operands for leg in ls]
        legs += [stream, *(leg for pair in drains for leg in pair)]
        return cls(
            compute=compute,
            level_keys=tuple((i, t) for i in range(compute) for t in TENSORS
                             if t in effective_keeps(arch, overrides, i)),
            conversion_keys=tuple((cv.name, t) for cv in arch.converters
                                  for t in cv.tensors),
            operands=operands,
            stream=stream,
            drains=drains,
            leg_at=MappingProxyType({c.key: (leg, i) for leg in legs
                                     for i, c in enumerate(leg.crossings)}),
        )


def count_plan(arch: Architecture, mapping: Mapping) -> CountPlan:
    """The CountPlan of the architecture under the mapping's keep
    overrides, kept on the architecture per override set."""

    return arch.derived(("count_plan", override_key(mapping.keep_overrides)),
                        lambda: CountPlan.of(arch, mapping))


def _div(n: int, d: int) -> int:
    q, r = divmod(n, d)
    if r:
        raise AssertionError(f"inexact collapse {n}/{d}")
    return q


# ----------------------------------------------------------------------------
# Analytical counting
# ----------------------------------------------------------------------------


def analyze(arch: Architecture, layer: Layer, mapping: Mapping) -> AccessCounts:
    """Count every access implied by the mapping, in closed form, once
    validate_mapping has accepted it."""

    validate_mapping(mapping, layer, arch)
    return count_valid(arch, layer, mapping)


def count_valid(arch: Architecture, layer: Layer,
                mapping: Mapping) -> AccessCounts:
    """analyze without validation, for a mapping known to be valid, as
    every candidate the search completes is. Given a mapping
    validate_mapping rejects, the counts are meaningless."""

    plan = count_plan(arch, mapping)

    compute = plan.compute
    levels = mapping.levels
    nest = mapping.nest
    loops = nest.loops
    tiles = nest.tiles
    instances = nest.instances
    padded = nest.padded
    bounds = effective_bounds(layer, mapping.batch_size)
    macs = 1
    real = 1
    for d in DIMS:
        macs *= padded[d]
        real *= min(padded[d], bounds[d])

    per_level = {key: LevelCounts() for key in plan.level_keys}
    conversions = dict.fromkeys(plan.conversion_keys, 0)
    counts = AccessCounts(per_level=per_level, conversions=conversions,
                          compute_reads=dict.fromkeys(TENSORS, macs),
                          macs=macs, real_macs=real)
    crossings = counts.edge_crossings
    edge_demand = counts.edge_demand

    def record_crossings(leg: Leg, widths: list[int], base: int) -> None:
        for (key, _, conv), w in zip(leg.crossings, widths):
            n = _div(base, w)
            crossings[key] = crossings.get(key, 0) + n
            if conv is not None:
                conversions[conv] += n

    # Operand tensors flow down their keeper chains.
    for tensor, legs in plan.operands:
        bases = []
        for leg in legs:
            if leg.inner == compute:
                base = macs
            else:
                base = (residencies(loops, leg.inner, tensor)
                        * tile_values(layer, tiles[leg.inner], tensor)
                        * instances[leg.inner])
            bases.append(base)
        for i, leg in enumerate(legs):
            base = bases[i]
            widths = leg.merge_widths(levels)
            delivered = _div(base, widths[0])
            per_level[(leg.outer, tensor)].reads += delivered
            if leg.inner != compute:
                per_level[(leg.inner, tensor)].fills += delivered
            record_crossings(leg, widths, base)
            demand = bases[i + 1] if i + 1 < len(legs) else macs
            for key, _, _ in leg.crossings:
                edge_demand[key] = edge_demand.get(key, 0) + demand

    # Outputs: MAC partials ascend to the accumulation level...
    stream = plan.stream
    widths = stream.merge_widths(levels)
    arrivals = _div(macs, widths[0])
    record_crossings(stream, widths, macs)
    for key, _, _ in stream.crossings:
        edge_demand[key] = macs
    acc = per_level[(stream.outer, OUTPUTS)]
    acc.updates += arrivals
    acc.reads += arrivals

    # ...then finished tiles drain upward hop by hop, and partial tiles whose
    # residency recurs are refetched back down first.
    demand_into = arrivals
    for up, down in plan.drains:
        inner, outer = up.inner, up.outer
        tc = residencies(loops, inner, OUTPUTS)
        size = tile_values(layer, tiles[inner], OUTPUTS)
        inst = instances[inner]
        drained = tc * size * inst
        per_level[(inner, OUTPUTS)].drains += drained
        widths = up.merge_widths(levels)
        merged = _div(drained, widths[0])
        per_level[(outer, OUTPUTS)].updates += merged
        record_crossings(up, widths, drained)
        for key, _, _ in up.crossings:
            edge_demand[key] = demand_into

        refetch = tc - distinct_tiles(loops, inner, OUTPUTS)
        if refetch:
            base = refetch * size * inst
            widths = down.merge_widths(levels)
            filled = _div(base, widths[0])
            per_level[(inner, OUTPUTS)].fills += filled
            per_level[(outer, OUTPUTS)].reads += filled
            record_crossings(down, widths, base)
            for key, _, _ in down.crossings:
                edge_demand[key] = base
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

    plan = count_plan(arch, mapping)
    out = []
    for key, crossing in sorted(counts.edge_crossings.items()):
        if crossing == 0:
            continue
        leg, i = plan.leg_at[key]
        sm = leg.merge_widths(mapping.levels)[i]
        demand = counts.edge_demand[key]
        tr = Fraction(demand, crossing * sm)
        conv = leg.crossings[i].conversion
        edge, tensor, direction = key
        out.append(ReuseFactor(
            edge=edge,
            tensor=tensor,
            direction=direction,
            converter=None if conv is None else conv[0],
            conversions=crossing,
            spatial_multicast=sm,
            temporal_reuse=int(tr) if tr.denominator == 1 else tr,
        ))
    return out
