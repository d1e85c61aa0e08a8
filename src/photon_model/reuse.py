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
count validates first. The mapper's search counts its candidates without
validation, as its filter admits only mappings validation accepts, and
evaluates (so validates) the one mapping it returns.

What counting reads that depends only on the architecture and the keep
overrides is planned once per (architecture, override set) as a
CountPlan, kept on the architecture (count_plan): the AccessCounts keys,
each hop between consecutive keepers of a chain (Architecture.keepers)
as a leg, the output stream, and per edge crossed the converter and the
spatial dims its mesh merges (spec_model.merge_dims), all as slots of
flat lists. The counting itself is one arithmetic core, tally: from the
tile extents, instances and loops of a nest and the merge widths at each
edge (one suffix product per leg over the spatial factors,
CountPlan.merge_widths, which reuse_factors reads too) it fills a Tally,
flat lists in the plan's layout. count validates a mapping and reads
those inputs from mapping.nest; analyze packs its tally into AccessCounts
(pack), and evaluator.evaluate prices the tally as it stands, then packs
it once for its result. The mapper's search reads them from its picked
chains and prices the tally as it stands. The oracle shares nothing with
this module: not the legs, the plan or the core. The count containers
(AccessCounts, LevelCounts) are spec_model's, as every engine returns
them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
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
    AccessCounts,
    Architecture,
    Layer,
    LevelCounts,
    Mapping,
    effective_bounds,
    effective_keeps,
    merge_dims,
    override_key,
    tile_values,
    validate_mapping,
)


# Per level index, a dim -> extent mapping: a sequence over every level,
# or a dict over the levels read.
Levelwise = Sequence[dict[str, int]] | dict[int, dict[str, int]]


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


def residencies(loops: Sequence[tuple[int, str, int]], spans: list[int],
                level: int, tensor: str) -> int:
    """Times the (level, tensor) tile changes over the walk, counting the
    initial fill: the product of loop extents at or outside the innermost
    loop at or above `level` whose dim moves the tile (none when it never
    changes), because any of them advancing resets or moves it. spans[i]
    is the product of the extents of loops[:i]."""

    dims = TENSOR_DIMS[tensor]
    for i in range(len(loops) - 1, -1, -1):
        lj, d, _ = loops[i]
        if lj <= level and d in dims:
            return spans[i + 1]
    return 1


def distinct_tiles(loops: Sequence[tuple[int, str, int]],
                   level: int, tensor: str) -> int:
    dims = TENSOR_DIMS[tensor]
    n = 1
    for lj, d, e in loops:
        if lj <= level and d in dims:
            n *= e
    return n


class Crossing(NamedTuple):
    """One edge of a leg: its (edge, tensor, direction) key, the spatial
    dims whose copies share one signal there (merge_dims), and the
    (converter name, tensor) conversion key, or None with no converter."""

    key: tuple[int, str, str]
    dims: tuple[str, ...]
    conversion: tuple[str, str] | None


@dataclass(frozen=True)
class Leg:
    """One hop, from a keeper to the next keeper of its chain (or to
    compute), walked in one direction, as counting reads it: its
    crossings, outermost edge first, at the plan's edge slots `first`
    onward; the Tally slots of its outer and inner level's counters
    (inner_at is -1 at the compute level); and per crossing the slot of
    its conversion counter, -1 with no converter."""

    outer: int
    inner: int
    crossings: tuple[Crossing, ...]
    first: int
    outer_at: int
    inner_at: int
    conversions_at: tuple[int, ...]


@dataclass(frozen=True)
class CountPlan:
    """Everything counting reads that depends only on the architecture and
    a mapping's keep overrides, built once per pair (count_plan).

    level_keys and conversion_keys are the (level, tensor) and (converter
    name, tensor) keys of AccessCounts, in their order, and lay out a
    Tally. edges holds every (edge, tensor, direction) a leg crosses, one
    edge slot each, in leg order. operands holds the
    Weights and Inputs legs down their keeper chains; stream the Outputs
    leg up from compute to the accumulation level; drains, innermost hop
    first, each Outputs hop's ascending leg and its descending (refetch)
    leg. A leg's inner level names the tile size its hop counts. leg_at
    maps each edge key to (leg, position). tiled holds the levels whose
    tile counting reads; merging the legs with a crossing whose mesh
    merges, and merged the levels of those crossings, whose spatial
    factors merge_widths reads.
    """

    compute: int
    level_keys: tuple[tuple[int, str], ...]
    conversion_keys: tuple[tuple[str, str], ...]
    edges: tuple[tuple[int, str, str], ...]
    tiled: tuple[int, ...]
    merging: tuple[Leg, ...]
    merged: tuple[int, ...]
    operands: tuple[tuple[str, tuple[Leg, ...]], ...]
    stream: Leg
    drains: tuple[tuple[Leg, Leg], ...]
    leg_at: MappingProxyType[tuple[int, str, str], tuple[Leg, int]]

    @classmethod
    def of(cls, arch: Architecture,
           keep_overrides: dict[int, tuple[str, ...]]) -> CountPlan:
        compute = len(arch.levels) - 1
        level_keys = tuple((i, t) for i in range(compute) for t in TENSORS
                           if t in effective_keeps(arch, keep_overrides, i))
        conversion_keys = tuple((cv.name, t) for cv in arch.converters
                                for t in cv.tensors)
        level_at = {key: 4 * i for i, key in enumerate(level_keys)}
        conversion_at = {key: i for i, key in enumerate(conversion_keys)}
        chains = arch.keepers(keep_overrides)[0]
        legs: list[Leg] = []

        def leg(tensor: str, outer: int, inner: int, direction: str) -> Leg:
            crossings = []
            for k in range(outer + 1, inner + 1):
                key = (k, tensor, direction)
                cv = arch.edge_converters.get(key)
                crossings.append(Crossing(
                    key, merge_dims(arch, k, tensor, direction),
                    None if cv is None else (cv.name, tensor)))
            legs.append(Leg(
                outer, inner, tuple(crossings),
                sum(len(lg.crossings) for lg in legs),
                level_at[(outer, tensor)],
                level_at.get((inner, tensor), -1),
                tuple(conversion_at.get(c.conversion, -1)
                      for c in crossings)))
            return legs[-1]

        operands = tuple(
            (t, tuple(leg(t, outer, inner, DOWN) for outer, inner
                      in zip(chains[t], chains[t][1:] + (compute,))))
            for t in (WEIGHTS, INPUTS))
        inward = chains[OUTPUTS][::-1]
        stream = leg(OUTPUTS, inward[0], compute, UP)
        drains = tuple((leg(OUTPUTS, outer, inner, UP),
                        leg(OUTPUTS, outer, inner, DOWN))
                       for outer, inner in zip(inward[1:], inward))
        return cls(
            compute=compute,
            level_keys=level_keys,
            conversion_keys=conversion_keys,
            edges=tuple(c.key for lg in legs for c in lg.crossings),
            tiled=tuple(sorted({lg.inner for lg in legs
                                if lg.inner != compute})),
            merging=tuple(lg for lg in legs
                          if any(c.dims for c in lg.crossings)),
            merged=tuple(sorted({c.key[0] for lg in legs
                                 for c in lg.crossings if c.dims})),
            operands=operands,
            stream=stream,
            drains=drains,
            leg_at=MappingProxyType({c.key: (lg, i) for lg in legs
                                     for i, c in enumerate(lg.crossings)}),
        )

    def merge_widths(self, spatial: Levelwise) -> list[int]:
        """Width of the transmission merge seen at each edge slot, where
        spatial[j] maps a dim to its spatial factor at each level j of
        `merged` (1 when missing). Forks (descending) or merges
        (ascending) at an edge and at every deeper edge of its leg happen
        at or after the crossing, so they share one signal: a leg's first
        slot merges the whole hop."""

        widths = [1] * len(self.edges)
        for lg in self.merging:
            w = 1
            for i in range(len(lg.crossings) - 1, -1, -1):
                key, dims, _ = lg.crossings[i]
                if dims:
                    factors = spatial[key[0]]
                    for d in dims:
                        w *= factors.get(d, 1)
                widths[lg.first + i] = w
        return widths


def count_plan(arch: Architecture,
               keep_overrides: dict[int, tuple[str, ...]]) -> CountPlan:
    """The CountPlan of the architecture under a mapping's keep overrides,
    kept on the architecture per override set."""

    return arch.derived(("count_plan", override_key(keep_overrides)),
                        lambda: CountPlan.of(arch, keep_overrides))


# ----------------------------------------------------------------------------
# Analytical counting
# ----------------------------------------------------------------------------


class Tally(NamedTuple):
    """The counts of one mapping laid out by its CountPlan: levels holds
    reads, fills, updates and drains at 4 * i for level_keys[i],
    conversions one counter per conversion key, and crossings and demand
    one entry per edge slot, None where no transmission was recorded (a
    refetch leg with nothing to refetch)."""

    levels: list[int]
    conversions: list[int]
    crossings: list[int | None]
    demand: list[int | None]


def tally(plan: CountPlan, layer: Layer, tiles: Levelwise,
          instances: Sequence[int], loops: Sequence[tuple[int, str, int]],
          widths: list[int], macs: int) -> Tally:
    """The counting arithmetic, from what a mapping's nest fixes: the tile
    extents at each level of plan.tiled (LoopNest.tiles), the instances of
    each level, the temporal loops outermost first (LoopNest.loops), the
    merge width at each edge slot (CountPlan.merge_widths) and the padded
    MAC count."""

    compute = plan.compute
    levels = [0] * (4 * len(plan.level_keys))
    conversions = [0] * len(plan.conversion_keys)
    crossings: list[int | None] = [None] * len(plan.edges)
    demand: list[int | None] = [None] * len(plan.edges)
    spans = [1]
    for _, _, e in loops:
        spans.append(spans[-1] * e)

    def cross(leg: Leg, base: int, into: int) -> int:
        """Record the leg's crossings of `base` values and the demand
        `into` just inside each of its edges; returns the transmissions
        across its first edge, which its outer end sends."""

        slot = leg.first
        for at in leg.conversions_at:
            n, rest = divmod(base, widths[slot])
            if rest:
                raise AssertionError(f"inexact collapse {base}/{widths[slot]}")
            crossings[slot] = n
            demand[slot] = into
            if at >= 0:
                conversions[at] += n
            slot += 1
        return crossings[leg.first]

    # Operand tensors flow down their keeper chains.
    for tensor, legs in plan.operands:
        bases = [macs if leg.inner == compute else
                 (residencies(loops, spans, leg.inner, tensor)
                  * tile_values(layer, tiles[leg.inner], tensor)
                  * instances[leg.inner])
                 for leg in legs]
        bases.append(macs)
        for i, leg in enumerate(legs):
            delivered = cross(leg, bases[i], bases[i + 1])
            levels[leg.outer_at] += delivered
            if leg.inner_at >= 0:
                levels[leg.inner_at + 1] += delivered

    # Outputs: MAC partials ascend to the accumulation level...
    stream = plan.stream
    arrivals = cross(stream, macs, macs)
    levels[stream.outer_at] += arrivals
    levels[stream.outer_at + 2] += arrivals

    # ...then finished tiles drain upward hop by hop, and partial tiles whose
    # residency recurs are refetched back down first.
    demand_into = arrivals
    for up, down in plan.drains:
        inner = up.inner
        tc = residencies(loops, spans, inner, OUTPUTS)
        size = tile_values(layer, tiles[inner], OUTPUTS)
        inst = instances[inner]
        drained = tc * size * inst
        levels[up.inner_at + 3] += drained
        merged = cross(up, drained, demand_into)
        levels[up.outer_at + 2] += merged

        refetch = tc - distinct_tiles(loops, inner, OUTPUTS)
        if refetch:
            base = refetch * size * inst
            filled = cross(down, base, base)
            levels[down.inner_at + 1] += filled
            levels[down.outer_at] += filled
        demand_into = merged

    return Tally(levels, conversions, crossings, demand)


def pack(plan: CountPlan, counted: Tally, macs: int,
         real_macs: int) -> AccessCounts:
    """The AccessCounts of a tally laid out by `plan`."""

    levels = counted.levels
    return AccessCounts(
        per_level=dict(zip(plan.level_keys, map(
            LevelCounts, levels[0::4], levels[1::4], levels[2::4],
            levels[3::4]))),
        conversions=dict(zip(plan.conversion_keys, counted.conversions)),
        compute_reads=dict.fromkeys(TENSORS, macs),
        macs=macs,
        real_macs=real_macs,
        edge_crossings={key: n for key, n in zip(plan.edges,
                                                 counted.crossings)
                        if n is not None},
        edge_demand={key: n for key, n in zip(plan.edges, counted.demand)
                     if n is not None},
    )


def count(arch: Architecture, layer: Layer, mapping: Mapping
          ) -> tuple[CountPlan, Tally, int, int]:
    """Validate the mapping (validate_mapping), then tally its nest: the
    plan the tally is laid out by, the tally, and the padded and real MAC
    counts, the arguments pack takes."""

    validate_mapping(mapping, layer, arch)
    plan = count_plan(arch, mapping.keep_overrides)
    nest = mapping.nest
    padded = nest.padded
    bounds = effective_bounds(layer, mapping.batch_size)
    macs = 1
    real = 1
    for d in DIMS:
        macs *= padded[d]
        real *= min(padded[d], bounds[d])
    widths = plan.merge_widths([lm.spatial for lm in mapping.levels])
    return (plan, tally(plan, layer, nest.tiles, nest.instances, nest.loops,
                        widths, macs), macs, real)


def analyze(arch: Architecture, layer: Layer, mapping: Mapping) -> AccessCounts:
    """Count every access implied by the mapping, in closed form, once
    validate_mapping has accepted it: the tally of its nest, packed."""

    return pack(*count(arch, layer, mapping))


# ----------------------------------------------------------------------------
# Reuse factor report
# ----------------------------------------------------------------------------


def reuse_factors(counts: AccessCounts, arch: Architecture,
                  mapping: Mapping) -> list[ReuseFactor]:
    """Decompose each edge crossing into conversions x spatial sharing x
    temporal reuse of the delivered values. Entries with zero crossings are
    omitted."""

    plan = count_plan(arch, mapping.keep_overrides)
    widths = plan.merge_widths([lm.spatial for lm in mapping.levels])
    out = []
    for key, crossing in sorted(counts.edge_crossings.items()):
        if crossing == 0:
            continue
        leg, i = plan.leg_at[key]
        sm = widths[leg.first + i]
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
