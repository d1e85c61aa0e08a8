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
count validates first, and counts from the tile footprints validation's
capacity check computed: each is computed once per evaluation. The
mapper's search counts its candidates without validation, as its filter
admits only mappings validation accepts, computing from its picked chains
the footprints counting reads, and evaluates (so validates) the one
mapping it returns.

What counting reads that depends only on the architecture and the keep
overrides is planned once per (architecture, override set) as a
CountPlan, kept on the architecture (count_plan): the AccessCounts keys,
each hop between consecutive keepers of a chain as a leg, both read from
validation_plan's keep table, the output stream, and per edge crossed the
converter and the spatial dims its mesh merges (spec_model.merge_dims),
all as slots of flat lists. The counting itself is one arithmetic core,
tally: from the tile footprints, instances and loops of a nest and the
merge widths at each edge (one suffix product per leg over the spatial
factors, CountPlan.merge_widths, which reuse_factors reads too) it fills
a Tally, flat lists in the plan's layout. How often each level's tiles
change, and how many distinct Outputs tiles it holds, come from one
forward sweep over the loops (residencies), as the loops at or above a
level are a prefix of them. count validates a mapping, which gives the
footprints, and reads the rest from mapping.nest; analyze packs its
tally into AccessCounts (pack), and evaluator.evaluate prices the tally
as it stands, then packs it once for its result. The mapper's search
reads them from its picked chains and prices the tally as it stands. The
oracle shares nothing with this module: not the legs, the plan or the
core. The count containers (AccessCounts, LevelCounts) are spec_model's,
as every engine returns them.
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
    merge_dims,
    override_key,
    validate_mapping,
    validation_plan,
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


# Per dim, the bits of the tensors whose tile it moves: Weights, Inputs
# and Outputs, in that order.
_MOVES = {d: sum(1 << k for k, t in enumerate((WEIGHTS, INPUTS, OUTPUTS))
                 if d in TENSOR_DIMS[t]) for d in DIMS}


def residencies(loops: Sequence[tuple[int, str, int]],
                levels: int) -> list[tuple[int, int, int, int]]:
    """Per level below `levels`, in one forward sweep over the loops: the
    times the Weights, Inputs and Outputs tiles there change over the walk,
    counting the initial fill, and the distinct Outputs tiles. A tile
    changes with the product of loop extents at or outside the innermost
    loop at or above its level whose dim moves it (none when it never
    changes), because any of them advancing resets or moves it; its
    distinct tiles are the product of the extents of every such loop. The
    loops run outermost level first, so those at or above a level are a
    prefix of them."""

    out = []
    weights = inputs = outputs = distinct = span = 1
    for level, d, e in loops:
        if level >= levels:
            break
        while len(out) < level:
            out.append((weights, inputs, outputs, distinct))
        span *= e
        moves = _MOVES[d]
        if moves & 1:
            weights = span
        if moves & 2:
            inputs = span
        if moves & 4:
            outputs = span
            distinct *= e
    while len(out) < levels:
        out.append((weights, inputs, outputs, distinct))
    return out


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


@dataclass(frozen=True, eq=False)
class CountPlan:
    """Everything counting reads that depends only on the architecture and
    a mapping's keep overrides, built once per pair (count_plan) and
    compared by identity, as its price program is kept per plan
    (evaluator.price_program).

    level_keys and conversion_keys are the (level, tensor) and (converter
    name, tensor) keys of AccessCounts, in their order, and lay out a
    Tally; level_keys follows the keep table (ValidationPlan.capacity),
    each level's tensors in TENSORS order. edges holds every (edge, tensor,
    direction) a leg crosses, one edge slot each, in leg order. operands
    holds the Weights and Inputs legs down their keeper chains; stream the
    Outputs leg up from compute to the accumulation level; drains,
    innermost hop first, each Outputs hop's ascending leg and its
    descending (refetch) leg. A leg's inner level names the tile size its
    hop counts. leg_at maps each edge key to (leg, position). tiled holds,
    per level whose tiles counting reads, the tensors whose footprints it
    reads there: the keys tally looks up. merging holds, per leg with a
    crossing whose mesh merges, its crossings innermost first as (edge
    slot, level, merged dims), and merged the levels of those crossings,
    whose spatial factors merge_widths reads.
    """

    compute: int
    level_keys: tuple[tuple[int, str], ...]
    conversion_keys: tuple[tuple[str, str], ...]
    edges: tuple[tuple[int, str, str], ...]
    tiled: tuple[tuple[int, tuple[str, ...]], ...]
    merging: tuple[tuple[tuple[int, int, tuple[str, ...]], ...], ...]
    merged: tuple[int, ...]
    operands: tuple[tuple[str, tuple[Leg, ...]], ...]
    stream: Leg
    drains: tuple[tuple[Leg, Leg], ...]
    leg_at: MappingProxyType[tuple[int, str, str], tuple[Leg, int]]

    @classmethod
    def of(cls, arch: Architecture,
           keep_overrides: dict[int, tuple[str, ...]]) -> CountPlan:
        compute = len(arch.levels) - 1
        keeps = validation_plan(arch, keep_overrides)
        level_keys = tuple((i, t) for i, kept, _, _ in keeps.capacity
                           for t in TENSORS if t in kept)
        conversion_keys = tuple((cv.name, t) for cv in arch.converters
                                for t in cv.tensors)
        level_at = {key: 4 * i for i, key in enumerate(level_keys)}
        conversion_at = {key: i for i, key in enumerate(conversion_keys)}
        chains = keeps.chains
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
        tiled: dict[int, list[str]] = {}
        for t, hops in operands:
            for lg in hops:
                if lg.inner != compute:
                    tiled.setdefault(lg.inner, []).append(t)
        for up, _ in drains:
            tiled.setdefault(up.inner, []).append(OUTPUTS)
        return cls(
            compute=compute,
            level_keys=level_keys,
            conversion_keys=conversion_keys,
            edges=tuple(c.key for lg in legs for c in lg.crossings),
            tiled=tuple((level, tuple(ts))
                        for level, ts in sorted(tiled.items())),
            merging=tuple(
                tuple((lg.first + i, c.key[0], c.dims)
                      for i, c in enumerate(lg.crossings))[::-1]
                for lg in legs if any(c.dims for c in lg.crossings)),
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
        for crossings in self.merging:
            w = 1
            for slot, level, dims in crossings:
                if dims:
                    factors = spatial[level]
                    for d in dims:
                        w *= factors.get(d, 1)
                widths[slot] = w
        return widths


def count_plan(arch: Architecture,
               keep_overrides: dict[int, tuple[str, ...]],
               key: tuple | None = None) -> CountPlan:
    """The CountPlan of the architecture under a mapping's keep overrides,
    kept on the architecture per override set; `key` is their
    override_key, when the caller holds it (Mapping.keep_key)."""

    if key is None:
        key = override_key(keep_overrides)
    return arch.derived(("count_plan", key),
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


def tally(plan: CountPlan, footprints: dict[tuple[int, str], int],
          instances: Sequence[int], loops: Sequence[tuple[int, str, int]],
          widths: list[int], macs: int) -> Tally:
    """The counting arithmetic, from what a mapping's nest fixes: the
    values of each tensor's tile at each level of plan.tiled, keyed
    (level, tensor) (the footprints validate_mapping returns), the
    instances of each level, the temporal loops outermost first
    (LoopNest.loops), the merge width at each edge slot
    (CountPlan.merge_widths) and the padded MAC count."""

    compute = plan.compute
    levels = [0] * (4 * len(plan.level_keys))
    conversions = [0] * len(plan.conversion_keys)
    crossings: list[int | None] = [None] * len(plan.edges)
    demand: list[int | None] = [None] * len(plan.edges)
    resident = residencies(loops, compute)

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

    # Operand tensors flow down their keeper chains: Weights, then Inputs,
    # each leg's crossings recorded as cross records them. The demand just
    # inside a hop is what the next hop in carries, so the legs run
    # innermost first.
    for k, (tensor, legs) in enumerate(plan.operands):
        into = macs
        for leg in reversed(legs):
            inner = leg.inner
            base = (macs if inner == compute else
                    resident[inner][k] * footprints[inner, tensor]
                    * instances[inner])
            slot = leg.first
            for at in leg.conversions_at:
                n, rest = divmod(base, widths[slot])
                if rest:
                    raise AssertionError(
                        f"inexact collapse {base}/{widths[slot]}")
                crossings[slot] = n
                demand[slot] = into
                if at >= 0:
                    conversions[at] += n
                slot += 1
            delivered = crossings[leg.first]
            levels[leg.outer_at] += delivered
            if leg.inner_at >= 0:
                levels[leg.inner_at + 1] += delivered
            into = base

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
        _, _, tc, distinct = resident[inner]
        size = footprints[inner, OUTPUTS]
        inst = instances[inner]
        drained = tc * size * inst
        levels[up.inner_at + 3] += drained
        merged = cross(up, drained, demand_into)
        levels[up.outer_at + 2] += merged

        refetch = tc - distinct
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
    crossings, demand = {}, {}
    # A slot records its crossings and demand together, or neither.
    for key, n, into in zip(plan.edges, counted.crossings, counted.demand):
        if n is not None:
            crossings[key] = n
            demand[key] = into
    return AccessCounts(
        per_level=dict(zip(plan.level_keys, map(
            LevelCounts, levels[0::4], levels[1::4], levels[2::4],
            levels[3::4]))),
        conversions=dict(zip(plan.conversion_keys, counted.conversions)),
        compute_reads=dict.fromkeys(TENSORS, macs),
        macs=macs,
        real_macs=real_macs,
        edge_crossings=crossings,
        edge_demand=demand,
    )


def count(arch: Architecture, layer: Layer, mapping: Mapping
          ) -> tuple[CountPlan, Tally, int, int]:
    """Validate the mapping (validate_mapping), then tally its nest from
    the footprints validation returns: the plan the tally is laid out by,
    the tally, and the padded and real MAC counts, the arguments pack
    takes."""

    footprints = validate_mapping(mapping, layer, arch)
    plan = count_plan(arch, mapping.keep_overrides, mapping.keep_key)
    nest = mapping.nest
    bounds = effective_bounds(layer, mapping.batch_size)
    macs = real = 1
    for d, padded in nest.padded.items():
        bound = bounds[d]
        macs *= padded
        real *= padded if padded < bound else bound
    widths = plan.merge_widths([lm.spatial for lm in mapping.levels])
    return (plan, tally(plan, footprints, nest.instances, nest.loops, widths,
                        macs), macs, real)


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

    plan = count_plan(arch, mapping.keep_overrides, mapping.keep_key)
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
