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
all as slots of flat lists. Every price, bandwidth and static power laid
over that layout is a PriceProgram, kept per plan (price_program).

The counting and pricing themselves are code emitted from the two (emit):
straight-line Python with every leg unrolled into locals, in one fixed
order, and cycles and each component's energy added in the program's term
order. The text reads only the layout, never a number: the prices, the
bandwidths and the clock are bound as values (PriceProgram.values), so
architectures that differ only in numbers, such as reuse_sweep's geometry
points or a resized buffer, share one source. Each distinct source is
compiled once per process, kept by its text (_binder), and registered
with linecache, so a traceback shows its lines; it calls only the names
HANDED gives it. Its code, bound to an architecture's program, is kept
per plan (counter) and has two entry points. evaluate's (`count`) takes
the tile footprints validate_mapping returns, how often each level's
tiles change and how many distinct Outputs tiles it holds (residencies,
one forward sweep over LoopNest.loops, as the loops at or above a level
are a prefix of them), the instances, the merge widths at each edge (one
suffix product per leg over the spatial factors, CountPlan.merge_widths,
which reuse_factors reads too) and the MAC and step counts, and returns
the AccessCounts, which it builds itself from dict literals over the
plan's keys, with the cycles, latency and energies. count validates a
mapping, which gives the footprints and the real MAC count, reaches the
plan and its entry point through one lookup kept per keep-override set
(counting), reads the rest from mapping.nest and runs that entry point;
analyze returns its counts, and evaluator.evaluate's result holds them.
The search's entry point, bound per search (mapper._Pricer), gathers the
same arguments from a candidate's picked chains itself and returns only
its objective. The oracle shares nothing with this module: not the legs,
the plan or the emitted code. The count containers (AccessCounts,
LevelCounts) are spec_model's, as every engine returns them; the emitted
text and the oracle are the only code that builds them.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
import math
from collections.abc import Callable, Sequence
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
    merge_dims,
    override_key,
    validate_mapping,
    validation_plan,
)


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
    onward; the slots of its outer and inner level's counters in the
    plan's layout (inner_at is -1 at the compute level); and per crossing
    the slot of its conversion counter, -1 with no converter."""

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
    name, tensor) keys of AccessCounts, in their order, and lay out the
    counters: reads, fills, updates and drains at 4 * i for level_keys[i]
    and one per conversion key; level_keys follows the keep table
    (ValidationPlan.capacity), each level's tensors in TENSORS order.
    edges holds every (edge, tensor, direction) a leg crosses, one edge
    slot each, in leg order. operands holds the Weights and Inputs legs
    down their keeper chains; stream the Outputs leg up from compute to
    the accumulation level; drains, innermost hop first, each Outputs
    hop's ascending leg and its descending (refetch) leg. A leg's inner
    level names the tile size its hop counts. leg_at maps each edge key to
    (leg, position). tiled holds, per level whose tiles counting reads,
    the tensors whose footprints it reads there: the keys the emitted code
    looks up. merging holds, per leg with a crossing whose mesh merges,
    its crossings innermost first as (edge slot, level, merged dims),
    which merge_widths reads.
    """

    compute: int
    level_keys: tuple[tuple[int, str], ...]
    conversion_keys: tuple[tuple[str, str], ...]
    edges: tuple[tuple[int, str, str], ...]
    tiled: tuple[tuple[int, tuple[str, ...]], ...]
    merging: tuple[tuple[tuple[int, int, tuple[str, ...]], ...], ...]
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
            operands=operands,
            stream=stream,
            drains=drains,
            leg_at=MappingProxyType({c.key: (lg, i) for lg in legs
                                     for i, c in enumerate(lg.crossings)}),
        )

    def merge_widths(self, spatial: Sequence[dict[str, int]]) -> list[int]:
        """Width of the transmission merge seen at each edge slot, where
        spatial[j] maps a dim to its spatial factor at level j (1 when
        missing). Forks (descending) or merges (ascending) at an edge and
        at every deeper edge of its leg happen at or after the crossing,
        so they share one signal: a leg's first slot merges the whole
        hop."""

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
# Pricing layout
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PriceProgram:
    """Every price, bandwidth and static power of an architecture, laid
    over one layout of counts: a CountPlan's, with reads, fills, updates
    and drains at 4 * i for level_keys[i] and one counter per conversion
    key. Built once per count plan and kept on the architecture
    (price_program), where the plan's emitted code reads it (emit), or
    afresh for counts in hand (evaluator.energy, through energy).

    names holds the component names sorted, one energy accumulator each.
    levels, conversions, compute and static are energy's terms in its
    order: the sorted level keys as (accumulator, slot, read, write,
    update), update falling back to write; the sorted conversion keys as
    (accumulator, slot, convert); the compute part as (accumulator,
    compute); each part with static power, in Architecture.parts order, as
    (accumulator, static_power_mw * instances). transfers holds per level
    (level, (start, stop) runs of its slots, bandwidth), and rates per
    converter bank (its slots, bandwidth * instances): a key missing from
    the layout counts nothing. hz is the clock in Hz."""

    names: tuple[str, ...]
    levels: tuple[tuple[int, int, float, float, float], ...]
    conversions: tuple[tuple[int, int, float], ...]
    compute: tuple[int, float]
    static: tuple[tuple[int, float], ...]
    transfers: tuple[tuple[int, tuple[tuple[int, int], ...], float], ...]
    rates: tuple[tuple[tuple[int, ...], float], ...]
    hz: float

    @classmethod
    def of(cls, arch: Architecture, level_keys: tuple[tuple[int, str], ...],
           conversion_keys: tuple[tuple[str, str], ...]) -> PriceProgram:
        comps = [lv.component for lv in arch.levels]
        banks = {cv.name: cv.component for cv in arch.converters}
        level_at = {key: 4 * i for i, key in enumerate(level_keys)}
        conversion_at = {key: i for i, key in enumerate(conversion_keys)}
        # Every term as (component name, ...), in energy's order.
        levels = [(comps[lv].name, level_at[(lv, t)],
                   comps[lv].energy("read"), comps[lv].energy("write"),
                   comps[lv].energy("update") or comps[lv].energy("write"))
                  for lv, t in sorted(level_keys)]
        conversions = [(banks[cv].name, conversion_at[(cv, t)],
                        banks[cv].energy("convert"))
                       for cv, t in sorted(conversion_keys)]
        compute = [(comps[-1].name, comps[-1].energy("compute"))]
        static = [(c.name, c.static_power_mw * n)
                  for c, n in arch.parts if c.static_power_mw]
        acc = {name: a for a, name in enumerate(sorted(
            {term[0] for term in (*levels, *conversions, *compute, *static)}))}

        def accumulated(rows):
            return tuple((acc[name], *rest) for name, *rest in rows)

        runs: dict[int, list[list[int]]] = {}
        for (level, _), at in level_at.items():
            spans = runs.setdefault(level, [])
            if spans and spans[-1][1] == at:
                spans[-1][1] = at + 4
            else:
                spans.append([at, at + 4])
        return cls(
            names=tuple(acc),
            levels=accumulated(levels),
            conversions=accumulated(conversions),
            compute=accumulated(compute)[0],
            static=accumulated(static),
            transfers=tuple((level, tuple(map(tuple, spans)),
                             comps[level].bandwidth)
                            for level, spans in runs.items()),
            rates=tuple((tuple(conversion_at[(cv.name, t)] for t in cv.tensors
                               if (cv.name, t) in conversion_at),
                         cv.component.bandwidth * cv.instances)
                        for cv in arch.converters),
            hz=arch.clock_ghz * 1e9,
        )

    def energy(self, levels: list[int], conversions: list[int],
               real_macs: int, latency_s: float) -> list[float]:
        """Energy in pJ per accumulator (names), added as the emitted code
        adds it: summed in order, they give evaluate's total."""

        out = [0.0] * len(self.names)
        for a, at, read, write, update in self.levels:
            out[a] += (levels[at] * read
                       + levels[at + 1] * write
                       + levels[at + 3] * read
                       + levels[at + 2] * update)
        for a, at, convert in self.conversions:
            out[a] += conversions[at] * convert
        a, compute = self.compute
        out[a] += real_macs * compute
        for a, power in self.static:
            out[a] += power * latency_s * 1e9
        return out

    def values(self) -> tuple[float, ...]:
        """The numbers the emitted code is bound to, in the order of its
        `bind` (emit): per level term its read, write and update, per
        conversion term its convert, the compute energy, per static term
        its power, per transfer its bandwidth, per converter bank its rate,
        and the clock."""

        return (*(p for _, _, *prices in self.levels for p in prices),
                *(convert for _, _, convert in self.conversions),
                self.compute[1],
                *(power for _, power in self.static),
                *(bandwidth for _, _, bandwidth in self.transfers),
                *(rate for _, rate in self.rates),
                self.hz)


def price_program(arch: Architecture, plan: CountPlan) -> PriceProgram:
    """The PriceProgram of a count plan's layout, kept on the
    architecture per plan."""

    return arch.derived(("price_program", plan), lambda: PriceProgram.of(
        arch, plan.level_keys, plan.conversion_keys))


# ----------------------------------------------------------------------------
# Counting and pricing, emitted per layout
# ----------------------------------------------------------------------------


# Every name emitted code can reach: its builtins are these and nothing
# else, so no rule of spec_model is called from the text (tile_values and
# validate_mapping stay with their callers, and the search's memos call
# them on a miss), and evaluate's entry point builds the AccessCounts
# itself, from the count containers.
HANDED = {"AssertionError": AssertionError, "divmod": divmod, "sum": sum,
          "float": float, "enumerate": enumerate, "ceil": math.ceil,
          "residencies": residencies, "AccessCounts": AccessCounts,
          "LevelCounts": LevelCounts}


def emit(plan: CountPlan, program: PriceProgram) -> str:
    """The source of a plan's counting and pricing, straight-line: every
    leg unrolled into locals, in one order (operands' legs innermost
    first, the output stream, then each drain and its refetch), which
    decides the collapse check that fails first, and cycles and each
    accumulator's energy added in PriceProgram's term order, so every
    float sums as PriceProgram.energy sums it. The text reads only the
    layout (the plan's slots and the program's terms); every price,
    bandwidth and the clock is a name bound by `bind(values)`
    (PriceProgram.values), so architectures that differ only in numbers
    share one source.

    `bind` returns two entry points. `count(footprints, resident,
    instances, widths, macs, steps, real)`, evaluate's, takes what
    validate_mapping and the nest fix (resident is residencies of the
    nest's loops, widths CountPlan.merge_widths) and returns the
    AccessCounts, cycles, latency and the energy in pJ per component
    name, in PriceProgram.names order. It builds both from dict literals
    over constant keys: the plan's, in level_keys, conversion_keys and
    edges order, and the component names. `search(tables, columns,
    by_rows, objective)` binds the search's to one search's chain tables
    (one per dim, in DIMS order), its footprint memo per tiled level (each
    column of extents to the level's tensors' tile values) and its memo of
    (instances, merge widths) per tuple of spatial rows, and returns
    `price(picks, perms, steps)`, the candidate's objective, and `gather`,
    which returns the arguments `count` takes for the same candidate.

    A divmod checks the collapse only at slots whose mesh merges: a slot
    outside every merge has width 1. A refetch leg is counted whatever
    its refetch (none counts 0) and recorded only when there is one: with
    nothing to refetch, its slots are deleted from edge_crossings and
    edge_demand, which keeps the other keys in edges order."""

    compute = plan.compute
    merged = set()
    for crossings in plan.merging:
        merging = False
        for slot, _, dims in crossings:
            merging = merging or bool(dims)
            if merging:
                merged.add(slot)

    def table(keys: Sequence, terms: Sequence[str]) -> str:
        """A dict literal of each constant key to its term's name."""

        return ("{" + ", ".join(f"{key!r}: {term}"
                                for key, term in zip(keys, terms)) + "}")

    def body(record: bool) -> tuple[list[str], list[str], list[str]]:
        """The counting lines, then the expressions of every level and
        conversion counter; with `record`, also the lines that build the
        AccessCounts, `counts`."""

        lines: list[str] = []
        levels: list[list[str]] = [[] for _ in range(4 * len(plan.level_keys))]
        conversions: list[list[str]] = [[] for _ in plan.conversion_keys]
        crossed = [""] * len(plan.edges)
        demand = [""] * len(plan.edges)
        # Per refetch count, the edge slots recorded only when it is not 0.
        unrecorded: dict[str, list[int]] = {}

        def cross(leg: Leg, base: str, into: str, refetch: str = "") -> str:
            """Count the leg's crossings of `base` values, with `into`
            demanded just inside each edge; the name of what its first
            edge carries, which its outer end sends."""

            names = []
            for i, at in enumerate(leg.conversions_at):
                slot = leg.first + i
                n = base
                if slot in merged:
                    n = f"n{slot}"
                    lines.append(f"{n}, rest = divmod({base}, widths[{slot}])")
                    lines.append(f"if rest: raise AssertionError(f\"inexact "
                                 f"collapse {{{base}}}/{{widths[{slot}]}}\")")
                names.append(n)
                if at >= 0:
                    conversions[at].append(n)
                crossed[slot], demand[slot] = n, into
                if refetch:
                    unrecorded.setdefault(refetch, []).append(slot)
            return names[0]

        # Operands flow down their keeper chains, innermost leg first: the
        # demand just inside a hop is what the next hop in carries.
        for t, legs in plan.operands:
            into = "macs"
            for leg in reversed(legs):
                j = leg.inner
                base = "macs"
                if j != compute:
                    base = f"base_{t}{j}"
                    lines.append(f"{base} = tc_{t}{j} * foot_{t}{j} * inst{j}")
                delivered = cross(leg, base, into)
                levels[leg.outer_at].append(delivered)
                if leg.inner_at >= 0:
                    levels[leg.inner_at + 1].append(delivered)
                into = base
        # Outputs: MAC partials ascend to the accumulation level...
        arrivals = cross(plan.stream, "macs", "macs")
        levels[plan.stream.outer_at].append(arrivals)
        levels[plan.stream.outer_at + 2].append(arrivals)
        # ...then finished tiles drain upward hop by hop, and partials whose
        # residency recurs are refetched back down first.
        into = arrivals
        for up, down in plan.drains:
            j = up.inner
            lines.append(f"drained{j} = tc_{OUTPUTS}{j} * foot_{OUTPUTS}{j}"
                         f" * inst{j}")
            levels[up.inner_at + 3].append(f"drained{j}")
            merged_up = cross(up, f"drained{j}", into)
            levels[up.outer_at + 2].append(merged_up)
            lines.append(f"refetch{j} = tc_{OUTPUTS}{j} - distinct{j}")
            lines.append(f"refetched{j} = refetch{j} * foot_{OUTPUTS}{j}"
                         f" * inst{j}")
            filled = cross(down, f"refetched{j}", f"refetched{j}",
                           f"refetch{j}")
            levels[down.inner_at + 1].append(filled)
            levels[down.outer_at].append(filled)
            into = merged_up

        def total(prefix: str, terms: list[list[str]]) -> list[str]:
            out = []
            for at, names in enumerate(terms):
                if len(names) > 1:
                    lines.append(f"{prefix}{at} = {' + '.join(names)}")
                    names = [f"{prefix}{at}"]
                out.append(names[0] if names else "0")
            return out

        level_terms = total("level", levels)
        conversion_terms = total("conversion", conversions)
        if record:
            lines += [f"crossings = {table(plan.edges, crossed)}",
                      f"demand = {table(plan.edges, demand)}"]
            for refetch, slots in unrecorded.items():
                lines.append(f"if not {refetch}:")
                lines += [f"    del crossings[{plan.edges[slot]!r}], "
                          f"demand[{plan.edges[slot]!r}]" for slot in slots]
            per_level = table(plan.level_keys, (
                f"LevelCounts({', '.join(level_terms[at:at + 4])})"
                for at in range(0, len(level_terms), 4)))
            lines.append(
                f"counts = AccessCounts({per_level}, "
                f"{table(plan.conversion_keys, conversion_terms)}, "
                f"{table(TENSORS, ['macs'] * len(TENSORS))}, macs, real, "
                "crossings, demand)")
        return lines, level_terms, conversion_terms

    def priced(level: list[str], conversion: list[str],
               search: bool) -> list[str]:
        """Cycles, then the latency and each accumulator's energy; in the
        search's entry a delay objective returns the cycles first."""

        lines = ["cycles = steps"]
        for k, (j, runs, _) in enumerate(program.transfers):
            actions = [level[at] for start, stop in runs
                       for at in range(start, stop) if level[at] != "0"]
            lines += [f"need = ceil(({' + '.join(actions) or '0'}) "
                      f"/ (bandwidth{k} * inst{j}))",
                      "if need > cycles: cycles = need"]
        for k, (slots, _) in enumerate(program.rates):
            actions = [conversion[at] for at in slots
                       if conversion[at] != "0"]
            lines += [f"need = ceil(({' + '.join(actions) or '0'}) / rate{k})",
                      "if need > cycles: cycles = need"]
        if search:
            lines += ["if delay:", "    return float(cycles)"]
        accumulators = [f"pj{a}" for a in range(len(program.names))]
        lines += ["latency = cycles / hz", f"{' = '.join(accumulators)} = 0.0"]
        for k, (a, at, _, _, _) in enumerate(program.levels):
            lines.append(
                f"pj{a} += ({level[at]} * read{k} + {level[at + 1]} * write{k}"
                f" + {level[at + 3]} * read{k} + {level[at + 2]} * update{k})")
        for k, (a, at, _) in enumerate(program.conversions):
            lines.append(f"pj{a} += {conversion[at]} * convert{k}")
        lines.append(f"pj{program.compute[0]} += real * compute_pj")
        for k, (a, _) in enumerate(program.static):
            lines.append(f"pj{a} += static{k} * latency * 1e9")
        if search:
            lines.append(f"energies = [{', '.join(accumulators)}]")
        else:
            lines.append(f"energies = {table(program.names, accumulators)}")
        return lines

    prologue = [f"{', '.join(f'tc_{t}{j}' for t in TENSORS)}, distinct{j} "
                f"= resident[{j}]" for j, _ in plan.tiled]
    prologue.append(f"{', '.join(f'inst{j}' for j in range(compute + 1))}, "
                    "= instances")
    values = [*(f"{p}{k}" for k in range(len(program.levels))
                for p in ("read", "write", "update")),
              *(f"convert{k}" for k in range(len(program.conversions))),
              "compute_pj",
              *(f"static{k}" for k in range(len(program.static))),
              *(f"bandwidth{k}" for k in range(len(program.transfers))),
              *(f"rate{k}" for k in range(len(program.rates))),
              "hz"]

    counting, level, conversion = body(True)
    evaluate = [f"foot_{t}{j} = footprints[{j}, {t!r}]"
                for j, ts in plan.tiled for t in ts]
    evaluate += prologue + counting + priced(level, conversion, False)
    evaluate.append("return counts, cycles, latency, energies")

    rows = range(len(DIMS))
    gather = [f"{', '.join(f'p{d}' for d in rows)}, = picks",
              *(f"row{d} = extents{d}[p{d}]" for d in rows),
              f"macs = {' * '.join(f'row{d}[0]' for d in rows)}",
              f"real = {' * '.join(f'reals{d}[p{d}]' for d in rows)}",
              "instances, widths = by_rows["
              f"{', '.join(f'spatials{d}[p{d}]' for d in rows)}]"]
    for i, (j, ts) in enumerate(plan.tiled):
        gather.append(
            f"{', '.join(f'foot_{t}{j}' for t in ts)}, = "
            f"columns{i}[{', '.join(f'row{d}[{j}]' for d in rows)}]")
    gather += [
        "time = {" + ", ".join(f"{name!r}: temporals{d}[p{d}]"
                               for d, name in enumerate(DIMS)) + "}",
        "resident = residencies([(j, d, time[d][j]) for j, order in "
        f"enumerate(perms) for d in order], {compute})"]
    counting, level, conversion = body(False)
    price = gather + prologue + counting + priced(level, conversion, True)
    price += ["total = sum(energies)",
              "return total * latency if edp else total"]
    footprints = ", ".join(f"({j}, {t!r}): foot_{t}{j}"
                           for j, ts in plan.tiled for t in ts)
    gather.append(f"return {{{footprints}}}, resident, instances, widths, "
                  "macs, steps, real")

    def block(lines: list[str], depth: int) -> str:
        return "".join(f"{'    ' * depth}{line}\n" for line in lines)

    tables = ", ".join(f"(extents{d}, spatials{d}, temporals{d}, reals{d})"
                       for d in rows)
    columns = ", ".join(f"columns{i}" for i in range(len(plan.tiled)))
    return (
        "def bind(values):\n"
        f"    {', '.join(values)}, = values\n\n"
        "    def count(footprints, resident, instances, widths, macs, steps,"
        " real):\n"
        + block(evaluate, 2) + "\n"
        "    def search(tables, columns, by_rows, objective):\n"
        f"        {tables}, = [\n"
        "            (t.extents, t.spatial, t.temporal, t.real) "
        "for t in tables]\n"
        + (f"        {columns}, = columns\n" if plan.tiled else "")
        + "        delay = objective == 'delay'\n"
        "        edp = objective == 'energy_delay_product'\n\n"
        "        def price(picks, perms, steps):\n"
        + block(price, 3) + "\n"
        "        def gather(picks, perms, steps):\n"
        + block(gather, 3) + "\n"
        "        return price, gather\n\n"
        "    return count, search\n")


@functools.cache
def _binder(source: str) -> Callable:
    """The `bind` of an emitted source, compiled once per process and kept
    by its text: the cache of emitted code. The text is registered with
    linecache, so a traceback through it shows its lines."""

    digest = hashlib.sha256(source.encode()).hexdigest()
    filename = f"<count plan {digest[:16]}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    namespace = {"__builtins__": HANDED}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["bind"]


class Counter(NamedTuple):
    """A count plan's emitted code bound to one architecture's prices
    (counter): `count` is evaluate's entry point and `search` binds the
    search's (see emit)."""

    count: Callable
    search: Callable


def counter(arch: Architecture, plan: CountPlan) -> Counter:
    """The plan's emitted code bound to the architecture's PriceProgram,
    kept on the architecture per plan."""

    def bound():
        program = price_program(arch, plan)
        return Counter(*_binder(emit(plan, program))(program.values()))

    return arch.derived(("counter", plan), bound)


def _counting(arch: Architecture, mapping: Mapping
              ) -> tuple[CountPlan, Counter]:
    plan = count_plan(arch, mapping.keep_overrides, mapping.keep_key)
    return plan, counter(arch, plan)


def counting(arch: Architecture, mapping: Mapping
             ) -> tuple[CountPlan, Counter]:
    """The count plan of the mapping's keep overrides and its counter:
    one lookup, kept on the architecture per Mapping.keep_key."""

    return arch.derived(("counting", mapping.keep_key), _counting, arch,
                        mapping)


def count(arch: Architecture, layer: Layer, mapping: Mapping
          ) -> tuple[AccessCounts, int, float, dict[str, float]]:
    """Validate the mapping (validate_mapping), then run its plan's
    emitted count (counting) on the nest, from the footprints and the
    real MAC count validation returns: the AccessCounts, the cycles, the
    latency, and the energy in pJ per component name, in sorted name
    order."""

    footprints, real = validate_mapping(mapping, layer, arch)
    plan, (entry, _) = counting(arch, mapping)
    nest = mapping.nest
    return entry(
        footprints, residencies(nest.loops, plan.compute), nest.instances,
        plan.merge_widths([lm.spatial for lm in mapping.levels]),
        nest.steps * nest.instances[-1], nest.steps, real)


def analyze(arch: Architecture, layer: Layer, mapping: Mapping) -> AccessCounts:
    """Count every access implied by the mapping, in closed form, once
    validate_mapping has accepted it: count's counts."""

    return count(arch, layer, mapping)[0]


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
