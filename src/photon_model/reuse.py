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
overrides is planned as a CountPlan: the AccessCounts keys and each hop
between consecutive keepers of a chain as a leg, both read from
validation_plan's keep table, the output stream, and per edge crossed the
converter and the spatial dims its mesh merges (spec_model.merge_dims).
Every price, bandwidth and static power over the plan's keys is a
PriceProgram, each term carrying the AccessCounts key it prices.

The counting and pricing themselves are code emitted from the two (emit):
straight-line Python with every leg unrolled into locals, in one fixed
order, and cycles and each component's energy added in the program's term
order. The text reads only the keys, never a number: the prices, the
bandwidths and the clock are bound as values (PriceProgram.values), so
architectures that differ only in numbers, such as reuse_sweep's geometry
points or a resized buffer, share one source. Each distinct source is
compiled once per process, kept by its text (_binder), and registered
with linecache, so a traceback shows its lines; it calls only the names
HANDED gives it. The plan, the program and the code bound to the
program's values are one Counting, kept on the architecture per
keep-override set (counting): the one lookup counting and pricing make.
The code has two entry points, each its own source, compiled when the
Counting's entry is first read, so a process that only evaluates compiles
no search code. Both sweep the loops one level at a time, outermost
first, up to the last tiled level, with one loop body over the move
table (_MOVES), setting how often each tiled level's tiles change and how
many distinct Outputs tiles it holds once its loops are swept; only each
level's loop header differs. evaluate's (`count`) reads what
validate_mapping and the nest hold, in the form they hold it: the
footprint tuple validation returns, unpacked by position in keep-table
order (CountPlan.kept); LoopNest.loops, whose levels it sweeps; the
mapping's levels, whose spatial factors it multiplies into each merging
slot's width as CountPlan.merge_widths does; the instances and the MAC
and step counts. It returns the AccessCounts, which it builds itself
from dict literals over the plan's keys, with the cycles, latency and
energies. count validates a mapping, which gives the footprints and the
real MAC count, and runs that entry point; analyze returns its counts,
and evaluator.evaluate's result holds them. The search's entry point,
bound per search (mapper._Pricer), gathers the same arguments from a
candidate's picked chains itself, with its merge widths from
CountPlan.merge_widths, sweeping its drawn loop orders over each dim's
temporal factors (building no list of loops), and returns only its
objective. The oracle shares nothing with this module: not the legs, the
plan or the emitted code. The count containers (AccessCounts,
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
    _lazy,
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
# and Outputs, in that order. The emitted sweeps read it as `moves`.
_MOVES = {d: sum(1 << k for k, t in enumerate((WEIGHTS, INPUTS, OUTPUTS))
                 if d in TENSOR_DIMS[t]) for d in DIMS}


class Crossing(NamedTuple):
    """One edge of a leg: its (edge, tensor, direction) key, the spatial
    dims whose copies share one signal there (merge_dims), and the
    (converter name, tensor) conversion key, or None with no converter."""

    key: tuple[int, str, str]
    dims: tuple[str, ...]
    conversion: tuple[str, str] | None


@dataclass(frozen=True)
class Leg:
    """One hop of a tensor, from a keeper to the next keeper of its chain
    (or to compute), walked in one direction, as counting reads it: its
    crossings, outermost edge first, at the plan's edge slots `first`
    onward. Its outer and inner level with its tensor key the counters it
    sets, and each crossing's conversion key its conversion counter."""

    tensor: str
    outer: int
    inner: int
    crossings: tuple[Crossing, ...]
    first: int


@dataclass(frozen=True, eq=False)
class CountPlan:
    """Everything counting reads that depends only on the architecture and
    a mapping's keep overrides, built once per pair (counting) and
    compared by identity.

    level_keys and conversion_keys are the (level, tensor) and (converter
    name, tensor) keys of AccessCounts, in their order; level_keys follows
    the keep table (ValidationPlan.capacity), each level's tensors in
    TENSORS order. edges holds every (edge, tensor, direction) a leg
    crosses, one edge slot each, in leg order. operands holds the Weights
    and Inputs legs down their keeper chains; stream the Outputs leg up
    from compute to the accumulation level; drains, innermost hop first,
    each Outputs hop's ascending leg and its descending (refetch) leg,
    None where validation forbids a refetch into the hop's inner keeper
    (ValidationPlan.forbidden): every valid mapping refetches 0 there. A
    leg's inner level names the tile size its hop counts. leg_at maps each
    edge key to (leg, position). kept names, as (level, tensor), each
    position of the footprint tuple validate_mapping returns: the keep
    table's rows, each row's tensors in its order. tiled holds, per level
    whose tiles counting reads, the tensors whose footprints it reads
    there. merging holds, per leg with a crossing
    whose mesh merges, its crossings innermost first as (edge slot, level,
    merged dims), which merge_widths reads.
    """

    compute: int
    level_keys: tuple[tuple[int, str], ...]
    kept: tuple[tuple[int, str], ...]
    conversion_keys: tuple[tuple[str, str], ...]
    edges: tuple[tuple[int, str, str], ...]
    tiled: tuple[tuple[int, tuple[str, ...]], ...]
    merging: tuple[tuple[tuple[int, int, tuple[str, ...]], ...], ...]
    operands: tuple[tuple[str, tuple[Leg, ...]], ...]
    stream: Leg
    drains: tuple[tuple[Leg, Leg | None], ...]
    leg_at: MappingProxyType[tuple[int, str, str], tuple[Leg, int]]

    @classmethod
    def of(cls, arch: Architecture,
           keep_overrides: dict[int, tuple[str, ...]]) -> CountPlan:
        compute = len(arch.levels) - 1
        keeps = validation_plan(arch, keep_overrides)
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
            legs.append(Leg(tensor, outer, inner, tuple(crossings),
                            sum(len(lg.crossings) for lg in legs)))
            return legs[-1]

        operands = tuple(
            (t, tuple(leg(t, outer, inner, DOWN) for outer, inner
                      in zip(chains[t], chains[t][1:] + (compute,))))
            for t in (WEIGHTS, INPUTS))
        inward = chains[OUTPUTS][::-1]
        stream = leg(OUTPUTS, inward[0], compute, UP)
        forbidden = {b for b, t, _ in keeps.forbidden if t == OUTPUTS}
        drains = tuple((leg(OUTPUTS, outer, inner, UP),
                        None if inner in forbidden
                        else leg(OUTPUTS, outer, inner, DOWN))
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
            level_keys=tuple((i, t) for i, kept, _, _ in keeps.capacity
                             for t in TENSORS if t in kept),
            kept=tuple((i, t) for i, kept, _, _ in keeps.capacity
                       for t in kept),
            conversion_keys=tuple((cv.name, t) for cv in arch.converters
                                  for t in cv.tensors),
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


# ----------------------------------------------------------------------------
# Pricing terms
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PriceProgram:
    """Every price, bandwidth and static power of an architecture over one
    set of AccessCounts keys, each term carrying the key it prices: a
    CountPlan's (counting), where the plan's emitted code reads it (emit),
    or those of counts in hand (evaluator.energy, through energy).

    names holds the component names sorted, one energy accumulator each.
    levels, conversions, compute and static are energy's terms in its
    order: the sorted level keys as (accumulator, key, read, write,
    update), update falling back to write; the sorted conversion keys as
    (accumulator, key, convert); the compute part as (accumulator,
    compute); each part with static power, in Architecture.parts order, as
    (accumulator, static_power_mw * instances). transfers holds per level
    (level, its level keys, bandwidth), and rates per converter bank (its
    conversion keys, bandwidth * instances): a key the program was not
    built over counts nothing. hz is the clock in Hz."""

    names: tuple[str, ...]
    levels: tuple[tuple[int, tuple[int, str], float, float, float], ...]
    conversions: tuple[tuple[int, tuple[str, str], float], ...]
    compute: tuple[int, float]
    static: tuple[tuple[int, float], ...]
    transfers: tuple[tuple[int, tuple[tuple[int, str], ...], float], ...]
    rates: tuple[tuple[tuple[tuple[str, str], ...], float], ...]
    hz: float

    @classmethod
    def of(cls, arch: Architecture, level_keys: tuple[tuple[int, str], ...],
           conversion_keys: tuple[tuple[str, str], ...]) -> PriceProgram:
        comps = [lv.component for lv in arch.levels]
        banks = {cv.name: cv.component for cv in arch.converters}
        # Every term as (component name, ...), in energy's order.
        levels = [(comps[lv].name, (lv, t),
                   comps[lv].energy("read"), comps[lv].energy("write"),
                   comps[lv].energy("update") or comps[lv].energy("write"))
                  for lv, t in sorted(level_keys)]
        conversions = [(banks[cv].name, (cv, t), banks[cv].energy("convert"))
                       for cv, t in sorted(conversion_keys)]
        compute = [(comps[-1].name, comps[-1].energy("compute"))]
        static = [(c.name, c.static_power_mw * n)
                  for c, n in arch.parts if c.static_power_mw]
        acc = {name: a for a, name in enumerate(sorted(
            {term[0] for term in (*levels, *conversions, *compute, *static)}))}

        def accumulated(rows):
            return tuple((acc[name], *rest) for name, *rest in rows)

        transfers: dict[int, list[tuple[int, str]]] = {}
        for key in level_keys:
            transfers.setdefault(key[0], []).append(key)
        converted = set(conversion_keys)
        return cls(
            names=tuple(acc),
            levels=accumulated(levels),
            conversions=accumulated(conversions),
            compute=accumulated(compute)[0],
            static=accumulated(static),
            transfers=tuple((level, tuple(keys), comps[level].bandwidth)
                            for level, keys in transfers.items()),
            rates=tuple((tuple((cv.name, t) for t in cv.tensors
                               if (cv.name, t) in converted),
                         cv.component.bandwidth * cv.instances)
                        for cv in arch.converters),
            hz=arch.clock_ghz * 1e9,
        )

    def energy(self, counts: AccessCounts, latency_s: float) -> list[float]:
        """Energy in pJ per accumulator (names) of counts holding every
        key of the program, added as the emitted code adds it: summed in
        order, they give evaluate's total."""

        out = [0.0] * len(self.names)
        per_level, conversions = counts.per_level, counts.conversions
        for a, key, read, write, update in self.levels:
            lc = per_level[key]
            out[a] += (lc.reads * read + lc.fills * write + lc.drains * read
                       + lc.updates * update)
        for a, key, convert in self.conversions:
            out[a] += conversions[key] * convert
        a, compute = self.compute
        out[a] += counts.real_macs * compute
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


# ----------------------------------------------------------------------------
# Counting and pricing, emitted per layout
# ----------------------------------------------------------------------------


# Every name emitted code can reach: its builtins are these and nothing
# else, so no rule of spec_model is called from the text (tile_values and
# validate_mapping stay with their callers, and the search's memos call
# them on a miss), evaluate's entry point builds the AccessCounts itself,
# from the count containers, and every sweep of loops reads _MOVES.
HANDED = {"AssertionError": AssertionError, "divmod": divmod, "sum": sum,
          "float": float, "ceil": math.ceil, "moves": _MOVES,
          "AccessCounts": AccessCounts, "LevelCounts": LevelCounts}


def emit(plan: CountPlan, program: PriceProgram, entry: str) -> str:
    """The source of one entry point of a plan's counting and pricing,
    straight-line: every leg unrolled into locals, in one order (operands'
    legs innermost first, the output stream, then each drain and its
    refetch), which decides the collapse check that fails first, and
    cycles and each accumulator's energy added in PriceProgram's term
    order, so every float sums as PriceProgram.energy sums it. The text
    reads only the plan's keys, footprint positions and edge slots and
    the program's terms, each naming the counter it reads by its key;
    every price, bandwidth and the clock is a name bound by `bind(values)`
    (PriceProgram.values), so architectures that differ only in numbers
    share one source. Each entry is its own source, so a process compiles
    only the entries it reads (Counting). Both sweep the loops in one
    text (sweep): per level up to the last tiled one, the same loop body,
    then at a tiled level its tile changes and distinct Outputs tiles as
    locals; only each level's loop header differs.

    `bind` returns the entry:
    * "count", evaluate's: `count(footprints, loops, levels, instances,
      macs, steps, real)` takes what validate_mapping and the nest hold as
      they hold them: the footprint tuple, unpacked by position
      (CountPlan.kept); LoopNest.loops, each level's loops swept as
      `for d, e in loops[j]`; and the mapping's levels, whose spatial
      factors, read by membership and subscript, the text multiplies into
      each merging slot's width as CountPlan.merge_widths does. It returns
      the AccessCounts, cycles, latency and the energy in pJ per component
      name, in PriceProgram.names order, building both from dict literals
      over constant keys: the plan's, in level_keys, conversion_keys and
      edges order, and the component names.
    * "search": `search(tables, columns, by_rows, objective)` binds the
      search's to one search's chain tables (one per dim, in DIMS order),
      its footprint memo per tiled level (each column of extents to the
      level's tensors' tile values) and its memo of (instances, merge
      widths) per tuple of spatial rows, and returns `price(picks, perms,
      steps)`, the candidate's objective. It sweeps the drawn orders
      `perms`, each level's as `for d in perms[j]` over its dims' temporal
      factors there, which are the loops those orders give.

    Each keeper is the outer end of at most one leg per tensor and
    direction, and each converter bank converts at one edge in one
    direction, so one leg at most sets each counter: a counter is the
    name of what that leg moves, or 0. A 0 counter is left out of the
    text: no product of it is emitted, nor a level term whose four
    counters are all 0, nor a bandwidth bound over counters all 0 (it
    would need 0 cycles). Every float sums as before, since every term is
    finite and not negative. A divmod checks the collapse only at slots
    whose mesh merges: a slot outside every merge has width 1. A refetch
    leg is counted whatever its refetch (none counts 0) and recorded only
    when there is one: with nothing to refetch, its edges are deleted
    from edge_crossings and edge_demand, which keeps the other keys in
    edges order."""

    compute = plan.compute
    tiled = dict(plan.tiled)
    # Per slot whose mesh merges, its width's name in count's text, and
    # the lines there that multiply each from the mapping's levels'
    # spatial factors as CountPlan.merge_widths does: the merged dims'
    # factors at its edge and at every deeper edge of its leg.
    merged: dict[int, str] = {}
    multiplied: list[str] = []
    for crossings in plan.merging:
        width = ""
        for slot, j, dims in crossings:
            if dims:
                line = f"spatial{j} = levels[{j}].spatial"
                if line not in multiplied:
                    multiplied.append(line)
                multiplied.append(f"w{slot} = " + " * ".join(
                    ([width] if width else [])
                    + [f"(spatial{j}[{d!r}] if {d!r} in spatial{j} else 1)"
                       for d in dims]))
                width = f"w{slot}"
            if width:
                merged[slot] = width

    def table(terms: dict) -> str:
        """A dict literal of each constant key to its term's name."""

        return ("{" + ", ".join(f"{key!r}: {term}"
                                for key, term in terms.items()) + "}")

    def body(record: bool, width: Callable[[int], str]
             ) -> tuple[list[str], dict, dict]:
        """The counting lines, each merging slot's width named by
        `width`, then the name of every level counter (reads, fills,
        updates and drains, as LevelCounts orders them, per level key) and
        every conversion counter, per conversion key; with `record`, also
        the lines that build the AccessCounts, `counts`."""

        lines: list[str] = []
        levels = {key: ["0"] * 4 for key in plan.level_keys}
        conversions = dict.fromkeys(plan.conversion_keys, "0")
        crossed = dict.fromkeys(plan.edges, "")
        demand = dict.fromkeys(plan.edges, "")
        # Per refetch count, the edges recorded only when it is not 0.
        unrecorded: dict[str, list[tuple[int, str, str]]] = {}

        def cross(leg: Leg, base: str, into: str, refetch: str = "") -> str:
            """Count the leg's crossings of `base` values, with `into`
            demanded just inside each edge; the name of what its first
            edge carries, which its outer end sends."""

            names = []
            for slot, c in enumerate(leg.crossings, leg.first):
                n = base
                if slot in merged:
                    n, w = f"n{slot}", width(slot)
                    lines.append(f"{n}, rest = divmod({base}, {w})")
                    lines.append(f"if rest: raise AssertionError(f\"inexact "
                                 f"collapse {{{base}}}/{{{w}}}\")")
                names.append(n)
                if c.conversion is not None:
                    conversions[c.conversion] = n
                crossed[c.key], demand[c.key] = n, into
                if refetch:
                    unrecorded.setdefault(refetch, []).append(c.key)
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
                levels[leg.outer, leg.tensor][0] = delivered
                if j != compute:
                    levels[j, leg.tensor][1] = delivered
                into = base
        # Outputs: MAC partials ascend to the accumulation level, each
        # update a read-modify-write...
        arrivals = cross(plan.stream, "macs", "macs")
        levels[plan.stream.outer, OUTPUTS][0] = arrivals
        levels[plan.stream.outer, OUTPUTS][2] = arrivals
        # ...then finished tiles drain upward hop by hop, and partials whose
        # residency recurs are refetched back down first.
        into = arrivals
        for up, down in plan.drains:
            j = up.inner
            lines.append(f"drained{j} = tc_{OUTPUTS}{j} * foot_{OUTPUTS}{j}"
                         f" * inst{j}")
            levels[j, OUTPUTS][3] = f"drained{j}"
            merged_up = cross(up, f"drained{j}", into)
            levels[up.outer, OUTPUTS][2] = merged_up
            if down is not None:
                lines.append(f"refetch{j} = tc_{OUTPUTS}{j} - distinct{j}")
                lines.append(f"refetched{j} = refetch{j} * foot_{OUTPUTS}{j}"
                             f" * inst{j}")
                filled = cross(down, f"refetched{j}", f"refetched{j}",
                               f"refetch{j}")
                levels[j, OUTPUTS][1] = filled
                levels[down.outer, OUTPUTS][0] = filled
            into = merged_up

        if record:
            lines += [f"crossings = {table(crossed)}",
                      f"demand = {table(demand)}"]
            for refetch, keys in unrecorded.items():
                lines.append(f"if not {refetch}:")
                lines += [f"    del crossings[{key!r}], demand[{key!r}]"
                          for key in keys]
            per_level = table({key: f"LevelCounts({', '.join(names)})"
                               for key, names in levels.items()})
            lines.append(
                f"counts = AccessCounts({per_level}, {table(conversions)}, "
                f"{table(dict.fromkeys(TENSORS, 'macs'))}, macs, real, "
                "crossings, demand)")
        return lines, levels, conversions

    def priced(levels: dict, conversions: dict, search: bool) -> list[str]:
        """Cycles, then the latency and each accumulator's energy; in the
        search's entry a delay objective returns the cycles first."""

        lines = ["cycles = steps"]
        for k, (j, keys, _) in enumerate(program.transfers):
            actions = [n for key in keys for n in levels[key] if n != "0"]
            if actions:
                lines += [f"need = ceil(({' + '.join(actions)}) "
                          f"/ (bandwidth{k} * inst{j}))",
                          "if need > cycles: cycles = need"]
        for k, (keys, _) in enumerate(program.rates):
            actions = [conversions[key] for key in keys
                       if conversions[key] != "0"]
            if actions:
                lines += [f"need = ceil(({' + '.join(actions)}) / rate{k})",
                          "if need > cycles: cycles = need"]
        if search:
            lines += ["if delay:", "    return float(cycles)"]
        accumulators = [f"pj{a}" for a in range(len(program.names))]
        lines += ["latency = cycles / hz", f"{' = '.join(accumulators)} = 0.0"]
        for k, (a, key, _, _, _) in enumerate(program.levels):
            reads, fills, updates, drains = levels[key]
            products = [f"{n} * {price}{k}" for n, price in (
                (reads, "read"), (fills, "write"), (drains, "read"),
                (updates, "update")) if n != "0"]
            if products:
                lines.append(f"pj{a} += ({' + '.join(products)})")
        for k, (a, key, _) in enumerate(program.conversions):
            if conversions[key] != "0":
                lines.append(f"pj{a} += {conversions[key]} * convert{k}")
        lines.append(f"pj{program.compute[0]} += real * compute_pj")
        for k, (a, _) in enumerate(program.static):
            lines.append(f"pj{a} += static{k} * latency * 1e9")
        if search:
            lines.append(f"energies = [{', '.join(accumulators)}]")
        else:
            lines.append(
                f"energies = {table(dict(zip(program.names, accumulators)))}")
        return lines

    def captured(j: int) -> list[str]:
        """Tiled level j's tile changes and distinct Outputs tiles, set
        from the sweep's running locals, one per tensor, named for it."""

        lines = [f"tc_{t}{j} = {t.lower()}" for t in tiled[j]]
        if OUTPUTS in tiled[j]:
            lines.append(f"distinct{j} = distinct")
        return lines

    # One loop's move of the sweep: a tile changes with the product of
    # loop extents at or outside the innermost loop at or above its level
    # whose dim moves it, and its distinct tiles are the product of the
    # extents of every such loop.
    moved = ["span *= e",
             "moved = moves[d]",
             "if moved & 1: weights = span",
             "if moved & 2: inputs = span",
             "if moved & 4:",
             "    outputs = span",
             "    distinct *= e"]
    start = "weights = inputs = outputs = distinct = span = 1"

    def sweep(header: Callable[[int], list[str]]) -> list[str]:
        """The sweep of the loops, outermost level first, up to the last
        tiled level (none without one): per level its loop, whose
        `header(j)` binds each loop's dim `d` and extent `e`, and at a
        tiled level its captured locals. Only the headers differ between
        the entry points."""

        if not plan.tiled:
            return []
        lines = [start]
        for j in range(plan.tiled[-1][0] + 1):
            lines += header(j)
            lines += [f"    {line}" for line in moved]
            if j in tiled:
                lines += captured(j)
        return lines

    def block(lines: list[str], depth: int) -> str:
        return "".join(f"{'    ' * depth}{line}\n" for line in lines)

    values = [*(f"{p}{k}" for k in range(len(program.levels))
                for p in ("read", "write", "update")),
              *(f"convert{k}" for k in range(len(program.conversions))),
              "compute_pj",
              *(f"static{k}" for k in range(len(program.static))),
              *(f"bandwidth{k}" for k in range(len(program.transfers))),
              *(f"rate{k}" for k in range(len(program.rates))),
              "hz"]
    bound = f"def bind(values):\n    {', '.join(values)}, = values\n\n"
    instances = (f"{', '.join(f'inst{j}' for j in range(compute + 1))}, "
                 "= instances")

    if entry == "count":
        lines = []
        if plan.tiled:
            # The footprints counting reads, by (level, tensor).
            read = {(j, t) for j, ts in plan.tiled for t in ts}
            lines.append(", ".join(f"foot_{t}{j}" if (j, t) in read else "_"
                                   for j, t in plan.kept) + ", = footprints")
        lines += sweep(lambda j: [f"for d, e in loops[{j}]:"])
        lines += [instances, *multiplied]
        counting, levels, conversions = body(True, merged.__getitem__)
        lines += counting + priced(levels, conversions, False)
        lines.append("return counts, cycles, latency, energies")
        return (bound + "    def count(footprints, loops, levels, instances,"
                " macs, steps, real):\n" + block(lines, 2)
                + "\n    return count\n")

    assert entry == "search", entry
    rows = range(len(DIMS))
    lines = [f"{', '.join(f'p{d}' for d in rows)}, = picks",
             *(f"row{d} = extents{d}[p{d}]" for d in rows),
             f"macs = {' * '.join(f'row{d}[0]' for d in rows)}",
             f"real = {' * '.join(f'reals{d}[p{d}]' for d in rows)}",
             "instances, widths = by_rows["
             f"{', '.join(f'spatials{d}[p{d}]' for d in rows)}]"]
    for i, (j, ts) in enumerate(plan.tiled):
        lines.append(
            f"{', '.join(f'foot_{t}{j}' for t in ts)}, = "
            f"columns{i}[{', '.join(f'row{d}[{j}]' for d in rows)}]")
    lines.append("time = {" + ", ".join(f"{name!r}: temporals{d}[p{d}]"
                                        for d, name in enumerate(DIMS))
                 + "}")
    lines += sweep(lambda j: [f"for d in perms[{j}]:",
                              f"    e = time[d][{j}]"])
    counting, levels, conversions = body(False, "widths[{}]".format)
    lines += [instances, *counting, *priced(levels, conversions, True),
              "total = sum(energies)",
              "return total * latency if edp else total"]
    tables = ", ".join(f"(extents{d}, spatials{d}, temporals{d}, reals{d})"
                       for d in rows)
    columns = ", ".join(f"columns{i}" for i in range(len(plan.tiled)))
    return (bound + "    def search(tables, columns, by_rows, objective):\n"
            f"        {tables}, = [\n"
            "            (t.extents, t.spatial, t.temporal, t.real) "
            "for t in tables]\n"
            + (f"        {columns}, = columns\n" if plan.tiled else "")
            + "        delay = objective == 'delay'\n"
            "        edp = objective == 'energy_delay_product'\n\n"
            "        def price(picks, perms, steps):\n"
            + block(lines, 3) + "\n        return price\n\n"
            "    return search\n")


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


class Counting:
    """What counting and pricing read under one keep-override set of an
    architecture (counting): the CountPlan, its PriceProgram, and the two
    entry points of the code emitted from them (emit), each compiled and
    bound to the program's values on its first read: `count` is
    evaluate's and `search` binds the search's. So a process that only
    evaluates compiles no search code."""

    def __init__(self, arch: Architecture,
                 keep_overrides: dict[int, tuple[str, ...]]):
        self.plan = plan = CountPlan.of(arch, keep_overrides)
        self.program = PriceProgram.of(arch, plan.level_keys,
                                       plan.conversion_keys)

    @_lazy
    def count(self) -> Callable:
        return _counting(self, "count")

    @_lazy
    def search(self) -> Callable:
        return _counting(self, "search")


def _counting(kept: Counting, entry: str) -> Callable:
    """The entry point `entry` of a Counting's emitted code, bound to its
    program's values."""

    return _binder(emit(kept.plan, kept.program, entry))(
        kept.program.values())


def counting(arch: Architecture, keep_overrides: dict[int, tuple[str, ...]],
             key: tuple | None = None) -> Counting:
    """The Counting of the architecture under the keep overrides: one
    lookup, kept on the architecture per override set; `key` is their
    override_key, when the caller holds it (Mapping.keep_key)."""

    if key is None:
        key = override_key(keep_overrides)
    return arch.derived(("counting", key), Counting, arch, keep_overrides)


def count(arch: Architecture, layer: Layer, mapping: Mapping
          ) -> tuple[AccessCounts, int, float, dict[str, float]]:
    """Validate the mapping (validate_mapping), then run its plan's
    emitted count (counting) on what validation and the nest hold: the
    footprints and the real MAC count validation returns, the nest's
    loops, per level, and instances, and the mapping's levels. Returns the
    AccessCounts, the cycles, the latency, and the energy in pJ per
    component name, in sorted name order."""

    footprints, real = validate_mapping(mapping, layer, arch)
    nest = mapping.nest
    return counting(arch, mapping.keep_overrides, mapping.keep_key).count(
        footprints, nest.loops, mapping.levels, nest.instances,
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

    plan = counting(arch, mapping.keep_overrides, mapping.keep_key).plan
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
