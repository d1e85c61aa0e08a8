"""Turns access counts into energy, latency, throughput, and area.

Pricing conventions: level reads and drains pay the component's "read"
energy, fills pay "write", read-modify-write accumulations pay "update"
(falling back to "write" when absent), conversions pay "convert", and the
compute component pays "compute" once per real (unpadded) MAC. Idle
instances still pay static power for the whole run, with instance counts
taken from the full fanout products regardless of how much of the array a
mapping uses.

The prices, bandwidths and static powers are fixed per architecture. Laid
over one layout of counts they form a PriceProgram, built once per layout
and kept on the architecture (price_program). evaluate runs the program of
its CountPlan's layout, its cycles and then its energy, on the reuse.Tally
that reuse.count gives, and packs the tally into AccessCounts only for its
result; the mapper's search runs the same program, looked up the same
way, on each candidate's Tally. So the two price alike to the last bit:
energy adds its terms in sorted key order, and a total adds the
components in sorted name order. energy alone lays AccessCounts out again
(_laid_out) to re-price counts that are already packed: its tests do, and
perfbench/tracer.py binds it; no study prices twice (calibration re-weights
the priced energies, components.calibration_factors). An EvaluationResult
builds its mapping digest only when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

# evaluate counts through reuse.count; analyze stays imported because
# perfbench/tracer.py rebinds evaluator.analyze.
from .reuse import analyze, count, pack
from .spec_model import (
    AccessCounts,
    Architecture,
    Layer,
    Mapping,
    _lazy,
    mapping_digest,
)


@dataclass(frozen=True, init=False)
class EvaluationResult:
    """The priced outcome of one mapping. mapping_digest is built from
    `mapping` on first read (a search reads it only to break an exact tie
    on its objective); results compare equal exactly when every other
    field and the digests are equal. Its fields are filled as
    spec_model.LevelMapping fills its own."""

    energy_pj: dict[str, float]
    total_energy_pj: float
    cycles: int
    compute_cycles: int
    latency_s: float
    macs_per_s: float
    utilization: float
    area_um2: float
    counts: AccessCounts
    mapping: Mapping = field(repr=False, compare=False)

    def __init__(self, energy_pj: dict[str, float], total_energy_pj: float,
                 cycles: int, compute_cycles: int, latency_s: float,
                 macs_per_s: float, utilization: float, area_um2: float,
                 counts: AccessCounts, mapping: Mapping):
        own = self.__dict__
        own["energy_pj"] = energy_pj
        own["total_energy_pj"] = total_energy_pj
        own["cycles"] = cycles
        own["compute_cycles"] = compute_cycles
        own["latency_s"] = latency_s
        own["macs_per_s"] = macs_per_s
        own["utilization"] = utilization
        own["area_um2"] = area_um2
        own["counts"] = counts
        own["mapping"] = mapping

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.compare)
                and self.mapping_digest == other.mapping_digest)

    @_lazy
    def mapping_digest(self) -> str:
        return mapping_digest(self.mapping)


def peak_spatial_macs(arch: Architecture) -> int:
    return arch.parts[len(arch.levels) - 1][1]


@dataclass(frozen=True)
class PriceProgram:
    """Every price, bandwidth and static power of an architecture, laid
    over one layout of counts: a reuse.Tally's, with reads, fills, updates
    and drains at 4 * i for level_keys[i] and one counter per conversion
    key. Built once per layout and kept on the architecture
    (price_program); evaluate, energy and the mapper's search all price
    through it.

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

    def cycles(self, levels: list[int], conversions: list[int], steps: int,
               instances: Sequence[int]) -> int:
        """The compute steps, or the most cycles any level or converter
        bank needs to move its actions at its bandwidth."""

        cycles, ceil = steps, math.ceil
        for level, runs, bandwidth in self.transfers:
            actions = 0
            for start, stop in runs:
                actions += sum(levels[start:stop])
            need = ceil(actions / (bandwidth * instances[level]))
            if need > cycles:
                cycles = need
        for slots, rate in self.rates:
            actions = 0
            for at in slots:
                actions += conversions[at]
            need = ceil(actions / rate)
            if need > cycles:
                cycles = need
        return cycles

    def energy(self, levels: list[int], conversions: list[int],
               real_macs: int, latency_s: float) -> list[float]:
        """Energy in pJ per accumulator (names): summed in order, they
        give evaluate's total."""

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


def price_program(arch: Architecture, level_keys: tuple[tuple[int, str], ...],
                  conversion_keys: tuple[tuple[str, str], ...]
                  ) -> PriceProgram:
    """The PriceProgram of one layout, kept on the architecture."""

    return arch.derived(("price_program", level_keys, conversion_keys),
                        lambda: PriceProgram.of(arch, level_keys,
                                                conversion_keys))


def _laid_out(counts: AccessCounts, arch: Architecture
              ) -> tuple[PriceProgram, list[int], list[int]]:
    """The program of the layout `counts` holds, and its counters."""

    levels: list[int] = []
    for lc in counts.per_level.values():
        levels += (lc.reads, lc.fills, lc.updates, lc.drains)
    program = price_program(arch, tuple(counts.per_level),
                            tuple(counts.conversions))
    return program, levels, list(counts.conversions.values())


def energy(
    counts: AccessCounts,
    arch: Architecture,
    latency_s: float,
) -> dict[str, float]:
    """Per-component energy in pJ, keyed by component name.

    Each part prices itself as the architecture holds it (price_program).
    Static power is charged to every physical instance (Architecture.parts)
    for the full latency.
    """

    program, levels, conversions = _laid_out(counts, arch)
    pj = program.energy(levels, conversions, counts.real_macs, latency_s)
    return dict(zip(program.names, pj))


def area(arch: Architecture) -> float:
    """Area summed over Architecture.parts, kept on the architecture."""

    return arch.derived(("area",), lambda: sum(
        n * comp.area_um2 for comp, n in arch.parts))


def evaluate(arch: Architecture, layer: Layer,
             mapping: Mapping) -> EvaluationResult:
    """Validate and count the mapping (reuse.count), price its tally, then
    pack the tally into the result's AccessCounts (reuse.pack).

    Total cycles is the max of compute cycles and every level's and
    converter's transfer cycles at its bandwidth (PriceProgram.cycles);
    spatially idle lanes reduce utilization but never speed anything up.
    """

    plan, counted, macs, real = count(arch, layer, mapping)
    program = price_program(arch, plan.level_keys, plan.conversion_keys)
    nest = mapping.nest
    compute_cycles = nest.steps
    cycles = program.cycles(counted.levels, counted.conversions,
                            compute_cycles, nest.instances)
    latency_s = cycles / program.hz
    pj = program.energy(counted.levels, counted.conversions, real, latency_s)
    return EvaluationResult(
        energy_pj=dict(zip(program.names, pj)),
        # The accumulators sit in sorted name order.
        total_energy_pj=sum(pj),
        cycles=cycles,
        compute_cycles=compute_cycles,
        latency_s=latency_s,
        macs_per_s=real / latency_s if latency_s > 0 else 0.0,
        utilization=real / (peak_spatial_macs(arch) * compute_cycles),
        area_um2=area(arch),
        counts=pack(plan, counted, macs, real),
        mapping=mapping,
    )
