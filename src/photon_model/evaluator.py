"""Turns access counts into energy, latency, throughput, and area.

Pricing conventions: level reads and drains pay the component's "read"
energy, fills pay "write", read-modify-write accumulations pay "update"
(falling back to "write" when absent), conversions pay "convert", and the
compute component pays "compute" once per real (unpadded) MAC. Idle
instances still pay static power for the whole run, with instance counts
taken from the full fanout products regardless of how much of the array a
mapping uses.

The prices, bandwidths and area are fixed per architecture, so energy,
latency_and_utilization and area read them from its PriceRows, built once
and kept on the architecture (price_rows). Each expression keeps the order
of pricing every part directly (energy adds in sorted key order), so every
float is the same. An EvaluationResult builds its mapping digest only when
read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType

from .reuse import AccessCounts, analyze
from .spec_model import (
    Architecture,
    Layer,
    Mapping,
    mapping_digest,
)


class EvaluationError(Exception):
    """kind is "ZeroReference"."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


@dataclass(frozen=True)
class EvaluationResult:
    """The priced outcome of one mapping. mapping_digest is built from
    `mapping` on first read (a search reads it only to break an exact tie
    on its objective); results compare equal exactly when every other
    field and the digests are equal."""

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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(self) if f.compare)
                and self.mapping_digest == other.mapping_digest)

    @cached_property
    def mapping_digest(self) -> str:
        return mapping_digest(self.mapping)

    def energy_fractions(self) -> dict[str, float]:
        total = sum(self.energy_pj[k] for k in sorted(self.energy_pj))
        if total == 0.0:
            return {k: 0.0 for k in self.energy_pj}
        return {k: v / total for k, v in self.energy_pj.items()}


def peak_spatial_macs(arch: Architecture) -> int:
    return arch.parts[len(arch.levels) - 1][1]


def latency_and_utilization(
    counts: AccessCounts,
    arch: Architecture,
    mapping: Mapping,
) -> tuple[int, int, float, float]:
    """Returns (cycles, compute_cycles, latency_s, utilization).

    Total cycles is the max of compute cycles and every level's and
    converter's transfer cycles at its bandwidth; spatially idle lanes
    reduce utilization but never speed anything up.
    """

    rows = price_rows(arch)
    nest = mapping.nest
    compute_cycles = nest.steps
    cycles = compute_cycles

    per_level: dict[int, int] = {}
    for (level, _tensor), lc in counts.per_level.items():
        per_level[level] = per_level.get(level, 0) + lc.total()
    bandwidths = rows.bandwidths
    for level, actions in per_level.items():
        cycles = max(cycles, math.ceil(
            actions / (bandwidths[level] * nest.instances[level])))

    for keys, rate in rows.conversion_rates:
        actions = sum(counts.conversions[k] for k in keys)
        cycles = max(cycles, math.ceil(actions / rate))

    latency_s = cycles / (arch.clock_ghz * 1e9)
    utilization = counts.real_macs / (peak_spatial_macs(arch) * compute_cycles)
    return cycles, compute_cycles, latency_s, utilization


@dataclass(frozen=True)
class PriceRows:
    """Everything energy, latency_and_utilization and area read that is
    fixed per architecture: per level index (part name, read, write,
    update) with update falling back to write; per converter name (part
    name, convert); the compute part's (name, compute); (part name,
    static_power_mw * instances) for each part with static power, in
    Architecture.parts order; each level's bandwidth; per converter bank
    its conversion keys and bandwidth * instances; and the area summed
    over Architecture.parts."""

    levels: tuple[tuple[str, float, float, float], ...]
    converters: MappingProxyType[str, tuple[str, float]]
    compute: tuple[str, float]
    static: tuple[tuple[str, float], ...]
    bandwidths: tuple[float, ...]
    conversion_rates: tuple[tuple[tuple[tuple[str, str], ...], float], ...]
    area_um2: float

    @classmethod
    def of(cls, arch: Architecture) -> PriceRows:
        comps = [lv.component for lv in arch.levels]
        return cls(
            levels=tuple((c.name, c.energy("read"), c.energy("write"),
                          c.energy("update") or c.energy("write"))
                         for c in comps),
            converters=MappingProxyType({
                cv.name: (cv.component.name, cv.component.energy("convert"))
                for cv in arch.converters}),
            compute=(comps[-1].name, comps[-1].energy("compute")),
            static=tuple((c.name, c.static_power_mw * n)
                         for c, n in arch.parts if c.static_power_mw),
            bandwidths=tuple(c.bandwidth for c in comps),
            conversion_rates=tuple(
                (tuple((cv.name, t) for t in cv.tensors),
                 cv.component.bandwidth * cv.instances)
                for cv in arch.converters),
            area_um2=sum(n * comp.area_um2 for comp, n in arch.parts),
        )


def price_rows(arch: Architecture) -> PriceRows:
    """The architecture's PriceRows, kept on it once built."""

    return arch.derived(("price_rows",), lambda: PriceRows.of(arch))


def energy(
    counts: AccessCounts,
    arch: Architecture,
    latency_s: float,
) -> dict[str, float]:
    """Per-component energy in pJ, keyed by component name.

    Each part prices itself as the architecture holds it (price_rows).
    Static power is charged to every physical instance (Architecture.parts)
    for the full latency.
    """

    rows = price_rows(arch)
    out: dict[str, float] = {}

    def add(name: str, pj: float) -> None:
        out[name] = out.get(name, 0.0) + pj

    levels = rows.levels
    for (level, _tensor), lc in sorted(counts.per_level.items()):
        name, read, write, update = levels[level]
        add(name,
            lc.reads * read
            + lc.fills * write
            + lc.drains * read
            + lc.updates * update)

    converters = rows.converters
    for (cv_name, _tensor), n in sorted(counts.conversions.items()):
        name, convert = converters[cv_name]
        add(name, n * convert)

    name, compute = rows.compute
    add(name, counts.real_macs * compute)

    for name, power in rows.static:
        add(name, power * latency_s * 1e9)

    return out


def area(arch: Architecture) -> float:
    return price_rows(arch).area_um2


def evaluate(
    arch: Architecture,
    layer: Layer,
    mapping: Mapping,
    counts: AccessCounts | None = None,
) -> EvaluationResult:
    """Price the mapping. Without `counts` it is validated and counted
    first (reuse.analyze); a caller that has proved it valid passes its
    counts (reuse.count_valid)."""

    if counts is None:
        counts = analyze(arch, layer, mapping)
    cycles, compute_cycles, latency_s, util = latency_and_utilization(
        counts, arch, mapping)
    per_comp = energy(counts, arch, latency_s)
    total = sum(per_comp[k] for k in sorted(per_comp))
    macs_per_s = counts.real_macs / latency_s if latency_s > 0 else 0.0
    return EvaluationResult(
        energy_pj=per_comp,
        total_energy_pj=total,
        cycles=cycles,
        compute_cycles=compute_cycles,
        latency_s=latency_s,
        macs_per_s=macs_per_s,
        utilization=util,
        area_um2=area(arch),
        counts=counts,
        mapping=mapping,
    )


def breakdown_error(
    modeled: dict[str, float],
    reference: dict[str, float],
) -> tuple[float, dict[str, float]]:
    """Overall percent error on totals plus per-component errors in
    percentage points on energy fractions. Components present on one side
    only count as zero on the other, with a warning."""

    ref_total = sum(reference[k] for k in sorted(reference))
    if ref_total == 0.0:
        raise EvaluationError("ZeroReference", "reference breakdown sums to zero")
    mod_total = sum(modeled[k] for k in sorted(modeled))
    overall_pct = abs(mod_total - ref_total) / ref_total * 100.0

    keys = sorted(set(modeled) | set(reference))
    for k in keys:
        if k not in modeled:
            warnings.warn(f"component {k!r} missing from modeled breakdown, "
                          "treated as zero", stacklevel=2)
        if k not in reference:
            warnings.warn(f"component {k!r} missing from reference breakdown, "
                          "treated as zero", stacklevel=2)
    per_component = {}
    for k in keys:
        mf = modeled.get(k, 0.0) / mod_total if mod_total else 0.0
        rf = reference.get(k, 0.0) / ref_total
        per_component[k] = abs(mf - rf) * 100.0
    return overall_pct, per_component
