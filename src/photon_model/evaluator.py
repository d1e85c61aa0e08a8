"""Turns access counts into energy, latency, throughput, and area.

Pricing conventions: level reads and drains pay the component's "read"
energy, fills pay "write", read-modify-write accumulations pay "update"
(falling back to "write" when absent), conversions pay "convert", and the
compute component pays "compute" once per real (unpadded) MAC. Idle
instances still pay static power for the whole run, with instance counts
taken from the full fanout products regardless of how much of the array a
mapping uses.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    energy_pj: dict[str, float]
    total_energy_pj: float
    cycles: int
    compute_cycles: int
    latency_s: float
    macs_per_s: float
    utilization: float
    area_um2: float
    counts: AccessCounts
    mapping_digest: str

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

    nest = mapping.nest
    compute_cycles = nest.steps
    cycles = compute_cycles

    per_level: dict[int, int] = {}
    for (level, _tensor), lc in counts.per_level.items():
        per_level[level] = per_level.get(level, 0) + lc.total()
    for level, actions in per_level.items():
        comp = arch.levels[level].component
        cycles = max(cycles, math.ceil(
            actions / (comp.bandwidth * nest.instances[level])))

    for cv in arch.converters:
        actions = sum(counts.conversions[(cv.name, t)] for t in cv.tensors)
        cycles = max(cycles,
                     math.ceil(actions / (cv.component.bandwidth * cv.instances)))

    latency_s = cycles / (arch.clock_ghz * 1e9)
    utilization = counts.real_macs / (peak_spatial_macs(arch) * compute_cycles)
    return cycles, compute_cycles, latency_s, utilization


def energy(
    counts: AccessCounts,
    arch: Architecture,
    latency_s: float,
) -> dict[str, float]:
    """Per-component energy in pJ, keyed by component name.

    Each part prices itself as the architecture holds it. Static power is
    charged to every physical instance (Architecture.parts) for the full
    latency.
    """

    out: dict[str, float] = {}

    def add(name: str, pj: float) -> None:
        out[name] = out.get(name, 0.0) + pj

    for (level, _tensor), lc in sorted(counts.per_level.items()):
        comp = arch.levels[level].component
        add(comp.name,
            lc.reads * comp.energy("read")
            + lc.fills * comp.energy("write")
            + lc.drains * comp.energy("read")
            + lc.updates * (comp.energy("update") or comp.energy("write")))

    by_name = {cv.name: cv for cv in arch.converters}
    for (name, _tensor), n in sorted(counts.conversions.items()):
        comp = by_name[name].component
        add(comp.name, n * comp.energy("convert"))

    compute_comp = arch.levels[-1].component
    add(compute_comp.name, counts.real_macs * compute_comp.energy("compute"))

    for comp, n in arch.parts:
        if comp.static_power_mw:
            add(comp.name, comp.static_power_mw * n * latency_s * 1e9)

    return out


def area(arch: Architecture) -> float:
    return sum(n * comp.area_um2 for comp, n in arch.parts)


def evaluate(
    arch: Architecture,
    layer: Layer,
    mapping: Mapping,
) -> EvaluationResult:
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
        mapping_digest=mapping_digest(mapping),
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
