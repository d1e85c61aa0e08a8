"""Turns access counts into energy, latency, throughput, and area.

Pricing conventions: level reads and drains pay the component's "read"
energy, fills pay "write", read-modify-write accumulations pay "update"
(falling back to "write" when absent), conversions pay "convert", and the
compute component pays "compute" once per real (unpadded) MAC. Idle
instances still pay static power for the whole run, with instance counts
taken from the full fanout products regardless of how much of the array a
mapping uses.

The prices, bandwidths and static powers are fixed per architecture. Over
one set of AccessCounts keys they form a reuse.PriceProgram, each term
keyed by the count it prices. A reuse.CountPlan's counting and its
program's pricing run as code emitted from the two (reuse.emit), one
source per entry point, each compiled once per layout on its first use
and bound to the architecture's numbers; the plan, the program and the
bound code are one lookup per keep-override set (reuse.counting).
evaluate reaches it through reuse.count, which validates the mapping and
runs the code's evaluate entry point on what validation and the nest
hold: the footprint tuple, the nest's loops per level and the mapping's
levels. That entry point builds the AccessCounts the result holds. The
mapper's search runs the same code's search entry point on each
candidate, which sweeps its drawn loop orders with the same text. So the
two price alike to the last bit: energy adds its terms in sorted key order,
and a total adds the components in sorted name order. energy alone prices
counts already in hand: PriceProgram.energy reads their per_level and
conversions by key, on a program built afresh over their keys and kept
nowhere. Its tests re-price, and perfbench/tracer.py binds it; no study
prices twice (calibration re-weights the priced energies,
components.calibration_factors). An EvaluationResult builds its mapping
digest only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

# evaluate counts through reuse.count; analyze stays imported because
# perfbench/tracer.py rebinds evaluator.analyze.
from .reuse import PriceProgram, analyze, count
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


def energy(
    counts: AccessCounts,
    arch: Architecture,
    latency_s: float,
) -> dict[str, float]:
    """Per-component energy in pJ, keyed by component name.

    Each part prices itself as the architecture holds it (PriceProgram).
    Static power is charged to every physical instance (Architecture.parts)
    for the full latency.
    """

    program = PriceProgram.of(arch, tuple(counts.per_level),
                              tuple(counts.conversions))
    return dict(zip(program.names, program.energy(counts, latency_s)))


def area(arch: Architecture) -> float:
    """Area summed over Architecture.parts, kept on the architecture."""

    return arch.derived(("area",), lambda: sum(
        n * comp.area_um2 for comp, n in arch.parts))


def evaluate(arch: Architecture, layer: Layer,
             mapping: Mapping) -> EvaluationResult:
    """Validate, count and price the mapping (reuse.count), whose emitted
    code builds the result's AccessCounts.

    Total cycles is the max of compute cycles and every level's and
    converter bank's transfer cycles at its bandwidth (PriceProgram's
    transfers and rates); spatially idle lanes reduce utilization but
    never speed anything up.
    """

    counts, cycles, latency_s, pj = count(arch, layer, mapping)
    real = counts.real_macs
    compute_cycles = mapping.nest.steps
    # The accumulators sit in sorted name order, which the total adds in.
    return EvaluationResult(
        pj, sum(pj.values()), cycles, compute_cycles, latency_s,
        real / latency_s if latency_s > 0 else 0.0,
        real / (peak_spatial_macs(arch) * compute_cycles), area(arch),
        counts, mapping)
