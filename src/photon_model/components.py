"""Bundled component library: digital, analog-electrical, and analog-optical
parts with aggressive and conservative optical scaling profiles.

Absolute per-action energies are starting points assembled from typical
published ranges for each device class (noted per entry); the calibration
path exists precisely because they are not ground truth. Storage energies
are held fixed across profiles; optical and mixed-signal parts scale. The
laser's static power is its optical output, which a profile turns into
electrical draw. A document refines a part in its entry (spec_model.Level).
Calibration re-weights the energies a study priced to a reference
breakdown (calibration_factors) and scores the result (breakdown_error).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

from .spec_model import ComponentSpec


class CalibrationError(Exception):
    """Calibration cannot reproduce the reference breakdown.

    kind is "BadFractions" when the reference fractions do not sum to 1,
    "UnknownComponent" when the reference names a part the evaluation never
    touched, "ZeroCount" when a referenced part has no energy under the
    evaluated mappings, or "ZeroReference" when the reference sums to zero;
    component is "*" for BadFractions and ZeroReference.
    """

    def __init__(self, kind: str, component: str, message: str):
        self.kind = kind
        self.component = component
        super().__init__(f"{kind} [{component}]: {message}")


@dataclass(frozen=True)
class ScalingProfile:
    """Per-class factors on action energies and static power. A source
    part's static power, its optical output, is divided by the wall-plug
    efficiency."""

    name: str
    multipliers: dict[str, float]
    laser_wall_plug_efficiency: float


AGGRESSIVE = ScalingProfile(
    name="aggressive",
    multipliers={"storage": 1.0, "compute": 0.25, "converter": 0.25,
                 "network": 0.25},
    laser_wall_plug_efficiency=0.25,
)

CONSERVATIVE = ScalingProfile(
    name="conservative",
    multipliers={"storage": 1.0, "compute": 2.0, "converter": 2.0,
                 "network": 2.0},
    laser_wall_plug_efficiency=0.15,
)

PROFILES = {p.name: p for p in (AGGRESSIVE, CONSERVATIVE)}
DEFAULT_PROFILE = AGGRESSIVE.name


def _base_components() -> list[ComponentSpec]:
    # Energies in pJ per 8-bit value, static power in mW per instance,
    # area in um^2 per instance.
    return [
        # Off-chip DRAM, ~16 pJ/bit at value granularity.
        ComponentSpec("dram", "storage", "DE", "DE",
                      {"read": 128.0, "write": 128.0, "update": 136.0},
                      static_power_mw=0.0, area_um2=0.0,
                      capacity_bits=8 << 30, bandwidth=32.0),
        # Multi-megabit on-chip SRAM, sub-pJ per value.
        ComponentSpec("global_buffer_sram", "storage", "DE", "DE",
                      {"read": 0.72, "write": 0.64, "update": 0.80},
                      static_power_mw=2.0, area_um2=6.0e6,
                      capacity_bits=1 << 24, bandwidth=64.0),
        # Distributed per-lane register/capacitor stations; bandwidth is the
        # aggregate of the lanes behind the single modeled instance.
        ComponentSpec("register", "storage", "AE", "AE",
                      {"read": 0.04, "write": 0.035, "update": 0.045},
                      static_power_mw=0.05, area_um2=1.2e4,
                      capacity_bits=8192, bandwidth=2048.0),
        # Mixed-signal converters at GS/s rates.
        ComponentSpec("dac", "converter", "DE", "AE", {"convert": 1.6},
                      static_power_mw=0.1, area_um2=3.0e3, bandwidth=1.0),
        ComponentSpec("adc", "converter", "AE", "DE", {"convert": 4.0},
                      static_power_mw=0.15, area_um2=4.2e3, bandwidth=1.0),
        # Electro-optic modulation, per-value drive energy.
        ComponentSpec("mzm_modulator", "converter", "AE", "AO",
                      {"convert": 6.4},
                      static_power_mw=0.02, area_um2=9.0e3, bandwidth=1.0),
        # Photodetector plus transimpedance readout.
        ComponentSpec("photodiode", "converter", "AO", "AE",
                      {"convert": 4.8},
                      static_power_mw=0.01, area_um2=600.0, bandwidth=2.0),
        # Passive optics: no per-action energy, thermal tuning as static.
        ComponentSpec("microring", "network", "AO", "AO", {},
                      static_power_mw=0.02, area_um2=80.0),
        ComponentSpec("star_coupler", "network", "AO", "AO", {},
                      static_power_mw=0.0, area_um2=500.0),
        # Off-chip comb laser: 16 wavelengths at 0.5 mW optical each.
        ComponentSpec("laser", "source", "AO", "AO", {},
                      static_power_mw=16 * 0.5, area_um2=0.0),
        ComponentSpec("digital_mac", "compute", "DE", "DE",
                      {"compute": 0.25}, area_um2=800.0),
        # The optical MAC itself is nearly free; its cost lives in the
        # laser, modulators, and readout.
        ComponentSpec("analog_mac", "compute", "AO", "AO",
                      {"compute": 0.008}, area_um2=300.0),
    ]


def builtin_components(profile: str = DEFAULT_PROFILE
                       ) -> dict[str, ComponentSpec]:
    """The bundled library under one scaling profile, keyed by name."""

    try:
        prof = PROFILES[profile]
    except KeyError:
        raise KeyError(f"unknown scaling profile {profile!r}") from None
    out: dict[str, ComponentSpec] = {}
    for base in _base_components():
        f = prof.multipliers.get(base.cls, 1.0)
        eff = prof.laser_wall_plug_efficiency if base.cls == "source" else 1
        comp = replace(
            base,
            energy_per_action={a: e * f for a, e in base.energy_per_action.items()},
            static_power_mw=base.static_power_mw * f / eff,
        )
        out[comp.name] = comp
    return out


# ----------------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------------


def calibration_factors(reference_fractions: dict[str, float],
                        contributions: dict[str, float]) -> dict[str, float]:
    """Per-component scale factors k such that scaling each component's
    contribution by k[c] reproduces the reference fractions while keeping
    the total unchanged: k[c] = fraction[c] * total / contribution[c]."""

    s = sum(reference_fractions.values())
    if abs(s - 1.0) > 1e-6:
        raise CalibrationError("BadFractions", "*",
                               f"fractions sum to {s}, expected 1")
    total = sum(contributions.get(c, 0.0) for c in reference_fractions)
    factors = {}
    for c, frac in reference_fractions.items():
        got = contributions.get(c)
        if got is None:
            raise CalibrationError("UnknownComponent", c,
                                   "reference names a component the "
                                   "evaluation never touched")
        if got == 0.0:
            raise CalibrationError(
                "ZeroCount", c,
                "component has zero energy under the evaluated mapping; "
                "its fraction cannot be matched by scaling")
        factors[c] = frac * total / got
    return factors


def breakdown_error(modeled: dict[str, float], reference: dict[str, float]
                    ) -> tuple[float, dict[str, float]]:
    """Overall percent error on totals plus per-component errors in
    percentage points on energy fractions. Components present on one side
    only count as zero on the other, with a warning."""

    ref_total = sum(reference[k] for k in sorted(reference))
    if ref_total == 0.0:
        raise CalibrationError("ZeroReference", "*",
                               "reference breakdown sums to zero")
    mod_total = sum(modeled[k] for k in sorted(modeled))
    overall_pct = abs(mod_total - ref_total) / ref_total * 100.0

    per_component = {}
    for k in sorted(set(modeled) | set(reference)):
        if k not in modeled:
            warnings.warn(f"component {k!r} missing from modeled breakdown, "
                          "treated as zero", stacklevel=2)
        if k not in reference:
            warnings.warn(f"component {k!r} missing from reference breakdown, "
                          "treated as zero", stacklevel=2)
        mf = modeled.get(k, 0.0) / mod_total if mod_total else 0.0
        rf = reference.get(k, 0.0) / ref_total
        per_component[k] = abs(mf - rf) * 100.0
    return overall_pct, per_component
