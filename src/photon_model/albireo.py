"""Bundled reference accelerator: a photonic MAC array fed through a
digital buffer hierarchy.

Geometry: DRAM and a global SRAM buffer in the digital-electrical domain,
one analog-electrical staging level (weight/input stations and the partial
sum accumulators, modeled as a register complex), and an analog-optical MAC
block. DACs and an ADC bank sit on the buffer/stage edge; modulators and
photodetectors sit on the stage/array edge. The optical block computes an
8 x 7 x 4 x 3 (K, Q, C, R) stencil per cycle: one modulated input drives 8
filter banks, one modulated weight serves 7 output columns, and 4 x 3
partial products merge optically before detection.

Three fanout multipliers scale how much of each sharing axis the array
offers. A geometry point's document states all of it: the array's stencil,
which pins every search of it, by name or from a file (stencil_pins), and
the staging register's capacity and bandwidth, as a refinement of its part.
"""

from __future__ import annotations

from .components import DEFAULT_PROFILE, builtin_components
from .spec_model import (
    SPEC_VERSION,
    Architecture,
    Layer,
    parse_architecture,
    stencil_pins,
)

NAME = "albireo"

# The sweep axes: architecture_doc's keywords, each with the (converter
# bank, tensor) whose conversions should shrink as it widens its path.
AXES = {"ao_per_ae_weight": ("mzm_bank", "Weights"),
        "ao_input_fanout": ("mzm_bank", "Inputs"),
        "ae_output_fanout": ("pd_bank", "Outputs")}

STAGE_NAME = "ae_stage"
ARRAY_NAME = "ao_array"

BASE_K = 8   # filter banks sharing one modulated input
BASE_Q = 7   # output columns sharing one modulated weight
BASE_C = 4   # channel partial products merged optically
BASE_R = 3   # filter-row partial products merged optically


def architecture_doc(ao_per_ae_weight: int = 1, ao_input_fanout: int = 1,
                     ae_output_fanout: int = 1) -> dict:
    """Architecture document for one geometry point. It names parts of the
    builtin component library and refines the staging register's."""

    k = BASE_K * ao_input_fanout
    q = BASE_Q * ao_per_ae_weight
    c = BASE_C * ae_output_fanout
    fanout = k * q * c * BASE_R
    streams = fanout // (c * BASE_R)
    # The staging registers are banked per lane group, so their capacity
    # and port width grow with the geometry; per-access energy does not.
    scale = ao_per_ae_weight * ao_input_fanout * ae_output_fanout
    reg = builtin_components()["register"]
    banked = {"capacity_bits": reg.capacity_bits * scale,
              "bandwidth": reg.bandwidth * scale} if scale > 1 else {}
    return {
        "name": f"albireo-k{k}q{q}c{c}r{BASE_R}",
        "clock_ghz": 5.0,
        "levels": [
            {"name": "dram", "component": "dram", "fanout": 1,
             "keeps": ["Weights", "Inputs", "Outputs"]},
            {"name": "global_buffer", "component": "global_buffer_sram",
             "fanout": 1, "keeps": ["Weights", "Inputs", "Outputs"]},
            {"name": STAGE_NAME, "component": "register", "fanout": 1,
             "keeps": ["Weights", "Inputs", "Outputs"], **banked},
            {"name": ARRAY_NAME, "component": "analog_mac", "fanout": fanout,
             "keeps": [], "stencil": {"K": k, "Q": q, "C": c, "R": BASE_R}},
        ],
        "meshes": [
            {"between": ["global_buffer", STAGE_NAME]},
            {"between": [STAGE_NAME, ARRAY_NAME],
             "may_multicast": True, "may_reduce": True},
        ],
        "converters": [
            {"name": "input_dac", "component": "dac",
             "between": ["global_buffer", STAGE_NAME],
             "tensors": ["Weights", "Inputs"], "instances": 32},
            {"name": "weight_adc_return", "component": "adc",
             "between": ["global_buffer", STAGE_NAME],
             "tensors": ["Outputs"], "instances": 32},
            {"name": "mzm_bank", "component": "mzm_modulator",
             "between": [STAGE_NAME, ARRAY_NAME],
             "tensors": ["Weights", "Inputs"], "instances": fanout},
            {"name": "pd_bank", "component": "photodiode",
             "between": [STAGE_NAME, ARRAY_NAME],
             "tensors": ["Outputs"], "instances": streams},
        ],
        "extras": [
            {"name": "comb_laser", "component": "laser", "instances": 1},
            {"name": "ring_banks", "component": "microring",
             "instances": fanout},
            {"name": "star_couplers", "component": "star_coupler",
             "instances": streams},
        ],
    }


def spec_doc() -> dict:
    """The bundled spec document that NAME loads."""

    return {"spec_version": SPEC_VERSION,
            "use_builtin_components": DEFAULT_PROFILE,
            "architecture": architecture_doc()}


def architecture(profile=DEFAULT_PROFILE, *axes: int,
                 **named: int) -> Architecture:
    return parse_architecture(architecture_doc(*axes, **named),
                              builtin_components(profile))


def geometry_pins(layer: Layer, *axes: int) -> dict[tuple[int, str], int]:
    """The stencil pins of `layer` on the bundled geometry at `axes`, for
    callers that hold no architecture (perfbench/make_reference.py)."""

    return stencil_pins(layer, architecture(DEFAULT_PROFILE, *axes))
