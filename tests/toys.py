"""Hand-sized architectures and layers shared by the unit tests, and a
reference sweep of a nest's loops (residencies): the tile changes and
distinct Outputs tiles per level that the counting reads."""

from __future__ import annotations

from photon_model.spec_model import (
    INPUTS,
    OUTPUTS,
    TENSOR_DIMS,
    WEIGHTS,
    Architecture,
    ComponentSpec,
    Converter,
    Layer,
    Level,
    Mesh,
)


def storage(name: str, domain: str, cap: int, read: float = 1.0,
            bandwidth: float = 1e9, area: float = 0.0) -> ComponentSpec:
    return ComponentSpec(
        name=name, cls="storage", domain_in=domain, domain_out=domain,
        energy_per_action={"read": read, "write": read, "update": 1.5 * read},
        capacity_bits=cap, bandwidth=bandwidth, area_um2=area)


def compute(name: str, domain: str, energy: float = 0.5,
            area: float = 0.0) -> ComponentSpec:
    return ComponentSpec(
        name=name, cls="compute", domain_in=domain, domain_out=domain,
        energy_per_action={"compute": energy}, area_um2=area)


def converter(name: str, din: str, dout: str, energy: float = 2.0,
              area: float = 0.0) -> ComponentSpec:
    return ComponentSpec(
        name=name, cls="converter", domain_in=din, domain_out=dout,
        energy_per_action={"convert": energy}, bandwidth=1e9, area_um2=area)


def fc_direct() -> Architecture:
    """Backing store feeding one MAC, same domain, no converters."""

    return Architecture(
        name="fc_direct", clock_ghz=1.0,
        levels=(Level("store", storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", compute("mac", "DE"), 1, ())),
        meshes=(Mesh(),), converters=())


def fc_weight_buffer(buf_bits: int = 1 << 10) -> Architecture:
    """Store, a weight-only buffer, one MAC."""

    return Architecture(
        name="fc_wbuf", clock_ghz=1.0,
        levels=(Level("store", storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("wbuf", storage("wreg", "DE", buf_bits), 1,
                      ("Weights",)),
                Level("pe", compute("mac", "DE"), 1, ())),
        meshes=(Mesh(), Mesh()), converters=())


def fanout_converter_arch(fanout: int = 4) -> Architecture:
    """DE store over an AE compute array; operands convert down, partial
    sums convert up; input multicast enabled."""

    return Architecture(
        name="fanout_conv", clock_ghz=1.0,
        levels=(Level("store", storage("sram", "DE", 1 << 24), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", compute("amac", "AE"), fanout, ())),
        meshes=(Mesh(may_multicast=True),),
        converters=(Converter("dn", converter("dac", "DE", "AE"), 1,
                              ("Weights", "Inputs"), fanout),
                    Converter("up", converter("adc", "AE", "DE"), 1,
                              ("Outputs",), fanout)))


def refetch_toy(buf_bits):
    """Store (DE) over a small buffer (AE) over a MAC array (AE). Partial
    sums drain up through an ADC, but no converter carries Outputs back
    down, so a buffered output tile may never be refetched."""

    wio = ("Weights", "Inputs", "Outputs")
    return Architecture(
        name="refetch", clock_ghz=1.0,
        levels=(Level("store", storage("sram", "DE", 1 << 24, read=10.0),
                      1, wio),
                Level("buf", storage("reg", "AE", buf_bits), 2, wio),
                Level("pe", compute("amac", "AE"), 2, ())),
        meshes=(Mesh(), Mesh(may_multicast=True, may_reduce=True)),
        converters=(Converter("dn", converter("dac", "DE", "AE"), 1,
                              ("Weights", "Inputs"), 2),
                    Converter("up", converter("adc", "AE", "DE"), 1,
                              ("Outputs",), 2)))


def fc_k2c3() -> Layer:
    return Layer(name="fc", kind="fully_connected",
                 dims={"N": 1, "K": 2, "C": 3, "R": 1, "S": 1, "P": 1, "Q": 1})


def conv_k4() -> Layer:
    return Layer(name="conv", kind="conv",
                 dims={"N": 1, "K": 4, "C": 2, "R": 3, "S": 3, "P": 4, "Q": 4})


def ones_layer() -> Layer:
    return Layer(name="one", kind="fully_connected",
                 dims={d: 1 for d in ("N", "K", "C", "P", "Q", "R", "S")})


def residencies(loops, levels: int) -> list[tuple[int, int, int, int]]:
    """Per level below `levels`, in one forward sweep over each level's
    loops (LoopNest.loops), outermost level first: the times the Weights,
    Inputs and Outputs tiles there change over the walk, counting the
    initial fill, and the distinct Outputs tiles. A tile changes with the
    product of loop extents at or outside the innermost loop at or above
    its level whose dim moves it (none when it never changes), because
    any of them advancing resets or moves it; its distinct tiles are the
    product of the extents of every such loop."""

    out = []
    weights = inputs = outputs = distinct = span = 1
    for level in loops[:levels]:
        for d, e in level:
            span *= e
            if d in TENSOR_DIMS[WEIGHTS]:
                weights = span
            if d in TENSOR_DIMS[INPUTS]:
                inputs = span
            if d in TENSOR_DIMS[OUTPUTS]:
                outputs = span
                distinct *= e
        out.append((weights, inputs, outputs, distinct))
    return out
