"""Bundled workloads and bundled-spec resolution.

Two classic image classifiers are shipped as workload documents: one deep
13-conv/3-fc network dominated by 3x3 convolutions, and one shallower
5-conv/3-fc network with large strided early filters. Both use 8-bit
values throughout. The bundled accelerator's document is generated from
its geometry (albireo.architecture_doc) and is its single source. It
states the stencil and the staging register's size, so a document written
to a file and loaded by path is the architecture it was written from.
"""

from __future__ import annotations

from pathlib import Path

from . import albireo
from .spec_model import (
    REFERENCE_BREAKDOWN,
    SPEC_VERSION,
    Architecture,
    Spec,
    SpecError,
    Workload,
    check_spec_version,
    load_document,
    parse_spec,
    read_json,
)

DATA_DIR = Path(__file__).parent / "data"

BUNDLED_ARCHITECTURE = "albireo"

BUNDLED_SPECS = {
    "vgg16": "vgg16.spec",
    "alexnet": "alexnet.spec",
}

BUNDLED_REFERENCE = "albireo_reference.breakdown"


def resolve_spec_path(name_or_path: str) -> Path:
    if name_or_path in BUNDLED_SPECS:
        return DATA_DIR / BUNDLED_SPECS[name_or_path]
    return Path(name_or_path)


def load_spec(name_or_path: str) -> Spec:
    if name_or_path == BUNDLED_ARCHITECTURE:
        return parse_spec({"spec_version": SPEC_VERSION,
                           "use_builtin_components": "aggressive",
                           "architecture": albireo.architecture_doc()})
    return parse_spec(load_document(str(resolve_spec_path(name_or_path))))


def load_architecture(name_or_path: str) -> Architecture:
    spec = load_spec(name_or_path)
    if spec.architecture is None:
        raise SpecError("MalformedDocument", name_or_path,
                        "spec contains no architecture")
    return spec.architecture


def load_workload(name_or_path: str) -> Workload:
    spec = load_spec(name_or_path)
    if spec.workload is None:
        raise SpecError("MalformedDocument", name_or_path,
                        "spec contains no workload")
    return spec.workload


def reference_breakdown_path() -> Path:
    return DATA_DIR / BUNDLED_REFERENCE


def load_reference_breakdown(path: str | Path | None = None
                             ) -> dict[str, float]:
    """Published per-component energies (pJ) for the bundled accelerator
    running its breakdown workload: none negative, and not all zero, so
    that they have fractions to calibrate against."""

    path = Path(path or reference_breakdown_path())
    f = REFERENCE_BREAKDOWN.read(read_json(str(path)), f"{path}:$")
    if f["spec_version"] is not None:
        check_spec_version(f["spec_version"], f"{path}:$.spec_version")
    breakdown, where = f["breakdown"], f"{path}:$.breakdown"
    for c, v in breakdown.items():
        if v < 0:
            raise SpecError("BadBound", f"{where}.{c}",
                            f"energy must be >= 0, got {v!r}")
    if sum(breakdown.values()) == 0:
        raise SpecError("BadBound", where, "the breakdown sums to zero")
    return breakdown

