"""Bundled workloads and the one spec loader.

Two classic image classifiers are shipped as workload documents: one deep
13-conv/3-fc network dominated by 3x3 convolutions, and one shallower
5-conv/3-fc network with large strided early filters. Both use 8-bit
values throughout. The bundled accelerator's document is generated by
albireo.spec_doc and is its single source. It states the stencil and the
staging register's size, so a document written to a file and loaded by
path is the architecture it was written from.

load_spec is the one loader of a name or a path. A profile is an edit of
the document: it sets use_builtin_components wherever that is stated. A
document that states none has nothing for a profile to scale, so any
profile but the default is an error there.
"""

from __future__ import annotations

from pathlib import Path

from . import albireo
from .components import DEFAULT_PROFILE, PROFILES
from .spec_model import (
    REFERENCE_BREAKDOWN,
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

BUNDLED_SPECS = {n: DATA_DIR / f"{n}.spec" for n in ("vgg16", "alexnet")}

BUNDLED_REFERENCE = "albireo_reference.breakdown"


def load_spec(name_or_path: str, profile: str | None = None,
              needs: str | None = None) -> Spec:
    """The spec `name_or_path` names, its stated library, if valid, set to
    `profile`; `needs` names a section it must hold."""

    doc = (albireo.spec_doc() if name_or_path == albireo.NAME else
           load_document(str(BUNDLED_SPECS.get(name_or_path, name_or_path))))
    stated = doc.get("use_builtin_components")  # maybe unhashable
    if profile is not None and stated in list(PROFILES):
        doc["use_builtin_components"] = profile
    elif profile not in (None, DEFAULT_PROFILE) and stated is None:
        raise SpecError("MalformedDocument", name_or_path,
                        f"profile {profile!r} has no library to scale: "
                        "the document states no use_builtin_components")
    spec = parse_spec(doc)
    if needs is not None and getattr(spec, needs) is None:
        raise SpecError("MalformedDocument", name_or_path,
                        f"spec contains no {needs}")
    return spec


def load_architecture(name_or_path: str) -> Architecture:
    return load_spec(name_or_path, needs="architecture").architecture


def load_workload(name_or_path: str) -> Workload:
    return load_spec(name_or_path, needs="workload").workload


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

