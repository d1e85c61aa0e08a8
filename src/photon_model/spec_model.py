"""Core domain types, spec-document ingestion, and mapping validation.

A system is described by three documents (JSON object trees):

* a component library: named parts with per-action energies, static power,
  area, and (for storage) capacity;
* an architecture: an ordered chain of levels from the outermost backing
  store down to the compute level, plus converters on the edges between
  levels, mesh capability flags per edge, and standalone extras such as
  lasers;
* a workload: a list of layers, each a 7-dim nest {N,K,C,R,S,P,Q} with
  strides and per-tensor value widths.

A mapping assigns every level temporal and spatial factors per dim plus a
loop order. This module also owns the loop-nest geometry that the counting
engines, the evaluator and the mapper build on, so that "what a tile is"
has exactly one definition: a mapping's LoopNest (padded bounds, per-level
tile bounds, spatial copies, instance counts and step count, built in one
pass that also checks every factor, and cached as Mapping.nest), the tile
footprint (tile_values), the capacity demand (kept_bits), what each
storage level keeps under a keep-override set and the keeper chains read
from that keep table (validation_plan), the spatial dims a mesh merges
(merge_dims) and the spatial pins a level's stencil puts on a search
(stencil_pins). It owns the count containers every counting engine
returns (AccessCounts, LevelCounts) too. Tables derived from an
architecture, and the mapper's search results, are kept on the instance
(Architecture.derived). So has a valid mapping: validate_mapping, the
refetch rule (ValidationPlan.forbidden) included, so the counting engines
never reject a mapping it accepted. What it reads from the architecture
and the keep overrides is planned once per override set (validation_plan).

Documents are read through field tables (table): each object's fields,
their types and defaults, and the error a wrong one gets. They are the one
definition of what a document may hold and of every message it gets. A
mapping document, read once per design point, has a direct reader as well
(parse_mapping): a plain document, whose objects hold only their tables'
fields, each of exactly the type the table keeps as it is, is read in one
pass, and any other goes to the tables, which convert it or raise. The
reader's level index is kept per architecture (Architecture.derived), and a
mapping's override key is made once (Mapping.keep_key) for the lookups of
both its validation and its count plan.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields, replace
from itertools import accumulate, chain
from operator import mul
from types import MappingProxyType
from typing import Callable, NamedTuple, NoReturn, TypeVar, get_type_hints

T = TypeVar("T")

SPEC_VERSION = 1

DOMAINS = ("DE", "AE", "DO", "AO")
ACTIONS = ("read", "write", "update", "convert", "compute", "idle")
CLASSES = ("storage", "compute", "converter", "network", "source")

WEIGHTS = "Weights"
INPUTS = "Inputs"
OUTPUTS = "Outputs"
TENSORS = (WEIGHTS, INPUTS, OUTPUTS)

DIMS = ("N", "K", "C", "P", "Q", "R", "S")

# Dims that index each tensor. Inputs are addressed through the sliding
# window composition of (P,R) and (Q,S), so all six of those dims move the
# input tile.
TENSOR_DIMS = {
    WEIGHTS: frozenset({"K", "C", "R", "S"}),
    INPUTS: frozenset({"N", "C", "P", "Q", "R", "S"}),
    OUTPUTS: frozenset({"N", "K", "P", "Q"}),
}

# Dims reduced away when producing Outputs.
REDUCED_DIMS = frozenset({"C", "R", "S"})

# Directions a tensor crosses an edge in: DOWN from levels[edge-1] into
# levels[edge], UP back out.
DOWN = "down"
UP = "up"


# ============================================================================
# Errors
# ============================================================================


class SpecError(Exception):
    """A document violates the format or a structural invariant.

    kind is one of: MalformedDocument, UnknownComponent, BadBound,
    CapacityNonPositive, MissingConverter. path points at the offending
    value, e.g. "architecture.levels[2].fanout", or at the object for an
    unknown or missing field or a structural fault, e.g.
    "architecture.levels[2]".
    """

    def __init__(self, kind: str, path: str, message: str):
        self.kind = kind
        self.path = path
        super().__init__(f"{kind} at {path}: {message}")


class MappingError(Exception):
    """A mapping is invalid for a given architecture and layer.

    kind is one of: FactorMismatch, FanoutExceeded, CapacityExceeded,
    ConverterMissing (the refetch rule, see ValidationPlan.forbidden).
    """

    def __init__(self, kind: str, message: str, *, dim: str | None = None,
                 level: str | None = None, tensor: str | None = None):
        self.kind = kind
        self.dim = dim
        self.level = level
        self.tensor = tensor
        super().__init__(f"{kind}: {message}")


class _lazy:
    """A property made on first read and kept in the instance's __dict__,
    like the standard library's cached property but without its lock,
    which costs each first read about a microsecond before Python 3.12."""

    def __init__(self, build: Callable):
        self.build = build
        self.__doc__ = build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.build.__name__] = self.build(obj)
        return value


# ============================================================================
# Component and architecture types
# ============================================================================


@dataclass(frozen=True)
class ComponentSpec:
    """One hardware part. Energies are pJ per action, power is mW, area um^2.

    cls is the component class ("class" is reserved in Python). Converters
    carry distinct domain_in/domain_out; every other class has
    domain_in == domain_out. bandwidth is actions per cycle per instance.
    """

    name: str
    cls: str
    domain_in: str
    domain_out: str
    energy_per_action: dict[str, float] = field(default_factory=dict)
    static_power_mw: float = 0.0
    area_um2: float = 0.0
    capacity_bits: int = 0
    width_bits: int = 8
    bandwidth: float = 1.0

    def energy(self, action: str) -> float:
        return self.energy_per_action.get(action, 0.0)


@dataclass(frozen=True)
class Level:
    """One storage or compute level. fanout is spatial copies per parent.

    stencil is the (dim, width) pairs, in DIMS order, that the level's
    lanes are wired for, such as a photonic array's fixed sharing axes. It
    constrains the search only (stencil_pins); a mapping is validated and
    counted without it. component is the library part as the level's entry
    refines it, and refinement is what that entry stated (_REFINEMENT)."""

    name: str
    component: ComponentSpec
    fanout: int
    keeps: tuple[str, ...]
    stencil: tuple[tuple[str, int], ...] = ()
    refinement: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Mesh:
    may_multicast: bool = False
    may_reduce: bool = False


@dataclass(frozen=True)
class Converter:
    """A converter bank on the edge between levels[edge-1] and levels[edge].

    Direction follows the component domains: domain_in matching the outer
    level's domain makes it carry its tensors DOWN (fills side), matching
    the inner level's domain UP (drains side). Architecture.edge_converters
    resolves every bank's direction once. component and refinement are
    as on Level."""

    name: str
    component: ComponentSpec
    edge: int
    tensors: tuple[str, ...]
    instances: int
    refinement: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Extra:
    """Standalone part with no action counts: pays static power and area.
    component and refinement are as on Level."""

    name: str
    component: ComponentSpec
    instances: int
    refinement: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Architecture:
    name: str
    clock_ghz: float
    levels: tuple[Level, ...]
    meshes: tuple[Mesh, ...]          # meshes[i] sits between levels[i] and levels[i+1]
    converters: tuple[Converter, ...]
    extras: tuple[Extra, ...] = ()

    def mesh_into(self, inner: int) -> Mesh:
        return self.meshes[inner - 1]

    def crosses(self, edge: int) -> bool:
        """Whether the edge into levels[edge] changes signal domain."""

        return (self.levels[edge - 1].component.domain_out
                != self.levels[edge].component.domain_in)

    @_lazy
    def edge_converters(self) -> dict[tuple[int, str, str], Converter]:
        """The converter carrying each (edge, tensor, DOWN|UP): the one
        definition of which bank a tensor crosses an edge through."""

        table: dict[tuple[int, str, str], Converter] = {}
        for cv in self.converters:
            dirn = _converter_direction(self.levels, cv)
            for t in cv.tensors:
                key = (cv.edge, t, dirn)
                if key in table:
                    raise SpecError(
                        "MalformedDocument",
                        f"architecture[{self.name}].converters[{cv.name}]",
                        f"edge {cv.edge} already has a converter carrying "
                        f"{t} {dirn}")
                table[key] = cv
        return table

    @_lazy
    def parts(self) -> tuple[tuple[ComponentSpec, int], ...]:
        """Every part with its physical instance count: each level (the
        fanout product down to it), then each converter bank, then each
        extra. The one count static power and area are charged by."""

        fanned = accumulate((lv.fanout for lv in self.levels), mul)
        return (tuple(zip((lv.component for lv in self.levels), fanned))
                + tuple((cv.component, cv.instances) for cv in self.converters)
                + tuple((ex.component, ex.instances) for ex in self.extras))

    @_lazy
    def _derived(self) -> dict[tuple, object]:
        return {}

    def derived(self, key: tuple, build: Callable[[], T]) -> T:
        """The table `build()` makes from this architecture and the key,
        made on first request and kept per instance under `key` (the
        architecture itself is unhashable); nothing is kept when `build()`
        raises. A copy made with dataclasses.replace is a new instance and
        starts with no tables, so an edited architecture is never read
        through another's. Callers hand out only read-only tables."""

        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = build()
        return hit


# ============================================================================
# Workload types
# ============================================================================


@dataclass(frozen=True)
class Layer:
    """One DNN layer. dims covers all of N,K,C,R,S,P,Q; fully_connected
    layers have R=S=P=Q=1."""

    name: str
    kind: str                      # "conv" | "fully_connected"
    dims: dict[str, int]
    stride: tuple[int, int] = (1, 1)       # (stride_p, stride_q)
    bits: dict[str, int] = field(default_factory=lambda: {t: 8 for t in TENSORS})

    def macs(self) -> int:
        n = 1
        for d in DIMS:
            n *= self.dims[d]
        return n


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[Layer, ...]


# ============================================================================
# Mapping types
# ============================================================================


# LevelMapping, Mapping and evaluator.EvaluationResult write their fields
# straight into the instance __dict__: the __init__ a frozen dataclass
# generates sets each one through object.__setattr__, which makes a
# LevelMapping take about 70% longer to build under CPython 3.11.
# Assignment still raises FrozenInstanceError; replace, fields, eq and
# repr are the dataclass's.


@dataclass(frozen=True, init=False)
class LevelMapping:
    """Per-level loop factors. A dim missing from temporal or spatial has
    factor 1 there, and a factor of 1 written out changes nothing.
    permutation orders this level's temporal loops outermost-first; dims not
    listed run innermost in canonical DIMS order."""

    temporal: dict[str, int] = field(default_factory=dict)
    spatial: dict[str, int] = field(default_factory=dict)
    permutation: tuple[str, ...] = ()

    def __init__(self, temporal: dict[str, int] | None = None,
                 spatial: dict[str, int] | None = None,
                 permutation: tuple[str, ...] = ()):
        own = self.__dict__
        own["temporal"] = {} if temporal is None else temporal
        own["spatial"] = {} if spatial is None else spatial
        own["permutation"] = permutation

    def t(self, d: str) -> int:
        return self.temporal.get(d, 1)

    def s(self, d: str) -> int:
        return self.spatial.get(d, 1)

    def loops(self) -> list[tuple[str, int]]:
        """This level's temporal loops with extent > 1, outermost first,
        for a permutation of distinct dims."""

        t, perm = self.temporal, self.permutation
        out = [(d, t[d]) for d in perm if t.get(d, 1) > 1]
        if len(out) < len(t):  # the permutation may leave a loop out
            out += [(d, t[d]) for d in DIMS
                    if d not in perm and t.get(d, 1) > 1]
        return out


@dataclass(frozen=True, init=False)
class Mapping:
    """A full schedule: one LevelMapping per architecture level. Unit
    factors may be left out (see LevelMapping).

    batch_size multiplies the layer's N bound. keep_overrides replaces a
    storage level's kept-tensor set with a subset (bypassing extra tensors);
    pad selects padded-bound validation (factor products may exceed bounds).
    """

    levels: tuple[LevelMapping, ...]
    batch_size: int = 1
    keep_overrides: dict[int, tuple[str, ...]] = field(default_factory=dict)
    pad: bool = False

    def __init__(self, levels: tuple[LevelMapping, ...], batch_size: int = 1,
                 keep_overrides: dict[int, tuple[str, ...]] | None = None,
                 pad: bool = False):
        own = self.__dict__
        own["levels"] = levels
        own["batch_size"] = batch_size
        own["keep_overrides"] = ({} if keep_overrides is None
                                 else keep_overrides)
        own["pad"] = pad

    @_lazy
    def nest(self) -> LoopNest:
        """The loop-nest geometry, built once per mapping. Reading it
        raises MappingError for a factor or loop order LoopNest.of
        rejects."""

        return LoopNest.of(self.levels)

    @_lazy
    def keep_key(self) -> tuple:
        """override_key of the keep overrides, made once per mapping: the
        key its validation and count plans are kept under."""

        return override_key(self.keep_overrides)


def mapping_digest(m: Mapping) -> str:
    """Canonical one-line form; equal digests mean equal schedules."""

    parts = []
    for i, lm in enumerate(m.levels):
        t = ",".join(f"{d}{lm.t(d)}" for d in DIMS if lm.t(d) > 1)
        s = ",".join(f"{d}{lm.s(d)}" for d in DIMS if lm.s(d) > 1)
        perm = "".join(d for d, _ in lm.loops())
        keep = ""
        if i in m.keep_overrides:
            keep = "|k:" + ",".join(sorted(m.keep_overrides[i]))
        parts.append(f"L{i}[t:{t}|s:{s}|o:{perm}{keep}]")
    tag = f"b{m.batch_size}" + ("p" if m.pad else "")
    return tag + " " + " ".join(parts)


# ============================================================================
# Loop-nest geometry
# ============================================================================


class LoopNest(NamedTuple):
    """Geometry of a mapped loop nest, from one pass over its levels.

    padded[d] is the product of every factor of dim d (the iterated space);
    tiles[i][d] the product of every factor strictly inside level i (the
    tile one level-i instance holds); spatial[i] the spatial copies mapped
    at level i; instances[i] the mapped instances of level i (the product
    of spatial copies at or above it); steps the product of every temporal
    factor, each step issuing one MAC per active compute instance; loops
    the temporal loops with extent > 1, outermost first, as (level, dim,
    extent), each level's block in its permutation's order.

    The pass that builds it checks what it reads: every factor must be a
    positive int (not a bool) of a known dim, and every permutation a
    sequence of distinct dims. A fault raises MappingError FactorMismatch,
    the first one in level order (temporal, spatial, then permutation, per
    level), as validate_mapping reports it; an unknown dim's error names
    its level by index there, and validate_mapping by name.
    """

    padded: dict[str, int]
    tiles: tuple[dict[str, int], ...]
    spatial: tuple[int, ...]
    instances: tuple[int, ...]
    steps: int
    loops: tuple[tuple[int, str, int], ...]

    @classmethod
    def of(cls, levels: tuple[LevelMapping, ...]) -> LoopNest:
        run = dict.fromkeys(DIMS, 1)
        m = len(levels)
        tiles = [run] * m
        spatial = [1] * m
        blocks: list = [()] * m
        steps = 1
        for i in range(m - 1, -1, -1):
            lm = levels[i]
            t = lm.temporal
            tiles[i] = run.copy()
            for d, f in t.items():
                if type(f) is not int or f < 1 or d not in run:
                    raise _first_fault(levels)
                run[d] *= f
                steps *= f
            s = 1
            for d, f in lm.spatial.items():
                if type(f) is not int or f < 1 or d not in run:
                    raise _first_fault(levels)
                run[d] *= f
                s *= f
            spatial[i] = s
            perm = lm.permutation
            if perm:
                for d in perm:
                    if d not in DIMS:
                        raise _first_fault(levels)
                if len(set(perm)) < len(perm):
                    raise _first_fault(levels)
            if t:  # LevelMapping.loops, on the factors checked above
                block = []
                for d in perm:
                    f = t.get(d, 1)
                    if f > 1:
                        block.append((i, d, f))
                if len(block) < len(t):
                    block += [(i, d, t[d]) for d in DIMS
                              if d not in perm and t.get(d, 1) > 1]
                blocks[i] = block
        return cls(run, tuple(tiles), tuple(spatial),
                   tuple(accumulate(spatial, mul)), steps,
                   tuple(chain.from_iterable(blocks)))


def _first_fault(levels: tuple[LevelMapping, ...]) -> MappingError:
    """The first factor or permutation fault of `levels` in level order,
    for LoopNest.of, which has found one."""

    for i, lm in enumerate(levels):
        for src in (lm.temporal, lm.spatial):
            for d, f in src.items():
                if d not in DIMS:
                    return MappingError("FactorMismatch", f"unknown dim {d!r}",
                                        dim=d, level=i)
                if type(f) is not int or f < 1:
                    return MappingError("FactorMismatch",
                                        f"factor {d}={f!r} at level {i} not a "
                                        "positive integer", dim=d)
        seen = set()
        for d in lm.permutation:
            if d not in DIMS or d in seen:
                return MappingError("FactorMismatch",
                                    f"bad permutation {lm.permutation!r}")
            seen.add(d)
    raise AssertionError("LoopNest.of found a fault that is not there")


def effective_bounds(layer: Layer, batch_size: int) -> dict[str, int]:
    """True iteration bounds, with the batch size folded into N."""

    out = dict(layer.dims)
    out["N"] = out["N"] * batch_size
    return out


def input_extent(p_ext: int, r_ext: int, stride: int) -> int:
    return (p_ext - 1) * stride + r_ext


def tile_values(layer: Layer, tb: dict[str, int], tensor: str) -> int:
    """Values of one tensor covered by a tile with per-dim extents tb."""

    if tensor == WEIGHTS:
        return tb["K"] * tb["C"] * tb["R"] * tb["S"]
    if tensor == OUTPUTS:
        return tb["N"] * tb["K"] * tb["P"] * tb["Q"]
    h = input_extent(tb["P"], tb["R"], layer.stride[0])
    w = input_extent(tb["Q"], tb["S"], layer.stride[1])
    return tb["N"] * tb["C"] * h * w


def kept_bits(layer: Layer, tb: dict[str, int],
              keeps: tuple[str, ...]) -> dict[str, int]:
    """Bits each kept tensor's tile occupies at a level whose tile has
    per-dim extents tb: the capacity demand of that level."""

    return {t: tile_values(layer, tb, t) * layer.bits[t] for t in keeps}


def override_key(keep_overrides: dict[int, tuple[str, ...]]) -> tuple:
    """Keep overrides as a hashable key, equal for equal override sets."""

    if not keep_overrides:
        return ()
    return tuple(sorted((i, tuple(ov)) for i, ov in keep_overrides.items()))


def merge_dims(arch: Architecture, inner: int, tensor: str,
               direction: str) -> tuple[str, ...]:
    """Spatial dims whose copies at level `inner` share one transmission
    across its edge: descending, the dims absent from the tensor, if the
    mesh there can multicast; ascending (partial outputs), the reduced
    dims, if it can reduce."""

    mesh = arch.mesh_into(inner)
    if direction == DOWN:
        return (tuple(d for d in DIMS if d not in TENSOR_DIMS[tensor])
                if mesh.may_multicast else ())
    return (tuple(d for d in DIMS if d in REDUCED_DIMS)
            if mesh.may_reduce else ())


def stencil_pins(layer: Layer,
                 arch: Architecture) -> dict[tuple[int, str], int]:
    """The spatial pins (SearchConfig.fixed_spatial) that commit `layer` to
    every level stencil of `arch`: each stencil dim the layer has is pinned
    to its width and every other dim at that level to 1. A stencil dim the
    layer lacks (a fully connected layer's window) stays at 1, so no lane
    runs pure padding. Empty for an architecture with no stencil."""

    pins = {}
    for j, lv in enumerate(arch.levels):
        if lv.stencil:
            widths = dict(lv.stencil)
            for d in DIMS:
                pins[(j, d)] = widths.get(d, 1) if layer.dims[d] > 1 else 1
    return pins


@dataclass(eq=True)
class LevelCounts:
    reads: int = 0
    fills: int = 0
    updates: int = 0
    drains: int = 0


@dataclass(eq=True)
class AccessCounts:
    """Access counts for one (architecture, layer, mapping) triple.

    per_level is keyed by (level index, tensor) for storage levels and the
    tensors they keep. conversions is keyed by (converter name, tensor).
    edge_crossings / edge_demand are keyed by (edge, tensor, direction) and
    record unique values crossing each edge and the consumer demand just
    inside it, whether or not a converter sits there.
    """

    per_level: dict[tuple[int, str], LevelCounts] = field(default_factory=dict)
    conversions: dict[tuple[str, str], int] = field(default_factory=dict)
    compute_reads: dict[str, int] = field(default_factory=dict)
    macs: int = 0
    real_macs: int = 0
    edge_crossings: dict[tuple[int, str, str], int] = field(default_factory=dict)
    edge_demand: dict[tuple[int, str, str], int] = field(default_factory=dict)


# ============================================================================
# Validation
# ============================================================================


def _validate_component(c: ComponentSpec, path: str) -> None:
    if c.cls not in CLASSES:
        raise SpecError("MalformedDocument", path, f"unknown class {c.cls!r}")
    for dom in (c.domain_in, c.domain_out):
        if dom not in DOMAINS:
            raise SpecError("MalformedDocument", path, f"unknown domain {dom!r}")
    if c.cls == "converter":
        if c.domain_in == c.domain_out:
            raise SpecError(
                "MalformedDocument", path,
                "converter must change domain (domain_in == domain_out)")
    elif c.domain_in != c.domain_out:
        raise SpecError(
            "MalformedDocument", path,
            f"{c.cls} component cannot change domain")
    for a, e in c.energy_per_action.items():
        if a not in ACTIONS:
            raise SpecError("MalformedDocument", path, f"unknown action {a!r}")
        if e < 0:
            raise SpecError("BadBound", f"{path}.energy_per_action.{a}",
                            f"energy must be >= 0, got {e!r}")
    for name in ("static_power_mw", "area_um2"):
        if getattr(c, name) < 0:
            raise SpecError("BadBound", f"{path}.{name}",
                            f"must be >= 0, got {getattr(c, name)!r}")
    if c.cls == "storage" and c.capacity_bits <= 0:
        raise SpecError("CapacityNonPositive", path,
                        f"storage component {c.name!r} needs capacity_bits > 0")
    if c.width_bits <= 0 or c.bandwidth <= 0:
        raise SpecError("MalformedDocument", path,
                        "width_bits and bandwidth must be positive")


def _converter_direction(arch_levels: tuple[Level, ...], cv: Converter) -> str:
    """DOWN (outer -> inner) or UP (inner -> outer)."""

    outer = arch_levels[cv.edge - 1].component.domain_out
    inner = arch_levels[cv.edge].component.domain_in
    if cv.component.domain_in == outer and cv.component.domain_out == inner:
        return DOWN
    if cv.component.domain_in == inner and cv.component.domain_out == outer:
        return UP
    raise SpecError(
        "MalformedDocument",
        f"architecture.converters[{cv.name}]",
        f"converter domains {cv.component.domain_in}/{cv.component.domain_out} "
        f"do not match edge domains {outer}/{inner}")


def validate_architecture(arch: Architecture) -> None:
    path = f"architecture[{arch.name}]"
    if len(arch.levels) < 2:
        raise SpecError("MalformedDocument", path, "need at least storage + compute")
    names = [lv.name for lv in arch.levels]
    if len(set(names)) != len(names):
        raise SpecError("MalformedDocument", path, "duplicate level names")
    if arch.clock_ghz <= 0:
        raise SpecError("MalformedDocument", path, "clock_ghz must be positive")
    for i, lv in enumerate(arch.levels):
        lpath = f"{path}.levels[{i}]"
        want = "compute" if i == len(arch.levels) - 1 else "storage"
        if lv.component.cls != want:
            raise SpecError("MalformedDocument", lpath,
                            f"level {lv.name!r} must use a {want} component")
        if lv.fanout < 1:
            raise SpecError("BadBound", lpath, "fanout must be >= 1")
        if i == 0 and lv.fanout != 1:
            raise SpecError("BadBound", lpath, "outermost level has no parent fanout")
        bad = set(lv.keeps) - set(TENSORS)
        if bad:
            raise SpecError("MalformedDocument", lpath, f"unknown tensors {sorted(bad)}")
        if want == "compute" and lv.keeps:
            raise SpecError("MalformedDocument", lpath, "compute level keeps nothing")
    if set(arch.levels[0].keeps) != set(TENSORS):
        raise SpecError("MalformedDocument", f"{path}.levels[0]",
                        "outermost level must keep all tensors")
    if len(arch.meshes) != len(arch.levels) - 1:
        raise SpecError("MalformedDocument", path,
                        "need exactly one mesh entry per adjacent-level edge")

    for cv in arch.converters:
        cpath = f"{path}.converters[{cv.name}]"
        if not 1 <= cv.edge < len(arch.levels):
            raise SpecError("MalformedDocument", cpath, "edge out of range")
        if cv.component.cls != "converter":
            raise SpecError("MalformedDocument", cpath,
                            f"{cv.component.name!r} is not a converter component")
        if cv.instances < 1:
            raise SpecError("MalformedDocument", cpath, "instances must be >= 1")
        bad = set(cv.tensors) - set(TENSORS)
        if bad:
            raise SpecError("MalformedDocument", cpath, f"unknown tensors {sorted(bad)}")
    for ex in arch.extras:
        if ex.instances < 1:
            raise SpecError("MalformedDocument", f"{path}.extras[{ex.name}]",
                            "instances must be >= 1")

    # Every tensor travels across every edge (the hierarchy is a chain), so a
    # domain-changing edge needs converters for all three: DOWN ones for
    # Weights and Inputs, an UP one for Outputs.
    table = arch.edge_converters
    for e in range(1, len(arch.levels)):
        if not arch.crosses(e):
            continue
        outer = arch.levels[e - 1].component.domain_out
        inner = arch.levels[e].component.domain_in
        epath = f"{path}.edge[{arch.levels[e - 1].name}->{arch.levels[e].name}]"
        for t, dirn in ((WEIGHTS, DOWN), (INPUTS, DOWN), (OUTPUTS, UP)):
            if (e, t, dirn) not in table:
                src, dst = (outer, inner) if dirn == DOWN else (inner, outer)
                raise SpecError("MissingConverter", epath,
                                f"no {src}->{dst} converter for {t}")


def validate_layer(layer: Layer, path: str = "workload") -> None:
    if layer.kind not in ("conv", "fully_connected"):
        raise SpecError("MalformedDocument", path, f"unknown kind {layer.kind!r}")
    for d in DIMS:
        b = layer.dims.get(d)
        if not isinstance(b, int) or b < 1:
            raise SpecError("BadBound", path, f"dim {d} must be a positive integer")
    extra = set(layer.dims) - set(DIMS)
    if extra:
        raise SpecError("MalformedDocument", path, f"unknown dims {sorted(extra)}")
    if any(s < 1 for s in layer.stride):
        raise SpecError("BadBound", path, "strides must be >= 1")
    window = all(layer.dims[d] == 1 for d in ("R", "S", "P", "Q"))
    if (layer.kind == "fully_connected") != window:
        raise SpecError("BadBound", path,
                        "fully_connected layers must have R=S=P=Q=1 and vice versa")
    for t in TENSORS:
        if layer.bits.get(t, 0) <= 0:
            raise SpecError("BadBound", path, f"bits for {t} must be positive")


class ValidationPlan(NamedTuple):
    """What validate_mapping reads that depends only on the architecture
    and a mapping's keep overrides, built once per pair (validation_plan).
    capacity is the keep table: per storage level that keeps a tensor once
    the overrides apply, (level, the tensors it keeps, each named once, its
    capacity in bits, its name). The rest derives from it: each tensor's
    keeper chain, the levels whose rows keep it, outermost first; the
    keepers whose tile may never be refetched, as (keeper, tensor, edge),
    where the refill from the next keeper out crosses a domain at edge with
    no descending converter; and per tensor whose outermost keeper is not
    the backing store, (tensor, that origin level, the tensor's dims in
    DIMS order). Its readers outside validation (the search's tables, the
    count plan, the oracle) run only once validation has passed."""

    chains: MappingProxyType[str, tuple[int, ...]]
    forbidden: tuple[tuple[int, str, int], ...]
    origins: tuple[tuple[str, int, tuple[str, ...]], ...]
    capacity: tuple[tuple[int, tuple[str, ...], int, str], ...]


def validation_plan(arch: Architecture,
                    keep_overrides: dict[int, tuple[str, ...]],
                    key: tuple | None = None) -> ValidationPlan:
    """The ValidationPlan of the architecture under the keep overrides,
    kept on the architecture per override set; `key` is their
    override_key, when the caller holds it (Mapping.keep_key). Building it
    raises MappingError FactorMismatch unless each override names a level
    and drops tensors it keeps, never adds one, and then (naming the
    tensor) unless some storage level keeps each tensor. An override set
    that fails raises on every call, as nothing is kept for it."""

    def build():
        for i, ov in keep_overrides.items():
            if not 0 <= i < len(arch.levels):
                raise MappingError("FactorMismatch",
                                   f"keep override for level {i}; the "
                                   f"architecture has {len(arch.levels)} "
                                   "levels")
            if not set(ov) <= set(arch.levels[i].keeps):
                raise MappingError("FactorMismatch",
                                   f"keep override at {arch.levels[i].name!r} "
                                   "adds tensors the level does not hold",
                                   level=arch.levels[i].name)
        capacity = tuple(
            (i, tuple(dict.fromkeys(keep_overrides.get(i, lv.keeps))),
             lv.component.capacity_bits, lv.name)
            for i, lv in enumerate(arch.levels[:-1])
            if keep_overrides.get(i, lv.keeps))
        chains = MappingProxyType({t: tuple(i for i, keeps, _, _ in capacity
                                            if t in keeps)
                                   for t in TENSORS})
        forbidden = []
        for t in TENSORS:
            if not chains[t]:
                raise MappingError("FactorMismatch",
                                   f"no level keeps tensor {t}", tensor=t)
            for a, b in zip(chains[t], chains[t][1:]):
                for k in range(a + 1, b + 1):
                    if (arch.crosses(k)
                            and (k, t, DOWN) not in arch.edge_converters):
                        forbidden.append((b, t, k))
                        break
        return ValidationPlan(
            chains, tuple(forbidden),
            origins=tuple((t, chains[t][0],
                           tuple(d for d in DIMS if d in TENSOR_DIMS[t]))
                          for t in TENSORS if chains[t][0] > 0),
            capacity=capacity)

    if key is None:
        key = override_key(keep_overrides)
    return arch.derived(("validation_plan", key), build)


def validate_mapping(mapping: Mapping, layer: Layer, arch: Architecture
                     ) -> dict[tuple[int, str], int]:
    """Raise MappingError unless the mapping is valid for (layer, arch).

    Checks, in this order: the level count and batch size; every factor
    and loop order (LoopNest.of, run by reading mapping.nest); factor
    coverage per dim (exact in strict mode, >= bound in pad mode);
    per-level fanout budgets; the keep overrides (validation_plan); that
    no tensor's dims factor outside its origin keeper; storage capacity
    against kept-tile footprints; and, last, that no refetch-forbidden
    keeper's tile (ValidationPlan.forbidden) is evicted and brought back.

    Returns the footprints the capacity check computed: the tile_values
    of each (level, tensor) of the plan's capacity rows, the backing
    store's at the padded extents, every other level's at its tile. The
    counting reads them (reuse.tally) instead of computing them again.
    """

    levels = mapping.levels
    if len(levels) != len(arch.levels):
        raise MappingError("FactorMismatch",
                           f"mapping has {len(levels)} levels, "
                           f"architecture has {len(arch.levels)}")
    batch = mapping.batch_size
    if type(batch) is not int or batch < 1:
        raise MappingError("FactorMismatch",
                           f"batch_size {batch!r} not a positive integer")
    try:
        nest = mapping.nest
    except MappingError as err:
        if err.level is not None:  # an unknown dim's level, by index
            err.level = arch.levels[err.level].name
        raise

    bounds = effective_bounds(layer, batch)
    padded = nest.padded
    if mapping.pad:
        for d in DIMS:
            if padded[d] < bounds[d]:
                raise MappingError(
                    "FactorMismatch",
                    f"dim {d}: factors cover {padded[d]} < bound {bounds[d]}",
                    dim=d)
    elif padded != bounds:
        for d in DIMS:
            if padded[d] != bounds[d]:
                raise MappingError(
                    "FactorMismatch",
                    f"dim {d}: factors cover {padded[d]}, bound is "
                    f"{bounds[d]}", dim=d)

    for s, lv in zip(nest.spatial, arch.levels):
        if s > lv.fanout:
            raise MappingError("FanoutExceeded",
                               f"level {lv.name!r} maps {s} spatial copies, "
                               f"fanout is {lv.fanout}", level=lv.name)

    plan = validation_plan(arch, mapping.keep_overrides, mapping.keep_key)

    # A tensor whose outermost keeper is not the backing store (a fused
    # intermediate living in a buffer) has nowhere above to stage from:
    # its dims may not factor above the origin, nor split spatially into
    # it. The origin's own temporal loops stay legal; they walk the tensor
    # in place.
    tiles = nest.tiles
    for t, origin, dims in plan.origins:
        temporal, tile = levels[origin].temporal, tiles[origin]
        for d in dims:
            if padded[d] != temporal.get(d, 1) * tile[d]:
                raise MappingError(
                    "FactorMismatch",
                    f"tensor {t} originates at level {origin} but dim {d} "
                    "has factors outside it",
                    dim=d, tensor=t, level=arch.levels[origin].name)

    # The backing store holds whole tensors, its own loops included.
    bits = layer.bits
    footprints = {}
    for i, keeps, capacity, name in plan.capacity:
        tile = padded if i == 0 else tiles[i]
        total = 0
        for t in keeps:
            values = footprints[i, t] = tile_values(layer, tile, t)
            total += values * bits[t]
        if total > capacity:
            sizes = kept_bits(layer, tile, keeps)
            worst = max(sizes, key=lambda t: (sizes[t], t))
            raise MappingError(
                "CapacityExceeded",
                f"level {name!r} needs {total} bits for {sorted(keeps)}, "
                f"capacity is {capacity}", level=name, tensor=worst)

    # A keeper's tile returns after eviction exactly when, among the loops
    # at or above it, a loop over another dim runs outside a loop over one
    # of the tensor's dims: that loop revisits tiles already drained.
    for b, t, k in plan.forbidden:
        dims = TENSOR_DIMS[t]
        other = False
        for j, d, _ in nest.loops:
            if j > b:
                break
            if d not in dims:
                other = True
            elif other:
                name = arch.levels[k].name
                raise MappingError("ConverterMissing",
                                   f"{t} refetched into level {name!r} "
                                   "with no descending converter",
                                   tensor=t, level=name)
    return footprints


# ============================================================================
# Document parsing
# ============================================================================


@dataclass
class Spec:
    """Everything a document tree yielded."""

    library: dict[str, ComponentSpec] = field(default_factory=dict)
    architecture: Architecture | None = None
    workload: Workload | None = None


REQUIRED = object()


class FieldType(NamedTuple):
    """How a document value is read: `read(value, path)` returns the value
    to keep or raises SpecError("MalformedDocument", path), skipped for a
    value of exactly type `exact`. A `table` keeps its fields in `fields`."""

    exact: type | None
    read: Callable[[object, str], object]
    fields: dict | None = None


def _fail(path: str, what: str, v) -> NoReturn:
    raise SpecError("MalformedDocument", path, f"must be {what}, got {v!r}")


def _read_int(v, path: str) -> int:
    if type(v) is int or (type(v) is float and v.is_integer()):
        return int(v)
    _fail(path, "an integer", v)


def _read_number(v, path: str) -> float:
    if type(v) in (int, float):
        try:
            x = float(v)
        except OverflowError:  # an integer beyond every float
            x = math.inf
        if math.isfinite(x):
            return x
    _fail(path, "a finite number", v)


def _only(exact: type, what: str) -> FieldType:
    return FieldType(exact, lambda v, path:
                     v if isinstance(v, exact) else _fail(path, what, v))


INT = FieldType(int, _read_int)  # an integral float reads as an int
NUMBER = FieldType(None, _read_number)
BOOL = _only(bool, "true or false")
STR = _only(str, "a string")
OBJECT = _only(dict, "an object")  # contents read by its own parser
LIST = _only(list, "a list")  # entries left to validation
ANY = FieldType(None, lambda v, path: v)  # checked by whoever reads it


def list_of(kind: FieldType, nonempty: bool = False) -> FieldType:
    """A list of `kind` values, read as a tuple."""

    def read(v, path):
        if not isinstance(v, (list, tuple)) or (nonempty and not v):
            _fail(path, "a non-empty list" if nonempty else "a list", v)
        return tuple([x if type(x) is kind.exact else kind.read(x, f"{path}[{i}]")
                      for i, x in enumerate(v)])
    return FieldType(None, read)


def map_of(kind: FieldType) -> FieldType:
    """An object whose every field is a `kind` value."""

    def read(v, path):
        if not isinstance(v, dict):
            _fail(path, "an object", v)
        return {k: x if type(x) is kind.exact else kind.read(x, f"{path}.{k}")
                for k, x in v.items()}
    return FieldType(None, read)


def table(fields: dict[str, tuple[FieldType, object]]) -> FieldType:
    """The type of a document object: `fields` maps each name to
    (FieldType, default), REQUIRED for none, and the object reads as a dict
    of every field's value. An unknown or missing field is an error at the
    object's path, a wrong-typed value one at its own."""

    defaults = {k: d for k, (_, d) in fields.items() if d is not REQUIRED}

    def read(doc, path):
        if not isinstance(doc, dict):
            _fail(path, "an object", doc)
        out = defaults.copy()
        for k, v in doc.items():
            if k not in fields:
                raise SpecError("MalformedDocument", path, "unknown fields "
                                f"{sorted(doc.keys() - fields.keys())}")
            kind = fields[k][0]
            out[k] = v if type(v) is kind.exact else kind.read(v, f"{path}.{k}")
        if len(out) < len(fields):
            raise SpecError("MalformedDocument", path, "missing field "
                            f"{next(k for k in fields if k not in out)!r}")
        return out
    return FieldType(None, read, fields)


_STRS, _OBJECTS, _INTS = list_of(STR), list_of(OBJECT), list_of(INT)
# The field type of each annotation a dataclass read from a document uses.
_ANNOTATED = {int: INT, float: NUMBER, bool: BOOL, str: STR,
              str | None: _only(str | None, "a string or null"),
              tuple[int, ...]: _INTS}


def dataclass_table(cls) -> FieldType:
    """The table of a dataclass: its fields, typed by their annotations,
    with their defaults."""

    hints = get_type_hints(cls)
    return table({f.name: (_ANNOTATED[hints[f.name]],
                           REQUIRED if f.default is MISSING else f.default)
                  for f in dataclass_fields(cls)})


_COMPONENT = table({
    "name": (STR, REQUIRED), "class": (STR, REQUIRED), "domain": (STR, None),
    "domain_in": (STR, None), "domain_out": (STR, None),
    "energy_per_action": (map_of(NUMBER), {}), "static_power_mw": (NUMBER, 0.0),
    "area_um2": (NUMBER, 0.0), "capacity_bits": (INT, 0),
    "width_bits": (INT, 8), "bandwidth": (NUMBER, 1.0)})
# What a level, converter or extra entry may state to refine its part;
# energy_scale multiplies the part's action energies only.
_REFINEMENT = {"capacity_bits": (INT, None), "bandwidth": (NUMBER, None),
               "energy_scale": (NUMBER, None)}
_LEVEL = table({"name": (STR, REQUIRED), "component": (STR, REQUIRED),
                "fanout": (INT, 1), "keeps": (_STRS, ()),
                "stencil": (map_of(INT), {}), **_REFINEMENT})
_MESH = table({"between": (_STRS, REQUIRED), "may_multicast": (BOOL, False),
               "may_reduce": (BOOL, False)})
_CONVERTER = table({"name": (STR, None), "component": (STR, REQUIRED),
                    "between": (_STRS, REQUIRED), "tensors": (_STRS, REQUIRED),
                    "instances": (INT, 1), **_REFINEMENT})
_EXTRA = table({"name": (STR, None), "component": (STR, REQUIRED),
                "instances": (INT, 1), **_REFINEMENT})
_ARCHITECTURE = table({
    "name": (STR, "architecture"), "clock_ghz": (NUMBER, 1.0),
    "levels": (list_of(_LEVEL, nonempty=True), REQUIRED),
    "meshes": (list_of(_MESH), ()), "converters": (list_of(_CONVERTER), ()),
    "extras": (list_of(_EXTRA), ())})
_BITS = table(dict.fromkeys(TENSORS, (INT, 8)))


def _read_stride(v, path: str) -> tuple[int, ...]:
    if not isinstance(v, list):
        return (_read_int(v, path),) * 2
    if len(v) != 2:
        _fail(path, "an integer or [vertical, horizontal]", v)
    return _INTS.read(v, path)


def _read_bits(v, path: str) -> dict[str, int]:
    if isinstance(v, dict):
        return _BITS.read(v, path)
    return dict.fromkeys(TENSORS, _read_int(v, path))


_LAYER = table({
    "name": (STR, REQUIRED), "kind": (STR, "conv"),
    "dims": (map_of(INT), REQUIRED),
    "stride": (FieldType(None, _read_stride), (1, 1)),
    "bits": (FieldType(None, _read_bits), dict.fromkeys(TENSORS, 8))})
_WORKLOAD = table({"name": (STR, "workload"),
                   "layers": (list_of(OBJECT, nonempty=True), REQUIRED)})
_SPEC = table({
    "spec_version": (INT, None), "components": (_OBJECTS, ()),
    "use_builtin_components": (ANY, None), "architecture": (OBJECT, None),
    "workload": (OBJECT, None),
    "include": (FieldType(None, lambda v, path: _fail(
        path, "resolved before parsing (load_document)", v)), None)})
_LEVEL_MAPPING = table({"level": (STR, REQUIRED), "temporal": (OBJECT, {}),
                        "spatial": (OBJECT, {}), "permutation": (LIST, ())})
_MAPPING = table({"levels": (list_of(_LEVEL_MAPPING), REQUIRED),
                  "batch_size": (INT, 1), "pad": (BOOL, False),
                  "keep_overrides": (map_of(_STRS), {})})
_MAPPING_DOC = table({"spec_version": (INT, None), "mapping": (OBJECT, REQUIRED)})
# The published per-component energies of workloads.load_reference_breakdown.
REFERENCE_BREAKDOWN = table({
    "breakdown": (map_of(NUMBER), REQUIRED), "spec_version": (INT, None),
    **dict.fromkeys(("accelerator", "profile", "units", "workload"),
                    (STR, None))})


def check_spec_version(version, path: str) -> None:
    """Raise SpecError at `path` unless a document's spec_version, as its
    table read it, is SPEC_VERSION."""

    if version != SPEC_VERSION:
        raise SpecError("MalformedDocument", path, "expected "
                        f"spec_version {SPEC_VERSION}, got {version!r}")


def parse_component(doc: dict, path: str) -> ComponentSpec:
    doc = _COMPONENT.read(doc, path)
    domain = doc.pop("domain")
    if domain is not None:
        doc["domain_in"] = doc["domain_out"] = domain
    doc["energy_per_action"] = dict(doc["energy_per_action"])  # not the default
    comp = ComponentSpec(cls=doc.pop("class"), **doc)
    _validate_component(comp, path)
    return comp


def _resolve_component(entry: dict, library: dict[str, ComponentSpec],
                       path: str) -> dict:
    """The component and refinement of the use `entry` states: the library
    part it names, refined by the _REFINEMENT fields it states."""

    name = entry["component"]
    if name not in library:
        raise SpecError("UnknownComponent", path, f"component {name!r} not defined")
    comp = library[name]
    stated = {k: entry[k] for k in _REFINEMENT if entry[k] is not None}
    if stated:
        fields = dict(stated)
        scale = fields.pop("energy_scale", 1.0)
        if scale <= 0:
            _fail(f"{path}.energy_scale", "positive", scale)
        comp = replace(comp, **fields, energy_per_action={
            a: e * scale for a, e in comp.energy_per_action.items()})
        _validate_component(comp, path)
    return {"component": comp, "refinement": stated}


def _read_stencil(ld: dict, i: int, path: str) -> tuple[tuple[str, int], ...]:
    """Level `ld`'s stencil as (dim, width) pairs in DIMS order: known dims,
    positive widths, no more lanes than the level's fanout, and none on the
    outermost level, which has no lanes."""

    widths = ld["stencil"]
    for d, w in widths.items():
        if d not in DIMS:
            raise SpecError("MalformedDocument", f"{path}.{d}",
                            f"unknown dim {d!r}")
        if w < 1:
            raise SpecError("BadBound", f"{path}.{d}", "width must be >= 1")
    if i == 0 and widths:
        raise SpecError("BadBound", path, "the outermost level has no lanes")
    lanes = math.prod(widths.values())
    if lanes > ld["fanout"]:
        raise SpecError("BadBound", path, f"stencil needs {lanes} lanes, "
                        f"fanout is {ld['fanout']}")
    return tuple((d, widths[d]) for d in DIMS if d in widths)


def parse_architecture(doc: dict, library: dict[str, ComponentSpec]) -> Architecture:
    path = "architecture"
    doc = _ARCHITECTURE.read(doc, path)
    levels = tuple(Level(
        ld["name"], **_resolve_component(ld, library, f"{path}.levels[{i}]"),
        fanout=ld["fanout"], keeps=ld["keeps"],
        stencil=_read_stencil(ld, i, f"{path}.levels[{i}].stencil"))
        for i, ld in enumerate(doc["levels"]))
    by_name = {lv.name: i for i, lv in enumerate(levels)}

    def edge_of(pair, epath) -> int:
        if len(pair) != 2:
            raise SpecError("MalformedDocument", epath, "between must be [outer, inner]")
        a, b = pair
        if a not in by_name or b not in by_name:
            raise SpecError("MalformedDocument", epath, f"unknown level in {list(pair)!r}")
        if by_name[b] != by_name[a] + 1:
            raise SpecError("MalformedDocument", epath,
                            f"{a!r} and {b!r} are not adjacent outer->inner")
        return by_name[b]

    meshes: list[Mesh | None] = [None] * (len(levels) - 1)
    for j, md in enumerate(doc["meshes"]):
        e = edge_of(md["between"], f"{path}.meshes[{j}]")
        if meshes[e - 1] is not None:
            raise SpecError("MalformedDocument", f"{path}.meshes[{j}]",
                            f"a second mesh into {levels[e].name!r}")
        meshes[e - 1] = Mesh(md["may_multicast"], md["may_reduce"])

    converters = []
    for j, cd in enumerate(doc["converters"]):
        cpath = f"{path}.converters[{j}]"
        use = _resolve_component(cd, library, cpath)
        edge = edge_of(cd["between"], cpath)
        name = (f"{use['component'].name}@{levels[edge].name}"
                if cd["name"] is None else cd["name"])
        converters.append(Converter(name, edge=edge, tensors=cd["tensors"],
                                    instances=cd["instances"], **use))
    cnames = [c.name for c in converters]
    if len(set(cnames)) != len(cnames):
        raise SpecError("MalformedDocument", f"{path}.converters",
                        "duplicate converter names")

    extras = []
    for j, ed in enumerate(doc["extras"]):
        use = _resolve_component(ed, library, f"{path}.extras[{j}]")
        name = use["component"].name if ed["name"] is None else ed["name"]
        extras.append(Extra(name, instances=ed["instances"], **use))
    enames = [x.name for x in extras]
    if len(set(enames)) != len(enames):
        raise SpecError("MalformedDocument", f"{path}.extras",
                        "duplicate extra names")

    arch = Architecture(doc["name"], doc["clock_ghz"], levels,
                        tuple(m or Mesh() for m in meshes),
                        tuple(converters), tuple(extras))
    validate_architecture(arch)
    return arch


def parse_layer(doc: dict, path: str) -> Layer:
    doc = _LAYER.read(doc, path)
    for d in DIMS:
        doc["dims"].setdefault(d, 1)
    doc["bits"] = dict(doc["bits"])  # not the default
    layer = Layer(**doc)
    validate_layer(layer, path)
    return layer


def parse_workload(doc: dict) -> Workload:
    path = "workload"
    doc = _WORKLOAD.read(doc, path)
    parsed = tuple(parse_layer(ld, f"{path}.layers[{i}]")
                   for i, ld in enumerate(doc["layers"]))
    names = [l.name for l in parsed]
    if len(set(names)) != len(names):
        raise SpecError("MalformedDocument", path, "duplicate layer names")
    return Workload(name=doc["name"], layers=parsed)


def parse_spec(doc: dict) -> Spec:
    """Parse a document tree into a Spec bundle. Every object of the tree
    is read through its field table (_SPEC names the top-level fields), so
    an unknown field or a wrong-typed value is an error that names it."""

    f = _SPEC.read(doc, "$")
    check_spec_version(f["spec_version"], "$.spec_version")

    spec = Spec()
    if "use_builtin_components" in doc:
        from . import components as _components

        profile = doc["use_builtin_components"]
        if not isinstance(profile, str) or profile not in _components.PROFILES:
            raise SpecError("UnknownComponent", "$.use_builtin_components",
                            f"unknown profile {profile!r}")
        spec.library.update(_components.builtin_components(profile))
    own: dict[str, ComponentSpec] = {}
    for i, cd in enumerate(f["components"]):
        comp = parse_component(cd, f"$.components[{i}]")
        if comp.name in own:
            raise SpecError("MalformedDocument", f"$.components[{i}]",
                            f"duplicate component {comp.name!r}")
        own[comp.name] = comp
    spec.library.update(own)
    if f["architecture"] is not None:
        spec.architecture = parse_architecture(f["architecture"], spec.library)
    if f["workload"] is not None:
        spec.workload = parse_workload(f["workload"])
    return spec


def read_json(text: str, path: str):
    """The JSON value of `text`, read from the file at `path`. Invalid JSON
    and a key repeated within one object, which JSON would let the last
    value win silently, raise MalformedDocument naming the file."""

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for k in keys if keys.count(k) > 1)
            raise SpecError("MalformedDocument", path, f"repeated key {key!r}")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise SpecError("MalformedDocument", path,
                        f"invalid JSON: {e}") from None


def load_document(path: str) -> dict:
    """Load a JSON spec file, resolving its include list (paths relative to
    the including file). Included components merge; duplicate names or
    duplicate architecture/workload sections are rejected. An error in a
    file's JSON (read_json), include or component list names the file."""

    import os

    def load(p: str, seen: tuple[str, ...]) -> dict:
        rp = os.path.realpath(p)
        if rp in seen:
            raise SpecError("MalformedDocument", p, "circular include")
        try:
            with open(p) as f:
                text = f.read()
        except OSError as e:
            raise SpecError("MalformedDocument", p, f"cannot read file: {e}") from None
        doc = OBJECT.read(read_json(text, p), p)
        incs = _STRS.read(doc.pop("include", ()), f"{p}:$.include")
        _OBJECTS.read(doc.get("components", ()), f"{p}:$.components")
        merged: dict = {}
        for inc in incs:
            sub = load(os.path.join(os.path.dirname(p), inc), seen + (rp,))
            _merge_documents(merged, sub, inc)
        _merge_documents(merged, doc, p)
        return merged

    return load(path, ())


def _merge_documents(base: dict, new: dict, path: str) -> None:
    for key, val in new.items():
        if key == "components":
            comps = base.setdefault("components", [])
            names = [c.get("name") for c in comps]  # hashable or not
            for c in val:
                if c.get("name") in names:
                    raise SpecError("MalformedDocument", path,
                                    f"duplicate component {c.get('name')!r}")
                comps.append(c)
        elif key in base and base[key] != val:
            raise SpecError("MalformedDocument", path,
                            f"conflicting {key!r} sections")
        else:
            base[key] = val


# ============================================================================
# Serialization
# ============================================================================


def serialize_component(c: ComponentSpec) -> dict:
    return {
        "name": c.name,
        "class": c.cls,
        "domain_in": c.domain_in,
        "domain_out": c.domain_out,
        "energy_per_action": {k: c.energy_per_action[k]
                              for k in sorted(c.energy_per_action)},
        "static_power_mw": c.static_power_mw,
        "area_um2": c.area_um2,
        "capacity_bits": c.capacity_bits,
        "width_bits": c.width_bits,
        "bandwidth": c.bandwidth,
    }


def serialize_architecture(a: Architecture) -> dict:
    def edge_pair(e: int) -> list[str]:
        return [a.levels[e - 1].name, a.levels[e].name]

    return {
        "name": a.name,
        "clock_ghz": a.clock_ghz,
        "levels": [
            {"name": lv.name, "component": lv.component.name,
             "fanout": lv.fanout, "keeps": list(lv.keeps),
             "stencil": dict(lv.stencil), **lv.refinement}
            for lv in a.levels
        ],
        "meshes": [
            {"between": edge_pair(e + 1),
             "may_multicast": m.may_multicast, "may_reduce": m.may_reduce}
            for e, m in enumerate(a.meshes)
        ],
        "converters": [
            {"name": c.name, "component": c.component.name,
             "between": edge_pair(c.edge), "tensors": list(c.tensors),
             "instances": c.instances, **c.refinement}
            for c in a.converters
        ],
        "extras": [
            {"name": x.name, "component": x.component.name,
             "instances": x.instances, **x.refinement}
            for x in a.extras
        ],
    }


def serialize_workload(w: Workload) -> dict:
    return {
        "name": w.name,
        "layers": [
            {"name": l.name, "kind": l.kind,
             "dims": {d: l.dims[d] for d in DIMS},
             "stride": list(l.stride),
             "bits": {t: l.bits[t] for t in TENSORS}}
            for l in w.layers
        ],
    }


def serialize_spec(spec: Spec) -> dict:
    doc: dict = {"spec_version": SPEC_VERSION}
    if spec.library:
        doc["components"] = [serialize_component(spec.library[n])
                             for n in sorted(spec.library)]
    if spec.architecture is not None:
        doc["architecture"] = serialize_architecture(spec.architecture)
    if spec.workload is not None:
        doc["workload"] = serialize_workload(spec.workload)
    return doc


def serialize_mapping(m: Mapping, arch: Architecture) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "mapping": {
            "levels": [
                {"level": arch.levels[i].name,
                 "temporal": {d: lm.t(d) for d in DIMS if lm.t(d) > 1},
                 "spatial": {d: lm.s(d) for d in DIMS if lm.s(d) > 1},
                 "permutation": list(lm.permutation)}
                for i, lm in enumerate(m.levels)
            ],
            "batch_size": m.batch_size,
            "pad": m.pad,
            "keep_overrides": {str(i): sorted(ov)
                               for i, ov in sorted(m.keep_overrides.items())},
        },
    }


# The fields of each object of a mapping document, and the empty values a
# plain one may leave out, read and never written to.
_DOC_FIELDS = frozenset(_MAPPING_DOC.fields)
_BODY_FIELDS = frozenset(_MAPPING.fields)
_LEVEL_FIELDS = frozenset(_LEVEL_MAPPING.fields)
_EMPTY_OBJECT: dict = {}
_EMPTY_LIST: list = []


def parse_mapping(doc: dict, arch: Architecture) -> Mapping:
    """Read a mapping document (or its bare body) for `arch`. Factor values
    and permutation entries are left to validate_mapping.

    A plain document, whose every object holds only fields of its table,
    each of exactly the type the table keeps as it is, is read here in one
    pass. Any other goes to the field tables (_read_mapping), which convert
    what they accept (an integral float batch_size) and raise every error,
    so the tables alone define a mapping document and its messages."""

    if type(doc) is not dict:
        return _read_mapping(doc, arch)
    body = doc
    if "mapping" in doc:
        version = doc.get("spec_version", SPEC_VERSION)
        body = doc["mapping"]
        if (type(version) is not int or version != SPEC_VERSION
                or type(body) is not dict or not doc.keys() <= _DOC_FIELDS):
            return _read_mapping(doc, arch)
    levels = body.get("levels")
    batch = body.get("batch_size", 1)
    pad = body.get("pad", False)
    overrides = body.get("keep_overrides", _EMPTY_OBJECT)
    if (type(levels) is not list or type(batch) is not int
            or type(pad) is not bool or type(overrides) is not dict
            or not body.keys() <= _BODY_FIELDS):
        return _read_mapping(doc, arch)
    index, level_keys = _mapping_reader(arch)
    lms: list[LevelMapping | None] = [None] * len(arch.levels)
    for ld in levels:
        if type(ld) is not dict:
            return _read_mapping(doc, arch)
        name = ld.get("level")
        t = ld.get("temporal", _EMPTY_OBJECT)
        s = ld.get("spatial", _EMPTY_OBJECT)
        perm = ld.get("permutation", _EMPTY_LIST)
        if (type(name) is not str or type(t) is not dict
                or type(s) is not dict or type(perm) is not list
                or not ld.keys() <= _LEVEL_FIELDS):
            return _read_mapping(doc, arch)
        i = index.get(name)
        if i is None or lms[i] is not None:
            return _read_mapping(doc, arch)
        lms[i] = LevelMapping(dict(t), dict(s), tuple(perm))
    kept = {}
    for k, v in overrides.items():
        i = level_keys.get(k)
        if i is None or type(v) is not list:
            return _read_mapping(doc, arch)
        for x in v:
            if type(x) is not str:
                return _read_mapping(doc, arch)
        kept[i] = tuple(sorted(v))
    return Mapping(tuple([LevelMapping() if lm is None else lm
                          for lm in lms]), batch, kept, pad)


def _mapping_reader(arch: Architecture) -> tuple[dict[str, int],
                                                 dict[str, int]]:
    """Each level's index by its name and by its keep_overrides key (the
    canonical form, str(index)), kept on the architecture."""

    return arch.derived(("mapping_reader",), lambda: (
        {lv.name: i for i, lv in enumerate(arch.levels)},
        {str(i): i for i in range(len(arch.levels))}))


def _read_mapping(doc: dict, arch: Architecture) -> Mapping:
    """parse_mapping through the field tables."""

    if not isinstance(doc, dict):
        _fail("$", "an object", doc)
    path = "mapping"
    if "mapping" in doc:
        f = _MAPPING_DOC.read(doc, "$")
        if f["spec_version"] is not None:  # the bare body states none
            check_spec_version(f["spec_version"], "$.spec_version")
        doc = f["mapping"]
    body = _MAPPING.read(doc, path)
    by_name = _mapping_reader(arch)[0]
    lms: list[LevelMapping | None] = [None] * len(arch.levels)
    for j, ld in enumerate(body["levels"]):
        name = ld["level"]
        if name not in by_name:
            raise SpecError("MalformedDocument", f"{path}.levels[{j}]",
                            f"unknown level {name!r}")
        i = by_name[name]
        if lms[i] is not None:
            raise SpecError("MalformedDocument", f"{path}.levels[{j}]",
                            f"level {name!r} is mapped twice")
        lms[i] = LevelMapping(temporal=dict(ld["temporal"]),
                              spatial=dict(ld["spatial"]),
                              permutation=tuple(ld["permutation"]))
    overrides = {}
    for k, v in body["keep_overrides"].items():
        # Only the canonical form: "01", "+1", " 1" or "１" would name
        # level 1 as well, and one entry would replace another.
        try:
            i = int(k) if k.isascii() and k.isdigit() else None
        except ValueError:  # more digits than int() reads
            i = None
        if i is None or k != str(i):
            raise SpecError("MalformedDocument", f"{path}.keep_overrides.{k}",
                            "must be keyed by a level index")
        overrides[i] = tuple(sorted(v))
    levels = tuple(LevelMapping() if lm is None else lm for lm in lms)
    return Mapping(levels, body["batch_size"], overrides, body["pad"])


def canonical_json(doc: dict) -> str:
    """Stable serialized form: sorted keys, fixed separators, trailing newline."""

    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
