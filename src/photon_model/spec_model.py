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
tile bounds, spatial copies, instance counts, step count and loops, the
one reading of its permutations; built in one pass that checks every
factor, cached as Mapping.nest), the tile footprint (tile_values), the
capacity demand (demand) and the largest extent of a dim that meets it
(largest_extent), what each storage level keeps under a keep-override
set and the keeper chains read from that keep table (validation_plan),
the spatial dims a mesh merges (merge_dims) and the spatial pins a
level's stencil puts on a search (stencil_pins). It owns the count containers every counting engine
returns (AccessCounts, LevelCounts) too. Tables derived from an
architecture, and the mapper's search results, are kept on the instance
(Architecture.derived). So has a valid mapping: validate_mapping, the
refetch rule included (leads, which the search's loop orders apply too),
so the counting engines never reject a mapping it accepted. What it reads
from the architecture and the keep overrides is planned once per override
set (validation_plan).

Documents are read through field tables (table): each object's fields,
their types and defaults, and the error a wrong one gets. Bounds and
cross-field rules are the types': an Architecture, a Layer, a Workload and
each config is valid by construction (__post_init__), so readers only read.
A mapping document, read once per design point, becomes a Mapping through
one assembly (_assemble) that the tables feed. parse_mapping hands it a
plain document, whose objects hold only their tables' fields, each a value
the table keeps as it stands, as it is; any other goes through the tables
first, which convert it or raise. The level index the assembly looks names
up in is kept per architecture (Architecture.derived), and a mapping's
override key is made once (Mapping.keep_key) for the lookups of both its
validation and its count plan.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields, replace
from itertools import accumulate, chain
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, NoReturn, TypeVar, get_type_hints

T = TypeVar("T")

SPEC_VERSION = 1

DOMAINS = ("DE", "AE", "DO", "AO")
# The actions each class of part is charged for (evaluator.PriceProgram).
ACTIONS = {"storage": ("read", "write", "update"), "converter": ("convert",),
           "compute": ("compute",), "network": (), "source": ()}

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
    lanes are wired for, such as a photonic array's fixed sharing axes, at
    most fanout lanes and never at the outermost level. It constrains the
    search only (stencil_pins); a mapping is validated and counted without
    it. component is the library part as the level's entry refines it, and
    refinement is what that entry stated (_REFINEMENT)."""

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
    """Valid by construction: __post_init__ runs validate_architecture,
    so a parsed, hand-built or replace-edited instance meets every rule."""

    name: str
    clock_ghz: float
    levels: tuple[Level, ...]
    meshes: tuple[Mesh, ...]          # meshes[i] sits between levels[i] and levels[i+1]
    converters: tuple[Converter, ...]
    extras: tuple[Extra, ...] = ()

    def __post_init__(self):
        validate_architecture(self)

    def mesh_into(self, inner: int) -> Mesh:
        return self.meshes[inner - 1]

    def crosses(self, edge: int) -> bool:
        """Whether the edge into levels[edge] changes signal domain."""

        return (self.levels[edge - 1].component.domain_out
                != self.levels[edge].component.domain_in)

    @_lazy
    def edge_converters(self) -> dict[tuple[int, str, str], Converter]:
        """The converter carrying each (edge, tensor, DOWN|UP): the one
        definition of which bank a tensor crosses an edge through. Each key
        has one bank, whose domains fit its edge (validate_architecture)."""

        return {(cv.edge, t, _converter_direction(self.levels, cv)): cv
                for cv in self.converters for t in cv.tensors}

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
    layers have R=S=P=Q=1. Valid by construction (validate_layer)."""

    name: str
    kind: str                      # "conv" | "fully_connected"
    dims: dict[str, int]
    stride: tuple[int, int] = (1, 1)       # (stride_p, stride_q)
    bits: dict[str, int] = field(default_factory=lambda: {t: 8 for t in TENSORS})

    def __post_init__(self):
        validate_layer(self)

    def macs(self) -> int:
        n = 1
        for d in DIMS:
            n *= self.dims[d]
        return n


@dataclass(frozen=True)
class Workload:
    """At least one layer, under distinct names, valid by construction
    (__post_init__)."""

    name: str
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise SpecError("MalformedDocument", f"workload[{self.name}]",
                            "needs at least one layer")
        if len({l.name for l in self.layers}) < len(self.layers):
            raise SpecError("MalformedDocument", f"workload[{self.name}]",
                            "duplicate layer names")


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
    permutation orders this level's temporal loops (see LoopNest.loops)."""

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
    """Canonical one-line form; equal digests mean equal schedules. It
    reads m.nest, so a malformed factor raises MappingError."""

    parts = []
    for i, lm in enumerate(m.levels):
        t = ",".join(f"{d}{lm.t(d)}" for d in DIMS if lm.t(d) > 1)
        s = ",".join(f"{d}{lm.s(d)}" for d in DIMS if lm.s(d) > 1)
        perm = "".join(d for j, d, _ in m.nest.loops if j == i)
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
    tile one level-i instance holds), except that tiles[0] is padded, as
    the backing store holds whole tensors, its own loops included;
    spatial[i] the spatial copies mapped at level i; instances[i] the
    mapped instances of level i (the product of spatial copies at or above
    it); steps the product of every temporal factor, each step issuing one
    MAC per active compute instance; loops the temporal loops with extent
    > 1, outermost first, as (level, dim, extent): per level, the dims its
    permutation names, in that order, then the rest in DIMS order, a unit
    factor making no loop. It is the package's one reading of a
    permutation; only the oracle reads one itself, to check it.

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
            if i:
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
            if t:  # the loop order, on the factors checked above
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


def tile_values(layer: Layer, tb: dict[str, int], tensor: str) -> int:
    """Values of one tensor covered by a tile with per-dim extents tb; an
    Inputs tile spans the window (P-1)*stride + R by (Q-1)*stride + S."""

    if tensor == WEIGHTS:
        return tb["K"] * tb["C"] * tb["R"] * tb["S"]
    if tensor == OUTPUTS:
        return tb["N"] * tb["K"] * tb["P"] * tb["Q"]
    sh, sw = layer.stride
    return (tb["N"] * tb["C"] * ((tb["P"] - 1) * sh + tb["R"])
            * ((tb["Q"] - 1) * sw + tb["S"]))


def demand(layer: Layer, tb: dict[str, int], keeps: tuple[str, ...]) -> int:
    """Bits the kept tensors' tiles occupy at a level whose tile has
    per-dim extents tb: the capacity demand of that level."""

    bits, total = layer.bits, 0
    for t in keeps:
        total += tile_values(layer, tb, t) * bits[t]
    return total


def largest_extent(layer: Layer, tb: dict[str, int], keeps: tuple[str, ...],
                   capacity: int, d: str) -> float:
    """The largest extent of dim d whose demand fits `capacity` bits with
    every other dim at its extent in tb: math.inf if every extent fits, 0
    if none does. Each tensor's tile_values is affine in any one dim's
    extent, the Inputs halo included, so the demands at extents 1 and 2
    give the demand a + b*e exactly."""

    one = demand(layer, {**tb, d: 1}, keeps)
    slope = demand(layer, {**tb, d: 2}, keeps) - one
    if slope:
        return 1 + (capacity - one) // slope
    return math.inf if one <= capacity else 0


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
    if c.cls not in ACTIONS:
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
        if a not in ACTIONS[c.cls]:
            raise SpecError("MalformedDocument", path,
                            f"a {c.cls} part is never charged for {a!r}")
        if not 0 <= e < math.inf:
            raise SpecError("BadBound", f"{path}.energy_per_action.{a}",
                            f"energy must be finite and >= 0, got {e!r}")
    for name in ("static_power_mw", "area_um2"):
        if not 0 <= getattr(c, name) < math.inf:
            raise SpecError("BadBound", f"{path}.{name}", "must be finite "
                            f"and >= 0, got {getattr(c, name)!r}")
    if type(c.capacity_bits) is not int or (c.cls == "storage"
                                            and c.capacity_bits <= 0):
        raise SpecError("CapacityNonPositive", path,
                        f"component {c.name!r} needs an integer capacity_bits"
                        ", > 0 for storage")
    if (type(c.width_bits) is not int or c.width_bits <= 0
            or not 0 < c.bandwidth < math.inf):
        raise SpecError("MalformedDocument", path, "width_bits must be a "
                        "positive integer and bandwidth positive and finite")


def _converter_direction(arch_levels: tuple[Level, ...],
                         cv: Converter) -> str | None:
    """DOWN (outer -> inner), UP (inner -> outer), or None if neither."""

    outer = arch_levels[cv.edge - 1].component.domain_out
    inner = arch_levels[cv.edge].component.domain_in
    if cv.component.domain_in == outer and cv.component.domain_out == inner:
        return DOWN
    if cv.component.domain_in == inner and cv.component.domain_out == outer:
        return UP
    return None


def _check_tensors(tensors: tuple[str, ...], path: str) -> None:
    """Each of a level's kept or a converter's carried tensors is known
    and named once."""

    bad = set(tensors) - set(TENSORS)
    if bad:
        raise SpecError("MalformedDocument", path, f"unknown tensors {sorted(bad)}")
    for i, t in enumerate(tensors):
        if t in tensors[:i]:
            raise SpecError("MalformedDocument", path, f"tensor {t!r} repeats")


def validate_architecture(arch: Architecture) -> None:
    """Raise SpecError at an object path (architecture[<name>]...) unless
    `arch` meets every rule an Architecture must, its parts included, as
    Architecture.__post_init__ asks of every instance."""

    path = f"architecture[{arch.name}]"
    if len(arch.levels) < 2:
        raise SpecError("MalformedDocument", path, "need at least storage + compute")
    if len({lv.name for lv in arch.levels}) < len(arch.levels):
        raise SpecError("MalformedDocument", path, "duplicate level names")
    if not 0 < arch.clock_ghz < math.inf:
        raise SpecError("MalformedDocument", path, "clock_ghz must be finite, > 0")
    for i, lv in enumerate(arch.levels):
        lpath = f"{path}.levels[{i}]"
        _validate_component(lv.component, lpath)
        want = "compute" if i == len(arch.levels) - 1 else "storage"
        if lv.component.cls != want:
            raise SpecError("MalformedDocument", lpath,
                            f"level {lv.name!r} must use a {want} component")
        if type(lv.fanout) is not int or lv.fanout < 1:
            raise SpecError("BadBound", lpath, "fanout must be an integer >= 1")
        if i == 0 and lv.fanout != 1:
            raise SpecError("BadBound", lpath, "outermost level has no parent fanout")
        _check_tensors(lv.keeps, lpath)
        if want == "compute" and lv.keeps:
            raise SpecError("MalformedDocument", lpath, "compute level keeps nothing")
        for j, (d, w) in enumerate(lv.stencil):
            if d not in DIMS:
                raise SpecError("MalformedDocument", f"{lpath}.stencil.{d}",
                                f"unknown dim {d!r}")
            if any(d == e for e, _ in lv.stencil[:j]):
                raise SpecError("MalformedDocument", f"{lpath}.stencil.{d}",
                                f"dim {d!r} is named twice")
            if type(w) is not int or w < 1:
                raise SpecError("BadBound", f"{lpath}.stencil.{d}",
                                "width must be a positive integer")
        if i == 0 and lv.stencil:
            raise SpecError("BadBound", f"{lpath}.stencil",
                            "the outermost level has no lanes")
        if math.prod(w for _, w in lv.stencil) > lv.fanout:
            raise SpecError("BadBound", f"{lpath}.stencil",
                            f"stencil needs more lanes than fanout {lv.fanout}")
    if set(arch.levels[0].keeps) != set(TENSORS):
        raise SpecError("MalformedDocument", f"{path}.levels[0]",
                        "outermost level must keep all tensors")
    if len(arch.meshes) != len(arch.levels) - 1:
        raise SpecError("MalformedDocument", path,
                        "need exactly one mesh entry per adjacent-level edge")

    for group, parts in (("converters", arch.converters), ("extras", arch.extras)):
        if len({p.name for p in parts}) != len(parts):
            raise SpecError("MalformedDocument", f"{path}.{group}",
                            f"duplicate {group[:-1]} names")
        for p in parts:
            ppath = f"{path}.{group}[{p.name}]"
            _validate_component(p.component, ppath)
            if type(p.instances) is not int or p.instances < 1:
                raise SpecError("MalformedDocument", ppath,
                                "instances must be an integer >= 1")
    carried = set()
    for cv in arch.converters:
        cpath = f"{path}.converters[{cv.name}]"
        if type(cv.edge) is not int or not 1 <= cv.edge < len(arch.levels):
            raise SpecError("MalformedDocument", cpath, "edge not an int in range")
        if cv.component.cls != "converter":
            raise SpecError("MalformedDocument", cpath,
                            f"{cv.component.name!r} is not a converter component")
        _check_tensors(cv.tensors, cpath)
        dirn = _converter_direction(arch.levels, cv)
        if dirn is None:
            raise SpecError("MalformedDocument", cpath, "converter domains "
                            f"{cv.component.domain_in}/{cv.component.domain_out}"
                            f" fit edge {cv.edge} neither way")
        for t in cv.tensors:
            if (cv.edge, t, dirn) in carried:
                raise SpecError("MalformedDocument", cpath,
                                f"edge {cv.edge} already has a converter "
                                f"carrying {t} {dirn}")
            carried.add((cv.edge, t, dirn))

    # Every tensor travels across every edge (the hierarchy is a chain), so a
    # domain-changing edge needs converters for all three: DOWN ones for
    # Weights and Inputs, an UP one for Outputs.
    for e in range(1, len(arch.levels)):
        if not arch.crosses(e):
            continue
        outer = arch.levels[e - 1].component.domain_out
        inner = arch.levels[e].component.domain_in
        epath = f"{path}.edge[{arch.levels[e - 1].name}->{arch.levels[e].name}]"
        for t, dirn in ((WEIGHTS, DOWN), (INPUTS, DOWN), (OUTPUTS, UP)):
            if (e, t, dirn) not in carried:
                src, dst = (outer, inner) if dirn == DOWN else (inner, outer)
                raise SpecError("MissingConverter", epath,
                                f"no {src}->{dst} converter for {t}")


def validate_layer(layer: Layer) -> None:
    """Raise SpecError at layer[<name>] unless `layer` meets every rule a
    Layer must, as Layer.__post_init__ asks of every instance."""

    path = f"layer[{layer.name}]"
    if layer.kind not in ("conv", "fully_connected"):
        raise SpecError("MalformedDocument", path, f"unknown kind {layer.kind!r}")
    for name, values, keys in (("dims", layer.dims, DIMS),
                              ("bits", layer.bits, TENSORS)):
        if values.keys() != set(keys):
            raise SpecError("MalformedDocument", path,
                            f"{name} must name exactly {', '.join(keys)}")
        for k in keys:
            if type(values[k]) is not int or values[k] < 1:
                raise SpecError("BadBound", path,
                                f"{name}.{k} must be a positive integer")
    if type(layer.stride) is not tuple or len(layer.stride) != 2 or any(
            type(s) is not int or s < 1 for s in layer.stride):
        raise SpecError("BadBound", path, "stride must be two positive integers")
    window = all(layer.dims[d] == 1 for d in ("R", "S", "P", "Q"))
    if (layer.kind == "fully_connected") != window:
        raise SpecError("BadBound", path,
                        "fully_connected layers must have R=S=P=Q=1 and vice versa")


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


def leads(order: Iterable[str], dims: frozenset) -> bool:
    """The refetch rule: no dim of `dims` runs inside a dim outside them in
    `order`, outermost first. Else, among the loops at or above a
    refetch-forbidden keeper (ValidationPlan.forbidden), another dim's loop
    revisits the tensor's tiles it has drained."""

    other = False
    for d in order:
        if d not in dims:
            other = True
        elif other:
            return False
    return True


def validate_mapping(mapping: Mapping, layer: Layer, arch: Architecture
                     ) -> tuple[dict[tuple[int, str], int], int]:
    """Raise MappingError unless the mapping is valid for (layer, arch).

    Checks, in this order: the level count and batch size; every factor
    and loop order (LoopNest.of, run by reading mapping.nest); factor
    coverage per dim (exact in strict mode, >= bound in pad mode);
    per-level fanout budgets; the keep overrides (validation_plan); that
    no tensor's dims factor outside its origin keeper; storage capacity
    against kept-tile footprints; and, last, that the loops at or above
    each refetch-forbidden keeper (ValidationPlan.forbidden) lead (leads).

    Returns the footprints the capacity check computed, the tile_values
    of each (level, tensor) of the plan's capacity rows at the level's
    LoopNest tile, and the real MAC count, the product of the bounds. The
    counting reads both (reuse.count) instead of computing them again.
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

    bits = layer.bits
    footprints = {}
    for i, keeps, capacity, name in plan.capacity:
        tile = tiles[i]
        total = 0
        for t in keeps:
            values = footprints[i, t] = tile_values(layer, tile, t)
            total += values * bits[t]
        if total > capacity:
            worst = max(keeps, key=lambda t: (footprints[i, t] * bits[t], t))
            raise MappingError(
                "CapacityExceeded",
                f"level {name!r} needs {total} bits for {sorted(keeps)}, "
                f"capacity is {capacity}", level=name, tensor=worst)

    for b, t, k in plan.forbidden:
        if not leads((d for j, d, _ in nest.loops if j <= b), TENSOR_DIMS[t]):
            name = arch.levels[k].name
            raise MappingError("ConverterMissing",
                               f"{t} refetched into level {name!r} "
                               "with no descending converter",
                               tensor=t, level=name)
    return footprints, math.prod(bounds.values())


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


def list_of(kind: FieldType) -> FieldType:
    """A list of `kind` values, read as a tuple."""

    def read(v, path):
        if not isinstance(v, (list, tuple)):
            _fail(path, "a list", v)
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
    "levels": (list_of(_LEVEL), REQUIRED),
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
                   "layers": (_OBJECTS, REQUIRED)})
_SPEC = table({
    "spec_version": (INT, None), "components": (_OBJECTS, ()),
    "use_builtin_components": (ANY, None), "architecture": (OBJECT, None),
    "workload": (OBJECT, None),
    "include": (FieldType(None, lambda v, path: _fail(
        path, "resolved before parsing (load_document)", v)), None)})
# The empty values a mapping object may leave out, read and never written
# to; each is of the type its field keeps, so _assemble takes it as it stands.
_EMPTY_OBJECT: dict = {}
_EMPTY_LIST: list = []
_LEVEL_MAPPING = table({"level": (STR, REQUIRED),
                        "temporal": (OBJECT, _EMPTY_OBJECT),
                        "spatial": (OBJECT, _EMPTY_OBJECT),
                        "permutation": (LIST, _EMPTY_LIST)})
_MAPPING = table({"levels": (list_of(_LEVEL_MAPPING), REQUIRED),
                  "batch_size": (INT, 1), "pad": (BOOL, False),
                  "keep_overrides": (map_of(_STRS), _EMPTY_OBJECT)})
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
    ends = ("domain_in", "domain_out")
    if domain is not None:
        if any(doc[k] is not None for k in ends):
            raise SpecError("MalformedDocument", path, "state domain or "
                            "domain_in and domain_out, not both")
        doc["domain_in"] = doc["domain_out"] = domain
    for k in ends:
        if doc[k] is None:
            raise SpecError("MalformedDocument", path,
                            f"missing field 'domain' (or {k!r})")
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
    return {"component": comp, "refinement": stated}


def parse_architecture(doc: dict, library: dict[str, ComponentSpec]) -> Architecture:
    path = "architecture"
    doc = _ARCHITECTURE.read(doc, path)
    levels = tuple(Level(
        ld["name"], **_resolve_component(ld, library, f"{path}.levels[{i}]"),
        fanout=ld["fanout"], keeps=ld["keeps"],
        # In DIMS order; an unknown dim goes last, for validation to name.
        stencil=tuple(sorted(ld["stencil"].items(), key=lambda dw: DIMS.index(
            dw[0]) if dw[0] in DIMS else len(DIMS))))
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

    extras = []
    for j, ed in enumerate(doc["extras"]):
        use = _resolve_component(ed, library, f"{path}.extras[{j}]")
        name = use["component"].name if ed["name"] is None else ed["name"]
        extras.append(Extra(name, instances=ed["instances"], **use))
    return Architecture(doc["name"], doc["clock_ghz"], levels,
                        tuple(m or Mesh() for m in meshes),
                        tuple(converters), tuple(extras))


def parse_layer(doc: dict, path: str) -> Layer:
    doc = _LAYER.read(doc, path)
    for d in DIMS:
        doc["dims"].setdefault(d, 1)
    doc["bits"] = dict(doc["bits"])  # not the default
    return Layer(**doc)


def parse_workload(doc: dict) -> Workload:
    doc = _WORKLOAD.read(doc, "workload")
    return Workload(doc["name"], tuple(parse_layer(ld, f"workload.layers[{i}]")
                                       for i, ld in enumerate(doc["layers"])))


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


def read_json(path: str):
    """The JSON value of the UTF-8 file at `path`. A file that cannot be
    read or decoded, invalid JSON, and a key repeated within one object,
    which JSON would let the last value win silently, raise
    MalformedDocument naming the file."""

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for k in keys if keys.count(k) > 1)
            raise SpecError("MalformedDocument", path, f"repeated key {key!r}")
        return obj

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError("MalformedDocument", path,
                        f"cannot read file: {e}") from None
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise SpecError("MalformedDocument", path,
                        f"invalid JSON: {e}") from None


def load_document(path: str) -> dict:
    """Load a JSON spec file, resolving its include list (paths relative to
    the including file). Included components merge; duplicate names or
    duplicate architecture/workload sections are rejected. A file that
    cannot be read, or an error in its JSON (read_json), include or
    component list, names the file."""

    import os

    def load(p: str, seen: tuple[str, ...]) -> dict:
        rp = os.path.realpath(p)
        if rp in seen:
            raise SpecError("MalformedDocument", p, "circular include")
        doc = OBJECT.read(read_json(p), p)
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


# The fields of each object of a mapping document.
_DOC_FIELDS = frozenset(_MAPPING_DOC.fields)
_BODY_FIELDS = frozenset(_MAPPING.fields)
_LEVEL_FIELDS = frozenset(_LEVEL_MAPPING.fields)


def parse_mapping(doc: dict, arch: Architecture) -> Mapping:
    """Read a mapping document (or its bare body) for `arch`. Factor values
    and permutation entries are left to validate_mapping.

    A plain document, whose every object holds only fields of its table,
    each a value the table keeps as it stands, is assembled in one pass
    (_assemble). Any other is read through the field tables first, which
    convert what they accept (an integral float batch_size) and raise every
    field's error, so the tables alone define a mapping document's fields
    and their messages."""

    if not isinstance(doc, dict):
        _fail("$", "an object", doc)
    body = doc
    if "mapping" in doc:
        version = doc.get("spec_version", SPEC_VERSION)
        body = doc["mapping"]
        if (type(version) is not int or type(body) is not dict
                or not doc.keys() <= _DOC_FIELDS):
            f = _MAPPING_DOC.read(doc, "$")
            version, body = f["spec_version"], f["mapping"]
        if version is not None:  # the document states none
            check_spec_version(version, "$.spec_version")
    m = _assemble(body, arch)
    if m is None:
        m = _assemble(_MAPPING.read(body, "mapping"), arch)
        if m is None:
            raise AssertionError("_assemble refused what the tables read")
    return m


def _assemble(body: dict, arch: Architecture) -> Mapping | None:
    """The Mapping of a mapping body, or None at its first object that the
    field tables would not keep as it stands (_MAPPING.read returns no
    such object: each default is of its field's type). A level name or
    override key that `arch` does not know is raised only once the pass
    ends: the tables read every field before a name is looked up, so their
    error comes first."""

    levels = body.get("levels")
    batch = body.get("batch_size", 1)
    pad = body.get("pad", False)
    overrides = body.get("keep_overrides", _EMPTY_OBJECT)
    if (type(levels) is not list and type(levels) is not tuple
            or type(batch) is not int or type(pad) is not bool
            or not isinstance(overrides, dict)
            or not body.keys() <= _BODY_FIELDS):
        return None
    index = _level_index(arch)
    fault = None
    lms: list[LevelMapping | None] = [None] * len(arch.levels)
    for j, ld in enumerate(levels):
        if type(ld) is not dict:
            return None
        name = ld.get("level")
        t = ld.get("temporal", _EMPTY_OBJECT)
        s = ld.get("spatial", _EMPTY_OBJECT)
        perm = ld.get("permutation", _EMPTY_LIST)
        if (not isinstance(name, str) or not isinstance(t, dict)
                or not isinstance(s, dict) or not isinstance(perm, list)
                or not ld.keys() <= _LEVEL_FIELDS):
            return None
        i = index.get(name)
        if i is None:
            fault = fault or (f"levels[{j}]", f"unknown level {name!r}")
        elif lms[i] is not None:
            fault = fault or (f"levels[{j}]", f"level {name!r} is mapped twice")
        else:
            lms[i] = LevelMapping(dict(t), dict(s), tuple(perm))
    kept = {}
    for k, v in overrides.items():
        if not isinstance(v, (list, tuple)):
            return None
        for x in v:
            if not isinstance(x, str):
                return None
        # Only the canonical form: "01", "+1", " 1" or "１" would name
        # level 1 as well, and one entry would replace another.
        try:
            i = (int(k) if type(k) is str and k.isascii() and k.isdigit()
                 else None)
        except ValueError:  # more digits than int() reads
            i = None
        if i is None or k != str(i):
            fault = fault or (f"keep_overrides.{k}",
                              "must be keyed by a level index")
        else:
            kept[i] = tuple(sorted(v))
    if fault is not None:
        raise SpecError("MalformedDocument", f"mapping.{fault[0]}", fault[1])
    return Mapping(tuple([LevelMapping() if lm is None else lm
                          for lm in lms]), batch, kept, pad)


def _level_index(arch: Architecture) -> dict[str, int]:
    """Each level's index by its name, kept on the architecture."""

    return arch.derived(("level_index",), lambda: {
        lv.name: i for i, lv in enumerate(arch.levels)})


def canonical_json(doc: dict) -> str:
    """Stable serialized form: sorted keys, fixed separators, trailing newline."""

    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
