"""Mapping search over loop factorizations, spatial placements, and loop
orders, with two strategies:

* exhaustive walks the filtered space, every legal order of every chain
  assignment the filter allows, and raises SearchError once it has priced
  more than max_space candidates or asked the filter more than
  len(DIMS) * max_space times. The tests' unfiltered enumeration
  (brute_force_best) is ground truth.
* pruned_random (the default) draws `budget` candidates: one random pick
  per dim from the filter, one random legal order per level. Under the
  delay objective, a candidate whose step count cannot beat the best so
  far is counted as pruned and is never priced.

Both assign dims one at a time from the chains the running fanout budgets,
the capacity condition and the refetch loop-nest condition still allow; no
legal order revisits a refetch-forbidden tile. The conditions are
validate_mapping's (the refetch rule is spec_model.leads, on levels in
_nest_ok and within a level in _valid_perms): no valid mapping is lost,
and every candidate the walk completes is valid, so it is counted and
priced without re-validation.
Each dim's chain menu is filtered with bitsets over its chain table's
indices (see below). Per constrained axis (the spatial factor at each
level 1..M-1, the extent charged at each storage level whose capacity can
bind) the table keeps the bitset of chains at or below each distinct
value, which answers "every chain within this limit" with one bisect.
The limits come from the dims already assigned: each level's fanout over
their spatial product `sprod`, and the largest extent whose capacity
demand still fits beside theirs (_CapacityCheck.limits, spec_model's
largest_extent). A dim whose every chain sits at its minimum extent
row needs no limits (see _CapacityCheck). The fanout mask is kept per
`sprod` and the capacity mask per limits tuple, as they read nothing
else. Per running nest word (each refetch-forbidden keeper's loop-nest
mask pair, packed in one int), the chains the loop-nest condition allows
form one more bitset: the table groups its chains by the levels where
they iterate, and one check per group decides it. Each step ANDs them
with the menu and picks from the result's index list, kept per bitset in
menu order, so the picks are those of a filter that rechecks every
chain.

Both strategies walk one kind of state (_Walk): what the dims assigned so
far leave, that is the spatial products, extent rows, loop-nest masks,
step count and loop-order signature, moved to the next dim by one
function. The draws keep a tree of the prefixes of picks they have drawn,
each holding its state and its feasible list; a draw descends it with one
pick per dim and runs limits, the filter and the state update only for a
prefix not drawn before, so it draws what a walk that recomputed every
step draws. Exhaustive visits each prefix once and keeps no tree.
The loop orders come from one lookup per assignment: a table keyed by the
levels where each picked chain iterates (_OrderTable) holds every level's
legal orders. It reads only the level count and the refetch-forbidden
keepers, so it is kept per architecture and keep-override set, for every
search that shares them.

A candidate is priced from its picked chains and loop orders with no
Mapping in between (_Pricer). Its counts are reuse.tally, the arithmetic
reuse.count runs, fed from what each chain fixes on its own (its padded
and real extents, its temporal and spatial factors, read from its table)
and the footprints tally reads (CountPlan.tiled), computed from the
chains' tile extents where reuse.count takes them from validation. What
the picked spatial rows fix, the instances and the merge widths, is kept
per search for each tuple of rows, and each level's footprints per
column of extents. Its price comes from the PriceProgram kept for the
search's CountPlan (evaluator.price_program), the one evaluate runs, in
its order, so each objective is bit-identical to its evaluation's. The
search compares only these priced objectives (_Best): it keeps the lowest
with its picks and loop orders, and builds a mapping only to break an
exact tie by digest. Once the walk ends, it builds the winner and
evaluates it in full, which validates it: each search checks the one
mapping it returns. A candidate is built with only its factors other than
1, which every reader of a mapping takes as 1 when missing.

The candidate space factors per dimension: each dim contributes a chain
[t0, s1, t1, ..., s(M-1), t(M-1)] of per-level factors. One enumeration
(_ChainTable) lists every chain of a menu key in both modes, with what
each chain fixes on its own. It reads only the key: the dim's bound
(batch folded in), its pin per level, its origin under the keep
overrides, its first open temporal slot, and the pad mode; not the dim's
name or the layer. So each table is built once per architecture and menu
key, kept on the architecture (_chain_table), and shared by every search
of a study that meets the key again. A search's menu for a dim
(_dim_chains) is the bitset of the table's chains that pass the capacity
check with every other dim at its minimum row. The dim's origin is
the outermost keeper of any tensor it indexes; the dim may not split
spatially into a level at or above it, nor iterate above it, nor, for a
reduced dim, above the reduction floor. Per level, the spatial factor is
its pin, or 1 at or above the origin, or else 1 or a divisor of the bound
within the fanout; pad mode also offers the fanout's divisors up to twice
the bound. A pin other than 1 at or above the origin, or one past its
fanout, leaves the dim's table empty, and the search raises
NoValidMapping naming the dim, the pin, its level and the fanout before
it filters any menu. A storage level that a dim's least extents overflow
leaves its menu empty, and the search names the first such dim. Keep
overrides that leave a tensor without a keeper raise it before any table
is read. Per product of spatial factors, the temporal factors split the rest
of the bound, rounded up, over the open temporal slots. Strict mode is the
exact-cover case: it keeps only the spatial products that divide the bound
and lists its chains in lexicographic order. Loop orders are searched only
over dims with more than one iteration at a level. Keeper chains, the
capacity rows (each checked level's kept tensors, each named once, and its
capacity) and the refetch-forbidden keepers come from spec_model's
validation_plan, and the capacity demand and a dim's largest extent
that meets it from its demand and largest_extent: the definitions
validation and the counting engines use.

Every pick, a dim's chain from its feasible list and a level's loop order
from its legal ones, draws an index below the list's length n as
Random.choice and Random.randrange draw it, inline from the generator's
getrandbits: n.bit_length() bits, drawn again until the value is below n.
So a seed draws what rng.choice and rng.randrange draw, with no call
into random per pick; tests/test_mapper.py checks the rule against the
running Python's random.

What is kept, and for how long:
* per search: the draw tree, each filter's masks and index lists, and the
  pricer's instances and merge widths per tuple of spatial rows and
  footprints per level column;
* per architecture (Architecture.derived), for every search on it: the
  chain tables per menu key, the order table per keep-override set, each
  search's result (below), and each capacity check's limits per dim and
  column, keyed by all else a limit reads: the level, its kept tensors
  and their widths, the layer's stride and the capacity;
* per process: divisors, enumerate_factorizations, each dim's signature
  words (_spread) and each level's legal loop orders (_valid_perms), pure
  functions of their arguments.

Ties on the objective break toward the lexicographically smallest mapping
digest among priced candidates, so every strategy is deterministic for a
given seed. The delay floor prunes on `>=`, so a later candidate whose step
count equals the best cycles so far is never priced, whatever its digest.

`search` keeps each successful result on the architecture instance it was
given (Architecture.derived), for that instance's lifetime and with no
bound. The key is the layer's kind, dims, stride and bits but not its name,
and the whole SearchConfig. Layers of one shape, in one network or two,
are searched once per architecture; a reused result carries the
statistics of the search that made it. An edited copy is a new instance
and searches afresh. Failures are not kept: a repeat searches afresh, so
NoValidMapping names the caller's layer.

Only the delay objective prunes, and only under pruned_random. Its floor
is the candidate's step count: the product of every drawn chain's temporal
factors, which is the `LoopNest.steps` of the mapping the chains build.
Cycles never fall below it, and it needs no access counts. The energy and
EDP objectives price every feasible candidate: a sound floor for them
costs about as much as the pricing it would save.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from operator import mul

# analyze and energy go unused here; perfbench/tracer.py rebinds both.
from .evaluator import EvaluationResult, energy, evaluate, price_program
from .reuse import Tally, analyze, count_plan, tally
from .spec_model import (
    DIMS,
    REDUCED_DIMS,
    TENSOR_DIMS,
    TENSORS,
    Architecture,
    Layer,
    LevelMapping,
    Mapping,
    MappingError,
    demand,
    effective_bounds,
    largest_extent,
    leads,
    mapping_digest,
    override_key,
    tile_values,
    validation_plan,
)

OBJECTIVES = ("energy", "delay", "energy_delay_product")
STRATEGIES = ("exhaustive", "pruned_random")
_DIM_INDEX = {d: i for i, d in enumerate(DIMS)}


class NoValidMapping(Exception):
    def __init__(self, layer: str, message: str):
        self.layer = layer
        super().__init__(f"{layer}: {message}")


class SearchError(Exception):
    pass


@dataclass(frozen=True)
class SearchConfig:
    objective: str = "energy"
    budget: int = 1000
    seed: int = 0
    strategy: str = "pruned_random"
    pad_mode: str = "strict"
    batch_size: int = 1
    keep_overrides: dict = field(default_factory=dict)
    fixed_spatial: dict = field(default_factory=dict)
    reduction_floor: int | None = None
    # Bounds exhaustive's candidates, counted after the feasibility filter,
    # and its walk's filter steps at len(DIMS) times as many.
    max_space: int = 1_000_000

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.pad_mode not in ("strict", "pad"):
            raise ValueError(f"unknown pad_mode {self.pad_mode!r}")
        for name in ("budget", "seed", "max_space", "batch_size",
                     "reduction_floor"):
            value = getattr(self, name)
            if type(value) is not int and (value is not None
                                           or name != "reduction_floor"):
                raise ValueError(f"{name} {value!r} is not an integer")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        # random.Random(-7) draws as Random(7) does, and Random(None) from
        # the OS, which would key a kept search by a seed it did not use.
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_space < 1:
            raise ValueError("max_space must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.reduction_floor is not None and self.reduction_floor < 0:
            raise ValueError("reduction_floor must be >= 0")
        for (level, d), f in self.fixed_spatial.items():
            if d not in DIMS:
                raise ValueError(f"fixed_spatial pins unknown dim {d!r}")
            if type(level) is not int or level < 1:
                raise ValueError(f"fixed_spatial pins {d} at level {level!r}; "
                                 "spatial factors start at level 1")
            if type(f) is not int or f < 1:
                raise ValueError(f"fixed_spatial pin {d}={f!r} at level "
                                 f"{level} not a positive integer")
        for level, keeps in self.keep_overrides.items():
            if (type(level) is not int or level < 0 or type(keeps) is not tuple
                    or not all(t in TENSORS for t in keeps)):
                raise ValueError(f"keep_overrides {{{level!r}: {keeps!r}}} "
                                 "needs a level >= 0 and a tuple of tensors")


@dataclass(frozen=True)
class SearchResult:
    """`visited` counts the candidates priced, `pruned` those the delay
    floor cut unpriced, and `invalid` the pruned_random draws that
    dead-end: a dim the filter leaves no chain, or a level with no legal
    loop order. Under exhaustive `invalid` is always 0. `objective` is the
    priced one (_Pricer), equal to the one `evaluation` gives."""

    mapping: Mapping
    objective: float
    evaluation: EvaluationResult
    visited: int
    pruned: int
    invalid: int


# Both are memoised: callers share each list and must not change it.
@functools.cache
def divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


@functools.cache
def enumerate_factorizations(bound: int, slots: int) -> list[tuple[int, ...]]:
    """All ordered tuples of `slots` positive integers whose product is
    exactly `bound`."""

    if slots == 0:
        return [()] if bound == 1 else []
    if slots == 1:
        return [(bound,)]
    out = []
    for d in divisors(bound):
        for rest in enumerate_factorizations(bound // d, slots - 1):
            out.append((d,) + rest)
    return out


class _ChainTable:
    """Every factor chain [t0, s1, t1, ..., s(M-1), t(M-1)] of one menu key
    (_chain_table), in menu order, and what each chain fixes on its own:
    one list per fact, indexed like `chains`. Built once per architecture
    and key; the searches that share it only read it.

    extents[i] holds the chain's extent at each storage level 0..M-2, as
    LoopNest.tiles holds it: the product of its factors below the level,
    or at level 0 of them all (its padded extent), and real[i] the padded
    extent capped at the bound. spatial[i] is its spatial row s1..s(M-1)
    and temporal[i] its temporal row t0..t(M-1); live[i] has bit j set
    where it iterates at level j (temporal factor > 1), and steps[i] is
    the product of its temporal factors, its share of the step count.
    fan_axes and extent_axes are _prefix_bitsets per spatial level and per
    storage level, and by_live maps each live value to the bitset of its
    chains. `fault` names a pin that cannot fit, which leaves the table
    empty."""

    def __init__(self, arch: Architecture, bound: int,
                 pins: tuple[int | None, ...], origin: int, t_open: int,
                 strict: bool):
        m = len(arch.levels)
        self.fault = None
        menus = []
        for j in range(1, m):
            fan = arch.levels[j].fanout
            pin = pins[j - 1]
            if j <= origin or pin is not None:
                # Only 1 splits into the origin or above it; a pin must fit.
                if (pin or 1) > (1 if j <= origin else fan):
                    self.fault = (
                        f"pin {pin} at level {j} is at or above its origin "
                        f"level {origin}, where only 1 may split"
                        if j <= origin else
                        f"pin {pin} at level {j} exceeds the level's fanout "
                        f"{fan}")
                    break
                menus.append([pin or 1])
                continue
            vals = {1}.union(v for v in divisors(bound) if v <= fan)
            if not strict:
                vals.update(v for v in divisors(fan) if v <= 2 * bound)
            menus.append(sorted(vals))
        chains = []
        # Filled in place; the first t_open temporal slots stay 1.
        slots = [1] * (2 * m - 1)
        for svals in itertools.product(*menus) if self.fault is None else ():
            s_total = math.prod(svals)
            if strict and bound % s_total:
                continue
            slots[1::2] = svals
            for rest in enumerate_factorizations(-(-bound // s_total),
                                                 m - t_open):
                slots[2 * t_open::2] = rest
                chains.append(tuple(slots))
        if strict:
            chains.sort()
        self.chains = chains
        self.extents, self.real, self.temporal = [], [], []
        self.spatial, self.live, self.steps = [], [], []
        for c in chains:
            # Each storage level's extent, the product of the factors
            # below it, from the innermost level outward.
            row = [1] * (m - 1)
            inner = 1
            for j in range(m - 1, 1, -1):
                inner *= c[2 * j - 1] * c[2 * j]
                row[j - 1] = inner
            padded = row[0] = inner * c[1] * c[2] * c[0]
            temporal = c[0::2]
            live = 0
            for j, f in enumerate(temporal):
                if f > 1:
                    live |= 1 << j
            self.extents.append(tuple(row))
            self.real.append(padded if padded < bound else bound)
            self.temporal.append(temporal)
            self.spatial.append(c[1::2])
            self.live.append(live)
            self.steps.append(math.prod(temporal))
        self.everything = (1 << len(chains)) - 1
        self.fan_axes = [_prefix_bitsets([s[j] for s in self.spatial])
                         for j in range(m - 1)]
        self.extent_axes = [_prefix_bitsets([e[lvl] for e in self.extents])
                            for lvl in range(m - 1)]
        self.by_live: dict[int, int] = {}
        for i, bits in enumerate(self.live):
            self.by_live[bits] = self.by_live.get(bits, 0) | 1 << i

    def top(self, menu: int) -> tuple[int, ...]:
        """The largest extent at each storage level over the chains of
        the bitset `menu` (not empty)."""

        return tuple(values[next(k for k in range(len(values))
                                 if below[k + 1] & menu == menu)]
                     for values, below in self.extent_axes)


def _chain_table(arch: Architecture, layer: Layer, d: str,
                 cfg: SearchConfig) -> _ChainTable:
    """Dim d's chain table, kept on the architecture per menu key: what
    the enumeration reads, and nothing else (see the module docstring)."""

    m = len(arch.levels)
    # The outermost keeper of any tensor d indexes: d may not factor above
    # it or split spatially into it, and a reduced dim may not iterate
    # temporally above the reduction floor either.
    origin = max((o for _, o, dims in validation_plan(
        arch, cfg.keep_overrides).origins if d in dims), default=0)
    key = (effective_bounds(layer, cfg.batch_size)[d],
           tuple(cfg.fixed_spatial.get((j, d)) for j in range(1, m)),
           origin,
           min(m, max(origin, (cfg.reduction_floor or 0)
                      if d in REDUCED_DIMS else 0)),
           cfg.pad_mode == "strict")
    return arch.derived(("chain_table", key), lambda: _ChainTable(arch, *key))


class _CapacityCheck:
    """validate_mapping's capacity condition over extent rows, at every
    storage level that keeps a tensor (`checks`, the rows of
    ValidationPlan.capacity, as validation charges them). A dim's row is its
    chain's extents (_ChainTable.extents). A dim not yet assigned sits at
    its minimum row (`mins`): its spatial pins' product below each level,
    and at level 0 its bound rounded up to a multiple of all its pins'
    product. A partial assignment that overflows a level never extends to
    a valid mapping, and a complete one that fits is valid.

    A dim whose every menu chain sits at its minimum row fits beside any
    rows the walk reaches, so the walk never asks limits for it
    (_MenuFilter.at_min): the pick before it was checked with the dim at
    its minimum, and the first dim's menu was filtered at the minimum
    rows."""

    def __init__(self, arch: Architecture, layer: Layer, cfg: SearchConfig):
        m = len(arch.levels)
        bounds = effective_bounds(layer, cfg.batch_size)
        self.layer = layer
        self.checks = [(lvl, keeps, bits) for lvl, keeps, bits, _
                       in validation_plan(arch, cfg.keep_overrides).capacity]
        # Per check, its limits per dim, kept on the architecture under
        # all that they read but the dim and the column: shared by every
        # search of the architecture whose check reads alike.
        self.memos = [arch.derived(
            ("limits", lvl, keeps, tuple(layer.bits[t] for t in keeps),
             layer.stride, bits), lambda: tuple({} for _ in DIMS))
            for lvl, keeps, bits in self.checks]

        def least(d, lvl):
            pins = math.prod(cfg.fixed_spatial.get((j, d), 1)
                             for j in range(lvl + 1, m))
            return pins if lvl else -(-bounds[d] // pins) * pins

        self.mins = tuple(tuple(least(d, lvl) for lvl in range(m - 1))
                          for d in DIMS)

    def narrow(self, tops: list[tuple[int, ...]]) -> None:
        """Stop checking the levels that fit the menus' largest extents
        (`tops`, one row per dim): demand grows with every extent, so such
        a level never binds."""

        binds = [bits < demand(self.layer, {d: top[lvl] for d, top
                                            in zip(DIMS, tops)}, keeps)
                 for lvl, keeps, bits in self.checks]
        self.checks = list(itertools.compress(self.checks, binds))
        self.memos = list(itertools.compress(self.memos, binds))

    def limits(self, rows: tuple[tuple[int, ...], ...], di: int
               ) -> tuple[float, ...]:
        """Per checked level, the largest extent of dim DIMS[di] that
        fits with every other dim at its extent in `rows` (one row per dim,
        in DIMS order): spec_model's largest_extent. Each level's limit is
        kept per dim and column in its check's memo, as the same extents
        recur at a level more often than whole rows do."""

        d, layer = DIMS[di], self.layer
        columns = tuple(zip(*rows))
        out = []
        for (lvl, keeps, cap), memos in zip(self.checks, self.memos):
            memo, column = memos[di], columns[lvl]
            limit = memo.get(column)
            if limit is None:
                limit = memo[column] = largest_extent(
                    layer, dict(zip(DIMS, column)), keeps, cap, d)
            out.append(limit)
        return tuple(out)

    def axes(self, table: _ChainTable) -> list[tuple[list[int], list[int]]]:
        """The table's extent axes at the checked levels, in their order."""

        return [table.extent_axes[lvl] for lvl, _, _ in self.checks]


def _dim_chains(table: _ChainTable, di: int, cap: _CapacityCheck) -> int:
    """Dim DIMS[di]'s menu for one search: the bitset of the table's chains
    that pass the capacity check `cap` with every other dim at its minimum
    row."""

    return _within(table.everything, cap.axes(table),
                   cap.limits(cap.mins, di))


def _build_mapping(arch: Architecture, chains: dict[str, tuple[int, ...]],
                   perms: list[tuple[str, ...]], cfg: SearchConfig) -> Mapping:
    """The mapping the chains and loop orders describe, with only the
    factors other than 1 written out."""

    lms = []
    for j in range(len(arch.levels)):
        temporal, spatial = {}, {}
        for d, chain in chains.items():
            if chain[2 * j] != 1:
                temporal[d] = chain[2 * j]
            if j and chain[2 * j - 1] != 1:
                spatial[d] = chain[2 * j - 1]
        lms.append(LevelMapping(temporal=temporal, spatial=spatial,
                                permutation=perms[j]))
    return Mapping(levels=tuple(lms), batch_size=cfg.batch_size,
                   keep_overrides=dict(cfg.keep_overrides),
                   pad=cfg.pad_mode == "pad")


def _nest_ok(own: int, other: int) -> bool:
    """The refetch rule (spec_model.leads) projected onto levels, for one
    refetch-forbidden keeper at level b. `own` has bit j set where one of
    the tensor's dims iterates at level j (1 <= j <= b), `other` where
    another dim iterates at level j (j < b). It holds when the order with
    each level's tensor dims ahead of its others leads. Checking a partial
    chain assignment is sound because adding dims only sets bits. Order
    within a level is _valid_perms'."""

    return not own or not other & ((1 << (own.bit_length() - 1)) - 1)


class _MenuFilter:
    """The feasibility filter over one dim's menu, as bitsets over its
    chain table's indices (see the module docstring). The fanout mask is
    built on first use of each spatial product, the capacity mask of each
    limits tuple and the loop-nest bitset of each running nest word; the
    index list once per feasible bitset."""

    def __init__(self, arch: Architecture, table: _ChainTable, menu: int,
                 top: tuple[int, ...], di: int, cap: _CapacityCheck,
                 forbidden: tuple[tuple[int, str, int], ...]):
        d = DIMS[di]
        self.table, self.menu = table, menu
        self.fanouts = [lv.fanout for lv in arch.levels[1:]]
        self.cap_axes = cap.axes(table)
        # Capacity cannot bind this dim (see _CapacityCheck). No extent
        # falls below the minimum row, so all sit there if the largest do.
        self.at_min = all(top[lvl] == cap.mins[di][lvl]
                          for lvl, _, _ in cap.checks)
        # Per forbidden keeper, the masks of a chain's live bits that it
        # adds to the keeper's (own, other) pair (_nest_ok). A walk's nest
        # word packs the pairs, keeper k's own at bit 2k * M and its other
        # at bit (2k + 1) * M, and nest_words[live] is a chain's part.
        m = self.levels = len(arch.levels)
        self.nest_masks = tuple(
            ((1 << (b + 1)) - 2, 0) if d in TENSOR_DIMS[t]
            else (0, (1 << b) - 1) for b, t, _ in forbidden)
        self.nest_words = []
        for live in range(1 << m):
            word = 0
            for k, (a, b) in enumerate(self.nest_masks):
                word |= (live & a) << 2 * k * m | (live & b) << (2 * k + 1) * m
            self.nest_words.append(word)
        self.spread = _spread(m, di)
        self.fan_masks: dict[tuple[int, ...], int] = {}
        self.cap_masks: dict[tuple[float, ...], int] = {}
        self.nest_bits: dict[int, int] = {}
        self.lists: dict[int, list[int]] = {}

    def feasible(self, sprod: tuple[int, ...], limits: tuple[float, ...],
                 nest: int) -> list[int]:
        """Table indices, in menu order, of the menu's chains that the
        fanout budgets left by the spatial products `sprod` (levels
        1..M-1) and the capacity `limits` allow (no limit when `limits` is
        empty), and whose live bits keep each forbidden keeper's loop nest
        legal once OR-ed into the nest word `nest`."""

        mask = self.fan_masks.get(sprod)
        if mask is None:
            mask = self.fan_masks[sprod] = _within(
                self.menu, self.table.fan_axes,
                [f // p for f, p in zip(self.fanouts, sprod)])
        cap_mask = self.cap_masks.get(limits)
        if cap_mask is None:
            cap_mask = self.cap_masks[limits] = _within(
                self.menu, self.cap_axes, limits)
        bits = self.nest_bits.get(nest)
        if bits is None:
            bits = self.nest_bits[nest] = sum(
                chains for live, chains in self.table.by_live.items()
                if self.nest_legal(nest | self.nest_words[live]))
        mask &= cap_mask & bits
        out = self.lists.get(mask)
        if out is None:
            out = self.lists[mask] = _members(mask)
        return out

    def nest_legal(self, word: int) -> bool:
        """Whether every forbidden keeper's pair in the nest word passes
        _nest_ok."""

        m, full = self.levels, (1 << self.levels) - 1
        for k in range(len(self.nest_masks)):
            if not _nest_ok(word >> 2 * k * m & full,
                            word >> (2 * k + 1) * m & full):
                return False
        return True


def _within(mask: int, axes: list[tuple[list[int], list[int]]],
            lims: list[int] | tuple[float, ...]) -> int:
    """The chains of `mask` at or below every limit, one per axis."""

    for (values, below), lim in zip(axes, lims):
        mask &= below[bisect.bisect_right(values, lim)]
    return mask


def _members(mask: int) -> list[int]:
    """The indices set in a bitset, in increasing order."""

    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def _prefix_bitsets(values: list[int]) -> tuple[list[int], list[int]]:
    """Sorted distinct values of one axis over a table, and the bitset of
    table indices at or below each, led by the empty set: the chains
    within a limit are below[bisect_right(values, limit)]."""

    at: dict[int, int] = {}
    for i, v in enumerate(values):
        at[v] = at.get(v, 0) | 1 << i
    below = [0]
    for v in sorted(at):
        below.append(below[-1] | at[v])
    return sorted(at), below


@functools.cache
def _spread(levels: int, di: int) -> tuple[int, ...]:
    """Dim DIMS[di]'s part of a draw's loop-order signature per live value
    of its chain (_ChainTable.live): bit j * len(DIMS) + di set where it
    iterates at level j."""

    return tuple(sum(1 << (j * len(DIMS) + di) for j in range(levels)
                     if live >> j & 1) for live in range(1 << levels))


# Memoised: callers share each list and must not change it.
@functools.cache
def _valid_perms(live: tuple[str, ...], level: int,
                 forbidden: tuple[tuple[int, str, int], ...]
                 ) -> list[tuple[str, ...]]:
    """Orderings of this level's live loops that each refetch-forbidden
    keeper at or below it leads (spec_model.leads). The keeper level's own
    loops take part: its temporal loops also cycle the kept tile."""

    blocks = [TENSOR_DIMS[t] for b, t, _ in forbidden if level <= b]
    if not blocks:
        return list(itertools.permutations(live))
    return [p for p in itertools.permutations(live)
            if all(leads(p, dims) for dims in blocks)]


class _OrderTable:
    """Each level's legal loop orders (_valid_perms) for an assignment,
    from its signature: the OR of the picked chains' words
    _MenuFilter.spread[_ChainTable.live[pick]], so bits j * len(DIMS)
    upward hold the dims live at level j.
    Each (level, live dims) list is looked up on its first use and kept;
    _valid_perms builds it once per process."""

    def __init__(self, levels: int,
                 forbidden: tuple[tuple[int, str, int], ...]):
        self.forbidden = forbidden
        # Per level, its lists by the live dims' bits.
        self.by_level: list[dict[int, list]] = [{} for _ in range(levels)]

    def options(self, signature: int) -> list[list]:
        out = []
        full = (1 << len(DIMS)) - 1
        for j, memo in enumerate(self.by_level):
            word = signature >> (j * len(DIMS)) & full
            perms = memo.get(word)
            if perms is None:
                live = tuple(d for i, d in enumerate(DIMS) if word >> i & 1)
                perms = memo[word] = _valid_perms(live, j, self.forbidden)
            out.append(perms)
        return out

    def draw(self, signature: int, getrandbits) -> list | None:
        """One legal order per level, each picked as Random.choice picks
        (see _Walk.step), or None when a level has none."""

        perms = []
        for options in self.options(signature):
            n = len(options)
            if not n:
                return None
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            perms.append(options[r])
        return perms


def _order_table(arch: Architecture, keep_overrides: dict) -> _OrderTable:
    """The loop-order table of every search on `arch` under the keep
    overrides: it reads nothing else."""

    return arch.derived(
        ("order_table", override_key(keep_overrides)),
        lambda: _OrderTable(len(arch.levels),
                            validation_plan(arch, keep_overrides).forbidden))


class _Walk:
    """The filter's walk over one search's menus (see the module
    docstring). A state is (sprod, rows, nest, steps, signature): the
    spatial products of levels 1..M-1, one extent row per dim (its minimum
    row until assigned), the nest word of each forbidden keeper's (own,
    other) loop-nest masks (_MenuFilter.nest_words), the step count and
    the loop-order signature."""

    def __init__(self, filters: list[_MenuFilter], cap: _CapacityCheck):
        self.filters, self.cap = filters, cap
        self.root = ((1,) * len(filters[0].fanouts), cap.mins, 0, 1, 0)
        # The draws' tree: each drawn prefix of picks as (its state, the
        # next dim's feasible list, {pick: the prefix one pick longer});
        # a complete prefix holds neither.
        self.tree = None

    def feasible(self, di: int, state: tuple) -> list[int]:
        """The filter's table indices, in menu order, for dim DIMS[di] in
        `state`."""

        menu = self.filters[di]
        return menu.feasible(
            state[0], () if menu.at_min else self.cap.limits(state[1], di),
            state[2])

    def child(self, di: int, state: tuple, pick: int) -> tuple:
        """The state once dim DIMS[di] takes table chain `pick`."""

        sprod, rows, nest, steps, signature = state
        menu = self.filters[di]
        table = menu.table
        live = table.live[pick]
        return (tuple(map(mul, sprod, table.spatial[pick])),
                rows[:di] + (table.extents[pick],) + rows[di + 1:],
                nest | menu.nest_words[live], steps * table.steps[pick],
                signature | menu.spread[live])

    def exhaustive(self, max_steps: float):
        """Yields (picks, state) per complete assignment, depth first in
        menu order; raises SearchError past max_steps filter steps. `picks`
        is one list of table indices, refilled in place."""

        picks = [0] * len(DIMS)
        filter_steps = 0
        # (dims assigned, the last one's pick, the state they leave).
        stack = [(0, None, self.root)]
        while stack:
            di, pick, state = stack.pop()
            if di:
                picks[di - 1] = pick
            if di == len(DIMS):
                yield picks, state
                continue
            filter_steps += 1
            if filter_steps > max_steps:
                raise SearchError(f"exhaustive walk exceeds {max_steps} "
                                  "filter steps; use pruned_random")
            # Pushed in reverse, so they pop in menu order.
            for pick in reversed(self.feasible(di, state)):
                stack.append((di + 1, pick, self.child(di, state, pick)))

    def draw(self, getrandbits, picks: list[int]) -> tuple | None:
        """One pruned_random draw: per dim, a pick of its feasible list,
        down the tree of the prefixes drawn before. Fills `picks`; returns
        the complete state, or None at a dead end."""

        node = self.tree
        if node is None:
            node = self.tree = (self.root, self.feasible(0, self.root), {})
        for di in range(len(DIMS)):
            node = self.step(node, di, getrandbits, picks)
            if node is None:
                return None
        return node[0]

    def step(self, node: tuple, di: int, getrandbits,
             picks: list[int]) -> tuple | None:
        """A draw's filter step at the node of prefix picks[:di]: the node
        one pick longer, built on its first draw, or None when the node's
        feasible list is empty. The pick is the one Random.choice makes
        from the same generator: getrandbits(n.bit_length()) for a list of
        n, drawn again until it is below n."""

        state, feasible, below = node
        n = len(feasible)
        if not n:
            return None
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        pick = picks[di] = feasible[r]
        nxt = below.get(pick)
        if nxt is None:
            state = self.child(di, state, pick)
            nxt = below[pick] = ((state, self.feasible(di + 1, state), {})
                                 if di + 1 < len(DIMS)
                                 else (state, None, None))
        return nxt


class _Pricer:
    """A candidate's objective from its picks (one table index per dim, in
    DIMS order), loop orders and the walk's spatial products and step
    count, as evaluate prices the mapping they build (`mapping`), without
    building it (see the module docstring). What the picked spatial rows
    fix, the instances of each level and the merge widths, is kept per
    tuple of rows. The footprints tally reads (CountPlan.tiled) come from
    the picked chains' tile extents, where evaluate takes them from
    validation; each level's are kept per column of extents, as a tuple in
    the order of the level's tensors."""

    def __init__(self, arch: Architecture, layer: Layer, cfg: SearchConfig,
                 tables: list[_ChainTable]):
        self.arch, self.layer, self.cfg, self.tables = arch, layer, cfg, tables
        self.plan = count_plan(arch, cfg.keep_overrides)
        self.program = price_program(arch, self.plan)
        self.by_spatial: dict[tuple, tuple[tuple[int, ...], list[int]]] = {}
        self.by_column: list[dict[tuple[int, ...], tuple[int, ...]]] = [
            {} for _ in self.plan.tiled]

    def mapping(self, picks: list[int],
                perms: list[tuple[str, ...]]) -> Mapping:
        return _build_mapping(self.arch, {d: table.chains[p] for d, table, p
                                          in zip(DIMS, self.tables, picks)},
                              perms, self.cfg)

    def count(self, picks: list[int], perms: list[tuple[str, ...]],
              sprod: tuple[int, ...]
              ) -> tuple[Tally, int, int, tuple[int, ...]]:
        """The candidate's tally, padded and real MAC counts, and the
        instances of each level (`sprod` holds the spatial products of
        levels 1..M-1, which the spatial rows fix)."""

        plan = self.plan
        spatial, extents, temporal = [], [], []
        macs = real = 1
        for table, p in zip(self.tables, picks):
            row = table.extents[p]
            spatial.append(table.spatial[p])
            extents.append(row)
            temporal.append(table.temporal[p])
            macs *= row[0]
            real *= table.real[p]
        rows = tuple(spatial)
        fixed = self.by_spatial.get(rows)
        if fixed is None:
            fixed = self.by_spatial[rows] = (
                tuple(itertools.accumulate(sprod, mul, initial=1)),
                plan.merge_widths([{}] + [dict(zip(DIMS, column))
                                          for column in zip(*rows)]))
        instances, widths = fixed
        columns = list(zip(*extents))
        footprints = {}
        for (lvl, tensors), memo in zip(plan.tiled, self.by_column):
            column = columns[lvl]
            values = memo.get(column)
            if values is None:
                tile = dict(zip(DIMS, column))
                values = memo[column] = tuple([
                    tile_values(self.layer, tile, t) for t in tensors])
            for t, v in zip(tensors, values):
                footprints[lvl, t] = v
        loops = [(j, d, temporal[_DIM_INDEX[d]][j])
                 for j, perm in enumerate(perms) for d in perm]
        return (tally(plan, footprints, instances, loops, widths, macs),
                macs, real, instances)

    def objective(self, picks: list[int], perms: list[tuple[str, ...]],
                  sprod: tuple[int, ...], steps: int) -> float:
        counted, _, real, instances = self.count(picks, perms, sprod)
        program = self.program
        cycles = program.cycles(counted.levels, counted.conversions, steps,
                                instances)
        if self.cfg.objective == "delay":
            return float(cycles)
        latency_s = cycles / program.hz
        # The accumulators sit in sorted name order, as evaluate sums them.
        total = sum(program.energy(counted.levels, counted.conversions, real,
                                   latency_s))
        return total if self.cfg.objective == "energy" else total * latency_s


class _Best:
    """The lowest priced objective offered and the candidate that gave it:
    its picks, copied as the walks refill theirs in place, and its loop
    orders. On an exact tie the candidate whose mapping
    (`build(picks, perms)`) has the smaller digest stays. Digests are
    built only for ties, the best's once."""

    def __init__(self, build):
        self.build = build
        self.value: float | None = None
        self.picks: list[int] = []
        self.perms: list[tuple[str, ...]] = []
        self.digest: str | None = None

    def offer(self, value: float, picks: list[int],
              perms: list[tuple[str, ...]]) -> None:
        digest = None
        if self.value is not None:
            if value > self.value:
                return
            if value == self.value:
                if self.digest is None:
                    self.digest = mapping_digest(self.build(self.picks,
                                                            self.perms))
                digest = mapping_digest(self.build(picks, perms))
                if digest >= self.digest:
                    return
        self.value, self.picks, self.perms = value, list(picks), perms
        self.digest = digest


def search(arch: Architecture, layer: Layer, cfg: SearchConfig) -> SearchResult:
    """Find the best mapping of `layer` onto `arch` under the configured
    objective. Raises NoValidMapping when nothing valid was found. A
    repeated search on the same architecture returns the kept result (see
    the module docstring)."""

    # The reprs cover every field, so inputs that differ anywhere never
    # share a key; equal content built in another dict order only misses.
    key = ("search", repr((layer.kind, layer.dims, layer.stride, layer.bits)),
           repr(cfg))
    return arch.derived(key, lambda: _search(arch, layer, cfg))


def _search(arch: Architecture, layer: Layer, cfg: SearchConfig) -> SearchResult:
    """The search itself, never kept."""

    for level, d in cfg.fixed_spatial:
        if level >= len(arch.levels):
            raise ValueError(f"fixed_spatial pins {d} at level {level}; "
                             f"the architecture has {len(arch.levels)} levels")
    try:
        forbidden = validation_plan(arch, cfg.keep_overrides).forbidden
    except MappingError as err:
        # Only the check that every tensor is kept names a tensor.
        if err.tensor is None:
            raise ValueError(f"keep_overrides: {err}") from None
        raise NoValidMapping(layer.name, str(err)) from None
    tables = [_chain_table(arch, layer, d, cfg) for d in DIMS]
    for d, table in zip(DIMS, tables):
        if table.fault is not None:
            raise NoValidMapping(layer.name, f"dim {d}'s {table.fault}")
    cap = _CapacityCheck(arch, layer, cfg)
    menus = [_dim_chains(table, di, cap) for di, table in enumerate(tables)]
    for d, menu in zip(DIMS, menus):
        if not menu:
            raise NoValidMapping(
                layer.name, f"no factor chain for dim {d} fits its pins "
                "and the storage capacities")
    tops = [table.top(menu) for table, menu in zip(tables, menus)]
    cap.narrow(tops)
    walk = _Walk([_MenuFilter(arch, table, menu, top, di, cap, forbidden)
                  for di, (table, menu, top)
                  in enumerate(zip(tables, menus, tops))], cap)
    orders = _order_table(arch, cfg.keep_overrides)

    pricer = _Pricer(arch, layer, cfg, tables)
    best = _Best(pricer.mapping)
    visited = pruned = invalid = 0

    if cfg.strategy == "exhaustive":
        # At most the product of the menu sizes partial assignments at
        # each depth, so a space that fits max_space never trips the walk.
        for picks, (sprod, _, _, steps, signature) in walk.exhaustive(
                len(DIMS) * cfg.max_space):
            for perms in map(list, itertools.product(
                    *orders.options(signature))):
                visited += 1
                if visited > cfg.max_space:
                    raise SearchError(f"exhaustive space exceeds "
                                      f"{cfg.max_space}; use pruned_random")
                best.offer(pricer.objective(picks, perms, sprod, steps),
                           picks, perms)
    else:
        getrandbits = random.Random(cfg.seed).getrandbits
        prune = cfg.objective == "delay"
        picks = [0] * len(DIMS)
        for _ in range(cfg.budget):
            # The one assignment the draw reaches, and its loop orders, or
            # None at a dead end: a dim the filter leaves no chain, or a
            # level with no legal order.
            leaf = walk.draw(getrandbits, picks)
            perms = None
            if leaf is not None:
                sprod, _, _, steps, signature = leaf
                perms = orders.draw(signature, getrandbits)
            if perms is None:
                invalid += 1
                continue
            # The floor is the steps the chains build (LoopNest.steps),
            # known before the candidate is priced.
            if prune and best.value is not None and steps >= best.value:
                pruned += 1
                continue
            visited += 1
            best.offer(pricer.objective(picks, perms, sprod, steps), picks,
                       perms)

    if best.value is None:
        raise NoValidMapping(layer.name, "no valid mapping found in budget")
    mapping = pricer.mapping(best.picks, best.perms)
    return SearchResult(mapping=mapping, objective=best.value,
                        evaluation=evaluate(arch, layer, mapping),
                        visited=visited, pruned=pruned, invalid=invalid)
