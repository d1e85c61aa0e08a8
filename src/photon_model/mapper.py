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
validate_mapping's: no valid mapping is lost, and every candidate the walk
completes is valid, so it is counted and priced without re-validation.
Each dim's chain menu is filtered with bitsets over menu indices, built
once per search. Per constrained axis (the spatial factor at each
level 1..M-1, the extent charged at each storage level whose capacity can
bind) the bitset of chains at or below each distinct value answers "every
chain within this limit" with one bisect. The limits come from the dims
already assigned: each level's fanout over their spatial product `sprod`,
and the largest extent whose capacity demand still fits beside theirs
(_CapacityCheck.limits, the demand summed as kept_bits sums it). A dim
whose every chain sits at its minimum extent row needs no limits (see
_CapacityCheck). The fanout mask is kept per `sprod` and the capacity mask
per limits tuple, as they read nothing else. Per refetch-forbidden keeper
and running mask pair, the chains the loop-nest condition allows form one
more bitset. Each step ANDs them and picks from the result's index list,
kept per bitset in menu order, so the picks are those of a filter that
rechecks every chain.

Both strategies walk one kind of state (_Walk): what the dims assigned so
far leave, that is the spatial products, extent rows, loop-nest masks,
step count and loop-order signature, moved to the next dim by one
function. The draws keep a tree of the prefixes of picks they have drawn,
each holding its state and its feasible list; a draw descends it with one
rng.choice per dim and runs limits, the filter and the state update only
for a prefix not drawn before, so it draws what a walk that recomputed
every step draws. Exhaustive visits each prefix once and keeps no tree.
The loop orders come from one lookup per assignment: a table keyed by the
levels where each picked chain iterates (_OrderTable) holds every level's
legal orders. It reads only the level count and the refetch-forbidden
keepers, so it is kept per architecture and keep-override set, for every
search that shares them.

A candidate is priced from its picked chains and loop orders with no
Mapping in between (_Pricer). Its counts are reuse.tally, the arithmetic
reuse.count runs, fed from what each chain fixes on its own (its tile
extents, padded extent and spatial factors, taken once per menu). Its price comes
from the search's PriceProgram, the one evaluate runs, in its order, so
each objective is bit-identical to its evaluation's. The search compares
only these priced objectives (_Best): it keeps the lowest with its picks
and loop orders, and builds a mapping only to break an exact tie by digest.
Once the walk ends, it builds the winner and evaluates it in full, which
validates it: each search checks the one mapping it returns. A candidate
is built with only its factors other than 1, which every reader of a
mapping takes as 1 when missing.

The candidate space factors per dimension: each dim contributes a chain
[t0, s1, t1, ..., s(M-1), t(M-1)] of per-level factors, and one enumeration
(_dim_chains) builds every dim's menu in both modes. The dim's origin is
the outermost keeper of any tensor it indexes; the dim may not split
spatially into a level at or above it, nor iterate above it, nor, for a
reduced dim, above the reduction floor. Per level, the spatial factor is
its pin, or 1 at or above the origin, or else 1 or a divisor of the bound
within the fanout; pad mode also offers the fanout's divisors up to twice
the bound. A pin other than 1 at or above the origin, or one past its
fanout, or a storage level that the dim's least extents overflow, leaves
the dim no chain, and the search raises NoValidMapping naming it; keep
overrides that leave a tensor without a keeper raise it before any menu is
built. Per product of spatial factors, the temporal factors split the rest
of the bound, rounded up, over the open temporal slots. Strict mode is the
exact-cover case: it keeps only the spatial products that divide the bound
and lists its chains in lexicographic order. Loop orders are searched only
over dims with more than one iteration at a level. Keeper chains, the
capacity demand and the refetch-forbidden keepers come from spec_model: the
definitions validation and the counting engines use.

Ties on the objective break toward the lexicographically smallest mapping
digest among priced candidates, so every strategy is deterministic for a
given seed. The delay floor prunes on `>=`, so a later candidate whose step
count equals the best cycles so far is never priced, whatever its digest.

`search` memoises its successful results, keeping a fixed number and
dropping the least recently used. The key is the architecture's full
content (its repr, which covers every field of every component), the
layer's kind, dims, stride and bits but not its name, and the whole
SearchConfig. Layers of one shape, in one network or two, are searched
once; a reused result carries the statistics of the search that made it.
Failures are not memoised: a repeat searches afresh, so NoValidMapping
names the caller's layer.

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
from collections import OrderedDict
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
    check_every_tensor_kept,
    check_keep_overrides,
    effective_bounds,
    effective_keeps,
    kept_bits,
    mapping_digest,
    override_key,
    tile_values,
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
        for name in ("budget", "max_space", "batch_size", "reduction_floor"):
            value = getattr(self, name)
            if type(value) is not int and (value is not None
                                           or name != "reduction_floor"):
                raise ValueError(f"{name} {value!r} is not an integer")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
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


class _CapacityCheck:
    """validate_mapping's capacity condition over extent rows, at every
    storage level that keeps a tensor. A dim's row is its tile extent at
    each level, but its padded extent at the backing store (level 0),
    which holds whole tensors. A dim not yet assigned sits at its minimum
    row (`mins`): its spatial pins' product below each level, and at level
    0 its bound rounded up to a multiple of all its pins' product. A
    partial assignment that overflows a level never extends to a valid
    mapping, and a complete one that fits is valid.

    A dim whose every menu chain sits at its minimum row fits beside any
    rows the walk reaches, so the walk never asks limits for it
    (_MenuFilter.at_min): the pick before it was checked with the dim at
    its minimum, and the first dim's menu was filtered at the minimum
    rows."""

    def __init__(self, arch: Architecture, layer: Layer, cfg: SearchConfig):
        m = len(arch.levels)
        bounds = effective_bounds(layer, cfg.batch_size)
        self.layer = layer
        self.checks = []
        for lvl in range(m - 1):
            keeps = effective_keeps(arch, cfg.keep_overrides, lvl)
            if keeps:
                self.checks.append(
                    (lvl, tuple(keeps), arch.levels[lvl].component.capacity_bits))

        def least(d, lvl):
            pins = math.prod(cfg.fixed_spatial.get((j, d), 1)
                             for j in range(lvl + 1, m))
            return pins if lvl else -(-bounds[d] // pins) * pins

        self.mins = tuple(tuple(least(d, lvl) for lvl, _, _ in self.checks)
                          for d in DIMS)
        self.memo: dict[tuple, float] = {}
        self.rows: dict[tuple[int, ...], tuple[int, ...]] = {}

    def row(self, chain: tuple[int, ...]) -> tuple[int, ...]:
        """Extent of one dim's chain at each checked level: the product of
        its factors below that level, or at level 0 of them all. Each
        chain's row is computed once."""

        row = self.rows.get(chain)
        if row is None:
            row = self.rows[chain] = tuple(
                math.prod(chain[2 * lvl + 1:] if lvl else chain)
                for lvl, _, _ in self.checks)
        return row

    def narrow(self, menus: list[list[tuple[int, ...]]]) -> None:
        """Stop checking the levels that fit the menus' largest extents:
        demand grows with every extent, so such a level never binds. The
        menu chains keep their rows, less those levels."""

        top = zip(*(map(max, zip(*map(self.row, chains))) for chains in menus))
        keep = [c for c, ((_, keeps, bits), tb)
                in enumerate(zip(self.checks, top))
                if bits < sum(kept_bits(self.layer, dict(zip(DIMS, tb)),
                                        keeps).values())]
        rows = self.rows
        self.checks = [self.checks[c] for c in keep]
        self.mins = tuple(tuple(row[c] for c in keep) for row in self.mins)
        self.rows = {chain: tuple(rows[chain][c] for c in keep)
                     for chains in menus for chain in chains}
        self.memo = {}

    def limits(self, rows: tuple[tuple[int, ...], ...], di: int
               ) -> tuple[float, ...]:
        """Per checked level, the largest extent of dim DIMS[di] that
        fits with every other dim at its extent in `rows` (one row per dim,
        in DIMS order). Each tensor's tile_values is affine in any one
        dim's extent, the Inputs halo (P-1)*stride + R included, so the
        demands at extents 1 and 2 give the level's demand a + b*e
        exactly. Each level's limit is kept for the search, as the same
        extents recur at a level more often than whole rows do."""

        d, layer, bits, memo = DIMS[di], self.layer, self.layer.bits, self.memo
        out = []
        for c, extents in enumerate(zip(*rows)):
            key = (c, di, extents)
            limit = memo.get(key)
            if limit is None:
                _, keeps, cap = self.checks[c]
                tb = dict(zip(DIMS, extents))
                # The level's demand, summed as kept_bits charges it.
                one = two = 0
                tb[d] = 1
                for t in keeps:
                    one += tile_values(layer, tb, t) * bits[t]
                tb[d] = 2
                for t in keeps:
                    two += tile_values(layer, tb, t) * bits[t]
                slope = two - one
                if slope:
                    limit = 1 + (cap - one) // slope
                else:
                    limit = math.inf if one <= cap else 0
                memo[key] = limit
            out.append(limit)
        return tuple(out)

    def fits(self, row: tuple[int, ...], limits: tuple[float, ...]) -> bool:
        return all(e <= lim for e, lim in zip(row, limits))


def _dim_chains(arch: Architecture, layer: Layer, d: str, cfg: SearchConfig,
                cap: _CapacityCheck) -> list[tuple[int, ...]]:
    """Candidate factor chains [t0, s1, t1, ...] for one dim that pass the
    search's capacity condition `cap` on their own (see the module
    docstring)."""

    m = len(arch.levels)
    limits = cap.limits(cap.mins, DIMS.index(d))
    bound = effective_bounds(layer, cfg.batch_size)[d]
    strict = cfg.pad_mode == "strict"
    # The outermost keeper of any tensor d indexes: d may not factor above
    # it or split spatially into it, and a reduced dim may not iterate
    # temporally above the reduction floor either.
    keepers = arch.keepers(cfg.keep_overrides)[0]
    origin = max((keepers[t][0] for t in TENSORS
                  if d in TENSOR_DIMS[t] and keepers[t]), default=0)
    t_open = min(m, max(origin, (cfg.reduction_floor or 0)
                        if d in REDUCED_DIMS else 0))
    menus = []
    for j in range(1, m):
        fan = arch.levels[j].fanout
        pin = cfg.fixed_spatial.get((j, d))
        if j <= origin or pin is not None:
            # Only 1 splits into the origin or above it; a pin must fit.
            if (pin or 1) > (1 if j <= origin else fan):
                return []
            menus.append([pin or 1])
            continue
        vals = {1}.union(v for v in divisors(bound) if v <= fan)
        if not strict:
            vals.update(v for v in divisors(fan) if v <= 2 * bound)
        menus.append(sorted(vals))
    chains = []
    # Filled in place; the first t_open temporal slots stay 1.
    slots = [1] * (2 * m - 1)
    for svals in itertools.product(*menus):
        s_total = math.prod(svals)
        if strict and bound % s_total:
            continue
        slots[1::2] = svals
        for rest in enumerate_factorizations(-(-bound // s_total), m - t_open):
            slots[2 * t_open::2] = rest
            chain = tuple(slots)
            if cap.fits(cap.row(chain), limits):
                chains.append(chain)
    return sorted(chains) if strict else chains


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
    """Cross-level loop-order condition for one refetch-forbidden keeper at
    level b. `own` has bit j set where one of the tensor's dims iterates at
    level j (1 <= j <= b), `other` where another dim iterates at level j
    (j < b). A tensor dim iterating inside another dim's loop at an outer
    level would revisit evicted tiles. Checking a partial chain assignment
    is sound because adding dims only sets bits. Within-level order is
    enforced when permutations are drawn."""

    return not own or not other & ((1 << (own.bit_length() - 1)) - 1)


class _MenuFilter:
    """The feasibility filter over one dim's chain menu, as bitsets of menu
    indices (see the module docstring). The fanout mask is built on first
    use of each spatial product, the capacity mask of each limits tuple and
    the loop-nest bitsets of each running mask pair; the index list once per
    feasible bitset."""

    def __init__(self, arch: Architecture, chains: list[tuple[int, ...]],
                 d: str, cap: _CapacityCheck,
                 forbidden: tuple[tuple[int, str, int], ...]):
        self.fanouts = [lv.fanout for lv in arch.levels[1:]]
        # Per chain, what the running state absorbs once it is drawn: its
        # spatial row s1..s(M-1), its extent row at the checked levels,
        # and the bits it adds to each forbidden keeper's (own, other).
        self.table = []
        # Per chain, its part of the draw's loop-order signature: bit
        # j * len(DIMS) + DIMS.index(d) set where it iterates at level j
        # (temporal factor > 1). spread moves bit j of a level mask there.
        self.live = []
        spread = [sum(1 << (j * len(DIMS)) for j in range(b.bit_length())
                      if b >> j & 1) << DIMS.index(d)
                  for b in range(1 << len(arch.levels))]
        for chain in chains:
            bits = sum(1 << j for j, f in enumerate(chain[0::2]) if f > 1)
            nest = tuple((bits & ((1 << (b + 1)) - 2), 0)
                         if d in TENSOR_DIMS[t] else (0, bits & ((1 << b) - 1))
                         for b, t, _ in forbidden)
            self.table.append((chain[1::2], cap.row(chain), nest))
            self.live.append(spread[bits])
        # Per chain, the product of its temporal factors: its share of the
        # step count.
        self.steps = [math.prod(chain[0::2]) for chain in chains]
        # Capacity cannot bind this dim (see _CapacityCheck).
        self.at_min = all(r[1] == cap.mins[DIMS.index(d)] for r in self.table)
        self.everything = (1 << len(chains)) - 1
        self.fan_axes = [_prefix_bitsets([r[0][j] for r in self.table])
                         for j in range(len(self.fanouts))]
        self.cap_axes = [_prefix_bitsets([r[1][c] for r in self.table])
                         for c in range(len(cap.checks))]
        self.fan_masks: dict[tuple[int, ...], int] = {}
        self.cap_masks: dict[tuple[float, ...], int] = {}
        self.nest_bits: dict[tuple[int, int, int], int] = {}
        self.lists: dict[int, list[int]] = {}

    def _within(self, axes: list[tuple[list[int], list[int]]],
                lims: list[int] | tuple[float, ...]) -> int:
        """The chains at or below every limit, one per axis."""

        mask = self.everything
        for (values, below), lim in zip(axes, lims):
            mask &= below[bisect.bisect_right(values, lim)]
        return mask

    def feasible(self, sprod: tuple[int, ...], limits: tuple[float, ...],
                 nest: tuple[tuple[int, int], ...]) -> list[int]:
        """Menu indices, in menu order, of the chains that the fanout
        budgets left by the spatial products `sprod` (levels 1..M-1) and
        the capacity `limits` allow (no limit when `limits` is empty), and
        whose masks keep each forbidden keeper's loop nest legal once
        OR-ed into `nest`."""

        mask = self.fan_masks.get(sprod)
        if mask is None:
            mask = self.fan_masks[sprod] = self._within(
                self.fan_axes, [f // p for f, p in zip(self.fanouts, sprod)])
        cap_mask = self.cap_masks.get(limits)
        if cap_mask is None:
            cap_mask = self.cap_masks[limits] = self._within(self.cap_axes,
                                                             limits)
        mask &= cap_mask
        for k, (own, other) in enumerate(nest):
            bits = self.nest_bits.get((k, own, other))
            if bits is None:
                bits = self.nest_bits[k, own, other] = sum(
                    1 << i for i, (_, _, adds) in enumerate(self.table)
                    if _nest_ok(own | adds[k][0], other | adds[k][1]))
            mask &= bits
        out = self.lists.get(mask)
        if out is None:
            out = self.lists[mask] = [i for i in range(len(self.table))
                                      if mask >> i & 1]
        return out


def _prefix_bitsets(values: list[int]) -> tuple[list[int], list[int]]:
    """Sorted distinct values of one axis over a menu, and the bitset of
    menu indices at or below each, led by the empty set: the chains within
    a limit are below[bisect_right(values, limit)]."""

    at: dict[int, int] = {}
    for i, v in enumerate(values):
        at[v] = at.get(v, 0) | 1 << i
    below = [0]
    for v in sorted(at):
        below.append(below[-1] | at[v])
    return sorted(at), below


def _block_leads(perm: tuple[str, ...], dims: frozenset) -> bool:
    seen_other = False
    for d in perm:
        if d in dims:
            if seen_other:
                return False
        else:
            seen_other = True
    return True


def _valid_perms(live: tuple[str, ...], level: int,
                 forbidden: tuple[tuple[int, str, int], ...]
                 ) -> list[tuple[str, ...]]:
    """Orderings of this level's live loops that keep every
    refetch-forbidden tensor's dims ahead of other dims. The keeper level's
    own loops take part: its temporal loops also cycle the kept tile."""

    blocks = [TENSOR_DIMS[t] for b, t, _ in forbidden if level <= b]
    if not blocks:
        return list(itertools.permutations(live))
    return [p for p in itertools.permutations(live)
            if all(_block_leads(p, dims) for dims in blocks)]


class _OrderTable:
    """Each level's legal loop orders (_valid_perms) for an assignment,
    from its signature: the OR of the picked chains' _MenuFilter.live
    words, so bits j * len(DIMS) upward hold the dims live at level j.
    Each (level, live dims) list is built on its first lookup and shared."""

    def __init__(self, levels: int,
                 forbidden: tuple[tuple[int, str, int], ...]):
        self.levels = levels
        self.forbidden = forbidden
        self.by_level: dict[tuple[int, int], list] = {}

    def options(self, signature: int) -> list[list]:
        out = []
        full = (1 << len(DIMS)) - 1
        for j in range(self.levels):
            key = (j, signature >> (j * len(DIMS)) & full)
            perms = self.by_level.get(key)
            if perms is None:
                live = tuple(d for i, d in enumerate(DIMS) if key[1] >> i & 1)
                perms = self.by_level[key] = _valid_perms(live, j,
                                                          self.forbidden)
            out.append(perms)
        return out


def _order_table(arch: Architecture, keep_overrides: dict) -> _OrderTable:
    """The loop-order table of every search on `arch` under the keep
    overrides: it reads nothing else."""

    return arch.derived(
        ("order_table", override_key(keep_overrides)),
        lambda: _OrderTable(len(arch.levels), arch.keepers(keep_overrides)[1]))


class _Walk:
    """The filter's walk over one search's menus (see the module
    docstring). A state is (sprod, rows, nest, steps, signature): the
    spatial products of levels 1..M-1, one extent row per dim (its minimum
    row until assigned), each forbidden keeper's (own, other) loop-nest
    masks, the step count and the loop-order signature."""

    def __init__(self, filters: list[_MenuFilter], cap: _CapacityCheck,
                 forbidden: tuple[tuple[int, str, int], ...]):
        self.filters, self.cap = filters, cap
        self.root = ((1,) * len(filters[0].fanouts), cap.mins,
                     ((0, 0),) * len(forbidden), 1, 0)
        # The draws' tree: each drawn prefix of picks as (its state, the
        # next dim's feasible list, {pick: the prefix one pick longer});
        # a complete prefix holds neither.
        self.tree = None

    def feasible(self, di: int, state: tuple) -> list[int]:
        """The filter's menu indices for dim DIMS[di] in `state`."""

        menu = self.filters[di]
        return menu.feasible(
            state[0], () if menu.at_min else self.cap.limits(state[1], di),
            state[2])

    def child(self, di: int, state: tuple, pick: int) -> tuple:
        """The state once dim DIMS[di] takes menu chain `pick`."""

        sprod, rows, nest, steps, signature = state
        menu = self.filters[di]
        spatial, extent, adds = menu.table[pick]
        return (tuple(map(mul, sprod, spatial)),
                rows[:di] + (extent,) + rows[di + 1:],
                tuple((o | a, x | b) for (o, x), (a, b) in zip(nest, adds)),
                steps * menu.steps[pick], signature | menu.live[pick])

    def exhaustive(self, max_steps: float):
        """Yields (picks, state) per complete assignment, depth first in
        menu order; raises SearchError past max_steps filter steps. `picks`
        is one list of menu indices, refilled in place."""

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

    def draw(self, rng: random.Random, picks: list[int]) -> tuple | None:
        """One pruned_random draw: per dim, rng.choice of its feasible
        list, down the tree of the prefixes drawn before. Fills `picks`;
        returns the complete state, or None at a dead end."""

        node = self.tree
        if node is None:
            node = self.tree = (self.root, self.feasible(0, self.root), {})
        for di in range(len(DIMS)):
            node = self.step(node, di, rng, picks)
            if node is None:
                return None
        return node[0]

    def step(self, node: tuple, di: int, rng: random.Random,
             picks: list[int]) -> tuple | None:
        """A draw's filter step at the node of prefix picks[:di]: the node
        one pick longer, built on its first draw, or None when the node's
        feasible list is empty."""

        state, feasible, below = node
        if not feasible:
            return None
        pick = picks[di] = rng.choice(feasible)
        nxt = below.get(pick)
        if nxt is None:
            state = self.child(di, state, pick)
            nxt = below[pick] = ((state, self.feasible(di + 1, state), {})
                                 if di + 1 < len(DIMS)
                                 else (state, None, None))
        return nxt


class _Pricer:
    """A candidate's objective from its picks (one menu index per dim, in
    DIMS order), loop orders and the walk's spatial products and step
    count, as evaluate prices the mapping they build (`mapping`), without
    building it (see the module docstring). `rows` holds per dim, per menu
    chain, its tile extents at plan.tiled, its spatial factors at
    plan.merged, its padded extent and that extent within the bound."""

    def __init__(self, arch: Architecture, layer: Layer, cfg: SearchConfig,
                 menus: list[list[tuple[int, ...]]]):
        self.arch, self.layer, self.cfg, self.menus = arch, layer, cfg, menus
        self.plan = count_plan(arch, cfg.keep_overrides)
        self.program = price_program(arch, self.plan.level_keys,
                                     self.plan.conversion_keys)
        tiled, merged = self.plan.tiled, self.plan.merged
        bounds = effective_bounds(layer, cfg.batch_size)
        self.rows = [[(tuple(math.prod(c[2 * i + 1:]) for i in tiled),
                       tuple(c[2 * j - 1] for j in merged), math.prod(c),
                       min(math.prod(c), bounds[d])) for c in menu]
                     for d, menu in zip(DIMS, menus)]

    def mapping(self, picks: list[int],
                perms: list[tuple[str, ...]]) -> Mapping:
        return _build_mapping(self.arch, {d: menu[p] for d, menu, p in
                                          zip(DIMS, self.menus, picks)},
                              perms, self.cfg)

    def count(self, picks: list[int], perms: list[tuple[str, ...]],
              sprod: tuple[int, ...]
              ) -> tuple[Tally, int, int, tuple[int, ...]]:
        """The candidate's tally, padded and real MAC counts, and the
        instances of each level (`sprod` holds the spatial products of
        levels 1..M-1)."""

        plan = self.plan
        rows = [dim_rows[p] for dim_rows, p in zip(self.rows, picks)]
        tiles = dict(zip(plan.tiled, [dict(zip(DIMS, col)) for col in
                                      zip(*[r[0] for r in rows])]))
        spatial = dict(zip(plan.merged, [dict(zip(DIMS, col)) for col in
                                         zip(*[r[1] for r in rows])]))
        macs = real = 1
        for r in rows:
            macs *= r[2]
            real *= r[3]
        instances = tuple(itertools.accumulate(sprod, mul, initial=1))
        chains = [menu[p] for menu, p in zip(self.menus, picks)]
        loops = [(j, d, chains[_DIM_INDEX[d]][2 * j])
                 for j, perm in enumerate(perms) for d in perm]
        return (tally(plan, self.layer, tiles, instances, loops,
                      plan.merge_widths(spatial), macs),
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


# Successful searches by _memo_key, least recently used first.
_MEMO: OrderedDict[tuple[str, str, str], SearchResult] = OrderedDict()
_MEMO_SIZE = 256


def _memo_key(arch: Architecture, layer: Layer,
              cfg: SearchConfig) -> tuple[str, str, str]:
    """Everything a search reads. The reprs cover every field, so inputs
    that differ anywhere never share a key; equal content built in another
    dict order only misses."""

    return (repr(arch),
            repr((layer.kind, layer.dims, layer.stride, layer.bits)),
            repr(cfg))


def search(arch: Architecture, layer: Layer, cfg: SearchConfig) -> SearchResult:
    """Find the best mapping of `layer` onto `arch` under the configured
    objective. Raises NoValidMapping when nothing valid was found. A
    repeated search returns the memoised result (see the module
    docstring)."""

    key = _memo_key(arch, layer, cfg)
    result = _MEMO.get(key)
    if result is not None:
        _MEMO.move_to_end(key)
        return result
    result = _search(arch, layer, cfg)
    _MEMO[key] = result
    if len(_MEMO) > _MEMO_SIZE:
        _MEMO.popitem(last=False)
    return result


def _search(arch: Architecture, layer: Layer, cfg: SearchConfig) -> SearchResult:
    """The search itself, unmemoised."""

    for level, d in cfg.fixed_spatial:
        if level >= len(arch.levels):
            raise ValueError(f"fixed_spatial pins {d} at level {level}; "
                             f"the architecture has {len(arch.levels)} levels")
    try:
        check_keep_overrides(arch, cfg.keep_overrides)
    except MappingError as err:
        raise ValueError(f"keep_overrides: {err}") from None
    keepers, forbidden = arch.keepers(cfg.keep_overrides)
    try:
        check_every_tensor_kept(keepers)
    except MappingError as err:
        raise NoValidMapping(layer.name, str(err)) from None
    cap = _CapacityCheck(arch, layer, cfg)
    chain_menu = {d: _dim_chains(arch, layer, d, cfg, cap) for d in DIMS}
    for d, menu in chain_menu.items():
        if not menu:
            raise NoValidMapping(
                layer.name, f"no factor chain for dim {d} fits its pins "
                "and the storage capacities")
    cap.narrow(list(chain_menu.values()))
    walk = _Walk([_MenuFilter(arch, chain_menu[d], d, cap, forbidden)
                  for d in DIMS], cap, forbidden)
    orders = _order_table(arch, cfg.keep_overrides)

    pricer = _Pricer(arch, layer, cfg, list(chain_menu.values()))
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
        rng = random.Random(cfg.seed)
        prune = cfg.objective == "delay"
        picks = [0] * len(DIMS)
        for _ in range(cfg.budget):
            # The one assignment the draw reaches, or None at a dead end: a
            # dim the filter leaves no chain, or a level with no legal order.
            leaf = walk.draw(rng, picks)
            perms = []
            if leaf is not None:
                sprod, _, _, steps, signature = leaf
                for options in orders.options(signature):
                    if not options:
                        leaf = None
                        break
                    perms.append(options[rng.randrange(len(options))])
            if leaf is None:
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
