"""Mapping search over loop factorizations, spatial placements, and loop
orders, with two strategies:

* exhaustive walks every combination of per-dim chains that fits the
  fanout budgets, with every order of each level's live loops. It is the
  ground truth for small spaces and raises SearchError past max_space.
* pruned_random (the default) draws `budget` candidates. It assigns dims
  one at a time from the chains the running fanout budgets, the capacity
  condition and the refetch loop-nest condition still allow, then draws
  loop orders that never revisit a refetch-forbidden tile. Under the
  delay objective, a candidate whose step count cannot beat the best so
  far is counted as pruned and never fully evaluated.

A pruned_random search builds its feasibility tables once from the chain
menus: per dim and chain, the spatial row, the tile extent at each
capacity-checked level, and bitmasks of the levels where the chain
iterates, OR-ed per refetch-forbidden keeper into the tensor's own dims
and the other dims. The conditions read only the running spatial
products, the assigned dims' extent rows and those masks, so the feasible
list of the next dim is cached under that state rather than under the
chains already drawn: prefixes that differ only in what no condition reads
share one list. Lists keep menu order, so the draws are those of an
uncached filter.

The candidate space factors per dimension: each dim contributes a chain
[t0, s1, t1, ..., s(M-1), t(M-1)] of per-level factors. Strict mode splits
the exact bound; pad mode picks spatial widths from divisors of the bound
or of the level fanout, then pads the iterated extent minimally to a
multiple of the spatial width. Loop orders are searched only over dims with
more than one iteration at a level. Keeper chains and the capacity demand
come from spec_model, and step counts from the candidate's `mapping.nest`:
the definitions the counting engines use.

Ties on the objective break toward the lexicographically smallest mapping
digest among evaluated candidates, so every strategy is deterministic for a
given seed. The delay floor prunes on `>=`, so a later candidate whose step
count equals the best cycles so far is never evaluated, whatever its digest.

`search` memoises its successful results, keeping a fixed number and
dropping the least recently used. The key is the architecture's full
content (its repr, which covers every field of every component), the
layer's kind, dims, stride and bits but not its name, and the whole
SearchConfig. Layers of one shape, in one network or two, are searched
once; a reused result carries the statistics of the search that made it.
Failures are not memoised: a repeat searches afresh, so NoValidMapping
names the caller's layer.

Only the delay objective prunes. Its floor is the candidate's step count,
read from its loop nest once `validate_mapping` accepts it: cycles never
fall below it, and it needs no access counts. The energy and EDP
objectives evaluate every feasible candidate in full: a sound floor for
them costs about as much as the evaluation it would save.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field

# analyze and energy go unused here; perfbench/tracer.py rebinds both.
from .evaluator import EvaluationResult, energy, evaluate
from .reuse import DOWN, analyze, converter_at
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
    effective_keeps,
    keeper_levels,
    kept_bits,
    validate_mapping,
)

OBJECTIVES = ("energy", "delay", "energy_delay_product")
STRATEGIES = ("exhaustive", "pruned_random")


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
    max_space: int = 1_000_000

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.pad_mode not in ("strict", "pad"):
            raise ValueError(f"unknown pad_mode {self.pad_mode!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.reduction_floor is not None and self.reduction_floor < 0:
            raise ValueError("reduction_floor must be >= 0")


@dataclass(frozen=True)
class SearchResult:
    mapping: Mapping
    objective: float
    evaluation: EvaluationResult
    visited: int
    pruned: int
    invalid: int


def divisors(n: int) -> list[int]:
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def enumerate_factorizations(bound: int, slots: int) -> list[tuple[int, ...]]:
    """All ordered tuples of `slots` positive integers whose product is
    exactly `bound`."""

    if slots == 1:
        return [(bound,)]
    out = []
    for d in divisors(bound):
        for rest in enumerate_factorizations(bound // d, slots - 1):
            out.append((d,) + rest)
    return out


class _CapacityCheck:
    """Necessary capacity condition over extent rows. A dim's row is its
    tile extent at each capacity-checked level; a dim not yet assigned sits
    at its minimum row (`mins`, from its spatial pins). A partial
    assignment that already overflows a storage level can never extend to a
    valid mapping, so filtering on it preserves completeness."""

    def __init__(self, arch: Architecture, layer: Layer, cfg: SearchConfig):
        m = len(arch.levels)
        self.layer = layer
        self.checks = []
        for lvl in range(1, m - 1):
            keeps = effective_keeps(arch, cfg.keep_overrides, lvl)
            if keeps:
                self.checks.append(
                    (lvl, tuple(keeps), arch.levels[lvl].component.capacity_bits))
        self.mins = tuple(
            tuple(math.prod(cfg.fixed_spatial.get((j, d), 1)
                            for j in range(lvl + 1, m))
                  for lvl, _, _ in self.checks)
            for d in DIMS)
        self.verdicts: dict[tuple, bool] = {}

    def row(self, chain: tuple[int, ...]) -> tuple[int, ...]:
        """Tile extent of one dim's chain at each checked level: the
        product of its factors below that level."""

        return tuple(math.prod(chain[2 * lvl + 1:]) for lvl, _, _ in self.checks)

    def ok(self, rows: tuple[tuple[int, ...], ...]) -> bool:
        """The condition over one extent row per dim, in DIMS order.
        Verdicts are kept for the search: chains that differ only in their
        factors above the checked levels have the same rows."""

        verdict = self.verdicts.get(rows)
        if verdict is None:
            verdict = self.verdicts[rows] = all(
                sum(kept_bits(self.layer, dict(zip(DIMS, tbs)), keeps).values())
                <= cap
                for (_, keeps, cap), tbs in zip(self.checks, zip(*rows)))
        return verdict


def _origin_floor(arch: Architecture, cfg: SearchConfig, d: str) -> int:
    """Leading chain positions forced to 1 for dim d: a tensor born above
    the backing store may not factor above its origin keeper or split
    spatially into it. Its own temporal slot stays open."""

    floor = 0
    for t in TENSORS:
        if d not in TENSOR_DIMS[t]:
            continue
        keepers = keeper_levels(arch, cfg.keep_overrides, t)
        if keepers and keepers[0] > 0:
            floor = max(floor, 2 * keepers[0])
    return floor


def _dim_chains(arch: Architecture, layer: Layer, d: str, cfg: SearchConfig,
                cap: _CapacityCheck) -> list[tuple[int, ...]]:
    """Candidate factor chains [t0, s1, t1, ...] for one dim that pass the
    search's capacity condition `cap` on their own."""

    m = len(arch.levels)
    di = DIMS.index(d)

    def cap_ok(chain: tuple[int, ...]) -> bool:
        return cap.ok(cap.mins[:di] + (cap.row(chain),) + cap.mins[di + 1:])

    bound = layer.dims[d] * (cfg.batch_size if d == "N" else 1)
    pins = {lvl: f for (lvl, dd), f in cfg.fixed_spatial.items() if dd == d}
    floor = _origin_floor(arch, cfg, d)
    red_floor = (cfg.reduction_floor
                 if cfg.reduction_floor is not None and d in REDUCED_DIMS
                 else 0)

    def pin_ok(chain: tuple[int, ...]) -> bool:
        if any(chain[p] != 1 for p in range(floor)):
            return False
        if any(chain[2 * j] != 1 for j in range(red_floor)):
            return False
        for j in range(1, m):
            if j in pins and chain[2 * j - 1] != pins[j]:
                return False
            if chain[2 * j - 1] > arch.levels[j].fanout:
                return False
        return cap_ok(chain)

    if cfg.pad_mode == "strict":
        return [c for c in enumerate_factorizations(bound, 2 * m - 1) if pin_ok(c)]

    chains = []
    menus = []
    for j in range(1, m):
        if 2 * j - 1 < floor:
            if pins.get(j, 1) != 1:
                return []
            menus.append([1])
            continue
        if j in pins:
            menus.append([pins[j]])
            continue
        fan = arch.levels[j].fanout
        vals = {1}
        vals.update(v for v in divisors(bound) if v <= fan)
        vals.update(v for v in divisors(fan) if v <= 2 * bound)
        menus.append(sorted(vals))
    t_floor = max((floor + 1) // 2, red_floor)
    for svals in itertools.product(*menus):
        s_total = math.prod(svals)
        t_total = -(-bound // s_total)
        for tvals in enumerate_factorizations(t_total, m):
            if any(tvals[j] != 1 for j in range(t_floor)):
                continue
            chain = [tvals[0]]
            for j in range(1, m):
                chain.append(svals[j - 1])
                chain.append(tvals[j])
            if cap_ok(tuple(chain)):
                chains.append(tuple(chain))
    return chains


def _build_mapping(arch: Architecture, chains: dict[str, tuple[int, ...]],
                   perms: list[tuple[str, ...]], cfg: SearchConfig) -> Mapping:
    m = len(arch.levels)
    lms = []
    for j in range(m):
        temporal = {d: chains[d][2 * j] for d in DIMS}
        spatial = {} if j == 0 else {d: chains[d][2 * j - 1] for d in DIMS}
        lms.append(LevelMapping(temporal=temporal, spatial=spatial,
                                permutation=perms[j]))
    return Mapping(levels=tuple(lms), batch_size=cfg.batch_size,
                   keep_overrides=dict(cfg.keep_overrides),
                   pad=cfg.pad_mode == "pad")


def _refetch_forbidden(arch: Architecture,
                       cfg: SearchConfig) -> tuple[tuple[int, str], ...]:
    """Keeper levels whose tile can never be refetched: an edge on the
    refill path crosses signal domains with no descending converter for
    the tensor, so any mapping that revisits an evicted tile is invalid."""

    out = []
    for t in TENSORS:
        keepers = keeper_levels(arch, cfg.keep_overrides, t)
        for a, b in zip(keepers, keepers[1:]):
            for k in range(a + 1, b + 1):
                crosses = (arch.levels[k - 1].component.domain_out
                           != arch.levels[k].component.domain_in)
                if crosses and converter_at(arch, k, t, DOWN) is None:
                    out.append((b, t))
                    break
    return tuple(out)


def _nest_ok(own: int, other: int) -> bool:
    """Cross-level loop-order condition for one refetch-forbidden keeper at
    level b. `own` has bit j set where one of the tensor's dims iterates at
    level j (1 <= j <= b), `other` where another dim iterates at level j
    (j < b). A tensor dim iterating inside another dim's loop at an outer
    level would revisit evicted tiles. Checking a partial chain assignment
    is sound because adding dims only sets bits. Within-level order is
    enforced when permutations are drawn."""

    return not own or not other & ((1 << (own.bit_length() - 1)) - 1)


def _chain_table(chains: list[tuple[int, ...]], d: str, cap: _CapacityCheck,
                 forbidden: tuple[tuple[int, str], ...]
                 ) -> tuple[list[tuple], list[tuple[tuple, list[int]]]]:
    """What the feasibility filter reads of each chain of dim d's menu: its
    spatial row s1..s(M-1), its extent row at the capacity-checked levels,
    and the bits it adds to each refetch-forbidden keeper's (own, other)
    masks. Returns that row per chain, in menu order, and the menu grouped
    by row, each group listing its chains' menu indices."""

    table = []
    groups: dict[tuple, list[int]] = {}
    for i, chain in enumerate(chains):
        bits = sum(1 << j for j, f in enumerate(chain[0::2]) if f > 1)
        nest = tuple((bits & ((1 << (b + 1)) - 2), 0) if d in TENSOR_DIMS[t]
                     else (0, bits & ((1 << b) - 1))
                     for b, t in forbidden)
        row = (chain[1::2], cap.row(chain), nest)
        table.append(row)
        groups.setdefault(row, []).append(i)
    return table, list(groups.items())


def _feasible(groups: list[tuple[tuple, list[int]]], di: int,
              sprod: tuple[int, ...], rows: tuple[tuple[int, ...], ...],
              nest: tuple[tuple[int, int], ...], fanouts: list[int],
              cap: _CapacityCheck) -> list[int]:
    """Menu indices, in menu order, of the chains of dim DIMS[di] that the
    fanout budgets, the capacity condition and the loop-nest condition
    still allow once the dims before it are assigned. `sprod` holds their
    spatial products at levels 1..M-1, `rows` one extent row per dim (the
    minimum row for dims not yet assigned) and `nest` their OR-ed masks:
    exactly what the predicates read."""

    out = []
    for (spatial, extent, adds), members in groups:
        if any(p * s > f for p, s, f in zip(sprod, spatial, fanouts)):
            continue
        if not all(_nest_ok(o | a, x | b)
                   for (o, x), (a, b) in zip(nest, adds)):
            continue
        if cap.ok(rows[:di] + (extent,) + rows[di + 1:]):
            out.extend(members)
    out.sort()
    return out


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
                 forbidden: tuple[tuple[int, str], ...]) -> list[tuple[str, ...]]:
    """Orderings of this level's live loops that keep every
    refetch-forbidden tensor's dims ahead of other dims. The keeper level's
    own loops take part: its temporal loops also cycle the kept tile."""

    blocks = [TENSOR_DIMS[t] for b, t in forbidden if level <= b]
    if not blocks:
        return list(itertools.permutations(live))
    return [p for p in itertools.permutations(live)
            if all(_block_leads(p, dims) for dims in blocks)]


def _objective_of(res: EvaluationResult, objective: str) -> float:
    if objective == "energy":
        return res.total_energy_pj
    if objective == "delay":
        return float(res.cycles)
    return res.total_energy_pj * res.latency_s


def _delay_floor(arch: Architecture, layer: Layer, mapping: Mapping) -> int:
    """A value never exceeding the candidate's cycles: its step count, once
    the mapping validates. Raises MappingError where evaluation would."""

    validate_mapping(mapping, layer, arch)
    return mapping.nest.steps


def _perm_menu(chains: dict[str, tuple[int, ...]], level: int) -> list[str]:
    return [d for d in DIMS if chains[d][2 * level] > 1]


class _Best:
    def __init__(self, objective: str):
        self.objective = objective
        self.value: float | None = None
        self.digest: str | None = None
        self.mapping: Mapping | None = None
        self.evaluation: EvaluationResult | None = None

    def offer(self, mapping: Mapping, res: EvaluationResult) -> None:
        val = _objective_of(res, self.objective)
        dig = res.mapping_digest
        if (self.value is None or val < self.value
                or (val == self.value and dig < self.digest)):
            self.value, self.digest = val, dig
            self.mapping, self.evaluation = mapping, res


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

    cap = _CapacityCheck(arch, layer, cfg)
    chain_menu = {d: _dim_chains(arch, layer, d, cfg, cap) for d in DIMS}
    for d, menu in chain_menu.items():
        if not menu:
            raise NoValidMapping(
                layer.name, f"no factor chain satisfies the pins for dim {d}")

    best = _Best(cfg.objective)
    visited = pruned = invalid = 0
    prune = cfg.strategy == "pruned_random" and cfg.objective == "delay"

    def consider(chains: dict[str, tuple[int, ...]],
                 perms: list[tuple[str, ...]]) -> None:
        nonlocal visited, pruned, invalid
        mapping = _build_mapping(arch, chains, perms, cfg)
        try:
            if (prune and best.value is not None
                    and _delay_floor(arch, layer, mapping) >= best.value):
                pruned += 1
                return
            res = evaluate(arch, layer, mapping)
        except MappingError:
            invalid += 1
            return
        visited += 1
        best.offer(mapping, res)

    if cfg.strategy == "exhaustive":
        m = len(arch.levels)
        fanouts = [lv.fanout for lv in arch.levels]
        space = 0

        def assign(di: int, chains: dict[str, tuple[int, ...]],
                   sprod: list[int]) -> None:
            nonlocal space
            if di == len(DIMS):
                perm_sets = [_perm_menu(chains, j) for j in range(m)]
                for perm_combo in itertools.product(
                        *(itertools.permutations(ps) for ps in perm_sets)):
                    space += 1
                    if space > cfg.max_space:
                        raise SearchError(
                            f"exhaustive space exceeds {cfg.max_space}; use "
                            "pruned_random")
                    consider(chains, list(perm_combo))
                return
            d = DIMS[di]
            for chain in chain_menu[d]:
                nxt = sprod[:]
                ok = True
                for j in range(1, m):
                    nxt[j] *= chain[2 * j - 1]
                    if nxt[j] > fanouts[j]:
                        ok = False
                        break
                if ok:
                    chains[d] = chain
                    assign(di + 1, chains, nxt)
                    del chains[d]

        assign(0, {}, [1] * m)
    else:
        # pruned_random: assign dims one at a time, keeping only chains the
        # running fanout budgets, capacity and loop-nest conditions still
        # allow. Every valid complete assignment stays reachable (the
        # conditions are necessary), so with enough budget this covers the
        # same space. The feasible lists are cached under the state the
        # conditions read, which many chain prefixes share.
        rng = random.Random(cfg.seed)
        m = len(arch.levels)
        fanouts = [lv.fanout for lv in arch.levels[1:]]
        forbidden = _refetch_forbidden(arch, cfg)
        tables = [_chain_table(chain_menu[d], d, cap, forbidden) for d in DIMS]
        perm_cache: dict[tuple[int, tuple[str, ...]], list] = {}
        feas_cache: dict[tuple, list[int]] = {}
        for _ in range(cfg.budget):
            chains: dict[str, tuple[int, ...]] = {}
            sprod = (1,) * (m - 1)
            rows = cap.mins
            nest = ((0, 0),) * len(forbidden)
            dead = False
            for di, d in enumerate(DIMS):
                table, groups = tables[di]
                key = (di, sprod, rows, nest)
                feasible = feas_cache.get(key)
                if feasible is None:
                    feasible = _feasible(groups, di, sprod, rows, nest,
                                         fanouts, cap)
                    feas_cache[key] = feasible
                if not feasible:
                    dead = True
                    break
                pick = rng.choice(feasible)
                chains[d] = chain_menu[d][pick]
                spatial, extent, adds = table[pick]
                sprod = tuple(p * s for p, s in zip(sprod, spatial))
                rows = rows[:di] + (extent,) + rows[di + 1:]
                nest = tuple((o | a, x | b)
                             for (o, x), (a, b) in zip(nest, adds))
            if not dead:
                perms = []
                for j in range(m):
                    live = tuple(_perm_menu(chains, j))
                    key = (j, live)
                    if key not in perm_cache:
                        perm_cache[key] = _valid_perms(live, j, forbidden)
                    options = perm_cache[key]
                    if not options:
                        dead = True
                        break
                    perms.append(options[rng.randrange(len(options))])
            if dead:
                invalid += 1
                continue
            consider(chains, perms)

    if best.mapping is None:
        raise NoValidMapping(layer.name, "no valid mapping found in budget")
    return SearchResult(mapping=best.mapping, objective=best.value,
                        evaluation=best.evaluation, visited=visited,
                        pruned=pruned, invalid=invalid)
