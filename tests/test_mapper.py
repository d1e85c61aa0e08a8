import collections
import functools
import itertools
import math
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_model import albireo, mapper, reuse
from photon_model.evaluator import evaluate
from photon_model.reuse import analyze
from photon_model.mapper import (
    OBJECTIVES,
    NoValidMapping,
    SearchConfig,
    SearchError,
    divisors,
    enumerate_factorizations,
    search,
)
from photon_model.spec_model import (
    DIMS,
    INPUTS,
    OUTPUTS,
    REDUCED_DIMS,
    TENSOR_DIMS,
    TENSORS,
    WEIGHTS,
    Architecture,
    Layer,
    Level,
    LevelMapping,
    Mapping,
    MappingError,
    Mesh,
    demand,
    leads,
    mapping_digest,
    stencil_pins,
    validate_mapping,
    validation_plan,
)
from photon_model.workloads import load_workload

import toys
from randgen import random_instance
from toys import refetch_toy


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]


def test_enumerate_factorizations():
    assert set(enumerate_factorizations(4, 2)) == {(1, 4), (2, 2), (4, 1)}
    assert enumerate_factorizations(1, 3) == [(1, 1, 1)]
    assert enumerate_factorizations(1, 0) == [()]
    assert enumerate_factorizations(3, 0) == []
    six = enumerate_factorizations(6, 2)
    assert set(six) == {(1, 6), (2, 3), (3, 2), (6, 1)}
    assert len(six) == 4
    for bound, slots in ((8, 3), (12, 2)):
        for tup in enumerate_factorizations(bound, slots):
            prod = 1
            for f in tup:
                prod *= f
            assert prod == bound


def _splits(bound, slots):
    # Independent of the implementation under test.
    if slots == 1:
        return [(bound,)]
    out = []
    for d in range(1, bound + 1):
        if bound % d == 0:
            out.extend((d,) + rest for rest in _splits(bound // d, slots - 1))
    return out


def brute_force_best(arch, layer, objective="energy", keep_overrides=None):
    """Full enumeration: every (t0, s1, t1, s2, ...) split of every dim over
    the architecture's levels, every permutation of the active temporal
    dims per level."""

    m = len(arch.levels)
    active = [d for d in DIMS if layer.dims[d] > 1]
    best = None
    count = 0
    for combo in itertools.product(*(_splits(layer.dims[d], 2 * m - 1)
                                     for d in active)):
        temporal = [{d: c[2 * j] for d, c in zip(active, combo)}
                    for j in range(m)]
        spatial = [{}] + [{d: c[2 * j - 1] for d, c in zip(active, combo)}
                          for j in range(1, m)]
        live = [[d for d in active if temporal[j][d] > 1] for j in range(m)]
        for perms in itertools.product(*(itertools.permutations(ds)
                                         for ds in live)):
            mp = Mapping(levels=tuple(
                LevelMapping(temporal=temporal[j], spatial=spatial[j],
                             permutation=perms[j]) for j in range(m)),
                keep_overrides=dict(keep_overrides or {}))
            try:
                validate_mapping(mp, layer, arch)
                res = evaluate(arch, layer, mp)
            except MappingError:
                continue
            count += 1
            val = (res.total_energy_pj if objective == "energy"
                   else float(res.cycles))
            if best is None or val < best:
                best = val
    return best, count


def toy_arch(fanout, crossing):
    if crossing:
        return toys.fanout_converter_arch(fanout)
    return Architecture(
        name="toy", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 24), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), fanout, ())),
        meshes=(Mesh(may_multicast=True),), converters=())


TOY_CASES = [
    (1, False, {"K": 4, "C": 4}),
    (2, False, {"K": 4, "C": 6}),
    (4, True, {"K": 8, "C": 2}),
    (4, False, {"N": 2, "K": 4, "C": 2, "P": 2}),
    (2, True, {"K": 2, "C": 3, "P": 2, "Q": 2}),
    (4, True, {"K": 4, "C": 4}),
]


def toy_layer(dims):
    full = {d: 1 for d in DIMS}
    full.update(dims)
    kind = ("fully_connected"
            if all(full[d] == 1 for d in ("R", "S", "P", "Q")) else "conv")
    return Layer(name="toy", kind=kind, dims=full)


def test_exhaustive_matches_independent_enumeration():
    for fanout, crossing, dims in TOY_CASES:
        arch = toy_arch(fanout, crossing)
        layer = toy_layer(dims)
        want, space = brute_force_best(arch, layer)
        assert space >= 1
        cfg = SearchConfig(objective="energy", budget=100000,
                           strategy="exhaustive")
        res = search(arch, layer, cfg)
        assert res.objective == want
        validate_mapping(res.mapping, layer, arch)
        # The filtered walk meets every valid mapping and nothing else.
        assert (res.visited, res.invalid) == (space, 0)


def test_pruned_random_matches_exhaustive_with_budget():
    hits = 0
    for fanout, crossing, dims in TOY_CASES:
        arch = toy_arch(fanout, crossing)
        layer = toy_layer(dims)
        want, _space = brute_force_best(arch, layer)
        cfg = SearchConfig(objective="energy", budget=3000, seed=11,
                           strategy="pruned_random")
        res = search(arch, layer, cfg)
        validate_mapping(res.mapping, layer, arch)
        assert res.objective >= want or res.objective == pytest.approx(want)
        hits += res.objective == pytest.approx(want)
    assert hits >= len(TOY_CASES) - 1


# (buffer bits, layer dims, keep overrides). Without an override the
# buffered Outputs may not be refetched; the consumer override makes Inputs
# a fused intermediate born in the buffer, the producer override Outputs.
KEEPER_CASES = [
    (96, {"K": 4, "C": 4}, {}),
    (96, {"K": 4, "C": 4}, {0: ("Weights", "Outputs")}),
    (96, {"K": 4, "C": 4}, {0: ("Weights", "Inputs")}),
    (128, {"K": 2, "C": 4, "P": 2}, {}),
    (128, {"K": 2, "C": 4, "P": 2}, {0: ("Weights", "Outputs")}),
]


def test_keeper_chain_filters_keep_the_optimum_under_keep_overrides():
    for bits, dims, overrides in KEEPER_CASES:
        arch = refetch_toy(bits)
        layer = toy_layer(dims)
        want, space = brute_force_best(arch, layer, keep_overrides=overrides)
        # The sampler's budget exceeds the number of valid mappings.
        assert 1 <= space < 500
        ex = search(arch, layer, SearchConfig(
            objective="energy", budget=1, strategy="exhaustive",
            keep_overrides=overrides))
        pr = search(arch, layer, SearchConfig(
            objective="energy", budget=500, seed=11,
            strategy="pruned_random", keep_overrides=overrides))
        for res in (ex, pr):
            validate_mapping(res.mapping, layer, arch)
            assert res.mapping.keep_overrides == overrides
        assert ex.objective == pytest.approx(want)
        assert pr.objective == pytest.approx(ex.objective)
        # Both walk the filter, which drops every mapping the origin,
        # refetch and capacity rules reject and keeps every other.
        assert (ex.visited, ex.invalid) == (space, 0)
        assert pr.invalid == 0


def test_single_candidate_space():
    res = search(toys.fc_direct(), toys.ones_layer(),
                 SearchConfig(strategy="exhaustive", budget=10))
    assert res.visited == 1


def test_search_is_deterministic():
    arch = toys.fanout_converter_arch(4)
    layer = toy_layer({"K": 8, "C": 4, "P": 2, "Q": 2})
    cfg = SearchConfig(objective="energy", budget=300, seed=42,
                       strategy="pruned_random")
    r1 = search(arch, layer, cfg)
    r2 = search(arch, layer, cfg)
    assert mapping_digest(r1.mapping) == mapping_digest(r2.mapping)
    assert r1.objective == r2.objective
    assert r1.visited == r2.visited


def test_search_result_is_frozen():
    res = search(toys.fc_direct(), toys.ones_layer(),
                 SearchConfig(strategy="exhaustive", budget=10))
    with pytest.raises(FrozenInstanceError):
        res.objective = 0.0


def test_search_shares_one_result_across_layer_names():
    arch = toys.fanout_converter_arch(4)
    first = toy_layer({"K": 8, "C": 4, "P": 2})
    second = replace(first, name="same_shape")
    cfg = SearchConfig(objective="delay", budget=150, seed=5)
    res = search(arch, first, cfg)
    assert search(arch, second, cfg) is res
    assert res == mapper._search(arch, second, cfg)


def test_search_never_shares_across_component_content():
    # Same component names, different contents: each edited copy is an
    # instance of its own and never reads a result kept on another.
    base = toys.fc_weight_buffer(buf_bits=1 << 10)
    wbuf = base.levels[1]
    small = replace(base, levels=(base.levels[0], replace(
        wbuf, component=replace(wbuf.component, capacity_bits=16)),
        base.levels[2]))
    dear = replace(base, levels=(base.levels[0], replace(
        wbuf, component=replace(wbuf.component, energy_per_action={
            a: 7 * e for a, e in wbuf.component.energy_per_action.items()})),
        base.levels[2]))
    layer = toy_layer({"K": 4, "C": 8})
    cfg = SearchConfig(objective="energy", budget=1, strategy="exhaustive")
    results = [search(a, layer, cfg) for a in (base, small, dear)]
    for arch, res in zip((base, small, dear), results):
        assert res == mapper._search(arch, layer, cfg)
    assert len({(r.evaluation.mapping_digest, r.objective)
                for r in results}) == 3


def test_failed_search_is_not_kept():
    arch = toys.fanout_converter_arch(4)
    cfg = SearchConfig(strategy="exhaustive", budget=10,
                       fixed_spatial={(1, "K"): 8})
    for name in ("first", "second"):
        layer = replace(toy_layer({"K": 8}), name=name)
        with pytest.raises(NoValidMapping) as err:
            search(arch, layer, cfg)
        assert err.value.layer == name


def test_equal_architectures_each_search_afresh(monkeypatch):
    # A result is kept on the architecture that was searched, never on
    # another of equal content: each searches once, and they agree.
    ran = []
    search_once = mapper._search

    def counted(*args):
        ran.append(args[0])
        return search_once(*args)

    monkeypatch.setattr(mapper, "_search", counted)
    first, second = albireo.architecture(), albireo.architecture()
    layer = toy_layer({"K": 8, "C": 4, "P": 2})
    cfg = SearchConfig(objective="energy", budget=40, seed=3)
    got = [search(arch, layer, cfg) for arch in (first, second, first)]
    # Equal content compares equal, so the runs are matched by identity.
    assert [id(arch) for arch in ran] == [id(first), id(second)]
    assert got[0] is got[2]
    assert got[0] is not got[1]
    assert got[0] == got[1]


def test_a_repeated_kept_tensor_is_charged_once():
    # Validation charges each kept tensor once however often an override
    # names it; the search's capacity check must agree, or it drops valid
    # mappings.
    arch = toys.fc_weight_buffer(buf_bits=96)
    layer = toy_layer({"K": 4, "C": 6})
    plain, repeated = [search(arch, layer, SearchConfig(
        strategy="exhaustive", keep_overrides=overrides))
        for overrides in ({}, {1: (WEIGHTS, WEIGHTS)})]
    assert repeated.visited == plain.visited == 103
    assert repeated.objective == plain.objective
    assert replace(repeated.mapping, keep_overrides={}) == plain.mapping


def test_step_floor_is_the_nest_step_count():
    # The delay floor is the product of the drawn chains' temporal factors,
    # taken before the mapping is built. On every instance evaluate
    # accepts, it equals the nest's step count and never exceeds the cycles.
    rng = random.Random(2024)
    for _ in range(200):
        arch, layer, mapping = random_instance(rng)
        ev = evaluate(arch, layer, mapping)
        top, *rest = mapping.levels
        chains = {d: (top.t(d),) + tuple(f for lm in rest
                                         for f in (lm.s(d), lm.t(d)))
                  for d in DIMS}
        floor = math.prod(math.prod(c[0::2]) for c in chains.values())
        assert floor == mapping.nest.steps <= ev.cycles


def _validate_counted(monkeypatch):
    """Make every search validate the mapping of each candidate it counts,
    that is each one it prices. Returns the list of (layer name, error
    kind) rejections and a one-item list holding the number of candidates
    counted."""

    rejected, counted = [], [0]
    objective = mapper._Pricer.objective

    def checked(self, picks, perms, steps):
        counted[0] += 1
        try:
            validate_mapping(self.mapping(picks, perms), self.layer,
                             self.arch)
        except MappingError as err:
            rejected.append((self.layer.name, err.kind))
        return objective(self, picks, perms, steps)

    monkeypatch.setattr(mapper._Pricer, "objective", checked)
    return rejected, counted


def _walk_or_draw(arch, layer, fields, budget):
    """Search over the energy objective, which prunes nothing: exhaustively
    where the chain assignments before the filter fit in max_space and the
    walk stays within it, else by budget draws. Returns the strategy and
    the result, or None when the space holds no valid mapping."""

    cfg = SearchConfig(max_space=2000, **fields)
    cap = mapper._CapacityCheck(arch, layer, cfg)
    assignments = math.prod(len(_menu(arch, layer, d, cfg, cap))
                            for d in DIMS)
    strategies = ("exhaustive",) * (assignments <= cfg.max_space)
    for strategy in strategies + ("pruned_random",):
        try:
            return strategy, mapper._search(arch, layer, replace(
                cfg, strategy=strategy, budget=budget, seed=7))
        except SearchError:
            continue
        except NoValidMapping:
            return None


@pytest.mark.parametrize("pad_mode", ["strict", "pad"])
def test_every_counted_candidate_validates_on_strict_cases(pad_mode,
                                                           monkeypatch):
    # The search counts a candidate without validating it: the filter
    # proves every condition. A walk over a space past max_space
    # validates its first max_space candidates.
    rejected, counted = _validate_counted(monkeypatch)
    for arch, layer, fields in _strict_cases():
        _walk_or_draw(arch, layer, {**fields, "pad_mode": pad_mode}, 60)
    assert rejected == []
    assert counted[0] > 0


def test_every_counted_candidate_validates_on_random_architectures(
        monkeypatch):
    # randgen sizes every store for any tile; here each storage level
    # gets a capacity drawn around the layer's demand, so the filter's
    # capacity condition binds, the backing store's included. No
    # exhaustive walk meets an invalid candidate.
    rejected, counted = _validate_counted(monkeypatch)
    rng = random.Random(18)
    results = []
    for _ in range(40):
        arch, layer, _ = random_instance(rng, max_dim=4)
        total = demand(layer, layer.dims, TENSORS)
        levels = tuple(
            replace(lv, component=replace(
                lv.component,
                capacity_bits=rng.choice((total // 8, total // 2,
                                          total, 2 * total))))
            if lv.keeps else lv for lv in arch.levels)
        fields = {"pad_mode": rng.choice(("strict", "pad"))}
        found = _walk_or_draw(replace(arch, levels=levels), layer, fields, 60)
        if found is not None:
            results.append(found)
    assert rejected == []
    assert counted[0] > 0 and 0 < len(results) < 40
    walked = [res for strategy, res in results if strategy == "exhaustive"]
    assert walked and all(res.invalid == 0 for res in walked)


@pytest.mark.parametrize("workload", ["vgg16", "alexnet"])
def test_every_counted_candidate_validates_on_shipped_geometry(workload,
                                                              monkeypatch):
    # The studies' pins and keep overrides, by budget draws: no layer's
    # space fits max_space. The energy objective builds every draw; the
    # draws do not depend on the objective, and the delay objective builds
    # a subset of them.
    arch = albireo.architecture("aggressive")
    rejected, counted = _validate_counted(monkeypatch)
    for layer, keep in itertools.product(load_workload(workload).layers,
                                         FUSED_OVERRIDES):
        cfg = SearchConfig(budget=40, seed=7, pad_mode="pad",
                           keep_overrides=keep,
                           fixed_spatial=stencil_pins(layer, arch))
        mapper._search(arch, layer, cfg)
    assert rejected == []
    assert counted[0] > 0


def test_exhaustive_meets_no_invalid_candidate_on_shipped_geometry(
        monkeypatch):
    # The fully connected layers' spaces fit max_space under the studies'
    # pins in pad mode: the walk builds every candidate it completes, and
    # each one validates.
    arch = albireo.architecture("aggressive")
    rejected, counted = _validate_counted(monkeypatch)
    vgg = {l.name: l for l in load_workload("vgg16").layers}
    alex = {l.name: l for l in load_workload("alexnet").layers}
    for layer, keep in itertools.product(
            (vgg["fc7"], vgg["fc8"], alex["fc8"]), FUSED_OVERRIDES):
        cfg = SearchConfig(strategy="exhaustive", pad_mode="pad",
                           keep_overrides=keep,
                           fixed_spatial=stencil_pins(layer, arch))
        res = mapper._search(arch, layer, cfg)
        assert res.invalid == 0 and res.visited > 0
    assert rejected == []
    assert counted[0] > 0


@pytest.mark.parametrize("strategy", ["exhaustive", "pruned_random"])
@pytest.mark.parametrize("tensor", TENSORS)
def test_a_tensor_kept_nowhere_leaves_no_mapping_to_count(tensor, strategy,
                                                          monkeypatch):
    # Overrides that drop a tensor from every level name real levels and
    # add nothing, but validate_mapping rejects every candidate:
    # the search raises NoValidMapping and counts none of them.
    arch = toys.fanout_converter_arch(4)
    overrides = {i: tuple(t for t in lv.keeps if t != tensor)
                 for i, lv in enumerate(arch.levels) if tensor in lv.keeps}
    cfg = SearchConfig(strategy=strategy, budget=20, keep_overrides=overrides)
    rejected, counted = _validate_counted(monkeypatch)
    with pytest.raises(NoValidMapping, match=f"no level keeps tensor {tensor}"):
        search(arch, toy_layer({"K": 3, "C": 3}), cfg)
    assert counted == [0]


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_every_candidate_is_visited_pruned_or_invalid(objective):
    # Only the delay objective has a pruning floor.
    arch = toys.fanout_converter_arch(4)
    layer = toy_layer({"K": 8, "C": 4, "P": 2})
    cfg = SearchConfig(objective=objective, budget=60, seed=3)
    res = search(arch, layer, cfg)
    assert res.visited + res.pruned + res.invalid == cfg.budget
    if objective == "delay":
        assert res.pruned > 0
    else:
        assert res.pruned == 0


def test_objective_scale_invariance():
    # Uniformly scaling every component energy leaves the argmin mapping
    # unchanged and scales the objective by the same factor.
    def scaled(arch, s):
        levels = tuple(replace(
            lv, component=replace(
                lv.component,
                energy_per_action={a: e * s for a, e
                                   in lv.component.energy_per_action.items()},
                static_power_mw=lv.component.static_power_mw * s))
            for lv in arch.levels)
        convs = tuple(replace(
            cv, component=replace(
                cv.component,
                energy_per_action={a: e * s for a, e
                                   in cv.component.energy_per_action.items()}))
            for cv in arch.converters)
        return replace(arch, levels=levels, converters=convs)

    base = toys.fanout_converter_arch(4)
    layer = toy_layer({"K": 8, "C": 4, "P": 2})
    cfg = SearchConfig(objective="energy", budget=100000,
                       strategy="exhaustive")
    r1 = search(base, layer, cfg)
    r3 = search(scaled(base, 3.0), layer, cfg)
    assert mapping_digest(r1.mapping) == mapping_digest(r3.mapping)
    assert r3.objective == pytest.approx(3.0 * r1.objective)


def test_keeping_weights_beats_bypassing_them():
    # Same loops either staging weights through a cheap buffer or pulling
    # every access from the expensive store.
    arch = Architecture(
        name="pref", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 24,
                                            read=100.0), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("wbuf", toys.storage("wreg", "DE", 1 << 12), 1,
                      ("Weights",)),
                Level("pe", toys.compute("mac", "DE"), 1, ())),
        meshes=(Mesh(), Mesh()), converters=())
    layer = toy_layer({"N": 4, "K": 4, "C": 4})
    loops = (LevelMapping(temporal={"N": 4}),
             LevelMapping(),
             LevelMapping(temporal={"K": 4, "C": 4}))
    kept = evaluate(arch, layer, Mapping(levels=loops))
    bypassed = evaluate(arch, layer,
                        Mapping(levels=loops, keep_overrides={1: ()}))
    kept_w = kept.counts.per_level[(0, "Weights")].reads
    byp_w = bypassed.counts.per_level[(0, "Weights")].reads
    assert kept_w < byp_w
    assert kept.total_energy_pj < bypassed.total_energy_pj


def test_no_valid_mapping_when_pins_cannot_fit():
    # A pin past its fanout leaves the dim no chain in either mode; pad
    # mode used to draw its whole budget and then report nothing found.
    arch = toys.fanout_converter_arch(4)
    layer = toy_layer({"K": 8})
    for pad_mode, strategy in itertools.product(("strict", "pad"),
                                                ("exhaustive",
                                                 "pruned_random")):
        cfg = SearchConfig(strategy=strategy, budget=10, pad_mode=pad_mode,
                           fixed_spatial={(1, "K"): 8})
        with pytest.raises(NoValidMapping, match="dim K"):
            search(arch, layer, cfg)


def _store_bits(arch, bits):
    store = arch.levels[0]
    return replace(arch, levels=(replace(store, component=replace(
        store.component, capacity_bits=bits)),) + arch.levels[1:])


@pytest.mark.parametrize("arch, fields, message", [
    (albireo.architecture("aggressive"), {"fixed_spatial": {(3, "K"): 1000}},
     "dim K's pin 1000 at level 3 exceeds the level's fanout 672"),
    (albireo.architecture("aggressive"), {"fixed_spatial": {(3, "C"): 700}},
     "dim C's pin 700 at level 3 exceeds the level's fanout 672"),
    # Outputs are born in the buffer, so K may not split into it.
    (refetch_toy(1 << 10), {"fixed_spatial": {(1, "K"): 2},
                            "keep_overrides": {0: (INPUTS, WEIGHTS)}},
     "dim K's pin 2 at level 1 is at or above its origin level 1, where only "
     "1 may split"),
    # No pin fails: the capacity check empties N's menu first.
    (_store_bits(albireo.architecture("aggressive"), 8),
     {"fixed_spatial": {(3, "K"): 4}},
     "no factor chain for dim N fits its pins and the storage capacities"),
], ids=["K-past-fanout", "C-past-fanout", "K-above-origin", "capacity"])
def test_a_pin_that_cannot_fit_is_named(arch, fields, message):
    # The pins are checked before any capacity filter. A pin past its
    # fanout used to blow up its dim's minimum row, which emptied the menu
    # of the first dim checked, N, and blamed it.
    layer = next(l for l in load_workload("alexnet").layers
                 if l.name == "fc8")
    cfg = SearchConfig(budget=20, pad_mode="pad", **fields)
    with pytest.raises(NoValidMapping) as err:
        mapper._search(arch, layer, cfg)
    assert str(err.value) == f"fc8: {message}"


def test_the_filter_keeps_the_backing_store_within_its_capacity():
    # The filter charges the backing store at the padded extent, as
    # validation does, so no candidate overflows it. A 120-bit store
    # holds the 3x3 fc layer's 120 bits only unpadded; at 119 bits no
    # chain fits and the menus come out empty.
    layer = toy_layer({"K": 3, "C": 3})
    roomy = _store_bits(toys.fanout_converter_arch(4), 120)
    cfgs = (SearchConfig(pad_mode="pad", strategy="exhaustive"),
            SearchConfig(pad_mode="pad", budget=50, seed=1))
    got = [search(roomy, layer, cfg) for cfg in cfgs]
    assert [(r.visited, r.pruned, r.invalid) for r in got] == [
        (10, 0, 0), (50, 0, 0)]
    for res in got:
        validate_mapping(res.mapping, layer, roomy)
    assert got[0].objective == got[1].objective
    tight = _store_bits(roomy, 119)
    for cfg in cfgs:
        with pytest.raises(NoValidMapping,
                           match="dim N fits its pins and the storage"):
            search(tight, layer, cfg)


def test_exhaustive_space_bound():
    arch = toys.fanout_converter_arch(4)
    layer = toy_layer({"N": 6, "K": 12, "C": 12, "P": 6, "Q": 6})
    cfg = SearchConfig(strategy="exhaustive", budget=10, max_space=50)
    with pytest.raises(SearchError):
        search(arch, layer, cfg)


def test_max_space_bounds_the_exhaustive_walk(monkeypatch):
    # Unpinned, most of conv5_1's partial assignments dead-end in the
    # filter: the walk used to make millions of filter steps before it
    # completed max_space candidates. It stops past len(DIMS) * max_space.
    arch = albireo.architecture("aggressive")
    layer = next(l for l in load_workload("vgg16").layers
                 if l.name == "conv5_1")
    calls = [0]
    feasible = mapper._MenuFilter.feasible

    def counted(self, *args):
        calls[0] += 1
        return feasible(self, *args)

    monkeypatch.setattr(mapper._MenuFilter, "feasible", counted)
    cfg = SearchConfig(strategy="exhaustive", pad_mode="pad", max_space=20)
    with pytest.raises(SearchError, match="filter steps"):
        mapper._search(arch, layer, cfg)
    assert 0 < calls[0] <= len(DIMS) * cfg.max_space


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(objective="speed")
    with pytest.raises(ValueError):
        SearchConfig(strategy="genetic")
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError):
        SearchConfig(pad_mode="round")
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        SearchConfig(batch_size=0)
    # Accepted before, and the walk then failed on its -35 filter steps.
    with pytest.raises(ValueError, match="max_space must be >= 1"):
        SearchConfig(strategy="exhaustive", max_space=-5)
    with pytest.raises(ValueError, match="max_space must be >= 1"):
        SearchConfig(max_space=0)
    # Each of these failed late: reduction_floor=1.5 recursed without end
    # in enumerate_factorizations, budget=2.5 and batch_size=2.0 raised a
    # bare TypeError, max_space=2.5 raised SearchError, and batch_size=True
    # searched to a mapping validate_mapping rejects.
    for name, value in (("budget", 2.5), ("budget", True), ("budget", "9"),
                        ("max_space", 2.5), ("max_space", True),
                        ("batch_size", 2.0), ("batch_size", True),
                        ("reduction_floor", 1.5), ("reduction_floor", False),
                        ("seed", None), ("seed", 1.5), ("seed", "abc"),
                        ("seed", True)):
        with pytest.raises(ValueError, match=f"{name} .* is not an integer"):
            SearchConfig(**{name: value})
    assert SearchConfig(reduction_floor=None).reduction_floor is None
    # seed=None drew from the OS, and a negative seed draws as its
    # absolute value does.
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SearchConfig(seed=-7)
    assert SearchConfig(seed=0).seed == 0


@pytest.mark.parametrize("pins", [
    {(3, "X"): 4},
    {(0, "K"): 4},
    {(-1, "K"): 4},
    {(3, "K"): 0},
    {(3, "K"): True},
    {(3, "K"): 2.0},
    {3: 8},
    {(1, "K", "x"): 2},
], ids=["unknown-dim", "level-0", "level-below-0", "zero-factor",
        "bool-factor", "float-factor", "bare-level", "three-part-key"])
def test_search_config_rejects_bad_pins(pins):
    # Each was silently ignored, crashed the menu build, or (a key that is
    # not a (level, dim) pair) raised TypeError or ValueError unpacking it.
    with pytest.raises(ValueError, match="fixed_spatial"):
        SearchConfig(fixed_spatial=pins)


@pytest.mark.parametrize("overrides", [
    {7: ("Weights",)},
    {3: ("Weights",)},
    {1: ("Wieghts",)},
    {1: "Weights"},
    {"1": ("Weights",)},
], ids=["level-past-the-architecture", "tensor-the-level-lacks",
        "misspelt-tensor", "bare-string", "string-level"])
def test_search_rejects_bad_keep_overrides(overrides):
    # The first two searched to NoValidMapping, the others raised KeyError
    # or TypeError from inside the search.
    arch = albireo.architecture("aggressive")
    layer = next(l for l in load_workload("alexnet").layers
                 if l.name == "fc8")
    with pytest.raises(ValueError, match="keep_overrides"):
        search(arch, layer, SearchConfig(budget=5, keep_overrides=overrides))


def test_search_rejects_a_pin_below_the_architecture():
    arch = albireo.architecture("aggressive")
    layer = next(l for l in load_workload("alexnet").layers
                 if l.name == "fc8")
    cfg = SearchConfig(budget=5, fixed_spatial={(len(arch.levels), "K"): 4})
    with pytest.raises(ValueError, match="fixed_spatial"):
        search(arch, layer, cfg)


def _strict_reference(arch, layer, d, cfg, cap):
    """A strict menu as it was first built: every factorization of the
    bound over all 2M-1 chain slots, in lexicographic order, kept if each
    spatial factor meets its pin and fanout, every slot above the dim's
    origin keeper is 1 (the origin's own temporal slot stays open), so is
    a reduced dim's every temporal slot above the reduction floor, and the
    chain passes the capacity condition on its own."""

    m = len(arch.levels)
    keepers = validation_plan(arch, cfg.keep_overrides).chains
    origin = max([keepers[t][0] for t in TENSORS
                  if d in TENSOR_DIMS[t] and keepers[t]] + [0])
    red = (cfg.reduction_floor or 0) if d in REDUCED_DIMS else 0
    limits = cap.limits(cap.mins, DIMS.index(d))
    bound = layer.dims[d] * (cfg.batch_size if d == "N" else 1)
    out = []
    for chain in enumerate_factorizations(bound, 2 * m - 1):
        if (any(chain[p] != 1 for p in range(2 * origin))
                or any(chain[2 * j] != 1 for j in range(red))
                or any(chain[2 * j - 1] > arch.levels[j].fanout
                       or chain[2 * j - 1] != cfg.fixed_spatial.get(
                           (j, d), chain[2 * j - 1])
                       for j in range(1, m))):
            continue
        if _fits(cap, _row(chain), limits):
            out.append(chain)
    return out


def _strict_cases():
    for fanout, crossing, dims in TOY_CASES:
        yield toy_arch(fanout, crossing), toy_layer(dims), {}
    for bits, dims, overrides in KEEPER_CASES:
        yield refetch_toy(bits), toy_layer(dims), {
            "keep_overrides": overrides}
        yield refetch_toy(bits), toy_layer(dims), {
            "keep_overrides": overrides, "reduction_floor": 1,
            "fixed_spatial": {(2, "K"): 2}}
    yield refetch_toy(128), toy_layer({"K": 4, "C": 4, "N": 2}), {
        "batch_size": 3, "fixed_spatial": {(1, "C"): 4}}
    aggressive = albireo.architecture("aggressive")
    vgg = {l.name: l for l in load_workload("vgg16").layers}
    alex = {l.name: l for l in load_workload("alexnet").layers}
    for layer in (vgg["conv5_1"], alex["conv1"], alex["fc8"]):
        for pins, keep, floor in itertools.product(
                (False, True), FUSED_OVERRIDES, (None, 2)):
            yield aggressive, layer, {
                "keep_overrides": keep, "reduction_floor": floor,
                "fixed_spatial": (stencil_pins(layer, aggressive) if pins
                                  else {})}


def test_strict_menus_match_the_filtered_factorizations():
    # Strict mode is pad mode's exact-cover case in _ChainTable; the
    # reference filters every factorization of the bound instead.
    sizes = []
    for arch, layer, fields in _strict_cases():
        cfg = SearchConfig(**fields)
        cap = mapper._CapacityCheck(arch, layer, cfg)
        for d in DIMS:
            menu = _menu(arch, layer, d, cfg, cap)
            assert menu == _strict_reference(arch, layer, d, cfg, cap)
            sizes.append(len(menu))
    assert 0 in sizes and max(sizes) > 1000


def test_skipping_limits_at_the_minimum_rows_changes_no_feasible_list(
        monkeypatch):
    # The walk skips limits for a dim whose chains all sit at its minimum
    # row, and leaves unchecked a level that fits the menus' largest
    # extents. Each case is searched as the search runs and again with
    # every level checked and limits asked at every step; the filter must
    # give the same lists.
    lists, skipped = [], []
    feasible = mapper._MenuFilter.feasible

    def recorded(self, sprod, limits, nest):
        out = feasible(self, sprod, limits, nest)
        lists.append(out)
        skipped.append(self.at_min)
        return out

    monkeypatch.setattr(mapper._MenuFilter, "feasible", recorded)
    runs = []
    for _ in range(2):
        lists.clear()
        for arch, layer, fields in _strict_cases():
            _walk_or_draw(arch, layer, fields, 30)
        runs.append(list(lists))
        if not runs[1:]:
            assert any(skipped) and not all(skipped)
            init = mapper._MenuFilter.__init__

            def never_at_min(self, *args):
                init(self, *args)
                self.at_min = False

            monkeypatch.setattr(mapper._MenuFilter, "__init__", never_at_min)
            monkeypatch.setattr(mapper._CapacityCheck, "narrow",
                                lambda self, tops: None)
            skipped.clear()
    assert not any(skipped)
    assert runs[0] == runs[1]


def test_reduction_floor_past_the_levels_leaves_only_spatial_chains():
    # Every temporal slot is held at 1, so the one chain left splits the
    # whole bound spatially.
    arch, layer = toy_arch(4, False), toy_layer({"K": 4, "C": 4})
    for pad_mode in ("strict", "pad"):
        cfg = SearchConfig(pad_mode=pad_mode, reduction_floor=5)
        cap = mapper._CapacityCheck(arch, layer, cfg)
        assert _menu(arch, layer, "C", cfg, cap) == [(1, 4, 1)]


# Searches on the bundled Albireo with its geometry pins in pad mode, and
# what each returned: (mapping digest, objective, visited, pruned,
# invalid). Frozen from the filter that re-checked every chain prefix; the
# cached filter must draw exactly the same candidates.
FROZEN_SEARCHES = {
    "vgg16-conv3_1-delay": (
        "vgg16", "conv3_1", {"objective": "delay"},
        ("b1p L0[t:P2|s:|o:P] L1[t:K2,P2,Q2|s:|o:KPQ] "
         "L2[t:K16,C32,P2,Q4|s:|o:PKQC] L3[t:P7,S3|s:K8,C4,Q7,R3|o:SP]",
         1376256.0, 39, 161, 0)),
    "vgg16-conv5_2-fused-consumer": (
        "vgg16", "conv5_2", {"keep_overrides": {0: ("Weights", "Outputs")}},
        ("b1p L0[t:K16|s:|o:K|k:Outputs,Weights] L1[t:|s:|o:] "
         "L2[t:K4,C128,P2,Q2|s:|o:KPQC] L3[t:P7,S3|s:K8,C4,Q7,R3|o:SP]",
         600050434.048, 189, 0, 11)),
    "vgg16-conv4_1-batch16": (
        "vgg16", "conv4_1", {"batch_size": 16},
        ("b16p L0[t:|s:|o:] L1[t:N4,P2,Q2|s:|o:PNQ] "
         "L2[t:N4,K64,C64,P7,Q2|s:|o:NPQKC] L3[t:P2,S3|s:K8,C4,Q7,R3|o:SP]",
         11952092348.416, 200, 0, 0)),
    "vgg16-conv2_1-reduction-floor": (
        "vgg16", "conv2_1", {"reduction_floor": 2},
        ("b1p L0[t:P4,Q4|s:|o:PQ] L1[t:|s:|o:] "
         "L2[t:K4,C16,P14,Q4,S3|s:|o:QPKSC] L3[t:K4,P2|s:K8,C4,Q7,R3|o:PK]",
         979108765.6959999, 200, 0, 0)),
    "alexnet-fc6": (
        "alexnet", "fc6", {},
        ("b1p L0[t:K16|s:|o:K] L1[t:K2|s:|o:K] L2[t:K2,C768|s:|o:KC] "
         "L3[t:K8,C3|s:K8,C4|o:CK]",
         4994162143.232, 106, 0, 94)),
    # Prunes and dead-ends in one delay search.
    "vgg16-conv4_2-delay": (
        "vgg16", "conv4_2", {"objective": "delay"},
        ("b1p L0[t:K32,P2,Q4|s:|o:PQK] L1[t:|s:|o:] "
         "L2[t:K2,C128,P2|s:|o:PKC] L3[t:P7,S3|s:K8,C4,Q7,R3|o:PS]",
         2752512.0, 29, 160, 11)),
    # Strict mode, unpinned; frozen from the menus that filtered every
    # factorization of the bound over all 2M-1 chain slots.
    "alexnet-fc8-strict": (
        "alexnet", "fc8", {"pad_mode": "strict", "fixed_spatial": {}},
        ("b1 L0[t:K20|s:|o:K] L1[t:|s:|o:] L2[t:K2,C128|s:|o:KC] "
         "L3[t:C2|s:K25,C16|o:C]",
         540960750.08, 188, 0, 12)),
    "vgg16-conv5_1-strict-delay": (
        "vgg16", "conv5_1", {"pad_mode": "strict", "fixed_spatial": {},
                             "objective": "delay"},
        ("b1 L0[t:|s:|o:] L1[t:K16,P2,Q2|s:|o:QPK] "
         "L2[t:K4,C128,S3|s:|o:KCS] L3[t:Q7|s:K8,C4,P7,R3|o:Q]",
         1069056.0, 16, 168, 16)),
}


@pytest.mark.parametrize("case", sorted(FROZEN_SEARCHES))
def test_pruned_random_draws_are_frozen(case):
    workload, name, fields, expected = FROZEN_SEARCHES[case]
    arch = albireo.architecture("aggressive")
    layer = next(l for l in load_workload(workload).layers if l.name == name)
    cfg = SearchConfig(**{"budget": 200, "seed": 7, "pad_mode": "pad",
                          "fixed_spatial": stencil_pins(layer, arch),
                          **fields})
    res = search(arch, layer, cfg)
    assert (res.evaluation.mapping_digest, res.objective, res.visited,
            res.pruned, res.invalid) == expected


class _Kept(int):
    """A pick standing for its kept child node, drawn before and holding a
    children map: each item of it reads as itself, never None, so step
    returns it as it is."""

    def __getitem__(self, i):
        return self


class _Built(dict):
    """A draw-tree node's children, every one built and drawn before: a
    pick's child is the pick itself."""

    def get(self, pick):
        return _Kept(pick)


class _Offered(mapper._OrderTable):
    """One level whose legal orders are the indices below n."""

    def __init__(self, n):
        self.n = n

    def options(self, signature):
        return [range(self.n)]


def test_a_pick_is_the_one_random_choice_and_randrange_make():
    # The draws pick from getrandbits themselves, as Random.choice (a
    # dim's chain) and Random.randrange (a level's loop order) do, so the
    # frozen searches and pinned reports hold. A Python whose random picks
    # otherwise fails here first.
    walk = object.__new__(mapper._Walk)
    for seed in range(10):
        picks = [None]
        mine, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 4097):
            node = (None, range(n), _Built())
            assert (walk.step(node, 0, mine.getrandbits, picks) == picks[0]
                    == ref.choice(range(n))), (seed, n)
        mine, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 4097):
            assert (_Offered(n).draw(0, mine.getrandbits)
                    == [ref.randrange(n)]), (seed, n)


def test_draws_filter_each_drawn_prefix_once(monkeypatch):
    # The draws descend a tree of the prefixes drawn again: the root
    # holds a children map, a new node is kept in its parent's map only
    # when the parent holds one, and a kept node gets its own map on its
    # next draw. A step runs the filter unless it reaches a kept prefix,
    # and the search draws what the filter that ran at every step drew.
    workload, name, fields, expected = FROZEN_SEARCHES["vgg16-conv3_1-delay"]
    arch = albireo.architecture("aggressive")
    layer = next(l for l in load_workload(workload).layers if l.name == name)
    drawn, filtered, walks = [], [0], []
    step, feasible = mapper._Walk.step, mapper._MenuFilter.feasible
    init = mapper._Walk.__init__

    def stepped(self, node, di, rng, picks):
        nxt = step(self, node, di, rng, picks)
        if nxt is not None:
            drawn.append(tuple(picks[:di + 1]))
        return nxt

    def counted(self, *args):
        filtered[0] += 1
        return feasible(self, *args)

    def recorded(self, *args):
        init(self, *args)
        walks.append(self)

    monkeypatch.setattr(mapper._Walk, "step", stepped)
    monkeypatch.setattr(mapper._MenuFilter, "feasible", counted)
    monkeypatch.setattr(mapper._Walk, "__init__", recorded)
    res = mapper._search(arch, layer, SearchConfig(
        **{"budget": 200, "seed": 7, "pad_mode": "pad",
           "fixed_spatial": stencil_pins(layer, arch), **fields}))
    # The rule replayed over the steps, in order: the filter runs for the
    # root and for every incomplete prefix a step builds.
    mapped, kept, runs, draws = {()}, set(), 1, collections.Counter()
    for prefix in drawn:
        draws[prefix] += 1
        if prefix[:-1] in mapped and prefix in kept:
            if len(prefix) < len(DIMS):
                mapped.add(prefix)
            continue
        if prefix[:-1] in mapped:
            kept.add(prefix)
        if len(prefix) < len(DIMS):
            runs += 1
    assert filtered[0] == runs < len(drawn)
    assert (res.evaluation.mapping_digest, res.objective, res.visited,
            res.pruned, res.invalid) == expected
    # The tree the search leaves is the replay's: no node drawn only once
    # holds a children map.
    nodes, held = set(), set()

    def visit(prefix, node):
        nodes.add(prefix)
        if node[2] is not None:
            held.add(prefix)
            for pick, below in node[2].items():
                visit(prefix + (pick,), below)

    (walk,) = walks
    visit((), walk.tree)
    assert (nodes, held) == (kept | {()}, mapped)
    assert all(draws[prefix] > 1 for prefix in held - {()})
    assert len(held) > 1


def _check_pricing(monkeypatch):
    """Make every search check each candidate it prices against the
    mapping the candidate builds: the objective must equal the one its
    evaluation gives, bit for bit, and the evaluation's counts analyze's.
    Returns a one-item list holding the number of candidates checked."""

    checked = [0]
    objective = mapper._Pricer.objective

    def priced(self, picks, perms, steps):
        value = objective(self, picks, perms, steps)
        mapping = self.mapping(picks, perms)
        counts = analyze(self.arch, self.layer, mapping)
        ev = evaluate(self.arch, self.layer, mapping)
        assert ev.counts == counts
        assert value == {
            "energy": ev.total_energy_pj,
            "delay": float(ev.cycles),
            "energy_delay_product": ev.total_energy_pj * ev.latency_s,
        }[self.cfg.objective]
        checked[0] += 1
        return value

    monkeypatch.setattr(mapper._Pricer, "objective", priced)
    return checked


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_search_prices_every_toy_candidate_as_evaluate_does(objective,
                                                            monkeypatch):
    checked = _check_pricing(monkeypatch)
    for fanout, crossing, dims in TOY_CASES:
        mapper._search(toy_arch(fanout, crossing), toy_layer(dims),
                       SearchConfig(objective=objective,
                                    strategy="exhaustive"))
    for bits, dims, overrides in KEEPER_CASES:
        mapper._search(refetch_toy(bits), toy_layer(dims), SearchConfig(
            objective=objective, strategy="exhaustive",
            keep_overrides=overrides))
    assert checked[0] > 0


@pytest.mark.parametrize("workload", ["vgg16", "alexnet"])
def test_search_prices_every_shipped_candidate_as_evaluate_does(
        workload, monkeypatch):
    # The studies' pins at batch 1 and 16 under every objective, and one
    # fused pair's keep override. AlexNet conv1 (stride 4) puts the strided
    # Inputs halo through the tally.
    arch = albireo.architecture("aggressive")
    layers = load_workload(workload).layers
    assert workload == "vgg16" or layers[0].stride == (4, 4)
    checked = _check_pricing(monkeypatch)
    runs = [(objective, batch, {}) for objective in OBJECTIVES
            for batch in (1, 16)] + [("energy", 1, FUSED_OVERRIDES[1])]
    for layer in layers:
        for objective, batch, keep in runs:
            try:
                mapper._search(arch, layer, SearchConfig(
                    objective=objective, budget=4, seed=5, pad_mode="pad",
                    batch_size=batch, keep_overrides=keep,
                    fixed_spatial=stencil_pins(layer, arch)))
            except NoValidMapping:  # every draw dead-ended: nothing priced
                continue
    assert checked[0] > 0


def _counted(calls, fn):
    def call(*args):
        calls[0] += 1
        return fn(*args)
    return call


def test_only_the_winner_is_evaluated_and_only_it_and_ties_are_built(
        monkeypatch):
    arch = albireo.architecture("aggressive")
    values, built, evaluated = [], [0], [0]
    objective = mapper._Pricer.objective

    def priced(*args):
        values.append(objective(*args))
        return values[-1]

    monkeypatch.setattr(mapper._Pricer, "objective", priced)
    monkeypatch.setattr(mapper, "_build_mapping",
                        _counted(built, mapper._build_mapping))
    monkeypatch.setattr(mapper, "evaluate",
                        _counted(evaluated, mapper.evaluate))
    # Draws of fc6 tie on energy exactly, though never at the winner's
    # value; fc7's winner is tied.
    vgg = {l.name: l for l in load_workload("vgg16").layers}
    for name, winner_tied in (("fc6", False), ("fc7", True)):
        values.clear()
        built[0] = evaluated[0] = 0
        res = mapper._search(arch, vgg[name], SearchConfig(
            budget=200, seed=7, pad_mode="pad",
            fixed_spatial=stencil_pins(vgg[name], arch)))
        # A tie builds the candidate's mapping, and the best's the first
        # time that best is tied; the best keeps its built mapping, so the
        # winner is built once more to be evaluated only if no tie met its
        # value.
        lowest, ties, tied_bests, fresh = math.inf, 0, 0, True
        for value in values:
            if value < lowest:
                lowest, fresh = value, True
            elif value == lowest:
                ties += 1
                tied_bests += fresh
                fresh = False
        assert len(values) == res.visited and lowest == res.objective
        assert ties > 0 and fresh is not winner_tied
        assert evaluated[0] == 1
        assert built[0] == fresh + ties + tied_bests < res.visited


@pytest.mark.parametrize("strategy", ["exhaustive", "pruned_random"])
def test_each_search_validates_the_one_mapping_it_returns(strategy,
                                                          monkeypatch):
    calls = [0]
    monkeypatch.setattr(reuse, "validate_mapping",
                        _counted(calls, reuse.validate_mapping))
    for fanout, crossing, dims in TOY_CASES:
        calls[0] = 0
        res = mapper._search(toy_arch(fanout, crossing), toy_layer(dims),
                             SearchConfig(strategy=strategy, budget=50))
        assert calls[0] == 1 and res.visited > 1


@pytest.mark.parametrize("strategy", ["exhaustive", "pruned_random"])
def test_a_filter_fault_is_caught_by_the_winners_validation(strategy,
                                                            monkeypatch):
    # With the capacity condition gone from the filter, the search finds a
    # mapping that overflows a store; evaluating the winner rejects it.
    monkeypatch.setattr(mapper._CapacityCheck, "limits",
                        lambda self, rows, di: (math.inf,) * len(self.checks))
    with pytest.raises(MappingError, match="CapacityExceeded"):
        mapper._search(refetch_toy(64), toy_layer({"K": 4, "C": 4}),
                       SearchConfig(strategy=strategy))


def _unit_factors(mapping, written):
    """The mapping with every factor of 1 written out, or with none."""

    def level(lm):
        if written:
            return replace(lm, temporal={d: lm.t(d) for d in DIMS},
                           spatial={d: lm.s(d) for d in DIMS})
        return replace(lm, temporal={d: f for d, f in lm.temporal.items()
                                     if f != 1},
                       spatial={d: f for d, f in lm.spatial.items() if f != 1})

    return replace(mapping, levels=tuple(level(lm) for lm in mapping.levels))


def _verdict(arch, layer, mapping):
    try:
        validate_mapping(mapping, layer, arch)
    except MappingError as err:
        return err.kind
    return None


def _assert_unit_factors_inert(arch, layer, mapping):
    written = _unit_factors(mapping, True)
    bare = _unit_factors(mapping, False)
    verdict = _verdict(arch, layer, written)
    assert _verdict(arch, layer, bare) == verdict
    if verdict is None:
        assert written.nest == bare.nest
        assert evaluate(arch, layer, written) == evaluate(arch, layer, bare)
        assert mapping_digest(written) == mapping_digest(bare)
    return verdict


def test_unit_factors_are_inert():
    # pruned_random builds candidates without their unit factors; nothing
    # downstream may tell the difference. Random instances, then copies
    # with one factor doubled or one spatial factor past its fanout, so
    # rejected mappings are compared too.
    rng = random.Random(13)
    verdicts = set()
    for _ in range(60):
        arch, layer, mapping = random_instance(rng)
        j = rng.randrange(len(mapping.levels))
        d = rng.choice(DIMS)
        lm = mapping.levels[j]
        doubled = replace(lm, temporal={**lm.temporal, d: 2 * lm.t(d)})
        variants = [mapping, replace(mapping, levels=mapping.levels[:j]
                                     + (doubled,) + mapping.levels[j + 1:])]
        if j:
            wide = replace(lm, spatial={**lm.spatial,
                                        d: arch.levels[j].fanout + 1})
            variants.append(replace(mapping, levels=mapping.levels[:j]
                                    + (wide,) + mapping.levels[j + 1:]))
        for m in variants:
            verdicts.add(_assert_unit_factors_inert(arch, layer, m))
    assert {None, "FactorMismatch", "FanoutExceeded"} <= verdicts


@pytest.mark.parametrize("workload", ["vgg16", "alexnet"])
def test_unit_factors_are_inert_on_searched_mappings(workload):
    arch = albireo.architecture("aggressive")
    for layer in load_workload(workload).layers:
        cfg = SearchConfig(budget=30, seed=7, pad_mode="pad",
                           fixed_spatial=stencil_pins(layer, arch))
        best = search(arch, layer, cfg).mapping
        assert _assert_unit_factors_inert(arch, layer, best) is None


def test_best_keeps_the_smaller_digest_on_a_tie():
    arch = toys.fanout_converter_arch(fanout=4)
    outer = LevelMapping(temporal={"C": 2, "R": 3, "S": 3, "P": 4, "Q": 4})
    inner = LevelMapping(spatial={"K": 4})
    mappings = [Mapping(levels=(outer, inner)), Mapping(levels=(
        replace(outer, permutation=("Q", "P")), inner))]
    # Another order of the store's loops prices the same.
    values = [evaluate(arch, toys.conv_k4(), m).total_energy_pj
              for m in mappings]
    assert values[0] == values[1]
    small = min((0, 1), key=lambda i: mapping_digest(mappings[i]))
    for order in ((0, 1), (1, 0)):
        best = mapper._Best(lambda picks, perms: mappings[picks[0]])
        for i in order:
            best.offer(values[i], [i], [])
        assert best.picks == [small]
        assert best.digest == mapping_digest(mappings[small])


def test_best_builds_no_digest_without_a_tie():
    # The keeper copies the picks it keeps: the walks refill theirs.
    built = []
    best = mapper._Best(lambda picks, perms: built.append(picks))
    picks = [0]
    for value in (5.0, 3.0, 4.0, 2.0):
        best.offer(value, picks, [("K",)])
        picks[0] += 1
    assert built == [] and best.digest is None
    assert (best.value, best.picks, best.perms) == (2.0, [3], [("K",)])


# -- The feasibility filter ---------------------------------------------------


def _menu(arch, layer, d, cfg, cap):
    """Dim d's menu in a search, as its chains in menu order."""

    table = mapper._chain_table(arch, layer, d, cfg)
    menu = mapper._dim_chains(table, DIMS.index(d), cap)
    return [table.chains[i] for i in mapper._members(menu)]


def _row(chain):
    """A chain's extent at each storage level: the product of its factors
    below the level, or at level 0 of them all."""

    return tuple(math.prod(chain[2 * lvl + 1:]) if lvl else math.prod(chain)
                 for lvl in range(len(chain) // 2))


def _fits(cap, row, limits):
    return all(row[lvl] <= lim for (lvl, _, _), lim in zip(cap.checks,
                                                           limits))


def _capacity_fits(layer, cap, rows):
    """The search's capacity condition straight from demand: one extent row
    per dim, in DIMS order."""

    return all(
        demand(layer, {d: row[lvl] for d, row in zip(DIMS, rows)},
               keeps) <= bits
        for lvl, keeps, bits in cap.checks)


# No override, then the memory study's producer and consumer overrides.
FUSED_OVERRIDES = ({}, {0: (INPUTS, WEIGHTS)}, {0: (OUTPUTS, WEIGHTS)})


@pytest.mark.parametrize("workload", ["vgg16", "alexnet"])
def test_capacity_limits_match_demand(workload):
    # AlexNet conv1 (stride 4) puts the strided Inputs halo through the
    # affine fit. Besides the minimum rows, each layer is checked beside
    # rows drawn from the other dims' menus, where many chains overflow.
    arch = albireo.architecture("aggressive")
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for layer in load_workload(workload).layers:
        for batch, keep in itertools.product((1, 16), FUSED_OVERRIDES):
            cfg = SearchConfig(pad_mode="pad", batch_size=batch,
                               keep_overrides=keep,
                               fixed_spatial=stencil_pins(layer, arch))
            cap = mapper._CapacityCheck(arch, layer, cfg)
            menus = [_menu(arch, layer, d, cfg, cap) for d in DIMS]
            contexts = [cap.mins] + [
                tuple(_row(rng.choice(menu)) for menu in menus)
                for _ in range(3)]
            for rows, (di, menu) in itertools.product(contexts,
                                                      enumerate(menus)):
                limits = cap.limits(rows, di)
                for chain in menu:
                    row = _row(chain)
                    fits = _fits(cap, row, limits)
                    assert fits == _capacity_fits(
                        layer, cap, rows[:di] + (row,) + rows[di + 1:])
                    verdicts[fits] += 1
                # Each limit is the largest extent that fits at its level.
                for (lvl, keeps, bits), lim in zip(cap.checks, limits):
                    tb = {d: row[lvl] for d, row in zip(DIMS, rows)}

                    def need(e):
                        return demand(layer, {**tb, DIMS[di]: e}, keeps)

                    if lim == math.inf:
                        assert need(1) == need(1 << 20) <= bits
                    elif lim >= 1:
                        assert need(lim) <= bits < need(lim + 1)
                    else:
                        assert need(1) > bits
    assert verdicts[True] > 0 and verdicts[False] > 0


def _filter_case(arch, layer, **fields):
    """The search's filters and walk, unnarrowed, and each dim's menu as
    its chains in menu order."""

    cfg = SearchConfig(**fields)
    cap = mapper._CapacityCheck(arch, layer, cfg)
    tables = [mapper._chain_table(arch, layer, d, cfg) for d in DIMS]
    masks = [mapper._dim_chains(table, di, cap)
             for di, table in enumerate(tables)]
    forbidden = validation_plan(arch, cfg.keep_overrides).forbidden
    filters = [mapper._MenuFilter(arch, table, mask, table.top(mask), di,
                                  cap, forbidden)
               for di, (table, mask) in enumerate(zip(tables, masks))]
    menus = [[table.chains[i] for i in mapper._members(mask)]
             for table, mask in zip(tables, masks)]
    walk = mapper._Walk(filters, cap)
    return arch, layer, cap, menus, forbidden, filters, walk


def _table_index(filters, di, pick):
    """The table index of position `pick` in dim DIMS[di]'s menu."""

    return mapper._members(filters[di].menu)[pick]


@functools.cache
def _filter_cases():
    strided = Layer(name="strided", kind="conv", stride=(2, 2), dims={
        "N": 2, "K": 4, "C": 2, "P": 3, "Q": 2, "R": 3, "S": 2})
    vgg = {l.name: l for l in load_workload("vgg16").layers}
    alex = {l.name: l for l in load_workload("alexnet").layers}
    aggressive = albireo.architecture("aggressive")

    def pinned(layer, **fields):
        return _filter_case(aggressive, layer, pad_mode="pad",
                            fixed_spatial=stencil_pins(layer, aggressive),
                            **fields)

    return {
        # Unpinned, fanout 2 at both levels and a 96-bit buffer whose
        # Outputs tile may never be refetched.
        "toy-strict": _filter_case(refetch_toy(96), toys.conv_k4()),
        "toy-pad": _filter_case(refetch_toy(160), strided, pad_mode="pad"),
        "toy-pad-fused": _filter_case(refetch_toy(160), strided,
                                      pad_mode="pad",
                                      keep_overrides={0: (OUTPUTS, WEIGHTS)}),
        "albireo-conv3_1": pinned(vgg["conv3_1"]),
        "albireo-conv5_2-fused": pinned(
            vgg["conv5_2"], keep_overrides={0: (OUTPUTS, WEIGHTS)}),
        "albireo-conv1-batch16": pinned(alex["conv1"], batch_size=16),
    }


@functools.cache
def _order_table(case):
    arch, _, _, _, forbidden, _, _ = _filter_cases()[case]
    return mapper._OrderTable(len(arch.levels), forbidden)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(["toy-strict", "toy-pad", "toy-pad-fused",
                             "albireo-conv5_2-fused"]),
       picks=st.lists(st.integers(0, 1 << 16), min_size=len(DIMS),
                      max_size=len(DIMS)))
def test_order_table_matches_valid_perms(case, picks):
    # One table per case across examples, so signatures repeat and hit.
    arch, _, _, menus, forbidden, filters, walk = _filter_cases()[case]
    chains = {}
    state = walk.root
    for di, (d, menu) in enumerate(zip(DIMS, menus)):
        pick = picks[di] % len(menu)
        chains[d] = menu[pick]
        state = walk.child(di, state, _table_index(filters, di, pick))
    options = _order_table(case).options(state[4])
    assert len(options) == len(arch.levels)
    for j, got in enumerate(options):
        live = tuple(d for d in DIMS if chains[d][2 * j] > 1)
        assert got == mapper._valid_perms(live, j, forbidden)


def test_nest_ok_is_the_refetch_rule_on_levels():
    # At each level up to the keeper b, the tensor's dim (K) where `own`
    # has the level's bit and then another dim (C) where `other` has it.
    dims = TENSOR_DIMS[OUTPUTS]
    for m in range(2, 6):
        for b in range(m):
            for own in range(0, 1 << (b + 1), 2):
                for other in range(1 << b):
                    order = [d for j in range(b + 1)
                             for d, mask in (("K", own), ("C", other))
                             if mask >> j & 1]
                    assert mapper._nest_ok(own, other) == leads(order, dims)


def _reference_feasible(arch, layer, cap, forbidden, menu, drawn):
    """Indices of the menu's chains that pass every condition, checked
    chain by chain from the factors: the fanout budgets, the capacity
    demand, and _nest_ok on each forbidden keeper's masks.
    `drawn` holds the chains of the dims before the menu's."""

    m = len(arch.levels)
    di = len(drawn)
    out = []
    for i, chain in enumerate(menu):
        chains = list(drawn) + [chain]
        if any(math.prod(c[2 * j - 1] for c in chains) > arch.levels[j].fanout
               for j in range(1, m)):
            continue
        rows = tuple(_row(c) for c in chains) + cap.mins[di + 1:]
        if not _capacity_fits(layer, cap, rows):
            continue
        ok = True
        for b, t, _ in forbidden:
            own = other = 0
            for d, c in zip(DIMS, chains):
                for j in range(m):
                    if c[2 * j] == 1:
                        continue
                    if d in TENSOR_DIMS[t] and 1 <= j <= b:
                        own |= 1 << j
                    elif d not in TENSOR_DIMS[t] and j < b:
                        other |= 1 << j
            ok = ok and mapper._nest_ok(own, other)
        if ok:
            out.append(i)
    return out


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(["toy-strict", "toy-pad", "toy-pad-fused",
                             "albireo-conv3_1", "albireo-conv5_2-fused",
                             "albireo-conv1-batch16"]),
       di=st.integers(0, len(DIMS) - 1),
       picks=st.lists(st.integers(0, 1 << 16), min_size=len(DIMS),
                      max_size=len(DIMS)),
       feasible_prefix=st.booleans())
def test_bitset_filter_matches_a_chain_by_chain_filter(
        case, di, picks, feasible_prefix):
    # The prefix is drawn from the reference's feasible lists, as a search
    # draws, or from the whole menus, which reaches exhausted budgets.
    arch, layer, cap, menus, forbidden, filters, walk = _filter_cases()[case]
    drawn = []
    state = walk.root
    for k in range(di):
        options = (_reference_feasible(arch, layer, cap, forbidden, menus[k],
                                       drawn) if feasible_prefix else [])
        pick = (options[picks[k] % len(options)] if options
                else picks[k] % len(menus[k]))
        drawn.append(menus[k][pick])
        state = walk.child(k, state, _table_index(filters, k, pick))
    sprod, rows, nest, _, _ = state
    # The filter answers in table indices; the reference in menu order.
    positions = mapper._members(filters[di].menu)
    got = [positions.index(i)
           for i in filters[di].feasible(sprod, cap.limits(rows, di), nest)]
    assert got == _reference_feasible(arch, layer, cap, forbidden, menus[di],
                                      drawn)
