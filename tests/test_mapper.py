import functools
import itertools
import math
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_model import albireo, mapper
from photon_model.evaluator import evaluate
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
    Converter,
    Layer,
    Level,
    LevelMapping,
    Mapping,
    MappingError,
    Mesh,
    kept_bits,
    mapping_digest,
    stencil_pins,
    validate_architecture,
    validate_mapping,
)
from photon_model.workloads import load_workload

import toys
from randgen import random_instance


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
    a = Architecture(
        name="toy", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 24), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), fanout, ())),
        meshes=(Mesh(may_multicast=True),), converters=())
    validate_architecture(a)
    return a


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


def refetch_toy(buf_bits):
    """Store (DE) over a small buffer (AE) over a MAC array (AE). Partial
    sums drain up through an ADC, but no converter carries Outputs back
    down, so a buffered output tile may never be refetched."""

    wio = ("Weights", "Inputs", "Outputs")
    a = Architecture(
        name="refetch", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 24,
                                            read=10.0), 1, wio),
                Level("buf", toys.storage("reg", "AE", buf_bits), 2, wio),
                Level("pe", toys.compute("amac", "AE"), 2, ())),
        meshes=(Mesh(), Mesh(may_multicast=True, may_reduce=True)),
        converters=(Converter("dn", toys.converter("dac", "DE", "AE"), 1,
                              ("Weights", "Inputs"), 2),
                    Converter("up", toys.converter("adc", "AE", "DE"), 1,
                              ("Outputs",), 2)))
    validate_architecture(a)
    return a


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


def test_memo_shares_one_result_across_layer_names():
    arch = toys.fanout_converter_arch(4)
    first = toy_layer({"K": 8, "C": 4, "P": 2})
    second = replace(first, name="same_shape")
    cfg = SearchConfig(objective="delay", budget=150, seed=5)
    res = search(arch, first, cfg)
    assert search(arch, second, cfg) is res
    assert res == mapper._search(arch, second, cfg)


def test_memo_never_shares_across_component_content():
    # Same component names, different contents: a key built from
    # serialize_architecture, which names components, would share one entry.
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


def test_failed_search_is_not_memoised():
    arch = toys.fanout_converter_arch(4)
    cfg = SearchConfig(strategy="exhaustive", budget=10,
                       fixed_spatial={(1, "K"): 8})
    for name in ("first", "second"):
        layer = replace(toy_layer({"K": 8}), name=name)
        with pytest.raises(NoValidMapping) as err:
            search(arch, layer, cfg)
        assert err.value.layer == name


def test_memo_holds_at_most_its_bound():
    arch, layer = toys.fc_direct(), toys.ones_layer()
    n = mapper._MEMO_SIZE + 10
    keys = []
    for seed in range(n):
        cfg = SearchConfig(strategy="exhaustive", budget=1, seed=seed)
        search(arch, layer, cfg)
        keys.append(mapper._memo_key(arch, layer, cfg))
        assert len(mapper._MEMO) <= mapper._MEMO_SIZE
    assert len(mapper._MEMO) == mapper._MEMO_SIZE
    assert not any(k in mapper._MEMO for k in keys[:10])
    assert all(k in mapper._MEMO for k in keys[10:])


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


@pytest.mark.parametrize("workload", ["vgg16", "alexnet"])
def test_no_drawn_candidate_is_invalid_on_shipped_geometry(workload,
                                                            monkeypatch):
    # The delay floor prunes before validation, which moves no counter only
    # because no pruned_random draw that survives the filter is rejected by
    # evaluate. The draws do not depend on the objective, and the energy
    # and EDP objectives evaluate every one of them.
    arch = albireo.architecture("aggressive")
    rejected = []

    def checked(a, layer, mapping):
        try:
            return evaluate(a, layer, mapping)
        except MappingError as err:
            rejected.append((layer.name, err.kind))
            raise

    monkeypatch.setattr(mapper, "evaluate", checked)
    visited = 0
    for layer in load_workload(workload).layers:
        for keep, objective in itertools.product(FUSED_OVERRIDES, OBJECTIVES):
            cfg = SearchConfig(objective=objective, budget=12, seed=7,
                               pad_mode="pad", keep_overrides=keep,
                               fixed_spatial=stencil_pins(layer, arch))
            visited += mapper._search(arch, layer, cfg).visited
    assert rejected == []
    assert visited > 0


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
    validate_architecture(arch)
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


def test_backing_store_overflow_is_counted_invalid():
    # The filter leaves the backing store's capacity to validation, so
    # these are the candidates exhaustive still meets and rejects. A
    # 120-bit store holds the 3x3 fc layer's 72 bits only with small
    # enough tiles; at 119 bits no candidate fits.
    layer = toy_layer({"K": 3, "C": 3})
    roomy = _store_bits(toys.fanout_converter_arch(4), 120)
    cfgs = (SearchConfig(pad_mode="pad", strategy="exhaustive"),
            SearchConfig(pad_mode="pad", budget=50, seed=1))
    got = [search(roomy, layer, cfg) for cfg in cfgs]
    assert [(r.visited, r.pruned, r.invalid) for r in got] == [
        (10, 0, 172), (12, 0, 38)]
    for res in got:
        validate_mapping(res.mapping, layer, roomy)
    tight = _store_bits(roomy, 119)
    for cfg in cfgs:
        with pytest.raises(NoValidMapping, match="no valid mapping found"):
            search(tight, layer, cfg)


def test_exhaustive_space_bound():
    arch = toys.fanout_converter_arch(4)
    layer = toy_layer({"N": 6, "K": 12, "C": 12, "P": 6, "Q": 6})
    cfg = SearchConfig(strategy="exhaustive", budget=10, max_space=50)
    with pytest.raises(SearchError):
        search(arch, layer, cfg)


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


@pytest.mark.parametrize("pins", [
    {(3, "X"): 4},
    {(0, "K"): 4},
    {(-1, "K"): 4},
    {(3, "K"): 0},
    {(3, "K"): True},
    {(3, "K"): 2.0},
], ids=["unknown-dim", "level-0", "level-below-0", "zero-factor",
        "bool-factor", "float-factor"])
def test_search_config_rejects_bad_pins(pins):
    # Each was silently ignored or crashed the menu build.
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
    keepers = arch.keepers(cfg.keep_overrides)[0]
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
        if cap.fits(cap.row(chain), limits):
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
    # Strict mode is pad mode's exact-cover case in _dim_chains; the
    # reference filters every factorization of the bound instead.
    sizes = []
    for arch, layer, fields in _strict_cases():
        cfg = SearchConfig(**fields)
        cap = mapper._CapacityCheck(arch, layer, cfg)
        for d in DIMS:
            menu = mapper._dim_chains(arch, layer, d, cfg, cap)
            assert menu == _strict_reference(arch, layer, d, cfg, cap)
            sizes.append(len(menu))
    assert 0 in sizes and max(sizes) > 1000


def test_reduction_floor_past_the_levels_leaves_only_spatial_chains():
    # Every temporal slot is held at 1, so the one chain left splits the
    # whole bound spatially.
    arch, layer = toy_arch(4, False), toy_layer({"K": 4, "C": 4})
    for pad_mode in ("strict", "pad"):
        cfg = SearchConfig(pad_mode=pad_mode, reduction_floor=5)
        cap = mapper._CapacityCheck(arch, layer, cfg)
        assert mapper._dim_chains(arch, layer, "C", cfg, cap) == [(1, 4, 1)]


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
    res = evaluate(arch, toys.conv_k4(), Mapping(levels=(outer, inner)))
    # Another order of the store's loops prices the same.
    tie = evaluate(arch, toys.conv_k4(), Mapping(levels=(
        replace(outer, permutation=("Q", "P")), inner)))
    assert tie.total_energy_pj == res.total_energy_pj
    small, large = sorted((res, tie), key=lambda r: r.mapping_digest)
    assert small.mapping_digest < large.mapping_digest
    for order in ((small, large), (large, small)):
        best = mapper._Best("energy")
        for r in order:
            best.offer(r.mapping, r)
        assert best.evaluation is small and best.mapping is small.mapping


def test_best_builds_no_digest_without_a_tie():
    arch = toys.fanout_converter_arch(fanout=4)
    outer = LevelMapping(temporal={"C": 2, "R": 3, "S": 3, "P": 4, "Q": 4})
    offers = [evaluate(arch, toys.conv_k4(), Mapping(levels=(
        outer, LevelMapping(spatial={"K": 4})))),
        evaluate(arch, toys.conv_k4(), Mapping(levels=(
            replace(outer, temporal={**outer.temporal, "K": 2}),
            LevelMapping(spatial={"K": 2}))))]
    assert offers[0].total_energy_pj != offers[1].total_energy_pj
    best = mapper._Best("energy")
    for r in offers:
        best.offer(r.mapping, r)
    assert not any("mapping_digest" in vars(r) for r in offers)


# -- The feasibility filter ---------------------------------------------------


def _capacity_fits(layer, cap, rows):
    """The search's capacity condition summed straight from kept_bits: one
    extent row per dim, in DIMS order."""

    return all(
        sum(kept_bits(layer, dict(zip(DIMS, tbs)), keeps).values()) <= bits
        for (_, keeps, bits), tbs in zip(cap.checks, zip(*rows)))


# No override, then the memory study's producer and consumer overrides.
FUSED_OVERRIDES = ({}, {0: (INPUTS, WEIGHTS)}, {0: (OUTPUTS, WEIGHTS)})


@pytest.mark.parametrize("workload", ["vgg16", "alexnet"])
def test_capacity_limits_match_kept_bits(workload):
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
            menus = [mapper._dim_chains(arch, layer, d, cfg, cap)
                     for d in DIMS]
            contexts = [cap.mins] + [
                tuple(cap.row(rng.choice(menu)) for menu in menus)
                for _ in range(3)]
            for rows, (di, menu) in itertools.product(contexts,
                                                      enumerate(menus)):
                limits = cap.limits(rows, di)
                for chain in menu:
                    row = cap.row(chain)
                    fits = cap.fits(row, limits)
                    assert fits == _capacity_fits(
                        layer, cap, rows[:di] + (row,) + rows[di + 1:])
                    verdicts[fits] += 1
                # Each limit is the largest extent that fits at its level.
                for (_, keeps, bits), lim, tbs in zip(cap.checks, limits,
                                                      zip(*rows)):
                    tb = dict(zip(DIMS, tbs))

                    def demand(e):
                        return sum(kept_bits(layer, {**tb, DIMS[di]: e},
                                             keeps).values())

                    if lim == math.inf:
                        assert demand(1) == demand(1 << 20) <= bits
                    elif lim >= 1:
                        assert demand(lim) <= bits < demand(lim + 1)
                    else:
                        assert demand(1) > bits
    assert verdicts[True] > 0 and verdicts[False] > 0


def _filter_case(arch, layer, **fields):
    cfg = SearchConfig(**fields)
    cap = mapper._CapacityCheck(arch, layer, cfg)
    menus = [mapper._dim_chains(arch, layer, d, cfg, cap) for d in DIMS]
    forbidden = arch.keepers(cfg.keep_overrides)[1]
    filters = [mapper._MenuFilter(arch, menu, d, cap, forbidden)
               for d, menu in zip(DIMS, menus)]
    return arch, layer, cap, menus, forbidden, filters


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
    arch, _, _, _, forbidden, _ = _filter_cases()[case]
    return mapper._OrderTable(len(arch.levels), forbidden)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(["toy-strict", "toy-pad", "toy-pad-fused",
                             "albireo-conv5_2-fused"]),
       picks=st.lists(st.integers(0, 1 << 16), min_size=len(DIMS),
                      max_size=len(DIMS)))
def test_order_table_matches_valid_perms(case, picks):
    # One table per case across examples, so signatures repeat and hit.
    arch, _, _, menus, forbidden, filters = _filter_cases()[case]
    chains = {}
    signature = 0
    for di, (d, menu) in enumerate(zip(DIMS, menus)):
        pick = picks[di] % len(menu)
        chains[d] = menu[pick]
        signature |= filters[di].live[pick]
    options = _order_table(case).options(signature)
    assert len(options) == len(arch.levels)
    for j, got in enumerate(options):
        live = tuple(d for d in DIMS if chains[d][2 * j] > 1)
        assert got == mapper._valid_perms(live, j, forbidden)


def _reference_feasible(arch, layer, cap, forbidden, menu, drawn):
    """Indices of the menu's chains that pass every condition, checked
    chain by chain from the factors: the fanout budgets, the capacity
    demand from kept_bits, and _nest_ok on each forbidden keeper's masks.
    `drawn` holds the chains of the dims before the menu's."""

    m = len(arch.levels)
    di = len(drawn)
    out = []
    for i, chain in enumerate(menu):
        chains = list(drawn) + [chain]
        if any(math.prod(c[2 * j - 1] for c in chains) > arch.levels[j].fanout
               for j in range(1, m)):
            continue
        rows = tuple(cap.row(c) for c in chains) + cap.mins[di + 1:]
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
    arch, layer, cap, menus, forbidden, filters = _filter_cases()[case]
    drawn = []
    sprod = (1,) * (len(arch.levels) - 1)
    rows = cap.mins
    nest = ((0, 0),) * len(forbidden)
    for k in range(di):
        options = (_reference_feasible(arch, layer, cap, forbidden, menus[k],
                                       drawn) if feasible_prefix else [])
        pick = (options[picks[k] % len(options)] if options
                else picks[k] % len(menus[k]))
        drawn.append(menus[k][pick])
        spatial, extent, adds = filters[k].table[pick]
        sprod = tuple(p * s for p, s in zip(sprod, spatial))
        rows = rows[:k] + (extent,) + rows[k + 1:]
        nest = tuple((o | a, x | b) for (o, x), (a, b) in zip(nest, adds))
    got = filters[di].feasible(sprod, cap.limits(rows, di), nest)
    assert got == _reference_feasible(arch, layer, cap, forbidden, menus[di],
                                      drawn)
