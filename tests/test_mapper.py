import itertools
import random
from dataclasses import FrozenInstanceError, replace

import pytest

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
    Architecture,
    Converter,
    Layer,
    Level,
    LevelMapping,
    Mapping,
    MappingError,
    Mesh,
    mapping_digest,
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
        # Exhaustive evaluates every chain combination, so it meets
        # mappings the origin, refetch and capacity rules reject; the
        # pruned sampler's filters drop all of them before evaluation.
        assert ex.invalid > 0
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


def _invalid_variant(rng, arch, mapping, which):
    """The instance as drawn, with one level's factor of a dim doubled, or
    with a backing store too small for anything."""

    if which == 1:
        j = rng.randrange(len(mapping.levels))
        lm = mapping.levels[j]
        d = rng.choice(DIMS)
        lm = replace(lm, temporal={**lm.temporal, d: 2 * lm.t(d)})
        levels = mapping.levels[:j] + (lm,) + mapping.levels[j + 1:]
        return arch, replace(mapping, levels=levels)
    if which == 2:
        top = arch.levels[0]
        top = replace(top, component=replace(top.component, capacity_bits=1))
        return replace(arch, levels=(top,) + arch.levels[1:]), mapping
    return arch, mapping


def test_delay_floor_is_sound_against_evaluate():
    # The delay floor reads only the step count. A candidate it rejects,
    # evaluate rejects with the same error kind; a candidate evaluate
    # accepts gets the nest's step count, which never exceeds its cycles.
    rng = random.Random(2024)
    seen = {}
    for i in range(300):
        arch, layer, mapping = random_instance(rng)
        arch, mapping = _invalid_variant(rng, arch, mapping, i % 3)
        try:
            ev = evaluate(arch, layer, mapping)
            want = "ok"
        except MappingError as err:
            want = err.kind
        try:
            got = mapper._delay_floor(arch, layer, mapping)
        except MappingError as err:
            assert err.kind == want
        else:
            # Only counting sees a partial refetched with no converter.
            assert want in ("ok", "ConverterMissing")
            if want == "ok":
                assert got == mapping.nest.steps <= ev.cycles
        seen[want] = seen.get(want, 0) + 1
    assert set(seen) >= {"ok", "FactorMismatch", "CapacityExceeded"}
    assert seen["ok"] >= 100


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
    arch = toys.fanout_converter_arch(4)
    layer = toy_layer({"K": 8})
    cfg = SearchConfig(strategy="exhaustive", budget=10,
                       fixed_spatial={(1, "K"): 8})
    with pytest.raises(NoValidMapping):
        search(arch, layer, cfg)


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
}


@pytest.mark.parametrize("case", sorted(FROZEN_SEARCHES))
def test_pruned_random_draws_are_frozen(case):
    workload, name, fields, expected = FROZEN_SEARCHES[case]
    arch = albireo.architecture("aggressive")
    layer = next(l for l in load_workload(workload).layers if l.name == name)
    cfg = SearchConfig(budget=200, seed=7, pad_mode="pad",
                       fixed_spatial=albireo.geometry_pins(layer), **fields)
    res = search(arch, layer, cfg)
    assert (res.evaluation.mapping_digest, res.objective, res.visited,
            res.pruned, res.invalid) == expected
