"""Analytical count checks. Golden constants were frozen from the
loop-nest interpreter (simulate) running the same instances."""

import itertools
import sys
import traceback
from dataclasses import replace

import pytest

from photon_model import albireo, spec_model
from photon_model.evaluator import evaluate
from photon_model.mapper import NoValidMapping, SearchConfig, search
from photon_model.oracle import simulate
from photon_model.reuse import (
    LevelCounts,
    analyze,
    counting,
    reuse_factors,
)
from photon_model.spec_model import (
    Architecture,
    Converter,
    Layer,
    Level,
    LevelMapping,
    Mapping,
    MappingError,
    Mesh,
    stencil_pins,
    tile_values,
    validate_mapping,
    validation_plan,
)
from photon_model.workloads import load_workload

import toys
from toys import residencies


def test_store_feeding_mac_directly():
    # FC K=2 C=3: one fetch per MAC operand, nothing is buffered.
    arch = toys.fc_direct()
    m = Mapping(levels=(LevelMapping(temporal={"K": 2, "C": 3}),
                        LevelMapping()))
    c = analyze(arch, toys.fc_k2c3(), m)
    assert c.macs == 6
    assert c.per_level[(0, "Weights")] == LevelCounts(reads=6)
    assert c.per_level[(0, "Inputs")] == LevelCounts(reads=6)
    assert c.per_level[(0, "Outputs")] == LevelCounts(reads=6, updates=6)
    assert c.compute_reads == {"Weights": 6, "Inputs": 6, "Outputs": 6}


def test_weight_buffer_fills_each_distinct_weight_once():
    arch = toys.fc_weight_buffer()
    m = Mapping(levels=(LevelMapping(),
                        LevelMapping(temporal={"K": 2, "C": 3},
                                     permutation=("K", "C")),
                        LevelMapping()))
    c = analyze(arch, toys.fc_k2c3(), m)
    assert c.per_level[(0, "Weights")] == LevelCounts(reads=6)
    assert c.per_level[(1, "Weights")] == LevelCounts(reads=6, fills=6)


def test_k_fanout_multicast_collapses_input_conversions():
    # Frozen golden: 1152 MACs; the four K lanes share identical input
    # tiles, so input conversions are demand / 4.
    arch = toys.fanout_converter_arch(fanout=4)
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    c = analyze(arch, toys.conv_k4(), m)
    assert c.macs == 1152
    assert c.conversions == {("dn", "Inputs"): 288,
                             ("dn", "Weights"): 1152,
                             ("up", "Outputs"): 1152}
    assert c.per_level[(0, "Inputs")].reads == 288
    assert c.per_level[(0, "Weights")].reads == 1152
    assert c.per_level[(0, "Outputs")] == LevelCounts(reads=1152,
                                                      updates=1152)
    assert c.edge_demand[(1, "Inputs", "down")] == 1152


def test_an_inexact_collapse_fails_at_its_emitted_line():
    # The four K lanes share one Inputs signal down edge 1: evaluate's
    # entry point divides the 1152 MACs' demand by that merge width, so a
    # width of 5 leaves a remainder.
    arch, layer = toys.fanout_converter_arch(fanout=4), toys.conv_k4()
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    footprints, real = validate_mapping(m, layer, arch)
    kept = counting(arch, {})
    nest = m.nest
    slot = kept.plan.edges.index((1, "Inputs", "down"))
    assert kept.plan.merge_widths([lm.spatial for lm in m.levels])[slot] == 4
    args = (footprints, nest.loops, m.levels, nest.instances, 1152,
            nest.steps, real)
    assert kept.count(*args)[0].edge_crossings[(1, "Inputs", "down")] == 288
    five = replace(m, levels=(m.levels[0], LevelMapping(spatial={"K": 5})))
    with pytest.raises(AssertionError, match="inexact collapse 1152/5") as err:
        kept.count(*args[:2], five.levels, *args[3:])
    shown = "".join(traceback.format_exception(err.value))
    assert f"{{w{slot}}}" in shown and "<count plan " in shown


def test_reuse_factor_invariant_on_k_fanout():
    arch = toys.fanout_converter_arch(fanout=4)
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    c = analyze(arch, toys.conv_k4(), m)
    factors = {(r.tensor, r.direction): r
               for r in reuse_factors(c, arch, m)}
    inp = factors[("Inputs", "down")]
    assert inp.spatial_multicast == 4
    assert inp.converter == "dn"
    for r in factors.values():
        demand = c.edge_demand[(r.edge, r.tensor, r.direction)]
        assert r.conversions * r.spatial_multicast * r.temporal_reuse \
            == demand


def test_weight_multicast_across_batch_fanout():
    # Spatial fanout on N replicates weights: one conversion serves four
    # lanes even without a converter bank (pure edge crossing counts).
    arch = Architecture(
        name="nfan", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 24), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), 4, ())),
        meshes=(Mesh(may_multicast=True),), converters=())
    layer = Layer(name="nconv", kind="conv",
                  dims={"N": 4, "K": 2, "C": 2, "R": 1, "S": 1, "P": 2,
                        "Q": 2})
    m = Mapping(levels=(LevelMapping(temporal={"K": 2, "C": 2, "P": 2,
                                               "Q": 2}),
                        LevelMapping(spatial={"N": 4})))
    c = analyze(arch, layer, m)
    factors = {(r.tensor, r.direction): r
               for r in reuse_factors(c, arch, m)}
    assert factors[("Weights", "down")].spatial_multicast == 4
    assert factors[("Weights", "down")].conversions == 16
    assert factors[("Inputs", "down")].spatial_multicast == 1
    assert factors[("Inputs", "down")].conversions == 64


def test_weight_sharing_halves_weight_conversions():
    # Doubling the spatial share on Q leaves inputs and outputs alone and
    # halves weight conversions: 1152 -> 576 -> 288.
    expected = {1: 1152, 2: 576, 4: 288}
    for share, want in expected.items():
        arch = toys.fanout_converter_arch(fanout=share)
        m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                                   "P": 4, "K": 4,
                                                   "Q": 4 // share}),
                            LevelMapping(spatial={"Q": share})))
        c = analyze(arch, toys.conv_k4(), m)
        assert c.conversions[("dn", "Weights")] == want
        assert c.conversions[("dn", "Inputs")] == 1152
        assert c.conversions[("up", "Outputs")] == 1152


def test_bypassed_level_has_no_counts():
    arch = toys.fc_weight_buffer()
    m = Mapping(levels=(LevelMapping(temporal={"K": 2, "C": 3}),
                        LevelMapping(), LevelMapping()),
                keep_overrides={1: ()})
    c = analyze(arch, toys.fc_k2c3(), m)
    assert not any(lvl == 1 for (lvl, _t) in c.per_level)
    assert c.per_level[(0, "Weights")].reads == 6


def test_accumulation_level_is_innermost_output_keeper():
    arch = toys.fc_weight_buffer()
    m = Mapping(levels=(LevelMapping(temporal={"K": 2, "C": 3}),
                        LevelMapping(), LevelMapping()))
    assert counting(arch, m.keep_overrides).plan.stream.outer == 0
    # Once the buffer keeps Outputs too, partials accumulate there and
    # drain up one hop.
    store, wbuf, pe = arch.levels
    both = replace(arch, levels=(
        store, replace(wbuf, keeps=("Weights", "Outputs")), pe))
    plan = counting(both, {}).plan
    assert (plan.stream.outer, plan.stream.inner) == (1, 2)
    assert [(up.outer, up.inner) for up, _ in plan.drains] == [(0, 1)]


def _partial_sum_arch(with_down_converter):
    converters = [
        Converter("dn", toys.converter("dac", "DE", "AE"), 1,
                  ("Weights", "Inputs"), 1),
        Converter("up", toys.converter("adc", "AE", "DE"), 1,
                  ("Outputs",), 1),
    ]
    if with_down_converter:
        converters.append(Converter(
            "odn", toys.converter("odac", "DE", "AE"), 1, ("Outputs",), 1))
    return Architecture(
        name="psum", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("obuf", toys.storage("oreg", "AE", 1 << 12), 1,
                      ("Outputs",)),
                Level("pe", toys.compute("amac", "AE"), 1, ())),
        meshes=(Mesh(), Mesh()),
        converters=tuple(converters))


def _partial_sum_mapping():
    # C above K forces the buffered output tile to be evicted and refetched
    # once per C step: partial sums descend the domain-crossing edge.
    return Mapping(levels=(LevelMapping(temporal={"C": 2},
                                        permutation=("C",)),
                           LevelMapping(temporal={"K": 2},
                                        permutation=("K",)),
                           LevelMapping()))


def test_partial_sum_refetch_needs_descending_converter():
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 2, "C": 2, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = _partial_sum_mapping()
    arch = _partial_sum_arch(with_down_converter=False)
    for check in (lambda: validate_mapping(m, layer, arch),
                  lambda: analyze(arch, layer, m)):
        with pytest.raises(MappingError) as e:
            check()
        assert e.value.kind == "ConverterMissing"
        assert (e.value.tensor, e.value.level) == ("Outputs", "obuf")

    covered = _partial_sum_arch(with_down_converter=True)
    c = analyze(covered, layer, m)
    assert c.conversions[("odn", "Outputs")] > 0


def _unrecorded_in_plan_order(arch, layer, mapping) -> set:
    """Check that the mapping's engine counts equal the oracle's and sit
    in its count plan's key order, every refetch slot with nothing to
    refetch left out of the edge counts; return the slots left out."""

    counts = analyze(arch, layer, mapping)
    assert counts == simulate(arch, layer, mapping)
    plan = counting(arch, mapping.keep_overrides).plan
    assert list(counts.per_level) == list(plan.level_keys)
    assert list(counts.conversions) == list(plan.conversion_keys)
    resident = residencies(mapping.nest.loops, plan.compute)
    # A drain refetches the Outputs tiles its level holds more than once,
    # and has no refetch leg where validation forbids a refetch.
    unrecorded = {c.key for up, down in plan.drains
                  if down and resident[up.inner][2] == resident[up.inner][3]
                  for c in down.crossings}
    kept = [key for key in plan.edges if key not in unrecorded]
    assert list(counts.edge_crossings) == kept == list(counts.edge_demand)
    return unrecorded


# VGG16's and AlexNet's layers, each dim cut to at most these so that the
# oracle can run them, keep their kernels, strides and kinds.
SHRUNK = {"N": 1, "K": 16, "C": 8, "P": 4, "Q": 7}


def test_emitted_counts_match_the_oracle_in_the_plans_key_order():
    # Every layout the studies count under: no override, and the memory
    # study's two fused keep-override sets.
    arch = albireo.architecture("aggressive")
    layouts = ({}, {0: ("Weights", "Inputs")}, {0: ("Weights", "Outputs")})
    left_out = 0
    for net in ("vgg16", "alexnet"):
        for layer in load_workload(net).layers:
            layer = replace(layer, dims={d: min(n, SHRUNK.get(d, n))
                                         for d, n in layer.dims.items()})
            for keep in layouts:
                mapping = search(arch, layer, SearchConfig(
                    budget=20, seed=7, pad_mode="pad", keep_overrides=keep,
                    fixed_spatial=stencil_pins(layer, arch))).mapping
                left_out += bool(_unrecorded_in_plan_order(arch, layer,
                                                           mapping))
    assert left_out > 0
    # A refetch slot with something to refetch is kept in its place.
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 2, "C": 2, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    assert not _unrecorded_in_plan_order(
        _partial_sum_arch(with_down_converter=True), layer,
        _partial_sum_mapping())


def test_counts_are_nonnegative_integers():
    arch = toys.fanout_converter_arch(fanout=4)
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    c = analyze(arch, toys.conv_k4(), m)
    for lc in c.per_level.values():
        for v in (lc.reads, lc.fills, lc.updates, lc.drains):
            assert isinstance(v, int) and v >= 0
    for v in c.conversions.values():
        assert isinstance(v, int) and v >= 0


def test_evaluate_computes_each_footprint_once(monkeypatch):
    # Validation's capacity check computes the footprint of every kept
    # (level, tensor); counting reads those instead of computing its own.
    arch = albireo.architecture("aggressive")
    layer = load_workload("vgg16").layers[4]
    mapping = search(arch, layer, SearchConfig(
        budget=40, pad_mode="pad",
        fixed_spatial=stencil_pins(layer, arch))).mapping
    original, calls = spec_model.tile_values, []

    def counted(layer, tb, tensor):
        calls.append(tensor)
        return original(layer, tb, tensor)

    for name, module in list(sys.modules.items()):
        if (name.startswith("photon_model")
                and getattr(module, "tile_values", None) is original):
            monkeypatch.setattr(module, "tile_values", counted)
    evaluate(arch, layer, mapping)
    rows = validation_plan(arch, mapping.keep_overrides).capacity
    assert len(calls) == sum(len(keeps) for _, keeps, _, _ in rows) == 9


def test_validation_returns_the_footprints_in_keep_table_order():
    # On searched mappings of the bundled Albireo under the memory study's
    # keep-override sets: the tile_values of each capacity row's tensors at
    # the row's tile, in the row's order, which the count plan names.
    arch = albireo.architecture("aggressive")
    layouts = ({}, {0: ("Weights", "Inputs")}, {0: ("Weights", "Outputs")})
    checked = 0
    for layer in (load_workload("vgg16").layers[::3]
                  + load_workload("alexnet").layers[::3]):
        for keep in layouts:
            try:
                mapping = search(arch, layer, SearchConfig(
                    budget=12, seed=7, pad_mode="pad", keep_overrides=keep,
                    fixed_spatial=stencil_pins(layer, arch))).mapping
            except NoValidMapping:
                continue
            rows = validation_plan(arch, keep).capacity
            tiles = mapping.nest.tiles
            footprints, _ = validate_mapping(mapping, layer, arch)
            assert footprints == tuple(tile_values(layer, tiles[i], t)
                                       for i, kept, _, _ in rows
                                       for t in kept)
            assert counting(arch, keep).plan.kept == tuple(
                (i, t) for i, kept, _, _ in rows for t in kept)
            checked += 1
    assert checked > 10


def test_the_emitted_sweep_counts_loops_at_every_level():
    # evaluate's entry point sweeps LoopNest.loops level by level up to
    # the last tiled level, setting each tiled level's tile changes once
    # its loops are swept. Each placement of the temporal dims over the
    # levels, with loops only at the backing store, only at the compute
    # level and at a tiled level with none at another among them, must
    # count as the oracle does; so must a keep override that reorders a
    # tiled level's tensors, which reorders validation's footprints.
    refetch, small = toys.refetch_toy(1 << 10), toys.fc_k2c3()
    albireo_arch = albireo.architecture("aggressive")
    tiny = Layer(name="small", kind="conv",
                 dims={"N": 1, "K": 8, "C": 4, "R": 3, "S": 3, "P": 2,
                       "Q": 7})
    spatial = {"K": 8, "C": 4, "Q": 7, "R": 3}
    cases = [(refetch, small, {}, {"K": 2, "C": 3}, {}),
             (refetch, small, {1: ("Outputs", "Inputs", "Weights")},
              {"K": 2, "C": 3}, {}),
             (albireo_arch, tiny, {}, {"P": 2, "S": 3}, spatial)]
    seen = set()
    for arch, layer, keep, temporal, spread in cases:
        compute = len(arch.levels) - 1
        for at in itertools.product(range(compute + 1), repeat=len(temporal)):
            levels = tuple(
                LevelMapping(temporal={d: f for (d, f), j
                                       in zip(temporal.items(), at) if j == i},
                             spatial=spread if i == compute else {},
                             permutation=tuple(temporal))
                for i in range(compute + 1))
            m = Mapping(levels=levels, pad=True, keep_overrides=keep)
            try:
                validate_mapping(m, layer, arch)
            except MappingError:
                continue
            assert analyze(arch, layer, m) == simulate(arch, layer, m), at
            seen.add((arch.name, bool(keep), frozenset(at)))
    # Loops only at the store, only at compute, and at tiled level 2 with
    # none at tiled level 1 (and the reverse) are among those counted.
    name = albireo_arch.name
    assert {(name, False, frozenset({0})), (name, False, frozenset({3})),
            (name, False, frozenset({2})), (name, False, frozenset({1})),
            (name, False, frozenset({0, 3})), ("refetch", True,
                                               frozenset({0}))} <= seen
