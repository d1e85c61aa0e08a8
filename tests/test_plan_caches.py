"""The validation plan, the counting lookup (the count plan, its price
program and their bound code), the area, the search's loop-order table
and its chain tables are kept on the architecture instance (per
keep-override set for the plans and the order table, per menu key for
the chain tables). An edited copy, or another override set, must never be
validated, counted, priced or searched through tables built for another:
every result must equal one computed on a freshly built architecture."""

from dataclasses import replace

import pytest

from photon_model import albireo, mapper, reuse, spec_model
from photon_model.evaluator import EvaluationResult, evaluate
from photon_model.mapper import STRATEGIES, SearchConfig, search
from photon_model.oracle import simulate
from photon_model.reuse import analyze, counting, reuse_factors
from photon_model.spec_model import (
    INPUTS,
    OUTPUTS,
    TENSORS,
    WEIGHTS,
    Layer,
    MappingError,
    demand,
    parse_architecture,
    serialize_architecture,
    stencil_pins,
    validate_mapping,
    validation_plan,
)
from photon_model.workloads import load_workload
from toys import refetch_toy

# Small enough for the interpreter, large enough to use every sharing axis
# of the bundled geometry (K8, C4, Q7, R3).
LAYER = Layer(name="small", kind="conv",
              dims={"N": 1, "K": 8, "C": 4, "R": 3, "S": 3, "P": 2, "Q": 7})


def _searched():
    arch = albireo.architecture("aggressive")
    cfg = SearchConfig(budget=60, seed=7, pad_mode="pad",
                       fixed_spatial=stencil_pins(LAYER, arch))
    return arch, search(arch, LAYER, cfg).mapping


def _fresh(arch):
    # The architecture is edited in code, so its own parts are its library.
    return parse_architecture(serialize_architecture(arch),
                              {c.name: c for c, _ in arch.parts})


def _flip_multicast(arch):
    k = next(i for i, mesh in enumerate(arch.meshes) if mesh.may_multicast)
    meshes = list(arch.meshes)
    meshes[k] = replace(meshes[k], may_multicast=False)
    return replace(arch, meshes=tuple(meshes))


def _energies_times_7(arch):
    stage = next(i for i, lv in enumerate(arch.levels)
                 if lv.name == albireo.STAGE_NAME)
    lv = arch.levels[stage]
    comp = replace(lv.component, energy_per_action={
        a: 7 * e for a, e in lv.component.energy_per_action.items()})
    levels = list(arch.levels)
    levels[stage] = replace(lv, component=comp)
    return replace(arch, levels=tuple(levels))


def _converter_instances(arch):
    cvs = list(arch.converters)
    cvs[0] = replace(cvs[0], instances=1)
    return replace(arch, converters=tuple(cvs))


def _backing_store_bandwidth(arch):
    top = arch.levels[0]
    top = replace(top, component=replace(top.component, bandwidth=0.01))
    return replace(arch, levels=(top,) + arch.levels[1:])


def _extra_area(arch):
    extras = list(arch.extras)
    comp = extras[-1].component
    extras[-1] = replace(extras[-1],
                         component=replace(comp, area_um2=2 * comp.area_um2))
    return replace(arch, extras=tuple(extras))


@pytest.mark.parametrize("edit", [_flip_multicast, _energies_times_7,
                                  _converter_instances])
def test_an_edited_copy_never_reads_the_originals_tables(edit):
    a, mapping = _searched()
    b = edit(a)
    want_a = evaluate(_fresh(a), LAYER, mapping)
    want_b = evaluate(_fresh(b), LAYER, mapping)
    assert want_a != want_b

    assert evaluate(a, LAYER, mapping) == want_a
    assert evaluate(b, LAYER, mapping) == want_b
    assert evaluate(a, LAYER, mapping) == want_a
    counts = evaluate(b, LAYER, mapping).counts
    assert (reuse_factors(counts, b, mapping)
            == reuse_factors(counts, _fresh(b), mapping))
    # One Counting is kept per keep-override set, and each architecture
    # keeps its own plan and program: the layouts are equal, the objects
    # are not.
    got_a = counting(a, mapping.keep_overrides)
    got_b = counting(b, mapping.keep_overrides)
    assert got_b.plan is not got_a.plan
    assert (got_b.plan.level_keys == got_a.plan.level_keys
            == tuple(counts.per_level))
    assert counting(a, mapping.keep_overrides) is got_a
    assert counting(b, mapping.keep_overrides) is got_b
    assert got_b.program is not got_a.program
    # The edited copy's program prices as a fresh architecture's does.
    assert (got_b.program
            == counting(_fresh(b), mapping.keep_overrides).program)


def test_one_source_is_compiled_per_layout():
    # The emitted code reads only the layout, and is bound to each
    # architecture's prices, bandwidths and clock as values: the bundled
    # Albireo, a reuse_sweep geometry point and a copy with scaled
    # energies share one source, and a fused pair's keep override lays
    # out other counts. Compiles are counted through the emitter's cache,
    # one source per entry point read: a search compiles the search's,
    # and evaluating its winner evaluate's.
    reuse._binder.cache_clear()

    def compiled():
        return reuse._binder.cache_info().misses

    a, mapping = _searched()
    assert compiled() == 2
    point = albireo.architecture(ao_per_ae_weight=2)
    search(point, LAYER, SearchConfig(budget=20, seed=7, pad_mode="pad",
                                      fixed_spatial=stencil_pins(LAYER,
                                                                 point)))
    scaled = _energies_times_7(a)
    assert (evaluate(scaled, LAYER, mapping)
            == evaluate(_fresh(scaled), LAYER, mapping)
            != evaluate(a, LAYER, mapping))
    assert compiled() == 2
    assert len({counting(arch, {}).count
                for arch in (a, point, scaled)}) == 3
    counting(a, {0: (WEIGHTS, INPUTS)}).count
    assert compiled() == 3


def test_each_entry_point_is_compiled_on_first_read(monkeypatch):
    # Evaluating a mapping emits and compiles evaluate's entry point
    # alone; a search emits the search's and, for its winner, evaluate's.
    emitted = []
    emit = reuse.emit

    def recorded(plan, program, entry):
        emitted.append(entry)
        return emit(plan, program, entry)

    monkeypatch.setattr(reuse, "emit", recorded)
    _, mapping = _searched()
    assert emitted == ["search", "count"]
    reuse._binder.cache_clear()
    emitted.clear()
    arch = albireo.architecture("aggressive")
    evaluate(arch, LAYER, mapping)
    evaluate(arch, LAYER, mapping)
    assert emitted == ["count"]
    assert reuse._binder.cache_info().misses == 1
    assert {"count", "search"} & set(vars(counting(arch, {}))) == {"count"}


@pytest.mark.parametrize("edit, moves", [
    (_backing_store_bandwidth, "cycles"),
    (_converter_instances, "cycles"),
    (_extra_area, "area_um2"),
])
def test_latency_and_area_follow_an_edited_copy(edit, moves):
    # The bandwidths and conversion rates in the price program and the
    # area sum are read per candidate; an edited copy must never see the
    # original's.
    a, mapping = _searched()
    b = edit(a)
    got_a = evaluate(a, LAYER, mapping)
    got_b = evaluate(b, LAYER, mapping)
    assert getattr(got_a, moves) != getattr(got_b, moves)
    assert got_b == evaluate(_fresh(b), LAYER, mapping)
    assert got_a == evaluate(_fresh(a), LAYER, mapping)


def test_each_keep_override_set_gets_its_own_plan():
    arch, plain = _searched()
    bypass = replace(plain, keep_overrides={1: (WEIGHTS, OUTPUTS)})
    got = []
    for mapping in (plain, bypass, replace(plain)):
        counts = analyze(arch, LAYER, mapping)
        assert counts == simulate(arch, LAYER, mapping)
        got.append(counts)
    assert got[0] == got[2]
    assert got[1] != got[0]
    assert not any(lv == 1 and t == INPUTS for lv, t in got[1].per_level)
    assert (counting(arch, plain.keep_overrides).plan
            is counting(arch, replace(plain).keep_overrides).plan)
    assert (counting(arch, bypass.keep_overrides).plan
            is not counting(arch, plain.keep_overrides).plan)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_keep_override_set_gets_its_own_loop_orders(strategy):
    # The producer's fused override makes Outputs born in the buffer, so
    # their buffered tile is no longer refetch-forbidden: the two override
    # sets allow different loop orders.
    layer = Layer(name="toy", kind="conv", dims={
        "N": 1, "K": 2, "C": 4, "R": 1, "S": 1, "P": 2, "Q": 1})
    arch = refetch_toy(128)
    producer = {0: (WEIGHTS, INPUTS)}
    assert (validation_plan(arch, {}).forbidden
            != validation_plan(arch, producer).forbidden)
    got = []
    for overrides in ({}, producer, {}):
        cfg = SearchConfig(strategy=strategy, budget=300, seed=7,
                           keep_overrides=overrides)
        got.append(mapper._search(arch, layer, cfg))
        assert got[-1] == mapper._search(refetch_toy(128), layer, cfg)
    assert got[0] == got[2] != got[1]


# Searches run in turn on one architecture. Each pair of neighbours
# differs in what one of a chain table's key parts reads: a reduction
# floor moves C's first open temporal slot, the consumer's fused override
# moves C's origin under that floor, and then come two pin sets, strict
# mode and a second batch size.
TABLE_SEQUENCE = (
    {},
    {"reduction_floor": 1},
    {"reduction_floor": 1, "keep_overrides": {0: (OUTPUTS, WEIGHTS)}},
    {"fixed_spatial": {(1, "C"): 2}},
    {"fixed_spatial": {(2, "C"): 2}},
    {"pad_mode": "strict"},
    {"pad_mode": "strict", "batch_size": 3},
)
TABLE_LAYER = Layer(name="toy", kind="conv", dims={
    "N": 1, "K": 4, "C": 6, "R": 1, "S": 1, "P": 2, "Q": 2})


def _table_search(arch, fields):
    cfg = SearchConfig(budget=30, seed=1, pad_mode="pad")
    return mapper._search(arch, TABLE_LAYER, replace(cfg, **fields))


def test_chain_tables_follow_every_part_of_their_key():
    # Every search on the shared architecture reads the tables its
    # predecessors built; each must equal the same search on a freshly
    # built architecture, and no two neighbours may search alike.
    arch = refetch_toy(1 << 10)
    got = []
    for fields in TABLE_SEQUENCE:
        got.append(_table_search(arch, fields))
        assert got[-1] == _table_search(refetch_toy(1 << 10), fields), fields
    assert all(a != b for a, b in zip(got, got[1:]))


def test_an_edited_copy_starts_with_no_chain_tables(monkeypatch):
    built = []
    init = mapper._ChainTable.__init__

    def counted(self, arch, *key):
        built.append(arch)
        init(self, arch, *key)

    monkeypatch.setattr(mapper._ChainTable, "__init__", counted)
    a = refetch_toy(1 << 10)
    before = _table_search(a, {})
    tables = len(built)
    assert tables and all(arch is a for arch in built)
    built.clear()
    assert _table_search(a, {}) == before and not built
    # A buffer too small for the choices the search makes on `a`: the
    # copy builds every table afresh, as a new architecture does.
    buf = a.levels[1]
    b = replace(a, levels=(a.levels[0], replace(buf, component=replace(
        buf.component, capacity_bits=96)), a.levels[2]))
    after = _table_search(b, {})
    assert len(built) == tables and all(arch is b for arch in built)
    assert after == _table_search(refetch_toy(96), {}) != before


def _outcome(arch, mapping):
    """Validation's and evaluate's outcome: the result, or the error's
    kind, fields and message."""

    try:
        validate_mapping(mapping, LAYER, arch)
        return evaluate(arch, LAYER, mapping)
    except MappingError as err:
        return err.kind, err.dim, err.level, err.tensor, str(err)


def test_validation_follows_each_architecture_and_override_set():
    # B is A with a global buffer that the searched mapping overflows,
    # and the mapping is checked plain and with Inputs bypassing the
    # buffer: validation and evaluation must follow each architecture and
    # override set, in turn, as a freshly built architecture gives them.
    a, plain = _searched()
    bypass = replace(plain, keep_overrides={1: (WEIGHTS, OUTPUTS)})
    level = next(i for i, lv in enumerate(a.levels)
                 if lv.name == "global_buffer")
    lv = a.levels[level]
    levels = list(a.levels)
    levels[level] = replace(lv, component=replace(
        lv.component,
        capacity_bits=demand(LAYER, plain.nest.tiles[level], TENSORS) - 1))
    b = replace(a, levels=tuple(levels))
    got = {}
    for name, arch in (("A", a), ("B", b), ("A again", a)):
        for mapping in (plain, bypass):
            want = _outcome(_fresh(arch), mapping)
            assert _outcome(arch, mapping) == want, name
            got[name, mapping is bypass] = want
    assert got["B", False][0] == "CapacityExceeded"
    assert isinstance(got["B", True], EvaluationResult)
    assert got["A", False] == got["A again", False] != got["B", False]
    assert got["A", True] == got["A again", True] == got["B", True]


@pytest.mark.parametrize("overrides, fields", [
    ({3: (WEIGHTS,)}, ("FactorMismatch", None, "ao_array", None)),
    ({i: (WEIGHTS, INPUTS) for i in range(3)},
     ("FactorMismatch", None, None, OUTPUTS)),
], ids=["adds-a-tensor", "leaves-a-tensor-unkept"])
def test_a_failing_override_raises_on_every_call(overrides, fields):
    # Nothing is kept for an override set whose plan fails to build.
    arch, plain = _searched()
    mapping = replace(plain, keep_overrides=overrides)
    first, second = (_outcome(arch, mapping) for _ in range(2))
    assert first[:4] == fields
    assert second == first == _outcome(_fresh(arch), mapping)


def _limit_demands(monkeypatch):
    """Count the tile footprints the searches compute, the pricer's in
    mapper and the limits' and validation's in spec_model: a limit kept
    from an earlier search computes none."""

    calls = [0]
    tile_values = spec_model.tile_values

    def counted(*args):
        calls[0] += 1
        return tile_values(*args)

    for module in (mapper, spec_model):
        monkeypatch.setattr(module, "tile_values", counted)
    return calls


def test_an_edited_copy_starts_with_no_limits(monkeypatch):
    calls = _limit_demands(monkeypatch)
    a = albireo.architecture("aggressive")
    cfg = SearchConfig(budget=60, seed=7, pad_mode="pad",
                       fixed_spatial=stencil_pins(LAYER, a))
    first = mapper._search(a, LAYER, cfg)
    fresh = calls[0]
    calls[0] = 0
    # The limits are kept on `a`; only the pricer's footprints, kept per
    # search, are computed again.
    assert mapper._search(a, LAYER, cfg) == first
    assert 0 < calls[0] < fresh
    calls[0] = 0
    assert mapper._search(replace(a), LAYER, cfg) == first
    assert calls[0] == fresh


def _pinned(arch, layer, **fields):
    return mapper._search(arch, layer, SearchConfig(
        budget=60, seed=7, pad_mode="pad",
        fixed_spatial=stencil_pins(layer, arch), **fields))


def test_kept_limits_follow_stride_bits_and_keeps():
    # Each search runs on an architecture whose limits were kept by a
    # search that differs from it only in the layer's stride, its Inputs
    # width or the tensors the stage buffer keeps (as many either way):
    # each must equal the same search on a freshly built architecture.
    # AlexNet conv1 fills the stage buffer, so each of the three moves its
    # limits.
    conv1 = next(l for l in load_workload("alexnet").layers
                 if l.name == "conv1")
    narrow = replace(conv1, bits={**conv1.bits, INPUTS: 4})
    arch = albireo.architecture("aggressive")
    for (first, first_fields), (layer, fields) in (
            ((replace(conv1, stride=(1, 1)), {}), (conv1, {})),
            ((conv1, {}), (narrow, {})),
            ((conv1, {"keep_overrides": {2: (WEIGHTS, INPUTS)}}),
             (conv1, {"keep_overrides": {2: (WEIGHTS, OUTPUTS)}}))):
        primed = _pinned(arch, first, **first_fields)
        got = _pinned(arch, layer, **fields)
        assert got == _pinned(albireo.architecture("aggressive"), layer,
                              **fields)
        assert got != primed
