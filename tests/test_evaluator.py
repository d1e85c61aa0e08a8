import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from photon_model import albireo
from photon_model.evaluator import (
    area,
    energy,
    evaluate,
    peak_spatial_macs,
)
from photon_model.mapper import SearchConfig, search
from photon_model.oracle import simulate
from photon_model.reuse import AccessCounts, LevelCounts
from photon_model.spec_model import (
    Architecture,
    Converter,
    Layer,
    Level,
    LevelMapping,
    Mapping,
    Mesh,
    mapping_digest,
)
from photon_model.workloads import load_workload

import toys
from randgen import random_instance


def _priced_at_random(rng, arch):
    """The architecture with each part's energies scaled by its own random
    factor, so that no sum of them is exact."""

    def scaled(holder):
        comp = holder.component
        return replace(holder, component=replace(comp, energy_per_action={
            a: e * (0.1 + rng.random())
            for a, e in comp.energy_per_action.items()}))

    return replace(arch, levels=tuple(map(scaled, arch.levels)),
                   converters=tuple(map(scaled, arch.converters)))


def _reversed(counts):
    """The counts with per_level and conversions inserted in reverse."""

    return replace(counts,
                   per_level=dict(reversed(counts.per_level.items())),
                   conversions=dict(reversed(counts.conversions.items())))


def test_emitted_pricing_adds_as_the_price_program_does():
    # evaluate prices through the code emitted for its count plan; energy
    # prices counts in hand through PriceProgram.energy, by key. Each
    # part's energy must agree to the last bit, on random instances at
    # random prices (for the engine's counts, the oracle's, and the
    # engine's inserted in reverse key order) and on the bundled
    # geometry's searched conv and fc layers.
    rng = random.Random(43)
    cases = []
    for _ in range(300):
        arch, layer, mapping = random_instance(rng)
        cases.append((_priced_at_random(rng, arch), layer, mapping))
    for arch, layer, mapping in cases:
        ev = evaluate(arch, layer, mapping)
        for counts in (simulate(arch, layer, mapping), _reversed(ev.counts)):
            assert ev.energy_pj == energy(counts, arch, ev.latency_s)
    arch = albireo.architecture("aggressive")
    for layer in load_workload("alexnet").layers[::3]:
        cases.append((arch, layer, search(arch, layer, SearchConfig(
            budget=30, seed=3, pad_mode="pad")).mapping))
    for arch, layer, mapping in cases:
        ev = evaluate(arch, layer, mapping)
        assert ev.energy_pj == energy(ev.counts, arch, ev.latency_s)
        assert list(ev.energy_pj) == sorted(ev.energy_pj)


def test_zero_counts_zero_energy():
    arch = toys.fc_direct()
    out = energy(AccessCounts(), arch, latency_s=0.0)
    assert all(v == 0.0 for v in out.values())


def test_energy_linear_in_reads():
    arch = Architecture(
        name="lin", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20,
                                            read=2.0), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), 1, ())),
        meshes=(Mesh(),), converters=())
    counts = AccessCounts(per_level={(0, "Weights"): LevelCounts(reads=10)})
    out = energy(counts, arch, latency_s=0.0)
    assert out["sram"] == pytest.approx(20.0)


def test_static_power_charged_for_latency():
    comp = replace(toys.storage("sram", "DE", 1 << 20), static_power_mw=5.0)
    arch = Architecture(
        name="static", clock_ghz=1.0,
        levels=(Level("store", comp, 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), 1, ())),
        meshes=(Mesh(),), converters=())
    # 5 mW for 1 us is 5 nJ, i.e. 5000 pJ; doubling latency doubles it.
    one = energy(AccessCounts(), arch, latency_s=1e-6)["sram"]
    two = energy(AccessCounts(), arch, latency_s=2e-6)["sram"]
    assert one == pytest.approx(5000.0)
    assert two == pytest.approx(2 * one)


def test_area_sums_instances():
    arch = Architecture(
        name="area", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE", area=5.0), 4, ())),
        meshes=(Mesh(may_multicast=True),), converters=())
    assert area(arch) == pytest.approx(20.0)

    with_conv = Architecture(
        name="area2", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("amac", "AE", area=5.0), 4, ())),
        meshes=(Mesh(may_multicast=True),),
        converters=(Converter("dn", toys.converter("dac", "DE", "AE",
                                                   area=7.0), 1,
                              ("Weights", "Inputs"), 3),
                    Converter("up", toys.converter("adc", "AE", "DE"), 1,
                              ("Outputs",), 1)))
    assert area(with_conv) == pytest.approx(20.0 + 3 * 7.0)


def test_doubling_fanout_doubles_fanned_area():
    a4 = Architecture(
        name="a4", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE", area=5.0), 4, ())),
        meshes=(Mesh(),), converters=())
    a8 = Architecture(
        name="a8", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE", area=5.0), 8, ())),
        meshes=(Mesh(),), converters=())
    assert area(a8) == pytest.approx(2 * area(a4))


def test_partial_spatial_occupancy_utilization():
    # K=12 on 8 lanes: padded to two passes of 8, utilization 12/16.
    arch = toys.fanout_converter_arch(fanout=8)
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 12, "C": 1, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(temporal={"K": 2}),
                        LevelMapping(spatial={"K": 8})), pad=True)
    res = evaluate(arch, layer, m)
    assert res.utilization == pytest.approx(12 / 16)
    assert res.counts.real_macs == 12
    assert res.counts.macs == 16


def test_full_occupancy_reaches_ideal_throughput():
    arch = toys.fanout_converter_arch(fanout=8)
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 8, "C": 1, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(),
                        LevelMapping(spatial={"K": 8})))
    res = evaluate(arch, layer, m)
    assert res.utilization == pytest.approx(1.0)
    ideal = peak_spatial_macs(arch) * arch.clock_ghz * 1e9
    assert res.macs_per_s == pytest.approx(ideal)


def test_throughput_never_exceeds_ideal():
    arch = toys.fanout_converter_arch(fanout=4)
    ideal = peak_spatial_macs(arch) * arch.clock_ghz * 1e9
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    res = evaluate(arch, toys.conv_k4(), m)
    assert res.macs_per_s <= ideal + 1e-6
    assert res.cycles >= res.compute_cycles


def test_total_energy_is_component_sum():
    arch = toys.fanout_converter_arch(fanout=4)
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    res = evaluate(arch, toys.conv_k4(), m)
    assert res.total_energy_pj == pytest.approx(sum(res.energy_pj.values()))


def test_component_energy_scaling_is_isolated():
    arch = toys.fanout_converter_arch(fanout=4)
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    base = evaluate(arch, toys.conv_k4(), m)
    store = arch.levels[0]
    sram = replace(store.component, energy_per_action={
        a: 2 * e for a, e in store.component.energy_per_action.items()})
    arch2 = replace(arch, levels=(replace(store, component=sram),)
                    + arch.levels[1:])
    doubled = evaluate(arch2, toys.conv_k4(), m)
    assert doubled.energy_pj["sram"] == pytest.approx(
        2 * base.energy_pj["sram"])
    for name in ("dac", "adc", "amac"):
        assert doubled.energy_pj[name] == pytest.approx(base.energy_pj[name])
    assert doubled.counts == base.counts


def test_mapping_digest_is_built_on_first_read():
    arch = toys.fanout_converter_arch(fanout=4)
    m = Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4})))
    res = evaluate(arch, toys.conv_k4(), m)
    assert "mapping_digest" not in vars(res)
    assert res.mapping_digest == mapping_digest(m)
    assert "mapping_digest" in vars(res)


def test_results_compare_by_digest_not_by_mapping_object():
    arch = toys.fanout_converter_arch(fanout=4)
    outer = LevelMapping(temporal={"C": 2, "R": 3, "S": 3, "P": 4, "Q": 4})
    inner = LevelMapping(spatial={"K": 4})
    m = Mapping(levels=(outer, inner))
    res = evaluate(arch, toys.conv_k4(), m)
    # A unit factor changes the Mapping, not the schedule or its digest.
    same = Mapping(levels=(replace(outer, temporal={**outer.temporal,
                                                    "N": 1}), inner))
    assert same != m and mapping_digest(same) == mapping_digest(m)
    assert replace(res, mapping=same) == res
    other = Mapping(levels=(replace(outer, permutation=("Q", "P")), inner))
    assert mapping_digest(other) != mapping_digest(m)
    assert replace(res, mapping=other) != res


def test_records_stay_frozen_dataclasses():
    # LevelMapping, Mapping and EvaluationResult fill their fields
    # without the dataclass __init__; they must keep its contract.
    res = search(toys.fc_weight_buffer(), toys.fc_k2c3(),
                 SearchConfig(strategy="exhaustive"))
    mapping, result = res.mapping, res.evaluation
    level = next(lm for lm in mapping.levels if lm.temporal)
    for record in (level, mapping, result):
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(record, f.name)
        copy = replace(record)
        assert copy is not record and copy == record
        assert repr(copy) == repr(record)
        assert all(getattr(copy, f.name) is getattr(record, f.name)
                   for f in fields(record))
    assert replace(mapping, batch_size=2).batch_size == 2
    assert replace(result, cycles=result.cycles + 1) != result
    # The members made on first read still are.
    assert replace(mapping).nest == mapping.nest
    assert replace(result).mapping_digest == mapping_digest(mapping)
    assert evaluate(toys.fc_weight_buffer(), toys.fc_k2c3(),
                    mapping) == result
    # Each default is a fresh dict, never one shared between records.
    a, b = LevelMapping(), LevelMapping()
    assert a == b and a.temporal == a.spatial == {} and a.permutation == ()
    assert a.temporal is not b.temporal and a.spatial is not b.spatial
    assert Mapping((a,)).keep_overrides is not Mapping((b,)).keep_overrides
    assert repr(LevelMapping({"K": 2}, permutation=("K",))) == (
        "LevelMapping(temporal={'K': 2}, spatial={}, permutation=('K',))")
    assert repr(Mapping((a,), pad=True)) == (
        "Mapping(levels=(LevelMapping(temporal={}, spatial={}, "
        "permutation=()),), batch_size=1, keep_overrides={}, pad=True)")
