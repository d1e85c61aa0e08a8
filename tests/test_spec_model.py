import ast
import inspect
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from photon_model import albireo, cli, experiments, spec_model
from photon_model.components import PROFILES, builtin_components
from photon_model.experiments import ExperimentConfig, parse_experiment_config
from photon_model.mapper import SearchConfig, search
from photon_model.spec_model import (
    DIMS,
    DOWN,
    INPUTS,
    OUTPUTS,
    UP,
    WEIGHTS,
    Architecture,
    Converter,
    FieldType,
    Layer,
    Level,
    LevelMapping,
    LoopNest,
    Mapping,
    MappingError,
    Mesh,
    SpecError,
    Workload,
    canonical_json,
    load_document,
    mapping_digest,
    parse_architecture,
    parse_layer,
    parse_mapping,
    parse_spec,
    serialize_architecture,
    serialize_mapping,
    serialize_spec,
    stencil_pins,
    tile_values,
    validate_mapping,
)
from photon_model.workloads import (
    load_reference_breakdown,
    load_spec,
    reference_breakdown_path,
)

import toys
from randgen import random_architecture


def minimal_doc(mac_domain="DE", converters=()):
    return {
        "spec_version": 1,
        "components": [
            {"name": "sram", "class": "storage", "domain": "DE",
             "energy_per_action": {"read": 1.0, "write": 1.0},
             "capacity_bits": 65536},
            {"name": "mac", "class": "compute", "domain": mac_domain,
             "energy_per_action": {"compute": 0.5}},
            {"name": "dac", "class": "converter", "domain_in": "DE",
             "domain_out": "AE", "energy_per_action": {"convert": 2.0}},
            {"name": "adc", "class": "converter", "domain_in": "AE",
             "domain_out": "DE", "energy_per_action": {"convert": 2.0}},
        ],
        "architecture": {
            "name": "mini",
            "levels": [
                {"name": "store", "component": "sram",
                 "keeps": ["Weights", "Inputs", "Outputs"]},
                {"name": "pe", "component": "mac"},
            ],
            "converters": list(converters),
        },
    }


def test_minimal_two_level_document_parses():
    spec = parse_spec(minimal_doc())
    assert spec.architecture is not None
    assert len(spec.architecture.levels) == 2
    assert spec.architecture.converters == ()


def test_domain_crossing_without_converter_rejected():
    with pytest.raises(SpecError) as e:
        parse_spec(minimal_doc(mac_domain="AE"))
    assert e.value.kind == "MissingConverter"


def test_domain_crossing_with_converters_accepted():
    doc = minimal_doc(mac_domain="AE", converters=[
        {"name": "dn", "component": "dac", "between": ["store", "pe"],
         "tensors": ["Weights", "Inputs"]},
        {"name": "up", "component": "adc", "between": ["store", "pe"],
         "tensors": ["Outputs"]},
    ])
    arch = parse_spec(doc).architecture
    assert [c.name for c in arch.converters] == ["dn", "up"]
    assert arch.converters[0].edge == 1


def test_partial_converter_coverage_still_rejected():
    # Down conversion for weights only: inputs still cross uncovered.
    doc = minimal_doc(mac_domain="AE", converters=[
        {"name": "dn", "component": "dac", "between": ["store", "pe"],
         "tensors": ["Weights"]},
        {"name": "up", "component": "adc", "between": ["store", "pe"],
         "tensors": ["Outputs"]},
    ])
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert e.value.kind == "MissingConverter"
    assert "Inputs" in str(e.value)


def test_duplicate_converter_coverage_rejected():
    doc = minimal_doc(mac_domain="AE", converters=[
        {"name": "dn", "component": "dac", "between": ["store", "pe"],
         "tensors": ["Weights", "Inputs"]},
        {"name": "dn2", "component": "dac", "between": ["store", "pe"],
         "tensors": ["Weights"]},
        {"name": "up", "component": "adc", "between": ["store", "pe"],
         "tensors": ["Outputs"]},
    ])
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert e.value.kind == "MalformedDocument"


def test_spec_version_is_mandatory():
    doc = minimal_doc()
    del doc["spec_version"]
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert e.value.kind == "MalformedDocument"
    assert "spec_version" in e.value.path


def test_unknown_top_level_field_rejected():
    doc = minimal_doc()
    doc["architectures"] = doc.pop("architecture")
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert "architectures" in str(e.value)


def full_doc():
    """minimal_doc with every kind of nested object: a converter pair, a
    mesh, an extra and a one-layer workload."""

    doc = minimal_doc(mac_domain="AE", converters=[
        {"name": "dn", "component": "dac", "between": ["store", "pe"],
         "tensors": ["Weights", "Inputs"]},
        {"name": "up", "component": "adc", "between": ["store", "pe"],
         "tensors": ["Outputs"]},
    ])
    arch = doc["architecture"]
    arch["meshes"] = [{"between": ["store", "pe"], "may_multicast": True}]
    arch["extras"] = [{"name": "laser", "component": "sram", "instances": 2}]
    doc["workload"] = {"name": "w", "layers": [
        {"name": "l", "kind": "conv", "dims": {"K": 2, "C": 2, "P": 2,
                                              "R": 2},
         "stride": 1, "bits": {"Weights": 4}}]}
    return doc


def _typo(where, old, new):
    """Rename field `old` to `new` in the object `where` picks."""

    def edit(doc):
        obj = where(doc)
        obj[new] = obj.pop(old)
    return edit


# (edit, path of the object the error must name)
NESTED_TYPOS = {
    "component": (_typo(lambda d: d["components"][0], "capacity_bits",
                        "capacity"), "$.components[0]"),
    "architecture": (_typo(lambda d: d["architecture"], "name", "title"),
                     "architecture"),
    "level keep": (_typo(lambda d: d["architecture"]["levels"][0], "keeps",
                         "keep"), "architecture.levels[0]"),
    "mesh": (_typo(lambda d: d["architecture"]["meshes"][0],
                   "may_multicast", "multicast"), "architecture.meshes[0]"),
    "converter": (_typo(lambda d: d["architecture"]["converters"][1],
                        "tensors", "tensor"), "architecture.converters[1]"),
    "extra": (_typo(lambda d: d["architecture"]["extras"][0], "instances",
                    "count"), "architecture.extras[0]"),
    "workload": (_typo(lambda d: d["workload"], "name", "label"), "workload"),
    "layer strid": (_typo(lambda d: d["workload"]["layers"][0], "stride",
                          "strid"), "workload.layers[0]"),
    "layer bits": (_typo(lambda d: d["workload"]["layers"][0]["bits"],
                         "Weights", "Weight"), "workload.layers[0].bits"),
}


def test_every_nested_object_parses_when_spelled_right():
    spec = parse_spec(full_doc())
    assert spec.architecture.meshes[0].may_multicast
    assert spec.architecture.extras[0].instances == 2
    assert spec.workload.layers[0].bits["Weights"] == 4


@pytest.mark.parametrize("case", sorted(NESTED_TYPOS))
def test_unknown_nested_field_rejected(case):
    edit, path = NESTED_TYPOS[case]
    doc = full_doc()
    edit(doc)
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert (e.value.kind, e.value.path) == ("MalformedDocument", path)


def _set(where, key, value):
    """Set field `key` of the object `where` picks to `value`."""

    def edit(doc):
        where(doc)[key] = value
    return edit


def _component(d):
    return d["components"][0]


def _mesh(d):
    return d["architecture"]["meshes"][0]


def _layer(d):
    return d["workload"]["layers"][0]


# (edit, path of the value the error must name). Each scalar was coerced
# (a string or bool read as a flag or a number, a fraction truncated) or
# crashed the parser with IndexError.
ILL_TYPED_SCALARS = {
    "spec_version-bool": (_set(lambda d: d, "spec_version", True),
                          "$.spec_version"),
    "may_multicast-string": (_set(_mesh, "may_multicast", "false"),
                             "architecture.meshes[0].may_multicast"),
    "may_reduce-string": (_set(_mesh, "may_reduce", "no"),
                          "architecture.meshes[0].may_reduce"),
    "may_reduce-int": (_set(_mesh, "may_reduce", 1),
                       "architecture.meshes[0].may_reduce"),
    "clock_ghz-bool": (_set(lambda d: d["architecture"], "clock_ghz", True),
                       "architecture.clock_ghz"),
    "fanout-string": (_set(lambda d: d["architecture"]["levels"][1],
                           "fanout", "2"), "architecture.levels[1].fanout"),
    "instances-bool": (_set(lambda d: d["architecture"]["converters"][0],
                            "instances", True),
                       "architecture.converters[0].instances"),
    "static_power_mw-string": (_set(_component, "static_power_mw", "5"),
                               "$.components[0].static_power_mw"),
    "area_um2-null": (_set(_component, "area_um2", None),
                      "$.components[0].area_um2"),
    "bandwidth-bool": (_set(_component, "bandwidth", True),
                       "$.components[0].bandwidth"),
    "energy-string": (_set(_component, "energy_per_action", {"read": "1"}),
                      "$.components[0].energy_per_action.read"),
    "capacity_bits-fraction": (_set(_component, "capacity_bits", 8.5),
                               "$.components[0].capacity_bits"),
    "stride-fraction": (_set(_layer, "stride", [1.5, 1]),
                        "workload.layers[0].stride[0]"),
    "stride-string": (_set(_layer, "stride", "2"), "workload.layers[0].stride"),
    "stride-short": (_set(_layer, "stride", [1]), "workload.layers[0].stride"),
    "bits-fraction": (_set(_layer, "bits", {"Weights": 8.5}),
                      "workload.layers[0].bits.Weights"),
    "bits-bool": (_set(_layer, "bits", True), "workload.layers[0].bits"),
    "dims-bool": (_set(_layer, "dims", {"K": True}),
                  "workload.layers[0].dims.K"),
    "static_power_mw-nan": (_set(_component, "static_power_mw", math.nan),
                            "$.components[0].static_power_mw"),
    # Too large for a float: raised OverflowError.
    "static_power_mw-overflow": (_set(_component, "static_power_mw",
                                      10 ** 400),
                                 "$.components[0].static_power_mw"),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED_SCALARS))
def test_ill_typed_scalar_rejected(case):
    edit, path = ILL_TYPED_SCALARS[case]
    doc = full_doc()
    edit(doc)
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert (e.value.kind, e.value.path) == ("MalformedDocument", path)


def test_well_typed_scalars_parse():
    doc = full_doc()
    _layer(doc).update(stride=[2, 1.0], bits=6)
    _mesh(doc).update(may_reduce=False)
    _component(doc).update(static_power_mw=5, area_um2=1.5)
    spec = parse_spec(doc)
    assert spec.workload.layers[0].stride == (2, 1)
    assert spec.workload.layers[0].bits == dict.fromkeys(
        (WEIGHTS, INPUTS, OUTPUTS), 6)
    assert spec.library["sram"].static_power_mw == 5.0
    assert spec.architecture.meshes[0].may_reduce is False


def _parse_spec(doc, tmp_path):
    parse_spec(doc)


def _parse_config(doc, tmp_path):
    parse_experiment_config(doc)


def _parse_mapping(doc, tmp_path):
    parse_mapping(doc, toys.fc_weight_buffer())


def _load_reference(doc, tmp_path):
    path = tmp_path / "ref.breakdown"
    path.write_text(json.dumps(doc))
    load_reference_breakdown(path)


def _bundled_reference():
    return json.loads(reference_breakdown_path().read_text())


# Every field table, as (module, name): a document holding one of its
# objects, that object in it, the object's path ("{tmp}" for the test's
# directory) and the parser that reads it.
TABLE_SITES = {
    (spec_model, "_SPEC"): (full_doc, lambda d: d, "$", _parse_spec),
    (spec_model, "_COMPONENT"): (full_doc, _component, "$.components[0]",
                                 _parse_spec),
    (spec_model, "_ARCHITECTURE"): (full_doc, lambda d: d["architecture"],
                                    "architecture", _parse_spec),
    (spec_model, "_LEVEL"): (full_doc,
                             lambda d: d["architecture"]["levels"][0],
                             "architecture.levels[0]", _parse_spec),
    (spec_model, "_MESH"): (full_doc, _mesh, "architecture.meshes[0]",
                            _parse_spec),
    (spec_model, "_CONVERTER"): (full_doc,
                                 lambda d: d["architecture"]["converters"][0],
                                 "architecture.converters[0]", _parse_spec),
    (spec_model, "_EXTRA"): (full_doc,
                             lambda d: d["architecture"]["extras"][0],
                             "architecture.extras[0]", _parse_spec),
    (spec_model, "_WORKLOAD"): (full_doc, lambda d: d["workload"],
                                "workload", _parse_spec),
    (spec_model, "_LAYER"): (full_doc, _layer, "workload.layers[0]",
                             _parse_spec),
    (spec_model, "_BITS"): (full_doc, lambda d: _layer(d)["bits"],
                            "workload.layers[0].bits", _parse_spec),
    (spec_model, "_MAPPING_DOC"): (lambda: mapping_doc()[1], lambda d: d, "$",
                                   _parse_mapping),
    (spec_model, "_MAPPING"): (lambda: mapping_doc()[1],
                               lambda d: d["mapping"], "mapping",
                               _parse_mapping),
    (spec_model, "_LEVEL_MAPPING"): (lambda: mapping_doc()[1],
                                     lambda d: d["mapping"]["levels"][1],
                                     "mapping.levels[1]", _parse_mapping),
    (experiments, "_CONFIG"): (lambda: {"experiment": "memory"},
                               lambda d: d, "experiment", _parse_config),
    (spec_model, "REFERENCE_BREAKDOWN"): (
        _bundled_reference, lambda d: d, "{tmp}/ref.breakdown:$",
        _load_reference),
}

# use_builtin_components takes any value; one that names no profile is
# UnknownComponent (DOCUMENT_ERRORS).
UNTYPED = {((spec_model, "_SPEC"), "use_builtin_components")}
TABLE_FIELDS = [pytest.param(site, name, id=f"{site[1]}.{name}")
                for site in TABLE_SITES for name in getattr(*site).fields
                if (site, name) not in UNTYPED]


def test_every_table_has_a_site():
    tables = {(m, n) for m in (spec_model, experiments)
              for n, v in vars(m).items()
              if isinstance(v, FieldType) and v.fields is not None}
    assert tables == set(TABLE_SITES)


def _rejected_value(kind):
    """A string, or a number where a string is read."""

    try:
        kind.read("x", "")
    except SpecError:
        return "x"
    return 5


@pytest.mark.parametrize("site,name", TABLE_FIELDS)
def test_wrong_typed_field_is_named_by_its_path(site, name, tmp_path):
    make, where, path, parse = TABLE_SITES[site]
    doc = make()
    where(doc)[name] = _rejected_value(getattr(*site).fields[name][0])
    with pytest.raises(SpecError) as e:
        parse(doc, tmp_path)
    want = f"{path.format(tmp=tmp_path)}.{name}"
    assert (e.value.kind, e.value.path) == ("MalformedDocument", want)


def _map_set(where, key, value):
    def parse():
        arch, doc = mapping_doc()
        where(doc)[key] = value
        parse_mapping(doc, arch)
    return parse


def _spec_set(where, key, value):
    def parse():
        doc = full_doc()
        where(doc)[key] = value
        parse_spec(doc)
    return parse


# Container fields that crashed the parser, were read as something else,
# or were reported at another object before they had field types.
WRONG_CONTAINERS = {
    "level-keeps-int": (
        _spec_set(lambda d: d["architecture"]["levels"][1], "keeps", 5),
        "architecture.levels[1].keeps"),
    "architecture-name-int": (
        _spec_set(lambda d: d["architecture"], "name", 5),
        "architecture.name"),
    "level-name-int": (
        _spec_set(lambda d: d["architecture"]["levels"][1], "name", 5),
        "architecture.levels[1].name"),
    "converter-tensors-string": (
        _spec_set(lambda d: d["architecture"]["converters"][0], "tensors",
                  "Weights"), "architecture.converters[0].tensors"),
    "temporal-list": (
        _map_set(lambda d: d["mapping"]["levels"][1], "temporal", [2]),
        "mapping.levels[1].temporal"),
    "levels-int": (_map_set(lambda d: d["mapping"], "levels", 5),
                   "mapping.levels"),
    "keep-override-key": (
        _map_set(lambda d: d["mapping"], "keep_overrides", {"x": ["Weights"]}),
        "mapping.keep_overrides.x"),
    "permutation-string": (
        _map_set(lambda d: d["mapping"]["levels"][1], "permutation", "KC"),
        "mapping.levels[1].permutation"),
}


@pytest.mark.parametrize("case", sorted(WRONG_CONTAINERS))
def test_wrong_container_is_named_by_its_path(case):
    parse, path = WRONG_CONTAINERS[case]
    with pytest.raises(SpecError) as e:
        parse()
    assert (e.value.kind, e.value.path) == ("MalformedDocument", path)


# Keys that int() reads as a level index, but not in canonical form: each
# would name a level another key may name too.
ALIASED_KEYS = {"leading-zero": "01", "leading-space": " 1",
                "trailing-space": "1 ", "plus": "+1", "minus": "-1",
                "underscore": "0_1", "full-width": "\uff11",
                "empty": "", "float": "1.0", "huge": "9" * 5000}


@pytest.mark.parametrize("key", ALIASED_KEYS.values(), ids=ALIASED_KEYS)
def test_keep_override_key_must_be_a_canonical_level_index(key):
    arch, doc = mapping_doc()
    doc["mapping"]["keep_overrides"] = {key: ["Weights"]}
    with pytest.raises(SpecError) as e:
        parse_mapping(doc, arch)
    assert (e.value.kind, e.value.path) == (
        "MalformedDocument", f"mapping.keep_overrides.{key}")


def test_two_keys_for_one_level_are_rejected():
    # Both keys read as level 1, so one entry used to replace the other.
    arch, doc = mapping_doc()
    doc["mapping"]["keep_overrides"] = {"1": ["Weights"], "01": []}
    with pytest.raises(SpecError) as e:
        parse_mapping(doc, arch)
    assert (e.value.kind, e.value.path) == (
        "MalformedDocument", "mapping.keep_overrides.01")
    doc["mapping"]["keep_overrides"] = {"1": ["Weights"],
                                        "0": ["Weights", "Inputs", "Outputs"]}
    assert parse_mapping(doc, arch).keep_overrides == {
        0: ("Inputs", "Outputs", "Weights"), 1: ("Weights",)}


def test_integral_float_factor_is_a_mapping_error():
    # parse_mapping leaves factor values to validate_mapping, as for a
    # Mapping built in code.
    arch, doc = mapping_doc()
    doc["mapping"]["levels"][1]["temporal"]["C"] = 3.0
    layer = Layer(name="fc", kind="fully_connected", dims={
        "N": 1, "K": 2, "C": 3, "P": 1, "Q": 1, "R": 1, "S": 1})
    with pytest.raises(MappingError) as e:
        validate_mapping(parse_mapping(doc, arch), layer, arch)
    assert (e.value.kind, e.value.dim) == ("FactorMismatch", "C")


def _repeat_the_layer(doc):
    layers = doc["workload"]["layers"]
    layers.append(dict(layers[0]))


def _stencil(level, widths, fanout=4):
    """Give level `level` a stencil of `widths` and a fanout of `fanout`."""

    def edit(doc):
        doc["architecture"]["levels"][level].update(fanout=fanout,
                                                    stencil=widths)
    return edit


def _name_both_levels_store(doc):
    # Without meshes or converters, which would name the level first.
    doc.update(minimal_doc())
    doc["architecture"]["levels"][1]["name"] = "store"


def _no_levels(doc):
    # Without meshes or converters, which would name a level first: the
    # architecture's own rule rejects fewer than two levels.
    doc.update(minimal_doc())
    doc["architecture"]["levels"] = []


# (edit, kind, path) for every document error the other tests leave
# unreached: one case per raise in parsing and validation.
DOCUMENT_ERRORS = {
    "converter-keeps-domain": (
        _set(lambda d: d["components"][2], "domain_out", "DE"),
        "MalformedDocument", "$.components[2]"),
    "width-not-positive": (_set(_component, "width_bits", 0),
                           "MalformedDocument", "$.components[0]"),
    "component-not-object": (
        _set(lambda d: d, "components", ["sram"]),
        "MalformedDocument", "$.components[0]"),
    "component-missing-class": (
        lambda d: _component(d).pop("class"),
        "MalformedDocument", "$.components[0]"),
    "energy-not-map": (_set(_component, "energy_per_action", [1.0]),
                       "MalformedDocument",
                       "$.components[0].energy_per_action"),
    "unknown-profile": (
        _set(lambda d: d, "use_builtin_components", "nope"),
        "UnknownComponent", "$.use_builtin_components"),
    "unhashable-profile": (
        _set(lambda d: d, "use_builtin_components", ["aggressive"]),
        "UnknownComponent", "$.use_builtin_components"),
    "include-left-unresolved": (
        _set(lambda d: d, "include", ["lib.json"]),
        "MalformedDocument", "$.include"),
    "levels-empty": (_no_levels, "MalformedDocument", "architecture[mini]"),
    "level-names-repeat": (_name_both_levels_store, "MalformedDocument",
                           "architecture[mini]"),
    "level-wrong-class": (
        _set(lambda d: d["architecture"]["levels"][0], "component", "mac"),
        "MalformedDocument", "architecture[mini].levels[0]"),
    "between-not-a-pair": (_set(_mesh, "between", ["store"]),
                           "MalformedDocument", "architecture.meshes[0]"),
    "between-unknown-level": (_set(_mesh, "between", ["store", "nope"]),
                              "MalformedDocument", "architecture.meshes[0]"),
    "between-inner-first": (_set(_mesh, "between", ["pe", "store"]),
                            "MalformedDocument", "architecture.meshes[0]"),
    "converter-names-repeat": (
        _set(lambda d: d["architecture"]["converters"][1], "name", "dn"),
        "MalformedDocument", "architecture[mini].converters"),
    # The later entry silently replaced the earlier one.
    "component-names-repeat": (
        lambda d: d["components"].append(dict(_component(d))),
        "MalformedDocument", "$.components[4]"),
    "mesh-repeats": (
        lambda d: d["architecture"]["meshes"].append(
            {"between": ["store", "pe"]}),
        "MalformedDocument", "architecture.meshes[1]"),
    "extra-names-repeat": (
        lambda d: d["architecture"]["extras"].append(
            {"name": "laser", "component": "sram"}),
        "MalformedDocument", "architecture[mini].extras"),
    "layers-empty": (_set(lambda d: d["workload"], "layers", []),
                     "MalformedDocument", "workload[w]"),
    "layer-names-repeat": (_repeat_the_layer, "MalformedDocument",
                           "workload[w]"),
    "unknown-dim": (_set(_layer, "dims", {"K": 2, "X": 2}),
                    "MalformedDocument", "layer[l]"),
    "stencil-unknown-dim": (_stencil(1, {"K": 2, "X": 2}),
                            "MalformedDocument",
                            "architecture[mini].levels[1].stencil.X"),
    "stencil-width-zero": (_stencil(1, {"K": 0}), "BadBound",
                           "architecture[mini].levels[1].stencil.K"),
    "stencil-above-fanout": (_stencil(1, {"K": 4, "C": 2}), "BadBound",
                             "architecture[mini].levels[1].stencil"),
    "stencil-on-outermost": (_stencil(0, {"K": 1}, fanout=1), "BadBound",
                             "architecture[mini].levels[0].stencil"),
    "refined-capacity-zero": (
        _set(lambda d: d["architecture"]["levels"][0], "capacity_bits", 0),
        "CapacityNonPositive", "architecture[mini].levels[0]"),
    "refined-bandwidth-zero": (
        _set(lambda d: d["architecture"]["converters"][0], "bandwidth", 0),
        "MalformedDocument", "architecture[mini].converters[dn]"),
    "refined-energy-scale-zero": (
        _set(lambda d: d["architecture"]["extras"][0], "energy_scale", 0),
        "MalformedDocument", "architecture.extras[0].energy_scale"),
    "refined-energy-scale-negative": (
        _set(lambda d: d["architecture"]["levels"][1], "energy_scale", -2.0),
        "MalformedDocument", "architecture.levels[1].energy_scale"),
    # A negative energy, static power or area parsed, and was charged.
    "energy-negative": (
        _set(_component, "energy_per_action", {"read": -1.0}), "BadBound",
        "$.components[0].energy_per_action.read"),
    "static_power_mw-negative": (_set(_component, "static_power_mw", -3),
                                 "BadBound",
                                 "$.components[0].static_power_mw"),
    "area_um2-negative": (_set(_component, "area_um2", -7), "BadBound",
                          "$.components[0].area_um2"),
    # Negative lasers charged negative power and area.
    "extra-instances-negative": (
        _set(lambda d: d["architecture"]["extras"][0], "instances", -3),
        "MalformedDocument", "architecture[mini].extras[laser]"),
    # domain silently overrode the domain_in and domain_out also stated.
    "domain-stated-twice": (_set(_component, "domain_in", "AE"),
                            "MalformedDocument", "$.components[0]"),
    "domain-missing": (lambda d: _component(d).pop("domain"),
                       "MalformedDocument", "$.components[0]"),
    # A repeated tensor loaded as written; a converter's was blamed on a
    # second converter carrying it.
    "keeps-tensor-repeats": (
        _set(lambda d: d["architecture"]["levels"][0], "keeps",
             ["Weights", "Weights", "Inputs", "Outputs"]),
        "MalformedDocument", "architecture[mini].levels[0]"),
    "converter-tensor-repeats": (
        _set(lambda d: d["architecture"]["converters"][0], "tensors",
             ["Weights", "Inputs", "Weights"]),
        "MalformedDocument", "architecture[mini].converters[dn]"),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_ERRORS))
def test_document_error_names_its_kind_and_path(case):
    edit, kind, path = DOCUMENT_ERRORS[case]
    doc = full_doc()
    edit(doc)
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert (e.value.kind, e.value.path) == (kind, path)


@pytest.mark.parametrize("case, message", [
    ("domain-stated-twice", "domain or domain_in and domain_out, not both"),
    ("domain-missing", "missing field 'domain'"),
    ("keeps-tensor-repeats", "tensor 'Weights' repeats"),
    ("converter-tensor-repeats", "tensor 'Weights' repeats")])
def test_a_domain_or_tensor_error_names_the_field(case, message):
    edit, _, _ = DOCUMENT_ERRORS[case]
    doc = full_doc()
    edit(doc)
    with pytest.raises(SpecError, match=message):
        parse_spec(doc)


def test_a_component_may_shadow_a_builtin_part():
    doc = minimal_doc()
    doc["use_builtin_components"] = "aggressive"
    doc["components"][0]["name"] = "global_buffer_sram"
    doc["architecture"]["levels"][0]["component"] = "global_buffer_sram"
    store = parse_spec(doc).architecture.levels[0].component
    assert store.energy("read") == 1.0
    assert store != builtin_components()["global_buffer_sram"]


def test_a_repeated_json_key_names_the_file_and_key(tmp_path, capsys):
    # JSON lets the last value win: the layer read K=8.
    spec = tmp_path / "twice.spec"
    spec.write_text(json.dumps(full_doc()).replace('"K": 2', '"K": 4, "K": 8'))
    ref = tmp_path / "twice.breakdown"
    ref.write_text('{"breakdown": {"adc": 1.0, "dac": 2.0, "adc": 3.0}}')
    for load, path, key in ((load_document, spec, "K"),
                            (load_reference_breakdown, ref, "adc")):
        with pytest.raises(SpecError) as e:
            load(str(path))
        assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                                str(path))
        assert f"repeated key {key!r}" in str(e.value)
    assert cli.main(["spec", str(spec)]) == 2
    assert "repeated key 'K'" in capsys.readouterr().err


def test_an_unreadable_file_names_itself(tmp_path, capsys):
    # A file that was not UTF-8 raised a bare UnicodeDecodeError, and a
    # missing reference breakdown a FileNotFoundError.
    utf16 = tmp_path / "utf16.spec"
    utf16.write_bytes("\ufeff{}".encode("utf-16-le"))
    missing = tmp_path / "missing.breakdown"
    for load in (load_document, load_reference_breakdown):
        for path in (utf16, missing):
            with pytest.raises(SpecError) as e:
                load(str(path))
            assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                                    str(path))
    assert cli.main(["spec", str(utf16)]) == 2
    assert f"MalformedDocument at {utf16}" in capsys.readouterr().err


def test_architecture_needs_one_mesh_per_edge():
    arch = toys.fc_weight_buffer()
    with pytest.raises(SpecError) as e:
        Architecture(name="short", clock_ghz=1.0, levels=arch.levels,
                     meshes=arch.meshes[:1], converters=())
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            "architecture[short]")


def _rename_up_bank(arch):
    dn, up = arch.converters
    return replace(arch, converters=(dn, replace(up, name="dn")))


def _drop_weights_from_dn(arch):
    dn, up = arch.converters
    return replace(arch, converters=(replace(dn, tensors=("Inputs",)), up))


def _negative_store_read(arch):
    store, pe = arch.levels
    sram = store.component
    part = replace(sram, energy_per_action={**sram.energy_per_action,
                                            "read": -1.0})
    return replace(arch, levels=(replace(store, component=part), pe))


# A copy edited with replace was never checked, and each of these was
# priced: a repeated bank name dropped a bank from the energy table, a
# missing converter left Weights crossing a domain edge unconverted, and a
# negative read energy was charged.
@pytest.mark.parametrize("edit, kind, path", [
    (_rename_up_bank, "MalformedDocument",
     "architecture[fanout_conv].converters"),
    (_drop_weights_from_dn, "MissingConverter",
     "architecture[fanout_conv].edge[store->pe]"),
    (_negative_store_read, "BadBound",
     "architecture[fanout_conv].levels[0].energy_per_action.read"),
], ids=["bank-names-repeat", "weights-unconverted", "read-energy-negative"])
def test_an_edited_architecture_is_validated(edit, kind, path):
    with pytest.raises(SpecError) as e:
        edit(toys.fanout_converter_arch(4))
    assert (e.value.kind, e.value.path) == (kind, path)


def _albireo(group, i, **fields):
    """The bundled accelerator with `fields` replaced in entry `i` of its
    `group` (levels, converters or extras)."""

    def build():
        arch = albireo.architecture()
        entries = list(getattr(arch, group))
        entries[i] = replace(entries[i], **fields)
        return replace(arch, **{group: tuple(entries)})
    return build


def _store_states(action, energy=1.0):
    """fanout_converter_arch(4) whose store part states `energy` for
    `action`."""

    def build():
        arch = toys.fanout_converter_arch(4)
        store, pe = arch.levels
        sram = store.component
        part = replace(sram, energy_per_action={**sram.energy_per_action,
                                                action: energy})
        return replace(arch, levels=(replace(store, component=part), pe))
    return build


def _dn_part(**fields):
    """fanout_converter_arch(4) with `fields` replaced in its dn bank's
    part."""

    def build():
        arch = toys.fanout_converter_arch(4)
        dn, up = arch.converters
        part = replace(dn.component, **fields)
        return replace(arch, converters=(replace(dn, component=part), up))
    return build


def _conv(dims=(), bits=(), **fields):
    """toys.conv_k4 with `dims` and `bits` merged into its own and the
    other `fields` replaced."""

    def build():
        layer = toys.conv_k4()
        return replace(layer, dims={**layer.dims, **dict(dims)},
                       bits={**layer.bits, **dict(bits)}, **fields)
    return build


ALBIREO = "architecture[albireo-k8q7c4r3]"


# Each of these objects was built without error and then searched or
# priced, or failed only later in a search: a validated type was checked
# only by its document reader, and a part could state an energy that is
# never charged.
@pytest.mark.parametrize("build, kind, path", [
    pytest.param(_albireo("levels", 3, stencil=(("K", 8), ("X", 2))),
                 "MalformedDocument", f"{ALBIREO}.levels[3].stencil.X",
                 id="stencil-unknown-dim"),
    pytest.param(_albireo("levels", 3, stencil=(("K", 0),)), "BadBound",
                 f"{ALBIREO}.levels[3].stencil.K", id="stencil-width-zero"),
    pytest.param(_albireo("levels", 3, stencil=(("K", 8000),)), "BadBound",
                 f"{ALBIREO}.levels[3].stencil", id="stencil-above-fanout"),
    pytest.param(_albireo("levels", 0, stencil=(("K", 8),)), "BadBound",
                 f"{ALBIREO}.levels[0].stencil", id="stencil-on-outermost"),
    pytest.param(_albireo("levels", 3, stencil=(("K", 8), ("K", 1))),
                 "MalformedDocument", f"{ALBIREO}.levels[3].stencil.K",
                 id="stencil-dim-twice"),
    pytest.param(_albireo("levels", 3, fanout=672.5), "BadBound",
                 f"{ALBIREO}.levels[3]", id="fanout-float"),
    pytest.param(_albireo("converters", 0, instances=32.5),
                 "MalformedDocument", f"{ALBIREO}.converters[input_dac]",
                 id="converter-instances-float"),
    pytest.param(_albireo("converters", 0, instances=True),
                 "MalformedDocument", f"{ALBIREO}.converters[input_dac]",
                 id="converter-instances-bool"),
    pytest.param(_albireo("extras", 0, instances=1.5), "MalformedDocument",
                 f"{ALBIREO}.extras[comb_laser]", id="extra-instances-float"),
    pytest.param(_dn_part(capacity_bits=2.5), "CapacityNonPositive",
                 "architecture[fanout_conv].converters[dn]",
                 id="part-capacity-float"),
    pytest.param(_dn_part(width_bits=8.5), "MalformedDocument",
                 "architecture[fanout_conv].converters[dn]",
                 id="part-width-float"),
    pytest.param(_dn_part(domain_in="DO"), "MalformedDocument",
                 "architecture[fanout_conv].converters[dn]",
                 id="bank-domains-off-edge"),
    pytest.param(_store_states("idle"), "MalformedDocument",
                 "architecture[fanout_conv].levels[0]", id="part-states-idle"),
    pytest.param(_dn_part(energy_per_action={"convert": 2.0, "compute": 1.0}),
                 "MalformedDocument", "architecture[fanout_conv].converters[dn]",
                 id="converter-states-compute"),
    pytest.param(_conv(stride=(0, 0)), "BadBound", "layer[conv]",
                 id="stride-zero"),
    pytest.param(_conv(stride=(1,)), "BadBound", "layer[conv]",
                 id="stride-short"),
    pytest.param(_conv(dims={"K": 0}), "BadBound", "layer[conv]",
                 id="dim-zero"),
    pytest.param(_conv(dims={"K": True}), "BadBound", "layer[conv]",
                 id="dim-bool"),
    pytest.param(_conv(dims={"X": 3}), "MalformedDocument", "layer[conv]",
                 id="dim-unknown"),
    pytest.param(_conv(bits={"Weight": 4}), "MalformedDocument",
                 "layer[conv]", id="bits-key-typo"),
    pytest.param(_conv(bits={"Weights": 0}), "BadBound", "layer[conv]",
                 id="bits-zero"),
    pytest.param(lambda: Workload("w", (toys.conv_k4(), toys.conv_k4())),
                 "MalformedDocument", "workload[w]", id="layer-repeats"),
    # A non-finite number was accepted and priced (a NaN clock gave a NaN
    # total energy), and a float edge raised TypeError.
    pytest.param(lambda: replace(albireo.architecture(), clock_ghz=math.nan),
                 "MalformedDocument", ALBIREO, id="clock-nan"),
    pytest.param(lambda: replace(albireo.architecture(), clock_ghz=math.inf),
                 "MalformedDocument", ALBIREO, id="clock-infinite"),
    pytest.param(_dn_part(energy_per_action={"convert": math.nan}),
                 "BadBound", "architecture[fanout_conv].converters[dn]"
                 ".energy_per_action.convert", id="energy-nan"),
    pytest.param(_store_states("read", math.inf), "BadBound",
                 "architecture[fanout_conv].levels[0].energy_per_action.read",
                 id="energy-infinite"),
    pytest.param(_dn_part(static_power_mw=math.nan), "BadBound",
                 "architecture[fanout_conv].converters[dn].static_power_mw",
                 id="static-power-nan"),
    pytest.param(_dn_part(area_um2=math.inf), "BadBound",
                 "architecture[fanout_conv].converters[dn].area_um2",
                 id="area-infinite"),
    pytest.param(_dn_part(bandwidth=math.nan), "MalformedDocument",
                 "architecture[fanout_conv].converters[dn]",
                 id="bandwidth-nan"),
    pytest.param(_dn_part(bandwidth=math.inf), "MalformedDocument",
                 "architecture[fanout_conv].converters[dn]",
                 id="bandwidth-infinite"),
    pytest.param(_albireo("converters", 0, edge=2.0), "MalformedDocument",
                 f"{ALBIREO}.converters[input_dac]", id="converter-edge-float"),
])
def test_an_invalid_object_is_rejected_as_it_is_built(build, kind, path):
    with pytest.raises(SpecError) as e:
        build()
    assert (e.value.kind, e.value.path) == (kind, path)


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "invalid-json", "not-an-object"])
def test_unloadable_document_names_its_file(content, tmp_path):
    path = tmp_path / "doc.spec"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SpecError) as e:
        load_document(str(path))
    assert (e.value.kind, e.value.path) == ("MalformedDocument", str(path))


def test_bundled_documents_pass_the_field_checks():
    for name in ("albireo", "vgg16", "alexnet"):
        load_spec(name)
    parse_spec({"spec_version": 1, "use_builtin_components": "conservative",
                "architecture": albireo.architecture_doc(2, 2, 2)})


def _write_documents(tmp_path, docs):
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return str(tmp_path / "main.spec")


def _split_minimal_doc(main_extra=None):
    """minimal_doc as a library document and a spec that includes it."""

    doc = minimal_doc()
    library = {"spec_version": 1, "components": doc.pop("components")}
    doc["include"] = ["lib/parts.json"]
    doc.update(main_extra or {})
    return {"lib/parts.json": library, "main.spec": doc}


def test_spec_includes_a_library_document(tmp_path, capsys):
    (tmp_path / "lib").mkdir()
    path = _write_documents(tmp_path, _split_minimal_doc())
    spec = load_spec(path)
    assert spec.library.keys() == {"sram", "mac", "dac", "adc"}
    assert [lv.component.name for lv in spec.architecture.levels] == [
        "sram", "mac"]
    assert cli.main(["spec", path]) == 0
    assert "architecture mini" in capsys.readouterr().out


BAD_INCLUDES = {
    "circular": {"main.spec": {"spec_version": 1, "include": ["b.spec"]},
                 "b.spec": {"include": ["main.spec"]}},
    "duplicate_component": _split_minimal_doc({"components": [
        {"name": "sram", "class": "storage", "domain": "DE",
         "capacity_bits": 8}]}),
    "conflicting_section": {
        "main.spec": {"spec_version": 1, "include": ["a.spec", "b.spec"]},
        "a.spec": {"workload": {"name": "a", "layers": []}},
        "b.spec": {"workload": {"name": "b", "layers": []}}},
}


@pytest.mark.parametrize("case", sorted(BAD_INCLUDES))
def test_bad_include_is_a_spec_error(case, tmp_path, capsys):
    (tmp_path / "lib").mkdir()
    path = _write_documents(tmp_path, BAD_INCLUDES[case])
    with pytest.raises(SpecError) as e:
        load_document(path)
    assert e.value.kind == "MalformedDocument"
    want = {"circular": "circular include",
            "duplicate_component": "duplicate component 'sram'",
            "conflicting_section": "conflicting 'workload' sections"}[case]
    assert want in str(e.value)
    assert cli.main(["spec", path]) == 2
    assert want in capsys.readouterr().err


# Each opened the wrong file or crashed the loader before a file's include
# and component lists had field types: (documents, path of the value).
MALFORMED_INCLUDES = {
    "include-string": ({"main.spec": {"spec_version": 1,
                                      "include": "lib.json"}},
                       "main.spec:$.include"),
    "include-number": ({"main.spec": {"spec_version": 1, "include": [5]}},
                       "main.spec:$.include[0]"),
    "components-number": ({"main.spec": {"spec_version": 1,
                                         "include": ["lib.json"]},
                           "lib.json": {"components": 5}},
                          "lib.json:$.components"),
    "component-number": ({"main.spec": {"spec_version": 1,
                                        "include": ["lib.json"]},
                          "lib.json": {"components": [5]}},
                         "lib.json:$.components[0]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INCLUDES))
def test_malformed_include_names_its_file(case, tmp_path):
    docs, where = MALFORMED_INCLUDES[case]
    path = _write_documents(tmp_path, docs)
    with pytest.raises(SpecError) as e:
        load_document(path)
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            f"{tmp_path}/{where}")


def test_included_component_with_a_list_name_is_a_spec_error(tmp_path):
    path = _write_documents(tmp_path, {
        "main.spec": {"spec_version": 1, "include": ["lib.json"]},
        "lib.json": {"components": [{"name": ["x"], "class": "compute",
                                     "domain": "DE"}]}})
    with pytest.raises(SpecError) as e:
        load_spec(path)
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            "$.components[0].name")


@pytest.mark.parametrize("doc,kind,where", [
    ({"units": "pJ"}, "MalformedDocument", ":$"),
    ({"breakdown": {"adc": "abc"}}, "MalformedDocument", ":$.breakdown.adc"),
    ({"breakdown": {"adc": 1.0, "dac": -0.5}}, "BadBound",
     ":$.breakdown.dac"),
    # A zero total divided by zero in the breakdown study.
    ({"breakdown": {"adc": 0.0, "dac": 0.0}}, "BadBound", ":$.breakdown"),
    ({"breakdown": {}}, "BadBound", ":$.breakdown"),
], ids=["missing", "not-a-number", "negative", "zero-total", "empty"])
def test_malformed_reference_breakdown_names_its_file(doc, kind, where,
                                                      tmp_path):
    path = tmp_path / "ref.breakdown"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError) as e:
        load_reference_breakdown(path)
    assert (e.value.kind, e.value.path) == (kind, f"{path}{where}")


def test_unknown_component_reference():
    doc = minimal_doc()
    doc["architecture"]["levels"][0]["component"] = "sram2"
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert e.value.kind == "UnknownComponent"


def test_bundled_accelerator_has_four_converter_banks():
    arch = load_spec("albireo").architecture
    crossings = {(c.component.domain_in, c.component.domain_out)
                 for c in arch.converters}
    assert crossings == {("DE", "AE"), ("AE", "DE"), ("AE", "AO"),
                         ("AO", "AE")}
    assert len(arch.converters) == 4


def test_layer_bits_shorthand():
    layer = parse_layer({"name": "l", "kind": "fully_connected",
                         "dims": {"N": 1, "K": 2, "C": 3}, "bits": 4},
                        "workload")
    assert layer.bits == {"Weights": 4, "Inputs": 4, "Outputs": 4}
    assert layer.dims["P"] == 1


def test_fully_connected_window_consistency():
    with pytest.raises(SpecError) as e:
        parse_layer({"name": "l", "kind": "fully_connected",
                     "dims": {"N": 1, "K": 2, "C": 3, "P": 2}}, "workload")
    assert e.value.kind == "BadBound"


def test_input_extent_window_arithmetic():
    # An Inputs tile spans (P-1)*stride + R rows, here with Q = S = 1.
    def rows(p, r, stride):
        layer = Layer(name="conv", kind="conv", stride=(stride, 1), dims={
            "N": 1, "K": 1, "C": 1, "R": 3, "S": 1, "P": 4, "Q": 1})
        tile = {**dict.fromkeys(DIMS, 1), "P": p, "R": r}
        return tile_values(layer, tile, INPUTS)

    assert rows(4, 3, 1) == 6
    assert rows(3, 2, 2) == 6
    assert rows(1, 1, 1) == 1


def test_mapping_factor_split_accepted():
    arch = toys.fanout_converter_arch(fanout=4)
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 8, "C": 1, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(temporal={"K": 2}),
                        LevelMapping(spatial={"K": 4})))
    validate_mapping(m, layer, arch)


def test_mapping_factor_mismatch_rejected():
    arch = toys.fanout_converter_arch(fanout=4)
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 8, "C": 1, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(temporal={"K": 2}),
                        LevelMapping(spatial={"K": 3})))
    with pytest.raises(MappingError) as e:
        validate_mapping(m, layer, arch)
    assert e.value.kind == "FactorMismatch"
    assert e.value.dim == "K"


def _fc_k8():
    return Layer(name="fc", kind="fully_connected",
                 dims={"N": 1, "K": 8, "C": 1, "R": 1, "S": 1, "P": 1,
                       "Q": 1})


@pytest.mark.parametrize("levels", [
    (LevelMapping(temporal={"K": 2, "R": True}), LevelMapping(spatial={"K": 4})),
    (LevelMapping(temporal={"K": 2}), LevelMapping(spatial={"K": 4, "R": True})),
], ids=["temporal", "spatial"])
def test_bool_factor_rejected(levels):
    # True == 1, so a bool factor would otherwise pass as a unit factor;
    # parse_mapping rejects one too.
    arch = toys.fanout_converter_arch(fanout=4)
    with pytest.raises(MappingError) as e:
        validate_mapping(Mapping(levels=levels), _fc_k8(), arch)
    assert e.value.kind == "FactorMismatch"
    assert e.value.dim == "R"


def test_bool_batch_size_rejected():
    arch = toys.fanout_converter_arch(fanout=4)
    levels = (LevelMapping(temporal={"K": 2}), LevelMapping(spatial={"K": 4}))
    validate_mapping(Mapping(levels=levels, batch_size=1), _fc_k8(), arch)
    with pytest.raises(MappingError) as e:
        validate_mapping(Mapping(levels=levels, batch_size=True), _fc_k8(),
                         arch)
    assert e.value.kind == "FactorMismatch"


def test_pad_mode_allows_overcoverage():
    arch = toys.fanout_converter_arch(fanout=4)
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 6, "C": 1, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(temporal={"K": 2}),
                        LevelMapping(spatial={"K": 4})), pad=True)
    validate_mapping(m, layer, arch)
    with pytest.raises(MappingError):
        validate_mapping(Mapping(levels=m.levels, pad=False), layer, arch)


def test_fanout_budget_enforced():
    arch = toys.fanout_converter_arch(fanout=4)
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 8, "C": 1, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(),
                        LevelMapping(spatial={"K": 8})))
    with pytest.raises(MappingError) as e:
        validate_mapping(m, layer, arch)
    assert e.value.kind == "FanoutExceeded"


def test_capacity_overflow_rejected():
    # 1024 weight values at 8 bits against a 4096-bit buffer.
    arch = toys.fc_weight_buffer(buf_bits=4096)
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 32, "C": 32, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(),
                        LevelMapping(),
                        LevelMapping(temporal={"K": 32, "C": 32})))
    with pytest.raises(MappingError) as e:
        validate_mapping(m, layer, arch)
    assert e.value.kind == "CapacityExceeded"
    assert e.value.level == "wbuf"
    assert e.value.tensor == "Weights"


def _store_only(capacity_bits):
    """A backing store of `capacity_bits` over one compute level."""

    return Architecture(
        name="small_store", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", capacity_bits), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), 1, ())),
        meshes=(Mesh(),), converters=())


def _fc_k_c32(k):
    return Layer(name="fc", kind="fully_connected",
                 dims={"N": 1, "K": k, "C": 32, "R": 1, "S": 1, "P": 1,
                       "Q": 1})


# LoopNest.loops per level, outermost first: the permutation's dims in its
# order, then the unlisted live dims in DIMS order; a unit factor makes no
# loop, even where the permutation names it.
@pytest.mark.parametrize("level, loops", [
    (LevelMapping(temporal={"C": 2, "K": 3}, permutation=("C", "K")),
     (("C", 2), ("K", 3))),
    (LevelMapping(temporal={"S": 3, "N": 5, "Q": 2, "K": 4},
                  permutation=("Q",)),
     (("Q", 2), ("N", 5), ("K", 4), ("S", 3))),
    (LevelMapping(temporal={"R": 1, "P": 2, "C": 1, "K": 3},
                  permutation=("R", "K", "C")),
     (("K", 3), ("P", 2))),
], ids=["listed-in-its-order", "unlisted-in-dims-order", "unit-dropped"])
def test_the_loop_nest_reads_each_permutation(level, loops):
    nest = LoopNest.of((LevelMapping(), level))
    assert nest.loops == tuple((1, d, e) for d, e in loops)


def test_backing_store_capacity_counts_its_own_loops():
    # The store holds whole tensors: 1024 weight values at 8 bits overflow
    # 4096 bits even though every factor is a store-level loop, so the
    # tile strictly inside the store would be a single value per tensor.
    m = Mapping(levels=(LevelMapping(temporal={"K": 32, "C": 32}),
                        LevelMapping()))
    with pytest.raises(MappingError) as e:
        validate_mapping(m, _fc_k_c32(32), _store_only(4096))
    assert e.value.kind == "CapacityExceeded"
    assert e.value.level == "store"
    assert e.value.tensor == "Weights"


def test_the_backing_store_tile_is_the_padded_extent():
    # K = 30 padded to 32: the store's tile is the padded space, not the
    # bound, nor the single value strictly inside the store's loops.
    m = Mapping(levels=(LevelMapping(temporal={"K": 32, "C": 32}),
                        LevelMapping()), pad=True)
    validate_mapping(m, _fc_k_c32(30), _store_only(1 << 16))
    padded = {**dict.fromkeys(DIMS, 1), "K": 32, "C": 32}
    assert m.nest.tiles[0] == m.nest.padded == padded
    assert m.nest.tiles[1] == dict.fromkeys(DIMS, 1)


def test_a_store_too_small_for_its_padded_tensors_is_named():
    # The real tensors need 7680 + 256 + 240 = 8176 bits; padded to K = 32
    # they need 8192 + 256 + 256 = 8704, past the store's 8192.
    layer = _fc_k_c32(30)
    real = Mapping(levels=(LevelMapping(temporal={"K": 30, "C": 32}),
                           LevelMapping()))
    validate_mapping(real, layer, _store_only(8176))
    m = Mapping(levels=(LevelMapping(temporal={"K": 32, "C": 32}),
                        LevelMapping()), pad=True)
    with pytest.raises(MappingError) as e:
        validate_mapping(m, layer, _store_only(8192))
    assert (e.value.kind, e.value.level, e.value.tensor, str(e.value)) == (
        "CapacityExceeded", "store", "Weights",
        "CapacityExceeded: level 'store' needs 8704 bits for ['Inputs', "
        "'Outputs', 'Weights'], capacity is 8192")


def test_hoisted_tensor_dim_may_not_split_spatially_into_origin():
    # Outputs originate at the buffer; splitting K across its two
    # instances would need a staging level above it.
    arch = Architecture(
        name="hoist2", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("buf", toys.storage("buf", "DE", 1 << 16), 2,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), 1, ())),
        meshes=(Mesh(), Mesh()), converters=())
    m = Mapping(levels=(LevelMapping(temporal={"C": 3}),
                        LevelMapping(spatial={"K": 2}),
                        LevelMapping()),
                keep_overrides={0: ("Weights", "Inputs")})
    with pytest.raises(MappingError) as e:
        validate_mapping(m, toys.fc_k2c3(), arch)
    assert e.value.kind == "FactorMismatch"
    assert (e.value.tensor, e.value.dim) == ("Outputs", "K")


def test_keep_override_cannot_add_tensors():
    arch = toys.fc_weight_buffer()
    m = Mapping(levels=(LevelMapping(temporal={"K": 2, "C": 3}),
                        LevelMapping(), LevelMapping()),
                keep_overrides={1: ("Inputs",)})
    with pytest.raises(MappingError) as e:
        validate_mapping(m, toys.fc_k2c3(), arch)
    assert e.value.kind == "FactorMismatch"


def test_hoisted_tensor_factors_stay_inside_origin():
    # Dropping Outputs from the store makes the buffer their origin; any
    # factor of an output dim above it (or split into it) is unmappable,
    # while the origin's own temporal loops remain fine.
    arch = Architecture(
        name="hoist", clock_ghz=1.0,
        levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("buf", toys.storage("buf", "DE", 1 << 16), 1,
                      ("Weights", "Inputs", "Outputs")),
                Level("pe", toys.compute("mac", "DE"), 4, ())),
        meshes=(Mesh(), Mesh()), converters=())
    layer = Layer(name="fc", kind="fully_connected",
                  dims={"N": 1, "K": 8, "C": 2, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    drop = {0: ("Weights", "Inputs")}

    good = Mapping(levels=(LevelMapping(temporal={"C": 2}),
                           LevelMapping(temporal={"K": 2}),
                           LevelMapping(spatial={"K": 4})),
                   keep_overrides=drop)
    validate_mapping(good, layer, arch)

    above = Mapping(levels=(LevelMapping(temporal={"K": 2, "C": 2}),
                            LevelMapping(),
                            LevelMapping(spatial={"K": 4})),
                    keep_overrides=drop)
    with pytest.raises(MappingError) as e:
        validate_mapping(above, layer, arch)
    assert e.value.kind == "FactorMismatch"
    assert e.value.tensor == "Outputs"


def test_architecture_requires_all_tensors_at_backing_store():
    with pytest.raises(SpecError):
        Architecture(
            name="bad", clock_ghz=1.0,
            levels=(Level("store", toys.storage("sram", "DE", 1 << 20), 1,
                          ("Weights",)),
                    Level("pe", toys.compute("mac", "DE"), 1, ())),
            meshes=(Mesh(),), converters=())


def test_spec_roundtrip_is_identity_on_canonical_form():
    for name in ("albireo", "vgg16", "alexnet"):
        spec = load_spec(name)
        doc = serialize_spec(spec)
        assert parse_spec(doc) == spec
        again = serialize_spec(parse_spec(doc))
        assert canonical_json(again) == canonical_json(doc)


# Every geometry the studies build, as architecture_doc keywords: each
# sweep axis at the default sweep values, and one point that widens all
# three axes.
STUDY_GEOMETRIES = sorted(
    {((axis, v),) if v > 1 else ()
     for axis in albireo.AXES
     for v in ExperimentConfig("reuse_sweep").sweep_values}
    | {tuple((axis, 2) for axis in albireo.AXES)})


def test_sweep_axes_are_the_documents_keywords_and_banks():
    # albireo.AXES is the one table of the sweep: its keys are the
    # keywords a sweep point passes to architecture_doc, and each target
    # is a converter bank of the document that carries the tensor.
    params = inspect.signature(albireo.architecture_doc).parameters
    assert list(albireo.AXES) == list(params)
    banks = {cv["name"]: cv["tensors"]
             for cv in albireo.architecture_doc()["converters"]}
    for bank, tensor in albireo.AXES.values():
        assert tensor in banks[bank]


@pytest.mark.parametrize("axes", STUDY_GEOMETRIES)
def test_albireo_architecture_roundtrip(axes):
    # The document alone, read against the library it names, is the
    # geometry point: the staging register's refinement is in it.
    for profile in PROFILES:
        arch = albireo.architecture(profile, **dict(axes))
        assert arch.levels[-1].stencil
        assert parse_architecture(serialize_architecture(arch),
                                  builtin_components(profile)) == arch


def test_an_entry_refines_its_part_and_states_it_back():
    doc = full_doc()
    doc["architecture"]["levels"][0].update(capacity_bits=1 << 20,
                                            bandwidth=4, energy_scale=2.0)
    doc["architecture"]["converters"][1]["energy_scale"] = 0.5
    spec = parse_spec(doc)
    arch = spec.architecture
    sram, store = spec.library["sram"], arch.levels[0].component
    assert (store.name, store.capacity_bits, store.bandwidth) == (
        "sram", 1 << 20, 4.0)
    assert store.energy_per_action == {"read": 2.0, "write": 2.0}
    assert store.static_power_mw == sram.static_power_mw
    assert sram.capacity_bits == 65536  # the library part is left as it is
    assert arch.levels[0].refinement == {"capacity_bits": 1 << 20,
                                         "bandwidth": 4.0, "energy_scale": 2.0}
    assert arch.converters[1].component.energy("convert") == 1.0
    # An entry that states nothing uses the library part itself.
    assert arch.extras[0].component is sram
    assert arch.extras[0].refinement == {}
    written = serialize_architecture(arch)
    stated = arch.levels[0].refinement
    assert {k: written["levels"][0][k] for k in stated} == stated
    assert "energy_scale" not in written["extras"][0]
    assert parse_architecture(written, spec.library) == arch


def test_stencil_pins_the_dims_the_layer_has():
    doc = full_doc()
    doc["architecture"]["levels"][1].update(fanout=8,
                                            stencil={"C": 2, "K": 4})
    arch = parse_spec(doc).architecture
    assert arch.levels[1].stencil == (("K", 4), ("C", 2))
    fc = Layer(name="fc", kind="fully_connected",
               dims=dict(dict.fromkeys(DIMS, 1), K=6))
    assert stencil_pins(fc, arch) == {**{(1, d): 1 for d in DIMS},
                                      (1, "K"): 4}
    assert stencil_pins(fc, toys.fc_weight_buffer()) == {}


def test_architecture_roundtrip_toy():
    arch = toys.fanout_converter_arch()
    doc = {"spec_version": 1,
           "components": [],
           "architecture": serialize_architecture(arch)}
    comps = {c.name: c for c, _ in arch.parts}
    doc["components"] = [
        {"name": c.name, "class": c.cls, "domain_in": c.domain_in,
         "domain_out": c.domain_out, "energy_per_action": c.energy_per_action,
         "capacity_bits": c.capacity_bits, "bandwidth": c.bandwidth}
        for c in comps.values()]
    arch2 = parse_spec(doc).architecture
    assert serialize_architecture(arch2) == serialize_architecture(arch)


def test_mapping_roundtrip_and_digest():
    arch = toys.fc_weight_buffer()
    m = Mapping(levels=(LevelMapping(temporal={"K": 2}),
                        LevelMapping(temporal={"C": 3},
                                     permutation=("C",)),
                        LevelMapping()),
                batch_size=2, keep_overrides={1: ("Weights",)})
    doc = serialize_mapping(m, arch)
    again = parse_mapping(doc, arch)
    assert again == m
    assert mapping_digest(again) == mapping_digest(m)
    assert mapping_digest(m) != mapping_digest(
        Mapping(levels=m.levels, batch_size=1,
                keep_overrides=m.keep_overrides))


def test_searched_mapping_keeps_its_digest_through_a_document():
    # The parser sorts each keep override and the mapper need not, so a
    # round trip keeps the digest rather than the Mapping.
    arch = albireo.architecture("aggressive")
    layer = next(l for l in load_spec("vgg16").workload.layers
                 if l.name == "conv5_1")
    res = search(arch, layer, SearchConfig(
        budget=30, seed=3, pad_mode="pad", batch_size=16,
        keep_overrides={0: ("Weights", "Inputs")},
        fixed_spatial=stencil_pins(layer, arch)))
    doc = json.loads(canonical_json(serialize_mapping(res.mapping, arch)))
    assert res.mapping.keep_overrides and res.mapping.batch_size == 16
    assert mapping_digest(parse_mapping(doc, arch)) == mapping_digest(
        res.mapping)


def mapping_doc():
    arch = toys.fc_weight_buffer()
    m = Mapping(levels=(LevelMapping(temporal={"K": 2}),
                        LevelMapping(temporal={"C": 3},
                                     permutation=("C",)),
                        LevelMapping()),
                batch_size=2, keep_overrides={1: ("Weights",)})
    return arch, serialize_mapping(m, arch)


# (edit, path of the object the error must name)
MAPPING_TYPOS = {
    "wrapper": (_typo(lambda d: d, "spec_version", "version"), "$"),
    "batch_size": (_typo(lambda d: d["mapping"], "batch_size", "batchsize"),
                   "mapping"),
    "keep_overrides": (_typo(lambda d: d["mapping"], "keep_overrides",
                             "keep_override"), "mapping"),
    "level permutation": (_typo(lambda d: d["mapping"]["levels"][1],
                                "permutation", "permutaion"),
                          "mapping.levels[1]"),
    "level temporal": (_typo(lambda d: d["mapping"]["levels"][0],
                             "temporal", "temporals"), "mapping.levels[0]"),
    "pad": (_typo(lambda d: d["mapping"], "pad", "pads"), "mapping"),
}


@pytest.mark.parametrize("case", sorted(MAPPING_TYPOS))
def test_unknown_mapping_field_rejected(case):
    arch, doc = mapping_doc()
    edit, path = MAPPING_TYPOS[case]
    edit(doc)
    with pytest.raises(SpecError) as e:
        parse_mapping(doc, arch)
    assert (e.value.kind, e.value.path) == ("MalformedDocument", path)


@pytest.mark.parametrize("field,value", [
    ("pad", "false"), ("pad", 0), ("batch_size", True), ("batch_size", 1.5),
])
def test_ill_typed_mapping_scalar_rejected(field, value):
    # "pad": "false" read as True.
    arch, doc = mapping_doc()
    doc["mapping"][field] = value
    with pytest.raises(SpecError) as e:
        parse_mapping(doc, arch)
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            f"mapping.{field}")


def test_mapping_of_an_unknown_level_rejected():
    arch, doc = mapping_doc()
    doc["mapping"]["levels"][0]["level"] = "nope"
    with pytest.raises(SpecError) as e:
        parse_mapping(doc, arch)
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            "mapping.levels[0]")


@pytest.mark.parametrize("edit,message", [
    (lambda m: replace(m, levels=m.levels[:2]), "mapping has 2 levels"),
    (lambda m: replace(m, levels=(replace(m.levels[0], permutation=(
        "K", "K")),) + m.levels[1:]), "bad permutation"),
], ids=["level-count", "repeated-loop"])
def test_malformed_mapping_fails_validation(edit, message):
    arch, doc = mapping_doc()
    layer = Layer(name="fc", kind="fully_connected", dims={
        "N": 1, "K": 2, "C": 3, "P": 1, "Q": 1, "R": 1, "S": 1})
    mapping = parse_mapping(doc, arch)
    with pytest.raises(MappingError, match=message) as e:
        validate_mapping(edit(mapping), layer, arch)
    assert e.value.kind == "FactorMismatch"


@pytest.mark.parametrize("version", [0, 2, 7, 9.0])
def test_mapping_of_another_spec_version_rejected(version):
    # Read and ignored before; parse_spec has always rejected one.
    arch, doc = mapping_doc()
    doc["spec_version"] = version
    with pytest.raises(SpecError) as e:
        parse_mapping(doc, arch)
    assert (e.value.kind, e.value.path, str(e.value)) == (
        "MalformedDocument", "$.spec_version",
        "MalformedDocument at $.spec_version: expected spec_version 1, got "
        f"{int(version)}")
    with pytest.raises(SpecError) as e:
        parse_spec({"spec_version": version})
    assert str(e.value).endswith(f"got {int(version)}")


def test_mapping_may_omit_its_spec_version():
    arch, doc = mapping_doc()
    want = parse_mapping(doc, arch)
    del doc["spec_version"]
    assert parse_mapping(doc, arch) == want
    doc["spec_version"] = 1.0  # an integral float reads as an int
    assert parse_mapping(doc, arch) == want


@pytest.mark.parametrize("version", [9, None])
def test_reference_breakdown_of_another_spec_version_rejected(version,
                                                             tmp_path):
    doc = _bundled_reference()
    doc["spec_version"] = version
    path = tmp_path / "ref.breakdown"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecError) as e:
        load_reference_breakdown(path)
    assert (e.value.kind, e.value.path) == (
        "MalformedDocument", f"{path}:$.spec_version")
    del doc["spec_version"]
    path.write_text(json.dumps(doc))
    assert load_reference_breakdown(path) == load_reference_breakdown()


def test_bare_mapping_body_is_checked():
    arch, doc = mapping_doc()
    body = doc["mapping"]
    assert parse_mapping(body, arch) == parse_mapping(doc, arch)
    body["batchsize"] = body.pop("batch_size")
    with pytest.raises(SpecError) as e:
        parse_mapping(body, arch)
    assert "batchsize" in str(e.value)


def test_mapping_level_named_twice_rejected():
    arch, doc = mapping_doc()
    levels = doc["mapping"]["levels"]
    levels.append(dict(levels[0], temporal={}))
    with pytest.raises(SpecError) as e:
        parse_mapping(doc, arch)
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            "mapping.levels[3]")


def test_duplicate_coverage_names_the_second_bank_and_its_tensor():
    doc = minimal_doc(mac_domain="AE", converters=[
        {"name": "dn", "component": "dac", "between": ["store", "pe"],
         "tensors": ["Weights", "Inputs"]},
        {"name": "dn2", "component": "dac", "between": ["store", "pe"],
         "tensors": ["Inputs"]},
        {"name": "up", "component": "adc", "between": ["store", "pe"],
         "tensors": ["Outputs"]},
    ])
    with pytest.raises(SpecError) as e:
        parse_spec(doc)
    assert e.value.path == "architecture[mini].converters[dn2]"
    assert "converter carrying Inputs down" in str(e.value)


def sweep_architectures():
    """Every geometry the reuse sweep builds at its default values."""

    for axis in albireo.AXES:
        for v in ExperimentConfig(experiment="reuse_sweep").sweep_values:
            yield albireo.architecture(**{axis: v})


def test_edge_converters_resolve_every_bank_once():
    archs = list(sweep_architectures())
    archs += [random_architecture(random.Random(s)) for s in range(50)]
    crossing_edges = 0
    for arch in archs:
        table = arch.edge_converters
        for cv in arch.converters:
            outer = arch.levels[cv.edge - 1].component.domain_out
            dirn = DOWN if cv.component.domain_in == outer else UP
            for t in cv.tensors:
                assert table[(cv.edge, t, dirn)] is cv
        assert len(table) == sum(len(cv.tensors) for cv in arch.converters)
        assert all(arch.crosses(e) for e, _, _ in table)
        for e in range(1, len(arch.levels)):
            if arch.crosses(e):
                crossing_edges += 1
                assert {(e, WEIGHTS, DOWN), (e, INPUTS, DOWN),
                        (e, OUTPUTS, UP)} <= set(table)
    assert crossing_edges > len(archs)


def test_parts_count_every_physical_instance():
    archs = list(sweep_architectures())
    archs += [random_architecture(random.Random(s)) for s in range(50)]
    assert any(arch.extras for arch in archs)
    for arch in archs:
        parts = arch.parts
        n = len(arch.levels)
        assert len(parts) == n + len(arch.converters) + len(arch.extras)
        for i, (comp, count) in enumerate(parts[:n]):
            assert comp is arch.levels[i].component
            assert count == math.prod(lv.fanout for lv in arch.levels[:i + 1])
        for (comp, count), part in zip(parts[n:],
                                       arch.converters + arch.extras):
            assert (comp, count) == (part.component, part.instances)


# Signal domains are read in spec_model alone, which resolves them into
# Architecture.crosses and Architecture.edge_converters. The one exception
# prints each component's domains.
DOMAIN_READS_OUTSIDE_SPEC_MODEL = {("cli.py", "cmd_components")}


def domain_reads(path: Path) -> set[tuple[str, str | None]]:
    """(file, top-level definition) of every .domain_in/.domain_out read."""

    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("domain_in", "domain_out")):
                found.add((path.name, getattr(top, "name", None)))
    return found


def test_only_spec_model_reads_signal_domains():
    package = Path(spec_model.__file__).parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        if path.name != "spec_model.py":
            found |= domain_reads(path)
    assert found <= DOMAIN_READS_OUTSIDE_SPEC_MODEL
    assert ("spec_model.py", "_converter_direction") in domain_reads(
        package / "spec_model.py")
