"""parse_mapping reads a plain mapping document in one pass and leaves every
other to the field tables. Whatever a document holds, it must give what a
reader through the tables alone gives: the same Mapping, or a SpecError of
the same kind, path and message."""

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_model import albireo, spec_model
from photon_model.mapper import SearchConfig, search
from photon_model.spec_model import (
    _MAPPING,
    _MAPPING_DOC,
    SPEC_VERSION,
    LevelMapping,
    Mapping,
    SpecError,
    canonical_json,
    parse_mapping,
    serialize_mapping,
    stencil_pins,
)
from photon_model.workloads import load_workload

import toys


def table_reader(doc, arch):
    """A mapping document read through the field tables alone."""

    if "mapping" in doc:
        f = _MAPPING_DOC.read(doc, "$")
        if f["spec_version"] is not None and f["spec_version"] != SPEC_VERSION:
            raise SpecError("MalformedDocument", "$.spec_version",
                            f"expected spec_version {SPEC_VERSION}, got "
                            f"{f['spec_version']!r}")
        doc = f["mapping"]
    body = _MAPPING.read(doc, "mapping")
    names = [lv.name for lv in arch.levels]
    levels = [None] * len(names)
    for j, ld in enumerate(body["levels"]):
        if ld["level"] not in names:
            raise SpecError("MalformedDocument", f"mapping.levels[{j}]",
                            f"unknown level {ld['level']!r}")
        i = names.index(ld["level"])
        if levels[i] is not None:
            raise SpecError("MalformedDocument", f"mapping.levels[{j}]",
                            f"level {ld['level']!r} is mapped twice")
        levels[i] = LevelMapping(dict(ld["temporal"]), dict(ld["spatial"]),
                                 tuple(ld["permutation"]))
    overrides = {}
    for k, v in body["keep_overrides"].items():
        if k not in {str(i) for i in range(100)}:
            raise SpecError("MalformedDocument", f"mapping.keep_overrides.{k}",
                            "must be keyed by a level index")
        overrides[int(k)] = tuple(sorted(v))
    return Mapping(tuple(lm or LevelMapping() for lm in levels),
                   body["batch_size"], overrides, body["pad"])


def _outcome(read, doc, arch):
    """What reading a copy of `doc` gives: the Mapping, with its repr (an
    integral float factor equals an int), or the error's fields."""

    try:
        m = read(copy.deepcopy(doc), arch)
    except SpecError as err:
        return ("SpecError", err.kind, err.path, str(err))
    return ("Mapping", m, repr(m))


@functools.cache
def searched_documents():
    """Serialized searched mappings, with and without keep overrides and
    batching, on the bundled accelerator and on a toy."""

    arch = albireo.architecture("aggressive")
    vgg = {l.name: l for l in load_workload("vgg16").layers}
    docs = []
    for name, extra in (("conv5_1", {"keep_overrides": {0: ("Weights",
                                                            "Inputs")}}),
                        ("conv3_1", {"batch_size": 16}),
                        ("fc7", {})):
        layer = vgg[name]
        res = search(arch, layer, SearchConfig(
            budget=40, seed=5, pad_mode="pad",
            fixed_spatial=stencil_pins(layer, arch), **extra))
        docs.append((arch, json.loads(canonical_json(
            serialize_mapping(res.mapping, arch)))))
    toy = toys.fc_weight_buffer()
    m = Mapping(levels=(LevelMapping(temporal={"K": 2}),
                        LevelMapping(temporal={"C": 3}, permutation=("C",)),
                        LevelMapping()),
                keep_overrides={1: ("Weights",)})
    docs.append((toy, serialize_mapping(m, toy)))
    docs.append((toy, serialize_mapping(m, toy)["mapping"]))  # a bare body
    return docs


def _slots(doc, factors=True):
    """Every (container, key) of the document tree below its root; without
    `factors`, none inside a temporal or spatial object, whose values both
    readers leave to validation."""

    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = (node.keys() if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else ())
        for k in keys:
            out.append((node, k))
            if factors or k not in ("temporal", "spatial"):
                stack.append(node[k])
    return out


def _retyped(v):
    """The other types a value may be written as."""

    if isinstance(v, bool):
        return [int(v), str(v).lower()]
    if isinstance(v, int):
        return [float(v), v % 2 == 1, str(v)]
    if isinstance(v, float):
        return [int(v), str(v)]
    if isinstance(v, str):
        return [5, [v]]
    if isinstance(v, list):
        return [tuple(v), {str(i): x for i, x in enumerate(v)}]
    if isinstance(v, dict):
        return [list(v), list(v.values())]
    return [0]


def _objects(doc):
    return [doc] + [node[k] for node, k in _slots(doc)
                    if isinstance(node[k], dict)]


def mutate(doc, arch, kind, a, b):
    """Apply one mutation of `kind` to `doc`, chosen by the integers a, b."""

    if kind == "drop":
        objects = [o for o in _objects(doc) if o]
        obj = objects[a % len(objects)]
        del obj[list(obj)[b % len(obj)]]
    elif kind == "add":
        objects = _objects(doc)
        objects[a % len(objects)]["levle"] = b
    elif kind == "retype":
        slots = _slots(doc, factors=False)
        node, k = slots[a % len(slots)]
        options = _retyped(node[k])
        node[k] = options[b % len(options)]
    elif kind in ("unknown-level", "repeated-level"):
        levels = doc.get("mapping", doc)["levels"]
        ld = levels[a % len(levels)]
        if kind == "unknown-level":
            ld["level"] = "nowhere"
        else:
            levels.append(dict(levels[b % len(levels)], temporal={}))
    elif kind == "override-key":
        key = ["01", " 1", "+1", "-1", "1.0", "x", "", "１",
               str(len(arch.levels)), "99"][b % 10]
        doc.get("mapping", doc)["keep_overrides"][key] = ["Weights"]
    else:  # spec_version
        doc["spec_version"] = [0, 2, None][b % 3]


KINDS = ["drop", "add", "retype", "unknown-level", "repeated-level",
         "override-key", "spec_version"]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(which=st.integers(0, 4), kind=st.sampled_from(KINDS),
       a=st.integers(0, 1 << 16), b=st.integers(0, 1 << 16))
def test_reader_agrees_with_the_field_tables(which, kind, a, b):
    arch, doc = searched_documents()[which]
    doc = copy.deepcopy(doc)
    mutate(doc, arch, kind, a, b)
    assert _outcome(parse_mapping, doc, arch) == _outcome(table_reader, doc,
                                                          arch)


@pytest.mark.parametrize("which", range(5))
def test_a_plain_document_never_reaches_the_tables(which, monkeypatch):
    arch, doc = searched_documents()[which]
    want = table_reader(copy.deepcopy(doc), arch)

    def refuse(doc, arch):
        raise AssertionError("read through the field tables")

    monkeypatch.setattr(spec_model, "_read_mapping", refuse)
    assert parse_mapping(doc, arch) == want


@pytest.mark.parametrize("doc", [5, None, 1.5, "mapping", []])
def test_a_document_that_is_not_an_object_is_malformed(doc):
    with pytest.raises(SpecError) as err:
        parse_mapping(doc, toys.fc_weight_buffer())
    assert (err.value.kind, err.value.path) == ("MalformedDocument", "$")
    assert str(err.value) == ("MalformedDocument at $: must be an object, "
                              f"got {doc!r}")
