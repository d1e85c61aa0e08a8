"""parse_mapping assembles a Mapping in one place (spec_model._assemble),
which a plain mapping document reaches as it stands and any other through
the field tables. Whatever a document holds, it must give what a reader
through the tables alone gives: the same Mapping, or a SpecError of the
same kind, path and message."""

import copy
import functools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photon_model import albireo, spec_model
from photon_model.mapper import SearchConfig, search
from photon_model.spec_model import (
    _MAPPING,
    _MAPPING_DOC,
    SPEC_VERSION,
    FieldType,
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


def _body(doc):
    """The mapping body a (possibly already mutated) document holds."""

    body = doc.get("mapping", doc)
    return body if isinstance(body, dict) else {}


def mutate(doc, arch, kind, a, b):
    """Apply one mutation of `kind` to `doc`, chosen by the integers a, b;
    none where an earlier mutation took away what it edits."""

    if kind == "drop":
        objects = [o for o in _objects(doc) if o]
        if objects:
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
        levels = _body(doc).get("levels")
        if isinstance(levels, list) and levels:
            if kind == "unknown-level":
                ld = levels[a % len(levels)]
                if isinstance(ld, dict):
                    ld["level"] = "nowhere"
            elif isinstance(levels[b % len(levels)], dict):
                levels.append(dict(levels[b % len(levels)], temporal={}))
    elif kind == "override-key":
        key = ["01", " 1", "+1", "-1", "1.0", "x", "", "１", 1,
               str(len(arch.levels)), "99"][b % 11]
        overrides = _body(doc).setdefault("keep_overrides", {})
        if isinstance(overrides, dict):
            overrides[key] = ["Weights"]
    else:  # spec_version
        doc["spec_version"] = [0, 2, None][b % 3]


KINDS = ["drop", "add", "retype", "unknown-level", "repeated-level",
         "override-key", "spec_version"]


# Two mutations may give a document two faults: a name the architecture
# does not know and a value the tables reject, in either order.
@pytest.mark.parametrize("count", [1, 2])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(which=st.integers(0, 4), edits=st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 1 << 16),
              st.integers(0, 1 << 16)), min_size=2, max_size=2))
# An override key that is not a string (b=8), then an unknown level.
@example(which=0, edits=[("override-key", 0, 8), ("unknown-level", 0, 0)])
# A bare body whose first level leaves out its permutation, then a float
# batch_size, which sends the body through the tables and their default.
@example(which=4, edits=[("drop", 2, 3), ("retype", 1, 0)])
def test_reader_agrees_with_the_field_tables(count, which, edits):
    arch, doc = searched_documents()[which]
    doc = copy.deepcopy(doc)
    for kind, a, b in edits[:count]:
        mutate(doc, arch, kind, a, b)
    assert _outcome(parse_mapping, doc, arch) == _outcome(table_reader, doc,
                                                          arch)


@pytest.mark.parametrize("which", range(5))
def test_a_plain_document_never_reaches_the_tables(which, monkeypatch):
    arch, doc = searched_documents()[which]
    want = table_reader(copy.deepcopy(doc), arch)

    def refuse(v, path):
        raise AssertionError(f"{path} read through the field tables")

    # The two tables parse_mapping looks up when it is called; the readers
    # below them are bound into _MAPPING when the module is imported.
    for name in ("_MAPPING_DOC", "_MAPPING"):
        monkeypatch.setattr(spec_model, name, FieldType(None, refuse))
    assert parse_mapping(doc, arch) == want


def test_a_table_read_level_gets_every_default():
    """A body the tables read, for its float batch_size, whose level leaves
    out temporal, spatial and permutation, assembles to what they give."""

    arch = toys.fc_weight_buffer()
    doc = {"levels": [{"level": "wbuf"}], "batch_size": 2.0}
    m = parse_mapping(copy.deepcopy(doc), arch)
    assert m == table_reader(doc, arch)
    assert (m.batch_size, m.levels[1]) == (2, LevelMapping())


@pytest.mark.parametrize("doc", [5, None, 1.5, "mapping", []])
def test_a_document_that_is_not_an_object_is_malformed(doc):
    with pytest.raises(SpecError) as err:
        parse_mapping(doc, toys.fc_weight_buffer())
    assert (err.value.kind, err.value.path) == ("MalformedDocument", "$")
    assert str(err.value) == ("MalformedDocument at $: must be an object, "
                              f"got {doc!r}")
