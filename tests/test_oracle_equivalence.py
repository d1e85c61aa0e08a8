"""Randomized equivalence between the analytical counts and the loop-nest
interpreter. Both engines must agree on every count field, and must reject
the same mappings for the same reason. The interpreter also checks
validation's refetch rule independently."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photon_model
from photon_model import albireo
from photon_model.mapper import SearchConfig, search
from photon_model.oracle import simulate
from photon_model.reuse import analyze
from photon_model.spec_model import (
    DIMS,
    DOWN,
    OUTPUTS,
    Layer,
    MappingError,
    stencil_pins,
    validate_mapping,
)

from randgen import random_instance

FIELDS = ("per_level", "conversions", "compute_reads", "macs", "real_macs",
          "edge_crossings", "edge_demand")


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except MappingError as e:
        return e.kind, None


def run_equivalence(n_instances: int, seed: int):
    rng = random.Random(seed)
    stats = {"instances": 0, "rejected": 0, "hoisted": 0, "mismatches": []}
    for i in range(n_instances):
        arch, layer, mapping = random_instance(rng)
        stats["instances"] += 1
        if 0 in mapping.keep_overrides:
            stats["hoisted"] += 1
        a_kind, a = outcome(analyze, arch, layer, mapping)
        s_kind, s = outcome(simulate, arch, layer, mapping)
        if a_kind != s_kind:
            stats["mismatches"].append(
                (i, f"analyze {a_kind} vs simulate {s_kind}"))
            continue
        if a_kind != "ok":
            stats["rejected"] += 1
            continue
        for f in FIELDS:
            if getattr(a, f) != getattr(s, f):
                stats["mismatches"].append((i, f))
    return stats


def test_engines_agree_on_random_instances():
    stats = run_equivalence(120, seed=1234)
    assert stats["mismatches"] == []
    # The generator must actually exercise the interesting corners.
    assert stats["hoisted"] >= 5
    # randgen keeps only mappings validate_mapping accepts, and counting
    # rejects none of those; test_refetch_rule_matches_the_interpreter
    # exercises the rejections.
    assert stats["rejected"] == 0
    assert stats["instances"] - stats["rejected"] >= 80


def test_random_instances_do_not_depend_on_the_hash_seed():
    code = ("import random, randgen\n"
            "from photon_model.spec_model import mapping_digest\n"
            "rng = random.Random(1234)\n"
            "for _ in range(120):\n"
            "    print(mapping_digest(randgen.random_instance(rng)[2]))\n")
    path = os.pathsep.join([str(Path(__file__).parent),
                            str(Path(photon_model.__file__).parents[1])])
    outs = {subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path,
                         "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1", "2")}
    assert len(outs) == 1


def _strip_descending_outputs(arch):
    """The architecture without its converters carrying Outputs down, and
    the edges that lost one."""

    stripped = {k for k, t, dirn in arch.edge_converters
                if (t, dirn) == (OUTPUTS, DOWN)}
    kept = []
    for cv in arch.converters:
        if arch.edge_converters.get((cv.edge, OUTPUTS, DOWN)) is cv:
            cv = replace(cv, tensors=tuple(t for t in cv.tensors
                                           if t != OUTPUTS))
        if cv.tensors:
            kept.append(cv)
    return replace(arch, converters=tuple(kept)), stripped


def test_refetch_rule_matches_the_interpreter():
    # Validation rejects the stripped architecture exactly when the
    # interpreter, walking the original, sends Outputs down a stripped edge.
    rng = random.Random(4321)
    seen = {"ConverterMissing": 0, "ok": 0}
    for _ in range(150):
        arch, layer, mapping = random_instance(rng)
        bare, stripped = _strip_descending_outputs(arch)
        if not stripped:
            continue
        sim = simulate(arch, layer, mapping)
        refetched = any(sim.edge_crossings.get((k, OUTPUTS, DOWN))
                        for k in stripped)
        kind, _ = outcome(validate_mapping, mapping, layer, bare)
        assert kind == ("ConverterMissing" if refetched else "ok")
        seen[kind] += 1
    assert min(seen.values()) >= 5


def test_equivalence_covers_padded_and_batched():
    rng = random.Random(77)
    padded = batched = 0
    for _ in range(80):
        arch, layer, mapping = random_instance(rng)
        padded += mapping.pad
        batched += mapping.batch_size > 1
        a_kind, a = outcome(analyze, arch, layer, mapping)
        s_kind, s = outcome(simulate, arch, layer, mapping)
        assert a_kind == s_kind
        if a_kind == "ok":
            assert a == s
    assert padded >= 5
    assert batched >= 5


SHIPPED_SETTINGS = {
    "default": {},
    "inputs-hoisted": {"keep_overrides": {0: ("Weights", "Outputs")}},
    "batch2": {"batch_size": 2},
    "delay": {"objective": "delay"},
}
# Shrunken layers on the bundled Albireo geometry (four levels, multicast
# plus reduce into the array, converter banks on two edges, spatial pins),
# small enough for the interpreter. Dims are drawn below and above the pins
# (K8, C4, Q7, R3), so drawn shapes both divide and pad them.
SHRUNKEN_DIMS = st.fixed_dictionaries({
    "N": st.integers(1, 2), "K": st.integers(1, 16), "C": st.integers(1, 8),
    "P": st.integers(1, 4), "Q": st.integers(1, 8), "R": st.integers(1, 3),
    "S": st.integers(1, 3)})


@pytest.mark.parametrize("setting", sorted(SHIPPED_SETTINGS))
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(dims=SHRUNKEN_DIMS)
@example(dims={"K": 8, "C": 4, "P": 2, "Q": 7, "R": 3, "S": 3})
# K12 C6 P3 Q5 pads every pinned axis.
@example(dims={"K": 12, "C": 6, "P": 3, "Q": 5, "R": 3, "S": 3})
@example(dims={"N": 2, "K": 16, "C": 8, "P": 2, "Q": 2})
@example(dims={"K": 10, "C": 3})
def test_engines_agree_on_searched_albireo_mappings(setting, dims):
    _assert_engines_agree_on_searched(albireo.architecture("aggressive"),
                                      dims, SHIPPED_SETTINGS[setting])


def _assert_engines_agree_on_searched(arch, dims, fields):
    dims = {d: dims.get(d, 1) for d in DIMS}
    window = all(dims[d] == 1 for d in ("R", "S", "P", "Q"))
    layer = Layer(name="shrunken",
                  kind="fully_connected" if window else "conv", dims=dims)
    cfg = SearchConfig(budget=60, seed=7, pad_mode="pad",
                       fixed_spatial=stencil_pins(layer, arch), **fields)
    mapping = search(arch, layer, cfg).mapping
    assert analyze(arch, layer, mapping) == simulate(arch, layer, mapping)


@pytest.mark.parametrize("value", [2, 8])
@pytest.mark.parametrize("axis", list(albireo.AXES))
@pytest.mark.parametrize("dims", [
    {"K": 8, "C": 4, "P": 2, "Q": 7, "R": 3, "S": 3},
    {"K": 12, "C": 6, "P": 3, "Q": 5, "R": 3, "S": 3},
    {"N": 2, "K": 16, "C": 8, "P": 2, "Q": 2},
    {"K": 10, "C": 3},
], ids=["divides", "pads", "batched", "fully-connected"])
def test_engines_agree_on_searched_swept_geometries(dims, axis, value):
    # The reuse sweep's geometries widen one stencil axis each, so the
    # same shapes pad them far more.
    _assert_engines_agree_on_searched(
        albireo.architecture("aggressive", **{axis: value}), dims, {})
