import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest

from photon_model import oracle
from photon_model.oracle import OracleCapExceeded, simulate
from photon_model.reuse import analyze
from photon_model.spec_model import (DIMS, Layer, LevelMapping, LoopNest,
                                     Mapping)

import toys
from randgen import random_instance


def _concatenated(loops) -> list:
    """LoopNest.loops' levels, outermost first, as (level, dim, extent)."""

    return [(j, d, e) for j, level in enumerate(loops) for d, e in level]


def test_the_oracle_reads_each_permutation_as_the_loop_nest_does():
    rng = random.Random(42)
    for _ in range(60):
        _, _, mapping = random_instance(rng)
        assert oracle._read_loops(mapping.levels) == _concatenated(
            mapping.nest.loops)
        # The same factors under orders that leave live dims out and name
        # unit-factor ones.
        levels = tuple(replace(lm, permutation=tuple(
            rng.sample(DIMS, rng.randint(0, len(DIMS)))))
            for lm in mapping.levels)
        assert oracle._read_loops(levels) == _concatenated(
            LoopNest.of(levels).loops)


def test_degenerate_single_iteration_nest():
    arch = toys.fanout_converter_arch(fanout=4)
    m = Mapping(levels=(LevelMapping(), LevelMapping()))
    c = simulate(arch, toys.ones_layer(), m)
    assert c.macs == 1
    assert c.real_macs == 1
    for t in ("Weights", "Inputs", "Outputs"):
        assert c.per_level[(0, t)].reads == 1
    assert c.conversions == {("dn", "Inputs"): 1, ("dn", "Weights"): 1,
                             ("up", "Outputs"): 1}


def test_padded_macs_counted_separately():
    # K=3 padded to 4 lanes: 144 padded MACs drive the nest, 108 are real.
    arch = toys.fanout_converter_arch(fanout=4)
    layer = Layer(name="sconv", kind="conv",
                  dims={"N": 1, "K": 3, "C": 1, "R": 2, "S": 2, "P": 3,
                        "Q": 3},
                  stride=(2, 2))
    m = Mapping(levels=(LevelMapping(temporal={"R": 2, "S": 2, "P": 3,
                                               "Q": 3}),
                        LevelMapping(spatial={"K": 4})),
                pad=True)
    c = simulate(arch, layer, m)
    assert c.macs == 144
    assert c.real_macs == 108


def test_interpreter_cap():
    arch = toys.fc_direct()
    layer = Layer(name="big", kind="fully_connected",
                  dims={"N": 1, "K": 64, "C": 64, "R": 1, "S": 1, "P": 1,
                        "Q": 1})
    m = Mapping(levels=(LevelMapping(temporal={"K": 64, "C": 64}),
                        LevelMapping()))
    with pytest.raises(OracleCapExceeded) as e:
        simulate(arch, layer, m, cap=1000)
    assert e.value.macs == 4096
    assert e.value.cap == 1000
    # The default cap admits it.
    assert simulate(arch, layer, m).macs == 4096


def test_oracle_matches_analyze_on_fixed_instances():
    arch = toys.fanout_converter_arch(fanout=4)
    mappings = [
        Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 4, "Q": 4}),
                        LevelMapping(spatial={"K": 4}))),
        Mapping(levels=(LevelMapping(temporal={"C": 2, "R": 3, "S": 3,
                                               "P": 2, "K": 4, "Q": 4},
                                     permutation=("K", "C", "P")),
                        LevelMapping(spatial={"P": 2}))),
    ]
    for m in mappings:
        a = analyze(arch, toys.conv_k4(), m)
        s = simulate(arch, toys.conv_k4(), m)
        assert a == s


# The interpreter is the independent check on reuse.analyze: it reads the
# definitions and count containers from spec_model and imports nothing
# from reuse, so it cannot share the closed form's hops, plan or counting.
def test_oracle_imports_nothing_from_reuse():
    tree = ast.parse(Path(oracle.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            assert "reuse" not in {a.name for a in node.names}
    assert "spec_model" in modules
    assert not any(m.split(".")[-1] == "reuse" for m in modules)


# What reuse.analyze plans once per architecture, the arithmetic core that
# counts from the plan (the code reuse emits from it, and the one lookup
# that keeps the plan with its bound code), and the chain helpers reuse
# once kept for the oracle: merge widths, converter keys and hops read
# from these would share the closed form's derivation.
COUNT_PLAN_NAMES = {"CountPlan", "counting", "Counting", "Leg",
                    "merge_widths", "leg_at", "emit", "tensor_hops",
                    "output_stream", "accumulation_level"}


def test_oracle_never_reaches_the_count_plan():
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
            names.update(a.name.split(".")[-1] for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert not names & COUNT_PLAN_NAMES
