"""The count plan and the price rows are kept on the architecture instance
(per keep-override set for the plan). An edited copy, or another override
set, must never be counted or priced through tables built for another:
every result must equal one computed on a freshly parsed architecture."""

from dataclasses import replace

import pytest

from photon_model import albireo
from photon_model.evaluator import evaluate, price_rows
from photon_model.mapper import SearchConfig, search
from photon_model.oracle import simulate
from photon_model.reuse import analyze, count_plan, reuse_factors
from photon_model.spec_model import (
    INPUTS,
    OUTPUTS,
    WEIGHTS,
    Layer,
    parse_architecture,
    serialize_architecture,
    stencil_pins,
)

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
    return parse_architecture(serialize_architecture(arch), arch.components())


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
    assert price_rows(a) is price_rows(a)
    assert price_rows(b) is not price_rows(a)


@pytest.mark.parametrize("edit, moves", [
    (_backing_store_bandwidth, "cycles"),
    (_converter_instances, "cycles"),
    (_extra_area, "area_um2"),
])
def test_latency_and_area_follow_an_edited_copy(edit, moves):
    # The bandwidths, conversion rates and area sum in the price rows are
    # read per candidate; an edited copy must never see the original's.
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
    assert count_plan(arch, plain) is count_plan(arch, replace(plain))
    assert count_plan(arch, bypass) is not count_plan(arch, plain)
