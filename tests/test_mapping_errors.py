"""What a user is told about an invalid mapping on the evaluate path: each
fault's MappingError kind and its dim, level and tensor fields, whichever
of validate_mapping's steps finds it (the factor checks run while
LoopNest.of builds the nest); and a keep override that names a tensor
twice, which must fit, count and price as if it named it once."""

from dataclasses import replace

import pytest

from photon_model.evaluator import evaluate
from photon_model.oracle import simulate
from photon_model.reuse import analyze
from photon_model.spec_model import (
    INPUTS,
    OUTPUTS,
    WEIGHTS,
    LevelMapping,
    Mapping,
    MappingError,
    parse_mapping,
    serialize_mapping,
    validate_mapping,
)

import toys

# refetch_toy: store (DE) -> buf (AE, fanout 2) -> pe (AE, fanout 2); no
# converter carries Outputs back down into buf.
LAYER = toys.fc_k2c3()  # K2 C3


def _levels(top=None, buf=None, pe=None):
    return tuple(LevelMapping() if lm is None else lm for lm in (top, buf, pe))


# K outside C at the store: each output tile is finished before the next.
GOOD = _levels(LevelMapping(temporal={"K": 2, "C": 3},
                            permutation=("K", "C")))


def _with(arch=None, **fields):
    return (toys.refetch_toy(1 << 10) if arch is None else arch,
            Mapping(**{"levels": GOOD, **fields}))


# name -> ((architecture, mapping), (kind, dim, level, tensor))
FAULTS = {
    "level-count": (
        _with(levels=GOOD[:2]), ("FactorMismatch", None, None, None)),
    "batch-size-0": (
        _with(batch_size=0), ("FactorMismatch", None, None, None)),
    "unknown-dim": (
        _with(levels=_levels(GOOD[0], LevelMapping(temporal={"X": 2}))),
        ("FactorMismatch", "X", "buf", None)),
    "unknown-spatial-dim": (
        _with(levels=_levels(GOOD[0], None, LevelMapping(spatial={"X": 1}))),
        ("FactorMismatch", "X", "pe", None)),
    "factor-0": (
        _with(levels=_levels(LevelMapping(temporal={"K": 0, "C": 3}))),
        ("FactorMismatch", "K", None, None)),
    "factor-2.0": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2.0, "C": 3}))),
        ("FactorMismatch", "K", None, None)),
    "factor-True": (
        _with(levels=_levels(GOOD[0], LevelMapping(spatial={"R": True}))),
        ("FactorMismatch", "R", None, None)),
    "repeated-permutation-entry": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2, "C": 3},
                                          permutation=("K", "K")))),
        ("FactorMismatch", None, None, None)),
    "permutation-entry-not-a-dim": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2, "C": 3},
                                          permutation=(["K"],)))),
        ("FactorMismatch", None, None, None)),
    # Faults at two levels: the outer one is reported, as the levels are
    # checked outermost first, whatever order the nest is built in.
    "outer-fault-first": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2, "C": 3.0}),
                             LevelMapping(temporal={"X": 2}))),
        ("FactorMismatch", "C", None, None)),
    "permutation-before-inner-factor": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2, "C": 3},
                                          permutation=("C", "C")),
                             None, LevelMapping(temporal={"X": 2}))),
        ("FactorMismatch", None, None, None)),
    "coverage": (
        _with(levels=_levels(LevelMapping(temporal={"C": 3}))),
        ("FactorMismatch", "K", None, None)),
    "pad-coverage": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2, "C": 2})),
              pad=True),
        ("FactorMismatch", "C", None, None)),
    "fanout": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2}), None,
                             LevelMapping(spatial={"C": 3}))),
        ("FanoutExceeded", None, "pe", None)),
    # 8 bits each of one Weights, Inputs and Outputs value in 16 bits.
    "capacity": (
        _with(toys.refetch_toy(16)), ("CapacityExceeded", None, "buf",
                                      WEIGHTS)),
    # C outside K at the store: a finished output tile comes back to buf.
    "refetch": (
        _with(levels=_levels(LevelMapping(temporal={"K": 2, "C": 3},
                                          permutation=("C", "K")))),
        ("ConverterMissing", None, "buf", OUTPUTS)),
    "override-adds-a-tensor": (
        _with(toys.fc_weight_buffer(), keep_overrides={1: (INPUTS,)}),
        ("FactorMismatch", None, "wbuf", None)),
    "override-past-the-levels": (
        _with(keep_overrides={3: (WEIGHTS,)}),
        ("FactorMismatch", None, None, None)),
    # An override's key is a level index and its value a list of tensor
    # names: a string, float or bool key, or a bare string value, is no
    # override (a hand-built Mapping reaches validation unparsed).
    "override-key-a-string": (
        _with(keep_overrides={"0": (WEIGHTS, INPUTS)}),
        ("FactorMismatch", None, None, None)),
    "override-key-a-float": (
        _with(keep_overrides={0.0: (WEIGHTS, INPUTS)}),
        ("FactorMismatch", None, None, None)),
    "override-key-a-bool": (
        _with(keep_overrides={True: (WEIGHTS,)}),
        ("FactorMismatch", None, None, None)),
    "override-a-string": (
        _with(keep_overrides={0: WEIGHTS}),
        ("FactorMismatch", None, "store", None)),
    # Keys of mixed types cannot be sorted, nor a list inside a value
    # hashed: the type is checked before the set is keyed.
    "override-keys-of-mixed-types": (
        _with(keep_overrides={0: (WEIGHTS, INPUTS), "1": (WEIGHTS,)}),
        ("FactorMismatch", None, None, None)),
    "override-a-list-of-lists": (
        _with(keep_overrides={0: [[WEIGHTS]]}),
        ("FactorMismatch", None, "store", None)),
    "override-leaves-a-tensor-unkept": (
        _with(keep_overrides={0: (WEIGHTS, INPUTS), 1: (WEIGHTS, INPUTS)}),
        ("FactorMismatch", None, None, OUTPUTS)),
    # Outputs originate at buf, so no output dim may factor at the store.
    "origin": (
        _with(keep_overrides={0: (WEIGHTS, INPUTS)}),
        ("FactorMismatch", "K", "buf", OUTPUTS)),
}


def _fields(call):
    with pytest.raises(MappingError) as e:
        call()
    err = e.value
    return err.kind, err.dim, err.level, err.tensor


@pytest.mark.parametrize("case", FAULTS)
def test_each_fault_names_its_dim_level_and_tensor(case):
    (arch, mapping), want = FAULTS[case]
    assert _fields(lambda: evaluate(arch, LAYER, mapping)) == want
    assert _fields(lambda: validate_mapping(mapping, LAYER, arch)) == want
    # Reading the nest of a fresh copy before validation changes nothing.
    fresh = replace(mapping)
    try:
        fresh.nest
    except MappingError:
        pass
    assert _fields(lambda: analyze(arch, LAYER, fresh)) == want


def test_the_good_mapping_is_valid():
    evaluate(toys.refetch_toy(1 << 10), LAYER, Mapping(levels=GOOD))


@pytest.mark.parametrize("buf_bits", [16, 1 << 10])
def test_a_tensor_named_twice_is_kept_once(buf_bits):
    # Every factor sits at the store, so buf holds one value of each kept
    # tensor: Weights and Outputs take 16 bits, which fit a 16-bit buf
    # only if Weights is charged once.
    arch = toys.refetch_toy(buf_bits)
    twice = Mapping(levels=GOOD, keep_overrides={1: (WEIGHTS, WEIGHTS,
                                                     OUTPUTS)})
    once = replace(twice, keep_overrides={1: (WEIGHTS, OUTPUTS)})
    validate_mapping(twice, LAYER, arch)
    assert analyze(arch, LAYER, twice) == analyze(arch, LAYER, once)
    assert simulate(arch, LAYER, twice) == simulate(arch, LAYER, once)
    want = evaluate(arch, LAYER, once)
    assert replace(evaluate(arch, LAYER, twice), mapping=once) == want
    doc = serialize_mapping(twice, arch)
    assert doc["mapping"]["keep_overrides"] == {
        "1": [OUTPUTS, WEIGHTS, WEIGHTS]}
    parsed = parse_mapping(doc, arch)
    assert replace(evaluate(arch, LAYER, parsed), mapping=once) == want
    # With Inputs kept too, buf needs 24 bits.
    tight = replace(twice, keep_overrides={1: (WEIGHTS, WEIGHTS, INPUTS,
                                               OUTPUTS)})
    if buf_bits == 16:
        assert _fields(lambda: evaluate(arch, LAYER, tight)) == (
            "CapacityExceeded", None, "buf", WEIGHTS)
    else:
        evaluate(arch, LAYER, tight)
