import hashlib
import json
from dataclasses import replace

import pytest

from photon_model import albireo, cli, evaluator, experiments, mapper
from photon_model.components import PROFILES, builtin_components
from photon_model.evaluator import evaluate
from photon_model.experiments import (
    ExperimentConfig,
    _buffer_level,
    _insert_batch_loop,
    _resized_buffer_arch,
    _sweep_layer,
    accelerator_scope,
    parse_experiment_config,
    run_breakdown,
    run_experiment,
    run_memory_experiment,
    run_reuse_sweep,
    run_throughput,
)
from photon_model.mapper import SearchConfig, search
from photon_model.reuse import analyze
from photon_model.spec_model import (
    WEIGHTS,
    ComponentSpec,
    Layer,
    Mapping,
    MappingError,
    SpecError,
    canonical_json,
    parse_architecture,
    serialize_architecture,
    serialize_component,
    serialize_spec,
    stencil_pins,
)
from photon_model.workloads import load_spec


def small_layer():
    return Layer(name="toy", kind="conv",
                 dims={"N": 1, "K": 8, "C": 4, "P": 7, "Q": 7, "R": 3,
                       "S": 3})


def searched_mapping(arch, layer, budget=200, seed=3):
    cfg = SearchConfig(objective="energy", budget=budget, seed=seed,
                       strategy="pruned_random", pad_mode="pad",
                       fixed_spatial=stencil_pins(layer, arch))
    return search(arch, layer, cfg).mapping


def test_config_validation():
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="roofline")
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="memory", batch_sizes=())
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="memory", batch_sizes=(0,))
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="reuse_sweep", sweep_values=())
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="reuse_sweep", sweep_axis="laser_power")
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="breakdown", profile="middling")
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="breakdown", fusion="maybe")
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="breakdown", budget=0)
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="breakdown", budget=True)
    with pytest.raises(SpecError) as e:
        ExperimentConfig(experiment="breakdown", seed=-7)
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            "experiment.seed")
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="breakdown", buffer_energy_exponent=False)
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="memory",
                         buffer_energy_exponent=float("nan"))
    # A repeated value wrote every one of its rows twice.
    for field, values in (("batch_sizes", (16, 16)),
                          ("sweep_values", (1, 2, 1))):
        with pytest.raises(SpecError) as e:
            ExperimentConfig(experiment="memory", **{field: values})
        assert e.value.path == f"experiment.{field}"
    # A list is taken as a tuple.
    cfg = ExperimentConfig(experiment="memory", batch_sizes=[4, 16])
    assert cfg.batch_sizes == (4, 16)


def test_parse_experiment_config():
    cfg = parse_experiment_config({"experiment": "memory",
                                   "batch_sizes": [4, 16],
                                   "budget": 50})
    assert cfg.batch_sizes == (4, 16)
    assert cfg.budget == 50
    with pytest.raises(SpecError):
        parse_experiment_config({"experiment": "memory", "speed": 9})
    with pytest.raises(SpecError):
        parse_experiment_config({"budget": 50})


def test_accelerator_scope_drops_dram():
    arch = albireo.architecture("aggressive")
    scoped = accelerator_scope({"dram": 5.0, "register": 1.0}, arch)
    assert scoped == {"register": 1.0}


def test_batch_insertion_amortizes_weights_exactly():
    # Per-batch weight DRAM traffic stays constant while input and output
    # traffic scale linearly with the batch, so per-inference weight fills
    # are baseline/B.
    arch = albireo.architecture("aggressive")
    layer = small_layer()
    mapping = searched_mapping(arch, layer)
    lvl = _buffer_level(arch)
    assert arch.levels[lvl].name == "global_buffer"
    base = analyze(arch, layer, mapping)
    w0 = base.per_level[(0, "Weights")].reads
    i0 = base.per_level[(0, "Inputs")].reads
    o0 = base.per_level[(0, "Outputs")]
    for b in (1, 2, 4, 8):
        m = _insert_batch_loop(mapping, lvl, b)
        c = analyze(arch, layer, m)
        assert c.per_level[(0, "Weights")].reads == w0
        assert c.per_level[(0, "Inputs")].reads == b * i0
        assert c.per_level[(0, "Outputs")].updates == b * o0.updates
        assert c.macs == b * base.macs


def test_fusion_override_changes_only_intermediate_traffic():
    # Dropping Outputs from the DRAM keep-set on a fixed schedule must not
    # change MACs, conversions, or any inner-level count; only the DRAM and
    # buffer rows for Outputs move.
    arch = albireo.architecture("aggressive")
    layer = small_layer()
    cfg = SearchConfig(objective="energy", budget=200, seed=5,
                       strategy="pruned_random", pad_mode="pad",
                       fixed_spatial=stencil_pins(layer, arch),
                       keep_overrides={0: ("Weights", "Inputs")})
    fused = search(arch, layer, cfg).mapping
    unfused = Mapping(levels=fused.levels, batch_size=fused.batch_size,
                      keep_overrides={}, pad=fused.pad)
    cf = analyze(arch, layer, fused)
    cu = analyze(arch, layer, unfused)
    assert cf.macs == cu.macs
    assert cf.conversions == cu.conversions
    for (lvl, t), lc in cu.per_level.items():
        if t != "Outputs" or lvl >= 2:
            assert cf.per_level.get((lvl, t)) == lc
    assert (0, "Outputs") not in cf.per_level


def test_auto_fusion_buffer_resizes_the_configured_architecture(tmp_path):
    # A custom architecture read from its own spec file, whose buffer is a
    # part of that file's library. The resize is a refinement of the
    # buffer's entry, stated in the document.
    sram = replace(builtin_components("aggressive")["global_buffer_sram"],
                   name="my_sram")
    doc = albireo.architecture_doc()
    doc.update(name="custom", clock_ghz=2.0)
    level = _buffer_level(albireo.architecture("aggressive"))
    doc["levels"][level]["component"] = "my_sram"
    path = _spec_file(tmp_path, "custom", doc, (sram,))
    cfg = ExperimentConfig(experiment="memory", arch=path,
                           fusion_buffer="auto")
    spec = experiments._spec(cfg)
    custom = spec.architecture

    got = _resized_buffer_arch(cfg, 1 << 26, spec)

    assert (got.name, got.clock_ghz) == ("custom", 2.0)
    buf = got.levels[level].component
    assert (buf.name, buf.capacity_bits) == ("my_sram", 1 << 26)
    factor = ((1 << 26) / sram.capacity_bits) ** cfg.buffer_energy_exponent
    assert buf.energy("read") == sram.energy("read") * factor
    assert buf.static_power_mw == sram.static_power_mw
    want = serialize_architecture(custom)
    want["levels"][level].update(capacity_bits=1 << 26, energy_scale=factor)
    assert serialize_architecture(got) == want
    assert parse_architecture(want, load_spec(path).library) == got


def test_auto_fusion_buffer_keeps_the_stencil():
    # The resized architecture is rebuilt from its document, and the fused
    # pairs searched on it are pinned from its stencil.
    spec = load_spec("albireo")
    base = spec.architecture
    cfg = ExperimentConfig(experiment="memory", fusion_buffer="auto")
    got = _resized_buffer_arch(cfg, 1 << 26, spec)
    assert got.levels[-1].stencil == base.levels[-1].stencil
    layer = small_layer()
    assert stencil_pins(layer, got) == stencil_pins(layer, base) != {}


def test_the_stencil_constrains_only_the_search():
    # A mapping off the stencil is valid, and priced as on the bare array.
    arch = albireo.architecture("aggressive")
    bare = replace(arch, levels=arch.levels[:-1] + (
        replace(arch.levels[-1], stencil=()),))
    layer = small_layer()
    mapping = searched_mapping(bare, layer)
    assert any(mapping.levels[j].s(d) != f
               for (j, d), f in stencil_pins(layer, arch).items())
    assert evaluate(arch, layer, mapping) == evaluate(bare, layer, mapping)


def _searched_run(run, cfg, monkeypatch):
    """run(cfg), with the report and how many searches ran (mapper._search
    calls). Each run builds its own architecture, so it reuses no search of
    an earlier run."""

    ran = []
    search_once = mapper._search

    def counted(*args):
        ran.append(args)
        return search_once(*args)

    with monkeypatch.context() as patch:
        patch.setattr(mapper, "_search", counted)
        report = run(cfg)
    return report, len(ran)


def test_throughput_end_to_end(tiny_workload, monkeypatch):
    cfg = ExperimentConfig(experiment="throughput", workload=tiny_workload,
                           budget=60)
    report, searches = _searched_run(run_throughput, cfg, monkeypatch)
    assert [r["layer"] for r in report["tables"]["layers"]] == ["a", "b"]
    assert 0 < report["workloads"][tiny_workload]["ratio"] <= 1
    # Deterministic: a second run that searches again reports the same.
    again, searched_again = _searched_run(run_throughput, cfg, monkeypatch)
    assert searched_again == searches > 0
    assert canonical_json(again) == canonical_json(report)


def test_breakdown_end_to_end(tiny_workload, monkeypatch):
    cfg = ExperimentConfig(experiment="breakdown", workload=tiny_workload,
                           budget=60)
    report, searches = _searched_run(run_breakdown, cfg, monkeypatch)
    rows = report["tables"]["breakdown"]
    assert len({r["component"] for r in rows}) == len(rows)
    assert 0 < report["modeled_total_pj"]
    assert sum(r["modeled_fraction"] for r in rows) == pytest.approx(1.0)
    again, searched_again = _searched_run(run_breakdown, cfg, monkeypatch)
    assert searched_again == searches > 0
    assert canonical_json(again) == canonical_json(report)


def _scaled(part, factors):
    """`part` with its action energies and static power times its factor."""

    k = factors.get(part.name, 1.0)
    return replace(part, static_power_mw=part.static_power_mw * k,
                   energy_per_action={a: e * k for a, e in
                                      part.energy_per_action.items()})


def test_modeled_energies_reprice_the_searched_mappings(tiny_workload,
                                                        monkeypatch):
    # The study re-weights each part's priced energy by its factor instead
    # of pricing again. Priced energy is linear in a part's action energies
    # and static power, so pricing every searched mapping on parts scaled
    # by the factors must give the report's modeled energies.
    searched = []
    real = experiments.search

    def recorded(arch, layer, sc):
        result = real(arch, layer, sc)
        searched.append((layer, result.mapping))
        return result

    monkeypatch.setattr(experiments, "search", recorded)
    cfg = ExperimentConfig(experiment="breakdown", workload=tiny_workload,
                           budget=60)
    report = run_breakdown(cfg)
    factors = report["calibration_factors"]
    arch = albireo.architecture("aggressive")
    calibrated = replace(
        arch,
        levels=tuple(replace(lv, component=_scaled(lv.component, factors))
                     for lv in arch.levels),
        converters=tuple(replace(cv, component=_scaled(cv.component, factors))
                         for cv in arch.converters),
        extras=tuple(replace(ex, component=_scaled(ex.component, factors))
                     for ex in arch.extras))
    repriced = {}
    for layer, mapping in searched:
        for c, pj in evaluate(calibrated, layer, mapping).energy_pj.items():
            repriced[c] = repriced.get(c, 0.0) + pj
    repriced = accelerator_scope(repriced, arch)
    rows = report["tables"]["breakdown"]
    assert len(searched) == 2 and set(factors) <= set(repriced)
    assert {r["component"]: r["modeled_pj"] for r in rows} == pytest.approx(
        repriced, rel=1e-12, abs=0)


def test_breakdown_prices_each_search_once(tiny_workload, monkeypatch):
    # Calibration reads the searches' energies: the study neither reads the
    # architecture again nor re-prices counts.
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for module in (experiments, mapper, evaluator):
        monkeypatch.setattr(module, "energy",
                            counted("energy", module.energy))
    monkeypatch.setattr(experiments, "parse_architecture",
                        counted("parse_architecture",
                                experiments.parse_architecture))
    cfg = ExperimentConfig(experiment="breakdown", workload=tiny_workload,
                           budget=60)
    assert run_breakdown(cfg)["calibration_factors"]
    assert calls == []


def test_a_pass_searches_each_layer_shape_once(tmp_path, monkeypatch):
    # Two layers of one shape: the pass asks for two searches, and the
    # second returns the result the first kept on the pass's architecture.
    path = tmp_path / "twins.spec"
    layer = {"kind": "conv", "dims": {"N": 1, "K": 8, "C": 4, "P": 7,
                                      "Q": 7, "R": 3, "S": 3}}
    path.write_text(json.dumps({"spec_version": 1, "workload": {
        "name": "twins", "layers": [{"name": "a", **layer},
                                    {"name": "b", **layer}]}}))
    cfg = ExperimentConfig(experiment="throughput", workload=str(path),
                           budget=60)
    asked = []
    real = experiments.search

    def recorded(*args):
        asked.append(real(*args))
        return asked[-1]

    monkeypatch.setattr(experiments, "search", recorded)
    report, searches = _searched_run(run_throughput, cfg, monkeypatch)
    assert [r["layer"] for r in report["tables"]["layers"]] == ["a", "b"]
    assert (len(asked), searches) == (2, 1)
    assert asked[0] is asked[1]


def _spec_file(tmp_path, name, arch_doc, parts=()):
    """A spec file holding `arch_doc` over the builtin library, with
    `parts` added to it (replacing builtin parts of the same name)."""

    path = tmp_path / f"{name}.spec"
    path.write_text(json.dumps({
        "spec_version": 1, "use_builtin_components": "aggressive",
        "components": [serialize_component(c) for c in parts],
        "architecture": arch_doc}))
    return str(path)


def test_breakdown_calibrates_the_architectures_own_parts(tiny_workload,
                                                          tmp_path):
    # A spec whose own library doubles the DAC's convert energy must be
    # calibrated from that library, so the DAC needs a smaller factor.
    dac = builtin_components("aggressive")["dac"]
    doubled = replace(dac, energy_per_action={
        **dac.energy_per_action, "convert": 2 * dac.energy("convert")})
    factors = {}
    for name, parts in (("plain", ()), ("doubled", (doubled,))):
        arch = _spec_file(tmp_path, name, albireo.architecture_doc(), parts)
        cfg = ExperimentConfig(experiment="breakdown", arch=arch,
                               workload=tiny_workload, budget=60)
        factors[name] = run_breakdown(cfg)["calibration_factors"]["dac"]
    assert factors["doubled"] < 0.75 * factors["plain"]


def test_calibration_applies_a_refinement_once(tiny_workload, tmp_path):
    # A buffer entry that doubles its part's energies calibrates exactly as
    # a library whose buffer part is already doubled.
    sram = builtin_components("aggressive")["global_buffer_sram"]
    doubled = replace(sram, energy_per_action={
        a: 2 * e for a, e in sram.energy_per_action.items()})
    refined = albireo.architecture_doc()
    refined["levels"][1]["energy_scale"] = 2
    reports = []
    for path in (_spec_file(tmp_path, "refined", refined),
                 _spec_file(tmp_path, "doubled", albireo.architecture_doc(),
                            (doubled,))):
        cfg = ExperimentConfig(experiment="breakdown", arch=path,
                               workload=tiny_workload, budget=60)
        reports.append(run_breakdown(cfg))
    refined_report, doubled_report = reports
    assert (refined_report["calibration_factors"]
            == doubled_report["calibration_factors"])
    assert (refined_report["tables"]["breakdown"]
            == doubled_report["tables"]["breakdown"])


def test_studies_find_the_backing_store_by_role(tiny_workload, tmp_path,
                                               capsys):
    # Renaming the backing store's part moves no number: the studies take
    # the outermost level's part as the backing store, whatever its name.
    dram = builtin_components("aggressive")["dram"]
    doc = albireo.architecture_doc()
    doc["levels"][0]["component"] = "hbm"
    paths = {"plain": _spec_file(tmp_path, "plain", albireo.architecture_doc()),
             "hbm": _spec_file(tmp_path, "hbm", doc,
                               (replace(dram, name="hbm"),))}
    shares = {}
    for name, path in paths.items():
        cfg = ExperimentConfig(experiment="memory", arch=path,
                               workload=tiny_workload, fusion="off",
                               budget=30)
        shares[name] = run_memory_experiment(cfg)["baseline_dram_share"]
    assert shares["hbm"] == shares["plain"] > 0
    rc = cli.main(["experiment", "--experiment", "breakdown", "--arch",
                   paths["hbm"], "--workload", tiny_workload,
                   "--budget", "20"])
    assert rc == 0, capsys.readouterr().err


def test_auto_fusion_buffer_fuses_the_pairs_fixed_rejects(tmp_path):
    # The intermediate of a (64 x 192 x 192 outputs at 8 bits) outgrows the
    # 16,777,216-bit buffer alone at batch 1 and twice over at batch 2.
    dims = {"N": 1, "P": 192, "Q": 192, "R": 3, "S": 3}
    path = tmp_path / "wide.spec"
    path.write_text(json.dumps({"spec_version": 1, "workload": {
        "name": "wide", "layers": [
            {"name": "a", "dims": {**dims, "K": 64, "C": 4}},
            {"name": "b", "dims": {**dims, "K": 8, "C": 64}}]}}))
    pairs = {}
    for mode in ("fixed", "auto"):
        cfg = ExperimentConfig(experiment="memory", workload=str(path),
                               batch_sizes=(2,), fusion_buffer=mode,
                               budget=20)
        pairs[mode] = run_memory_experiment(cfg)["tables"]["fusion_pairs"]
    required = [18_874_368, 37_748_736]
    assert [(p["batch_size"], p["required_bits"], p["capacity_bits"],
             p["fused"]) for p in pairs["fixed"]] == [
        (1, required[0], 16_777_216, False),
        (2, required[1], 16_777_216, False)]
    assert [(p["batch_size"], p["required_bits"], p["capacity_bits"],
             p["fused"]) for p in pairs["auto"]] == [
        (1, required[0], required[0], True),
        (2, required[1], required[1], True)]


PAIR_COLUMNS = ["producer", "consumer", "batch_size", "required_bits",
                "capacity_bits", "fused", "reason"]


def test_fusion_pair_rows_record_each_outcome(tmp_path, tiny_workload,
                                              monkeypatch):
    # One row per attempted pair, its columns in a fixed order: a fused
    # pair, one whose intermediate outgrows the fixed buffer, one on a
    # resized buffer, and one whose keep-overridden search finds nothing.
    # a's 64 x 192 x 192 outputs outgrow the buffer; b's 8 x 192 x 192 fit
    # at batch 1 and 2.
    dims = {"N": 1, "P": 192, "Q": 192, "R": 3, "S": 3}
    path = tmp_path / "wide3.spec"
    path.write_text(json.dumps({"spec_version": 1, "workload": {
        "name": "wide3", "layers": [
            {"name": "a", "dims": {**dims, "K": 64, "C": 4}},
            {"name": "b", "dims": {**dims, "K": 8, "C": 64}},
            {"name": "c", "dims": {**dims, "K": 8, "C": 8}}]}}))
    capacity = 16_777_216
    a_bits, b_bits = 64 * 192 * 192 * 8, 8 * 192 * 192 * 8

    def pair_rows(workload, mode):
        cfg = ExperimentConfig(experiment="memory", workload=workload,
                               batch_sizes=(2,), fusion_buffer=mode,
                               budget=20)
        rows = run_memory_experiment(cfg)["tables"]["fusion_pairs"]
        assert all(list(row) == PAIR_COLUMNS for row in rows)
        return [tuple(row.values()) for row in rows]

    assert pair_rows(str(path), "fixed") == [
        ("a", "b", 1, a_bits, capacity, False, "exceeds_capacity"),
        ("b", "c", 1, b_bits, capacity, True, ""),
        ("a", "b", 2, 2 * a_bits, capacity, False, "exceeds_capacity"),
        ("b", "c", 2, 2 * b_bits, capacity, True, "")]
    assert pair_rows(str(path), "auto") == [
        ("a", "b", 1, a_bits, a_bits, True, ""),
        ("a", "b", 2, 2 * a_bits, 2 * a_bits, True, "")]

    real = experiments.search

    def search(arch, layer, sc):
        if sc.keep_overrides:
            raise mapper.NoValidMapping(layer.name, "nothing fits")
        return real(arch, layer, sc)

    monkeypatch.setattr(experiments, "search", search)
    tiny_bits = 8 * 7 * 7 * 8
    assert pair_rows(tiny_workload, "fixed") == [
        ("a", "b", 1, tiny_bits, capacity, False, "NoValidMapping"),
        ("a", "b", 2, 2 * tiny_bits, capacity, False, "NoValidMapping")]


def test_memory_identity_configuration(tiny_workload):
    # batch_size 1 with fusion off adds a batched leg that must coincide
    # with the baseline exactly.
    cfg = ExperimentConfig(experiment="memory", workload=tiny_workload,
                           batch_sizes=(1,), fusion="off", budget=80)
    report = run_memory_experiment(cfg)
    legs = {r["leg"]: r for r in report["tables"]["legs"]}
    assert set(legs) == {"baseline", "batched"}
    assert legs["batched"]["energy_per_inference_pj"] == pytest.approx(
        legs["baseline"]["energy_per_inference_pj"])
    assert legs["batched"]["improvement_vs_baseline"] == pytest.approx(1.0)
    assert legs["baseline"]["dram_weight_reads_per_batch"] == \
        legs["batched"]["dram_weight_reads_per_batch"]


def test_memory_batching_amortizes(tiny_workload):
    cfg = ExperimentConfig(experiment="memory", workload=tiny_workload,
                           batch_sizes=(4,), fusion="off", budget=80)
    report = run_memory_experiment(cfg)
    legs = {r["leg"]: r for r in report["tables"]["legs"]}
    base = legs["baseline"]
    batched = legs["batched"]
    assert batched["batch_size"] == 4
    assert batched["dram_weight_reads_per_batch"] == \
        base["dram_weight_reads_per_batch"]
    assert batched["latency_per_batch_ms"] > base["latency_per_batch_ms"]


def _crossbar(tmp_path):
    """A spec file for a 16-cell analog CiM crossbar: each 8-bit cell keeps
    one weight (stencil K4 C4) beside an analog-electrical MAC, behind
    DAC and ADC banks at the buffer."""

    parts = (ComponentSpec("cim_cell", "storage", "AE", "AE",
                           {"read": 0.01, "write": 0.5, "update": 0.5},
                           capacity_bits=8),
             ComponentSpec("analog_mac_e", "compute", "AE", "AE",
                           {"compute": 0.01}))
    tensors = ["Weights", "Inputs", "Outputs"]
    doc = {"name": "crossbar", "clock_ghz": 0.1, "levels": [
        {"name": "dram", "component": "dram", "keeps": tensors},
        {"name": "buffer", "component": "global_buffer_sram",
         "keeps": tensors},
        {"name": "cells", "component": "cim_cell", "fanout": 16,
         "keeps": ["Weights"], "stencil": {"K": 4, "C": 4}},
        {"name": "mac", "component": "analog_mac_e"}],
        "meshes": [{"between": ["dram", "buffer"]},
                   {"between": ["buffer", "cells"], "may_multicast": True,
                    "may_reduce": True},
                   {"between": ["cells", "mac"]}],
        "converters": [
            {"component": "dac", "between": ["buffer", "cells"],
             "tensors": ["Weights", "Inputs"], "instances": 8},
            {"component": "adc", "between": ["buffer", "cells"],
             "tensors": ["Outputs"], "instances": 4}]}
    return _spec_file(tmp_path, "crossbar", doc, parts)


def _rejected_rewrite(arch, layer, mapping):
    raise MappingError("ConverterMissing", "the batch loop bounces partials")


@pytest.mark.parametrize("evaluate_rewrite", [evaluate, _rejected_rewrite],
                         ids=["weights-read-again", "rewrite-invalid"])
def test_batched_leg_falls_back_to_the_batch_search(
        tiny_workload, tmp_path, monkeypatch, evaluate_rewrite):
    # The baseline leg is the unconstrained searches. The batched leg keeps
    # a layer's batch-loop rewrite only if it is valid and reads DRAM
    # weights once per batch; else the layer takes its batch-2 search. On
    # the crossbar, b's rewrite reads its weights again per image and a's
    # does not; rejecting every rewrite sends both layers to the search.
    path = _crossbar(tmp_path)
    cfg = ExperimentConfig(experiment="memory", arch=path,
                           workload=tiny_workload, batch_sizes=(2,),
                           fusion="off", budget=20, seed=7)
    arch = load_spec(path).architecture
    layers = load_spec(tiny_workload).workload.layers
    base = [experiments._search_layer(arch, layer, cfg, "energy")
            for layer in layers]
    searched = [experiments._search_layer(arch, layer, cfg, "energy",
                                          batch_size=2).evaluation
                for layer in layers]
    rewritten = [evaluate(arch, layer, _insert_batch_loop(
        r.mapping, _buffer_level(arch), 2)) for layer, r in zip(layers, base)]
    reads = [[ev.counts.per_level[(0, WEIGHTS)].reads for ev in evs]
             for evs in ([r.evaluation for r in base], rewritten)]
    assert reads[0][0] == reads[1][0] and reads[0][1] != reads[1][1]

    monkeypatch.setattr(experiments, "evaluate", evaluate_rewrite)
    report = run_memory_experiment(cfg)
    kept = rewritten[0] if evaluate_rewrite is evaluate else searched[0]
    base_row, _ = experiments._leg_row(
        "baseline", 1, [r.evaluation for r in base], None, "dram")
    batched_row, _ = experiments._leg_row(
        "batched", 2, [kept, searched[1]],
        base_row["energy_per_inference_pj"], "dram")
    assert report["tables"]["legs"] == [base_row, batched_row]


def _raise_on(monkeypatch, when):
    """Make the studies' search raise an AssertionError whenever
    `when(SearchConfig)` holds: a bug, not an infeasible search."""

    real = experiments.search

    def search(arch, layer, sc):
        if when(sc):
            raise AssertionError("inexact collapse")
        return real(arch, layer, sc)

    monkeypatch.setattr(experiments, "search", search)


def test_memory_study_propagates_a_bug_in_a_fused_search(tiny_workload,
                                                         monkeypatch):
    _raise_on(monkeypatch, lambda sc: bool(sc.keep_overrides))
    cfg = ExperimentConfig(experiment="memory", workload=tiny_workload,
                           batch_sizes=(2,), budget=20)
    with pytest.raises(AssertionError, match="inexact collapse"):
        run_memory_experiment(cfg)


def test_reuse_sweep_propagates_a_bug_in_its_search(tiny_workload,
                                                    monkeypatch):
    _raise_on(monkeypatch, lambda sc: True)
    cfg = ExperimentConfig(experiment="reuse_sweep", workload=tiny_workload,
                           sweep_values=(1,), budget=20)
    with pytest.raises(AssertionError, match="inexact collapse"):
        run_reuse_sweep(cfg)


def test_sweep_layer_selection():
    cfg = ExperimentConfig(experiment="reuse_sweep")
    widest = albireo.architecture("aggressive", max(cfg.sweep_values))
    assert _sweep_layer(cfg, widest).name == "conv1_2"


def test_reuse_sweep_targeted_counts_halve(tiny_workload):
    cfg = ExperimentConfig(experiment="reuse_sweep",
                           sweep_axis="ao_per_ae_weight",
                           sweep_values=(1, 2), budget=60, seed=7)
    report = run_reuse_sweep(cfg)
    rows = report["tables"]["sweep"]
    assert [r["value"] for r in rows] == [1, 2]
    assert rows[1]["targeted_conversions"] * 2 == \
        rows[0]["targeted_conversions"]
    assert report["targeted_converter"] == ["mzm_bank", "Weights"]


def test_reports_are_deterministic(tiny_workload):
    mem = ExperimentConfig(experiment="memory", workload=tiny_workload,
                           batch_sizes=(2,), fusion="on", budget=80)
    sweep = ExperimentConfig(experiment="reuse_sweep",
                             sweep_axis="ae_output_fanout",
                             sweep_values=(1, 2), budget=60)
    for cfg in (mem, sweep):
        a = canonical_json(run_experiment(cfg))
        b = canonical_json(run_experiment(cfg))
        assert a == b


# The first 16 hex characters of the sha256 of each study's default-config
# report, in canonical JSON.
DEFAULT_REPORT_DIGESTS = {
    "breakdown": "81bd5cdd23b0f048",
    "throughput": "e672f7dce895053f",
    "memory": "a1572ccff639ecec",
    "reuse_sweep": "243e3bc967db4c1e",
}


@pytest.mark.parametrize("experiment", sorted(DEFAULT_REPORT_DIGESTS))
def test_default_reports_do_not_move(experiment):
    """Each study's default-config report is byte-identical to the one the
    stored digest was taken from. A change that moves a report on purpose
    updates the digest here and names every moved number, with its value
    before and after, in CHANGES.md."""

    report = canonical_json(run_experiment(ExperimentConfig(
        experiment=experiment)))
    digest = hashlib.sha256(report.encode()).hexdigest()[:16]
    assert digest == DEFAULT_REPORT_DIGESTS[experiment]


def test_report_schema(tiny_workload):
    cfg = ExperimentConfig(experiment="memory", workload=tiny_workload,
                           batch_sizes=(2,), budget=80)
    report = run_experiment(cfg)
    assert report["schema_version"] == 1
    assert report["experiment"] == "memory"
    assert report["config"]["workload"] == tiny_workload
    assert {"legs", "fusion_pairs", "components"} <= set(report["tables"])
    json.dumps(report)


def test_bundled_arch_name_follows_the_profile():
    cfg = ExperimentConfig(experiment="throughput", arch="albireo",
                           profile="conservative")
    spec = experiments._spec(cfg)
    assert spec.architecture == albireo.architecture("conservative")
    assert spec == experiments._spec(replace(cfg, arch=None))


def test_profile_with_an_architecture_file_is_rejected(tmp_path, capsys):
    # A document that names its own parts and no builtin library has
    # nothing for a profile to scale, so the profile would be echoed in the
    # report without pricing anything. The document is read when a study
    # loads it, so that is where the profile is refused.
    path = tmp_path / "arch.spec"
    path.write_text(canonical_json(serialize_spec(load_spec("albireo"))))
    cfg = ExperimentConfig(experiment="memory", arch=str(path),
                           profile="conservative")
    with pytest.raises(SpecError) as e:
        experiments._spec(cfg)
    assert (e.value.kind, e.value.path) == ("MalformedDocument", str(path))
    assert "'conservative'" in str(e.value)
    assert experiments._spec(replace(cfg, profile="aggressive")) == \
        load_spec(str(path))
    assert cli.main(["experiment", "--experiment", "memory", "--arch",
                     str(path), "--profile", "conservative"]) == 2
    err = capsys.readouterr().err
    assert f"MalformedDocument at {path}" in err and "conservative" in err


def _builtin_file(tmp_path, profile):
    """The bundled architecture in a file over the builtin library under
    `profile`."""

    path = tmp_path / f"{profile}.spec"
    path.write_text(json.dumps({"spec_version": 1,
                                "use_builtin_components": profile,
                                "architecture": albireo.architecture_doc()}))
    return str(path)


def _cli_tables(capsys, workload, *args):
    assert cli.main(["experiment", "--experiment", "memory",
                     "--workload", workload, "--budget", "20", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    return report["config"]["profile"], report["tables"]


def test_a_profile_sets_the_documents_builtin_library(tiny_workload,
                                                      tmp_path, capsys):
    # The profile is an edit of use_builtin_components, so a file stating
    # one library and the bundled name price alike under every profile,
    # and the report's profile is the library that priced it.
    path = _builtin_file(tmp_path, "conservative")
    conservative = _cli_tables(capsys, tiny_workload, "--arch", "albireo",
                               "--profile", "conservative")
    assert _cli_tables(capsys, tiny_workload, "--arch", path,
                       "--profile", "conservative") == conservative
    aggressive = _cli_tables(capsys, tiny_workload)
    assert aggressive[0] == "aggressive" != conservative[0]
    assert aggressive[1] != conservative[1]
    assert _cli_tables(capsys, tiny_workload, "--arch", path) == aggressive
    # A stated library that names no profile stays an error, not a default.
    typo = _builtin_file(tmp_path, "agressive")
    for profile in PROFILES:
        with pytest.raises(SpecError) as e:
            experiments._spec(ExperimentConfig(
                experiment="memory", arch=typo, profile=profile))
        assert e.value.path == "$.use_builtin_components"


def test_bundled_arch_name_follows_the_sweep_geometry():
    unset = ExperimentConfig(experiment="reuse_sweep", sweep_values=(1, 2),
                             budget=50)
    named = replace(unset, arch="albireo")
    assert parse_architecture(
        albireo.architecture_doc(ao_per_ae_weight=2),
        experiments._spec(named).library) == albireo.architecture(
            "aggressive", 2, 1, 1)
    assert run_reuse_sweep(named)["tables"] == \
        run_reuse_sweep(unset)["tables"]


def test_reuse_sweep_rejects_any_other_architecture(tmp_path, capsys):
    path = tmp_path / "arch.spec"
    path.write_text(canonical_json(serialize_spec(load_spec("albireo"))))
    with pytest.raises(SpecError) as e:
        ExperimentConfig(experiment="reuse_sweep", arch=str(path))
    assert (e.value.kind, e.value.path) == ("MalformedDocument",
                                            "experiment.arch")
    rc = cli.main(["experiment", "--experiment", "reuse_sweep",
                   "--arch", str(path), "--budget", "20"])
    assert rc == 2
    assert "experiment.arch" in capsys.readouterr().err
