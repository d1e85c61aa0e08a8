import json
from dataclasses import replace

import pytest

from photon_model import albireo, cli, experiments
from photon_model.evaluator import evaluate
from photon_model.experiments import (
    ExperimentConfig,
    FusionInfeasible,
    _architecture,
    _buffer_level,
    _insert_batch_loop,
    _resized_buffer_arch,
    _sweep_layer,
    accelerator_scope,
    check_fusible,
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
    Layer,
    Mapping,
    SpecError,
    canonical_json,
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
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="breakdown", buffer_energy_exponent=False)
    with pytest.raises(SpecError):
        ExperimentConfig(experiment="memory",
                         buffer_energy_exponent=float("nan"))
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


def test_check_fusible_gates_on_buffer_capacity():
    big = Layer(name="huge", kind="conv",
                dims={"N": 1, "K": 512, "C": 3, "P": 224, "Q": 224, "R": 3,
                      "S": 3})
    nxt = Layer(name="next", kind="conv",
                dims={"N": 1, "K": 8, "C": 512, "P": 224, "Q": 224, "R": 3,
                      "S": 3})
    capacity = 1 << 24
    with pytest.raises(FusionInfeasible) as e:
        check_fusible(big, nxt, capacity)
    assert e.value.required_bits == 512 * 224 * 224 * 8
    assert e.value.capacity == capacity
    # A batch multiplies the held intermediate.
    small = Layer(name="ok", kind="conv",
                  dims={"N": 1, "K": 8, "C": 8, "P": 16, "Q": 16, "R": 3,
                        "S": 3})
    assert check_fusible(small, nxt, capacity) == 8 * 16 * 16 * 8
    with pytest.raises(FusionInfeasible):
        check_fusible(small, nxt, 8 * 16 * 16 * 8, batch_size=2)


def test_auto_fusion_buffer_resizes_the_configured_architecture():
    base = albireo.architecture("aggressive")
    level = _buffer_level(base)
    sram = replace(base.levels[level].component, name="my_sram")
    levels = list(base.levels)
    levels[level] = replace(levels[level], component=sram)
    custom = replace(base, name="custom", clock_ghz=2.0, levels=tuple(levels))
    cfg = ExperimentConfig(experiment="memory", fusion_buffer="auto")

    got = _resized_buffer_arch(cfg, 1 << 26, custom)

    assert (got.name, got.clock_ghz) == ("custom", 2.0)
    buf = got.levels[level].component
    assert (buf.name, buf.capacity_bits) == ("my_sram", 1 << 26)
    factor = ((1 << 26) / sram.capacity_bits) ** cfg.buffer_energy_exponent
    assert buf.energy("read") == pytest.approx(sram.energy("read") * factor)
    assert got == replace(custom, levels=tuple(
        replace(lv, component=buf) if i == level else lv
        for i, lv in enumerate(custom.levels)))


def test_auto_fusion_buffer_keeps_the_stencil():
    # The resized architecture is rebuilt from its document, and the fused
    # pairs searched on it are pinned from its stencil.
    base = albireo.architecture("aggressive")
    cfg = ExperimentConfig(experiment="memory", fusion_buffer="auto")
    got = _resized_buffer_arch(cfg, 1 << 26, base)
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


def test_throughput_end_to_end(tiny_workload):
    cfg = ExperimentConfig(experiment="throughput", workload=tiny_workload,
                           budget=60)
    report = run_throughput(cfg)
    assert [r["layer"] for r in report["tables"]["layers"]] == ["a", "b"]
    assert 0 < report["workloads"][tiny_workload]["ratio"] <= 1
    assert canonical_json(run_throughput(cfg)) == canonical_json(report)


def test_breakdown_end_to_end(tiny_workload):
    cfg = ExperimentConfig(experiment="breakdown", workload=tiny_workload,
                           budget=60)
    report = run_breakdown(cfg)
    rows = report["tables"]["breakdown"]
    assert len({r["component"] for r in rows}) == len(rows)
    assert 0 < report["modeled_total_pj"]
    assert sum(r["modeled_fraction"] for r in rows) == pytest.approx(1.0)
    assert canonical_json(run_breakdown(cfg)) == canonical_json(report)


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
    dac = albireo.architecture("aggressive").components()["dac"]
    doubled = replace(dac, energy_per_action={
        **dac.energy_per_action, "convert": 2 * dac.energy("convert")})
    factors = {}
    for name, parts in (("plain", ()), ("doubled", (doubled,))):
        arch = _spec_file(tmp_path, name, albireo.architecture_doc(), parts)
        cfg = ExperimentConfig(experiment="breakdown", arch=arch,
                               workload=tiny_workload, budget=60)
        factors[name] = run_breakdown(cfg)["calibration_factors"]["dac"]
    assert factors["doubled"] < 0.75 * factors["plain"]


def test_studies_find_the_backing_store_by_role(tiny_workload, tmp_path,
                                               capsys):
    # Renaming the backing store's part moves no number: the studies take
    # the outermost level's part as the backing store, whatever its name.
    dram = albireo.architecture("aggressive").components()["dram"]
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
    assert _sweep_layer(cfg).name == "conv1_2"


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
    assert _architecture(cfg) == albireo.architecture("conservative")
    assert _architecture(cfg) == _architecture(replace(cfg, arch=None))


def test_bundled_arch_name_follows_the_sweep_geometry():
    unset = ExperimentConfig(experiment="reuse_sweep", sweep_values=(1, 2),
                             budget=50)
    named = replace(unset, arch="albireo")
    assert _architecture(named, (2, 1, 1)) == albireo.architecture(
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
