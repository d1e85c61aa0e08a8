import json
import re
from pathlib import Path

import pytest

from photon_model import albireo, cli, experiments
from photon_model.components import builtin_components
from photon_model.experiments import ExperimentConfig, run_experiment
from photon_model.mapper import SearchConfig, search
from photon_model.spec_model import SpecError, parse_spec, stencil_pins
from photon_model.workloads import load_architecture, load_spec, load_workload


def test_map_accepts_energy_delay_product_objective(capsys):
    rc = cli.main(["map", "--layer", "fc8",
                   "--objective", "energy_delay_product",
                   "--budget", "20"])
    assert rc == 0
    assert "best energy_delay_product" in capsys.readouterr().out


def test_map_rejects_removed_random_strategy(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["map", "--layer", "fc8", "--strategy", "random"])
    assert e.value.code == 2
    assert "invalid choice: 'random'" in capsys.readouterr().err


def test_map_rejects_batch_size_zero(capsys):
    rc = cli.main(["map", "--layer", "conv1_1", "--batch-size", "0"])
    assert rc == 2
    assert "batch_size must be >= 1" in capsys.readouterr().err


def test_map_counts_add_up_to_the_budget(capsys):
    rc = cli.main(["map", "--layer", "conv1_1", "--objective", "delay",
                   "--budget", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    m = re.search(r"visited (\d+), pruned (\d+), invalid (\d+),", out)
    visited, pruned, invalid = map(int, m.groups())
    assert pruned > 0 and visited + pruned + invalid == 20


def test_map_exhaustive_walks_only_valid_candidates(capsys):
    rc = cli.main(["map", "--layer", "fc8", "--strategy", "exhaustive"])
    assert rc == 0
    assert "fc8: visited 841, pruned 0, invalid 0," in capsys.readouterr().out


def _searched_seeds(monkeypatch, module):
    """The seed of every search `module` starts, once monkeypatched."""

    seeds = []

    def recorded(arch, layer, cfg):
        seeds.append(cfg.seed)
        return search(arch, layer, cfg)

    monkeypatch.setattr(module, "search", recorded)
    return seeds


def test_map_seed_reaches_the_search(monkeypatch, capsys):
    seeds = _searched_seeds(monkeypatch, cli)
    assert cli.main(["map", "--layer", "fc8", "--budget", "5",
                     "--seed", "11"]) == 0
    assert seeds == [11]
    assert "fc8: visited" in capsys.readouterr().out


def test_experiment_seed_reaches_the_config_and_every_search(
        tiny_workload, tmp_path, monkeypatch, capsys):
    seeds = _searched_seeds(monkeypatch, experiments)
    out = tmp_path / "out"
    assert cli.main(["experiment", "--experiment", "throughput",
                     "--workload", tiny_workload, "--budget", "5",
                     "--seed", "11", "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 11
    assert seeds and set(seeds) == {11}


def test_negative_seed_exits_2(capsys):
    # random.Random(-7) draws as Random(7) does.
    assert cli.main(["map", "--layer", "fc8", "--budget", "5",
                     "--seed", "-7"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert cli.main(["experiment", "--experiment", "throughput",
                     "--seed", "-7"]) == 2
    assert "experiment.seed" in capsys.readouterr().err


def test_map_albireo_pins_pads_dims_the_pins_do_not_divide(capsys):
    # AlexNet conv1 has C=3 under the bundled stencil's C pin of 4.
    rc = cli.main(["map", "--workload", "alexnet", "--layer", "conv1",
                   "--budget", "20"])
    assert rc == 0
    assert "conv1: visited" in capsys.readouterr().out


def test_spec_and_components(capsys):
    assert cli.main(["spec", "albireo"]) == 0
    assert "architecture albireo" in capsys.readouterr().out
    assert cli.main(["spec", "vgg16"]) == 0
    assert "workload vgg16: 16 layers" in capsys.readouterr().out
    assert cli.main(["components", "--profile", "conservative",
                     "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["profile"] == "conservative" and doc["components"]


def test_components_lists_the_library_as_text(capsys):
    assert cli.main(["components", "--profile", "conservative"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("profile: conservative\n")
    lib = builtin_components("conservative")
    lines = out.splitlines()[1:]
    assert [line.split()[0] for line in lines] == sorted(lib)
    assert all(line.split()[1] == lib[line.split()[0]].cls for line in lines)


@pytest.mark.parametrize("argv,message", [
    (["map", "--spec", "vgg16", "--layer", "fc8"],
     "spec contains no architecture"),
    (["map", "--layer", "conv9_9"], "no layer named 'conv9_9'"),
], ids=["spec-without-architecture", "unknown-layer"])
def test_map_input_errors_exit_2(argv, message, capsys):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_emitted_mapping_evaluates_to_the_searched_digest(tmp_path, capsys):
    path = tmp_path / "fc8.mapping"
    rc = cli.main(["map", "--workload", "alexnet", "--layer", "fc8",
                   "--budget", "20", "--emit-mapping", str(path)])
    assert rc == 0
    capsys.readouterr()
    layer = next(l for l in load_workload("alexnet").layers
                 if l.name == "fc8")
    arch = load_architecture("albireo")
    want = search(arch, layer, SearchConfig(
        budget=20, seed=7, pad_mode="pad",
        fixed_spatial=stencil_pins(layer, arch)))
    assert cli.main(["evaluate", "--workload", "alexnet", "--layer", "fc8",
                     "--mapping", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mapping_digest"] == want.evaluation.mapping_digest
    assert doc["total_energy_pj"] == want.evaluation.total_energy_pj


@pytest.fixture
def tiny_mapping(tiny_workload, tmp_path, capsys):
    path = tmp_path / "a.mapping"
    rc = cli.main(["map", "--workload", tiny_workload, "--layer", "a",
                   "--budget", "20", "--emit-mapping", str(path)])
    assert rc == 0
    capsys.readouterr()
    return str(path)


def test_counts_engine_matches_oracle(tiny_workload, tiny_mapping, capsys):
    rc = cli.main(["counts", "--workload", tiny_workload, "--layer", "a",
                   "--mapping", tiny_mapping, "--oracle"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["match"] is True
    assert doc["engine"]["real_macs"] == 8 * 4 * 7 * 7 * 3 * 3
    assert doc["engine"]["edge_crossings"] and doc["engine"]["edge_demand"]


def test_counts_oracle_compares_every_edge_crossing(tiny_workload,
                                                    tiny_mapping, capsys,
                                                    monkeypatch):
    # An oracle that disagrees on one edge crossing alone must not match.
    simulate = cli.simulate

    def off_by_one(arch, layer, mapping):
        counts = simulate(arch, layer, mapping)
        key = min(counts.edge_crossings)
        counts.edge_crossings[key] += 1
        return counts

    monkeypatch.setattr(cli, "simulate", off_by_one)
    rc = cli.main(["counts", "--workload", tiny_workload, "--layer", "a",
                   "--mapping", tiny_mapping, "--oracle"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["match"] is False
    engine, oracle = doc["engine"], doc["oracle"]
    assert [k for k in engine if engine[k] != oracle[k]] == ["edge_crossings"]


def test_evaluate_prices_the_mapping(tiny_workload, tiny_mapping, capsys):
    rc = cli.main(["evaluate", "--workload", tiny_workload, "--layer", "a",
                   "--mapping", tiny_mapping])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_energy_pj"] == pytest.approx(
        sum(doc["energy_pj"].values()))
    assert 0 < doc["utilization"] <= 1


def test_evaluate_rejects_a_misspelled_mapping_field(
        tiny_workload, tiny_mapping, tmp_path, capsys):
    doc = json.loads(Path(tiny_mapping).read_text())
    doc["mapping"]["batchsize"] = 4
    path = tmp_path / "typo.mapping"
    path.write_text(json.dumps(doc))
    rc = cli.main(["evaluate", "--workload", tiny_workload, "--layer", "a",
                   "--mapping", str(path)])
    assert rc == 2
    assert "unknown fields ['batchsize']" in capsys.readouterr().err


def test_evaluate_rejects_a_mapping_of_another_spec_version(
        tiny_workload, tiny_mapping, tmp_path, capsys):
    doc = json.loads(Path(tiny_mapping).read_text())
    doc["spec_version"] = 7
    path = tmp_path / "v7.mapping"
    path.write_text(json.dumps(doc))
    rc = cli.main(["evaluate", "--workload", tiny_workload, "--layer", "a",
                   "--mapping", str(path)])
    assert rc == 2
    assert ("MalformedDocument at $.spec_version: expected spec_version 1, "
            "got 7") in capsys.readouterr().err


@pytest.fixture
def small_arch(tmp_path):
    """The bundled document with a 16-lane array, converter and optical
    banks scaled to match: too small for the Albireo stencil, which it
    drops, so it is searched unpinned."""

    doc = albireo.architecture_doc()
    doc["levels"][-1]["fanout"] = 16
    del doc["levels"][-1]["stencil"]
    for part in doc["converters"] + doc["extras"]:
        if part["name"] in ("mzm_bank", "ring_banks"):
            part["instances"] = 16
        elif part["name"] in ("pd_bank", "star_couplers"):
            part["instances"] = 4
    path = tmp_path / "small.spec"
    path.write_text(json.dumps({"spec_version": 1,
                                "use_builtin_components": "aggressive",
                                "architecture": doc}))
    return str(path)


@pytest.mark.parametrize("experiment", ["throughput", "memory", "breakdown"])
def test_studies_search_another_architecture_unpinned(
        experiment, small_arch, tiny_workload, capsys):
    rc = cli.main(["experiment", "--experiment", experiment,
                   "--arch", small_arch, "--workload", tiny_workload,
                   "--budget", "20"])
    assert rc == 0, capsys.readouterr().err


@pytest.fixture
def bundled_copy(tmp_path):
    """The bundled architecture's document written to a file."""

    path = tmp_path / "copy.spec"
    path.write_text(json.dumps({"spec_version": 1,
                                "use_builtin_components": "aggressive",
                                "architecture": albireo.architecture_doc()}))
    return str(path)


def test_a_copy_of_the_bundled_document_is_searched_as_its_name(
        bundled_copy, tiny_workload, capsys):
    reports = [run_experiment(ExperimentConfig(
        experiment="throughput", arch=arch, workload=tiny_workload,
        budget=30)) for arch in ("albireo", bundled_copy)]
    for key in ("tables", "workloads"):
        assert reports[0][key] == reports[1][key]
    outs = []
    for spec in ("albireo", bundled_copy):
        assert cli.main(["map", "--spec", spec, "--workload", tiny_workload,
                         "--layer", "a", "--budget", "30"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("pinned", [True, False])
def test_map_pads_only_under_a_stencil(pinned, small_arch, tiny_workload,
                                       capsys):
    spec = "albireo" if pinned else small_arch
    assert cli.main(["map", "--spec", spec, "--workload", tiny_workload,
                     "--layer", "a", "--budget", "20",
                     "--emit-mapping", "-"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["mapping"]["pad"] is pinned


def test_spec_summary_shows_each_level_stencil(small_arch, capsys):
    assert cli.main(["spec", "albireo"]) == 0
    assert ("  stencil ao_array: K8 C4 Q7 R3 of fanout 672\n"
            in capsys.readouterr().out)
    assert cli.main(["spec", small_arch]) == 0
    assert "stencil" not in capsys.readouterr().out


def test_a_number_too_large_for_a_float_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.spec"
    path.write_text(json.dumps({"spec_version": 1, "components": [
        {"name": "sram", "class": "storage", "domain": "DE",
         "static_power_mw": 10 ** 400}]}))
    assert cli.main(["spec", str(path)]) == 2
    assert ("MalformedDocument at $.components[0].static_power_mw"
            in capsys.readouterr().err)


def test_experiment_writes_report_and_tables(tiny_workload, tmp_path,
                                             capsys):
    out = tmp_path / "out"
    rc = cli.main(["experiment", "--experiment", "throughput",
                   "--workload", tiny_workload, "--budget", "20",
                   "--output-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "throughput"
    assert (out / "layers.csv").read_text().count("\n") == 3


def test_map_of_a_spec_with_no_workload_exits_2(capsys):
    with pytest.raises(SpecError) as e:
        load_workload("albireo")
    assert (e.value.kind, e.value.path) == ("MalformedDocument", "albireo")
    assert cli.main(["map", "--spec", "albireo", "--workload", "albireo",
                     "--layer", "x"]) == 2
    assert ("MalformedDocument at albireo: spec contains no workload"
            in capsys.readouterr().err)


def test_malformed_experiment_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "memory", "speed": 9}))
    assert cli.main(["experiment", "--config", str(path)]) == 2
    assert "unknown fields ['speed']" in capsys.readouterr().err


# One ill-typed value per experiment-config field.
ILL_TYPED_FIELDS = {
    "experiment": 3,
    "arch": 1,
    "workload": ["vgg16"],
    "profile": None,
    "batch_sizes": ["16"],
    "fusion": True,
    "fusion_buffer": 0,
    "buffer_energy_exponent": "a",
    "sweep_axis": None,
    "sweep_values": 4,
    "budget": "10",
    "seed": "x",
    "output_dir": 5,
}


@pytest.mark.parametrize("field", sorted(ILL_TYPED_FIELDS))
def test_ill_typed_experiment_config_exits_2(field, tmp_path, capsys):
    doc = {"experiment": "memory", field: ILL_TYPED_FIELDS[field]}
    # A list's wrong item is named by its index.
    want = f"experiment.{field}" + ("[0]" if field == "batch_sizes" else "")
    with pytest.raises(SpecError) as err:
        ExperimentConfig(**doc)
    assert (err.value.kind, err.value.path) == ("MalformedDocument", want)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["experiment", "--config", str(path)]) == 2
    assert f"{want}:" in capsys.readouterr().err


def test_ill_typed_fields_cover_the_config():
    assert set(ILL_TYPED_FIELDS) == set(ExperimentConfig.__dataclass_fields__)


def test_infeasible_sweep_exits_3(tiny_workload, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"experiment": "reuse_sweep",
                                "workload": tiny_workload,
                                "sweep_values": [1, 64]}))
    assert cli.main(["experiment", "--config", str(path)]) == 3
    assert "infeasible" in capsys.readouterr().err


def test_spec_json_reparses_to_the_same_converters(capsys):
    assert cli.main(["spec", "albireo", "--json"]) == 0
    arch = parse_spec(json.loads(capsys.readouterr().out)).architecture
    want = load_spec("albireo").architecture
    names = {k: cv.name for k, cv in arch.edge_converters.items()}
    assert names == {k: cv.name for k, cv in want.edge_converters.items()}
    assert len(names) == 6


def test_spec_json_of_a_refined_document_is_a_fixed_point(tmp_path, capsys):
    # Refinements are written back as stated, so reading the output again
    # refines each part once more from the library, not twice.
    doc = {"spec_version": 1, "use_builtin_components": "aggressive",
           "architecture": albireo.architecture_doc(2, 2, 2)}
    doc["architecture"]["levels"][1].update(capacity_bits=1 << 26,
                                            energy_scale=1.5)
    want = parse_spec(doc).architecture
    outs = []
    for name in ("first", "second"):
        path = tmp_path / f"{name}.spec"
        path.write_text(json.dumps(doc))
        assert cli.main(["spec", str(path), "--json"]) == 0
        outs.append(capsys.readouterr().out)
        doc = json.loads(outs[-1])
    assert outs[0] == outs[1]
    assert parse_spec(doc).architecture == want
    assert doc["architecture"]["levels"][2]["capacity_bits"] == 8 * 8192


def test_report_bytes_do_not_depend_on_the_output_dir(tiny_workload,
                                                      tmp_path, capsys):
    reports = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = cli.main(["experiment", "--experiment", "throughput",
                       "--workload", tiny_workload, "--budget", "20",
                       "--output-dir", str(out)])
        assert rc == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_an_internal_key_error_is_not_an_input_error(monkeypatch):
    # Exit 2 is for malformed input; a KeyError from the program used to
    # print as "error: 'x'" and exit 2 as well.
    def broken(args):
        raise KeyError("x")

    monkeypatch.setattr(cli, "cmd_spec", broken)
    with pytest.raises(KeyError, match="'x'"):
        cli.main(["spec", "albireo"])
