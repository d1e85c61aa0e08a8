import json
import re

import pytest

from photon_model import cli


def test_map_accepts_energy_delay_product_objective(capsys):
    rc = cli.main(["map", "--layer", "fc8",
                   "--objective", "energy_delay_product",
                   "--budget", "20", "--albireo-pins"])
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
                   "--budget", "20", "--albireo-pins"])
    assert rc == 0
    out = capsys.readouterr().out
    m = re.search(r"visited (\d+), pruned (\d+), invalid (\d+),", out)
    visited, pruned, invalid = map(int, m.groups())
    assert pruned > 0 and visited + pruned + invalid == 20


def test_map_albireo_pins_pads_dims_the_pins_do_not_divide(capsys):
    # AlexNet conv1 has C=3 under a C pin of 4.
    rc = cli.main(["map", "--workload", "alexnet", "--layer", "conv1",
                   "--albireo-pins", "--budget", "20"])
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


@pytest.fixture
def tiny_mapping(tiny_workload, tmp_path, capsys):
    path = tmp_path / "a.mapping"
    rc = cli.main(["map", "--workload", tiny_workload, "--layer", "a",
                   "--albireo-pins", "--budget", "20",
                   "--emit-mapping", str(path)])
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


def test_evaluate_prices_the_mapping(tiny_workload, tiny_mapping, capsys):
    rc = cli.main(["evaluate", "--workload", tiny_workload, "--layer", "a",
                   "--mapping", tiny_mapping])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_energy_pj"] == pytest.approx(
        sum(doc["energy_pj"].values()))
    assert 0 < doc["utilization"] <= 1


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


def test_malformed_experiment_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "memory", "speed": 9}))
    assert cli.main(["experiment", "--config", str(path)]) == 2
    assert "unknown fields ['speed']" in capsys.readouterr().err


def test_infeasible_sweep_exits_3(tiny_workload, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"experiment": "reuse_sweep",
                                "workload": tiny_workload,
                                "sweep_values": [1, 64]}))
    assert cli.main(["experiment", "--config", str(path)]) == 3
    assert "infeasible" in capsys.readouterr().err
