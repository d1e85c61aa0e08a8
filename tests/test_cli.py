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
