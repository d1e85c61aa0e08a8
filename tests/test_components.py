import pytest

from photon_model import albireo
from photon_model.components import (
    PROFILES,
    CalibrationError,
    breakdown_error,
    builtin_components,
    calibration_factors,
)
from photon_model.evaluator import evaluate
from photon_model.spec_model import (
    DIMS,
    Layer,
    LevelMapping,
    Mapping,
    _validate_component,
)

EXPECTED_PARTS = {
    "dram", "global_buffer_sram", "register", "dac", "adc", "mzm_modulator",
    "photodiode", "microring", "star_coupler", "laser", "digital_mac",
    "analog_mac",
}


def test_library_contents():
    lib = builtin_components("aggressive")
    assert set(lib) == EXPECTED_PARTS
    for c in lib.values():
        assert all(e >= 0 for e in c.energy_per_action.values())


def test_dram_read_dominates_buffer_read():
    for prof in ("aggressive", "conservative"):
        lib = builtin_components(prof)
        assert (lib["dram"].energy("read")
                > lib["global_buffer_sram"].energy("read"))


def test_aggressive_optical_energy_below_conservative():
    agg = builtin_components("aggressive")
    con = builtin_components("conservative")
    for name in ("mzm_modulator", "photodiode", "dac", "adc", "analog_mac"):
        assert agg[name].energy_per_action != {} or name == "analog_mac"
        for action, e in agg[name].energy_per_action.items():
            assert e < con[name].energy_per_action[action]
    # Storage is process technology, not optics: identical across profiles.
    assert (agg["dram"].energy_per_action
            == con["dram"].energy_per_action)


def test_every_builtin_part_passes_the_component_checks():
    for name in PROFILES:
        for part in builtin_components(name).values():
            _validate_component(part, f"{name}.{part.name}")


def test_passive_optics_have_no_action_energy():
    lib = builtin_components("aggressive")
    assert lib["microring"].energy_per_action == {}
    assert lib["star_coupler"].energy_per_action == {}
    assert lib["laser"].energy_per_action == {}
    assert lib["laser"].static_power_mw > 0


def test_builtin_components_rejects_an_unknown_profile():
    with pytest.raises(KeyError, match="unknown scaling profile 'moderate'"):
        builtin_components("moderate")


def test_builtin_laser_draws_its_optical_power_through_the_wall_plug():
    # 16 wavelengths at 0.5 mW optical each, paid for the run's latency.
    layer = Layer(name="fc", kind="fully_connected",
                  dims=dict(dict.fromkeys(DIMS, 1), K=2, C=3))
    mapping = Mapping(levels=(LevelMapping(temporal={"K": 2, "C": 3}),)
                      + (LevelMapping(),) * 3)
    for name, prof in PROFILES.items():
        laser = builtin_components(name)["laser"]
        assert laser.static_power_mw == (
            16 * 0.5 / prof.laser_wall_plug_efficiency)
        ev = evaluate(albireo.architecture(name), layer, mapping)
        assert ev.latency_s > 0
        assert ev.energy_pj["laser"] == pytest.approx(
            laser.static_power_mw * ev.latency_s * 1e9)


def test_calibration_identity_fixed_point():
    factors = calibration_factors({"a": 0.5, "b": 0.5},
                                  {"a": 10.0, "b": 10.0})
    assert factors == pytest.approx({"a": 1.0, "b": 1.0})


def test_calibration_moves_factor_with_fraction():
    factors = calibration_factors({"a": 2 / 3, "b": 1 / 3},
                                  {"a": 10.0, "b": 10.0})
    assert factors["a"] > 1.0 > factors["b"]
    # Scaling preserves the total.
    assert factors["a"] * 10 + factors["b"] * 10 == pytest.approx(20.0)


def test_calibration_rejects_bad_fraction_sum():
    with pytest.raises(CalibrationError) as e:
        calibration_factors({"a": 0.5, "b": 0.3}, {"a": 1.0, "b": 1.0})
    assert e.value.kind == "BadFractions"


def test_calibration_rejects_zero_count():
    with pytest.raises(CalibrationError) as e:
        calibration_factors({"a": 0.5, "b": 0.5}, {"a": 10.0, "b": 0.0})
    assert e.value.kind == "ZeroCount"
    assert e.value.component == "b"


def test_calibration_rejects_unknown_component():
    with pytest.raises(CalibrationError) as e:
        calibration_factors({"a": 0.5, "ghost": 0.5}, {"a": 10.0})
    assert e.value.kind == "UnknownComponent"


def test_breakdown_error_fixed_point():
    ref = {"a": 10.0, "b": 30.0}
    overall, per = breakdown_error(dict(ref), ref)
    assert overall == 0.0
    assert per == {"a": 0.0, "b": 0.0}


def test_breakdown_error_uniform_double():
    ref = {"a": 10.0, "b": 30.0}
    overall, per = breakdown_error({"a": 20.0, "b": 60.0}, ref)
    assert overall == pytest.approx(100.0)
    # Fractions are unchanged by uniform scaling.
    assert per == {"a": pytest.approx(0.0), "b": pytest.approx(0.0)}


def test_breakdown_error_zero_reference():
    with pytest.raises(CalibrationError) as e:
        breakdown_error({"a": 1.0}, {"a": 0.0})
    assert (e.value.kind, e.value.component) == ("ZeroReference", "*")


def test_breakdown_error_warns_on_missing_keys():
    with pytest.warns(UserWarning):
        overall, per = breakdown_error({"a": 1.0}, {"a": 1.0, "b": 1.0})
    assert per["b"] == pytest.approx(50.0)
