import math

import pytest

from conftest import point_operators
from liouvlab import config as cfg
from liouvlab.errors import ConfigError


# --- merging and validation -------------------------------------------------------


def test_deep_merge_nested_override():
    base = {"system": {"gamma_e": 4.4, "J": 0.3}, "units": "rad"}
    override = {"system": {"J": 1.0}, "units": "mhz"}
    merged = cfg.deep_merge(base, override)
    assert merged == {"system": {"gamma_e": 4.4, "J": 1.0}, "units": "mhz"}
    assert base["system"]["J"] == 0.3  # inputs are not mutated


def test_deep_merge_replaces_non_dict_values():
    merged = cfg.deep_merge({"schedule": {"T": 2.0}}, {"schedule": None})
    assert merged["schedule"] is None


def test_validate_keys_strictness():
    cfg.validate_keys({"system": {"gamma_e": 1.0}, "scan": {"J_start": 0.1}})
    with pytest.raises(ConfigError, match="top-level"):
        cfg.validate_keys({"systems": {}})
    with pytest.raises(ConfigError, match="section 'system'"):
        cfg.validate_keys({"system": {"gamma_x": 1.0}})
    with pytest.raises(ConfigError, match="must be an object"):
        cfg.validate_keys({"system": 3})


# --- unit conversion ----------------------------------------------------------------


def test_apply_units_rad_is_identity():
    raw = {"system": {"J": 1.0}}
    assert cfg.apply_units(raw, "rad") is raw


def test_apply_units_mhz_scales_angular_keys_only():
    raw = {
        "system": {"J": 1.0, "Delta": -0.5, "gamma_e": 4.4},
        "schedule": {"J_max": 2.0, "Delta_max": 5.0, "T": 2.0},
        "scan": {"J_values": [0.1, 0.2], "J_range": [0.1, 1.8], "window": 10.0},
        "integrator": {"dt": 1e-3},
    }
    out = cfg.apply_units(raw, "mhz")
    two_pi = 2.0 * math.pi
    assert out["system"]["J"] == 1.0 * two_pi
    assert out["system"]["Delta"] == -0.5 * two_pi
    assert out["system"]["gamma_e"] == 4.4  # rates are plain 1/us, untouched
    assert out["schedule"]["J_max"] == 2.0 * two_pi
    assert out["schedule"]["Delta_max"] == 5.0 * two_pi
    assert out["schedule"]["T"] == 2.0
    assert out["scan"]["J_values"] == [0.1 * two_pi, 0.2 * two_pi]
    assert out["scan"]["J_range"] == [0.1 * two_pi, 1.8 * two_pi]
    assert out["scan"]["window"] == 10.0
    assert out["integrator"]["dt"] == 1e-3
    assert raw["system"]["J"] == 1.0  # original untouched


def test_apply_units_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        cfg.apply_units({}, "ghz")
    with pytest.raises(ConfigError):
        cfg.apply_units({"system": {"J": True}}, "mhz")
    with pytest.raises(ConfigError):
        cfg.apply_units({"system": {"J": "fast"}}, "mhz")


# --- --set overrides -----------------------------------------------------------------


def test_parse_set_override_forms():
    assert cfg.parse_set_override("system.gamma_e=4.4") == (["system", "gamma_e"], 4.4)
    assert cfg.parse_set_override("scan.J_values=[0.1, 0.2]") == (["scan", "J_values"], [0.1, 0.2])
    assert cfg.parse_set_override("system.f_decay_to=g") == (["system", "f_decay_to"], "g")
    assert cfg.parse_set_override("units=mhz") == (["units"], "mhz")
    assert cfg.parse_set_override("schedule.direction=cw") == (["schedule", "direction"], "cw")
    path, val = cfg.parse_set_override("scan.resolution=15")
    assert val == 15 and isinstance(val, int)


def test_parse_set_override_rejects_malformed_specs():
    with pytest.raises(ConfigError):
        cfg.parse_set_override("system.gamma_e")
    with pytest.raises(ConfigError):
        cfg.parse_set_override("=4.4")


def test_nest_override():
    assert cfg.nest_override(["system", "J"], 1.0) == {"system": {"J": 1.0}}
    assert cfg.nest_override(["units"], "mhz") == {"units": "mhz"}


# --- resolution -----------------------------------------------------------------------


def test_resolve_defaults():
    out = cfg.resolve({}, "spectrum")
    assert out.experiment == "spectrum"
    assert out.system.dim == 2
    assert out.system.rates.gamma_e == 0.0
    assert out.schedule is None
    assert out.integrator_dt == 1e-3
    assert out.integrator_store_every == 1
    assert out.ensemble_n == 1000
    assert out.master_seed == 12345
    assert out.ensemble_dt == 5e-4
    assert out.ensemble_store_every == 20
    assert out.t_final is None
    assert out.scan == {}
    assert str(out.output_dir) == "out"
    assert out.formats == ("csv", "json")


def test_resolve_full_document():
    raw = {
        "system": {"dim": 3, "gamma_e": 4.2, "gamma_f": 0.3, "J": 1.05, "f_decay_to": "g"},
        "schedule": {"T": 1.5, "direction": "cw", "J_max": 8.0, "Delta_max": 6.0,
                     "gamma_e_schedule": "cosine"},
        "integrator": {"dt": 5e-4, "store_every": 10},
        "ensemble": {"n": 250, "master_seed": 7, "dt": 1e-3},
        "scan": {"J_start": 0.1, "J_stop": 1.8, "J_step": 0.05},
        "output_dir": "results/run1",
        "formats": ["csv"],
    }
    out = cfg.resolve(raw, "fig4")
    assert out.system.dim == 3
    assert out.system.rates.gamma_f == 0.3
    _h, jumps = point_operators(out.system)
    assert [lbl for _, lbl in jumps] == ["e", "f"]
    assert out.integrator_dt == 5e-4
    assert out.integrator_store_every == 10
    assert out.schedule.T == 1.5
    assert out.schedule.direction == "cw"
    assert out.schedule.gamma_e_schedule == "cosine"
    assert out.ensemble_n == 250
    assert out.scan["J_step"] == 0.05
    assert out.formats == ("csv",)
    assert out.echo["system"]["dim"] == 3


def test_resolve_schedule_null_disables_the_loop():
    out = cfg.resolve({"schedule": None, "ensemble": {"t_final": 1.5}}, "trajectories")
    assert out.schedule is None
    assert out.t_final == 1.5


def test_resolve_error_paths():
    with pytest.raises(ConfigError, match="system"):
        cfg.resolve({"system": {"gamma_e": -1.0}}, "spectrum")
    with pytest.raises(ConfigError, match="schedule"):
        cfg.resolve({"schedule": {"T": -2.0}}, "fig2")
    with pytest.raises(ConfigError, match="integrator"):
        cfg.resolve({"integrator": {"method": "euler"}}, "spectrum")
    with pytest.raises(ConfigError, match="must be a number"):
        cfg.resolve({"system": {"gamma_e": "hot"}}, "spectrum")
    with pytest.raises(ConfigError, match="must be an integer"):
        cfg.resolve({"ensemble": {"n": 2.5}}, "trajectories")
    with pytest.raises(ConfigError):
        cfg.resolve({"ensemble": {"n": 0}}, "trajectories")
    # a scheduled run lasts schedule.T, so a duration beside it would be ignored
    with pytest.raises(ConfigError, match="t_final"):
        cfg.resolve({"schedule": {"T": 2.0}, "ensemble": {"t_final": 0.5}}, "trajectories")
    with pytest.raises(ConfigError):
        cfg.resolve({"formats": []}, "spectrum")
    with pytest.raises(ConfigError):
        cfg.resolve({"formats": ["yaml"]}, "spectrum")
    with pytest.raises(ConfigError, match="top-level"):
        cfg.resolve({"threads": 2}, "spectrum")


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        cfg.load_config_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        cfg.load_config_file(bad)
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(ConfigError, match="JSON object"):
        cfg.load_config_file(scalar)
