import math

import pytest

from conftest import point_operators
from liouvlab import config as cfg
from liouvlab.errors import ConfigError
from liouvlab.model import ParameterSchedule, Rates


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


def test_the_schema_holds_the_keys_each_experiment_reads():
    sections = {experiment: {name: keys for name, keys in schema.items() if isinstance(keys, dict)}
                for experiment, schema in cfg.SCHEMA.items()}
    counts = {experiment: sum(map(len, body.values())) for experiment, body in sections.items()}
    assert counts == {"spectrum": 11, "ep-map": 6, "fig1": 12, "fig4": 15, "fig2": 14,
                      "sweeps": 11, "steady-state": 8, "trajectories": 18}
    assert sum(counts.values()) == 95
    distinct = {(name, key) for body in sections.values() for name, keys in body.items() for key in keys}
    assert len(distinct) == 33
    for schema in cfg.SCHEMA.values():
        assert {name for name, default in schema.items() if not isinstance(default, dict)} == {
            "experiment", "units", "output_dir"}


def test_validate_keys_strictness():
    cfg.validate_keys({"system": {"gamma_e": 1.0}, "scan": {"J_start": 0.1}}, "spectrum")
    with pytest.raises(ConfigError, match="spectrum does not read systems"):
        cfg.validate_keys({"systems": {}}, "spectrum")
    with pytest.raises(ConfigError, match="spectrum does not read system.gamma_x"):
        cfg.validate_keys({"system": {"gamma_x": 1.0}}, "spectrum")
    with pytest.raises(ConfigError, match="must be an object"):
        cfg.validate_keys({"system": 3}, "spectrum")
    # every unread key is named at once, sections the experiment lacks included
    with pytest.raises(ConfigError, match="fig1 does not read scan.Delta, system.J, ensemble.n$"):
        cfg.validate_keys({"scan": {"Delta": 3}, "system": {"J": 5}, "ensemble": {"n": 3}}, "fig1")


def test_validate_keys_takes_null_only_where_the_default_is_null():
    cfg.validate_keys({"scan": {"J_values": None}, "experiment": None}, "fig1")
    cfg.validate_keys({"schedule": None, "ensemble": {"t_final": None}}, "trajectories")
    for user, experiment in (({"system": {"gamma_e": None}}, "steady-state"),
                             ({"schedule": None}, "fig2"),
                             ({"schedule": None}, "sweeps"),
                             ({"output_dir": None}, "spectrum"),
                             ({"units": None}, "spectrum")):
        with pytest.raises(ConfigError, match="may not be null"):
            cfg.validate_keys(user, experiment)


# --- unit conversion ----------------------------------------------------------------


def test_apply_units_rad_is_identity():
    out = cfg.resolve({"system": {"J": 1.0, "Delta": -0.5}}, "steady-state")
    assert (out.system.drive.J, out.system.drive.Delta) == (1.0, -0.5)
    assert out.echo["system"]["J"] == 1.0


def test_apply_units_mhz_scales_angular_keys_only():
    two_pi = 2.0 * math.pi
    out = cfg.resolve({"units": "mhz", "system": {"J": 1.0, "Delta": -0.5, "gamma_e": 4.4}},
                      "steady-state")
    assert out.system.drive.J == 1.0 * two_pi
    assert out.system.drive.Delta == -0.5 * two_pi
    assert out.system.rates.gamma_e == 4.4  # rates are plain 1/us, untouched
    out = cfg.resolve({"units": "mhz", "schedule": {"J_max": 2.0, "Delta_max": 5.0, "T": 2.0},
                       "integrator": {"dt": 1e-3}}, "fig2")
    assert out.schedule.J_max == 2.0 * two_pi
    assert out.schedule.Delta_max == 5.0 * two_pi
    assert out.schedule.T == 2.0
    assert out.integrator_dt == 1e-3
    out = cfg.resolve({"units": "mhz", "scan": {"J_values": [0.1, 0.2], "window": 10.0}}, "fig1")
    assert out.scan["J_values"] == [0.1 * two_pi, 0.2 * two_pi]
    assert out.J_grid.tolist() == [0.1 * two_pi, 0.2 * two_pi]
    assert out.scan["window"] == 10.0
    out = cfg.resolve({"units": "mhz", "scan": {"J_range": [0.1, 1.8]}}, "ep-map")
    assert out.scan["J_range"] == [0.1 * two_pi, 1.8 * two_pi]


def test_apply_units_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="units must be 'rad' or 'mhz'"):
        cfg.resolve({"units": "ghz"}, "steady-state")
    with pytest.raises(ConfigError, match="system.J must be a number, got True"):
        cfg.resolve({"units": "mhz", "system": {"J": True}}, "steady-state")
    with pytest.raises(ConfigError, match="system.J must be a number, got 'fast'"):
        cfg.resolve({"units": "mhz", "system": {"J": "fast"}}, "steady-state")
    # a finite value that is no longer finite in rad/us
    with pytest.raises(ConfigError, match="scan.J_values must be finite"):
        cfg.resolve({"units": "mhz", "scan": {"J_values": [1e308]}}, "spectrum")


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
    # each section is resolved for an experiment that reads it, at the schema's defaults
    out = cfg.resolve({}, "fig2")
    assert out.experiment == "fig2"
    assert out.system.dim == 2
    assert out.system.rates.gamma_e == 4.6
    assert out.schedule == ParameterSchedule(T=2.0, direction="ccw", J_max=16.0,
                                             Delta_max=10.0 * math.pi, gamma_e_schedule="constant")
    assert out.integrator_dt == 1e-3
    assert out.integrator_store_every == 1
    assert out.ensemble_n == 1000
    assert out.master_seed == 12345
    assert out.ensemble_dt == 5e-4
    assert out.ensemble_store_every == 20
    assert out.t_final is None
    assert out.scan is None
    assert str(out.output_dir) == "out"

    out = cfg.resolve({}, "spectrum")
    assert out.system.rates == Rates(gamma_e=4.4, gamma_phi=0.1)
    assert out.scan == {"J_values": None, "J_start": 0.0, "J_stop": 2.0, "J_step": 0.005}
    assert out.system.drive.Delta == 0.0  # spectrum's detuning, like every other experiment's
    assert out.schedule is None
    assert (out.integrator_dt, out.ensemble_n, out.ensemble_dt, out.t_final) == (None,) * 4


def test_resolve_fills_the_defaults_of_every_experiment_from_the_schema():
    for experiment, schema in cfg.SCHEMA.items():
        out = cfg.resolve({}, experiment)
        read = {name: default for name, default in schema.items() if isinstance(default, dict)}
        if experiment == "trajectories":  # its drive is read only under schedule=null
            read["system"] = {k: v for k, v in read["system"].items() if k not in ("J", "Delta")}
            read["ensemble"] = {k: v for k, v in read["ensemble"].items() if k != "t_final"}
        assert out.echo == {**read, "output_dir": "out"}
        assert out.system.rates.gamma_e == schema["system"]["gamma_e"]
        assert out.scan == schema.get("scan")
        assert out.scan is None or out.scan is not schema["scan"]  # a copy, not the table


def test_resolve_full_document():
    raw = {
        "experiment": "fig4",
        "system": {"dim": 3, "gamma_e": 4.2, "gamma_f": 0.3, "f_decay_to": "g"},
        "scan": {"J_start": 0.1, "J_stop": 1.8, "J_step": 0.05},
        "output_dir": "results/run1",
    }
    out = cfg.resolve(raw, "fig4")
    assert out.system.dim == 3
    assert out.system.rates.gamma_f == 0.3
    assert out.system.rates.gamma_f_extra == 0.75  # fig4's default
    _h, jumps = point_operators(out.system)
    assert [lbl for _, lbl in jumps] == ["e", "phi", "f", "f_extra"]  # fig4 dephases by default
    assert out.scan["J_start"] == 0.1
    assert out.scan["n_samples"] == 500
    assert str(out.output_dir) == "results/run1"
    assert out.echo["system"]["dim"] == 3
    assert out.echo["system"]["f_decay_to"] == "g"
    assert out.echo["output_dir"] == "results/run1"

    raw = {
        "schedule": {"T": 1.5, "direction": "cw", "J_max": 8.0, "Delta_max": 6.0,
                     "gamma_e_schedule": "cosine"},
        "integrator": {"dt": 5e-4, "store_every": 10},
        "ensemble": {"n": 250, "master_seed": 7, "dt": 1e-3},
    }
    out = cfg.resolve(raw, "fig2")
    assert out.integrator_dt == 5e-4
    assert out.integrator_store_every == 10
    assert out.schedule.T == 1.5
    assert out.schedule.direction == "cw"
    assert out.schedule.gamma_e_schedule == "cosine"
    assert out.ensemble_n == 250
    assert out.ensemble_store_every == 20  # fig2's default
    assert out.echo["schedule"] == raw["schedule"]


def test_resolve_scales_only_the_given_angular_values_under_mhz():
    out = cfg.resolve({"units": "mhz", "system": {"J": 1.0}}, "steady-state")
    assert out.system.drive.J == 2.0 * math.pi
    assert out.system.drive.Delta == 0.0
    assert out.echo["system"]["J"] == 2.0 * math.pi
    assert "units" not in out.echo
    # the defaults are in rad/us already
    assert cfg.resolve({"units": "mhz"}, "sweeps").schedule.Delta_max == 10.0 * math.pi


def test_resolve_schedule_null_disables_the_loop():
    out = cfg.resolve({"schedule": None, "ensemble": {"t_final": 1.5}}, "trajectories")
    assert out.schedule is None
    assert out.t_final == 1.5


def test_resolve_error_paths():
    with pytest.raises(ConfigError, match="system"):
        cfg.resolve({"system": {"gamma_e": -1.0}}, "spectrum")
    with pytest.raises(ConfigError, match="schedule"):
        cfg.resolve({"schedule": {"T": -2.0}}, "fig2")
    with pytest.raises(ConfigError, match="integrator.method"):
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
    with pytest.raises(ConfigError, match="spectrum does not read formats"):
        cfg.resolve({"formats": ["csv"]}, "spectrum")
    with pytest.raises(ConfigError, match="spectrum does not read threads"):
        cfg.resolve({"threads": 2}, "spectrum")
    with pytest.raises(ConfigError, match="system.J given beside a schedule"):
        cfg.resolve({"system": {"J": 1.0}}, "trajectories")
    with pytest.raises(ConfigError, match="need ensemble.t_final"):
        cfg.resolve({"schedule": None}, "trajectories")
    with pytest.raises(ConfigError, match="config file is for experiment 'fig1'"):
        cfg.resolve({"experiment": "fig1"}, "spectrum")
    for output_dir in (5, [1], {"a": 1}):
        with pytest.raises(ConfigError, match="output_dir must be a string"):
            cfg.resolve({"output_dir": output_dir}, "spectrum")


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
