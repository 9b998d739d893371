"""Experiment configuration: one schema, strict JSON parsing, and overrides.

`SCHEMA` is the one table of config keys and defaults. For each experiment
it holds the top-level keys and the sections that experiment reads, and for
each key its default; a default of None (JSON null) marks an optional key.
`resolve` accepts only the keys of its experiment's entry, so a key that
would be ignored is an error, not a silent no-op; it rejects a null except
where the default is null, fills in the defaults, and builds only the
sections the experiment reads.

Precedence, highest first: command-line flags, then the LIOUVLAB_OUTPUT_DIR
environment variable, then the config file, then the schema's defaults. All
quantities are in 1/us and rad/us; under `units = "mhz"` the angular inputs
(couplings and detunings, not decay rates) are multiplied by 2 pi on load.
"""

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ConfigError, LiouvlabError
from .model import DriveParams, ParameterSchedule, QuantumSystem, Rates, make_system

_TOP_LEVEL = {"experiment": None, "units": "rad", "output_dir": "out"}
_LOOP = {"T": 2.0, "direction": "ccw", "J_max": 16.0, "Delta_max": 10.0 * math.pi,
         "gamma_e_schedule": "constant"}
_INTEGRATOR = {"dt": 1e-3, "store_every": 1}
_ENSEMBLE = {"n": 1000, "master_seed": 12345, "dt": 5e-4, "store_every": 20}
_FIT_SCAN = {"window": 10.0, "n_samples": 500, "heatmap_t_max": 3.0, "heatmap_samples": 301}

# experiment -> top-level key or section -> default; a section's default is
# the dict of its keys' defaults
SCHEMA: dict[str, dict] = {
    "spectrum": {
        **_TOP_LEVEL,
        "system": {"dim": 2, "gamma_e": 4.4, "gamma_phi": 0.1, "gamma_f": 0.0,
                   "gamma_f_extra": 0.0, "f_decay_to": "e"},
        "scan": {"J_values": None, "J_start": 0.0, "J_stop": 2.0, "J_step": 0.005, "Delta": 0.0},
    },
    "ep-map": {
        **_TOP_LEVEL,
        "system": {"dim": 2, "gamma_e": 4.5, "gamma_phi": 0.0},
        "scan": {"J_range": [0.05, 1.1], "Delta_range": [-1.1, 1.1], "resolution": 45},
    },
    "fig1": {
        **_TOP_LEVEL,
        "system": {"dim": 2, "gamma_e": 4.4, "gamma_phi": 0.1, "Delta": 0.0},
        "scan": {"J_values": None, "J_start": 0.1, "J_stop": 1.8, "J_step": 0.05, **_FIT_SCAN},
    },
    "fig2": {
        **_TOP_LEVEL,
        "system": {"dim": 2, "gamma_e": 4.6, "gamma_phi": 0.2},
        "schedule": _LOOP,
        "integrator": _INTEGRATOR,
        "ensemble": _ENSEMBLE,
    },
    "fig4": {
        **_TOP_LEVEL,
        "system": {"dim": 3, "gamma_e": 4.2, "gamma_phi": 0.2, "Delta": 0.0, "gamma_f": 0.3,
                   "gamma_f_extra": 0.75, "f_decay_to": "e"},
        "scan": {"J_values": None, "J_start": 0.2, "J_stop": 1.8, "J_step": 0.05, **_FIT_SCAN},
    },
    "sweeps": {
        **_TOP_LEVEL,
        "system": {"dim": 2, "gamma_e": 4.6, "gamma_phi": 0.2},
        # each loop runs in both directions, so direction is not read
        "schedule": {key: value for key, value in _LOOP.items() if key != "direction"},
        "integrator": _INTEGRATOR,
        "scan": {
            "T_values": [0.25 + 0.125 * i for i in range(19)],
            "Delta_max_values": [2.0 * math.pi * (0.5 + 0.5 * i) for i in range(16)],
        },
    },
    "steady-state": {
        **_TOP_LEVEL,
        "system": {"dim": 2, "gamma_e": 4.4, "gamma_phi": 0.1, "gamma_f": 0.0,
                   "gamma_f_extra": 0.0, "J": 1.8, "Delta": 0.0, "f_decay_to": "e"},
    },
    "trajectories": {
        **_TOP_LEVEL,
        # J, Delta and t_final are read only under "schedule": null
        "system": {"dim": 2, "gamma_e": 4.6, "gamma_phi": 0.2, "gamma_f": 0.0,
                   "gamma_f_extra": 0.0, "J": 0.0, "Delta": 0.0, "f_decay_to": "e"},
        "schedule": _LOOP,
        "ensemble": {**_ENSEMBLE, "t_final": None},
    },
}
NULLABLE_SECTION = ("trajectories", "schedule")  # the one section that may be null

MAX_ENSEMBLE_N = 100_000  # far above any shipped run (the largest, the benchmark's, is 4,000)

# keys holding angular quantities (rad/us), scaled by 2 pi under units="mhz"
ANGULAR_KEYS = {
    "system": {"J", "Delta"},
    "schedule": {"J_max", "Delta_max"},
    "scan": {"J_values", "J_start", "J_stop", "J_step", "Delta", "J_range",
             "Delta_range", "Delta_max_values"},
}


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration; a section the experiment does not read is None."""

    experiment: str
    system: QuantumSystem
    output_dir: Path
    echo: dict
    schedule: Optional[ParameterSchedule] = None
    integrator_dt: Optional[float] = None
    integrator_store_every: Optional[int] = None
    ensemble_n: Optional[int] = None
    master_seed: Optional[int] = None
    ensemble_dt: Optional[float] = None
    ensemble_store_every: Optional[int] = None
    t_final: Optional[float] = None
    scan: Optional[dict] = None


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object at top level")
    return doc


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, nested dicts merge key-wise."""
    out = dict(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def validate_keys(user: dict, experiment: str) -> None:
    """Reject each key that `experiment` does not read, then each null where the default is not null."""
    schema = SCHEMA[experiment]
    unread, nulls = [], []
    for name, value in user.items():
        if name not in schema:
            unread += [f"{name}.{key}" for key in value] if isinstance(value, dict) and value else [name]
            continue
        default = schema[name]
        if isinstance(default, dict) and isinstance(value, dict):
            unread += [f"{name}.{key}" for key in value if key not in default]
            nulls += [f"{name}.{key}" for key, v in value.items()
                      if v is None and default.get(key) is not None]
        elif isinstance(default, dict) and value is not None:
            raise ConfigError(f"config section {name!r} must be an object, got {value!r}")
        elif value is None and default is not None and (experiment, name) != NULLABLE_SECTION:
            nulls.append(name)
    if unread:
        raise ConfigError(f"{experiment} does not read {', '.join(unread)}")
    if nulls:
        raise ConfigError(f"{', '.join(nulls)} may not be null: only a key whose default is null may be")


def _scale_angular(section: str, key: str, value, factor: float):
    if isinstance(value, list):
        return [_scale_angular(section, key, v, factor) for v in value]
    return number(section, key, value) * factor


def apply_units(raw: dict, units: str) -> dict:
    """Scale angular inputs into rad/us when they were given in MHz."""
    if units == "rad":
        return raw
    if units != "mhz":
        raise ConfigError(f"units must be 'rad' or 'mhz', got {units!r}")
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}
    for section, keys in ANGULAR_KEYS.items():
        body = out.get(section)
        if not isinstance(body, dict):
            continue
        for key in keys & set(body):
            body[key] = _scale_angular(section, key, body[key], 2.0 * math.pi)
    return out


def number(section: str, key: str, value) -> float:
    """The config value as a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int that no float can hold
        finite = False
    if not finite:
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return float(value)


def numbers(section: str, key: str, value) -> list[float]:
    """The config value as a non-empty list of finite floats."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{section}.{key} must be a non-empty list of numbers, got {value!r}")
    return [number(section, key, v) for v in value]


def integer(section: str, key: str, value) -> int:
    """The config value as an int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return int(value)


def _count(section: str, key: str, value, low: int) -> int:
    """The config value as an int >= low."""
    value = integer(section, key, value)
    if value < low:
        raise ConfigError(f"{section}.{key} must be >= {low}, got {value}")
    return value


def _positive(section: str, key: str, value) -> float:
    value = number(section, key, value)
    if value <= 0:
        raise ConfigError(f"{section}.{key} must be positive, got {value}")
    return value


def _system(body: dict) -> QuantumSystem:
    """The system of a system section; a key the section lacks keeps the model's default."""
    def given(*keys):
        return {key: number("system", key, body[key]) for key in keys if key in body}

    target = {"f_decay_to": body["f_decay_to"]} if "f_decay_to" in body else {}
    try:
        return make_system(
            DriveParams(**given("J", "Delta")),
            Rates(**given("gamma_e", "gamma_phi", "gamma_f", "gamma_f_extra")),
            dim=integer("system", "dim", body["dim"]),
            **target,
        )
    except LiouvlabError as exc:
        raise ConfigError(f"invalid system section: {exc}") from exc


def _schedule(body: dict) -> ParameterSchedule:
    try:
        return ParameterSchedule(**{
            key: number("schedule", key, value) if key in ("T", "J_max", "Delta_max") else value
            for key, value in body.items()})
    except LiouvlabError as exc:
        raise ConfigError(f"invalid schedule section: {exc}") from exc


def _scheduled_or_constant(user: dict, values: dict) -> None:
    """Trajectories follow a schedule for schedule.T, or a constant drive for ensemble.t_final.

    A drive or duration given beside a schedule is an error; so is a
    constant run with no duration. Beside a schedule, system.J,
    system.Delta and ensemble.t_final are dropped from `values`, since the
    run does not read them.
    """
    system, ensemble = values["system"], values["ensemble"]
    if values["schedule"] is None:
        if ensemble["t_final"] is None:
            raise ConfigError("constant-parameter trajectories (schedule=null) need ensemble.t_final")
        return
    given = [f"system.{key}" for key in ("J", "Delta") if key in user.get("system", {})]
    given += ["ensemble.t_final"] if ensemble["t_final"] is not None else []
    if given:
        raise ConfigError(f"{', '.join(given)} given beside a schedule: these are read only "
                          "under schedule=null, and a scheduled run follows its loop for schedule.T")
    del system["J"], system["Delta"], ensemble["t_final"]


def resolve(user: dict, experiment: str) -> ExperimentConfig:
    """The typed configuration of `experiment` from the user's config.

    `user` is the config file with the overrides merged in, in its own
    units. Its keys are checked against SCHEMA[experiment] before any value
    is read; then its angular values are scaled to rad/us and the schema's
    defaults filled in, and only the sections the experiment reads are
    built.
    """
    named = user.get("experiment")
    if named is not None and named != experiment:
        raise ConfigError(
            f"config file is for experiment {named!r}, but {experiment!r} was requested")
    validate_keys(user, experiment)
    schema = SCHEMA[experiment]
    values = deep_merge(copy.deepcopy(schema),
                        apply_units(user, user.get("units", schema["units"])))
    if not isinstance(values["output_dir"], str):
        raise ConfigError(f"output_dir must be a string, got {values['output_dir']!r}")
    if experiment == "trajectories":
        _scheduled_or_constant(user, values)

    cfg = ExperimentConfig(
        experiment=experiment,
        system=_system(values["system"]),
        output_dir=Path(values["output_dir"]),
        # each key the run reads, in rad/us
        echo=_echo_dict({k: v for k, v in values.items() if k not in ("experiment", "units")}),
        scan=values.get("scan"),
    )
    if values.get("schedule") is not None:
        cfg.schedule = _schedule(values["schedule"])
    if "integrator" in values:
        body = values["integrator"]
        cfg.integrator_dt = _positive("integrator", "dt", body["dt"])
        cfg.integrator_store_every = _count("integrator", "store_every", body["store_every"], 1)
    if "ensemble" in values:
        body = values["ensemble"]
        cfg.ensemble_n = _count("ensemble", "n", body["n"], 1)
        if cfg.ensemble_n > MAX_ENSEMBLE_N:
            # run_ensemble builds one random stream per trajectory before it steps
            raise ConfigError(f"ensemble.n must be <= {MAX_ENSEMBLE_N}, got {cfg.ensemble_n}")
        cfg.master_seed = _count("ensemble", "master_seed", body["master_seed"], 0)
        cfg.ensemble_dt = _positive("ensemble", "dt", body["dt"])
        cfg.ensemble_store_every = _count("ensemble", "store_every", body["store_every"], 1)
        if body.get("t_final") is not None:
            cfg.t_final = _positive("ensemble", "t_final", body["t_final"])
    return cfg


def _echo_dict(raw: dict) -> dict:
    """JSON-safe copy of the resolved config for the run manifest."""
    return json.loads(json.dumps(raw, default=str))


def parse_set_override(spec: str) -> tuple[list[str], object]:
    """Parse one --set section.key=value override.

    The value is JSON when it parses as JSON (numbers, lists, booleans),
    otherwise a bare string.
    """
    if "=" not in spec:
        raise ConfigError(f"--set expects section.key=value, got {spec!r}")
    dotted, text = spec.split("=", 1)
    path = [p for p in dotted.strip().split(".") if p]
    if not path:
        raise ConfigError(f"--set expects section.key=value, got {spec!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return path, value


def nest_override(path: list[str], value) -> dict:
    out: dict = {}
    cursor = out
    for key in path[:-1]:
        cursor[key] = {}
        cursor = cursor[key]
    cursor[path[-1]] = value
    return out
