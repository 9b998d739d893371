"""Experiment configuration: one schema, strict JSON parsing, and overrides.

`SCHEMA` is the one table of config keys and defaults. For each experiment
it holds the top-level keys and the sections that experiment reads, and for
each key its default; a default of None (JSON null) marks an optional key,
whose type `NULL_DEFAULT_TYPES` names. `resolve` is the one place that reads
and checks a config value. It accepts only the keys of its experiment's
entry, so a key that would be ignored is an error, not a silent no-op, and
rejects a null except where the default is null. It types every value by
its default's type, scales units, fills in the defaults and runs every
range, cross-key and cap check, so a run that starts has a valid config.

Precedence, highest first: command-line flags, then the LIOUVLAB_OUTPUT_DIR
environment variable, then the config file, then the schema's defaults. All
quantities are in 1/us and rad/us; under `units = "mhz"` the angular inputs
(couplings and detunings, not decay rates) are multiplied by 2 pi on load.
"""

import copy
import json
import math
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .analysis import MIN_FIT_SAMPLES
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
                   "gamma_f_extra": 0.0, "Delta": 0.0, "f_decay_to": "e"},
        "scan": {"J_values": None, "J_start": 0.0, "J_stop": 2.0, "J_step": 0.005},
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
# the type of each key whose default is null; every other key takes its default's type
NULL_DEFAULT_TYPES = {"experiment": str, "scan.J_values": list, "ensemble.t_final": float}
NULLABLE_SECTION = ("trajectories", "schedule")  # the one section that may be null
FIXED_DIM = {"ep-map": 2, "fig1": 2, "fig2": 2, "fig4": 3, "sweeps": 2}  # the others take 2 or 3

MAX_ENSEMBLE_N = 100_000  # far above any shipped run (the largest, the benchmark's, is 4,000)
MAX_GRID_POINTS = 10_000  # far above any shipped grid (spectrum's 401 J points, ep-map's 61^2)
MAX_TIME_STEPS = 1_000_000  # far above any shipped run (fig2's ensemble: 4,000 steps)

# keys holding angular quantities (rad/us), scaled by 2 pi under units="mhz"
ANGULAR_KEYS = {
    "system": {"J", "Delta"},
    "schedule": {"J_max", "Delta_max"},
    "scan": {"J_values", "J_start", "J_stop", "J_step", "J_range", "Delta_range",
             "Delta_max_values"},
}


class ExperimentConfig(NamedTuple):
    """Fully resolved run configuration; a section the experiment does not read is None.

    J_grid is the J scan of spectrum, fig1 and fig4: scan.J_values, or the
    grid J_start, J_start + J_step, ... up to J_stop.
    """

    experiment: str
    system: QuantumSystem
    output_dir: Path
    echo: dict
    schedule: Optional[ParameterSchedule]
    integrator_dt: Optional[float]
    integrator_store_every: Optional[int]
    ensemble_n: Optional[int]
    master_seed: Optional[int]
    ensemble_dt: Optional[float]
    ensemble_store_every: Optional[int]
    t_final: Optional[float]
    scan: Optional[dict]
    J_grid: Optional[np.ndarray]


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


def _typed(name: str, kind: type, value, scale: float = 1.0):
    """The value of key `name` as `kind`, the type of its default; a number times `scale`.

    A str stays a str and an int an int; a float becomes a finite float,
    and a list a non-empty list of finite floats.
    """
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list of numbers, got {value!r}")
        return [_typed(name, float, v, scale) for v in value]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if kind is int:
        return value
    try:
        scaled = float(value) * scale
    except OverflowError:  # an int that no float can hold
        scaled = math.inf
    if not math.isfinite(scaled):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return scaled


def _typed_user(user: dict, experiment: str) -> dict:
    """The user's values, typed by SCHEMA[experiment] and with angular values in rad/us."""
    def typed(name, default, value, scale=1.0):
        # validate_keys took a null only where the default is null
        kind = NULL_DEFAULT_TYPES.get(name, type(default))
        return None if value is None else _typed(name, kind, value, scale)

    schema = SCHEMA[experiment]
    units = typed("units", schema["units"], user.get("units", schema["units"]))
    if units not in ("rad", "mhz"):
        raise ConfigError(f"units must be 'rad' or 'mhz', got {units!r}")
    scale = 2.0 * math.pi if units == "mhz" else 1.0
    out = {}
    for name, value in user.items():
        default = schema[name]
        if isinstance(default, dict) and value is not None:
            angular = ANGULAR_KEYS.get(name, set())
            out[name] = {key: typed(f"{name}.{key}", default[key], v,
                                    scale if key in angular else 1.0) for key, v in value.items()}
        else:
            out[name] = typed(name, default, value)
    return out


def _read_only_under_null(user: dict, values: dict, keys: tuple, beside: str) -> None:
    """Drop `keys`, the (section, key) pairs the run reads only under a null it was not given.

    A key of them that the user gave anyway is an error; the dropped keys
    stay out of the manifest's echo of the keys the run read.
    """
    given = [f"{section}.{key}" for section, key in keys
             if user.get(section, {}).get(key) is not None]
    if given:
        raise ConfigError(f"{', '.join(given)} given beside {beside}")
    for section, key in keys:
        del values[section][key]


def _built(section: str, build, body: dict):
    try:
        return build(**body)
    except LiouvlabError as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from exc


def _system(dim, f_decay_to="e", J=0.0, Delta=0.0, **rates) -> QuantumSystem:
    return make_system(DriveParams(J, Delta), Rates(**rates), dim=dim, f_decay_to=f_decay_to)


def _j_grid(scan: dict) -> np.ndarray:
    """scan.J_values, or the grid J_start, J_start + J_step, ... up to J_stop; all >= 0."""
    if scan["J_values"] is not None:
        grid = np.asarray(scan["J_values"])
    else:
        start, stop, step = scan["J_start"], scan["J_stop"], scan["J_step"]
        if step <= 0.0 or stop < start:
            raise ConfigError("scan needs J_values or J_start <= J_stop with J_step > 0")
        # the grid's length is the ceiling of this; check it before allocating
        if not (stop - start) / step + 0.5 <= MAX_GRID_POINTS:
            raise ConfigError(
                f"scan J_start/J_stop/J_step give more than {MAX_GRID_POINTS} points")
        grid = np.arange(start, stop + 0.5 * step, step)
    if len(grid) > MAX_GRID_POINTS:
        raise ConfigError(f"scan.J_values has more than {MAX_GRID_POINTS} points")
    if len(grid) == 0:
        raise ConfigError("empty J grid")
    if np.any(grid < 0.0):
        raise ConfigError(f"scan J values must be >= 0, got {grid.min()}")
    return grid


def _check_fit_scan(scan: dict, n_J: int) -> None:
    """The sample counts and times of fig1 and fig4.

    Each J stack is integrated in one call that stores every J point's state
    at every sample, so J points times the larger of heatmap_samples and
    n_samples is capped at MAX_TIME_STEPS. An n_samples below
    MIN_FIT_SAMPLES, the fewest a fit takes, is an error, not a run in
    which every fit fails.
    """
    t_max, samples = scan["heatmap_t_max"], scan["heatmap_samples"]
    window, n_samples = scan["window"], scan["n_samples"]
    if t_max <= 0.0 or window <= 0.0:
        raise ConfigError(
            f"scan.heatmap_t_max and scan.window must be > 0, got {t_max} and {window}")
    if not (1 <= samples <= MAX_TIME_STEPS and 1 <= n_samples <= MAX_TIME_STEPS):
        raise ConfigError(
            f"scan.heatmap_samples and scan.n_samples must be between 1 and {MAX_TIME_STEPS}, "
            f"got {samples} and {n_samples}")
    if n_samples < MIN_FIT_SAMPLES:
        raise ConfigError(f"scan.n_samples must be at least {MIN_FIT_SAMPLES}, "
                          f"the fewest samples a fit takes, got {n_samples}")
    if n_J * max(samples, n_samples) > MAX_TIME_STEPS:
        raise ConfigError(
            f"{n_J} J points x {max(samples, n_samples)} samples (scan.heatmap_samples="
            f"{samples}, scan.n_samples={n_samples}) give more than {MAX_TIME_STEPS} stored states")


def _check_ep_map(scan: dict) -> None:
    """Two increasing (or equal) ranges, J >= 0, and at most MAX_GRID_POINTS grid points.

    A range with equal endpoints contributes one row or column.
    """
    n_points = 1
    for key in ("J_range", "Delta_range"):
        if len(scan[key]) != 2:
            raise ConfigError(f"scan.{key} must be two numbers, got {scan[key]!r}")
        lo, hi = scan[key]
        if hi < lo:
            raise ConfigError(f"scan.{key} must be increasing or equal, got {scan[key]!r}")
        n_points *= scan["resolution"] if hi > lo else 1
    if scan["J_range"][0] < 0.0:
        raise ConfigError(f"scan.J_range must be >= 0, got {scan['J_range']!r}")
    if scan["resolution"] < 1:
        raise ConfigError(f"scan.resolution must be an integer >= 1, got {scan['resolution']!r}")
    if n_points > MAX_GRID_POINTS:
        raise ConfigError(
            f"scan.resolution={scan['resolution']} gives more than {MAX_GRID_POINTS} grid points")


def _check_steps(values: dict) -> None:
    """Ensemble sizes and seeds, positive steps, and at most MAX_TIME_STEPS steps per run.

    A run lasts schedule.T, or ensemble.t_final without a schedule; in
    sweeps, the longest of schedule.T and scan.T_values.
    """
    ensemble = values.get("ensemble", {})
    if ensemble and not 1 <= ensemble["n"] <= MAX_ENSEMBLE_N:
        # run_ensemble builds one random stream per trajectory before it steps
        raise ConfigError(f"ensemble.n must be between 1 and {MAX_ENSEMBLE_N}, got {ensemble['n']}")
    if ensemble and ensemble["master_seed"] < 0:
        raise ConfigError(f"ensemble.master_seed must be >= 0, got {ensemble['master_seed']}")
    T_values = values.get("scan", {}).get("T_values", [])
    if min(T_values, default=1.0) <= 0.0:
        raise ConfigError(f"scan.T_values must be > 0, got {min(T_values)}")
    if values.get("schedule") is not None:
        total = max([values["schedule"]["T"], *T_values])
    else:
        total = ensemble.get("t_final")
        if total is not None and total <= 0.0:
            raise ConfigError(f"ensemble.t_final must be positive, got {total}")
    for section in ("integrator", "ensemble"):
        if section not in values:
            continue
        dt, store_every = values[section]["dt"], values[section]["store_every"]
        if dt <= 0.0:
            raise ConfigError(f"{section}.dt must be positive, got {dt}")
        if store_every < 1:
            raise ConfigError(f"{section}.store_every must be >= 1, got {store_every}")
        if not total / dt <= MAX_TIME_STEPS:
            raise ConfigError(f"{section}.dt={dt!r} over a duration of {total!r} gives "
                              f"more than {MAX_TIME_STEPS} steps")


def resolve(user: dict, experiment: str) -> ExperimentConfig:
    """The typed and checked configuration of `experiment` from the user's config.

    `user` is the config file with the overrides merged in, in its own
    units. Its keys are checked against SCHEMA[experiment] before any value
    is read; then each value is typed by its default and its angular values
    scaled to rad/us, the schema's defaults are filled in, only the sections
    the experiment reads are built, and every range, cross-key and cap
    check runs.
    """
    named = user.get("experiment")
    if named is not None and named != experiment:
        raise ConfigError(
            f"config file is for experiment {named!r}, but {experiment!r} was requested")
    validate_keys(user, experiment)
    values = deep_merge(copy.deepcopy(SCHEMA[experiment]), _typed_user(user, experiment))
    scan = values.get("scan", {})
    # trajectories follow a schedule for schedule.T, or a constant drive for ensemble.t_final
    if experiment == "trajectories" and values["schedule"] is not None:
        _read_only_under_null(
            user, values, (("system", "J"), ("system", "Delta"), ("ensemble", "t_final")),
            "a schedule: these are read only under schedule=null, and a scheduled run "
            "follows its loop for schedule.T")
    elif experiment == "trajectories" and values["ensemble"]["t_final"] is None:
        raise ConfigError("constant-parameter trajectories (schedule=null) need ensemble.t_final")
    if scan.get("J_values") is not None:
        _read_only_under_null(
            user, values, (("scan", "J_start"), ("scan", "J_stop"), ("scan", "J_step")),
            "scan.J_values: these are read only under scan.J_values=null")

    system = _built("system", _system, values["system"])
    if FIXED_DIM.get(experiment, system.dim) != system.dim:
        raise ConfigError(f"{experiment} needs system.dim={FIXED_DIM[experiment]}, "
                          f"got {system.dim}")
    schedule = values.get("schedule")
    if schedule is not None:
        schedule = _built("schedule", ParameterSchedule, schedule)
    _check_steps(values)
    J_grid = _j_grid(scan) if "J_values" in scan else None
    if "window" in scan:
        _check_fit_scan(scan, len(J_grid))
    if "resolution" in scan:
        _check_ep_map(scan)
    integrator, ensemble = values.get("integrator", {}), values.get("ensemble", {})
    return ExperimentConfig(
        experiment=experiment,
        system=system,
        output_dir=Path(values["output_dir"]),
        # each key the run reads, in rad/us
        echo=_echo_dict({k: v for k, v in values.items() if k not in ("experiment", "units")}),
        schedule=schedule,
        integrator_dt=integrator.get("dt"),
        integrator_store_every=integrator.get("store_every"),
        ensemble_n=ensemble.get("n"),
        master_seed=ensemble.get("master_seed"),
        ensemble_dt=ensemble.get("dt"),
        ensemble_store_every=ensemble.get("store_every"),
        t_final=ensemble.get("t_final"),
        scan=values.get("scan"),
        J_grid=J_grid,
    )


def _echo_dict(raw: dict) -> dict:
    """A deep copy of the typed config for the run manifest."""
    return json.loads(json.dumps(raw))


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
