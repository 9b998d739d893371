"""Experiment configuration: strict JSON parsing, defaults, and overrides.

Precedence, highest first: command-line flags, then the LIOUVLAB_OUTPUT_DIR
environment variable, then the config file, then per-experiment defaults.
Unknown keys at any level are rejected so a typo in a rate name cannot
silently fall back to a default. All quantities are in 1/us and rad/us; under
`units = "mhz"` the angular inputs (couplings and detunings, not decay rates)
are multiplied by 2 pi on load.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError, LiouvlabError
from .model import DriveParams, ParameterSchedule, QuantumSystem, Rates, make_system

TOP_LEVEL_KEYS = {
    "experiment", "system", "schedule", "integrator", "ensemble", "scan",
    "output_dir", "formats", "units",
}
SYSTEM_KEYS = {"dim", "gamma_e", "gamma_phi", "gamma_f", "gamma_f_extra", "J", "Delta", "f_decay_to"}
SCHEDULE_KEYS = {"T", "direction", "J_max", "Delta_max", "gamma_e_schedule"}
INTEGRATOR_KEYS = {"dt", "store_every"}
ENSEMBLE_KEYS = {"n", "master_seed", "dt", "store_every", "t_final"}
SCAN_KEYS = {
    "J_values", "J_start", "J_stop", "J_step", "Delta", "window", "n_samples",
    "J_range", "Delta_range", "resolution", "T_values", "Delta_max_values",
    "heatmap_t_max", "heatmap_samples",
}

MAX_ENSEMBLE_N = 100_000  # far above any shipped run (the largest, the benchmark's, is 4,000)

# keys holding angular quantities (rad/us), scaled by 2 pi under units="mhz"
ANGULAR_KEYS = {
    "system": {"J", "Delta"},
    "schedule": {"J_max", "Delta_max"},
    "scan": {"J_values", "J_start", "J_stop", "J_step", "Delta", "J_range",
             "Delta_range", "Delta_max_values"},
}

SECTION_KEYS = {
    "system": SYSTEM_KEYS,
    "schedule": SCHEDULE_KEYS,
    "integrator": INTEGRATOR_KEYS,
    "ensemble": ENSEMBLE_KEYS,
    "scan": SCAN_KEYS,
}


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration."""

    experiment: str
    system: QuantumSystem
    schedule: Optional[ParameterSchedule]
    integrator_dt: float
    integrator_store_every: int
    ensemble_n: int
    master_seed: int
    ensemble_dt: float
    ensemble_store_every: int
    t_final: Optional[float]
    scan: dict
    output_dir: Path
    formats: tuple
    echo: dict = field(default_factory=dict)


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


def validate_keys(raw: dict) -> None:
    unknown = set(raw) - TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    for section, allowed in SECTION_KEYS.items():
        if section not in raw:
            continue
        body = raw[section]
        if body is None and section == "schedule":
            continue  # null schedule: constant parameters
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        bad = set(body) - allowed
        if bad:
            raise ConfigError(f"unknown keys in config section {section!r}: {sorted(bad)}")


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


_REQUIRED = object()


def number(section: str, key: str, value, default=_REQUIRED) -> Optional[float]:
    """The config value as a finite float; null gives the default, or fails if there is none."""
    if value is None and default is not _REQUIRED:
        return default
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


def integer(section: str, key: str, value, default=_REQUIRED) -> Optional[int]:
    """The config value as an int; null gives the default, or fails if there is none."""
    if value is None and default is not _REQUIRED:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return int(value)


def resolve(raw: dict, experiment: str) -> ExperimentConfig:
    """Build the typed configuration from a merged, unit-normalized dict."""
    validate_keys(raw)

    sys_raw = raw.get("system", {})
    dim = integer("system", "dim", sys_raw.get("dim"), 2)
    try:
        rates = Rates(
            gamma_e=number("system", "gamma_e", sys_raw.get("gamma_e"), 0.0),
            gamma_phi=number("system", "gamma_phi", sys_raw.get("gamma_phi"), 0.0),
            gamma_f=number("system", "gamma_f", sys_raw.get("gamma_f"), 0.0),
            gamma_f_extra=number("system", "gamma_f_extra", sys_raw.get("gamma_f_extra"), 0.0),
        )
        drive = DriveParams(
            J=number("system", "J", sys_raw.get("J"), 0.0),
            Delta=number("system", "Delta", sys_raw.get("Delta"), 0.0),
        )
        f_decay_to = sys_raw.get("f_decay_to", "e")
        system = make_system(drive, rates, dim=dim, f_decay_to=f_decay_to)
    except LiouvlabError as exc:
        raise ConfigError(f"invalid system section: {exc}") from exc

    sched_raw = raw.get("schedule")
    schedule = None
    if sched_raw is not None:
        try:
            schedule = ParameterSchedule(
                T=number("schedule", "T", sched_raw.get("T"), 2.0),
                direction=sched_raw.get("direction", "ccw"),
                J_max=number("schedule", "J_max", sched_raw.get("J_max"), 16.0),
                Delta_max=number("schedule", "Delta_max", sched_raw.get("Delta_max"), 10.0 * math.pi),
                gamma_e_schedule=sched_raw.get("gamma_e_schedule", "constant"),
            )
        except LiouvlabError as exc:
            raise ConfigError(f"invalid schedule section: {exc}") from exc

    integ_raw = raw.get("integrator", {})
    integrator_dt = number("integrator", "dt", integ_raw.get("dt"), 1e-3)
    integrator_store_every = integer("integrator", "store_every", integ_raw.get("store_every"), 1)
    if integrator_dt <= 0:
        raise ConfigError(f"integrator.dt must be positive, got {integrator_dt}")
    if integrator_store_every < 1:
        raise ConfigError(f"integrator.store_every must be >= 1, got {integrator_store_every}")

    ens_raw = raw.get("ensemble", {})
    ensemble_n = integer("ensemble", "n", ens_raw.get("n"), 1000)
    master_seed = integer("ensemble", "master_seed", ens_raw.get("master_seed"), 12345)
    ensemble_dt = number("ensemble", "dt", ens_raw.get("dt"), 5e-4)
    ensemble_store_every = integer("ensemble", "store_every", ens_raw.get("store_every"), 20)
    t_final = number("ensemble", "t_final", ens_raw.get("t_final"), None)
    if ensemble_n < 1:
        raise ConfigError(f"ensemble.n must be >= 1, got {ensemble_n}")
    if ensemble_n > MAX_ENSEMBLE_N:
        # run_ensemble builds one random stream per trajectory before it steps
        raise ConfigError(f"ensemble.n must be <= {MAX_ENSEMBLE_N}, got {ensemble_n}")
    if master_seed < 0:
        raise ConfigError(f"ensemble.master_seed must be >= 0, got {master_seed}")
    if ensemble_dt <= 0:
        raise ConfigError(f"ensemble.dt must be positive, got {ensemble_dt}")
    if ensemble_store_every < 1:
        raise ConfigError(f"ensemble.store_every must be >= 1, got {ensemble_store_every}")
    if t_final is not None and t_final <= 0:
        raise ConfigError(f"ensemble.t_final must be positive, got {t_final}")
    if t_final is not None and schedule is not None:
        raise ConfigError("ensemble.t_final needs schedule=null: a scheduled run lasts schedule.T")

    scan = dict(raw.get("scan", {}))

    output_dir = Path(raw.get("output_dir", "out"))
    formats_raw = raw.get("formats", ["csv", "json"])
    if not isinstance(formats_raw, (list, tuple)) or not formats_raw:
        raise ConfigError("formats must be a non-empty list drawn from ['csv', 'json']")
    bad = set(formats_raw) - {"csv", "json"}
    if bad:
        raise ConfigError(f"unsupported formats: {sorted(bad)}")
    formats = tuple(dict.fromkeys(formats_raw))

    echo = _echo_dict(raw)
    return ExperimentConfig(
        experiment=experiment,
        system=system,
        schedule=schedule,
        integrator_dt=integrator_dt,
        integrator_store_every=integrator_store_every,
        ensemble_n=ensemble_n,
        master_seed=master_seed,
        ensemble_dt=ensemble_dt,
        ensemble_store_every=ensemble_store_every,
        t_final=t_final,
        scan=scan,
        output_dir=output_dir,
        formats=formats,
        echo=echo,
    )


def _echo_dict(raw: dict) -> dict:
    """JSON-safe copy of the merged config for the run manifest."""
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
