"""Dataset persistence: CSV/JSON writers and run manifests.

CSV numbers are pinned to 12 significant digits ("%.12g") so outputs are
byte-identical across reruns and platforms. Every command run emits a
RunManifest JSON recording the resolved configuration and a content hash of
each written file.
"""

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

CSV_FLOAT_FORMAT = "%.12g"

def fmt_float(x) -> str:
    """Canonical CSV cell for a float: 12 significant digits."""
    return CSV_FLOAT_FORMAT % float(x)


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return fmt_float(x)


def write_csv(path, header: list[str], rows) -> Path:
    """RFC-4180-style CSV with a header row and pinned float formatting.

    A 2-d float ndarray is formatted a row at a time from its Python floats,
    which writes the same bytes as `_cell` on every value: no formatted float
    holds a comma, quote or line break, so no cell needs quoting. Other rows
    go through `_cell` one cell at a time.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
            line = ",".join([CSV_FLOAT_FORMAT] * rows.shape[1]) + "\r\n"
            fh.writelines(line % tuple(row.tolist()) for row in rows)
        else:
            writer.writerows([_cell(x) for x in row] for row in rows)
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record: config echo plus hashes of every output.

    File hashes are stable across reruns with the same config and seeds;
    timestamp and duration naturally differ.
    """

    experiment: str
    artifact_version: str
    timestamp_utc: str
    duration_s: float
    config: dict
    files: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "artifact_version": self.artifact_version,
            "timestamp_utc": self.timestamp_utc,
            "duration_s": self.duration_s,
            "config": self.config,
            "files": self.files,
        }


def build_manifest(
    experiment: str,
    artifact_version: str,
    config_echo: dict,
    output_files: list,
    started: float,
) -> RunManifest:
    files = [
        {
            "name": Path(p).name,
            "sha256": sha256_file(p),
            "bytes": Path(p).stat().st_size,
        }
        for p in output_files
    ]
    return RunManifest(
        experiment=experiment,
        artifact_version=artifact_version,
        timestamp_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        duration_s=round(time.monotonic() - started, 3),
        config=config_echo,
        files=files,
    )


def validate_manifest(doc: dict) -> None:
    """Check the keys and types of a manifest dict; ConfigError on mismatch."""
    if not isinstance(doc, dict):
        raise ConfigError("manifest must be a JSON object")
    for key in ("experiment", "artifact_version", "timestamp_utc", "duration_s", "config", "files"):
        if key not in doc:
            raise ConfigError(f"manifest missing required key {key!r}")
    if not isinstance(doc["experiment"], str) or not isinstance(doc["artifact_version"], str):
        raise ConfigError("manifest experiment/artifact_version must be strings")
    if not isinstance(doc["timestamp_utc"], str):
        raise ConfigError("manifest timestamp_utc must be a string")
    if not isinstance(doc["duration_s"], (int, float)):
        raise ConfigError("manifest duration_s must be a number")
    if not isinstance(doc["config"], dict):
        raise ConfigError("manifest config must be an object")
    if not isinstance(doc["files"], list):
        raise ConfigError("manifest files must be an array")
    for entry in doc["files"]:
        if not isinstance(entry, dict):
            raise ConfigError("manifest file entries must be objects")
        for key in ("name", "sha256", "bytes"):
            if key not in entry:
                raise ConfigError(f"manifest file entry missing {key!r}")
        if not isinstance(entry["name"], str) or not isinstance(entry["sha256"], str):
            raise ConfigError("manifest file name/sha256 must be strings")
        if not isinstance(entry["bytes"], int):
            raise ConfigError("manifest file bytes must be an integer")
