"""Dataset persistence: CSV/JSON writers and run manifests.

CSV numbers are pinned to 12 significant digits ("%.12g") so outputs are
byte-identical across reruns and platforms. Every command run emits a
RunManifest JSON recording the resolved configuration and a content hash of
each written file; the hashing loads OpenSSL (via hashlib) only then, at
write time.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_FLOAT_FORMAT = "%.12g"
CSV_CHUNK_ROWS = 256  # rows formatted by one % and written by one write


def _unquoted(cells):
    """The cells, after checking that none is a string that CSV would quote."""
    for cell in cells:
        if isinstance(cell, str) and any(ch in cell for ch in ',"\r\n'):
            raise ValueError(f"CSV cell {cell!r} holds a comma, quote or line break")
    return cells


def write_csv(path, header: list[str], rows) -> Path:
    """CSV with a header row, CRLF line ends and pinned float formatting.

    `rows` is a list of rows or a 2-d array. One format string is built
    from the first row: %s for a string cell and CSV_FLOAT_FORMAT for any
    other, so ints below 10**12 and bools print as their digits. It is
    repeated over chunks of up to CSV_CHUNK_ROWS rows, each formatted by one
    % and written by one write. No cell is quoted: a header or string cell
    that holds a comma, quote or line break raises ValueError, and so does a
    row whose length differs from the first row's.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_unquoted(header)) + "\r\n")
        if len(rows):
            first = rows[0].tolist() if isinstance(rows[0], np.ndarray) else rows[0]
            text = [i for i, cell in enumerate(first) if isinstance(cell, str)]
            line = ",".join("%s" if isinstance(cell, str) else CSV_FLOAT_FORMAT
                            for cell in first) + "\r\n"
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start:start + CSV_CHUNK_ROWS]
            cells = _cells(chunk, len(first))
            _unquoted([cell for i in text for cell in cells[i::len(first)]])
            fh.write((line * len(chunk)) % tuple(cells))
    return path


def _cells(chunk, width: int) -> list:
    """The cells of a chunk of rows, row after row; every row must hold `width` cells."""
    if isinstance(chunk, np.ndarray):
        return chunk.ravel().tolist()
    cells = []
    for row in chunk:
        row = row.tolist() if isinstance(row, np.ndarray) else row
        if len(row) != width:
            raise ValueError(f"CSV row {row!r} has {len(row)} cells, the first row {width}")
        cells.extend(row)
    return cells


def _jsonable(obj):
    """obj as plain JSON values; a non-finite float, which JSON cannot hold, becomes None."""
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
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def sha256_file(path) -> str:
    """Hex sha256 of the file's bytes.

    hashlib is imported here, not with the module: it maps OpenSSL's
    libcrypto, which a run then loads only when its manifest is built, after
    the experiment's arrays are freed, and not at its peak.
    """
    import hashlib

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
