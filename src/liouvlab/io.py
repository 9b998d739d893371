"""Dataset persistence: CSV/JSON writers and run manifests.

A table is a dict from column name, in table order, to a 1-d array or list
of its values. CSV numbers are pinned to 12 significant digits ("%.12g") so
outputs are byte-identical across reruns and platforms. Every command run
emits a manifest, a plain dict written as JSON, recording the resolved
configuration and a content hash of each written file, from CPython's
builtin SHA-256, so no run maps OpenSSL.
"""

import json
import math
import time
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


def write_csv(path, columns: dict) -> Path:
    """CSV of named columns, with a header row, CRLF line ends and pinned float formatting.

    `columns` maps each name, in table order, to a 1-d array or list of its
    values, every one of the same length (ValueError naming the first that
    differs). A column whose first value is a string prints as %s, any
    other as CSV_FLOAT_FORMAT, so ints below 10**12 and bools print as
    their digits. The table is written in chunks of up to CSV_CHUNK_ROWS
    rows, each built from the columns' slices (an object array when a
    column holds text, a float array otherwise), formatted by one % and
    written by one write. No cell is quoted: a name or string cell that
    holds a comma, quote or line break raises ValueError.
    """
    path = Path(path)
    names, values = _unquoted(list(columns)), list(columns.values())
    n_rows = len(values[0]) if values else 0
    for name, column in columns.items():
        if len(column) != n_rows:
            raise ValueError(f"CSV column {name!r} has {len(column)} values, "
                             f"column {names[0]!r} {n_rows}")
    text = [n_rows > 0 and isinstance(column[0], str) for column in values]
    line = ",".join("%s" if is_text else CSV_FLOAT_FORMAT for is_text in text) + "\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, n_rows)
            chunk = np.empty((stop - start, len(values)), dtype=object if any(text) else float)
            for j, column in enumerate(values):
                chunk[:, j] = column[start:stop]
                if text[j]:
                    _unquoted(chunk[:, j])
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
    return path


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
    """Hex sha256 of the file's bytes, read in 64 KiB chunks.

    The digest comes from CPython's builtin SHA-256 (_sha2 from 3.12,
    _sha256 before), the constructor hashlib itself falls back on, so the
    digest is hashlib's; hashlib would map OpenSSL's libcrypto, which
    raised every default run's peak RSS by up to 3.6 MB. On a 2-core VM it
    hashes at about 4 ms/MB against OpenSSL's 0.8 but imports in 0.3 ms
    against 3, so it costs less below about 1 MB of outputs; no default
    run writes 0.5 MB.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:  # a CPython built without its own hashes
            from hashlib import sha256

    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    experiment: str,
    artifact_version: str,
    config_echo: dict,
    output_files: list,
    started: float,
) -> dict:
    """Reproducibility record: the config echo and the name, sha256 and size of every output.

    The hashes are stable across reruns with the same config and seeds;
    timestamp_utc and duration_s naturally differ.
    """
    files = [{"name": Path(p).name, "sha256": sha256_file(p), "bytes": Path(p).stat().st_size}
             for p in output_files]
    return {
        "experiment": experiment,
        "artifact_version": artifact_version,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "duration_s": round(time.monotonic() - started, 3),
        "config": config_echo,
        "files": files,
    }
