#!/usr/bin/env python3
"""Check that a change leaves every dataset byte-identical.

`run` executes the eight experiments at their defaults and every
configs/*.json of a checkout, one child process each with BLAS at
--blas-threads threads (default 1), into OUT/default-<experiment>/ and
OUT/config-<stem>/. `compare` reads the
manifests of two such directories and lists every dataset whose sha256
differs or that one side lacks; it exits 1 when there is any, or when a run
is missing on either side. For a CSV or JSON dataset that differs it also
prints how many cells (JSON: leaf values) differ, which CSV columns one side
adds or lacks, and the largest absolute difference between two numbers, with
its column or key. CSV cells are matched by row and column name, so a column
added in the middle of a table is not compared against its neighbours.

Usage:
    python3 scripts/parity.py run OUT [--checkout ROOT] [--blas-threads N]
    python3 scripts/parity.py compare BASE OUT

A typical check runs a copy of the parent commit (from `git archive`) with
--checkout pointing at it, runs this tree, and compares the two; runs at
--blas-threads 1 and 2 check that the datasets do not depend on the BLAS
thread count.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

EXPERIMENTS = ["spectrum", "ep-map", "fig1", "fig2", "fig4", "sweeps",
               "steady-state", "trajectories"]
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _runs(checkout: Path) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments) for every default experiment and config."""
    runs = [(f"default-{name}", [name]) for name in EXPERIMENTS]
    for path in sorted((checkout / "configs").glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        runs.append((f"config-{path.stem}", [experiment, "--config", str(path)]))
    return runs


def run(out: Path, checkout: Path, blas_threads: int = 1) -> int:
    checkout = checkout.resolve()
    out = out.resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               **{name: str(blas_threads) for name in BLAS_THREAD_VARIABLES})
    failed = []
    for name, args in _runs(checkout):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "liouvlab.cli", *args, "--output-dir", str(out / name)],
            cwd=checkout, env=env, capture_output=True, text=True)
        status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
        print(f"{name:28s} {status:8s} {time.perf_counter() - started:7.1f} s", flush=True)
        if proc.returncode != 0:
            failed.append(name)
            sys.stderr.write(proc.stderr)
    return 1 if failed else 0


def _hashes(root: Path) -> dict[str, dict[str, str]]:
    """run name -> {dataset file name: sha256} from each run's manifest."""
    out = {}
    for manifest in sorted(root.glob("*/*_manifest.json")):
        files = json.loads(manifest.read_text())["files"]
        out[manifest.parent.name] = {f["name"]: f["sha256"] for f in files}
    return out


def _leaves(obj, key: str = ""):
    """(key path, value) of every scalar in a parsed JSON document."""
    if isinstance(obj, dict):
        for name, value in obj.items():
            yield from _leaves(value, f"{key}.{name}" if key else name)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{key}[{i}]")
    else:
        yield key, obj


def _cells(path: Path) -> tuple[list[str], dict]:
    """A CSV's header ([] for JSON), and (row, column name) or key -> value of every cell."""
    if path.suffix == ".json":
        return [], dict(_leaves(json.loads(path.read_text())))
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    width = max(map(len, rows), default=0)
    names = header + [f"column {j}" for j in range(len(header), width)]
    return header, {(i, name): cell for i, row in enumerate(rows) for name, cell in zip(names, row)}


def _quantify(a: Path, b: Path) -> str:
    """', n of m cells' that differ, the columns added or removed, and
    ', largest |difference| x in column', or ''."""
    if a.suffix not in (".csv", ".json") or not (a.is_file() and b.is_file()):
        return ""
    (ha, ca), (hb, cb) = _cells(a), _cells(b)
    positions = sorted(ca.keys() | cb.keys())
    differ = [p for p in positions if ca.get(p) != cb.get(p)]
    worst, where = 0.0, None
    for p in differ:
        try:
            d = abs(float(ca[p]) - float(cb[p]))
        except (KeyError, TypeError, ValueError):
            continue
        if math.isfinite(d) and (where is None or d > worst):
            worst, where = d, p[1] if isinstance(p, tuple) else p
    text = f", {len(differ)} of {len(positions)} cells"
    for verb, names in (("added", [n for n in hb if n not in ha]),
                        ("removed", [n for n in ha if n not in hb])):
        if names:
            text += f", {verb} column{'s' if len(names) > 1 else ''} {', '.join(names)}"
    if where is not None:
        text += f", largest |difference| {worst:.2g} in {where}"
    return text


def compare(base: Path, other: Path) -> int:
    a, b = _hashes(base), _hashes(other)
    same, problems = 0, []
    for run_name in sorted(set(a) | set(b)):
        if run_name not in a or run_name not in b:
            problems.append(f"{run_name}: run missing in {base if run_name not in a else other}")
            continue
        for file_name in sorted(set(a[run_name]) | set(b[run_name])):
            ha, hb = a[run_name].get(file_name), b[run_name].get(file_name)
            if ha == hb:
                same += 1
            elif ha is None or hb is None:
                problems.append(f"{run_name}/{file_name}: missing in {base if ha is None else other}")
            else:
                detail = _quantify(base / run_name / file_name, other / run_name / file_name)
                problems.append(f"{run_name}/{file_name}: differs{detail}")
    for line in problems:
        print(f"DIFF {line}")
    print(f"{same} datasets identical, {len(problems)} differ, over {len(set(a) | set(b))} runs")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every default experiment and config")
    p_run.add_argument("out", type=Path)
    p_run.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1],
                       help="root of the liouvlab checkout to run (default: this one)")
    p_run.add_argument("--blas-threads", type=int, default=1, metavar="N",
                       help="threads for BLAS in every child (default: 1)")
    p_cmp = sub.add_parser("compare", help="compare the dataset hashes of two run directories")
    p_cmp.add_argument("base", type=Path)
    p_cmp.add_argument("other", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.blas_threads < 1:
            parser.error("--blas-threads must be at least 1")
        return run(args.out, args.checkout, args.blas_threads)
    return compare(args.base, args.other)


if __name__ == "__main__":
    sys.exit(main())
