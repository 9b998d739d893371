#!/usr/bin/env python3
"""Check that a change leaves every dataset byte-identical.

`run` executes the eight experiments at their defaults and every
configs/*.json of a checkout, one child process each with BLAS at one thread,
into OUT/default-<experiment>/ and OUT/config-<stem>/. `compare` reads the
manifests of two such directories and lists every dataset whose sha256
differs or that one side lacks; it exits 1 when there is any, or when a run
is missing on either side.

Usage:
    python3 scripts/parity.py run OUT [--checkout ROOT]
    python3 scripts/parity.py compare BASE OUT

A typical check runs a copy of the parent commit (from `git archive`) with
--checkout pointing at it, runs this tree, and compares the two.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

EXPERIMENTS = ["spectrum", "ep-map", "fig1", "fig2", "fig4", "sweeps",
               "steady-state", "trajectories"]
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _runs(checkout: Path) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments) for every default experiment and config."""
    runs = [(f"default-{name}", [name]) for name in EXPERIMENTS]
    for path in sorted((checkout / "configs").glob("*.json")):
        experiment = json.loads(path.read_text())["experiment"]
        runs.append((f"config-{path.stem}", [experiment, "--config", str(path)]))
    return runs


def run(out: Path, checkout: Path) -> int:
    checkout = checkout.resolve()
    out = out.resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
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
                problems.append(f"{run_name}/{file_name}: differs")
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
    p_cmp = sub.add_parser("compare", help="compare the dataset hashes of two run directories")
    p_cmp.add_argument("base", type=Path)
    p_cmp.add_argument("other", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out, args.checkout)
    return compare(args.base, args.other)


if __name__ == "__main__":
    sys.exit(main())
