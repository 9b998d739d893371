"""Alternating A/B runs of the benchmark on two checkouts, written as one JSON.

Each pair runs `perfbench/run.py` once in the base checkout and once in the
head checkout, and the side that runs first alternates from pair to pair, so
slow drift of the machine falls on both sides alike. For every workload the
record holds each side's samples of the end-to-end metrics, their median and
quartiles, how many pairs the head won and how many tied, and whether a gain
may be claimed (`claim_met`, by `gain_rule`), and per step of the workload
the same summaries of the step's median wall time and of the peak RSS of
its children, so the record shows which step sets `peak_rss_mb`. Each
metric's medians, pair wins, ties and verdict are also printed. The record
holds the environment line the benchmark prints and, with --parity, the
dataset sha256 sets of two `scripts/parity.py run` directories.

Usage:
    python3 scripts/bench_ab.py --base BASE_ROOT --head HEAD_ROOT \\
        --workload dynamics:10 --workload transition-scan:4 \\
        --seconds 15 --seed 1 [--parity BASE_OUT HEAD_OUT] --out BENCH_<n>.json
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

# the end-to-end metrics of BENCHMARK.json, all lower-is-better
METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
# run.py's per-step lines: "step NAME wall_s: median X s, ..." (only for workloads of
# more than one step) and "child run-K-NAME: exit 0, wall X s, cpu X s, rss X MB, ..."
STEP_WALL = re.compile(r"step (\S+) wall_s: median ([0-9.]+) s")
CHILD_RSS = re.compile(r"child run-\d+-(\S+): exit 0, .*, rss ([0-9.]+) MB")


def run_benchmark(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in `root`: metrics, per-step figures, failure counts, environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(":", 1)[1]) for line in lines
               if line.startswith("environment:"))
    steps: dict[str, dict] = {}
    for line in lines:
        if match := STEP_WALL.match(line):
            steps.setdefault(match[1], {})["wall_s"] = float(match[2])
        elif match := CHILD_RSS.match(line):
            step = steps.setdefault(match[1], {})
            step["peak_rss_mb"] = max(step.get("peak_rss_mb", 0.0), float(match[2]))
    return {"metrics": {m: result["metrics"][m]["value"] for m in METRICS},
            "steps": steps, "attempted": result["attempted"], "failed": result["failed"],
            "environment": env}


def summary(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"samples": samples, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def gain_rule(base: list[float], head: list[float]) -> dict:
    """Pair wins and whether a lower-is-better gain may be claimed.

    The claim is met when the head wins at least 9 in 10 of all pairs, a tie
    counting for neither side, and its median is below the base's by more
    than the base's interquartile range.
    """
    wins = sum(y < x for x, y in zip(base, head))
    ties = sum(y == x for x, y in zip(base, head))
    b, h = summary(base), summary(head)
    return {"head_wins": wins, "ties": ties,
            "claim_met": bool(10 * wins >= 9 * len(base) and b["median"] - h["median"] > b["iqr"])}


def compare(workload: str, pairs: int, roots: dict, seconds: float, seed: int) -> dict:
    runs = {"base": [], "head": []}
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_benchmark(roots[side], workload, seconds, seed))
            m = runs[side][-1]["metrics"]
            print(f"{workload} pair {i + 1}/{pairs} {side}: wall {m['wall_s']:.3f} s, "
                  f"cpu {m['cpu_s']:.3f} s, setup {m['setup_s']:.3f} s, "
                  f"rss {m['peak_rss_mb']:.2f} MB", flush=True)
    record = {"pairs": pairs, "order": "base first in odd pairs, head first in even pairs",
              "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
              "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
              "metrics": {}}
    for m in METRICS:
        base = [r["metrics"][m] for r in runs["base"]]
        head = [r["metrics"][m] for r in runs["head"]]
        b, h = summary(base), summary(head)
        r = record["metrics"][m] = {"base": b, "head": h, **gain_rule(base, head),
                                    "median_change": h["median"] / b["median"] - 1.0}
        print(f"{workload} {m}: median {b['median']:.4g} -> {h['median']:.4g} "
              f"({100 * r['median_change']:+.1f}%), base IQR {b['iqr']:.2g}, head won "
              f"{r['head_wins']} of {pairs}, ties {r['ties']}, "
              f"claim met: {'yes' if r['claim_met'] else 'no'}", flush=True)
    record["steps"] = {
        step: {name: {side: summary([r["steps"][step][name] for r in runs[side]])
                      for side in runs}
               for name in runs["base"][0]["steps"][step]}
        for step in runs["base"][0]["steps"]}
    record["environment"] = {side: runs[side][0]["environment"] for side in runs}
    return record


def parity_hashes(out_dir: Path) -> dict:
    """{run/file: sha256} over every manifest of a parity run directory."""
    hashes = {}
    for manifest in sorted(out_dir.glob("*/*_manifest.json")):
        for entry in json.loads(manifest.read_text())["files"]:
            hashes[f"{manifest.parent.name}/{entry['name']}"] = entry["sha256"]
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, default=Path("."))
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:PAIRS, repeatable")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parity", nargs=2, type=Path, metavar=("BASE_OUT", "HEAD_OUT"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    doc = {"command": "perfbench/run.py --workload W --seed S --seconds T",
           "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for spec in args.workload:
        name, pairs = spec.split(":")
        doc["workloads"][name] = compare(name, int(pairs), roots, args.seconds, args.seed)
    if args.parity:
        doc["parity_sha256"] = {side: parity_hashes(d) for side, d in zip(("base", "head"),
                                                                          args.parity)}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
