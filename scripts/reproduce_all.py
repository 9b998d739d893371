#!/usr/bin/env python3
"""Run every experiment with its default parameters into out/<experiment>/.

Each run writes CSV datasets, a JSON summary, and a manifest with content
hashes, so two invocations of this script should produce byte-identical
datasets. Total runtime is a few minutes on a laptop.

Usage:
    python3 scripts/reproduce_all.py [--output-root out] [--only spectrum fig1 ...]
"""

import argparse
import sys
import time
from pathlib import Path

from liouvlab import cli

ALL_EXPERIMENTS = list(cli.EXPERIMENTS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-root", default="out", help="parent directory for results")
    parser.add_argument("--only", nargs="+", choices=ALL_EXPERIMENTS, default=None,
                        help="run only these experiments")
    args = parser.parse_args(argv)

    experiments = args.only or ALL_EXPERIMENTS
    root = Path(args.output_root)
    failures = []
    t_start = time.perf_counter()
    for name in experiments:
        out_dir = root / name
        print(f"=== {name} -> {out_dir}")
        code = cli.main([name, "--output-dir", str(out_dir)])
        if code != 0:
            failures.append((name, code))
    elapsed = time.perf_counter() - t_start

    print(f"\ntotal: {elapsed:.1f}s")
    if failures:
        for name, code in failures:
            print(f"FAILED: {name} (exit {code})", file=sys.stderr)
        return 1
    print(f"all {len(experiments)} experiments completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
