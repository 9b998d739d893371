"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at its tiny size, untraced and traced, and asserts
that each run passes its checks and prints every metric of BENCHMARK.json
with its unit, and that each traced run's input-derived call counts match.
It then feeds the output checker a deliberately corrupted output, the fig1
transition table with its fitted-frequency column sign-flipped, and asserts
that the checker counts it as failed. Takes a few minutes on two cores.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import STEPS, WORKLOADS, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"


def bench_run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def assert_result(label: str, result: dict, specs: list[dict]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result['failed']} of {result['attempted']} failed")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in specs}
    if printed != wanted:
        raise AssertionError(f"{label}: metrics differ: {sorted(set(printed.items()) ^ set(wanted.items()))}")


def assert_corrupted_output_fails() -> None:
    """Sign-flip omega_fit in a real fig1 output; the checker must fail it."""
    source = next((WORK / "transition-scan").glob("run-*-transition-scan/"))
    target = WORK / "selftest-corrupt"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)
    table = target / "fig1_transition.csv"
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["omega_fit"] = repr(-float(row["omega_fit"]))
    with open(table, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)
    step = STEPS["transition-scan"]
    new, _known = judge(step, step.check(target))
    shutil.rmtree(target)
    if "omega_within_5pct_for_J_ge_0.65" not in new:
        raise AssertionError(f"corrupted fig1 output was not failed: {new}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        result, _ = bench_run(name, 0)
        assert_result(f"{name} untraced", result, bench["end_to_end"])
        print(f"ok: {name} untraced")
        if name == "transition-scan":
            assert_corrupted_output_fails()
            print("ok: corrupted transition-scan output counted as failed")
        result, stdout = bench_run(name, 1)
        assert_result(f"{name} traced", result, bench["per_layer"])
        checks = [line for line in stdout.splitlines() if line.startswith("count check")]
        if not checks or any(not line.endswith("PASS") for line in checks):
            raise AssertionError(f"{name} traced: count checks {checks}")
        print(f"ok: {name} traced, {len(checks)} count checks")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
