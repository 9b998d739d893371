"""Benchmark of the liouvlab CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run it from the root of a checkout; it runs the package from ``src`` there.
A workload is a round of one or more ``liouvlab`` experiments, each run as a
child process, one at a time (see ``workloads.py`` and README.md). A run

1. spawns a few set-up-only children, which stop when the experiment
   function is entered, to sample ``setup_s``;
2. runs full rounds back to back for about ``--seconds`` seconds (at least
   one), and checks each child's outputs and dataset hashes;
3. with ``--trace 1``, runs instead three phases, each once through the
   steps of the round: children with the outside-in tracer, full children,
   and full children with the BLAS thread count left at its default. It
   reports per-layer metrics from them instead of the end-to-end ones. A
   phase that would not end by the time limit is skipped, and its metrics
   read 0.

The children run with BLAS limited to one thread (``BLAS_ONE_THREAD``): on a
shared two-core box, OpenBLAS threads that spin on 4x4 matrices make the
timings depend on what else the host runs. The cost of the default thread
count stays visible in the ``blas_default.*`` per-layer metrics.

Only the ``mcwf-ensemble`` step is stochastic; ``--seed`` is its master seed.
The other experiments are deterministic, so the seed does not change their
inputs. ``--tiny`` shrinks every step for the self-test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The metric names and
units come from BENCHMARK.json at the checkout root. Exit code 2, without a
result line, means the checkout holds no liouvlab package.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracer import combine
from workloads import STEPS, WORKLOADS, Step, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
SETUP_SAMPLES = 5
# every run must end within 180 s; children still running after this are killed
TIME_LIMIT_S = 165.0
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Child:
    # the child.py mode, or "blas-default" for a run at the default BLAS threads
    mode: str
    step: Step
    out_dir: Path
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    load: tuple
    # CPU time stolen by the hypervisor while the child ran, all CPUs
    steal_s: float
    # spawn to experiment entry; None when the child never got there
    setup_s: Optional[float]
    report: dict


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def steal_seconds() -> float:
    """Steal time of all CPUs since boot, from the aggregate line of /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def child_env(blas_default: bool) -> dict:
    """The caller's environment, without liouvlab's own overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LIOUVLAB_")}
    if not blas_default:
        env.update(BLAS_ONE_THREAD)
    return env


def host_environment() -> dict:
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spawn(mode: str, step: Step, cli_args: list[str], out_dir: Path, run_id: str,
          deadline: float) -> Child:
    blas_default = mode == "blas-default"
    report_path = out_dir.with_suffix(".json")
    cmd = [sys.executable, str(CHILD), "run" if blas_default else mode, str(report_path),
           run_id, "--", *cli_args, "--output-dir", str(out_dir)]
    env = child_env(blas_default)
    load_before, steal_before = loadavg(), steal_seconds()
    with open(out_dir.with_suffix(".log"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if report_path.is_file():
        with open(report_path) as fh:
            report = json.load(fh)
        report_path.unlink()
    setup = report["entered"] - t0 if "entered" in report else None
    return Child(mode, step, out_dir, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, (load_before, loadavg()),
                 steal_seconds() - steal_before, setup, report)


def dataset_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every dataset; manifests carry a timestamp and are skipped."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and not p.name.endswith("_manifest.json")
    }


def summarize(name: str, unit: str, values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n == 0:
        return f"{name}: no samples"
    text = f"{name}: median {statistics.median(values):.4f} {unit}, n={n}"
    if n >= 11:
        ordered = sorted(values)
        pct = 100.0 * (n - 10) / n
        return text + f", p{pct:.0f} {ordered[n - 11]:.4f} {unit}"
    return text + ", no tail percentile (needs >= 11 samples)"


def log_tail(child: Child, lines: int = 5) -> str:
    text = child.out_dir.with_suffix(".log").read_text().strip().splitlines()
    return " | ".join(text[-lines:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "liouvlab" / "cli.py").is_file():
        print(f"perfbench: no liouvlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    steps = [STEPS[name] for name in WORKLOADS[args.workload]]
    cli_args = {step.name: [step.experiment, *step.args(args.seed, args.tiny)] for step in steps}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}{', tiny' if args.tiny else ''}")
    for step in steps:
        print(f"step {step.name}: liouvlab {' '.join(cli_args[step.name])}")
    load_start = loadavg()

    def run_child(mode: str, step: Step) -> Child:
        k = len(children)
        child = spawn(mode, step, cli_args[step.name], work / f"{mode}-{k}-{step.name}",
                      f"{args.workload}-{args.seed}-{mode}-{k}-{os.getpid()}", deadline)
        children.append(child)
        return child

    children: list[Child] = []
    rounds: list[list[Child]] = []
    if args.trace:
        for mode in ("trace", "run", "blas-default"):
            # an untraced phase takes about as long as the traced one, or less
            estimate = 1.2 * sum(c.wall_s for c in children if c.mode == "trace")
            if time.monotonic() + estimate > deadline:
                print(f"phase {mode} skipped: it would not end by the time limit")
                break
            if any(run_child(mode, step).exit_code != 0 for step in steps):
                break
    else:
        for k in range(SETUP_SAMPLES):
            run_child("setup", steps[k % len(steps)])
        measured = time.monotonic()
        while True:
            rounds.append([run_child("run", step) for step in steps])
            typical = statistics.median(sum(c.wall_s for c in r) for r in rounds)
            now = time.monotonic()
            # the measured time ends within half a round of --seconds
            if (any(c.exit_code != 0 for c in rounds[-1])
                    or now - measured + typical / 2 > args.seconds or now + typical > deadline):
                break

    # -- correctness -------------------------------------------------------
    failed = 0
    references: dict[str, dict] = {}
    known_still: set[str] = set()
    for c in children:
        line = (f"child {c.out_dir.name}: exit {c.exit_code}, wall {c.wall_s:.3f} s, "
                f"cpu {c.cpu_s:.3f} s, rss {c.rss_mb:.1f} MB, "
                f"load {c.load[0][0]:.2f}->{c.load[1][0]:.2f}, steal {c.steal_s:.2f} s")
        if c.setup_s is not None:
            line += f", setup {c.setup_s:.3f} s"
        print(line)
        if c.exit_code != 0 or c.setup_s is None:
            failed += 1
            print(f"  FAILED: exit {c.exit_code}: {log_tail(c)}")
            continue
        if c.mode == "setup":
            continue
        try:
            clauses = c.step.check(c.out_dir)
        except (OSError, KeyError, ValueError) as exc:
            failed += 1
            print(f"  FAILED: outputs unreadable: {type(exc).__name__}: {exc}")
            continue
        new, known = judge(c.step, clauses)
        known_still.update(f"{c.step.name}/{name}" for name in known)
        hashes = dataset_hashes(c.out_dir)
        reference = references.get(c.step.name)
        if c.mode == "blas-default" and reference is not None:
            # another BLAS thread count may round differently, so hashes may differ
            print(f"  datasets {'match' if hashes == reference else 'differ from'} "
                  "the one-thread runs")
            hashes = reference
        if reference is None:
            reference = references[c.step.name] = hashes
            for name, (ok, detail) in clauses.items():
                tag = "PASS" if ok else ("FAIL (known)" if name in known else "FAIL")
                print(f"  check {name}: {tag} ({detail})")
            for name in sorted(c.step.known_failures - set(known)):
                print(f"  known failure {name} now passes")
            for name, digest in hashes.items():
                print(f"  sha256 {digest}  {name}")
        if new:
            failed += 1
            print(f"  FAILED checks: {', '.join(new)}")
        elif hashes != reference:
            failed += 1
            moved = sorted(set(hashes.items()) ^ set(reference.items()))
            print(f"  FAILED: datasets differ from the first run: {moved}")

    print(f"known_failures: {len(known_still)} {sorted(known_still)}")
    print(f"failed_ratio: {failed}/{len(children)} = {failed / len(children):.3f}")
    env = host_environment()
    for c in children:
        if "environment" in c.report:
            env.update(c.report["environment"])
            break
    env["child_blas_env"] = BLAS_ONE_THREAD
    env["loadavg_start"], env["loadavg_end"] = load_start, loadavg()
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    # -- metrics -----------------------------------------------------------
    metrics = {}
    if not args.trace:
        whole = [r for r in rounds if all(c.exit_code == 0 for c in r)]
        samples = {
            "wall_s": [sum(c.wall_s for c in r) for r in whole],
            "setup_s": [c.setup_s for c in children if c.setup_s is not None],
            "cpu_s": [sum(c.cpu_s for c in r) for r in whole],
            "peak_rss_mb": [max(c.rss_mb for c in r) for r in whole],
        }
        if len(steps) > 1:
            for step in steps:
                walls = [c.wall_s for r in whole for c in r if c.step is step]
                print(summarize(f"step {step.name} wall_s", "s", walls))
        for spec in bench["end_to_end"]:
            values = samples[spec["name"]]
            print(summarize(spec["name"], spec["unit"], values))
            metrics[spec["name"]] = {
                "value": statistics.median(values) if values else 0.0, "unit": spec["unit"]}
    else:
        layers, imports = [], []
        of_mode = {mode: [c for c in children if c.mode == mode and c.exit_code == 0]
                   for mode in ("trace", "run", "blas-default")}
        for step in steps:
            traced = next((c for c in of_mode["trace"] if c.step is step), None)
            if traced is None or "layer" not in traced.report:
                continue
            layers.append(traced.report["layer"])
            imports.append(traced.report["import_s"])
            print(f"trace {step.name}: {traced.report['n_spans']} spans, "
                  f"{traced.report['patched_sites']} lookup sites patched")
            for name, expected in step.expected_counts(args.tiny).items():
                got = layers[-1].get(name, 0)
                print(f"count check {step.name} {name}: {got} against {expected} "
                      f"from the inputs: {'PASS' if got == expected else 'FAIL'}")
        layer = combine(layers)
        if imports:
            layer["cli.import_s"] = statistics.median(imports)
        # sums over the round, only when every step has the child
        if len(of_mode["trace"]) == len(of_mode["run"]) == len(steps):
            layer["cli.trace_overhead_s"] = (
                sum(c.wall_s for c in of_mode["trace"]) - sum(c.wall_s for c in of_mode["run"]))
        if len(of_mode["blas-default"]) == len(steps):
            layer["blas_default.wall_s"] = sum(c.wall_s for c in of_mode["blas-default"])
            layer["blas_default.cpu_s"] = sum(c.cpu_s for c in of_mode["blas-default"])
        for spec in bench["per_layer"]:
            metrics[spec["name"]] = {"value": layer.get(spec["name"], 0), "unit": spec["unit"]}
            print(f"{spec['name']}: {metrics[spec['name']]['value']} {spec['unit']}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
