"""Outside-in tracer for liouvlab.

The tracer wraps the public functions of every liouvlab module, plus the
SciPy ``least_squares`` that ``analysis`` calls, without touching the package
source. A function imported by name into another module is a separate lookup
site (``build_superoperator`` lives in ``liouvillian`` but is looked up in
``dynamics``, ``analysis`` and ``cli`` too), so the wrapper replaces every
module attribute and every module-level dict value that holds the original.

Each call becomes a span ``(run_id, span_id, name, start, end, parent)``.
Parent stacks are kept per thread: the ``ep_scan`` thread pool calls
``spectrum`` from worker threads, and a single shared stack would interleave
them. A span opened on a thread with an empty stack takes the innermost open
span of the installing thread as its parent, which is the ``ep_scan`` call
that is waiting on the pool. Spans stay in memory and are written at the end.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "liouvlab"
MODULES = ("cli", "config", "model", "numerics", "liouvillian", "dynamics",
           "trajectories", "analysis", "io")


def _integrate_scheduled_counts(counts, bound, result):
    counts["dynamics.integrate_scheduled.steps"] += int(bound.arguments["n_steps"])


def _least_squares_counts(counts, bound, result):
    counts["analysis.least_squares.nfev"] += int(result.nfev)
    # status 0 means the evaluation budget ran out; > 0 is a convergence test
    counts["analysis.least_squares.budget_exhausted"] += int(result.status == 0)
    counts["analysis.least_squares.converged"] += int(result.status > 0)


def _run_ensemble_counts(counts, bound, result):
    # stored times run from 0 to n_steps * dt, whatever store_every is
    n_steps = round(float(result.times[-1]) / float(bound.arguments["dt"]))
    counts["trajectories.run_ensemble.traj_steps"] += result.n_trajectories * n_steps
    counts["trajectories.run_ensemble.jumps"] += sum(result.jump_count_histogram.values())


def _write_csv_counts(counts, bound, result):
    counts["io.write_csv.bytes"] += Path(result).stat().st_size


COUNTERS = {
    "dynamics.integrate_scheduled": _integrate_scheduled_counts,
    "analysis.least_squares": _least_squares_counts,
    "trajectories.run_ensemble": _run_ensemble_counts,
    "io.write_csv": _write_csv_counts,
}


class Tracer:
    """Records spans and counts for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home
                parent = home[-1] if home else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((tracer.run_id, span_id, name, start, end, parent))
            if counter is not None:
                counter(tracer.counts, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every public liouvlab function at every lookup site.

        Returns the number of sites patched.
        """
        modules = [sys.modules[f"{PACKAGE}.{m}"] for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self.wrap(f"{short}.{attr}", value)
        analysis = sys.modules[f"{PACKAGE}.analysis"]
        wrappers[analysis.least_squares] = self.wrap(
            "analysis.least_squares", analysis.least_squares)

        sites = 0
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    sites += 1
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            value[key] = wrappers[item]
                            sites += 1
        return sites


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate(spans: list, counts: dict) -> dict:
    """Per-function calls, total seconds and self seconds, plus counts.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children on pool threads may overlap each other, so
    the cover is an interval union rather than a sum.
    """
    children = defaultdict(list)
    for _run, _sid, _name, start, end, parent in spans:
        children[parent].append((start, end))
    out: dict = defaultdict(int)
    for _run, sid, name, start, end, _parent in spans:
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - _covered(children.get(sid, []), start, end)

    # probes: generator builds inside ep_scan beyond the grid spectra
    scans = [(s, e) for _r, _i, n, s, e, _p in spans if n == "liouvillian.ep_scan"]
    if scans:
        def inside(name):
            return sum(1 for _r, _i, n, s, _e, _p in spans
                       if n == name and any(a <= s <= b for a, b in scans))
        out["liouvillian.ep_scan.probes"] = (
            inside("liouvillian.build_superoperator") - inside("liouvillian.spectrum"))

    out.update(counts)
    return dict(out)


def combine(layers: list[dict]) -> dict:
    """Sum the aggregates of several traced children, then add the ratios."""
    out: dict = defaultdict(int)
    for layer in layers:
        for name, value in layer.items():
            out[name] += value
    starts = out.get("analysis.least_squares.calls", 0)
    out["analysis.least_squares.converged_ratio"] = (
        out.get("analysis.least_squares.converged", 0) / starts if starts else 0.0)
    return dict(out)
