"""One liouvlab CLI run, as the benchmark spawns it.

    python3 perfbench/child.py MODE REPORT RUN_ID -- EXPERIMENT [CLI ARGS...]

Runs ``liouvlab.cli.main`` on the given arguments, exactly as the
``liouvlab`` console script does, from the ``src`` tree of this checkout.
MODE is one of

- ``run``: a plain run;
- ``setup``: stop as soon as the experiment function is entered, so that the
  run measures interpreter start, ``import liouvlab.cli`` and config
  resolution only;
- ``trace``: a run with the outside-in tracer installed.

The child writes a JSON report to REPORT: the ``time.monotonic()`` reading at
which the experiment function was entered (the clock is shared with the
parent process), the import time of ``liouvlab.cli``, and in ``setup`` and
``trace`` mode the library environment; in ``trace`` mode also the per-layer
aggregate of its spans and counts. The spans themselves go to a file beside
REPORT, ending in ``.spans.json``, so that the parent never holds them: a
process forked from a large parent starts with the parent's resident size as
its peak.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class _SetupDone(BaseException):
    """Raised at experiment entry in setup mode; passes through cli.main."""


def blas_environment() -> dict:
    """Versions of numpy, scipy and every loaded OpenBLAS, with its thread count."""
    import ctypes

    import numpy
    import scipy

    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                entry["threads"] = get_threads()
                entry["config"] = get_config().decode()
                break
        libs.append(entry)
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": libs}


def main() -> int:
    mode, report_path, run_id = sys.argv[1:4]
    if sys.argv[4] != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit(f"usage: {sys.argv[0]} run|setup|trace REPORT RUN_ID -- ARGS")
    argv = sys.argv[5:]
    report: dict = {"mode": mode, "run_id": run_id}

    t0 = time.perf_counter()
    import liouvlab.cli as cli
    report["import_s"] = time.perf_counter() - t0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id)
        report["patched_sites"] = tracer.install()

    experiment = argv[0]
    command = cli.EXPERIMENTS[experiment]

    def entered(cfg):
        report["entered"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return command(cfg)

    cli.EXPERIMENTS[experiment] = entered
    try:
        code = cli.main(argv)
    except _SetupDone:
        code = 0
    if mode != "run":
        report["environment"] = blas_environment()
    if tracer is not None:
        from tracer import aggregate

        report["layer"] = aggregate(tracer.spans, tracer.counts)
        report["n_spans"] = len(tracer.spans)
        with open(Path(report_path).with_suffix(".spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
