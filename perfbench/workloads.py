"""The benchmark's workloads and the checks on their outputs.

A step is one ``liouvlab`` experiment with fixed arguments. Its output checks
reuse the tolerances of the acceptance gate in ``tests/test_acceptance.py``.
A check clause that already failed when the benchmark was written is listed
in ``known_failures``: it is reported by name on every run and counted
separately, so it stays visible without hiding a new failure.

A workload is a sequence of steps, run one after another as a round. There
are two workloads, so that each run can be long enough to average out a
shared machine's drift (see README.md in this directory).
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TWO_PI = 2.0 * math.pi

# clause name -> (passed, detail)
Clauses = dict[str, tuple[bool, str]]


@dataclass(frozen=True)
class Step:
    name: str
    experiment: str
    # (seed, tiny) -> liouvlab CLI arguments after the experiment name
    args: Callable[[int, bool], list[str]]
    check: Callable[[Path], Clauses]
    known_failures: frozenset
    # tiny -> {per-layer metric: value the traced run must show}
    expected_counts: Callable[[bool], dict]


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


# -- transition-scan: fig1, acceptance 03 ------------------------------------

FIG1_GAMMA_E, FIG1_GAMMA_PHI = 4.4, 0.1  # the fig1 default system


def _fig1_args(seed: int, tiny: bool) -> list[str]:
    return ["--set", "scan.J_step=0.25"] if tiny else []


def _fig1_j_count(tiny: bool) -> int:
    """Points of the fig1 J grid: np.arange(0.1, 1.8 + step / 2, step)."""
    step = 0.25 if tiny else 0.05
    return math.ceil((1.8 + 0.5 * step - 0.1) / step)


def check_transition(out: Path) -> Clauses:
    cols = _csv_columns(out / "fig1_transition.csv")
    summary = _json(out / "fig1_summary.json")
    shift = FIG1_GAMMA_E / 2.0 - FIG1_GAMMA_PHI
    rel = max(
        abs(w - 0.5 * math.sqrt(16.0 * J * J - shift * shift))
        / (0.5 * math.sqrt(16.0 * J * J - shift * shift))
        for J, w in zip(cols["J"], cols["omega_fit"]) if J >= 0.65
    )
    small = max(w for J, w in zip(cols["J"], cols["omega_fit"]) if J <= 0.45)
    failures = summary["n_fit_failures"]
    return {
        "omega_within_5pct_for_J_ge_0.65": (rel <= 0.05, f"max rel err {rel:.4f}"),
        "omega_below_0.1_for_J_le_0.45": (small <= 0.1, f"max omega {small:.4f}"),
        "no_fit_failures": (failures == 0, f"n_fit_failures {failures}"),
    }


# -- loop-sweep: sweeps on a subset of the default lists, acceptance 07/10 ---

SWEEP_T = [0.5, 1.0, 1.5, 2.0]
SWEEP_DELTA = [TWO_PI, 2 * TWO_PI, 3 * TWO_PI, 4 * TWO_PI]
SWEEP_T_TINY = [0.75, 1.0, 1.25]
SWEEP_DELTA_TINY = [TWO_PI, 2 * TWO_PI]
SWEEP_DT = 1e-3  # sweeps default integrator dt
SWEEP_LOOP_T, SWEEP_LOOP_T_TINY = 2.0, 1.0  # schedule.T: the sweeps default, tiny


def _sweep_args(seed: int, tiny: bool) -> list[str]:
    if tiny:
        return ["--set", f"scan.T_values={json.dumps(SWEEP_T_TINY)}",
                "--set", f"scan.Delta_max_values={json.dumps(SWEEP_DELTA_TINY)}",
                "--set", f"schedule.T={SWEEP_LOOP_T_TINY}"]
    return ["--set", f"scan.T_values={json.dumps(SWEEP_T)}",
            "--set", f"scan.Delta_max_values={json.dumps(SWEEP_DELTA)}"]


def _sweep_steps(tiny: bool) -> int:
    """Midpoint steps of the whole sweeps experiment.

    Each scheduled run takes max(1000, ceil(T/dt)) steps. The duration sweep
    runs cw and ccw per T; the detuning sweep runs cw and ccw per Delta_max on
    the default loop; the Hermitian control and the gamma_e schedule
    comparison each run four more loops.
    """
    t_values, d_values = (SWEEP_T_TINY, SWEEP_DELTA_TINY) if tiny else (SWEEP_T, SWEEP_DELTA)

    def steps(T):
        return max(1000, int(math.ceil(T / SWEEP_DT)))

    loop = steps(SWEEP_LOOP_T_TINY if tiny else SWEEP_LOOP_T)
    return sum(2 * steps(T) for T in t_values) + 2 * len(d_values) * loop + 8 * loop


def check_sweep(out: Path) -> Clauses:
    s = _json(out / "sweeps_summary.json")
    t_best = s["duration_chirality_argmax_T"]
    chi_h = s["hermitian_chirality"]
    return {
        "detuning_chirality_rising": (
            s["detuning_chirality_monotone_increasing"] is True, "summary flag"),
        "detuning_entropy_falling": (
            s["detuning_entropy_ccw_monotone_decreasing"] is True, "summary flag"),
        "chirality_argmax_within_0.25_of_T1": (
            abs(t_best - 1.0) <= 0.25, f"argmax T {t_best}"),
        # acceptance 07: the Hermitian-limit control
        "hermitian_chirality_le_0.05": (chi_h <= 0.05, f"chirality {chi_h:.4f}"),
    }


# -- mcwf-ensemble: trajectories on the default loop, acceptance 06 ----------

MCWF_T, MCWF_DT = 2.0, 5e-4  # trajectories default schedule.T and ensemble.dt


def _mcwf_args(seed: int, tiny: bool) -> list[str]:
    return ["--set", f"ensemble.n={1000 if tiny else 4000}",
            "--set", f"ensemble.master_seed={seed}"]


def check_mcwf(out: Path) -> Clauses:
    td = _json(out / "trajectories_summary.json")["max_trace_distance"]
    return {"max_trace_distance_le_0.05": (td <= 0.05, f"max trace distance {td:.4f}")}


# -- ep-map: the fine config, acceptance 09 ----------------------------------

EP_GAMMA_E = 4.5  # gamma_e of configs/ep_map_fine.json


def _ep_args(seed: int, tiny: bool) -> list[str]:
    args = ["--config", "configs/ep_map_fine.json"]
    return args + ["--set", "scan.resolution=21"] if tiny else args


def check_ep(out: Path) -> Clauses:
    s = _json(out / "ep_map_summary.json")
    J_c, D_c = EP_GAMMA_E / math.sqrt(54.0), EP_GAMMA_E / math.sqrt(108.0)
    points = sorted(s["ep3_points"], key=lambda p: p[1])
    dev = math.inf
    if len(points) == 2:
        (J_a, D_a), (J_b, D_b) = points
        dev = max(abs(J_a - J_c), abs(J_b - J_c), abs(D_a + D_c), abs(D_b - D_c))
    return {
        "three_ep_lines": (s["n_lines"] == 3, f"{s['n_lines']} lines, lengths {s['line_lengths']}"),
        "two_triple_points_within_1e-6": (
            dev <= 1e-6, f"{len(points)} triple points, deviation {dev:.1e}"),
    }


STEPS = {
    w.name: w
    for w in (
        Step(
            name="transition-scan",
            experiment="fig1",
            args=_fig1_args,
            check=check_transition,
            known_failures=frozenset(),
            expected_counts=lambda tiny: {
                "analysis.fit_damped_sine.calls": _fig1_j_count(tiny)},
        ),
        Step(
            name="loop-sweep",
            experiment="sweeps",
            args=_sweep_args,
            check=check_sweep,
            known_failures=frozenset({"hermitian_chirality_le_0.05"}),
            expected_counts=lambda tiny: {
                "liouvillian.build_superoperator.calls": _sweep_steps(tiny),
                "dynamics.integrate_scheduled.steps": _sweep_steps(tiny)},
        ),
        Step(
            name="mcwf-ensemble",
            experiment="trajectories",
            args=_mcwf_args,
            check=check_mcwf,
            known_failures=frozenset(),
            # single trajectory, ensemble step table, Lindblad reference
            expected_counts=lambda tiny: {
                "numerics.expm.calls": 3 * round(MCWF_T / MCWF_DT)},
        ),
        Step(
            name="ep-map",
            experiment="ep-map",
            args=_ep_args,
            check=check_ep,
            known_failures=frozenset({"three_ep_lines"}),
            expected_counts=lambda tiny: {
                "liouvillian.spectrum.calls": (21 if tiny else 61) ** 2},
        ),
    )
}


# workload -> the steps of one round, in order
WORKLOADS = {
    # the fit layer alone
    "transition-scan": ("transition-scan",),
    # scheduled Lindblad steps, the MCWF kernel and ep_scan; no fits
    "dynamics": ("loop-sweep", "mcwf-ensemble", "ep-map"),
}


def judge(step: Step, clauses: Clauses) -> tuple[list[str], list[str]]:
    """(new failures, known failures still failing) among the clauses."""
    new = [c for c, (ok, _) in clauses.items() if not ok and c not in step.known_failures]
    known = [c for c, (ok, _) in clauses.items() if not ok and c in step.known_failures]
    return new, known
