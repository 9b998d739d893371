"""Command-line entry point: named experiments with reproducible outputs.

Each experiment loads a strict JSON config (all values in 1/us and rad/us, or
MHz with --units mhz) and runs the corresponding pipeline. It returns its
tables, an ordered mapping from file stem to (header, rows), and its summary
dict; one writer turns them into CSV/JSON datasets with pinned number
formatting and emits a RunManifest with content hashes. Exit codes: 0
success, 2 configuration error, 3 numerical failure.
"""

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, io, numerics
from .config import (
    ExperimentConfig,
    apply_units,
    deep_merge,
    integer,
    load_config_file,
    nest_override,
    number,
    numbers,
    parse_set_override,
    resolve,
)
from .dynamics import (
    MIN_SCHEDULED_STEPS,
    integrate_constant,
    integrate_scheduled,
    observables_from_states,
    scheduled_step_count,
    step_count,
)
from .errors import ConfigError, LiouvlabError
from .liouvillian import (
    build_superoperator,
    ep_scan,
    pair_branches,
    steady_state,
    superoperator_stack,
)
from .model import Rates, basis_ket, make_system, minus_x, operators, plus_x
from .trajectories import run_ensemble, run_trajectory

TWO_PI = 2.0 * math.pi
MAX_GRID_POINTS = 100_000  # far above any shipped grid (spectrum's 401 J points, ep-map's 61^2)
MAX_TIME_STEPS = 1_000_000  # far above any shipped run (fig2's ensemble: 4,000 steps)

EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "spectrum": {
        "system": {"dim": 2, "gamma_e": 4.4, "gamma_phi": 0.1},
        "scan": {"J_start": 0.0, "J_stop": 2.0, "J_step": 0.005, "Delta": 0.0},
    },
    "ep-map": {
        "system": {"dim": 2, "gamma_e": 4.5, "gamma_phi": 0.0},
        "scan": {"J_range": [0.05, 1.1], "Delta_range": [-1.1, 1.1], "resolution": 45},
    },
    "fig1": {
        "system": {"dim": 2, "gamma_e": 4.4, "gamma_phi": 0.1},
        "scan": {
            "J_start": 0.1, "J_stop": 1.8, "J_step": 0.05,
            "window": 10.0, "n_samples": 500,
            "heatmap_t_max": 3.0, "heatmap_samples": 301,
        },
    },
    "fig2": {
        "system": {"dim": 2, "gamma_e": 4.6, "gamma_phi": 0.2},
        "schedule": {"T": 2.0, "J_max": 16.0, "Delta_max": 10.0 * math.pi},
        "integrator": {"dt": 1e-3},
        "ensemble": {"n": 1000, "master_seed": 12345, "dt": 5e-4, "store_every": 20},
    },
    "fig4": {
        "system": {
            "dim": 3, "gamma_e": 4.2, "gamma_phi": 0.2,
            "gamma_f": 0.3, "gamma_f_extra": 0.75,
        },
        "scan": {
            "J_start": 0.2, "J_stop": 1.8, "J_step": 0.05,
            "window": 10.0, "n_samples": 500,
            "heatmap_t_max": 3.0, "heatmap_samples": 301,
        },
    },
    "sweeps": {
        "system": {"dim": 2, "gamma_e": 4.6, "gamma_phi": 0.2},
        "schedule": {"T": 2.0, "J_max": 16.0, "Delta_max": 10.0 * math.pi},
        "scan": {
            "T_values": [0.25 + 0.125 * i for i in range(19)],
            "Delta_max_values": [TWO_PI * (0.5 + 0.5 * i) for i in range(16)],
        },
    },
    "steady-state": {
        "system": {"dim": 2, "gamma_e": 4.4, "gamma_phi": 0.1, "J": 1.8, "Delta": 0.0},
    },
    "trajectories": {
        "system": {"dim": 2, "gamma_e": 4.6, "gamma_phi": 0.2},
        "schedule": {"T": 2.0, "J_max": 16.0, "Delta_max": 10.0 * math.pi},
        "ensemble": {"n": 1000, "master_seed": 12345, "dt": 5e-4, "store_every": 20},
    },
}


def _density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi|, or the stack of them for an array of states (n, d)."""
    return psi[..., :, None] * psi[..., None, :].conj()


def _j_grid(scan: dict) -> np.ndarray:
    """scan.J_values, or the grid J_start, J_start + J_step, ... up to J_stop; all >= 0."""
    if "J_values" in scan:
        grid = np.asarray(numbers("scan", "J_values", scan["J_values"]))
    else:
        start = number("scan", "J_start", scan["J_start"])
        stop = number("scan", "J_stop", scan["J_stop"])
        step = number("scan", "J_step", scan["J_step"])
        if step <= 0.0 or stop < start:
            raise ConfigError("scan needs J_values or J_start <= J_stop with J_step > 0")
        # the grid's length is the ceiling of this; check it before allocating
        if not (stop - start) / step + 0.5 <= MAX_GRID_POINTS:
            raise ConfigError(
                f"scan J_start/J_stop/J_step give more than {MAX_GRID_POINTS} points")
        grid = np.arange(start, stop + 0.5 * step, step)
    if len(grid) == 0:
        raise ConfigError("empty J grid")
    if np.any(grid < 0.0):
        raise ConfigError(f"scan J values must be >= 0, got {grid.min()}")
    return grid


def _transition_scan(scan: dict) -> tuple[np.ndarray, np.ndarray, float, int]:
    """(J grid, heatmap times, fit window, fit samples) of fig1 and fig4.

    The heatmap table, one row per J point and heatmap time, is capped at
    MAX_TIME_STEPS rows before anything is allocated.
    """
    J_grid = _j_grid(scan)
    t_max = number("scan", "heatmap_t_max", scan["heatmap_t_max"])
    samples = integer("scan", "heatmap_samples", scan["heatmap_samples"])
    window = number("scan", "window", scan["window"])
    n_samples = integer("scan", "n_samples", scan["n_samples"])
    if t_max <= 0.0 or window <= 0.0:
        raise ConfigError(
            f"scan.heatmap_t_max and scan.window must be > 0, got {t_max} and {window}")
    if not (1 <= samples <= MAX_TIME_STEPS and 1 <= n_samples <= MAX_TIME_STEPS):
        raise ConfigError(
            f"scan.heatmap_samples and scan.n_samples must be between 1 and {MAX_TIME_STEPS}, "
            f"got {samples} and {n_samples}")
    if len(J_grid) * samples > MAX_TIME_STEPS:
        raise ConfigError(
            f"{len(J_grid)} J points x scan.heatmap_samples={samples} give more than "
            f"{MAX_TIME_STEPS} heatmap rows")
    return J_grid, np.linspace(0.0, t_max, samples), window, n_samples


def _resolution(scan: dict, J_range, Delta_range) -> int:
    """scan.resolution of an ep-map; its grid may hold at most MAX_GRID_POINTS points.

    A range with equal endpoints contributes one row or column.
    """
    resolution = integer("scan", "resolution", scan["resolution"])
    if resolution < 1:
        raise ConfigError(f"scan.resolution must be an integer >= 1, got {resolution!r}")
    n_points = 1
    for lo, hi in (J_range, Delta_range):
        n_points *= resolution if hi > lo else 1
    if n_points > MAX_GRID_POINTS:
        raise ConfigError(
            f"scan.resolution={resolution} gives more than {MAX_GRID_POINTS} grid points")
    return resolution


def _check_steps(total: float, dt: float, key: str) -> None:
    """Reject a run of about total/dt steps above MAX_TIME_STEPS, before anything is allocated."""
    if not total / dt <= MAX_TIME_STEPS:
        raise ConfigError(
            f"{key}={dt!r} over a duration of {total!r} gives more than {MAX_TIME_STEPS} steps")


def _range(scan: dict, key: str) -> tuple[float, float]:
    value = numbers("scan", key, scan[key])
    if len(value) != 2:
        raise ConfigError(f"scan.{key} must be two numbers, got {scan[key]!r}")
    if value[1] < value[0]:
        raise ConfigError(f"scan.{key} must be increasing or equal, got {scan[key]!r}")
    return value[0], value[1]


def _encircling_runs(system, schedule, n_steps: int, store_every: int) -> dict:
    """Lindblad runs from |+x> and |-x> around the loop in both directions."""
    return {
        (tag, direction): integrate_scheduled(
            system, replace(schedule, direction=direction), _density(psi), n_steps, store_every)
        for tag, psi in (("plus", plus_x()), ("minus", minus_x()))
        for direction in ("ccw", "cw")
    }


def _final_x(runs: dict) -> dict:
    return {f"{tag}_{direction}": float(evo.observables["x"][-1])
            for (tag, direction), evo in runs.items()}


def _stochastic_runs(cfg: ExperimentConfig, psi0: np.ndarray):
    """One seeded trajectory, the ensemble, and the ensemble's Lindblad reference.

    The runs follow the schedule when there is one and last ensemble.t_final
    otherwise. Returns (trajectory, ensemble, reference, trace distance per
    stored time).
    """
    if cfg.schedule is not None:
        n_steps = step_count(cfg.schedule.T, cfg.ensemble_dt)
        if n_steps < MIN_SCHEDULED_STEPS:
            raise ConfigError(
                f"ensemble.dt too coarse: schedule needs >= {MIN_SCHEDULED_STEPS} steps")
    traj = run_trajectory(
        cfg.system, psi0, cfg.ensemble_dt, cfg.master_seed,
        schedule=cfg.schedule, t_final=cfg.t_final, store_every=cfg.ensemble_store_every,
    )
    ens = run_ensemble(
        cfg.system, cfg.schedule, psi0, cfg.ensemble_dt,
        cfg.ensemble_n, cfg.master_seed,
        store_every=cfg.ensemble_store_every, t_final=cfg.t_final,
    )
    if cfg.schedule is not None:
        lind = integrate_scheduled(
            cfg.system, cfg.schedule, _density(psi0), n_steps, cfg.ensemble_store_every)
    else:
        lind = integrate_constant(build_superoperator(cfg.system), _density(psi0), ens.times)
    td = np.array([
        numerics.trace_distance(ens.mean_density[i], lind.states[i])
        for i in range(len(ens.times))
    ])
    return traj, ens, lind, td


# ---------------------------------------------------------------------------
# Commands: each returns (tables, summary) for _write_outputs


def cmd_spectrum(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Eigenvalue branches versus J at fixed Delta, with EP markers."""
    J_grid = _j_grid(cfg.scan)
    Delta = number("scan", "Delta", cfg.scan["Delta"])
    generators = superoperator_stack(
        operators(cfg.system, J_grid, Delta, cfg.system.rates.gamma_e))
    branches = pair_branches([numerics.eig_general(L).eigenvalues for L in generators])
    n_modes = branches.shape[1]

    markers = [analysis.ep_coupling(cfg.system.rates, 2)]
    if cfg.system.dim == 3:
        markers.append(cfg.system.rates.gamma_e / 4.0)
    step = float(J_grid[1] - J_grid[0]) if len(J_grid) > 1 else 0.0
    near_ep = np.zeros(len(J_grid), dtype=int)
    for m in markers:
        near_ep |= np.abs(J_grid - m) <= max(step, 1e-12)

    header = (
        ["J"]
        + [f"re_{k}" for k in range(n_modes)]
        + [f"im_{k}" for k in range(n_modes)]
        + ["near_ep"]
    )
    rows = [
        [J, *branches[i].real, *branches[i].imag, int(near_ep[i])]
        for i, J in enumerate(J_grid)
    ]
    return {"spectrum": (header, rows)}, {
        "n_branches": n_modes,
        "ep_markers": markers,
        "J_min": float(J_grid[0]),
        "J_max": float(J_grid[-1]),
        "Delta": Delta,
    }


def cmd_ep_map(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Grid survey of the (J, Delta) plane with EP lines and triple points."""
    if cfg.system.dim != 2:
        raise ConfigError("this experiment needs a dim=2 system")
    scan = cfg.scan
    J_range = _range(scan, "J_range")
    if J_range[0] < 0.0:
        raise ConfigError(f"scan.J_range must be >= 0, got {scan['J_range']!r}")
    Delta_range = _range(scan, "Delta_range")
    resolution = _resolution(scan, J_range, Delta_range)
    ep_map = ep_scan(cfg.system, J_range, Delta_range, resolution)

    grid_rows = [
        [ep_map.J_values[iJ], ep_map.Delta_values[iD],
         ep_map.gap[iD, iJ], ep_map.angle[iD, iJ], int(ep_map.ep_order[iD, iJ])]
        for iD in range(len(ep_map.Delta_values))
        for iJ in range(len(ep_map.J_values))
    ]
    line_rows = [
        [line_id, k, point[0], point[1]]
        for line_id, line in enumerate(ep_map.ep_lines)
        for k, point in enumerate(line)
    ]
    return {
        "ep_map_grid": (["J", "Delta", "gap", "angle", "ep_order"], grid_rows),
        "ep_map_lines": (["line_id", "point_idx", "J", "Delta"], line_rows),
    }, {
        "n_lines": len(ep_map.ep_lines),
        "line_lengths": [int(len(line)) for line in ep_map.ep_lines],
        "ep3_points": [list(p) for p in ep_map.ep3_points],
        "J_range": list(J_range),
        "Delta_range": list(Delta_range),
        "resolution": resolution,
    }


def cmd_fig1(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Qubit excited-population dynamics across J plus the transition scan."""
    if cfg.system.dim != 2:
        raise ConfigError("this experiment needs a dim=2 system")
    J_grid, t_hm, window, n_samples = _transition_scan(cfg.scan)
    rho0 = analysis.initial_state_for(2)

    heat_rows = []
    cut_series = {}
    cut_values = (float(J_grid[0]), float(J_grid[-1]))
    generators = superoperator_stack(
        operators(cfg.system, J_grid, cfg.system.drive.Delta, cfg.system.rates.gamma_e))
    for J, L in zip(J_grid, generators):
        evo = integrate_constant(L, rho0, t_hm)
        pop_e = evo.states[:, 1, 1].real
        heat_rows.extend([float(J), float(t), float(p)] for t, p in zip(t_hm, pop_e))
        if float(J) in cut_values:
            cut_series[float(J)] = pop_e

    scan_result = analysis.scan_transition(cfg.system, J_grid, window=window, n_samples=n_samples)

    cut_header = ["t"] + [f"rho_ee_J{J:g}" for J in cut_values]
    cut_rows = [
        [float(t)] + [float(cut_series[J][i]) for J in cut_values]
        for i, t in enumerate(t_hm)
    ]
    return {
        "fig1_heatmap": (["J", "t", "rho_ee"], heat_rows),
        "fig1_cuts": (cut_header, cut_rows),
        "fig1_transition": scan_result.table(),
    }, {
        "j_ep": scan_result.j_ep,
        "transition_estimate": scan_result.transition_estimate(),
        "n_fit_failures": len(scan_result.failures),
        "n_fits_unconverged": scan_result.n_unconverged,
        "cut_J_values": list(cut_values),
    }


def cmd_fig2(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Encircling runs (Lindblad), one seeded trajectory, and an ensemble."""
    if cfg.schedule is None or cfg.system.dim != 2:
        raise ConfigError("this experiment needs a dim=2 system with a schedule")
    _check_steps(cfg.schedule.T, cfg.integrator_dt, "integrator.dt")
    _check_steps(cfg.schedule.T, cfg.ensemble_dt, "ensemble.dt")
    n_steps = scheduled_step_count(cfg.schedule.T, cfg.integrator_dt)
    runs = _encircling_runs(cfg.system, cfg.schedule, n_steps, cfg.integrator_store_every)

    header = ["t"]
    columns = [runs[("plus", "ccw")].times]
    for (tag, direction), evo in runs.items():
        for comp in ("x", "y", "z"):
            header.append(f"{comp}_{tag}_{direction}")
            columns.append(evo.observables[comp])

    chi_plus = analysis.chirality(
        runs[("plus", "cw")].final_state, runs[("plus", "ccw")].final_state)
    chi_minus = analysis.chirality(
        runs[("minus", "cw")].final_state, runs[("minus", "ccw")].final_state)

    # stochastic side: one seeded trajectory plus the averaged ensemble
    traj, ens, lind, td = _stochastic_runs(cfg, plus_x())
    traj_obs = observables_from_states(_density(traj.states), 2)
    ens_obs = observables_from_states(ens.mean_density, 2)

    return {
        "fig2_bloch": (header, np.column_stack(columns)),
        "fig2_trajectory": (["t", "x", "y", "z"], np.column_stack(
            [traj.times, traj_obs["x"], traj_obs["y"], traj_obs["z"]])),
        "fig2_ensemble": (
            ["t", "x_mean", "y_mean", "z_mean", "x_lindblad", "y_lindblad", "z_lindblad",
             "trace_distance"],
            np.column_stack([
                ens.times, ens_obs["x"], ens_obs["y"], ens_obs["z"],
                lind.observables["x"], lind.observables["y"], lind.observables["z"], td,
            ]),
        ),
    }, {
        "chirality_plus": chi_plus,
        "chirality_minus": chi_minus,
        "final_x": _final_x(runs),
        "trajectory_jumps": [[t, lab] for t, lab in traj.jumps],
        "ensemble_n": cfg.ensemble_n,
        "master_seed": cfg.master_seed,
        "jump_count_histogram": ens.jump_count_histogram,
        "max_trace_distance": float(td.max()),
    }


def cmd_fig4(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Qutrit g-f coherence dynamics across J plus the transition scan."""
    if cfg.system.dim != 3:
        raise ConfigError("this experiment needs a dim=3 system")
    J_grid, t_hm, window, n_samples = _transition_scan(cfg.scan)
    rho0 = analysis.initial_state_for(3)

    heat_rows = []
    generators = superoperator_stack(
        operators(cfg.system, J_grid, cfg.system.drive.Delta, cfg.system.rates.gamma_e))
    for J, L in zip(J_grid, generators):
        evo = integrate_constant(L, rho0, t_hm)
        gf = evo.states[:, 0, 2]
        heat_rows.extend(
            [float(J), float(t), float(abs(c)), float(c.real), float(c.imag)]
            for t, c in zip(t_hm, gf)
        )

    scan_result = analysis.scan_transition(cfg.system, J_grid, window=window, n_samples=n_samples)

    return {
        "fig4_coherence": (["J", "t", "abs_rho_gf", "re_rho_gf", "im_rho_gf"], heat_rows),
        "fig4_transition": scan_result.table(),
    }, {
        "j_ep": scan_result.j_ep,
        "transition_estimate": scan_result.transition_estimate(),
        "n_fit_failures": len(scan_result.failures),
        "n_fits_unconverged": scan_result.n_unconverged,
    }


def cmd_sweeps(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Duration/detuning sweeps, Hermitian-limit control, gamma_e schedules."""
    if cfg.schedule is None or cfg.system.dim != 2:
        raise ConfigError("this experiment needs a dim=2 system with a schedule")
    schedule = cfg.schedule
    scan = cfg.scan
    rho_mx = _density(minus_x())

    T_values = np.asarray(numbers("scan", "T_values", scan["T_values"]))
    D_values = np.asarray(numbers("scan", "Delta_max_values", scan["Delta_max_values"]))
    if np.any(T_values <= 0.0):
        raise ConfigError(f"scan.T_values must be > 0, got {T_values.min()}")
    _check_steps(max(schedule.T, float(T_values.max())), cfg.integrator_dt, "integrator.dt")
    duration = analysis.sweep_metrics(
        cfg.system, schedule, "T", T_values, (rho_mx, rho_mx), cfg.integrator_dt)
    detuning = analysis.sweep_metrics(
        cfg.system, schedule, "Delta_max", D_values, (rho_mx, rho_mx), cfg.integrator_dt)

    # Hermitian limit: same path with all dissipation off
    system0 = make_system(cfg.system.drive, Rates(gamma_e=0.0, gamma_phi=0.0), dim=2)
    n_steps = scheduled_step_count(schedule.T, cfg.integrator_dt)
    hermitian_runs = _encircling_runs(system0, schedule, n_steps, cfg.integrator_store_every)
    chi_hermitian = analysis.chirality(
        hermitian_runs[("plus", "cw")].final_state,
        hermitian_runs[("plus", "ccw")].final_state,
    )
    h_header = ["t"] + [f"x_{tag}_{direction}" for tag, direction in hermitian_runs]
    h_cols = [hermitian_runs[("plus", "ccw")].times] + [
        evo.observables["x"] for evo in hermitian_runs.values()]

    # constant versus ramped gamma_e at fixed (T, Delta_max)
    comparison_rows = []
    schedule_metrics = {}
    for kind in ("constant", "cosine"):
        single = analysis.sweep_metrics(
            cfg.system, replace(schedule, gamma_e_schedule=kind), "T", [schedule.T],
            (rho_mx, rho_mx), cfg.integrator_dt)
        _T, chi, s_cw, s_ccw = single.table()[1][0]
        comparison_rows.append([kind, chi, s_cw, s_ccw])
        schedule_metrics[kind] = {"chirality": chi, "entropy_cw": s_cw, "entropy_ccw": s_ccw}

    return {
        "sweeps_duration": duration.table(),
        "sweeps_detuning": detuning.table(),
        "sweeps_hermitian": (h_header, np.column_stack(h_cols)),
        "sweeps_schedule_comparison": (
            ["gamma_e_schedule", "chirality", "entropy_cw", "entropy_ccw"], comparison_rows),
    }, {
        "duration_chirality_argmax_T": float(T_values[int(np.argmax(duration.chirality))]),
        "detuning_chirality_monotone_increasing":
            bool(np.all(np.diff(detuning.chirality) > 0.0)),
        "detuning_entropy_ccw_monotone_decreasing":
            bool(np.all(np.diff(detuning.entropy_ccw) < 0.0)),
        "hermitian_chirality": chi_hermitian,
        "hermitian_final_x": _final_x(hermitian_runs),
        "gamma_e_schedules": schedule_metrics,
    }


def cmd_steady_state(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Steady state and spectrum of the configured system."""
    L = build_superoperator(cfg.system)
    rho_inf = steady_state(L)
    dec = numerics.eig_general(L)

    d = cfg.system.dim
    rows = [
        [i, j, rho_inf[i, j].real, rho_inf[i, j].imag]
        for i in range(d) for j in range(d)
    ]
    spec_rows = [[k, lam.real, lam.imag] for k, lam in enumerate(dec.eigenvalues)]
    return {
        "steady_state": (["row", "col", "re", "im"], rows),
        "steady_state_spectrum": (["index", "re", "im"], spec_rows),
    }, {
        "purity": float(np.trace(rho_inf @ rho_inf).real),
        "entropy_bits": analysis.entropy(rho_inf),
        "populations": [float(rho_inf[i, i].real) for i in range(d)],
        "slowest_decay_rate": float(
            -max(l.real for l in dec.eigenvalues if abs(l) > 1e-9)
        ),
    }


def cmd_trajectories(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Seeded single trajectory plus ensemble average with Lindblad reference."""
    dim = cfg.system.dim
    if cfg.schedule is not None:
        psi0 = plus_x(dim)
    else:
        if cfg.t_final is None:
            raise ConfigError("constant-parameter trajectories need ensemble.t_final")
        psi0 = basis_ket(dim, 1)
    total = cfg.schedule.T if cfg.schedule is not None else cfg.t_final
    _check_steps(total, cfg.ensemble_dt, "ensemble.dt")
    traj, ens, _lind, td = _stochastic_runs(cfg, psi0)

    if dim == 2:
        obs = observables_from_states(_density(traj.states), 2)
        traj_rows = np.column_stack([traj.times, obs["x"], obs["y"], obs["z"]])
        traj_header = ["t", "x", "y", "z"]
        pop_cols = [
            (ens.mean_density[:, 0, 0].real, "pop_g"),
            (ens.mean_density[:, 1, 1].real, "pop_e"),
        ]
    else:
        traj_rows = np.column_stack(
            [traj.times] + [np.abs(traj.states[:, k]) ** 2 for k in range(dim)])
        traj_header = ["t"] + [f"pop_{lvl}" for lvl in "gef"[:dim]]
        pop_cols = [
            (ens.mean_density[:, k, k].real, f"pop_{lvl}")
            for k, lvl in enumerate("gef"[:dim])
        ]
    ens_header = ["t"] + [name for _, name in pop_cols] + ["trace_distance"]
    ens_rows = np.column_stack([ens.times] + [c for c, _ in pop_cols] + [td])
    per_traj = np.array([len(j) for j in ens.jumps_per_trajectory])
    return {
        "trajectories_single": (traj_header, traj_rows),
        "trajectories_ensemble": (ens_header, ens_rows),
    }, {
        "ensemble_n": cfg.ensemble_n,
        "master_seed": cfg.master_seed,
        "dt": cfg.ensemble_dt,
        "jump_count_histogram": ens.jump_count_histogram,
        "mean_jumps_per_trajectory": float(per_traj.mean()),
        "single_trajectory_jumps": [[t, lab] for t, lab in traj.jumps],
        "max_trace_distance": float(td.max()),
    }


EXPERIMENTS = {
    "spectrum": cmd_spectrum,
    "ep-map": cmd_ep_map,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "fig4": cmd_fig4,
    "sweeps": cmd_sweeps,
    "steady-state": cmd_steady_state,
    "trajectories": cmd_trajectories,
}


def _write_outputs(
    experiment: str, cfg: ExperimentConfig, tables: dict, summary: dict, started: float
) -> list[Path]:
    """Write the run's datasets in the configured formats, then its manifest.

    Returns the written paths in order: one <stem>.csv per table, the
    <experiment>_summary.json, and last the manifest, which lists the others.
    """
    stem = experiment.replace("-", "_")
    files = []
    if "csv" in cfg.formats:
        for name, (header, rows) in tables.items():
            files.append(io.write_csv(cfg.output_dir / f"{name}.csv", header, rows))
    if "json" in cfg.formats:
        files.append(io.write_json(cfg.output_dir / f"{stem}_summary.json", summary))
    manifest = io.build_manifest(experiment, __version__, cfg.echo, files, started)
    return files + [io.write_json(cfg.output_dir / f"{stem}_manifest.json", manifest.as_dict())]


# ---------------------------------------------------------------------------
# Config resolution and entry point


def _resolve_config(args) -> ExperimentConfig:
    experiment = args.experiment
    defaults = EXPERIMENT_DEFAULTS.get(experiment, {})
    file_cfg = load_config_file(args.config) if args.config else {}

    file_exp = file_cfg.pop("experiment", None)
    if file_exp is not None and file_exp != experiment:
        raise ConfigError(
            f"config file is for experiment {file_exp!r}, "
            f"but {experiment!r} was requested"
        )

    overrides: dict = {}
    for spec in args.overrides:
        path, value = parse_set_override(spec)
        overrides = deep_merge(overrides, nest_override(path, value))

    user = deep_merge(file_cfg, overrides)
    units = args.units or user.pop("units", "rad")
    user = apply_units(user, units)
    merged = deep_merge(defaults, user)

    # precedence for plumbing knobs: CLI flag > environment > config file
    if args.output_dir is not None:
        merged["output_dir"] = args.output_dir
    elif os.environ.get("LIOUVLAB_OUTPUT_DIR"):
        merged["output_dir"] = os.environ["LIOUVLAB_OUTPUT_DIR"]
    if args.formats is not None:
        merged["formats"] = [f.strip() for f in args.formats.split(",") if f.strip()]

    return resolve(merged, experiment)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liouvlab",
        description="Open-system spectral analysis and dynamics experiments.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--output-dir", default=None, help="output directory")
    parser.add_argument("--units", choices=("rad", "mhz"), default=None,
                        help="unit system for angular config inputs")
    parser.add_argument("--formats", default=None, help="comma list from {csv,json}")
    parser.add_argument("--set", action="append", dest="overrides", default=[],
                        metavar="SECTION.KEY=VALUE", help="override one config key")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        tables, summary = EXPERIMENTS[args.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LiouvlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for path in _write_outputs(args.experiment, cfg, tables, summary, started):
        print(f"wrote {path}")
    print(f"{args.experiment}: ok ({time.monotonic() - started:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
