"""Command-line entry point: named experiments with reproducible outputs.

Each experiment loads a strict JSON config (all values in 1/us and rad/us, or
MHz with --units mhz). `config.resolve` checks it against the keys that
experiment reads (`config.SCHEMA`), types and range-checks every value and
fills in the defaults before the run starts; then the experiment runs its
pipeline. It returns its tables, a mapping from file stem to a table (a
dict from column name to its values), and its summary dict; one writer
turns them into CSV datasets and a JSON summary with pinned number
formatting and emits a manifest with content hashes. Exit codes: 0
success, 2 configuration error, 3 numerical failure.
"""

import argparse
import gc
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, io, numerics
from .config import (
    ExperimentConfig,
    deep_merge,
    load_config_file,
    nest_override,
    parse_set_override,
    resolve,
)
from .dynamics import (
    integrate_constant,
    integrate_scheduled,
    observables_from_states,
    scheduled_step_count,
)
from .errors import ConfigError, LiouvlabError
from .liouvillian import (
    build_superoperator,
    eigenvalue_branches,
    ep_scan,
    steady_state,
    superoperator_stack,
    zero_modes,
)
from .model import Rates, basis_ket, make_system, minus_x, operators, plus_x
from .trajectories import run_ensemble


def _density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi|, or the stack of them for an array of states (n, d)."""
    return psi[..., :, None] * psi[..., None, :].conj()


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
    """The ensemble and its Lindblad reference.

    The runs follow the schedule when there is one and last ensemble.t_final
    otherwise. The shown single trajectory is the ensemble's trajectory 0.
    Returns (ensemble, reference, trace distance per stored time).
    """
    ens = run_ensemble(
        cfg.system, cfg.schedule, psi0, cfg.ensemble_dt,
        cfg.ensemble_n, cfg.master_seed,
        store_every=cfg.ensemble_store_every, t_final=cfg.t_final,
    )
    if cfg.schedule is not None:
        n_steps = scheduled_step_count(cfg.schedule.T, cfg.ensemble_dt)
        lind = integrate_scheduled(
            cfg.system, cfg.schedule, _density(psi0), n_steps, cfg.ensemble_store_every)
    else:
        lind = integrate_constant(build_superoperator(cfg.system), _density(psi0), ens.times)
    td = numerics.trace_distance(ens.mean_density, lind.states)
    return ens, lind, td


# ---------------------------------------------------------------------------
# Commands: each returns (tables, summary) for _write_outputs, a table being
# a dict from column name to a 1-d array or list


def cmd_spectrum(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Eigenvalue branches versus J at fixed Delta, with EP markers."""
    J_grid, Delta = cfg.J_grid, cfg.system.drive.Delta
    branches = eigenvalue_branches(cfg.system, J_grid)
    n_modes = branches.shape[1]

    markers = [analysis.ep_coupling(cfg.system.rates, 2)]
    if cfg.system.dim == 3:
        markers.append(analysis.ep_coupling(cfg.system.rates, 3))
    # the window is the grid's smallest spacing, so it does not depend on the grid's order
    spacings = np.diff(np.unique(J_grid))
    window = max(float(spacings.min()) if spacings.size else 0.0, 1e-12)
    near_ep = np.any(np.abs(J_grid[:, None] - np.array(markers)) <= window, axis=1)
    return {"spectrum": {
        "J": J_grid,
        **{f"re_{k}": branches[:, k].real for k in range(n_modes)},
        **{f"im_{k}": branches[:, k].imag for k in range(n_modes)},
        "near_ep": near_ep,
    }}, {
        "n_branches": n_modes,
        "ep_markers": markers,
        "J_min": float(J_grid[0]),
        "J_max": float(J_grid[-1]),
        "Delta": Delta,
    }


def cmd_ep_map(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Grid survey of the (J, Delta) plane with EP lines and triple points."""
    J_range, Delta_range = cfg.scan["J_range"], cfg.scan["Delta_range"]
    resolution = cfg.scan["resolution"]
    ep_map = ep_scan(cfg.system, J_range, Delta_range, resolution)

    # one grid row per grid point, J fastest
    nJ, nD = len(ep_map.J_values), len(ep_map.Delta_values)
    line_points = [(line_id, k, J, Delta) for line_id, line in enumerate(ep_map.ep_lines)
                   for k, (J, Delta) in enumerate(line)]
    return {
        "ep_map_grid": {
            "J": np.tile(ep_map.J_values, nD), "Delta": np.repeat(ep_map.Delta_values, nJ),
            "gap": ep_map.gap.ravel(), "angle": ep_map.angle.ravel(),
            "ep_order": ep_map.ep_order.ravel()},
        "ep_map_lines": {name: [point[i] for point in line_points]
                         for i, name in enumerate(("line_id", "point_idx", "J", "Delta"))},
    }, {
        "n_lines": len(ep_map.ep_lines),
        "line_lengths": [int(len(line)) for line in ep_map.ep_lines],
        "ep3_points": [list(p) for p in ep_map.ep3_points],
        "J_range": J_range,
        "Delta_range": Delta_range,
        "resolution": resolution,
    }


def _transition_figure(cfg: ExperimentConfig) -> tuple[dict, np.ndarray, np.ndarray, dict, dict]:
    """The body fig1 (a qubit) and fig4 (a qutrit) share.

    Builds the J grid's generator stack once, integrates it on the heatmap
    times, and runs the transition scan on the fit window with the same
    stack. Returns the heatmap's J and t columns (one row per J point and
    time), the heatmap states (n_J, n_t, d, d), the heatmap times, the
    transition table and the summary keys both figures report.
    """
    J_grid, scan = cfg.J_grid, cfg.scan
    t_hm = np.linspace(0.0, scan["heatmap_t_max"], scan["heatmap_samples"])
    generators = superoperator_stack(
        operators(cfg.system, J_grid, cfg.system.drive.Delta, cfg.system.rates.gamma_e))
    states = integrate_constant(generators, analysis.initial_state_for(cfg.system.dim), t_hm).states
    scan_result = analysis.scan_transition(
        cfg.system, J_grid, generators, scan["window"], scan["n_samples"])
    heat_axes = {"J": np.repeat(J_grid, len(t_hm)), "t": np.tile(t_hm, len(J_grid))}
    return heat_axes, states, t_hm, scan_result.table(), {
        "j_ep": scan_result.j_ep,
        "transition_estimate": scan_result.transition_estimate(),
        "n_fit_failures": len(scan_result.failures),
        "n_fits_unconverged": scan_result.n_unconverged,
    }


def cmd_fig1(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Qubit excited-population dynamics across J plus the transition scan."""
    heat_axes, states, t_hm, transition, summary = _transition_figure(cfg)
    # a copy, so the columns below do not keep the states alive
    pop_e = states[..., 1, 1].real.copy()
    first, last = float(heat_axes["J"][0]), float(heat_axes["J"][-1])
    # each cut is named by its J as the CSV prints numbers; a one-point grid's
    # two cuts are one column
    cut = "rho_ee_J" + io.CSV_FLOAT_FORMAT
    return {
        "fig1_heatmap": {**heat_axes, "rho_ee": pop_e.ravel()},
        "fig1_cuts": {"t": t_hm, cut % first: pop_e[0], cut % last: pop_e[-1]},
        "fig1_transition": transition,
    }, {**summary, "cut_J_values": [first, last]}


def cmd_fig2(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Encircling runs (Lindblad), and an ensemble with its trajectory 0."""
    n_steps = scheduled_step_count(cfg.schedule.T, cfg.integrator_dt)
    runs = _encircling_runs(cfg.system, cfg.schedule, n_steps, cfg.integrator_store_every)

    bloch = {"t": runs[("plus", "ccw")].times,
             **{f"{comp}_{tag}_{direction}": evo.observables[comp]
                for (tag, direction), evo in runs.items() for comp in ("x", "y", "z")}}

    chi_plus = analysis.chirality(
        runs[("plus", "cw")].final_state, runs[("plus", "ccw")].final_state)
    chi_minus = analysis.chirality(
        runs[("minus", "cw")].final_state, runs[("minus", "ccw")].final_state)

    # stochastic side: the averaged ensemble and its trajectory 0
    ens, lind, td = _stochastic_runs(cfg, plus_x())
    traj_obs = observables_from_states(_density(ens.trajectory0_states), 2)
    ens_obs = observables_from_states(ens.mean_density, 2)

    return {
        "fig2_bloch": bloch,
        "fig2_trajectory": {"t": ens.times, **traj_obs},
        "fig2_ensemble": {
            "t": ens.times,
            **{f"{comp}_mean": ens_obs[comp] for comp in ("x", "y", "z")},
            **{f"{comp}_lindblad": lind.observables[comp] for comp in ("x", "y", "z")},
            "trace_distance": td,
        },
    }, {
        "chirality_plus": chi_plus,
        "chirality_minus": chi_minus,
        "final_x": _final_x(runs),
        "trajectory_jumps": [[t, lab] for t, lab in ens.jumps_per_trajectory[0]],
        "ensemble_n": cfg.ensemble_n,
        "master_seed": cfg.master_seed,
        "jump_count_histogram": ens.jump_count_histogram,
        "max_trace_distance": float(td.max()),
    }


def cmd_fig4(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Qutrit g-f coherence dynamics across J plus the transition scan."""
    heat_axes, states, _t_hm, transition, summary = _transition_figure(cfg)
    gf = states[..., 0, 2].ravel()
    return {
        "fig4_coherence": {**heat_axes, "abs_rho_gf": np.abs(gf), "re_rho_gf": gf.real,
                           "im_rho_gf": gf.imag},
        "fig4_transition": transition,
    }, summary


def cmd_sweeps(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Duration/detuning sweeps, Hermitian-limit control, gamma_e schedules."""
    schedule = cfg.schedule
    rho_mx = _density(minus_x())
    T_values, D_values = np.asarray(cfg.scan["T_values"]), np.asarray(cfg.scan["Delta_max_values"])

    def sweep(loops):
        return analysis.sweep_metrics(cfg.system, loops, rho_mx, cfg.integrator_dt)

    duration = sweep([replace(schedule, T=T) for T in T_values.tolist()])
    detuning = sweep([replace(schedule, Delta_max=D) for D in D_values.tolist()])
    # constant versus ramped gamma_e at fixed (T, Delta_max)
    kinds = ("constant", "cosine")
    ramps = sweep([replace(schedule, gamma_e_schedule=kind) for kind in kinds])
    schedule_metrics = {kind: {metric: float(column[i]) for metric, column in ramps.items()}
                        for i, kind in enumerate(kinds)}

    # Hermitian limit: same path with all dissipation off
    system0 = make_system(cfg.system.drive, Rates(gamma_e=0.0, gamma_phi=0.0), dim=2)
    n_steps = scheduled_step_count(schedule.T, cfg.integrator_dt)
    hermitian_runs = _encircling_runs(system0, schedule, n_steps, cfg.integrator_store_every)
    chi_hermitian = analysis.chirality(
        hermitian_runs[("plus", "cw")].final_state,
        hermitian_runs[("plus", "ccw")].final_state,
    )

    return {
        "sweeps_duration": {"T": T_values, **duration},
        "sweeps_detuning": {"Delta_max": D_values, **detuning},
        "sweeps_hermitian": {
            "t": hermitian_runs[("plus", "ccw")].times,
            **{f"x_{tag}_{direction}": evo.observables["x"]
               for (tag, direction), evo in hermitian_runs.items()}},
        "sweeps_schedule_comparison": {"gamma_e_schedule": list(kinds), **ramps},
    }, {
        "duration_chirality_argmax_T": float(T_values[int(np.argmax(duration["chirality"]))]),
        "detuning_chirality_monotone_increasing":
            bool(np.all(np.diff(detuning["chirality"]) > 0.0)),
        "detuning_entropy_ccw_monotone_decreasing":
            bool(np.all(np.diff(detuning["entropy_ccw"]) < 0.0)),
        "hermitian_chirality": chi_hermitian,
        "hermitian_final_x": _final_x(hermitian_runs),
        "gamma_e_schedules": schedule_metrics,
    }


def cmd_steady_state(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Steady state and spectrum of the configured system."""
    L = build_superoperator(cfg.system)
    rho_inf = steady_state(L)
    lam = numerics.eig_general(L).eigenvalues

    d = cfg.system.dim
    row, col = np.indices((d, d)).reshape(2, -1)
    return {
        "steady_state": {"row": row, "col": col, "re": rho_inf.real.ravel(),
                         "im": rho_inf.imag.ravel()},
        "steady_state_spectrum": {"index": np.arange(len(lam)), "re": lam.real, "im": lam.imag},
    }, {
        "purity": float(np.trace(rho_inf @ rho_inf).real),
        "entropy_bits": analysis.entropy(rho_inf),
        "populations": [float(rho_inf[i, i].real) for i in range(d)],
        "slowest_decay_rate": float(-lam[~zero_modes(lam, L)].real.max()),
    }


def cmd_trajectories(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Ensemble average with Lindblad reference, and the ensemble's trajectory 0."""
    dim = cfg.system.dim
    psi0 = plus_x(dim) if cfg.schedule is not None else basis_ket(dim, 1)
    ens, _lind, td = _stochastic_runs(cfg, psi0)

    traj_states = ens.trajectory0_states
    levels = "gef"[:dim]
    if dim == 2:
        single = observables_from_states(_density(traj_states), 2)
    else:
        single = {f"pop_{lvl}": np.abs(traj_states[:, k]) ** 2 for k, lvl in enumerate(levels)}
    per_traj = np.array([len(j) for j in ens.jumps_per_trajectory])
    return {
        "trajectories_single": {"t": ens.times, **single},
        "trajectories_ensemble": {
            "t": ens.times,
            **{f"pop_{lvl}": ens.mean_density[:, k, k].real for k, lvl in enumerate(levels)},
            "trace_distance": td},
    }, {
        "ensemble_n": cfg.ensemble_n,
        "master_seed": cfg.master_seed,
        "dt": cfg.ensemble_dt,
        "jump_count_histogram": ens.jump_count_histogram,
        "mean_jumps_per_trajectory": float(per_traj.mean()),
        "single_trajectory_jumps": [[t, lab] for t, lab in ens.jumps_per_trajectory[0]],
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
    """Write the run's datasets, then its manifest.

    Returns the written paths in order: one <stem>.csv per table, the
    <experiment>_summary.json, and last the manifest, which lists the others.
    """
    stem = experiment.replace("-", "_")
    files = [io.write_csv(cfg.output_dir / f"{name}.csv", columns)
             for name, columns in tables.items()]
    files.append(io.write_json(cfg.output_dir / f"{stem}_summary.json", summary))
    manifest = io.build_manifest(experiment, __version__, cfg.echo, files, started)
    return files + [io.write_json(cfg.output_dir / f"{stem}_manifest.json", manifest)]


# ---------------------------------------------------------------------------
# Config resolution and entry point


def _resolve_config(args) -> ExperimentConfig:
    user = load_config_file(args.config) if args.config else {}
    for spec in args.overrides:
        path, value = parse_set_override(spec)
        user = deep_merge(user, nest_override(path, value))
    # precedence for plumbing knobs: CLI flag > environment > config file
    if args.units is not None:
        user["units"] = args.units
    if args.output_dir is not None:
        user["output_dir"] = args.output_dir
    elif os.environ.get("LIOUVLAB_OUTPUT_DIR"):
        user["output_dir"] = os.environ["LIOUVLAB_OUTPUT_DIR"]
    return resolve(user, args.experiment)


def main(argv=None) -> int:
    # Everything alive at entry (modules, functions, the schema) lives until
    # the process exits, so move it out of the collector's reach: neither the
    # run's collections nor interpreter shutdown traverse the import heap again.
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="liouvlab",
        description="Open-system spectral analysis and dynamics experiments.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--output-dir", default=None, help="output directory")
    parser.add_argument("--units", choices=("rad", "mhz"), default=None,
                        help="unit system for angular config inputs")
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
    except LiouvlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for path in _write_outputs(args.experiment, cfg, tables, summary, started):
        print(f"wrote {path}")
    print(f"{args.experiment}: ok ({time.monotonic() - started:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
