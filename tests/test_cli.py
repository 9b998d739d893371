import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liouvlab
from liouvlab import __version__, analysis, cli, config
from liouvlab import liouvillian as lv
from liouvlab.errors import ConfigError
from oracles import validate_manifest


def run(*argv):
    return cli.main(list(argv))


ROOT = Path(__file__).resolve().parents[1]
BIG = "1" + "0" * 400  # a JSON integer that no float can hold


def no_run(*args, **kwargs):
    raise AssertionError("the run started")


# --- happy path -----------------------------------------------------------------


def test_steady_state_run_writes_expected_artifacts(tmp_path, capsys):
    code = run("steady-state", "--output-dir", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 0
    names = {
        "steady_state.csv",
        "steady_state_spectrum.csv",
        "steady_state_summary.json",
        "steady_state_manifest.json",
    }
    assert {p.name for p in tmp_path.iterdir()} == names
    assert captured.out.count("wrote ") == 4
    assert "steady-state: ok" in captured.out

    manifest = json.loads((tmp_path / "steady_state_manifest.json").read_text())
    validate_manifest(manifest)
    assert manifest["experiment"] == "steady-state"
    assert manifest["artifact_version"] == __version__
    assert {e["name"] for e in manifest["files"]} == names - {"steady_state_manifest.json"}

    summary = json.loads((tmp_path / "steady_state_summary.json").read_text())
    assert sum(summary["populations"]) == pytest.approx(1.0, abs=1e-9)
    assert 0.5 <= summary["purity"] <= 1.0
    assert summary["slowest_decay_rate"] > 0.0


@pytest.mark.parametrize("rate", [1e8, 1e10])
def test_steady_state_slowest_decay_rate_at_large_rates(rate, tmp_path, capsys):
    code = run("steady-state", "--output-dir", str(tmp_path),
               "--set", f"system.gamma_e={rate}", "--set", f"system.J={rate}")
    capsys.readouterr()
    assert code == 0
    summary = json.loads((tmp_path / "steady_state_summary.json").read_text())
    # the x-mode, -(gamma_e/2 + gamma_phi), decays slowest; the zero mode is not a decay
    assert summary["slowest_decay_rate"] == pytest.approx(rate / 2.0, rel=1e-6)


# each experiment at a tiny config, and the datasets it writes, in order
TINY_RUNS = {
    "spectrum": (["--set", "scan.J_stop=0.2", "--set", "scan.J_step=0.1"],
                 ["spectrum.csv"]),
    "ep-map": (["--set", "scan.resolution=5"],
               ["ep_map_grid.csv", "ep_map_lines.csv"]),
    "fig1": (["--set", "scan.J_values=[0.3, 1.2]", "--set", "scan.heatmap_samples=11"],
             ["fig1_heatmap.csv", "fig1_cuts.csv", "fig1_transition.csv"]),
    "fig2": (["--set", "schedule.T=1.0", "--set", "ensemble.n=5", "--set", "ensemble.dt=0.001"],
             ["fig2_bloch.csv", "fig2_trajectory.csv", "fig2_ensemble.csv"]),
    "fig4": (["--set", "scan.J_values=[0.5, 1.5]", "--set", "scan.heatmap_samples=11"],
             ["fig4_coherence.csv", "fig4_transition.csv"]),
    "sweeps": (["--set", "schedule.T=1.0", "--set", "scan.T_values=[1.0]",
                "--set", "scan.Delta_max_values=[6.0]"],
               ["sweeps_duration.csv", "sweeps_detuning.csv", "sweeps_hermitian.csv",
                "sweeps_schedule_comparison.csv"]),
    "steady-state": ([], ["steady_state.csv", "steady_state_spectrum.csv"]),
    "trajectories": (["--set", "schedule.T=0.5", "--set", "ensemble.n=5"],
                     ["trajectories_single.csv", "trajectories_ensemble.csv"]),
}


# every run writes its full file set: the part "csv" checks its tables, "json" its summary
@pytest.mark.parametrize("part", ["csv", "json"])
@pytest.mark.parametrize("experiment", sorted(TINY_RUNS))
def test_run_writes_its_fixed_file_set(experiment, part, tmp_path, capsys):
    extra, csv_names = TINY_RUNS[experiment]
    stem = experiment.replace("-", "_")
    datasets = csv_names + [f"{stem}_summary.json"]
    code = run(experiment, "--output-dir", str(tmp_path), *extra)
    out = capsys.readouterr().out
    assert code == 0
    written = datasets + [f"{stem}_manifest.json"]
    assert {p.name for p in tmp_path.iterdir()} == set(written)
    assert [line.split("/")[-1] for line in out.splitlines() if line.startswith("wrote ")] == written
    manifest = json.loads((tmp_path / f"{stem}_manifest.json").read_text())
    validate_manifest(manifest)
    assert [e["name"] for e in manifest["files"]] == datasets
    if part == "csv":
        for name in csv_names:
            header, *rows = (tmp_path / name).read_text().splitlines()
            assert header.count(",") >= 1 and rows
    else:
        summary = json.loads((tmp_path / f"{stem}_summary.json").read_text())
        assert summary
        if experiment in ("fig1", "fig4"):
            assert summary["n_fits_unconverged"] == 0


def test_config_file_and_override_flow(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "steady-state",
        "system": {"gamma_e": 4.0, "gamma_phi": 0.0, "J": 1.0},
    }))
    out_dir = tmp_path / "out"
    code = run("steady-state", "--config", str(config), "--output-dir", str(out_dir))
    assert code == 0
    capsys.readouterr()
    assert {p.name for p in out_dir.iterdir()} == {
        "steady_state.csv", "steady_state_spectrum.csv", "steady_state_summary.json",
        "steady_state_manifest.json"}
    rows = (out_dir / "steady_state.csv").read_bytes().decode().strip().split("\r\n")
    assert rows[0] == "row,col,re,im"
    cells = dict()
    for line in rows[1:]:
        i, j, re, im = line.split(",")
        cells[(int(i), int(j))] = (float(re), float(im))
    # gamma_e = 4, J = 1: closed-form steady state (1/24) [[20, 8i], [-8i, 4]]
    assert cells[(0, 0)][0] == pytest.approx(20.0 / 24.0, abs=1e-12)
    assert cells[(1, 1)][0] == pytest.approx(4.0 / 24.0, abs=1e-12)
    assert cells[(0, 1)][1] == pytest.approx(8.0 / 24.0, abs=1e-12)


def test_summary_without_a_transition_estimate_is_strict_json(tmp_path, capsys):
    # both J points lie below the EP (0.525), so no fit oscillates and no J gives an estimate
    code = run("fig1", "--output-dir", str(tmp_path), "--set", "scan.J_values=[0.1, 0.3]")
    capsys.readouterr()
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((tmp_path / "fig1_summary.json").read_text(), parse_constant=reject)
    assert summary["n_fit_failures"] == 0
    assert summary["transition_estimate"] is None


def test_fig1_on_a_one_point_grid_writes_one_cut_column(tmp_path, capsys):
    # the first and last J are one J, so the cuts table holds one column of it
    assert run("fig1", "--output-dir", str(tmp_path), "--set", "scan.J_values=[0.5]") == 0
    capsys.readouterr()
    lines = (tmp_path / "fig1_cuts.csv").read_text().splitlines()
    assert lines[0] == "t,rho_ee_J0.5"
    assert {len(line.split(",")) for line in lines} == {2}


def test_fig1_names_two_cuts_apart_where_their_j_print_alike_at_six_digits(tmp_path, capsys):
    # both J print as 0.5 at six digits; at the CSV's %.12g each keeps its own column
    assert run("fig1", "--output-dir", str(tmp_path),
               "--set", "scan.J_values=[0.5, 0.5000001]") == 0
    capsys.readouterr()
    lines = (tmp_path / "fig1_cuts.csv").read_text().splitlines()
    assert lines[0] == "t,rho_ee_J0.5,rho_ee_J0.5000001"
    assert {len(line.split(",")) for line in lines} == {3}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert f"liouvlab {__version__}" in capsys.readouterr().out


# --- failure modes ---------------------------------------------------------------


def test_unknown_config_key_exits_2(tmp_path, capsys):
    code = run("steady-state", "--output-dir", str(tmp_path),
               "--set", "system.gamma_x=1.0")
    assert code == 2
    assert "config error" in capsys.readouterr().err


# every (section, key) some experiment reads, and scan.Delta, which spectrum read before it
# took system.Delta; each experiment paired with those it does not read
SCHEMA_KEYS = sorted({(section, key) for schema in config.SCHEMA.values()
                       for section, keys in schema.items() if isinstance(keys, dict) for key in keys}
                     | {("scan", "Delta")})
UNREAD_KEYS = [pytest.param(experiment, f"{section}.{key}", id=f"{experiment}-{section}.{key}")
               for experiment, schema in config.SCHEMA.items() for section, key in SCHEMA_KEYS
               if key not in schema.get(section, {})]


@pytest.mark.parametrize("experiment, dotted", UNREAD_KEYS)
def test_each_experiment_rejects_each_key_it_does_not_read(experiment, dotted, tmp_path, capsys):
    assert run(experiment, "--output-dir", str(tmp_path), "--set", f"{dotted}=1") == 2
    assert f"config error: {experiment} does not read {dotted}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment, overrides, named", [
    # a null took the resolver's fallback of 0, not the experiment's default of 4.4
    ("steady-state", ["system.gamma_e=null"], "system.gamma_e may not be null"),
    # each of these ran and wrote the same bytes as the run without the extra keys
    ("spectrum", ["scan.Delta=3", "system.J=1"], "spectrum does not read scan.Delta, system.J"),
    ("fig1", ["scan.Delta=3", "system.J=5", "ensemble.n=3"],
     "fig1 does not read scan.Delta, system.J, ensemble.n"),
    ("ep-map", ["system.J=0.5", "system.Delta=2", "scan.Delta=1"],
     "ep-map does not read system.J, system.Delta, scan.Delta"),
    ("trajectories", ["system.J=3", "integrator.dt=0.1"], "trajectories does not read integrator.dt"),
    # a scheduled run follows its loop, so it reads no drive
    ("trajectories", ["system.J=3"], "system.J given beside a schedule"),
    ("trajectories", ["system.Delta=1", "ensemble.t_final=1"],
     "system.Delta, ensemble.t_final given beside a schedule"),
    # this ran on J_values, and wrote the same bytes as the run without J_start and J_step
    ("fig1", ["scan.J_values=[0.5,1.0]", "scan.heatmap_samples=11", "scan.J_start=5",
              "scan.J_step=0.3"], "scan.J_start, scan.J_step given beside scan.J_values"),
])
def test_a_key_the_run_would_ignore_and_a_null_are_config_errors(
        experiment, overrides, named, tmp_path, capsys):
    sets = [arg for value in overrides for arg in ("--set", value)]
    assert run(experiment, "--output-dir", str(tmp_path), *sets) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# every key each experiment reads in a section
READ_KEYS = [pytest.param(experiment, f"{section}.{key}", id=f"{experiment}-{section}.{key}")
             for experiment, schema in config.SCHEMA.items()
             for section, keys in schema.items() if isinstance(keys, dict) for key in keys]


@pytest.mark.parametrize("experiment, dotted", READ_KEYS)
def test_a_value_of_the_wrong_type_exits_2_before_the_run(experiment, dotted, tmp_path, capsys,
                                                           monkeypatch):
    # true is none of a string, an integer, a number and a list
    monkeypatch.setitem(cli.EXPERIMENTS, experiment, no_run)
    assert run(experiment, "--output-dir", str(tmp_path), "--set", f"{dotted}=true") == 2
    assert f"config error: {dotted} must be " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_the_echo_of_a_j_values_run_lists_no_other_grid_key(tmp_path, capsys):
    # J_start, J_stop and J_step are read only under scan.J_values=null
    assert run("fig1", "--output-dir", str(tmp_path), "--set", "scan.J_values=[0.5,1.0]",
               "--set", "scan.heatmap_samples=11") == 0
    capsys.readouterr()
    echo = json.loads((tmp_path / "fig1_manifest.json").read_text())["config"]["scan"]
    assert [key for key in echo if key.startswith("J_")] == ["J_values"]


@pytest.mark.parametrize("value", ["5", "null", "[1]"])
def test_an_output_dir_that_is_not_a_string_exits_2(value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LIOUVLAB_OUTPUT_DIR", raising=False)
    assert run("steady-state", "--set", f"output_dir={value}") == 2
    (tmp_path / "cfg.json").write_text(f'{{"output_dir": {value}}}')
    assert run("steady-state", "--config", "cfg.json") == 2
    err = capsys.readouterr().err
    assert err.count("config error: output_dir") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _benchmark_steps_and_shipped_configs():
    """(experiment, CLI arguments) of every benchmark step, tiny and full, and every config."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = [pytest.param(step.experiment, step.args(12345, tiny),
                         id=f"{name}-{'tiny' if tiny else 'full'}")
            for name, step in workloads.STEPS.items() for tiny in (True, False)]
    return runs + [pytest.param(json.loads(path.read_text())["experiment"],
                                ["--config", f"configs/{path.name}"], id=path.name)
                   for path in sorted((ROOT / "configs").glob("*.json"))]


@pytest.mark.parametrize("experiment, args", _benchmark_steps_and_shipped_configs())
def test_the_benchmark_steps_and_shipped_configs_resolve(experiment, args, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # they name their config files from the checkout's root
    resolved = []
    monkeypatch.setitem(cli.EXPERIMENTS, experiment, lambda cfg: resolved.append(cfg) or ({}, {}))
    assert run(experiment, *args, "--output-dir", str(tmp_path)) == 0
    assert [cfg.experiment for cfg in resolved] == [experiment]


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = run("steady-state", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_experiment_mismatch_exits_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "fig1"}))
    code = run("spectrum", "--config", str(config), "--output-dir", str(tmp_path))
    assert code == 2
    assert "config file is for experiment" in capsys.readouterr().err


def test_empty_scan_grid_exits_2(tmp_path, capsys):
    code = run("spectrum", "--output-dir", str(tmp_path), "--set", "scan.J_step=0")
    assert code == 2
    assert "J_step" in capsys.readouterr().err


def test_f_level_rate_on_a_qubit_exits_2(tmp_path, capsys):
    code = run("steady-state", "--output-dir", str(tmp_path), "--set", "system.gamma_f=3.0")
    assert code == 2
    assert "need dim 3" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, override", [
    ("steady-state", "system=null"),
    ("steady-state", "integrator=null"),
    ("steady-state", "ensemble=null"),
    ("steady-state", "scan=null"),
    ("ep-map", "scan.resolution=0"),
    ("ep-map", "scan.resolution=1.5"),
    ("ep-map", "scan.J_range=[1]"),
    ("ep-map", "scan.J_range=5"),
    ("ep-map", "scan.Delta_range=[-1, 0, 1]"),
    ("ep-map", "scan.J_range=[1.1, 0.05]"),
    ("ep-map", "scan.Delta_range=[1.1, -1.1]"),
    ("spectrum", "system.Delta=null"),
    ("spectrum", "scan.J_step=null"),
    ("fig1", "scan.J_start=null"),
    ("fig1", "scan.window=abc"),
    ("fig1", "scan.n_samples=2.5"),
    ("fig1", "scan.heatmap_samples=null"),
    ("fig4", "scan.heatmap_t_max=null"),
    ("fig1", "scan.heatmap_samples=-1"),
    ("fig1", "scan.window=-1"),
    ("fig1", "scan.window=NaN"),
    ("fig1", "scan.heatmap_t_max=Infinity"),
    ("fig1", "scan.n_samples=0"),
    ("fig1", "scan.n_samples=3"),
    ("fig4", "scan.n_samples=7"),
    ("fig4", "scan.heatmap_samples=0"),
    ("fig4", "scan.heatmap_t_max=0"),
    ("ep-map", "scan.J_range=[0.05, NaN]"),
    ("spectrum", "scan.J_values=abc"),
    ("sweeps", "scan.T_values=null"),
    ("sweeps", "scan.Delta_max_values=[1,null]"),
    ("fig2", "schedule.J_max=-1"),
    ("spectrum", "scan.J_values=[-1,0.5]"),
    ("spectrum", "scan.J_start=-0.5"),
    ("sweeps", "scan.T_values=[-1]"),
    ("fig1", "scan.J_step=1e-300"),
    ("fig2", "integrator.method=rk4"),
    ("trajectories", "ensemble.t_final=-1"),
    ("trajectories", "ensemble.t_final=0"),
    ("trajectories", "ensemble.t_final=0.5"),
    ("fig2", "ensemble.t_final=0.5"),
    ("ep-map", "scan.J_range=[-0.5, 1.1]"),
    ("fig2", "integrator.dt=1e-300"),
    ("fig2", "ensemble.dt=1e-300"),
    ("sweeps", "integrator.dt=1e-300"),
    ("trajectories", "ensemble.dt=1e-300"),
    pytest.param("trajectories", ("ensemble.master_seed=-1", "ensemble.n=10"),
                 id="trajectories-negative-master_seed"),
    ("fig2", "ensemble.master_seed=-5"),
    pytest.param("trajectories",
                 ("schedule=null", "ensemble.t_final=0.001", "ensemble.n=100001"),
                 id="trajectories-ensemble.n=100001"),
    ("ep-map", "system.dim=3"),
    ("fig1", "scan.heatmap_samples=1000000000000"),
    ("fig1", "scan.n_samples=1000000000000"),
    ("ep-map", "scan.resolution=10000000"),
    ("fig2", "integrator.dt=0"),
    ("fig2", "integrator.dt=-1"),
    ("fig2", "integrator.store_every=0"),
    pytest.param("fig1", ("scan.heatmap_samples=1000000", "scan.J_step=0.25"),
                 id="fig1-heatmap-table-above-the-cap"),
    pytest.param("fig1", ("scan.J_values=[0.5,1.0,1.5]", "scan.heatmap_samples=1",
                          f"scan.n_samples={config.MAX_TIME_STEPS // 2}"),
                 id="fig1-fit-states-above-the-cap"),
    pytest.param("spectrum", "scan.J_values=" + json.dumps([0.0] * (config.MAX_GRID_POINTS + 1)),
                 id="spectrum-J_values-above-the-cap"),
    pytest.param("steady-state", f"system.J={BIG}", id="steady-state-system.J-beyond-float"),
    pytest.param("sweeps", f"scan.T_values=[{BIG}]", id="sweeps-T_values-beyond-float"),
    pytest.param("ep-map", f"scan.J_range=[0,{BIG}]", id="ep-map-J_range-beyond-float"),
    pytest.param("fig1", f"scan.window={BIG}", id="fig1-window-beyond-float"),
])
def test_malformed_config_value_exits_2(experiment, override, tmp_path, capsys, monkeypatch):
    # every config check runs before the experiment is entered
    monkeypatch.setitem(cli.EXPERIMENTS, experiment, no_run)
    overrides = [override] if isinstance(override, str) else override
    sets = [arg for value in overrides for arg in ("--set", value)]
    code = run(experiment, "--output-dir", str(tmp_path), *sets)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment, override", [
    pytest.param("steady-state", f"system.J={BIG}", id="steady-state-system.J"),
    pytest.param("sweeps", f"scan.Delta_max_values=[1,{BIG}]", id="sweeps-Delta_max_values"),
])
def test_an_angular_value_beyond_float_exits_2_under_mhz_units(experiment, override, tmp_path, capsys):
    code = run(experiment, "--units", "mhz", "--set", override, "--output-dir", str(tmp_path))
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_spectrum_marks_the_ep_on_a_descending_grid(tmp_path, capsys):
    # the qubit EP of the default rates is at J = 0.525: within one spacing
    # (0.05) of 0.5 and 0.55, and 0.075 from the ends
    marks = {}
    # on an uneven grid the window is the smallest spacing (0.07), whatever the order
    for name, grid in (("up", "[0.45,0.5,0.55,0.6]"), ("down", "[0.6,0.55,0.5,0.45]"),
                       ("uneven_up", "[0.45,0.53,0.6]"), ("uneven_down", "[0.6,0.53,0.45]")):
        assert run("spectrum", "--set", f"scan.J_values={grid}",
                   "--output-dir", str(tmp_path / name)) == 0
        lines = (tmp_path / name / "spectrum.csv").read_text().splitlines()
        marks[name] = [line.split(",")[-1] for line in lines[1:]]
    capsys.readouterr()
    assert marks["up"] == ["0", "1", "1", "0"]
    assert marks["down"] == marks["up"][::-1]
    assert marks["uneven_up"] == ["0", "1", "0"]
    assert marks["uneven_down"] == ["0", "1", "0"]


def transition_scan(scan):
    """(J grid, heatmap samples, fit samples) of fig1 with this scan section."""
    cfg = config.resolve({"scan": scan}, "fig1")
    return cfg.J_grid, cfg.scan["heatmap_samples"], cfg.scan["n_samples"]


def test_j_grid_rejects_a_grid_above_the_cap():
    cap = config.MAX_GRID_POINTS

    def grid(scan):
        return config.resolve({"scan": scan}, "spectrum").J_grid

    assert len(grid({"J_start": 0.0, "J_stop": cap - 1.0, "J_step": 1.0})) == cap
    assert len(grid({"J_values": [0.0] * cap})) == cap
    with pytest.raises(ConfigError, match=f"more than {cap} points"):
        grid({"J_start": 0.0, "J_stop": float(cap), "J_step": 1.0})


def test_transition_scan_caps_the_heatmap_table():
    # each J stack stores one state per J point and sample: the heatmap's and the fit's
    cap = config.MAX_TIME_STEPS
    scan = {"J_values": [0.5, 1.0], "heatmap_t_max": 1.0, "window": 1.0,
            "heatmap_samples": cap // 2, "n_samples": 10}
    J, heatmap_samples, _n_samples = transition_scan(scan)
    assert len(J) * heatmap_samples == cap
    with pytest.raises(ConfigError, match=f"more than {cap} stored states"):
        transition_scan({**scan, "heatmap_samples": cap // 2 + 1})
    fit = {**scan, "heatmap_samples": 10, "n_samples": cap // 2}
    J, _heatmap_samples, n_samples = transition_scan(fit)
    assert len(J) * n_samples == cap
    with pytest.raises(ConfigError, match=f"more than {cap} stored states"):
        transition_scan({**fit, "n_samples": cap // 2 + 1})


def test_transition_scan_takes_no_fewer_fit_samples_than_a_fit_needs():
    scan = {"J_values": [0.5, 1.0], "heatmap_t_max": 1.0, "window": 1.0,
            "heatmap_samples": 10, "n_samples": analysis.MIN_FIT_SAMPLES}
    assert transition_scan(scan)[2] == analysis.MIN_FIT_SAMPLES
    with pytest.raises(ConfigError, match="scan.n_samples must be at least 8"):
        transition_scan({**scan, "n_samples": analysis.MIN_FIT_SAMPLES - 1})


@pytest.mark.parametrize("experiment", ["fig1", "fig4"])
def test_transition_figures_build_their_generator_stack_once(tmp_path, monkeypatch, experiment):
    built = []
    stack = cli.superoperator_stack

    def counted(ops):
        built.append(len(ops.hamiltonians))
        return stack(ops)

    monkeypatch.setattr(cli, "superoperator_stack", counted)
    assert run(experiment, "--set", "scan.J_values=[0.5, 1.2]", "--set", "scan.heatmap_samples=11",
               "--output-dir", str(tmp_path)) == 0
    assert built == [2]


def test_sweeps_makes_one_sweep_per_loop_list_and_each_run_stores_two_states(tmp_path, monkeypatch):
    loop_lists, runs = [], []
    sweep, integrate = cli.analysis.sweep_metrics, cli.analysis.integrate_scheduled

    def recorded_sweep(system, loops, rho0, dt):
        loop_lists.append([(loop.T, loop.Delta_max, loop.gamma_e_schedule) for loop in loops])
        return sweep(system, loops, rho0, dt)

    monkeypatch.setattr(cli.analysis, "sweep_metrics", recorded_sweep)
    monkeypatch.setattr(cli.analysis, "integrate_scheduled",
                        lambda *args, **kwargs: runs.append(integrate(*args, **kwargs)) or runs[-1])
    assert run("sweeps", "--set", "schedule.T=1.0", "--set", "scan.T_values=[0.5, 1.0]",
               "--set", "scan.Delta_max_values=[3.0, 6.0]", "--output-dir", str(tmp_path)) == 0
    D = 10.0 * math.pi  # the default schedule.Delta_max
    assert loop_lists == [
        [(0.5, D, "constant"), (1.0, D, "constant")],
        [(1.0, 3.0, "constant"), (1.0, 6.0, "constant")],
        [(1.0, D, "constant"), (1.0, D, "cosine")],
    ]
    assert all(type(T) is float and type(Delta_max) is float
               for loops in loop_lists for T, Delta_max, _ in loops)
    assert [evo.states.shape[0] for evo in runs] == [2] * 12


def test_transition_scan_rejects_sample_counts_above_the_cap():
    cap = config.MAX_TIME_STEPS
    scan = {"J_values": [0.5], "heatmap_t_max": 1.0, "window": 1.0,
            "heatmap_samples": cap, "n_samples": cap}
    _J, heatmap_samples, n_samples = transition_scan(scan)
    assert heatmap_samples == n_samples == cap
    for key in ("heatmap_samples", "n_samples"):
        with pytest.raises(ConfigError, match=f"between 1 and {cap}"):
            transition_scan({**scan, key: cap + 1})


def test_ep_map_resolution_rejects_a_grid_above_the_cap():
    cap = config.MAX_GRID_POINTS
    side = math.isqrt(cap)  # 100

    def checked(J_range, Delta_range, resolution):
        scan = {"J_range": J_range, "Delta_range": Delta_range, "resolution": resolution}
        return config.resolve({"scan": scan}, "ep-map").scan["resolution"]

    plane = {"J_range": [0.0, 1.0], "Delta_range": [-1.0, 1.0]}
    assert checked(*plane.values(), side) == side
    with pytest.raises(ConfigError, match=f"more than {cap} grid points"):
        checked(*plane.values(), side + 1)
    # a range with equal endpoints scans one row: the grid has `resolution` points
    assert checked([0.0, 1.0], [0.0, 0.0], cap) == cap
    with pytest.raises(ConfigError, match=f"more than {cap} grid points"):
        checked([0.0, 1.0], [0.0, 0.0], cap + 1)


def test_check_steps_rejects_a_run_above_the_cap():
    # sweeps runs about T/integrator.dt steps per loop
    cap = config.MAX_TIME_STEPS

    def sweeps(T):
        return {"schedule": {"T": T}, "integrator": {"dt": 1.0}, "scan": {"T_values": [1.0]}}

    config.resolve(sweeps(float(cap)), "sweeps")
    with pytest.raises(ConfigError, match=f"more than {cap} steps"):
        config.resolve(sweeps(cap + 1.0), "sweeps")


@pytest.mark.parametrize("overrides, ep3", [
    (["system.gamma_e=0"], []),
    (["system.gamma_e=0", "system.gamma_phi=0.5", "scan.J_range=[0,1.1]"],
     [[0.13608276348795434, -0.09622504486493763], [0.13608276348795434, 0.09622504486493763]]),
], ids=["no-dissipation", "dephasing-only"])
def test_ep_map_without_a_decaying_trio_exits_0(overrides, ep3, tmp_path):
    sets = [arg for o in overrides + ["scan.resolution=5"] for arg in ("--set", o)]
    assert run("ep-map", "--output-dir", str(tmp_path), *sets) == 0
    summary = json.loads((tmp_path / "ep_map_summary.json").read_text())
    assert summary["ep3_points"] == ep3


def test_degenerate_steady_state_exits_3(tmp_path, capsys):
    code = run("steady-state", "--output-dir", str(tmp_path),
               "--set", "system.gamma_e=0", "--set", "system.gamma_phi=0.5",
               "--set", "system.J=0")
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "DegenerateSteadyState" in err


def test_bad_units_value_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("spectrum", "--units", "ghz", "--output-dir", str(tmp_path))
    assert exc.value.code == 2


# --- reproducibility ---------------------------------------------------------------


def spectrum_args(out_dir, *extra):
    return ("spectrum", "--output-dir", str(out_dir),
            "--set", "scan.J_stop=0.8", "--set", "scan.J_step=0.1", *extra)


def test_reruns_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run(*spectrum_args(d1)) == 0
    assert run(*spectrum_args(d2)) == 0
    capsys.readouterr()
    assert (d1 / "spectrum.csv").read_bytes() == (d2 / "spectrum.csv").read_bytes()
    m1 = json.loads((d1 / "spectrum_manifest.json").read_text())
    m2 = json.loads((d2 / "spectrum_manifest.json").read_text())
    assert m1["files"] == m2["files"]  # same names, hashes, sizes

    def without_output_dir(cfg):
        cfg = json.loads(json.dumps(cfg))
        cfg.pop("output_dir", None)
        cfg.get("output", {}).pop("output_dir", None)
        return cfg

    # the target directory is the one input that legitimately differs
    assert without_output_dir(m1["config"]) == without_output_dir(m2["config"])


def test_spectrum_reads_its_detuning_from_system_delta(tmp_path, capsys):
    assert run(*spectrum_args(tmp_path / "d3", "--set", "system.Delta=3")) == 0
    assert run(*spectrum_args(tmp_path / "d0")) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "d3" / "spectrum_summary.json").read_text())["Delta"] == 3.0
    csv = (tmp_path / "d3" / "spectrum.csv").read_bytes()
    assert csv != (tmp_path / "d0" / "spectrum.csv").read_bytes()
    rates = liouvlab.Rates(gamma_e=4.4, gamma_phi=0.1)  # spectrum's defaults
    for J, *cells in np.loadtxt(csv.decode().splitlines()[1:], delimiter=","):
        system = liouvlab.make_system(liouvlab.DriveParams(J=J, Delta=3.0), rates)
        expected = np.linalg.eigvals(liouvlab.build_superoperator(system))
        written = np.array(cells[:4]) + 1j * np.array(cells[4:8])
        gaps = np.abs(written[:, None] - expected[None, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-9


def test_mhz_units_scale_into_the_rad_pipeline(tmp_path, capsys):
    # 1 MHz scales to 2 pi rad/us; literals below are the exact binary floats
    rad = tmp_path / "rad"
    mhz = tmp_path / "mhz"
    two_pi = repr(2.0 * math.pi)
    quarter = repr(0.25 * 2.0 * math.pi)
    assert run("spectrum", "--output-dir", str(rad),
               "--set", f"scan.J_stop={two_pi}", "--set", f"scan.J_step={quarter}") == 0
    assert run("spectrum", "--output-dir", str(mhz), "--units", "mhz",
               "--set", "scan.J_stop=1", "--set", "scan.J_step=0.25") == 0
    capsys.readouterr()
    assert (rad / "spectrum.csv").read_bytes() == (mhz / "spectrum.csv").read_bytes()


def test_environment_variable_plumbing(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("LIOUVLAB_OUTPUT_DIR", str(env_dir))
    assert run("steady-state") == 0
    assert (env_dir / "steady_state_manifest.json").exists()

    flag_dir = tmp_path / "from_flag"
    assert run("steady-state", "--output-dir", str(flag_dir)) == 0
    assert (flag_dir / "steady_state_manifest.json").exists()


def test_constant_parameter_trajectories_via_schedule_null(tmp_path, capsys):
    code = run("trajectories", "--output-dir", str(tmp_path),
               "--set", "schedule=null", "--set", "ensemble.t_final=1.0",
               "--set", "ensemble.n=50", "--set", "system.gamma_e=4.4",
               "--set", "system.gamma_phi=0", "--set", "system.J=0")
    assert code == 0
    capsys.readouterr()
    single = (tmp_path / "trajectories_single.csv").read_bytes().decode()
    assert single.split("\r\n")[0] == "t,x,y,z"
    summary = json.loads((tmp_path / "trajectories_summary.json").read_text())
    assert set(summary["jump_count_histogram"]) <= {"e"}
    assert summary["max_trace_distance"] < 0.2


def test_scheduled_trajectories_accept_a_loop_that_is_not_a_whole_number_of_steps(
        tmp_path, capsys):
    code = run("trajectories", "--output-dir", str(tmp_path),
               "--set", "schedule.T=1.0002", "--set", "ensemble.n=10")
    assert code == 0, capsys.readouterr().err
    rows = (tmp_path / "trajectories_ensemble.csv").read_text().split()
    assert float(rows[-1].split(",")[0]) == pytest.approx(1.0002, abs=1e-12)


def test_constant_trajectories_require_a_duration(tmp_path, capsys):
    code = run("trajectories", "--output-dir", str(tmp_path), "--set", "schedule=null")
    assert code == 2
    assert "t_final" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, key", [
    ("fig2", "trajectory_jumps"), ("trajectories", "single_trajectory_jumps")])
def test_the_shown_trajectory_is_trajectory_0_of_the_ensemble(experiment, key, tmp_path, capsys):
    sets = ["schedule.T=1.0", "ensemble.n=20", "ensemble.dt=0.001", "ensemble.master_seed=4"]
    assert run(experiment, "--output-dir", str(tmp_path),
               *[arg for value in sets for arg in ("--set", value)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / f"{experiment}_summary.json").read_text())
    ens = liouvlab.run_ensemble(
        liouvlab.make_system(liouvlab.DriveParams(J=0.0), liouvlab.Rates(gamma_e=4.6, gamma_phi=0.2)),
        liouvlab.ParameterSchedule(T=1.0), liouvlab.plus_x(), dt=0.001, n=20, master_seed=4)
    assert ens.jumps_per_trajectory[0]
    assert summary[key] == [[t, label] for t, label in ens.jumps_per_trajectory[0]]


def test_a_coarse_ensemble_dt_runs_the_scheduled_step_minimum(tmp_path, capsys):
    # T = 2 at dt = 0.01 is 200 steps; the MCWF runs and their Lindblad reference
    # both take the scheduled minimum of 1,000 steps of 2 ms, stored every 20th
    code = run("trajectories", "--output-dir", str(tmp_path),
               "--set", "ensemble.dt=0.01", "--set", "ensemble.n=10")
    assert code == 0, capsys.readouterr().err
    for name in ("trajectories_single.csv", "trajectories_ensemble.csv"):
        times = [float(row.split(",")[0]) for row in (tmp_path / name).read_text().split()[1:]]
        assert len(times) == 51
        assert times[1] == pytest.approx(0.04, abs=1e-12)
        assert times[-1] == pytest.approx(2.0, abs=1e-12)


# One small run of each experiment, for the checks of what a run loads.
SMALL_RUNS = [
    ["spectrum", "--set", "scan.J_stop=0.5"],
    ["ep-map", "--set", "scan.resolution=5"],
    ["fig1", "--set", "scan.J_values=[0.3, 0.9]", "--set", "scan.heatmap_samples=11"],
    ["fig2", "--set", "ensemble.n=10"],
    ["fig4", "--set", "scan.J_values=[0.9, 1.3]", "--set", "scan.heatmap_samples=11"],
    ["sweeps", "--set", "scan.T_values=[0.25]", "--set", "scan.Delta_max_values=[3.0]"],
    ["steady-state"],
    ["trajectories", "--set", "ensemble.n=10"],
]

# No run loads SciPy: branch pairing and the damped-sine fits are numpy only.
# numpy.random is loaded by no run: the MCWF streams are liouvlab's own.
NOT_LOADED_SCRIPT = """
import json
import sys
from pathlib import Path

from liouvlab import cli

out, package, runs = Path(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])

def loaded():
    return sorted(name for name in sys.modules
                  if name == package or name.startswith(package + "."))

assert loaded() == [], ("import", loaded())
for args in runs:
    assert cli.main([*args, "--output-dir", str(out / args[0])]) == 0, args[0]
    assert loaded() == [], (args[0], loaded())
"""


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(liouvlab.__file__).resolve().parents[1]))


def _run_not_loaded_script(tmp_path, package):
    proc = subprocess.run(
        [sys.executable, "-c", NOT_LOADED_SCRIPT, str(tmp_path), package, json.dumps(SMALL_RUNS)],
        env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_the_small_runs_name_every_experiment_once():
    assert sorted(args[0] for args in SMALL_RUNS) == sorted(cli.EXPERIMENTS)


def test_runs_without_fits_load_no_scipy(tmp_path):
    _run_not_loaded_script(tmp_path, "scipy")


def test_no_run_loads_numpy_random(tmp_path):
    _run_not_loaded_script(tmp_path, "numpy.random")


# hashlib maps OpenSSL's libcrypto (_hashlib); the manifest hashes with
# CPython's builtin SHA-256, so no run loads it, manifest included
HASHLIB_SCRIPT = """
import sys

from liouvlab import cli, io

build_manifest, built = io.build_manifest, []

def recording(*args, **kwargs):
    built.append(build_manifest(*args, **kwargs))
    return built[-1]

io.build_manifest = recording
assert cli.main(sys.argv[2:] + ["--output-dir", sys.argv[1]]) == 0
assert len(built) == 1 and built[0]["files"], built
assert "_hashlib" not in sys.modules
"""


@pytest.mark.parametrize("args", SMALL_RUNS, ids=[args[0] for args in SMALL_RUNS])
def test_no_run_loads_openssl_before_it_hashes_its_outputs(args, tmp_path):
    proc = subprocess.run([sys.executable, "-c", HASHLIB_SCRIPT, str(tmp_path), *args],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the manifest's digests are hashlib's, file by file
    manifest = json.loads((tmp_path / f"{args[0].replace('-', '_')}_manifest.json").read_text())
    assert manifest["files"]
    for entry in manifest["files"]:
        data = (tmp_path / entry["name"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest(), entry["name"]
        assert entry["bytes"] == len(data)


# main freezes the heap it is entered with (conftest unfreezes it after each
# test), so the import heap is not traversed again by the run or at exit
FREEZE_SCRIPT = """
import gc
import sys

from liouvlab import cli

assert gc.get_freeze_count() == 0  # importing the package leaves the collector alone
n0 = len(gc.get_objects())
assert cli.main(["steady-state", "--output-dir", sys.argv[1]]) == 0
print(n0, gc.get_freeze_count())
"""


def test_main_freezes_every_object_the_imports_left_tracked(tmp_path):
    proc = subprocess.run([sys.executable, "-c", FREEZE_SCRIPT, str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    n0, frozen = map(int, proc.stdout.split()[-2:])
    assert frozen >= n0 > 0


def test_an_in_process_run_freezes_the_heap(tmp_path, capsys):
    assert run("steady-state", "--output-dir", str(tmp_path)) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() > 0


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("args", [
    ["ep-map", "--set", "scan.resolution=21"],  # 441 grid points
    ["spectrum", "--set", "system.dim=3"],  # 401 J points
    ["fig2", "--config", str(ROOT / "configs" / "fig2_fast.json")],  # scheduled Lindblad and MCWF
    ["trajectories", "--set", "ensemble.n=50"],  # scheduled MCWF with its Lindblad reference
    ["fig1"],  # the fits, and one stacked eigensolve and solve for the predictions
    ["fig4"],
], ids=["ep-map", "spectrum-qutrit", "fig2-fast", "trajectories", "fig1", "fig4"])
def test_datasets_are_byte_identical_at_one_and_two_blas_threads(args, tmp_path):
    # both grids are longer than one GRID_BLOCK, so each grid run is cut into blocks
    assert lv.GRID_BLOCK < 401
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(_child_env(), **{name: threads for name in BLAS_THREAD_VARIABLES})
        proc = subprocess.run([sys.executable, "-m", "liouvlab.cli", *args, "--output-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(next(out.glob("*_manifest.json")).read_text())
        hashes.append({entry["name"]: entry["sha256"] for entry in manifest["files"]})
    assert hashes[0] == hashes[1]


def test_spectrum_is_the_same_in_any_grid_block(tmp_path, monkeypatch, capsys):
    for block in (7, 10**9):
        monkeypatch.setattr(lv, "GRID_BLOCK", block)
        assert run("spectrum", "--set", "system.dim=3", "--output-dir", str(tmp_path / str(block))) == 0
    capsys.readouterr()
    assert ((tmp_path / "7" / "spectrum.csv").read_bytes()
            == (tmp_path / str(10**9) / "spectrum.csv").read_bytes())


# spectrum and ep-map build and eigensolve their grids GRID_BLOCK points at a
# time, so their peaks do not grow with the grid. Each bound is the peak
# measured on a Linux x86-64 box with numpy 2.4 and OpenBLAS (38.9 MB and
# 36.5 MB) plus a margin of about 7 MB; built whole, the same grids peak at
# 74 MB and 48 MB.
PEAK_SCRIPT = """
import sys

from liouvlab import cli

assert cli.main(sys.argv[2:] + ["--output-dir", sys.argv[1]]) == 0
# VmHWM is this process's own peak; ru_maxrss would keep the peak of the process it was forked from
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))  # kB
"""
GRID_CAP_RSS_BOUND_MB = 46.0
EP_MAP_100_RSS_BOUND_MB = 43.0


def _peak_mb(tmp_path, *args) -> float:
    proc = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, str(tmp_path), *args],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024.0


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_qutrit_spectrum_at_the_grid_cap_stays_under_its_memory_bound(tmp_path):
    cap = config.MAX_GRID_POINTS
    peak = _peak_mb(tmp_path, "spectrum", "--set", "system.dim=3", "--set", "scan.J_start=0",
                    "--set", f"scan.J_stop={(cap - 1) * 2e-4}", "--set", "scan.J_step=2e-4")
    with open(tmp_path / "spectrum.csv") as fh:
        assert sum(1 for _ in fh) == cap + 1  # the header and one row per J
    assert peak < GRID_CAP_RSS_BOUND_MB


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_ep_map_at_resolution_100_stays_under_its_memory_bound(tmp_path):
    peak = _peak_mb(tmp_path, "ep-map", "--set", "scan.resolution=100")
    with open(tmp_path / "ep_map_grid.csv") as fh:
        assert sum(1 for _ in fh) == 100 * 100 + 1
    assert peak < EP_MAP_100_RSS_BOUND_MB
