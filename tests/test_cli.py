import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liouvlab
from liouvlab import __version__, cli
from liouvlab.errors import ConfigError
from liouvlab.io import validate_manifest


def run(*argv):
    return cli.main(list(argv))


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("experiment", sorted(TINY_RUNS))
def test_run_writes_its_fixed_file_set(experiment, fmt, tmp_path, capsys):
    extra, csv_names = TINY_RUNS[experiment]
    stem = experiment.replace("-", "_")
    datasets = csv_names if fmt == "csv" else [f"{stem}_summary.json"]
    code = run(experiment, "--output-dir", str(tmp_path), "--formats", fmt, *extra)
    out = capsys.readouterr().out
    assert code == 0
    written = datasets + [f"{stem}_manifest.json"]
    assert {p.name for p in tmp_path.iterdir()} == set(written)
    assert [line.split("/")[-1] for line in out.splitlines() if line.startswith("wrote ")] == written
    manifest = json.loads((tmp_path / f"{stem}_manifest.json").read_text())
    validate_manifest(manifest)
    assert [e["name"] for e in manifest["files"]] == datasets
    if fmt == "json" and experiment in ("fig1", "fig4"):
        summary = json.loads((tmp_path / datasets[0]).read_text())
        assert summary["n_fits_unconverged"] == 0


def test_config_file_and_override_flow(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "experiment": "steady-state",
        "system": {"gamma_e": 4.0, "gamma_phi": 0.0, "J": 1.0},
    }))
    out_dir = tmp_path / "out"
    code = run("steady-state", "--config", str(config),
               "--output-dir", str(out_dir), "--formats", "csv")
    assert code == 0
    capsys.readouterr()
    # csv only: no summary json, manifest still written
    assert {p.name for p in out_dir.iterdir()} == {
        "steady_state.csv", "steady_state_spectrum.csv", "steady_state_manifest.json"}
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
    ("spectrum", "scan.Delta=null"),
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
    ("ep-map", "scan.J_range=[-0.5, 1.1]"),
    ("fig2", "integrator.dt=1e-300"),
    ("fig2", "ensemble.dt=1e-300"),
    ("sweeps", "integrator.dt=1e-300"),
    ("trajectories", "ensemble.dt=1e-300"),
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
])
def test_malformed_config_value_exits_2(experiment, override, tmp_path, capsys, monkeypatch):
    # a run that gets past its config checks fails here, before it allocates
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "integrate_constant", no_run)
    overrides = [override] if isinstance(override, str) else override
    sets = [arg for value in overrides for arg in ("--set", value)]
    code = run(experiment, "--output-dir", str(tmp_path), *sets)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_j_grid_rejects_a_grid_above_the_cap():
    cap = cli.MAX_GRID_POINTS
    assert len(cli._j_grid({"J_start": 0.0, "J_stop": cap - 1.0, "J_step": 1.0})) == cap
    with pytest.raises(ConfigError, match=f"more than {cap} points"):
        cli._j_grid({"J_start": 0.0, "J_stop": float(cap), "J_step": 1.0})


def test_transition_scan_caps_the_heatmap_table():
    cap = cli.MAX_TIME_STEPS
    scan = {"J_values": [0.5, 1.0], "heatmap_t_max": 1.0, "window": 1.0,
            "heatmap_samples": cap // 2, "n_samples": 10}
    J, t_heatmap, _window, _n_samples = cli._transition_scan(scan)
    assert len(J) * len(t_heatmap) == cap
    with pytest.raises(ConfigError, match=f"more than {cap} heatmap rows"):
        cli._transition_scan({**scan, "heatmap_samples": cap // 2 + 1})


def test_transition_scan_rejects_sample_counts_above_the_cap():
    cap = cli.MAX_TIME_STEPS
    scan = {"J_values": [0.5], "heatmap_t_max": 1.0, "window": 1.0,
            "heatmap_samples": cap, "n_samples": cap}
    _J, t_heatmap, _window, n_samples = cli._transition_scan(scan)
    assert len(t_heatmap) == n_samples == cap
    for key in ("heatmap_samples", "n_samples"):
        with pytest.raises(ConfigError, match=f"between 1 and {cap}"):
            cli._transition_scan({**scan, key: cap + 1})


def test_ep_map_resolution_rejects_a_grid_above_the_cap():
    cap = cli.MAX_GRID_POINTS
    side = math.isqrt(cap)  # 316
    plane = {"J_range": (0.0, 1.0), "Delta_range": (-1.0, 1.0)}
    assert cli._resolution({"resolution": side}, *plane.values()) == side
    with pytest.raises(ConfigError, match=f"more than {cap} grid points"):
        cli._resolution({"resolution": side + 1}, *plane.values())
    # a range with equal endpoints scans one row: the grid has `resolution` points
    assert cli._resolution({"resolution": cap}, (0.0, 1.0), (0.0, 0.0)) == cap
    with pytest.raises(ConfigError, match=f"more than {cap} grid points"):
        cli._resolution({"resolution": cap + 1}, (0.0, 1.0), (0.0, 0.0))


def test_check_steps_rejects_a_run_above_the_cap():
    cap = cli.MAX_TIME_STEPS
    cli._check_steps(float(cap), 1.0, "integrator.dt")
    with pytest.raises(ConfigError, match=f"more than {cap} steps"):
        cli._check_steps(cap + 1.0, 1.0, "integrator.dt")


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


# SciPy is loaded only where a damped-sine fit or branch pairing runs
NO_SCIPY_SCRIPT = """
import sys
from pathlib import Path

from liouvlab import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

out = Path(sys.argv[1])
assert scipy_modules() == [], ("import", scipy_modules())
for args in (
    ["sweeps", "--set", "scan.T_values=[0.25]", "--set", "scan.Delta_max_values=[3.0]"],
    ["trajectories", "--set", "ensemble.n=10"],
    ["ep-map", "--set", "scan.resolution=5"],
):
    assert cli.main([*args, "--output-dir", str(out / args[0])]) == 0, args[0]
    assert scipy_modules() == [], (args[0], scipy_modules())
assert cli.main(["fig1", "--set", "scan.J_values=[0.5]", "--set", "scan.heatmap_samples=11",
                 "--output-dir", str(out / "fig1")]) == 0
assert "scipy.optimize" in sys.modules
"""


def test_runs_without_fits_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(liouvlab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
