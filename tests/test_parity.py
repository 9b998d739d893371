import importlib.util
import json
from pathlib import Path

import pytest

from liouvlab import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_runs(root: Path, runs: dict) -> Path:
    """One run directory per entry, each with a manifest of {file name: sha256}."""
    for run_name, hashes in runs.items():
        (root / run_name).mkdir(parents=True)
        files = [{"name": name, "sha256": digest} for name, digest in hashes.items()]
        (root / run_name / "exp_manifest.json").write_text(json.dumps({"files": files}))
    return root


RUNS = {
    "default-fig1": {"fig1_heatmap.csv": "aa", "fig1_summary.json": "bb"},
    "default-sweeps": {"sweeps_duration.csv": "cc"},
}


def test_identical_hashes_exit_0(parity, tmp_path, capsys):
    base = write_runs(tmp_path / "base", RUNS)
    other = write_runs(tmp_path / "other", RUNS)
    assert parity.compare(base, other) == 0
    assert "3 datasets identical, 0 differ, over 2 runs" in capsys.readouterr().out


def test_a_changed_hash_exits_1_and_names_the_file(parity, tmp_path, capsys):
    base = write_runs(tmp_path / "base", RUNS)
    changed = dict(RUNS, **{"default-sweeps": {"sweeps_duration.csv": "dd"}})
    other = write_runs(tmp_path / "other", changed)
    assert parity.compare(base, other) == 1
    out = capsys.readouterr().out
    assert "DIFF default-sweeps/sweeps_duration.csv: differs" in out
    assert "2 datasets identical, 1 differ" in out


def test_a_missing_run_exits_1(parity, tmp_path, capsys):
    base = write_runs(tmp_path / "base", RUNS)
    other = write_runs(tmp_path / "other", {"default-fig1": RUNS["default-fig1"]})
    assert parity.compare(base, other) == 1
    assert "DIFF default-sweeps: run missing" in capsys.readouterr().out


def test_a_missing_dataset_exits_1_and_names_the_side_that_lacks_it(parity, tmp_path, capsys):
    base = write_runs(tmp_path / "base", RUNS)
    fewer = dict(RUNS, **{"default-fig1": {"fig1_heatmap.csv": "aa"}})
    other = write_runs(tmp_path / "other", fewer)
    assert parity.compare(base, other) == 1
    out = capsys.readouterr().out
    assert f"DIFF default-fig1/fig1_summary.json: missing in {other}" in out
    assert "2 datasets identical, 1 differ" in out


def test_a_differing_dataset_is_quantified_by_cells_and_largest_difference(
        parity, tmp_path, capsys):
    files = {"fig1_transition.csv": ("J,omega_fit\r\n0.5,1.25\r\n1,2\r\n",
                                     "J,omega_fit\r\n0.5,1.5\r\n1,2.000001\r\n"),
             "fig1_summary.json": ('{"cuts": [0.1, 1.8], "j_ep": 0.55, "name": "a"}',
                                   '{"cuts": [0.1, 1.9], "j_ep": 0.55, "name": "b"}')}
    base = write_runs(tmp_path / "base", {"default-fig1": {name: "aa" for name in files}})
    other = write_runs(tmp_path / "other", {"default-fig1": {name: "bb" for name in files}})
    for name, (text_base, text_other) in files.items():
        (base / "default-fig1" / name).write_text(text_base)
        (other / "default-fig1" / name).write_text(text_other)
    assert parity.compare(base, other) == 1
    out = capsys.readouterr().out
    assert ("DIFF default-fig1/fig1_transition.csv: differs, 2 of 4 cells, "
            "largest |difference| 0.25 in omega_fit") in out
    assert ("DIFF default-fig1/fig1_summary.json: differs, 2 of 4 cells, "
            "largest |difference| 0.1 in cuts[1]") in out
    assert "0 datasets identical, 2 differ" in out


def test_cells_are_matched_by_column_name_and_changed_columns_are_named(parity, tmp_path, capsys):
    # gamma_fast_fit is inserted before omega_pred, as a change of the fig1 table did; matched by
    # position, omega_pred's 0 would be compared with gamma_fast_fit's 4.5 and named instead
    files = {"fig1_transition.csv": ("J,gamma_fit,omega_pred\r\n0.1,4.0,0\r\n0.2,3.5,0\r\n",
                                     "J,gamma_fit,gamma_fast_fit,omega_pred\r\n"
                                     "0.1,2.0,4.0,0\r\n0.2,3.5,4.5,0\r\n"),
             "fig1_cuts.csv": ("J,a,b,c\r\n1,2,3,4\r\n", "J,c\r\n1,4\r\n")}
    base = write_runs(tmp_path / "base", {"default-fig1": {name: "aa" for name in files}})
    other = write_runs(tmp_path / "other", {"default-fig1": {name: "bb" for name in files}})
    for name, (text_base, text_other) in files.items():
        (base / "default-fig1" / name).write_text(text_base)
        (other / "default-fig1" / name).write_text(text_other)
    assert parity.compare(base, other) == 1
    out = capsys.readouterr().out
    assert ("DIFF default-fig1/fig1_transition.csv: differs, 3 of 8 cells, "
            "added column gamma_fast_fit, largest |difference| 2 in gamma_fit") in out
    assert "DIFF default-fig1/fig1_cuts.csv: differs, 2 of 4 cells, removed columns a, b\n" in out


def test_the_run_list_names_every_cli_experiment_once(parity):
    # a new experiment missing here would skip the byte-parity check unnoticed
    assert sorted(parity.EXPERIMENTS) == sorted(cli.EXPERIMENTS)


@pytest.mark.parametrize("argv, threads", [([], "1"), (["--blas-threads", "2"], "2")])
def test_run_sets_every_blas_thread_variable_of_its_children(parity, tmp_path, monkeypatch,
                                                            capsys, argv, threads):
    envs = []

    def fake_run(cmd, env, **kwargs):
        envs.append(env)
        return parity.subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(parity.subprocess, "run", fake_run)
    assert parity.main(["run", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    assert len(envs) == len(parity._runs(SCRIPT.parents[1]))
    assert all(env[name] == threads for env in envs for name in parity.BLAS_THREAD_VARIABLES)


def test_run_rejects_fewer_than_one_blas_thread(parity, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        parity.main(["run", str(tmp_path), "--blas-threads", "0"])
    assert exc.value.code == 2
    assert "--blas-threads" in capsys.readouterr().err
