"""scripts/plot_figures.py renders the default runs of `parity.py run` with a stub pyplot.

matplotlib is an optional extra, so the stub stands in for it: each plotter
runs on small runs written as OUT/default-<experiment>/, which checks every
CSV path and column it reads, and its figures are recorded, not drawn.
"""

import importlib.util
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from liouvlab import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "plot_figures.py"

# small runs of the plotted experiments, as parity.py run names them
SMALL_RUNS = {
    "spectrum": ["--set", "scan.J_stop=0.5"],
    "ep-map": ["--set", "scan.resolution=5"],
    "fig1": ["--set", "scan.J_values=[0.3, 0.9]", "--set", "scan.heatmap_samples=11"],
    "fig2": ["--set", "ensemble.n=10"],
    "fig4": ["--set", "scan.J_values=[0.9, 1.3]", "--set", "scan.heatmap_samples=11"],
    "sweeps": ["--set", "scan.T_values=[0.25, 0.5]", "--set", "scan.Delta_max_values=[3.0, 6.0]"],
}
FIGURES = {
    "spectrum": ["spectrum.png"],
    "ep-map": ["ep_map.png"],
    "fig1": ["fig1_heatmap.png", "fig1_transition.png"],
    "fig2": ["fig2_bloch.png", "fig2_ensemble.png"],
    "fig4": ["fig4_coherence.png", "fig4_transition.png"],
    "sweeps": ["sweeps.png"],
}


@pytest.fixture(scope="module")
def plot_figures():
    spec = importlib.util.spec_from_file_location("plot_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    root = tmp_path_factory.mktemp("out")
    for experiment, args in SMALL_RUNS.items():
        assert cli.main([experiment, *args, "--output-dir", str(root / f"default-{experiment}")]) == 0
    return root


class _Anything:
    """Takes any method call, with any arguments, and returns another _Anything."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: _Anything()


class _Figure(_Anything):
    def __init__(self, saved: list):
        self._saved = saved

    def savefig(self, path, **kwargs):
        self._saved.append(Path(path))


@pytest.fixture
def saved(monkeypatch):
    """Installs a stub matplotlib whose figures record the paths they are saved to."""
    paths: list[Path] = []

    def subplots(nrows=1, ncols=1, **kwargs):
        if nrows == ncols == 1:
            return _Figure(paths), _Anything()
        axes = np.empty(nrows * ncols, dtype=object)
        for k in range(axes.size):
            axes[k] = _Anything()
        return _Figure(paths), axes.reshape(nrows, ncols).squeeze()

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return paths


def test_every_plotter_reads_its_default_run_and_saves_its_figures(plot_figures, out, saved,
                                                                    monkeypatch, capsys):
    assert list(plot_figures.PLOTTERS) == list(SMALL_RUNS)
    read = []
    read_csv = plot_figures.read_csv
    monkeypatch.setattr(plot_figures, "read_csv", lambda path: read.append(path) or read_csv(path))
    assert plot_figures.main(["--output-root", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"plotted {name}" for name in SMALL_RUNS]
    assert saved == [out / f"default-{name}" / figure
                     for name, figures in FIGURES.items() for figure in figures]
    # every dataset a plotter reads is one that its run wrote
    assert read and all(path.is_file() and path.parent.name.startswith("default-") for path in read)


class _Columns(dict):
    """A read_csv result that records the name of each column a plotter reads."""

    def __init__(self, columns: dict, seen: set):
        super().__init__(columns)
        self._seen = seen

    def __getitem__(self, name):
        self._seen.add(name)
        return super().__getitem__(name)


def test_the_transition_plots_read_both_rates_of_fit_and_prediction(plot_figures, out, saved,
                                                                     monkeypatch):
    seen: dict[str, set] = {}
    read_csv = plot_figures.read_csv
    monkeypatch.setattr(plot_figures, "read_csv",
                        lambda path: _Columns(read_csv(path), seen.setdefault(path.name, set())))
    assert plot_figures.main(["--output-root", str(out)]) == 0
    for table in ("fig1_transition.csv", "fig4_transition.csv"):
        assert {"gamma_fit", "gamma_fast_fit", "gamma_pred", "gamma_fast_pred"} <= seen[table]


def test_a_missing_run_is_skipped(plot_figures, out, saved, tmp_path, capsys):
    (tmp_path / "default-sweeps").symlink_to(out / "default-sweeps")
    assert plot_figures.main(["--output-root", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "plotted sweeps"
    assert lines[0] == f"skipping spectrum: no run directory {tmp_path / 'default-spectrum'}"
    assert saved == [tmp_path / "default-sweeps" / "sweeps.png"]


def test_without_matplotlib_it_exits_1(plot_figures, out, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import matplotlib raises ImportError
    assert plot_figures.main(["--output-root", str(out)]) == 1
    assert "matplotlib is not installed" in capsys.readouterr().err
