#!/usr/bin/env python3
"""Render the main datasets of `scripts/parity.py run` as PNG figures.

Plotting is optional: the package's outputs are plain CSV and this script is
a thin matplotlib viewer over them. It never recomputes physics. Each
plotter reads one run directory, OUT/default-<experiment>/, and writes its
figures next to the data they come from.

Usage:
    python3 scripts/parity.py run out          # first, generate the datasets
    python3 scripts/plot_figures.py [--output-root out]
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> dict:
    """Columns of a numeric CSV keyed by header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = np.array(data, dtype=float).T if data else np.empty((len(header), 0))
    return {name: cols[i] for i, name in enumerate(header)}


def plot_spectrum(plt, run: Path) -> None:
    d = read_csv(run / "spectrum.csv")
    n_modes = sum(1 for k in d if k.startswith("re_"))
    fig, (ax_re, ax_im) = plt.subplots(2, 1, figsize=(6, 6), sharex=True)
    for k in range(n_modes):
        ax_re.plot(d["J"], d[f"re_{k}"], lw=1.2)
        ax_im.plot(d["J"], d[f"im_{k}"], lw=1.2, ls="--")
    ax_re.set_ylabel("Re eigenvalue (1/us)")
    ax_im.set_ylabel("Im eigenvalue (rad/us)")
    ax_im.set_xlabel("J (rad/us)")
    fig.tight_layout()
    fig.savefig(run / "spectrum.png", dpi=150)
    plt.close(fig)


def plot_ep_map(plt, run: Path) -> None:
    grid = read_csv(run / "ep_map_grid.csv")
    lines = read_csv(run / "ep_map_lines.csv")
    summary = json.loads((run / "ep_map_summary.json").read_text())
    J = np.unique(grid["J"])
    D = np.unique(grid["Delta"])
    gap = grid["gap"].reshape(len(D), len(J))

    fig, ax = plt.subplots(figsize=(6, 5))
    pcm = ax.pcolormesh(J, D, np.log10(gap + 1e-16), shading="nearest", cmap="viridis")
    fig.colorbar(pcm, ax=ax, label="log10 eigenvalue gap")
    for lid in np.unique(lines["line_id"]):
        sel = lines["line_id"] == lid
        ax.plot(lines["J"][sel], lines["Delta"][sel], "w.-", ms=3, lw=1)
    for j3, d3 in summary["ep3_points"]:
        ax.plot(j3, d3, "r*", ms=14)
    ax.set_xlabel("J (rad/us)")
    ax.set_ylabel("Delta (rad/us)")
    fig.tight_layout()
    fig.savefig(run / "ep_map.png", dpi=150)
    plt.close(fig)


def plot_transition(plt, path: Path, out: Path) -> None:
    d = read_csv(path)
    fig, ax = plt.subplots(figsize=(6, 4))
    ok = d["flagged"] == 0
    ax.plot(d["J"], d["omega_pred"], "b-", lw=1, label="omega (eigenvalue)")
    ax.plot(d["J"], d["gamma_pred"], "r-", lw=1, label="gamma (eigenvalue)")
    ax.plot(d["J"], d["gamma_fast_pred"], "m--", lw=1, label="fast gamma (eigenvalue; = gamma above the EP)")
    ax.plot(d["J"][ok], d["omega_fit"][ok], "bs", ms=4, label="omega (fit)")
    ax.plot(d["J"][ok], d["gamma_fit"][ok], "ro", ms=4, label="gamma (fit)")
    ax.plot(d["J"][ok], d["gamma_fast_fit"][ok], "m^", ms=4, label="fast gamma (fit)")
    ax.set_xlabel("J (rad/us)")
    ax.set_ylabel("rate (1/us), frequency (rad/us)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    plt.close(fig)


def plot_fig1(plt, run: Path) -> None:
    d = read_csv(run / "fig1_heatmap.csv")
    J = np.unique(d["J"])
    t = np.unique(d["t"])
    z = d["rho_ee"].reshape(len(J), len(t))
    fig, ax = plt.subplots(figsize=(6, 4))
    pcm = ax.pcolormesh(t, J, z, shading="nearest", cmap="magma", vmin=0, vmax=1)
    fig.colorbar(pcm, ax=ax, label="excited population")
    ax.set_xlabel("t (us)")
    ax.set_ylabel("J (rad/us)")
    fig.tight_layout()
    fig.savefig(run / "fig1_heatmap.png", dpi=150)
    plt.close(fig)
    plot_transition(plt, run / "fig1_transition.csv", run / "fig1_transition.png")


def plot_fig2(plt, run: Path) -> None:
    d = read_csv(run / "fig2_bloch.csv")
    fig, axes = plt.subplots(2, 2, figsize=(8, 5), sharex=True, sharey=True)
    for ax, tag in zip(axes.flat, ["plus_ccw", "plus_cw", "minus_ccw", "minus_cw"]):
        for comp, color in zip("xyz", ["C0", "C1", "C2"]):
            ax.plot(d["t"], d[f"{comp}_{tag}"], color, lw=1, label=comp)
        ax.set_title(tag, fontsize=9)
        ax.set_ylim(-1.05, 1.05)
    axes[0, 0].legend(fontsize=8)
    for ax in axes[1]:
        ax.set_xlabel("t (us)")
    fig.tight_layout()
    fig.savefig(run / "fig2_bloch.png", dpi=150)
    plt.close(fig)

    e = read_csv(run / "fig2_ensemble.csv")
    s = read_csv(run / "fig2_trajectory.csv")
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(e["t"], e["x_lindblad"], "k-", lw=1.5, label="x, master equation")
    ax.plot(e["t"], e["x_mean"], "r--", lw=1.2, label="x, ensemble mean")
    ax.plot(s["t"], s["x"], "C0-", lw=0.8, alpha=0.7, label="x, single trajectory")
    ax.set_xlabel("t (us)")
    ax.set_ylabel("x")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(run / "fig2_ensemble.png", dpi=150)
    plt.close(fig)


def plot_fig4(plt, run: Path) -> None:
    d = read_csv(run / "fig4_coherence.csv")
    fig, ax = plt.subplots(figsize=(6, 4))
    for J in np.unique(d["J"]):
        sel = d["J"] == J
        ax.plot(d["t"][sel], d["abs_rho_gf"][sel], lw=1, label=f"J={J:g}")
    ax.set_xlabel("t (us)")
    ax.set_ylabel("|coherence g-f|")
    if len(np.unique(d["J"])) <= 8:
        ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(run / "fig4_coherence.png", dpi=150)
    plt.close(fig)
    plot_transition(plt, run / "fig4_transition.csv", run / "fig4_transition.png")


def plot_sweeps(plt, run: Path) -> None:
    fig, (ax_t, ax_d) = plt.subplots(1, 2, figsize=(9, 4))
    for ax, name, xlab in [
        (ax_t, "sweeps_duration.csv", "T (us)"),
        (ax_d, "sweeps_detuning.csv", "Delta_max (rad/us)"),
    ]:
        d = read_csv(run / name)
        x = d[list(d)[0]]
        ax.plot(x, d["chirality"], "k.-", label="chirality")
        ax.plot(x, d["entropy_cw"], "r.-", label="entropy cw")
        ax.plot(x, d["entropy_ccw"], "b.-", label="entropy ccw")
        ax.set_xlabel(xlab)
        ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig(run / "sweeps.png", dpi=150)
    plt.close(fig)


PLOTTERS = {
    "spectrum": plot_spectrum,
    "ep-map": plot_ep_map,
    "fig1": plot_fig1,
    "fig2": plot_fig2,
    "fig4": plot_fig4,
    "sweeps": plot_sweeps,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-root", default="out",
                        help="the OUT directory of `scripts/parity.py run` (default: out)")
    args = parser.parse_args(argv)
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; install the 'plot' extra", file=sys.stderr)
        return 1

    made = 0
    for name, fn in PLOTTERS.items():
        run = Path(args.output_root) / f"default-{name}"
        if run.is_dir():
            fn(plt, run)
            made += 1
            print(f"plotted {name}")
        else:
            print(f"skipping {name}: no run directory {run}")
    return 0 if made else 1


if __name__ == "__main__":
    sys.exit(main())
