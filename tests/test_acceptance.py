"""End-to-end acceptance gate.

Each test exercises one headline capability of the package at its stated
tolerance and runtime budget, and prints a single summary line

    ACCEPTANCE nn: PASS/FAIL (details)

through the capture-disabled channel before asserting, so a full run always
reports the status of every criterion even when one of them fails.
"""

import math
from dataclasses import replace
from time import perf_counter

import numpy as np

from liouvlab.analysis import chirality, sweep_metrics
from liouvlab.dynamics import integrate_constant, integrate_scheduled
from liouvlab.liouvillian import build_superoperator, ep_scan, steady_state
from liouvlab.model import (
    DriveParams,
    ParameterSchedule,
    Rates,
    make_system,
    minus_x,
    plus_x,
)
from liouvlab.numerics import trace_distance
from liouvlab.trajectories import run_ensemble

from conftest import transition_scan
from oracles import all_line_points, integrate_bloch

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def golden_qubit_matrix(ge, gp, J, D):
    """Hand-derived 4x4 generator in the row-major basis (gg, ge, eg, ee)."""
    return np.array(
        [
            [0.0, 1j * J, -1j * J, ge],
            [1j * J, -1j * D - ge / 2 - gp, 0.0, -1j * J],
            [-1j * J, 0.0, 1j * D - ge / 2 - gp, 1j * J],
            [0.0, -1j * J, 1j * J, -ge],
        ],
        dtype=complex,
    )


def golden_qutrit_matrix(ge, gp, gf, gfx, J, D, target):
    """Hand-derived 9x9 generator, basis (gg, ge, gf, eg, ee, ef, fg, fe, ff).

    Assembled entry by entry from the commutator and dissipator index rules
    rather than by Kronecker products, so it is an independent cross-check of
    the library construction. `target` names the level fed by the f decay.
    """
    M = np.zeros((9, 9), dtype=complex)
    # Commutator: column-index blocks (fixed b) receive -i H over (a, c),
    # row-index blocks (fixed a) receive +i H over (b, d), with
    # H = diag(D/2, -D/2, 0) plus J on the g-e off-diagonal.
    for b in range(3):
        M[0 * 3 + b, 0 * 3 + b] += -0.5j * D
        M[1 * 3 + b, 1 * 3 + b] += +0.5j * D
        M[0 * 3 + b, 1 * 3 + b] += -1j * J
        M[1 * 3 + b, 0 * 3 + b] += -1j * J
    for a in range(3):
        M[a * 3 + 0, a * 3 + 0] += +0.5j * D
        M[a * 3 + 1, a * 3 + 1] += -0.5j * D
        M[a * 3 + 0, a * 3 + 1] += +1j * J
        M[a * 3 + 1, a * 3 + 0] += +1j * J
    # Spontaneous emission |e> -> |g>: feeds gg from ee, damps every index
    # pair touching e.
    M[0, 4] += ge
    for idx in (3, 4, 5):
        M[idx, idx] += -ge / 2
    for idx in (1, 4, 7):
        M[idx, idx] += -ge / 2
    # Pure dephasing with level weights z = (1, -1, 0): coherence (a, b)
    # decays at (gp/4)(z_a - z_b)^2.
    z = (1.0, -1.0, 0.0)
    for a in range(3):
        for b in range(3):
            M[a * 3 + b, a * 3 + b] += -(gp / 4) * (z[a] - z[b]) ** 2
    # f relaxation into the chosen target level.
    m = 1 if target == "e" else 0
    M[m * 3 + m, 8] += gf
    for idx in (6, 7, 8):
        M[idx, idx] += -gf / 2
    for idx in (2, 5, 8):
        M[idx, idx] += -gf / 2
    # Extra f-level loss with jump operator proportional to |f><f|: the
    # feeding and damping terms cancel on ff, leaving pure f dephasing.
    M[8, 8] += gfx
    for idx in (6, 7, 8):
        M[idx, idx] += -gfx / 2
    for idx in (2, 5, 8):
        M[idx, idx] += -gfx / 2
    return M


def _projector(psi):
    return np.outer(psi, psi.conj())


def _bloch_x(rho):
    return float(2.0 * rho[0, 1].real)


def _loop_finals(rates, n_steps=2000):
    """Final states of the closed default loop: both starts, both directions."""
    system = make_system(DriveParams(J=16.0), rates)
    finals = {}
    for start, psi in (("plus", plus_x()), ("minus", minus_x())):
        rho0 = _projector(psi)
        for direction in ("cw", "ccw"):
            schedule = ParameterSchedule(T=2.0, direction=direction)
            evo = integrate_scheduled(system, schedule, rho0, n_steps)
            finals[start, direction] = evo.final_state
    return finals


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_superoperator_golden(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(20240817)
    worst2 = 0.0
    worst3 = 0.0
    for k in range(100):
        ge, gp, gf, gfx = rng.uniform(0, 6), rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2)
        J, D = rng.uniform(0, 4), rng.uniform(-3, 3)
        target = "e" if k % 2 == 0 else "g"
        sys2 = make_system(DriveParams(J=J, Delta=D), Rates(gamma_e=ge, gamma_phi=gp))
        M2 = build_superoperator(sys2)
        worst2 = max(worst2, float(np.max(np.abs(M2 - golden_qubit_matrix(ge, gp, J, D)))))
        sys3 = make_system(DriveParams(J=J, Delta=D), Rates(ge, gp, gf, gfx), dim=3, f_decay_to=target)
        M3 = build_superoperator(sys3)
        golden3 = golden_qutrit_matrix(ge, gp, gf, gfx, J, D, target)
        worst3 = max(worst3, float(np.max(np.abs(M3 - golden3))))
    elapsed = perf_counter() - t0
    ok = worst2 <= 1e-14 and worst3 <= 1e-14 and elapsed < 1.0
    _announce(capsys, 1, ok, f"max qubit err {worst2:.1e}, max qutrit err {worst3:.1e}, {elapsed:.2f} s")
    assert worst2 <= 1e-14
    assert worst3 <= 1e-14
    assert elapsed < 1.0


def test_criterion_02_qubit_ep_location(capsys):
    t0 = perf_counter()
    template = make_system(DriveParams(J=0.1), Rates(gamma_e=4.4, gamma_phi=0.1))
    emap = ep_scan(template, (0.1, 1.8), (0.0, 0.0), resolution=35)
    pts = all_line_points(emap)
    target = 4.4 / 8 - 0.1 / 4
    dev = float(np.min(np.abs(pts[:, 0] - target))) if len(pts) else math.inf
    elapsed = perf_counter() - t0
    ok = dev <= 1e-4 and elapsed < 5.0
    _announce(capsys, 2, ok, f"|J_found - 0.525| = {dev:.2e}, {elapsed:.2f} s")
    assert dev <= 1e-4
    assert elapsed < 5.0


def test_criterion_03_qubit_transition_scan(capsys):
    t0 = perf_counter()
    ge, gp = 4.4, 0.1
    template = make_system(DriveParams(J=0.1), Rates(gamma_e=ge, gamma_phi=gp))
    Js = np.linspace(0.1, 1.8, 35)
    scan = transition_scan(template, Js)
    hi = Js >= 0.65
    lo = Js <= 0.45
    omega_true = 0.5 * np.sqrt(16.0 * Js[hi] ** 2 - (ge / 2 - gp) ** 2)
    rel = float(np.max(np.abs(scan.omega_fit[hi] - omega_true) / omega_true))
    small = float(np.max(scan.omega_fit[lo]))
    elapsed = perf_counter() - t0
    ok = scan.failures == [] and rel <= 0.05 and small <= 0.1 and elapsed < 30.0
    _announce(
        capsys, 3,
        ok,
        f"max rel omega err above transition {rel:.2%}, max omega below {small:.3f}, {elapsed:.1f} s",
    )
    assert scan.failures == []
    assert rel <= 0.05
    assert small <= 0.1
    assert elapsed < 30.0


def test_criterion_04_qutrit_transition_location(capsys):
    t0 = perf_counter()
    template = make_system(
        DriveParams(J=1.0), Rates(4.2, 0.2, 0.3, 0.75), dim=3, f_decay_to="e"
    )
    scan = transition_scan(template, np.linspace(0.8, 1.4, 25))
    est = scan.transition_estimate()
    dev = abs(est - 4.2 / 4)
    elapsed = perf_counter() - t0
    ok = scan.failures == [] and dev <= 0.05 and elapsed < 30.0
    _announce(capsys, 4, ok, f"onset at J = {est:.4g}, |dev from 1.05| = {dev:.3f}, {elapsed:.1f} s")
    assert scan.failures == []
    assert dev <= 0.05
    assert elapsed < 30.0


def test_criterion_05_chiral_state_transfer(capsys):
    t0 = perf_counter()
    finals = _loop_finals(Rates(gamma_e=4.6, gamma_phi=0.2))
    x = {key: _bloch_x(rho) for key, rho in finals.items()}
    chi = chirality(finals["plus", "cw"], finals["plus", "ccw"])
    elapsed = perf_counter() - t0
    signs_ok = (
        x["plus", "cw"] > 0
        and x["minus", "cw"] > 0
        and x["plus", "ccw"] < 0
        and x["minus", "ccw"] < 0
    )
    ok = signs_ok and chi > 0.5 and elapsed < 10.0
    _announce(
        capsys, 5,
        ok,
        f"x_final cw {x['plus', 'cw']:+.3f}/{x['minus', 'cw']:+.3f}, "
        f"ccw {x['plus', 'ccw']:+.3f}/{x['minus', 'ccw']:+.3f}, chirality {chi:.3f}, {elapsed:.1f} s",
    )
    assert x["plus", "cw"] > 0
    assert x["minus", "cw"] > 0
    assert x["plus", "ccw"] < 0
    assert x["minus", "ccw"] < 0
    assert chi > 0.5
    assert elapsed < 10.0


def test_criterion_06_trajectory_master_equation_equivalence(capsys):
    t0 = perf_counter()
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    schedule = ParameterSchedule(T=2.0)
    psi = plus_x()
    ref = integrate_scheduled(
        system, schedule, _projector(psi), 4000, store_every=20
    )
    td = {}
    for n in (250, 1000, 4000):
        ens = run_ensemble(
            system, schedule, psi, dt=5e-4, n=n, master_seed=12345, store_every=20
        )
        td[n] = np.array(
            [trace_distance(a, b) for a, b in zip(ens.mean_density, ref.states)]
        )
    max_mid = float(td[1000].max())
    # The scaling ratio uses time-averaged distances: the max over 201 stored
    # times is an extreme-value statistic whose seed-to-seed spread is larger
    # than the 1/sqrt(n) effect this clause is meant to detect.
    ratio = float(td[250].mean() / td[4000].mean())
    elapsed = perf_counter() - t0
    ok = max_mid <= 0.05 and 2.8 <= ratio <= 5.7 and elapsed < 120.0
    _announce(
        capsys, 6,
        ok,
        f"max TD at n=1000 {max_mid:.4f}, error ratio 250/4000 {ratio:.2f}, {elapsed:.1f} s",
    )
    assert max_mid <= 0.05
    assert 2.8 <= ratio <= 5.7
    assert elapsed < 120.0


def test_criterion_07_hermitian_limit_control(capsys):
    t0 = perf_counter()
    finals = _loop_finals(Rates(gamma_e=0.0))
    x = {key: _bloch_x(rho) for key, rho in finals.items()}
    chi = chirality(finals["plus", "cw"], finals["plus", "ccw"])
    elapsed = perf_counter() - t0
    transfer_ok = (
        abs(x["plus", "cw"] + 1.0) <= 0.1
        and abs(x["plus", "ccw"] + 1.0) <= 0.1
        and abs(x["minus", "cw"] - 1.0) <= 0.1
        and abs(x["minus", "ccw"] - 1.0) <= 0.1
    )
    ok = transfer_ok and chi <= 0.05 and elapsed < 10.0
    _announce(
        capsys, 7,
        ok,
        f"transfer {'ok' if transfer_ok else 'off'} "
        f"(x from +x: {x['plus', 'cw']:+.4f}/{x['plus', 'ccw']:+.4f}), chirality {chi:.4f}, {elapsed:.1f} s",
    )
    assert abs(x["plus", "cw"] + 1.0) <= 0.1
    assert abs(x["plus", "ccw"] + 1.0) <= 0.1
    assert abs(x["minus", "cw"] - 1.0) <= 0.1
    assert abs(x["minus", "ccw"] - 1.0) <= 0.1
    # Both directions transfer the state across the Bloch sphere, but they do
    # not land on identical states: the finals share x yet differ in (y, z),
    # which keeps the trace distance near sqrt(1 - x^2) ~ 0.38.
    assert chi <= 0.05
    assert elapsed < 10.0


def test_criterion_08_property_suite(capsys):
    t0 = perf_counter()
    rng = np.random.default_rng(8888)

    worst_tr = 0.0
    worst_neg = 0.0
    t_grid = np.linspace(0.0, 2.0, 21)
    for _ in range(50):
        system = make_system(
            DriveParams(J=rng.uniform(0, 3), Delta=rng.uniform(-2, 2)),
            Rates(gamma_e=rng.uniform(0, 5), gamma_phi=rng.uniform(0, 2)),
        )
        evo = integrate_constant(build_superoperator(system), _random_density(rng, 2), t_grid)
        for rho in evo.states:
            tr = complex(np.trace(rho))
            worst_tr = max(worst_tr, abs(tr - 1.0))
            worst_neg = min(worst_neg, float(np.min(np.linalg.eigvalsh(rho))))

    worst_zero = 0.0
    worst_re = -math.inf
    for k in range(50):
        dim = 2 if k % 2 == 0 else 3
        drive = DriveParams(J=rng.uniform(0, 3), Delta=rng.uniform(-2, 2))
        rates = Rates(rng.uniform(0, 5), rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
        if dim == 2:
            # a qubit has no |f> level, so its f-level draws never enter the generator
            rates = Rates(rates.gamma_e, rates.gamma_phi)
        system = make_system(drive, rates, dim=dim)
        lam = np.linalg.eigvals(build_superoperator(system))
        worst_zero = max(worst_zero, float(np.min(np.abs(lam))))
        worst_re = max(worst_re, float(np.max(lam.real)))

    worst_ss = 0.0
    for _ in range(50):
        ge = rng.uniform(0.3, 5.0)
        J = rng.uniform(0.0, 3.0)
        sop = build_superoperator(make_system(DriveParams(J=J), Rates(gamma_e=ge)))
        rho = steady_state(sop)
        closed = np.array(
            [[ge**2 + 4 * J**2, 2j * ge * J], [-2j * ge * J, 4 * J**2]], dtype=complex
        ) / (ge**2 + 8 * J**2)
        worst_ss = max(worst_ss, float(np.max(np.abs(rho - closed))))

    worst_bloch = 0.0
    tb = np.array([0.0, 0.3, 0.7, 1.2])
    for _ in range(20):
        params = DriveParams(J=rng.uniform(0, 3), Delta=rng.uniform(-2, 2))
        rates = Rates(gamma_e=rng.uniform(0, 4), gamma_phi=rng.uniform(0, 2))
        v0 = rng.uniform(-0.577, 0.577, size=3)
        vb = integrate_bloch(params, rates, v0, tb)
        rho0 = 0.5 * (np.eye(2) + v0[0] * SX + v0[1] * SY + v0[2] * SZ)
        evo = integrate_constant(build_superoperator(make_system(params, rates)), rho0, tb)
        for v, rho in zip(vb, evo.states):
            got = np.array(
                [2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
            )
            worst_bloch = max(worst_bloch, float(np.max(np.abs(got - v))))

    elapsed = perf_counter() - t0
    ok = (
        worst_tr <= 1e-8
        and worst_neg >= -1e-6
        and worst_zero <= 1e-9
        and worst_re <= 1e-9
        and worst_ss <= 1e-10
        and worst_bloch <= 1e-6
        and elapsed < 30.0
    )
    _announce(
        capsys, 8,
        ok,
        f"trace {worst_tr:.1e}, eigmin {worst_neg:.1e}, zero-mode {worst_zero:.1e}, "
        f"max Re {worst_re:.1e}, steady {worst_ss:.1e}, Bloch {worst_bloch:.1e}, {elapsed:.1f} s",
    )
    assert worst_tr <= 1e-8
    assert worst_neg >= -1e-6
    assert worst_zero <= 1e-9
    assert worst_re <= 1e-9
    assert worst_ss <= 1e-10
    assert worst_bloch <= 1e-6
    assert elapsed < 30.0


def test_criterion_09_ep_map_structure(capsys):
    t0 = perf_counter()
    template = make_system(DriveParams(J=0.1), Rates(gamma_e=4.5, gamma_phi=0.0))
    emap = ep_scan(template, (0.05, 1.1), (-1.1, 1.1), resolution=45)
    n_lines = len(emap.ep_lines)
    n_triple = len(emap.ep3_points)
    elapsed = perf_counter() - t0

    mirror_J = mirror_D = math.inf
    dev_reg = dev_closed = math.inf
    if n_triple == 2:
        (J_a, D_a), (J_b, D_b) = sorted(emap.ep3_points, key=lambda p: p[1])
        mirror_J = abs(J_a - J_b)
        mirror_D = abs(D_a + D_b)
        reg_J, reg_D = 0.612372435695794, 0.4330127018922162
        dev_reg = max(abs(J_a - reg_J), abs(J_b - reg_J), abs(D_a + reg_D), abs(D_b - reg_D))
        closed_J, closed_D = 4.5 / math.sqrt(54.0), 4.5 / math.sqrt(108.0)
        dev_closed = max(
            abs(J_a - closed_J), abs(J_b - closed_J), abs(D_a + closed_D), abs(D_b - closed_D)
        )
    ok = (
        n_lines == 3
        and n_triple == 2
        and mirror_J <= 1e-6
        and mirror_D <= 1e-6
        and dev_reg <= 1e-6
        and dev_closed <= 1e-6
        and elapsed < 60.0
    )
    _announce(
        capsys, 9,
        ok,
        f"{n_lines} lines, {n_triple} triple points, mirror {max(mirror_J, mirror_D):.1e}, "
        f"coord dev {max(dev_reg, dev_closed):.1e}, {elapsed:.1f} s",
    )
    assert n_lines == 3
    assert n_triple == 2
    assert mirror_J <= 1e-6
    assert mirror_D <= 1e-6
    assert dev_reg <= 1e-6
    assert dev_closed <= 1e-6
    assert elapsed < 60.0


def test_criterion_10_sweep_trends(capsys):
    t0 = perf_counter()
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    family = ParameterSchedule(T=2.0)
    rho0 = _projector(plus_x())

    T_values = [0.25 + 0.125 * i for i in range(19)]
    duration = sweep_metrics(system, [replace(family, T=T) for T in T_values], rho0, dt=1e-3)
    best_T = T_values[int(np.argmax(duration["chirality"]))]

    D_values = [2 * math.pi * (0.5 + 0.5 * i) for i in range(16)]
    detuning = sweep_metrics(system, [replace(family, Delta_max=D) for D in D_values], rho0, dt=1e-3)
    chi_up = bool(np.all(np.diff(detuning["chirality"]) > 0))
    ent_down = bool(
        np.all(np.diff(detuning["entropy_cw"]) < 0) and np.all(np.diff(detuning["entropy_ccw"]) < 0)
    )
    elapsed = perf_counter() - t0
    ok = abs(best_T - 1.0) <= 0.25 and chi_up and ent_down and elapsed < 60.0
    _announce(
        capsys, 10,
        ok,
        f"peak chirality at T = {best_T}, detuning chirality rising {chi_up}, "
        f"entropy falling {ent_down}, {elapsed:.1f} s",
    )
    assert abs(best_T - 1.0) <= 0.25
    assert chi_up
    assert ent_down
    assert elapsed < 60.0
