import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab import analysis, config
from liouvlab.dynamics import STEP_BLOCK, integrate_constant, scheduled_step_count
from liouvlab.errors import (
    DegenerateInput,
    DomainError,
    InsufficientData,
    NotDensityMatrix,
    OutOfRange,
)
from liouvlab.liouvillian import build_superoperator, superoperator_stack
from liouvlab.model import DriveParams, ParameterSchedule, Rates, make_system, operators, plus_x

from conftest import transition_scan
from oracles import damped_sine_model


def damped_cosine(t, A, gamma, omega, phi, C):
    return A * np.exp(-gamma * t) * np.cos(omega * t + phi) + C


# --- damped-sinusoid fitting -----------------------------------------------------


def test_fit_recovers_exact_parameters():
    t = np.linspace(0.0, 3.0, 200)
    y = damped_cosine(t, A=0.7, gamma=0.8, omega=3.0, phi=0.4, C=0.2)
    fit = analysis.fit_damped_sine(t, y)
    assert fit.converged
    assert fit.omega == pytest.approx(3.0, abs=1e-6)
    assert fit.gamma == pytest.approx(0.8, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.7, abs=1e-6)
    assert fit.phase == pytest.approx(0.4, abs=1e-6)
    assert fit.offset == pytest.approx(0.2, abs=1e-6)
    assert fit.residual_rms <= 1e-9


# a strictly increasing grid: each sample moves by less than half a step
JITTERED_TIMES = (np.linspace(0.0, 6.0, 300)
                  + np.random.default_rng(5).uniform(-0.4, 0.4, 300) * (6.0 / 299))


@settings(max_examples=100)
@given(
    A=st.floats(0.5, 2.0),
    gamma=st.floats(0.0, 3.0),
    omega=st.floats(0.3, 8.0),
    phi=st.floats(-3.0, 3.0),
    C=st.floats(-1.0, 1.0),
    jittered=st.booleans(),
)
def test_fit_recovery_property(A, gamma, omega, phi, C, jittered):
    # omega is kept away from 0: at omega ~ 0 the amplitude, phase, and
    # offset merge into fewer identifiable degrees of freedom.
    t = JITTERED_TIMES if jittered else np.linspace(0.0, 6.0, 300)
    y = damped_cosine(t, A, gamma, omega, phi, C)
    fit = analysis.fit_damped_sine(t, y)
    assert abs(fit.omega - omega) <= 1e-6 * max(1.0, omega)
    assert abs(fit.gamma - gamma) <= 1e-6 * max(1.0, gamma)
    assert np.max(np.abs(damped_sine_model(fit, t) - y)) <= 1e-8


def test_a_sine_with_no_offset_seeds_from_its_conjugate_pair():
    # rank 2: the spare pole (-1.013) lies farther from z = 1 than the pair, so
    # dropping the pole closest to 1 would split the pair and seed omega = 0
    t = np.linspace(0.0, 6.0, 300)
    fit = analysis.fit_damped_sine(t, damped_cosine(t, A=1.0, gamma=0.0, omega=6.7578125, phi=2.0, C=0.0))
    assert abs(fit.omega - 6.7578125) <= 1e-6 * 6.7578125
    assert fit.gamma <= 1e-6
    assert fit.residual_rms <= 1e-9


def test_fit_constant_series_short_circuits():
    t = np.linspace(0.0, 1.0, 50)
    fit = analysis.fit_damped_sine(t, np.full_like(t, 0.37))
    assert fit.converged
    assert fit.amplitude == 0.0
    assert fit.omega == 0.0
    assert fit.gamma == 0.0
    assert fit.offset == pytest.approx(0.37)
    assert fit.residual_rms == 0.0


def test_fit_model_roundtrip():
    fit = analysis.DampedSineFit(
        omega=2.0, gamma=0.5, amplitude=1.2, phase=-0.3, offset=0.1,
        residual_rms=0.0, converged=True)
    t = np.array([0.0, 0.5, 1.0])
    assert np.allclose(damped_sine_model(fit, t), damped_cosine(t, 1.2, 0.5, 2.0, -0.3, 0.1))


def test_fit_input_validation():
    t5 = np.linspace(0.0, 1.0, 5)
    with pytest.raises(InsufficientData):
        analysis.fit_damped_sine(t5, np.ones(5))
    with pytest.raises(DegenerateInput):
        analysis.fit_damped_sine(np.linspace(0, 1, 20), np.ones(10))
    with pytest.raises(DegenerateInput):
        analysis.fit_damped_sine(np.zeros(20), np.ones(20))  # not increasing
    bad = np.linspace(0.0, 1.0, 20)
    y = np.ones(20)
    y[3] = np.nan
    with pytest.raises(DegenerateInput):
        analysis.fit_damped_sine(bad, y)


# --- the fit near omega = 0 ----------------------------------------------------------


def test_basis_and_projected_residual_are_smooth_at_zero_frequency():
    t = np.linspace(0.0, 10.0, 500)
    y = 0.4 * np.exp(-1.2 * t) * np.cos(0.8 * t + 0.3) + 0.1
    at_zero = analysis._basis(t, 1.2, 0.0)
    near_zero = analysis._basis(t, 1.2, 1e-12**2)  # omega = 1e-12
    # the sin(wt)/w column is t e^-Gt at w = 0, not a column of zeros
    np.testing.assert_array_equal(at_zero[0][:, 1], t * np.exp(-1.2 * t))
    for near, at in zip(near_zero, at_zero):  # the columns and both derivatives
        np.testing.assert_allclose(near, at, rtol=1e-15, atol=0.0)
    r_zero = analysis._projection(t, y, np.array([1.2, 0.0]))[1]
    r_near = analysis._projection(t, y, np.array([1.2, 1e-12**2]))[1]
    assert np.max(np.abs(r_near - r_zero)) <= 1e-15


@pytest.mark.parametrize("theta", [(1.2, 0.0), (1.2, 0.09), (0.4, 6.25)])
def test_kaufman_jacobian_gives_the_exact_gradient(theta):
    # theta = (Gamma, omega^2); the fit's cost is smooth in both
    t = np.linspace(0.0, 10.0, 500)
    y = 0.4 * np.exp(-1.0 * t) * np.cos(0.7 * t + 0.3) + 0.3 * np.exp(-2.0 * t) + 0.1

    def cost(x):
        r = analysis._projection(t, y, np.asarray(x, dtype=float))[1]
        return 0.5 * float(r @ r)

    _, r, jac = analysis._projection(t, y, np.array(theta))
    h = 1e-6
    for k in range(2):
        up, down = np.array(theta), np.array(theta)
        up[k] += h
        down[k] = max(down[k] - h, 0.0)  # one-sided on the bound omega^2 = 0
        slope = (cost(up) - cost(down)) / (up[k] - down[k])
        assert (jac.T @ r)[k] == pytest.approx(slope, rel=1e-4, abs=1e-12)


@pytest.mark.parametrize("P, S, gamma, C", [(1.0, -2.0, 0.5, 0.3), (-0.5, 2.5, 0.7, 0.4)])
def test_critically_damped_series_fits_with_zero_frequency(P, S, gamma, C):
    t = np.linspace(0.0, 10.0, 500)
    fit = analysis.fit_damped_sine(t, (P + S * t) * np.exp(-gamma * t) + C)
    assert fit.converged
    # omega = 0 to what rounding resolves: an exact series fixes omega^2 to about 1e-16
    assert fit.omega <= 1e-6
    assert abs(fit.gamma - gamma) <= 1e-6
    assert fit.residual_rms <= 1e-9


@pytest.mark.parametrize("a, b", [(0.7, -0.5), (-0.7, 0.2)])
def test_overdamped_series_fits_on_zero_frequency_with_the_t_term_outside_amplitude(a, b):
    t = np.linspace(0.0, 10.0, 500)
    y = a * np.exp(-1.0 * t) + b * np.exp(-3.0 * t) + 0.1
    fit = analysis.fit_damped_sine(t, y)
    assert fit.converged
    assert fit.omega == 0.0  # the bound holds omega^2 at 0 exactly
    # the fitted curve is (P + S t) e^-Gt + C; (A, phi) carry P alone: A = |P|,
    # phi = 0 or pi, so the (A, phi) curve is P e^-Gt + C without the t-term
    (P, S, C), r, _ = analysis._projection(t, y, np.array([fit.gamma, 0.0]))
    assert abs(S) > 0.01
    assert fit.amplitude == abs(P)
    assert fit.phase == (0.0 if P >= 0.0 else math.pi)
    assert fit.offset == C
    assert fit.residual_rms == pytest.approx(np.sqrt(np.mean(r**2)), rel=1e-12)
    np.testing.assert_allclose(damped_sine_model(fit, t), P * np.exp(-fit.gamma * t) + C,
                               rtol=0.0, atol=1e-15)


# --- the Levenberg-Marquardt iteration and its budget -------------------------------


def test_least_squares_stops_on_the_bound_with_a_met_test():
    target = np.array([1.0, -2.0])
    res = analysis.least_squares(lambda x: (x - target, np.eye(2)), [3.0, 3.0],
                                 tol=1e-15, max_nfev=100)
    assert res.status > 0
    # a cost of 2 cannot resolve x[0] closer than about sqrt(eps)
    assert res.x[0] == pytest.approx(1.0, abs=1e-8)
    assert res.x[1] == 0.0
    assert res.cost == pytest.approx(2.0, abs=1e-12)
    assert 1 < res.nfev < 100


def test_an_exhausted_budget_is_reported_unconverged(monkeypatch):
    # below the EP each start needs more than two evaluations
    template = make_system(DriveParams(J=0.3), Rates(gamma_e=4.4, gamma_phi=0.1))
    t = np.linspace(0.0, 10.0, 500)
    series = integrate_constant(build_superoperator(template), excited_projector(), t).states[:, 1, 1].real
    assert analysis.fit_damped_sine(t, series).converged
    assert transition_scan(template, [0.3]).n_unconverged == 0

    monkeypatch.setattr(analysis, "FIT_MAX_NFEV", 2)
    assert not analysis.fit_damped_sine(t, series).converged
    assert transition_scan(template, [0.3]).n_unconverged == 1


# --- the SciPy oracle on the fig1 and fig4 default series --------------------------


@pytest.fixture(scope="module")
def default_scans():
    """The fig1 and fig4 default scans, by experiment: (TransitionScan, every (t, y) it fit)."""
    scans = {}
    for experiment in ("fig1", "fig4"):
        cfg = config.resolve({}, experiment)
        J_grid, window, n_samples = cfg.J_grid, cfg.scan["window"], cfg.scan["n_samples"]
        seen = []
        fit = analysis.fit_damped_sine
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "fit_damped_sine", lambda t, y: seen.append((t, y)) or fit(t, y))
            scan = transition_scan(cfg.system, J_grid, window, n_samples)
        scans[experiment] = (scan, seen)
    return scans


@pytest.fixture(scope="module")
def default_series(default_scans):
    """Every (t, y) that the fig1 and fig4 default scans fit, by experiment."""
    return {experiment: seen for experiment, (_scan, seen) in default_scans.items()}


def pencil_poles(t, y, columns=analysis.PENCIL_COLUMNS):
    """(gamma, omega) of both pencil poles but the one closest to z = 1, a conjugate pair once.

    These are the two starts fit_damped_sine used to run, keeping the lower
    cost. Where the dropped pole is real, analysis._pencil_seed drops the
    same one and keeps the slowest of these.
    """
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    u = np.interp(np.linspace(t[0], t[-1], n), t, y)
    hankel = np.lib.stride_tricks.sliding_window_view(u, min(columns, n // 2 + 1))
    v = np.linalg.svd(hankel, full_matrices=False)[2][:3].T
    z = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    z = np.delete(z, np.argmin(np.abs(z - 1.0)))
    return list(dict.fromkeys(
        (max(-math.log(max(abs(zk), np.finfo(float).tiny)) / dt, 0.0),
         0.0 if zk.imag == 0.0 else abs(np.angle(zk)) / dt) for zk in z))


def scipy_oracle(t, y):
    """The scipy.optimize.least_squares run, x = (Gamma, omega), on the plain {cos, sin, 1} basis.

    The starts come from a wide pencil (n/2 + 1 Hankel columns), and the
    run with the lower cost is kept; its cost is half the sum of squared
    residuals.
    """
    def residual(x):
        env = np.exp(-x[0] * t)
        cols = np.column_stack([env * np.cos(x[1] * t), env * np.sin(x[1] * t), np.ones_like(t)])
        return cols @ np.linalg.lstsq(cols, y, rcond=None)[0] - y

    seeds = pencil_poles(t, y, columns=len(t) // 2 + 1)
    runs = [scipy.optimize.least_squares(
        residual, seed, bounds=([0.0, 0.0], [np.inf, np.inf]),
        xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=500) for seed in seeds]
    return min(runs, key=lambda run: run.cost)


def test_each_fit_makes_one_least_squares_call_as_good_as_the_best_of_both_poles(
        default_series, monkeypatch):
    cfg = config.resolve({}, "fig1")
    below = cfg.J_grid < analysis.ep_coupling(cfg.system.rates, 2)
    assert np.count_nonzero(below) == 9
    solve = analysis.least_squares
    calls = []
    monkeypatch.setattr(analysis, "least_squares",
                        lambda *args, **kwargs: calls.append(solve(*args, **kwargs)) or calls[-1])
    for (t, y), is_below in zip(default_series["fig1"], below):
        if not is_below:
            continue
        calls.clear()
        assert analysis.fit_damped_sine(t, y).converged
        assert len(calls) == 1
        poles = pencil_poles(t, y)
        assert len(poles) == 2  # two real poles, each of which the fit used to start from
        assert analysis._pencil_seed(t, y) == min(poles)
        best_of_both = min(
            solve(lambda x: analysis._projection(t, y, x)[1:], (gamma, omega * omega),
                  tol=analysis.FIT_TOL, max_nfev=analysis.FIT_MAX_NFEV).cost
            for gamma, omega in poles)
        assert abs(calls[0].cost - best_of_both) <= 1e-12 * best_of_both


@pytest.mark.parametrize("experiment, n_fits", [("fig1", 35), ("fig4", 33)])
def test_fits_match_scipy_on_the_default_series(default_scans, experiment, n_fits):
    # At the qutrit EP the series is critically damped, (P + S t) exp(-Gamma t) + C.
    # The oracle's {cos, sin, 1} basis reaches that form only as omega -> 0, so its
    # omega there is set by rounding noise in the series. At that point omega is held
    # to the spectrum's prediction instead, and the fit's cost to at most the oracle's.
    scan, series = default_scans[experiment]
    assert len(series) == len(scan.J_values) == n_fits
    at_ep = 0
    for J, omega_pred, (t, y) in zip(scan.J_values, scan.omega_pred, series):
        fit = analysis.fit_damped_sine(t, y)
        oracle = scipy_oracle(t, y)
        gamma, omega = oracle.x
        assert fit.converged
        assert abs(fit.gamma - gamma) <= 1e-6
        if experiment == "fig4" and math.isclose(J, scan.j_ep, abs_tol=1e-12):
            at_ep += 1
            assert abs(fit.omega - omega_pred) <= 1e-5
            assert 0.5 * len(t) * fit.residual_rms**2 <= oracle.cost
        else:
            assert abs(fit.omega - omega) <= 1e-5
    assert at_ep == (experiment == "fig4")


# --- spectral predictions ----------------------------------------------------------


def excited_projector():
    return np.diag([0.0, 1.0]).astype(complex)


def test_predict_rates_above_and_below_the_critical_coupling():
    rates = Rates(gamma_e=4.0)
    above = build_superoperator(make_system(DriveParams(J=1.8), rates))
    w, g = analysis.predict_rates(above, excited_projector(), obs_index=3)
    assert w == pytest.approx(0.25 * math.sqrt(64.0 * 1.8**2 - 16.0), abs=1e-9)
    assert g == pytest.approx(3.0, abs=1e-9)

    below = build_superoperator(make_system(DriveParams(J=0.3), rates))
    w, g = analysis.predict_rates(below, excited_projector(), obs_index=3)
    assert w == pytest.approx(0.0, abs=1e-9)
    assert g == pytest.approx(2.2, abs=1e-9)  # the slower real branch


def test_ep_coupling_formulas():
    assert analysis.ep_coupling(Rates(gamma_e=4.4, gamma_phi=0.1), 2) == pytest.approx(0.525)
    assert analysis.ep_coupling(Rates(gamma_e=4.5), 2) == pytest.approx(0.5625)
    assert analysis.ep_coupling(Rates(gamma_e=0.4, gamma_phi=0.2), 2) == 0.0
    assert analysis.ep_coupling(Rates(gamma_e=4.5, gamma_phi=3.0), 2) == pytest.approx(0.1875)
    assert analysis.ep_coupling(Rates(gamma_e=4.2), 3) == pytest.approx(1.05)
    with pytest.raises(DomainError):
        analysis.ep_coupling(Rates(gamma_e=1.0), 4)


def test_simulated_transient_matches_prediction_above_transition():
    ge, J = 4.0, 1.8
    system = make_system(DriveParams(J=J), rates=Rates(gamma_e=ge))
    t = np.linspace(0.0, 10.0, 500)
    res = integrate_constant(build_superoperator(system), excited_projector(), t)
    fit = analysis.fit_damped_sine(t, res.states[:, 1, 1].real)
    w_exp = 0.25 * math.sqrt(64.0 * J**2 - ge**2)
    assert fit.converged
    assert abs(fit.omega - w_exp) <= 0.02 * w_exp
    assert abs(fit.gamma - 0.75 * ge) <= 0.05 * 0.75 * ge


def test_deep_relaxational_regime_fits_to_zero_frequency():
    system = make_system(DriveParams(J=0.1), Rates(gamma_e=4.0))
    t = np.linspace(0.0, 10.0, 500)
    res = integrate_constant(build_superoperator(system), excited_projector(), t)
    fit = analysis.fit_damped_sine(t, res.states[:, 1, 1].real)
    assert fit.omega <= 0.1


# --- transition scans ----------------------------------------------------------------


def test_scan_transition_qubit():
    template = make_system(DriveParams(J=0.3), Rates(gamma_e=4.4, gamma_phi=0.1))
    Js = np.array([0.3, 0.45, 0.525, 0.6, 0.9, 1.2])
    scan = transition_scan(template, Js)
    assert scan.j_ep == pytest.approx(0.525)
    assert scan.failures == []
    assert list(scan.flagged) == [abs(J - 0.525) < 0.05 for J in Js]
    assert scan.omega_fit[0] <= 0.1
    assert scan.omega_fit[-1] == pytest.approx(scan.omega_pred[-1], rel=0.02)
    assert scan.transition_estimate(threshold=0.1) == pytest.approx(0.6)
    header, rows = scan.table()
    assert header == ["J", "omega_fit", "gamma_fit", "omega_pred", "gamma_pred", "flagged"]
    assert len(rows) == len(Js)


def test_scan_transition_qutrit_point_above_transition():
    template = make_system(DriveParams(J=0.3), Rates(gamma_e=4.2), dim=3)
    scan = transition_scan(template, [1.4])
    assert scan.j_ep == pytest.approx(1.05)
    assert scan.omega_fit[0] > 0.1


def test_qutrit_fits_below_the_transition_converge():
    # the acceptance-04 system just below its EP, where the series is overdamped
    template = make_system(DriveParams(J=1.0), Rates(4.2, 0.2, 0.3, 0.75), dim=3, f_decay_to="e")
    scan = transition_scan(template, [0.9, 1.0, 1.025])
    assert scan.failures == []
    assert [fit.converged for fit in scan.fits] == [True, True, True]
    assert scan.n_unconverged == 0


def test_scan_transition_takes_the_grids_generator_stack():
    template = make_system(DriveParams(J=0.3), Rates(gamma_e=4.4, gamma_phi=0.1))
    Js = np.array([0.3, 0.9])
    generators = superoperator_stack(operators(template, Js, 0.0, 4.4))
    # each row of the scan is what its J's own one-point stack gives
    header, rows = analysis.scan_transition(template, Js, generators, 10.0, 500).table()
    for J, row in zip(Js, rows):
        alone = build_superoperator(make_system(DriveParams(J=J), template.rates))
        one = analysis.scan_transition(template, [J], alone[None], 10.0, 500)
        assert one.table() == (header, [row])
    with pytest.raises(OutOfRange, match="generators"):
        analysis.scan_transition(template, Js, generators[:1], 10.0, 500)


def test_scan_transition_records_failures_instead_of_raising():
    template = make_system(DriveParams(J=0.3), Rates(gamma_e=4.4))
    scan = transition_scan(template, [0.3, 0.6], n_samples=4)
    assert len(scan.failures) == 2
    assert scan.fits == [None, None]
    assert np.all(np.isnan(scan.omega_fit))
    assert math.isnan(scan.transition_estimate())


# --- state metrics ---------------------------------------------------------------------


def test_chirality_metric():
    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.2, 0.8]).astype(complex)
    assert analysis.chirality(a, a) == pytest.approx(0.0, abs=1e-12)
    assert analysis.chirality(a, b) == pytest.approx(analysis.chirality(b, a))
    assert analysis.chirality(a, b) == pytest.approx(0.5)
    with pytest.raises(NotDensityMatrix):
        analysis.chirality(a, np.eye(2))


def test_entropy_values():
    assert analysis.entropy(np.eye(2) / 2.0) == pytest.approx(1.0, abs=1e-12)
    assert analysis.entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert analysis.entropy(np.diag([0.9, 0.1])) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(NotDensityMatrix):
        analysis.entropy(np.diag([2.0, -1.0]))


def test_entropy_is_basis_independent(rng):
    from conftest import random_density_matrix

    rho = random_density_matrix(rng, 3)
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(w)
    rotated = q @ rho @ q.conj().T
    assert analysis.entropy(rotated) == pytest.approx(analysis.entropy(rho), abs=1e-10)


# --- loop sweeps --------------------------------------------------------------------


def test_sweep_metrics_structure_and_ranges():
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    psi = plus_x()
    rho0 = np.outer(psi, psi.conj())
    out = analysis.sweep_metrics(system, [ParameterSchedule(T=1.0), ParameterSchedule(T=2.0)],
                                 rho0, dt=2e-3)
    assert list(out) == ["chirality", "entropy_cw", "entropy_ccw"]  # the sweeps table's column order
    for metric in out.values():
        assert metric.shape == (2,)
    for i in range(2):
        assert 0.0 <= out["chirality"][i] <= 1.0
        assert 0.0 <= out["entropy_cw"][i] <= 1.0
        assert 0.0 <= out["entropy_ccw"][i] <= 1.0
    assert out["chirality"][1] > 0.5  # strong chirality on the standard loop


def test_sweep_metrics_input_validation():
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6))
    psi = plus_x()
    rho0 = np.outer(psi, psi.conj())
    with pytest.raises(OutOfRange):
        analysis.sweep_metrics(system, [], rho0, 1e-3)


def test_a_sweep_keeps_only_final_states_and_they_are_unchanged(monkeypatch):
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    psi = plus_x()
    rho0 = np.outer(psi, psi.conj())
    dt = 4e-4
    # the second loop's own direction is ignored, and it takes more than one step block
    loops = [ParameterSchedule(T=0.5, gamma_e_schedule="cosine"),
             ParameterSchedule(T=2.0, direction="cw", Delta_max=3.0)]
    assert scheduled_step_count(loops[1].T, dt) > STEP_BLOCK
    integrate = analysis.integrate_scheduled
    runs = []
    monkeypatch.setattr(analysis, "integrate_scheduled",
                        lambda *args, **kwargs: runs.append(integrate(*args, **kwargs)) or runs[-1])
    out = analysis.sweep_metrics(system, loops, rho0, dt)
    assert [run.states.shape[0] for run in runs] == [2, 2, 2, 2]

    for i, loop in enumerate(loops):
        n_steps = scheduled_step_count(loop.T, dt)
        cw, ccw = (integrate(system, replace(loop, direction=direction), rho0, n_steps,
                             store_every=1).final_state for direction in ("cw", "ccw"))
        assert np.array_equal(runs[2 * i].final_state, cw)
        assert np.array_equal(runs[2 * i + 1].final_state, ccw)
        assert out["chirality"][i] == analysis.chirality(cw, ccw)
        assert out["entropy_cw"][i] == analysis.entropy(cw)
        assert out["entropy_ccw"][i] == analysis.entropy(ccw)
