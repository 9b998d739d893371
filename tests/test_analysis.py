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
        omega=2.0, gamma=0.5, gamma_fast=0.5, amplitude=1.2, phase=-0.3, offset=0.1,
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


# --- the fit near omega = 0 and below the EP ----------------------------------------


def test_basis_and_projected_residual_are_smooth_at_zero_frequency():
    t = np.linspace(0.0, 10.0, 500)
    y = 0.4 * np.exp(-1.2 * t) * np.cos(0.8 * t + 0.3) + 0.1
    at_zero = analysis._basis(t, 1.2, 0.0)
    # the sin(wt)/w column is t e^-Gt at w = 0, not a column of zeros
    np.testing.assert_array_equal(at_zero[0][:, 1], t * np.exp(-1.2 * t))
    for s in (1e-12**2, -1e-12**2):  # omega = 1e-12, and kappa = 1e-12 below the EP
        for near, at in zip(analysis._basis(t, 1.2, s), at_zero):  # the columns and both derivatives
            np.testing.assert_allclose(near, at, rtol=1e-15, atol=0.0)
    # theta = (G, G^2 + s): one ulp of G^2 either side of s = 0
    r_zero = analysis._projection(t, y, np.array([1.2, 1.2 * 1.2]))[0]
    for p in (np.nextafter(1.44, 2.0), np.nextafter(1.44, 0.0)):
        r_near = analysis._projection(t, y, np.array([1.2, p]))[0]
        assert np.max(np.abs(r_near - r_zero)) <= 1e-15


def test_the_basis_below_the_ep_is_the_two_decays_and_never_overflows():
    t = np.linspace(0.0, 10.0, 500)
    for gamma, kappa in [(3.0, 1.0), (3.0, 0.01), (400.0, 399.5), (1e3, 1e3)]:
        cols, d_gamma, d_s = analysis._basis(t, gamma, -kappa * kappa)
        assert all(np.all(np.isfinite(m)) for m in (cols, d_gamma, d_s))
        slow, fast = np.exp(-(gamma - kappa) * t), np.exp(-(gamma + kappa) * t)
        np.testing.assert_allclose(cols[:, 0], 0.5 * (slow + fast), rtol=1e-14, atol=0.0)
        if gamma < 10.0:  # where cosh and sinh themselves stay finite
            env = np.exp(-gamma * t)
            np.testing.assert_allclose(cols[:, 0], env * np.cosh(kappa * t), rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(cols[:, 1], env * np.sinh(kappa * t) / kappa, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("theta", [(1.2, 0.0), (1.2, 0.09), (0.4, 6.25), (2.0, -1.0), (1.0, -1e-4)])
def test_kaufman_jacobian_gives_the_exact_gradient(theta):
    # theta = (Gamma, s) with s = omega^2 of either sign; the fit runs over (Gamma, Gamma^2 + s)
    theta = (theta[0], theta[0] ** 2 + theta[1])
    t = np.linspace(0.0, 10.0, 500)
    y = 0.4 * np.exp(-1.0 * t) * np.cos(0.7 * t + 0.3) + 0.3 * np.exp(-2.0 * t) + 0.1

    def cost(x):
        r = analysis._projection(t, y, np.asarray(x, dtype=float))[0]
        return 0.5 * float(r @ r)

    r, jac, _ = analysis._projection(t, y, np.array(theta))
    h = 1e-6
    for k in range(2):
        up, down = np.array(theta), np.array(theta)
        up[k] += h
        down[k] -= h
        slope = (cost(up) - cost(down)) / (up[k] - down[k])
        assert (jac.T @ r)[k] == pytest.approx(slope, rel=1e-4, abs=1e-12)


@pytest.mark.parametrize("P, S, gamma, C", [(1.0, -2.0, 0.5, 0.3), (-0.5, 2.5, 0.7, 0.4)])
def test_critically_damped_series_fits_with_zero_frequency(P, S, gamma, C):
    t = np.linspace(0.0, 10.0, 500)
    fit = analysis.fit_damped_sine(t, (P + S * t) * np.exp(-gamma * t) + C)
    assert fit.converged
    # s = 0 to what rounding resolves: an exact series fixes s to about 1e-16,
    # so omega and the split of the two rates are each about 1e-8
    assert fit.omega <= 1e-6
    assert abs(fit.gamma - gamma) <= 1e-6
    assert abs(fit.gamma_fast - gamma) <= 1e-6
    assert fit.residual_rms <= 1e-9


@pytest.mark.parametrize("a, b", [(0.7, -0.5), (-0.7, 0.2)])
def test_overdamped_series_fits_on_zero_frequency_with_the_t_term_outside_amplitude(a, b):
    # below the EP the fitted curve is e^-Gt (P cosh kt + S sinh(kt) / k) + C, the
    # continuation of (P + S t) e^-Gt + C: two decays at the rates G -+ k
    t = np.linspace(0.0, 10.0, 500)
    y = a * np.exp(-1.0 * t) + b * np.exp(-3.0 * t) + 0.1
    fit = analysis.fit_damped_sine(t, y)
    assert fit.converged
    assert fit.omega == 0.0
    assert abs(fit.gamma - 1.0) <= 1e-6
    assert abs(fit.gamma_fast - 3.0) <= 1e-6
    assert fit.residual_rms <= 1e-12
    # (A, phi) carry the slow decay's term alone: A = |a|, phi = 0 or pi, so the
    # (A, phi) curve is a e^-t + C without the fast term
    assert fit.amplitude == pytest.approx(abs(a), rel=1e-9)
    assert fit.phase == (0.0 if a >= 0.0 else math.pi)
    assert fit.offset == pytest.approx(0.1, rel=1e-9)
    np.testing.assert_allclose(damped_sine_model(fit, t), a * np.exp(-t) + 0.1, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("gamma", [0.5, 1.3, 2.2847739, 2.8])
def test_a_single_decay_with_no_offset_fits_its_rate_or_reports_unconverged(gamma):
    # rank 1 in the basis: the pencil finds one pole and takes it twice, so no
    # noise pole seeds the fit. Only at 2.2847739, where the pencil once seeded
    # from a noise pole, may the fit report that it did not converge.
    t = np.linspace(0.0, 10.0, 500)
    fit = analysis.fit_damped_sine(t, 1.2 * np.exp(-gamma * t))
    if gamma != 2.2847739:
        assert fit.converged
    if fit.converged:
        assert abs(fit.gamma - gamma) <= 1e-9 * gamma
        assert fit.amplitude == pytest.approx(1.2, rel=1e-9)
        assert fit.residual_rms <= 1e-12


def test_the_fit_is_continuous_through_the_ep():
    # fig1's system on a fine J grid across its EP at J = 0.525: the fit's mean
    # rate G and s = omega^2 - kappa^2 follow the spectrum's, smoothly through s = 0
    template = make_system(DriveParams(J=0.3), Rates(gamma_e=4.4, gamma_phi=0.1))
    Js = np.linspace(0.45, 0.6, 61)
    scan = transition_scan(template, Js)
    assert scan.failures == [] and scan.n_unconverged == 0

    def mean_rate_and_s(omega, gamma, gamma_fast):
        return 0.5 * (gamma + gamma_fast), omega**2 - (0.5 * (gamma_fast - gamma))**2

    fit_g, fit_s = mean_rate_and_s(scan.omega_fit, scan.gamma_fit, scan.gamma_fast_fit)
    pred_g, pred_s = mean_rate_and_s(scan.omega_pred, scan.gamma_pred, scan.gamma_fast_pred)
    assert pred_s[0] < 0.0 < pred_s[-1]
    assert np.max(np.abs(fit_g - pred_g)) <= 1e-6
    assert np.max(np.abs(fit_s - pred_s)) <= 1e-6
    # away from the EP each rate and the frequency match to 1e-6
    far = np.abs(Js - scan.j_ep) >= 0.02
    for fitted, predicted in [(scan.omega_fit, scan.omega_pred), (scan.gamma_fit, scan.gamma_pred),
                              (scan.gamma_fast_fit, scan.gamma_fast_pred)]:
        assert np.max(np.abs(fitted[far] - predicted[far])) <= 1e-6


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
    # |rho_gf| above the qutrit EP folds a damped sine at each sign change, so
    # no fit model holds it and its fit needs more than two evaluations
    template = replace(config.resolve({}, "fig4").system, drive=DriveParams(J=1.4))
    t = np.linspace(0.0, 10.0, 500)
    start = analysis.initial_state_for(3)
    series = np.abs(integrate_constant(build_superoperator(template), start, t).states[:, 0, 2])
    solve = analysis.least_squares
    runs = []
    monkeypatch.setattr(analysis, "least_squares",
                        lambda *args, **kwargs: runs.append(solve(*args, **kwargs)) or runs[-1])
    assert analysis.fit_damped_sine(t, series).converged
    assert runs[-1].nfev > 2
    assert transition_scan(template, [1.4]).n_unconverged == 0

    monkeypatch.setattr(analysis, "FIT_MAX_NFEV", 2)
    assert not analysis.fit_damped_sine(t, series).converged
    assert runs[-1].status == 0 and runs[-1].nfev == 2
    # the scan fits Re rho_gf, which the model holds, in exactly 2 evaluations,
    # so a budget of 1 leaves it unconverged
    monkeypatch.setattr(analysis, "FIT_MAX_NFEV", 1)
    assert transition_scan(template, [1.4]).n_unconverged == 1


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
    """(gamma, omega) of both poles of a rank-3 pencil but the one closest to z = 1, a conjugate pair once.

    These are the single-pole starts that fit_damped_sine used to take, on
    the basis whose second parameter was omega^2 >= 0.
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
    residuals. omega >= 0 bounds it to one side of the EP.
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


def rounding_cost(t):
    """Half the squared norm of a residual of 4 eps per sample: the cost of a fit exact to rounding."""
    return 0.5 * len(t) * (4.0 * np.finfo(float).eps) ** 2


def test_each_fit_makes_one_least_squares_call_as_good_as_the_best_of_both_poles(
        default_series, monkeypatch):
    # below the EP the one start is the pencil's pair; a start from either of its
    # poles alone, on the same basis, ends no lower
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
        assert len(poles) == 2  # two real poles
        gamma, p = analysis._pencil_seed(t, y)
        (g1, _), (g2, _) = poles
        assert gamma == pytest.approx(0.5 * (g1 + g2), rel=1e-6)
        assert p == pytest.approx(g1 * g2, rel=1e-6)
        runs = [solve(lambda x: analysis._projection(t, y, x), (g, g * g + w * w),
                      tol=analysis.FIT_TOL, max_nfev=analysis.FIT_MAX_NFEV)
                for g, w in poles]
        # the pair reaches the exact fit, a residual at rounding, in at most 2
        # evaluations; each pole alone heads for the same point and takes 10 or more
        assert calls[0].cost <= rounding_cost(t)
        assert calls[0].nfev <= 2
        for run in runs:
            assert run.nfev >= 10
            np.testing.assert_allclose(run.x, calls[0].x, rtol=1e-9, atol=0.0)


def test_the_default_fig4_fits_read_the_predicted_rates_away_from_the_ep(default_scans):
    # Re rho_gf is one damped sine (or two decays) of the g-f block, so away
    # from the EP each fit reads the Liouvillian's rates to rounding
    scan, _series = default_scans["fig4"]
    table = scan.table()
    away = np.abs(scan.J_values - scan.j_ep) >= analysis.EP_FLAG_RADIUS
    assert np.count_nonzero(away) >= 30
    for rate in ("omega", "gamma", "gamma_fast"):
        np.testing.assert_allclose(table[f"{rate}_fit"][away], table[f"{rate}_pred"][away],
                                   rtol=0.0, atol=1e-9, err_msg=rate)


def test_the_default_fig1_scan_makes_at_most_60_evaluations(monkeypatch):
    cfg = config.resolve({}, "fig1")
    solve = analysis.least_squares
    runs = []
    monkeypatch.setattr(analysis, "least_squares",
                        lambda *args, **kwargs: runs.append(solve(*args, **kwargs)) or runs[-1])
    scan = transition_scan(cfg.system, cfg.J_grid, cfg.scan["window"], cfg.scan["n_samples"])
    assert len(runs) == len(cfg.J_grid) == 35
    assert scan.n_unconverged == 0
    assert sum(run.nfev for run in runs) <= 60


@pytest.mark.parametrize("experiment, n_fits", [("fig1", 35), ("fig4", 33)])
def test_fits_match_scipy_on_the_default_series(default_scans, experiment, n_fits):
    # Below the EP the oracle, held to omega >= 0, fits neither rate; the fit's
    # cost is at most the oracle's there, and its two rates are the
    # Liouvillian's. At the qutrit EP the series is critically damped,
    # (P + S t) exp(-Gamma t) + C, which the oracle's {cos, sin, 1} basis reaches
    # only as omega -> 0, so its omega is set by rounding noise in the series.
    # There omega is held to the spectrum's prediction instead, and the cost to
    # at most the oracle's. Above the EP both fit the same model, and their costs
    # tie at rounding (fig1's within 1e-28, fig4's within 3e-15 relative), so
    # there the parameters are held to the oracle's.
    scan, series = default_scans[experiment]
    assert len(series) == len(scan.J_values) == n_fits
    at_ep = below = 0
    for i, (J, (t, y)) in enumerate(zip(scan.J_values, series)):
        fit = analysis.fit_damped_sine(t, y)
        oracle = scipy_oracle(t, y)
        gamma, omega = oracle.x
        cost = 0.5 * len(t) * fit.residual_rms**2
        assert fit.converged
        if experiment == "fig4" and math.isclose(J, scan.j_ep, abs_tol=1e-12):
            at_ep += 1
            assert cost <= oracle.cost
            assert abs(fit.omega - scan.omega_pred[i]) <= 1e-5
            assert abs(fit.gamma - gamma) <= 1e-6
        elif J < scan.j_ep:
            below += 1
            assert cost <= oracle.cost
            assert fit.omega == 0.0
            assert abs(fit.gamma - scan.gamma_pred[i]) <= 1e-6 * scan.gamma_pred[i]
            assert abs(fit.gamma_fast - scan.gamma_fast_pred[i]) <= 1e-6 * scan.gamma_fast_pred[i]
        else:
            assert abs(fit.gamma - gamma) <= 1e-6
            assert fit.gamma_fast == fit.gamma
            assert abs(fit.omega - omega) <= 1e-5
    assert at_ep == (experiment == "fig4")
    assert below == {"fig1": 9, "fig4": 17}[experiment]


def test_below_the_ep_gamma_pred_reads_the_slow_branch(default_scans):
    # at J = 0.10 the slow mode carries 1.3% of the largest weight, under the
    # 2% cut that used to pick the pair
    scan, _series = default_scans["fig1"]
    rows = {round(float(J), 2): i for i, J in enumerate(scan.J_values)}
    for J, slow, fast in [(0.10, 2.3192, 4.3808), (0.15, 2.3438, 4.3562)]:
        assert scan.gamma_pred[rows[J]] == pytest.approx(slow, abs=5e-5)
        assert scan.gamma_fast_pred[rows[J]] == pytest.approx(fast, abs=5e-5)
        assert scan.gamma_fit[rows[J]] == pytest.approx(scan.gamma_pred[rows[J]], rel=1e-6)


# --- spectral predictions ----------------------------------------------------------


def excited_projector():
    return np.diag([0.0, 1.0]).astype(complex)


def test_predict_rates_above_and_below_the_critical_coupling():
    rates = Rates(gamma_e=4.0)
    above = build_superoperator(make_system(DriveParams(J=1.8), rates))
    w, g, g_fast = analysis.predict_rates(above, excited_projector(), obs_index=3)
    assert w == pytest.approx(0.25 * math.sqrt(64.0 * 1.8**2 - 16.0), abs=1e-9)
    assert g == pytest.approx(3.0, abs=1e-9)
    assert g_fast == g  # one rate above the EP

    below = build_superoperator(make_system(DriveParams(J=0.3), rates))
    w, g, g_fast = analysis.predict_rates(below, excited_projector(), obs_index=3)
    assert w == 0.0
    assert g == pytest.approx(2.2, abs=1e-9)  # the slower real branch
    assert g_fast == pytest.approx(3.8, abs=1e-9)

    # a stack takes one call, and each slice is what it gives alone
    stacked = analysis.predict_rates(np.stack([above, below]), excited_projector(), obs_index=3)
    for k, L in enumerate((above, below)):
        alone = analysis.predict_rates(L, excited_projector(), obs_index=3)
        assert [float(x[k]) for x in stacked] == [float(x) for x in alone]


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
    assert scan.transition_estimate() == pytest.approx(0.6)
    table = scan.table()
    assert list(table) == ["J", "omega_fit", "gamma_fit", "gamma_fast_fit", "omega_pred",
                           "gamma_pred", "gamma_fast_pred", "flagged"]
    assert [len(column) for column in table.values()] == [len(Js)] * len(table)
    above = Js > scan.j_ep
    assert np.array_equal(scan.gamma_fast_fit[above], scan.gamma_fit[above])
    assert np.array_equal(scan.gamma_fast_pred[above], scan.gamma_pred[above])
    below = Js < scan.j_ep
    assert np.all(scan.gamma_fast_fit[below] > scan.gamma_fit[below])


def test_the_transition_estimate_is_the_smallest_j_past_it_in_any_grid_order():
    # 1.5 and 1.2 lie above the EP (0.525) and 0.3 below it; 1.5 comes first in the grid
    template = make_system(DriveParams(J=0.3), Rates(gamma_e=4.4, gamma_phi=0.1))
    scan = transition_scan(template, [1.5, 0.3, 1.2])
    assert list(scan.omega_fit > analysis.TRANSITION_OMEGA) == [True, False, True]
    assert scan.transition_estimate() == 1.2


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
    table = analysis.scan_transition(template, Js, generators, 10.0, 500).table()
    for i, J in enumerate(Js):
        alone = build_superoperator(make_system(DriveParams(J=J), template.rates))
        one = analysis.scan_transition(template, [J], alone[None], 10.0, 500).table()
        assert list(one) == list(table)
        for name, column in one.items():
            assert np.array_equal(column, table[name][i:i + 1]), name
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
