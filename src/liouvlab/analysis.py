"""Parameter estimation and figure-of-merit metrics.

Covers the damped-sinusoid fit used to extract oscillation frequency and
decay rate from simulated time series, coupling-sweep scans of that fit
against Liouvillian eigenvalue predictions, and the chirality / entropy
metrics for encircling protocols.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np
from scipy.optimize import least_squares

from . import numerics
from .dynamics import (
    MIN_SCHEDULED_STEPS,
    IntegratorConfig,
    integrate_constant,
    integrate_scheduled,
    step_count,
    validate_density_matrix,
)
from .errors import DegenerateInput, DomainError, InsufficientData, LiouvlabError, OutOfRange
from .liouvillian import build_superoperator, vec
from .model import DriveParams, ParameterSchedule, QuantumSystem, Rates, basis_ket

MIN_FIT_SAMPLES = 8
DEFAULT_FIT_WINDOW = 10.0  # us, about forty decay times of the fast branch
DEFAULT_FIT_SAMPLES = 500
EP_FLAG_RADIUS = 0.05  # rad/us; fits this close to the EP see t*exp(lambda t) terms


# ---------------------------------------------------------------------------
# Damped-sinusoid fitting


@dataclass
class DampedSineFit:
    """Parameters of f(t) = A exp(-Gamma t) cos(omega t + phi) + C.

    omega >= 0 and A >= 0 by convention; signs are absorbed into the phase,
    which lies in (-pi, pi].
    """

    omega: float
    gamma: float
    amplitude: float
    phase: float
    offset: float
    residual_rms: float
    converged: bool

    def model(self, times) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        return (
            self.amplitude
            * np.exp(-self.gamma * t)
            * np.cos(self.omega * t + self.phase)
            + self.offset
        )


def _model_pq(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    # x = (P, Q, gamma, omega, C); P cos + Q sin avoids the phase-wrap
    # discontinuity during iteration.
    P, Q, g, w, C = x
    env = np.exp(-g * t)
    return env * (P * np.cos(w * t) + Q * np.sin(w * t)) + C


def _jacobian_pq(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    P, Q, g, w, C = x
    env = np.exp(-g * t)
    c = np.cos(w * t)
    s = np.sin(w * t)
    jac = np.empty((t.size, 5))
    jac[:, 0] = env * c
    jac[:, 1] = env * s
    jac[:, 2] = -t * env * (P * c + Q * s)
    jac[:, 3] = t * env * (Q * c - P * s)
    jac[:, 4] = 1.0
    return jac


def _linear_init(t: np.ndarray, y: np.ndarray, gamma: float, omega: float):
    """Least-squares (P, Q, C) at fixed (gamma, omega)."""
    env = np.exp(-gamma * t)
    cols = np.column_stack([env * np.cos(omega * t), env * np.sin(omega * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    return coef


def _offset_guess(y: np.ndarray) -> float:
    tail = y[-max(len(y) // 4, 2):]
    return float(tail.mean())


def _frequency_guess(t: np.ndarray, y_detrended: np.ndarray) -> float:
    """Angular frequency of the discrete-spectrum peak (Hann window)."""
    n = len(t)
    dt_mean = float(np.diff(t).mean())
    spec = np.abs(np.fft.rfft(np.hanning(n) * y_detrended))
    if len(spec) < 2:
        return 0.0
    k = 1 + int(np.argmax(spec[1:]))
    return 2.0 * math.pi * k / (n * dt_mean)


def _decay_guess(t: np.ndarray, y_detrended: np.ndarray) -> float:
    """Slope of the log envelope, from block maxima of |y - C|."""
    n = len(t)
    n_blocks = min(8, max(2, n // 25))
    edges = np.linspace(0, n, n_blocks + 1).astype(int)
    centers, logs = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        peak = float(np.max(np.abs(y_detrended[a:b])))
        if peak > 0.0:
            centers.append(0.5 * (t[a] + t[b - 1]))
            logs.append(math.log(peak))
    if len(centers) < 2:
        return 1.0 / max(float(t[-1] - t[0]), 1e-12)
    slope = np.polyfit(centers, logs, 1)[0]
    return float(np.clip(-slope, 0.0, 1e6))


def fit_damped_sine(times, values, max_nfev: int = 2000) -> DampedSineFit:
    """Fit f(t) = A exp(-Gamma t) cos(omega t + phi) + C to a time series.

    Initial guesses: C from the tail mean, omega from the windowed discrete
    spectrum of (values - C), Gamma from the log-envelope slope, then a
    linear solve for the quadrature amplitudes. Three omega seeds
    (0, peak, 2 x peak) are run through a trust-region least-squares
    iteration and the lowest-residual solution is kept. A constant series
    short-circuits to the degenerate fit A = 0, omega = 0, Gamma = 0.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise DegenerateInput(f"times and values must be equal-length 1-d arrays, got {t.shape} and {y.shape}")
    if len(t) < MIN_FIT_SAMPLES:
        raise InsufficientData(f"need at least {MIN_FIT_SAMPLES} samples, got {len(t)}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise DegenerateInput("times and values must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise DegenerateInput("times must be strictly increasing")

    if np.ptp(y) == 0.0:
        return DampedSineFit(
            omega=0.0, gamma=0.0, amplitude=0.0, phase=0.0,
            offset=float(y[0]), residual_rms=0.0, converged=True,
        )

    c0 = _offset_guess(y)
    detrended = y - c0
    omega_peak = _frequency_guess(t, detrended)
    gamma0 = _decay_guess(t, detrended)

    lower = [-np.inf, -np.inf, 0.0, 0.0, -np.inf]
    upper = [np.inf] * 5
    best = None
    for omega_seed in dict.fromkeys([0.0, omega_peak, 2.0 * omega_peak]):
        p0, q0, c_init = _linear_init(t, y, gamma0, omega_seed)
        x0 = np.array([p0, q0, gamma0, omega_seed, c_init])
        if not np.all(np.isfinite(x0)):
            continue
        res = least_squares(
            lambda x: _model_pq(x, t) - y,
            x0,
            jac=lambda x: _jacobian_pq(x, t),
            bounds=(lower, upper),
            method="trf",
            xtol=1e-15, ftol=1e-15, gtol=1e-15,
            max_nfev=max_nfev,
        )
        if best is None or res.cost < best.cost:
            best = res

    if best is None:
        raise DegenerateInput("no finite initial guess could be formed")
    P, Q, gamma, omega, offset = best.x
    amplitude = math.hypot(P, Q)
    phase = math.atan2(-Q, P) if amplitude > 0.0 else 0.0
    return DampedSineFit(
        omega=float(omega),
        gamma=float(gamma),
        amplitude=float(amplitude),
        phase=float(phase),
        offset=float(offset),
        residual_rms=float(np.sqrt(np.mean(best.fun**2))),
        converged=bool(best.status > 0 and np.isfinite(best.cost)),
    )


# ---------------------------------------------------------------------------
# Coupling-sweep transition scan


def ep_coupling(rates: Rates, dim: int) -> float:
    """Coupling strength at the relevant exceptional point.

    Qubit: J_EP = gamma_e/8 - gamma_phi/4 (clipped at zero). Qutrit: the
    g-f coherence block coalesces at J_EP = gamma_e/4 independently of the
    dephasing and f-level rates, which shift both block eigenvalues by the
    same real constant.
    """
    if dim == 2:
        return max(rates.gamma_e / 8.0 - rates.gamma_phi / 4.0, 0.0)
    if dim == 3:
        return rates.gamma_e / 4.0
    raise DomainError(f"dim must be 2 or 3, got {dim}")


def predict_rates(system: QuantumSystem, rho0: np.ndarray, obs_index: int) -> tuple[float, float]:
    """(omega, Gamma) predicted by the Liouvillian spectrum for one observable.

    The initial state is expanded in the eigenbasis, each decaying mode is
    weighted by |coefficient| x |its component on the observed matrix
    element|, and the dominant mode plus its conjugate partner form the
    predicted pair: omega = max |Im lambda|, Gamma = min(-Re lambda) over the
    pair (the slower branch when the pair has split into two real rates).
    """
    sop = build_superoperator(system)
    dec = numerics.eig_general(sop.matrix)
    lam, V = dec.eigenvalues, dec.right_eigenvectors
    coeff = np.linalg.solve(V, vec(rho0))
    weight = np.abs(coeff) * np.abs(V[obs_index, :])
    scale = max(1.0, float(np.max(np.abs(lam))))
    significant = (np.abs(lam) > 1e-9 * scale) & (weight > 0.02 * max(weight.max(), 1e-300))
    idx = np.nonzero(significant)[0]
    if len(idx) == 0:
        return 0.0, 0.0
    lead = idx[np.argmax(weight[idx])]
    others = idx[idx != lead]
    if len(others) == 0:
        pair = lam[[lead]]
    else:
        partner = others[np.argmin(np.abs(lam[others] - np.conj(lam[lead])))]
        pair = lam[[lead, partner]]
    return float(np.max(np.abs(pair.imag))), float(-np.max(pair.real))


@dataclass
class TransitionScan:
    """Fit-versus-prediction survey across coupling strengths.

    fits holds one DampedSineFit per J (None where the fit raised);
    predicted holds the representative eigenvalue as (Re, Im) rows. Points
    with |J - j_ep| < flag radius are flagged: the defective-point dynamics
    carries secular t exp(lambda t) terms that bias the fit there.
    """

    J_values: np.ndarray
    fits: list[Optional[DampedSineFit]]
    predicted: np.ndarray  # (n, 2) columns (Re lambda, Im lambda)
    omega_fit: np.ndarray
    gamma_fit: np.ndarray
    omega_pred: np.ndarray
    gamma_pred: np.ndarray
    flagged: np.ndarray
    failures: list[tuple[int, str]] = field(default_factory=list)
    j_ep: float = 0.0

    def transition_estimate(self, threshold: float = 0.1) -> float:
        """Smallest scanned J whose fitted omega exceeds the threshold."""
        for J, w in zip(self.J_values, self.omega_fit):
            if np.isfinite(w) and w > threshold:
                return float(J)
        return float("nan")

    def table(self) -> tuple[list[str], list[list[float]]]:
        header = ["J", "omega_fit", "gamma_fit", "omega_pred", "gamma_pred", "flagged"]
        rows = [
            [float(J), float(wf), float(gf), float(wp), float(gp), float(fl)]
            for J, wf, gf, wp, gp, fl in zip(
                self.J_values, self.omega_fit, self.gamma_fit,
                self.omega_pred, self.gamma_pred, self.flagged,
            )
        ]
        return header, rows


def _initial_state_for(dim: int) -> np.ndarray:
    if dim == 2:
        e = basis_ket(2, 1)
        return np.outer(e, e.conj())
    psi = (basis_ket(3, 0) - basis_ket(3, 2)) / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def _resolve_selector(
    selector: Union[str, Callable[[np.ndarray], np.ndarray]], dim: int
) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Map a selector spec to (series extractor, vectorized observable index)."""
    if callable(selector):
        default_idx = dim * 1 + 1 if dim == 2 else 2
        return selector, default_idx
    name = selector
    if name == "auto":
        name = "rho_ee" if dim == 2 else "rho_gf_abs"
    if name == "rho_ee":
        if dim < 2:
            raise DomainError("rho_ee selector needs dim >= 2")
        return (lambda states: states[:, 1, 1].real), dim * 1 + 1
    if name == "rho_gf_abs":
        if dim != 3:
            raise DomainError("rho_gf_abs selector needs dim = 3")
        return (lambda states: np.abs(states[:, 0, 2])), 2
    raise DomainError(f"unknown observable selector {selector!r}")


def scan_transition(
    system_template: QuantumSystem,
    J_values,
    observable_selector: Union[str, Callable[[np.ndarray], np.ndarray]] = "auto",
    window: float = DEFAULT_FIT_WINDOW,
    n_samples: int = DEFAULT_FIT_SAMPLES,
    ep_flag_radius: float = EP_FLAG_RADIUS,
    cfg: Optional[IntegratorConfig] = None,
) -> TransitionScan:
    """Sweep J, fitting the simulated transient and attaching predictions.

    Qubit scans watch rho_ee from rho0 = |e><e|; qutrit scans watch |rho_gf|
    from the superposition (|g> - |f>)/sqrt(2). Per-point fit failures are
    recorded in `failures` rather than aborting the sweep. The prediction
    column is computed from the full jump-operator set, so any extra f-level
    loss channels configured on the template shift it automatically.
    """
    J_arr = np.asarray(J_values, dtype=float)
    if J_arr.ndim != 1 or len(J_arr) == 0:
        raise OutOfRange("J_values must be a non-empty 1-d array")
    dim = system_template.dim
    extractor, obs_index = _resolve_selector(observable_selector, dim)
    rho0 = _initial_state_for(dim)
    t_grid = np.linspace(0.0, window, n_samples)
    j_ep = ep_coupling(system_template.rates, dim)

    fits: list[Optional[DampedSineFit]] = []
    failures: list[tuple[int, str]] = []
    omega_fit = np.full(len(J_arr), np.nan)
    gamma_fit = np.full(len(J_arr), np.nan)
    omega_pred = np.empty(len(J_arr))
    gamma_pred = np.empty(len(J_arr))

    for i, J in enumerate(J_arr):
        system = system_template.with_drive(
            DriveParams(J=float(J), Delta=system_template.drive.Delta)
        )
        evo = integrate_constant(system, rho0, t_grid, cfg)
        series = np.asarray(extractor(evo.states), dtype=float)
        omega_pred[i], gamma_pred[i] = predict_rates(system, rho0, obs_index)
        try:
            fit = fit_damped_sine(t_grid, series)
        except (LiouvlabError, ValueError) as exc:
            fits.append(None)
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        fits.append(fit)
        omega_fit[i] = fit.omega
        gamma_fit[i] = fit.gamma

    predicted = np.column_stack([-gamma_pred, omega_pred])
    flagged = np.abs(J_arr - j_ep) < ep_flag_radius
    return TransitionScan(
        J_values=J_arr,
        fits=fits,
        predicted=predicted,
        omega_fit=omega_fit,
        gamma_fit=gamma_fit,
        omega_pred=omega_pred,
        gamma_pred=gamma_pred,
        flagged=flagged,
        failures=failures,
        j_ep=j_ep,
    )


# ---------------------------------------------------------------------------
# State metrics


def chirality(rho_cw: np.ndarray, rho_ccw: np.ndarray) -> float:
    """Trace distance between the two final states; 0 means no chirality."""
    a = validate_density_matrix(rho_cw)
    b = validate_density_matrix(rho_ccw, d=a.shape[0])
    return numerics.trace_distance(a, b)


def entropy(rho) -> float:
    """Von Neumann entropy in bits, with eigenvalues clipped to [0, 1]."""
    m = validate_density_matrix(rho)
    p = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


# ---------------------------------------------------------------------------
# Duration / detuning sweeps


@dataclass
class SweepResult:
    """Chirality and final-state entropies across one swept path parameter."""

    vary: str
    values: np.ndarray
    chirality: np.ndarray
    entropy_cw: np.ndarray
    entropy_ccw: np.ndarray
    final_cw: np.ndarray  # (n, d, d)
    final_ccw: np.ndarray

    def table(self) -> tuple[list[str], list[list[float]]]:
        header = [self.vary, "chirality", "entropy_cw", "entropy_ccw"]
        rows = [
            [float(v), float(c), float(scw), float(sccw)]
            for v, c, scw, sccw in zip(
                self.values, self.chirality, self.entropy_cw, self.entropy_ccw
            )
        ]
        return header, rows


def sweep_metrics(
    system: QuantumSystem,
    schedule_family: ParameterSchedule,
    vary: str,
    values,
    rho0_pair,
    cfg: Optional[IntegratorConfig] = None,
) -> SweepResult:
    """Chirality and entropies of cw/ccw final states across T or Delta_max.

    For each value the family schedule is rebuilt with that duration or
    detuning amplitude and integrated once per direction from the paired
    initial states (cw first). Step count follows the integrator dt with the
    scheduled-integration minimum.
    """
    if vary not in ("T", "Delta_max"):
        raise OutOfRange(f"vary must be 'T' or 'Delta_max', got {vary!r}")
    if any(f is not None for f in (schedule_family.J_of_t, schedule_family.Delta_of_t, schedule_family.gamma_e_of_t)):
        raise DomainError("sweeps require the default path parameterization")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(vals) == 0:
        raise OutOfRange("values must be a non-empty 1-d array")
    cfg = cfg or IntegratorConfig()
    rho0_cw, rho0_ccw = rho0_pair

    chi = np.empty(len(vals))
    s_cw = np.empty(len(vals))
    s_ccw = np.empty(len(vals))
    fin_cw = np.empty((len(vals), system.dim, system.dim), dtype=complex)
    fin_ccw = np.empty_like(fin_cw)
    for i, v in enumerate(vals):
        base = replace(schedule_family, **{vary: float(v)})
        n_steps = max(MIN_SCHEDULED_STEPS, step_count(base.T, cfg.dt))
        evo_cw = integrate_scheduled(
            system, replace(base, direction="cw"), rho0_cw, n_steps, cfg
        )
        evo_ccw = integrate_scheduled(
            system, replace(base, direction="ccw"), rho0_ccw, n_steps, cfg
        )
        fin_cw[i] = evo_cw.final_state
        fin_ccw[i] = evo_ccw.final_state
        chi[i] = chirality(fin_cw[i], fin_ccw[i])
        s_cw[i] = entropy(fin_cw[i])
        s_ccw[i] = entropy(fin_ccw[i])
    return SweepResult(
        vary=vary,
        values=vals,
        chirality=chi,
        entropy_cw=s_cw,
        entropy_ccw=s_ccw,
        final_cw=fin_cw,
        final_ccw=fin_ccw,
    )
