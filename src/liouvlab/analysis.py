"""Parameter estimation and figure-of-merit metrics.

Covers the damped-sinusoid fit used to extract oscillation frequency and
decay rate from simulated time series, coupling-sweep scans of that fit
against Liouvillian eigenvalue predictions, and the chirality / entropy
metrics for encircling protocols.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import numerics
from .dynamics import (
    integrate_constant,
    integrate_scheduled,
    scheduled_step_count,
    validate_density_matrix,
)
from .errors import DegenerateInput, DomainError, InsufficientData, LiouvlabError, OutOfRange
from .liouvillian import superoperator_stack, vec
from .model import ParameterSchedule, QuantumSystem, Rates, basis_ket, operators

MIN_FIT_SAMPLES = 8
DEFAULT_FIT_WINDOW = 10.0  # us, about forty decay times of the fast branch
DEFAULT_FIT_SAMPLES = 500
EP_FLAG_RADIUS = 0.05  # rad/us; fits this close to the EP see t*exp(lambda t) terms
FIT_MAX_NFEV = 500  # residual evaluations per variable-projection start
FIT_TOL = 1e-15  # relative xtol, ftol and gtol of that iteration


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


def _linear_solve(t: np.ndarray, y: np.ndarray, gamma: float, omega: float):
    """Least-squares (P, Q, C) at fixed (gamma, omega), and the residual."""
    env = np.exp(-gamma * t)
    cols = np.column_stack([env * np.cos(omega * t), env * np.sin(omega * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
    return coef, cols @ coef - y


def _pencil_seeds(t: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """(gamma, omega) seeds from the poles of a rank-3 matrix pencil.

    The series is resampled onto a uniform grid of the same length, since
    the pencil needs uniform samples. Of the three poles, the one closest to
    z = 1 models the offset and is dropped; each other pole z gives
    gamma = -ln|z| / dt and omega = |arg z| / dt, with omega = 0 for a real
    pole (a negative real pole would otherwise seed omega at Nyquist).
    """
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    u = np.interp(np.linspace(t[0], t[-1], n), t, y)
    hankel = np.lib.stride_tricks.sliding_window_view(u, n // 2 + 1)
    v = np.linalg.svd(hankel, full_matrices=False)[2][:3].T
    z = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    z = np.delete(z, np.argmin(np.abs(z - 1.0)))
    seeds = []
    for zk in z:
        # a zero pole (a step) seeds the largest finite decay rate
        gamma = -math.log(max(abs(zk), np.finfo(float).tiny)) / dt
        omega = 0.0 if zk.imag == 0.0 else abs(np.angle(zk)) / dt
        seeds.append((max(gamma, 0.0), omega))
    return list(dict.fromkeys(seeds))  # a conjugate pair seeds one start


def least_squares(fun, x0, **kwargs):
    """scipy.optimize.least_squares, imported at its first call so that runs without a fit load no SciPy.

    fit_damped_sine looks this name up at every call, so a wrapper set on
    analysis.least_squares (perfbench/tracer.py counts calls and nfev) sees
    every start.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(fun, x0, **kwargs)


def fit_damped_sine(times, values) -> DampedSineFit:
    """Fit f(t) = A exp(-Gamma t) cos(omega t + phi) + C to a time series.

    Variable projection (Golub & Pereyra 1973): for fixed (Gamma, omega) the
    quadrature amplitudes and the offset solve a linear least-squares
    problem, so the trust-region iteration runs over (Gamma, omega) only,
    on the projected residual. The iteration starts from each non-offset
    pole of a rank-3 matrix pencil (Hua & Sarkar 1990), and the start with
    the lower residual is kept. `converged` reports whether that start met
    a convergence test within the evaluation budget. A constant series
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

    best = None
    for seed in _pencil_seeds(t, y):
        res = least_squares(
            lambda x: _linear_solve(t, y, x[0], x[1])[1],
            seed,
            bounds=([0.0, 0.0], [np.inf, np.inf]),
            xtol=FIT_TOL, ftol=FIT_TOL, gtol=FIT_TOL,
            max_nfev=FIT_MAX_NFEV,
        )
        if best is None or res.cost < best.cost:
            best = res

    gamma, omega = best.x
    (P, Q, offset), _ = _linear_solve(t, y, gamma, omega)
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

    Qubit: J_EP = |gamma_e/8 - gamma_phi/4|. Qutrit: the
    g-f coherence block coalesces at J_EP = gamma_e/4 independently of the
    dephasing and f-level rates, which shift both block eigenvalues by the
    same real constant.
    """
    if dim == 2:
        return abs(rates.gamma_e / 8.0 - rates.gamma_phi / 4.0)
    if dim == 3:
        return rates.gamma_e / 4.0
    raise DomainError(f"dim must be 2 or 3, got {dim}")


def predict_rates(L: np.ndarray, rho0: np.ndarray, obs_index: int) -> tuple[float, float]:
    """(omega, Gamma) predicted by the spectrum of the Liouvillian L for one observable.

    The initial state is expanded in the eigenbasis, each decaying mode is
    weighted by |coefficient| x |its component on the observed matrix
    element|, and the dominant mode plus its conjugate partner form the
    predicted pair: omega = max |Im lambda|, Gamma = min(-Re lambda) over the
    pair (the slower branch when the pair has split into two real rates).
    """
    dec = numerics.eig_general(L)
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

    fits holds one DampedSineFit per J (None where the fit raised), and
    omega_pred, gamma_pred the spectrum's prediction at each J. Points
    with |J - j_ep| < EP_FLAG_RADIUS are flagged: the defective-point dynamics
    carries secular t exp(lambda t) terms that bias the fit there.
    """

    J_values: np.ndarray
    fits: list[Optional[DampedSineFit]]
    omega_fit: np.ndarray
    gamma_fit: np.ndarray
    omega_pred: np.ndarray
    gamma_pred: np.ndarray
    flagged: np.ndarray
    failures: list[tuple[int, str]] = field(default_factory=list)
    j_ep: float = 0.0

    @property
    def n_unconverged(self) -> int:
        """Fits that returned without meeting a convergence test."""
        return sum(1 for f in self.fits if f is not None and not f.converged)

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


def initial_state_for(dim: int) -> np.ndarray:
    """The transition scans' start: |e><e| for dim 2, (|g> - |f>)/sqrt(2) for dim 3."""
    if dim == 2:
        e = basis_ket(2, 1)
        return np.outer(e, e.conj())
    psi = (basis_ket(3, 0) - basis_ket(3, 2)) / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def scan_transition(
    system_template: QuantumSystem,
    J_values,
    window: float = DEFAULT_FIT_WINDOW,
    n_samples: int = DEFAULT_FIT_SAMPLES,
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
    obs_index = 3 if dim == 2 else 2  # vectorized index of rho_ee, rho_gf
    rho0 = initial_state_for(dim)
    t_grid = np.linspace(0.0, window, n_samples)
    j_ep = ep_coupling(system_template.rates, dim)

    fits: list[Optional[DampedSineFit]] = []
    failures: list[tuple[int, str]] = []
    omega_fit = np.full(len(J_arr), np.nan)
    gamma_fit = np.full(len(J_arr), np.nan)
    omega_pred = np.empty(len(J_arr))
    gamma_pred = np.empty(len(J_arr))

    generators = superoperator_stack(operators(
        system_template, J_arr, system_template.drive.Delta, system_template.rates.gamma_e))
    for i, L in enumerate(generators):
        evo = integrate_constant(L, rho0, t_grid)
        series = evo.states[:, 1, 1].real if dim == 2 else np.abs(evo.states[:, 0, 2])
        omega_pred[i], gamma_pred[i] = predict_rates(L, rho0, obs_index)
        try:
            fit = fit_damped_sine(t_grid, series)
        except (LiouvlabError, ValueError) as exc:
            fits.append(None)
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        fits.append(fit)
        omega_fit[i] = fit.omega
        gamma_fit[i] = fit.gamma

    flagged = np.abs(J_arr - j_ep) < EP_FLAG_RADIUS
    return TransitionScan(
        J_values=J_arr,
        fits=fits,
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
    dt: float,
) -> SweepResult:
    """Chirality and entropies of cw/ccw final states across T or Delta_max.

    For each value the family schedule is rebuilt with that duration or
    detuning amplitude and integrated once per direction from the paired
    initial states (cw first), in scheduled_step_count(T, dt) steps.
    """
    if vary not in ("T", "Delta_max"):
        raise OutOfRange(f"vary must be 'T' or 'Delta_max', got {vary!r}")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(vals) == 0:
        raise OutOfRange("values must be a non-empty 1-d array")
    rho0_cw, rho0_ccw = rho0_pair

    chi = np.empty(len(vals))
    s_cw = np.empty(len(vals))
    s_ccw = np.empty(len(vals))
    fin_cw = np.empty((len(vals), system.dim, system.dim), dtype=complex)
    fin_ccw = np.empty_like(fin_cw)
    for i, v in enumerate(vals):
        base = replace(schedule_family, **{vary: float(v)})
        n_steps = scheduled_step_count(base.T, dt)
        evo_cw = integrate_scheduled(system, replace(base, direction="cw"), rho0_cw, n_steps)
        evo_ccw = integrate_scheduled(system, replace(base, direction="ccw"), rho0_ccw, n_steps)
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
