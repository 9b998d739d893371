"""Parameter estimation and figure-of-merit metrics.

Covers the damped-sinusoid fit used to extract oscillation frequency and
decay rate from simulated time series, coupling-sweep scans of that fit
against Liouvillian eigenvalue predictions, and the chirality / entropy
metrics of encircling loops, which sweep_metrics takes over a sequence of
loops.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import numerics
from .dynamics import (
    integrate_constant,
    integrate_scheduled,
    scheduled_step_count,
    validate_density_matrix,
)
from .errors import DegenerateInput, DomainError, InsufficientData, LiouvlabError, OutOfRange
from .liouvillian import vec, zero_modes
from .model import ParameterSchedule, QuantumSystem, Rates, basis_ket

MIN_FIT_SAMPLES = 8
EP_FLAG_RADIUS = 0.05  # rad/us; fits this close to the EP see t*exp(lambda t) terms
FIT_MAX_NFEV = 500  # residual evaluations per fit
FIT_TOL = 1e-15  # tolerance of its gradient, cost-reduction and step tests


# ---------------------------------------------------------------------------
# Damped-sinusoid fitting


@dataclass
class DampedSineFit:
    """Parameters of f(t) = A exp(-Gamma t) cos(omega t + phi) + C.

    omega >= 0 and A >= 0 by convention; signs are absorbed into the phase,
    which lies in (-pi, pi]. At omega = 0 the fitted curve is
    (P + S t) exp(-Gamma t) + C, whose t-term the (A, phi) form cannot
    carry: there amplitude = |P| and phase is 0 (P >= 0) or pi (P < 0), so
    the (A, phi) form gives the P exp(-Gamma t) + C part alone, while
    residual_rms is that of the full curve.
    """

    omega: float
    gamma: float
    amplitude: float
    phase: float
    offset: float
    residual_rms: float
    converged: bool


# h(x) = (x cos x - sin x) / x^3 = sum_k (-1)^k 2k x^(2k-2) / (2k+1)!, k = 1..7,
# highest power first; below x = 0.5 the series is exact to rounding
_H_SERIES = [(-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(7, 0, -1)]


def _basis(t: np.ndarray, gamma: float, omega_sq: float):
    """Columns {e^-Gt cos wt, e^-Gt sin(wt)/w, 1}, and the G and w^2 derivatives of the first two.

    Both columns are even in w, so they are smooth functions of w^2, and
    sin(wt)/w = t sinc(wt) tends to t as w -> 0: the columns, their
    derivatives and the projected residual are smooth through w = 0, where
    the fit takes the critically damped form (P + S t) e^-Gt + C.
    """
    env = np.exp(-gamma * t)
    x = math.sqrt(omega_sq) * t
    cos = env * np.cos(x)
    sin_w = env * t * np.sinc(x / np.pi)
    small = x < 0.5
    x_big = np.where(small, 1.0, x)
    h = np.where(small, np.polyval(_H_SERIES, x * x),
                 (x_big * np.cos(x_big) - np.sin(x_big)) / x_big**3)
    cols = np.column_stack([cos, sin_w, np.ones_like(t)])
    d_gamma = np.column_stack([-t * cos, -t * sin_w])
    d_omega_sq = np.column_stack([-0.5 * t * sin_w, 0.5 * env * t**3 * h])
    return cols, d_gamma, d_omega_sq


def _projection(t: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """Coefficients c, residual r = y - Phi c and Kaufman's Jacobian at theta = (G, w^2).

    c is the minimum-norm least-squares solution (with np.linalg.lstsq's rank
    cut), r = P_perp y, and the Jacobian's columns are -P_perp (dPhi/dtheta_k) c
    (Kaufman, BIT 15, 49, 1975). It drops a term of the exact Jacobian whose
    product with r vanishes, so the gradient J^T r is exact.
    """
    cols, d_gamma, d_omega_sq = _basis(t, theta[0], theta[1])
    u, s, vt = np.linalg.svd(cols, full_matrices=False)
    keep = s > s[0] * len(t) * np.finfo(float).eps
    u, s, vt = u[:, keep], s[keep], vt[keep]
    uy = u.T @ y
    coef = vt.T @ (uy / s)
    d = np.column_stack([d_gamma @ coef[:2], d_omega_sq @ coef[:2]])
    return coef, y - u @ uy, u @ (u.T @ d) - d


PENCIL_COLUMNS = 32  # Hankel columns of the seeding pencil; rank 3 needs few


def _pencil_seed(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The (gamma, omega) seed of the slowest pole of a rank-3 matrix pencil.

    The series is resampled onto a uniform grid of the same length, since
    the pencil needs uniform samples. Its Hankel matrix has PENCIL_COLUMNS
    columns (fewer for a short series): noise-free data of rank 3 needs no
    more, and the SVD stays small. Of the three poles, the real one closest
    to z = 1 models the offset and is dropped: an offset's pole is real, and
    a series with no offset would otherwise lose half of its conjugate pair
    to the spare pole. Of the other two, the one with the largest |z| (a
    conjugate pair's two share it) seeds gamma = -ln|z| / dt and
    omega = |arg z| / dt, with omega = 0 for a real pole (a negative real
    pole would otherwise seed omega at Nyquist).
    """
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    u = np.interp(np.linspace(t[0], t[-1], n), t, y)
    hankel = np.lib.stride_tricks.sliding_window_view(u, min(PENCIL_COLUMNS, n // 2 + 1))
    v = np.linalg.svd(hankel, full_matrices=False)[2][:3].T
    z = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    real = np.flatnonzero(z.imag == 0.0)  # never empty: complex poles come in pairs
    z = np.delete(z, real[np.argmin(np.abs(z[real] - 1.0))])
    zk = z[np.argmax(np.abs(z))]
    # a zero pole (a step) seeds the largest finite decay rate
    gamma = -math.log(max(abs(zk), np.finfo(float).tiny)) / dt
    omega = 0.0 if zk.imag == 0.0 else abs(np.angle(zk)) / dt
    return max(gamma, 0.0), omega


@dataclass
class LeastSquaresResult:
    """Where least_squares stopped.

    x is the last accepted point, fun the residual there and cost half its
    squared norm; nfev counts residual evaluations. status is 0 when the
    evaluation budget ran out, and otherwise the test that was met:
    1 gradient, 2 cost reduction, 3 step size, 4 both 2 and 3.
    """

    x: np.ndarray
    fun: np.ndarray
    cost: float
    nfev: int
    status: int


def least_squares(fun, x0, *, tol: float, max_nfev: int) -> LeastSquaresResult:
    """Minimise cost(x) = |r(x)|^2 / 2 over x >= 0 by projected Levenberg-Marquardt.

    fun(x) returns the residual r and its Jacobian J. A variable on its bound
    is held there while its gradient component is >= 0; each step
    solves (J^T J + mu I) h = -J^T r over the other variables, is projected
    onto x >= 0 and costs one evaluation, and is kept when it lowers the
    cost. mu starts at 1e-3 times the largest diagonal entry of J^T J and
    follows Nielsen's update (Madsen, Nielsen & Tingleff, "Methods for
    non-linear least squares problems", DTU 2004, alg. 3.16). The tests: the
    gradient over the free variables is below tol in every entry (status 1);
    a kept step lowered the cost by less than tol times the cost, with at
    least a quarter of the predicted reduction (2); |h| < tol (tol + |x|)
    (3); 4 when 2 and 3 hold together. After max_nfev evaluations with no
    test met, status is 0.

    fit_damped_sine looks this name up at every call, so a wrapper set on
    analysis.least_squares (perfbench/tracer.py counts calls and nfev) sees
    every fit.
    """
    x = np.maximum(np.asarray(x0, dtype=float), 0.0)
    r, jac = fun(x)
    nfev = 1
    cost = 0.5 * float(r @ r)
    a, g = jac.T @ jac, jac.T @ r
    mu, nu = 1e-3 * max(float(np.max(np.diag(a))), np.finfo(float).tiny), 2.0
    status = 0
    while True:
        free = (x > 0.0) | (g < 0.0)
        if np.max(np.abs(g[free]), initial=0.0) < tol:
            status = 1
            break
        if nfev >= max_nfev:
            break
        h = np.zeros_like(x)
        h[free] = np.linalg.solve(a[np.ix_(free, free)] + mu * np.eye(np.count_nonzero(free)),
                                  -g[free])
        x_new = np.maximum(x + h, 0.0)
        step = x_new - x
        r_new, jac_new = fun(x_new)
        nfev += 1
        cost_new = 0.5 * float(r_new @ r_new)
        reduction = cost - cost_new if np.isfinite(cost_new) else -np.inf
        predicted = -float(g @ step) - 0.5 * float(step @ a @ step)
        ratio = reduction / predicted if predicted > 0.0 else 0.0
        ftol_met = 0.0 < reduction < tol * cost and ratio > 0.25
        xtol_met = np.linalg.norm(h) < tol * (tol + np.linalg.norm(x))
        if reduction > 0.0:
            x, r, cost = x_new, r_new, cost_new
            a, g = jac_new.T @ jac_new, jac_new.T @ r_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(ratio, 1.0) - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if ftol_met or xtol_met:
            status = 4 if ftol_met and xtol_met else (2 if ftol_met else 3)
            break
    return LeastSquaresResult(x=x, fun=r, cost=cost, nfev=nfev, status=status)


def fit_damped_sine(times, values) -> DampedSineFit:
    """Fit f(t) = A exp(-Gamma t) cos(omega t + phi) + C to a time series.

    Variable projection (Golub & Pereyra 1973): for fixed (Gamma, omega) the
    coefficients of e^-Gt cos wt, e^-Gt sin(wt)/w and 1 solve a linear
    least-squares problem, so least_squares (Levenberg-Marquardt with
    Kaufman's Jacobian) runs over (Gamma, omega^2) >= 0 only, on the
    projected residual. The columns are smooth in omega^2 through omega = 0,
    where the fit is the critically damped (P + S t) e^-Gt + C; so a start
    at omega = 0 can leave it, and an overdamped series stops on it exactly.
    The one iteration starts from the slowest non-offset pole of a rank-3
    matrix pencil (Hua & Sarkar 1990), with FIT_TOL and FIT_MAX_NFEV as they
    are at the call. `converged` reports whether it met a convergence test
    within the evaluation budget.
    A constant series short-circuits to the degenerate fit A = 0,
    omega = 0, Gamma = 0.
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

    gamma, omega = _pencil_seed(t, y)
    res = least_squares(lambda x: _projection(t, y, x)[1:], (gamma, omega * omega),
                        tol=FIT_TOL, max_nfev=FIT_MAX_NFEV)
    gamma, omega = res.x[0], math.sqrt(res.x[1])
    (P, S, offset), _, _ = _projection(t, y, res.x)
    if omega > 0.0:
        amplitude = math.hypot(P, S / omega)
        phase = math.atan2(-S / omega, P) if amplitude > 0.0 else 0.0
    else:
        amplitude, phase = abs(P), (math.pi if P < 0.0 else 0.0)
    return DampedSineFit(
        omega=float(omega),
        gamma=float(gamma),
        amplitude=float(amplitude),
        phase=float(phase),
        offset=float(offset),
        residual_rms=float(np.sqrt(np.mean(res.fun**2))),
        converged=bool(res.status > 0 and np.isfinite(res.cost)),
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
    significant = ~zero_modes(lam, L) & (weight > 0.02 * max(weight.max(), 1e-300))
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
    generators: np.ndarray,
    window: float,
    n_samples: int,
) -> TransitionScan:
    """Sweep J, fitting the simulated transient and attaching predictions.

    Qubit scans watch rho_ee from rho0 = |e><e|; qutrit scans watch |rho_gf|
    from the superposition (|g> - |f>)/sqrt(2), at n_samples times spanning
    [0, window]. `generators` is the grid's stack,
    superoperator_stack(operators(system_template, J_values, Delta, gamma_e)),
    integrated in one integrate_constant call; only the prediction and the
    fit run per J. Per-point fit failures are recorded in `failures` rather
    than aborting the sweep. The prediction column is computed from the full
    jump-operator set, so any extra f-level loss channels configured on the
    template shift it automatically.
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

    if np.shape(generators) != (len(J_arr), dim * dim, dim * dim):
        raise OutOfRange(f"generators must be a ({len(J_arr)}, {dim * dim}, {dim * dim}) stack, "
                         f"got {np.shape(generators)}")
    states = integrate_constant(generators, rho0, t_grid).states
    series = states[..., 1, 1].real if dim == 2 else np.abs(states[..., 0, 2])
    for i, L in enumerate(generators):
        omega_pred[i], gamma_pred[i] = predict_rates(L, rho0, obs_index)
        try:
            fit = fit_damped_sine(t_grid, series[i])
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
# Loop sweeps: cw against ccw over a sequence of loops


def sweep_metrics(system: QuantumSystem, loops: Sequence[ParameterSchedule], rho0,
                  dt: float) -> dict[str, np.ndarray]:
    """Chirality and entropies of the cw and ccw final states of each loop.

    Each loop of the sequence runs cw, then ccw, from rho0 in
    scheduled_step_count(loop.T, dt) steps; its own direction is ignored.
    Every run stores only its start and final states. Returns the columns
    "chirality", "entropy_cw" and "entropy_ccw", in that order, one entry
    per loop each.
    """
    if len(loops) == 0:
        raise OutOfRange("loops must be a non-empty sequence of schedules")
    metrics = np.empty((3, len(loops)))
    for i, loop in enumerate(loops):
        n_steps = scheduled_step_count(loop.T, dt)
        cw, ccw = (integrate_scheduled(system, replace(loop, direction=direction), rho0,
                                       n_steps, store_every=n_steps).final_state
                   for direction in ("cw", "ccw"))
        metrics[:, i] = chirality(cw, ccw), entropy(cw), entropy(ccw)
    return dict(zip(("chirality", "entropy_cw", "entropy_ccw"), metrics))
