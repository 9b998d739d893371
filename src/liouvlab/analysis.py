"""Parameter estimation and figure-of-merit metrics.

Covers the damped-sinusoid fit used to extract oscillation frequency and
decay rate from simulated time series, coupling-sweep scans of that fit
against Liouvillian eigenvalue predictions, and the chirality / entropy
metrics of encircling loops, which sweep_metrics takes over a sequence of
loops.
"""

import math
from dataclasses import replace
from typing import NamedTuple, Optional, Sequence

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
TRANSITION_OMEGA = 0.1  # rad/us; a fitted omega above this is past the transition


# ---------------------------------------------------------------------------
# Damped-sinusoid fitting


class DampedSineFit(NamedTuple):
    """Parameters of a damped sine, or of two decays below the EP, plus an offset.

    The fitted curve is e^-Gt (P cos wt + S sin(wt) / w) + C, with s = w^2 of
    either sign (see _basis):
    - above the EP (s > 0) it is A exp(-gamma t) cos(omega t + phi) + offset,
      with omega > 0, A >= 0 and phi in (-pi, pi]; gamma_fast = gamma = G;
    - below it (s < 0) omega = 0, and with k = sqrt(-s) it is two decays,
      at gamma = G - k and gamma_fast = G + k, plus the offset;
    - at s = 0 both rates are G, and it is (P + S t) exp(-G t) + offset.
    Where omega = 0 the (A, phi) form carries the slow decay's term alone:
    amplitude is the absolute value of its coefficient, (P + S / k) / 2 (P at
    s = 0), and phase is 0 or pi by its sign, while residual_rms is that of
    the full curve. Near the EP that coefficient grows as 1 / k, since the
    two decays nearly cancel there.
    """

    omega: float
    gamma: float
    gamma_fast: float
    amplitude: float
    phase: float
    offset: float
    residual_rms: float
    converged: bool


# h(u) = (x cos x - sin x) / x^3 at x = sqrt(u), = sum_k (-1)^k 2k u^(k-1) / (2k+1)!,
# and S(u) = sin(x) / x = sum_k (-u)^k / (2k+1)!, each highest power first;
# for |u| < 0.25 (|x| < 0.5) both series are exact to rounding, at either sign of u
_H_SERIES = [(-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(7, 0, -1)]
_S_SERIES = [(-1) ** k / math.factorial(2 * k + 1) for k in range(7, -1, -1)]


def _basis(t: np.ndarray, gamma: float, s: float):
    """Columns {e^-Gt cos wt, e^-Gt sin(wt)/w, 1} at s = w^2, and the G and s derivatives of the first two.

    Both columns are entire in s, so s takes either sign: for s < 0, with
    k = sqrt(-s), they are e^-Gt cosh kt and e^-Gt sinh(kt)/k, evaluated
    from the two decays e^-(G-+k)t, which stay <= 1 while G >= k, so nothing
    overflows; near x = kt = 0, cosh and the series in s t^2 avoid their
    cancellation. The columns, their derivatives and the projected residual
    are therefore smooth through s = 0, where the fit takes the critically
    damped form (P + S t) e^-Gt + C.
    """
    env = np.exp(-gamma * t)
    if s >= 0.0:
        x = math.sqrt(s) * t
        cos = env * np.cos(x)
        sin_w = env * t * np.sinc(x / np.pi)
        small = x < 0.5
        x_big = np.where(small, 1.0, x)
        env_h = env * np.where(small, np.polyval(_H_SERIES, x * x),
                               (x_big * np.cos(x_big) - np.sin(x_big)) / x_big**3)
    else:
        kappa = math.sqrt(-s)
        slow, fast = np.exp(-(gamma - kappa) * t), np.exp(-(gamma + kappa) * t)
        x = kappa * t
        u = s * t * t
        small = x < 0.5
        x_big = np.where(small, 1.0, x)
        cos = np.where(small, env * np.cosh(np.where(small, x, 0.0)), 0.5 * (slow + fast))
        sin_w = np.where(small, env * t * np.polyval(_S_SERIES, u), 0.5 * (slow - fast) / kappa)
        # (x cos x - sin x) / x^3 at x = i kt is -(x cosh x - sinh x) / x^3
        env_h = np.where(small, env * np.polyval(_H_SERIES, u),
                         (0.5 * (slow - fast) / x_big - cos) / x_big**2)
    cols = np.column_stack([cos, sin_w, np.ones_like(t)])
    d_gamma = np.column_stack([-t * cos, -t * sin_w])
    d_s = np.column_stack([-0.5 * t * sin_w, 0.5 * t**3 * env_h])
    return cols, d_gamma, d_s


def _projection(t: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """Residual r = y - Phi c, Kaufman's Jacobian and coefficients c at theta = (G, G^2 + s).

    theta's second entry is the product of the two rates G -+ sqrt(-s)
    below the EP and G^2 + omega^2 above it, so theta >= 0 is exactly the
    set where both rates are >= 0. c is the minimum-norm least-squares
    solution: singular values below n eps times the largest are cut, so a
    rank-deficient basis (a coefficient of a series with fewer terms) gets
    no spurious weight. r = P_perp y, and the Jacobian's columns are
    -P_perp (dPhi/dtheta_k) c (Kaufman, BIT 15, 49, 1975). It drops a term
    of the exact Jacobian whose product with r vanishes, so the gradient
    J^T r is exact.
    """
    gamma = theta[0]
    cols, d_gamma, d_s = _basis(t, gamma, theta[1] - gamma * gamma)
    u, s, vt = np.linalg.svd(cols, full_matrices=False)
    keep = s > s[0] * len(t) * np.finfo(float).eps
    u, s, vt = u[:, keep], s[keep], vt[keep]
    uy = u.T @ y
    coef = vt.T @ (uy / s)
    dg, ds = d_gamma @ coef[:2], d_s @ coef[:2]
    # d/dG at fixed G^2 + s is d/dG - 2G d/ds at fixed s
    d = np.column_stack([dg - 2.0 * gamma * ds, ds])
    return y - u @ uy, u @ (u.T @ d) - d, coef


PENCIL_COLUMNS = 32  # Hankel columns of the seeding pencil; rank 2 needs few
PENCIL_RANK_TOL = 1e-10  # singular values below this times the largest are noise


def _pencil_seed(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """The start theta = (G, G^2 + s) of the pencil's two non-offset poles, taken as a pair.

    The series is resampled onto a uniform grid of the same length, since
    the pencil needs uniform samples, and differenced: that drops the
    offset and keeps every other pole. The differences' Hankel matrix has
    PENCIL_COLUMNS columns (fewer for a short series): noise-free data of
    rank 2 needs no more, and the SVD of its R factor stays small. The
    pencil (Hua & Sarkar 1990) takes as many poles as the Hankel matrix has
    singular values above PENCIL_RANK_TOL times the largest, two at most
    (on the fig1 and fig4 series the noise is below 1e-14 and a second pole
    above 1e-3). A single decay has one, which is then taken twice (s = 0),
    so no noise pole seeds the fit. Each pole z gives a decay rate
    -ln|z| / dt, clipped at 0, and a frequency |arg z| / dt, 0 for a real
    pole (a negative real pole would otherwise seed omega at Nyquist). A
    conjugate pair (g, +-w) seeds (g, g^2 + w^2) and two real poles
    (g1, g2) seed ((g1 + g2) / 2, g1 g2): the mean rate and the product of
    the two rates.
    """
    n = len(t)
    dt = (t[-1] - t[0]) / (n - 1)
    u = np.diff(np.interp(np.linspace(t[0], t[-1], n), t, y))
    hankel = np.lib.stride_tricks.sliding_window_view(u, min(PENCIL_COLUMNS, n // 2))
    # R of hankel = QR has hankel's singular values and right vectors, at half the cost
    _, sv, vt = np.linalg.svd(np.linalg.qr(hankel, mode="r"))
    v = vt[:max(np.count_nonzero(sv[:2] > PENCIL_RANK_TOL * sv[0]), 1)].T
    z = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    z = np.resize(z, 2)  # a single pole is taken twice
    # a zero pole (a step) seeds the largest finite decay rate
    rate = np.maximum(-np.log(np.maximum(np.abs(z), np.finfo(float).tiny)) / dt, 0.0)
    freq = np.where(z.imag == 0.0, 0.0, np.abs(np.angle(z)) / dt)
    return float(rate.mean()), float(rate[0] * rate[1] + freq[0] * freq[1])


class LeastSquaresResult(NamedTuple):
    """Where least_squares stopped.

    x is the last accepted point, fun the residual there, cost half its
    squared norm and extra whatever else fun returned there; nfev counts
    residual evaluations. status is 0 when the evaluation budget ran out,
    and otherwise the test that was met: 1 gradient, 2 cost reduction,
    3 step size, 4 both 2 and 3.
    """

    x: np.ndarray
    fun: np.ndarray
    cost: float
    nfev: int
    status: int
    extra: tuple


def least_squares(fun, x0, *, tol: float, max_nfev: int) -> LeastSquaresResult:
    """Minimise cost(x) = |r(x)|^2 / 2 over x >= 0 by projected Levenberg-Marquardt.

    fun(x) returns the residual r, its Jacobian J and any further values,
    which the result keeps from the last accepted point. A variable on its
    bound is held there while its gradient component is >= 0; each step
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
    r, jac, *extra = fun(x)
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
        r_new, jac_new, *extra_new = fun(x_new)
        nfev += 1
        cost_new = 0.5 * float(r_new @ r_new)
        reduction = cost - cost_new if np.isfinite(cost_new) else -np.inf
        predicted = -float(g @ step) - 0.5 * float(step @ a @ step)
        ratio = reduction / predicted if predicted > 0.0 else 0.0
        ftol_met = 0.0 < reduction < tol * cost and ratio > 0.25
        xtol_met = np.linalg.norm(h) < tol * (tol + np.linalg.norm(x))
        if reduction > 0.0:
            x, r, cost, extra = x_new, r_new, cost_new, extra_new
            a, g = jac_new.T @ jac_new, jac_new.T @ r_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(ratio, 1.0) - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if ftol_met or xtol_met:
            status = 4 if ftol_met and xtol_met else (2 if ftol_met else 3)
            break
    return LeastSquaresResult(x=x, fun=r, cost=cost, nfev=nfev, status=status, extra=tuple(extra))


def fit_damped_sine(times, values) -> DampedSineFit:
    """Fit a damped sine, or two decays below the EP, plus an offset to a time series.

    Variable projection (Golub & Pereyra 1973): for fixed (G, s = w^2) the
    coefficients of e^-Gt cos wt, e^-Gt sin(wt)/w and 1, continued to s < 0
    (see _basis), solve a linear least-squares problem, so least_squares (Levenberg-Marquardt with
    Kaufman's Jacobian) runs over theta = (G, G^2 + s) >= 0 only, on the
    projected residual: s = omega^2 takes either sign, and both rates
    G -+ sqrt(max(-s, 0)) stay >= 0. The columns are smooth in s through
    s = 0, so one iteration crosses the EP from either side. It starts from
    the pencil's two non-offset poles, taken as a pair (_pencil_seed), with
    FIT_TOL and FIT_MAX_NFEV as they are at the call, and the coefficients
    are those of its last accepted evaluation. `converged` reports whether it
    met a convergence test within the evaluation budget.
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
            omega=0.0, gamma=0.0, gamma_fast=0.0, amplitude=0.0, phase=0.0,
            offset=float(y[0]), residual_rms=0.0, converged=True,
        )

    res = least_squares(lambda x: _projection(t, y, x), _pencil_seed(t, y),
                        tol=FIT_TOL, max_nfev=FIT_MAX_NFEV)
    (P, S, offset), = res.extra
    gamma, product = res.x
    s = product - gamma * gamma
    omega, kappa = math.sqrt(max(s, 0.0)), math.sqrt(max(-s, 0.0))
    if omega > 0.0:
        amplitude = math.hypot(P, S / omega)
        phase = math.atan2(-S / omega, P) if amplitude > 0.0 else 0.0
    else:
        # e^-Gt (P cosh kt + S sinh(kt) / k) has the slow term (P + S / k) / 2 e^-(G-k)t
        slow = 0.5 * (P + S / kappa) if kappa > 0.0 else P
        amplitude, phase = abs(slow), (math.pi if slow < 0.0 else 0.0)
    return DampedSineFit(
        omega=float(omega),
        gamma=float(gamma - kappa),
        gamma_fast=float(gamma + kappa),
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


BLOCK_WEIGHT_TOL = 1e-8  # relative weight below which a mode is only rounding's


def predict_rates(L: np.ndarray, rho0: np.ndarray, obs_index: int):
    """(omega, gamma, gamma_fast) predicted by the spectrum of L for one observable.

    L is one generator or an (n, d^2, d^2) stack: one eig_general call and
    one stacked solve, and each slice gives what it gives alone. The initial
    state is expanded in the eigenbasis, and each decaying mode is weighted
    by |coefficient| x |its component on the observed matrix element|. A
    mode of a block that the start or the observable does not reach gets
    weight from rounding alone (at most 1e-15 of the largest on the fig1 and
    fig4 grids), so the modes above BLOCK_WEIGHT_TOL times the largest are
    the observed block. The predicted pair is its heaviest mode and the
    block's mode nearest that one's conjugate, whatever the partner's weight
    (a mode with no partner pairs with its own conjugate). As in the fit,
    the pair's mean rate G = -Re(l1 + l2) / 2 and s = -Re((l1 - l2)^2) / 4
    give omega = sqrt(max(s, 0)) and the two rates G -+ sqrt(max(-s, 0)):
    below the EP, gamma is the slow branch and gamma_fast the fast one, and
    above it both are G. Each is an array of L's leading shape; all three
    are 0 where no decaying mode is observed.
    """
    dec = numerics.eig_general(L)
    lam, V = dec.eigenvalues, dec.right_eigenvectors
    start = np.broadcast_to(vec(rho0)[:, None], V.shape[:-1] + (1,))
    weight = np.abs(np.linalg.solve(V, start)[..., 0]) * np.abs(V[..., obs_index, :])
    weight[zero_modes(lam, L)] = 0.0
    top = weight.max(axis=-1, keepdims=True)
    lead = np.argmax(weight, axis=-1)[..., None]
    first = np.take_along_axis(lam, lead, axis=-1)
    block = (weight > BLOCK_WEIGHT_TOL * top) & (np.arange(lam.shape[-1]) != lead)
    distance = np.where(block, np.abs(lam - np.conj(first)), np.inf)
    second = np.where(block.any(axis=-1, keepdims=True),
                      np.take_along_axis(lam, np.argmin(distance, axis=-1)[..., None], axis=-1),
                      np.conj(first))
    gamma = -0.5 * (first + second).real
    s = -0.25 * ((first - second) ** 2).real
    omega, kappa = np.sqrt(np.maximum(s, 0.0)), np.sqrt(np.maximum(-s, 0.0))
    observed = top > 0.0
    return tuple(np.where(observed, x, 0.0)[..., 0] for x in (omega, gamma - kappa, gamma + kappa))


class TransitionScan(NamedTuple):
    """Fit-versus-prediction survey across coupling strengths.

    fits holds one DampedSineFit per J (None where the fit raised), its
    omega, gamma and gamma_fast columns, and the spectrum's prediction of
    each at every J (predict_rates). Below the EP gamma is the slow rate and
    gamma_fast the fast one; above it they are equal. Points
    with |J - j_ep| < EP_FLAG_RADIUS are flagged: the defective-point dynamics
    carries secular t exp(lambda t) terms that bias the fit there.
    """

    J_values: np.ndarray
    fits: list[Optional[DampedSineFit]]
    omega_fit: np.ndarray
    gamma_fit: np.ndarray
    gamma_fast_fit: np.ndarray
    omega_pred: np.ndarray
    gamma_pred: np.ndarray
    gamma_fast_pred: np.ndarray
    flagged: np.ndarray
    failures: list[tuple[int, str]]
    j_ep: float

    @property
    def n_unconverged(self) -> int:
        """Fits that returned without meeting a convergence test."""
        return sum(1 for f in self.fits if f is not None and not f.converged)

    def transition_estimate(self) -> float:
        """Smallest scanned J whose fitted omega exceeds TRANSITION_OMEGA; nan if none.

        The smallest in value, whatever the grid's order.
        """
        past = self.J_values[self.omega_fit > TRANSITION_OMEGA]  # a nan omega is never past
        return float(past.min()) if past.size else float("nan")

    def table(self) -> dict[str, np.ndarray]:
        """The scan's columns by name, in table order."""
        return {"J": self.J_values, "omega_fit": self.omega_fit, "gamma_fit": self.gamma_fit,
                "gamma_fast_fit": self.gamma_fast_fit, "omega_pred": self.omega_pred,
                "gamma_pred": self.gamma_pred, "gamma_fast_pred": self.gamma_fast_pred,
                "flagged": self.flagged}


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

    Qubit scans watch rho_ee from rho0 = |e><e|; qutrit scans watch Re rho_gf
    from the superposition (|g> - |f>)/sqrt(2), at n_samples times spanning
    [0, window]. rho_gf is real at Delta = 0 and changes sign above the
    qutrit EP, so its real part, not its absolute value, is the damped sine
    (or pair of decays) that the fit's model holds. `generators` is the grid's stack,
    superoperator_stack(operators(system_template, J_values, Delta, gamma_e)),
    integrated in one integrate_constant call and predicted in one
    predict_rates call; only the fit runs per J. Per-point fit failures are
    recorded in `failures` rather than aborting the sweep. The prediction
    columns are computed from the full jump-operator set, so any extra
    f-level loss channels configured on the template shift them
    automatically.
    """
    J_arr = np.asarray(J_values, dtype=float)
    if J_arr.ndim != 1 or len(J_arr) == 0:
        raise OutOfRange("J_values must be a non-empty 1-d array")
    dim = system_template.dim
    obs_index = 3 if dim == 2 else 2  # vectorized index of rho_ee, rho_gf
    rho0 = initial_state_for(dim)
    t_grid = np.linspace(0.0, window, n_samples)
    j_ep = ep_coupling(system_template.rates, dim)

    if np.shape(generators) != (len(J_arr), dim * dim, dim * dim):
        raise OutOfRange(f"generators must be a ({len(J_arr)}, {dim * dim}, {dim * dim}) stack, "
                         f"got {np.shape(generators)}")
    states = integrate_constant(generators, rho0, t_grid).states
    series = states[..., 1, 1].real if dim == 2 else states[..., 0, 2].real
    omega_pred, gamma_pred, gamma_fast_pred = predict_rates(generators, rho0, obs_index)

    fits: list[Optional[DampedSineFit]] = []
    failures: list[tuple[int, str]] = []
    fitted = np.full((3, len(J_arr)), np.nan)  # omega, gamma, gamma_fast
    for i, y in enumerate(series):
        try:
            fit = fit_damped_sine(t_grid, y)
        except (LiouvlabError, ValueError) as exc:
            fits.append(None)
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        fits.append(fit)
        fitted[:, i] = fit.omega, fit.gamma, fit.gamma_fast

    return TransitionScan(
        J_values=J_arr,
        fits=fits,
        omega_fit=fitted[0],
        gamma_fit=fitted[1],
        gamma_fast_fit=fitted[2],
        omega_pred=omega_pred,
        gamma_pred=gamma_pred,
        gamma_fast_pred=gamma_fast_pred,
        flagged=np.abs(J_arr - j_ep) < EP_FLAG_RADIUS,
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
