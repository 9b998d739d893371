"""Liouvillian superoperators: construction, spectra, steady states, EP maps.

Vectorization convention is row-major: vec(rho) lists rho row by row, so
vec(A rho B) = (A kron B^T) vec(rho). Under this convention the superoperator
of the master equation

    drho/dt = -i[H, rho] + sum_k ( L_k rho L_k^+ - {L_k^+ L_k, rho}/2 )

is the d^2 x d^2 matrix

    -i (H kron I - I kron H^T)
    + sum_k ( L_k kron L_k^* - (L_k^+ L_k kron I)/2 - (I kron L_k^T L_k^*)/2 ).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import DegenerateSteadyState, DomainError, NoSteadyState, OutOfRange
from .model import DriveParams, OperatorStack, QuantumSystem, Rates, operators

GAP_TOL_FACTOR = 1e-4  # spectrum: coalescence gap bound, relative to ||L||_F
ANGLE_TOL = 1e-3  # spectrum: coalescence bound on the eigenvector angle
ZERO_EIGENVALUE_TOL = 1e-9
LINE_POINT_XTOL = 1e-15  # ep_scan: bracket width at which an EP line point's bisection stops


def vec(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a d x d matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d)


def build_superoperator(system: QuantumSystem) -> np.ndarray:
    """The system's (d^2, d^2) Liouvillian: the one-point case of superoperator_stack."""
    ops = operators(system, [system.drive.J], [system.drive.Delta], system.rates.gamma_e)
    return superoperator_stack(ops)[0]


def superoperator_stack(ops: OperatorStack) -> np.ndarray:
    """The (n, d^2, d^2) Liouvillians of n parameter points, built in one pass.

    Point k gets the module formula for its Hamiltonian and the stack's
    channels, with the same products and the same order of additions as a
    system built alone, so every slice equals its own build_superoperator
    bit for bit. A channel whose rate is zero at point k adds only zeros
    there, so that slice equals its build in value.
    """
    h = ops.hamiltonians
    ident = np.eye(h.shape[-1], dtype=complex)
    m = -1j * (numerics.kron(h, ident) - numerics.kron(ident, h.swapaxes(-1, -2)))
    for L, _label in ops.jumps:
        ldl = L.conj().swapaxes(-1, -2) @ L
        m = (m + numerics.kron(L, L.conj()) - 0.5 * numerics.kron(ldl, ident)
             - 0.5 * numerics.kron(ident, ldl.swapaxes(-1, -2)))
    return m


@dataclass
class SpectralResult:
    """Eigensystem of one superoperator with EP classification.

    ep_order is 0 unless the closest eigenvalue pair coalesces in both value
    (gap <= GAP_TOL_FACTOR * ||L||_F) and direction (principal angle <=
    ANGLE_TOL); plain degeneracies with orthogonal eigenvectors are not
    exceptional points.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    min_eigenvalue_gap: float
    min_eigenvector_angle: float
    ep_order: int


def _closest_pair(lam: np.ndarray) -> tuple[float, int, int]:
    """(|lam[i] - lam[j]|, i, j) for the closest pair i < j.

    Ties go to the first pair in row-major (i, then j) order. The gaps are
    np.hypot of the differences, which is the scalar abs() of each complex
    difference bit for bit (np.abs on a complex array may differ in the last
    place).
    """
    rows, cols = np.triu_indices(len(lam), 1)
    if len(rows) == 0:
        return math.inf, 0, 1
    diff = lam[rows] - lam[cols]
    gaps = np.hypot(diff.real, diff.imag)
    k = int(np.argmin(gaps))
    return float(gaps[k]), int(rows[k]), int(cols[k])


def spectrum(L: np.ndarray) -> SpectralResult:
    """Eigensystem of the (d^2, d^2) Liouvillian L, with its EP classification."""
    eig = numerics.eig_general(L)
    lam = eig.eigenvalues
    vecs = eig.right_eigenvectors
    n = len(lam)
    gap_tol = GAP_TOL_FACTOR * max(np.linalg.norm(L), 1e-30)

    min_gap, i, j = _closest_pair(lam)
    angle = numerics.principal_angle(vecs[:, i], vecs[:, j])

    order = 0
    if min_gap <= gap_tol and angle <= ANGLE_TOL:
        # grow the coalescing cluster around the closest pair
        cluster = {i, j}
        rest = sorted(
            (k for k in range(n) if k not in cluster),
            key=lambda k: abs(lam[k] - lam[i]),
        )
        for k in rest:
            if abs(lam[k] - lam[i]) <= gap_tol and all(
                numerics.principal_angle(vecs[:, k], vecs[:, c]) <= ANGLE_TOL for c in cluster
            ):
                cluster.add(k)
        order = min(len(cluster), 3)

    return SpectralResult(
        eigenvalues=lam,
        eigenvectors=vecs,
        min_eigenvalue_gap=float(min_gap),
        min_eigenvector_angle=float(angle),
        ep_order=order,
    )


def steady_state(L: np.ndarray) -> np.ndarray:
    """Null eigenvector of the (d^2, d^2) L reshaped to d x d, Hermitized, and trace-normalized."""
    eig = numerics.eig_general(L)
    lam = eig.eigenvalues
    scale = max(1.0, np.linalg.norm(L))
    small = np.nonzero(np.abs(lam) <= ZERO_EIGENVALUE_TOL * scale)[0]
    if len(small) == 0:
        raise NoSteadyState(
            f"no eigenvalue within {ZERO_EIGENVALUE_TOL:.1e} of zero "
            f"(closest |lambda| = {np.min(np.abs(lam)):.3e})"
        )
    if len(small) > 1:
        raise DegenerateSteadyState(
            f"{len(small)} eigenvalues are numerically zero; steady state is not unique"
        )
    v = eig.right_eigenvectors[:, small[0]]
    rho = unvec(v, math.isqrt(len(L)))
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise NoSteadyState("null eigenvector has vanishing trace; cannot normalize")
    rho = rho / tr
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-8:
        raise NoSteadyState(f"normalized null vector is not positive (min eigenvalue {w.min():.3e})")
    return rho


def analytic_qubit_eigensystem(drive: DriveParams, rates: Rates) -> list[tuple[complex, np.ndarray]]:
    """Closed-form qubit eigensystem, valid only at Delta=0 and gamma_phi=0.

    Returns four (eigenvalue, d x d eigenmatrix) pairs: the steady state at
    lambda = 0, the x-sector mode at -gamma_e/2, and the coupled pair at
    -3 gamma_e/4 -+ sqrt(gamma_e^2 - 64 J^2)/4. Eigenmatrices of the pair are

        [[-g -+ s, 8iJ], [-8iJ, g +- s]],   s = sqrt(g^2 - 64 J^2),

    which coalesce at J = g/8. Serves as a golden oracle for spectrum().
    """
    if drive.Delta != 0.0:
        raise DomainError(f"closed form requires Delta=0, got {drive.Delta}")
    if rates.gamma_phi != 0.0:
        raise DomainError(f"closed form requires gamma_phi=0, got {rates.gamma_phi}")
    g = rates.gamma_e
    J = drive.J
    s = complex(g * g - 64.0 * J * J) ** 0.5

    rho0 = np.array(
        [[g * g + 4.0 * J * J, 2.0j * g * J], [-2.0j * g * J, 4.0 * J * J]],
        dtype=complex,
    ) / (g * g + 8.0 * J * J)
    rho1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho2 = np.array([[-g - s, 8.0j * J], [-8.0j * J, g + s]], dtype=complex)
    rho3 = np.array([[-g + s, 8.0j * J], [-8.0j * J, g - s]], dtype=complex)

    lam2 = -0.75 * g - 0.25 * s
    lam3 = -0.75 * g + 0.25 * s
    return [
        (0.0 + 0.0j, rho0),
        (complex(-0.5 * g), rho1),
        (lam2, rho2),
        (lam3, rho3),
    ]


def pair_branches(spectra: list[np.ndarray]) -> np.ndarray:
    """Reorder eigenvalue arrays along a sweep so branches vary continuously.

    The first point keeps its canonical order; each subsequent point is
    matched to the previous one by minimal total eigenvalue displacement.
    Returns an array of shape (n_points, n_modes).
    """
    from scipy.optimize import linear_sum_assignment  # loaded only where branches are paired

    if not spectra:
        return np.zeros((0, 0), dtype=complex)
    out = np.empty((len(spectra), len(spectra[0])), dtype=complex)
    out[0] = spectra[0]
    for k in range(1, len(spectra)):
        prev = out[k - 1]
        cur = np.asarray(spectra[k])
        cost = np.abs(prev[:, None] - cur[None, :])
        _rows, cols = linear_sum_assignment(cost)
        out[k] = cur[cols]
    return out


# ---------------------------------------------------------------------------
# EP maps over (J, Delta)
#
# A qubit's Liouvillian has the eigenvalue 0 (its trace) and the eigenvalues
# of the Bloch matrix M that dynamics.bloch_rhs writes out. With
# a = bloch_transverse_rate, u = J^2 and v = Delta^2, M's characteristic
# polynomial is lambda^3 + b lambda^2 + c lambda + d with
#
#     b = 2a + gamma_e,  c = a^2 + 2a gamma_e + v + 4u,  d = gamma_e (a^2 + v) + 4au.
#
# M + gamma_e I depends on the rates only through e = a - gamma_e =
# gamma_phi - gamma_e/2, so in mu = lambda + b/3 the depressed cubic
# mu^3 + p mu + q has coefficients affine in (u, v):
#
#     p = v + 4u - e^2/3,  q = e (4u - 2v)/3 - 2e^3/27.
#
# The third-order points (p = q = 0, the triple root -b/3) sit at
# u = 2e^2/27, v = e^2/27. The double roots mu = s, where
# (p, q) = (-3s^2, 2s^3), trace the EP lines:
#
#     u(s) = (s + e/3)(s - 2e/3)^2 / (2e),  v(s) = -2 (s + e/3)^2 (s - e/6) / e,
#
# with u > 0 and v > 0 for s strictly between e/6 and -e/3, and both
# monotone in s on each side of 0. The arc with s on e's side runs from the
# third-order point to the axis at s = e/6, J = |e|/4 (that is
# analysis.ep_coupling). The other arc runs to the double root s = -e/3 of
# v, where u = 0 as well: at J = Delta = 0, M is block-diagonal and its
# double root -a is no EP. For J > 0 every double root is an EP (M is
# unreduced tridiagonal when Delta != 0, and on the axis the decoupled
# x-mode meets the yz pair only at J = 0). At e = 0, M + gamma_e I is
# antisymmetric, so M has no EP at all.


def bloch_transverse_rate(rates: Rates) -> float:
    """a = gamma_e/2 + gamma_phi, the decay rate of the Bloch components x and y."""
    return 0.5 * rates.gamma_e + rates.gamma_phi


@dataclass
class EpMap:
    """Grid survey of the spectrum with extracted EP lines and triple points.

    ep_lines is a list of polylines, each an (n, 2) array of (J, Delta)
    points on a second-order coalescence, in order along the line;
    ep3_points is a list of (J, Delta) locations where three eigenvalues
    coalesce at once.
    """

    J_values: np.ndarray
    Delta_values: np.ndarray
    gap: np.ndarray  # (nD, nJ)
    angle: np.ndarray  # (nD, nJ)
    ep_order: np.ndarray  # (nD, nJ) int
    ep_lines: list[np.ndarray] = field(default_factory=list)
    ep3_points: list[tuple[float, float]] = field(default_factory=list)

    def all_line_points(self) -> np.ndarray:
        if not self.ep_lines:
            return np.zeros((0, 2))
        return np.vstack(self.ep_lines)


def _discriminant(u, v, e: float):
    """(4p^3 + 27q^2)/4, expanded: 0 on the EP lines, < 0 where all three roots are real.

    It has no constant term, so it is exactly 0 at J = Delta = 0.
    """
    return (v + 4.0 * u) ** 3 + e * e * (2.0 * v * v - 20.0 * u * v - 4.0 * u * u) + e**4 * v


def _bisect(f, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray) -> np.ndarray:
    """Roots of the elementwise function f in the brackets [lo, hi], all bisected at once.

    f has the sign sign_lo at lo and the opposite sign at hi. Each bracket
    halves until it is at most LINE_POINT_XTOL wide or its midpoint is one
    of its ends; its midpoint is the root.
    """
    while True:
        mid = 0.5 * (lo + hi)
        active = (hi - lo > LINE_POINT_XTOL) & (lo < mid) & (mid < hi)
        if not active.any():
            return mid
        right = active & (np.sign(f(mid)) == sign_lo)
        lo = np.where(right, mid, lo)
        hi = np.where(active & ~right, mid, hi)


def _ep_geometry(
    e: float, J_values: np.ndarray, Delta_values: np.ndarray
) -> tuple[list[np.ndarray], list[tuple[float, float]]]:
    """(EP lines, third-order points) inside the grid's window, for e != 0.

    A line point is a sign change of the discriminant along a grid edge,
    bisected to LINE_POINT_XTOL, or a grid point with J > 0 where it is
    exactly 0. The point's double root s = cbrt(q/2) names its arc, and the
    sign of Delta its half; the two halves of the axis arc form one line when
    its axis point lies in the window. Lines come in label order (the other
    arc's halves, then the axis arc), and Delta is monotone along every
    line, so each line is sorted by Delta.
    """
    J_lo, J_hi, D_lo, D_hi = J_values[0], J_values[-1], Delta_values[0], Delta_values[-1]

    def inside(J: float, Delta: float) -> bool:
        return J_lo <= J <= J_hi and D_lo <= Delta <= D_hi

    J3, D3 = math.sqrt(2.0 / 27.0) * abs(e), abs(e) / math.sqrt(27.0)
    ep3 = sorted((J3, D) for D in (-D3, D3) if inside(J3, D))

    u, v = J_values**2, Delta_values**2
    sign = np.sign(_discriminant(u[None, :], v[:, None], e))  # (nD, nJ)
    iD, iJ = np.nonzero((sign == 0.0) & (J_values > 0.0))
    points = list(zip(J_values[iJ], Delta_values[iD]))
    jD, jJ = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)  # sign changes along J
    dD, dJ = np.nonzero(sign[:-1] * sign[1:] < 0.0)  # and along Delta
    along_J = np.arange(len(jD) + len(dD)) < len(jD)
    fixed = np.concatenate([v[jD], u[dJ]])  # v on a J edge, u on a Delta edge
    x = _bisect(
        lambda x: _discriminant(np.where(along_J, x * x, fixed), np.where(along_J, fixed, x * x), e),
        np.concatenate([J_values[jJ], Delta_values[dD]]),
        np.concatenate([J_values[jJ + 1], Delta_values[dD + 1]]),
        np.concatenate([sign[jD, jJ], sign[dD, dJ]]))
    points += zip(x[:len(jD)], Delta_values[jD])
    points += zip(J_values[dJ], x[len(jD):])
    if not points:
        return [], ep3

    pts = np.array(points, dtype=float)
    J, Delta = pts[:, 0], pts[:, 1]
    s = np.cbrt((e * (4.0 * J * J - 2.0 * Delta * Delta) / 3.0 - 2.0 * e**3 / 27.0) / 2.0)
    axis_arc = s * e > 0.0
    half = np.where(axis_arc & inside(abs(e) / 4.0, 0.0), 0.0, np.sign(Delta))
    lines = []
    for label in sorted(set(zip(axis_arc, half))):
        members = pts[(axis_arc == label[0]) & (half == label[1])]
        lines.append(members[np.argsort(members[:, 1], kind="stable")])
    return lines, ep3


def ep_scan(
    system_template: QuantumSystem,
    J_range: tuple[float, float],
    Delta_range: tuple[float, float],
    resolution: int,
) -> EpMap:
    """Survey the (J, Delta) plane, extract EP lines and triple points.

    The grid stage classifies the spectrum at every grid point. The lines
    and third-order points come from the closed form above, restricted to
    the window; at gamma_phi = gamma_e/2 there are none. Each range must be
    increasing or have equal endpoints; equal endpoints scan a single row or
    column, which is the usual way to locate the on-axis EP.
    """
    if resolution < 1:
        raise OutOfRange(f"resolution must be >= 1, got {resolution}")
    if system_template.dim != 2:
        raise DomainError("ep_scan supports dim=2 systems; its EP geometry is the qubit's closed form")

    J_lo, J_hi = map(float, J_range)
    D_lo, D_hi = map(float, Delta_range)
    if J_hi < J_lo or D_hi < D_lo:
        raise OutOfRange(
            f"scan ranges must be increasing or equal, got J {J_range} and Delta {Delta_range}")
    nJ = resolution if J_hi > J_lo else 1
    nD = resolution if D_hi > D_lo else 1
    J_values = np.linspace(J_lo, J_hi, nJ)
    Delta_values = np.linspace(D_lo, D_hi, nD)

    gap = np.empty((nD, nJ))
    angle = np.empty((nD, nJ))
    order = np.zeros((nD, nJ), dtype=int)
    # every grid point's Liouvillian in one stack, row by row in Delta
    grid = superoperator_stack(operators(
        system_template, np.tile(J_values, nD), np.repeat(Delta_values, nJ),
        system_template.rates.gamma_e))
    for iD in range(nD):
        for iJ in range(nJ):
            res = spectrum(grid[iD * nJ + iJ])
            gap[iD, iJ] = res.min_eigenvalue_gap
            angle[iD, iJ] = res.min_eigenvector_angle
            order[iD, iJ] = res.ep_order

    rates = system_template.rates
    e = bloch_transverse_rate(rates) - rates.gamma_e
    lines, ep3 = _ep_geometry(e, J_values, Delta_values) if e != 0.0 else ([], [])
    return EpMap(
        J_values=J_values,
        Delta_values=Delta_values,
        gap=gap,
        angle=angle,
        ep_order=order,
        ep_lines=lines,
        ep3_points=ep3,
    )
