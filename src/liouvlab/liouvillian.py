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
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DegenerateSteadyState, DomainError, NoSteadyState, OutOfRange
from .model import OperatorStack, QuantumSystem, Rates, operators

GAP_TOL_FACTOR = 1e-4  # spectrum: coalescence gap bound, relative to ||L||_F
ANGLE_TOL = 1e-3  # spectrum: coalescence bound on the eigenvector angle
ZERO_EIGENVALUE_TOL = 1e-9
LINE_POINT_XTOL = 1e-15  # ep_scan: bracket width at which an EP line point's bisection stops
GRID_BLOCK = 256  # most grid points whose generators are built and eigensolved at once


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


class SpectralResult(NamedTuple):
    """Eigensystem of one superoperator, or of each in a stack, with EP classification.

    ep_order is 0 unless the closest eigenvalue pair coalesces in both value
    (gap <= GAP_TOL_FACTOR * ||L||_F) and direction (principal angle <=
    ANGLE_TOL); plain degeneracies with orthogonal eigenvectors are not
    exceptional points. It is 3 when a third eigenvalue also lies within the
    gap bound of the pair's first eigenvalue and within the angle bound of
    both pair eigenvectors. For a stack every field gains a leading axis, one entry
    per matrix; for one matrix the gap, angle and order are Python scalars.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    min_eigenvalue_gap: float | np.ndarray
    min_eigenvector_angle: float | np.ndarray
    ep_order: int | np.ndarray


def spectrum(L: np.ndarray) -> SpectralResult:
    """Eigensystem of the (d^2, d^2) Liouvillian L, or an (n, d^2, d^2) stack, with its EP classification.

    The closest pair i < j is the first in row-major (i, then j) order on
    ties. Gaps are np.hypot of the eigenvalue differences, which is the
    scalar abs() of each complex difference bit for bit; angles are the
    principal angle between each pair of eigenvector rays, from |V^H V| over
    the column norms.
    """
    m = numerics.as_complex_matrix(L, stacked=True)
    stack = m.reshape((-1,) + m.shape[-2:])
    eig = numerics.eig_general(stack)
    lam, vecs = eig.eigenvalues, eig.right_eigenvectors
    n_points, n = lam.shape
    points = np.arange(n_points)
    gap_tol = GAP_TOL_FACTOR * np.maximum(np.linalg.norm(stack, axis=(-2, -1)), 1e-30)

    diff = lam[:, :, None] - lam[:, None, :]
    gaps = np.hypot(diff.real, diff.imag)  # (n_points, n, n)
    norms = np.linalg.norm(vecs, axis=-2)
    cosines = np.abs(vecs.conj().swapaxes(-1, -2) @ vecs) / (norms[:, :, None] * norms[:, None, :])
    angles = np.arccos(np.minimum(1.0, cosines))

    pair_gaps = np.where(np.tri(n, dtype=bool), np.inf, gaps).reshape(n_points, n * n)  # i < j only
    first = pair_gaps.argmin(axis=1)
    min_gap = pair_gaps[points, first]
    i, j = np.divmod(first, n)
    angle = angles[points, i, j]
    third = ((gaps[points, i] <= gap_tol[:, None])
             & (angles[points, i] <= ANGLE_TOL) & (angles[points, j] <= ANGLE_TOL))
    third[points, i] = third[points, j] = False
    order = np.where((min_gap <= gap_tol) & (angle <= ANGLE_TOL), 2 + third.any(axis=1), 0)

    if m.ndim == 2:
        return SpectralResult(lam[0], vecs[0], float(min_gap[0]), float(angle[0]), int(order[0]))
    return SpectralResult(lam, vecs, min_gap, angle, order)


def zero_modes(lam: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues lam of L that are numerically zero: |lambda| <= ZERO_EIGENVALUE_TOL * max(1, ||L||_F).

    L may be an (n, m, m) stack with lam (n, m); each matrix takes its own norm.
    """
    return np.abs(lam) <= ZERO_EIGENVALUE_TOL * np.maximum(1.0, np.linalg.norm(L, axis=(-2, -1)))[..., None]


def steady_state(L: np.ndarray) -> np.ndarray:
    """Null eigenvector of the (d^2, d^2) L reshaped to d x d, trace-normalized, and Hermitized."""
    eig = numerics.eig_general(L)
    lam = eig.eigenvalues
    small = np.nonzero(zero_modes(lam, L))[0]
    if len(small) == 0:
        raise NoSteadyState(
            f"no eigenvalue within {ZERO_EIGENVALUE_TOL:.1e} of zero "
            f"(closest |lambda| = {np.min(np.abs(lam)):.3e})"
        )
    if len(small) > 1:
        raise DegenerateSteadyState(
            f"{len(small)} eigenvalues are numerically zero; steady state is not unique"
        )
    rho = unvec(eig.right_eigenvectors[:, small[0]], math.isqrt(len(L)))
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise NoSteadyState("null eigenvector has vanishing trace; cannot normalize")
    rho = rho / tr  # fixes the eigenvector's arbitrary phase too
    rho = 0.5 * (rho + rho.conj().T)
    w = np.linalg.eigvalsh(rho)
    if w.min() < -1e-8:
        raise NoSteadyState(f"normalized null vector is not positive (min eigenvalue {w.min():.3e})")
    return rho


def pair_branches(spectra) -> np.ndarray:
    """Reorder eigenvalue arrays along a sweep so branches change continuously.

    spectra is a list of eigenvalue arrays or one (n_points, n_modes) array.

    The first point keeps its canonical order; each subsequent point is
    matched to the previous one by minimal total eigenvalue displacement
    (_min_cost_assignment, in plain Python, so no run loads SciPy).
    Where every previous mode has one strictly nearest mode, and no two
    share it, those nearest modes are the unique optimum, which the search
    returns whatever its tie rule, so they are taken with numpy and the
    search runs only at the other points. Returns an array of shape
    (n_points, n_modes).
    """
    if len(spectra) == 0:
        return np.zeros((0, 0), dtype=complex)
    values = np.asarray(spectra, dtype=complex)
    n, m = values.shape
    order = np.empty((n, m), dtype=int)  # out[k] = values[k][order[k]]
    order[0] = np.arange(m)
    for start in range(1, n, GRID_BLOCK):
        stop = min(start + GRID_BLOCK, n)
        # cost[k, i, j]: from mode i of the point before to mode j, in input order
        cost = np.abs(values[start - 1:stop - 1, :, None] - values[start:stop, None, :])
        nearest, ranked = cost.argmin(axis=2), np.sort(cost, axis=2)
        runner_up = ranked[:, :, 1] if m > 1 else np.inf
        clear = (np.isfinite(cost).all(axis=(1, 2)) & (ranked[:, :, 0] < runner_up).all(axis=1)
                 & (np.diff(np.sort(nearest, axis=1), axis=1) != 0).all(axis=1))
        for k, is_clear in enumerate(clear.tolist(), start):
            # the rows of the point before, in its output order
            rows = order[k - 1]
            if is_clear:
                order[k] = nearest[k - start][rows]
            else:
                order[k] = _min_cost_assignment(cost[k - start][rows].tolist())
    return np.take_along_axis(values, order, axis=1)


def _grid_generators(system: QuantumSystem, J_points: np.ndarray, Delta_points):
    """(block, Liouvillians) of the grid points (J_points[k], Delta_points[k]), in order.

    Each block is a slice of at most GRID_BLOCK points and comes with their
    (n, d^2, d^2) superoperator_stack at the system's rates, so a grid's
    working set does not grow with the grid; each point gets the arithmetic
    it would get alone. Delta_points is one detuning for every point or one
    per point.
    """
    Delta_points = np.broadcast_to(Delta_points, J_points.shape)
    for start in range(0, len(J_points), GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        yield block, superoperator_stack(operators(
            system, J_points[block], Delta_points[block], system.rates.gamma_e))


def eigenvalue_branches(system: QuantumSystem, J_values) -> np.ndarray:
    """The Liouvillian's eigenvalues at each J of J_values, paired into branches by pair_branches.

    The detuning and rates are the system's. The generators are built and
    eigensolved GRID_BLOCK points at a time. Returns an array of shape
    (len(J_values), d^2).
    """
    J_points = np.asarray(J_values, dtype=float)
    eigenvalues = np.empty((len(J_points), system.dim**2), dtype=complex)
    for block, generators in _grid_generators(system, J_points, system.drive.Delta):
        eigenvalues[block] = numerics.eig_general(generators).eigenvalues
    return pair_branches(eigenvalues)


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """The column of each row in a minimal-cost assignment of the square matrix cost.

    Crouse's shortest augmenting path form of Jonker-Volgenant (Crouse, IEEE
    TAES 52, 1679, 2016; Jonker & Volgenant, Computing 38, 325, 1987), as
    scipy.optimize.linear_sum_assignment runs it, step for step, so ties fall
    the same way. Rows join one at a time; from each, a Dijkstra search on
    the reduced costs cost[i][j] - u[i] - v[j] scans the columns still
    unreached in a fixed order (n - 1 down to 0 at the start, each reached
    column replaced by the last one), takes the first cheapest and, on a tie,
    the last one that no row holds yet, and stops at a free column. The
    duals u, v are then updated and the path flipped. Meant for the few modes
    of a Liouvillian (at most 9): O(n^3) plain Python operations.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []  # the rows and columns the search reached
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            rows.append(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    index, lowest = it, shortest[j]
            if lowest == math.inf:
                raise ValueError("cost matrix holds no finite assignment")
            min_val, j = lowest, remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


# ---------------------------------------------------------------------------
# EP maps over (J, Delta)
#
# A qubit's Liouvillian has the eigenvalue 0 (its trace) and the eigenvalues
# of the Bloch matrix M, where the Bloch vector obeys
# d(x, y, z)/dt = M (x, y, z) + (0, 0, gamma_e) and
#
#     M = [[-a, -Delta, 0], [Delta, -a, -2J], [0, 2J, -gamma_e]].
#
# With a = bloch_transverse_rate, u = J^2 and v = Delta^2, M's characteristic
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


class EpMap(NamedTuple):
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
    ep_lines: list[np.ndarray]
    ep3_points: list[tuple[float, float]]


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

    The grid stage classifies the spectrum at every grid point, with one
    spectrum call per block of at most GRID_BLOCK points, so its working set
    does not grow with the grid; each point gets the arithmetic it would get
    alone. The lines and third-order points come from the closed form above,
    restricted to the window; at gamma_phi = gamma_e/2 there are none. Each
    range must be increasing or have equal endpoints; equal endpoints scan a
    single row or column, which is the usual way to locate the on-axis EP.
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

    # the grid row by row in Delta
    gap, angle = np.empty(nD * nJ), np.empty(nD * nJ)
    order = np.empty(nD * nJ, dtype=int)
    for block, generators in _grid_generators(
            system_template, np.tile(J_values, nD), np.repeat(Delta_values, nJ)):
        grid = spectrum(generators)
        gap[block], angle[block], order[block] = (
            grid.min_eigenvalue_gap, grid.min_eigenvector_angle, grid.ep_order)

    rates = system_template.rates
    e = bloch_transverse_rate(rates) - rates.gamma_e
    lines, ep3 = _ep_geometry(e, J_values, Delta_values) if e != 0.0 else ([], [])
    return EpMap(
        J_values=J_values,
        Delta_values=Delta_values,
        gap=gap.reshape(nD, nJ),
        angle=angle.reshape(nD, nJ),
        ep_order=order.reshape(nD, nJ),
        ep_lines=lines,
        ep3_points=ep3,
    )
