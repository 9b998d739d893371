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
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import numerics
from .errors import DegenerateSteadyState, DomainError, NoSteadyState, OutOfRange
from .model import DriveParams, OperatorStack, QuantumSystem, Rates, hamiltonians, operators

GAP_TOL_FACTOR = 1e-4  # spectrum: coalescence gap bound, relative to ||L||_F
ANGLE_TOL = 1e-3  # spectrum: coalescence bound on the eigenvector angle
ZERO_EIGENVALUE_TOL = 1e-9
EDGE_GAP_ACCEPT = 1e-4  # ep_scan: largest refined gap kept as an EP line point
BISECT_GAP_TARGET = 1e-8  # _bisect_edge: stop once the gap is this small
BISECT_WIDTH_FLOOR = 1e-13  # _bisect_edge: smallest bracket width
NEWTON_MAX_ITER = 40  # refine_triple_point: iteration budget
NEWTON_FD_STEP = 1e-7  # refine_triple_point: central-difference step


def vec(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a d x d matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d)


@dataclass(frozen=True)
class Superoperator:
    """Vectorized Liouvillian acting on row-major vec(rho)."""

    matrix: np.ndarray
    d: int


def build_superoperator(system: QuantumSystem) -> Superoperator:
    """The system's Liouvillian: the one-point case of superoperator_stack."""
    ops = operators(system, [system.drive.J], [system.drive.Delta], system.rates.gamma_e)
    return Superoperator(matrix=superoperator_stack(ops)[0], d=system.dim)


def superoperator_stack(ops: OperatorStack) -> np.ndarray:
    """The (n, d^2, d^2) Liouvillians of n parameter points, built in one pass.

    Point k gets the module formula for its Hamiltonian and the stack's
    channels, with the same products and the same order of additions as a
    system built alone, so every slice equals its own build_superoperator
    bit for bit. A channel whose rate is zero at point k adds only zeros
    there, so that slice equals its build in value.
    """
    return _assemble(ops.hamiltonians, _dissipator_terms(ops.jumps))


def _dissipator_terms(jumps) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per channel: L kron L^*, (L^+L kron I)/2 and (I kron L^T L^*)/2."""
    terms = []
    for L, _label in jumps:
        ident = np.eye(L.shape[-1], dtype=complex)
        ldl = L.conj().swapaxes(-1, -2) @ L
        terms.append((
            numerics.kron(L, L.conj()),
            0.5 * numerics.kron(ldl, ident),
            0.5 * numerics.kron(ident, ldl.swapaxes(-1, -2)),
        ))
    return terms


def _assemble(h: np.ndarray, terms) -> np.ndarray:
    """Hamiltonian part of a stack h (n, d, d) plus precomputed dissipator terms."""
    ident = np.eye(h.shape[-1], dtype=complex)
    m = -1j * (numerics.kron(h, ident) - numerics.kron(ident, h.swapaxes(-1, -2)))
    for jump, left, right in terms:
        m = m + jump - left - right
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


def spectrum(sop: Superoperator) -> SpectralResult:
    eig = numerics.eig_general(sop.matrix)
    lam = eig.eigenvalues
    vecs = eig.right_eigenvectors
    n = len(lam)
    gap_tol = GAP_TOL_FACTOR * max(np.linalg.norm(sop.matrix), 1e-30)

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


def steady_state(sop: Superoperator) -> np.ndarray:
    """Null eigenvector reshaped, Hermitized, and trace-normalized."""
    eig = numerics.eig_general(sop.matrix)
    lam = eig.eigenvalues
    scale = max(1.0, np.linalg.norm(sop.matrix))
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
    rho = unvec(v, sop.d)
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

@dataclass
class EpMap:
    """Grid survey of the spectrum with extracted EP lines and triple points.

    ep_lines is a list of polylines, each an (n, 2) array of (J, Delta)
    points refined onto a second-order coalescence; ep3_points is a list of
    (J, Delta) locations where three eigenvalues coalesce at once.
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


def _nonzero_eigenvalues(lam: np.ndarray, scale: float) -> np.ndarray:
    keep = np.abs(lam) > 1e-8 * max(scale, 1.0)
    return lam[keep]


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


def _coalescence_indicator(lam_nz: np.ndarray) -> float:
    """Signed closest-pair gap among the decaying modes.

    The magnitude is the smallest pairwise distance; the sign records whether
    that pair is split dominantly along the real axis (+) or the imaginary
    axis (-). Crossing a second-order EP flips the splitting character, so
    this indicator changes sign across an EP line and admits bisection.
    """
    best, i, j = _closest_pair(lam_nz)
    if not math.isfinite(best):
        return 0.0
    diff = lam_nz[i] - lam_nz[j]
    sign = 1.0 if abs(diff.real) >= abs(diff.imag) else -1.0
    return sign * best


def _liouvillian_at(system: QuantumSystem):
    """A function (J, Delta) -> the system's Liouvillian at that drive.

    The dissipator terms are built once; each call adds them to the new
    Hamiltonian part in build_superoperator's order, so the matrix equals
    build_superoperator of the system at that drive bit for bit. A negative
    J is clamped to 0.
    """
    terms = _dissipator_terms(
        operators(system, [system.drive.J], [system.drive.Delta], system.rates.gamma_e).jumps)

    def at(J: float, Delta: float) -> np.ndarray:
        return _assemble(hamiltonians([max(J, 0.0)], [Delta], system.dim), terms)[0]

    return at


def _decaying_modes(liouvillian_at, J: float, Delta: float) -> np.ndarray:
    """The nonzero eigenvalues of the Liouvillian at (J, Delta)."""
    m = liouvillian_at(J, Delta)
    return _nonzero_eigenvalues(np.linalg.eigvals(m), np.linalg.norm(m))


def _bisect_edge(
    liouvillian_at,
    p0: tuple[float, float],
    p1: tuple[float, float],
    s0: float,
) -> tuple[float, float, float]:
    """Bisection along the segment p0-p1 for the indicator sign change.

    The gap at a second-order EP scales like the square root of the parameter
    distance, so the achievable gap in double precision saturates near 1e-7;
    the bracket-width floor keeps the location itself at machine precision.
    Returns (J, Delta, achieved gap).
    """
    a, b = 0.0, 1.0
    seg = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    best_gap = math.inf
    best_t = 0.5
    while (b - a) * seg > BISECT_WIDTH_FLOOR:
        t = 0.5 * (a + b)
        pt = (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))
        s = _coalescence_indicator(_decaying_modes(liouvillian_at, *pt))
        gap = abs(s)
        if gap < best_gap:
            best_gap, best_t = gap, t
        if gap <= BISECT_GAP_TARGET:
            best_gap, best_t = gap, t
            break
        if (s > 0.0) == (s0 > 0.0):
            a = t
        else:
            b = t
    J = p0[0] + best_t * (p1[0] - p0[0])
    Delta = p0[1] + best_t * (p1[1] - p0[1])
    return J, Delta, best_gap


def _pq_from_modes(lam_nz: np.ndarray) -> np.ndarray:
    """Depressed-cubic coefficients (p, q) of the three decaying eigenvalues.

    The spectrum is conjugation-symmetric, so both are real up to rounding;
    they vanish together exactly at a triple root. Unlike eigenvalue gaps,
    they are symmetric functions of the spectrum and stay smooth at
    coalescence, so Newton iteration on them converges even where the gaps
    have square-root cusps. With fewer than three decaying modes there is no
    trio, and both are NaN, which seeds no triple-point search.
    """
    if len(lam_nz) < 3:
        return np.array([math.nan, math.nan])
    if len(lam_nz) > 3:
        # keep the three largest-magnitude modes if the zero filter misfired
        lam_nz = lam_nz[np.argsort(-np.abs(lam_nz))][:3]
    b = -(lam_nz[0] + lam_nz[1] + lam_nz[2])
    c = lam_nz[0] * lam_nz[1] + lam_nz[0] * lam_nz[2] + lam_nz[1] * lam_nz[2]
    d = -(lam_nz[0] * lam_nz[1] * lam_nz[2])
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b**3 / 27.0
    return np.array([p.real, q.real])


def refine_triple_point(system: QuantumSystem, J0: float, Delta0: float) -> Optional[tuple[float, float]]:
    """Newton iteration on the depressed-cubic coefficients from a seed."""
    at = _liouvillian_at(system)
    x = np.array([J0, Delta0], dtype=float)
    for _ in range(NEWTON_MAX_ITER):
        f = _pq_from_modes(_decaying_modes(at, *x))
        if np.max(np.abs(f)) < 1e-13:
            break
        jac = np.empty((2, 2))
        for k in range(2):
            dx = np.zeros(2)
            dx[k] = NEWTON_FD_STEP
            fp = _pq_from_modes(_decaying_modes(at, *(x + dx)))
            fm = _pq_from_modes(_decaying_modes(at, *(x - dx)))
            jac[:, k] = (fp - fm) / (2.0 * NEWTON_FD_STEP)
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            return None
        x = x - step
        if not np.all(np.isfinite(x)):
            return None
        if np.max(np.abs(step)) < 1e-14:
            break
    f = _pq_from_modes(_decaying_modes(at, *x))
    if not np.max(np.abs(f)) <= 1e-9:  # NaN where the trio is gone
        return None
    return float(x[0]), float(x[1])


def _cluster_lines(
    points: list[tuple[float, float]],
    edge_cells: list[set[tuple[int, int]]],
    junction_cells: set[tuple[int, int]],
) -> list[np.ndarray]:
    """Group refined edge points into polylines via shared grid cells.

    Two points are linked when their edges border a common cell, except
    cells flagged as junctions (triple points), where lines must stay
    separate. Each connected component is chained nearest-neighbor first
    from its lexicographically smallest point.
    """
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    cell_members: dict[tuple[int, int], list[int]] = {}
    for idx, cells in enumerate(edge_cells):
        for cell in cells:
            if cell in junction_cells:
                continue
            cell_members.setdefault(cell, []).append(idx)
    for members in cell_members.values():
        for k in range(1, len(members)):
            union(members[0], members[k])

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    lines = []
    for members in groups.values():
        pts = [points[i] for i in members]
        # chain nearest-neighbor from the lexicographically smallest point
        remaining = sorted(pts)
        chain = [remaining.pop(0)]
        while remaining:
            last = chain[-1]
            k = min(
                range(len(remaining)),
                key=lambda i: (remaining[i][0] - last[0]) ** 2 + (remaining[i][1] - last[1]) ** 2,
            )
            chain.append(remaining.pop(k))
        lines.append(np.array(chain))
    lines.sort(key=lambda arr: (arr[:, 0].min(), arr[:, 1].min()))
    return lines


def ep_scan(
    system_template: QuantumSystem,
    J_range: tuple[float, float],
    Delta_range: tuple[float, float],
    resolution: int,
) -> EpMap:
    """Survey the (J, Delta) plane, extract EP lines and triple points.

    Candidate points come from sign changes of a coalescence indicator along
    grid edges, refined by bisection. The indicator also flips where the
    closest eigenvalue pair merely changes character without coalescing, so
    refined points are kept only when the achieved gap is at most
    EDGE_GAP_ACCEPT. Third-order points are located independently: cells
    where both depressed-cubic coefficients of the decaying trio change sign
    seed a Newton search, and the second-order lines are split at those
    junctions. Each range must be increasing or have equal endpoints; equal
    endpoints scan a single row or column, which is the usual way to locate
    the on-axis EP.
    """
    if resolution < 1:
        raise OutOfRange(f"resolution must be >= 1, got {resolution}")
    if system_template.dim != 2:
        raise DomainError(
            "ep_scan supports dim=2 systems; the qutrit zero-eigenvalue "
            "subspace is degenerate and breaks the nonzero-mode bookkeeping"
        )

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
    indicator = np.empty((nD, nJ))
    pq_grid = np.empty((nD, nJ, 2))
    # every grid point's Liouvillian in one stack, row by row in Delta
    grid = superoperator_stack(operators(
        system_template, np.tile(J_values, nD), np.repeat(Delta_values, nJ),
        system_template.rates.gamma_e))
    for iD in range(nD):
        for iJ in range(nJ):
            res = spectrum(Superoperator(matrix=grid[iD * nJ + iJ], d=system_template.dim))
            gap[iD, iJ] = res.min_eigenvalue_gap
            angle[iD, iJ] = res.min_eigenvector_angle
            order[iD, iJ] = res.ep_order
            lam_nz = _nonzero_eigenvalues(res.eigenvalues, np.max(np.abs(res.eigenvalues)) + 1e-30)
            indicator[iD, iJ] = _coalescence_indicator(lam_nz)
            pq_grid[iD, iJ] = _pq_from_modes(lam_nz)

    # Sign changes along grid edges -> refined second-order points. An edge
    # runs from (iD, iJ) by (dD, dJ); the J-direction edges come row by row,
    # then the Delta-direction edges column by column, the order the line
    # clustering depends on. An edge borders the cells (iD, iJ) and
    # (iD - dJ, iJ - dD) that lie inside the grid; on a one-row or
    # one-column grid neither does, and the edge's own index stands in.
    positive = indicator > 0.0
    along_J = np.argwhere(positive[:, :-1] != positive[:, 1:]).tolist()
    along_D = np.argwhere((positive[:-1] != positive[1:]).T).tolist()
    edges = [(iD, iJ, 0, 1) for iD, iJ in along_J] + [(iD, iJ, 1, 0) for iJ, iD in along_D]
    liouvillian_at = _liouvillian_at(system_template)
    points: list[tuple[float, float]] = []
    edge_cells: list[set[tuple[int, int]]] = []
    for iD, iJ, dD, dJ in edges:
        p0 = (J_values[iJ], Delta_values[iD])
        p1 = (J_values[iJ + dJ], Delta_values[iD + dD])
        Jr, Dr, g = _bisect_edge(liouvillian_at, p0, p1, indicator[iD, iJ])
        if g <= EDGE_GAP_ACCEPT:
            points.append((Jr, Dr))
            cells = {(a, b) for a, b in ((iD, iJ), (iD - dJ, iJ - dD))
                     if 0 <= a < nD - 1 and 0 <= b < nJ - 1}
            edge_cells.append(cells or {(iD, iJ)})

    # Third-order points: both depressed-cubic coefficients of the decaying
    # trio vanish there, so cells where p and q each change sign seed a
    # Newton refinement from the cell center.
    junction_cells: set[tuple[int, int]] = set()
    ep3: list[tuple[float, float]] = []
    for iD in range(nD - 1):
        for iJ in range(nJ - 1):
            pc = pq_grid[iD : iD + 2, iJ : iJ + 2, 0]
            qc = pq_grid[iD : iD + 2, iJ : iJ + 2, 1]
            if pc.min() < 0.0 < pc.max() and qc.min() < 0.0 < qc.max():
                junction_cells.add((iD, iJ))
    for iD, iJ in sorted(junction_cells):
        J0 = 0.5 * (J_values[iJ] + J_values[iJ + 1])
        D0 = 0.5 * (Delta_values[iD] + Delta_values[iD + 1])
        refined = refine_triple_point(system_template, J0, D0)
        if refined is None:
            continue
        if not any(math.hypot(refined[0] - e[0], refined[1] - e[1]) < 1e-6 for e in ep3):
            ep3.append(refined)
    ep3.sort()

    # Second-order lines meet in a cusp at each third-order star, and within
    # a couple of grid cells of the cusp the branches run closer than one
    # cell, where cell-sharing linkage would weld them together. Points that
    # near a star carry no extra line information at this resolution, so
    # drop them before clustering.
    if ep3 and points:
        dJ_sp = J_values[1] - J_values[0] if nJ > 1 else 0.0
        dD_sp = Delta_values[1] - Delta_values[0] if nD > 1 else 0.0
        r_cut = 2.0 * math.hypot(dJ_sp, dD_sp)
        keep = [
            i
            for i, (Jr, Dr) in enumerate(points)
            if all(math.hypot(Jr - e[0], Dr - e[1]) > r_cut for e in ep3)
        ]
        points = [points[i] for i in keep]
        edge_cells = [edge_cells[i] for i in keep]

    lines = _cluster_lines(points, edge_cells, junction_cells) if points else []

    return EpMap(
        J_values=J_values,
        Delta_values=Delta_values,
        gap=gap,
        angle=angle,
        ep_order=order,
        ep_lines=lines,
        ep3_points=ep3,
    )
