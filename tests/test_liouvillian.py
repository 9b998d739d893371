import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import point_operators, superoperator_reference, system_on_path
from liouvlab import liouvillian as lv
from liouvlab import trajectories as tj
from liouvlab.analysis import ep_coupling
from liouvlab.dynamics import bloch_rhs
from liouvlab.errors import DegenerateSteadyState, DomainError, NoSteadyState, OutOfRange
from liouvlab.model import (
    DriveParams,
    ParameterSchedule,
    Rates,
    make_system,
    operators,
    path_points,
)
from liouvlab.numerics import expm, trace_distance


def lindblad_rhs_dense(H, Ls, rho):
    """Reference right-hand side evaluated with plain matrix products."""
    out = -1j * (H @ rho - rho @ H)
    for L in Ls:
        LdL = L.conj().T @ L
        out += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def superoperator_by_columns(system):
    """Independent oracle: column a*d+b is the rhs applied to |a><b|."""
    d = system.dim
    H, jumps = point_operators(system)
    Ls = [L for L, _ in jumps]
    M = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[a, b] = 1.0
            M[:, a * d + b] = lv.vec(lindblad_rhs_dense(H, Ls, E))
    return M


# --- vectorization ------------------------------------------------------------


def test_vec_is_row_major():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(lv.vec(rho), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(lv.unvec(lv.vec(rho), 2), rho)


def test_unvec_roundtrip_qutrit(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(lv.unvec(lv.vec(m), 3), m)


# --- generator construction ----------------------------------------------------


def test_qubit_generator_matches_hand_expansion():
    ge, gp, J, D = 4.4, 0.1, 0.525, 0.3
    sop = lv.build_superoperator(
        make_system(DriveParams(J=J, Delta=D), Rates(gamma_e=ge, gamma_phi=gp)))
    expected = np.array(
        [
            [0.0, 1j * J, -1j * J, ge],
            [1j * J, -1j * D - ge / 2 - gp, 0.0, -1j * J],
            [-1j * J, 0.0, 1j * D - ge / 2 - gp, 1j * J],
            [0.0, -1j * J, 1j * J, -ge],
        ],
        dtype=complex,
    )
    assert sop.shape == (4, 4)
    assert np.allclose(sop, expected, atol=1e-14)


def test_generator_matches_columnwise_oracle(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        rates = Rates(
            gamma_e=float(rng.uniform(0, 6)),
            gamma_phi=float(rng.uniform(0, 2)),
            gamma_f=float(rng.uniform(0, 2)) if dim == 3 else 0.0,
            gamma_f_extra=float(rng.uniform(0, 1)) if dim == 3 else 0.0,
        )
        drive = DriveParams(J=float(rng.uniform(0, 4)), Delta=float(rng.uniform(-3, 3)))
        system = make_system(drive, rates, dim=dim)
        sop = lv.build_superoperator(system)
        oracle = superoperator_by_columns(system)
        assert sop.shape == (dim * dim, dim * dim)
        assert np.allclose(sop, oracle, atol=1e-13)


def test_qutrit_fg_fe_block():
    ge, J = 4.2, 1.05
    sop = lv.build_superoperator(
        make_system(DriveParams(J=J), Rates(gamma_e=ge), dim=3))
    idx_fg, idx_fe = 2 * 3 + 0, 2 * 3 + 1
    block = sop[np.ix_([idx_fg, idx_fe], [idx_fg, idx_fe])]
    expected = np.array([[0.0, 1j * J], [1j * J, -ge / 2]], dtype=complex)
    assert np.allclose(block, expected, atol=1e-14)
    # and the block is decoupled from the rest of the generator
    others = [k for k in range(9) if k not in (idx_fg, idx_fe)]
    assert np.allclose(sop[np.ix_([idx_fg, idx_fe], others)], 0.0, atol=1e-14)


def test_zero_system_gives_zero_generator():
    sop = lv.build_superoperator(make_system(DriveParams(J=0.0), Rates(gamma_e=0.0)))
    assert np.array_equal(sop, np.zeros((4, 4)))


def test_generator_preserves_trace(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        system = make_system(
            DriveParams(J=float(rng.uniform(0, 4)), Delta=float(rng.uniform(-3, 3))),
            Rates(gamma_e=float(rng.uniform(0, 6)), gamma_phi=float(rng.uniform(0, 2)),
                  gamma_f=float(rng.uniform(0, 2)) if dim == 3 else 0.0),
            dim=dim,
        )
        M = lv.build_superoperator(system)
        diag_rows = [i * dim + i for i in range(dim)]
        assert np.max(np.abs(M[diag_rows].sum(axis=0))) <= 1e-12


def test_generator_spectrum_in_left_half_plane(rng):
    for _ in range(50):
        system = make_system(
            DriveParams(J=float(rng.uniform(0, 4)), Delta=float(rng.uniform(-3, 3))),
            Rates(gamma_e=float(rng.uniform(0, 6)), gamma_phi=float(rng.uniform(0, 2))),
        )
        M = lv.build_superoperator(system)
        lam = np.linalg.eigvals(M)
        scale = max(1.0, np.linalg.norm(M))
        assert np.min(np.abs(lam)) <= 1e-9 * scale  # a stationary mode always exists
        assert np.max(lam.real) <= 1e-9 * scale


# --- spectrum ------------------------------------------------------------------


def test_spectrum_below_ep_is_purely_relaxational():
    sop = lv.build_superoperator(make_system(DriveParams(J=0.3), Rates(gamma_e=4.0)))
    res = lv.spectrum(sop)
    assert np.allclose(sorted(res.eigenvalues.real), [-3.8, -2.2, -2.0, 0.0], atol=1e-12)
    assert np.allclose(res.eigenvalues.imag, 0.0, atol=1e-12)
    assert res.ep_order == 0


def test_spectrum_flags_second_order_coalescence():
    sop = lv.build_superoperator(
        make_system(DriveParams(J=0.525), Rates(gamma_e=4.4, gamma_phi=0.1)))
    res = lv.spectrum(sop)
    assert res.ep_order == 2
    assert res.min_eigenvector_angle <= 1e-3
    close = np.abs(res.eigenvalues - (-3.35)) < 1e-3
    assert close.sum() == 2  # the coalescing pair sits at -(3 gamma_e/4 + gamma_phi/2)


def test_spectrum_zero_generator_is_not_exceptional():
    res = lv.spectrum(np.zeros((4, 4), dtype=complex))
    assert res.min_eigenvalue_gap == 0.0
    assert res.ep_order == 0  # diagonalizable degeneracy, eigenvectors stay apart
    assert res.min_eigenvector_angle > 1.0


# --- steady state ---------------------------------------------------------------


def test_steady_state_pure_decay_lands_in_ground_state():
    sop = lv.build_superoperator(make_system(DriveParams(J=0.0), Rates(gamma_e=2.0)))
    rho = lv.steady_state(sop)
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_steady_state_driven_closed_form():
    sop = lv.build_superoperator(make_system(DriveParams(J=1.0), Rates(gamma_e=4.0)))
    rho = lv.steady_state(sop)
    expected = np.array([[20.0, 8.0j], [-8.0j, 4.0]]) / 24.0
    assert np.allclose(rho, expected, atol=1e-12)


def test_steady_state_strong_drive_saturates():
    sop = lv.build_superoperator(make_system(DriveParams(J=100.0), Rates(gamma_e=4.0)))
    rho = lv.steady_state(sop)
    assert trace_distance(rho, np.eye(2) / 2.0) <= 0.02


def test_steady_state_matches_closed_form_everywhere(rng):
    for _ in range(50):
        ge = float(rng.uniform(0.5, 6.0))
        J = float(rng.uniform(0.0, 4.0))
        sop = lv.build_superoperator(make_system(DriveParams(J=J), Rates(gamma_e=ge)))
        rho = lv.steady_state(sop)
        (lam0, rho0), *_ = lv.analytic_qubit_eigensystem(DriveParams(J=J), Rates(gamma_e=ge))
        assert lam0 == 0.0
        assert np.max(np.abs(rho - rho0)) <= 1e-10


def test_steady_state_is_physical(rng):
    for _ in range(50):
        sop = lv.build_superoperator(make_system(
            DriveParams(J=float(rng.uniform(0, 4)), Delta=float(rng.uniform(-3, 3))),
            Rates(gamma_e=float(rng.uniform(0.5, 6)), gamma_phi=float(rng.uniform(0, 2))),
        ))
        rho = lv.steady_state(sop)
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        residual = np.linalg.norm(sop @ lv.vec(rho))
        assert residual <= 1e-9 * max(1.0, np.linalg.norm(sop))


def test_steady_state_degenerate_null_space_is_rejected():
    # pure dephasing at zero drive preserves every population mixture
    sop = lv.build_superoperator(
        make_system(DriveParams(J=0.0), Rates(gamma_e=0.0, gamma_phi=0.5)))
    with pytest.raises(DegenerateSteadyState):
        lv.steady_state(sop)


def test_steady_state_requires_a_null_mode():
    with pytest.raises(NoSteadyState):
        lv.steady_state(np.eye(4, dtype=complex))


# --- closed-form eigensystem ----------------------------------------------------


def test_analytic_eigensystem_domain_checks():
    with pytest.raises(DomainError):
        lv.analytic_qubit_eigensystem(DriveParams(J=0.5, Delta=1.0), Rates(gamma_e=4.0))
    with pytest.raises(DomainError):
        lv.analytic_qubit_eigensystem(DriveParams(J=0.5), Rates(gamma_e=4.0, gamma_phi=0.1))


def test_analytic_eigensystem_satisfies_eigenvalue_equation():
    for J in (0.0, 0.3, 0.5625, 0.8, 2.0):
        drive, rates = DriveParams(J=J), Rates(gamma_e=4.5)
        M = lv.build_superoperator(make_system(drive, rates))
        for lam, rho in lv.analytic_qubit_eigensystem(drive, rates):
            v = lv.vec(rho)
            assert np.linalg.norm(M @ v - lam * v) <= 1e-10 * np.linalg.norm(v)


def test_analytic_eigenvalues_match_numerics_across_the_ep():
    rates = Rates(gamma_e=4.0)

    def ordered(values):
        # sort_complex would order a conjugate pair by ulp noise in the
        # real parts; round the primary key so ties resolve on imag
        arr = np.asarray(values, dtype=complex)
        return arr[np.lexsort((arr.imag, np.round(arr.real, 6)))]

    for J in np.linspace(0.0, 2.0, 41):
        drive = DriveParams(J=float(J))
        sop = lv.build_superoperator(make_system(drive, rates))
        numeric = ordered(lv.spectrum(sop).eigenvalues)
        exact = ordered([lam for lam, _ in lv.analytic_qubit_eigensystem(drive, rates)])
        # where the decaying pair coalesces (J = gamma_e/8 is on this grid)
        # the eigenvalue is defective and its perturbation scales like
        # sqrt(machine eps), so the tolerance must widen there
        gaps = np.abs(np.subtract.outer(exact, exact))
        min_gap = np.min(gaps[~np.eye(len(exact), dtype=bool)])
        tol = 1e-9 if min_gap > 1e-3 else 1e-7
        assert np.max(np.abs(numeric - exact)) <= tol


def test_analytic_pair_coalesces_at_one_eighth():
    drive, rates = DriveParams(J=4.0 / 8.0), Rates(gamma_e=4.0)
    modes = lv.analytic_qubit_eigensystem(drive, rates)
    (lam2, rho2), (lam3, rho3) = modes[2], modes[3]
    assert lam2 == pytest.approx(lam3)
    assert np.allclose(rho2, rho3)


# --- branch pairing -------------------------------------------------------------


def test_pair_branches_tracks_crossing_branches():
    ts = np.linspace(0.1, 3.0, 60)
    spectra = []
    for k, t in enumerate(ts):
        pair = [np.exp(1j * t), np.exp(-1j * t)]
        spectra.append(np.array(pair if k % 2 == 0 else pair[::-1]))
    out = lv.pair_branches(spectra)
    assert out.shape == (60, 2)
    assert np.allclose(out[:, 0], np.exp(1j * ts), atol=1e-12)
    assert np.allclose(out[:, 1], np.exp(-1j * ts), atol=1e-12)


def test_pair_branches_rows_are_permutations():
    rates = Rates(gamma_e=4.5)
    Js = np.linspace(0.3, 0.9, 25)
    spectra = [
        lv.spectrum(lv.build_superoperator(make_system(DriveParams(J=float(J)), rates))).eigenvalues
        for J in Js
    ]
    out = lv.pair_branches(spectra)
    for row, src in zip(out, spectra):
        assert np.allclose(np.sort_complex(row), np.sort_complex(src))
    steps = np.abs(np.diff(out, axis=0)).max()
    assert steps < 0.6  # continuous through the branch point at J = gamma_e/8


def test_pair_branches_empty():
    assert lv.pair_branches([]).shape == (0, 0)


# --- stacked generators -------------------------------------------------------------


@pytest.mark.parametrize("dim,target", [(2, "e"), (3, "e"), (3, "g")])
def test_superoperator_stack_equals_single_builds_bit_for_bit(dim, target):
    rates = Rates(gamma_e=3.0, gamma_phi=0.4,
                  gamma_f=1.5 if dim == 3 else 0.0, gamma_f_extra=0.7 if dim == 3 else 0.0)
    system = make_system(DriveParams(J=0.0), rates, dim=dim, f_decay_to=target)
    # the cosine ramp changes the emission operator at every point
    schedule = ParameterSchedule(T=1.0, J_max=2.0, Delta_max=3.0, gamma_e_schedule="cosine")
    times = (np.arange(40) + 0.5) / 40
    stack = lv.superoperator_stack(operators(system, *path_points(schedule, times, rates.gamma_e)))
    assert stack.shape == (40, dim * dim, dim * dim)
    for k, t in enumerate(times):
        alone = system_on_path(system, schedule, t)
        single = lv.build_superoperator(alone)
        assert stack[k].tobytes() == single.tobytes()
        assert single.tobytes() == superoperator_reference(alone).tobytes()


def test_a_zero_rate_point_keeps_the_channel_as_a_zero_operator():
    drive = DriveParams(J=0.5, Delta=0.2)
    system = make_system(drive, Rates(gamma_e=3.0, gamma_phi=0.4))
    ops = operators(system, [0.5, 0.5], [0.2, 0.2], [0.0, 3.0])
    assert [label for _, label in ops.jumps] == ["e", "phi"]
    emission = ops.jumps[0][0]
    assert not emission[0].any() and emission[1].any()
    stack = lv.superoperator_stack(ops)
    no_emission = make_system(drive, Rates(gamma_e=0.0, gamma_phi=0.4))
    assert np.array_equal(stack[0], lv.build_superoperator(no_emission))
    assert stack[1].tobytes() == lv.build_superoperator(system).tobytes()


def test_drive_stack_and_probes_equal_single_builds_bit_for_bit():
    Js = np.array([0.0, 0.3, 0.7, 1.1])
    Ds = np.array([-1.0, 0.0, 0.25, 1.0])
    n_steps, dt = 4, 0.25
    for dim, target in [(2, "e"), (3, "e"), (3, "g")]:
        rates = Rates(gamma_e=4.5, gamma_phi=0.3,
                      gamma_f=1.5 if dim == 3 else 0.0, gamma_f_extra=0.7 if dim == 3 else 0.0)
        system = make_system(DriveParams(J=0.1, Delta=0.4), rates, dim=dim, f_decay_to=target)
        stack = lv.superoperator_stack(operators(system, Js, Ds, rates.gamma_e))
        # a J scan: one stack over the grid, at the system's own scalar Delta
        scan = lv.superoperator_stack(operators(system, Js, system.drive.Delta, rates.gamma_e))
        for k, J in enumerate(Js):
            alone = replace(system, drive=DriveParams(J=J, Delta=system.drive.Delta))
            assert scan[k].tobytes() == lv.build_superoperator(alone).tobytes()
        for k, (J, D) in enumerate(zip(Js, Ds)):
            alone = replace(system, drive=DriveParams(J=J, Delta=D))
            single = lv.build_superoperator(alone)
            assert stack[k].tobytes() == single.tobytes()
            assert single.tobytes() == superoperator_reference(alone).tobytes()
            # the same point held at every step of a stack
            held = lv.superoperator_stack(
                operators(system, np.full(n_steps, J), np.full(n_steps, D), rates.gamma_e))
            assert all(m.tobytes() == single.tobytes() for m in held)
            prop = _no_jump_propagator(alone, dt)
            assert tj._step_table(alone, None, dt, n_steps)[0][0].tobytes() == prop
        # a loop of zero amplitude holds J = Delta = 0 at every step
        at_rest = replace(system, drive=DriveParams(J=0.0))
        still = ParameterSchedule(T=n_steps * dt, J_max=0.0, Delta_max=0.0)
        prop = _no_jump_propagator(at_rest, dt)
        assert all(p.tobytes() == prop for p in tj._step_table(at_rest, still, dt, n_steps)[0])


def _no_jump_propagator(system, dt: float) -> bytes:
    h, jumps = point_operators(system)
    acc = np.zeros((system.dim, system.dim), dtype=complex)
    for L, _ in jumps:
        acc = acc + L.conj().T @ L
    return expm(-1j * (h - 0.5j * acc) * dt).tobytes()


def test_closest_pair_keeps_the_first_pair_on_ties():
    assert lv._closest_pair(np.array([0.0, 1.0 + 1.0j, 0.0, 1.0 + 1.0j, 5.0])) == (0.0, 0, 2)
    # (0, 1) and (0, 2) tie at 1
    assert lv._closest_pair(np.array([0.0, 1.0j, 1.0])) == (1.0, 0, 1)
    assert lv._closest_pair(np.array([1.0])) == (math.inf, 0, 1)


# --- plane scans ------------------------------------------------------------------


def qubit_template(gamma_e, gamma_phi=0.0):
    return make_system(DriveParams(J=0.1), Rates(gamma_e=gamma_e, gamma_phi=gamma_phi))


def test_ep_scan_single_row_locates_on_axis_point():
    emap = lv.ep_scan(qubit_template(4.5), (0.1, 1.8), (0.0, 0.0), resolution=35)
    assert len(emap.ep_lines) == 1
    assert emap.ep3_points == []
    line = emap.ep_lines[0]
    assert np.allclose(line[:, 1], 0.0)
    assert np.min(np.abs(line[:, 0] - 0.5625)) <= 1e-4


def test_ep_scan_no_points_when_dephasing_balances_emission():
    # J_ep = gamma_e/8 - gamma_phi/4 vanishes here, so the scan window is clean
    emap = lv.ep_scan(qubit_template(0.4, 0.2), (0.1, 1.0), (0.0, 0.0), resolution=25)
    assert emap.ep_lines == []
    assert emap.ep3_points == []
    # there M + gamma_e I is antisymmetric, so the whole plane is clean
    emap = lv.ep_scan(qubit_template(4.5, 2.25), (0.05, 1.1), (-1.1, 1.1), resolution=21)
    assert emap.ep_lines == []
    assert emap.ep3_points == []


def test_ep_scan_finds_mirrored_triple_points():
    emap = lv.ep_scan(qubit_template(4.5), (0.4, 0.8), (-0.5, 0.5), resolution=15)
    assert len(emap.ep3_points) == 2
    (J_a, D_a), (J_b, D_b) = sorted(emap.ep3_points, key=lambda p: p[1])
    star_J, star_D = 4.5 / math.sqrt(54.0), 4.5 / math.sqrt(108.0)
    assert J_a == pytest.approx(star_J, abs=1e-6)
    assert J_b == pytest.approx(star_J, abs=1e-6)
    assert D_a == pytest.approx(-star_D, abs=1e-6)
    assert D_b == pytest.approx(star_D, abs=1e-6)


# ep_lines and ep3_points recorded by the indicator bisection and Newton
# search that the closed form replaced; each such point lies on a line now
OLD_15x15_POINTS = [
    (0.4, -0.15304555965920896), (0.4285714285714286, -0.17801999310495378),
    (0.4571428571428572, -0.20561884581684356), (0.4655492636306008, -0.2142857142857143),
    (0.48571428571428577, -0.23618556357509338), (0.5142857142857143, -0.27020965349252685),
    (0.5262981473893888, -0.2857142857142857),
    (0.4, 0.15304555965920885), (0.4285714285714286, 0.17801999310495367),
    (0.4571428571428572, 0.20561884581684342), (0.4655492636306008, 0.2142857142857142),
    (0.48571428571428577, 0.23618556357509332), (0.5142857142857143, 0.27020965349252685),
    (0.5262981473893888, 0.2857142857142857),
    (0.5625, 0.0), (0.563637245096418, 0.0714285714285714),
    (0.5670920126022663, 0.1428571428571428), (0.5714285714285714, 0.19799037821745247),
    (0.5730064243333409, 0.2142857142857142), (0.563637245096418, -0.07142857142857145),
    (0.5670920126022663, -0.1428571428571429), (0.5714285714285714, -0.19799037821745258),
    (0.5730064243333409, -0.2142857142857143),
    (0.6123724356957937, 0.4330127018922218), (0.6123724356957956, -0.4330127018922195),
]
OLD_COLUMN_POINTS = [(0.5, -0.2527266338391473), (0.5, 0.2527266338391475)]

# ep_lines and ep3_points of the closed-form geometry, its line points
# bisected to LINE_POINT_XTOL; each lies within 1.2e-15 of the brentq root
# it replaced
PINNED_15x15_LINES = [
    [(0.5714285714285714, -0.35221529550123715), (0.5428571428571429, -0.3084449247239622),
     (0.5262981473893869, -0.2857142857142857), (0.5142857142857143, -0.2702096534925013),
     (0.48571428571428577, -0.23618556357507742), (0.46554926363057836, -0.2142857142857143),
     (0.4571428571428572, -0.20561884581685702), (0.4285714285714286, -0.17801999310498046),
     (0.4, -0.15304555965921027)],
    [(0.4, 0.15304555965921016), (0.4285714285714286, 0.17801999310498035),
     (0.4571428571428572, 0.2056188458168569), (0.46554926363057836, 0.2142857142857142),
     (0.48571428571428577, 0.23618556357507736), (0.5142857142857143, 0.2702096534925013),
     (0.5262981473893869, 0.2857142857142857), (0.5428571428571429, 0.3084449247239622),
     (0.5714285714285714, 0.35221529550123615)],
    [(0.5816735472293995, -0.2857142857142857), (0.5730064243333257, -0.2142857142857143),
     (0.5714285714285714, -0.19799037821743104), (0.5670920126022772, -0.1428571428571429),
     (0.5636372450963998, -0.07142857142857145), (0.5624999999999996, 0.0),
     (0.5636372450963998, 0.0714285714285714), (0.5670920126022772, 0.1428571428571428),
     (0.5714285714285714, 0.19799037821743143), (0.5730064243333257, 0.2142857142857142),
     (0.5816735472293995, 0.2857142857142857)],
]
PINNED_15x15_EP3 = [(0.6123724356957945, -0.4330127018922193),
                    (0.6123724356957945, 0.4330127018922193)]
PINNED_COLUMN_LINES = [[(0.5, -0.25272663383916255)], [(0.5, 0.2527266338391628)]]


@pytest.mark.parametrize("J_range, Delta_range, resolution, lines, ep3, old", [
    ((0.4, 0.8), (-0.5, 0.5), 15, PINNED_15x15_LINES, PINNED_15x15_EP3, OLD_15x15_POINTS),
    ((0.5, 0.5), (-1.1, 1.1), 21, PINNED_COLUMN_LINES, [], OLD_COLUMN_POINTS),
], ids=["15x15", "single-column"])
def test_ep_scan_reproduces_its_recorded_lines(J_range, Delta_range, resolution, lines, ep3, old):
    emap = lv.ep_scan(qubit_template(4.5), J_range, Delta_range, resolution)
    assert [[tuple(map(float, point)) for point in line] for line in emap.ep_lines] == lines
    assert emap.ep3_points == ep3
    found = np.vstack([emap.all_line_points(), np.array(ep3).reshape(-1, 2)])
    for point in old:
        assert np.min(np.max(np.abs(found - point), axis=1)) <= 1e-12


def test_bisect_finds_every_root_to_the_line_point_tolerance():
    c = np.linspace(0.01, 3.9, 40)
    flip = np.where(np.arange(40) % 2, 1.0, -1.0)  # half the brackets start positive
    roots = lv._bisect(lambda x: flip * (x * x - c), np.zeros(40), np.full(40, 2.0), -flip)
    assert np.max(np.abs(roots - np.sqrt(c))) <= lv.LINE_POINT_XTOL
    none = lv._bisect(lambda x: x, np.empty(0), np.empty(0), np.empty(0))
    assert none.shape == (0,)


def test_ep_scan_rejects_reversed_range():
    with pytest.raises(OutOfRange, match="increasing or equal"):
        lv.ep_scan(qubit_template(4.5), (1.1, 0.05), (0.0, 0.0), resolution=3)
    with pytest.raises(OutOfRange, match="increasing or equal"):
        lv.ep_scan(qubit_template(4.5), (0.05, 1.1), (1.1, -1.1), resolution=3)
    with pytest.raises(OutOfRange, match="resolution"):
        lv.ep_scan(qubit_template(4.5), (0.05, 1.1), (0.0, 0.0), resolution=0)


@pytest.mark.parametrize("gamma_phi, J_range, ep3", [
    (0.0, (0.05, 1.1), []),
    (0.5, (0.0, 1.1), [(0.13608276348795434, -0.09622504486493763),
                       (0.13608276348795434, 0.09622504486493763)]),
], ids=["no-dissipation", "dephasing-only"])
def test_ep_scan_without_a_decaying_trio_seeds_no_triple_point_search(gamma_phi, J_range, ep3):
    # with gamma_e = 0 some grid points have fewer than three nonzero
    # eigenvalues; the dephasing-only grid has a node at J = Delta = 0, where
    # the discriminant vanishes but M's double root is no EP
    emap = lv.ep_scan(qubit_template(0.0, gamma_phi), J_range, (-1.1, 1.1), resolution=5)
    assert emap.gap.shape == (5, 5)
    assert emap.ep3_points == ep3
    assert emap.ep_lines == []


def test_ep_scan_rejects_qutrit():
    system = make_system(DriveParams(J=0.1), Rates(gamma_e=4.2), dim=3)
    with pytest.raises(DomainError):
        lv.ep_scan(system, (0.1, 1.8), (0.0, 0.0), resolution=5)


@pytest.mark.parametrize("resolution", [45, 61, 121])
def test_ep_scan_finds_three_lines_and_two_triple_points_on_the_fine_window(resolution):
    emap = lv.ep_scan(qubit_template(4.5), (0.05, 1.1), (-1.1, 1.1), resolution)
    assert len(emap.ep_lines) == 3
    assert len(emap.ep3_points) == 2


def _bloch_matrix(J, Delta, rates):
    """The Bloch matrix read off dynamics.bloch_rhs column by column."""
    drive = DriveParams(J=J, Delta=Delta)
    offset = bloch_rhs(drive, rates, np.zeros(3))
    return np.column_stack([bloch_rhs(drive, rates, np.eye(3)[k]) - offset for k in range(3)])


@pytest.mark.parametrize("gamma_phi", [0.0, 0.3, 1.0, 3.0])
def test_bloch_matrix_has_the_closed_form_characteristic_polynomial(gamma_phi):
    rates = Rates(gamma_e=4.5, gamma_phi=gamma_phi)
    a, g = lv.bloch_transverse_rate(rates), rates.gamma_e
    for J, Delta in [(0.0, 0.0), (0.3, -0.7), (1.2, 0.4)]:
        u, v = J * J, Delta * Delta
        closed = [1.0, 2 * a + g, a * a + 2 * a * g + v + 4 * u, g * (a * a + v) + 4 * a * u]
        assert np.allclose(np.poly(_bloch_matrix(J, Delta, rates)), closed, rtol=0, atol=1e-12)


@pytest.mark.parametrize("gamma_phi", [0.0, 0.3, 1.0, 3.0])
def test_ep_scan_triple_points_solve_the_2x2_system(gamma_phi):
    rates = Rates(gamma_e=4.5, gamma_phi=gamma_phi)
    a, g = lv.bloch_transverse_rate(rates), rates.gamma_e
    b, c0, d0 = 2 * a + g, a * a + 2 * a * g, g * a * a
    # the triple root -b/3: c = b^2/3 and d = b^3/27
    v, u = np.linalg.solve([[1.0, 4.0], [g, 4.0 * a]], [b * b / 3 - c0, b**3 / 27 - d0])
    emap = lv.ep_scan(qubit_template(4.5, gamma_phi), (0.05, 1.1), (-1.1, 1.1), resolution=15)
    assert np.allclose(emap.ep3_points, [(math.sqrt(u), -math.sqrt(v)), (math.sqrt(u), math.sqrt(v))],
                       rtol=0, atol=1e-12)
    for J, Delta in emap.ep3_points:
        system = replace(qubit_template(4.5, gamma_phi), drive=DriveParams(J=J, Delta=Delta))
        assert lv.spectrum(lv.build_superoperator(system)).ep_order == 3


@pytest.mark.parametrize("gamma_phi", [0.0, 0.3, 1.0])
def test_every_line_point_is_a_coalescence(gamma_phi):
    template = qubit_template(4.5, gamma_phi)
    emap = lv.ep_scan(template, (0.05, 1.1), (-1.1, 1.1), resolution=31)
    points = emap.all_line_points()
    assert len(points) > 0
    for J, Delta in points:
        system = replace(template, drive=DriveParams(J=float(J), Delta=float(Delta)))
        assert lv.spectrum(lv.build_superoperator(system)).min_eigenvalue_gap <= 1e-4


@pytest.mark.parametrize("gamma_phi", [0.0, 0.3, 1.0, 2.0, 3.0])
def test_the_axis_arc_crosses_the_axis_at_ep_coupling(gamma_phi):
    rates = Rates(gamma_e=4.5, gamma_phi=gamma_phi)
    emap = lv.ep_scan(qubit_template(4.5, gamma_phi), (0.05, 1.1), (-1.1, 1.1), resolution=21)
    on_axis = [point for point in emap.all_line_points() if point[1] == 0.0]
    assert len(on_axis) == 1
    assert on_axis[0][0] == pytest.approx(ep_coupling(rates, 2), abs=1e-12)
