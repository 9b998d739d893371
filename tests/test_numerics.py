import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab import numerics
from liouvlab.dynamics import scheduled_step_count
from liouvlab.errors import NotHermitian, Overflow
from liouvlab.liouvillian import superoperator_stack
from liouvlab.model import DriveParams, ParameterSchedule, Rates, make_system, operators, path_points

from conftest import random_density_matrix

I2 = np.eye(2, dtype=complex)


def finite_complex_matrices(n, scale=5.0):
    elems = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    return st.lists(elems, min_size=2 * n * n, max_size=2 * n * n).map(
        lambda xs: (np.array(xs[: n * n]) + 1j * np.array(xs[n * n :])).reshape(n, n)
    )


# --- kron -------------------------------------------------------------------


def test_kron_identity():
    assert np.array_equal(numerics.kron(I2, I2), np.eye(4))


def test_kron_diagonal():
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.array_equal(numerics.kron(sz, I2), np.diag([1.0, 1.0, -1.0, -1.0]))


@given(finite_complex_matrices(2), finite_complex_matrices(2))
def test_kron_matches_index_formula(a, b):
    k = numerics.kron(a, b)
    # brute-force the defining index formula
    expect = np.empty((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    expect[i * 2 + p, j * 2 + q] = a[i, j] * b[p, q]
    # np.kron may fuse the complex multiply differently than the scalar
    # loop (one ulp in the real part), so bit equality is not the contract
    assert np.allclose(k, expect, rtol=1e-14, atol=0.0)


@given(finite_complex_matrices(2, 2.0), finite_complex_matrices(2, 2.0), finite_complex_matrices(2, 2.0))
def test_kron_associative_bilinear(a, b, c):
    left = numerics.kron(numerics.kron(a, b), c)
    right = numerics.kron(a, numerics.kron(b, c))
    assert np.allclose(left, right, atol=1e-12)
    lin = numerics.kron(a + c, b)
    assert np.allclose(lin, numerics.kron(a, b) + numerics.kron(c, b), atol=1e-12)


def test_kron_rejects_empty():
    with pytest.raises(ValueError):
        numerics.kron(np.empty((0, 0)), I2)


def test_kron_of_stacks_matches_np_kron_bit_for_bit(rng):
    a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    b = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    both = numerics.kron(a, b)
    one = numerics.kron(a, c)
    assert both.shape == one.shape == (5, 6, 6)
    for k in range(5):
        assert both[k].tobytes() == np.kron(a[k], b[k]).tobytes()
        assert one[k].tobytes() == np.kron(a[k], c).tobytes()


# --- eig_general ------------------------------------------------------------


def test_eig_diagonal_canonical_order():
    dec = numerics.eig_general(np.diag([1.0 + 2.0j, -3.0]))
    assert np.allclose(dec.eigenvalues, [-3.0, 1.0 + 2.0j])


def test_eig_rotation_generator():
    dec = numerics.eig_general(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # the canonical order ties on the (numerically fuzzy) real parts here,
    # so compare after sorting by imaginary part instead
    lam = dec.eigenvalues[np.argsort(dec.eigenvalues.imag)]
    assert np.allclose(lam, [-1.0j, 1.0j], atol=1e-12)


def test_eig_companion_matrix():
    # companion of (l-1)(l-2)(l-3)(l-4) = l^4 - 10l^3 + 35l^2 - 50l + 24
    comp = np.zeros((4, 4))
    comp[1:, :3] = np.eye(3)
    comp[:, 3] = [-24.0, 50.0, -35.0, 10.0]
    dec = numerics.eig_general(comp)
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0, 4.0], atol=1e-9)


@pytest.mark.parametrize("n", [4, 9])
def test_eig_reconstruction(rng, n):
    for _ in range(20):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        dec = numerics.eig_general(a)
        v = dec.right_eigenvectors
        resid = np.linalg.norm(a @ v - v * dec.eigenvalues[None, :])
        assert resid <= 1e-9 * np.linalg.norm(a)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)


def test_eig_phase_fixing(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    v = numerics.eig_general(a).right_eigenvectors
    for j in range(4):
        col = v[:, j]
        mags = np.abs(col)
        k = np.nonzero(mags > 1e-12 * mags.max())[0][0]
        assert col[k].real > 0.0
        assert abs(col[k].imag) <= 1e-12


def test_eig_order_is_deterministic(rng):
    a = rng.normal(size=(5, 5))
    lam = numerics.eig_general(a).eigenvalues
    keys = list(zip(lam.real, lam.imag))
    assert keys == sorted(keys)


# --- expm -------------------------------------------------------------------


def test_expm_zero():
    assert np.allclose(numerics.expm(np.zeros((3, 3))), np.eye(3), atol=1e-14)


def test_expm_diagonal():
    lam = np.array([0.5, -1.0 + 2.0j, 3.0j])
    assert np.allclose(numerics.expm(np.diag(lam)), np.diag(np.exp(lam)), atol=1e-12)


def test_expm_nilpotent():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(numerics.expm(n), np.eye(2) + n, atol=1e-14)


def test_expm_inverse_property(rng):
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a *= 10.0 / np.linalg.norm(a)
        prod = numerics.expm(a) @ numerics.expm(-a)
        assert np.linalg.norm(prod - np.eye(4)) <= 1e-8


def test_expm_overflow_guard():
    with pytest.raises(Overflow):
        numerics.expm(1e4 * np.eye(2))


def test_expm_of_a_stack_equals_each_slice_alone(rng):
    a = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    a *= 10.0 / np.linalg.norm(a, axis=(1, 2))[:, None, None]
    got = numerics.expm(a)
    for k in range(6):
        assert got[k].tobytes() == numerics.expm(a[k]).tobytes()


def test_expm_stack_bound_is_per_matrix():
    # each slice is under the bound although the stack's sum is not
    ok = np.stack([600.0 * np.eye(2), -600.0 * np.eye(2)])
    assert numerics.expm(ok).shape == (2, 2, 2)
    bad = np.zeros((3, 2, 2))
    bad[1] = 1e4 * np.eye(2)
    with pytest.raises(Overflow, match="matrix 1 of the stack"):
        numerics.expm(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)])
def test_expm_rejects_non_finite_entries(value):
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[2, 0, 1] = value
    with pytest.raises(ValueError):
        numerics.expm(stack)
    with pytest.raises(ValueError):
        numerics.expm(stack[2])


# --- expm against SciPy's (Al-Mohy & Higham 2009) as the oracle -------------


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("d", [2, 3, 4, 9])
@pytest.mark.parametrize("upper", [False, True], ids=["dense", "upper-triangular"])
def test_expm_matches_scipy_from_tiny_norms_to_the_bound(rng, d, upper):
    norms = np.logspace(-8, np.log10(numerics.EXPM_NORM_BOUND), 41)
    norms[-1] = numerics.EXPM_NORM_BOUND * (1.0 - 1e-12)
    a = rng.normal(size=(len(norms), d, d)) + 1j * rng.normal(size=(len(norms), d, d))
    if upper:
        a = np.triu(a)
    a *= (norms / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
    got = numerics.expm(a)  # one stack: every degree and scaling in one call
    for k, norm in enumerate(norms):
        err = relative_error(got[k], scipy.linalg.expm(a[k]))
        assert err <= (1e-14 if norm <= 1.0 else 1e-12), (norm, err)


def test_expm_matches_scipy_on_the_sweeps_step_stack():
    # the default sweeps loop: its midpoint generators times the step
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    schedule = ParameterSchedule(T=2.0, J_max=16.0, Delta_max=10.0 * np.pi)
    n_steps = scheduled_step_count(schedule.T, 1e-3)
    dt = schedule.T / n_steps
    midpoints = (np.arange(n_steps) + 0.5) * dt
    steps = superoperator_stack(operators(system, *path_points(schedule, midpoints, 4.6))) * dt
    got = numerics.expm(steps)
    for k in range(n_steps):
        assert relative_error(got[k], scipy.linalg.expm(steps[k])) <= 1e-14


# --- trace_distance ---------------------------------------------------------


def test_trace_distance_identical(rng):
    rho = random_density_matrix(rng, 2)
    assert numerics.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)


def test_trace_distance_orthogonal_pure():
    g = np.diag([1.0, 0.0]).astype(complex)
    e = np.diag([0.0, 1.0]).astype(complex)
    assert numerics.trace_distance(g, e) == pytest.approx(1.0, abs=1e-14)


def test_trace_distance_mixed_vs_pure():
    g = np.diag([1.0, 0.0]).astype(complex)
    assert numerics.trace_distance(np.eye(2) / 2.0, g) == pytest.approx(0.5, abs=1e-14)


def test_trace_distance_symmetry_and_triangle(rng):
    for _ in range(20):
        a = random_density_matrix(rng, 3)
        b = random_density_matrix(rng, 3)
        c = random_density_matrix(rng, 3)
        dab = numerics.trace_distance(a, b)
        assert dab == pytest.approx(numerics.trace_distance(b, a), abs=1e-12)
        assert dab <= numerics.trace_distance(a, c) + numerics.trace_distance(c, b) + 1e-12
        assert 0.0 <= dab <= 1.0 + 1e-12


def test_trace_distance_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        numerics.trace_distance(bad, np.eye(2) / 2)


# --- principal_angle --------------------------------------------------------


def test_principal_angle_limits():
    u = np.array([1.0, 0.0])
    assert numerics.principal_angle(u, 2.0j * u) == pytest.approx(0.0, abs=1e-12)
    assert numerics.principal_angle(u, np.array([0.0, 1.0])) == pytest.approx(np.pi / 2, abs=1e-12)
