import math

import numpy as np
import pytest

import scipy.linalg

from conftest import (
    random_density_matrix,
    sigma_x_mirror_deviation,
    superoperator_reference,
    system_on_path,
)
from liouvlab import dynamics, numerics
from liouvlab.dynamics import integrate_bloch, integrate_constant, integrate_scheduled
from liouvlab.errors import NotDensityMatrix, OutOfRange
from liouvlab.liouvillian import build_superoperator
from liouvlab.model import (
    DriveParams,
    ParameterSchedule,
    Rates,
    make_system,
    minus_x,
    plus_x,
)


def bloch_state(x, y, z):
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex)


EXCITED = np.diag([0.0, 1.0]).astype(complex)


# --- constant-parameter propagation --------------------------------------------


def test_free_decay_is_exponential():
    ge = 2.0
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=ge))
    t = np.linspace(0.0, 1.5, 7)
    res = integrate_constant(build_superoperator(system), EXCITED, t)
    assert np.allclose(res.states[:, 1, 1].real, np.exp(-ge * t), atol=1e-9)
    assert np.allclose(res.states[:, 0, 1], 0.0, atol=1e-12)
    assert np.allclose(res.observables["z"], 1.0 - 2.0 * np.exp(-ge * t), atol=1e-9)


def test_single_time_grid_returns_initial_state():
    system = make_system(DriveParams(J=1.0), Rates(gamma_e=1.0))
    res = integrate_constant(build_superoperator(system), EXCITED, [0.0])
    assert res.times.shape == (1,)
    assert np.allclose(res.states[0], EXCITED, atol=1e-14)


def test_grid_prefix_does_not_change_the_endpoint():
    system = make_system(DriveParams(J=1.3, Delta=0.4), Rates(gamma_e=3.0, gamma_phi=0.2))
    direct = integrate_constant(build_superoperator(system), EXCITED, [1.0]).states[-1]
    via_midpoint = integrate_constant(build_superoperator(system), EXCITED, [0.5, 1.0]).states[-1]
    assert np.allclose(direct, via_midpoint, atol=1e-12)


def test_bad_grids_are_rejected():
    system = make_system(DriveParams(J=1.0), Rates(gamma_e=1.0))
    with pytest.raises(OutOfRange):
        integrate_constant(build_superoperator(system), EXCITED, [])
    with pytest.raises(OutOfRange):
        integrate_constant(build_superoperator(system), EXCITED, [0.0, 0.5, 0.5])
    with pytest.raises(OutOfRange):
        integrate_constant(build_superoperator(system), EXCITED, np.zeros((2, 2)))


def test_non_finite_or_negative_times_are_rejected():
    # a NaN step compares False with 0, so it would be skipped silently
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=1.0))
    for grid in ([0.0, math.nan, 2.0], [-1.0, 0.0], [0.0, math.inf]):
        with pytest.raises(OutOfRange):
            integrate_constant(build_superoperator(system), EXCITED, grid)


def test_propagation_preserves_state_validity(rng):
    t = np.linspace(0.0, 2.0, 9)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        system = make_system(
            DriveParams(J=float(rng.uniform(0, 3)), Delta=float(rng.uniform(-2, 2))),
            Rates(gamma_e=float(rng.uniform(0, 5)), gamma_phi=float(rng.uniform(0, 1)),
                  gamma_f=float(rng.uniform(0, 1)) if dim == 3 else 0.0),
            dim=dim,
        )
        rho0 = random_density_matrix(rng, dim)
        res = integrate_constant(build_superoperator(system), rho0, t)
        for rho in res.states:
            assert abs(np.trace(rho).real - 1.0) <= 1e-10
            assert abs(np.trace(rho).imag) <= 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-8


def test_qutrit_observable_extraction(rng):
    system = make_system(DriveParams(J=1.0), Rates(gamma_e=2.0, gamma_f=0.5), dim=3)
    rho0 = random_density_matrix(rng, 3)
    res = integrate_constant(build_superoperator(system), rho0, np.linspace(0.0, 1.0, 5))
    assert set(res.observables) == {"pop_g", "pop_e", "pop_f", "rho_gf", "rho_ef"}
    assert np.allclose(res.observables["pop_f"], res.states[:, 2, 2].real)
    assert np.allclose(res.observables["rho_gf"], res.states[:, 0, 2])
    pops = res.observables["pop_g"] + res.observables["pop_e"] + res.observables["pop_f"]
    assert np.allclose(pops, 1.0, atol=1e-10)


def test_state_validation_rejects_bad_inputs():
    with pytest.raises(NotDensityMatrix):
        dynamics.validate_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotDensityMatrix):
        dynamics.validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(NotDensityMatrix):
        dynamics.validate_density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(NotDensityMatrix):
        dynamics.validate_density_matrix(np.eye(3) / 3.0, d=2)


def test_scheduled_run_rejects_store_every_below_one():
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6))
    with pytest.raises(OutOfRange, match="store_every"):
        integrate_scheduled(system, ParameterSchedule(T=2.0), EXCITED, 1000, store_every=0)


# --- scheduled propagation -------------------------------------------------------


def test_scheduled_constant_profile_matches_fixed_parameters():
    schedule = ParameterSchedule(T=1.0, J_max=0.0, Delta_max=0.0)
    base = make_system(DriveParams(J=0.0), Rates(gamma_e=3.0, gamma_phi=0.2))
    sched = integrate_scheduled(base, schedule, EXCITED, n_steps=1000)
    fixed = integrate_constant(build_superoperator(base), EXCITED, sched.times)
    assert np.max(np.abs(sched.states - fixed.states)) <= 1e-9


@pytest.mark.parametrize("target", ["e", "g"])
def test_scheduled_run_keeps_the_f_decay_target(target):
    # on a loop of zero amplitude the scheduled run is the constant one
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=1.0, gamma_f=2.0),
                         dim=3, f_decay_to=target)
    schedule = ParameterSchedule(T=1.0, J_max=0.0, Delta_max=0.0)
    rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    sched = integrate_scheduled(system, schedule, rho0, n_steps=1000)
    fixed = integrate_constant(build_superoperator(system), rho0, [1.0])
    assert np.max(np.abs(sched.final_state - fixed.final_state)) <= 1e-12


@pytest.mark.parametrize("dim,target", [(2, "e"), (3, "g")])
def test_scheduled_run_matches_a_per_step_reference_loop(dim, target, monkeypatch, rng):
    rates = Rates(gamma_e=3.0, gamma_phi=0.4, gamma_f=1.5 if dim == 3 else 0.0)
    system = make_system(DriveParams(J=0.0), rates, dim=dim, f_decay_to=target)
    schedule = ParameterSchedule(T=1.0, J_max=2.0, Delta_max=3.0, gamma_e_schedule="cosine")
    rho0 = random_density_matrix(rng, dim)
    n_steps = 1000
    dt = schedule.T / n_steps
    v = oracle = rho0.reshape(-1)
    for k in range(n_steps):
        L = superoperator_reference(system_on_path(system, schedule, (k + 0.5) * dt))
        v = numerics.expm(L * dt) @ v
        oracle = scipy.linalg.expm(L * dt) @ oracle
    whole = integrate_scheduled(system, schedule, rho0, n_steps)
    assert whole.final_state.tobytes() == v.reshape(dim, dim).tobytes()
    # the Pade exponential is SciPy's to rounding, step after step
    assert np.max(np.abs(whole.final_state - oracle.reshape(dim, dim))) <= 1e-12
    # building the stack in blocks does not change any step
    monkeypatch.setattr(dynamics, "STEP_BLOCK", 300)
    blocked = integrate_scheduled(system, schedule, rho0, n_steps)
    assert blocked.states.tobytes() == whole.states.tobytes()


def test_scheduled_step_floor_enforced():
    schedule = ParameterSchedule(T=2.0)
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6))
    with pytest.raises(OutOfRange):
        integrate_scheduled(system, schedule, EXCITED, n_steps=999)


def test_scheduled_step_count_keeps_the_floor():
    assert dynamics.scheduled_step_count(2.0, 1e-3) == 2000
    assert dynamics.scheduled_step_count(0.25, 1e-3) == dynamics.MIN_SCHEDULED_STEPS


def test_scheduled_store_decimation_keeps_endpoint():
    schedule = ParameterSchedule(T=2.0)
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    res = integrate_scheduled(
        system, schedule, EXCITED, n_steps=1000, store_every=300)
    assert np.allclose(res.times, [0.0, 0.6, 1.2, 1.8, 2.0])
    assert res.states.shape == (5, 2, 2)


@pytest.mark.parametrize("gamma_e_schedule", ["constant", "cosine"])
def test_scheduled_run_converges_at_second_order(gamma_e_schedule):
    # midpoint steps: halving the step quarters the final-state error
    schedule = ParameterSchedule(T=2.0, gamma_e_schedule=gamma_e_schedule)
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    rho0 = bloch_state(1.0, 0.0, 0.0)
    n = 1000
    final = {
        steps: integrate_scheduled(system, schedule, rho0, steps, store_every=steps).final_state
        for steps in (n, 2 * n, 16 * n)}
    errs = [np.max(np.abs(final[steps] - final[16 * n])) for steps in (n, 2 * n)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("psi0", [plus_x(), minus_x()], ids=["plus_x", "minus_x"])
@pytest.mark.parametrize("gamma_e, gamma_phi, mirrored", [
    (0.0, 0.0, True), (0.0, 0.7, True), (4.6, 0.0, False), (4.6, 0.7, False)])
def test_loop_directions_are_sigma_x_mirrors_without_emission(
        psi0, gamma_e, gamma_phi, mirrored):
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=gamma_e, gamma_phi=gamma_phi))
    rho0 = np.outer(psi0, psi0.conj())
    final = {
        direction: integrate_scheduled(
            system, ParameterSchedule(T=1.0, direction=direction), rho0, 1000).final_state
        for direction in ("cw", "ccw")}
    deviation = sigma_x_mirror_deviation(final["cw"], final["ccw"])
    if mirrored:
        assert deviation <= 1e-12
    else:  # emission is not sigma_x invariant, and breaks the relation
        assert deviation > 0.1


# --- Bloch-vector route ------------------------------------------------------------


def test_bloch_rhs_fixed_point_and_pumping():
    assert np.allclose(dynamics.bloch_rhs(DriveParams(J=0.0), Rates(gamma_e=4.0), [0, 0, 1]), 0.0)
    assert np.allclose(
        dynamics.bloch_rhs(DriveParams(J=0.0), Rates(gamma_e=4.0), [0, 0, -1]), [0.0, 0.0, 8.0])
    assert np.allclose(
        dynamics.bloch_rhs(DriveParams(J=0.0, Delta=2.0), Rates(gamma_e=0.0), [1, 0, 0]),
        [0.0, 2.0, 0.0])


def test_bloch_route_matches_density_matrix_route(rng):
    t = np.array([0.0, 0.3, 0.7, 1.2])
    for _ in range(20):
        params = DriveParams(J=float(rng.uniform(0, 3)), Delta=float(rng.uniform(-2, 2)))
        rates = Rates(gamma_e=float(rng.uniform(0, 5)), gamma_phi=float(rng.uniform(0, 1)))
        x0, y0, z0 = rng.uniform(-0.5, 0.5, size=3)
        L = build_superoperator(make_system(params, rates))
        res = integrate_constant(L, bloch_state(x0, y0, z0), t)
        v = integrate_bloch(params, rates, [x0, y0, z0], t)
        assert np.max(np.abs(v[:, 0] - res.observables["x"])) <= 1e-6
        assert np.max(np.abs(v[:, 1] - res.observables["y"])) <= 1e-6
        assert np.max(np.abs(v[:, 2] - res.observables["z"])) <= 1e-6


def test_bloch_rejects_bad_initial_vector():
    with pytest.raises(OutOfRange):
        integrate_bloch(DriveParams(J=1.0), Rates(gamma_e=1.0), [0.0, 1.0], [0.0, 1.0])


def test_critical_coupling_relaxes_without_ringing():
    ge = 4.0
    system = make_system(DriveParams(J=ge / 8.0), Rates(gamma_e=ge))
    t = np.linspace(0.0, 3.0, 301)
    z = integrate_constant(build_superoperator(system), EXCITED, t).observables["z"]
    z_ss = ge * ge / (ge * ge + 8.0 * (ge / 8.0) ** 2)
    dev = z - z_ss
    signs = np.sign(dev[np.abs(dev) > 1e-10])
    assert np.count_nonzero(np.diff(signs) != 0) <= 1


def test_above_critical_coupling_rings():
    ge = 4.0
    system = make_system(DriveParams(J=1.8), Rates(gamma_e=ge))
    t = np.linspace(0.0, 3.0, 301)
    z = integrate_constant(build_superoperator(system), EXCITED, t).observables["z"]
    z_ss = ge * ge / (ge * ge + 8.0 * 1.8 ** 2)
    dev = z - z_ss
    signs = np.sign(dev[np.abs(dev) > 1e-10])
    assert np.count_nonzero(np.diff(signs) != 0) >= 3
