import math

import numpy as np
import pytest

from conftest import point_operators, sigma_x_mirror_deviation, system_on_path
from liouvlab import trajectories as tj
from liouvlab.dynamics import integrate_constant, integrate_scheduled, step_count
from liouvlab.errors import OutOfRange
from liouvlab.liouvillian import build_superoperator
from liouvlab.model import (
    DriveParams,
    ParameterSchedule,
    Rates,
    basis_ket,
    make_system,
    minus_x,
    plus_x,
)
from liouvlab.numerics import expm

GROUND = basis_ket(2, 0)
EXCITED_KET = basis_ket(2, 1)


def decay_system(gamma_e=4.4, J=0.0):
    return make_system(DriveParams(J=J), Rates(gamma_e=gamma_e))


# --- bookkeeping ----------------------------------------------------------------


def test_trajectory_states_stay_normalized():
    rec = tj.run_trajectory(
        make_system(DriveParams(J=1.3), Rates(gamma_e=4.4, gamma_phi=0.2)),
        EXCITED_KET, dt=1e-3, seed=7, t_final=2.0)
    norms = np.linalg.norm(rec.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10
    assert rec.times[0] == 0.0
    assert np.allclose(rec.states[0], EXCITED_KET)


def test_jump_times_strictly_increase_and_land_on_the_grid():
    dt = 1e-3
    rec = tj.run_trajectory(
        make_system(DriveParams(J=1.3), Rates(gamma_e=4.4, gamma_phi=0.5)),
        EXCITED_KET, dt=dt, seed=3, t_final=2.0)
    t_jumps = np.array([t for t, _ in rec.jumps])
    assert len(t_jumps) >= 1
    assert np.all(np.diff(t_jumps) > 0)
    steps = t_jumps / dt
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    assert set(lbl for _, lbl in rec.jumps) <= {"e", "phi"}


def test_trajectory_is_deterministic_in_the_seed():
    kw = dict(dt=1e-3, t_final=1.0)
    sys2 = make_system(DriveParams(J=1.0), Rates(gamma_e=4.4))
    a = tj.run_trajectory(sys2, EXCITED_KET, seed=42, **kw)
    b = tj.run_trajectory(sys2, EXCITED_KET, seed=42, **kw)
    c = tj.run_trajectory(sys2, EXCITED_KET, seed=43, **kw)
    assert np.array_equal(a.states, b.states)
    assert a.jumps == b.jumps
    assert not (np.array_equal(a.states, c.states) and a.jumps == c.jumps)


def test_ensemble_member_matches_standalone_run_bitwise():
    sys2 = make_system(DriveParams(J=1.0), Rates(gamma_e=4.4))
    ens = tj.run_ensemble(sys2, None, EXCITED_KET, dt=1e-3, n=1,
                          master_seed=12345, t_final=1.0)
    solo = tj.run_trajectory(sys2, EXCITED_KET, dt=1e-3,
                             seed=tj.split_seed(12345, 0), t_final=1.0)
    assert ens.jumps_per_trajectory[0] == solo.jumps
    expected = np.einsum("ti,tj->tij", solo.states, solo.states.conj())
    assert np.array_equal(ens.mean_density, expected)


def test_ensemble_mean_equals_the_mean_of_its_members_bitwise():
    schedule = ParameterSchedule(T=1.0)
    sys2 = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=2.0))
    n = 5
    ens = tj.run_ensemble(sys2, schedule, plus_x(), dt=1e-3, n=n, master_seed=8)
    states = np.array([
        tj.run_trajectory(sys2, plus_x(), dt=1e-3, seed=tj.split_seed(8, i),
                          schedule=schedule).states
        for i in range(n)])
    expected = np.einsum("nti,ntj->tij", states, states.conj()) / n
    assert ens.mean_density.tobytes() == expected.tobytes()


def test_scheduled_step_table_keeps_each_steps_jump_set():
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=3.0, gamma_phi=0.4))
    schedule = ParameterSchedule(T=1.0, J_max=2.0, Delta_max=3.0, gamma_e_schedule="cosine")
    dt, n_steps = 1e-3, 1000
    props, ops, labels = tj._step_table(system, schedule, dt, n_steps)
    assert len(props) == len(ops) == n_steps
    assert labels == ["e", "phi"]
    for k in (0, 499, 500, 999):
        h, jumps = point_operators(system_on_path(system, schedule, (k + 0.5) * dt))
        assert [label for _, label in jumps] == labels
        assert ops[k].tobytes() == np.array([L for L, _ in jumps]).tobytes()
        acc = np.zeros((2, 2), dtype=complex)
        for L, _ in jumps:
            acc = acc + L.conj().T @ L
        h_eff = h - 0.5j * acc
        assert props[k].tobytes() == expm(-1j * h_eff * dt).tobytes()


def test_seed_splitting_is_stable():
    ss = tj.split_seed(12345, 7)
    assert ss.entropy == 12345
    assert ss.spawn_key == (7,)


def test_ensemble_mean_has_unit_trace():
    ens = tj.run_ensemble(decay_system(), None, EXCITED_KET, dt=1e-3, n=64,
                          master_seed=5, t_final=1.0)
    traces = np.trace(ens.mean_density, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) <= 1e-10


def test_store_decimation_grid():
    rec = tj.run_trajectory(decay_system(), EXCITED_KET, dt=1e-3, seed=0,
                            t_final=1.0, store_every=100)
    assert np.allclose(rec.times, np.linspace(0.0, 1.0, 11))
    assert rec.states.shape == (11, 2)


# --- input validation --------------------------------------------------------------


def test_input_validation():
    sys2 = decay_system()
    with pytest.raises(OutOfRange):
        tj.run_trajectory(sys2, EXCITED_KET, dt=1e-3, seed=0)  # no duration
    with pytest.raises(OutOfRange):
        tj.run_trajectory(sys2, EXCITED_KET, dt=-1e-3, seed=0, t_final=1.0)
    with pytest.raises(OutOfRange):
        tj.run_trajectory(sys2, EXCITED_KET, dt=1e-3, seed=0, t_final=-1.0)
    with pytest.raises(OutOfRange):
        tj.run_trajectory(sys2, 2.0 * EXCITED_KET, dt=1e-3, seed=0, t_final=1.0)
    with pytest.raises(OutOfRange):
        tj.run_ensemble(sys2, None, EXCITED_KET, dt=1e-3, n=0, master_seed=0, t_final=1.0)


# --- physics checks ------------------------------------------------------------------


def test_closed_system_rabi_oscillation():
    J = 1.0
    rec = tj.run_trajectory(
        make_system(DriveParams(J=J), Rates(gamma_e=0.0)),
        GROUND, dt=1e-3, seed=11, t_final=1.5)
    assert rec.jumps == []
    p_e = np.abs(rec.states[:, 1]) ** 2
    assert np.max(np.abs(p_e - np.sin(J * rec.times) ** 2)) <= 1e-8


def test_closed_system_ensemble_matches_density_route():
    sys2 = make_system(DriveParams(J=1.0, Delta=0.5), Rates(gamma_e=0.0))
    ens = tj.run_ensemble(sys2, None, GROUND, dt=1e-3, n=3, master_seed=1, t_final=1.0)
    rho0 = np.outer(GROUND, GROUND.conj())
    ref = integrate_constant(build_superoperator(sys2), rho0, ens.times)
    assert np.max(np.abs(ens.mean_density - ref.states)) <= 1e-8


def test_no_jump_segment_follows_nonhermitian_propagator():
    sys2 = make_system(DriveParams(J=1.3), Rates(gamma_e=0.3))
    rec = None
    for seed in range(30):
        cand = tj.run_trajectory(sys2, EXCITED_KET, dt=1e-3, seed=seed, t_final=1.0)
        if not cand.jumps:
            rec = cand
            break
    assert rec is not None, "expected at least one jump-free trajectory at gamma_e = 0.3"
    from liouvlab.numerics import expm

    h, jumps = point_operators(sys2)
    h_eff = h - 0.5j * sum(L.conj().T @ L for L, _ in jumps)
    for t, psi in zip(rec.times, rec.states):
        ref = expm(-1j * h_eff * t) @ EXCITED_KET
        ref = ref / np.linalg.norm(ref)
        assert np.linalg.norm(psi - ref) <= 1e-8


def test_pure_decay_jump_statistics():
    ge, t_final, dt, n = 4.4, 1.5, 1e-3, 2000
    ens = tj.run_ensemble(decay_system(ge), None, EXCITED_KET, dt=dt, n=n,
                          master_seed=2024, t_final=t_final)
    counts = [len(j) for j in ens.jumps_per_trajectory]
    assert max(counts) <= 1  # one emission and the state is stuck in |g>
    assert set(ens.jump_count_histogram) == {"e"}
    assert sum(counts) / n >= 0.99  # nearly every run decays within 6.6 lifetimes

    t_jumps = np.array([j[0][0] for j in ens.jumps_per_trajectory if j])
    sample_mean = t_jumps.mean()
    se = t_jumps.std(ddof=1) / math.sqrt(len(t_jumps))
    # truncation at t_final and the half-step timestamp bias are both << 3 se
    assert abs(sample_mean - 1.0 / ge) <= 3.0 * se + 0.003


def test_coarse_steps_sample_pure_decay_exactly():
    # the chance of no jump by the end of a step is the squared norm of the
    # no-jump state, exp(-gamma_e t), however coarse the step
    ge, n = 4.4, 20000
    ens = tj.run_ensemble(decay_system(ge), None, EXCITED_KET, dt=0.1, n=n,
                          master_seed=31, t_final=1.0, store_every=1)
    p = np.exp(-ge * ens.times)
    sigma = np.sqrt(p * (1.0 - p) / n)
    assert len(ens.times) == 11
    assert np.all(np.abs(ens.mean_density[:, 1, 1].real - p) <= 5.0 * sigma)


def test_jump_counts_match_the_lindblad_rates_on_the_control_loop():
    ge, gphi, T, dt, n = 4.6, 0.2, 2.0, 5e-4, 4000
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=ge, gamma_phi=gphi))
    schedule = ParameterSchedule(T=T)
    ens = tj.run_ensemble(system, schedule, plus_x(), dt=dt, n=n, master_seed=2718)
    ref = integrate_scheduled(system, schedule, np.outer(plus_x(), plus_x().conj()),
                              step_count(T, dt))
    # emission fires at rate gamma_e rho_ee, dephasing at gamma_phi/2 in every state
    expected = {"e": ge * np.trapezoid(ref.states[:, 1, 1].real, ref.times),
                "phi": 0.5 * gphi * T}
    for label, mean in expected.items():
        assert abs(ens.jump_count_histogram[label] / n - mean) <= 4.0 * math.sqrt(mean / n)


def test_emission_dominates_dephasing_on_the_control_loop():
    schedule = ParameterSchedule(T=2.0)
    sys2 = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2))
    ens = tj.run_ensemble(sys2, schedule, plus_x(), dt=5e-4, n=100, master_seed=99)
    hist = ens.jump_count_histogram
    assert hist.get("e", 0) > hist.get("phi", 0)
    assert hist.get("e", 0) > 0


def test_scheduled_ensemble_keeps_the_f_decay_target():
    # |f> decays straight to |g>, so no trajectory ever populates |e>
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=1.0, gamma_f=2.0),
                         dim=3, f_decay_to="g")
    schedule = ParameterSchedule(T=1.0, J_max=0.0, Delta_max=0.0)
    ens = tj.run_ensemble(system, schedule, basis_ket(3, 2), dt=1e-3, n=50, master_seed=3)
    assert ens.jump_count_histogram["f"] > 0
    assert np.max(ens.mean_density[:, 1, 1].real) == 0.0


def test_closed_loop_has_no_jumps_without_dissipation():
    schedule = ParameterSchedule(T=2.0)
    sys2 = make_system(DriveParams(J=16.0), Rates(gamma_e=0.0))
    ens = tj.run_ensemble(sys2, schedule, plus_x(), dt=5e-4, n=20, master_seed=99)
    assert ens.jump_count_histogram == {}
    assert all(j == [] for j in ens.jumps_per_trajectory)


@pytest.mark.parametrize("psi0", [plus_x(), minus_x()], ids=["plus_x", "minus_x"])
@pytest.mark.parametrize("gamma_e, gamma_phi, mirrored", [
    (0.0, 0.0, True), (0.0, 0.7, True), (4.6, 0.0, False), (4.6, 0.7, False)])
def test_ensemble_loop_directions_are_sigma_x_mirrors_without_emission(
        psi0, gamma_e, gamma_phi, mirrored):
    # under dephasing alone L^+ L = gamma_phi/2 is a multiple of the identity,
    # so the norm decays the same for every state: each cw trajectory crosses
    # its threshold, and jumps, with its ccw twin and mirrors it
    system = make_system(DriveParams(J=16.0), Rates(gamma_e=gamma_e, gamma_phi=gamma_phi))
    ens = {
        direction: tj.run_ensemble(
            system, ParameterSchedule(T=1.0, direction=direction), psi0,
            dt=1e-3, n=20, master_seed=7)
        for direction in ("cw", "ccw")}
    deviation = sigma_x_mirror_deviation(ens["cw"].mean_density, ens["ccw"].mean_density)
    if mirrored:
        assert ens["cw"].jumps_per_trajectory == ens["ccw"].jumps_per_trajectory
        assert deviation <= 1e-12
    else:
        assert deviation > 0.1


def test_ensemble_reproduces_its_recorded_jumps():
    # golden values of the waiting-time streams: a threshold per trajectory,
    # then a channel uniform and a fresh threshold at each jump
    schedule = ParameterSchedule(T=0.6)
    sys2 = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=2.0))
    ens = tj.run_ensemble(sys2, schedule, plus_x(), dt=1e-3, n=6, master_seed=11)
    assert ens.jump_count_histogram == {"e": 2, "phi": 3}
    assert ens.jumps_per_trajectory[0] == [(0.037, "phi"), (0.132, "e"), (0.399, "phi")]
    assert [len(j) for j in ens.jumps_per_trajectory] == [3, 2, 0, 0, 0, 0]
