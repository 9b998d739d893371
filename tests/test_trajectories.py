import math
import tracemalloc

import numpy as np
import pytest

from conftest import point_operators, sigma_x_mirror_deviation, system_on_path
from liouvlab import config, dynamics
from liouvlab import trajectories as tj
from liouvlab.dynamics import integrate_constant, integrate_scheduled, step_count, stored_steps
from liouvlab.errors import OutOfRange, ZeroNorm
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


def spawned_seed(master_seed, index):
    """numpy's seed of trajectory `index` of an ensemble, as run_ensemble derives its stream."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def solo(system, schedule, psi0, dt, master_seed, index, store_every=20, t_final=None):
    """Trajectory `index` of an ensemble run alone: a batch of one on its own stream row.

    psi0 is normalised as run_ensemble normalises it. Returns (times, states
    (n_stored, d), jumps).
    """
    streams = tj._spawned_streams(master_seed, index + 1)
    for name in ("hi", "lo", "inc_hi", "inc_lo"):
        setattr(streams, name, getattr(streams, name)[index:].copy())
    n_steps, step = tj._resolve_steps(schedule, t_final, dt, store_every)
    states = []
    psi0 = np.asarray(psi0, dtype=complex) / np.linalg.norm(psi0)
    times, jumps, _histogram = tj._run_batch(system, schedule, psi0, step, n_steps, streams,
                                             store_every, lambda batch: states.append(batch[0].copy()))
    return times, np.array(states), jumps[0]


# --- bookkeeping ----------------------------------------------------------------


def test_trajectory_states_stay_normalized():
    ens = tj.run_ensemble(
        make_system(DriveParams(J=1.3), Rates(gamma_e=4.4, gamma_phi=0.2)), None,
        EXCITED_KET, dt=1e-3, n=1, master_seed=7, t_final=2.0)
    norms = np.linalg.norm(ens.trajectory0_states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10
    assert ens.times[0] == 0.0
    assert np.allclose(ens.trajectory0_states[0], EXCITED_KET)


def test_jump_times_strictly_increase_and_land_on_the_grid():
    dt = 1e-3
    jumps = tj.run_ensemble(
        make_system(DriveParams(J=1.3), Rates(gamma_e=4.4, gamma_phi=0.5)), None,
        EXCITED_KET, dt=dt, n=1, master_seed=3, t_final=2.0).jumps_per_trajectory[0]
    t_jumps = np.array([t for t, _ in jumps])
    assert len(t_jumps) >= 1
    assert np.all(np.diff(t_jumps) > 0)
    steps = t_jumps / dt
    assert np.allclose(steps, np.round(steps), atol=1e-9)
    assert set(lbl for _, lbl in jumps) <= {"e", "phi"}


def test_trajectory_is_deterministic_in_the_seed():
    sys2 = make_system(DriveParams(J=1.0), Rates(gamma_e=4.4))
    a, b, c = (tj.run_ensemble(sys2, None, EXCITED_KET, dt=1e-3, n=1, master_seed=seed,
                               t_final=1.0) for seed in (42, 42, 43))
    assert np.array_equal(a.trajectory0_states, b.trajectory0_states)
    assert a.jumps_per_trajectory == b.jumps_per_trajectory
    assert not (np.array_equal(a.trajectory0_states, c.trajectory0_states)
                and a.jumps_per_trajectory == c.jumps_per_trajectory)


def test_ensemble_member_matches_standalone_run_bitwise():
    sys2 = make_system(DriveParams(J=1.0), Rates(gamma_e=4.4))
    ens = tj.run_ensemble(sys2, None, EXCITED_KET, dt=1e-3, n=1,
                          master_seed=12345, t_final=1.0)
    times, states, jumps = solo(sys2, None, EXCITED_KET, 1e-3, 12345, 0, t_final=1.0)
    assert np.array_equal(ens.times, times)
    assert ens.jumps_per_trajectory[0] == jumps
    assert np.array_equal(ens.trajectory0_states, states)
    expected = np.einsum("ti,tj->tij", states, states.conj())
    assert np.array_equal(ens.mean_density, expected)


def test_ensemble_mean_equals_the_mean_of_its_members_bitwise():
    schedule = ParameterSchedule(T=1.0)
    sys2 = make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=2.0))
    n = 5
    ens = tj.run_ensemble(sys2, schedule, plus_x(), dt=1e-3, n=n, master_seed=8)
    members = [solo(sys2, schedule, plus_x(), 1e-3, 8, i) for i in range(n)]
    states = np.array([member_states for _t, member_states, _j in members])
    expected = np.einsum("nti,ntj->tij", states, states.conj()) / n
    assert ens.mean_density.tobytes() == expected.tobytes()
    assert ens.jumps_per_trajectory == [jumps for _t, _s, jumps in members]
    assert sum(map(len, ens.jumps_per_trajectory)) > 0
    # the shown single trajectory is trajectory 0 of the batch, bit for bit
    assert ens.trajectory0_states.tobytes() == states[0].tobytes()


def test_scheduled_step_table_keeps_each_steps_jump_set():
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=3.0, gamma_phi=0.4))
    schedule = ParameterSchedule(T=1.0, J_max=2.0, Delta_max=3.0, gamma_e_schedule="cosine")
    dt, n_steps = 1e-3, 1000
    props, ops, labels = tj._step_table(system, schedule, dt, range(n_steps))
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


def test_ensemble_mean_has_unit_trace():
    ens = tj.run_ensemble(decay_system(), None, EXCITED_KET, dt=1e-3, n=64,
                          master_seed=5, t_final=1.0)
    traces = np.trace(ens.mean_density, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 1.0)) <= 1e-10


def test_store_decimation_grid():
    ens = tj.run_ensemble(decay_system(), None, EXCITED_KET, dt=1e-3, n=1, master_seed=0,
                          t_final=1.0, store_every=100)
    assert np.allclose(ens.times, np.linspace(0.0, 1.0, 11))
    assert ens.trajectory0_states.shape == (11, 2)
    assert ens.mean_density.shape == (11, 2, 2)


# --- the random streams against numpy's generators ---------------------------------

STREAM_MASTERS = {"0": 0, "1": 1, "12345": 12345, "2**32-1": 2**32 - 1, "2**32": 2**32,
                  "2**96+7": 2**96 + 7, "2**200+3": 2**200 + 3}


def _numpy_generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("master", STREAM_MASTERS.values(), ids=STREAM_MASTERS)
def test_spawned_streams_draw_what_numpy_draws(master):
    n = config.MAX_ENSEMBLE_N
    picked = [0, 1, 65_536, n - 1]
    streams = tj._spawned_streams(master, n)
    oracle = {i: _numpy_generator(spawned_seed(master, i)) for i in picked}
    assert streams.random()[picked].tolist() == [oracle[i].random() for i in picked]
    # uneven subsets, so the rows fall out of step with one another
    for rows in ([n - 1, 1], [65_536], [0, n - 1, 65_536], [1], [n - 1]):
        assert streams.random(np.array(rows)).tolist() == [oracle[i].random() for i in rows]


# --- input validation --------------------------------------------------------------


def test_input_validation():
    sys2 = decay_system()

    def ensemble(psi0=EXCITED_KET, dt=1e-3, n=1, master_seed=0, schedule=None, **kw):
        return tj.run_ensemble(sys2, schedule, psi0, dt=dt, n=n, master_seed=master_seed, **kw)

    with pytest.raises(OutOfRange, match="t_final"):
        ensemble()  # no duration
    # a scheduled run lasts schedule.T, so a duration beside it is rejected
    with pytest.raises(OutOfRange, match="t_final"):
        ensemble(schedule=ParameterSchedule(T=1.0), t_final=0.5)
    with pytest.raises(OutOfRange):
        ensemble(dt=-1e-3, t_final=1.0)
    with pytest.raises(OutOfRange):
        ensemble(t_final=-1.0)
    with pytest.raises(OutOfRange):
        ensemble(psi0=2.0 * EXCITED_KET, t_final=1.0)
    with pytest.raises(OutOfRange):
        ensemble(n=0, t_final=1.0)
    # a negative seed is rejected, never wrapped into 32-bit words
    with pytest.raises(OutOfRange, match="non-negative"):
        ensemble(n=4, master_seed=-1, t_final=1.0)
    with pytest.raises(OutOfRange, match="non-negative"):
        ensemble(master_seed=-5, t_final=1.0)


def test_a_scheduled_run_takes_the_scheduled_step_count():
    # as a scheduled Lindblad run does: about dt each, and at least 1,000
    schedule = ParameterSchedule(T=2.0)
    assert tj._resolve_steps(schedule, None, 5e-4, 20) == (4000, 5e-4)
    assert tj._resolve_steps(schedule, None, 0.01, 20) == (1000, 2e-3)
    assert tj._resolve_steps(None, 2.0, 0.01, 20) == (200, 0.01)


@pytest.mark.parametrize("store_every", [0, -1])
def test_every_route_rejects_store_every_below_one(store_every, monkeypatch):
    system, schedule = DEFAULT_LOOP
    # the check comes before any trajectory's random stream is made
    monkeypatch.setattr(tj, "_Streams", lambda words: pytest.fail("a stream was made"))
    with pytest.raises(OutOfRange, match="store_every"):
        tj.run_ensemble(system, schedule, plus_x(), dt=1e-3, n=4, master_seed=1,
                        store_every=store_every)
    with pytest.raises(OutOfRange, match="store_every"):
        integrate_scheduled(system, schedule, np.full((2, 2), 0.5, dtype=complex), 2000,
                            store_every=store_every)


# --- physics checks ------------------------------------------------------------------


def test_closed_system_rabi_oscillation():
    J = 1.0
    ens = tj.run_ensemble(
        make_system(DriveParams(J=J), Rates(gamma_e=0.0)), None,
        GROUND, dt=1e-3, n=1, master_seed=11, t_final=1.5)
    assert ens.jumps_per_trajectory == [[]]
    p_e = np.abs(ens.trajectory0_states[:, 1]) ** 2
    assert np.max(np.abs(p_e - np.sin(J * ens.times) ** 2)) <= 1e-8


def test_closed_system_ensemble_matches_density_route():
    sys2 = make_system(DriveParams(J=1.0, Delta=0.5), Rates(gamma_e=0.0))
    ens = tj.run_ensemble(sys2, None, GROUND, dt=1e-3, n=3, master_seed=1, t_final=1.0)
    rho0 = np.outer(GROUND, GROUND.conj())
    ref = integrate_constant(build_superoperator(sys2), rho0, ens.times)
    assert np.max(np.abs(ens.mean_density - ref.states)) <= 1e-8


def test_no_jump_segment_follows_nonhermitian_propagator():
    sys2 = make_system(DriveParams(J=1.3), Rates(gamma_e=0.3))
    ens = None
    for seed in range(30):
        cand = tj.run_ensemble(sys2, None, EXCITED_KET, dt=1e-3, n=1, master_seed=seed,
                               t_final=1.0)
        if cand.jumps_per_trajectory == [[]]:
            ens = cand
            break
    assert ens is not None, "expected at least one jump-free trajectory at gamma_e = 0.3"

    h, jumps = point_operators(sys2)
    h_eff = h - 0.5j * sum(L.conj().T @ L for L, _ in jumps)
    for t, psi in zip(ens.times, ens.trajectory0_states):
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
    step = 0.6 / 1000  # a scheduled loop takes at least 1,000 steps
    assert ens.jump_count_histogram == {"e": 2, "phi": 3}
    assert ens.jumps_per_trajectory[0] == [(62 * step, "phi"), (220 * step, "e"), (665 * step, "phi")]
    assert [len(j) for j in ens.jumps_per_trajectory] == [3, 2, 0, 0, 0, 0]


# --- interval stepping against the per-step loop ---------------------------------------


def _reference_run_batch(system, schedule, psi0, dt, n_steps, generators, store_every, store):
    """The per-step kernel: one propagation of the whole batch per step.

    Trajectory i draws from generators[i], one numpy Generator per row, so the
    interval kernel's vectorised streams are checked against numpy draw for draw.
    """
    props, ops, labels = tj._step_table(system, schedule, dt, range(n_steps))
    stored_idx, times = stored_steps(n_steps, store_every, dt)

    psi = np.tile(np.asarray(psi0, dtype=complex), (len(generators), 1))
    store(psi)
    threshold = np.array([g.random() for g in generators])
    jumps = [[] for _ in generators]
    histogram = {lab: 0 for lab in labels}
    si = 1

    for k in range(n_steps):
        psi = np.einsum("ab,nb->na", props[k], psi)
        rows = np.flatnonzero(np.einsum("na,na->n", psi, psi.conj()).real < threshold)
        if rows.size:
            amp = np.einsum("oab,nb->noa", ops[k], psi[rows])
            cum = np.cumsum(np.einsum("noa,noa->no", amp, amp.conj()).real, axis=1)
            total = cum[:, -1]
            if not total.all():
                bad = int(rows[np.argmin(total)])
                raise ZeroNorm(f"jump annihilated the state in trajectory {bad}")
            u = np.array([generators[r].random() for r in rows]) * total
            chans = (u[:, None] >= cum).sum(axis=1)
            phi = amp[np.arange(rows.size), chans]
            psi[rows] = phi / np.linalg.norm(phi, axis=1)[:, None]
            t_jump = (k + 1) * dt
            for r, c in zip(rows, chans):
                threshold[r] = generators[r].random()
                jumps[int(r)].append((t_jump, labels[c]))
                histogram[labels[c]] += 1
        if si < len(stored_idx) and k + 1 == stored_idx[si]:
            store(psi / np.linalg.norm(psi, axis=1)[:, None])
            si += 1

    return times, jumps, histogram


DEFAULT_LOOP = (make_system(DriveParams(J=16.0), Rates(gamma_e=4.6, gamma_phi=0.2)),
                ParameterSchedule(T=2.0, J_max=16.0, Delta_max=10.0 * math.pi))
QUTRIT_LOOP = (make_system(DriveParams(J=0.0), Rates(gamma_e=4.2, gamma_phi=0.2, gamma_f=0.3),
                           dim=3, f_decay_to="e"),
               ParameterSchedule(T=1.0, J_max=4.0, Delta_max=6.0))
ORACLE_CASES = {
    # name: (system, schedule, psi0, dt, t_final, n)
    "default-loop": DEFAULT_LOOP + (plus_x(), 5e-4, None, 300),
    "qutrit-f-decay": QUTRIT_LOOP + (basis_ket(3, 2), 1e-3, None, 100),
    "constant-t_final": (make_system(DriveParams(J=1.3), Rates(gamma_e=4.4, gamma_phi=0.5)),
                         None, EXCITED_KET, 1e-3, 1.5, 100),
    "high-rate": (make_system(DriveParams(J=8.0), Rates(gamma_e=40.0, gamma_phi=20.0)),
                  None, EXCITED_KET, 1e-3, 0.5, 50),
}


def _both_kernels(name, store_every, seed=2024):
    system, schedule, psi0, dt, t_final, n = ORACLE_CASES[name]
    n_steps, step = tj._resolve_steps(schedule, t_final, dt, store_every)
    runs = []
    generators = [_numpy_generator(spawned_seed(seed, i)) for i in range(n)]
    for kernel, draws in ((_reference_run_batch, generators),
                          (tj._run_batch, tj._spawned_streams(seed, n))):
        states = []
        times, jumps, histogram = kernel(system, schedule, psi0, step, n_steps, draws,
                                         store_every, lambda batch: states.append(batch.copy()))
        runs.append((times, np.array(states), jumps, histogram))
    return n_steps, step, runs


INTERVAL_CASES = [pytest.param(name, every, None, id=f"{name}-{every}")
                  for name in ORACLE_CASES for every in (1, 7, 20)]
# the scheduled runs again in blocks of at most 64 steps, so each spans several
# blocks, and one whose stored interval is longer than a block
INTERVAL_CASES += [pytest.param(name, every, 64, id=f"{name}-{every}-block64")
                   for name in ("default-loop", "qutrit-f-decay") for every in (7, 20, 100)]


@pytest.mark.parametrize("name, store_every, step_block", INTERVAL_CASES)
def test_interval_stepping_matches_the_per_step_loop(name, store_every, step_block, monkeypatch):
    if step_block is not None:
        monkeypatch.setattr(dynamics, "STEP_BLOCK", step_block)
    n_steps, _step, ((t_ref, s_ref, j_ref, h_ref), (t_new, s_new, j_new, h_new)) = (
        _both_kernels(name, store_every))
    assert n_steps % 7 != 0  # so store_every = 7 ends on a short interval
    assert np.array_equal(t_new, t_ref)
    assert j_new == j_ref
    assert h_new == h_ref
    assert sum(h_ref.values()) > 0
    assert s_new.shape == s_ref.shape
    assert np.max(np.abs(s_new - s_ref)) <= 1e-13


def test_the_trajectories_ensemble_peaks_under_7_5_mb():
    # the scans add no memory to the n = 4000 ensemble of the trajectories experiment
    cfg = config.resolve({}, "trajectories")
    args = (cfg.system, cfg.schedule, plus_x(), cfg.ensemble_dt, 4000, cfg.master_seed,
            cfg.ensemble_store_every)
    tracemalloc.start()
    try:
        tj.run_ensemble(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5e6


def test_no_mcwf_expm_call_is_larger_than_one_block(monkeypatch):
    # a scheduled run builds its step table one block at a time, never whole
    sizes = []
    expm_of = tj.numerics.expm

    def spy(a):
        sizes.append(len(a))
        return expm_of(a)

    monkeypatch.setattr(dynamics, "STEP_BLOCK", 64)
    monkeypatch.setattr(tj.numerics, "expm", spy)
    system, schedule = DEFAULT_LOOP
    ens = tj.run_ensemble(system, schedule, plus_x(), dt=5e-3, n=1, master_seed=1, store_every=7)
    n_steps = dynamics.scheduled_step_count(schedule.T, 5e-3)
    assert n_steps >= 300
    assert len(ens.times) == len(stored_steps(n_steps, 7, 5e-3)[0])
    assert sum(sizes) == n_steps
    assert max(sizes) <= 64


def test_high_rate_case_jumps_twice_within_one_stored_interval():
    store_every = 20
    _n_steps, step, (_ref, (_t, _s, jumps, _h)) = _both_kernels("high-rate", store_every)
    twice = 0
    for record in jumps:
        intervals = [(round(t / step) - 1) // store_every for t, _label in record]
        twice += len(intervals) - len(set(intervals))
    assert twice >= 1


@pytest.mark.parametrize("system, schedule, n_steps", [
    DEFAULT_LOOP + (4000,),
    QUTRIT_LOOP + (1000,),
], ids=["default-loop", "qutrit-loop"])
def test_no_jump_squared_norm_never_rises(system, schedule, n_steps):
    # the interval kernel skips a row whose end-of-interval norm is above its
    # threshold, which is sound only while no step raises the norm
    props, _ops, _labels = tj._step_table(system, schedule, schedule.T / n_steps, range(n_steps))
    d = system.dim
    rng = np.random.default_rng(5)
    starts = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
    psi = np.concatenate([np.eye(d, dtype=complex), plus_x(d)[None],
                          starts / np.linalg.norm(starts, axis=1)[:, None]])
    norms = [np.ones(len(psi))]
    for k in range(n_steps):
        psi = np.einsum("ab,nb->na", props[k], psi)
        norms.append(np.einsum("na,na->n", psi, psi.conj()).real)
    norms = np.array(norms)
    assert np.all(norms[1:] - norms[:-1] <= 1e-15 * norms[:-1])
    assert np.all(norms[-1] > 0.0)


class _Draws:
    """A stream stub: row i returns its given uniforms in turn, then its last forever."""

    def __init__(self, *rows):
        self.rows = [list(values) for values in rows]

    def __len__(self):
        return len(self.rows)

    def random(self, rows=None):
        rows = range(len(self.rows)) if rows is None else rows
        return np.array([self.rows[r].pop(0) if len(self.rows[r]) > 1 else self.rows[r][0]
                         for r in rows])


def test_a_jump_that_annihilates_the_state_raises_zero_norm():
    # |g> under emission alone keeps norm 1, so a threshold above 1 makes it
    # jump at once, and its jump image L|g> is zero
    system = make_system(DriveParams(J=0.0), Rates(gamma_e=4.4))
    with pytest.raises(ZeroNorm, match="trajectory 1"):
        tj._run_batch(system, None, GROUND, 1e-3, 100, _Draws([0.5], [1.5]), 20,
                      lambda batch: None)


def test_a_crossing_hidden_by_the_rounding_of_the_product_is_still_stepped(monkeypatch):
    # near |g> under emission alone the no-jump norm is flat to 1e-18, so the
    # prefix norms differ only by rounding; find a loop on which one step's
    # prefix norm lies below the interval-end norm, and put the threshold
    # between the two: only the widened cut sends the row to its prefix norms
    dt, n_steps = 1e-3, 20
    psi0 = np.array([1.0, 1e-9], dtype=complex) / math.hypot(1.0, 1e-9)
    for Delta in np.linspace(1.0, 30.0, 30):
        system = make_system(DriveParams(J=0.0, Delta=float(Delta)), Rates(gamma_e=4.4))
        props, _ops, _labels = tj._step_table(system, None, dt, range(n_steps))
        prefix = dynamics.prefix_products(props)
        amps = np.einsum("jab,nb->nja", prefix, psi0[None])
        norms = np.einsum("nja,nja->nj", amps, amps.conj()).real[0]
        if norms[-1] - norms[:-1].min() >= 4 * np.spacing(norms[-1]):
            break
    assert norms[-1] - norms[:-1].min() >= 4 * np.spacing(norms[-1])
    threshold = 0.5 * (norms[:-1].min() + norms[-1])
    first = int(np.argmax(norms < threshold))

    def jumps_of():
        draws = _Draws([threshold, 0.5, 0.0])
        return tj._run_batch(system, None, psi0, dt, n_steps, draws, n_steps, lambda batch: None)[1]

    assert jumps_of() == [[((first + 1) * dt, "e")]]
    monkeypatch.setattr(tj, "NORM_SLACK", 0.0)
    assert jumps_of() == [[]]
