import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from liouvlab import model
from liouvlab.errors import OutOfRange

finite = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
nonneg = st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)


# --- parameter types --------------------------------------------------------


def test_rates_reject_negative():
    with pytest.raises(OutOfRange):
        model.Rates(gamma_e=-0.1)
    with pytest.raises(OutOfRange):
        model.Rates(gamma_e=1.0, gamma_phi=float("nan"))


def test_drive_rejects_negative_coupling():
    with pytest.raises(OutOfRange):
        model.DriveParams(J=-1.0)
    with pytest.raises(OutOfRange):
        model.DriveParams(J=float("inf"))
    p = model.DriveParams(J=0.5, Delta=-3.0)
    assert p.Delta == -3.0  # detuning may be negative


# --- hamiltonians ------------------------------------------------------------


def test_hamiltonian_zero_drive():
    h = model.hamiltonians([0.0], [0.0])
    assert np.array_equal(h, np.zeros((1, 2, 2)))


def test_hamiltonian_direct_substitution():
    h = model.hamiltonians([1.0], [2.0])
    assert np.array_equal(h[0], np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))


def test_hamiltonian_qutrit_block_embedding():
    h = model.hamiltonians([1.0], 0.0, dim=3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 1] = expect[1, 0] = 1.0
    assert np.array_equal(h[0], expect)


@given(st.floats(0.0, 20.0, allow_nan=False), finite, st.sampled_from([2, 3]))
def test_hamiltonian_hermitian(J, Delta, dim):
    h = model.hamiltonians([J], [Delta], dim)[0]
    assert np.array_equal(h, h.conj().T)


def test_hamiltonian_bad_dim():
    with pytest.raises(OutOfRange):
        model.hamiltonians([1.0], [0.0], dim=4)


# --- jump operators ----------------------------------------------------------


def channels(rates, dim=2, f_decay_to="e"):
    """{label: L} of jump_operator_stack at the single rate point `rates`."""
    stack = model.jump_operator_stack(
        rates.gamma_e, rates.gamma_phi, rates.gamma_f, rates.gamma_f_extra, dim, f_decay_to)
    assert all(L.shape == (1, dim, dim) for L, _ in stack)
    return {label: L[0] for L, label in stack}


def test_jump_ops_emission_only():
    ops = channels(model.Rates(gamma_e=4.0))
    assert list(ops) == ["e"]
    assert np.array_equal(ops["e"], np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex))


def test_jump_ops_dephasing_only():
    ops = channels(model.Rates(gamma_e=0.0, gamma_phi=2.0))
    assert list(ops) == ["phi"]
    assert np.array_equal(ops["phi"], np.diag([1.0, -1.0]).astype(complex))


def test_jump_ops_qutrit_full_set():
    rates = model.Rates(gamma_e=4.2, gamma_phi=0.2, gamma_f=0.3, gamma_f_extra=0.75)
    ops = channels(rates, dim=3)
    assert list(ops) == ["e", "phi", "f", "f_extra"]
    assert ops["e"][0, 1] == pytest.approx(math.sqrt(4.2))
    assert np.allclose(np.diag(ops["phi"]), math.sqrt(0.1) * np.array([1, -1, 0]))
    assert ops["f"][1, 2] == pytest.approx(math.sqrt(0.3))  # f -> e cascade
    assert ops["f_extra"][2, 2] == pytest.approx(math.sqrt(0.75))


def test_jump_ops_f_decay_target_configurable():
    rates = model.Rates(gamma_e=0.0, gamma_f=1.0)
    L = channels(rates, dim=3, f_decay_to="g")["f"]
    assert L[0, 2] == pytest.approx(1.0)
    assert L[1, 2] == 0.0
    with pytest.raises(OutOfRange):
        channels(rates, dim=3, f_decay_to="x")


def test_qubit_rejects_f_level_rates():
    with pytest.raises(OutOfRange, match="need dim 3"):
        model.make_system(model.DriveParams(J=0.0), model.Rates(gamma_e=1.0, gamma_f=0.5), dim=2)


# --- schedules ----------------------------------------------------------------


def default_schedule(direction="ccw", **kw):
    return model.ParameterSchedule(T=2.0, direction=direction, **kw)


def path_point(s, t, gamma_e):
    """(J, Delta, gamma_e) of the path at time t: a one-point path_points call."""
    points = model.path_points(s, [t], gamma_e)
    assert points.shape == (3, 1)
    return tuple(float(x) for x in points[:, 0])


def test_schedule_endpoints():
    s = default_schedule()
    J, Delta, _ = path_point(s, 0.0, 4.6)
    assert J == pytest.approx(16.0)
    assert Delta == pytest.approx(0.0, abs=1e-12)


def test_schedule_quarter_loop_directions():
    ccw_J, ccw_Delta, _ = path_point(default_schedule("ccw"), 0.5, 4.6)
    cw_J, cw_Delta, _ = path_point(default_schedule("cw"), 0.5, 4.6)
    assert ccw_J == pytest.approx(8.0)
    assert ccw_Delta == pytest.approx(10.0 * math.pi)
    assert cw_J == pytest.approx(8.0)
    assert cw_Delta == pytest.approx(-10.0 * math.pi)


def test_schedule_closed_loop():
    s = default_schedule()
    J0, D0, ge0 = path_point(s, 0.0, 4.6)
    JT, DT, geT = path_point(s, s.T, 4.6)
    assert J0 == pytest.approx(JT, abs=1e-9)
    assert D0 == pytest.approx(DT, abs=1e-9)
    assert ge0 == pytest.approx(geT)


@given(st.floats(0.0, 2.0, allow_nan=False))
def test_schedule_flip_negates_detuning_only(t):
    s = default_schedule()
    J_ccw, D_ccw, ge_ccw = path_point(s, t, 4.6)
    J_cw, D_cw, ge_cw = path_point(replace(s, direction="cw"), t, 4.6)
    assert J_cw == J_ccw
    assert D_cw == pytest.approx(-D_ccw, abs=1e-12)
    assert ge_cw == ge_ccw


def test_schedule_rejects_time_outside_domain():
    s = default_schedule()
    with pytest.raises(OutOfRange):
        model.path_points(s, [-0.1], 1.0)
    with pytest.raises(OutOfRange):
        model.path_points(s, [2.1], 1.0)
    with pytest.raises(OutOfRange):
        model.path_points(s, [float("nan")], 1.0)
    # one bad time among valid ones is caught too
    with pytest.raises(OutOfRange, match="t=2.5"):
        model.path_points(s, [0.0, 0.5, 2.5, 1.0], 1.0)
    with pytest.raises(OutOfRange, match="nan"):
        model.path_points(s, [0.5, float("nan"), 2.0], 1.0)


@pytest.mark.parametrize("gamma_e_schedule", ["constant", "cosine"])
def test_path_points_of_an_array_equal_one_point_calls_bitwise(gamma_e_schedule):
    s = default_schedule("cw", gamma_e_schedule=gamma_e_schedule)
    times = (np.arange(1000) + 0.5) * (s.T / 1000)
    whole = model.path_points(s, times, 4.6)
    assert whole.shape == (3, 1000)
    alone = np.column_stack([model.path_points(s, [t], 4.6) for t in times])
    assert whole.tobytes() == alone.tobytes()
    split = np.column_stack([model.path_points(s, part, 4.6) for part in np.split(times, [7, 300])])
    assert whole.tobytes() == split.tobytes()


def test_schedule_cosine_emission_ramp():
    s = default_schedule(gamma_e_schedule="cosine")
    _, _, ge0 = path_point(s, 0.0, 4.6)
    _, _, ge_mid = path_point(s, 1.0, 4.6)
    assert ge0 == pytest.approx(0.0, abs=1e-12)
    assert ge_mid == pytest.approx(4.6)


def test_schedule_validation():
    with pytest.raises(OutOfRange):
        model.ParameterSchedule(T=-1.0)
    with pytest.raises(OutOfRange):
        model.ParameterSchedule(T=1.0, direction="up")
    with pytest.raises(OutOfRange):
        model.ParameterSchedule(T=1.0, gamma_e_schedule="linear")
    for kw in ({"J_max": -1.0}, {"J_max": math.inf}, {"J_max": math.nan},
               {"Delta_max": math.inf}, {"Delta_max": math.nan}):
        with pytest.raises(OutOfRange):
            model.ParameterSchedule(T=1.0, **kw)


# --- states -------------------------------------------------------------------


def test_reference_states():
    assert np.allclose(model.plus_x(), [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert np.allclose(model.minus_x(), [1 / math.sqrt(2), -1 / math.sqrt(2)])
    assert np.array_equal(model.basis_ket(3, 2), [0.0, 0.0, 1.0])
    assert np.array_equal(model.sigma_z(3), np.diag([1.0, -1.0, 0.0]))
    assert np.vdot(model.plus_x(), model.minus_x()) == pytest.approx(0.0)
