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


# --- hamiltonian -------------------------------------------------------------


def test_hamiltonian_zero_drive():
    h = model.hamiltonian(model.DriveParams(J=0.0, Delta=0.0))
    assert np.array_equal(h, np.zeros((2, 2)))


def test_hamiltonian_direct_substitution():
    h = model.hamiltonian(model.DriveParams(J=1.0, Delta=2.0))
    assert np.array_equal(h, np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))


def test_hamiltonian_qutrit_block_embedding():
    h = model.hamiltonian(model.DriveParams(J=1.0, Delta=0.0), dim=3)
    expect = np.zeros((3, 3), dtype=complex)
    expect[0, 1] = expect[1, 0] = 1.0
    assert np.array_equal(h, expect)


@given(st.floats(0.0, 20.0, allow_nan=False), finite, st.sampled_from([2, 3]))
def test_hamiltonian_hermitian(J, Delta, dim):
    h = model.hamiltonian(model.DriveParams(J=J, Delta=Delta), dim)
    assert np.array_equal(h, h.conj().T)


def test_hamiltonian_bad_dim():
    with pytest.raises(OutOfRange):
        model.hamiltonian(model.DriveParams(J=1.0), dim=4)


# --- jump operators ----------------------------------------------------------


def test_jump_ops_emission_only():
    ops = model.jump_operators(model.Rates(gamma_e=4.0))
    assert len(ops) == 1
    L, label = ops[0]
    assert label == "e"
    assert np.array_equal(L, np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex))


def test_jump_ops_dephasing_only():
    ops = model.jump_operators(model.Rates(gamma_e=0.0, gamma_phi=2.0))
    assert len(ops) == 1
    L, label = ops[0]
    assert label == "phi"
    assert np.array_equal(L, np.diag([1.0, -1.0]).astype(complex))


def test_jump_ops_qutrit_full_set():
    rates = model.Rates(gamma_e=4.2, gamma_phi=0.2, gamma_f=0.3, gamma_f_extra=0.75)
    ops = dict((label, L) for L, label in model.jump_operators(rates, dim=3))
    assert set(ops) == {"e", "phi", "f", "f_extra"}
    assert ops["e"][0, 1] == pytest.approx(math.sqrt(4.2))
    assert np.allclose(np.diag(ops["phi"]), math.sqrt(0.1) * np.array([1, -1, 0]))
    assert ops["f"][1, 2] == pytest.approx(math.sqrt(0.3))  # f -> e cascade
    assert ops["f_extra"][2, 2] == pytest.approx(math.sqrt(0.75))


def test_jump_ops_f_decay_target_configurable():
    rates = model.Rates(gamma_e=0.0, gamma_f=1.0)
    (L, _), = model.jump_operators(rates, dim=3, f_decay_to="g")
    assert L[0, 2] == pytest.approx(1.0)
    assert L[1, 2] == 0.0
    with pytest.raises(OutOfRange):
        model.jump_operators(rates, dim=3, f_decay_to="x")


def test_qubit_rejects_f_level_rates():
    with pytest.raises(OutOfRange, match="need dim 3"):
        model.make_system(model.DriveParams(J=0.0), model.Rates(gamma_e=1.0, gamma_f=0.5), dim=2)


# --- schedules ----------------------------------------------------------------


def default_schedule(direction="ccw", **kw):
    return model.ParameterSchedule(T=2.0, direction=direction, **kw)


def test_schedule_endpoints():
    s = default_schedule()
    rates = model.Rates(gamma_e=4.6, gamma_phi=0.2)
    drive, _ = model.schedule_eval(s, 0.0, rates)
    assert drive.J == pytest.approx(16.0)
    assert drive.Delta == pytest.approx(0.0, abs=1e-12)


def test_schedule_quarter_loop_directions():
    rates = model.Rates(gamma_e=4.6)
    ccw, _ = model.schedule_eval(default_schedule("ccw"), 0.5, rates)
    cw, _ = model.schedule_eval(default_schedule("cw"), 0.5, rates)
    assert ccw.J == pytest.approx(8.0)
    assert ccw.Delta == pytest.approx(10.0 * math.pi)
    assert cw.J == pytest.approx(8.0)
    assert cw.Delta == pytest.approx(-10.0 * math.pi)


def test_schedule_closed_loop():
    s = default_schedule()
    rates = model.Rates(gamma_e=4.6)
    d0, r0 = model.schedule_eval(s, 0.0, rates)
    dT, rT = model.schedule_eval(s, s.T, rates)
    assert d0.J == pytest.approx(dT.J, abs=1e-9)
    assert d0.Delta == pytest.approx(dT.Delta, abs=1e-9)
    assert r0.gamma_e == pytest.approx(rT.gamma_e)


@given(st.floats(0.0, 2.0, allow_nan=False))
def test_schedule_flip_negates_detuning_only(t):
    rates = model.Rates(gamma_e=4.6, gamma_phi=0.2)
    s = default_schedule()
    d_ccw, r_ccw = model.schedule_eval(s, t, rates)
    d_cw, r_cw = model.schedule_eval(replace(s, direction="cw"), t, rates)
    assert d_cw.J == d_ccw.J
    assert d_cw.Delta == pytest.approx(-d_ccw.Delta, abs=1e-12)
    assert r_cw.gamma_e == r_ccw.gamma_e


def test_schedule_rejects_time_outside_domain():
    s = default_schedule()
    with pytest.raises(OutOfRange):
        model.schedule_eval(s, -0.1, model.Rates(gamma_e=1.0))
    with pytest.raises(OutOfRange):
        model.schedule_eval(s, 2.1, model.Rates(gamma_e=1.0))


def test_schedule_cosine_emission_ramp():
    s = default_schedule(gamma_e_schedule="cosine")
    rates = model.Rates(gamma_e=4.6)
    _, r0 = model.schedule_eval(s, 0.0, rates)
    _, rmid = model.schedule_eval(s, 1.0, rates)
    assert r0.gamma_e == pytest.approx(0.0, abs=1e-12)
    assert rmid.gamma_e == pytest.approx(4.6)


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
