import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from liouvlab.analysis import scan_transition
from liouvlab.liouvillian import superoperator_stack
from liouvlab.model import DriveParams, make_system, operators, path_points

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def unfreeze_the_heap():
    """Undo `cli.main`'s gc.freeze after each test, so this process's own cycles stay collectable."""
    yield
    gc.unfreeze()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix via a Ginibre draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def point_operators(system) -> tuple[np.ndarray, list[tuple[np.ndarray, str]]]:
    """(H, [(L, label), ...]) at the system's own drive and rates: a one-point operators call."""
    ops = operators(system, [system.drive.J], [system.drive.Delta], system.rates.gamma_e)
    return ops.hamiltonians[0], [(L[0], label) for L, label in ops.jumps]


def transition_scan(system, J_values, window: float = 10.0, n_samples: int = 500):
    """scan_transition on the grid's own generator stack, as fig1 and fig4 build it.

    The window and sample count default to fig1's and fig4's `scan.window`
    and `scan.n_samples`.
    """
    J = np.asarray(J_values, dtype=float)
    generators = superoperator_stack(operators(system, J, system.drive.Delta, system.rates.gamma_e))
    return scan_transition(system, J, generators, window, n_samples)


def system_on_path(system, schedule, t: float):
    """The system alone at time t of the schedule.

    A one-point path_points call, then its own QuantumSystem, so a reference
    built from it does not share the stacked route under test.
    """
    J, Delta, gamma_e = path_points(schedule, [t], system.rates.gamma_e)[:, 0]
    return make_system(DriveParams(J=J, Delta=Delta), replace(system.rates, gamma_e=gamma_e),
                       system.dim, system.f_decay_to)


def superoperator_reference(system) -> np.ndarray:
    """The Liouvillian formula written out with np.kron for one system.

    Same products and order of additions as liouvillian.build_superoperator,
    so a correct stacked build matches it bit for bit.
    """
    d = system.dim
    ident = np.eye(d, dtype=complex)
    h, jumps = point_operators(system)
    m = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for L, _label in jumps:
        ldl = L.conj().T @ L
        m = m + np.kron(L, L.conj())
        m = m - 0.5 * np.kron(ldl, ident)
        m = m - 0.5 * np.kron(ident, ldl.T)
    return m


def sigma_x_mirror_deviation(rho_cw, rho_ccw) -> float:
    """Largest entry of |rho_cw - sigma_x rho_ccw sigma_x|, over any leading axes.

    With gamma_e = 0 the cw loop is the sigma_x image of the ccw loop: the
    Hamiltonians satisfy sigma_x H_ccw sigma_x = H_cw, and the |+-x> starts
    and the dephasing dissipator are invariant under sigma_x.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return float(np.max(np.abs(rho_cw - sx @ rho_ccw @ sx)))
