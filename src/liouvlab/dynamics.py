"""Lindblad time evolution, constant and scheduled.

Matrix exponentials are the one Lindblad scheme, on real coordinates: a
Lindbladian preserves Hermiticity, so on the coordinates of a Hermitian basis
its generator is real (Alicki & Lendi, LNP 286, 1987), and a state becomes an
exactly Hermitian density matrix only where it is stored. Constant-parameter
runs apply the exact propagator between the requested times. Scheduled runs
take midpoint steps, the step rule they share with the Monte-Carlo
wavefunction kernel (trajectories): step k applies the generator at the
path's midpoint (k + 1/2) dt (`midpoint_path`), in blocks of at most
STEP_BLOCK steps made of whole stored intervals (`step_blocks`), each
exponentiated in one batch and applied by its `prefix_products`. Every step
is exactly trace preserving and completely positive, and the scheme is
second-order accurate in dt, robust where the Liouvillian is defective.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from . import numerics
from .errors import NotDensityMatrix, OutOfRange
from .liouvillian import superoperator_stack
from .model import ParameterSchedule, QuantumSystem, operators, path_points

MIN_SCHEDULED_STEPS = 1000
STEP_BLOCK = 4096  # most scheduled steps built and exponentiated at once
DENSITY_MATRIX_TOL = 1e-8  # allowed departure from Hermiticity, unit trace and positivity


def step_count(total: float, dt: float) -> int:
    """Number of steps of about dt that cover total.

    The nearest whole count is used unless it falls short of total, and then
    the count is rounded up; callers step at total / step_count(total, dt).
    """
    if total <= 0.0 or dt <= 0.0:
        raise OutOfRange(f"duration and dt must be positive, got {total}, {dt}")
    n_steps = int(round(total / dt))
    if n_steps < 1 or n_steps * dt < total - 1e-9 * total:
        n_steps = max(1, math.ceil(total / dt))
    return n_steps


def stored_steps(n_steps: int, every: int, dt: float) -> tuple[list[int], np.ndarray]:
    """The stored step indices, every `every`-th and the last, and their times."""
    idx = list(range(0, n_steps + 1, every))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return idx, np.array([i * dt for i in idx])


def scheduled_step_count(T: float, dt: float) -> int:
    """Steps of a scheduled loop of duration T: about dt each, and at least MIN_SCHEDULED_STEPS."""
    return max(MIN_SCHEDULED_STEPS, step_count(T, dt))


def midpoint_path(schedule: ParameterSchedule, gamma_e: float, steps: range, dt: float) -> np.ndarray:
    """The path's (J, Delta, gamma_e) at the midpoints (k + 1/2) dt of the steps k, as (3, m)."""
    return path_points(schedule, (np.arange(steps.start, steps.stop) + 0.5) * dt, gamma_e)


def step_blocks(n_steps: int, every: int):
    """Cut a run's steps into blocks, and each block into its stored intervals.

    The state after every `every`-th step and the last is stored. A block
    holds at most STEP_BLOCK steps and ends at a stored step, unless one
    interval is longer. Yields the range of each block's steps, and an
    iterator over its intervals' ranges, each with whether its end is stored.
    """
    size = max(1, STEP_BLOCK // every) * every  # whole intervals, or one longer than a block
    for start in range(0, n_steps, size):
        stop = min(start + size, n_steps)
        for a in range(start, stop, STEP_BLOCK):  # more than once only for an interval > STEP_BLOCK
            block = range(a, min(a + STEP_BLOCK, stop))
            yield block, ((range(b, min(b + every, block.stop)), min(b + every, stop) <= block.stop)
                          for b in range(a, block.stop, every))


def prefix_products(u: np.ndarray) -> np.ndarray:
    """q[k] = u[k] ... u[0] along axis -3 by Hillis-Steele doubling (CACM 29, 1170, 1986).

    q[k] depends only on u[0..k]: factors appended at the end leave it bit for bit.
    """
    q = np.array(u)
    shift = 1
    while shift < q.shape[-3]:
        q[..., shift:, :, :] = q[..., shift:, :, :] @ q[..., :-shift, :, :]
        shift *= 2
    return q


def _slots(d: int) -> np.ndarray:
    """Where a complex vec (d^2,) as floats holds the coordinates: Re rho_jj, then Re, Im above."""
    j, k = np.triu_indices(d, 1)
    return np.concatenate([2 * (d + 1) * np.arange(d), 2 * (d * j + k), 2 * (d * j + k) + 1])


def _hermitian(rho: np.ndarray) -> None:
    """Set the lower triangle of each (d, d) of rho to the conjugate of its upper triangle."""
    j, k = np.triu_indices(rho.shape[-1], 1)
    rho.real[..., k, j] = rho.real[..., j, k]
    rho.imag[..., k, j] = -rho.imag[..., j, k]


def _real_generators(L: np.ndarray) -> np.ndarray:
    """The real generator of L or a stack: column m holds the coordinates of L(E_m).

    E_m has unit coordinate m; L(E_m) is Hermitian, so its upper triangle drops only rounding.
    """
    n, d = L.shape[-1], math.isqrt(L.shape[-1])
    basis = np.zeros((n, n), dtype=complex)  # row m: vec(E_m)
    basis.view(float)[np.arange(n), _slots(d)] = 1.0
    _hermitian(basis.reshape(n, d, d))
    images = np.ascontiguousarray((L @ basis.T).swapaxes(-1, -2))  # rows vec(L(E_m))
    return np.ascontiguousarray(images.view(float)[..., _slots(d)].swapaxes(-1, -2))


class EvolutionResult(NamedTuple):
    """Density-matrix trajectory with per-time observables.

    For dim 2 the observables are the Bloch components x, y, z; for dim 3
    they are the populations and the g-f / e-f coherences (complex). A run
    of a generator stack has a leading stack axis on states and observables.
    """

    times: np.ndarray
    states: np.ndarray  # (n_times, d, d), or (n, n_times, d, d) for a stack
    observables: dict

    @property
    def final_state(self) -> np.ndarray:
        return self.states[..., -1, :, :]


def validate_density_matrix(rho, d: Optional[int] = None) -> np.ndarray:
    m = numerics.as_complex_matrix(rho)
    if d is not None and m.shape != (d, d):
        raise NotDensityMatrix(f"expected {d}x{d} density matrix, got shape {m.shape}")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > DENSITY_MATRIX_TOL:
        raise NotDensityMatrix(
            f"not Hermitian within {DENSITY_MATRIX_TOL:.1e} (deviation {dev:.3e})")
    tr = np.trace(m).real
    if abs(tr - 1.0) > DENSITY_MATRIX_TOL:
        raise NotDensityMatrix(f"trace {tr} differs from 1 beyond {DENSITY_MATRIX_TOL:.1e}")
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if w.min() < -DENSITY_MATRIX_TOL:
        raise NotDensityMatrix(f"negative eigenvalue {w.min():.3e} beyond tolerance")
    return m


def observables_from_states(states: np.ndarray, dim: int) -> dict:
    if dim == 2:
        x = 2.0 * states[..., 0, 1].real
        y = -2.0 * states[..., 0, 1].imag
        z = (states[..., 0, 0] - states[..., 1, 1]).real
        return {"x": x, "y": y, "z": z}
    return {
        "pop_g": states[..., 0, 0].real,
        "pop_e": states[..., 1, 1].real,
        "pop_f": states[..., 2, 2].real,
        "rho_gf": states[..., 0, 2].copy(),
        "rho_ef": states[..., 1, 2].copy(),
    }


def integrate_constant(L: np.ndarray, rho0, t_grid) -> EvolutionResult:
    """Evolve rho0 onto t_grid, exactly, under a (d^2, d^2) Liouvillian or an (n, d^2, d^2) stack.

    Each interval applies expm(G dt), G the real generator of L: one stacked
    expm per distinct interval length, and one batched product per sample,
    so every generator of a stack evolves bit for bit as it would alone. A
    stack gives states of shape (n, len(t_grid), d, d).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise OutOfRange("t_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise OutOfRange("t_grid must hold finite times >= 0")
    if np.any(np.diff(t) <= 0.0) and len(t) > 1:
        raise OutOfRange("t_grid must be strictly increasing")
    L = np.asarray(L)
    d = math.isqrt(L.shape[-1])
    rho = validate_density_matrix(rho0, d)

    G = _real_generators(L)
    steps = np.diff(t, prepend=0.0)  # only the first can be 0, and then it applies nothing
    lengths, length_of = np.unique(steps, return_inverse=True)
    props = [numerics.expm(G * dt) if dt > 0.0 else None for dt in lengths]
    states = np.zeros(L.shape[:-2] + (len(t), d, d), dtype=complex)
    floats, at = states.reshape(states.shape[:-2] + (-1,)).view(float), _slots(d)
    v = rho.reshape(-1).view(float)[at]
    for k, i in enumerate(length_of):  # each coordinate goes straight into its place in states
        if props[i] is not None:
            v = np.einsum("...ab,...b->...a", props[i], v)
        floats[..., k, at] = v
    _hermitian(states)
    return EvolutionResult(times=t, states=states, observables=observables_from_states(states, d))


def integrate_scheduled(
    system: QuantumSystem,
    schedule: ParameterSchedule,
    rho0,
    n_steps: int,
    store_every: int = 1,
) -> EvolutionResult:
    """Propagate through one loop of the schedule in n_steps midpoint steps.

    The step is schedule.T / n_steps; every store_every-th state and the
    last are stored. The states depend on where blocks are cut, not on store_every.
    """
    if store_every < 1:
        raise OutOfRange(f"store_every must be >= 1, got {store_every}")
    if n_steps < MIN_SCHEDULED_STEPS:
        raise OutOfRange(
            f"scheduled runs require n_steps >= {MIN_SCHEDULED_STEPS} "
            f"(dt <= T/{MIN_SCHEDULED_STEPS}), got {n_steps}"
        )
    rho = validate_density_matrix(rho0, system.dim)
    dt = schedule.T / n_steps
    d = system.dim

    # the generator is affine in (J, Delta, gamma_e): build it at 0 and at each unit point
    origin, *unit = _real_generators(superoperator_stack(operators(system, *np.eye(4)[1:])))
    slopes = np.array(unit) - origin
    times = stored_steps(n_steps, store_every, dt)[1]
    states = np.zeros((len(times), d, d), dtype=complex)
    floats, at = states.reshape(len(times), -1).view(float), _slots(d)
    v = floats[0, at] = rho.reshape(-1).view(float)[at]
    for block, intervals in step_blocks(n_steps, store_every):
        path = midpoint_path(schedule, system.rates.gamma_e, block, dt)
        q = prefix_products(numerics.expm((np.tensordot(path, slopes, axes=(0, 0)) + origin) * dt))
        ends = np.array([steps.stop for steps, stored in intervals if stored], dtype=int)
        # the state after step b - 1 is stored at ceil(b / store_every)
        floats[-(-ends[:, None] // store_every), at] = q[ends - block.start - 1] @ v
        v = q[-1] @ v
    _hermitian(states)
    return EvolutionResult(times=times, states=states, observables=observables_from_states(states, d))
