"""Monte-Carlo wavefunction unraveling of the Lindblad dynamics.

Each trajectory alternates deterministic non-Hermitian evolution under
H_eff = H - (i/2) sum_k L_k^+ L_k with stochastic quantum jumps, sampled by
waiting time (Dalibard, Castin & Molmer, PRL 68, 580, 1992). A trajectory
draws a threshold r uniform in [0, 1) and carries its state unnormalised
through the no-jump propagators exp(-i H_eff dt). It jumps in the step where
its squared norm first falls below r: a second uniform picks channel k with
weight ||L_k psi||^2 of the post-step state, the state becomes the
normalised jump image, and a new threshold is drawn. The probability of no
jump up to the end of any step is exactly that step's squared norm, so the
sampling has no first-order bias in dt; only the jump instant is rounded to
the end of its step.

A batch of trajectories advances from stored step to stored step, with one
propagation per interval by the product of its no-jump propagators. The
no-jump squared norm never rises, so a trajectory whose norm is still at or
above its threshold at the end of an interval did not jump inside it. Only
the others are stepped again, one step at a time from the interval's start,
and each jump instant is still the end of the step in which the norm fell
below the threshold. Each row sees the same arithmetic whatever the batch
holds, so a batch of one reproduces any member bit for bit.

Seed splitting: trajectory i of an ensemble draws its uniforms from
numpy.random.SeedSequence(master_seed, spawn_key=(i,)). This counter-based
construction is stable across runs, processes, and thread counts.
"""

import functools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import numerics
from .dynamics import midpoint_path, step_blocks, step_count, stored_steps
from .errors import OutOfRange, ZeroNorm
from .model import ParameterSchedule, QuantumSystem, operators

SeedLike = Union[int, np.random.SeedSequence]

# Relative widening, per step, of the end-of-interval norm test: above the
# rounding of one 2x2 or 3x3 product and of one step's squared norm.
NORM_SLACK = 1e-14


@dataclass
class TrajectoryRecord:
    seed: SeedLike
    times: np.ndarray
    states: np.ndarray  # (n_stored, d) unit-norm pure states
    jumps: list[tuple[float, str]] = field(default_factory=list)


@dataclass
class EnsembleResult:
    n_trajectories: int
    times: np.ndarray
    mean_density: np.ndarray  # (n_stored, d, d)
    jump_count_histogram: dict[str, int] = field(default_factory=dict)
    jumps_per_trajectory: list[list[tuple[float, str]]] = field(default_factory=list)


def split_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Child seed of trajectory `index`: SeedSequence(master, spawn_key=(index,))."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def _as_generator(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def _step_table(system: QuantumSystem, schedule: Optional[ParameterSchedule], dt: float, steps: range):
    """No-jump propagators and jump operators of the m given steps, one row per step.

    Returns (props, ops, labels): props (m, d, d), the operators of every
    channel (m, c, d, d), and the c channel labels. A scheduled run builds
    each step's H_eff = H - (i/2) sum_k L_k^+ L_k from its midpoint
    parameters and exponentiates them in one batch; a constant system
    builds one row, and every step reads a view of it.
    """
    if schedule is None:
        ops = operators(system, [system.drive.J], [system.drive.Delta], system.rates.gamma_e)
    else:
        ops = operators(system, *midpoint_path(schedule, system.rates.gamma_e, steps, dt))
    h = ops.hamiltonians
    acc = sum((L.conj().swapaxes(-1, -2) @ L for L, _label in ops.jumps), np.zeros_like(h))
    props = numerics.expm(-1j * (h - 0.5j * acc) * dt)

    ops_all = np.zeros((len(h), len(ops.jumps)) + h.shape[1:], dtype=complex)
    for c, (L, _label) in enumerate(ops.jumps):
        ops_all[:, c] = L
    props, ops_all = (np.broadcast_to(a, (len(steps),) + a.shape[1:]) for a in (props, ops_all))
    return props, ops_all, [label for _L, label in ops.jumps]


def _resolve_steps(
    schedule: Optional[ParameterSchedule], t_final: Optional[float], dt: float
) -> tuple[int, float]:
    """(n_steps, step): the run covers its duration exactly in steps of about dt."""
    if schedule is None and t_final is None:
        raise OutOfRange("constant-parameter trajectories need t_final")
    total = schedule.T if schedule is not None else float(t_final)
    n_steps = step_count(total, dt)
    return n_steps, total / n_steps


def _jump_steps(props, ops, labels, psi, rows, steps, dt, generators, threshold, jumps, histogram):
    """Step psi's rows through `steps`, whose table rows are props and ops, sampling jumps.

    Returns the rows' states after the last step. A row jumps in the step
    where its squared norm first falls below its threshold, at the step's
    end; trajectory r draws its channel uniform and new threshold from
    generators[r], updates threshold[r] and appends to jumps[r].
    """
    psi = psi[rows]
    for k, prop, op in zip(steps, props, ops):
        psi = np.einsum("ab,nb->na", prop, psi)
        hit = np.flatnonzero(np.einsum("na,na->n", psi, psi.conj()).real < threshold[rows])
        if not hit.size:
            continue
        jumped = rows[hit]
        amp = np.einsum("oab,nb->noa", op, psi[hit])
        cum = np.cumsum(np.einsum("noa,noa->no", amp, amp.conj()).real, axis=1)
        total = cum[:, -1]
        if not total.all():
            bad = int(jumped[np.argmin(total)])
            raise ZeroNorm(f"jump annihilated the state in trajectory {bad}")
        # a uniform u < 1 gives u * total < total, so chans < len(labels)
        u = np.array([generators[r].random() for r in jumped]) * total
        chans = (u[:, None] >= cum).sum(axis=1)
        phi = amp[np.arange(hit.size), chans]
        psi[hit] = phi / np.linalg.norm(phi, axis=1)[:, None]
        t_jump = (k + 1) * dt
        for r, c in zip(jumped, chans):
            threshold[r] = generators[r].random()
            jumps[int(r)].append((t_jump, labels[c]))
            histogram[labels[c]] += 1
    return psi


def _run_batch(
    system: QuantumSystem,
    schedule: Optional[ParameterSchedule],
    psi0: np.ndarray,
    dt: float,
    n_steps: int,
    generators: list[np.random.Generator],
    store_every: int,
    store,
):
    """Advance a batch of trajectories from stored step to stored step.

    Each block of dynamics.step_blocks builds its step table when the batch
    reaches it. Each interval [a, b) is one propagation of the batch by its
    no-jump product P_{b-1} ... P_a. The no-jump squared norm never rises,
    so a row still at or above its threshold at b did not jump inside the
    interval and keeps that state. The other rows restart from their state
    at a and are stepped one step at a time by `_jump_steps`, which samples
    their jumps (a row may jump more than once) exactly as a per-step loop
    would, each at the end of the step in which its norm fell below its
    threshold. The cut is widened by NORM_SLACK per step, so that rounding
    in the product cannot hide a crossing the per-step loop would see.

    store(psi) is called with the batch's (n, d) normalised states at t = 0
    and at every stored step. Returns (times, jumps per trajectory, jump
    histogram), the histogram keyed in channel order. Trajectory i draws its
    thresholds and channel uniforms from generators[i].
    """
    psi = np.tile(np.asarray(psi0, dtype=complex), (len(generators), 1))
    store(psi)
    threshold = np.array([g.random() for g in generators])
    jumps: list[list[tuple[float, str]]] = [[] for _ in generators]
    histogram: dict[str, int] = {}

    for block, intervals in step_blocks(n_steps, store_every):
        props, ops, labels = _step_table(system, schedule, dt, block)
        histogram = histogram or dict.fromkeys(labels, 0)  # every block has the same channels
        for steps, stored in intervals:
            own = slice(steps.start - block.start, steps.stop - block.start)
            product = functools.reduce(lambda acc, prop: prop @ acc, props[own])
            end = np.einsum("ab,nb->na", product, psi)
            cut = threshold * (1.0 + NORM_SLACK * len(steps))
            rows = np.flatnonzero(np.einsum("na,na->n", end, end.conj()).real < cut)
            if rows.size:
                end[rows] = _jump_steps(props[own], ops[own], labels, psi, rows, steps,
                                        dt, generators, threshold, jumps, histogram)
            psi = end
            if stored:
                store(psi / np.linalg.norm(psi, axis=1)[:, None])

    return stored_steps(n_steps, store_every, dt)[1], jumps, histogram


def _unit_state(psi0) -> np.ndarray:
    psi = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise OutOfRange(f"psi0 must be unit norm, got norm {norm}")
    return psi / norm


def run_trajectory(
    system: QuantumSystem,
    psi0,
    dt: float,
    seed: SeedLike,
    schedule: Optional[ParameterSchedule] = None,
    t_final: Optional[float] = None,
    store_every: int = 20,
) -> TrajectoryRecord:
    """One stochastic pure-state trajectory; deterministic given (seed, dt)."""
    psi = _unit_state(psi0)
    n_steps, step = _resolve_steps(schedule, t_final, dt)
    states = []
    times, jumps, _hist = _run_batch(
        system, schedule, psi, step, n_steps, [_as_generator(seed)], store_every,
        lambda batch: states.append(batch[0].copy()))
    return TrajectoryRecord(seed=seed, times=times, states=np.array(states), jumps=jumps[0])


def run_ensemble(
    system: QuantumSystem,
    schedule: Optional[ParameterSchedule],
    psi0,
    dt: float,
    n: int,
    master_seed: int,
    store_every: int = 20,
    t_final: Optional[float] = None,
) -> EnsembleResult:
    """Average of n trajectories; trajectory i uses split_seed(master_seed, i)."""
    if n < 1:
        raise OutOfRange(f"ensemble size must be >= 1, got {n}")
    psi = _unit_state(psi0)
    n_steps, step = _resolve_steps(schedule, t_final, dt)
    generators = [_as_generator(split_seed(master_seed, i)) for i in range(n)]
    # the mean density is summed as the batch advances, so no stored state
    # of any trajectory is kept
    sums = []
    times, jumps, histogram = _run_batch(
        system, schedule, psi, step, n_steps, generators, store_every,
        lambda batch: sums.append(np.einsum("ni,nj->ij", batch, batch.conj())))
    mean_density = np.array(sums) / n
    return EnsembleResult(
        n_trajectories=n,
        times=times,
        mean_density=mean_density,
        jump_count_histogram=histogram,
        jumps_per_trajectory=jumps,
    )
