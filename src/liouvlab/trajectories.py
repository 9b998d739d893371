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

A batch advances from stored step to stored step. Scans of a block's
intervals (dynamics.prefix_products) give each step's no-jump product from
and to its interval's ends. The no-jump squared norm never rises, so a row
at or above its threshold at an interval's end did not jump inside it; the
others read their norm after every step, jump at the first step below it and
reach the end through the suffix, and only one again below its new threshold
is stepped on step by step. Each row sees the same arithmetic whatever the
batch holds, so a batch of one reproduces any member bit for bit.

Seeding: trajectory i of an ensemble draws its uniforms from the stream of
numpy.random.Generator(PCG64(SeedSequence(master_seed,
spawn_key=(i,)))).random(). `_Streams` reproduces that chain (SeedSequence's
pool mixing and generate_state, PCG64's seeding, its 128-bit LCG step and
XSL-RR output, and random()) bit for bit in vectorised uint32/uint64
arithmetic, one row per trajectory, so no liouvlab module imports
numpy.random; numpy is only the oracle of the tests. This counter-based
construction is stable across runs, processes, and thread counts.

run_ensemble is the one entry point. A single trajectory to show is its
trajectory 0, whose states the result keeps beside the mean density.
"""

from typing import NamedTuple, Optional

import numpy as np

from . import numerics
from .dynamics import (
    STEP_BLOCK, midpoint_path, prefix_products, scheduled_step_count, step_blocks, step_count,
    stored_steps)
from .errors import OutOfRange, ZeroNorm
from .model import ParameterSchedule, QuantumSystem, operators

# Relative widening, per step, of the end-of-interval norm test: above the
# rounding of one 2x2 or 3x3 product and of one step's squared norm.
NORM_SLACK = 1e-14


class EnsembleResult(NamedTuple):
    n_trajectories: int
    times: np.ndarray
    mean_density: np.ndarray  # (n_stored, d, d)
    trajectory0_states: np.ndarray  # (n_stored, d) unit-norm pure states of trajectory 0
    jump_count_histogram: dict[str, int]
    jumps_per_trajectory: list[list[tuple[float, str]]]


# numpy's SeedSequence hash constants (pool of 4 uint32 words) and PCG64's multiplier
MASK32 = 0xFFFFFFFF
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R, XSHIFT, POOL_SIZE = 0xCA01F9DD, 0x4973F715, 16, 4
PCG_MULT_HI, PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _uint32_words(value: int) -> list[int]:
    """numpy's entropy words of a non-negative int (little-endian 32-bit), zero-padded to 4.

    SeedSequence pads the run entropy with zeros to the pool size when there
    is a spawn key, as every trajectory's stream has.
    """
    if value < 0:
        raise OutOfRange(f"a seed must be a non-negative integer, got {value}")
    words = [value & MASK32]
    while value := value >> 32:
        words.append(value & MASK32)
    return words + [0] * (POOL_SIZE - len(words))


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(...).generate_state(4, uint64) of each row of an (n, L >= 4) uint32 entropy array.

    Returns (n, 4) uint64: initstate high and low, sequence high and low.
    """
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const
        return value ^ value >> XSHIFT

    def mix(x, y):
        out = x * MIX_MULT_L - y * MIX_MULT_R
        return out ^ out >> XSHIFT

    pool = [hashmix(word) for word in entropy.T[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy.T[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const, state = INIT_B, []
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const
        state.append((value ^ value >> XSHIFT).astype(np.uint64))
    return np.stack([state[2 * k] | state[2 * k + 1] << 32 for k in range(4)], axis=1)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's 128-bit LCG step, state * multiplier + increment, on uint64 halves."""
    lo0, lo1 = lo & MASK32, lo >> 32
    mult0, mult1 = PCG_MULT_LO & MASK32, PCG_MULT_LO >> 32
    p01, p10 = lo0 * mult1, lo1 * mult0
    mid = (lo0 * mult0 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    carry = lo1 * mult1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # high word of lo * MULT_LO
    new_lo = lo * PCG_MULT_LO + inc_lo
    return hi * PCG_MULT_LO + lo * PCG_MULT_HI + carry + inc_hi + (new_lo < inc_lo), new_lo


class _Streams:
    """Row i draws what Generator(PCG64(seed i)).random() would, from (n, 4) generate_state words.

    Each row holds its 128-bit LCG state and increment as uint64 halves, seeded
    as PCG64 seeds: increment = sequence << 1 | 1, step, add initstate, step.
    """

    def __init__(self, words: np.ndarray):
        init_hi, init_lo, seq_hi, seq_lo = words.T
        self.inc_hi, self.inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        hi, lo = _lcg_step(0, np.zeros_like(seq_lo), self.inc_hi, self.inc_lo)
        lo = lo + init_lo
        self.hi, self.lo = _lcg_step(hi + init_hi + (lo < init_lo), lo, self.inc_hi, self.inc_lo)

    def __len__(self) -> int:
        return len(self.lo)

    def random(self, rows=slice(None)) -> np.ndarray:
        """The next uniform in [0, 1) of each of the given rows (distinct), as numpy's random()."""
        hi, lo = _lcg_step(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> 58  # XSL-RR: rotate the folded halves right by the top 6 bits
        return ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53


def _spawned_streams(master_seed: int, n: int) -> _Streams:
    """Streams of SeedSequence(master_seed, spawn_key=(i,)), i < n: entropy (master words, i)."""
    run = _uint32_words(master_seed)
    entropy = np.empty((n, len(run) + 1), dtype=np.uint32)
    entropy[:, :-1] = run
    entropy[:, -1] = np.arange(n)
    return _Streams(_seed_words(entropy))


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
    schedule: Optional[ParameterSchedule], t_final: Optional[float], dt: float, store_every: int
) -> tuple[int, float]:
    """(n_steps, step): the run covers its duration exactly in steps of about dt.

    A scheduled run lasts schedule.T in dynamics.scheduled_step_count steps,
    as a scheduled Lindblad run does; a constant-parameter run lasts t_final.
    """
    if store_every < 1:
        raise OutOfRange(f"store_every must be >= 1, got {store_every}")
    if schedule is not None:
        if t_final is not None:
            raise OutOfRange("a scheduled run lasts schedule.T; t_final must be None")
        n_steps = scheduled_step_count(schedule.T, dt)
        return n_steps, schedule.T / n_steps
    if t_final is None:
        raise OutOfRange("constant-parameter trajectories need t_final")
    n_steps = step_count(t_final, dt)
    return n_steps, t_final / n_steps


def _jump(ops, labels, psi, rows, t_jump, streams, threshold, jumps, histogram):
    """Jump rows at t_jump from their post-step states psi (n, d); returns the normalised images.

    Channel k of ops[r] (c, d, d) has weight ||L_k psi||^2; trajectory r draws it and then its
    new threshold from row r of streams, and the jump is recorded.
    """
    amp = np.einsum("noab,nb->noa", ops, psi)
    cum = np.cumsum(np.einsum("noa,noa->no", amp, amp.conj()).real, axis=1)
    total = cum[:, -1]
    if not total.all():
        raise ZeroNorm(f"jump annihilated the state in trajectory {int(rows[np.argmin(total)])}")
    # a uniform u < 1 gives u * total < total, so chans < len(labels)
    u = streams.random(rows) * total
    chans = (u[:, None] >= cum).sum(axis=1)
    threshold[rows] = streams.random(rows)
    for r, c, t in zip(rows, chans, t_jump):
        jumps[int(r)].append((float(t), labels[c]))
        histogram[labels[c]] += 1
    phi = amp[np.arange(len(rows)), chans]
    return phi / np.linalg.norm(phi, axis=1)[:, None]


def _jump_steps(props, ops, labels, psi, rows, steps, dt, streams, threshold, jumps, histogram):
    """Step the rows' states psi through `steps` (table rows props and ops), jumping by `_jump`."""
    for k, prop, op in zip(steps, props, ops):
        psi = np.einsum("ab,nb->na", prop, psi)
        hit = np.flatnonzero(np.einsum("na,na->n", psi, psi.conj()).real < threshold[rows])
        if hit.size:
            psi[hit] = _jump(np.broadcast_to(op, (hit.size,) + op.shape), labels, psi[hit],
                             rows[hit], np.full(hit.size, (k + 1) * dt),
                             streams, threshold, jumps, histogram)
    return psi


def _run_batch(
    system: QuantumSystem,
    schedule: Optional[ParameterSchedule],
    psi0: np.ndarray,
    dt: float,
    n_steps: int,
    streams: _Streams,
    store_every: int,
    store,
):
    """Advance a batch of trajectories from stored step to stored step, as the module says.

    Each block of dynamics.step_blocks builds its step table when the batch
    reaches it. The cut on the norm at an interval's end is widened by
    NORM_SLACK per step, so that rounding in the products cannot hide a
    crossing; the rows below it read their norms in groups of at most
    STEP_BLOCK, and one below its new threshold after a jump is stepped on
    by `_jump_steps`, so it may jump more than once.

    store(psi) is called with the batch's (n, d) normalised states at t = 0
    and at every stored step. Returns (times, jumps per trajectory, jump
    histogram), the histogram keyed in channel order. Trajectory i draws its
    thresholds and channel uniforms from row i of streams.
    """
    psi = np.tile(np.asarray(psi0, dtype=complex), (len(streams), 1))
    store(psi)
    threshold = streams.random()
    jumps: list[list[tuple[float, str]]] = [[] for _ in range(len(streams))]
    histogram: dict[str, int] = {}

    for block, intervals in step_blocks(n_steps, store_every):
        props, ops, labels = _step_table(system, schedule, dt, block)
        histogram = histogram or dict.fromkeys(labels, 0)  # every block has the same channels
        sampling = (streams, threshold, jumps, histogram)
        intervals = list(intervals)
        # each interval padded at its end with identities (exact): its last suffix is one
        width = len(intervals[0][0])
        layout = np.empty((len(intervals), width + 1) + props.shape[1:], dtype=complex)
        layout[:] = np.eye(props.shape[-1])
        layout[np.arange(len(block)) // width, np.arange(len(block)) % width] = props
        prefix = prefix_products(layout)
        suffix = prefix_products(layout[:, ::-1].swapaxes(-1, -2))[:, ::-1].swapaxes(-1, -2)
        for i, (steps, stored) in enumerate(intervals):
            m, first = len(steps), steps.start - block.start
            end = np.einsum("ab,nb->na", prefix[i, m - 1], psi)
            cut = threshold * (1.0 + NORM_SLACK * m)
            below = np.flatnonzero(np.einsum("na,na->n", end, end.conj()).real < cut)
            group = max(1, STEP_BLOCK // m)
            for rows in (below[g:g + group] for g in range(0, below.size, group)):
                amps = np.einsum("jab,nb->nja", prefix[i, :m], psi[rows])
                crossed = np.einsum("nja,nja->nj", amps, amps.conj()).real < threshold[rows, None]
                hit = np.flatnonzero(crossed.any(axis=1))
                rows, j = rows[hit], crossed[hit].argmax(axis=1)
                phi = _jump(ops[first + j], labels, amps[hit, j], rows,
                            (steps.start + j + 1) * dt, *sampling)
                out = end[rows] = np.einsum("nab,nb->na", suffix[i, j + 1], phi)
                again = (np.einsum("na,na->n", out, out.conj()).real
                         < threshold[rows] * (1.0 + NORM_SLACK * (m - 1 - j)))
                for r, k, state in zip(rows[again], j[again] + 1, phi[again]):
                    own = slice(first + k, first + m)
                    end[r] = _jump_steps(props[own], ops[own], labels, state[None], np.array([r]),
                                         steps[k:], dt, *sampling)[0]
            psi = end
            if stored:
                store(psi / np.linalg.norm(psi, axis=1)[:, None])

    return stored_steps(n_steps, store_every, dt)[1], jumps, histogram


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
    """Average of n trajectories; trajectory i uses SeedSequence(master_seed, spawn_key=(i,)).

    Of the trajectories only trajectory 0's states are kept: the mean density
    is summed as the batch advances.
    """
    if n < 1:
        raise OutOfRange(f"ensemble size must be >= 1, got {n}")
    psi = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise OutOfRange(f"psi0 must be unit norm, got norm {norm}")
    n_steps, step = _resolve_steps(schedule, t_final, dt, store_every)
    sums, first = [], []

    def store(batch):
        sums.append(np.einsum("ni,nj->ij", batch, batch.conj()))
        first.append(batch[0].copy())

    times, jumps, histogram = _run_batch(
        system, schedule, psi / norm, step, n_steps, _spawned_streams(master_seed, n),
        store_every, store)
    return EnsembleResult(
        n_trajectories=n,
        times=times,
        mean_density=np.array(sums) / n,
        trajectory0_states=np.array(first),
        jump_count_histogram=histogram,
        jumps_per_trajectory=jumps,
    )
