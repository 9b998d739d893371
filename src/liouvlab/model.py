"""Physical systems: qubit/qutrit Hamiltonians, jump operators, parameter paths.

Basis ordering is fixed as (|g>, |e>) for dim 2 and (|g>, |e>, |f>) for dim 3,
with index 0 the ground state. The sign convention sigma_z = |g><g| - |e><e|
puts the excited state at z = -1, so relaxation drives z toward +1.

A system's collapse operators follow from its rates alone. `operators` is
the one builder of a system's Hamiltonians and jump sets at many parameter
points, and every route's generators are built from its OperatorStack.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange

DEFAULT_J_MAX = 16.0
DEFAULT_DELTA_MAX = 10.0 * math.pi


def _check_finite_nonneg(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise OutOfRange(f"{name} must be finite, got {value!r}")
    if v < 0.0:
        raise OutOfRange(f"{name} must be >= 0, got {v}")
    return v


@dataclass(frozen=True)
class Rates:
    """Dissipation rates in 1/us.

    gamma_e: spontaneous emission |e> -> |g>.
    gamma_phi: pure dephasing.
    gamma_f: decay of |f> (qutrit only).
    gamma_f_extra: extra |f> decoherence (qutrit only).
    """

    gamma_e: float
    gamma_phi: float = 0.0
    gamma_f: float = 0.0
    gamma_f_extra: float = 0.0

    def __post_init__(self):
        for name in ("gamma_e", "gamma_phi", "gamma_f", "gamma_f_extra"):
            object.__setattr__(self, name, _check_finite_nonneg(name, getattr(self, name)))


@dataclass(frozen=True)
class DriveParams:
    """Drive coupling J and detuning Delta, both rad/us.

    J >= 0 by convention; a negative J is gauge-equivalent to a positive one
    and is rejected to keep parameterizations unique. DriveParams() is no
    drive at all.
    """

    J: float = 0.0
    Delta: float = 0.0

    def __post_init__(self):
        j = float(self.J)
        d = float(self.Delta)
        if not math.isfinite(j) or not math.isfinite(d):
            raise OutOfRange(f"drive parameters must be finite, got J={self.J!r}, Delta={self.Delta!r}")
        if j < 0.0:
            raise OutOfRange(f"J must be >= 0 (negative J is gauge-equivalent), got {j}")
        object.__setattr__(self, "J", j)
        object.__setattr__(self, "Delta", d)


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def plus_x(dim: int = 2) -> np.ndarray:
    """(|g> + |e>)/sqrt(2), embedded in the g-e block for dim 3."""
    v = np.zeros(dim, dtype=complex)
    v[0] = v[1] = 1.0 / math.sqrt(2.0)
    return v


def minus_x(dim: int = 2) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0 / math.sqrt(2.0)
    v[1] = -1.0 / math.sqrt(2.0)
    return v


def sigma_z(dim: int = 2) -> np.ndarray:
    """|g><g| - |e><e|; for dim 3 the |f> level is untouched (diag(1,-1,0))."""
    d = np.zeros(dim, dtype=complex)
    d[0], d[1] = 1.0, -1.0
    return np.diag(d)


def hamiltonians(J, Delta, dim: int = 2) -> np.ndarray:
    """H_c = J(|g><e| + |e><g|) + Delta/2 (|g><g| - |e><e|) at n drive points.

    Returns a (n, dim, dim) stack for length-n J; Delta is a number or its
    n values. For dim 3 the same operator acts on the g-e block and the |f>
    row and column are zero (the drive does not couple to |f>).
    """
    if dim not in (2, 3):
        raise OutOfRange(f"dim must be 2 or 3, got {dim}")
    J = np.asarray(J, dtype=float)
    Delta = np.asarray(Delta, dtype=float)
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(Delta))):
        raise OutOfRange("drive parameters must be finite")
    if np.any(J < 0.0):
        raise OutOfRange(
            f"J must be >= 0 (negative J is gauge-equivalent), got {J[J < 0.0][0]}")
    h = np.zeros((len(J), dim, dim), dtype=complex)
    h[:, 0, 1] = h[:, 1, 0] = J
    h[:, 0, 0] = 0.5 * Delta
    h[:, 1, 1] = -0.5 * Delta
    return h


def jump_operator_stack(
    gamma_e, gamma_phi, gamma_f, gamma_f_extra, dim: int = 2, f_decay_to: str = "e"
) -> list[tuple[np.ndarray, str]]:
    """Collapse operators with labels at n rate points, as (L, label).

    Qubit: L_e = sqrt(gamma_e)|g><e|, L_phi = sqrt(gamma_phi/2) sigma_z.
    Qutrit adds L_f = sqrt(gamma_f)|target><f| (target "e" by default,
    configurable to "g") and L_f_extra = sqrt(gamma_f_extra)|f><f|, a pure
    dephasing channel on |f> modeling extra decoherence of that level. A
    qubit with a nonzero f-level rate is rejected.

    Each rate is a number, or an array of its values at the n points. L
    stacks the channel's operator at each of the rate's points. A channel
    whose rate is positive at some point is present at every point, with
    the zero operator where its rate is zero; a channel whose rate is zero
    everywhere is omitted.
    """
    if dim not in (2, 3):
        raise OutOfRange(f"dim must be 2 or 3, got {dim}")
    if dim == 2 and (np.any(gamma_f) or np.any(gamma_f_extra)):
        raise OutOfRange("gamma_f and gamma_f_extra act on |f> and need dim 3")
    if f_decay_to not in ("e", "g"):
        raise OutOfRange(f"f_decay_to must be 'e' or 'g', got {f_decay_to!r}")
    target = 1 if f_decay_to == "e" else 0
    # (rate name, label, the operator's single entry, or None for sigma_z)
    channels = [("gamma_e", "e", (0, 1)), ("gamma_phi", "phi", None)]
    if dim == 3:
        channels += [("gamma_f", "f", (target, 2)), ("gamma_f_extra", "f_extra", (2, 2))]
    rates = {"gamma_e": gamma_e, "gamma_phi": gamma_phi,
             "gamma_f": gamma_f, "gamma_f_extra": gamma_f_extra}
    out = []
    for name, label, entry in channels:
        r = np.atleast_1d(np.asarray(rates[name], dtype=float))
        if not np.all(np.isfinite(r)):
            raise OutOfRange(f"{name} must be finite, got {r[~np.isfinite(r)][0]!r}")
        if np.any(r < 0.0):
            raise OutOfRange(f"{name} must be >= 0, got {r[r < 0.0][0]}")
        if not np.any(r > 0.0):
            continue
        if entry is None:
            L = np.sqrt(r / 2.0)[:, None, None] * sigma_z(dim)
        else:
            L = np.zeros((len(r), dim, dim), dtype=complex)
            L[:, entry[0], entry[1]] = np.sqrt(r)
        out.append((L, label))
    return out


@dataclass(frozen=True)
class QuantumSystem:
    """A dim-level system with its drive and rates.

    The collapse operators are not stored: the rates, the dimension and the
    |f> decay target fix them, and every route builds them from these.
    """

    dim: int
    rates: Rates
    drive: DriveParams
    f_decay_to: str = "e"

    def __post_init__(self):
        # rejects a bad dimension or decay target, and f-level rates on a qubit
        r = self.rates
        jump_operator_stack(
            r.gamma_e, r.gamma_phi, r.gamma_f, r.gamma_f_extra, self.dim, self.f_decay_to)


def make_system(
    drive: DriveParams,
    rates: Rates,
    dim: int = 2,
    f_decay_to: str = "e",
) -> QuantumSystem:
    return QuantumSystem(dim=dim, rates=rates, drive=drive, f_decay_to=f_decay_to)


@dataclass(frozen=True)
class ParameterSchedule:
    """Closed parameter loop J(t), Delta(t), gamma_e(t) over t in [0, T].

    The path is J(t) = J_max cos^2(pi t/T) and
    Delta(t) = s * Delta_max sin(2 pi t/T), with s = +1 for ccw and -1 for cw.

    gamma_e_schedule selects between a constant emission rate and the ramp
    gamma_e(t) = gamma_e0 [1 - cos(2 pi t/T)]/2, which suppresses dissipation
    near the loop endpoints.
    """

    T: float
    direction: str = "ccw"
    J_max: float = DEFAULT_J_MAX
    Delta_max: float = DEFAULT_DELTA_MAX
    gamma_e_schedule: str = "constant"

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise OutOfRange(f"T must be positive and finite, got {self.T!r}")
        if not (math.isfinite(self.J_max) and self.J_max >= 0.0):
            raise OutOfRange(f"J_max must be >= 0 and finite, got {self.J_max!r}")
        if not math.isfinite(self.Delta_max):
            raise OutOfRange(f"Delta_max must be finite, got {self.Delta_max!r}")
        if self.direction not in ("cw", "ccw"):
            raise OutOfRange(f"direction must be 'cw' or 'ccw', got {self.direction!r}")
        if self.gamma_e_schedule not in ("constant", "cosine"):
            raise OutOfRange(
                f"gamma_e_schedule must be 'constant' or 'cosine', got {self.gamma_e_schedule!r}"
            )


class OperatorStack(NamedTuple):
    """A system's Hamiltonian and collapse operators at n parameter points.

    hamiltonians is (n, d, d). Each jump entry is (L, label): L is (n, d, d),
    or (1, d, d) when the operator is the same at every point, and is the
    zero matrix at a point where the channel's rate is zero.
    """

    hamiltonians: np.ndarray
    jumps: list[tuple[np.ndarray, str]]


def path_points(s: ParameterSchedule, times, gamma_e: float) -> np.ndarray:
    """The path's (J, Delta, gamma_e) at the given times, as a (3, n) array.

    Delta carries the direction sign, and gamma_e follows the schedule's
    emission profile from the given base rate. Every time must lie in
    [0, T]; each is evaluated alone, so a time gives the same bits in any array.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    outside = ~((0.0 <= t) & (t <= s.T))
    if outside.any():
        raise OutOfRange(f"t={t[outside][0]} outside schedule domain [0, {s.T}]")
    sign = 1.0 if s.direction == "ccw" else -1.0
    J = s.J_max * np.cos(math.pi * t / s.T) ** 2
    Delta = sign * s.Delta_max * np.sin(2.0 * math.pi * t / s.T)
    if s.gamma_e_schedule == "cosine":
        return np.array([J, Delta, gamma_e * (1.0 - np.cos(2.0 * math.pi * t / s.T)) / 2.0])
    return np.array([J, Delta, np.full_like(t, gamma_e)])


def operators(system: QuantumSystem, J, Delta, gamma_e) -> OperatorStack:
    """The system at n points (J[k], Delta[k], gamma_e[k]).

    J holds the n couplings; Delta and gamma_e are each a number, held at
    every point, or an array of their n values. Dimension, the other
    rates and the |f> decay target are the system's. Every point carries the
    same channels, those of jump_operator_stack; a point where a channel's
    rate is zero adds only zero terms through it.
    """
    r = system.rates
    jumps = jump_operator_stack(
        gamma_e, r.gamma_phi, r.gamma_f, r.gamma_f_extra, system.dim, system.f_decay_to)
    return OperatorStack(hamiltonians(J, Delta, system.dim), jumps)
