"""Dense linear-algebra primitives used by every other module.

All matrices are numpy arrays of complex doubles (expm takes real ones too).
Hilbert dimensions in this package are at most 3 (Liouville space at most 9),
so everything here is dense and direct. expm is a truncated Taylor series
with scaling and squaring, and takes matrix products only: no linear solve.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import NonConvergence, NotHermitian, Overflow

# expm overflows double range once exp(norm) ~ 1e308; stay well below.
EXPM_NORM_BOUND = 700.0

HERMITICITY_TOL = 1e-8

# Scaling and squaring with truncated Taylor series T_m(x) = sum_{k<=m} x^k/k!,
# each evaluated by Paterson-Stockmeyer (SIAM J. Comput. 2, 60, 1973) with
# matrix products only (Bader, Blanes & Casas, Mathematics 7, 1174, 2019).
# Degree TAYLOR_DEGREES[i] is evaluated in powers of x^TAYLOR_BLOCKS[i], and
# TAYLOR_THETA[i] is the largest 1-norm theta (rounded down) with
# theta^(m+1)/(m+1)! * e^(2 theta) <= 2^-53: the truncation error is at most
# ||A||^(m+1)/(m+1)! * e^||A||, and ||e^A|| >= e^-||A||, so this bounds the
# relative error of T_m(A) by the unit roundoff.
TAYLOR_DEGREES = (6, 9, 12, 16)
TAYLOR_BLOCKS = (3, 3, 4, 4)
TAYLOR_THETA = np.array([1.768062661e-2, 1.123969815e-1, 3.197188032e-1, 7.564660662e-1])
INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(TAYLOR_DEGREES[-1] + 1))


def as_complex_matrix(a, stacked: bool = False) -> np.ndarray:
    """Validate and return a as a square complex matrix with finite entries.

    With stacked=True a stack of square matrices (n, m, m) is accepted too.
    """
    return _square(np.asarray(a, dtype=complex), stacked)


def _square(m: np.ndarray, stacked: bool) -> np.ndarray:
    if m.ndim not in ((2, 3) if stacked else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


class EigenDecomposition(NamedTuple):
    """Eigenvalues in canonical order with unit-norm right eigenvectors.

    Canonical order: ascending real part, ties broken by imaginary part.
    For a stack (n, m, m) the eigenvalues are (n, m) and the eigenvectors
    (n, m, m), each slice sorted on its own. The eigenvectors are LAPACK's
    columns, of unit norm and in no fixed phase.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray


def eig_general(a) -> EigenDecomposition:
    """Eigendecomposition of a general (non-Hermitian) square matrix or stack of them."""
    m = as_complex_matrix(a, stacked=True)
    try:
        lam, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(
            f"eigensolver failed for matrix with Frobenius norm "
            f"{np.linalg.norm(m):.3e}: {exc}"
        ) from exc
    order = np.lexsort((lam.imag, lam.real), axis=-1)
    return EigenDecomposition(
        eigenvalues=np.take_along_axis(lam, order, axis=-1),
        right_eigenvectors=np.take_along_axis(vecs, order[..., None, :], axis=-1),
    )


def kron(a, b) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over any leading axes.

    Entry [..., i*rb + k, j*cb + l] = a[..., i, j] * b[..., k, l], so a stack
    of n matrices against one matrix, or two stacks of n, give n products.
    For two plain matrices this is np.kron, bit for bit.
    """
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.size == 0 or bm.size == 0:
        raise ValueError("kron requires non-empty matrices")
    out = am[..., :, None, :, None] * bm[..., None, :, None, :]
    rows = am.shape[-2] * bm.shape[-2]
    cols = am.shape[-1] * bm.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def _taylor(a: np.ndarray, degree: int, block: int) -> np.ndarray:
    """T_m(a) of each slice of a stack, by Paterson-Stockmeyer in powers of a^s.

    Every degree m is a multiple of its s, so
    T_m(a) = B_0 + a^s (B_1 + ... + a^s (B_{m/s-1} + a^s/m!)), with
    B_j = sum_{i<s} a^i/(js+i)!, evaluated from the inside out: s - 1
    products for the powers and m/s - 1 for the Horner steps.
    """
    powers = [a]
    for _ in range(block - 1):
        powers.append(powers[-1] @ a)
    top = powers.pop()
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    r = top * INV_FACTORIAL[degree]
    for k in range(degree - block, -1, -block):
        for i, p in enumerate(powers, start=k + 1):
            r += INV_FACTORIAL[i] * p
        r += INV_FACTORIAL[k] * ident
        if k:
            r = top @ r
    return r


def _scaled_taylor(a: np.ndarray, key: int) -> np.ndarray:
    """e^a of a stack in one group, key = s * len(TAYLOR_DEGREES) + i.

    Each slice is scaled by 2^-s, put through the degree TAYLOR_DEGREES[i]
    polynomial and squared s times.
    """
    s, i = divmod(key, len(TAYLOR_DEGREES))
    r = _taylor(a * 2.0**-s if s else a, TAYLOR_DEGREES[i], TAYLOR_BLOCKS[i])
    for _ in range(s):
        r = r @ r
    return r


def expm(a) -> np.ndarray:
    """Matrix exponential of a real or complex matrix or stack, by scaling and squaring Taylor.

    Each matrix gets the lowest Taylor degree whose theta bound covers its
    1-norm; above the degree-16 bound it is scaled by 2^-s into that bound,
    and the result squared s times. The polynomial takes matrix products
    only, with no linear solve. A stack (n, m, m) is evaluated one
    (degree, s) group at a time, and each slice exactly as it would be alone;
    a stack that is one group is evaluated whole. Raises Overflow when the
    1-norm of any matrix exceeds EXPM_NORM_BOUND, beyond which exp() leaves
    double range for generic matrices.
    """
    m = _square(np.asarray(a, dtype=complex if np.iscomplexobj(a) else float), stacked=True)
    norm1 = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)
    worst = norm1.max(initial=0.0)
    if worst > EXPM_NORM_BOUND:
        where = f" (matrix {int(np.argmax(norm1))} of the stack)" if m.ndim == 3 else ""
        raise Overflow(
            f"matrix 1-norm {worst:.3e}{where} exceeds safe expm bound {EXPM_NORM_BOUND}"
        )
    stack = np.ascontiguousarray(m).reshape((-1,) + m.shape[-2:])
    norm1 = norm1.reshape(-1)
    degree = np.searchsorted(TAYLOR_THETA, norm1)  # len(TAYLOR_THETA) above the last bound
    scale = np.zeros(len(stack), dtype=int)
    over = degree == len(TAYLOR_THETA)
    scale[over] = np.ceil(np.log2(norm1[over] / TAYLOR_THETA[-1]))
    degree[over] -= 1
    groups, group_of = np.unique(scale * len(TAYLOR_DEGREES) + degree, return_inverse=True)
    if len(groups) == 1:
        return _scaled_taylor(stack, int(groups[0])).reshape(m.shape)
    out = np.empty_like(stack)
    for g, key in enumerate(groups):
        rows = np.nonzero(group_of == g)[0]
        out[rows] = _scaled_taylor(stack[rows], int(key))
    return out.reshape(m.shape)


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    """a as a complex matrix or (n, m, m) stack, each slice Hermitian to within HERMITICITY_TOL."""
    m = as_complex_matrix(a, stacked=True)
    dev = np.max(np.abs(m - m.conj().swapaxes(-1, -2))) if m.size else 0.0
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"{what} deviates from Hermiticity by {dev:.3e} "
                           f"(tol {HERMITICITY_TOL:.1e})")
    return m


def trace_distance(a, b):
    """Half the trace norm of (a - b); in [0, 1] for density matrices.

    Two (n, d, d) stacks give an (n,) array of slice-by-slice distances from
    one stacked eigvalsh, each as the two slices would give alone.
    """
    ma = require_hermitian(a, what="first argument")
    mb = require_hermitian(b, what="second argument")
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    diff = 0.5 * (ma - mb) + 0.5 * (ma - mb).conj().swapaxes(-1, -2)
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
