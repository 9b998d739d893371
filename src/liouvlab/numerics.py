"""Dense complex linear-algebra primitives used by every other module.

All matrices are numpy arrays of complex doubles with (row, col) indexing.
Hilbert dimensions in this package are at most 3 (Liouville space at most 9),
so everything here is dense and direct.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergence, NotHermitian, Overflow

# expm overflows double range once exp(norm) ~ 1e308; stay well below.
EXPM_NORM_BOUND = 700.0

HERMITICITY_TOL = 1e-8


def as_complex_matrix(a, stacked: bool = False) -> np.ndarray:
    """Validate and return a as a square complex matrix with finite entries.

    With stacked=True a stack of square matrices (n, m, m) is accepted too.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim not in ((2, 3) if stacked else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass
class EigenDecomposition:
    """Eigenvalues in canonical order with unit-norm right eigenvectors.

    Canonical order: ascending real part, ties broken by imaginary part.
    Each eigenvector column is normalized and phase-fixed so that its first
    component with non-negligible magnitude is real and positive; this makes
    eigenvector bookkeeping across parameter sweeps deterministic.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray


def _fix_phase(v: np.ndarray) -> np.ndarray:
    mags = np.abs(v)
    big = np.nonzero(mags > 1e-12 * mags.max())[0]
    k = big[0] if len(big) else int(np.argmax(mags))
    phase = v[k] / abs(v[k])
    return v / phase


def eig_general(a) -> EigenDecomposition:
    """Eigendecomposition of a general (non-Hermitian) square matrix."""
    m = as_complex_matrix(a)
    try:
        lam, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(
            f"eigensolver failed for matrix with Frobenius norm "
            f"{np.linalg.norm(m):.3e}: {exc}"
        ) from exc
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        col = col / np.linalg.norm(col)
        vecs[:, j] = _fix_phase(col)
    return EigenDecomposition(eigenvalues=lam, right_eigenvectors=vecs)


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


def expm(a) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring Pade core) of a matrix or a stack.

    A stack (n, m, m) is exponentiated slice by slice, each slice exactly as
    it would be alone. Raises Overflow when the 1-norm of any matrix exceeds
    EXPM_NORM_BOUND, beyond which exp() leaves double range for generic
    matrices.
    """
    m = as_complex_matrix(a, stacked=True)
    norm1 = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)
    worst = norm1.max(initial=0.0)
    if worst > EXPM_NORM_BOUND:
        where = f" (matrix {int(np.argmax(norm1))} of the stack)" if m.ndim == 3 else ""
        raise Overflow(
            f"matrix 1-norm {worst:.3e}{where} exceeds safe expm bound {EXPM_NORM_BOUND}"
        )
    return scipy.linalg.expm(m)


def require_hermitian(a, tol: float = HERMITICITY_TOL, what: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(a)
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > tol:
        raise NotHermitian(f"{what} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return m


def trace_distance(a, b) -> float:
    """Half the trace norm of (a - b); in [0, 1] for density matrices."""
    ma = require_hermitian(a, what="first argument")
    mb = require_hermitian(b, what="second argument")
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    diff = 0.5 * (ma - mb) + 0.5 * (ma - mb).conj().T
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi/2] between the rays spanned by two vectors."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = abs(np.vdot(u, v)) / (nu * nv)
    return float(np.arccos(min(1.0, c)))
