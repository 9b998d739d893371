"""Dense complex linear-algebra primitives used by every other module.

All matrices are numpy arrays of complex doubles with (row, col) indexing.
Hilbert dimensions in this package are at most 3 (Liouville space at most 9),
so everything here is dense and direct.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NotHermitian, Overflow

# expm overflows double range once exp(norm) ~ 1e308; stay well below.
EXPM_NORM_BOUND = 700.0

HERMITICITY_TOL = 1e-8

# Scaling and squaring with diagonal Pade approximants (Higham, SIAM J. Matrix
# Anal. Appl. 26, 1179, 2005). PADE_COEFFS[m] holds b_0..b_m of the degree-m
# numerator p_m(x) = sum_j b_j x^j, whose denominator is p_m(-x), and
# PADE_THETA[i] is the largest 1-norm at which the degree PADE_DEGREES[i]
# approximant meets double-precision unit roundoff (Table 2.3 there).
PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
PADE_DEGREES = tuple(PADE_COEFFS)
PADE_THETA = np.array([
    1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
    2.097847961257068e0, 5.371920351148152e0])


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


def _pade(a: np.ndarray, degree: int) -> np.ndarray:
    """The degree-m diagonal Pade approximant of exp, q_m(a)^-1 p_m(a), of each slice of a stack.

    p_m(a) = V + U and q_m(a) = V - U, with U the odd and V the even powers
    (Higham 2005, Algorithm 2.3).
    """
    b = PADE_COEFFS[degree]
    ident = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    if degree < 13:
        powers = [ident, a2]
        while len(powers) < (degree + 1) // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """Matrix exponential of a matrix or a stack, by scaling and squaring Pade.

    Each matrix gets the lowest Pade degree whose theta bound covers its
    1-norm; above the degree-13 bound it is scaled by 2^-s into that bound,
    and the result squared s times. A stack (n, m, m) is evaluated one
    (degree, s) group at a time, and each slice exactly as it would be alone.
    Raises Overflow when the 1-norm of any matrix exceeds EXPM_NORM_BOUND,
    beyond which exp() leaves double range for generic matrices.
    """
    m = as_complex_matrix(a, stacked=True)
    norm1 = np.abs(m).sum(axis=-2).max(axis=-1, initial=0.0)
    worst = norm1.max(initial=0.0)
    if worst > EXPM_NORM_BOUND:
        where = f" (matrix {int(np.argmax(norm1))} of the stack)" if m.ndim == 3 else ""
        raise Overflow(
            f"matrix 1-norm {worst:.3e}{where} exceeds safe expm bound {EXPM_NORM_BOUND}"
        )
    stack = m.reshape((-1,) + m.shape[-2:])
    norm1 = norm1.reshape(-1)
    degree = np.searchsorted(PADE_THETA, norm1)  # len(PADE_THETA) above the last bound
    scale = np.zeros(len(stack), dtype=int)
    over = degree == len(PADE_THETA)
    scale[over] = np.ceil(np.log2(norm1[over] / PADE_THETA[-1]))
    degree[over] -= 1
    out = np.empty_like(stack)
    groups, group_of = np.unique(scale * len(PADE_DEGREES) + degree, return_inverse=True)
    for g, key in enumerate(groups):
        s, i = divmod(int(key), len(PADE_DEGREES))
        rows = np.nonzero(group_of == g)[0]
        r = _pade(stack[rows] * 2.0**-s, PADE_DEGREES[i])
        for _ in range(s):
            r = r @ r
        out[rows] = r
    return out.reshape(m.shape)


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
