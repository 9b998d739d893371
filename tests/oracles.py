"""Independent references that the tests check liouvlab's routes against.

None of these is used by the package itself:

- bloch_rhs / integrate_bloch: the qubit's three-component Bloch equation,
  integrated by RK4, against the Lindblad route;
- analytic_qubit_eigensystem: the closed-form qubit eigensystem at
  Delta = gamma_phi = 0, against spectrum() and steady_state();
- principal_angle: the angle between two eigenvector rays, one pair at a
  time, against spectrum()'s stacked angles;
- pair_branches_scipy: branch pairing by scipy.optimize.linear_sum_assignment,
  against pair_branches();
- all_line_points: the points of an EpMap's lines as one (n, 2) array;
- damped_sine_model: a DampedSineFit's curve A exp(-Gamma t) cos(omega t + phi) + C;
- validate_manifest: the keys and types of a run manifest.
"""

import math

import numpy as np

from liouvlab.errors import ConfigError, DomainError, OutOfRange
from liouvlab.liouvillian import bloch_transverse_rate
from liouvlab.model import DriveParams, Rates


# ---------------------------------------------------------------------------
# Bloch-vector route

def bloch_rhs(params: DriveParams, rates: Rates, v) -> np.ndarray:
    """Right-hand side of the three-component Bloch equation.

        dx/dt = -(gamma_e/2 + gamma_phi) x - Delta y
        dy/dt = +Delta x - (gamma_e/2 + gamma_phi) y - 2J z
        dz/dt = +2J y - gamma_e z + gamma_e

    Fixed point at J = Delta = 0 is the ground state (0, 0, 1).
    """
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    a = bloch_transverse_rate(rates)
    return np.array(
        [
            -a * x - params.Delta * y,
            params.Delta * x - a * y - 2.0 * params.J * z,
            2.0 * params.J * y - rates.gamma_e * z + rates.gamma_e,
        ]
    )


def integrate_bloch(
    params: DriveParams,
    rates: Rates,
    v0,
    t_grid,
    dt: float = 1e-3,
) -> np.ndarray:
    """RK4 integration of the Bloch equation onto t_grid; returns (n, 3)."""
    t = np.asarray(t_grid, dtype=float)
    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (3,):
        raise OutOfRange(f"v0 must have three components, got shape {v.shape}")
    out = np.empty((len(t), 3))
    prev_t = 0.0
    for k, tk in enumerate(t):
        span = tk - prev_t
        if span > 0.0:
            n_sub = max(1, int(math.ceil(span / dt)))
            h = span / n_sub
            for _ in range(n_sub):
                k1 = bloch_rhs(params, rates, v)
                k2 = bloch_rhs(params, rates, v + 0.5 * h * k1)
                k3 = bloch_rhs(params, rates, v + 0.5 * h * k2)
                k4 = bloch_rhs(params, rates, v + h * k3)
                v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k] = v
        prev_t = tk
    return out


# ---------------------------------------------------------------------------
# Closed-form spectrum and eigenvector angles

def analytic_qubit_eigensystem(drive: DriveParams, rates: Rates) -> list[tuple[complex, np.ndarray]]:
    """Closed-form qubit eigensystem, valid only at Delta=0 and gamma_phi=0.

    Returns four (eigenvalue, d x d eigenmatrix) pairs: the steady state at
    lambda = 0, the x-sector mode at -gamma_e/2, and the coupled pair at
    -3 gamma_e/4 -+ sqrt(gamma_e^2 - 64 J^2)/4. Eigenmatrices of the pair are

        [[-g -+ s, 8iJ], [-8iJ, g +- s]],   s = sqrt(g^2 - 64 J^2),

    which coalesce at J = g/8. Serves as a golden oracle for spectrum().
    """
    if drive.Delta != 0.0:
        raise DomainError(f"closed form requires Delta=0, got {drive.Delta}")
    if rates.gamma_phi != 0.0:
        raise DomainError(f"closed form requires gamma_phi=0, got {rates.gamma_phi}")
    g = rates.gamma_e
    J = drive.J
    s = complex(g * g - 64.0 * J * J) ** 0.5

    rho0 = np.array(
        [[g * g + 4.0 * J * J, 2.0j * g * J], [-2.0j * g * J, 4.0 * J * J]],
        dtype=complex,
    ) / (g * g + 8.0 * J * J)
    rho1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho2 = np.array([[-g - s, 8.0j * J], [-8.0j * J, g + s]], dtype=complex)
    rho3 = np.array([[-g + s, 8.0j * J], [-8.0j * J, g - s]], dtype=complex)

    lam2 = -0.75 * g - 0.25 * s
    lam3 = -0.75 * g + 0.25 * s
    return [
        (0.0 + 0.0j, rho0),
        (complex(-0.5 * g), rho1),
        (lam2, rho2),
        (lam3, rho3),
    ]


def principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi/2] between the rays spanned by two vectors."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = abs(np.vdot(u, v)) / (nu * nv)
    return float(np.arccos(min(1.0, c)))


def pair_branches_scipy(spectra: np.ndarray) -> np.ndarray:
    """pair_branches with SciPy's linear_sum_assignment matching each point to the one before."""
    from scipy.optimize import linear_sum_assignment

    out = np.empty_like(spectra)
    out[0] = spectra[0]
    for k in range(1, len(spectra)):
        _rows, cols = linear_sum_assignment(np.abs(out[k - 1][:, None] - spectra[k][None, :]))
        out[k] = spectra[k][cols]
    return out


def all_line_points(ep_map) -> np.ndarray:
    """Every point of ep_map's EP lines, line after line, as an (n, 2) array of (J, Delta)."""
    if not ep_map.ep_lines:
        return np.zeros((0, 2))
    return np.vstack(ep_map.ep_lines)


# ---------------------------------------------------------------------------
# Damped-sine fits

def damped_sine_model(fit, times) -> np.ndarray:
    """The fit's curve A exp(-Gamma t) cos(omega t + phi) + C at times.

    At omega = 0 this is the P exp(-Gamma t) + C part of the critically
    damped curve alone (see DampedSineFit).
    """
    t = np.asarray(times, dtype=float)
    return fit.amplitude * np.exp(-fit.gamma * t) * np.cos(fit.omega * t + fit.phase) + fit.offset


# ---------------------------------------------------------------------------
# Run manifests

def validate_manifest(doc: dict) -> None:
    """Check the keys and types of a manifest dict; ConfigError on mismatch."""
    if not isinstance(doc, dict):
        raise ConfigError("manifest must be a JSON object")
    for key in ("experiment", "artifact_version", "timestamp_utc", "duration_s", "config", "files"):
        if key not in doc:
            raise ConfigError(f"manifest missing required key {key!r}")
    if not isinstance(doc["experiment"], str) or not isinstance(doc["artifact_version"], str):
        raise ConfigError("manifest experiment/artifact_version must be strings")
    if not isinstance(doc["timestamp_utc"], str):
        raise ConfigError("manifest timestamp_utc must be a string")
    if not isinstance(doc["duration_s"], (int, float)):
        raise ConfigError("manifest duration_s must be a number")
    if not isinstance(doc["config"], dict):
        raise ConfigError("manifest config must be an object")
    if not isinstance(doc["files"], list):
        raise ConfigError("manifest files must be an array")
    for entry in doc["files"]:
        if not isinstance(entry, dict):
            raise ConfigError("manifest file entries must be objects")
        for key in ("name", "sha256", "bytes"):
            if key not in entry:
                raise ConfigError(f"manifest file entry missing {key!r}")
        if not isinstance(entry["name"], str) or not isinstance(entry["sha256"], str):
            raise ConfigError("manifest file name/sha256 must be strings")
        if not isinstance(entry["bytes"], int):
            raise ConfigError("manifest file bytes must be an integer")
