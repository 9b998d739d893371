"""liouvlab: a numerical laboratory for dissipative two- and three-level systems.

Builds Liouvillian superoperators, analyzes their spectra for exceptional
points, integrates Lindblad dynamics along static and swept parameter paths,
unravels the master equation into Monte-Carlo wavefunction trajectories, and
extracts oscillation frequencies and decay rates by damped-sinusoid fitting.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateInput,
    DegenerateSteadyState,
    DomainError,
    InsufficientData,
    LiouvlabError,
    NoSteadyState,
    NonConvergence,
    NotDensityMatrix,
    NotHermitian,
    NumericalError,
    OutOfRange,
    Overflow,
    ZeroNorm,
)
from .numerics import (
    EigenDecomposition,
    eig_general,
    expm,
    kron,
    trace_distance,
)
from .model import (
    DriveParams,
    ParameterSchedule,
    QuantumSystem,
    Rates,
    basis_ket,
    make_system,
    minus_x,
    plus_x,
    sigma_z,
)
from .liouvillian import (
    EpMap,
    SpectralResult,
    bloch_transverse_rate,
    build_superoperator,
    ep_scan,
    pair_branches,
    spectrum,
    steady_state,
    unvec,
    vec,
)
from .dynamics import (
    EvolutionResult,
    integrate_constant,
    integrate_scheduled,
    observables_from_states,
    validate_density_matrix,
)
from .trajectories import EnsembleResult, run_ensemble
from .analysis import (
    DampedSineFit,
    TransitionScan,
    chirality,
    entropy,
    ep_coupling,
    fit_damped_sine,
    predict_rates,
    scan_transition,
    sweep_metrics,
)

__all__ = [
    "__version__",
    # errors
    "LiouvlabError", "ConfigError", "NumericalError", "NonConvergence",
    "Overflow", "NotHermitian", "NotDensityMatrix", "NoSteadyState",
    "DegenerateSteadyState", "ZeroNorm", "OutOfRange", "DomainError",
    "InsufficientData", "DegenerateInput",
    # numerics
    "EigenDecomposition", "eig_general", "expm", "kron", "trace_distance",
    # model
    "Rates", "DriveParams", "QuantumSystem", "ParameterSchedule",
    "basis_ket", "plus_x", "minus_x", "sigma_z", "make_system",
    # liouvillian
    "SpectralResult", "EpMap", "vec", "unvec",
    "build_superoperator", "spectrum", "steady_state",
    "pair_branches", "ep_scan", "bloch_transverse_rate",
    # dynamics
    "EvolutionResult", "integrate_constant", "integrate_scheduled",
    "validate_density_matrix", "observables_from_states",
    # trajectories
    "EnsembleResult", "run_ensemble",
    # analysis
    "DampedSineFit", "TransitionScan", "fit_damped_sine",
    "scan_transition", "chirality", "entropy", "sweep_metrics",
    "ep_coupling", "predict_rates",
]
