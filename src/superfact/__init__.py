"""superfact: factorized classical superintegrable oscillators.

Three Hamiltonian families (anisotropic oscillator on the plane and on the
sphere, and the TTW system) share one construction: each separated sector
factorizes through conjugate ladder/shift pairs whose products assemble, for
a rational frequency ratio, into higher-order constants of motion.  This
package writes each pair once, with its whole algebra (``factor_pairs``):
its factorization, its rotations along the flow and under its sector and
its mutual bracket; evaluates the factor
functions with exact derivatives from compiled straight-line code;
certifies every bracket and factorization identity numerically on random
phase points; integrates trajectories with conservation monitoring; and
detects the closed orbits that rational ratios produce.
"""

from .errors import (
    DomainBreach,
    DomainError,
    InsufficientSpan,
    NoSolution,
    SamplerExhausted,
    StepFailure,
    SuperfactError,
    UnsupportedError,
)
from .scalars import DualComplex
from .phase import (
    COORDS,
    RANK_TOL,
    Observable,
    PhaseBatch,
    PhasePoint,
    bracket_batch,
    eval_batch,
    gradient,
    gradient_batch,
)
from .systems import (
    DELTA_MARGIN,
    DELTA_POS,
    DomainBox,
    DomainVerdict,
    Family,
    RationalGamma,
    SystemSpec,
    characteristic_period,
    default_box,
    domain_check,
    domain_mask,
    epsilon_observable,
    euclid_y_sector_observable,
    hamiltonian,
    hamiltonian_observable,
    higgs_potential_identity,
    second_integral,
    second_integral_observable,
    to_internal,
)
from .factorization import (
    Coefficient,
    FactorPair,
    factor_pairs,
    higher_integral_observables,
    ladder_observables,
    shift_observables,
    ttw_shift_observables,
)
from .dynamics import (
    ClosureResult,
    DriftEntry,
    DriftReport,
    IntegratorControls,
    Trajectory,
    detect_closure,
    drift_report,
    integrate,
)
from .verification import (
    REPORT_SCHEMA,
    TOL_CHAIN,
    TOL_HIGH_ORDER,
    TOL_POLY,
    TOL_ROOT,
    BracketReport,
    IdentityResult,
    IdentitySpec,
    build_suite,
    independence_report,
    run_identity,
    run_suite,
    sample_points,
    symmetry_tolerance,
    verify_system,
)
from .levels import LEVEL_TOLERANCE, LevelSearch, solve_levels

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SuperfactError",
    "DomainError",
    "UnsupportedError",
    "SamplerExhausted",
    "DomainBreach",
    "StepFailure",
    "InsufficientSpan",
    "NoSolution",
    # scalars and phase-space core
    "DualComplex",
    "COORDS",
    "RANK_TOL",
    "PhasePoint",
    "PhaseBatch",
    "Observable",
    "gradient",
    "eval_batch",
    "gradient_batch",
    "bracket_batch",
    # systems
    "Family",
    "RationalGamma",
    "SystemSpec",
    "DomainBox",
    "DomainVerdict",
    "DELTA_MARGIN",
    "DELTA_POS",
    "domain_check",
    "domain_mask",
    "to_internal",
    "hamiltonian",
    "hamiltonian_observable",
    "second_integral",
    "second_integral_observable",
    "euclid_y_sector_observable",
    "epsilon_observable",
    "higgs_potential_identity",
    "characteristic_period",
    "default_box",
    # factorization
    "Coefficient",
    "FactorPair",
    "factor_pairs",
    "ladder_observables",
    "shift_observables",
    "ttw_shift_observables",
    "higher_integral_observables",
    # dynamics
    "IntegratorControls",
    "Trajectory",
    "DriftEntry",
    "DriftReport",
    "ClosureResult",
    "integrate",
    "drift_report",
    "detect_closure",
    # verification
    "IdentitySpec",
    "IdentityResult",
    "BracketReport",
    "REPORT_SCHEMA",
    "TOL_POLY",
    "TOL_ROOT",
    "TOL_CHAIN",
    "TOL_HIGH_ORDER",
    "symmetry_tolerance",
    "build_suite",
    "run_identity",
    "run_suite",
    "sample_points",
    "verify_system",
    "independence_report",
    # levels
    "LEVEL_TOLERANCE",
    "LevelSearch",
    "solve_levels",
]
