"""Left-invariant parallel spinor flows on simply connected 3D Lie groups.

The package evolves an admissible pair (orthonormal coframe, shape tensor)
by its closed-form flow, cross-checks against a Runge-Kutta integrator,
reconstructs the globally hyperbolic four-metric, and verifies the
curvature and constraint identities the construction satisfies.
"""

from .errors import (InvalidPair, NotApplicable, OutOfDomain, SingularTime,
                     SpinorFlowError)
from .exact import (FlowSolution, FrameTransform, Lifespan, branch, eta_oneform,
                    frame_exact, hamiltonian_exact, lifespan, metric_exact,
                    nonqd_coefficients, solve, theta_exact)
from .frames import Sym3, eigen2x2, frame_ricci, levi_civita, ricci3, \
    structure_constants_from_theta
from .lapse import LapseProfile
from .lorentz import (Coframe4, DiracCurrentFrame, Ricci4,
                      closedness_residual, coframe4_at, curvature_report,
                      dirac_current_frame, ricci4, verify_ricci_identity)
from .numeric import (KERNEL_BACKEND, FlowState, ResidualReport,
                      flow_residuals, hamiltonian_of, integrate_to, ode_rhs)
from .pairs import (CauchyPair, ConstraintReport, GroupTag, GroupType,
                    ThetaInvariants, ValidationReport, classify, constraints,
                    invariants, is_constrained_ricci_flat, require_valid,
                    validate)
from .verify import CheckResult, SUITES, run_suite, sample_times

__version__ = "0.1.0"


def __getattr__(name):
    # JSON_BACKEND, the decoder of input files, comes from the CLI, which
    # alone imports orjson: a library import does not load it
    if name == "JSON_BACKEND":
        from .cli import JSON_BACKEND
        return JSON_BACKEND
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CauchyPair", "CheckResult", "Coframe4", "ConstraintReport",
    "DiracCurrentFrame", "FlowSolution", "FlowState", "FrameTransform", "GroupTag",
    "GroupType", "InvalidPair", "JSON_BACKEND", "KERNEL_BACKEND", "LapseProfile",
    "Lifespan", "NotApplicable", "OutOfDomain", "ResidualReport", "Ricci4", "SUITES",
    "SingularTime", "SpinorFlowError", "Sym3", "ThetaInvariants",
    "ValidationReport", "branch", "classify",
    "closedness_residual", "coframe4_at", "constraints", "curvature_report",
    "dirac_current_frame", "eigen2x2",
    "eta_oneform", "flow_residuals", "frame_exact", "frame_ricci",
    "hamiltonian_exact", "hamiltonian_of", "integrate_to",
    "invariants", "is_constrained_ricci_flat", "levi_civita", "lifespan",
    "metric_exact", "nonqd_coefficients", "ode_rhs", "require_valid",
    "ricci3", "ricci4", "run_suite", "sample_times", "solve",
    "structure_constants_from_theta", "theta_exact", "validate",
    "verify_ricci_identity",
]
