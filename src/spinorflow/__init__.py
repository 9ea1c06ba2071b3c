"""Left-invariant parallel spinor flows on simply connected 3D Lie groups.

The package evolves an admissible pair (orthonormal coframe, shape tensor)
by its closed-form flow, cross-checks against a Runge-Kutta integrator,
reconstructs the globally hyperbolic four-metric, and verifies the
curvature and constraint identities the construction satisfies.

``import spinorflow`` loads none of its modules: each public name is
imported from the module that defines it (``_HOMES``) on first access
(PEP 562), as is each module read as an attribute (``spinorflow.numeric``),
so a program pays only for the modules it uses.  The CLI
(``spinorflow.cli``) loads the parsing of pairs and lapses eagerly, since
every command needs it, and each command's other modules, numpy among them,
where the command first needs them; it loads orjson, when installed, only
to decode an input file above about 1 KiB.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines; JSON_BACKEND, the decoder of
# large input files, comes from the CLI, which alone imports orjson
_HOMES = {
    "cli": ("JSON_BACKEND",),
    "decision": ("Lifespan", "branch", "lifespan"),
    "errors": ("InvalidPair", "NotApplicable", "OutOfDomain", "SingularTime",
               "SpinorFlowError"),
    "exact": ("FlowSolution", "frame_exact", "hamiltonian_exact", "nonqd_coefficients",
              "solve", "theta_exact"),
    "frames": ("eigen2x2", "frame_ricci", "levi_civita", "ricci3",
               "structure_constants_from_theta"),
    "backend": ("KERNEL_BACKEND",),
    "lapse": ("LapseProfile",),
    "lorentz": ("Coframe4", "DiracCurrentFrame", "Ricci4", "closedness_residual",
                "coframe4_at", "curvature_report", "dirac_current_frame", "ricci4",
                "verify_ricci_identity"),
    "numeric": ("FlowState", "ResidualReport", "flow_residuals",
                "hamiltonian_of", "integrate_to", "ode_rhs"),
    "pairs": ("SUITES", "CauchyPair", "ConstraintReport", "GroupTag", "GroupType",
              "ThetaInvariants", "ValidationReport", "classify", "constraints",
              "invariants", "is_constrained_ricci_flat", "require_valid",
              "validate"),
    "sym3": ("Sym3",),
    "verify": ("CheckResult", "run_suite", "sample_times"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES:  # a module, as in ``spinorflow.numeric.uncertified``
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
