"""Left-invariant Cauchy pairs: validation, classification, constraints.

A pair is stored through the components of its shape tensor in the fixed
orthonormal coframe (e_u, e_l, e_n).  Admissible components solve a small
algebraic system and fall into one of the structural families realized on
the four simply connected 3D groups R^3, E(1,1), tau_2 + R and tau_{3,mu}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidPair
from .frames import Sym3, divergence_sym, frame_ricci, structure_constants_from_theta

DEFAULT_TOL = 1e-9
# the verification suites of ``verify``, named here, where the CLI's parser
# reads them without loading ``verify``
SUITES = ("constraints", "ricci4", "ricciflow", "cosymplectic", "oracle")


@dataclass(frozen=True)
class CauchyPair:
    """Initial datum of the flow: shape components Theta_ab."""

    theta: Sym3

    @classmethod
    def from_components(cls, uu=0.0, ul=0.0, un=0.0, ll=0.0, ln=0.0, nn=0.0) -> "CauchyPair":
        return cls(Sym3(uu=uu, ul=ul, un=un, ll=ll, ln=ln, nn=nn))

    @classmethod
    def from_json_dict(cls, data: dict) -> "CauchyPair":
        """Parse the `{"theta": {"uu": ..., ...}}` wire format."""
        if not isinstance(data, dict) or "theta" not in data:
            raise ValueError("pair JSON must be an object with a 'theta' field")
        th = data["theta"]
        if not isinstance(th, dict):
            raise ValueError("'theta' must be an object")
        missing = [k for k in ("uu", "ul", "un", "ll", "ln", "nn") if k not in th]
        if missing:
            raise ValueError(f"missing theta components: {', '.join(missing)}")
        vals = {}
        for k in ("uu", "ul", "un", "ll", "ln", "nn"):
            v = th[k]
            try:
                # float() overflows on an integer literal no float holds
                ok = not isinstance(v, bool) and isinstance(v, (int, float)) \
                    and math.isfinite(float(v))
            except OverflowError:
                ok = False
            if not ok:
                raise ValueError(f"theta component '{k}' must be a finite number")
            vals[k] = float(v)
        return cls(Sym3(**vals))


@dataclass(frozen=True)
class ThetaInvariants:
    """Scalar invariants driving branch selection and classification."""

    lam: float
    T: float
    Delta: float


class GroupTag(Enum):
    R3 = "R3"
    E11 = "E11"
    TAU2_PLUS_R = "Tau2PlusR"
    TAU3_MU = "Tau3Mu"


@dataclass(frozen=True)
class GroupType:
    tag: GroupTag
    mu: float | None = None


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: list = field(default_factory=list)
    row: str | None = None


@dataclass(frozen=True)
class ConstraintReport:
    hamiltonian: float
    momentum_residual: np.ndarray
    scalar_curvature: float
    is_vacuum_admissible: bool


def invariants(pair: CauchyPair) -> ThetaInvariants:
    th = pair.theta
    return ThetaInvariants(
        lam=math.hypot(th.ul, th.un),
        T=th.ll + th.nn,
        Delta=th.ll * th.nn - th.ln**2,
    )


def _scaled(pair: CauchyPair) -> tuple[CauchyPair, float]:
    """The pair scaled by a power of two so that max |Theta| lies in [1, 2),
    or the pair itself when max |Theta| <= 1; and max(1, max |Theta|) of the
    pair returned.

    Past max |Theta| = 1 every threshold scales with Theta as the quantity
    it bounds does, so a decision taken on the scaled pair is the one taken
    on the pair wherever nothing overflows there, bit for bit, and on the
    scaled pair no quadratic quantity such as Delta overflows."""
    th = pair.theta
    big = th.max_abs()
    if big <= 1.0:
        return pair, 1.0
    k = 1 - math.frexp(big)[1]
    th = Sym3(*(math.ldexp(v, k) for v in th.as_array().tolist()))
    return CauchyPair(th), math.ldexp(big, k)


# The four algebraic relations every admissible shape tensor satisfies.
_ALGEBRAIC = (
    ("Theta_ln*Theta_ul - Theta_ll*Theta_un", lambda t: t.ln * t.ul - t.ll * t.un),
    ("Theta_nn*Theta_ul - Theta_ln*Theta_un", lambda t: t.nn * t.ul - t.ln * t.un),
    (
        "Theta_ln*Theta_un + Theta_ul*(Theta_ll + Theta_uu)",
        lambda t: t.ln * t.un + t.ul * (t.ll + t.uu),
    ),
    (
        "Theta_ln*Theta_ul + Theta_un*(Theta_nn + Theta_uu)",
        lambda t: t.ln * t.ul + t.un * (t.nn + t.uu),
    ),
)


def _match_row(th: Sym3, inv: ThetaInvariants, scale: float, tol: float) -> str | None:
    """Structural match against the admissible-family table, first match
    wins: ``th`` and ``scale`` are what ``_scaled`` returns, ``inv`` the
    invariants of ``th``."""

    def zero(x):
        return abs(x) <= tol * scale

    def zero2(x):
        # quantities quadratic in the components
        return abs(x) <= tol * scale * scale

    # the lambda = 0 rows (_QD_ROWS), on which exact.branch takes the
    # quasi-diagonal closed form
    if zero(inv.lam):
        if zero(th.ll) and zero(th.ln) and zero(th.nn):
            return "R3"
        if zero(inv.T):
            return "E11"
        if zero2(inv.Delta):
            return "tau2+R (quasi-diagonal)"
        return "tau3mu"
    # lambda != 0 families
    if zero(th.uu) and zero(th.ll) and zero(th.ln) and zero(th.nn):
        return "tau2+R (lambda)"
    if (zero(th.un) and zero(th.ln) and zero(th.nn)
            and not zero(th.ul) and not zero(th.ll) and zero(th.uu + th.ll)):
        return "tau2+R (u-l)"
    if (zero(th.ul) and zero(th.ln) and zero(th.ll)
            and not zero(th.un) and not zero(th.nn) and zero(th.uu + th.nn)):
        return "tau2+R (u-n)"
    if not zero(th.ln) and not zero(th.ul) and not zero(th.un):
        if (
            zero2(th.nn * th.ul - th.un * th.ln)
            and zero2(th.ll * th.un - th.ul * th.ln)
            and zero(th.uu + inv.T)
        ):
            return "tau2+R (general)"
    return None


def validate(pair: CauchyPair, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the algebraic system and table membership; name the matched row."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    # decide on the scaled pair; the messages print the pair's own residuals
    scaled, scale = _scaled(pair)
    th = scaled.theta
    violations = [
        f"{name} = {f(pair.theta):.3e} != 0"
        for name, f in _ALGEBRAIC
        if abs(f(th)) > tol * scale * scale
    ]
    inv = invariants(scaled)
    if inv.lam > tol * scale and abs(inv.Delta) > tol * scale * scale:
        violations.append("lambda != 0 together with Delta != 0 is not admissible")
    row = _match_row(th, inv, scale, tol) if not violations else None
    if row is None and not violations:
        violations.append("component pattern matches no admissible family")
    return ValidationReport(valid=not violations, violations=violations, row=row)


def require_valid(pair: CauchyPair, tol: float = DEFAULT_TOL) -> ValidationReport:
    report = validate(pair, tol)
    if not report.valid:
        raise InvalidPair(report.violations)
    return report


# the group each row of the admissible-family table is realized on
_ROW_GROUPS = {
    "R3": GroupTag.R3, "E11": GroupTag.E11, "tau3mu": GroupTag.TAU3_MU,
    **dict.fromkeys(("tau2+R (quasi-diagonal)", "tau2+R (lambda)", "tau2+R (u-l)",
                     "tau2+R (u-n)", "tau2+R (general)"), GroupTag.TAU2_PLUS_R),
}
# the rows on which lambda = 0: their flows are quasi-diagonal
_QD_ROWS = frozenset(("R3", "E11", "tau2+R (quasi-diagonal)", "tau3mu"))


def classify(pair: CauchyPair, tol: float = DEFAULT_TOL) -> GroupType:
    """Isomorphism type of the underlying group: the group of the row that
    ``validate`` matches, so an invalid pair raises ``InvalidPair``.

    On a tau3mu row, mu is the eigenvalue ratio of the lower 2x2 block,
    computed on the pair as ``_scaled`` returns it: wherever nothing
    overflowed unscaled, mu is the same, bit for bit."""
    return _row_group(pair, require_valid(pair, tol).row, tol)


def _row_group(pair: CauchyPair, row: str, tol: float) -> GroupType:
    """``classify`` of ``pair``, given the row that ``validate`` matched."""
    tag = _ROW_GROUPS[row]
    if tag is not GroupTag.TAU3_MU:
        return GroupType(tag)
    pair, scale = _scaled(pair)
    th = pair.theta
    inv = invariants(pair)
    if abs(th.ln) > tol * scale:
        s = math.copysign(1.0, inv.T)
        root = math.sqrt(max(inv.T**2 - 4.0 * inv.Delta, 0.0))
        big = inv.T + s * root
        # T - s r cancels where 4 Delta << T^2; the product of the
        # eigenvalues, Delta, gives the small one there without it, and
        # |mu| <= 1/2 keeps its rounding off 1.  Elsewhere |T - s r| is at
        # most |T| + r in floats too, so |mu| <= 1
        small = 8.0 * abs(inv.Delta) < inv.T**2
        mu = 4.0 * inv.Delta / big**2 if small else (inv.T - s * root) / big
    elif abs(th.ll) >= abs(th.nn):
        mu = th.nn / th.ll
    else:
        mu = th.ll / th.nn
    if not 0.0 < abs(mu) <= 1.0 + tol:
        raise InvalidPair([f"tau3 ratio mu = {mu:.6g} outside the admissible range"])
    return GroupType(tag, mu=mu)


def constraints(pair: CauchyPair, tol: float = DEFAULT_TOL) -> ConstraintReport:
    """Vacuum Hamiltonian and momentum residuals of (h, Theta)."""
    require_valid(pair, tol)
    return _constraints(pair.theta, tol)


def _constraints(th: Sym3, tol: float) -> ConstraintReport:
    """``constraints`` of the pair with shape components ``th``, which the
    caller has validated, or evolved from a validated pair; H as
    ``_hamiltonians`` takes it.  One pair only: stacks read their own H_t."""
    c = structure_constants_from_theta(th)
    _, scal = frame_ricci(np.ones(3), c)
    # d Tr(Theta) vanishes for constant components, so the momentum residual
    # is the divergence alone.
    mom = divergence_sym(c, th)
    ham = next(_hamiltonians(scal, [th.as_array().tolist()]))
    scale = max(1.0, th.max_abs()) ** 2
    ok = abs(ham) <= tol * scale and float(np.max(np.abs(mom))) <= tol * scale
    return ConstraintReport(ham, mom, scal, ok)


def _hamiltonians(scal, rows):
    """H = R - |Theta|^2 + Tr(Theta)^2, the one formula of the package, at
    each of ``rows`` (components as Python floats) given R there.  Each H
    squares Python floats as it comes, so a consumer reading them in turn
    meets an OverflowError where one sample at a time would."""
    for r, (uu, ul, un, ll, ln, nn) in zip(np.ravel(scal).tolist(), rows):
        yield (r - (uu**2 + ll**2 + nn**2 + 2.0 * (ul**2 + un**2 + ln**2))
               + (uu + ll + nn) ** 2)


def is_constrained_ricci_flat(pair: CauchyPair, tol: float = DEFAULT_TOL) -> bool:
    return constraints(pair, tol).is_vacuum_admissible
