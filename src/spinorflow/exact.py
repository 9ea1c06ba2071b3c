"""Closed-form evolution of the flow: shape components, coframe transform,
metric family, Hamiltonian evolution, lifespan.

Branch structure follows the invariant lambda = sqrt(Theta_ul^2 + Theta_un^2):
the quasi-diagonal branch (lambda = 0) evolves by the scalar factor
s_t = 1 - Theta_uu * B_t, while lambda != 0 evolves through
y_t = lambda * B_t + arctan(Theta_uu / lambda) with trigonometric profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable, SingularTime
from .frames import L, N, U, Sym3, eigen2x2
from .lapse import LapseProfile
from .pairs import CauchyPair, DEFAULT_TOL, invariants

_SINGULAR_GUARD = 1e-12

# Branch names used for dispatch.
QD = "quasi-diagonal"         # lambda = 0
NONQD = "non-quasi-diagonal"  # lambda != 0


@dataclass(frozen=True)
class NonQDCoefficients:
    """Integration constants of the lambda != 0 shape solution."""

    y0: float
    c_ll: float
    c_nn: float
    c_ln: float


@dataclass(frozen=True)
class FrameTransform:
    """Linear map U with e^t_a = U_ab e_b; U(0) = Id, det U > 0."""

    U: np.ndarray


@dataclass(frozen=True)
class Lifespan:
    """Maximal interval (t_minus, t_plus).

    An end is -inf or +inf only for a constant lapse that never reaches a
    singularity on that side.  With a tabulated lapse, an end the table does
    not reach is None (unknown boundary: the lapse is exhausted first), on
    every branch."""

    t_minus: float | None
    t_plus: float | None
    immortal: bool
    note: str | None = None


def branch(pair: CauchyPair, tol: float = DEFAULT_TOL) -> str:
    """QD where lambda is zero within tol, relative to max(1, max |Theta|)."""
    th = pair.theta
    return QD if math.hypot(th.ul, th.un) <= tol * max(1.0, th.max_abs()) else NONQD


def expm(a: np.ndarray) -> np.ndarray:
    """Exponential of a symmetric 2x2 matrix: Q diag(e^rho+, e^rho-) Q^T."""
    eig = eigen2x2(a)
    return eig.Q @ np.diag(np.exp([eig.rho_plus, eig.rho_minus])) @ eig.Q.T


def nonqd_coefficients(pair: CauchyPair, tol: float = DEFAULT_TOL) -> NonQDCoefficients:
    if branch(pair, tol) == QD:
        raise NotApplicable("coefficients only defined for lambda != 0")
    th = pair.theta
    lam = invariants(pair).lam
    denom = lam * math.hypot(lam, th.uu)
    return NonQDCoefficients(
        y0=math.atan2(th.uu, lam),
        c_ll=(th.ll * lam**2 + th.ul**2 * th.uu) / denom,
        c_nn=(th.nn * lam**2 + th.un**2 * th.uu) / denom,
        c_ln=(th.ln * lam**2 + th.ul * th.un * th.uu) / denom,
    )


def _qd_factor(pair: CauchyPair, bt: float) -> float:
    s = 1.0 - pair.theta.uu * bt
    if abs(s) < _SINGULAR_GUARD or s < 0.0:
        raise SingularTime(f"1 - Theta_uu*B_t = {s:.3e} at the lifespan boundary")
    return s


def _y_at(pair: CauchyPair, bt: float) -> float:
    lam = invariants(pair).lam
    y = lam * bt + math.atan2(pair.theta.uu, lam)
    if math.pi / 2 - abs(y) < _SINGULAR_GUARD:
        raise SingularTime(f"y_t = {y:.12f} at the lifespan boundary")
    return y


def theta_exact(pair: CauchyPair, profile: LapseProfile, t: float,
                tol: float = DEFAULT_TOL) -> Sym3:
    """Shape components at flow time t."""
    th = pair.theta
    bt = profile.b_integral(t)
    if branch(pair, tol) == QD:
        s = _qd_factor(pair, bt)
        return Sym3.from_array(th.as_array() / s)
    lam = invariants(pair).lam
    y = _y_at(pair, bt)
    co = nonqd_coefficients(pair, tol)
    sec, tan = 1.0 / math.cos(y), math.tan(y)
    return Sym3(
        uu=lam * tan,
        ul=th.ul,
        un=th.un,
        ll=co.c_ll * sec - (th.ul**2 / lam) * tan,
        ln=co.c_ln * sec - (th.ul * th.un / lam) * tan,
        nn=co.c_nn * sec - (th.un**2 / lam) * tan,
    )


def frame_exact(pair: CauchyPair, profile: LapseProfile, t: float,
                tol: float = DEFAULT_TOL) -> FrameTransform:
    """Coframe transform U(t) with e^t = U e, U(0) = Id."""
    th = pair.theta
    bt = profile.b_integral(t)

    if branch(pair, tol) == QD:
        scale = max(1.0, th.max_abs())
        u = np.eye(3)
        if abs(th.uu) <= tol * scale:
            # formal limit Theta_uu -> 0: lower block is a matrix exponential
            theta2 = np.array([[th.ll, th.ln], [th.ln, th.nn]])
            u[1:, 1:] = expm(-bt * theta2)
            return FrameTransform(u)
        s = _qd_factor(pair, bt)
        eig = eigen2x2(np.array([[th.ll, th.ln], [th.ln, th.nn]]) / th.uu)
        u[U, U] = s
        u[1:, 1:] = eig.Q @ np.diag([s**eig.rho_plus, s**eig.rho_minus]) @ eig.Q.T
        return FrameTransform(u)

    # lambda != 0, a single nonzero off-diagonal component included
    lam = invariants(pair).lam
    y = _y_at(pair, bt)
    tan = math.tan(y)
    u = np.empty((3, 3))
    u[U, U] = 1.0 - th.uu * bt
    u[U, L] = -th.ul * bt
    u[U, N] = -th.un * bt
    slope = (th.uu / lam - (1.0 - th.uu * bt) * tan) / lam
    u[L, U] = th.ul * slope
    u[N, U] = th.un * slope
    u[L, L] = 1.0 + th.ul**2 * bt * tan / lam
    u[L, N] = th.ul * th.un * bt * tan / lam
    u[N, L] = u[L, N]
    u[N, N] = 1.0 + th.un**2 * bt * tan / lam
    # -x * 0.0 is -0.0 (a zero Theta_ul or Theta_un, or B_t = 0); store +0.0
    return FrameTransform(u + 0.0)


def metric_exact(pair: CauchyPair, profile: LapseProfile, t: float,
                 tol: float = DEFAULT_TOL) -> Sym3:
    """Induced metric h_t = U^T U in the reference coframe basis."""
    u = frame_exact(pair, profile, t, tol).U
    return Sym3.from_matrix(u.T @ u)


def hamiltonian_exact(pair: CauchyPair, h0: float, profile: LapseProfile, t: float,
                      tol: float = DEFAULT_TOL) -> float:
    """Evolved Hamiltonian residual from its initial value h0."""
    th = pair.theta
    bt = profile.b_integral(t)
    if branch(pair, tol) == QD:
        s = _qd_factor(pair, bt)
        return h0 / s**2
    lam = invariants(pair).lam
    y = _y_at(pair, bt)
    return (lam**2 * h0 / (lam**2 + th.uu**2)) / math.cos(y) ** 2


def lifespan(pair: CauchyPair, profile: LapseProfile, tol: float = DEFAULT_TOL) -> Lifespan:
    """Maximal interval of definition around t = 0."""
    th = pair.theta
    if branch(pair, tol) == QD:
        scale = max(1.0, th.max_abs())
        if abs(th.uu) <= tol * scale:
            if profile.kind == "constant":
                return Lifespan(-math.inf, math.inf, immortal=True)
            lo, hi = profile.domain()
            return Lifespan(None, None, immortal=False,
                            note=f"no singularity inside the tabulated domain [{lo}, {hi}]")
        t0 = profile.solve_b(1.0 / th.uu)
        note = ("boundary taken on the side matching sign(Theta_uu); the backward "
                "lapse integral is the relevant one for Theta_uu < 0")
        # the other side never becomes singular: it is unbounded for a
        # constant lapse and unknown past the end of a table
        lo, hi = (-math.inf, math.inf) if profile.kind == "constant" else (None, None)
        if th.uu > 0:
            return Lifespan(lo, t0, immortal=False, note=note)
        return Lifespan(t0, hi, immortal=False, note=note)

    lam = invariants(pair).lam
    y0 = math.atan2(th.uu, lam)
    t_plus = profile.solve_b((math.pi / 2 - y0) / lam)
    t_minus = profile.solve_b((-math.pi / 2 - y0) / lam)
    # y_t reaches +-pi/2 in finite B, so only a table can leave an end None
    return Lifespan(t_minus, t_plus, immortal=False)


def eta_oneform(pair: CauchyPair, profile: LapseProfile, t: float,
                tol: float = DEFAULT_TOL) -> np.ndarray:
    """Components in the reference coframe of the parallel unit one-form
    (Theta_un e^t_l - Theta_ul e^t_n) / lambda; only defined for lambda != 0."""
    if branch(pair, tol) == QD:
        raise NotApplicable("eta is only defined on the lambda != 0 branches")
    th = pair.theta
    u = frame_exact(pair, profile, t, tol).U
    return (th.un * u[L, :] - th.ul * u[N, :]) / invariants(pair).lam
