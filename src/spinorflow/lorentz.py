"""Lorentzian development of a flow: the four-metric -beta^2 dt^2 + h_t in
the moving orthonormal coframe (e_0, e_1, e_2, e_3) = (beta dt, e_u^t, e_l^t,
e_n^t), its frame curvature, and the null current data attached to the flow.

Everything is finite-dimensional algebra: the coframe differentials are
prescribed by the evolved shape components, and the only time dependence
enters through them, handled analytically via the ODE right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularTime
from .exact import FlowSolution, solve, theta_exact
from .frames import Sym3, frame_ricci
from .lapse import LapseProfile
from .numeric import hamiltonian_of, ode_rhs
from .pairs import CauchyPair, DEFAULT_TOL

ETA4 = np.array([-1.0, 1.0, 1.0, 1.0])

# Frame components of e_0 + e_1, the recurring null direction.
NULL_DIRECTION = np.array([1.0, 1.0, 0.0, 0.0])


@dataclass(frozen=True)
class Coframe4:
    """Structure functions C[a][b][c] of the moving coframe at one time,
    antisymmetric in (b, c), plus their derivative along the unit timelike
    direction X_0 = (1/beta) d/dt."""

    t: float
    beta: float
    C: np.ndarray    # (4, 4, 4)
    dC0: np.ndarray  # (4, 4, 4)


@dataclass(frozen=True)
class Ricci4:
    """Symmetric frame components of the 4D Ricci tensor, signature -+++."""

    components: np.ndarray  # (4, 4)
    scalar: float


@dataclass(frozen=True)
class DiracCurrentFrame:
    """Frame data of the null current, up to its non-left-invariant scale.

    The scale enters only through its differential, reported as the
    left-invariant one-form with the given reference-coframe components.
    """

    base_oneform: np.ndarray            # (4,), components on (e_0, ..., e_3)
    log_scale_differential: np.ndarray  # (3,), components on the reference coframe
    l_class_representative: np.ndarray  # (4,)


def _structure4(theta: np.ndarray) -> np.ndarray:
    """Structure functions from d e_a = Theta_ab e_b ^ (e_0 + e_1)."""
    c = np.zeros((4, 4, 4))
    for a in range(3):
        for b in range(3):
            # spatial labels shift by one; e_0 is the lapse direction
            c[a + 1, 0, b + 1] = theta[a, b]
            c[a + 1, b + 1, 0] = -theta[a, b]
            c[a + 1, 1, b + 1] += theta[a, b]
            c[a + 1, b + 1, 1] -= theta[a, b]
    return c


def coframe4_at(pair: CauchyPair, profile: LapseProfile, t: float,
                tol: float = DEFAULT_TOL) -> Coframe4:
    """Structure functions of the moving coframe at flow time t."""
    return _coframe4(theta_exact(pair, profile, t, tol), profile, t)


def _coframe4(th_t: Sym3, profile: LapseProfile, t: float) -> Coframe4:
    """The coframe at flow time t, given the shape components Theta_t there."""
    # derivative along the unit direction X_0 = (1/beta) d/dt, which is
    # d/ds in s = B_t: what ode_rhs gives
    dth, _ = ode_rhs(th_t, np.eye(3))
    return Coframe4(
        t=float(t),
        beta=profile.beta(t),
        C=_structure4(th_t.as_matrix()),
        dC0=_structure4(dth.as_matrix()),
    )


def ricci4(frame: Coframe4) -> Ricci4:
    ric, scal = frame_ricci(ETA4, frame.C, frame.dC0)
    return Ricci4(components=0.5 * (ric + ric.T), scalar=scal)


def _identity_residual(ric: Ricci4, ham: float) -> float:
    """Max-norm residual of Ric4 against (H/2) (e_0+e_1) tensor itself."""
    target = 0.5 * ham * np.outer(NULL_DIRECTION, NULL_DIRECTION)
    return float(np.max(np.abs(ric.components - target)))


def verify_ricci_identity(pair: CauchyPair, profile: LapseProfile, t: float,
                          tol: float = DEFAULT_TOL) -> float:
    """Max-norm residual of Ric4 against (H_t/2) (e_0+e_1) tensor itself."""
    th_t = theta_exact(pair, profile, t, tol)
    return _identity_residual(ricci4(_coframe4(th_t, profile, t)), hamiltonian_of(th_t))


def dirac_current_frame(pair: CauchyPair, profile: LapseProfile, t: float,
                        tol: float = DEFAULT_TOL) -> DiracCurrentFrame:
    return _dirac_current(solve(pair, tol), profile.b_integral(t))


def _dirac_current(sol: FlowSolution, bt: float) -> DiracCurrentFrame:
    """The current frame where the lapse integral is B_t = bt."""
    th_t = sol.theta_at(bt).as_matrix()
    u = sol.frame_at(bt).U
    # -Theta_t(e_u^t) expanded on the reference coframe
    log_scale = -(th_t @ u)[0, :]
    l_rep = np.concatenate([[0.0], u[1, :]])
    return DiracCurrentFrame(
        base_oneform=NULL_DIRECTION.copy(),
        log_scale_differential=log_scale,
        l_class_representative=l_rep,
    )


def closedness_residual(pair: CauchyPair, alpha: np.ndarray) -> float:
    """Residual of d(alpha) = 0 for a left-invariant one-form with the given
    reference-coframe components; the reference differentials are
    d e_a = Theta_ab e_b ^ e_u."""
    v = pair.theta.as_matrix() @ np.asarray(alpha, dtype=float)
    return float(max(abs(v[1]), abs(v[2])))


def curvature_report(pair: CauchyPair, profile: LapseProfile, t: float,
                     tol: float = DEFAULT_TOL) -> dict:
    """JSON-ready curvature summary at one time.  Theta_t, the coframe, Ric4
    and H_t are evaluated once, and the identity residual is taken from
    them.  Raises SingularTime when a number of the summary is not finite."""
    return _curvature(theta_exact(pair, profile, t, tol), profile, t)


def _curvature(th_t: Sym3, profile: LapseProfile, t: float) -> dict:
    """The curvature summary at flow time t, given Theta_t there."""
    frame = _coframe4(th_t, profile, t)
    with np.errstate(over="ignore", invalid="ignore"):
        ric = ricci4(frame)
        ham = hamiltonian_of(th_t)
        residual = _identity_residual(ric, ham)
    numbers = [ric.scalar, ham, residual, *ric.components.ravel().tolist()]
    if not all(map(math.isfinite, numbers)):
        raise SingularTime(f"the curvature at t = {t:.12g} is not finite")
    return {
        "t": float(t),
        "beta": frame.beta,
        "ricci4": ric.components.tolist(),
        "scalar4": ric.scalar,
        "hamiltonian": ham,
        "identity_residual": residual,
    }
