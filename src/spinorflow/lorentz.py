"""Lorentzian development of a flow: the four-metric -beta^2 dt^2 + h_t in
the moving orthonormal coframe (e_0, e_1, e_2, e_3) = (beta dt, e_u^t, e_l^t,
e_n^t), its frame curvature, and the null current data attached to the flow.

Everything is finite-dimensional algebra: the coframe differentials are
prescribed by the evolved shape components, and the only time dependence
enters through them, handled analytically via the ODE right-hand sides.

The coframe, Ric4 and the identity residual take optional leading axes, one
sample per index, so ``_curvature`` evaluates the stack of samples of a
command (``exact._Samples``) in one pass; scalar calls, which only the
one-time library entries make (no command does), are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import _Samples, solve, theta_exact
from .frames import Sym3, frame_ricci, sym_matrices
from .lapse import LapseProfile
from .numeric import _refuse, _theta_rhs, hamiltonian_of
from .pairs import CauchyPair, DEFAULT_TOL

ETA4 = np.array([-1.0, 1.0, 1.0, 1.0])

# Frame components of e_0 + e_1, the recurring null direction.
NULL_DIRECTION = np.array([1.0, 1.0, 0.0, 0.0])
_NULL_SQUARE = np.outer(NULL_DIRECTION, NULL_DIRECTION)


@dataclass(frozen=True)
class Coframe4:
    """Structure functions C[a][b][c] of the moving coframe at one time,
    antisymmetric in (b, c), plus their derivative along the unit timelike
    direction X_0 = (1/beta) d/dt.  A stack holds arrays of t and beta, and
    C and dC0 with a leading sample axis."""

    t: float
    beta: float
    C: np.ndarray    # (4, 4, 4)
    dC0: np.ndarray  # (4, 4, 4)


@dataclass(frozen=True)
class Ricci4:
    """Symmetric frame components of the 4D Ricci tensor, signature -+++;
    for a stack of coframes, an array of components and one of scalars."""

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
    """Structure functions from d e_a = Theta_ab e_b ^ (e_0 + e_1), for a
    matrix Theta or a stack of them."""
    c = np.zeros(theta.shape[:-2] + (4, 4, 4))
    # spatial labels shift by one; e_0 is the lapse direction.  The two
    # updates meet at c[a+1, 1, 1], which holds (0 + Theta_a0) - Theta_a0
    c[..., 1:, 0, 1:] = theta
    c[..., 1:, 1:, 0] = -theta
    c[..., 1:, 1, 1:] += theta
    c[..., 1:, 1:, 1] -= theta
    return c


def coframe4_at(pair: CauchyPair, profile: LapseProfile, t: float,
                tol: float = DEFAULT_TOL) -> Coframe4:
    """Structure functions of the moving coframe at flow time t."""
    return _coframe4(theta_exact(pair, profile, t, tol), profile, t)


def _coframe4(th_t, profile: LapseProfile, t) -> Coframe4:
    """The coframe at flow time t, given the shape components Theta_t there
    as a Sym3; or the stack of coframes at the times t, given an array of
    components with one row per time."""
    if isinstance(th_t, Sym3):
        th_t, t, beta = th_t.as_array(), float(t), profile.beta(t)
    else:
        t = np.asarray(t, dtype=float)
        beta = profile._betas(t)
    # X_0 = (1/beta) d/dt is d/ds in s = B_t: dC0 from the shape rows of ode_rhs
    return Coframe4(
        t=t,
        beta=beta,
        C=_structure4(sym_matrices(th_t)),
        dC0=_structure4(sym_matrices(_theta_rhs(th_t))),
    )


def ricci4(frame: Coframe4) -> Ricci4:
    """Ric4 of a coframe, or of each coframe of a stack."""
    ric, scal = frame_ricci(ETA4, frame.C, frame.dC0)
    return Ricci4(components=0.5 * (ric + ric.swapaxes(-1, -2)), scalar=scal)


def _identity_residual(components: np.ndarray, ham):
    """Max-norm residual of Ric4 against (H/2) (e_0+e_1) tensor itself, or
    the residual of each sample of a stack of Ric4 and of H."""
    target = np.multiply.outer(0.5 * np.asarray(ham), _NULL_SQUARE)
    residual = np.abs(components - target).max(axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual


def verify_ricci_identity(pair: CauchyPair, profile: LapseProfile, t: float,
                          tol: float = DEFAULT_TOL) -> float:
    """Max-norm residual of Ric4 against (H_t/2) (e_0+e_1) tensor itself."""
    th_t = theta_exact(pair, profile, t, tol)
    return _identity_residual(ricci4(_coframe4(th_t, profile, t)).components,
                              hamiltonian_of(th_t))


def dirac_current_frame(pair: CauchyPair, profile: LapseProfile, t: float,
                        tol: float = DEFAULT_TOL) -> DiracCurrentFrame:
    sol = solve(pair, tol)
    bt = profile.b_integral(t)
    th_t = sol.theta_at(bt).as_matrix()
    u = sol.frame_at(bt)
    return DiracCurrentFrame(
        base_oneform=NULL_DIRECTION.copy(),
        log_scale_differential=_log_scale_differential(th_t, u),
        l_class_representative=np.concatenate([[0.0], u[1, :]]),
    )


def _log_scale_differential(theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """-Theta_t(e_u^t) expanded on the reference coframe, given the matrices
    of Theta_t and U_t, or the same of each sample of a stack."""
    return -(theta @ u)[..., 0, :]


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
    return _curvature(_Samples(solve(pair, tol), profile, [t]))[0]


def _curvature(stack: _Samples) -> list[dict]:
    """The curvature summaries at the samples of ``stack``, evaluated as
    one stack and refused as ``numeric._refuse`` rules on the numbers of
    each summary."""
    frame = _coframe4(stack.comp, stack.profile, stack.times[:len(stack.comp)])
    _, hams, raised = stack.ricci3
    with np.errstate(over="ignore", invalid="ignore"):
        ric = ricci4(frame)
        n = len(hams)
        components = ric.components[:n]
        residual = _identity_residual(components, np.array(hams))
    finite = (np.isfinite(ric.scalar[:n]) & np.isfinite(residual)
              & np.isfinite(components).all(axis=(1, 2))).tolist()
    times = frame.t.tolist()
    _refuse("curvature", times, finite, hams, raised, stack.pending)
    return [{"t": x, "beta": beta, "ricci4": r, "scalar4": scalar, "hamiltonian": ham,
             "identity_residual": res}
            for x, beta, r, scalar, ham, res in zip(
                times, frame.beta.tolist(), components.tolist(), ric.scalar.tolist(),
                hams, residual.tolist())]
