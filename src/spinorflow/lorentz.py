"""Lorentzian development of a flow: the four-metric -beta^2 dt^2 + h_t in
the moving orthonormal coframe (e_0, e_1, e_2, e_3) = (beta dt, e_u^t, e_l^t,
e_n^t), its frame curvature, and the null current data attached to the flow.

Everything is finite-dimensional algebra: the coframe differentials are
prescribed by the evolved shape components, and the only time dependence
enters through them, handled analytically via the ODE right-hand sides.

The coframe is built of a stack of samples (``exact._Samples``), one sample
per leading index.  ``_cells`` is the one evaluation of Ric4, H_t and the
identity residual of a stack, unrefused; ``_curvature`` refuses its cells as
``numeric._refuse`` rules, for the ``curvature`` command and for the
one-time entries ``curvature_report`` and ``verify_ricci_identity``, which
read a stack of one sample and so refuse as the command does.  The
``ricci4`` suite reads the same cells.  There is no scalar branch.  Ric4
is ``frames.frame_ricci`` of the coframe, evaluated in one call of the
kernel's ``ricci`` (``numeric._frame_ricci``).

Every check evaluates its stack: ``closedness_residual`` takes one form or
a stack of them, as ``_log_scale_differential`` gives them, and the
``cosymplectic`` suite makes one call per stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import _sample, _Samples
from .frames import index_matmul, sym_matrices
from .lapse import LapseProfile
from .numeric import _frame_ricci, _refuse, _theta_rhs
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
    stack = _sample(pair, profile, t, tol)
    frame = _coframe4(stack.comp, profile, stack.times)
    return Coframe4(t=frame.t.item(0), beta=frame.beta.item(0), C=frame.C[0],
                    dC0=frame.dC0[0])


def _coframe4(comp: np.ndarray, profile: LapseProfile, t: np.ndarray) -> Coframe4:
    """The stack of coframes at the times t, given the components of
    Theta_t there, one row per time."""
    t = np.asarray(t, dtype=float)
    # X_0 = (1/beta) d/dt is d/ds in s = B_t: dC0 from the shape rows of ode_rhs
    return Coframe4(
        t=t,
        beta=profile._betas(t),
        C=_structure4(sym_matrices(comp)),
        dC0=_structure4(sym_matrices(_theta_rhs(comp))),
    )


def ricci4(frame: Coframe4) -> Ricci4:
    """Ric4 of a coframe, or of each coframe of a stack."""
    ric, scal = _frame_ricci(ETA4, frame.C, frame.dC0)
    return Ricci4(components=0.5 * (ric + ric.swapaxes(-1, -2)), scalar=scal)


def verify_ricci_identity(pair: CauchyPair, profile: LapseProfile, t: float,
                          tol: float = DEFAULT_TOL) -> float:
    """Max-norm residual of Ric4 against (H_t/2) (e_0+e_1) tensor itself,
    the last cell of ``_curvature``, refused as the ``curvature`` command
    refuses it."""
    return _curvature(_sample(pair, profile, t, tol))[-1]


def dirac_current_frame(pair: CauchyPair, profile: LapseProfile, t: float,
                        tol: float = DEFAULT_TOL) -> DiracCurrentFrame:
    stack = _sample(pair, profile, t, tol)
    u = stack.frames[0]
    return DiracCurrentFrame(
        base_oneform=NULL_DIRECTION.copy(),
        log_scale_differential=_log_scale_differential(sym_matrices(stack.comp)[0], u),
        l_class_representative=np.concatenate([[0.0], u[1, :]]),
    )


def _log_scale_differential(theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """-Theta_t(e_u^t) expanded on the reference coframe, given the matrices
    of Theta_t and U_t, or the same of each sample of a stack: row u of
    Theta_t U_t, summed in index order."""
    return -index_matmul(theta[..., :1, :], u)[..., 0, :]


def closedness_residual(pair: CauchyPair, alpha: np.ndarray) -> float | np.ndarray:
    """Residual of d(alpha) = 0 for a left-invariant one-form with the given
    reference-coframe components, or of each form of a stack of them: a
    float for one form, an array for a stack.  The reference differentials
    are d e_a = Theta_ab e_b ^ e_u.  Theta_0 alpha is summed in index order,
    and the residual is |v_l| unless |v_n| is larger, as Python's ``max``
    takes it, so a NaN lands where one form at a time puts it."""
    v = np.abs(index_matmul(pair.theta.as_matrix(),
                            np.asarray(alpha, dtype=float)[..., None])[..., 0])
    res = np.where(v[..., 2] > v[..., 1], v[..., 2], v[..., 1])
    return float(res) if res.ndim == 0 else res


# The cells of one curvature sample, in this order: t, beta, the 16
# components of Ric4 row by row, its scalar, H_t and the identity residual,
# the max-norm residual of Ric4 against (H_t/2) (e_0+e_1) tensor itself.
_CURVATURE_CELLS = 21


def curvature_report(pair: CauchyPair, profile: LapseProfile, t: float,
                     tol: float = DEFAULT_TOL) -> dict:
    """JSON-ready curvature summary at one time, the cells of ``_curvature``.
    Raises SingularTime when a number of the summary is not finite."""
    t, beta, *ric, scalar, ham, residual = _curvature(_sample(pair, profile, t, tol))
    return {"t": t, "beta": beta, "ricci4": [ric[i:i + 4] for i in range(0, 16, 4)],
            "scalar4": scalar, "hamiltonian": ham, "identity_residual": residual}


def _cells(stack: _Samples) -> np.ndarray:
    """The ``_CURVATURE_CELLS`` cells of each sample of ``stack`` up to its
    last H_t, one row per sample, unrefused: a cell past the largest float
    is inf or NaN, with no warning."""
    frame = _coframe4(stack.comp, stack.profile, stack.times[:len(stack.comp)])
    hams = np.array(stack.ricci3[1])
    n = len(hams)
    with np.errstate(over="ignore", invalid="ignore"):
        ric = ricci4(frame)
        components = ric.components[:n]
        target = np.multiply.outer(0.5 * hams, _NULL_SQUARE)
        residual = np.abs(components - target).max(axis=(-2, -1))
    return np.column_stack([frame.t[:n], frame.beta[:n], components.reshape(-1, 16),
                            ric.scalar[:n], hams, residual])


def _curvature(stack: _Samples) -> tuple:
    """The curvature summaries at the samples of ``stack``, evaluated as
    one stack, as one flat tuple of Python floats: per sample, its row of
    ``_cells``.  A sample with a cell that is not finite is refused as
    ``numeric._refuse`` rules."""
    cells = _cells(stack)
    _, hams, raised = stack.ricci3
    _refuse("curvature", stack.times[:len(stack.comp)].tolist(),
            np.isfinite(cells).all(axis=1).tolist(), hams, raised, stack.pending)
    return tuple(cells.ravel().tolist())
