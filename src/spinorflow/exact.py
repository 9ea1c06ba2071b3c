"""Closed-form evolution of the flow: shape components, coframe transform
U_t (the metric family is h_t = U_t^T U_t), Hamiltonian evolution, lifespan.

Branch structure follows the invariant lambda = sqrt(Theta_ul^2 + Theta_un^2):
the quasi-diagonal branch (lambda = 0) evolves by the scalar factor
s_t = 1 - Theta_uu * B_t, while lambda != 0 evolves through
y_t = lambda * B_t + arctan(Theta_uu / lambda) with trigonometric profiles.
``decision`` decides the pair in Python floats, with no numpy: its branch,
read off the row of the admissible-family table the pair matches, every
scalar constant the pair fixes, and its lifespan; this module re-exports
``Lifespan``, ``branch`` and ``lifespan``.  ``solve`` builds a
``FlowSolution`` on that decision, which evaluates a whole grid of B_t in
one pass (``_Samples``), the stacks every command reads.  The lifespan
guard is taken once per grid, and each closed form then reads the guarded
prefix as plain arrays.  The one-time functions, which no command calls,
read one ``solve`` each: at one t, a checked stack of one sample
(``_sample``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .decision import NONQD, QD, Decision, Lifespan, branch, lifespan
from .errors import NotApplicable, SingularTime
from .frames import L, N, U, EigenData2, Sym3, eigen2x2, index_matmul
from .lapse import LapseProfile
from .numeric import _States, _curvature3, _state_from_vector
from .pairs import CauchyPair, DEFAULT_TOL

_SINGULAR_GUARD = 1e-12


def expm(a: np.ndarray) -> np.ndarray:
    """Exponential of a symmetric 2x2 matrix: Q diag(e^rho+, e^rho-) Q^T,
    with the bits of ``index_matmul(index_matmul(Q, diag), Q.T)``, the
    products with the zeros of diag included, in Python floats, which cost
    one sample less than numpy's arrays do."""
    eig = eigen2x2(a)
    q, (ep, em) = eig.Q.tolist(), np.exp([eig.rho_plus, eig.rho_minus]).tolist()
    qd = [(x0 * ep + x1 * 0.0, x0 * 0.0 + x1 * em) for x0, x1 in q]
    # the rows of Q are the columns of Q^T
    return np.array([[x0 * y0 + x1 * y1 for y0, y1 in q] for x0, x1 in qd])


class FlowSolution(Decision):
    """The closed-form flow of one pair, built on its ``Decision`` (branch,
    constants, ``lifespan``); ``solve`` builds it.  ``_guarded`` is the one
    test of where the closed form stops: it takes an array of B_t to the
    prefix of samples before the lifespan boundary, as s_t or y_t, and the
    SingularTime of the sample there.  ``_theta_stack``, ``_frame_stack``
    and ``_hamiltonian_stack`` take that guarded prefix and give Theta_t,
    U_t and H_t as arrays, one entry per sample.  Each sample gets the
    operations of a sample of its own, in its order: only + - * / run on
    arrays, and math.cos, math.tan and ** stay scalar calls.  There is no
    per-sample method: one time is a stack of one sample (``theta_exact``).

    ``eig`` (QD) is the eigen data of the lower 2x2 block over Theta_uu, or
    None where Theta_uu is zero within tol and off the QD branch; ``eta``
    (NONQD) holds the evolved-frame components of the parallel one-form,
    which are constant in t, or None on the QD branch.  Both come on first
    use."""

    @functools.cached_property
    def eig(self) -> EigenData2 | None:
        if self.branch == NONQD or self.flat:
            return None
        th = self.pair.theta
        return eigen2x2(np.array([[th.ll, th.ln], [th.ln, th.nn]]) / th.uu)

    @functools.cached_property
    def eta(self) -> np.ndarray | None:
        if self.branch == QD:
            return None
        th = self.pair.theta
        return np.array([0.0, th.un, -th.ul]) / self.lam

    def _guarded(self, bts: np.ndarray) -> tuple[np.ndarray, SingularTime | None]:
        """s_t = 1 - Theta_uu B_t (QD) or y_t (NONQD) at each of ``bts``, up
        to the first sample at the lifespan boundary, and its SingularTime."""
        if self.branch == QD:
            v = 1.0 - self.pair.theta.uu * bts
            bad = (np.abs(v) < _SINGULAR_GUARD) | (v < 0.0)
            text = "1 - Theta_uu*B_t = {:.3e} at the lifespan boundary"
        else:
            v = self.lam * bts + self.y0
            bad = math.pi / 2 - np.abs(v) < _SINGULAR_GUARD
            text = "y_t = {:.12f} at the lifespan boundary"
        n = int(bad.argmax()) if bad.any() else len(v)
        return v[:n], SingularTime(text.format(v[n])) if n < len(v) else None

    def _frames(self, bts: np.ndarray) -> np.ndarray:
        """U_t at every one of ``bts``, or the guard's SingularTime where
        ``_frame_stack`` stops short of them."""
        v, raised = self._guarded(bts)
        us = self._frame_stack(v, bts)
        if len(us) < len(bts):
            raise raised
        return us

    def _theta_stack(self, v: np.ndarray) -> np.ndarray:
        """Theta_t at each guarded value of ``v``: components, one row per
        sample."""
        th = self.pair.theta
        if self.branch == QD:
            return th.as_array() / v[:, None]
        lam, ys = self.lam, v.tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            sec = 1.0 / np.array([math.cos(y) for y in ys])
            tan = np.array([math.tan(y) for y in ys])
            return np.column_stack([
                lam * tan, np.full(len(ys), th.ul), np.full(len(ys), th.un),
                self.c_ll * sec - (th.ul**2 / lam) * tan,
                self.c_ln * sec - (th.ul * th.un / lam) * tan,
                self.c_nn * sec - (th.un**2 / lam) * tan]).reshape(-1, 6)

    def _frame_stack(self, v: np.ndarray, bts: np.ndarray) -> np.ndarray:
        """U_t at each guarded value of ``v`` and its B_t, the first
        ``len(v)`` of ``bts``: one matrix per sample.  Where Theta_uu is zero
        within tol, U_t takes no guard and comes at every one of ``bts``.  A
        frame past the largest float is inf or NaN, with no warning: its
        consumer refuses it."""
        th = self.pair.theta
        with np.errstate(over="ignore", invalid="ignore"):
            if self.branch == QD and self.flat:
                # formal limit Theta_uu -> 0: lower block is a matrix exponential
                theta2 = np.array([[th.ll, th.ln], [th.ln, th.nn]])
                u = np.tile(np.eye(3), (len(bts), 1, 1))
                for ui, bt in zip(u, bts):
                    ui[1:, 1:] = expm(-bt * theta2)
                return u
            n = len(v)
            if self.branch == QD:
                eig = self.eig
                u = np.tile(np.eye(3), (n, 1, 1))
                u[:, U, U] = v
                diag = np.array([[[s**eig.rho_plus, 0.0], [0.0, s**eig.rho_minus]] for s in v])
                u[:, 1:, 1:] = index_matmul(index_matmul(eig.Q, diag.reshape(-1, 2, 2)),
                                            eig.Q.T)
                return u
            # lambda != 0, a single nonzero off-diagonal component included
            lam, bt = self.lam, bts[:n]
            tan = np.array([math.tan(y) for y in v.tolist()])
            u = np.empty((n, 3, 3))
            u[:, U, U] = 1.0 - th.uu * bt
            u[:, U, L] = -th.ul * bt
            u[:, U, N] = -th.un * bt
            slope = (th.uu / lam - (1.0 - th.uu * bt) * tan) / lam
            u[:, L, U] = th.ul * slope
            u[:, N, U] = th.un * slope
            u[:, L, L] = 1.0 + th.ul**2 * bt * tan / lam
            u[:, L, N] = th.ul * th.un * bt * tan / lam
            u[:, N, L] = u[:, L, N]
            u[:, N, N] = 1.0 + th.un**2 * bt * tan / lam
        # -x * 0.0 is -0.0 (a zero Theta_ul or Theta_un, or B_t = 0); store +0.0
        return u + 0.0

    def _hamiltonian_stack(self, h0: float, v: np.ndarray) -> np.ndarray:
        """H_t from its initial value h0 at each guarded value of ``v``.
        Raises the ArithmeticError of its constant, which is met once a
        sample passes the guard."""
        if self.branch == QD:
            # numpy scalar squares: inf past the largest float, no OverflowError
            return h0 / np.array([s**2 for s in v])
        lam, uu = self.lam, self.pair.theta.uu
        k = lam**2 * h0 / (lam**2 + uu**2) if len(v) else 0.0  # Python-float squares
        with np.errstate(over="ignore", invalid="ignore"):
            return k / np.array([math.cos(y) ** 2 for y in v.tolist()])


def solve(pair: CauchyPair, tol: float = DEFAULT_TOL) -> FlowSolution:
    """The closed-form flow of ``pair``: its branch and constants.  Raises
    InvalidPair where ``pair`` is not admissible within tol (``branch``)."""
    return FlowSolution.of(pair, tol)


class _Samples:
    """The closed form ``sol`` at the flow ``times``, each quantity a
    command or a suite reads of it evaluated once per grid, as one record
    of arrays: ``bts`` holds B_t at each time, ``v`` and ``pending`` what
    ``sol._guarded`` gives of them, the prefix of samples before the
    lifespan boundary and the SingularTime of the sample there (or None),
    and ``comp`` the components of Theta_t, one row per sample of ``v``.
    U_t (``frames``), and Ric and H_t of the 3D frame, come on first use at
    the same rows; ``check`` raises the exception of the earliest sample,
    as one sample at a time would, and ``states`` gives the flow states."""

    def __init__(self, sol: FlowSolution, profile: LapseProfile, times):
        self.sol, self.profile = sol, profile
        self.times = np.asarray(times, dtype=float)
        self.bts = profile.b_integral(self.times)
        self.v, self.pending = sol._guarded(self.bts)
        self.comp = sol._theta_stack(self.v)

    @functools.cached_property
    def frames(self) -> np.ndarray:
        return self.sol._frame_stack(self.v, self.bts[:len(self.v)])

    @functools.cached_property
    def ricci3(self) -> tuple[np.ndarray, list[float], Exception | None]:
        return _curvature3(self.comp)

    def states(self) -> _States:
        """The flow states at the samples (``numeric._state_from_vector``)."""
        n = len(self.comp)
        return _state_from_vector(self.times[:n], self.comp, self.frames, [None] * n,
                                  *self.ricci3[1:], self.pending)

    def check(self, raised: Exception | None = None) -> None:
        """Raise ``raised``, met before ``pending``, or else ``pending``."""
        if raised or self.pending:
            raise raised or self.pending


def nonqd_coefficients(pair: CauchyPair, tol: float = DEFAULT_TOL) -> FlowSolution:
    """The solution of a lambda != 0 pair, with its y0, c_ll, c_nn, c_ln."""
    sol = solve(pair, tol)
    if sol.branch == QD:
        raise NotApplicable("coefficients only defined for lambda != 0")
    return sol


def _sample(pair: CauchyPair, profile: LapseProfile, t: float, tol: float) -> _Samples:
    """The stack of one sample at flow time t, or the exception of that
    sample (OutOfDomain off a table, SingularTime at the lifespan boundary)."""
    stack = _Samples(solve(pair, tol), profile, [t])
    stack.check()
    return stack


def theta_exact(pair: CauchyPair, profile: LapseProfile, t: float,
                tol: float = DEFAULT_TOL) -> Sym3:
    """Shape components at flow time t."""
    return Sym3.from_array(_sample(pair, profile, t, tol).comp[0])


def frame_exact(pair: CauchyPair, profile: LapseProfile, t: float,
                tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coframe transform U(t): e^t_a = U_ab e_b, U(0) = Id, det U > 0.
    Where Theta_uu is zero within tol, U(t) takes no guard (``_frames``)."""
    return solve(pair, tol)._frames(profile.b_integral(np.array([t], dtype=float)))[0]


def hamiltonian_exact(pair: CauchyPair, h0: float, profile: LapseProfile, t: float,
                      tol: float = DEFAULT_TOL) -> float:
    """Evolved Hamiltonian residual from its initial value h0."""
    stack = _sample(pair, profile, t, tol)
    return stack.sol._hamiltonian_stack(h0, stack.v)[0]
