"""Closed-form evolution of the flow: shape components, coframe transform
U_t (the metric family is h_t = U_t^T U_t), Hamiltonian evolution, lifespan.

Branch structure follows the invariant lambda = sqrt(Theta_ul^2 + Theta_un^2):
the quasi-diagonal branch (lambda = 0) evolves by the scalar factor
s_t = 1 - Theta_uu * B_t, while lambda != 0 evolves through
y_t = lambda * B_t + arctan(Theta_uu / lambda) with trigonometric profiles.
Whether lambda = 0 is read off the row of the admissible-family table that
the pair matches (``pairs._QD_ROWS``), so the closed forms are only ever
taken of an admissible pair.  ``solve`` decides the pair once: it validates
it, raising InvalidPair when it is not admissible, and builds a
``FlowSolution`` that holds every constant the pair fixes and evaluates a
whole grid of B_t in one pass (``_Samples``), the stacks every command
reads.  The lifespan guard is taken once per grid, and each closed form
then reads the guarded prefix as plain arrays.  The one-time functions,
which no command calls, read one ``solve`` each: at one t, a checked stack
of one sample (``_sample``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable, SingularTime
from .frames import L, N, U, EigenData2, Sym3, eigen2x2
from .lapse import LapseProfile
from .numeric import _States, _curvature3, _state_from_vector
from .pairs import _QD_ROWS, CauchyPair, DEFAULT_TOL, invariants, require_valid

_SINGULAR_GUARD = 1e-12

# Branch names used for dispatch.
QD = "quasi-diagonal"         # lambda = 0
NONQD = "non-quasi-diagonal"  # lambda != 0


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

    def inside(self, profile: LapseProfile, far: float) -> tuple[float, float]:
        """The lifespan cut to the domain of ``profile``, an unbounded or
        unknown (None) end first taken at -far or +far."""
        lo = -far if self.t_minus is None or math.isinf(self.t_minus) else self.t_minus
        hi = far if self.t_plus is None or math.isinf(self.t_plus) else self.t_plus
        dlo, dhi = profile.domain()
        return max(lo, dlo), min(hi, dhi)


def branch(pair: CauchyPair, tol: float = DEFAULT_TOL) -> str:
    """QD on the lambda = 0 rows of the admissible-family table, NONQD on
    the others; InvalidPair where ``pair`` is not admissible within tol."""
    return QD if require_valid(pair, tol).row in _QD_ROWS else NONQD


def expm(a: np.ndarray) -> np.ndarray:
    """Exponential of a symmetric 2x2 matrix: Q diag(e^rho+, e^rho-) Q^T."""
    eig = eigen2x2(a)
    return eig.Q @ np.diag(np.exp([eig.rho_plus, eig.rho_minus])) @ eig.Q.T


@dataclass(frozen=True)
class FlowSolution:
    """The closed-form flow of one pair, with every constant the pair fixes;
    ``solve`` builds it.  ``_guarded`` is the one test of where the closed
    form stops: it takes an array of B_t to the prefix of samples before the
    lifespan boundary, as s_t or y_t, and the SingularTime of the sample
    there.  ``_theta_stack``, ``_frame_stack`` and ``_hamiltonian_stack``
    take that guarded prefix and give Theta_t, U_t and H_t as arrays, one
    entry per sample.  Each sample gets the operations of a sample of its
    own, in its order: only + - * / run on arrays, and math.cos, math.tan
    and ** stay scalar calls.  There is no per-sample method: one time is a
    stack of one sample (``theta_exact``).

    QD: ``eig`` is the eigen data of the lower 2x2 block over Theta_uu, or
    None where Theta_uu is zero within tol.  NONQD: ``lam``, ``y0``, ``c_ll``,
    ``c_nn`` and ``c_ln`` are the integration constants of the shape solution,
    and ``eta`` holds the evolved-frame components of the parallel one-form,
    which are constant in t."""

    pair: CauchyPair
    branch: str
    eig: EigenData2 | None = None
    lam: float | None = None
    y0: float | None = None
    c_ll: float | None = None
    c_nn: float | None = None
    c_ln: float | None = None
    eta: np.ndarray | None = None

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
            if self.branch == QD and self.eig is None:
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
                u[:, 1:, 1:] = eig.Q @ diag.reshape(-1, 2, 2) @ eig.Q.T
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

    def lifespan(self, profile: LapseProfile) -> Lifespan:
        if self.branch == NONQD:
            t_plus = profile.solve_b((math.pi / 2 - self.y0) / self.lam)
            t_minus = profile.solve_b((-math.pi / 2 - self.y0) / self.lam)
            # y_t reaches +-pi/2 in finite B, so only a table can leave an end None
            return Lifespan(t_minus, t_plus, immortal=False)
        if self.eig is None:
            if profile.kind == "constant":
                return Lifespan(-math.inf, math.inf, immortal=True)
            lo, hi = profile.domain()
            return Lifespan(None, None, immortal=False,
                            note=f"no singularity inside the tabulated domain [{lo}, {hi}]")
        uu = self.pair.theta.uu
        t0 = profile.solve_b(1.0 / uu)
        note = ("boundary taken on the side matching sign(Theta_uu); the backward "
                "lapse integral is the relevant one for Theta_uu < 0")
        # the other side never becomes singular: it is unbounded for a
        # constant lapse and unknown past the end of a table
        lo, hi = (-math.inf, math.inf) if profile.kind == "constant" else (None, None)
        if uu > 0:
            return Lifespan(lo, t0, immortal=False, note=note)
        return Lifespan(t0, hi, immortal=False, note=note)


def solve(pair: CauchyPair, tol: float = DEFAULT_TOL) -> FlowSolution:
    """The closed-form flow of ``pair``: its branch and constants.  Raises
    InvalidPair where ``pair`` is not admissible within tol (``branch``)."""
    th = pair.theta
    if branch(pair, tol) == QD:
        if abs(th.uu) <= tol * max(1.0, th.max_abs()):
            return FlowSolution(pair, QD)
        lower = np.array([[th.ll, th.ln], [th.ln, th.nn]])
        return FlowSolution(pair, QD, eig=eigen2x2(lower / th.uu))
    lam = invariants(pair).lam
    denom = lam * math.hypot(lam, th.uu)
    return FlowSolution(
        pair, NONQD, lam=lam, y0=math.atan2(th.uu, lam),
        c_ll=(th.ll * lam**2 + th.ul**2 * th.uu) / denom,
        c_nn=(th.nn * lam**2 + th.un**2 * th.uu) / denom,
        c_ln=(th.ln * lam**2 + th.ul * th.un * th.uu) / denom,
        eta=np.array([0.0, th.un, -th.ul]) / lam)


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


def lifespan(pair: CauchyPair, profile: LapseProfile, tol: float = DEFAULT_TOL) -> Lifespan:
    """Maximal interval of definition around t = 0."""
    return solve(pair, tol).lifespan(profile)
