"""Numerical integration of the flow ODEs: the independent oracle for the
closed-form solutions, plus residual monitors for the full flow system.

``integrate_to`` is the one RK4 march to requested times.  The flow sees
the lapse only through its integral B_t, so every lapse is marched in one
clock, s = B_t, at unit lapse, under step-doubling error control that
lands on every requested time and estimates the global error of each
state; ``uncertified`` lists the states that estimate cannot vouch for.  A
caller that names ``n_steps_total`` gets a fixed-step march in s instead.
Both carry the state as a tuple of 15 floats and make one kernel call per
stop: one ``march_stop`` of the kernel, which runs every trial step up to
the stop, or one ``rk4_path`` per segment in ``_fixed_march``.

The kernel is ``backend._kern``, read at each call: ``backend`` documents
which module that is and how it is built, and ``_kernel_py`` its eight
entries and the contract both backends keep.

Inside the package, states travel as one stacked record of arrays,
``_States``, which ``_state_from_vector`` checks and builds, with h_t =
U_t^T U_t summed in index order (``frames.index_matmul``), so that no cell
of the flow table goes through the BLAS; ``FlowState`` objects are built
only at the public edge.  A stack of samples takes Ric and H_t from
``_curvature3`` and is refused by the one rule ``_refuse``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernel_py, backend
from ._kernel_py import _theta_rhs
from .errors import SingularTime, SpinorFlowError
from .frames import Sym3, index_matmul, structure_constants_from_theta, sym_matrices
from .lapse import LapseProfile
from .pairs import CauchyPair, DEFAULT_TOL, _hamiltonians, require_valid


# the kernel is read as ``backend._kern`` at each call, the one name a test
# patches; this alias is the same module object, where perfbench's tracer
# finds ``rk4_path``.  The fixed march is written once, in Python: the C
# module takes ``_kernel_py``'s as its entry of that name
_kern = backend._kern
_kern.rk4_path = _kernel_py.rk4_path

_ETA3 = np.ones(3)

# local error allowed per step of the controlled march, relative to max(1, |y|)
LOCAL_TOL = 1e-12
# deviation from the true flow, relative to max(1, |y|), that a state of the
# controlled march must be certified within; ``uncertified`` lists the others
CERTIFY_LIMIT = 1e-8


@dataclass(frozen=True)
class FlowState:
    t: float
    theta: Sym3
    U: np.ndarray
    metric: Sym3
    hamiltonian: float
    # global error estimate of theta and U, relative to max(1, |y|) per
    # component; None where the march gives none (fixed steps, closed forms)
    error: float | None = None


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of the four flow equations on a single state."""

    frame_evolution: float   # r1
    structure: float         # r2
    theta_u_constancy: float # r3
    closedness: float        # r4

    def max(self) -> float:
        """The largest residual, NaN when one is."""
        return float(np.max([self.frame_evolution, self.structure,
                             self.theta_u_constancy, self.closedness]))


def hamiltonian_of(theta):
    """Direct Hamiltonian recomputation R - |Theta|^2 + Tr(Theta)^2 in the
    frame made orthonormal by the evolved coframe (``pairs._hamiltonians``).

    ``theta`` is a Sym3, or a stack: an array of components (uu, ul, un, ll,
    ln, nn), one row per sample, which gives an array of H.  The squares in
    |Theta|^2 and Tr(Theta)^2 are Python float squares, which raise
    OverflowError past the largest float."""
    one = isinstance(theta, Sym3)
    comp = np.asarray(theta.as_array() if one else theta, dtype=float)
    hams = list(_hamiltonians(np.ravel(_ricci3(comp)[1]).tolist(),
                             comp.reshape(-1, 6).tolist()))
    return hams[0] if one else np.array(hams)


def _frame_ricci(eta: np.ndarray, c, dc0=None):
    """``frame_ricci`` of the frame, or the stack of frames, with structure
    constants ``c``, in one call of the kernel's ``ricci``, with no warning:
    a Ricci tensor past the largest float is inf or NaN."""
    c = np.ascontiguousarray(c, dtype=float)
    if dc0 is not None:
        dc0 = np.ascontiguousarray(dc0, dtype=float)
    ric, scalar = backend._kern.ricci(eta, c, dc0)
    scalar = np.frombuffer(scalar)
    return (np.frombuffer(ric).reshape(c.shape[:-1]),
            scalar.item() if c.ndim == 3 else scalar.reshape(c.shape[:-3]))


def _ricci3(comp: np.ndarray):
    """Ric and R of the 3D frame at each row of the components ``comp``."""
    return _frame_ricci(_ETA3, structure_constants_from_theta(comp))


def _curvature3(comp: np.ndarray) -> tuple[np.ndarray, list[float], Exception | None]:
    """Ric of the 3D frame at each row of the components ``comp``, H_t up to
    the first row whose squares overflow, and that OverflowError or None."""
    ric, scal = _ricci3(comp)
    return (ric, *_until_raised(_hamiltonians(scal.tolist(), comp.tolist())))


def ode_rhs(theta, U: np.ndarray):
    """d/ds of the shape components and the coframe transform, s = B_t,
    at a stack of samples.

    ``theta`` is an array of components (uu, ul, un, ll, ln, nn), one row
    per sample, and ``U`` one 3x3 matrix or one per sample; the result is an
    array of component rows and one of matrices, one of each per sample,
    one sample included.  The stack takes the operations of ``_kernel_py._rhs``
    column by column, in its order, and like Python floats warns of no
    overflow."""
    comp = np.asarray(theta, dtype=float).reshape(-1, 6)
    u = np.broadcast_to(U, (len(comp), 3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        du = -index_matmul(sym_matrices(comp), u)
    return _theta_rhs(comp), du


def _until_raised(items) -> tuple[list, Exception | None]:
    """The values of the iterable ``items`` up to the first that raises a
    SpinorFlowError or an ArithmeticError, and that exception (None when
    every value came)."""
    out = []
    try:
        for item in items:
            out.append(item)
    except (SpinorFlowError, ArithmeticError) as exc:
        return out, exc
    return out, None


@dataclass(frozen=True)
class _States:
    """The flow states of a stack of samples: each field of ``FlowState``
    with one entry per sample, H_t as Python floats."""

    t: np.ndarray            # (n,)
    comp: np.ndarray         # (n, 6) components (uu, ul, un, ll, ln, nn) of Theta_t
    U: np.ndarray            # (n, 3, 3)
    metric: np.ndarray       # (n, 3, 3) h_t = U^T U
    hamiltonian: list[float]
    error: list[float | None]

    def take(self, rows) -> "_States":
        """The states at the indices ``rows``, in their order."""
        return _States(self.t[rows], self.comp[rows], self.U[rows], self.metric[rows],
                       [self.hamiltonian[i] for i in rows], [self.error[i] for i in rows])

    def state(self, i: int) -> FlowState:
        return FlowState(t=float(self.t[i]), theta=Sym3.from_array(self.comp[i]),
                         U=self.U[i], metric=Sym3.from_matrix(self.metric[i]),
                         hamiltonian=self.hamiltonian[i], error=self.error[i])


def _state_from_vector(t, comp, u, error, hams, overflow, pending) -> _States:
    """The checked record of the states at the times ``t``, given Theta_t
    (``comp``), U_t and the error estimate at each, and H_t up to the sample
    where it raised ``overflow``; ``pending`` is what the sample after the
    last raised, or None.  ``_refuse`` rules on every number of the state."""
    with np.errstate(over="ignore", invalid="ignore"):
        metric = index_matmul(u.transpose(0, 2, 1), u)
    finite = (np.isfinite(metric).all(axis=(1, 2)) & np.isfinite(comp).all(axis=1)
              & np.isfinite(u).all(axis=(1, 2)))
    _refuse("flow state", t, finite.tolist(), hams, overflow, pending)
    return _States(np.asarray(t, dtype=float), comp, u, metric, hams[:len(t)], list(error))


def _refuse(what: str, t, finite, hams, overflow, pending) -> None:
    """SingularTime at the first of the times ``t``, up to the last H_t of
    ``hams``, where ``finite`` is False or H_t is not finite; then the
    ``overflow`` of H_t if ``hams`` stop short; then ``pending``, if any."""
    for x, ok, ham in zip(t, finite, hams):
        if not (ok and math.isfinite(ham)):
            raise SingularTime(f"the {what} at t = {x:.12g} is not finite")
    if len(hams) < len(t):
        raise overflow
    if pending:
        raise pending


def integrate_to(pair: CauchyPair, profile: LapseProfile, times,
                 n_steps_total: int | None = None,
                 tol: float = DEFAULT_TOL) -> list[FlowState]:
    """States at the exact requested times, in the order of ``times``,
    duplicates included.  Positive times are marched forward from t = 0 and
    negative times backward, each direction in one pass.

    Every right-hand side of the flow is beta(t) F(y), so y(t) = Y(B_t)
    where Y solves dY/ds = F(Y).  Every lapse is marched in
    s = ``profile.b_integral(t)`` at unit lapse, where the kinks of a table
    vanish; a constant lapse c gives s = c t.  ``FlowState.t`` is the
    requested t, and SingularTime messages name times t (s through
    ``profile.solve_b``).  B_t is taken of all ``times`` in one call.

    With no ``n_steps_total`` the march is under step doubling
    (``_controlled_march``): every step keeps its local error within
    ``LOCAL_TOL`` relative to max(1, |y|), lands on each requested time,
    and each state carries a global error estimate (``FlowState.error``)
    that ``uncertified`` reads.  With ``n_steps_total`` given, the march
    takes fixed steps in the same clock (``_fixed_march``): both
    directions share the ``n_steps_total`` in proportion to their spans,
    and every stop is reached in the fewest equal steps no longer than the
    total span over ``n_steps_total``; its states carry no error estimate.

    Raises ValueError on an ``n_steps_total`` that is not an integer of at
    least 1 (a bool is none) and on a time that is not finite, OutOfDomain
    on the first time outside a table, in the order of ``times``, and
    SingularTime when the march blows up or overflows (see ``_singular``)
    before it reaches a requested time.
    """
    require_valid(pair, tol)
    if n_steps_total is not None and (isinstance(n_steps_total, bool) or not (
            isinstance(n_steps_total, numbers.Integral) and n_steps_total >= 1)):
        raise ValueError(f"n_steps_total must be an integer >= 1, got {n_steps_total!r}")
    requested = [float(t) for t in times]
    if not all(map(math.isfinite, requested)):
        raise ValueError("integration times must be finite")
    states = _integrate(pair, profile, requested,
                        profile.b_integral(np.array(requested)).tolist(), n_steps_total)
    return [states.state(i) for i in range(len(requested))]


def _integrate(pair: CauchyPair, profile: LapseProfile, times, bts,
               n_steps_total: int | None = None) -> _States:
    """``integrate_to`` of a validated pair at the finite ``times``, marched
    in the B_t ``bts`` at each, which must be floats: the kernel runs
    several times slower on numpy scalars.  The states are checked in the
    order they are marched, and come in the order of ``times``."""
    to_t = functools.partial(_time_at, profile)
    y0 = tuple(np.concatenate([pair.theta.as_array(), np.eye(3).ravel()]).tolist())
    at: dict[float, list[float]] = {}  # s = B_t -> the times t it stands for
    for t, s in dict(zip(times, bts)).items():
        at.setdefault(s, []).append(t)
    forward = sorted(s for s in at if s > 0)
    backward = sorted((s for s in at if s < 0), reverse=True)
    sides = [stops for stops in (forward, backward) if stops]
    if n_steps_total is None:
        march = _controlled_march
    else:
        span = sum(abs(stops[-1]) for stops in sides)
        march = functools.partial(_fixed_march, step=span / n_steps_total)

    def marched():
        if 0.0 in at:
            # the initial datum, exact
            for t in at[0.0]:
                yield t, y0, 0.0 if n_steps_total is None else None
        for stops in sides:
            for s, y, error in march(y0, stops, to_t):
                for t in at[s]:
                    yield t, y, error

    rows, pending = _until_raised(marched())
    ys = np.array([y for _, y, _ in rows], dtype=float).reshape(-1, 15)
    _, *hams = _curvature3(ys[:, :6])
    ts, _, errors = zip(*rows) if rows else ((), (), ())
    states = _state_from_vector(ts, ys[:, :6], ys[:, 6:].reshape(-1, 3, 3), errors, *hams,
                                pending)
    row_of = {t: i for i, t in enumerate(ts)}
    return states.take([row_of[t] for t in times])


def _time_at(profile: LapseProfile, s: float) -> float:
    """The t with B_t = s, or the end of the table an s rounded past it lies
    beyond."""
    t = profile.solve_b(s)
    return profile.domain()[1 if s > 0 else 0] if t is None else t


def uncertified(states) -> list[FlowState]:
    """The states whose global error estimate exceeds half ``CERTIFY_LIMIT``:
    those the march cannot vouch for to ``CERTIFY_LIMIT`` with a factor-2
    margin on its estimate."""
    return [st for st in states if _uncertain(st.error)]


def _uncertain(error: float | None) -> bool:
    return error is not None and 2.0 * error > CERTIFY_LIMIT


def _singular(tripped, s, target, to_t) -> SingularTime:
    """The error for a march that stopped at s = ``s``, short of
    ``target``: on a guard trip, on a state that is not finite (``tripped``
    False), or on a stall (``tripped`` None)."""
    how = ("stalled at" if tripped is None else
           "blew up at" if tripped else "overflowed by")
    return SingularTime(f"integration {how} t = {to_t(s):.12g} "
                        f"before reaching t = {to_t(target):.12g}")


def _fixed_march(y0, stops, to_t, step):
    """(s, y, None) at each of ``stops`` (values of s moving away from zero
    in one direction), each reached in the fewest equal steps no longer
    than ``step`` up to a relative 1e-12, the rounding of their difference.
    A segment is one ``_kern.rk4_path`` call.  Raises SingularTime
    (``_singular``) when a step trips the kernel's guard on Theta or the
    state a segment ends on is not finite (U can overflow while Theta stays
    bounded)."""
    y = y0
    prev = 0.0
    for target in stops:
        seg = target - prev
        n = max(1, math.ceil(abs(seg) / step * (1.0 - 1e-12)))
        y, done, truncated = backend._kern.rk4_path(y, seg / n, n)
        if truncated or not all(map(math.isfinite, y)):
            raise _singular(truncated, prev + done * (seg / n), target, to_t)
        prev = target
        yield target, y, None


def _controlled_march(y0, stops, to_t):
    """(s, y, global error estimate) at each of ``stops`` (values of s
    moving away from zero in one direction).

    Step doubling (Hairer, Norsett and Wanner, Solving ODEs I, II.4): a
    trial step of size h is taken once as one RK4 step and once as two of
    size h/2.  The two results differ by about 15 times the local error of
    the second, which is kept when that error is within ``LOCAL_TOL``.
    Either way the next h is 0.9 (LOCAL_TOL / error)^(1/5) times this one,
    clamped to [h/5, 5 h].  A step that would pass the next stop is
    shortened to land on it, and the h proposed before it is kept.

    A coarse companion z takes one RK4 step of size h over every accepted
    step, so the march y is the half-step solution on the mesh that z
    covers in whole steps.  Their difference over 15 is the global error
    estimate of y (HNW I, II.12), and y + (y - z)/15, the global Richardson
    extrapolation, is the state returned.  Its error is of higher order,
    so the estimate of y bounds it with room to spare: on the conftest rows
    the extrapolated states lie 50 to 3,500 times closer to the closed form
    than the estimate says.  Errors are measured relative to max(1, |y|)
    per component and maximized over the 15.

    Each stop is one ``_kern.march_stop`` call, which runs every trial up
    to it and returns the extrapolated state and its estimate.  A leg that
    trips the guard or ends on a state that is not finite raises the
    SingularTime ``_fixed_march`` would raise for it, at the s the kernel
    reports; a step too small to move s raises one that names the stall.
    """
    y = z = y0
    s = 0.0
    # a first step over which the initial slope moves y by 1 percent
    slope = _kernel_py._rhs(y)
    rate = max(abs(d) / max(1.0, abs(v)) for v, d in zip(y, slope))
    h = min(abs(stops[-1]), 0.01 / rate) if rate > 0 else abs(stops[-1])
    for target in stops:
        y, z, s, h, extrapolated, estimate, _, _, failed = backend._kern.march_stop(
            y, z, s, h, target, LOCAL_TOL)
        if failed:
            raise _singular(failed[1], s, target, to_t)
        yield target, extrapolated, estimate


def flow_residuals(state, pair: CauchyPair):
    """Residuals of the four flow equations, evaluated on a stored state, or
    on each of a sequence of states (a list of reports, one per state).

    All four are beta-independent up to an overall positive factor, so they
    are evaluated at unit lapse.
    """
    states = [state] if isinstance(state, FlowState) else list(state)
    comp = np.array([st.theta.as_array() for st in states]).reshape(-1, 6)
    u = np.array([st.U for st in states]).reshape(-1, 3, 3)
    reports = [ResidualReport(*res) for res in _residuals(comp, u, pair).T.tolist()]
    return reports[0] if isinstance(state, FlowState) else reports


def _residuals(comp: np.ndarray, u: np.ndarray, pair: CauchyPair) -> np.ndarray:
    """The residuals of ``flow_residuals`` in four rows, r1, r2, r3 and r4,
    with one entry per row of the Theta_t components ``comp`` and of the
    stack ``u`` of U_t: one call of the kernel's ``residuals``, every sum of
    products in index order."""
    comp = np.ascontiguousarray(comp, dtype=float).reshape(-1, 6)
    u = np.ascontiguousarray(u, dtype=float).reshape(-1, 3, 3)
    return np.frombuffer(
        backend._kern.residuals(comp, u, pair.theta.as_array())).reshape(4, -1)
