"""Numerical integration of the flow ODEs: the independent oracle for the
closed-form solutions, plus residual monitors for the full flow system.

``integrate_to`` is the one RK4 march to requested times.  The flow sees
the lapse only through its integral B_t, so every lapse is marched in one
clock, s = B_t, at unit lapse, under step-doubling error control that
lands on every requested time and estimates the global error of each
state; ``uncertified`` lists the states that estimate cannot vouch for.  A
caller that names ``n_steps_total`` gets a fixed-step march in s instead.
Both carry the state as a tuple of 15 floats and make one kernel call per
advance: one ``_kern.doubling_step`` per trial step, or one
``_kern.rk4_path`` per segment through ``_advance``.  The kernel is the
pure-Python module ``_kernel_py``, whose two entries run one unrolled RK4
step in one leg loop; ``KERNEL_BACKEND`` names it.

Inside the package, states travel as one stacked record of arrays,
``_States``, which ``_state_from_vector`` checks and builds; ``FlowState``
objects are built only at the public edge.  A stack of samples takes Ric
and H_t from ``_curvature3`` and is refused by the one rule ``_refuse``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernel_py as _kern
from .errors import SingularTime, SpinorFlowError
from .frames import Sym3, frame_ricci, structure_constants_from_theta, sym_matrices
from .lapse import LapseProfile
from .pairs import CauchyPair, DEFAULT_TOL, _hamiltonians, require_valid

KERNEL_BACKEND = "python"

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
    hams = list(_hamiltonians(_ricci3(comp)[1], comp.reshape(-1, 6).tolist()))
    return hams[0] if one else np.array(hams)


def _ricci3(comp: np.ndarray):
    """Ric and R of the 3D frame at each row of the components ``comp``."""
    return frame_ricci(_ETA3, structure_constants_from_theta(comp))


def _curvature3(comp: np.ndarray) -> tuple[np.ndarray, list[float], Exception | None]:
    """Ric of the 3D frame at each row of the components ``comp``, H_t up to
    the first row whose squares overflow, and that OverflowError or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        ric, scal = _ricci3(comp)
    return (ric, *_until_raised(_hamiltonians(scal, comp.tolist())))


def ode_rhs(theta, U: np.ndarray):
    """d/ds of the shape components and the coframe transform, s = B_t,
    at a stack of samples.

    ``theta`` is an array of components (uu, ul, un, ll, ln, nn), one row
    per sample, and ``U`` one 3x3 matrix or one per sample; the result is an
    array of component rows and one of matrices, one of each per sample,
    one sample included.  The stack takes the operations of ``_kern._rhs``
    column by column, in its order, and like Python floats warns of no
    overflow."""
    comp = np.asarray(theta, dtype=float).reshape(-1, 6)
    th = sym_matrices(comp)[..., None]  # th[:, :, b] column b of Theta
    u = np.broadcast_to(U, (len(comp), 3, 3))[:, None]  # u[:, :, b] row b of U
    with np.errstate(over="ignore", invalid="ignore"):
        du = -(th[:, :, 0] * u[:, :, 0] + th[:, :, 1] * u[:, :, 1]
               + th[:, :, 2] * u[:, :, 2])
    return _theta_rhs(comp), du


def _theta_rhs(comp: np.ndarray) -> np.ndarray:
    """The shape rows of ``ode_rhs``: d/ds of the components (uu, ul, un,
    ll, ln, nn) on the last axis of ``comp``."""
    v = comp[..., :3]  # (uu, ul, un)
    dth = np.zeros(comp.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = v * v
        dth[..., 0] = sq[..., 0] + sq[..., 1] + sq[..., 2]
        # (ll, ln, nn) uu - (ul ul, ul un, un un)
        dth[..., 3:] = comp[..., 3:] * v[..., :1] - v[..., [1, 1, 2]] * v[..., [1, 2, 2]]
    return dth


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
        metric = u.transpose(0, 2, 1) @ u
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

    Raises ValueError on a time that is not finite, OutOfDomain on the
    first one outside a table, in the order of ``times``, and SingularTime
    when the march blows up or overflows (see ``_singular``) before it
    reaches a requested time.
    """
    require_valid(pair, tol)
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


def _advance(y, s, ds, n, target, to_t) -> tuple:
    """y after ``n`` RK4 steps of size ``ds`` from s = ``s``, as a tuple.
    Raises SingularTime (``_singular``) when a step trips the kernel's guard
    on Theta or the state it ends on is not finite (U can overflow while
    Theta stays bounded)."""
    y, done, truncated = _kern.rk4_path(y, ds, n)
    if truncated or not all(map(math.isfinite, y)):
        raise _singular(truncated, s + done * ds, target, to_t)
    return y


def _singular(tripped, s, target, to_t) -> SingularTime:
    """The error for a march that stopped at s = ``s``, short of
    ``target``: on a guard trip, or on a state that is not finite."""
    how = "blew up at" if tripped else "overflowed by"
    return SingularTime(f"integration {how} t = {to_t(s):.12g} "
                        f"before reaching t = {to_t(target):.12g}")


def _fixed_march(y0, stops, to_t, step):
    """(s, y, None) at each of ``stops`` (values of s moving away from zero
    in one direction), each reached in the fewest equal steps no longer
    than ``step`` up to a relative 1e-12, the rounding of their difference."""
    y = y0
    prev = 0.0
    for target in stops:
        seg = target - prev
        n = max(1, math.ceil(abs(seg) / step * (1.0 - 1e-12)))
        y = _advance(y, prev, seg / n, n, target, to_t)
        prev = target
        yield target, y, None


def _relative_gap(a, b) -> float:
    """max_i |a_i - b_i| / max(1, |a_i|)."""
    return max(abs(x - z) / max(1.0, abs(x)) for x, z in zip(a, b))


# where each leg of a ``_kern.doubling_step`` trial of size h stops, as
# ``_advance`` counted it: (steps done, step size over h)
_LEG_ENDS = {"whole": (1, 1.0), "half 1": (1, 0.5), "half 2": (2, 0.5),
             "companion": (1, 1.0)}


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

    Each trial is one ``_kern.doubling_step`` call: the whole step, both
    half steps, the local error and, on an accepted trial, the companion
    step.  A leg that trips the guard or ends on a state that is not
    finite raises the SingularTime ``_advance`` would raise for it.
    """
    y = z = y0
    s = 0.0
    sign = 1.0 if stops[0] > 0 else -1.0
    # a first step over which the initial slope moves y by 1 percent
    slope = _kern._rhs(y)
    rate = max(abs(d) / max(1.0, abs(v)) for v, d in zip(y, slope))
    h = min(abs(stops[-1]), 0.01 / rate) if rate > 0 else abs(stops[-1])
    for target in stops:
        while s != target:
            land = h >= abs(target - s)
            step = target - s if land else sign * h
            if s + step == s:
                raise SingularTime(f"integration stalled at t = {to_t(s):.12g} "
                                   f"before reaching t = {to_t(target):.12g}")
            halves, companion, error, failed = _kern.doubling_step(
                y, z, step, LOCAL_TOL)
            if failed:
                leg, tripped = failed
                done, fraction = _LEG_ENDS[leg]
                raise _singular(tripped, s + done * (fraction * step), target, to_t)
            if companion is not None:  # error <= LOCAL_TOL
                y, z = halves, companion
                s = target if land else s + step
                if land:
                    continue
            h = abs(step) * (5.0 if error == 0.0 else
                             min(5.0, max(0.2, 0.9 * (LOCAL_TOL / error) ** 0.2)))
        extrapolated = [a + (a - b) / 15.0 for a, b in zip(y, z)]
        yield target, extrapolated, _relative_gap(y, z) / 15.0


def flow_residuals(state, pair: CauchyPair):
    """Residuals of the four flow equations, evaluated on a stored state, or
    on each of a sequence of states (a list of reports, one per state).

    All four are beta-independent up to an overall positive factor, so they
    are evaluated at unit lapse.
    """
    states = [state] if isinstance(state, FlowState) else list(state)
    comp = np.array([st.theta.as_array() for st in states]).reshape(-1, 6)
    u = np.array([st.U for st in states]).reshape(-1, 3, 3)
    reports = [ResidualReport(*res) for res in
               zip(*(r.tolist() for r in _residuals(comp, u, pair)))]
    return reports[0] if isinstance(state, FlowState) else reports


def _residuals(comp: np.ndarray, u: np.ndarray, pair: CauchyPair):
    """The residuals r1, r2, r3 and r4 of ``flow_residuals``, each an array
    with one entry per row of the Theta_t components ``comp`` and of the
    stack ``u`` of U_t."""
    th_t = sym_matrices(comp)
    th_0 = pair.theta.as_matrix()
    u = np.ascontiguousarray(u)

    # r1: frame evolution, with dU re-derived from the right-hand side
    dth, du = ode_rhs(comp, u)
    r1 = np.abs(du + th_t @ u).max(axis=(1, 2))

    # r2: exterior derivative of the evolved coframe computed two ways
    a = u @ th_0
    f = np.zeros((len(u), 3, 3, 3))
    f[:, :, :, 0] += a
    f[:, :, 0, :] -= a
    g = np.einsum("zab,zbc,zd->zacd", th_t, u, u[:, 0, :])
    g = g - g.transpose(0, 1, 3, 2)
    r2 = np.abs(f - g).max(axis=(1, 2, 3))

    # r3: constancy of Theta_t(e_u^t) in the reference coframe
    v_dot = (sym_matrices(dth) @ u + th_t @ du)[:, 0, :]
    r3 = np.abs(v_dot).max(axis=1)

    # r4: algebraic closedness contractions
    w = np.abs(th_t[:, None, 0, :] @ th_t)[:, 0, :]
    # max(|w_l|, |w_n|) as Python's max takes it: |w_l| unless |w_n| > |w_l|
    r4 = np.where(w[:, 2] > w[:, 1], w[:, 2], w[:, 1])
    return r1, r2, r3, r4
