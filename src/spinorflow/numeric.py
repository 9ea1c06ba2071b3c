"""Numerical integration of the flow ODEs: the independent oracle for the
closed-form solutions, plus residual monitors for the full flow system.

Every RK4 step, fixed or adaptive, constant or tabulated lapse, runs in the
one kernel ``_kern.rk4_path`` (the unrolled pure-Python loop of
``_kernel_py``), fed the stage lapses of ``LapseProfile.stages``.
``KERNEL_BACKEND`` names that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel_py as _kern
from .errors import SingularTime, StepFailure
from .frames import Sym3, ricci3, structure_constants_from_theta
from .lapse import LapseProfile
from .pairs import CauchyPair, DEFAULT_TOL, require_valid

KERNEL_BACKEND = "python"


@dataclass(frozen=True)
class FlowState:
    t: float
    theta: Sym3
    U: np.ndarray
    metric: Sym3
    hamiltonian: float


@dataclass
class Trajectory:
    states: list[FlowState]
    accepted: int = 0
    rejected: int = 0
    truncated: bool = False


@dataclass(frozen=True)
class StepOptions:
    method: str = "fixed"  # "fixed" | "adaptive"
    n_steps: int = 10_000
    record_points: int = 200
    tol: float = 1e-10


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of the four flow equations on a single state."""

    frame_evolution: float   # r1
    structure: float         # r2
    theta_u_constancy: float # r3
    closedness: float        # r4

    def max(self) -> float:
        return max(self.frame_evolution, self.structure,
                   self.theta_u_constancy, self.closedness)


def hamiltonian_of(theta: Sym3) -> float:
    """Direct Hamiltonian recomputation R - |Theta|^2 + Tr(Theta)^2 in the
    frame made orthonormal by the evolved coframe."""
    _, scal = ricci3(structure_constants_from_theta(theta))
    return scal - theta.norm2() + theta.trace() ** 2


def ode_rhs(theta: Sym3, U: np.ndarray, beta: float) -> tuple[Sym3, np.ndarray]:
    """Time derivatives of the shape components and the coframe transform."""
    y = list(theta.as_array()) + list(np.asarray(U, dtype=float).ravel())
    dy = _kern._rhs(y, beta)
    return Sym3.from_array(dy[:6]), np.array(dy[6:]).reshape(3, 3)


def _state_from_vector(t: float, y: np.ndarray) -> FlowState:
    theta = Sym3.from_array(y[:6])
    u = np.array(y[6:]).reshape(3, 3)
    return FlowState(
        t=float(t),
        theta=theta,
        U=u,
        metric=Sym3.from_matrix(u.T @ u),
        hamiltonian=hamiltonian_of(theta),
    )


def _pack(pair: CauchyPair) -> np.ndarray:
    return np.concatenate([pair.theta.as_array(), np.eye(3).ravel()])


def _rk4_step(y, profile: LapseProfile, t, dt, out_t, out_y):
    """One RK4 step from (t, y), as a list of floats."""
    _kern.rk4_path(y, profile.stages(t, dt, 1), t, dt, 1, 1, out_t, out_y)
    return out_y[1].tolist()


def _integrate_adaptive(y0, profile: LapseProfile, t_end, tol):
    """Step-doubling error control; records every accepted step."""
    y = [float(v) for v in y0]
    t = 0.0
    sign = 1.0 if t_end > 0 else -1.0
    dt = sign * abs(t_end) / 100.0
    recs = [(0.0, list(y))]
    accepted = rejected = 0
    truncated = False
    out_t, out_y = np.empty(2), np.empty((2, 15))
    while sign * (t_end - t) > 1e-15 * max(1.0, abs(t_end)):
        if sign * (t + dt) > sign * t_end:
            dt = t_end - t
        if abs(dt) < 1e-15 * max(1.0, abs(t)):
            raise StepFailure(f"adaptive step underflow at t = {t:.12g}")
        full = _rk4_step(y, profile, t, dt, out_t, out_y)
        half = _rk4_step(y, profile, t, 0.5 * dt, out_t, out_y)
        half = _rk4_step(half, profile, t + 0.5 * dt, 0.5 * dt, out_t, out_y)
        err = max(abs(full[i] - half[i]) for i in range(15))
        scale = tol * max(1.0, max(abs(v) for v in half))
        if err <= scale:
            t += dt
            y = half
            accepted += 1
            if max(abs(y[0]), abs(y[3]), abs(y[4]), abs(y[5])) > _kern._GUARD:
                truncated = True
                recs.append((t, list(y)))
                break
            recs.append((t, list(y)))
        else:
            rejected += 1
        ratio = (scale / err) ** 0.2 if err > 0 else 2.0
        dt *= min(2.0, max(0.2, 0.9 * ratio))
    return recs, accepted, rejected, truncated


def integrate(pair: CauchyPair, profile: LapseProfile, t_end: float,
              opts: StepOptions = StepOptions(), tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate the flow ODEs from t = 0 to t_end with U(0) = Id."""
    require_valid(pair, tol)
    if t_end == 0.0:
        return Trajectory(states=[_state_from_vector(0.0, _pack(pair))], accepted=0)
    y0 = _pack(pair)

    if opts.method == "adaptive":
        recs, acc, rej, truncated = _integrate_adaptive(y0, profile, t_end, opts.tol)
        states = [_state_from_vector(t, np.array(y)) for t, y in recs]
        states.sort(key=lambda s: s.t)
        return Trajectory(states=states, accepted=acc, rejected=rej, truncated=truncated)

    n_steps = int(opts.n_steps)
    dt = t_end / n_steps
    record_every = max(1, n_steps // max(1, opts.record_points))

    max_rec = n_steps // record_every + 4
    out_t = np.empty(max_rec)
    out_y = np.empty((max_rec, 15))
    nrec, done, truncated = _kern.rk4_path(
        y0, profile.stages(0.0, dt, n_steps), 0.0, dt, n_steps, record_every,
        out_t, out_y)

    states = [_state_from_vector(out_t[i], out_y[i]) for i in range(nrec)]
    states.sort(key=lambda s: s.t)
    return Trajectory(states=states, accepted=int(done), truncated=bool(truncated))


def integrate_to(pair: CauchyPair, profile: LapseProfile, times,
                 n_steps_total: int = 10_000, tol: float = DEFAULT_TOL) -> list[FlowState]:
    """States at the exact requested times, marching segment by segment.

    Positive times are marched forward from t = 0 and negative times
    backward, and each direction gets ``n_steps_total`` steps of its own:
    a segment takes round(n_steps_total * |segment| / |farthest time in its
    direction|) steps, at least one.  A window on both sides of t = 0 thus
    takes about twice ``n_steps_total`` steps.

    Raises SingularTime when the march blows up (see ``_kernel_py._GUARD``)
    before it reaches a requested time.
    """
    require_valid(pair, tol)
    times = sorted(float(t) for t in times)
    out: dict[float, FlowState] = {}

    def march(ts):
        # ts strictly moving away from zero in one direction
        y = _pack(pair)
        prev = 0.0
        out_t, out_y = np.empty(2), np.empty((2, 15))
        span = max(abs(ts[-1] - 0.0), 1e-300)
        for target in ts:
            seg = target - prev
            if seg == 0.0:
                out[target] = _state_from_vector(target, np.array(y))
                continue
            n = max(1, int(round(n_steps_total * abs(seg) / span)))
            dt = seg / n
            _, _, truncated = _kern.rk4_path(
                y, profile.stages(prev, dt, n), prev, dt, n, n, out_t, out_y)
            if truncated:
                raise SingularTime(
                    f"integration blew up at t = {out_t[1]:.12g} before reaching "
                    f"t = {target:.12g}")
            y = out_y[1].copy()
            prev = target
            out[target] = _state_from_vector(target, y)

    fwd = [t for t in times if t > 0]
    bwd = [t for t in times if t < 0]
    if 0.0 in times:
        out[0.0] = _state_from_vector(0.0, _pack(pair))
    if fwd:
        march(fwd)
    if bwd:
        march(sorted(bwd, reverse=True))
    return [out[t] for t in times]


def flow_residuals(state: FlowState, pair: CauchyPair) -> ResidualReport:
    """Residuals of the four flow equations, evaluated on a stored state.

    All four are beta-independent up to an overall positive factor, so they
    are evaluated at unit lapse.
    """
    th_t = state.theta.as_matrix()
    th_0 = pair.theta.as_matrix()
    u = state.U

    # r1: frame evolution, with dU re-derived from the right-hand side
    dth, du = ode_rhs(state.theta, u, 1.0)
    r1 = float(np.max(np.abs(du + th_t @ u)))

    # r2: exterior derivative of the evolved coframe computed two ways
    a = u @ th_0
    f = np.zeros((3, 3, 3))
    f[:, :, 0] += a
    f[:, 0, :] -= a
    g = np.einsum("ab,bc,d->acd", th_t, u, u[0, :])
    g = g - np.transpose(g, (0, 2, 1))
    r2 = float(np.max(np.abs(f - g)))

    # r3: constancy of Theta_t(e_u^t) in the reference coframe
    v_dot = (dth.as_matrix() @ u + th_t @ du)[0, :]
    r3 = float(np.max(np.abs(v_dot)))

    # r4: algebraic closedness contractions
    w = th_t[0, :] @ th_t
    r4 = float(max(abs(w[1]), abs(w[2])))

    return ResidualReport(frame_evolution=r1, structure=r2,
                          theta_u_constancy=r3, closedness=r4)
