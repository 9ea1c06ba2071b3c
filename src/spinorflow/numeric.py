"""Numerical integration of the flow ODEs: the independent oracle for the
closed-form solutions, plus residual monitors for the full flow system.

``integrate_to`` is the one RK4 march: a fixed-step march to the requested
times, for a constant or a tabulated lapse, run in the one kernel
``_kern.rk4_path`` (the unrolled pure-Python loop of ``_kernel_py``) fed the
stage lapses of ``LapseProfile.stages``.  ``KERNEL_BACKEND`` names that
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel_py as _kern
from .errors import SingularTime
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


def integrate_to(pair: CauchyPair, profile: LapseProfile, times,
                 n_steps_total: int = 10_000, tol: float = DEFAULT_TOL) -> list[FlowState]:
    """States at the exact requested times, marching segment by segment.

    Positive times are marched forward from t = 0 and negative times
    backward, and each direction gets ``n_steps_total`` steps of its own:
    a segment takes round(n_steps_total * |segment| / |farthest time in its
    direction|) steps, at least one.  A window on both sides of t = 0 thus
    takes about twice ``n_steps_total`` steps.  The states come back in the
    order of ``times``, duplicates included.

    Raises SingularTime when the march blows up (see ``_kernel_py._GUARD``)
    before it reaches a requested time.
    """
    require_valid(pair, tol)
    requested = [float(t) for t in times]
    times = sorted(requested)
    out: dict[float, FlowState] = {}

    def march(ts):
        # ts moving away from zero in one direction
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
    return [out[t] for t in requested]


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
