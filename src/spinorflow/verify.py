"""Verification suites: per-pair residual checks runnable from the CLI.

Each suite evaluates a family of identities along the flow and returns one
row per assertion with the worst residual over the sampled times.  Sampling
covers the middle 90 percent of the lifespan: its infinite ends, and the ends
a tabulated lapse leaves unknown (None), are clipped to +-2 flow-time units,
and then every end is cut to the table's domain (``Lifespan.inside``).

``run_suite`` solves the pair once, which validates it (``exact.solve``);
the suites that take as many samples read one stack of them
(``exact._Samples``), which evaluates B_t, Theta_t, U_t, the 3D Ricci tensor
and H_t once per sample.  In place of a tolerance every suite receives the
pair's constraints, which are evaluated at most once, where a suite first
reads them, and the step of central differences in t: 1e-5, or half the
sample window's 5% inset where that is less, so that t +- step stays inside
the window.  The curvature algebra runs once over a stack; the ``ricci4``
suite reads the cells the ``curvature`` command prints (``lorentz._cells``),
unrefused, so a Ric4 past the largest float fails its rows.  Each row's
residual is the largest of its per-sample residuals (``_fold``), or NaN
when one of them is, so a NaN still fails its row.  A sample that raises
does so once the samples before it have been evaluated, as one sample at a
time did.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .exact import QD, FlowSolution, _Samples, solve
from .frames import _SYM_FLAT, divergence_sym, levi_civita, \
    structure_constants_from_theta, sym_matrices
from .lapse import LapseProfile
from .lorentz import _cells, _log_scale_differential, closedness_residual
from .numeric import FlowState, _integrate, _residuals, _uncertain
from .pairs import SUITES, CauchyPair, DEFAULT_TOL, _constraints

_CLIP = 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    # RK4 states the row rests on whose error the march cannot certify
    uncertified: tuple[FlowState, ...] = field(default=(), compare=False)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def sample_times(pair: CauchyPair, profile: LapseProfile, n: int,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    return _sample_times(solve(pair, tol), profile, n)


def _sample_times(sol: FlowSolution, profile: LapseProfile, n: int) -> np.ndarray:
    """``sample_times`` of the pair that ``sol`` solves."""
    lo, hi = sol.lifespan(profile).inside(profile, _CLIP)
    width = hi - lo
    return np.linspace(lo + 0.05 * width, hi - 0.05 * width, n)


def _fold(residuals) -> float:
    """The row's residual: the largest of 0.0 and the per-sample residuals,
    NaN when one of them is, so that a residual that is not a number fails
    its row."""
    return float(np.max(np.append(residuals, 0.0)))


def _check_constraints(stack: _Samples, con, step: float) -> list[CheckResult]:
    """Propagation of the vacuum constraints along the flow."""
    h0 = con().hamiltonian
    # the closed form of H_t is taken with Theta_t, ahead of the squares of
    # H_t that came before it in a sample: its constant raises only where
    # Theta_t is too small for them to
    closed = stack.sol._hamiltonian_stack(h0, stack.v)
    _, hams, overflow = stack.ricci3
    stack.check(overflow)
    ham_dev = np.abs(np.array(hams) - closed)
    # the momentum residual, the divergence, is tied to H: -(H/2) e_u
    mom = divergence_sym(structure_constants_from_theta(stack.comp), stack.comp)
    target = np.multiply.outer(-0.5 * np.array(hams), [1.0, 0.0, 0.0])
    rows = [
        CheckResult("hamiltonian matches its closed-form evolution",
                    _fold(ham_dev), 1e-8),
        CheckResult("momentum residual equals -(H/2) e_u along the flow",
                    _fold(np.abs(mom - target).max(axis=-1)), 1e-9),
    ]
    if con().is_vacuum_admissible:
        rows.append(CheckResult("hamiltonian stays zero (constrained pair)",
                                _fold(np.abs(hams)), 1e-9))
        rows.append(CheckResult("momentum residual vanishes (constrained pair)",
                                _fold(np.abs(mom).max(axis=-1)), 1e-9))
    return rows


def _check_ricci4(stack: _Samples, con, step: float) -> list[CheckResult]:
    """The 4D Ricci identity, plus exact flatness on constrained pairs."""
    constrained = con().is_vacuum_admissible
    stack.check(stack.ricci3[2])
    cells = _cells(stack)
    rows = [CheckResult("4D Ricci equals (H/2) null-direction square",
                        _fold(cells[:, -1]), 1e-6)]
    if constrained:
        # cells 2 to 17 are the components of Ric4
        rows.append(CheckResult("4D Ricci vanishes (constrained pair)",
                                _fold(np.abs(cells[:, 2:18]).max(axis=1)), 1e-8))
    return rows


def _check_ricciflow(stack: _Samples, con, step: float) -> list[CheckResult]:
    """Remark identities tying Ric(h_t) to the shape tensor and, on
    constrained quasi-diagonal pairs, to the time derivative of h_t."""
    sol, profile, comp = stack.sol, stack.profile, stack.comp
    qd = sol.branch == QD
    ric, hams, raised = stack.ricci3
    stack.check(raised)
    ric = 0.5 * (ric + ric.swapaxes(1, 2))
    if qd:
        # T is the trace of the lower 2x2 block, not the full trace
        target = -(comp[:, 3] + comp[:, 5])[:, None, None] * sym_matrices(comp)
        target[:, 0, 0] += 0.5 * np.array(hams)
    else:
        target = np.multiply.outer(0.25 * np.array(hams),
                                   np.eye(3) - np.outer(sol.eta, sol.eta))
    rows = [CheckResult(
        "Ric(h) = -Tr(Theta) Theta + (H/2) e_u x e_u (quasi-diagonal)" if qd
        else "Ric(h) = (H/4)(h - eta x eta) (off-diagonal branches)",
        _fold(np.abs(ric - target).max(axis=(1, 2))), 1e-8)]

    if qd and con().is_vacuum_admissible:
        us = stack.frames
        factor = (comp[:, 3] + comp[:, 5]) / (2.0 * profile._betas(stack.times))
        scaled = factor[:, None, None] * _dh_dt(sol, profile, stack.times, step)
        # Ric(h_t) pulled back to the reference coframe components
        ric_ref = us.transpose(0, 2, 1) @ ric @ us
        rows.append(CheckResult(
            "Ric(h) = (Tr(Theta)/(2 beta)) dh/dt (constrained quasi-diagonal)",
            _fold(np.abs(ric_ref - scaled).max(axis=(1, 2))), 1e-6))
    return rows


def _dh_dt(sol: FlowSolution, profile: LapseProfile, times: np.ndarray,
           step: float) -> np.ndarray:
    """dh_t/dt at ``times`` by central differences of h_t = U_t^T U_t, from
    one stacked B_t and U_t at all t +- step, which lie inside the table and
    the lifespan.  Where U_t stops short of them at the lifespan boundary,
    sample by sample at t + step, then t - step, the guard's SingularTime
    raises here; U_t of a Theta_uu zero within tol takes no guard
    (``FlowSolution._frames``)."""
    near = (times[:, None] + np.array([step, -step])).ravel()
    us = sol._frames(profile.b_integral(near))
    h = sym_matrices((us.transpose(0, 2, 1) @ us).reshape(-1, 2, 9)[..., _SYM_FLAT])
    return (h[:, 0] - h[:, 1]) / (2.0 * step)


def _check_cosymplectic(stack: _Samples, con, step: float) -> list[CheckResult]:
    """Parallelism and closedness of the distinguished one-forms."""
    sol = stack.sol
    us = stack.frames
    stack.check()
    rows = []
    if sol.branch != QD:
        om = levi_civita(structure_constants_from_theta(stack.comp))
        nabla_eta = np.einsum("zabd,d->zab", om, sol.eta)
        rows.append(CheckResult("parallel one-form: nabla eta = 0",
                                _fold(np.abs(nabla_eta).max(axis=(1, 2))), 1e-10))

    rows.append(CheckResult(
        "log-scale differential is closed",
        _fold([closedness_residual(sol.pair, alpha)
               for alpha in _log_scale_differential(sym_matrices(stack.comp), us)]),
        1e-12))
    return rows


def _check_oracle(stack: _Samples, con, step: float) -> list[CheckResult]:
    """Closed forms against the numerical integrator."""
    states = _integrate(stack.sol.pair, stack.profile, stack.times.tolist(),
                        stack.bts.tolist())
    residuals = np.max(_residuals(states.comp, states.U, stack.sol.pair), axis=0)
    us = stack.frames
    stack.check()
    th_dev = np.abs(states.comp - stack.comp)
    u_dev = np.abs(states.U - us)
    flagged = tuple(states.state(i) for i, e in enumerate(states.error) if _uncertain(e))
    return [
        CheckResult("shape components match the closed form",
                    _fold(th_dev.max(axis=-1)), 1e-8, flagged),
        CheckResult("coframe transform matches the closed form",
                    _fold(u_dev.reshape(-1, 9).max(axis=-1)), 1e-8, flagged),
        CheckResult("flow-equation residuals along the trajectory",
                    _fold(residuals), 1e-8, flagged),
    ]


# each suite, and the number of samples it takes when none is asked for
_CHECKS = {
    "constraints": (_check_constraints, 50),
    "ricci4": (_check_ricci4, 20),
    "ricciflow": (_check_ricciflow, 20),
    "cosymplectic": (_check_cosymplectic, 20),
    "oracle": (_check_oracle, 20),
}


def run_suite(pair: CauchyPair, profile: LapseProfile, suite: str,
              samples: int | None = None, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run one named suite, or all of them in declaration order.

    The pair is solved once, which validates it, its constraints evaluated at
    most once, and the suites that take the same number of samples read
    one stack of them (``exact._Samples``).  Raises ValueError on an
    unknown suite, or on fewer than one sample."""
    if suite not in _CHECKS and suite != "all":
        raise ValueError(f"unknown suite: {suite!r}")
    if samples is not None and samples < 1:
        raise ValueError(f"a suite takes at least 1 sample, not {samples}")
    sol = solve(pair, tol)
    # the ends of the sample window, the first and last time of every count,
    # each 5% of the window, (hi - lo) / 18, inside it: t +- step stays
    # inside the window
    lo, hi = _sample_times(sol, profile, 2).tolist()
    step = min(1e-5, (hi - lo) / 36)
    stack = functools.cache(lambda n: _Samples(sol, profile, np.linspace(lo, hi, n)))
    # the pair's constraints, evaluated where the first suite reads them
    con = functools.cache(lambda: _constraints(pair.theta, tol))
    rows = []
    for name in SUITES if suite == "all" else (suite,):
        check, default = _CHECKS[name]
        rows.extend(check(stack(samples or default), con, step))
    return rows
