"""Verification suites: per-pair residual checks runnable from the CLI.

Each suite evaluates a family of identities along the flow and returns one
row per assertion with the worst residual over the sampled times.  Sampling
covers the middle 90 percent of the lifespan: its infinite ends, and the ends
a tabulated lapse leaves unknown (None), are clipped to +-2 flow-time units,
and then every end is cut to the table's domain.

A suite evaluates its samples as one stack.  B_t, Theta_t, U_t and the
closed form of H_t stay per-sample ``math`` calls, taken one sample at a
time; the curvature algebra then runs once over the stack, and each row's
residual is the ``_worst`` of its per-sample residuals, in sample order, so
a NaN still fails its row.  A sample that raises does so once the samples
before it have been evaluated, as one sample at a time did.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .exact import QD, FlowSolution, solve
from .frames import frame_ricci, levi_civita, structure_constants_from_theta, \
    sym_components, sym_matrices
from .lapse import LapseProfile
from .lorentz import _coframe4, _identity_residual, _log_scale_differential, \
    closedness_residual, ricci4
from .numeric import FlowState, _hamiltonians, _integrate, _until_raised, \
    flow_residuals, uncertified
from .pairs import CauchyPair, DEFAULT_TOL, _constraints, constraints, \
    require_valid

SUITES = ("constraints", "ricci4", "ricciflow", "cosymplectic", "oracle")

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


def _worst(a: float, b: float) -> float:
    """max(a, b), but NaN when either is: a residual that is not a number
    must fail its row, and max() keeps its first argument against a NaN."""
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def sample_window(pair: CauchyPair, profile: LapseProfile,
                  tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Middle 90 percent of the lifespan, infinite or unknown ends clipped
    to +-2, every end cut to the table's domain."""
    return _window(solve(pair, tol), profile)


def sample_times(pair: CauchyPair, profile: LapseProfile, n: int,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    return _sample_times(solve(pair, tol), profile, n)


def _window(sol: FlowSolution, profile: LapseProfile) -> tuple[float, float]:
    """``sample_window`` of the pair that ``sol`` solves."""
    span = sol.lifespan(profile)
    lo = -_CLIP if span.t_minus is None or math.isinf(span.t_minus) else span.t_minus
    hi = _CLIP if span.t_plus is None or math.isinf(span.t_plus) else span.t_plus
    dlo, dhi = profile.domain()
    lo, hi = max(lo, dlo), min(hi, dhi)
    width = hi - lo
    return lo + 0.05 * width, hi - 0.05 * width


def _sample_times(sol: FlowSolution, profile: LapseProfile, n: int) -> np.ndarray:
    """``sample_times`` of the pair that ``sol`` solves."""
    lo, hi = _window(sol, profile)
    return np.linspace(lo, hi, n)


def _fold(residuals) -> float:
    """The ``_worst`` of 0.0 and the per-sample residuals, folded in sample
    order: the row's residual, NaN when one of them is."""
    return functools.reduce(_worst, np.asarray(residuals, dtype=float).tolist(), 0.0)


def suite_constraints(pair: CauchyPair, profile: LapseProfile, samples: int = 50,
                      tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Propagation of the vacuum constraints along the flow."""
    con = constraints(pair, tol)
    h0 = con.hamiltonian
    sol = solve(pair, tol)
    # the closed form of H_t is taken with Theta_t, ahead of the squares of
    # H_t that came before it in a sample: it raises only where Theta_t is
    # too small for them to
    got, pending = _until_raised(
        (sol.theta_at(bt), sol.hamiltonian_at(h0, bt))
        for bt in map(profile.b_integral, _sample_times(sol, profile, samples)))
    # evolved from a validated pair: validating it again decides nothing
    rep = _constraints(sym_components(th for th, _ in got), tol)
    if pending:
        raise pending
    ham_dev = [abs(h - closed) for h, (_, closed) in zip(rep.hamiltonian, got)]
    # the momentum residual is tied to the Hamiltonian: -(H/2) e_u
    target = np.multiply.outer(-0.5 * np.array(rep.hamiltonian), [1.0, 0.0, 0.0])
    mom = rep.momentum_residual
    rows = [
        CheckResult("hamiltonian matches its closed-form evolution",
                    _fold(ham_dev), 1e-8),
        CheckResult("momentum residual equals -(H/2) e_u along the flow",
                    _fold(np.abs(mom - target).max(axis=-1)), 1e-9),
    ]
    if con.is_vacuum_admissible:
        rows.append(CheckResult("hamiltonian stays zero (constrained pair)",
                                _fold(np.abs(rep.hamiltonian)), 1e-9))
        rows.append(CheckResult("momentum residual vanishes (constrained pair)",
                                _fold(np.abs(mom).max(axis=-1)), 1e-9))
    return rows


def _evolved(sol: FlowSolution, profile: LapseProfile, times):
    """B_t, the components of Theta_t and H_t at each of ``times``.
    B_t and Theta_t are taken one sample at a time, the squares of H_t row
    by row: an exception of a sample is raised once the samples before it
    have been evaluated, as a sample at a time would."""
    got, pending = _until_raised(
        (bt, sol.theta_at(bt)) for bt in map(profile.b_integral, times))
    thetas = [th for _, th in got]
    comp = sym_components(thetas)
    hams, raised = _until_raised(_hamiltonians(comp, thetas))
    if raised or pending:
        raise raised or pending
    return [bt for bt, _ in got], comp, np.array(hams)


def suite_ricci4(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                 tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """The 4D Ricci identity, plus exact flatness on constrained pairs."""
    constrained = constraints(pair, tol).is_vacuum_admissible
    sol = solve(pair, tol)
    times = _sample_times(sol, profile, samples)
    _, comp, hams = _evolved(sol, profile, times)
    ric = ricci4(_coframe4(comp, profile, times)).components
    rows = [CheckResult("4D Ricci equals (H/2) null-direction square",
                        _fold(_identity_residual(ric, hams)), 1e-6)]
    if constrained:
        rows.append(CheckResult("4D Ricci vanishes (constrained pair)",
                                _fold(np.abs(ric).max(axis=(1, 2))), 1e-8))
    return rows


def suite_ricciflow(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                    tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Remark identities tying Ric(h_t) to the shape tensor and, on
    constrained quasi-diagonal pairs, to the time derivative of h_t."""
    require_valid(pair, tol)
    sol = solve(pair, tol)
    qd = sol.branch == QD
    times = _sample_times(sol, profile, samples)
    bts, comp, hams = _evolved(sol, profile, times)
    ric, _ = frame_ricci(np.ones(3), structure_constants_from_theta(comp))
    ric = 0.5 * (ric + ric.swapaxes(1, 2))
    if qd:
        # T is the trace of the lower 2x2 block, not the full trace
        target = -(comp[:, 3] + comp[:, 5])[:, None, None] * sym_matrices(comp)
        target[:, 0, 0] += 0.5 * hams
    else:
        target = np.multiply.outer(0.25 * hams, np.eye(3) - np.outer(sol.eta, sol.eta))
    rows = [CheckResult(
        "Ric(h) = -Tr(Theta) Theta + (H/2) e_u x e_u (quasi-diagonal)" if qd
        else "Ric(h) = (H/4)(h - eta x eta) (off-diagonal branches)",
        _fold(np.abs(ric - target).max(axis=(1, 2))), 1e-8)]

    if qd and _constraints(pair.theta, tol).is_vacuum_admissible:
        step = 1e-5

        def dh_dt():
            for t, bt in zip(times, bts):
                th_t = sol.theta_at(bt)
                u = sol.frame_at(bt).U
                h_plus = sol.metric_at(profile.b_integral(t + step)).as_matrix()
                h_minus = sol.metric_at(profile.b_integral(t - step)).as_matrix()
                dh = (h_plus - h_minus) / (2.0 * step)
                yield u, (th_t.ll + th_t.nn) / (2.0 * profile.beta(t)) * dh

        got = list(dh_dt())
        us = np.array([u for u, _ in got]).reshape(-1, 3, 3)
        scaled = np.array([x for _, x in got]).reshape(-1, 3, 3)
        # Ric(h_t) pulled back to the reference coframe components
        ric_ref = us.transpose(0, 2, 1) @ ric @ us
        rows.append(CheckResult(
            "Ric(h) = (Tr(Theta)/(2 beta)) dh/dt (constrained quasi-diagonal)",
            _fold(np.abs(ric_ref - scaled).max(axis=(1, 2))), 1e-6))
    return rows


def suite_cosymplectic(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                       tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Parallelism and closedness of the distinguished one-forms."""
    require_valid(pair, tol)
    sol = solve(pair, tol)
    rows = []
    # U_t is taken with Theta_t in each sample: on the lambda != 0 branches,
    # where every Theta_t came first, U_t raises only where Theta_t does
    got = [(sol.theta_at(bt), sol.frame_at(bt).U)
           for bt in map(profile.b_integral, _sample_times(sol, profile, samples))]
    comp = sym_components(th for th, _ in got)
    if sol.branch != QD:
        om = levi_civita(structure_constants_from_theta(comp))
        nabla_eta = np.einsum("zabd,d->zab", om, sol.eta)
        rows.append(CheckResult("parallel one-form: nabla eta = 0",
                                _fold(np.abs(nabla_eta).max(axis=(1, 2))), 1e-10))

    us = np.array([u for _, u in got]).reshape(-1, 3, 3)
    rows.append(CheckResult(
        "log-scale differential is closed",
        _fold([closedness_residual(pair, alpha)
               for alpha in _log_scale_differential(sym_matrices(comp), us)]), 1e-12))
    return rows


def suite_oracle(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                 tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Closed forms against the numerical integrator."""
    require_valid(pair, tol)
    sol = solve(pair, tol)
    times = _sample_times(sol, profile, samples)
    states, bts = _integrate(pair, profile, times, tol=tol)
    residuals = flow_residuals(states, pair)
    closed = [(sol.theta_at(bt), sol.frame_at(bt).U) for bt in bts]
    th_dev = np.abs(sym_components(st.theta for st in states)
                    - sym_components(th for th, _ in closed))
    u_dev = np.abs(np.array([st.U for st in states]) - np.array([u for _, u in closed]))
    flagged = tuple(uncertified(states))
    return [
        CheckResult("shape components match the closed form",
                    _fold(th_dev.max(axis=-1)), 1e-8, flagged),
        CheckResult("coframe transform matches the closed form",
                    _fold(u_dev.reshape(-1, 9).max(axis=-1)), 1e-8, flagged),
        CheckResult("flow-equation residuals along the trajectory",
                    _fold([res.max() for res in residuals]), 1e-8, flagged),
    ]


_SUITE_FUNCS = {
    "constraints": suite_constraints,
    "ricci4": suite_ricci4,
    "ricciflow": suite_ricciflow,
    "cosymplectic": suite_cosymplectic,
    "oracle": suite_oracle,
}


def run_suite(pair: CauchyPair, profile: LapseProfile, suite: str,
              samples: int | None = None, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Run one named suite, or all of them in declaration order."""
    if suite == "all":
        rows = []
        for name in SUITES:
            rows.extend(run_suite(pair, profile, name, samples, tol))
        return rows
    func = _SUITE_FUNCS.get(suite)
    if func is None:
        raise ValueError(f"unknown suite: {suite!r}")
    if samples is None:
        return func(pair, profile, tol=tol)
    return func(pair, profile, samples=samples, tol=tol)
