"""Verification suites: per-pair residual checks runnable from the CLI.

Each suite evaluates a family of identities along the flow and returns one
row per assertion with the worst residual over the sampled times.  Sampling
covers the middle 90 percent of the lifespan: its infinite ends, and the ends
a tabulated lapse leaves unknown (None), are clipped to +-2 flow-time units,
and then every end is cut to the table's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import QD, FlowSolution, solve
from .frames import levi_civita, ricci3, structure_constants_from_theta
from .lapse import LapseProfile
from .lorentz import _coframe4, _dirac_current, _identity_residual, \
    closedness_residual, ricci4
from .numeric import FlowState, flow_residuals, hamiltonian_of, integrate_to, \
    uncertified
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


def suite_constraints(pair: CauchyPair, profile: LapseProfile, samples: int = 50,
                      tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Propagation of the vacuum constraints along the flow."""
    con = constraints(pair, tol)
    h0 = con.hamiltonian
    sol = solve(pair, tol)
    ham_dev = mom_dev = ham_abs = mom_abs = 0.0
    for t in _sample_times(sol, profile, samples):
        bt = profile.b_integral(t)
        th_t = sol.theta_at(bt)
        # evolved from a validated pair: validating it again decides nothing
        rep = _constraints(th_t, tol)
        ham_dev = _worst(ham_dev, abs(rep.hamiltonian - sol.hamiltonian_at(h0, bt)))
        # the momentum residual is tied to the Hamiltonian: -(H/2) e_u
        target = -0.5 * rep.hamiltonian * np.array([1.0, 0.0, 0.0])
        mom_dev = _worst(mom_dev, float(np.max(np.abs(rep.momentum_residual - target))))
        ham_abs = _worst(ham_abs, abs(rep.hamiltonian))
        mom_abs = _worst(mom_abs, float(np.max(np.abs(rep.momentum_residual))))
    rows = [
        CheckResult("hamiltonian matches its closed-form evolution", ham_dev, 1e-8),
        CheckResult("momentum residual equals -(H/2) e_u along the flow",
                    mom_dev, 1e-9),
    ]
    if con.is_vacuum_admissible:
        rows.append(CheckResult(
            "hamiltonian stays zero (constrained pair)", ham_abs, 1e-9))
        rows.append(CheckResult(
            "momentum residual vanishes (constrained pair)", mom_abs, 1e-9))
    return rows


def suite_ricci4(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                 tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """The 4D Ricci identity, plus exact flatness on constrained pairs."""
    constrained = constraints(pair, tol).is_vacuum_admissible
    sol = solve(pair, tol)
    ident = flat = 0.0
    for t in _sample_times(sol, profile, samples):
        th_t = sol.theta_at(profile.b_integral(t))
        ric = ricci4(_coframe4(th_t, profile, t))
        ident = _worst(ident, _identity_residual(ric.components, hamiltonian_of(th_t)))
        if constrained:
            flat = _worst(flat, float(np.max(np.abs(ric.components))))
    rows = [CheckResult("4D Ricci equals (H/2) null-direction square", ident, 1e-6)]
    if constrained:
        rows.append(CheckResult("4D Ricci vanishes (constrained pair)", flat, 1e-8))
    return rows


def suite_ricciflow(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                    tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Remark identities tying Ric(h_t) to the shape tensor and, on
    constrained quasi-diagonal pairs, to the time derivative of h_t."""
    require_valid(pair, tol)
    sol = solve(pair, tol)
    qd = sol.branch == QD
    times = _sample_times(sol, profile, samples)
    res = 0.0
    for t in times:
        th_t = sol.theta_at(profile.b_integral(t))
        ric_t, _ = ricci3(structure_constants_from_theta(th_t))
        ham = hamiltonian_of(th_t)
        if qd:
            # T is the trace of the lower 2x2 block, not the full trace
            target = -(th_t.ll + th_t.nn) * th_t.as_matrix()
            target[0, 0] += 0.5 * ham
        else:
            target = 0.25 * ham * (np.eye(3) - np.outer(sol.eta, sol.eta))
        res = _worst(res, float(np.max(np.abs(ric_t.as_matrix() - target))))
    rows = [CheckResult(
        "Ric(h) = -Tr(Theta) Theta + (H/2) e_u x e_u (quasi-diagonal)" if qd
        else "Ric(h) = (H/4)(h - eta x eta) (off-diagonal branches)", res, 1e-8)]

    if qd and _constraints(pair.theta, tol).is_vacuum_admissible:
        step = 1e-5
        res = 0.0
        for t in times:
            bt = profile.b_integral(t)
            th_t = sol.theta_at(bt)
            u = sol.frame_at(bt).U
            ric_t, _ = ricci3(structure_constants_from_theta(th_t))
            # Ric(h_t) pulled back to the reference coframe components
            ric_ref = u.T @ ric_t.as_matrix() @ u
            h_plus = sol.metric_at(profile.b_integral(t + step)).as_matrix()
            h_minus = sol.metric_at(profile.b_integral(t - step)).as_matrix()
            dh = (h_plus - h_minus) / (2.0 * step)
            factor = (th_t.ll + th_t.nn) / (2.0 * profile.beta(t))
            res = _worst(res, float(np.max(np.abs(ric_ref - factor * dh))))
        rows.append(CheckResult(
            "Ric(h) = (Tr(Theta)/(2 beta)) dh/dt (constrained quasi-diagonal)",
            res, 1e-6))
    return rows


def suite_cosymplectic(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                       tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Parallelism and closedness of the distinguished one-forms."""
    require_valid(pair, tol)
    sol = solve(pair, tol)
    rows = []
    times = _sample_times(sol, profile, samples)

    if sol.branch != QD:
        res = 0.0
        for t in times:
            th_t = sol.theta_at(profile.b_integral(t))
            om = levi_civita(structure_constants_from_theta(th_t))
            res = _worst(res, float(np.max(np.abs(np.einsum("abd,d->ab", om, sol.eta)))))
        rows.append(CheckResult("parallel one-form: nabla eta = 0", res, 1e-10))

    res = 0.0
    for t in times:
        current = _dirac_current(sol, profile.b_integral(t))
        res = _worst(res, closedness_residual(pair, current.log_scale_differential))
    rows.append(CheckResult("log-scale differential is closed", res, 1e-12))
    return rows


def suite_oracle(pair: CauchyPair, profile: LapseProfile, samples: int = 20,
                 tol: float = DEFAULT_TOL) -> list[CheckResult]:
    """Closed forms against the numerical integrator."""
    require_valid(pair, tol)
    sol = solve(pair, tol)
    times = _sample_times(sol, profile, samples)
    states = integrate_to(pair, profile, times, tol=tol)
    th_dev = u_dev = resid = 0.0
    for t, st, res in zip(times, states, flow_residuals(states, pair)):
        bt = profile.b_integral(t)
        th_dev = _worst(th_dev, float(np.max(np.abs(
            st.theta.as_matrix() - sol.theta_at(bt).as_matrix()))))
        u_dev = _worst(u_dev, float(np.max(np.abs(st.U - sol.frame_at(bt).U))))
        resid = _worst(resid, res.max())
    flagged = tuple(uncertified(states))
    return [
        CheckResult("shape components match the closed form", th_dev, 1e-8, flagged),
        CheckResult("coframe transform matches the closed form", u_dev, 1e-8, flagged),
        CheckResult("flow-equation residuals along the trajectory", resid, 1e-8,
                    flagged),
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
