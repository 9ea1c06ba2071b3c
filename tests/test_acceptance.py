"""Acceptance gate: eight end-to-end criteria at pinned tolerances.

Each test prints one summary line of the form

    [pass] criterion N: <description> (worst <value>, tol <value>)

and fails the run when the pinned tolerance is exceeded.
"""

import math
import time

import numpy as np

from spinorflow import CauchyPair, LapseProfile, coframe4_at, constraints, \
    frame_exact, hamiltonian_exact, hamiltonian_of, integrate_to, \
    lifespan, metric_exact, ricci4, theta_exact, verify_ricci_identity
from spinorflow.pairs import algebraic_residuals
from spinorflow.verify import run_suite, sample_times

from conftest import CONSTRAINED_PAIRS, ROW_PAIRS

UNIT = LapseProfile.constant(1.0)


def report(number: int, label: str, worst: float, tol: float) -> None:
    mark = "pass" if worst <= tol else "FAIL"
    print(f"[{mark}] criterion {number}: {label} (worst {worst:.3e}, tol {tol:.0e})")
    assert worst <= tol


def window_times(pair, n):
    lo, hi = sample_times(pair, UNIT, 2)
    return np.linspace(lo, hi, n)


def test_criterion_1_oracle_equivalence():
    """Closed form vs RK4 at step at most 1e-4 over the middle 90% of each lifespan."""
    start = time.perf_counter()
    worst = 0.0
    for pair in ROW_PAIRS.values():
        lo, hi = sample_times(pair, UNIT, 2)
        times = np.linspace(lo, hi, 7)
        n_total = int(math.ceil((hi - lo) / 1e-4))
        states = integrate_to(pair, UNIT, times, n_steps_total=n_total)
        for t, st in zip(times, states):
            th = theta_exact(pair, UNIT, t).as_matrix()
            u = frame_exact(pair, UNIT, t).U
            worst = max(worst, float(np.max(np.abs(st.theta.as_matrix() - th))))
            worst = max(worst, float(np.max(np.abs(st.U - u))))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f} s"
    report(1, "closed-form flow matches the RK4 oracle on every row", worst, 1e-8)


def test_criterion_2_metric_families():
    """The reconstructed metric families at 100 sample times per pair."""
    worst = 0.0
    for pair in ROW_PAIRS.values():
        for t in window_times(pair, 100):
            h = metric_exact(pair, UNIT, t).as_matrix()
            u = frame_exact(pair, UNIT, t).U
            worst = max(worst, float(np.max(np.abs(h - u.T @ u))))

    # spot checks against hand-expanded branch expressions
    un_pair = CauchyPair.from_components(un=1.0)
    for t in window_times(un_pair, 100):
        h = metric_exact(un_pair, UNIT, t)
        sec2 = 1.0 / math.cos(t) ** 2
        worst = max(worst, abs(h.nn - (1.0 + t * t * sec2 + 2.0 * t * math.tan(t))))

    uu_pair = CauchyPair.from_components(uu=1.0)
    for t in window_times(uu_pair, 100):
        h = metric_exact(uu_pair, UNIT, t)
        worst = max(worst, abs(h.uu - (1.0 - t) ** 2), abs(h.ll - 1.0),
                    abs(h.nn - 1.0))

    e11 = CauchyPair.from_components(ll=1.0, nn=-1.0)
    for t in np.linspace(-1.8, 1.8, 100):
        h = metric_exact(e11, UNIT, t)
        worst = max(worst, abs(h.uu - 1.0), abs(h.ll - math.exp(-2.0 * t)),
                    abs(h.nn - math.exp(2.0 * t)))
    report(2, "metric families match the displayed branch expressions", worst, 1e-10)


def test_criterion_3_constraint_preservation():
    """Both vacuum constraints stay zero along constrained-Ricci-flat flows."""
    worst = 0.0
    for pair in CONSTRAINED_PAIRS.values():
        for t in window_times(pair, 50):
            rep = constraints(CauchyPair(theta_exact(pair, UNIT, t)))
            worst = max(worst, abs(rep.hamiltonian),
                        float(np.max(np.abs(rep.momentum_residual))))
    report(3, "vacuum constraints propagate on constrained pairs", worst, 1e-9)


def test_criterion_4_hamiltonian_evolution():
    """Recomputed Hamiltonian along the flow equals its closed-form evolution."""
    worst = 0.0
    for pair in ROW_PAIRS.values():
        h0 = constraints(pair).hamiltonian
        for t in window_times(pair, 50):
            recomputed = hamiltonian_of(theta_exact(pair, UNIT, t))
            worst = max(worst, abs(recomputed - hamiltonian_exact(pair, h0, UNIT, t)))

    # displayed special cases: sec^2 growth and the constant E(1,1) value
    un_pair = CauchyPair.from_components(un=1.0)
    h0 = constraints(un_pair).hamiltonian
    for t in window_times(un_pair, 50):
        recomputed = hamiltonian_of(theta_exact(un_pair, UNIT, t))
        worst = max(worst, abs(recomputed - h0 / math.cos(t) ** 2))
    e11 = CauchyPair.from_components(ll=1.0, nn=-1.0)
    for t in np.linspace(-1.8, 1.8, 50):
        worst = max(worst, abs(hamiltonian_of(theta_exact(e11, UNIT, t)) + 4.0))
    report(4, "Hamiltonian evolution matches its closed forms", worst, 1e-8)


def test_criterion_5_ricci4_identity():
    """4D Ricci equals (H/2) times the squared null direction; exact
    flatness on the constrained subset."""
    worst = 0.0
    for pair in ROW_PAIRS.values():
        for t in window_times(pair, 20):
            worst = max(worst, verify_ricci_identity(pair, UNIT, t))
    report(5, "4D Ricci identity holds on every row", worst, 1e-6)

    flat = 0.0
    for pair in CONSTRAINED_PAIRS.values():
        for t in window_times(pair, 20):
            ric = ricci4(coframe4_at(pair, UNIT, t))
            flat = max(flat, float(np.max(np.abs(ric.components))))
    report(5, "4D Ricci vanishes on the constrained subset", flat, 1e-8)


def test_criterion_6_lifespans():
    """Maximal intervals for the displayed pairs, boundaries to 1e-10."""
    worst = 0.0

    span = lifespan(CauchyPair.from_components(uu=1.0), UNIT)
    assert math.isinf(span.t_minus) and span.t_minus < 0
    worst = max(worst, abs(span.t_plus - 1.0))

    span = lifespan(CauchyPair.from_components(uu=-1.0), UNIT)
    assert math.isinf(span.t_plus) and span.t_plus > 0
    worst = max(worst, abs(span.t_minus + 1.0))

    span = lifespan(CauchyPair.from_components(un=1.0), UNIT)
    worst = max(worst, abs(span.t_minus + math.pi / 2),
                abs(span.t_plus - math.pi / 2))

    e11 = lifespan(CauchyPair.from_components(ll=1.0, nn=-1.0), UNIT)
    assert e11.immortal
    report(6, "lifespans match the displayed intervals", worst, 1e-10)


def test_criterion_7_remark_identities():
    """Branch Ricci identities, parallel eta, and the Ricci-flow property."""
    tol_by_name = {}
    worst_by_name = {}
    for pair in ROW_PAIRS.values():
        rows = run_suite(pair, UNIT, "ricciflow") + run_suite(pair, UNIT, "cosymplectic")
        for row in rows:
            tol_by_name[row.name] = row.tol
            worst_by_name[row.name] = max(worst_by_name.get(row.name, 0.0),
                                          row.residual)
    # the three remark identities must all have been exercised
    assert any("quasi-diagonal" in n for n in worst_by_name)
    assert any("off-diagonal" in n for n in worst_by_name)
    assert any("nabla eta" in n for n in worst_by_name)
    assert any("dh/dt" in n for n in worst_by_name)
    worst = max(worst_by_name[n] / tol_by_name[n] for n in worst_by_name)
    report(7, "remark identities hold on every branch (worst residual/tol)",
           worst, 1.0)


def test_criterion_8_integrals_of_motion():
    """Conserved quantities along every numeric trajectory."""
    drift = algebra = 0.0
    for pair in ROW_PAIRS.values():
        lo, hi = sample_times(pair, UNIT, 2)
        for t_end in (lo, hi):
            # 200 records, 50 RK4 steps apart
            for st in integrate_to(pair, UNIT, np.linspace(0.0, t_end, 201)):
                drift = max(drift, abs(st.theta.ul - pair.theta.ul),
                            abs(st.theta.un - pair.theta.un))
                for _, val in algebraic_residuals(CauchyPair(st.theta)):
                    algebra = max(algebra, abs(val))
                assert np.linalg.det(st.U) > 0
    report(8, "off-diagonal shape components are conserved", drift, 1e-12)
    report(8, "algebraic relations persist along trajectories", algebra, 1e-8)
