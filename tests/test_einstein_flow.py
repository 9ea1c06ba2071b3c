"""The Einstein and spinor flows coincide: an independent evolution of
Einstein's equations with the paper's null source matches the closed-form
metric on every row.

The paper's point is that a metric with a parallel spinor need not be
Ricci-flat: its development satisfies Ric4 = (H_t/2) l x l, l = e_0 + e_u,
and on constrained data (H = 0) it solves the vacuum equations.  Here that
is checked by a second evolution that shares nothing with the package
beyond the input pair and lapse: the left-invariant ADM system with zero
shift and lapse beta(t),

    dh/dt = -2 beta K,
    dK/dt = beta (Ric(h) + tr_h(K) K - 2 K h^-1 K - S),

from h = I and K = Theta_0, with the brackets [x_u, x_b] = Theta_ab x_a (b
in l, n) of the paper's reference frame written out here, and Ric(h) from
``conftest.ricci_x``, integrated in t by scipy's DOP853.  S, the spatial
part of Ric4 (Gourgoulhon, arXiv gr-qc/0703035: the matter term of
dK_ij/dt), is read off the constraints of the evolved h and K, never off
U_t: the Hamiltonian H = R(h) + (tr_h K)^2 - |K|^2 and the momentum
M = div_h K (d tr_h K = 0 for left-invariant data), which is -(H/2) e_u, so
that S = (H/2) e_u x e_u = (2/H) M x M, with no sign to choose.  The
vacuum system (S = 0) is the Einstein flow of the constrained pairs, on
which S vanishes.  A tabulated lapse is ``np.interp`` of its table, not the
package's B_t or its inverse, and the integration restarts at each node, so
that no step crosses a kink.  Each evolution takes at most ``MAX_RHS``
right-hand sides, so one that runs into a pole the closed form does not
have fails fast.  Its h_t is the closed form's U_t^T U_t on every row; on
the unconstrained rows the vacuum evolution leaves the constraint surface
and the two part.
"""

import itertools

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinorflow import LapseProfile, lifespan, solve

from conftest import CONSTRAINED_PAIRS, ROW_PAIRS, besse_ricci, ricci_x

UNCONSTRAINED = sorted(set(ROW_PAIRS) - set(CONSTRAINED_PAIRS))
FRACTIONS = (0.3, 0.6, 0.9)
# where a lifespan end is infinite or unknown, the times reach this far on that side
FAR = 2.0
NODES, VALUES = [-3.0, -1.0, 0.2, 1.5, 4.0], [0.9, 0.8, 1.3, 1.0, 1.2]
# each lapse, a constant or the 5-node table: the package's profile, for
# the closed form, and the ADM evolution's beta(t) and the kinks it restarts at
LAPSES = {
    1.0: (LapseProfile.constant(1.0), lambda t: 1.0, ()),
    1.3: (LapseProfile.constant(1.3), lambda t: 1.3, ()),
    "table-5": (LapseProfile.tabulated(NODES, VALUES),
                lambda t: float(np.interp(t, NODES, VALUES)), NODES),
}


# the right-hand sides one case may take: 2.8 times the most the rows need
MAX_RHS = 5000


def _brackets(theta: np.ndarray) -> np.ndarray:
    """c[a][b][d] with [x_b, x_d] = c[a][b][d] x_a: [x_u, x_b] = Theta_ab x_a
    for b in (l, n), and [x_l, x_n] = 0."""
    c = np.zeros((3, 3, 3))
    for b in (1, 2):
        c[:, 0, b] = theta[:, b]
        c[:, b, 0] = -theta[:, b]
    return c


def _constraints(h, k, c):
    """H = R(h) + (tr_h K)^2 - |K|^2 and M = div_h K of the left-invariant
    metric h and symmetric tensor K, in the basis x with brackets c; the
    Levi-Civita connection by the Koszul formula."""
    g = np.linalg.inv(h)
    kg = k @ g
    ham = np.trace(g @ ricci_x(h, c)) + np.trace(kg) ** 2 - np.trace(kg @ kg)
    low = np.einsum("ed,dai->eai", h, c)  # low[e, a, i] = <[x_a, x_i], x_e>
    # <nabla_{x_b} x_a, x_e> = (<[x_b, x_a], x_e> - <[x_a, x_e], x_b>
    #                            + <[x_e, x_b], x_a>) / 2, raised by h^-1:
    # nabla_{x_b} x_a = conn[b, a, d] x_d
    conn = 0.5 * (low.transpose(1, 2, 0) - low + low.transpose(2, 0, 1)) @ g
    # (nabla_b K)(x_a, x_e), K constant on left-invariant fields
    nabla_k = -conn @ k - (conn @ k).transpose(0, 2, 1)
    return ham, np.einsum("ba,bae->e", g, nabla_k)


def _einstein_metrics(pair, beta, kinks, times, source=True, rtol=1e-12) -> np.ndarray:
    """h_t of the ADM evolution of ``pair`` with the lapse ``beta``, a
    function of t, with the null source or, not ``source``, in vacuum, at
    each of ``times`` (either sign), one 3x3 matrix each, in the order of
    ``times``.  Each leg of the integration ends at the next of ``kinks``
    between 0 and the farthest time on its side."""
    theta = pair.theta.as_matrix()
    c = _brackets(theta)
    calls = itertools.count(1)

    def rhs(t, y):
        if next(calls) > MAX_RHS:
            raise AssertionError(f"the evolution took more than {MAX_RHS} right-hand sides")
        h, k = y[:9].reshape(3, 3), y[9:].reshape(3, 3)
        kg = k @ np.linalg.inv(h)
        s = 0.0
        if source:  # H != 0 off the constraint surface
            ham, m = _constraints(h, k, c)
            s = (2.0 / ham) * np.outer(m, m)
        b = beta(t)
        return np.concatenate([(-2.0 * b * k).ravel(),
                               (b * (ricci_x(h, c) + np.trace(kg) * k
                                     - 2.0 * kg @ k - s)).ravel()])

    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), 3, 3))
    for side in (times > 0, times < 0):
        rows = np.flatnonzero(side)
        end = times[rows[np.argmax(np.abs(times[rows]))]]
        legs = [0.0, *sorted((k for k in kinks if 0.0 < k / end < 1.0), key=abs), end]
        y = np.concatenate([np.eye(3).ravel(), theta.ravel()])
        for a, b in zip(legs, legs[1:]):
            run = solve_ivp(rhs, (a, b), y, method="DOP853", dense_output=True,
                            rtol=rtol, atol=1e-2 * rtol)
            assert run.success, run.message
            here = rows[(abs(a) < np.abs(times[rows])) & (np.abs(times[rows]) <= abs(b))]
            if len(here):
                out[here] = run.sol(times[here])[:9].T.reshape(-1, 3, 3)
            y = run.y[:, -1]
    return out


def _times(pair, profile) -> np.ndarray:
    """0.3, 0.6 and 0.9 of the way to each end of the lifespan inside the
    lapse's domain, or to +-FAR where an end is infinite or unknown."""
    ends = lifespan(pair, profile).inside(profile, FAR)
    return np.array([f * e for e in ends for f in FRACTIONS])


def _gaps(pair, lapse, **evolution) -> np.ndarray:
    """At each of ``_times``, max |h_t - U_t^T U_t| over the components,
    relative to max(1, max |U_t^T U_t|); ``evolution`` goes to
    ``_einstein_metrics``."""
    profile, beta, kinks = LAPSES[lapse]
    times = _times(pair, profile)
    us = solve(pair)._frames(profile.b_integral(times))
    closed = us.transpose(0, 2, 1) @ us
    h = _einstein_metrics(pair, beta, kinks, times, **evolution)
    gap = np.abs(h - closed).max(axis=(1, 2))
    return gap / np.maximum(1.0, np.abs(closed).max(axis=(1, 2)))


def test_ricci_x_is_besse_in_an_orthonormal_frame():
    # a non-unimodular algebra, so the mean curvature term counts, and a
    # metric far from I: Ric from the h-orthonormal frame f = x L^-T of the
    # Cholesky factor h = L L^T, pulled back to x
    c = _brackets(np.array([[0.0, 0.0, 0.0], [0.0, 1.2, -0.7], [0.0, 0.4, 2.0]]))
    m = np.array([[1.0, 0.3, -0.2], [0.5, 2.0, 0.1], [-0.4, 0.6, 0.7]])
    h = m @ m.T
    f = np.linalg.inv(np.linalg.cholesky(h)).T
    back = np.linalg.inv(f)
    c_f = np.einsum("kd,dab,ai,bj->kij", back, c, f, f)
    ref = back.T @ besse_ricci(c_f) @ back
    assert np.max(np.abs(ricci_x(h, c) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_the_momentum_is_tied_to_the_hamiltonian_on_every_row():
    # at t = 0, M = -(H/2) e_u, the momentum residual the constraints suite checks
    for pair in ROW_PAIRS.values():
        theta = pair.theta.as_matrix()
        ham, m = _constraints(np.eye(3), theta, _brackets(theta))
        assert np.max(np.abs(m - [-0.5 * ham, 0.0, 0.0])) <= 1e-13 * max(1.0, abs(ham))


@pytest.mark.parametrize("lapse", list(LAPSES))
@pytest.mark.parametrize("name", sorted(CONSTRAINED_PAIRS))
def test_the_einstein_flow_is_the_spinor_flow_on_constrained_pairs(name, lapse):
    assert _gaps(CONSTRAINED_PAIRS[name], lapse, source=False).max() <= 1e-10


# the step of the central differences in s = B_t
DELTA = 1e-5


@pytest.mark.parametrize("lapse", list(LAPSES))
@pytest.mark.parametrize("name", ["tau2R-qd", "tau3mu"])
def test_the_metric_is_a_ricci_flow_on_constrained_quasi_diagonal_pairs(name, lapse):
    # the abstract's Ricci-flow claim: h = U^T U solves dh/dtau = -2 Ric(h)
    # in tau = -(s - Theta_uu s^2 / 2) / T_0, s = B_t, T_0 = Theta_ll +
    # Theta_nn, so dtau/ds = -(1 - Theta_uu s) / T_0; dh/ds by central
    # differences in s, so that a table's kinks never enter, at t = 0 and at
    # 0.2 to 0.8 of the way to each end
    pair, profile = CONSTRAINED_PAIRS[name], LAPSES[lapse][0]
    th, sol = pair.theta, solve(pair)
    c = _brackets(th.as_matrix())
    ends = lifespan(pair, profile).inside(profile, FAR)
    times = [0.0, *(f * e for e in ends for f in (0.2, 0.4, 0.6, 0.8))]
    worst = 0.0
    for s in profile.b_integral(np.array(times)).tolist():
        lo, h, hi = (u.T @ u for u in sol._frames(np.array([s - DELTA, s, s + DELTA])))
        dh_dtau = (hi - lo) / (2.0 * DELTA) / (-(1.0 - th.uu * s) / (th.ll + th.nn))
        ric = ricci_x(h, c)
        worst = max(worst, np.abs(dh_dtau + 2.0 * ric).max() / max(1.0, np.abs(ric).max()))
    assert worst <= 1e-9


UNCONSTRAINED_CASES = [
    *(pytest.param(name, 1.0, id=name) for name in UNCONSTRAINED),
    *(pytest.param(name, "table-5", id=f"{name}-table-5") for name in UNCONSTRAINED)]


@pytest.mark.parametrize("name, lapse", UNCONSTRAINED_CASES)
def test_the_sourced_einstein_flow_is_the_spinor_flow(name, lapse):
    # Einstein's equations with the null source S = (H/2) e_u x e_u hold on
    # the unconstrained rows, the lambda != 0 rows included
    assert _gaps(ROW_PAIRS[name], lapse, rtol=1e-10).max() <= 1e-6


@pytest.mark.parametrize("name, lapse", UNCONSTRAINED_CASES)
def test_the_flows_part_on_unconstrained_pairs(name, lapse):
    # the check has teeth: off the constraint surface h_t is no vacuum metric
    assert _gaps(ROW_PAIRS[name], lapse, source=False)[-1] >= 0.1
