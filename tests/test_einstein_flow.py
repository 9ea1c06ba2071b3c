"""The Einstein and spinor flows coincide on constrained data: an independent
evolution of the vacuum Einstein equations matches the closed-form metric.

The paper's headline result is that the spinor flow preserves the vacuum
constraints, so that on constrained initial data its metrics solve
Einstein's equations.  Here that is checked by a second evolution that
shares nothing with the package beyond the input pair: the left-invariant
vacuum ADM system with zero shift and a constant lapse beta,

    dh/dt = -2 beta K,
    dK/dt = beta (Ric(h) + tr_h(K) K - 2 K h^-1 K),

from h = I and K = Theta_0, with the brackets [x_u, x_b] = Theta_ab x_a (b
in l, n) of the paper's reference frame written out here, and Ric(h) from
``conftest.ricci_x``, integrated by scipy's DOP853.  On the constrained
pairs its h_t is the closed form's U_t^T U_t; on the unconstrained rows the
evolution leaves the constraint surface and the two part.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinorflow import LapseProfile, lifespan, solve

from conftest import CONSTRAINED_PAIRS, ROW_PAIRS, besse_ricci, ricci_x

UNCONSTRAINED = sorted(set(ROW_PAIRS) - set(CONSTRAINED_PAIRS))
FRACTIONS = (0.3, 0.6, 0.9)
# where a lifespan end is infinite, the times reach this far on that side
FAR = 2.0


def _brackets(theta: np.ndarray) -> np.ndarray:
    """c[a][b][d] with [x_b, x_d] = c[a][b][d] x_a: [x_u, x_b] = Theta_ab x_a
    for b in (l, n), and [x_l, x_n] = 0."""
    c = np.zeros((3, 3, 3))
    for b in (1, 2):
        c[:, 0, b] = theta[:, b]
        c[:, b, 0] = -theta[:, b]
    return c


def _einstein_metrics(pair, beta: float, times) -> np.ndarray:
    """h_t of the vacuum ADM evolution of ``pair`` at each of ``times``
    (either sign), one 3x3 matrix each, in the order of ``times``."""
    theta = pair.theta.as_matrix()
    c = _brackets(theta)

    def rhs(_, y):
        h, k = y[:9].reshape(3, 3), y[9:].reshape(3, 3)
        kg = k @ np.linalg.inv(h)
        return np.concatenate([(-2.0 * beta * k).ravel(),
                               (beta * (ricci_x(h, c) + np.trace(kg) * k
                                        - 2.0 * kg @ k)).ravel()])

    y0 = np.concatenate([np.eye(3).ravel(), theta.ravel()])
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), 3, 3))
    for side in (times > 0, times < 0):
        stops = times[side]
        end = stops[np.argmax(np.abs(stops))]
        run = solve_ivp(rhs, (0.0, end), y0, method="DOP853", t_eval=stops,
                        rtol=1e-12, atol=1e-14)
        assert run.success, run.message
        out[side] = run.y[:9].T.reshape(-1, 3, 3)
    return out


def _times(pair, profile) -> np.ndarray:
    """0.3, 0.6 and 0.9 of the way to each lifespan end, or to +-FAR where
    an end is infinite."""
    span = lifespan(pair, profile)
    ends = [e if math.isfinite(e) else math.copysign(FAR, e)
            for e in (span.t_minus, span.t_plus)]
    return np.array([f * e for e in ends for f in FRACTIONS])


def _gaps(pair, beta: float) -> np.ndarray:
    """At each of ``_times``, max |h_t - U_t^T U_t| over the components,
    relative to max(1, max |U_t^T U_t|)."""
    profile = LapseProfile.constant(beta)
    times = _times(pair, profile)
    us = solve(pair)._frames(profile.b_integral(times))
    closed = us.transpose(0, 2, 1) @ us
    gap = np.abs(_einstein_metrics(pair, beta, times) - closed).max(axis=(1, 2))
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


@pytest.mark.parametrize("beta", [1.0, 1.3])
@pytest.mark.parametrize("name", sorted(CONSTRAINED_PAIRS))
def test_the_einstein_flow_is_the_spinor_flow_on_constrained_pairs(name, beta):
    assert _gaps(CONSTRAINED_PAIRS[name], beta).max() <= 1e-10


@pytest.mark.parametrize("name", UNCONSTRAINED)
def test_the_flows_part_on_unconstrained_pairs(name):
    # the check has teeth: off the constraint surface h_t is no vacuum metric
    assert _gaps(ROW_PAIRS[name], 1.0)[-1] >= 0.1
