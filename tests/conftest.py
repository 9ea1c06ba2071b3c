"""Shared fixtures: one representative pair per admissible-family table row,
and the faults the stack tests inject into a stacked closed form."""

import numpy as np
import pytest

from spinorflow import CauchyPair, LapseProfile
from spinorflow.pairs import _ALGEBRAIC

ROW_PAIRS = {
    "R3": CauchyPair.from_components(uu=1.0),
    "E11": CauchyPair.from_components(ll=1.0, nn=-1.0),
    "tau2R-lambda": CauchyPair.from_components(ul=0.6, un=0.8),
    "tau2R-qd": CauchyPair.from_components(uu=1.0, ll=1.0),
    "tau2R-ul": CauchyPair.from_components(uu=-2.0, ul=1.0, ll=2.0),
    "tau2R-un": CauchyPair.from_components(uu=-2.0, un=1.0, nn=2.0),
    "tau2R-general": CauchyPair.from_components(
        uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0),
    "tau3mu": CauchyPair.from_components(uu=5.0 / 3.0, ll=2.0, nn=1.0),
}

CONSTRAINED_PAIRS = {
    "R3": ROW_PAIRS["R3"],
    "tau2R-qd": ROW_PAIRS["tau2R-qd"],
    "tau3mu": ROW_PAIRS["tau3mu"],
    "minkowski": CauchyPair.from_components(),
}


@pytest.fixture
def unit_lapse():
    return LapseProfile.constant(1.0)


@pytest.fixture(params=sorted(ROW_PAIRS), ids=sorted(ROW_PAIRS))
def row_pair(request):
    return ROW_PAIRS[request.param]


@pytest.fixture(params=sorted(CONSTRAINED_PAIRS), ids=sorted(CONSTRAINED_PAIRS))
def constrained_pair(request):
    return CONSTRAINED_PAIRS[request.param]


def pair_json(pair):
    """The ``{"theta": {"uu": ..., ...}}`` wire format of ``pair``."""
    return {"theta": pair.theta._asdict()}


def curvature_cells(report):
    """The cells of a ``curvature_report`` dict, in the order of
    ``lorentz._curvature``."""
    return (report["t"], report["beta"], *(x for row in report["ricci4"] for x in row),
            report["scalar4"], report["hamiltonian"], report["identity_residual"])


def algebraic_residuals(theta):
    """The four algebraic relations every admissible shape tensor satisfies
    (``pairs._ALGEBRAIC``), evaluated at the Sym3 ``theta``."""
    return [f(theta) for _, f in _ALGEBRAIC]


def fail_at(guarded, bts, bt, exc):
    """The (values, raised) of ``FlowSolution._guarded`` at ``bts`` with
    ``exc`` raised at the first sample whose B_t is ``bt``, as a fault met
    on entering that sample: unless a sample before it raised."""
    values, raised = guarded
    hits = np.flatnonzero(np.ravel(bts) == bt)
    if len(hits) and hits[0] <= len(values):
        return values[:hits[0]], exc
    return values, raised


def scale_at(values, v, key, factor):
    """The values of a stacked closed form at the guarded values ``v`` with
    those of each sample whose guarded value is ``key`` multiplied by
    ``factor``."""
    values = values.copy()
    values[np.ravel(v)[:len(values)] == key] *= factor
    return values


def besse_ricci(c):
    """Ricci tensor of the left-invariant metric whose orthonormal frame has
    brackets [X_b, X_d] = c[a][b][d] X_a, by the formula of Besse,
    *Einstein Manifolds*, 7.38 (Milnor, Adv. Math. 21 (1976)), with no
    connection:

        Ric(X, X) = -1/2 sum_i |[X, X_i]|^2 - 1/2 B(X, X)
                    + 1/4 sum_ij <[X_i, X_j], X>^2 - <[Z, X], X>,

    B the Killing form and <Z, Y> = tr ad_Y; the off-diagonal entries by
    polarization, Ric(X, Y) = (Ric(X+Y, X+Y) - Ric(X-Y, X-Y)) / 4."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    z = np.einsum("aba->b", c)  # Z^b = tr ad_{X_b}

    def quadratic(x):
        ad = np.einsum("b,abd->ad", x, c)  # ad_X, acting on frame components
        return (-0.5 * np.sum(ad**2)
                - 0.5 * np.trace(ad @ ad)
                + 0.25 * np.sum(np.einsum("aij,a->ij", c, x) ** 2)
                - x @ (np.einsum("b,abd->ad", z, c) @ x))

    basis = np.eye(n)
    return np.array([[quadratic(basis[i]) if i == j else
                      (quadratic(basis[i] + basis[j]) - quadratic(basis[i] - basis[j])) / 4
                      for j in range(n)] for i in range(n)])


def ricci_x(h, c):
    """Ricci tensor, in the basis x, of the left-invariant metric with
    components h_ab = <x_a, x_b> and brackets [x_b, x_d] = c[a][b][d] x_a:
    ``besse_ricci``'s formula polarized term by term, with each sum over an
    orthonormal frame taken as a contraction with h^-1 (g below),

        Ric(X, Y) = -1/2 sum_i <[X, X_i], [Y, X_i]> - 1/2 B(X, Y)
                    + 1/4 sum_ij <[X_i, X_j], X> <[X_i, X_j], Y>
                    - 1/2 (<[Z, X], Y> + <[Z, Y], X>)."""
    h, c = np.asarray(h, dtype=float), np.asarray(c, dtype=float)
    g = np.linalg.inv(h)
    low = np.einsum("ed,dai->eai", h, c)  # low[e, a, i] = <[x_a, x_i], x_e>
    z = g @ np.einsum("dbd->b", c)  # <Z, x_b> = tr ad_{x_b}
    zx = np.einsum("m,bma->ab", z, low)  # <[Z, x_a], x_b>
    return (-0.5 * np.einsum("eai,ebi->ab", low, c @ g)
            - 0.5 * np.einsum("dae,ebd->ab", c, c)
            + 0.25 * np.einsum("aij,bij->ab", low, g @ low @ g)
            - 0.5 * (zx + zx.T))
