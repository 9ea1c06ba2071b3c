"""Frame tensor algebra: eigendecomposition, connection, curvature.

The curvature routines are checked against an independent coordinate-chart
oracle built with sympy on explicit solvable-group metrics.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorflow import Sym3, eigen2x2, frame_ricci, ricci3, \
    structure_constants_from_theta
from spinorflow.frames import antisymmetry_residual, divergence_sym, \
    first_structure_residual, jacobi_residual


def coordinate_ricci(metric, coords):
    """Ricci tensor and scalar of a coordinate metric via sympy."""
    n = len(coords)
    g = sp.Matrix(metric)
    ginv = g.inv()
    gamma = [[[sum(ginv[a, d] * (sp.diff(g[d, b], coords[c])
                                 + sp.diff(g[d, c], coords[b])
                                 - sp.diff(g[b, c], coords[d])) / 2
                   for d in range(n))
               for c in range(n)] for b in range(n)] for a in range(n)]
    ric = sp.zeros(n, n)
    for b in range(n):
        for c in range(n):
            val = 0
            for a in range(n):
                val += sp.diff(gamma[a][b][c], coords[a])
                val -= sp.diff(gamma[a][b][a], coords[c])
                for e in range(n):
                    val += gamma[a][a][e] * gamma[e][b][c]
                    val -= gamma[a][c][e] * gamma[e][b][a]
            ric[b, c] = sp.simplify(val)
    scal = sp.simplify(sum(ginv[b, c] * ric[b, c] for b in range(n) for c in range(n)))
    return ric, scal


class TestEigen2x2:
    def test_diagonal_ordered(self):
        eig = eigen2x2(np.diag([2.0, 1.0]))
        assert eig.rho_plus == 2.0 and eig.rho_minus == 1.0
        assert np.array_equal(eig.Q, np.eye(2))

    def test_antidiagonal(self):
        eig = eigen2x2(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert eig.rho_plus == pytest.approx(1.0)
        assert eig.rho_minus == pytest.approx(-1.0)
        c = math.cos(math.pi / 4)
        assert np.allclose(np.abs(eig.Q), [[c, c], [c, c]])

    def test_zero_matrix(self):
        eig = eigen2x2(np.zeros((2, 2)))
        assert eig.rho_plus == 0.0 == eig.rho_minus
        assert np.array_equal(eig.Q, np.eye(2))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_and_conventions(self, entries):
        a, b, c = entries
        m = np.array([[a, b], [b, c]])
        eig = eigen2x2(m)
        assert eig.rho_plus >= eig.rho_minus
        assert np.linalg.det(eig.Q) == pytest.approx(1.0, abs=1e-12)
        rec = eig.Q @ np.diag([eig.rho_plus, eig.rho_minus]) @ eig.Q.T
        assert np.max(np.abs(rec - m)) <= 1e-12 * max(1.0, np.max(np.abs(m)))


class TestStructureConstants:
    def test_r3_abelian(self):
        c = structure_constants_from_theta(Sym3(uu=3.0))
        assert np.count_nonzero(c) == 0

    def test_sol_brackets(self):
        # [x_u, x_l] = x_l and [x_u, x_n] = -x_n
        c = structure_constants_from_theta(Sym3(ll=1.0, nn=-1.0))
        expected = np.zeros((3, 3, 3))
        expected[1, 0, 1], expected[1, 1, 0] = 1.0, -1.0
        expected[2, 0, 2], expected[2, 2, 0] = -1.0, 1.0
        assert np.array_equal(c, expected)

    def test_antisymmetry_and_jacobi_on_rows(self, row_pair):
        c = structure_constants_from_theta(row_pair.theta)
        assert antisymmetry_residual(c) == 0.0
        assert jacobi_residual(c) <= 1e-12

    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_first_structure_equation(self, comps):
        c = structure_constants_from_theta(Sym3.from_array(comps))
        assert first_structure_residual(c) <= 1e-14 * max(1.0, np.max(np.abs(c)))


class TestRicci3:
    def test_flat(self):
        ric, scal = ricci3(np.zeros((3, 3, 3)))
        assert np.count_nonzero(ric.as_matrix()) == 0 and scal == 0.0

    def test_sol_geometry_against_coordinate_oracle(self):
        # orthonormal frame du, exp(-u) dl, exp(u) dn
        u = sp.symbols("u")
        g = sp.diag(1, sp.exp(-2 * u), sp.exp(2 * u))
        ric_chart, scal_chart = coordinate_ricci(g, (u, sp.Symbol("l"), sp.Symbol("n")))
        # frame components: divide by the frame weights exp(-u), exp(u)
        weights = sp.diag(1, sp.exp(-u), sp.exp(u))
        frame_ric = (weights.inv() * ric_chart * weights.inv()).applyfunc(sp.simplify)

        c = structure_constants_from_theta(Sym3(ll=1.0, nn=-1.0))
        ric, scal = ricci3(c)
        assert np.allclose(ric.as_matrix(), np.array(frame_ric, dtype=float))
        assert scal == pytest.approx(float(scal_chart))
        assert np.allclose(np.diag(ric.as_matrix()), [-2.0, 0.0, 0.0])

    def test_hyperbolic_product_scalar(self):
        # R x H^2: only [x_u, x_l] = x_l; scalar curvature -2
        c = structure_constants_from_theta(Sym3(ll=1.0))
        _, scal = ricci3(c)
        assert scal == pytest.approx(-2.0)

        u = sp.symbols("u")
        g = sp.diag(1, sp.exp(-2 * u), 1)
        _, scal_chart = coordinate_ricci(g, (u, sp.Symbol("l"), sp.Symbol("n")))
        assert float(scal_chart) == pytest.approx(scal)


class TestDivergence:
    def test_flat_case(self):
        div = divergence_sym(np.zeros((3, 3, 3)), Sym3(uu=1.0, ln=2.0))
        assert np.count_nonzero(div) == 0

    def test_constrained_pair_momentum_free(self):
        th = Sym3(uu=1.0, ll=1.0)
        div = divergence_sym(structure_constants_from_theta(th), th)
        assert np.max(np.abs(div)) <= 1e-12

    def test_sol_pair_momentum_ties_to_hamiltonian(self):
        # div Theta = -(H0/2) e_u; here H0 = -4 so the residual is 2 e_u
        th = Sym3(ll=1.0, nn=-1.0)
        div = divergence_sym(structure_constants_from_theta(th), th)
        assert np.allclose(div, [2.0, 0.0, 0.0])


class TestFrameRicci4:
    def test_minkowski(self):
        ric, scal = frame_ricci(np.array([-1.0, 1.0, 1.0, 1.0]),
                                np.zeros((4, 4, 4)))
        assert np.count_nonzero(ric) == 0 and scal == 0.0

    def test_lorentzian_sol_slice(self):
        # static product R_t x sol: spatial curvature passes through unchanged
        c = np.zeros((4, 4, 4))
        c3 = structure_constants_from_theta(Sym3(ll=1.0, nn=-1.0))
        c[1:, 1:, 1:] = c3
        ric, scal = frame_ricci(np.array([-1.0, 1.0, 1.0, 1.0]), c)
        ric3_ref, scal3 = ricci3(c3)
        assert np.allclose(ric[1:, 1:], ric3_ref.as_matrix())
        assert np.allclose(ric[0, :], 0.0)
        assert scal == pytest.approx(scal3)
