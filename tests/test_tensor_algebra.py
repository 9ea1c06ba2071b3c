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

from spinorflow import LapseProfile, Sym3, _kernel_py, backend, coframe4_at, eigen2x2, \
    frame_ricci, levi_civita, numeric, ricci3, ricci4, sample_times, \
    structure_constants_from_theta, theta_exact
from spinorflow.exact import expm
from spinorflow.frames import divergence_sym, index_matmul, sym_matrices
from spinorflow.lorentz import _structure4

from conftest import ROW_PAIRS, besse_ricci


def jacobi_residual(c):
    """Max-norm residual of the Jacobi identity for c[a][b][c] = c^a_{bc}."""
    # [[x_a, x_b], x_c] summed cyclically; bracket composition contracts c twice
    comp = np.einsum("eab,dec->dabc", c, c)
    cyc = comp + np.transpose(comp, (0, 2, 3, 1)) + np.transpose(comp, (0, 3, 1, 2))
    return float(np.max(np.abs(cyc)))


def antisymmetry_residual(c):
    """Max-norm residual of c^a_{bc} = -c^a_{cb}."""
    return float(np.max(np.abs(c + np.transpose(c, (0, 2, 1)))))


def first_structure_residual(c):
    """Reconstruction error of c from the connection (first Cartan equation)."""
    om = levi_civita(c)
    rec = om - np.transpose(om, (1, 0, 2))  # c^d_{bc} = om[b][c][d] - om[c][b][d]
    rec = np.transpose(rec, (2, 0, 1))
    return float(np.max(np.abs(rec - c)))


def rank4_frame_ricci(eta, c, dc0=None):
    """``frame_ricci`` as it was before it contracted the trace directly:
    the full rank-4 Riemann stack, then its trace, with the scalar in
    index order (``index_order_scalar``).  The reference for the bits of
    the contracted body."""
    eta = np.asarray(eta, dtype=float)
    k = c.ndim - 3
    p = "zyxwv"[:k]
    lead = tuple(range(k))
    om_low = levi_civita(eta[:, None, None] * c)
    inv = np.diag(1.0 / eta)
    om = np.einsum(f"{p}abd,de->{p}abe", om_low, inv)
    quad = np.einsum(f"{p}bce,{p}aef->{p}abcf", om, om)
    riem = quad - quad.transpose(lead + (k + 1, k, k + 2, k + 3))
    riem -= np.einsum(f"{p}eab,{p}ecf->{p}abcf", c, om)
    if dc0 is not None:
        dom0 = np.einsum(f"{p}abd,de->{p}abe", levi_civita(eta[:, None, None] * dc0), inv)
        deriv = np.zeros_like(riem)
        deriv[..., 0, :, :, :] += dom0
        deriv[..., :, 0, :, :] -= dom0
        riem += deriv
    ric = np.einsum(f"{p}abca->{p}bc", riem)
    return ric, index_order_scalar(eta, ric)


def index_order_scalar(eta, ric):
    """The scalar of ``ric``, one frame or a stack: 0.0 plus each product of
    Ric and diag(1/eta), zeros included, added in flat index order."""
    inv = np.diag(1.0 / np.asarray(eta, dtype=float))
    scalar = 0.0
    for b in range(len(inv)):
        for d in range(len(inv)):
            scalar = scalar + ric[..., b, d] * inv[b, d]
    return float(scalar) if ric.ndim == 2 else scalar


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

    def test_normalised_in_index_order(self):
        # Q's first column is the longer column of m - rho_minus Id over its
        # length sqrt(x*x + y*y), on every CPU: through the BLAS's dot, 1,661
        # of these 20,000 matrices came out otherwise on a CPU that fuses
        rng = np.random.default_rng(47)
        a, b, c = rng.standard_normal((3, 20_000)) * 10.0 ** rng.uniform(-3.0, 3.0, (3, 20_000))
        eigs = [eigen2x2([[x, y], [y, z]]) for x, y, z in zip(a, b, c)]
        rho_m = np.array([eig.rho_minus for eig in eigs])
        x1, y1, x2, y2 = a - rho_m, b, b, c - rho_m
        n1, n2 = np.sqrt(x1 * x1 + y1 * y1), np.sqrt(x2 * x2 + y2 * y2)
        first = n1 >= n2
        x = np.where(first, x1, x2) / np.where(first, n1, n2)
        y = np.where(first, y1, y2) / np.where(first, n1, n2)
        flip = (x < 0) | ((x == 0) & (y < 0))
        x, y = np.where(flip, -x, x), np.where(flip, -y, y)
        want = np.stack([x, -y, y, x], axis=1).reshape(-1, 2, 2)
        assert np.array([eig.Q for eig in eigs]).tobytes() == want.tobytes()

    def test_expm_in_index_order(self):
        # the exponential's Python-float product gives index_matmul's bits
        rng = np.random.default_rng(48)
        entries = rng.standard_normal((2_000, 3)) * 10.0 ** rng.uniform(-3.0, 2.0, (2_000, 1))
        for x, y, z in entries:
            eig = eigen2x2([[x, y], [y, z]])
            diag = np.diag(np.exp([eig.rho_plus, eig.rho_minus]))
            want = index_matmul(index_matmul(eig.Q, diag), eig.Q.T)
            assert expm(np.array([[x, y], [y, z]])).tobytes() == want.tobytes()


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


class TestRicci3OneSample:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_stack_is_refused(self, n):
        # ric.T would transpose the sample axis too: refused, with a pointer
        # to the stacked entry
        comp = np.tile(ROW_PAIRS["tau2R-general"].theta.as_array(), (n, 1))
        with pytest.raises(ValueError, match="frame_ricci"):
            ricci3(structure_constants_from_theta(comp))


ETA3 = np.ones(3)
ETA4 = np.array([-1.0, 1.0, 1.0, 1.0])
# 0.0 draws signed zeros only; from 1e150 up the products overflow to inf,
# and their differences to NaN
SCALES = [0.0, 1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e150, 1e160, 1e175, 1e200]


def _draw(rng, shape, scale):
    """An array of ``shape``, such as structure functions of shape
    ``lead + (dim, dim, dim)``: normal entries times ``scale``, spread over
    six decades, about a third of them exact zeros and a sixth -0.0."""
    x = rng.standard_normal(shape) * scale * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    x[rng.random(shape) < 1 / 3] = 0.0
    x[rng.random(shape) < 1 / 6] = -0.0
    return x


def _assert_same_bits(got, want):
    """(ric, scalar) pairs equal bit for bit, NaN payloads and signed zeros
    included; an unstacked scalar is a Python float on both sides."""
    (ric, scal), (ric_ref, scal_ref) = got, want
    assert ric.shape == ric_ref.shape and ric.tobytes() == ric_ref.tobytes()
    if ric.ndim == 2:
        assert type(scal) is float and type(scal_ref) is float
    assert np.float64(scal).tobytes() == np.float64(scal_ref).tobytes()


class TestFrameRicciContraction:
    """``frame_ricci`` contracts R^a_{abc} without the rank-4 stack, with the
    floating-point operations of its trace: the bits of ``rank4_frame_ricci``."""

    @pytest.mark.parametrize("dim,with_dc0", [(3, False), (4, False), (4, True)],
                             ids=["3d", "4d", "4d-dc0"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_bits_match_the_rank4_trace(self, dim, with_dc0, scale):
        rng = np.random.default_rng([dim, int(with_dc0), SCALES.index(scale)])
        eta = ETA3 if dim == 3 else ETA4
        leads = [(), (), (1,), (2, 3), (80,)] + [(int(n),) for n in rng.integers(2, 81, 25)]
        for lead in leads:
            c = _draw(rng, lead + (dim,) * 3, scale)
            dc0 = _draw(rng, lead + (dim,) * 3, scale) if with_dc0 else None
            with np.errstate(all="ignore"):
                _assert_same_bits(frame_ricci(eta, c, dc0), rank4_frame_ricci(eta, c, dc0))


class TestBesseReference:
    """The symmetrized 3D ``frame_ricci`` against Besse 7.38, which reads the
    brackets only (``conftest.besse_ricci``), on Theta_t of every table row."""

    def test_row_pair_along_the_flow(self, row_pair):
        # t = 0 is the initial Theta
        unit = LapseProfile.constant(1.0)
        times = np.append(0.0, sample_times(row_pair, unit, 7))
        comp = np.array([theta_exact(row_pair, unit, t).as_array() for t in times])
        c = structure_constants_from_theta(comp)
        ric, _ = frame_ricci(ETA3, c)
        for sym, one in zip(0.5 * (ric + ric.transpose(0, 2, 1)), c):
            ref = besse_ricci(one)
            assert np.max(np.abs(sym - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


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


# _kernel_py, and the C kernel when numeric runs it
BACKENDS = (_kernel_py,) if backend._kern is _kernel_py else (_kernel_py, backend._kern)


class TestScalarInIndexOrder:
    """The scalar of ``frame_ricci``, and of each kernel's ``ricci``, is 0.0
    plus the products of Ric and diag(1/eta) in flat index order, for a
    stack and for one frame at a time.  Summed in the two lanes of numpy's
    einsum, 701 of these 2,000 4D scalars came out otherwise, and 754 of
    those with dc0."""

    @pytest.mark.parametrize("dim,with_dc0", [(3, False), (4, False), (4, True)],
                             ids=["3d", "4d", "4d-dc0"])
    def test_random_frames(self, dim, with_dc0):
        rng = np.random.default_rng([47, dim, int(with_dc0)])
        eta = ETA3 if dim == 3 else ETA4
        c = rng.standard_normal((2_000,) + (dim,) * 3)
        dc0 = rng.standard_normal(c.shape) if with_dc0 else None
        ric, scalar = frame_ricci(eta, c, dc0)
        want = index_order_scalar(eta, ric).tobytes()
        assert scalar.tobytes() == want
        singles = [frame_ricci(eta, c[i], None if dc0 is None else dc0[i])[1]
                   for i in range(len(c))]
        assert np.array(singles).tobytes() == want
        for kernel in BACKENDS:
            assert kernel.ricci(eta, c, dc0)[1] == want


def _with_extremes(rng, x):
    """``x`` with about one entry in twelve replaced by an infinity of
    either sign or a NaN."""
    x = x.copy()
    pick = rng.random(x.shape)
    x[pick < 1 / 36] = np.inf
    x[(pick >= 1 / 36) & (pick < 2 / 36)] = -np.inf
    x[(pick >= 2 / 36) & (pick < 3 / 36)] = np.nan
    return x


def _same_cells(got, want):
    """Two byte strings of float64s hold the same cells, a NaN as any NaN."""
    got, want = np.frombuffer(got), np.frombuffer(want)
    nan = np.isnan(want)
    assert got.shape == want.shape and (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("kernel", BACKENDS, ids=lambda k: "python" if k is _kernel_py else "c")
class TestKernelRicci:
    """The kernel's ``ricci`` gives the bytes of ``_kernel_py.ricci``, which
    are ``frame_ricci``'s cells, a NaN as any NaN: every rounding, signed
    zero and infinity of each sum, and the NaN of an infinity times a zero
    that the sums multiply in."""

    LEADS = [(), (0,), (1,), (2, 3), (7,), (50,)]

    @staticmethod
    def _same(kernel, eta, c, dc0=None):
        want = _kernel_py.ricci(eta, c, dc0)
        for got, ref in zip(kernel.ricci(eta, c, dc0), want):
            _same_cells(got, ref)
        with np.errstate(over="ignore", invalid="ignore"):
            ric, scalar = frame_ricci(eta, c, dc0)
        assert want == (ric.tobytes(), np.float64(scalar).tobytes())

    @pytest.mark.parametrize("scale", SCALES)
    def test_theta_stacks(self, kernel, scale):
        # the 3D frames of numeric._ricci3 and the 4D frames with dC0 of
        # lorentz._coframe4
        rng = np.random.default_rng([45, SCALES.index(scale)])
        for lead in self.LEADS:
            comp = _draw(rng, lead + (6,), scale)  # (uu, ul, un, ll, ln, nn)
            for extreme in (False, True):
                if extreme:
                    comp = _with_extremes(rng, comp)
                with np.errstate(over="ignore", invalid="ignore"):
                    c4, dc4 = (_structure4(sym_matrices(x))
                               for x in (comp, numeric._theta_rhs(comp)))
                self._same(kernel, ETA3, structure_constants_from_theta(comp))
                self._same(kernel, ETA4, c4, dc4)

    @pytest.mark.parametrize("dim,with_dc0", [(3, False), (4, False), (4, True)],
                             ids=["3d", "4d", "4d-dc0"])
    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
    def test_dense_frames(self, kernel, dim, with_dc0, scale):
        rng = np.random.default_rng([46, dim, int(with_dc0), SCALES.index(scale)])
        eta = ETA3 if dim == 3 else ETA4
        for lead in self.LEADS:
            c = rng.standard_normal(lead + (dim,) * 3) * scale
            dc0 = rng.standard_normal(c.shape) * scale if with_dc0 else None
            self._same(kernel, eta, c, dc0)
            c = _with_extremes(rng, _draw(rng, c.shape, scale))
            dc0 = (_with_extremes(rng, _draw(rng, c.shape, scale)) if with_dc0
                   else None)
            self._same(kernel, eta, c, dc0)


@pytest.mark.skipif(backend._kern is _kernel_py,
                    reason="numeric runs _kernel_py: no C kernel was built")
@pytest.mark.parametrize("args, error", [
    ((ETA3, np.zeros((2, 3, 3, 3), dtype=np.float32), None), TypeError),
    ((ETA3, np.zeros((3, 3)), None), TypeError),
    ((ETA3, np.zeros((3, 3, 6))[..., ::2], None), ValueError),
    ((ETA3, np.zeros((2, 3, 3, 3)), np.zeros((1, 3, 3, 3))), ValueError),
    ((ETA4, np.zeros((2, 3, 3, 3)), None), ValueError),
    ((np.ones(5), np.zeros((5, 5, 5)), None), ValueError),
], ids=["float32", "2d", "strided", "dc0-shape", "eta-length", "dim-5"])
def test_the_c_kernel_refuses_a_bad_stack(args, error):
    # the stacks never pass these; the C kernel refuses them rather than
    # read past an array
    with pytest.raises(error):
        backend._kern.ricci(*args)


class TestTheStacksReadTheKernel:
    """``numeric._ricci3`` and ``lorentz.ricci4`` take Ric from the kernel's
    ``ricci``: ``frame_ricci``'s values, with one sample's scalar a float."""

    def test_ricci3(self):
        comp = np.array([[1.0, 0.5, -0.25, 2.0, 0.3, -1.0], [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]])
        for rows in (comp, comp[0]):
            ric, scalar = numeric._ricci3(rows)
            want = frame_ricci(ETA3, structure_constants_from_theta(rows))
            _assert_same_bits((ric, scalar), want)

    def test_ricci4(self, row_pair):
        frame = coframe4_at(row_pair, LapseProfile.constant(1.0), 0.3)
        ric, scalar = frame_ricci(ETA4, frame.C, frame.dC0)
        got = ricci4(frame)
        assert type(got.scalar) is float
        assert np.float64(got.scalar).tobytes() == np.float64(scalar).tobytes()
        assert got.components.tobytes() == (0.5 * (ric + ric.T)).tobytes()
