"""Pair validation, classification, and constraint evaluation.

Classification is cross-checked against an independent Lie-algebra oracle
that inspects the structure constants directly (derived-subalgebra
dimension, unimodularity, eigenvalues of the adjoint action).
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorflow import CauchyPair, GroupTag, InvalidPair, LapseProfile, Sym3, \
    classify, constraints, invariants, is_constrained_ricci_flat, lifespan, \
    ricci3, structure_constants_from_theta, validate
from spinorflow.exact import QD, branch
from spinorflow.frames import divergence_sym, frame_ricci
from spinorflow.pairs import _abs_max, _constraints, require_valid

from conftest import ROW_PAIRS, pair_json


def lie_algebra_oracle(theta: Sym3):
    """Classify the algebra spanned by the brackets, without the (T, Delta,
    lambda) shortcut: returns one of the four group tags."""
    c = structure_constants_from_theta(theta)
    # derived subalgebra: span of all brackets
    brackets = c.reshape(3, 9).T  # rows are bracket results indexed by (b, d)
    rank = np.linalg.matrix_rank(brackets, tol=1e-10)
    if rank == 0:
        return GroupTag.R3
    # ad_{x_u} acts on the complement; its matrix is c[a][u][b]
    ad_u = c[:, 0, :]
    trace = np.trace(ad_u)
    eigs = np.linalg.eigvals(ad_u)
    nonzero = sorted((e for e in eigs if abs(e) > 1e-10), key=abs)
    if abs(trace) <= 1e-10:
        # unimodular with nonabelian brackets: E(1,1) needs two real
        # eigenvalues of opposite sign; a nilpotent ad gives tau2+R
        if len(nonzero) == 2:
            return GroupTag.E11
        return GroupTag.TAU2_PLUS_R
    if len(nonzero) < 2 or rank < 2:
        return GroupTag.TAU2_PLUS_R
    ratio = nonzero[0] / nonzero[1]
    if abs(ratio.imag) > 1e-10:
        return None  # complex eigenvalues never occur for admissible pairs
    return GroupTag.TAU3_MU if abs(ratio) > 1e-10 else GroupTag.TAU2_PLUS_R


class TestInvariants:
    def test_pythagorean(self):
        inv = invariants(CauchyPair.from_components(ul=3.0, un=4.0))
        assert inv.lam == 5.0 and inv.T == 0.0 and inv.Delta == 0.0

    def test_block(self):
        inv = invariants(CauchyPair.from_components(ll=2.0, nn=1.0))
        assert inv.T == 3.0 and inv.Delta == 2.0 and inv.lam == 0.0

    def test_zero(self):
        inv = invariants(CauchyPair.from_components())
        assert inv.lam == inv.T == inv.Delta == 0.0


class TestValidate:
    def test_r3_row(self):
        report = validate(CauchyPair.from_components(uu=5.0))
        assert report.valid and report.row == "R3"

    def test_general_row(self):
        pair = CauchyPair.from_components(uu=-2.0, ul=1.0, un=1.0,
                                          ll=1.0, ln=1.0, nn=1.0)
        report = validate(pair)
        assert report.valid and report.row == "tau2+R (general)"

    def test_algebraic_violation(self):
        report = validate(CauchyPair.from_components(ul=1.0, ll=1.0))
        assert not report.valid
        assert any("Theta_ul*(Theta_ll + Theta_uu)" in v for v in report.violations)

    def test_all_rows_accepted(self, row_pair):
        assert validate(row_pair).valid

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_refuses_a_tolerance_that_is_not_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            validate(CauchyPair.from_components(uu=5.0), tol)

    def test_require_valid_raises(self):
        with pytest.raises(InvalidPair):
            require_valid(CauchyPair.from_components(ul=1.0, ll=1.0))

    @pytest.mark.parametrize("component", ["uu", "ul", "un", "ll", "ln", "nn"])
    def test_perturbation_rejected(self, component):
        # moving one component off the general row's constraint surface
        base = dict(uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0)
        base[component] += 1e-3
        assert not validate(CauchyPair.from_components(**base)).valid

    def test_lambda_delta_conflict(self):
        pair = CauchyPair.from_components(ul=1.0, ll=1.0, nn=1.0, ln=1.0)
        assert not validate(pair).valid

    @pytest.mark.parametrize("j", [0, 1, 100, 512, 600, 1000])
    def test_scaling_by_powers_of_two_keeps_the_row(self, row_pair, j):
        # validate decides on the pair scaled into [1, 2), where no quadratic
        # residual overflows: unscaled, tau3mu at 2^600 took the quasi-diagonal
        # row and the general row at 2^512 raised OverflowError
        scaled = CauchyPair(Sym3(*(math.ldexp(v, j) for v in
                                   row_pair.theta.as_array().tolist())))
        report = validate(scaled)
        assert report.valid and report.row == validate(row_pair).row

    def test_violations_print_the_unscaled_residuals(self):
        report = validate(CauchyPair.from_components(ul=2.0 ** 40, ll=2.0 ** 40))
        assert "Theta_ln*Theta_un + Theta_ul*(Theta_ll + Theta_uu) = 1.209e+24 != 0" \
            in report.violations

    def test_lambda_zero_is_decided_on_lambda(self):
        # Theta_ul and Theta_un each within tol, lambda = 1.13e-9 past it:
        # lambda != 0, where no family has this pattern
        report = validate(CauchyPair.from_components(uu=1.0, ul=8e-10, un=8e-10))
        assert not report.valid
        assert report.violations == ["component pattern matches no admissible family"]

    @pytest.mark.parametrize("theta", [
        dict(ul=1e-8, ll=1.0, uu=-0.999),   # the u-l pattern, with Theta_uu + Theta_ll != 0
        dict(un=1e-8, nn=1.0, uu=-0.999),   # the u-n pattern, with Theta_uu + Theta_nn != 0
        dict(ul=1e-8, un=1e-8, ln=1.0, ll=1.0, nn=1.0, uu=-1.95),  # the general pattern
    ], ids=["u-l", "u-n", "general"])
    def test_near_miss_of_a_lambda_family(self, theta):
        # each relation holds within tol, and no lambda != 0 row matches
        report = validate(CauchyPair.from_components(**theta))
        assert report.violations == ["component pattern matches no admissible family"]
        assert report.row is None

    def test_lambda_within_tol_is_quasi_diagonal(self):
        # lambda = 7.1e-10: every rule reads lambda = 0
        pair = CauchyPair.from_components(uu=1.0, ul=5e-10, un=5e-10)
        assert validate(pair).row == "R3"
        assert branch(pair) == QD
        span = lifespan(pair, LapseProfile.constant(1.0))
        assert (span.t_minus, span.t_plus) == (-math.inf, 1.0)


class TestClassify:
    def test_examples(self):
        assert classify(CauchyPair.from_components(uu=1.0)).tag is GroupTag.R3
        assert classify(CauchyPair.from_components(ll=1.0, nn=-1.0)).tag is GroupTag.E11
        g = classify(CauchyPair.from_components(ll=2.0, nn=1.0, uu=3.0))
        assert g.tag is GroupTag.TAU3_MU and g.mu == pytest.approx(0.5)

    def test_zero_pair_is_r3(self):
        assert classify(CauchyPair.from_components()).tag is GroupTag.R3

    def test_rows_against_lie_oracle(self, row_pair):
        got = classify(row_pair).tag
        want = lie_algebra_oracle(row_pair.theta)
        assert got is want

    @given(st.floats(-3, 3), st.floats(0.1, 3), st.floats(-3, -0.1),
           st.floats(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_random_diagonal_pairs_against_oracle(self, uu, ll, nn, ln_scale):
        # diagonal-block pairs are always admissible; randomize the block
        ln = ln_scale * 0.3
        pair = CauchyPair.from_components(uu=uu, ll=ll, ln=ln, nn=nn)
        inv = invariants(pair)
        if min(abs(inv.T), abs(inv.Delta)) < 1e-6:
            return  # skip near branch boundaries, tolerance-sensitive
        if inv.T**2 - 4 * inv.Delta < 1e-6:
            return  # complex adjoint spectrum, not realized by valid pairs
        assert validate(pair).valid
        assert classify(pair).tag is lie_algebra_oracle(pair.theta)

    def test_mu_range(self):
        g = classify(CauchyPair.from_components(ll=1.0, nn=-0.5, uu=2.0))
        assert g.tag is GroupTag.TAU3_MU
        assert 0.0 < abs(g.mu) <= 1.0

    @pytest.mark.parametrize("block, tol", [
        ((1.0, 1e-11, 1e-20), 1e-21),  # T - s r cancelled to 0
        ((1.0, 1e-4, 1e-9), 1e-9),     # and kept 8 of its digits
        ((1.0, 0.3, 0.7), 1e-9),
        ((-3.0, 2e-7, -2.0), 1e-9),
        # |mu| within an ulp of 1, where 4 Delta/(T + s r)^2 rounds past it
        ((1.0, 1.0, -0.9999999999999998), 1e-21),
    ], ids=["4Delta-1e-19", "4Delta-4e-8", "separated", "negative-T", "mu-near-minus-1"])
    def test_mu_against_fifty_digits(self, block, tol):
        # the eigenvalue ratio of the lower block, small over large
        pair = CauchyPair.from_components(ll=block[0], ln=block[1], nn=block[2])
        assert validate(pair, tol).row == "tau3mu"
        with localcontext() as ctx:
            ctx.prec = 50
            ll, ln, nn = map(Decimal, block)
            t, root = ll + nn, ((ll - nn) ** 2 + 4 * ln * ln).sqrt()
            want = float((t - root) / (t + root) if t > 0 else (t + root) / (t - root))
        mu = classify(pair, tol).mu
        assert mu == pytest.approx(want, rel=1e-14, abs=0.0)
        assert abs(mu) <= 1.0

    def test_scaling_by_powers_of_two_keeps_tag_and_mu(self, row_pair):
        # past |Theta| = 1 every threshold of classify scales with Theta
        want = classify(row_pair)
        for j in range(501):
            got = classify(CauchyPair(Sym3(*(math.ldexp(v, j) for v in
                                             row_pair.theta.as_array().tolist()))))
            assert got.tag is want.tag, j
            assert got.mu == want.mu, j  # mu is never zero: equal means the same bits


def _family(row, a, b, c):
    """A pair of ``row`` of the admissible-family table (the rows
    ``validate`` matches), with free parameters a, b, c."""
    pairs = {
        "R3": dict(uu=a),
        "E11": dict(uu=c, ll=a, ln=b, nn=-a),
        "tau2+R (quasi-diagonal)": dict(uu=c, ll=a * a, ln=a * b, nn=b * b),
        "tau3mu": dict(uu=c, ll=a, ln=b, nn=a + c),
        "tau2+R (lambda)": dict(ul=a, un=b),
        "tau2+R (u-l)": dict(uu=-c, ul=a, ll=c),
        "tau2+R (u-n)": dict(uu=-c, un=a, nn=c),
        # ll un = ul ln, nn ul = un ln and uu = -T
        "tau2+R (general)": dict(uu=-c * (a * a + b * b), ul=a, un=b, ll=c * a * a,
                                 ln=c * a * b, nn=c * b * b),
    }
    return CauchyPair.from_components(**pairs[row])


ROWS = ("R3", "E11", "tau2+R (quasi-diagonal)", "tau3mu", "tau2+R (lambda)",
        "tau2+R (u-l)", "tau2+R (u-n)", "tau2+R (general)")
GROUP_OF_ROW = {"R3": GroupTag.R3, "E11": GroupTag.E11, "tau3mu": GroupTag.TAU3_MU,
                **{row: GroupTag.TAU2_PLUS_R for row in ROWS if row.startswith("tau2+R")}}
# free parameters from 1e-5 up, of either sign, or zero
PARAMETER = st.one_of(st.just(0.0), st.floats(1e-5, 4.0), st.floats(-4.0, -1e-5))


class TestClassifyReadsTheRow:
    def test_every_row_of_the_table_is_drawn(self):
        for row in ROWS:
            assert validate(_family(row, 1.0, 0.5, 2.0)).row == row

    @given(st.sampled_from(ROWS), PARAMETER, PARAMETER, PARAMETER, st.integers(-20, 40))
    @settings(max_examples=400, deadline=None)
    # components within sqrt(tol) of zero: validate matched E11, where
    # classify compared Delta against tol and read R3
    @example("E11", 1e-5, 0.0, 0.0, 0)
    @example("E11", 0.0, 2e-5, 0.0, 0)
    @example("E11", 1e-5, 0.0, 0.0, -10)
    def test_classify_is_the_group_of_the_row(self, row, a, b, c, j):
        pair = _family(row, a, b, c)
        pair = CauchyPair(Sym3(*(math.ldexp(v, j) for v in
                                 pair.theta.as_array().tolist())))
        report = validate(pair)
        if not report.valid:
            return  # parameters that leave the table: nothing to classify
        assert classify(pair).tag is GROUP_OF_ROW[report.row]

    def test_an_invalid_pair_is_not_classified(self):
        with pytest.raises(InvalidPair) as caught:
            classify(CauchyPair.from_components(ul=1.0, ll=1.0))
        assert caught.value.violations == validate(
            CauchyPair.from_components(ul=1.0, ll=1.0)).violations


class TestConstraints:
    def test_r3_always_flat(self):
        for a in (-3.0, 0.0, 1.0, 7.5):
            rep = constraints(CauchyPair.from_components(uu=a))
            assert rep.hamiltonian == 0.0
            assert np.count_nonzero(rep.momentum_residual) == 0
            assert rep.is_vacuum_admissible

    def test_e11_hamiltonian(self):
        for uu in (0.0, 1.0, -2.0):
            rep = constraints(CauchyPair.from_components(uu=uu, ll=1.0, nn=-1.0))
            assert rep.hamiltonian == pytest.approx(-4.0)
            assert not rep.is_vacuum_admissible

    def test_tau3_constrained_choice(self):
        t, delta = 3.0, 2.0
        pair = CauchyPair.from_components(uu=(t**2 - 2 * delta) / t, ll=2.0, nn=1.0)
        assert constraints(pair).hamiltonian == pytest.approx(0.0)
        assert is_constrained_ricci_flat(pair)

    def test_lambda_rows_never_flat(self):
        for name in ("tau2R-lambda", "tau2R-ul", "tau2R-un", "tau2R-general"):
            assert not is_constrained_ricci_flat(ROW_PAIRS[name])

    def test_momentum_is_tied_to_hamiltonian(self, row_pair):
        rep = constraints(row_pair)
        expected = -0.5 * rep.hamiltonian * np.array([1.0, 0.0, 0.0])
        assert np.max(np.abs(rep.momentum_residual - expected)) <= 1e-12

    def test_hamiltonian_from_remark_formulas(self, row_pair):
        """H0 from curvature equals H0 read off the branch Ricci formulas."""
        th = row_pair.theta
        inv = invariants(row_pair)
        ric, scal = ricci3(structure_constants_from_theta(th))
        rep = constraints(row_pair)
        if inv.lam == 0.0:
            # trace of -T Theta + (H/2) e_u x e_u gives R = -T^2 + H/2... solve
            h_remark = 2.0 * (scal + inv.T * (th.uu + th.ll + th.nn))
        else:
            # trace of (H/4)(h - eta x eta) is H/2
            h_remark = 2.0 * scal
        assert rep.hamiltonian == pytest.approx(h_remark, abs=1e-10)


def _numpy_constraint_bits(th: Sym3):
    """The momentum residual and R of ``th`` as ``divergence_sym`` and
    ``frame_ricci`` give them, as bytes."""
    c = structure_constants_from_theta(th)
    with np.errstate(over="ignore", invalid="ignore"):
        mom = divergence_sym(c, th)
        _, scal = frame_ricci(np.ones(3), c)
    return mom.tobytes(), np.float64(scal).tobytes()


def _scalar_constraint_bits(th: Sym3):
    """The same two from ``_constraints``: the scalar Koszul divergence and
    the kernel's ``ricci``."""
    rep = _constraints(th, 1e-9)
    assert type(rep.momentum_residual) is tuple and len(rep.momentum_residual) == 3
    return np.array(rep.momentum_residual).tobytes(), np.float64(rep.scalar_curvature).tobytes()


class TestScalarConstraintsKeepTheBits:
    """``_constraints`` computes without numpy: the momentum residual from a
    scalar Koszul connection, R from the kernel's ``ricci`` of an ``array``.
    Both give the bits of the numpy references, signed zeros included."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("k", [-60, -13, -1, 0, 1, 7, 60])
    def test_rows_signs_and_scales(self, row_pair, sign, k):
        th = Sym3(*(sign * math.ldexp(x, k) for x in row_pair.theta.as_tuple()))
        assert _scalar_constraint_bits(th) == _numpy_constraint_bits(th)

    def test_seeded_random_components(self):
        rng = np.random.default_rng(20261021)
        for _ in range(3000):
            comps = rng.standard_normal(6) * 2.0 ** rng.integers(-30, 30, 6)
            # exact zeros of either sign, where the sums meet signed zeros
            comps[rng.random(6) < 0.3] = 0.0
            comps[rng.random(6) < 0.15] *= -1.0
            th = Sym3.from_array(comps)
            assert _scalar_constraint_bits(th) == _numpy_constraint_bits(th), comps.tolist()

    def test_past_the_largest_float(self):
        # sums of products that overflow give the references' inf and NaN;
        # each square stays a float, so H is evaluated
        for th in (Sym3(ll=7e153, nn=-7e153), Sym3(uu=1.3e154, ul=1.3e154, ln=-1.3e154),
                   Sym3(ll=1.3e154, ln=1.3e154, nn=-1.3e154)):
            got, want = _scalar_constraint_bits(th), _numpy_constraint_bits(th)
            assert np.array_equal(np.frombuffer(got[0]), np.frombuffer(want[0]),
                                  equal_nan=True)
            assert np.array_equal(np.frombuffer(got[1]), np.frombuffer(want[1]),
                                  equal_nan=True)


@pytest.mark.parametrize("values", [
    (1.0, 2.0, -3.0), (-0.0, 0.0, -0.0), (math.inf, 1.0, -math.inf),
    (math.nan, 1.0, 2.0), (1.0, math.nan, 2.0), (1.0, 2.0, math.nan),
    (-math.inf, math.nan, 0.0), (math.nan, math.nan, math.nan),
])
def test_abs_max_keeps_the_nan_rule_of_np_max(values):
    # a NaN anywhere gives NaN, as np.max does; Python's max keeps a NaN
    # only in the first place
    want = float(np.max(np.abs(values)))
    got = _abs_max(values)
    assert type(got) is float
    assert got == want or (math.isnan(got) and math.isnan(want))


class TestJsonRoundTrip:
    def test_round_trip(self, row_pair):
        again = CauchyPair.from_json_dict(pair_json(row_pair))
        assert again == row_pair

    def test_missing_component(self):
        with pytest.raises(ValueError, match="missing"):
            CauchyPair.from_json_dict({"theta": {"uu": 1.0}})

    def test_non_finite_rejected(self):
        bad = {"theta": dict(uu=float("nan"), ul=0, un=0, ll=0, ln=0, nn=0)}
        with pytest.raises(ValueError, match="finite"):
            CauchyPair.from_json_dict(bad)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            CauchyPair.from_json_dict({"theta": [1, 2, 3]})
