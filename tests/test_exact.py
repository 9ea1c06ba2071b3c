"""Closed-form flow solutions: shape components, coframe transforms, metric
families, Hamiltonian evolution, lifespans.

The matrix exponential and elementary scalar solutions serve as independent
oracles for the branch formulas.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinorflow import CauchyPair, InvalidPair, LapseProfile, NotApplicable, \
    OutOfDomain, SingularTime, frame_exact, hamiltonian_exact, invariants, lifespan, \
    nonqd_coefficients, solve, theta_exact, validate
from spinorflow import lapse as lapse_module
from spinorflow.exact import NONQD, QD, branch
from spinorflow.numeric import hamiltonian_of
from spinorflow.pairs import _QD_ROWS

from conftest import ROW_PAIRS

UNIT = LapseProfile.constant(1.0)
MIXING_RAMP = LapseProfile.tabulated([-2.0, -0.3, 0.8, 2.0], [0.7, 1.3, 1.0, 1.6])


class TestLapse:
    def test_constant_integral(self):
        assert UNIT.b_integral(0.5) == 0.5
        assert LapseProfile.constant(2.0).b_integral(-0.25) == -0.5

    def test_tabulated_constant_table(self):
        prof = LapseProfile.tabulated([0.0, 1.0], [1.0, 1.0])
        assert prof.b_integral(1.0) == pytest.approx(1.0)

    def test_tabulated_linear_ramp(self):
        prof = LapseProfile.tabulated([-1.0, 1.0], [1.0, 3.0])
        # beta(t) = 2 + t, integral from 0 to t is 2t + t^2/2
        assert prof.b_integral(0.5) == pytest.approx(1.125)
        assert prof.b_integral(-0.5) == pytest.approx(-0.875)

    def test_out_of_domain(self):
        prof = LapseProfile.tabulated([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(OutOfDomain):
            prof.b_integral(2.0)

    def test_solve_b_inverts_integral(self):
        prof = LapseProfile.tabulated([-2.0, 0.0, 2.0], [0.5, 1.5, 0.5])
        t = prof.solve_b(1.0)
        assert prof.b_integral(t) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            LapseProfile.tabulated([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            LapseProfile.tabulated([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            LapseProfile.tabulated([1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            LapseProfile.constant(0.0)
        with pytest.raises(ValueError):
            LapseProfile.constant(math.inf)
        with pytest.raises(ValueError):
            LapseProfile.tabulated([-1.0, 1.0], [1.0, math.inf])
        with pytest.raises(ValueError):
            LapseProfile.tabulated([-1.0, math.inf], [1.0, 1.0])
        with pytest.raises(ValueError):
            LapseProfile.tabulated([-math.inf, 1.0], [1.0, 1.0])

    def test_json_parsing(self):
        prof = LapseProfile.from_json_dict({"beta": {"kind": "constant", "value": 2.0}})
        assert prof.kind == "constant" and prof.value == 2.0
        with pytest.raises(ValueError):
            LapseProfile.from_json_dict({"kind": "weird"})


def _b_integral_reference(prof, t):
    """B_t by np.trapezoid over every node between 0 and t: the form the
    cumulative table replaced, kept as its reference."""
    lo, hi = prof.domain()
    if not lo <= t <= hi:
        raise OutOfDomain(f"t = {t} outside tabulated domain [{lo}, {hi}]")
    a, b, sign = (0.0, t, 1.0) if t >= 0 else (t, 0.0, -1.0)
    inside = (prof.times > a) & (prof.times < b)
    knots = np.concatenate(([a], prof.times[inside], [b]))
    vals = np.interp(knots, prof.times, prof.values)
    return sign * float(np.trapezoid(vals, knots))


def _solve_b_reference(prof, target):
    """The inverse of B by bisection over ``_b_integral_reference``: the
    form the closed-form root replaced, kept as its reference."""
    lo, hi = prof.domain()
    b_lo, b_hi = _b_integral_reference(prof, lo), _b_integral_reference(prof, hi)
    if not b_lo <= target <= b_hi:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _b_integral_reference(prof, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _random_tables(seed, sizes=(2, 3, 17, 200, 2_000, 20_000)):
    """Tabulated profiles of each size, on uniform and on random grids;
    half of the random grids have a node at t = 0."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        for uniform in (True, False):
            lo, hi = -rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0)
            if uniform:
                times = np.linspace(lo, hi, n)
            else:
                inner = rng.uniform(lo, hi, max(n - 2, 0))
                if n > 2 and rng.uniform() < 0.5:
                    inner[0] = 0.0
                times = np.unique(np.concatenate(([lo, hi], inner)))
            yield LapseProfile.tabulated(times, rng.uniform(0.1, 3.0, len(times)))


def _ulps(got, want, scale):
    return abs(got - want) / np.spacing(scale)


class TestCumulativeTable:
    """The cumulative table against the forms it replaced: ``b_integral``
    within 4 ulps of max(|B_t|, |B| at both table ends), ``solve_b`` within
    1e-14 of the bisection relative to max(1, |t|), its stopping rule."""

    @staticmethod
    def _scale(prof):
        lo, hi = prof.domain()
        return max(abs(_b_integral_reference(prof, lo)), abs(_b_integral_reference(prof, hi)))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_b_integral_matches_the_trapezoid(self, seed):
        rng = np.random.default_rng(seed)
        for prof in _random_tables(seed):
            lo, hi = prof.domain()
            scale = self._scale(prof)
            ts = np.concatenate((rng.uniform(lo, hi, 20), rng.choice(prof.times, 5),
                                 [lo, hi, 0.0, 1e-9, -1e-9]))
            for t in ts.tolist():
                want = _b_integral_reference(prof, t)
                got = prof.b_integral(t)
                assert type(got) is float
                assert _ulps(got, want, max(abs(want), scale)) <= 4, (len(prof.times), t)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_solve_b_matches_the_bisection(self, seed):
        rng = np.random.default_rng(seed)
        for prof in _random_tables(seed):
            lo, hi = prof.domain()
            b_lo, b_hi = prof.b_integral(lo), prof.b_integral(hi)
            scale = max(abs(b_lo), abs(b_hi))
            for target in rng.uniform(b_lo, b_hi, 4).tolist() + [0.0]:
                want = _solve_b_reference(prof, target)
                got = prof.solve_b(target)
                assert type(got) is float
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (len(prof.times), target)
                assert lo <= got <= hi
                assert _ulps(prof.b_integral(got), target, max(abs(target), scale)) <= 4

    def test_small_times_keep_relative_accuracy(self):
        # the table is anchored at t = 0, with or without a node there
        for times in ([-1.0, 0.0, 2.0], [-1.0, 0.5, 2.0], [-3.0, -1.0, 1.0, 2.0]):
            prof = LapseProfile.tabulated(times, [0.5, 1.5, 1.0, 2.0][:len(times)])
            for t in (1e-300, -1e-300, 1e-12, -1e-12):
                want = t * (prof.beta(0.0) + prof.beta(t)) / 2.0
                assert prof.b_integral(t) == pytest.approx(want, rel=1e-15, abs=0)
                assert prof.solve_b(want) == pytest.approx(t, rel=1e-15, abs=0)

    @pytest.mark.parametrize("times", [
        [-1.0, 0.0, 2.0], [-1.0, 0.5, 2.0], [0.0, 0.5, 2.0], [-2.0, -0.5, 0.0],
        [-1.0, 2.0], [0.0, 2.0], [-2.0, 0.0],
    ], ids=["zero-node", "zero-between", "starts-at-zero", "ends-at-zero",
            "two-nodes", "two-nodes-from-zero", "two-nodes-to-zero"])
    def test_edges(self, times):
        prof = LapseProfile.tabulated(times, np.linspace(0.7, 1.9, len(times)))
        lo, hi = prof.domain()
        scale = self._scale(prof)
        assert prof.b_integral(0.0) == 0.0 and prof.solve_b(0.0) == 0.0
        for k, t in enumerate(times):  # every node, both ends among them
            b = prof.b_integral(t)
            assert b == prof._cumulative[k]
            assert _ulps(b, _b_integral_reference(prof, t), scale) <= 4
            assert prof.solve_b(b) == t
        b_lo, b_hi = prof.b_integral(lo), prof.b_integral(hi)
        assert prof.solve_b(np.nextafter(b_lo, -math.inf)) is None
        assert prof.solve_b(np.nextafter(b_hi, math.inf)) is None

    def test_flat_segment_takes_the_linear_root(self):
        prof = LapseProfile.tabulated([-2.0, -1.0, 1.0, 3.0], [0.5, 1.25, 1.25, 3.0])
        for target in (-1.2, -0.3, 0.4, 1.25):
            assert prof.solve_b(target) == target / 1.25
            assert prof.b_integral(target / 1.25) == pytest.approx(target, rel=1e-15)

    def test_out_of_domain_and_none_are_unchanged(self):
        prof = LapseProfile.tabulated([-1.0, 0.3, 2.0], [1.0, 2.0, 0.5])
        for t in (-1.5, 2.0000001, math.inf, -math.inf, math.nan):
            with pytest.raises(OutOfDomain) as want:
                _b_integral_reference(prof, t)
            with pytest.raises(OutOfDomain) as got:
                prof.b_integral(t)
            assert str(got.value) == str(want.value)
        for target in (-10.0, 10.0, math.inf, -math.inf, math.nan):
            assert prof.solve_b(target) is None
            assert _solve_b_reference(prof, target) is None

    @pytest.mark.parametrize("lapse", [
        LapseProfile.tabulated([-3.0, -1.0, 0.5, 1.5, 3.0], [0.8, 1.2, 1.0, 1.7, 0.6]),
        MIXING_RAMP,
    ], ids=["five-nodes", "mixing-ramp"])
    def test_lifespan_ends_match_the_bisection(self, row_pair, lapse, monkeypatch):
        got = lifespan(row_pair, lapse)
        monkeypatch.setattr(LapseProfile, "solve_b", _solve_b_reference)
        want = lifespan(row_pair, lapse)
        assert (got.immortal, got.note) == (want.immortal, want.note)
        for g, w in ((got.t_minus, want.t_minus), (got.t_plus, want.t_plus)):
            assert (g is None) == (w is None)
            if g is not None:
                assert abs(g - w) <= 1e-14 * max(1.0, abs(w))

    def test_table_is_built_lazily(self, monkeypatch):
        builds = []
        build = lapse_module._cumulative_trapezoid
        monkeypatch.setattr(lapse_module, "_cumulative_trapezoid",
                            lambda *a: builds.append(a) or build(*a))
        built = LapseProfile.tabulated([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0])
        built.beta(0.5), built.domain()
        assert builds == []
        built.b_integral(0.5), built.solve_b(0.5), built.b_integral(-0.5)
        assert len(builds) == 1


class TestBranchDispatch:
    def test_branches(self):
        assert branch(ROW_PAIRS["R3"]) == QD
        assert branch(ROW_PAIRS["tau2R-qd"]) == QD
        assert branch(ROW_PAIRS["tau2R-un"]) == NONQD
        assert branch(ROW_PAIRS["tau2R-ul"]) == NONQD
        assert branch(ROW_PAIRS["tau2R-general"]) == NONQD
        # the branch is that of the row, quasi-diagonal on the lambda = 0 rows
        for pair in ROW_PAIRS.values():
            qd = invariants(pair).lam == 0.0
            assert (branch(pair) == QD) == qd == (validate(pair).row in _QD_ROWS)

    ENTRIES = {
        "branch": lambda pair: branch(pair),
        "solve": lambda pair: solve(pair),
        "lifespan": lambda pair: lifespan(pair, UNIT),
        "theta_exact": lambda pair: theta_exact(pair, UNIT, 0.5),
        "frame_exact": lambda pair: frame_exact(pair, UNIT, 0.5),
        "hamiltonian_exact": lambda pair: hamiltonian_exact(pair, 0.0, UNIT, 0.5),
        "nonqd_coefficients": lambda pair: nonqd_coefficients(pair),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_an_invalid_pair_is_refused(self, entry):
        # the closed forms hold for admissible pairs only; this one breaks
        # a relation by 1 and has lambda = 1
        with pytest.raises(InvalidPair):
            self.ENTRIES[entry](CauchyPair.from_components(uu=1.0, ul=1.0))


class TestThetaExact:
    def test_qd_scalar_solution(self):
        pair = CauchyPair.from_components(uu=1.0)
        assert theta_exact(pair, UNIT, 0.5).uu == pytest.approx(2.0)

    def test_zero_pair(self):
        th = theta_exact(CauchyPair.from_components(), UNIT, 3.0)
        assert th.as_array().tolist() == [0.0] * 6

    def test_single_off_diagonal_tangent(self):
        pair = CauchyPair.from_components(un=1.0)
        for t in (-1.0, 0.3, 1.2):
            th = theta_exact(pair, UNIT, t)
            assert th.uu == pytest.approx(math.tan(t), abs=1e-12)
            assert th.nn == pytest.approx(-math.tan(t), abs=1e-12)
            assert th.un == 1.0 and th.ul == 0.0
            assert th.ll == pytest.approx(0.0, abs=1e-12)

    def test_initial_condition(self, row_pair):
        th = theta_exact(row_pair, UNIT, 0.0)
        assert np.allclose(th.as_array(), row_pair.theta.as_array(), atol=1e-14)

    def test_off_diagonals_constant(self, row_pair):
        th = theta_exact(row_pair, UNIT, 0.2)
        assert th.ul == row_pair.theta.ul
        assert th.un == row_pair.theta.un

    def test_coefficients_recompute(self):
        pair = ROW_PAIRS["tau2R-general"]
        co = nonqd_coefficients(pair)
        th = pair.theta
        lam = math.hypot(th.ul, th.un)
        denom = lam * math.hypot(lam, th.uu)
        assert co.c_ll == pytest.approx(
            (th.ll * lam**2 + th.ul**2 * th.uu) / denom, abs=1e-12)

    def test_singular_time_raises(self):
        pair = CauchyPair.from_components(uu=1.0)
        with pytest.raises(SingularTime):
            theta_exact(pair, UNIT, 1.0)
        with pytest.raises(SingularTime):
            theta_exact(CauchyPair.from_components(un=1.0), UNIT, math.pi / 2)


class TestFrameExact:
    def test_qd_example(self):
        pair = CauchyPair.from_components(uu=1.0, ll=1.0)
        t = 0.4
        u = frame_exact(pair, UNIT, t)
        assert np.allclose(u, np.diag([1 - t, 1 - t, 1.0]), atol=1e-12)

    def test_qd_zero_uu_is_matrix_exponential(self):
        pair = CauchyPair.from_components(ll=1.0, nn=-1.0)
        t = 1.0
        u = frame_exact(pair, UNIT, t)
        assert np.allclose(u, np.diag([1.0, math.exp(-1), math.exp(1)]), atol=1e-12)

    def test_a_uu_zero_within_tol_takes_no_guard(self):
        # Theta_uu = 1 is zero within tol beside Theta_ll = 1.35e148, so U_t
        # is the block exponential, also at B_t = 1.5 past 1/Theta_uu, where
        # Theta_t meets the guard
        pair = CauchyPair.from_components(uu=1.0, ll=1.35e148)
        th = pair.theta
        u = frame_exact(pair, UNIT, 1.5)
        assert u[0, 0] == 1.0
        np.testing.assert_array_equal(
            u[1:, 1:], expm(-1.5 * np.array([[th.ll, th.ln], [th.ln, th.nn]])))
        with pytest.raises(SingularTime):
            theta_exact(pair, UNIT, 1.5)

    @pytest.mark.parametrize("lapse, t", [
        (lapse, t) for lapse in ("constant", "tabulated") for t in (-1.6, -0.4, 0.7, 1.9)
    ])
    def test_qd_with_mixing_against_expm(self, lapse, t):
        # lower block with ln coupling; constant Theta^t / s integrates to
        # an expm expression through substitution only when Theta_uu = 0
        pair = CauchyPair.from_components(ll=1.0, ln=-1.0, nn=-1.0)
        assert branch(pair) == QD
        profile = UNIT if lapse == "constant" else MIXING_RAMP
        u = frame_exact(pair, profile, t)
        bt = profile.b_integral(t)
        assert np.allclose(u, expm(-bt * pair.theta.as_matrix()), atol=1e-10)

    def test_off_n_entries(self):
        pair = CauchyPair.from_components(un=1.0)
        t = 0.8
        u = frame_exact(pair, UNIT, t)
        expected = np.array([
            [1.0, 0.0, -t],
            [0.0, 1.0, 0.0],
            [-math.tan(t), 0.0, 1.0 + t * math.tan(t)],
        ])
        assert np.max(np.abs(u - expected)) <= 1e-12

    def test_off_l_mirror(self):
        pn = CauchyPair.from_components(uu=-2.0, un=1.0, nn=2.0)
        pl = CauchyPair.from_components(uu=-2.0, ul=1.0, ll=2.0)
        t = 0.3
        un_mat = frame_exact(pn, UNIT, t)
        ul_mat = frame_exact(pl, UNIT, t)
        swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
        assert np.allclose(ul_mat, swap @ un_mat @ swap, atol=1e-12)

    def test_zero_entries_are_positive_zero(self, row_pair):
        # the CLI prints U and h, so a -0.0 would print as -0.000000000000e+00
        for t in (0.0, 0.3, -0.3):
            u = frame_exact(row_pair, UNIT, t)
            assert not np.signbit(u[u == 0.0]).any()

    def test_identity_at_zero_and_positive_det(self, row_pair):
        assert np.allclose(frame_exact(row_pair, UNIT, 0.0), np.eye(3))
        span = lifespan(row_pair, UNIT)
        lo = max(span.t_minus, -2.0) if span.t_minus is not None else -2.0
        hi = min(span.t_plus, 2.0) if span.t_plus is not None else 2.0
        width = hi - lo
        for t in np.linspace(lo + 0.05 * width, hi - 0.05 * width, 25):
            assert np.linalg.det(frame_exact(row_pair, UNIT, t)) > 0.0


def _metric(pair, profile, t):
    """The induced metric h_t = U^T U in the reference coframe basis."""
    u = frame_exact(pair, profile, t)
    return u.T @ u


class TestMetricExact:
    def test_qd_metric_family(self):
        pair = CauchyPair.from_components(uu=1.0, ll=1.0)
        t = 0.25
        h = _metric(pair, UNIT, t)
        assert h[0, 0] == pytest.approx((1 - t) ** 2, abs=1e-12)
        assert h[1, 1] == pytest.approx((1 - t) ** 2, abs=1e-12)
        assert h[2, 2] == 1.0 and h[0, 1] == h[0, 2] == h[1, 2] == 0.0

    def test_off_n_metric_family(self):
        pair = CauchyPair.from_components(un=1.0)
        for t in np.linspace(-1.2, 1.2, 100):
            h = _metric(pair, UNIT, t)
            sec2 = 1.0 / math.cos(t) ** 2
            assert h[2, 2] == pytest.approx(1 + t**2 * sec2 + 2 * t * math.tan(t),
                                            abs=1e-10)
            assert h[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_shape_operator_reconstruction(self, row_pair, unit_lapse):
        # Theta_t = -(1/(2 beta)) dh/dt, with components pulled back to the
        # reference coframe through U
        t, step = 0.2, 1e-5
        hp = _metric(row_pair, unit_lapse, t + step)
        hm = _metric(row_pair, unit_lapse, t - step)
        dh = (hp - hm) / (2 * step)
        u = frame_exact(row_pair, unit_lapse, t)
        th = theta_exact(row_pair, unit_lapse, t).as_matrix()
        assert np.max(np.abs(u.T @ th @ u + 0.5 * dh)) <= 1e-6


class TestHamiltonianExact:
    def test_e11_constant(self):
        pair = CauchyPair.from_components(ll=1.0, nn=-1.0)
        for t in (-2.0, 0.0, 1.5):
            assert hamiltonian_exact(pair, -4.0, UNIT, t) == pytest.approx(-4.0)

    def test_secant_growth(self):
        pair = CauchyPair.from_components(un=1.0)
        h0 = hamiltonian_of(pair.theta)
        t = 0.6
        assert hamiltonian_exact(pair, h0, UNIT, t) == pytest.approx(
            h0 / math.cos(t) ** 2)

    def test_zero_stays_zero(self, constrained_pair):
        assert hamiltonian_exact(constrained_pair, 0.0, UNIT, 0.3) == 0.0

    def test_matches_recomputation(self, row_pair):
        h0 = hamiltonian_of(row_pair.theta)
        for t in (-0.2, 0.1, 0.35):
            direct = hamiltonian_of(theta_exact(row_pair, UNIT, t))
            assert hamiltonian_exact(row_pair, h0, UNIT, t) == pytest.approx(
                direct, abs=1e-8)


class TestLifespan:
    def test_qd_positive_uu(self):
        span = lifespan(CauchyPair.from_components(uu=1.0), UNIT)
        assert span.t_minus == -math.inf
        assert span.t_plus == pytest.approx(1.0, abs=1e-10)
        assert not span.immortal

    def test_qd_negative_uu(self):
        span = lifespan(CauchyPair.from_components(uu=-1.0), UNIT)
        assert span.t_minus == pytest.approx(-1.0, abs=1e-10)
        assert span.t_plus == math.inf

    def test_off_diagonal_window(self):
        span = lifespan(CauchyPair.from_components(un=1.0), UNIT)
        assert span.t_minus == pytest.approx(-math.pi / 2, abs=1e-10)
        assert span.t_plus == pytest.approx(math.pi / 2, abs=1e-10)

    def test_e11_immortal(self):
        span = lifespan(CauchyPair.from_components(ll=1.0, nn=-1.0), UNIT)
        assert span.immortal
        assert span.t_minus == -math.inf and span.t_plus == math.inf

    def test_lapse_rescales_boundary(self):
        span = lifespan(CauchyPair.from_components(uu=1.0), LapseProfile.constant(2.0))
        assert span.t_plus == pytest.approx(0.5, abs=1e-10)

    def test_tabulated_unknown_boundary(self):
        prof = LapseProfile.tabulated([-0.5, 0.5], [1.0, 1.0])
        span = lifespan(CauchyPair.from_components(uu=1.0), prof)
        assert span.t_plus is None and not span.immortal

    @pytest.mark.parametrize("uu, times, t_minus, t_plus", [
        (1.0, [-0.5, 0.5], None, None),
        (-1.0, [-0.5, 0.5], None, None),
        (1.0, [-0.5, 2.0], None, 1.0),
        (-1.0, [-2.0, 0.5], -1.0, None),
    ])
    def test_tabulated_ends_past_the_table_are_none(self, uu, times, t_minus, t_plus):
        # the quasi-diagonal branch follows the lambda != 0 rule: an end the
        # table does not reach is None, never +-inf
        prof = LapseProfile.tabulated(times, [1.0, 1.0])
        span = lifespan(CauchyPair.from_components(uu=uu), prof)
        for got, want in ((span.t_minus, t_minus), (span.t_plus, t_plus)):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-10)
        assert not span.immortal


def _eta_oneform(pair, t):
    """Components in the reference coframe of the parallel unit one-form
    (Theta_un e^t_l - Theta_ul e^t_n) / lambda at flow time t, unit lapse:
    ``sol.eta`` (evolved-frame components) pulled back through U_t."""
    return solve(pair).eta @ frame_exact(pair, UNIT, t)


class TestEta:
    def test_examples_at_zero(self):
        assert np.allclose(_eta_oneform(CauchyPair.from_components(un=1.0), 0.0),
                           [0.0, 1.0, 0.0])
        r = 1 / math.sqrt(2)
        pair = CauchyPair.from_components(ul=r, un=r)
        assert np.allclose(_eta_oneform(pair, 0.0), [0.0, r, -r])

    def test_off_n_eta_is_constant_e_l(self):
        pair = CauchyPair.from_components(un=1.0)
        assert np.allclose(_eta_oneform(pair, 0.3), [0.0, 1.0, 0.0], atol=1e-12)

    def test_unit_norm_in_evolved_metric(self):
        pair = ROW_PAIRS["tau2R-general"]
        for t in (-0.2, 0.0, 0.5):
            eta = _eta_oneform(pair, t)
            hinv = np.linalg.inv(_metric(pair, UNIT, t))
            assert eta @ hinv @ eta == pytest.approx(1.0, abs=1e-10)

    def test_not_applicable_on_qd(self):
        # eta and the lambda != 0 constants are only defined off the QD branch
        pair = CauchyPair.from_components(uu=1.0)
        assert solve(pair).eta is None
        with pytest.raises(NotApplicable):
            nonqd_coefficients(pair)
