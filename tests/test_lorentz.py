"""Four-dimensional development: coframe structure functions, the Ricci
identity against the null direction, flatness of constrained pairs (the
paper's initial-data characterization), and the frame data of the null
current."""

import numpy as np
import pytest

from spinorflow import CauchyPair, LapseProfile, closedness_residual, \
    coframe4_at, curvature_report, dirac_current_frame, frame_exact, \
    is_constrained_ricci_flat, ricci4, verify_ricci_identity
from spinorflow import exact
from spinorflow.lorentz import ETA4, NULL_DIRECTION
from spinorflow.verify import SUITES, run_suite, sample_times

from conftest import ROW_PAIRS
from test_stacks import REFERENCES, _outcome

UNIT = LapseProfile.constant(1.0)
RAMP = LapseProfile.tabulated([-2.0, -0.2, 0.5, 2.0], [0.6, 1.4, 0.9, 2.0])


class TestCoframe4:
    def test_minkowski(self):
        frame = coframe4_at(CauchyPair.from_components(), UNIT, 0.0)
        assert np.count_nonzero(frame.C) == 0
        assert np.count_nonzero(frame.dC0) == 0

    def test_antisymmetry(self, row_pair):
        frame = coframe4_at(row_pair, UNIT, 0.2)
        assert np.max(np.abs(frame.C + np.transpose(frame.C, (0, 2, 1)))) == 0
        assert np.max(np.abs(frame.dC0 + np.transpose(frame.dC0, (0, 2, 1)))) == 0

    def test_e11_structure(self):
        # d e_2 = e_2 ^ (e_0 + e_1), d e_3 = -e_3 ^ (e_0 + e_1)
        pair = CauchyPair.from_components(ll=1.0, nn=-1.0)
        frame = coframe4_at(pair, UNIT, 0.0)
        for null_leg in (0, 1):
            assert frame.C[2, null_leg, 2] == 1.0
            assert frame.C[3, null_leg, 3] == -1.0
        assert frame.C[1].max() == frame.C[1].min() == 0.0
        # the shape components are constant on this pair
        assert np.count_nonzero(frame.dC0) == 0

    def test_lapse_recorded(self):
        prof = LapseProfile.constant(2.0)
        frame = coframe4_at(CauchyPair.from_components(uu=1.0), prof, 0.1)
        assert frame.beta == 2.0


class TestRicci4:
    def test_minkowski_flat(self):
        ric = ricci4(coframe4_at(CauchyPair.from_components(), UNIT, 0.0))
        assert np.count_nonzero(ric.components) == 0
        assert ric.scalar == 0.0

    def test_e11_value(self):
        # H = -4 on this pair, so Ric4 = -2 (e_0+e_1) x (e_0+e_1) at any time
        pair = CauchyPair.from_components(ll=1.0, nn=-1.0)
        target = -2.0 * np.outer(NULL_DIRECTION, NULL_DIRECTION)
        for t in (-1.0, 0.0, 0.7, 2.5):
            ric = ricci4(coframe4_at(pair, UNIT, t))
            assert np.max(np.abs(ric.components - target)) <= 1e-10

    def test_constrained_pairs_flat(self, constrained_pair):
        for t in (-0.2, 0.0, 0.3):
            ric = ricci4(coframe4_at(constrained_pair, UNIT, t))
            assert np.max(np.abs(ric.components)) <= 1e-8

    def test_identity_residual(self, row_pair):
        assert verify_ricci_identity(row_pair, UNIT, 0.2) <= 1e-6

    def test_identity_examples(self):
        assert verify_ricci_identity(
            CauchyPair.from_components(ll=1.0, nn=-1.0), UNIT, 0.7) <= 1e-10
        assert verify_ricci_identity(
            CauchyPair.from_components(un=1.0), UNIT, 1.0) <= 1e-10

    def test_scalar_vanishes(self, row_pair):
        # the right-hand side is null, so the scalar curvature is zero
        ric = ricci4(coframe4_at(row_pair, UNIT, 0.2))
        assert abs(ric.scalar) <= 1e-8

    def test_flat_iff_h0_zero(self, row_pair):
        from spinorflow import constraints
        ham = constraints(row_pair).hamiltonian
        ric = ricci4(coframe4_at(row_pair, UNIT, 0.0))
        flat = np.max(np.abs(ric.components)) <= 1e-8
        assert flat == (abs(ham) <= 1e-10)


# the rows of the admissible-family table and Minkowski, at the lapses of the
# golden corpus
CHARACTERIZED = {**ROW_PAIRS, "minkowski": CauchyPair.from_components()}
LAPSES = {
    "constant-1": UNIT,
    "constant-1.3": LapseProfile.constant(1.3),
    "table-5": LapseProfile.tabulated([-3.0, -1.0, 0.2, 1.5, 4.0],
                                      [0.9, 0.8, 1.3, 1.0, 1.2]),
}


@pytest.mark.parametrize("lapse", sorted(LAPSES))
@pytest.mark.parametrize("name", sorted(CHARACTERIZED))
def test_ricci_flat_exactly_when_constrained(name, lapse):
    # the development is Ricci-flat if and only if the initial pair satisfies
    # the vacuum constraints: flat rows measure <= 2.5e-14, the others >= 2
    pair, profile = CHARACTERIZED[name], LAPSES[lapse]
    worst = max(float(np.max(np.abs(ricci4(coframe4_at(pair, profile, t)).components)))
                for t in sample_times(pair, profile, 20))
    if is_constrained_ricci_flat(pair):
        assert worst <= 1e-8
    else:
        assert worst > 1e-8


class TestDiracCurrent:
    def test_base_is_null(self):
        cur = dirac_current_frame(CauchyPair.from_components(uu=1.0), UNIT, 0.3)
        assert float(cur.base_oneform @ (ETA4 * cur.base_oneform)) == 0.0

    def test_flat_pair(self):
        cur = dirac_current_frame(CauchyPair.from_components(), UNIT, 0.5)
        assert np.count_nonzero(cur.log_scale_differential) == 0
        assert np.allclose(cur.l_class_representative, [0, 0, 1, 0])

    def test_uu_pair(self):
        # theta_uu(t) = 1/(1-t) while e_u^t = (1-t) e_u, so the product is
        # the constant reference form e_u at every time
        pair = CauchyPair.from_components(uu=1.0)
        for t in (0.0, 0.5, -1.0):
            cur = dirac_current_frame(pair, UNIT, t)
            assert np.allclose(cur.log_scale_differential, [-1.0, 0.0, 0.0])

    def test_un_pair(self):
        pair = CauchyPair.from_components(un=1.0)
        cur = dirac_current_frame(pair, UNIT, 0.0)
        assert np.allclose(cur.log_scale_differential, [0.0, 0.0, -1.0])

    def test_log_scale_is_closed(self, row_pair):
        cur = dirac_current_frame(row_pair, UNIT, 0.25)
        assert closedness_residual(row_pair, cur.log_scale_differential) <= 1e-12

    def test_l_representative_tracks_frame(self, row_pair):
        cur = dirac_current_frame(row_pair, UNIT, 0.25)
        u = frame_exact(row_pair, UNIT, 0.25)
        assert cur.l_class_representative[0] == 0.0
        assert np.allclose(cur.l_class_representative[1:], u[1, :])


class TestClosedness:
    def test_reference_e_u_closed_iff_quasi_diagonal(self, row_pair):
        from spinorflow import invariants
        res = closedness_residual(row_pair, [1.0, 0.0, 0.0])
        if invariants(row_pair).lam == 0.0:
            assert res <= 1e-12
        else:
            assert res > 0.1

    def test_detects_non_closed(self):
        pair = CauchyPair.from_components(ll=1.0, nn=-1.0)
        assert closedness_residual(pair, [0.0, 1.0, 0.0]) == 1.0


class TestMetricAndReport:
    def test_metric_initial_identity(self, row_pair):
        assert np.allclose(frame_exact(row_pair, UNIT, 0.0), np.eye(3))

    def test_report_fields(self):
        pair = ROW_PAIRS["tau2R-general"]
        rep = curvature_report(pair, UNIT, 0.2)
        assert set(rep) == {"t", "beta", "ricci4", "scalar4",
                            "hamiltonian", "identity_residual"}
        assert rep["identity_residual"] <= 1e-6
        ric = np.array(rep["ricci4"])
        assert ric.shape == (4, 4)
        assert np.allclose(ric, ric.T)

    def test_report_evaluates_theta_once(self, monkeypatch):
        calls = []
        theta_stack = exact.FlowSolution._theta_stack
        monkeypatch.setattr(exact.FlowSolution, "_theta_stack",
                            lambda self, bts: calls.append(np.size(bts))
                            or theta_stack(self, bts))
        curvature_report(ROW_PAIRS["tau2R-general"], RAMP, 0.2)
        assert sum(calls) == 1

    @pytest.mark.parametrize("profile", [UNIT, RAMP], ids=["constant", "tabulated"])
    def test_report_residual_is_the_identity_residual(self, row_pair, profile):
        for t in sample_times(row_pair, profile, 5):
            rep = curvature_report(row_pair, profile, t)
            assert rep["identity_residual"] == verify_ricci_identity(row_pair, profile, t)


class TestRicci4Suite:
    def test_evaluates_theta_once_per_sample(self, monkeypatch):
        # a constrained pair also gets the flatness row from the same Ric4
        calls = []
        theta_stack = exact.FlowSolution._theta_stack
        monkeypatch.setattr(exact.FlowSolution, "_theta_stack",
                            lambda self, bts: calls.append(np.size(bts))
                            or theta_stack(self, bts))
        rows = run_suite(ROW_PAIRS["tau2R-qd"], RAMP, "ricci4", samples=6)
        assert len(rows) == 2 and sum(calls) == 6

    @pytest.mark.parametrize("profile", [UNIT, RAMP], ids=["constant", "tabulated"])
    def test_rows_are_the_per_sample_maxima(self, row_pair, profile):
        rows = run_suite(row_pair, profile, "ricci4", samples=5)
        times = sample_times(row_pair, profile, 5)
        assert rows[0].residual == max(
            verify_ricci_identity(row_pair, profile, t) for t in times)
        if len(rows) == 2:
            assert rows[1].residual == max(
                float(np.max(np.abs(ricci4(coframe4_at(row_pair, profile, t)).components)))
                for t in times)


class TestRicciflowSuite:
    def test_evaluates_theta_once_per_sample_and_row(self, monkeypatch):
        # the constrained quasi-diagonal pair gets the dh/dt row too
        calls = []
        theta_stack = exact.FlowSolution._theta_stack
        monkeypatch.setattr(exact.FlowSolution, "_theta_stack",
                            lambda self, bts: calls.append(np.size(bts))
                            or theta_stack(self, bts))
        rows = run_suite(ROW_PAIRS["tau2R-qd"], RAMP, "ricciflow", samples=6)
        assert len(rows) == 2 and sum(calls) == 6


class TestRunSuite:
    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("suite", ["all", "oracle"])
    def test_refuses_fewer_than_one_sample(self, suite, samples):
        # no sample would check nothing, and pass every row
        with pytest.raises(ValueError, match="at least 1 sample"):
            run_suite(ROW_PAIRS["R3"], UNIT, suite, samples=samples)

    @pytest.mark.parametrize("suite", SUITES)
    def test_an_overflowing_closed_form_as_one_sample_at_a_time(self, suite):
        # (1 - Theta_uu B_t)^2 in the closed form of H_t passes the largest
        # float: with B_t a numpy scalar, as one sample at a time takes it,
        # it is inf, where a float B_t raises OverflowError
        pair, profile = CauchyPair.from_components(uu=2.0 ** 511), LapseProfile.constant(1.3)
        assert _outcome(run_suite, pair, profile, suite) == \
            _outcome(REFERENCES[suite], pair, profile)

    def test_one_sample_checks_it(self):
        rows = run_suite(ROW_PAIRS["R3"], UNIT, "all", samples=1)
        assert len(rows) == 12 and all(row.passed for row in rows)
