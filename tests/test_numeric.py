"""Numerical integrator: oracle agreement, convergence order, conserved
quantities, residual monitors, bit-for-bit parity of the RK4 kernel with a
list-form reference, and agreement of the march in B with that list form
marched in t on smooth tables."""

import array
import dataclasses
import importlib.util
import math
import os
import re
import struct
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorflow import CauchyPair, LapseProfile, SingularTime, Sym3, \
    flow_residuals, frame_exact, integrate_to, lifespan, ode_rhs, theta_exact
from spinorflow.numeric import CERTIFY_LIMIT, KERNEL_BACKEND, FlowState, \
    ResidualReport, uncertified
from spinorflow.frames import sym_matrices
from spinorflow.verify import sample_times
from spinorflow import _kernel_py, numeric
from pathlib import Path

from conftest import ROW_PAIRS, algebraic_residuals

UNIT = LapseProfile.constant(1.0)
# beta = 1 on [-2, 2]: the unit lapse, through the tabulated code path
UNIT_TABLE = LapseProfile.tabulated([-2.0, 2.0], [1.0, 1.0])
# a lapse with kinks between the requested times
RAMP = LapseProfile.tabulated([-1.0, -0.2, 0.5, 1.0], [0.6, 1.4, 0.9, 2.0])
# a constant lapse other than 1, so a march that misreads it is seen
LAPSE_13 = LapseProfile.constant(1.3)
# smooth lapses sampled on many nodes, wide enough to hold every lifespan end
# of the conftest rows: a march in t converges on them at RK4's order
_GRID = np.linspace(-4.0, 4.0, 401)
SMOOTH = LapseProfile.tabulated(_GRID, 1.0 + 0.3 * np.sin(1.3 * _GRID + 0.4))
_FINE = np.linspace(-3.0, 3.0, 2000)
SMOOTH_FINE = LapseProfile.tabulated(_FINE, 0.8 + 0.5 * np.cos(0.7 * _FINE) ** 2)

_FRAME = tuple(np.eye(3).ravel().tolist())
_AT_REST = (0.0,) * 6 + _FRAME  # Theta = 0 over the identity frame
# (y, z) whose trial of size 0.5 from s = 0 fails at the named leg
_FAILING_AT_HALF = {
    # RK4 from Theta_uu = 100 lands past the guard
    "whole": ((100.0,) + (0.0,) * 5 + _FRAME, _AT_REST),
    # Theta_ll decays about like exp(-t/10) from past the guard: back inside
    # it after the whole step, not yet after the first half
    "half 1": ((-0.1, 0.0, 0.0, 1.04e12, 0.0, 0.0) + _FRAME, _AT_REST),
    # Theta = -I grows U_00 by about e^0.5, and the two halves grow it a
    # little more than the whole step: past the largest float, which the
    # whole step stays below (from 2.9969e307 to 3.0153e307)
    "half 2": ((-1.0, 0.0, 0.0, -1.0, 0.0, -1.0, 3.005e307) + _FRAME[1:], _AT_REST),
    # Theta = 0 takes the trial; its companion overflows U_00
    "companion": (_AT_REST, (-2.0, 0.0, 0.0, -2.0, 0.0, -2.0, 1e308) + _FRAME[1:]),
}


def _rhs(theta):
    """``ode_rhs`` at the component row of the Sym3 ``theta`` and U = I, as
    a Sym3 and a matrix."""
    dth, du = ode_rhs(theta.as_array(), np.eye(3))
    return Sym3.from_array(dth[0]), du[0]


class TestOdeRhs:
    def test_zero(self):
        dth, du = _rhs(Sym3())
        assert np.count_nonzero(dth.as_array()) == 0
        assert np.count_nonzero(du) == 0

    def test_uu_only(self):
        dth, du = _rhs(Sym3(uu=1.0))
        assert dth.uu == 1.0
        assert du[0, 0] == -1.0
        assert np.count_nonzero(du[1:, :]) == 0

    def test_un_coupling(self):
        dth, _ = _rhs(Sym3(un=1.0))
        assert dth.uu == 1.0 and dth.nn == -1.0
        assert dth.ll == dth.ln == 0.0

    def test_off_diagonals_frozen(self):
        dth, _ = _rhs(Sym3(uu=2.0, ul=1.0, un=3.0))
        assert dth.ul == 0.0 and dth.un == 0.0


def _path(pair, t_end, profile=UNIT):
    """States at 201 evenly spaced times from 0 to t_end: 50 RK4 steps apart."""
    return integrate_to(pair, profile, np.linspace(0.0, t_end, 201))


class TestIntegrate:
    def test_scalar_oracle(self):
        state = integrate_to(CauchyPair.from_components(uu=1.0), UNIT, [0.5])[-1]
        assert abs(state.theta.uu - 2.0) <= 1e-8

    def test_matrix_exponential_oracle(self):
        pair = CauchyPair.from_components(ll=1.0, nn=-1.0)
        state = integrate_to(pair, UNIT, [1.0])[-1]
        expected = np.diag([1.0, math.exp(-1.0), math.exp(1.0)])
        assert np.max(np.abs(state.U - expected)) <= 1e-8

    def test_constant_trajectory(self):
        for state in _path(CauchyPair.from_components(), 2.0):
            assert np.count_nonzero(state.theta.as_array()) == 0
            assert np.allclose(state.U, np.eye(3))

    def test_times_strictly_increasing(self, row_pair):
        ts = [s.t for s in _path(row_pair, 0.3)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_backward_integration(self):
        state = integrate_to(CauchyPair.from_components(uu=1.0), UNIT, [-1.0])[0]
        assert state.t == pytest.approx(-1.0)
        assert abs(state.theta.uu - 0.5) <= 1e-8

    def test_tabulated_lapse(self):
        prof = LapseProfile.tabulated([-1.0, 1.0], [1.0, 3.0])
        pair = CauchyPair.from_components(uu=-1.0)
        state = integrate_to(pair, prof, [0.5])[-1]
        ref = theta_exact(pair, prof, 0.5)
        assert np.max(np.abs(state.theta.as_matrix() - ref.as_matrix())) <= 1e-8


class TestConvergence:
    def test_empirical_order_at_least_3_8(self):
        pair = CauchyPair.from_components(uu=1.0, ll=1.0)
        times = np.linspace(0.0, 0.8, 201)[1:]

        def max_error(n):
            states = integrate_to(pair, UNIT, times, n_steps_total=n)
            worst = 0.0
            for st in states:
                ref = theta_exact(pair, UNIT, st.t)
                worst = max(worst, float(np.max(np.abs(
                    st.theta.as_matrix() - ref.as_matrix()))))
            return worst

        e1, e2 = max_error(200), max_error(400)
        order = math.log2(e1 / e2)
        assert order >= 3.8


class TestConservation:
    def test_off_diagonal_drift(self, row_pair):
        from spinorflow.verify import sample_times
        lo, hi = sample_times(row_pair, UNIT, 2)
        for t_end in (lo, hi):
            for st in _path(row_pair, t_end):
                assert abs(st.theta.ul - row_pair.theta.ul) <= 1e-12
                assert abs(st.theta.un - row_pair.theta.un) <= 1e-12

    def test_algebraic_relations_propagate(self, row_pair):
        for st in _path(row_pair, 0.3):
            for val in algebraic_residuals(st.theta):
                assert abs(val) <= 1e-8

    def test_det_u_positive(self, row_pair):
        assert all(np.linalg.det(st.U) > 0 for st in _path(row_pair, 0.3))


class TestResiduals:
    def test_zero_state(self):
        pair = CauchyPair.from_components()
        state = FlowState(t=1.0, theta=Sym3(), U=np.eye(3),
                          metric=Sym3(uu=1, ll=1, nn=1), hamiltonian=0.0)
        rep = flow_residuals(state, pair)
        assert rep.max() == 0.0

    def test_max_keeps_a_nan(self):
        for k in range(4):
            values = [1e-3] * 4
            values[k] = math.nan
            assert math.isnan(ResidualReport(*values).max())

    def test_integrator_output_is_small(self, row_pair):
        for st in _path(row_pair, 0.3):
            assert flow_residuals(st, row_pair).max() <= 1e-8

    def test_one_kernel_call(self, monkeypatch):
        # the residuals of a whole sequence of states come from one pass
        states = integrate_to(ROW_PAIRS["tau2R-general"], UNIT, [0.1, 0.2, 0.3])
        calls = []
        kernel = numeric._kern.residuals
        monkeypatch.setattr(numeric._kern, "residuals",
                            lambda *a: calls.append(a) or kernel(*a))
        flow_residuals(states, ROW_PAIRS["tau2R-general"])
        assert len(calls) == 1

    def test_corrupted_state_detected(self):
        pair = CauchyPair.from_components(ll=1.0, nn=-1.0)
        st = integrate_to(pair, UNIT, [0.5])[-1]
        bad_theta = Sym3.from_array(st.theta.as_array() + [0, 0, 0, 0.1, 0, 0])
        bad = FlowState(t=st.t, theta=bad_theta, U=st.U, metric=st.metric,
                        hamiltonian=st.hamiltonian)
        assert flow_residuals(bad, pair).structure > 1e-3


class TestIntegrateTo:
    def test_hits_requested_times(self):
        pair = CauchyPair.from_components(uu=1.0)
        states = integrate_to(pair, UNIT, [-0.5, 0.0, 0.25, 0.5])
        assert [s.t for s in states] == [-0.5, 0.0, 0.25, 0.5]
        assert abs(states[0].theta.uu - 1 / 1.5) <= 1e-8
        assert abs(states[-1].theta.uu - 2.0) <= 1e-8

    def test_keeps_the_requested_order(self):
        pair = CauchyPair.from_components(uu=1.0)
        times = [0.5, -0.5, 0.25, 0.5, 0.0, -0.5]
        states = integrate_to(pair, UNIT, times)
        assert [s.t for s in states] == times
        for i, j in ((0, 3), (1, 5)):
            assert states[i].theta == states[j].theta
            assert np.array_equal(states[i].U, states[j].U)
        assert abs(states[0].theta.uu - 2.0) <= 1e-8
        assert abs(states[1].theta.uu - 1 / 1.5) <= 1e-8

    def test_matches_frame_exact(self, row_pair):
        times = [-0.1, 0.15, 0.3]
        states = integrate_to(row_pair, UNIT, times, n_steps_total=20_000)
        for t, st in zip(times, states):
            assert np.max(np.abs(st.U - frame_exact(row_pair, UNIT, t))) <= 1e-8

    def test_fixed_march_shares_its_steps_between_directions(self, monkeypatch):
        # 300 steps over a span of 0.5 + 1.0, none longer than 0.005: 100
        # backward, and forward 50 to 0.25 (which must not gain a step from
        # the rounding of 0.25 / 0.005), 71 to 0.6012 and 80 to 1.0
        runs = []
        rk4_path = numeric._kern.rk4_path
        monkeypatch.setattr(numeric._kern, "rk4_path", lambda y, dt, n: (
            runs.append((dt, n)) or rk4_path(y, dt, n)))
        integrate_to(ROW_PAIRS["E11"], UNIT, [-0.5, 0.25, 0.6012, 1.0], n_steps_total=300)
        assert [n for _, n in runs] == [50, 71, 80, 100]
        assert max(abs(dt) for dt, _ in runs) <= 0.005 * (1.0 + 1e-12)

    def test_tabulated_march_interpolates_in_bulk(self, monkeypatch):
        # a table is marched in B at unit lapse: the march never reads the
        # lapse at a stage time
        calls = []
        beta = LapseProfile.beta
        monkeypatch.setattr(LapseProfile, "beta",
                            lambda self, t: calls.append(t) or beta(self, t))
        pair = ROW_PAIRS["tau2R-general"]
        states = integrate_to(pair, RAMP, [-0.2, 0.1, 0.3], n_steps_total=2000)
        assert [s.t for s in states] == [-0.2, 0.1, 0.3] and calls == []

    @pytest.mark.parametrize("profile", [UNIT, UNIT_TABLE], ids=["constant", "tabulated"])
    def test_raises_past_blowup(self, profile):
        # the lifespan of uu = 1 ends at t = 1
        pair = CauchyPair.from_components(uu=1.0)
        with pytest.raises(SingularTime, match=r"blew up at t = 1\.0.* before reaching t = 1\.5"):
            integrate_to(pair, profile, [0.5, 1.5])

    @pytest.mark.parametrize("profile", [
        UNIT, LapseProfile.tabulated([-1.0, 900.0], [1.0, 1.0])], ids=["constant", "tabulated"])
    def test_raises_when_the_frame_overflows(self, profile):
        # on E(1,1) Theta stays put while U grows like e^t and overflows near
        # t = 710, out of reach of the kernel's guard on Theta
        with pytest.raises(SingularTime, match=r"overflowed by t = .* before reaching t = 800"):
            integrate_to(ROW_PAIRS["E11"], profile, [0.5, 800.0])

    @pytest.mark.parametrize("leg, tripped, stop", [
        ("whole", True, "0.5"), ("half 1", True, "0.25"), ("half 2", False, "0.5"),
        ("companion", False, "0.5")], ids=["whole", "half-1", "half-2", "companion"])
    def test_names_where_the_failing_leg_stopped(self, monkeypatch, leg, tripped, stop):
        # Theta = 0 has no slope, so the first trial is the whole window, of
        # 0.5; the kernel runs it from a state that fails that leg
        y, z = _FAILING_AT_HALF[leg]
        march_stop = numeric._kern.march_stop
        monkeypatch.setattr(numeric._kern, "march_stop", lambda *args: march_stop(
            y, z, *args[2:]))
        how = "blew up at" if tripped else "overflowed by"
        with pytest.raises(SingularTime, match=rf"^integration {how} t = {stop} "
                                               r"before reaching t = 0\.5$"):
            integrate_to(CauchyPair.from_components(), UNIT, [0.5])

    def test_stalls_when_every_trial_is_rejected(self, monkeypatch):
        # each rejected trial cuts the step to a fifth, until s + step == s.
        # No state stalls the march at s = 0: a trial whose steps no longer
        # move y has zero error and is taken, however small tol.  So every
        # trial _kernel_py runs is rejected here.
        calls = []

        def rejected(y, z, h, tol, legs):
            calls.append(h)
            assert len(calls) < 10_000, "the march never stalled"
            return y, None, math.inf, None

        monkeypatch.setattr(numeric, "_kern", _kernel_py)
        monkeypatch.setattr(_kernel_py, "_march", rejected)
        with pytest.raises(SingularTime, match=r"^integration stalled at t = 0 "
                                               r"before reaching t = 0\.5$"):
            integrate_to(CauchyPair.from_components(), UNIT, [0.5])
        assert calls[0] == 0.5 and calls[-1] > 0.0

    @pytest.mark.parametrize("pair, profile, times", [
        (CauchyPair.from_components(uu=1.0), LAPSE_13, [-3.0, 0.5, 0.9]),
        (CauchyPair.from_components(uu=-1.0), UNIT_TABLE, [-1.5]),
        (ROW_PAIRS["E11"], UNIT, [-800.0]),
    ], ids=["blowup-fwd", "blowup-bwd-table", "overflow-bwd"])
    def test_raises_like_the_three_call_march(self, monkeypatch, pair, profile, times):
        with pytest.raises(SingularTime) as ref:
            _three_call_states(pair, profile, times, monkeypatch)
        with pytest.raises(SingularTime) as got:
            integrate_to(pair, profile, times)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("beta", [0.5, 1.3, 2.0])
    def test_lapse_enters_only_through_b(self, row_pair, beta):
        # every right-hand side is beta F(y), so a constant lapse beta at t
        # is the unit lapse at beta t, bit for bit, error estimates included;
        # the states keep the requested times t
        profile = LapseProfile.constant(beta)
        times = [float(t) for t in sample_times(row_pair, profile, 20)]
        got = integrate_to(row_pair, profile, times)
        ref = integrate_to(row_pair, UNIT, [beta * t for t in times])
        _assert_same_states(got, [dataclasses.replace(st, t=t) for st, t in zip(ref, times)])

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_refuses_a_time_that_is_not_finite(self, t):
        with pytest.raises(ValueError, match="times must be finite"):
            integrate_to(ROW_PAIRS["E11"], UNIT, [0.5, t])

    # 0 once divided by zero; the others took one RK4 step per stop, with no
    # error estimate: Theta_uu(0.9) of {"uu": 1} came back 8.196, not 10
    @pytest.mark.parametrize("n", [0, -5, 0.5, 1e-300, True, np.bool_(True), np.float64(300.0),
                                   "300"],
                             ids=["0", "-5", "0.5", "1e-300", "True", "np.True_", "np.float64",
                                  "str"])
    def test_fixed_march_refuses_a_step_count_that_is_no_positive_integer(self, n):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"n_steps_total must be an integer >= 1, got {n!r}") + "$"):
            integrate_to(CauchyPair.from_components(uu=1.0), UNIT, [0.5, 0.9],
                         n_steps_total=n)

    def test_fixed_march_takes_any_integer_step_count(self):
        pair = CauchyPair.from_components(uu=1.0)
        ref = integrate_to(pair, UNIT, [0.5, 0.9], n_steps_total=300)
        assert abs(ref[1].theta.uu - 10.0) <= 1e-6
        for n in (np.int64(300), np.uint16(300)):
            for a, b in zip(integrate_to(pair, UNIT, [0.5, 0.9], n_steps_total=n), ref):
                assert _same_bits(a.theta.as_array(), b.theta.as_array())
                assert _same_bits(a.U, b.U) and a.error is b.error is None
        one = integrate_to(pair, UNIT, [0.5, 0.9], n_steps_total=1)
        assert [st.t for st in one] == [0.5, 0.9] and 5.0 < one[1].theta.uu < 10.0


def _deviation(pair, state, profile=UNIT):
    """Largest deviation of theta and U from the closed form, relative to
    max(1, |closed form|) per component."""
    exact = np.concatenate([theta_exact(pair, profile, state.t).as_array(),
                            frame_exact(pair, profile, state.t).ravel()])
    return _gap(np.concatenate([state.theta.as_array(), state.U.ravel()]), exact)


def _gap(got, ref):
    """max_i |got_i - ref_i| / max(1, |ref_i|)."""
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


class TestControlledMarch:
    def test_flags_every_state_it_gets_wrong(self, row_pair):
        # at 1e-2, 1e-4 and 1e-6 (relative) before each finite lifespan end
        for profile in (UNIT, SMOOTH):
            span = lifespan(row_pair, profile)
            ends = [e for e in (span.t_minus, span.t_plus)
                    if e is not None and math.isfinite(e)]
            times = [e * (1.0 - gap) for e in ends for gap in (1e-2, 1e-4, 1e-6)]
            states = integrate_to(row_pair, profile, times)
            wrong = [st.t for st in states
                     if _deviation(row_pair, st, profile) > CERTIFY_LIMIT]
            assert set(wrong) <= {st.t for st in uncertified(states)}, profile.kind
            # the march cannot hold 1e-8 at 1e-6 from a pole: the check bites
            assert len(wrong) >= len(ends), profile.kind

    def test_certifies_the_middle_window(self, row_pair):
        for profile in (UNIT, SMOOTH):
            states = integrate_to(row_pair, profile, sample_times(row_pair, profile, 20))
            assert uncertified(states) == [], profile.kind
            assert max(_deviation(row_pair, st, profile)
                       for st in states) <= CERTIFY_LIMIT, profile.kind

    def test_middle_window_takes_few_steps(self, row_pair, monkeypatch):
        # RK4 steps counted through the march's one kernel entry: the whole
        # step and two half steps of every trial, and the companion step of
        # each accepted one
        steps = []
        march_stop = numeric._kern.march_stop

        def counting(*args):
            result = march_stop(*args)
            accepted, rejected = result[6:8]
            steps.append(3 * (accepted + rejected) + accepted)
            return result

        monkeypatch.setattr(numeric._kern, "march_stop", counting)
        monkeypatch.setattr(numeric._kern, "rk4_path", None)  # never called
        for profile in (UNIT, SMOOTH):
            steps.clear()
            integrate_to(row_pair, profile, sample_times(row_pair, profile, 20))
            assert 0 < sum(steps) < 10_000, profile.kind

    def test_matches_the_three_call_march(self, row_pair, monkeypatch):
        # one march_stop call per stop gives the bits of the march that
        # made three rk4_path calls per trial, up to 1e-4 from a pole
        for profile in (LAPSE_13, SMOOTH):
            span = lifespan(row_pair, profile)
            times = list(sample_times(row_pair, profile, 20)) + [
                e * (1.0 - gap) for e in (span.t_minus, span.t_plus)
                if e is not None and math.isfinite(e) for gap in (1e-2, 1e-4)]
            _assert_same_states(integrate_to(row_pair, profile, times),
                                _three_call_states(row_pair, profile, times, monkeypatch))

    def test_matches_the_three_call_march_when_trials_are_rejected(self, monkeypatch):
        # at a local tolerance near rounding, trials are rejected: no test at
        # LOCAL_TOL reaches that branch, not even 1e-6 from a pole
        monkeypatch.setattr(numeric, "LOCAL_TOL", 1e-15)
        rejected = []
        for pair, profile in ((ROW_PAIRS["tau2R-general"], LAPSE_13),
                              (ROW_PAIRS["tau3mu"], SMOOTH)):
            times = sample_times(pair, profile, 5)
            _assert_same_states(integrate_to(pair, profile, times),
                                _three_call_states(pair, profile, times, monkeypatch,
                                                   rejected))
        assert len(rejected) > 0

    def test_tabulated_b_march_matches_a_fine_t_march(self, row_pair):
        # the list form marched in t reads the lapse at every stage, as the
        # march did before it moved to B; 4,000 steps a direction hold it
        # within 1e-9 of the closed forms on these tables
        for profile in (SMOOTH, SMOOTH_FINE):
            times = sample_times(row_pair, profile, 10)
            got = integrate_to(row_pair, profile, times)
            ref = _t_march(row_pair, profile, times, 4000)
            for st, (t, y) in zip(got, ref):
                assert st.t == t
                state = np.concatenate([st.theta.as_array(), st.U.ravel()])
                assert _gap(state, y) <= CERTIFY_LIMIT, (len(profile.times), t)

    def test_only_the_controlled_march_estimates(self):
        pair = ROW_PAIRS["tau2R-general"]
        for profile in (UNIT, SMOOTH):
            assert [st.error for st in integrate_to(
                pair, profile, [0.0, 0.3], n_steps_total=1000)] == [None, None]
            exact0, st = integrate_to(pair, profile, [0.0, 0.3])
            assert exact0.error == 0.0 and 0.0 < st.error <= CERTIFY_LIMIT


def _relative_gap(a, b):
    """max_i |a_i - b_i| / max(1, |a_i|), over floats."""
    return max(abs(x - z) / max(1.0, abs(x)) for x, z in zip(a, b))


def _advance(y, s, ds, n, target, to_t):
    """y after ``n`` RK4 steps of size ``ds`` from s = ``s``, checked as
    ``numeric._fixed_march`` checks a segment: SingularTime on a guard trip
    or on a state that is not finite."""
    y, done, truncated = numeric._kern.rk4_path(y, ds, n)
    if truncated or not all(map(math.isfinite, y)):
        raise numeric._singular(truncated, s + done * ds, target, to_t)
    return y


def _three_call_march(y0, stops, to_t, rejected=None):
    """The controlled march as it ran before its trials moved into the
    kernel: each trial makes three ``rk4_path`` calls through ``_advance``
    (the whole step, the two half steps, the companion step) and its own
    ``_relative_gap``.  The reference ``_controlled_march`` must match bit
    for bit; ``rejected`` collects the values of s of rejected trials."""
    advance, gap = _advance, _relative_gap
    y = z = y0
    s = 0.0
    sign = 1.0 if stops[0] > 0 else -1.0
    slope = _kernel_py._rhs(y)
    rate = max(abs(d) / max(1.0, abs(v)) for v, d in zip(y, slope))
    h = min(abs(stops[-1]), 0.01 / rate) if rate > 0 else abs(stops[-1])
    for target in stops:
        while s != target:
            land = h >= abs(target - s)
            step = target - s if land else sign * h
            if s + step == s:
                raise SingularTime(f"integration stalled at t = {to_t(s):.12g} "
                                   f"before reaching t = {to_t(target):.12g}")
            whole = advance(y, s, step, 1, target, to_t)
            halves = advance(y, s, 0.5 * step, 2, target, to_t)
            error = gap(halves, whole) / 15.0
            if error <= numeric.LOCAL_TOL:
                z = advance(z, s, step, 1, target, to_t)
                y = halves
                s = target if land else s + step
                if land:
                    continue
            elif rejected is not None:
                rejected.append(s)
            h = abs(step) * (5.0 if error == 0.0 else
                             min(5.0, max(0.2, 0.9 * (numeric.LOCAL_TOL / error) ** 0.2)))
        extrapolated = [a + (a - b) / 15.0 for a, b in zip(y, z)]
        yield target, extrapolated, gap(y, z) / 15.0


def _three_call_states(pair, profile, times, monkeypatch, rejected=None):
    """``integrate_to`` run on ``_three_call_march``."""
    with monkeypatch.context() as patch:
        patch.setattr(numeric, "_controlled_march", lambda *args: _three_call_march(
            *args, rejected=rejected))
        return integrate_to(pair, profile, times)


def _assert_same_states(got, ref):
    assert [st.t for st in got] == [st.t for st in ref]
    for a, b in zip(got, ref):
        assert _same_bits(a.theta.as_array(), b.theta.as_array())
        assert _same_bits(a.U, b.U) and _same_bits(a.metric.as_array(), b.metric.as_array())
        assert _same_bits(np.array([a.hamiltonian, a.error]),
                          np.array([b.hamiltonian, b.error]))


def _run_kernel(kernel, y0, dt, n):
    y, done, trunc = kernel.rk4_path(y0, dt, n)
    assert type(y) is tuple and all(type(v) is float for v in y)
    return np.array(y), done, trunc


def _stages_reference(prof, t0, dt, n_steps):
    """Per-step stage lapses (beta(t), beta(t + dt/2), beta(t + dt)) at
    t = t0 + k dt, three scalar ``beta`` calls a step: what a march in t
    reads of a variable lapse."""
    t = t0
    for step in range(n_steps):
        yield prof.beta(t), prof.beta(t + 0.5 * dt), prof.beta(t + dt)
        t = t0 + (step + 1) * dt


def _list_form_step(y, lapses, dt):
    """One RK4 step in list form in t, the unit-lapse right-hand side scaled
    by the first of the stage lapses for k1, the second for k2 and k3, the
    third for k4: at unit lapse, the reference the kernel must match bit
    for bit."""
    b0, bh, b1 = lapses

    def rhs(x, b):
        return [b * v for v in _kernel_py._rhs(x)]

    k1 = rhs(y, b0)
    k2 = rhs([y[i] + 0.5 * dt * k1[i] for i in range(15)], bh)
    k3 = rhs([y[i] + 0.5 * dt * k2[i] for i in range(15)], bh)
    k4 = rhs([y[i] + dt * k3[i] for i in range(15)], b1)
    return [y[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(15)]


def _run_list_form(y0, t0, dt, n, profile=UNIT):
    """The list-form march in t with the kernel's truncation rule: the state
    it ends on, the steps done and the truncated flag."""
    y = [float(v) for v in y0]
    done, trunc = n, False
    for step, lapses in enumerate(_stages_reference(profile, t0, dt, n)):
        y = _list_form_step(y, lapses, dt)
        trunc = max(abs(y[0]), abs(y[3]), abs(y[4]), abs(y[5])) > _kernel_py._GUARD
        if trunc:
            done = step + 1
            break
    return np.array(y), done, trunc


def _t_march(pair, profile, times, n):
    """(t, y) at each of ``times`` by the list form marched in t from 0,
    each direction in one pass of about ``n`` steps to its farthest time."""
    y0 = np.concatenate([pair.theta.as_array(), np.eye(3).ravel()])
    out = {0.0: y0}
    for side in (1.0, -1.0):
        ts = sorted((t for t in times if side * t > 0), key=abs)
        y, prev = y0, 0.0
        for t in ts:
            k = max(1, round(n * abs(t - prev) / abs(ts[-1])))
            y, _, trunc = _run_list_form(y, prev, (t - prev) / k, k, profile)
            assert not trunc
            out[t], prev = y, t
    return [(t, out[t]) for t in times]


def _same_bits(a, b):
    """Exact equality down to the sign of zero."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_same_path(got, ref):
    (y1, d1, tr1), (y2, d2, tr2) = got, ref
    assert (d1, tr1) == (d2, tr2)
    assert _same_bits(y1, y2)


# a value near the guard, or one whose products overflow
_EXTREME = st.one_of(
    st.floats(0.9 * _kernel_py._GUARD, 1.1 * _kernel_py._GUARD),
    st.floats(-1.1 * _kernel_py._GUARD, -0.9 * _kernel_py._GUARD),
    st.floats(-1e300, 1e300))


@st.composite
def _drawn_states(draw):
    """15 signed zeros and moderate values, up to three of them then
    replaced by extreme ones: most trials run every leg, some overflow."""
    y = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
                      min_size=15, max_size=15))
    for i in draw(st.lists(st.integers(0, 14), max_size=3)):
        y[i] = draw(_EXTREME)
    return tuple(y)


# _kernel_py, and the C kernel when numeric runs it: every kernel test below
# holds each to the list form
BACKENDS = (_kernel_py,) if numeric._kern is _kernel_py else (_kernel_py, numeric._kern)
KERNELS = [pytest.param(k, id="python" if k is _kernel_py else "c") for k in BACKENDS]


@pytest.fixture(scope="module", params=KERNELS)
def kernel(request):
    return request.param


def _random_stops(rng, n):
    """The arguments of ``n`` ``march_stop`` stops, drawn for
    ``test_c_kernel_matches_python_kernel_on_random_calls``; ``rk4_path`` is
    ``_kernel_py``'s on both backends, so no call of it is drawn.  Each
    state is moderate, with about one entry in eight replaced by a signed
    zero, a NaN or an infinity, a Theta value near the guard, or a value up
    to 1e300; h has
    either sign and a size from 1e-6 to 1.  A stop starts at s = 0 (one in
    four) or at an s of either sign and a size from 0.1 to 1e16, and ends
    at ``_stop_target``.  One stop in 40 gets a tol that is negative or
    NaN, which both backends refuse."""
    y, z = rng.uniform(-3.0, 3.0, (2, n, 15))
    for states in (y, z):
        odd = rng.integers(0, 25, states.shape)  # 0 to 3 replace the entry
        states[odd == 0] = rng.choice([0.0, -0.0], np.count_nonzero(odd == 0))
        states[odd == 1] = rng.choice([math.nan, math.inf, -math.inf],
                                      np.count_nonzero(odd == 1))
        near = (odd == 2) & np.isin(np.arange(15), [0, 3, 4, 5])
        states[near] = rng.choice([1.0, -1.0], np.count_nonzero(near)) * rng.uniform(
            0.9 * _kernel_py._GUARD, 1.1 * _kernel_py._GUARD, np.count_nonzero(near))
        big = odd == 3
        states[big] = rng.choice([1.0, -1.0], np.count_nonzero(big)) * 10.0 ** rng.uniform(
            0.0, 300.0, np.count_nonzero(big))
    h = rng.choice([1.0, -1.0], n) * 10.0 ** rng.uniform(-6.0, 0.0, n)
    s = np.where(rng.integers(0, 4, n) == 0, 0.0,
                 rng.choice([1.0, -1.0], n) * 10.0 ** rng.uniform(-1.0, 16.0, n))
    ratio = 10.0 ** rng.uniform(-1.0, 1.0, n)
    ulps = rng.integers(1, 65, n)
    tol = rng.choice([0.0, 1e-15, 1e-12, math.inf], n)
    tol = np.where(rng.integers(0, 40, n) == 0,
                   rng.choice([-1e-12, -1.0, -math.inf, math.nan], n), tol)
    for y, z, h, s, ratio, ulps, tol in zip(y.tolist(), z.tolist(), h.tolist(), s.tolist(),
                                            ratio.tolist(), ulps.tolist(), tol.tolist()):
        yield tuple(y), tuple(z), s, abs(h), _stop_target(s, h, ratio, ulps, tol), tol


def _stop_target(s, h, ratio, ulps, tol):
    """A stop ``ratio`` |h| from s in the direction of h, and under a finite
    tol no more than ``ulps`` spacings of s away.  Each trial that is taken
    then moves s by a spacing or more, and each one rejected cuts h by a
    tenth or more, until a step too small to move s stalls the stop: no
    drawn stop runs long.  A wider one could crawl, on an extreme state or
    near a pole, at steps of the size of rounding."""
    span = ratio * abs(h)
    if tol < math.inf:
        span = min(span, ulps * math.ulp(s))
    return s + math.copysign(span, h)


def _stop(kernel, args):
    """The result of ``kernel.march_stop(*args)``, or (ValueError, its
    message) when it raises one."""
    try:
        return kernel.march_stop(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _state_bits(y):
    """The bits of the state ``y``, every NaN read as ``math.nan``; None for
    None.  The sign bit of a NaN is no part of a result (see
    ``test_march_stop_matches_list_form_on_drawn_states``)."""
    return None if y is None else struct.pack("15d", *(math.nan if v != v else v for v in y))


def _stop_bits(stop):
    """A ``march_stop`` result in comparable form: its states as
    ``_state_bits``, the bits of s, h and the estimate, and the rest as it
    is; each state a tuple of floats, each count an int."""
    y, z, s, h, extrapolated, estimate, accepted, rejected, failed = stop
    for state in (y, z) if extrapolated is None else (y, z, extrapolated):
        assert type(state) is tuple and all(type(v) is float for v in state)
    assert type(accepted) is int and type(rejected) is int
    return (_state_bits(y), _state_bits(z), struct.pack("2d", s, h), _state_bits(extrapolated),
            None if estimate is None else struct.pack("d", estimate), accepted, rejected,
            failed)


class TestKernelParity:
    @pytest.mark.skipif(numeric._kern is _kernel_py,
                        reason="numeric runs _kernel_py itself: no C kernel was built")
    def test_c_kernel_matches_python_kernel_on_random_calls(self):
        outcomes = Counter()
        for args in _random_stops(np.random.default_rng(40), 60_000):
            got = _stop(numeric._kern, args)
            want = _stop(_kernel_py, args)
            if want[0] is ValueError:  # both raise alike
                assert got == want, args
                outcomes["refused"] += 1
            else:
                assert _stop_bits(got) == _stop_bits(want), args
                failed = want[8]
                outcomes[failed[0] if failed else
                         "landed after a rejection" if want[7] else "landed"] += 1
        # every way a call can end came up
        assert min(outcomes[k] for k in (
            "landed", "landed after a rejection", "whole", "half 1",
            "half 2", "companion", "stall", "refused")) >= 10, outcomes

    def test_march_stop_refuses_a_negative_or_nan_tol(self):
        # in a subprocess with a timeout: a stop that took such a tol would
        # reject every trial and never return, in C past any signal
        y = tuple(np.concatenate([ROW_PAIRS["tau2R-general"].theta.as_array(),
                                  np.eye(3).ravel()]).tolist())
        still = (0.0,) * 6 + tuple(np.eye(3).ravel().tolist())  # Theta = 0: no slope
        script = f"""if True:
            import math
            from spinorflow import _kernel_py, numeric
            for kernel in dict.fromkeys([_kernel_py, numeric._kern]):
                for y in ({y!r}, {still!r}):
                    for tol in (-1e-12, -5e-324, -math.inf, math.nan, -1):
                        try:
                            kernel.march_stop(y, y, 0.0, 0.5, 0.5, tol)
                        except ValueError as exc:
                            assert str(exc) == f"march_stop needs tol >= 0, got {{tol!r}}", exc
                        else:
                            raise AssertionError((kernel, y, tol))
            print(numeric.KERNEL_BACKEND)
        """
        src = str(Path(numeric.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        ran = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=60)
        assert ran.returncode == 0, ran.stderr
        assert ran.stdout == KERNEL_BACKEND + "\n"

    def test_rk4_path_is_the_python_march_on_either_backend(self):
        # the fixed march is written once, in Python: _c_kernel binds it
        # onto the C module
        assert numeric._kern.rk4_path is _kernel_py.rk4_path

    @pytest.mark.skipif(numeric._kern is _kernel_py,
                        reason="numeric runs _kernel_py itself: no C kernel was built")
    def test_the_built_library_holds_the_other_six_entries(self):
        # loaded under a name of its own, without the binding of _c_kernel
        spec = importlib.util.spec_from_file_location("spinorflow_unbound._kernel",
                                                      numeric._kern.__file__)
        library = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(library)
        assert {name for name in vars(library) if not name.startswith("__")} == {
            "march_stop", "e12", "reprs", "cumulative", "ricci", "residuals"}

    def test_backend_reported(self):
        assert KERNEL_BACKEND == ("python" if numeric._kern is _kernel_py else "c")
        assert sys.modules[numeric._kern.__name__] is numeric._kern

    def test_a_fresh_build_loads(self, tmp_path):
        built = numeric._c_kernel(tmp_path)
        assert (built is _kernel_py) == (numeric._kern is _kernel_py)
        if built is not _kernel_py:
            # the name numeric's own cache holds, and no temporary file left
            library, = tmp_path.iterdir()
            assert library.name == Path(numeric._kern.__file__).name
            y = tuple(np.concatenate([ROW_PAIRS["tau3mu"].theta.as_array(),
                                      np.eye(3).ravel()]).tolist())
            assert built.march_stop(y, y, 0.0, 0.1, 0.3, 1e-8) == _kernel_py.march_stop(
                y, y, 0.0, 0.1, 0.3, 1e-8)
            # a second load reads the library as it is
            written = library.stat().st_mtime_ns
            assert numeric._c_kernel(tmp_path).__file__ == str(library)
            assert library.stat().st_mtime_ns == written

    @pytest.mark.parametrize("compiler", [
        # fails, talking on both streams
        [sys.executable, "-c", "import sys; print('compiling'); sys.exit('error: no')"],
        # is not there
        [str(Path(sys.executable).with_name("no-such-compiler"))],
        # writes something that is not a library
        [sys.executable, "-c", "import sys; open(sys.argv[-1], 'w').write('not a library')"],
    ], ids=["fails", "missing", "not-a-library"])
    def test_a_failed_build_falls_back_to_python_silently(self, tmp_path, monkeypatch,
                                                          capfd, compiler):
        monkeypatch.setattr(numeric, "_compile_flags", lambda: compiler)
        assert numeric._c_kernel(tmp_path / "cache") is _kernel_py
        assert capfd.readouterr() == ("", "")
        # nothing but, at most, the library the compiler claimed to write
        left = list((tmp_path / "cache").iterdir())
        assert not [p for p in left if p.name.endswith(".tmp")]

    def test_an_unwritable_cache_falls_back_to_python_silently(self, tmp_path, capfd):
        # a directory that cannot be made: root may write to a read-only one
        (tmp_path / "file").write_text("")
        assert numeric._c_kernel(tmp_path / "file" / "cache") is _kernel_py
        assert capfd.readouterr() == ("", "")

    # rk4_path is _kernel_py's on both backends: one arm holds it
    @pytest.mark.parametrize("kernel", [pytest.param(_kernel_py, id="python")])
    def test_truncation_contract_matches(self, kernel):
        y0 = np.concatenate([[1.0, 0, 0, 0, 0, 0], np.eye(3).ravel()])
        n = 10_000
        dt = 1.05 / n
        got = _run_kernel(kernel, y0, dt, n)
        y, done, trunc = got
        # the end state is the one that tripped the guard
        assert trunc and done < n and y[0] > _kernel_py._GUARD
        _assert_same_path(got, _run_list_form(y0, 0.0, dt, n))

    @pytest.mark.parametrize("theta, dt, n", [
        # backward march, as integrate_to runs it
        ((-2.0, 1.0, 1.0, 1.0, 1.0, 1.0), -0.3 / 400, 400),
        # signed zeros in the conserved Theta_ul, Theta_un and in Theta_ln
        ((1.0, -0.0, 0.0, 0.5, -0.0, 2.0), 0.01, 30),
        ((1.0, -0.0, -0.0, 0.5, -0.0, 2.0), -0.01, 30),
        # the steps in s of a constant lapse of 1.3 over -0.9 / 300 in t
        ((-2.0, 1.0, 1.0, 1.0, 1.0, 1.0), 1.3 * (-0.9 / 300), 300),
        # one step, as a step-size controller takes it
        ((1.0, 0.6, 0.8, 0.5, -0.3, 2.0), 0.0625, 1),
        # Theta_ll stays on the guard, which only a value past it trips
        ((0.0, 0.0, 0.0, 1e12, 0.0, 0.0), 0.01, 5),
    ], ids=["backward", "signed-zero-fwd", "signed-zero-bwd", "lapse-1.3",
            "adaptive-step", "on-the-guard"])
    @pytest.mark.parametrize("kernel", [pytest.param(_kernel_py, id="python")])
    def test_kernel_matches_list_form(self, kernel, theta, dt, n):
        y0 = np.concatenate([theta, np.eye(3).ravel()])
        _assert_same_path(_run_kernel(kernel, y0, dt, n),
                          _run_list_form(y0, 0.0, dt, n))

    @pytest.mark.parametrize("beta", [1.0, 1.3], ids=["beta-1", "beta-1.3"])
    @pytest.mark.parametrize("h", [0.05, -0.05], ids=["fwd", "bwd"])
    def test_march_stop_matches_list_form(self, kernel, row_pair, beta, h):
        # from a state with a U that is not the identity, and a companion
        # apart from it: one trial, and a stop of several; tol = inf takes
        # every trial.  A constant lapse beta reaches the kernel as the
        # trials of size beta h in s.
        y0 = np.concatenate([row_pair.theta.as_array(), np.eye(3).ravel()]).tolist()
        y = tuple(_list_form_step(y0, (1.0,) * 3, 0.1))
        z = tuple(v * (1.0 + 1e-7) for v in y)
        for tol in (math.inf, numeric.LOCAL_TOL):
            for target in (beta * h, 7.0 * beta * h):
                args = (y, z, 0.0, beta * abs(h), target, tol)
                assert _stop_bits(kernel.march_stop(*args)) == _stop_bits(
                    _list_form_stop(*args)), args

    @pytest.mark.parametrize("ul, un", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)],
                             ids=["ul-neg", "un-neg", "both-neg"])
    @pytest.mark.parametrize("h", [0.05, -0.05], ids=["fwd", "bwd"])
    def test_march_stop_keeps_signed_zeros(self, kernel, ul, un, h):
        # the companion carries the zeros of the other sign
        y = (1.0, ul, un, 0.5, -0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        z = y[:1] + (-ul, -un) + y[3:]
        got = kernel.march_stop(y, z, 0.0, abs(h), h, math.inf)
        assert _stop_bits(got) == _stop_bits(_list_form_stop(y, z, 0.0, abs(h), h, math.inf))
        assert got[6:] == (1, 0, None)

    @pytest.mark.parametrize("uu, zuu, h, leg, s", [
        # RK4 from Theta_uu = 10 over h = 1 lands past the guard
        (10.0, 1.0, 1.0, "whole", 1.0),
        # the whole step climbs back inside the guard, the first half not
        (-1.0000001e12, 1.0, 1.5e-19, "half 1", 0.75e-19),
        # the whole step falls short of the guard that two halves pass
        (1e11, 1.0, 0.94e-11, "half 2", 0.94e-11),
        (1.0, 10.0, 1.0, "companion", 1.0),
    ], ids=["whole", "half-1", "half-2", "companion"])
    def test_march_stop_truncation_contract(self, kernel, uu, zuu, h, leg, s):
        # Theta_uu over the identity frame, the rest of Theta zero; the stop
        # is one trial, and s is where its failing leg stopped
        y, z = ((v,) + (0.0,) * 5 + _FRAME for v in (uu, zuu))
        got = kernel.march_stop(y, z, 0.0, h, h, math.inf)
        assert got[1:] == (z, s, h, None, None, 0, 0, (leg, True))
        assert _stop_bits(got) == _stop_bits(_list_form_stop(y, z, 0.0, h, h, math.inf))

    @pytest.mark.parametrize("leg", ["whole", "half 2", "companion"])
    def test_march_stop_reports_an_overflowed_frame(self, kernel, leg):
        # Theta = -2 I stays bounded while each entry of U in turn, at
        # 1e308, grows past the largest float: the guard reads Theta only.
        # At max / 7.1 the whole step stays finite (x7.0) and the two half
        # steps do not (x7.335)
        fine = (1.0,) + (0.0,) * 5 + _FRAME
        for i in range(6, 15):
            big = [-2.0, 0.0, 0.0, -2.0, 0.0, -2.0] + list(_FRAME)
            big[i] = sys.float_info.max / 7.1 if leg == "half 2" else 1e308
            y, z = (fine, tuple(big)) if leg == "companion" else (tuple(big), fine)
            got = kernel.march_stop(y, z, 0.0, 1.0, 1.0, math.inf)
            assert (got[2],) + got[6:] == (1.0, 0, 0, (leg, False)), i
            assert _stop_bits(got) == _stop_bits(_list_form_stop(y, z, 0.0, 1.0, 1.0,
                                                                 math.inf))

    def test_march_stop_rejects_without_a_companion(self, kernel):
        # from z = y, the companion of one trial is its whole step, so the
        # stop's estimate is that trial's local error
        pair = ROW_PAIRS["tau2R-general"]
        y = tuple(np.concatenate([pair.theta.as_array(), np.eye(3).ravel()]).tolist())
        taken = kernel.march_stop(y, y, 0.0, 0.05, 0.05, math.inf)
        error = taken[5]
        assert error > 0.0 and taken[6:] == (1, 0, None)
        # an error equal to tol is taken, one ulp above it is not: the
        # rejected trial cuts h, and shorter ones land
        assert kernel.march_stop(y, y, 0.0, 0.05, 0.05, error)[6:] == (1, 0, None)
        tol = math.nextafter(error, 0.0)
        rejected = kernel.march_stop(y, y, 0.0, 0.05, 0.05, tol)
        assert rejected[6] > 1 and rejected[7] >= 1 and rejected[8] is None
        assert _stop_bits(rejected) == _stop_bits(_list_form_stop(y, y, 0.0, 0.05, 0.05, tol))

    @pytest.mark.parametrize("s, h, tol, rejected", [
        # a step below half a spacing of s is never taken
        (1.0, 1e-17, math.inf, 0),
        (-2.0, -2e-16, 1e-12, 0),
        # at tol = 0, every trial with an error is rejected: 0.5 down to
        # 1.6e-4 by fifths, and the next step no longer moves s
        (1e12, 0.5, 0.0, 6),
    ], ids=["tiny-step", "tiny-step-bwd", "rejected"])
    def test_march_stop_stalls(self, kernel, s, h, tol, rejected):
        pair = ROW_PAIRS["tau2R-general"]
        y = tuple(np.concatenate([pair.theta.as_array(), np.eye(3).ravel()]).tolist())
        target = s + math.copysign(1.0, h) * 2.0 * max(abs(h), math.ulp(s))
        got = kernel.march_stop(y, y, s, abs(h), target, tol)
        assert got[8] == ("stall", None) and got[2] == s and got[6] == 0
        assert got[7] == rejected and got[4:6] == (None, None)
        assert got[:2] == (y, y)
        assert _stop_bits(got) == _stop_bits(_list_form_stop(y, y, s, abs(h), target, tol))

    # Only finite states are drawn: the march stops at the first leg that
    # ends on a state that is not finite, so it never starts a trial from
    # one.  A finite state can still end a failed trial on NaN entries, and
    # the sign bit of a NaN is no part of the result: which operand of a
    # NaN + NaN survives depends on the machine code the interpreter runs
    # for the addition, and the kernel and the list form differed there in
    # 2 of 100,000 random trials.  So a NaN entry compares as NaN; every
    # other bit must match.  Each draw holds every backend to one list-form
    # result.  Its stop ends at ``_stop_target``.
    @given(_drawn_states(), _drawn_states(),
           st.one_of(st.just(0.0), st.floats(-1e16, 1e16)), st.floats(1e-6, 1.0),
           st.sampled_from([1.0, -1.0]), st.floats(0.1, 10.0), st.integers(1, 64),
           st.sampled_from([0.0, 1e-15, 1e-12, math.inf]))
    @settings(max_examples=300, deadline=None)
    def test_march_stop_matches_list_form_on_drawn_states(self, y, z, s, size, sign, ratio,
                                                          ulps, tol):
        target = _stop_target(s, sign * size, ratio, ulps, tol)
        want = _stop_bits(_list_form_stop(y, z, s, size, target, tol))
        for kernel in BACKENDS:
            assert _stop_bits(kernel.march_stop(y, z, s, size, target, tol)) == want

    # the states and the NaN rule of the march_stop test above
    @given(_drawn_states(), _drawn_states(), st.integers(0, 20),
           st.floats(1e-6, 1.0), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_rk4_path_matches_list_form_on_drawn_states(self, y, z, n, size, sign):
        dt = sign * size
        ref = _run_list_form(y, 0.0, dt, n)
        for kernel in BACKENDS:
            got = _run_kernel(kernel, y, dt, n)
            assert got[1:] == ref[1:]
            assert _state_bits(got[0]) == _state_bits(ref[0])
            if n == 0:
                assert got[1:] == (0, False) and _same_bits(got[0], np.array(y))
            # a stop of one trial that takes every leg is two steps of h/2
            # from y and one of h from z
            stop = kernel.march_stop(y, z, 0.0, size, dt, math.inf)
            if stop[8] is None:
                assert stop[6:8] == (1, 0)
                assert _same_bits(np.array(stop[0]),
                                  np.array(kernel.rk4_path(y, dt / 2, 2)[0]))
                assert _same_bits(np.array(stop[1]),
                                  np.array(kernel.rk4_path(z, dt, 1)[0]))


def _tripped(y):
    """The kernel's guard: |Theta_uu|, |Theta_ll|, |Theta_ln| or |Theta_nn|
    past ``_GUARD``; a NaN does not trip it."""
    return any(abs(y[i]) > _kernel_py._GUARD for i in (0, 3, 4, 5))


def _list_form_trial(y, z, h, tol):
    """One trial from the list form: the whole step, the two half steps,
    the local error and, within ``tol``, the companion step, each leg
    checked as ``rk4_path`` and ``_advance`` check it; as
    ``_kernel_py._march`` returns a trial."""
    lapses = (1.0, 1.0, 1.0)
    whole = _list_form_step(y, lapses, h)
    if _tripped(whole) or not all(map(math.isfinite, whole)):
        return whole, None, None, ("whole", _tripped(whole))
    half = _list_form_step(y, lapses, 0.5 * h)
    if _tripped(half):
        return half, None, None, ("half 1", True)
    halves = _list_form_step(half, lapses, 0.5 * h)
    if _tripped(halves) or not all(map(math.isfinite, halves)):
        return halves, None, None, ("half 2", _tripped(halves))
    error = max(abs(a - b) / max(1.0, abs(a)) for a, b in zip(halves, whole)) / 15.0
    if error > tol:
        return halves, None, error, None
    companion = _list_form_step(z, lapses, h)
    if _tripped(companion) or not all(map(math.isfinite, companion)):
        return companion, None, None, ("companion", _tripped(companion))
    return halves, companion, error, None


def _list_form_stop(y, z, s, h, target, tol):
    """``march_stop`` from the list form: ``_list_form_trial`` for each
    trial, in the loop and with the step-size rule of the march before its
    trials moved into the kernel (``_three_call_march``)."""
    sign = 1.0 if target > s else -1.0
    accepted = rejected = 0
    while s != target:
        land = h >= abs(target - s)
        step = target - s if land else sign * h
        if s + step == s:
            return y, z, s, h, None, None, accepted, rejected, ("stall", None)
        halves, companion, error, failed = _list_form_trial(y, z, step, tol)
        if failed:  # where the failing leg stopped
            s += 0.5 * step if failed[0] == "half 1" else step
            return tuple(halves), z, s, h, None, None, accepted, rejected, failed
        if companion is None:
            rejected += 1
        else:
            accepted += 1
            y, z = tuple(halves), tuple(companion)
            s = target if land else s + step
            if land:
                break
        h = abs(step) * (5.0 if error == 0.0 else
                         min(5.0, max(0.2, 0.9 * (tol / error) ** 0.2)))
    extrapolated = tuple(a + (a - b) / 15.0 for a, b in zip(y, z))
    return y, z, s, h, extrapolated, _relative_gap(y, z) / 15.0, accepted, rejected, None


def _flow_stack(pair, profile=UNIT, samples=20):
    """(comp, u, theta0) of the RK4 states of ``pair`` at its sample times."""
    states = integrate_to(pair, profile, sample_times(pair, profile, samples))
    return (np.array([st.theta.as_array() for st in states]),
            np.array([st.U for st in states]), pair.theta.as_array())


def _with_specials(rng, x):
    """``x`` with about one entry in six replaced by +-0.0, +-inf or NaN."""
    x = x.copy()
    pick = rng.integers(0, 30, x.shape)
    for k, special in enumerate([0.0, -0.0, np.inf, -np.inf, np.nan]):
        x[pick == k] = special
    return x


def _numpy_residuals(comp, u, theta0):
    """r1-r4 as they were evaluated before the kernel took them: with
    numpy's ``@`` and ``einsum``, summed in whatever order the BLAS picks."""
    th_t, th_0 = sym_matrices(comp), sym_matrices(theta0)
    dth, du = ode_rhs(comp, u)
    r1 = np.abs(du + th_t @ u).max(axis=(1, 2))
    a = u @ th_0
    f = np.zeros((len(u), 3, 3, 3))
    f[:, :, :, 0] += a
    f[:, :, 0, :] -= a
    g = np.einsum("zab,zbc,zd->zacd", th_t, u, u[:, 0, :])
    r2 = np.abs(f - (g - g.transpose(0, 1, 3, 2))).max(axis=(1, 2, 3))
    r3 = np.abs((sym_matrices(dth) @ u + th_t @ du)[:, 0, :]).max(axis=1)
    w = np.abs(th_t[:, None, 0, :] @ th_t)[:, 0, :]
    return np.stack([r1, r2, r3, np.where(w[:, 2] > w[:, 1], w[:, 2], w[:, 1])])


# magnitudes of the residual stacks: products underflow or overflow at the ends
_SCALES = [1e-160, 1.0, 1e160]


class TestKernelResiduals:
    """The kernel's ``residuals`` gives the bytes of ``_kernel_py.residuals``,
    a NaN as any NaN: every sum of products in index order, with no fused
    multiply-add, the maxima keeping a NaN as ``np.max`` does, and r4 |w_l|
    unless |w_n| > |w_l|."""

    @staticmethod
    def _same(kernel, comp, u, theta0):
        got = np.frombuffer(kernel.residuals(comp, u, theta0))
        want = np.frombuffer(_kernel_py.residuals(comp, u, theta0))
        nan = np.isnan(want)
        assert got.shape == want.shape == (4 * len(comp),)
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("scale", _SCALES)
    def test_flow_stacks(self, kernel, row_pair, scale):
        rng = np.random.default_rng([46, _SCALES.index(scale)])
        comp, u, theta0 = (x * scale for x in _flow_stack(row_pair))
        for n in (0, 1, len(comp)):
            self._same(kernel, comp[:n], u[:n], theta0)
            self._same(kernel, -comp[:n], -u[:n], -theta0)  # zeros of the other sign
        self._same(kernel, _with_specials(rng, comp), _with_specials(rng, u), theta0)

    @pytest.mark.parametrize("scale", _SCALES)
    def test_dense_stacks(self, kernel, scale):
        rng = np.random.default_rng([47, _SCALES.index(scale)])
        for n in (0, 1, 2, 50):
            comp = rng.standard_normal((n, 6)) * scale
            u = rng.standard_normal((n, 3, 3)) * scale
            theta0 = rng.standard_normal(6) * scale
            self._same(kernel, comp, u, theta0)
            self._same(kernel, _with_specials(rng, comp), _with_specials(rng, u),
                       _with_specials(rng, theta0))

    def test_a_nan_w_l_is_kept(self, kernel):
        # Theta_ll NaN makes w_l NaN and leaves w_n finite: r4 is NaN
        comp = np.array([[1.0, 2.0, 3.0, np.nan, 0.5, -1.0]])
        r4 = np.frombuffer(kernel.residuals(comp, np.eye(3)[None], np.ones(6)))[3]
        assert math.isnan(r4)
        self._same(kernel, comp, np.eye(3)[None], np.ones(6))


class TestResidualsAgainstMatmul:
    """``numeric._residuals`` against numpy's ``@`` and ``einsum``, an
    independent reference that differs only in how each sum rounds."""

    def test_flow_states(self, row_pair):
        # within 4 ulps of max(1, |Theta_t|) max(1, |U_t|), max norms
        for profile in (UNIT, RAMP):
            comp, u, _ = _flow_stack(row_pair, profile, 40)
            got = numeric._residuals(comp, u, row_pair)
            want = _numpy_residuals(comp, u, row_pair.theta.as_array())
            scale = (np.maximum(1.0, np.abs(comp).max(axis=1))
                     * np.maximum(1.0, np.abs(u).max(axis=(1, 2))))
            assert (np.abs(got - want) <= 4 * np.finfo(float).eps * scale).all()

    def test_dense_stacks(self):
        # residuals of size 1, whose sums hold products of up to three
        # factors: within 16 ulps of the largest such product
        rng = np.random.default_rng(48)
        comp, u, theta0 = (rng.standard_normal(shape) for shape in ((200, 6), (200, 3, 3), 6))
        pair = CauchyPair(Sym3.from_array(theta0))
        got = numeric._residuals(comp, u, pair)
        want = _numpy_residuals(comp, u, theta0)
        th = np.maximum(np.maximum(1.0, np.abs(comp).max(axis=1)), np.abs(theta0).max())
        big_u = np.maximum(1.0, np.abs(u).max(axis=(1, 2)))
        scale = th * big_u * np.maximum(th, big_u)
        assert (np.abs(got - want) <= 16 * np.finfo(float).eps * scale).all()
        # r1 is a rounding residue, since dU is -Theta_t U_t; the others are not
        assert (want[1:].max(axis=1) > 0.1).all()


@pytest.mark.skipif(numeric._kern is _kernel_py,
                    reason="numeric runs _kernel_py: no C kernel was built")
@pytest.mark.parametrize("args, error", [
    ((np.zeros((2, 6), dtype=np.float32), np.zeros((2, 3, 3)), np.zeros(6)), TypeError),
    ((np.zeros(6), np.zeros((1, 3, 3)), np.zeros(6)), TypeError),
    ((np.zeros((2, 12))[:, ::2], np.zeros((2, 3, 3)), np.zeros(6)), ValueError),
    ((np.zeros((2, 6)), np.zeros((1, 3, 3)), np.zeros(6)), ValueError),
    ((np.zeros((2, 6)), np.zeros((2, 3, 3)), np.zeros(5)), ValueError),
], ids=["float32", "1d-comp", "strided", "u-length", "theta0-length"])
def test_the_c_kernel_refuses_a_bad_residual_stack(args, error):
    # numeric._residuals never passes these; the C kernel refuses them
    # rather than read past an array
    with pytest.raises(error):
        numeric._kern.residuals(*args)


def _view(shape, code="d"):
    """A memoryview of zeros of ``shape``, float64 or of the array type
    ``code``, whose release() raises BufferError while a buffer of it is
    held."""
    return memoryview(array.array(code, [0.0] * math.prod(shape))).cast("B").cast(code, shape)


@pytest.mark.skipif(numeric._kern is _kernel_py,
                    reason="numeric runs _kernel_py: no C kernel was built")
@pytest.mark.parametrize("entry, args, error", [
    ("cumulative", lambda: (_view((3,)), _view((3,), "f"), 1.0), TypeError),
    ("cumulative", lambda: (_view((3,)), _view((2,)), 1.0), ValueError),
    ("cumulative", lambda: (_view((3,)), _view((3,)), 1.0), None),
    ("ricci", lambda: (_view((3,)), _view((1, 3, 3, 3), "f"), None), TypeError),
    ("ricci", lambda: (_view((3,)), _view((1, 3, 3, 3)), _view((1, 3, 3, 3), "f")), TypeError),
    ("ricci", lambda: (_view((3,)), _view((1, 3, 3, 3)), _view((2, 3, 3, 3))), ValueError),
    ("ricci", lambda: (_view((3,)), _view((1, 3, 3, 3)), _view((1, 3, 3, 3))), None),
    ("residuals", lambda: (_view((1, 6)), _view((1, 3, 3)), _view((6,), "f")), TypeError),
    ("residuals", lambda: (_view((1, 6)), _view((2, 3, 3)), _view((6,))), ValueError),
    ("residuals", lambda: (_view((1, 6)), _view((1, 3, 3)), _view((6,))), None),
], ids=["cumulative-type", "cumulative-shape", "cumulative", "ricci-type", "ricci-dc0-type",
        "ricci-shape", "ricci", "residuals-type", "residuals-shape", "residuals"])
def test_the_c_kernel_holds_no_buffer_after_a_call(entry, args, error):
    # a refused array releases the buffers read before it, and every call
    # releases them all on its way out
    args = args()
    if error is None:
        getattr(numeric._kern, entry)(*args)
    else:
        with pytest.raises(error):
            getattr(numeric._kern, entry)(*args)
    for arg in args:
        if isinstance(arg, memoryview):
            arg.release()
