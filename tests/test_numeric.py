"""Numerical integrator: oracle agreement, convergence order, conserved
quantities, residual monitors, bit-for-bit parity of the RK4 kernel with a
list-form reference, and agreement of the march in B with that list form
marched in t on smooth tables."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorflow import CauchyPair, LapseProfile, SingularTime, Sym3, \
    flow_residuals, frame_exact, integrate_to, lifespan, ode_rhs, theta_exact
from spinorflow.numeric import CERTIFY_LIMIT, KERNEL_BACKEND, FlowState, \
    ResidualReport, uncertified
from spinorflow.verify import sample_times
from spinorflow import _kernel_py, numeric

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

    def test_one_rhs_evaluation(self, monkeypatch):
        st = integrate_to(ROW_PAIRS["tau2R-general"], UNIT, [0.3])[-1]
        calls = []
        rhs = numeric.ode_rhs
        monkeypatch.setattr(numeric, "ode_rhs", lambda *a: calls.append(a) or rhs(*a))
        flow_residuals(st, ROW_PAIRS["tau2R-general"])
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
        # Theta = 0 has no slope, so the first trial is the whole window
        monkeypatch.setattr(numeric._kern, "doubling_step",
                            lambda y, z, h, tol: (y, None, None, (leg, tripped)))
        how = "blew up at" if tripped else "overflowed by"
        with pytest.raises(SingularTime, match=rf"^integration {how} t = {stop} "
                                               r"before reaching t = 0\.5$"):
            integrate_to(CauchyPair.from_components(), UNIT, [0.5])

    def test_stalls_when_every_trial_is_rejected(self, monkeypatch):
        # each rejected trial cuts the step to a fifth, until s + step == s
        calls = []

        def rejected(y, z, h, tol):
            calls.append(h)
            assert len(calls) < 10_000, "the march never stalled"
            return y, None, math.inf, None

        monkeypatch.setattr(numeric._kern, "doubling_step", rejected)
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
        # step, two half steps and, on an accepted trial, the companion step
        steps = []
        doubling_step = numeric._kern.doubling_step

        def counting(*args):
            result = doubling_step(*args)
            steps.append(3 + (result[1] is not None))
            return result

        monkeypatch.setattr(numeric._kern, "doubling_step", counting)
        monkeypatch.setattr(numeric._kern, "rk4_path", None)  # never called
        for profile in (UNIT, SMOOTH):
            steps.clear()
            integrate_to(row_pair, profile, sample_times(row_pair, profile, 20))
            assert 0 < sum(steps) < 10_000, profile.kind

    def test_matches_the_three_call_march(self, row_pair, monkeypatch):
        # one doubling_step call per trial gives the bits of the march that
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


def _three_call_march(y0, stops, to_t, rejected=None):
    """The controlled march as it ran before ``doubling_step``: each trial
    makes three ``rk4_path`` calls through ``numeric._advance`` (the whole
    step, the two half steps, the companion step) and its own
    ``_relative_gap``.  The reference ``_controlled_march`` must match bit
    for bit; ``rejected`` collects the values of s of rejected trials."""
    advance, gap = numeric._advance, numeric._relative_gap
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


class TestKernelParity:
    def test_python_kernel_matches_active_backend(self):
        # the kernel numeric runs is the one checked against the list form
        assert numeric._kern is _kernel_py
        pair = ROW_PAIRS["tau2R-general"]
        y0 = np.concatenate([pair.theta.as_array(), np.eye(3).ravel()])
        n = 500
        # a constant lapse of 1.3 reaches the kernel as 1.3 times the step
        for dt in (0.4 / n, 1.3 * (0.4 / n)):
            _assert_same_path(_run_kernel(numeric._kern, y0, dt, n),
                              _run_list_form(y0, 0.0, dt, n))

    def test_backend_reported(self):
        assert KERNEL_BACKEND == "python"

    def test_truncation_contract_matches(self):
        y0 = np.concatenate([[1.0, 0, 0, 0, 0, 0], np.eye(3).ravel()])
        n = 10_000
        dt = 1.05 / n
        got = _run_kernel(_kernel_py, y0, dt, n)
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
    ], ids=["backward", "signed-zero-fwd", "signed-zero-bwd", "lapse-1.3",
            "adaptive-step"])
    def test_python_kernel_matches_list_form(self, theta, dt, n):
        y0 = np.concatenate([theta, np.eye(3).ravel()])
        _assert_same_path(_run_kernel(_kernel_py, y0, dt, n),
                          _run_list_form(y0, 0.0, dt, n))

    @pytest.mark.parametrize("beta", [1.0, 1.3], ids=["beta-1", "beta-1.3"])
    @pytest.mark.parametrize("h", [0.05, -0.05], ids=["fwd", "bwd"])
    def test_doubling_step_matches_list_form(self, row_pair, beta, h):
        # from a state with a U that is not the identity, and a companion
        # apart from it; tol = inf takes every trial.  A constant lapse
        # beta reaches the kernel as the trial of size beta h in s.
        y0 = np.concatenate([row_pair.theta.as_array(), np.eye(3).ravel()]).tolist()
        y = tuple(_list_form_step(y0, (1.0,) * 3, 0.1))
        z = tuple(v * (1.0 + 1e-7) for v in y)
        for tol in (math.inf, numeric.LOCAL_TOL):
            _assert_same_trial(_kernel_py.doubling_step(y, z, beta * h, tol),
                               _list_form_trial(y, z, beta * h, tol))

    @pytest.mark.parametrize("ul, un", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)],
                             ids=["ul-neg", "un-neg", "both-neg"])
    @pytest.mark.parametrize("h", [0.05, -0.05], ids=["fwd", "bwd"])
    def test_doubling_step_keeps_signed_zeros(self, ul, un, h):
        # the companion carries the zeros of the other sign
        y = (1.0, ul, un, 0.5, -0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        z = y[:1] + (-ul, -un) + y[3:]
        got = _kernel_py.doubling_step(y, z, h, math.inf)
        _assert_same_trial(got, _list_form_trial(y, z, h, math.inf))
        assert got[1] is not None

    @pytest.mark.parametrize("uu, zuu, h, leg", [
        # RK4 from Theta_uu = 10 over h = 1 lands past the guard
        (10.0, 1.0, 1.0, "whole"),
        # the whole step climbs back inside the guard, the first half not
        (-1.0000001e12, 1.0, 1.5e-19, "half 1"),
        # the whole step falls short of the guard that two halves pass
        (1e11, 1.0, 0.94e-11, "half 2"),
        (1.0, 10.0, 1.0, "companion"),
    ], ids=["whole", "half-1", "half-2", "companion"])
    def test_doubling_step_truncation_contract(self, uu, zuu, h, leg):
        # Theta_uu over the identity frame, the rest of Theta zero
        y, z = ((v,) + (0.0,) * 5 + tuple(np.eye(3).ravel().tolist()) for v in (uu, zuu))
        got = _kernel_py.doubling_step(y, z, h, math.inf)
        assert got[1:] == (None, None, (leg, True))
        _assert_same_trial(got, _list_form_trial(y, z, h, math.inf))

    @pytest.mark.parametrize("leg", ["whole", "companion"])
    def test_doubling_step_reports_an_overflowed_frame(self, leg):
        # Theta = -2 I stays bounded while each entry of U in turn, at
        # 1e308, grows past the largest float: the guard reads Theta only
        fine = (1.0,) + (0.0,) * 5 + tuple(np.eye(3).ravel().tolist())
        for i in range(6, 15):
            big = [-2.0, 0.0, 0.0, -2.0, 0.0, -2.0] + np.eye(3).ravel().tolist()
            big[i] = 1e308
            y, z = (tuple(big), fine) if leg == "whole" else (fine, tuple(big))
            got = _kernel_py.doubling_step(y, z, 1.0, math.inf)
            assert got[1:] == (None, None, (leg, False)), i
            _assert_same_trial(got, _list_form_trial(y, z, 1.0, math.inf))

    def test_doubling_step_rejects_without_a_companion(self):
        pair = ROW_PAIRS["tau2R-general"]
        y = tuple(np.concatenate([pair.theta.as_array(), np.eye(3).ravel()]).tolist())
        taken = _kernel_py.doubling_step(y, y, 0.05, math.inf)
        error = taken[2]
        assert error > 0.0
        # an error equal to tol is taken, one ulp above it is not
        assert _kernel_py.doubling_step(y, y, 0.05, error)[1] is not None
        tol = math.nextafter(error, 0.0)
        rejected = _kernel_py.doubling_step(y, y, 0.05, tol)
        assert rejected[1] is None and rejected[3] is None
        assert rejected[2] == error
        assert _same_bits(np.array(rejected[0]), np.array(taken[0]))
        _assert_same_trial(rejected, _list_form_trial(y, y, 0.05, tol))

    # Only finite states are drawn: the march stops at the first leg that
    # ends on a state that is not finite, so it never starts a trial from
    # one.  A finite state can still end a failed trial on NaN entries, and
    # the sign bit of a NaN is no part of the result: which operand of a
    # NaN + NaN survives depends on the machine code the interpreter runs
    # for the addition, and the kernel and the list form differed there in
    # 2 of 100,000 random trials.  So a NaN entry compares as NaN; every
    # other bit must match.
    @given(_drawn_states(), _drawn_states(),
           st.floats(1e-6, 1.0), st.sampled_from([1.0, -1.0]),
           st.sampled_from([0.0, 1e-12, 1e-8, math.inf]))
    @settings(max_examples=300, deadline=None)
    def test_doubling_step_matches_list_form_on_drawn_states(self, y, z, size, sign, tol):
        h = sign * size
        _assert_same_trial(_nan_as_nan(_kernel_py.doubling_step(y, z, h, tol)),
                           _nan_as_nan(_list_form_trial(y, z, h, tol)))

    # the states and the NaN rule of the doubling_step test above
    @given(_drawn_states(), _drawn_states(), st.integers(0, 20),
           st.floats(1e-6, 1.0), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_rk4_path_matches_list_form_on_drawn_states(self, y, z, n, size, sign):
        dt = sign * size
        got = _run_kernel(_kernel_py, y, dt, n)
        ref = _run_list_form(y, 0.0, dt, n)
        assert got[1:] == ref[1:]
        assert _same_bits(np.array(_nan_state(got[0])), np.array(_nan_state(ref[0])))
        if n == 0:
            assert got[1:] == (0, False) and _same_bits(got[0], np.array(y))
        # a trial that takes every leg is two steps of h/2 and one of h
        trial = _kernel_py.doubling_step(y, z, dt, math.inf)
        if trial[3] is None:
            assert _same_bits(np.array(trial[0]),
                              np.array(_kernel_py.rk4_path(y, dt / 2, 2)[0]))
            assert _same_bits(np.array(trial[1]),
                              np.array(_kernel_py.rk4_path(z, dt, 1)[0]))


def _tripped(y):
    """The kernel's guard: |Theta_uu|, |Theta_ll|, |Theta_ln| or |Theta_nn|
    past ``_GUARD``; a NaN does not trip it."""
    return any(abs(y[i]) > _kernel_py._GUARD for i in (0, 3, 4, 5))


def _list_form_trial(y, z, h, tol):
    """``doubling_step`` from the list form: the whole step, the two half
    steps, the local error and, within ``tol``, the companion step, each
    leg checked as ``rk4_path`` and ``numeric._advance`` check it."""
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


def _nan_state(state):
    """``state`` with every NaN entry replaced by ``math.nan``."""
    return None if state is None else tuple(math.nan if v != v else v for v in state)


def _nan_as_nan(trial):
    """``trial`` with every NaN entry of its states replaced by ``math.nan``."""
    return (_nan_state(trial[0]), _nan_state(trial[1])) + tuple(trial[2:])


def _assert_same_trial(got, ref):
    assert type(got[0]) is tuple and all(type(v) is float for v in got[0])
    assert got[3] == ref[3]
    assert _same_bits(np.array(got[0]), np.array(ref[0]))
    assert (got[1] is None) == (ref[1] is None)
    if ref[1] is not None:
        assert type(got[1]) is tuple and all(type(v) is float for v in got[1])
        assert _same_bits(np.array(got[1]), np.array(ref[1]))
    assert (got[2] is None) == (ref[2] is None)
    if ref[2] is not None:
        assert _same_bits(np.array([got[2]]), np.array([ref[2]]))
