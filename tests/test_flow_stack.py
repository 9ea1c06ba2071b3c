"""The flow table read as arrays: its cells equal one state at a time, bit
for bit, and the stacked right-hand side equals the kernel's, row by row."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorflow import CauchyPair, FlowState, LapseProfile, flow_residuals, \
    frame_exact, hamiltonian_of, integrate_to, ode_rhs, sample_times, solve, theta_exact
from spinorflow import _kernel_py
from spinorflow.cli import _flow_cells
from spinorflow.errors import OutOfDomain, SingularTime, SpinorFlowError
from spinorflow.exact import FlowSolution
from spinorflow.frames import Sym3
from spinorflow.lorentz import _coframe4

from conftest import ROW_PAIRS, fail_at, scale_at

PROFILES = {
    "constant-1": LapseProfile.constant(1.0),
    "constant-1.3": LapseProfile.constant(1.3),
    "table-5": LapseProfile.tabulated([-3.0, -1.0, 0.2, 1.5, 4.0],
                                      [0.9, 0.8, 1.3, 1.0, 1.2]),
}


@pytest.fixture(params=sorted(PROFILES), ids=sorted(PROFILES))
def profile(request):
    return PROFILES[request.param]


def _cells_of(t, bt, theta, u, metric, ham, res):
    return [t, bt, *theta.as_array(), *np.ravel(u), *metric.as_array(), ham,
            res.frame_evolution, res.structure, res.theta_u_constancy, res.closedness]


def _exact_reference(pair, profile, times):
    """The exact flow table one sample at a time: B_t at every time first,
    then per sample Theta_t, U_t, h_t and H_t, the finiteness check and the
    residuals of one ``FlowState``."""
    bts = [profile.b_integral(t) for t in times]
    cells = []
    for t, bt in zip(times, bts):
        theta = theta_exact(pair, profile, t)
        u = frame_exact(pair, profile, t)
        metric = Sym3.from_matrix(u.T @ u)
        ham = hamiltonian_of(theta)
        numbers = np.concatenate([theta.as_array(), u.ravel(), metric.as_array(), [ham]])
        if not np.isfinite(numbers).all():
            raise SingularTime(f"the flow state at t = {t:.12g} is not finite")
        state = FlowState(t=float(t), theta=theta, U=u, metric=metric, hamiltonian=ham)
        cells += _cells_of(t, bt, theta, u, metric, ham, flow_residuals(state, pair))
    return tuple(cells)


def _rk4_reference(pair, profile, times):
    """The rk4 flow table from the public ``FlowState`` objects."""
    states = integrate_to(pair, profile, times)
    cells = []
    for state, res in zip(states, flow_residuals(states, pair)):
        cells += _cells_of(state.t, profile.b_integral(state.t), state.theta, state.U,
                           state.metric, state.hamiltonian, res)
    return tuple(cells)


def _outcome(func, *args):
    """The cells as bytes, or the type and message of what was raised, in the
    floating-point state the CLI runs in."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return np.array(func(*args), dtype=float).tobytes()
        except (SpinorFlowError, ArithmeticError) as exc:
            return type(exc), str(exc)


def _check(pair, profile, times, method="exact"):
    reference = _exact_reference if method == "exact" else _rk4_reference
    got = _outcome(_flow_cells, solve(pair), profile, np.asarray(times, dtype=float),
                   method)
    assert got == _outcome(reference, pair, profile, list(map(float, times)))
    return got


class TestFlowCellsMatchSingleSamples:
    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_inside_the_lifespan(self, row_pair, profile, method):
        got = _check(row_pair, profile, sample_times(row_pair, profile, 9), method)
        assert isinstance(got, bytes)

    def test_across_the_lifespan(self, row_pair, profile):
        # the rows with a finite end meet it mid-window
        _check(row_pair, profile, np.linspace(-2.5, 3.5, 9))

    @pytest.mark.parametrize("k", [-500, 160, 500])
    def test_scaled_rows(self, row_pair, profile, k):
        pair = CauchyPair(Sym3.from_array(row_pair.theta.as_array() * 2.0 ** k))
        _check(pair, profile, np.linspace(-0.5, 1.5, 7))

    @pytest.mark.parametrize("theta", [
        dict(ll=1e160, nn=-1e160),       # the pair's own squares overflow
        dict(ul=3e153, un=4e153),        # so do those of Theta_t at the ends
        dict(uu=1.0, ll=1.35e148),       # a later sample meets the pole
    ], ids=["e11-1e160", "lambda-5e153", "pole-inside"])
    def test_past_the_floats(self, profile, theta):
        pair = CauchyPair.from_components(**theta)
        got = _check(pair, profile, np.linspace(-0.5, 1.5, 7))
        assert not isinstance(got, bytes)

    @pytest.mark.parametrize("poison", ["huge-then-pole", "frame-then-pole", "pole", "nan"])
    def test_the_first_failing_sample_wins(self, monkeypatch, poison):
        # Theta_t squares past the largest float at sample 3, U_t overflows
        # there, the guard raises at sample 6, or Theta_t is NaN at sample 4
        pair, profile = ROW_PAIRS["tau2R-general"], PROFILES["table-5"]
        times = sample_times(pair, profile, 9)
        huge, nan, pole = (profile.b_integral(times[i]) for i in (3, 4, 6))
        # the stacks read the guarded values of the samples, not their B_t
        v_huge, v_nan = solve(pair)._guarded(np.array([huge, nan]))[0]
        guarded = FlowSolution._guarded
        theta_stack, frame_stack = FlowSolution._theta_stack, FlowSolution._frame_stack

        def poisoned_guard(self, bts):
            return fail_at(guarded(self, bts), bts, pole, SingularTime("a pole at sample 6"))

        def poisoned_theta(self, v):
            thetas = theta_stack(self, v)
            if poison == "huge-then-pole":
                return scale_at(thetas, v, v_huge, 1e200)
            if poison == "nan":
                return scale_at(thetas, v, v_nan, math.nan)
            return thetas

        def poisoned_frame(self, v, bts):
            # U_t, an array, overflows on every grid that holds sample 3
            if poison == "frame-then-pole" and (v == v_huge).any():
                raise OverflowError("U_t overflows at sample 3")
            return frame_stack(self, v, bts)

        monkeypatch.setattr(FlowSolution, "_guarded", poisoned_guard)
        monkeypatch.setattr(FlowSolution, "_theta_stack", poisoned_theta)
        monkeypatch.setattr(FlowSolution, "_frame_stack", poisoned_frame)
        got = _check(pair, profile, times)
        assert got[0] is {"huge-then-pole": OverflowError, "frame-then-pole": OverflowError,
                          "pole": SingularTime, "nan": SingularTime}[poison]

    def test_the_rk4_march_blows_up_mid_window(self):
        got = _check(ROW_PAIRS["R3"], PROFILES["constant-1"], np.linspace(0.0, 2.0, 5),
                     "rk4")
        assert got[0] is SingularTime and got[1].startswith("integration blew up")


def _same_bits(stacked, singles):
    """Equal bit for bit, signed zeros included, with any NaN equal to any
    other: where two NaNs meet, CPython's float arithmetic keeps the second
    operand's sign and payload and numpy's the first, and neither means
    anything."""
    assert stacked.shape == singles.shape
    nan = np.isnan(stacked)
    assert (nan == np.isnan(singles)).all()
    assert np.where(nan, 0.0, stacked).tobytes() == np.where(nan, 0.0, singles).tobytes()


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -5e-324,
            1e154, -1e154, 1.0, -1.0]
_COMPONENT = st.one_of(st.sampled_from(_SPECIAL),
                       st.floats(min_value=-1e300, max_value=1e300))


class TestStackedRightHandSide:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(_COMPONENT, min_size=15, max_size=15),
                         min_size=1, max_size=6))
    @example(rows=[[-0.0] * 15, [0.0] * 15])
    @example(rows=[[math.inf, -math.inf, math.nan] * 5])
    @example(rows=[[1e300, -1e300, 1e300, 0.0, -0.0, 1e-300] + [1e300] * 9])
    def test_equals_the_kernel_row_by_row(self, rows):
        y = np.array(rows, dtype=float)
        dth, du = ode_rhs(y[:, :6], y[:, 6:].reshape(-1, 3, 3))
        singles = np.array([_kernel_py._rhs(row) for row in y.tolist()])
        _same_bits(np.hstack([dth, du.reshape(-1, 9)]), singles)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.lists(_COMPONENT, min_size=6, max_size=6),
                         min_size=1, max_size=6))
    def test_one_matrix_for_every_row(self, rows):
        # the coframe's derivative takes one U for the whole stack
        y = np.array(rows, dtype=float)
        dth, du = ode_rhs(y, np.eye(3))
        singles = np.array([_kernel_py._rhs(row + np.eye(3).ravel().tolist())
                            for row in y.tolist()])
        _same_bits(np.hstack([dth, du.reshape(-1, 9)]), singles)

    def test_warns_of_no_overflow(self):
        # Python floats overflow to inf silently, and so does the stack
        with np.errstate(all="raise"):
            dth, _ = ode_rhs(np.full((2, 6), 1e200), np.eye(3))
        assert np.isinf(dth[:, 0]).all()


class TestLapseOfAStack:
    @pytest.mark.parametrize("times", [
        [0.0, 3.9, 4.5, -3.5, 5.0], [-3.0000001, 0.0], [0.5, math.nan, 7.0],
    ], ids=["past-the-end", "before-the-start", "nan"])
    def test_off_the_table_raises_as_beta(self, times):
        # the first time off the table raises, with beta's message
        profile = PROFILES["table-5"]
        with pytest.raises(OutOfDomain) as want:
            [profile.beta(t) for t in np.array(times)]
        with pytest.raises(OutOfDomain) as got:
            _coframe4(np.zeros((len(times), 6)), profile, times)
        assert str(got.value) == str(want.value)

    def test_equals_beta_per_time(self, profile):
        times = np.concatenate([np.linspace(-3.0, 4.0, 57), [-1.0, 0.2, -0.0, 4.0]])
        frame = _coframe4(np.zeros((len(times), 6)), profile, times)
        assert frame.beta.tobytes() == np.array([profile.beta(t) for t in times]).tobytes()
