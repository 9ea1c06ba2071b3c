"""Stacked evaluation: the curvature algebra over a leading sample axis
gives, sample by sample, the bits of one call per sample."""

import math

import numpy as np
import pytest

from spinorflow import CauchyPair, LapseProfile, coframe4_at, constraints, \
    curvature_report, flow_residuals, frame_ricci, hamiltonian_of, integrate_to, \
    ricci3, ricci4, require_valid, solve, structure_constants_from_theta
from spinorflow.errors import SingularTime, SpinorFlowError
from spinorflow.exact import QD, FlowSolution, _Samples
from spinorflow.frames import L, N, U, Sym3, divergence_sym, levi_civita
from spinorflow.lorentz import ETA4, _coframe4, _curvature, _structure4, \
    closedness_residual
from spinorflow.numeric import uncertified
from spinorflow.pairs import ConstraintReport, _constraints
from spinorflow.verify import SUITES, CheckResult, _sample_times, run_suite, sample_times

from conftest import ROW_PAIRS, curvature_cells, fail_at, scale_at

PROFILES = {
    "constant-1": LapseProfile.constant(1.0),
    "constant-1.3": LapseProfile.constant(1.3),
    "table-5": LapseProfile.tabulated([-3.0, -1.0, 0.2, 1.5, 4.0],
                                      [0.9, 0.8, 1.3, 1.0, 1.2]),
}
SAMPLES = 9


def _same_bits(stacked, singles):
    """The stack equals the singles stacked, bit for bit (signed zeros too)."""
    stacked, singles = np.asarray(stacked), np.asarray(singles)
    assert stacked.shape == singles.shape
    assert np.array_equal(stacked, singles, equal_nan=True)
    assert stacked.tobytes() == singles.tobytes()


@pytest.fixture(params=sorted(PROFILES), ids=sorted(PROFILES))
def profile(request):
    return PROFILES[request.param]


def _one(sol, profile, t):
    """The checked stack of one sample at t of the solved pair ``sol``, as
    the one-time entries read it (``exact._sample``)."""
    one = _Samples(sol, profile, [t])
    one.check()
    return one


@pytest.fixture
def samples(row_pair, profile):
    """The pair's 9 sample times, Theta_t at each, and their components."""
    sol = solve(row_pair)
    times = sample_times(row_pair, profile, SAMPLES)
    thetas = [Sym3.from_array(_one(sol, profile, t).comp[0]) for t in times]
    return times, thetas, np.array([th.as_array() for th in thetas])


class TestStacksMatchSingleSamples:
    def test_structure_constants_and_frame_ricci_3d(self, samples):
        _, thetas, comp = samples
        c = structure_constants_from_theta(comp)
        _same_bits(c, [structure_constants_from_theta(th) for th in thetas])
        ric, scal = frame_ricci(np.ones(3), c)
        singles = [frame_ricci(np.ones(3), structure_constants_from_theta(th))
                   for th in thetas]
        _same_bits(ric, [r for r, _ in singles])
        _same_bits(scal, [s for _, s in singles])
        assert all(type(s) is float for _, s in singles)

    def test_frame_ricci_4d_and_ricci4(self, row_pair, profile, samples):
        times, _, comp = samples
        frame = _coframe4(comp, profile, times)
        singles = [coframe4_at(row_pair, profile, t) for t in times]
        _same_bits(frame.C, [f.C for f in singles])
        _same_bits(frame.dC0, [f.dC0 for f in singles])
        _same_bits(frame.beta, [f.beta for f in singles])
        ric, scal = frame_ricci(ETA4, frame.C, frame.dC0)
        _same_bits(ric, [frame_ricci(ETA4, f.C, f.dC0)[0] for f in singles])
        _same_bits(scal, [frame_ricci(ETA4, f.C, f.dC0)[1] for f in singles])
        stacked = ricci4(frame)
        _same_bits(stacked.components, [ricci4(f).components for f in singles])
        _same_bits(stacked.scalar, [ricci4(f).scalar for f in singles])

    def test_divergence_and_constraints(self, samples):
        _, thetas, comp = samples
        c = structure_constants_from_theta(comp)
        _same_bits(divergence_sym(c, comp),
                   [divergence_sym(structure_constants_from_theta(th), th) for th in thetas])
        singles = [_constraints(th, 1e-9) for th in thetas]
        # one sample is the scalar calls it replaced, types included
        for th, rep in zip(thetas, singles):
            want = _constraints_reference(th, 1e-9)
            assert [type(rep.hamiltonian), type(rep.scalar_curvature),
                    type(rep.is_vacuum_admissible)] == [float, float, bool]
            assert (rep.hamiltonian, rep.scalar_curvature, rep.is_vacuum_admissible) == \
                (want.hamiltonian, want.scalar_curvature, want.is_vacuum_admissible)
            _same_bits(rep.momentum_residual, want.momentum_residual)

    def test_hamiltonian_of(self, samples):
        _, thetas, comp = samples
        _same_bits(hamiltonian_of(comp), [hamiltonian_of(th) for th in thetas])

    def test_flow_residuals(self, row_pair, profile, samples):
        times, _, _ = samples
        states = integrate_to(row_pair, profile, times)
        reports = flow_residuals(states, row_pair)
        assert reports == [flow_residuals(st, row_pair) for st in states]

    def test_curvature(self, row_pair, profile, samples):
        # the cells of the stack are those of one report per sample, in its order
        times, _, _ = samples
        cells = _curvature(_Samples(solve(row_pair), profile, times))
        reports = [curvature_report(row_pair, profile, t) for t in times]
        assert cells == tuple(v for rep in reports for v in curvature_cells(rep))


def _structure_constants_loop(theta):
    """The entry-by-entry loop that structure_constants_from_theta replaced."""
    th = theta.as_matrix()
    c = np.zeros((3, 3, 3))
    for a in range(3):
        for b in (L, N):
            c[a, U, b] = th[a, b]
            c[a, b, U] = -th[a, b]
    return c


def _structure4_loop(theta):
    """The entry-by-entry loop that _structure4 replaced."""
    c = np.zeros((4, 4, 4))
    for a in range(3):
        for b in range(3):
            c[a + 1, 0, b + 1] = theta[a, b]
            c[a + 1, b + 1, 0] = -theta[a, b]
            c[a + 1, 1, b + 1] += theta[a, b]
            c[a + 1, b + 1, 1] -= theta[a, b]
    return c


class TestSliceAssignmentsMatchTheLoops:
    # signed zeros, where 0 + x and 0 - x differ from x and -x, and the
    # values that make (0 + x) - x differ from 0
    THETAS = [Sym3(), Sym3(uu=-0.0, ul=-0.0, un=0.0, ll=-0.0, ln=0.0, nn=-0.0),
              Sym3(uu=1.0, ul=-2.5, un=0.3, ll=7e153, ln=-1e-300, nn=-1.0),
              Sym3(uu=np.inf, ul=-np.inf, un=np.nan, ll=1.0, ln=-0.0, nn=2.0)]

    def test_structure_constants(self):
        comp = np.array([th.as_array() for th in self.THETAS])
        _same_bits(structure_constants_from_theta(comp),
                   [_structure_constants_loop(th) for th in self.THETAS])

    def test_structure4(self):
        mats = np.array([th.as_matrix() for th in self.THETAS])
        with np.errstate(invalid="ignore"):
            _same_bits(_structure4(mats), [_structure4_loop(m) for m in mats])


# The suites as they were before they evaluated one stack of samples: one
# scalar call chain per sample, folded with _worst as each sample comes.

def _worst(a: float, b: float) -> float:
    """max(a, b), but NaN when either is: a residual that is not a number
    must fail its row, and max() keeps its first argument against a NaN."""
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def _constraints_reference(th, tol):
    """_constraints of one Sym3 through the scalar calls."""
    c = structure_constants_from_theta(th)
    _, scal = ricci3(c)
    norm2 = th.uu**2 + th.ll**2 + th.nn**2 + 2.0 * (th.ul**2 + th.un**2 + th.ln**2)
    ham = scal - norm2 + (th.uu + th.ll + th.nn) ** 2
    mom = divergence_sym(c, th)
    scale = max(1.0, th.max_abs()) ** 2
    ok = abs(ham) <= tol * scale and float(np.max(np.abs(mom))) <= tol * scale
    return ConstraintReport(hamiltonian=ham, momentum_residual=mom,
                            scalar_curvature=scal, is_vacuum_admissible=ok)


def _suite_constraints_reference(pair, profile, samples=50, tol=1e-9):
    con = constraints(pair, tol)
    h0 = con.hamiltonian
    sol = solve(pair, tol)
    ham_dev = mom_dev = ham_abs = mom_abs = 0.0
    for t in _sample_times(sol, profile, samples):
        one = _one(sol, profile, t)
        rep = _constraints_reference(Sym3.from_array(one.comp[0]), tol)
        ham_dev = _worst(ham_dev, abs(rep.hamiltonian - sol._hamiltonian_stack(h0, one.v)[0]))
        target = -0.5 * rep.hamiltonian * np.array([1.0, 0.0, 0.0])
        mom_dev = _worst(mom_dev, float(np.max(np.abs(rep.momentum_residual - target))))
        ham_abs = _worst(ham_abs, abs(rep.hamiltonian))
        mom_abs = _worst(mom_abs, float(np.max(np.abs(rep.momentum_residual))))
    rows = [
        CheckResult("hamiltonian matches its closed-form evolution", ham_dev, 1e-8),
        CheckResult("momentum residual equals -(H/2) e_u along the flow",
                    mom_dev, 1e-9),
    ]
    if con.is_vacuum_admissible:
        rows.append(CheckResult(
            "hamiltonian stays zero (constrained pair)", ham_abs, 1e-9))
        rows.append(CheckResult(
            "momentum residual vanishes (constrained pair)", mom_abs, 1e-9))
    return rows


def _identity_residual(components, hams):
    """Max-norm residual of Ric4 against (H/2) (e_0+e_1) tensor itself, at
    each sample of a stack of Ric4 frame components and of H."""
    null = np.array([1.0, 1.0, 0.0, 0.0])
    target = np.multiply.outer(0.5 * np.asarray(hams, dtype=float), np.outer(null, null))
    return np.abs(components - target).max(axis=(-2, -1))


def _suite_ricci4_reference(pair, profile, samples=20, tol=1e-9):
    constrained = constraints(pair, tol).is_vacuum_admissible
    sol = solve(pair, tol)
    ident = flat = 0.0
    for t in _sample_times(sol, profile, samples):
        one = _one(sol, profile, t)
        ric = ricci4(_coframe4(one.comp, profile, one.times))
        ident = _worst(ident, _identity_residual(ric.components,
                                                 hamiltonian_of(one.comp)).item(0))
        if constrained:
            flat = _worst(flat, float(np.max(np.abs(ric.components))))
    rows = [CheckResult("4D Ricci equals (H/2) null-direction square", ident, 1e-6)]
    if constrained:
        rows.append(CheckResult("4D Ricci vanishes (constrained pair)", flat, 1e-8))
    return rows


def _suite_ricciflow_reference(pair, profile, samples=20, tol=1e-9):
    require_valid(pair, tol)
    sol = solve(pair, tol)
    qd = sol.branch == QD
    times = _sample_times(sol, profile, samples)
    res = 0.0
    for t in times:
        th_t = Sym3.from_array(_one(sol, profile, t).comp[0])
        ric_t, _ = ricci3(structure_constants_from_theta(th_t))
        ham = hamiltonian_of(th_t)
        if qd:
            target = -(th_t.ll + th_t.nn) * th_t.as_matrix()
            target[0, 0] += 0.5 * ham
        else:
            target = 0.25 * ham * (np.eye(3) - np.outer(sol.eta, sol.eta))
        res = _worst(res, float(np.max(np.abs(ric_t.as_matrix() - target))))
    rows = [CheckResult(
        "Ric(h) = -Tr(Theta) Theta + (H/2) e_u x e_u (quasi-diagonal)" if qd
        else "Ric(h) = (H/4)(h - eta x eta) (off-diagonal branches)", res, 1e-8)]

    if qd and _constraints_reference(pair.theta, tol).is_vacuum_admissible:
        # half the window's 5% inset, so that t +- step stays inside it
        lo, hi = _sample_times(sol, profile, 2)
        step = min(1e-5, (hi - lo) / 36)
        res = 0.0
        for t in times:
            one = _one(sol, profile, t)
            th_t, u = Sym3.from_array(one.comp[0]), one.frames[0]
            ric_t, _ = ricci3(structure_constants_from_theta(th_t))
            ric_ref = u.T @ ric_t.as_matrix() @ u
            u_plus = _one(sol, profile, t + step).frames[0]
            u_minus = _one(sol, profile, t - step).frames[0]
            h_plus, h_minus = u_plus.T @ u_plus, u_minus.T @ u_minus
            dh = (h_plus - h_minus) / (2.0 * step)
            factor = (th_t.ll + th_t.nn) / (2.0 * profile.beta(t))
            res = _worst(res, float(np.max(np.abs(ric_ref - factor * dh))))
        rows.append(CheckResult(
            "Ric(h) = (Tr(Theta)/(2 beta)) dh/dt (constrained quasi-diagonal)",
            res, 1e-6))
    return rows


def _suite_cosymplectic_reference(pair, profile, samples=20, tol=1e-9):
    require_valid(pair, tol)
    sol = solve(pair, tol)
    rows = []
    times = _sample_times(sol, profile, samples)

    if sol.branch != QD:
        res = 0.0
        for t in times:
            th_t = Sym3.from_array(_one(sol, profile, t).comp[0])
            om = levi_civita(structure_constants_from_theta(th_t))
            res = _worst(res, float(np.max(np.abs(np.einsum("abd,d->ab", om, sol.eta)))))
        rows.append(CheckResult("parallel one-form: nabla eta = 0", res, 1e-10))

    res = 0.0
    for t in times:
        one = _one(sol, profile, t)
        log_scale = -(Sym3.from_array(one.comp[0]).as_matrix() @ one.frames[0])[0, :]
        res = _worst(res, closedness_residual(pair, log_scale))
    rows.append(CheckResult("log-scale differential is closed", res, 1e-12))
    return rows


def _suite_oracle_reference(pair, profile, samples=20, tol=1e-9):
    require_valid(pair, tol)
    sol = solve(pair, tol)
    times = _sample_times(sol, profile, samples)
    states = integrate_to(pair, profile, times, tol=tol)
    th_dev = u_dev = resid = 0.0
    for t, st, res in zip(times, states, flow_residuals(states, pair)):
        one = _one(sol, profile, t)
        th_dev = _worst(th_dev, float(np.max(np.abs(
            st.theta.as_matrix() - Sym3.from_array(one.comp[0]).as_matrix()))))
        u_dev = _worst(u_dev, float(np.max(np.abs(st.U - one.frames[0]))))
        resid = _worst(resid, res.max())
    flagged = tuple(uncertified(states))
    return [
        CheckResult("shape components match the closed form", th_dev, 1e-8, flagged),
        CheckResult("coframe transform matches the closed form", u_dev, 1e-8, flagged),
        CheckResult("flow-equation residuals along the trajectory", resid, 1e-8,
                    flagged),
    ]


REFERENCES = {
    "constraints": _suite_constraints_reference,
    "ricci4": _suite_ricci4_reference,
    "ricciflow": _suite_ricciflow_reference,
    "cosymplectic": _suite_cosymplectic_reference,
    "oracle": _suite_oracle_reference,
}


def _row_key(row):
    """A row as the CLI reads it: name, residual bits (NaN as NaN), tol and
    the states it leaves uncertified."""
    r = float(row.residual)
    return (row.name, "nan" if math.isnan(r) else r.hex(), row.tol,
            [(st.t, st.theta, st.U.tobytes(), st.error) for st in row.uncertified])


def _outcome(func, *args, **kwargs):
    """The row keys of a suite run, or the type and message it raised; in
    the floating-point state the CLI runs the suites in."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return [_row_key(row) for row in func(*args, **kwargs)]
        except (SpinorFlowError, ArithmeticError) as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("suite", SUITES)
class TestSuitesMatchSingleSamples:
    """Each suite, evaluated as one stack, gives the rows of one scalar call
    chain per sample, bit for bit."""

    @pytest.mark.parametrize("samples", [1, 2, 50])
    def test_rows(self, suite, row_pair, profile, samples):
        got = _outcome(run_suite, row_pair, profile, suite, samples=samples)
        assert isinstance(got, list)
        assert got == _outcome(REFERENCES[suite], row_pair, profile, samples=samples)

    def test_the_constrained_quasi_diagonal_row(self, suite):
        # R3 at lapse 1.3 also gets the dh/dt row of the ricciflow suite
        pair, profile = CauchyPair.from_components(uu=1.0), PROFILES["constant-1.3"]
        got = _outcome(run_suite, pair, profile, suite)
        assert got == _outcome(REFERENCES[suite], pair, profile)
        if suite == "ricciflow":
            assert [name for name, *_ in got][1].endswith("(constrained quasi-diagonal)")

    @pytest.mark.parametrize("samples", [1, 2, 20])
    def test_a_narrow_table(self, suite, samples):
        # a window 2e-5 wide, whose inset of 1e-6 is narrower than 1e-5: the
        # dh/dt row of the ricciflow suite steps half the inset, also on a
        # grid of one sample, and each row passes
        pair = CauchyPair.from_components(uu=5.0 / 3.0, ll=2.0, nn=1.0)
        profile = LapseProfile.tabulated([-1e-5, 1e-5], [1.0, 1.0])
        got = _outcome(run_suite, pair, profile, suite, samples=samples)
        assert got == _outcome(REFERENCES[suite], pair, profile, samples=samples)
        assert all(row.passed for row in run_suite(pair, profile, suite, samples=samples))

    @pytest.mark.parametrize("k", [-500, 0, 160, 500])
    def test_failures_come_in_sample_order(self, suite, row_pair, profile, k):
        # scaled rows overflow, blow up or meet a pole along the samples:
        # the stack raises what the first failing sample raised, or returns
        # the same rows
        pair = CauchyPair(Sym3.from_array(row_pair.theta.as_array() * 2.0 ** k))
        assert _outcome(run_suite, pair, profile, suite) == \
            _outcome(REFERENCES[suite], pair, profile)

    @pytest.mark.parametrize("theta", [
        dict(ll=1e160, nn=-1e160),       # the pair's own squares overflow
        dict(ul=3e153, un=4e153),        # so do those of Theta_t at the ends
        dict(uu=1.0, ll=1.35e148),       # a later sample meets the pole
    ], ids=["e11-1e160", "lambda-5e153", "pole-inside"])
    def test_failures_past_the_floats(self, suite, profile, theta):
        pair = CauchyPair.from_components(**theta)
        assert _outcome(run_suite, pair, profile, suite) == \
            _outcome(REFERENCES[suite], pair, profile)

    def test_the_first_failing_sample_wins(self, suite, monkeypatch):
        # Theta_t squares past the largest float at sample 3 and the guard
        # raises at sample 6: every suite that squares it reports sample 3
        pair, profile = ROW_PAIRS["tau2R-general"], PROFILES["table-5"]
        times = sample_times(pair, profile, 9)
        huge, pole = (profile.b_integral(times[i]) for i in (3, 6))
        # Theta_t reads the guarded value of a sample, not its B_t
        v_huge = solve(pair)._guarded(np.array([huge]))[0][0]
        guarded, theta_stack = FlowSolution._guarded, FlowSolution._theta_stack

        def poisoned_guard(self, bts):
            return fail_at(guarded(self, bts), bts, pole, SingularTime("a pole at sample 6"))

        def poisoned(self, v):
            return scale_at(theta_stack(self, v), v, v_huge, 1e200)

        monkeypatch.setattr(FlowSolution, "_guarded", poisoned_guard)
        monkeypatch.setattr(FlowSolution, "_theta_stack", poisoned)
        got = _outcome(run_suite, pair, profile, suite, samples=9)
        assert got == _outcome(REFERENCES[suite], pair, profile, samples=9)
        squared = suite in ("constraints", "ricci4", "ricciflow")
        assert got[0] is (OverflowError if squared else SingularTime)

    def test_a_nan_sample_fails_its_rows(self, suite, monkeypatch):
        # Theta_t is NaN at the middle one of 9 samples and at no other
        pair, profile = ROW_PAIRS["tau2R-general"], PROFILES["table-5"]
        middle = profile.b_integral(sample_times(pair, profile, 9)[4])
        v_middle = solve(pair)._guarded(np.array([middle]))[0][0]
        theta_stack = FlowSolution._theta_stack

        def poisoned(self, v):
            return scale_at(theta_stack(self, v), v, v_middle, math.nan)

        monkeypatch.setattr(FlowSolution, "_theta_stack", poisoned)
        got = _outcome(run_suite, pair, profile, suite, samples=9)
        assert got == _outcome(REFERENCES[suite], pair, profile, samples=9)
        rows = run_suite(pair, profile, suite, samples=9)
        if suite == "oracle":
            # only its shape row reads Theta_t: the others read U_t and the march
            rows = rows[:1]
        assert all(math.isnan(row.residual) and not row.passed for row in rows)
