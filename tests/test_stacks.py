"""Stacked evaluation: the curvature algebra over a leading sample axis
gives, sample by sample, the bits of one call per sample."""

import numpy as np
import pytest

from spinorflow import LapseProfile, coframe4_at, curvature_report, flow_residuals, \
    frame_ricci, hamiltonian_of, integrate_to, ricci4, solve, \
    structure_constants_from_theta
from spinorflow.frames import L, N, U, Sym3
from spinorflow.lorentz import ETA4, _coframe4, _curvature, _structure4
from spinorflow.verify import sample_times

from conftest import ROW_PAIRS

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


@pytest.fixture
def samples(row_pair, profile):
    """The pair's 9 sample times, Theta_t at each, and their components."""
    sol = solve(row_pair)
    times = sample_times(row_pair, profile, SAMPLES)
    thetas = [sol.theta_at(profile.b_integral(t)) for t in times]
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

    def test_hamiltonian_of(self, samples):
        _, thetas, comp = samples
        _same_bits(hamiltonian_of(comp), [hamiltonian_of(th) for th in thetas])

    def test_flow_residuals(self, row_pair, profile, samples):
        times, _, _ = samples
        states = integrate_to(row_pair, profile, times)
        reports = flow_residuals(states, row_pair)
        assert reports == [flow_residuals(st, row_pair) for st in states]

    def test_curvature(self, row_pair, profile, samples):
        times, thetas, _ = samples
        reports = _curvature(thetas, profile, times)
        assert reports == [curvature_report(row_pair, profile, t) for t in times]


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
