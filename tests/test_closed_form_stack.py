"""The closed forms of a stack against one sample at a time: B_t, Theta_t,
U_t and H_t of an array give, sample by sample, the bits of the scalar
bodies they replaced, and raise what the first failing sample raised."""

import math

import numpy as np
import pytest

from spinorflow import CauchyPair, LapseProfile, solve
from spinorflow.errors import OutOfDomain, SingularTime, SpinorFlowError
from spinorflow.exact import QD, expm
from spinorflow.frames import L, N, U, Sym3

from conftest import ROW_PAIRS
from test_flow_stack import _same_bits

NODES = [-3.0, -1.0, 0.2, 1.5, 4.0]
PROFILES = {
    "constant-1": LapseProfile.constant(1.0),
    "constant-1.3": LapseProfile.constant(1.3),
    "table-5": LapseProfile.tabulated(NODES, [0.9, 0.8, 1.3, 1.0, 1.2]),
}
SCALES = {"2pow-500": 2.0 ** -500, "1": 1.0, "2pow160": 2.0 ** 160, "2pow500": 2.0 ** 500}


# The scalar bodies the stacks replaced, one sample per call.

def _s(sol, bt):
    s = 1.0 - sol.pair.theta.uu * bt
    if abs(s) < 1e-12 or s < 0.0:
        raise SingularTime(f"1 - Theta_uu*B_t = {s:.3e} at the lifespan boundary")
    return s


def _y(sol, bt):
    y = sol.lam * bt + sol.y0
    if math.pi / 2 - abs(y) < 1e-12:
        raise SingularTime(f"y_t = {y:.12f} at the lifespan boundary")
    return y


def theta_at(sol, bt):
    th = sol.pair.theta
    if sol.branch == QD:
        return Sym3.from_array(th.as_array() / _s(sol, bt)).as_array()
    lam = sol.lam
    y = _y(sol, bt)
    sec, tan = 1.0 / math.cos(y), math.tan(y)
    return Sym3(
        uu=lam * tan,
        ul=th.ul,
        un=th.un,
        ll=sol.c_ll * sec - (th.ul**2 / lam) * tan,
        ln=sol.c_ln * sec - (th.ul * th.un / lam) * tan,
        nn=sol.c_nn * sec - (th.un**2 / lam) * tan,
    ).as_array()


def frame_at(sol, bt):
    th = sol.pair.theta
    if sol.branch == QD:
        u = np.eye(3)
        if sol.eig is None:
            theta2 = np.array([[th.ll, th.ln], [th.ln, th.nn]])
            u[1:, 1:] = expm(-bt * theta2)
            return u
        s, eig = _s(sol, bt), sol.eig
        u[U, U] = s
        u[1:, 1:] = eig.Q @ np.diag([s**eig.rho_plus, s**eig.rho_minus]) @ eig.Q.T
        return u
    lam = sol.lam
    tan = math.tan(_y(sol, bt))
    u = np.empty((3, 3))
    u[U, U] = 1.0 - th.uu * bt
    u[U, L] = -th.ul * bt
    u[U, N] = -th.un * bt
    slope = (th.uu / lam - (1.0 - th.uu * bt) * tan) / lam
    u[L, U] = th.ul * slope
    u[N, U] = th.un * slope
    u[L, L] = 1.0 + th.ul**2 * bt * tan / lam
    u[L, N] = th.ul * th.un * bt * tan / lam
    u[N, L] = u[L, N]
    u[N, N] = 1.0 + th.un**2 * bt * tan / lam
    return u + 0.0


def hamiltonian_at(sol, h0, bt):
    if sol.branch == QD:
        return h0 / _s(sol, bt) ** 2
    lam = sol.lam
    y = _y(sol, bt)
    return (lam**2 * h0 / (lam**2 + sol.pair.theta.uu**2)) / math.cos(y) ** 2


def b_integral(profile, t):
    if profile.kind == "constant":
        return profile.value * t
    lo, hi = profile.domain()
    if not lo <= t <= hi:
        raise OutOfDomain(f"t = {t} outside tabulated domain [{lo}, {hi}]")
    table = profile._cumulative
    i = int(profile.times.searchsorted(t, "right")) - 1
    if profile.times.item(i) == t:
        return table.item(i)
    ta, tb = profile.times.item(i), profile.times.item(i + 1)
    va, vb = profile.values.item(i), profile.values.item(i + 1)
    slope = (vb - va) / (tb - ta)
    beta_t = slope * (t - ta) + va
    if ta < 0.0 < tb:
        return t * (slope * (0.0 - ta) + va + beta_t) / 2.0
    if t > 0.0:
        return table.item(i) + (t - ta) * (va + beta_t) / 2.0
    return table.item(i + 1) - (tb - t) * (beta_t + vb) / 2.0


def _singles(func, samples):
    """One call per sample up to the first that raises: the values, one
    row each, and that exception (None when every sample came)."""
    values = []
    for x in samples:
        try:
            values.append(func(x))
        except (SpinorFlowError, ArithmeticError) as exc:
            return values, exc
    return values, None


def _same_outcome(stacked, singles):
    """The same values up to the same first failing sample, bit for bit
    (signed zeros too), and the same exception there."""
    (values, raised), (want, want_raised) = stacked, singles
    assert len(values) == len(want)
    if len(want):
        _same_bits(np.asarray(values, dtype=float).reshape(len(want), -1),
                   np.array(want, dtype=float).reshape(len(want), -1))
    assert (type(raised), str(raised)) == (type(want_raised), str(want_raised))


def _grid(sol, profile):
    """0, the table nodes, times on both sides of 0 and 1e-6 inside each
    finite end of the lifespan."""
    span = sol.lifespan(profile)
    ends = [end + gap for end, gap in ((span.t_minus, 1e-6), (span.t_plus, -1e-6))
            if end is not None and math.isfinite(end)]
    return np.array([0.0, *NODES, -0.7, 0.3, -1e-9, 1e-9, -0.0, *ends])


def _cases():
    for row in sorted(ROW_PAIRS):
        for sign in (1.0, -1.0):
            for scale in sorted(SCALES):
                yield pytest.param(row, sign * SCALES[scale],
                                   id=f"{row}-{'+' if sign > 0 else '-'}{scale}")
    # Theta_t past the largest float towards the ends, and a
    # (1 - Theta_uu B_t)^2 past it at every sample but B_t = 0
    yield pytest.param(dict(ul=3e153, un=4e153), 1.0, id="lambda-5e153")
    yield pytest.param(dict(uu=2.0 ** 511), -1.0, id="uu-2pow511")


@pytest.fixture(params=sorted(PROFILES), ids=sorted(PROFILES))
def profile(request):
    return PROFILES[request.param]


@pytest.mark.parametrize("row,scale", _cases())
def test_stacks_match_single_samples(row, scale, profile):
    theta = ROW_PAIRS[row].theta if isinstance(row, str) else Sym3(**row)
    pair = CauchyPair(Sym3.from_array(theta.as_array() * scale))
    sol = solve(pair)
    times = _grid(sol, profile)
    with np.errstate(over="ignore", invalid="ignore"):
        # B_t: the whole grid raises at its first time off the table
        _same_outcome(_singles(lambda t: [profile.b_integral(t)], times),
                      _singles(lambda t: [b_integral(profile, t)], times))
        try:
            got = profile.b_integral(times), None
        except OutOfDomain as exc:
            got = [], exc
        want = _singles(lambda t: b_integral(profile, t), times)
        assert (type(got[1]), str(got[1])) == (type(want[1]), str(want[1]))
        lo, hi = profile.domain()
        inside = times[(lo <= times) & (times <= hi)]
        bts = profile.b_integral(inside)
        _same_outcome((bts, None), _singles(lambda t: b_integral(profile, t), inside))

        # Theta_t, U_t and H_t at the same B_t, as numpy scalars: each stack
        # reads the prefix the guard passes, and its first failing sample
        # raises what the guard raised there
        v, raised = sol._guarded(bts)
        _same_outcome((sol._theta_stack(v), raised),
                      _singles(lambda bt: theta_at(sol, bt), bts))
        # U_t of a Theta_uu zero within tol takes no guard, and comes at every B_t
        us = sol._frame_stack(v, bts)
        _same_outcome((us, raised if len(us) < len(bts) else None),
                      _singles(lambda bt: frame_at(sol, bt), bts))
        for h0 in (1.0, -2.5):
            try:  # the constant of H_t raises at the first sample that passes
                hams = sol._hamiltonian_stack(h0, v), raised
            except ArithmeticError as exc:
                hams = v[:0], exc
            _same_outcome(hams, _singles(lambda bt: hamiltonian_at(sol, h0, bt), bts))

        # the scalar methods are stacks of one
        _same_outcome(_singles(lambda bt: sol.theta_at(bt).as_array(), bts),
                      _singles(lambda bt: theta_at(sol, bt), bts))
        _same_outcome(_singles(sol.frame_at, bts),
                      _singles(lambda bt: frame_at(sol, bt), bts))
        _same_outcome(_singles(lambda bt: [sol.hamiltonian_at(1.0, bt)], bts),
                      _singles(lambda bt: [hamiltonian_at(sol, 1.0, bt)], bts))


def test_b_integral_keeps_leading_axes():
    # a stack with a leading axis, read in C order: the first time off the
    # table raises
    profile = PROFILES["table-5"]
    times = np.array([[-0.5, 0.5], [4.0, -3.0]])
    got = profile.b_integral(times)
    assert got.shape == (2, 2)
    _same_bits(got.ravel(), np.array([b_integral(profile, t) for t in times.ravel()]))
    with pytest.raises(OutOfDomain, match=r"^t = 4\.5 outside"):
        profile.b_integral(np.array([[0.5, 4.5], [-3.5, 0.0]]))
    assert isinstance(profile.b_integral(0.5), float)
    assert isinstance(PROFILES["constant-1.3"].b_integral(0.5), float)
