"""The RK4 kernel: the one RK4 step of the package, in two unrolled entries.

Both march the 15 flow components
y = (Theta_uu, Theta_ul, Theta_un, Theta_ll, Theta_ln, Theta_nn, U row-major)
at unit lapse.  Every right-hand side of the flow is the lapse times a
function of y, so the kernel takes no lapse: ``numeric`` marches every
lapse in B_t, the integral of the lapse, where it is 1.  A step that
leaves one of |Theta_uu|, |Theta_ll|, |Theta_ln|, |Theta_nn| above
``_GUARD`` ends the march.

``rk4_path(y0, dt, n_steps)`` takes ``n_steps`` steps of size ``dt``,
for the fixed-step march.  It returns ``(y, steps done, truncated)``: y is
the state the march ends on, as a tuple of 15 floats, which on truncation
is the state that tripped the guard.  The guard reads Theta only, so the
caller checks y for an overflowed U.

``doubling_step(y, z, h, tol)`` is one trial of the controlled march in
one call, from the march state y and its companion z (sequences of 15
floats; h and tol floats).  It takes the whole step of size h
from y, the two half steps from y, whose first k1 is the whole step's,
and the local error max_i |halves_i - whole_i| / max(1, |halves_i|) / 15.
Only when that error is within ``tol`` does it take the companion step of
size h from z.  It returns ``(halves, companion, error, None)``, with
companion None on a rejected trial.  A leg that trips the guard or ends on
a state that is not finite stops the trial and returns ``(the state it
ended on, None, None, (leg, tripped))``: leg is "whole", "half 1",
"half 2" or "companion", in the order they run, and tripped is False for a
state that is not finite.  As in ``rk4_path(y, h/2, 2)``, the first
half step ends the trial only on a guard trip.

Both are fully unrolled over scalars: the 13 evolving components
(Theta_uu, Theta_ll, Theta_ln, Theta_nn and the nine entries of U) live in
locals, dt/2, dt/6 and the products of the conserved Theta_ul, Theta_un are
computed once, and no list is built inside a step.  Every floating-point
operation is the one the list form performs, in the same order: ``_rhs``
evaluated at y, y + dt/2 k1, y + dt/2 k2 and y + dt k3, then
y + dt/6 (k1 + 2 k2 + 2 k3 + k4).  The output is therefore bit-identical to
that list form, which ``tests/test_numeric.py`` keeps as its reference.
A sign flip is written -(e), never folded into a subtraction such as
y - dt/2 (e): where the terms cancel, the sum's zero would change sign.
"""

from __future__ import annotations

_GUARD = 1e12


def _rhs(y):
    uu, ul, un, ll, ln, nn = y[0], y[1], y[2], y[3], y[4], y[5]
    out = [0.0] * 15
    out[0] = uu * uu + ul * ul + un * un
    out[3] = ll * uu - ul * ul
    out[4] = ln * uu - ul * un
    out[5] = nn * uu - un * un
    for j in range(3):
        a, b, c = y[6 + j], y[9 + j], y[12 + j]
        out[6 + j] = -(uu * a + ul * b + un * c)
        out[9 + j] = -(ul * a + ll * b + ln * c)
        out[12 + j] = -(un * a + ln * b + nn * c)
    return out


def rk4_path(y0, dt, n_steps):
    """March y0 by ``n_steps`` RK4 steps; see the module docstring."""
    # U is row-major: a*, b*, c* are its rows 0, 1, 2
    uu, ul, un, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2 = (
        float(v) for v in y0)
    dt = float(dt)
    h2 = 0.5 * dt
    h6 = dt / 6.0
    guard, mguard = _GUARD, -_GUARD
    truncated = False
    step = -1

    # Theta_ul and Theta_un have zero slope, so every stage point and every
    # step adds a signed zero (dt * 0.0) to them.  That is a no-op except on
    # a zero of the other sign, so the first k1 sees the input values (the
    # *_s names) and everything after sees ul + dt * 0.0, un + dt * 0.0.
    ul_s, un_s = ul, un
    ulun_s = ul_s * un_s
    ul = ul + dt * 0.0
    un = un + dt * 0.0
    ul2 = ul * ul
    un2 = un * un
    ulun = ul * un

    for step in range(n_steps):
        # k1 at y
        k1uu = uu * uu + ul2 + un2
        k1ll = ll * uu - ul2
        k1ln = ln * uu - ulun_s
        k1nn = nn * uu - un2
        k1a0 = -(uu * a0 + ul_s * b0 + un_s * c0)
        k1b0 = -(ul_s * a0 + ll * b0 + ln * c0)
        k1c0 = -(un_s * a0 + ln * b0 + nn * c0)
        k1a1 = -(uu * a1 + ul_s * b1 + un_s * c1)
        k1b1 = -(ul_s * a1 + ll * b1 + ln * c1)
        k1c1 = -(un_s * a1 + ln * b1 + nn * c1)
        k1a2 = -(uu * a2 + ul_s * b2 + un_s * c2)
        k1b2 = -(ul_s * a2 + ll * b2 + ln * c2)
        k1c2 = -(un_s * a2 + ln * b2 + nn * c2)
        # k2 at y + dt/2 k1
        xuu = uu + h2 * k1uu
        xll = ll + h2 * k1ll
        xln = ln + h2 * k1ln
        xnn = nn + h2 * k1nn
        xa0 = a0 + h2 * k1a0
        xa1 = a1 + h2 * k1a1
        xa2 = a2 + h2 * k1a2
        xb0 = b0 + h2 * k1b0
        xb1 = b1 + h2 * k1b1
        xb2 = b2 + h2 * k1b2
        xc0 = c0 + h2 * k1c0
        xc1 = c1 + h2 * k1c1
        xc2 = c2 + h2 * k1c2
        k2uu = xuu * xuu + ul2 + un2
        k2ll = xll * xuu - ul2
        k2ln = xln * xuu - ulun
        k2nn = xnn * xuu - un2
        k2a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
        k2b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
        k2c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
        k2a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
        k2b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
        k2c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
        k2a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
        k2b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
        k2c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
        # k3 at y + dt/2 k2
        xuu = uu + h2 * k2uu
        xll = ll + h2 * k2ll
        xln = ln + h2 * k2ln
        xnn = nn + h2 * k2nn
        xa0 = a0 + h2 * k2a0
        xa1 = a1 + h2 * k2a1
        xa2 = a2 + h2 * k2a2
        xb0 = b0 + h2 * k2b0
        xb1 = b1 + h2 * k2b1
        xb2 = b2 + h2 * k2b2
        xc0 = c0 + h2 * k2c0
        xc1 = c1 + h2 * k2c1
        xc2 = c2 + h2 * k2c2
        k3uu = xuu * xuu + ul2 + un2
        k3ll = xll * xuu - ul2
        k3ln = xln * xuu - ulun
        k3nn = xnn * xuu - un2
        k3a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
        k3b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
        k3c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
        k3a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
        k3b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
        k3c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
        k3a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
        k3b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
        k3c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
        # k4 at y + dt k3
        xuu = uu + dt * k3uu
        xll = ll + dt * k3ll
        xln = ln + dt * k3ln
        xnn = nn + dt * k3nn
        xa0 = a0 + dt * k3a0
        xa1 = a1 + dt * k3a1
        xa2 = a2 + dt * k3a2
        xb0 = b0 + dt * k3b0
        xb1 = b1 + dt * k3b1
        xb2 = b2 + dt * k3b2
        xc0 = c0 + dt * k3c0
        xc1 = c1 + dt * k3c1
        xc2 = c2 + dt * k3c2
        k4uu = xuu * xuu + ul2 + un2
        k4ll = xll * xuu - ul2
        k4ln = xln * xuu - ulun
        k4nn = xnn * xuu - un2
        k4a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
        k4b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
        k4c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
        k4a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
        k4b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
        k4c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
        k4a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
        k4b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
        k4c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
        # y += dt/6 (k1 + 2 k2 + 2 k3 + k4)
        uu = uu + h6 * (k1uu + 2.0 * k2uu + 2.0 * k3uu + k4uu)
        ll = ll + h6 * (k1ll + 2.0 * k2ll + 2.0 * k3ll + k4ll)
        ln = ln + h6 * (k1ln + 2.0 * k2ln + 2.0 * k3ln + k4ln)
        nn = nn + h6 * (k1nn + 2.0 * k2nn + 2.0 * k3nn + k4nn)
        a0 = a0 + h6 * (k1a0 + 2.0 * k2a0 + 2.0 * k3a0 + k4a0)
        a1 = a1 + h6 * (k1a1 + 2.0 * k2a1 + 2.0 * k3a1 + k4a1)
        a2 = a2 + h6 * (k1a2 + 2.0 * k2a2 + 2.0 * k3a2 + k4a2)
        b0 = b0 + h6 * (k1b0 + 2.0 * k2b0 + 2.0 * k3b0 + k4b0)
        b1 = b1 + h6 * (k1b1 + 2.0 * k2b1 + 2.0 * k3b1 + k4b1)
        b2 = b2 + h6 * (k1b2 + 2.0 * k2b2 + 2.0 * k3b2 + k4b2)
        c0 = c0 + h6 * (k1c0 + 2.0 * k2c0 + 2.0 * k3c0 + k4c0)
        c1 = c1 + h6 * (k1c1 + 2.0 * k2c1 + 2.0 * k3c1 + k4c1)
        c2 = c2 + h6 * (k1c2 + 2.0 * k2c2 + 2.0 * k3c2 + k4c2)
        ul_s, un_s, ulun_s = ul, un, ulun

        # max(|uu|, |ll|, |ln|, |nn|) > guard; max() would also hide the rest
        # behind a NaN uu, but a step that leaves uu NaN leaves them NaN too
        if (uu > guard or uu < mguard or ll > guard or ll < mguard
                or ln > guard or ln < mguard or nn > guard or nn < mguard):
            truncated = True
            break

    # ul_s, un_s are the input values until a step is done, ul, un after it
    return ((uu, ul_s, un_s, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2),
            step + 1, truncated)


def doubling_step(y, z, h, tol):
    """One trial of the controlled march; see the module docstring."""
    # U is row-major: a*, b*, c* are its rows 0, 1, 2
    uu, ul_s, un_s, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2 = y
    h2 = 0.5 * h  # the whole step's dt/2 and the half steps' dt
    h6 = h / 6.0
    q2 = 0.5 * h2  # the half steps' dt/2
    q6 = h2 / 6.0
    guard, mguard = _GUARD, -_GUARD

    # as in rk4_path, the first k1 sees the input Theta_ul, Theta_un and
    # every later stage ul + dt * 0.0, un + dt * 0.0.  dt = h and dt = h/2
    # give that zero the same sign, so all three steps of y share ul, un.
    ulun_s = ul_s * un_s
    ul = ul_s + h * 0.0
    un = un_s + h * 0.0
    ul2 = ul * ul
    un2 = un * un
    ulun = ul * un

    # k1 at y: the first stage of the whole step and of the first half step
    k1uu = uu * uu + ul2 + un2
    k1ll = ll * uu - ul2
    k1ln = ln * uu - ulun_s
    k1nn = nn * uu - un2
    k1a0 = -(uu * a0 + ul_s * b0 + un_s * c0)
    k1b0 = -(ul_s * a0 + ll * b0 + ln * c0)
    k1c0 = -(un_s * a0 + ln * b0 + nn * c0)
    k1a1 = -(uu * a1 + ul_s * b1 + un_s * c1)
    k1b1 = -(ul_s * a1 + ll * b1 + ln * c1)
    k1c1 = -(un_s * a1 + ln * b1 + nn * c1)
    k1a2 = -(uu * a2 + ul_s * b2 + un_s * c2)
    k1b2 = -(ul_s * a2 + ll * b2 + ln * c2)
    k1c2 = -(un_s * a2 + ln * b2 + nn * c2)

    # the whole step w* = y + h/6 (k1 + 2 k2 + 2 k3 + k4)
    # k2 at y + h/2 k1
    xuu = uu + h2 * k1uu
    xll = ll + h2 * k1ll
    xln = ln + h2 * k1ln
    xnn = nn + h2 * k1nn
    xa0 = a0 + h2 * k1a0
    xa1 = a1 + h2 * k1a1
    xa2 = a2 + h2 * k1a2
    xb0 = b0 + h2 * k1b0
    xb1 = b1 + h2 * k1b1
    xb2 = b2 + h2 * k1b2
    xc0 = c0 + h2 * k1c0
    xc1 = c1 + h2 * k1c1
    xc2 = c2 + h2 * k1c2
    k2uu = xuu * xuu + ul2 + un2
    k2ll = xll * xuu - ul2
    k2ln = xln * xuu - ulun
    k2nn = xnn * xuu - un2
    k2a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k2b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k2c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k2a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k2b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k2c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k2a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k2b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k2c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    # k3 at y + h/2 k2
    xuu = uu + h2 * k2uu
    xll = ll + h2 * k2ll
    xln = ln + h2 * k2ln
    xnn = nn + h2 * k2nn
    xa0 = a0 + h2 * k2a0
    xa1 = a1 + h2 * k2a1
    xa2 = a2 + h2 * k2a2
    xb0 = b0 + h2 * k2b0
    xb1 = b1 + h2 * k2b1
    xb2 = b2 + h2 * k2b2
    xc0 = c0 + h2 * k2c0
    xc1 = c1 + h2 * k2c1
    xc2 = c2 + h2 * k2c2
    k3uu = xuu * xuu + ul2 + un2
    k3ll = xll * xuu - ul2
    k3ln = xln * xuu - ulun
    k3nn = xnn * xuu - un2
    k3a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k3b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k3c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k3a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k3b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k3c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k3a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k3b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k3c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    # k4 at y + h k3
    xuu = uu + h * k3uu
    xll = ll + h * k3ll
    xln = ln + h * k3ln
    xnn = nn + h * k3nn
    xa0 = a0 + h * k3a0
    xa1 = a1 + h * k3a1
    xa2 = a2 + h * k3a2
    xb0 = b0 + h * k3b0
    xb1 = b1 + h * k3b1
    xb2 = b2 + h * k3b2
    xc0 = c0 + h * k3c0
    xc1 = c1 + h * k3c1
    xc2 = c2 + h * k3c2
    k4uu = xuu * xuu + ul2 + un2
    k4ll = xll * xuu - ul2
    k4ln = xln * xuu - ulun
    k4nn = xnn * xuu - un2
    k4a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k4b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k4c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k4a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k4b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k4c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k4a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k4b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k4c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    wuu = uu + h6 * (k1uu + 2.0 * k2uu + 2.0 * k3uu + k4uu)
    wll = ll + h6 * (k1ll + 2.0 * k2ll + 2.0 * k3ll + k4ll)
    wln = ln + h6 * (k1ln + 2.0 * k2ln + 2.0 * k3ln + k4ln)
    wnn = nn + h6 * (k1nn + 2.0 * k2nn + 2.0 * k3nn + k4nn)
    wa0 = a0 + h6 * (k1a0 + 2.0 * k2a0 + 2.0 * k3a0 + k4a0)
    wa1 = a1 + h6 * (k1a1 + 2.0 * k2a1 + 2.0 * k3a1 + k4a1)
    wa2 = a2 + h6 * (k1a2 + 2.0 * k2a2 + 2.0 * k3a2 + k4a2)
    wb0 = b0 + h6 * (k1b0 + 2.0 * k2b0 + 2.0 * k3b0 + k4b0)
    wb1 = b1 + h6 * (k1b1 + 2.0 * k2b1 + 2.0 * k3b1 + k4b1)
    wb2 = b2 + h6 * (k1b2 + 2.0 * k2b2 + 2.0 * k3b2 + k4b2)
    wc0 = c0 + h6 * (k1c0 + 2.0 * k2c0 + 2.0 * k3c0 + k4c0)
    wc1 = c1 + h6 * (k1c1 + 2.0 * k2c1 + 2.0 * k3c1 + k4c1)
    wc2 = c2 + h6 * (k1c2 + 2.0 * k2c2 + 2.0 * k3c2 + k4c2)
    tripped = (wuu > guard or wuu < mguard or wll > guard or wll < mguard
               or wln > guard or wln < mguard or wnn > guard or wnn < mguard)
    # x - x is 0.0 for a finite x and NaN otherwise, so the sum is 0.0
    # exactly when the state is finite
    if tripped or ((wuu - wuu) + (ul - ul) + (un - un) + (wll - wll)
                   + (wln - wln) + (wnn - wnn) + (wa0 - wa0) + (wa1 - wa1)
                   + (wa2 - wa2) + (wb0 - wb0) + (wb1 - wb1) + (wb2 - wb2)
                   + (wc0 - wc0) + (wc1 - wc1) + (wc2 - wc2)) != 0.0:
        return ((wuu, ul, un, wll, wln, wnn, wa0,
                 wa1, wa2, wb0, wb1, wb2, wc0, wc1, wc2),
                None, None, ("whole", tripped))

    # the first half step, y = y + h/12 (k1 + 2 k2 + 2 k3 + k4)
    # k2 at y + h/4 k1
    xuu = uu + q2 * k1uu
    xll = ll + q2 * k1ll
    xln = ln + q2 * k1ln
    xnn = nn + q2 * k1nn
    xa0 = a0 + q2 * k1a0
    xa1 = a1 + q2 * k1a1
    xa2 = a2 + q2 * k1a2
    xb0 = b0 + q2 * k1b0
    xb1 = b1 + q2 * k1b1
    xb2 = b2 + q2 * k1b2
    xc0 = c0 + q2 * k1c0
    xc1 = c1 + q2 * k1c1
    xc2 = c2 + q2 * k1c2
    k2uu = xuu * xuu + ul2 + un2
    k2ll = xll * xuu - ul2
    k2ln = xln * xuu - ulun
    k2nn = xnn * xuu - un2
    k2a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k2b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k2c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k2a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k2b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k2c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k2a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k2b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k2c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    # k3 at y + h/4 k2
    xuu = uu + q2 * k2uu
    xll = ll + q2 * k2ll
    xln = ln + q2 * k2ln
    xnn = nn + q2 * k2nn
    xa0 = a0 + q2 * k2a0
    xa1 = a1 + q2 * k2a1
    xa2 = a2 + q2 * k2a2
    xb0 = b0 + q2 * k2b0
    xb1 = b1 + q2 * k2b1
    xb2 = b2 + q2 * k2b2
    xc0 = c0 + q2 * k2c0
    xc1 = c1 + q2 * k2c1
    xc2 = c2 + q2 * k2c2
    k3uu = xuu * xuu + ul2 + un2
    k3ll = xll * xuu - ul2
    k3ln = xln * xuu - ulun
    k3nn = xnn * xuu - un2
    k3a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k3b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k3c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k3a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k3b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k3c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k3a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k3b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k3c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    # k4 at y + h/2 k3
    xuu = uu + h2 * k3uu
    xll = ll + h2 * k3ll
    xln = ln + h2 * k3ln
    xnn = nn + h2 * k3nn
    xa0 = a0 + h2 * k3a0
    xa1 = a1 + h2 * k3a1
    xa2 = a2 + h2 * k3a2
    xb0 = b0 + h2 * k3b0
    xb1 = b1 + h2 * k3b1
    xb2 = b2 + h2 * k3b2
    xc0 = c0 + h2 * k3c0
    xc1 = c1 + h2 * k3c1
    xc2 = c2 + h2 * k3c2
    k4uu = xuu * xuu + ul2 + un2
    k4ll = xll * xuu - ul2
    k4ln = xln * xuu - ulun
    k4nn = xnn * xuu - un2
    k4a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k4b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k4c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k4a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k4b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k4c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k4a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k4b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k4c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    uu = uu + q6 * (k1uu + 2.0 * k2uu + 2.0 * k3uu + k4uu)
    ll = ll + q6 * (k1ll + 2.0 * k2ll + 2.0 * k3ll + k4ll)
    ln = ln + q6 * (k1ln + 2.0 * k2ln + 2.0 * k3ln + k4ln)
    nn = nn + q6 * (k1nn + 2.0 * k2nn + 2.0 * k3nn + k4nn)
    a0 = a0 + q6 * (k1a0 + 2.0 * k2a0 + 2.0 * k3a0 + k4a0)
    a1 = a1 + q6 * (k1a1 + 2.0 * k2a1 + 2.0 * k3a1 + k4a1)
    a2 = a2 + q6 * (k1a2 + 2.0 * k2a2 + 2.0 * k3a2 + k4a2)
    b0 = b0 + q6 * (k1b0 + 2.0 * k2b0 + 2.0 * k3b0 + k4b0)
    b1 = b1 + q6 * (k1b1 + 2.0 * k2b1 + 2.0 * k3b1 + k4b1)
    b2 = b2 + q6 * (k1b2 + 2.0 * k2b2 + 2.0 * k3b2 + k4b2)
    c0 = c0 + q6 * (k1c0 + 2.0 * k2c0 + 2.0 * k3c0 + k4c0)
    c1 = c1 + q6 * (k1c1 + 2.0 * k2c1 + 2.0 * k3c1 + k4c1)
    c2 = c2 + q6 * (k1c2 + 2.0 * k2c2 + 2.0 * k3c2 + k4c2)
    # only the guard ends the trial here, as in rk4_path(y, h/2, 2)
    if (uu > guard or uu < mguard or ll > guard or ll < mguard
            or ln > guard or ln < mguard or nn > guard or nn < mguard):
        return ((uu, ul, un, ll, ln, nn, a0,
                 a1, a2, b0, b1, b2, c0, c1, c2),
                None, None, ("half 1", True))

    # the second half step, from the first
    # k1 at y
    k1uu = uu * uu + ul2 + un2
    k1ll = ll * uu - ul2
    k1ln = ln * uu - ulun
    k1nn = nn * uu - un2
    k1a0 = -(uu * a0 + ul * b0 + un * c0)
    k1b0 = -(ul * a0 + ll * b0 + ln * c0)
    k1c0 = -(un * a0 + ln * b0 + nn * c0)
    k1a1 = -(uu * a1 + ul * b1 + un * c1)
    k1b1 = -(ul * a1 + ll * b1 + ln * c1)
    k1c1 = -(un * a1 + ln * b1 + nn * c1)
    k1a2 = -(uu * a2 + ul * b2 + un * c2)
    k1b2 = -(ul * a2 + ll * b2 + ln * c2)
    k1c2 = -(un * a2 + ln * b2 + nn * c2)
    # k2 at y + h/4 k1
    xuu = uu + q2 * k1uu
    xll = ll + q2 * k1ll
    xln = ln + q2 * k1ln
    xnn = nn + q2 * k1nn
    xa0 = a0 + q2 * k1a0
    xa1 = a1 + q2 * k1a1
    xa2 = a2 + q2 * k1a2
    xb0 = b0 + q2 * k1b0
    xb1 = b1 + q2 * k1b1
    xb2 = b2 + q2 * k1b2
    xc0 = c0 + q2 * k1c0
    xc1 = c1 + q2 * k1c1
    xc2 = c2 + q2 * k1c2
    k2uu = xuu * xuu + ul2 + un2
    k2ll = xll * xuu - ul2
    k2ln = xln * xuu - ulun
    k2nn = xnn * xuu - un2
    k2a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k2b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k2c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k2a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k2b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k2c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k2a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k2b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k2c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    # k3 at y + h/4 k2
    xuu = uu + q2 * k2uu
    xll = ll + q2 * k2ll
    xln = ln + q2 * k2ln
    xnn = nn + q2 * k2nn
    xa0 = a0 + q2 * k2a0
    xa1 = a1 + q2 * k2a1
    xa2 = a2 + q2 * k2a2
    xb0 = b0 + q2 * k2b0
    xb1 = b1 + q2 * k2b1
    xb2 = b2 + q2 * k2b2
    xc0 = c0 + q2 * k2c0
    xc1 = c1 + q2 * k2c1
    xc2 = c2 + q2 * k2c2
    k3uu = xuu * xuu + ul2 + un2
    k3ll = xll * xuu - ul2
    k3ln = xln * xuu - ulun
    k3nn = xnn * xuu - un2
    k3a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k3b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k3c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k3a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k3b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k3c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k3a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k3b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k3c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    # k4 at y + h/2 k3
    xuu = uu + h2 * k3uu
    xll = ll + h2 * k3ll
    xln = ln + h2 * k3ln
    xnn = nn + h2 * k3nn
    xa0 = a0 + h2 * k3a0
    xa1 = a1 + h2 * k3a1
    xa2 = a2 + h2 * k3a2
    xb0 = b0 + h2 * k3b0
    xb1 = b1 + h2 * k3b1
    xb2 = b2 + h2 * k3b2
    xc0 = c0 + h2 * k3c0
    xc1 = c1 + h2 * k3c1
    xc2 = c2 + h2 * k3c2
    k4uu = xuu * xuu + ul2 + un2
    k4ll = xll * xuu - ul2
    k4ln = xln * xuu - ulun
    k4nn = xnn * xuu - un2
    k4a0 = -(xuu * xa0 + ul * xb0 + un * xc0)
    k4b0 = -(ul * xa0 + xll * xb0 + xln * xc0)
    k4c0 = -(un * xa0 + xln * xb0 + xnn * xc0)
    k4a1 = -(xuu * xa1 + ul * xb1 + un * xc1)
    k4b1 = -(ul * xa1 + xll * xb1 + xln * xc1)
    k4c1 = -(un * xa1 + xln * xb1 + xnn * xc1)
    k4a2 = -(xuu * xa2 + ul * xb2 + un * xc2)
    k4b2 = -(ul * xa2 + xll * xb2 + xln * xc2)
    k4c2 = -(un * xa2 + xln * xb2 + xnn * xc2)
    uu = uu + q6 * (k1uu + 2.0 * k2uu + 2.0 * k3uu + k4uu)
    ll = ll + q6 * (k1ll + 2.0 * k2ll + 2.0 * k3ll + k4ll)
    ln = ln + q6 * (k1ln + 2.0 * k2ln + 2.0 * k3ln + k4ln)
    nn = nn + q6 * (k1nn + 2.0 * k2nn + 2.0 * k3nn + k4nn)
    a0 = a0 + q6 * (k1a0 + 2.0 * k2a0 + 2.0 * k3a0 + k4a0)
    a1 = a1 + q6 * (k1a1 + 2.0 * k2a1 + 2.0 * k3a1 + k4a1)
    a2 = a2 + q6 * (k1a2 + 2.0 * k2a2 + 2.0 * k3a2 + k4a2)
    b0 = b0 + q6 * (k1b0 + 2.0 * k2b0 + 2.0 * k3b0 + k4b0)
    b1 = b1 + q6 * (k1b1 + 2.0 * k2b1 + 2.0 * k3b1 + k4b1)
    b2 = b2 + q6 * (k1b2 + 2.0 * k2b2 + 2.0 * k3b2 + k4b2)
    c0 = c0 + q6 * (k1c0 + 2.0 * k2c0 + 2.0 * k3c0 + k4c0)
    c1 = c1 + q6 * (k1c1 + 2.0 * k2c1 + 2.0 * k3c1 + k4c1)
    c2 = c2 + q6 * (k1c2 + 2.0 * k2c2 + 2.0 * k3c2 + k4c2)
    tripped = (uu > guard or uu < mguard or ll > guard or ll < mguard
               or ln > guard or ln < mguard or nn > guard or nn < mguard)
    if tripped or ((uu - uu) + (ul - ul) + (un - un) + (ll - ll)
                   + (ln - ln) + (nn - nn) + (a0 - a0) + (a1 - a1)
                   + (a2 - a2) + (b0 - b0) + (b1 - b1) + (b2 - b2)
                   + (c0 - c0) + (c1 - c1) + (c2 - c2)) != 0.0:
        return ((uu, ul, un, ll, ln, nn, a0,
                 a1, a2, b0, b1, b2, c0, c1, c2),
                None, None, ("half 2", tripped))

    # max_i |halves_i - whole_i| / max(1, |halves_i|) / 15; Theta_ul and
    # Theta_un are ul and un in both and add zeros to the max
    error = max(
        abs(uu - wuu) / (uu if uu > 1.0 else -uu if uu < -1.0 else 1.0),
        abs(ll - wll) / (ll if ll > 1.0 else -ll if ll < -1.0 else 1.0),
        abs(ln - wln) / (ln if ln > 1.0 else -ln if ln < -1.0 else 1.0),
        abs(nn - wnn) / (nn if nn > 1.0 else -nn if nn < -1.0 else 1.0),
        abs(a0 - wa0) / (a0 if a0 > 1.0 else -a0 if a0 < -1.0 else 1.0),
        abs(a1 - wa1) / (a1 if a1 > 1.0 else -a1 if a1 < -1.0 else 1.0),
        abs(a2 - wa2) / (a2 if a2 > 1.0 else -a2 if a2 < -1.0 else 1.0),
        abs(b0 - wb0) / (b0 if b0 > 1.0 else -b0 if b0 < -1.0 else 1.0),
        abs(b1 - wb1) / (b1 if b1 > 1.0 else -b1 if b1 < -1.0 else 1.0),
        abs(b2 - wb2) / (b2 if b2 > 1.0 else -b2 if b2 < -1.0 else 1.0),
        abs(c0 - wc0) / (c0 if c0 > 1.0 else -c0 if c0 < -1.0 else 1.0),
        abs(c1 - wc1) / (c1 if c1 > 1.0 else -c1 if c1 < -1.0 else 1.0),
        abs(c2 - wc2) / (c2 if c2 > 1.0 else -c2 if c2 < -1.0 else 1.0)) / 15.0
    if error > tol:
        return ((uu, ul, un, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2),
                None, error, None)

    # the companion step z* = z + h/6 (k1 + 2 k2 + 2 k3 + k4)
    zuu, zul_s, zun_s, zll, zln, znn, za0, za1, za2, zb0, zb1, zb2, zc0, zc1, zc2 = z
    zulun_s = zul_s * zun_s
    zul = zul_s + h * 0.0
    zun = zun_s + h * 0.0
    zul2 = zul * zul
    zun2 = zun * zun
    zulun = zul * zun
    # k1 at z
    k1uu = zuu * zuu + zul2 + zun2
    k1ll = zll * zuu - zul2
    k1ln = zln * zuu - zulun_s
    k1nn = znn * zuu - zun2
    k1a0 = -(zuu * za0 + zul_s * zb0 + zun_s * zc0)
    k1b0 = -(zul_s * za0 + zll * zb0 + zln * zc0)
    k1c0 = -(zun_s * za0 + zln * zb0 + znn * zc0)
    k1a1 = -(zuu * za1 + zul_s * zb1 + zun_s * zc1)
    k1b1 = -(zul_s * za1 + zll * zb1 + zln * zc1)
    k1c1 = -(zun_s * za1 + zln * zb1 + znn * zc1)
    k1a2 = -(zuu * za2 + zul_s * zb2 + zun_s * zc2)
    k1b2 = -(zul_s * za2 + zll * zb2 + zln * zc2)
    k1c2 = -(zun_s * za2 + zln * zb2 + znn * zc2)
    # k2 at z + h/2 k1
    xuu = zuu + h2 * k1uu
    xll = zll + h2 * k1ll
    xln = zln + h2 * k1ln
    xnn = znn + h2 * k1nn
    xa0 = za0 + h2 * k1a0
    xa1 = za1 + h2 * k1a1
    xa2 = za2 + h2 * k1a2
    xb0 = zb0 + h2 * k1b0
    xb1 = zb1 + h2 * k1b1
    xb2 = zb2 + h2 * k1b2
    xc0 = zc0 + h2 * k1c0
    xc1 = zc1 + h2 * k1c1
    xc2 = zc2 + h2 * k1c2
    k2uu = xuu * xuu + zul2 + zun2
    k2ll = xll * xuu - zul2
    k2ln = xln * xuu - zulun
    k2nn = xnn * xuu - zun2
    k2a0 = -(xuu * xa0 + zul * xb0 + zun * xc0)
    k2b0 = -(zul * xa0 + xll * xb0 + xln * xc0)
    k2c0 = -(zun * xa0 + xln * xb0 + xnn * xc0)
    k2a1 = -(xuu * xa1 + zul * xb1 + zun * xc1)
    k2b1 = -(zul * xa1 + xll * xb1 + xln * xc1)
    k2c1 = -(zun * xa1 + xln * xb1 + xnn * xc1)
    k2a2 = -(xuu * xa2 + zul * xb2 + zun * xc2)
    k2b2 = -(zul * xa2 + xll * xb2 + xln * xc2)
    k2c2 = -(zun * xa2 + xln * xb2 + xnn * xc2)
    # k3 at z + h/2 k2
    xuu = zuu + h2 * k2uu
    xll = zll + h2 * k2ll
    xln = zln + h2 * k2ln
    xnn = znn + h2 * k2nn
    xa0 = za0 + h2 * k2a0
    xa1 = za1 + h2 * k2a1
    xa2 = za2 + h2 * k2a2
    xb0 = zb0 + h2 * k2b0
    xb1 = zb1 + h2 * k2b1
    xb2 = zb2 + h2 * k2b2
    xc0 = zc0 + h2 * k2c0
    xc1 = zc1 + h2 * k2c1
    xc2 = zc2 + h2 * k2c2
    k3uu = xuu * xuu + zul2 + zun2
    k3ll = xll * xuu - zul2
    k3ln = xln * xuu - zulun
    k3nn = xnn * xuu - zun2
    k3a0 = -(xuu * xa0 + zul * xb0 + zun * xc0)
    k3b0 = -(zul * xa0 + xll * xb0 + xln * xc0)
    k3c0 = -(zun * xa0 + xln * xb0 + xnn * xc0)
    k3a1 = -(xuu * xa1 + zul * xb1 + zun * xc1)
    k3b1 = -(zul * xa1 + xll * xb1 + xln * xc1)
    k3c1 = -(zun * xa1 + xln * xb1 + xnn * xc1)
    k3a2 = -(xuu * xa2 + zul * xb2 + zun * xc2)
    k3b2 = -(zul * xa2 + xll * xb2 + xln * xc2)
    k3c2 = -(zun * xa2 + xln * xb2 + xnn * xc2)
    # k4 at z + h k3
    xuu = zuu + h * k3uu
    xll = zll + h * k3ll
    xln = zln + h * k3ln
    xnn = znn + h * k3nn
    xa0 = za0 + h * k3a0
    xa1 = za1 + h * k3a1
    xa2 = za2 + h * k3a2
    xb0 = zb0 + h * k3b0
    xb1 = zb1 + h * k3b1
    xb2 = zb2 + h * k3b2
    xc0 = zc0 + h * k3c0
    xc1 = zc1 + h * k3c1
    xc2 = zc2 + h * k3c2
    k4uu = xuu * xuu + zul2 + zun2
    k4ll = xll * xuu - zul2
    k4ln = xln * xuu - zulun
    k4nn = xnn * xuu - zun2
    k4a0 = -(xuu * xa0 + zul * xb0 + zun * xc0)
    k4b0 = -(zul * xa0 + xll * xb0 + xln * xc0)
    k4c0 = -(zun * xa0 + xln * xb0 + xnn * xc0)
    k4a1 = -(xuu * xa1 + zul * xb1 + zun * xc1)
    k4b1 = -(zul * xa1 + xll * xb1 + xln * xc1)
    k4c1 = -(zun * xa1 + xln * xb1 + xnn * xc1)
    k4a2 = -(xuu * xa2 + zul * xb2 + zun * xc2)
    k4b2 = -(zul * xa2 + xll * xb2 + xln * xc2)
    k4c2 = -(zun * xa2 + xln * xb2 + xnn * xc2)
    zuu = zuu + h6 * (k1uu + 2.0 * k2uu + 2.0 * k3uu + k4uu)
    zll = zll + h6 * (k1ll + 2.0 * k2ll + 2.0 * k3ll + k4ll)
    zln = zln + h6 * (k1ln + 2.0 * k2ln + 2.0 * k3ln + k4ln)
    znn = znn + h6 * (k1nn + 2.0 * k2nn + 2.0 * k3nn + k4nn)
    za0 = za0 + h6 * (k1a0 + 2.0 * k2a0 + 2.0 * k3a0 + k4a0)
    za1 = za1 + h6 * (k1a1 + 2.0 * k2a1 + 2.0 * k3a1 + k4a1)
    za2 = za2 + h6 * (k1a2 + 2.0 * k2a2 + 2.0 * k3a2 + k4a2)
    zb0 = zb0 + h6 * (k1b0 + 2.0 * k2b0 + 2.0 * k3b0 + k4b0)
    zb1 = zb1 + h6 * (k1b1 + 2.0 * k2b1 + 2.0 * k3b1 + k4b1)
    zb2 = zb2 + h6 * (k1b2 + 2.0 * k2b2 + 2.0 * k3b2 + k4b2)
    zc0 = zc0 + h6 * (k1c0 + 2.0 * k2c0 + 2.0 * k3c0 + k4c0)
    zc1 = zc1 + h6 * (k1c1 + 2.0 * k2c1 + 2.0 * k3c1 + k4c1)
    zc2 = zc2 + h6 * (k1c2 + 2.0 * k2c2 + 2.0 * k3c2 + k4c2)
    tripped = (zuu > guard or zuu < mguard or zll > guard or zll < mguard
               or zln > guard or zln < mguard or znn > guard or znn < mguard)
    if tripped or ((zuu - zuu) + (zul - zul) + (zun - zun) + (zll - zll)
                   + (zln - zln) + (znn - znn) + (za0 - za0) + (za1 - za1)
                   + (za2 - za2) + (zb0 - zb0) + (zb1 - zb1) + (zb2 - zb2)
                   + (zc0 - zc0) + (zc1 - zc1) + (zc2 - zc2)) != 0.0:
        return ((zuu, zul, zun, zll, zln, znn, za0,
                 za1, za2, zb0, zb1, zb2, zc0, zc1, zc2),
                None, None, ("companion", tripped))
    return ((uu, ul, un, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2),
            (zuu, zul, zun, zll, zln, znn, za0, za1, za2, zb0, zb1, zb2, zc0, zc1, zc2),
            error, None)
