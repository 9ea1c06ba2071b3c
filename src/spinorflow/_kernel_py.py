"""The fixed-step RK4 kernel: the one RK4 loop of the package.

``rk4_path(y0, beta, dt, n_steps)`` marches the 15 flow components
y = (Theta_uu, Theta_ul, Theta_un, Theta_ll, Theta_ln, Theta_nn, U row-major)
through ``n_steps`` steps of size ``dt`` at the one lapse value ``beta``.
Every right-hand side is beta times a function of y, so a variable lapse
needs no stage lapses: ``numeric`` marches it in B_t, the integral of the
lapse, at unit lapse.  A step that leaves one of |Theta_uu|, |Theta_ll|,
|Theta_ln|, |Theta_nn| above ``_GUARD`` ends the march.  It returns
``(y, steps done, truncated)``: y is the state the march ends on, as a tuple
of 15 floats, which on truncation is the state that tripped the guard.  The
guard reads Theta only, so the caller checks y for an overflowed U.

The loop is fully unrolled over scalars: the 13 evolving components
(Theta_uu, Theta_ll, Theta_ln, Theta_nn and the nine entries of U) live in
locals, dt/2, dt/6 and the products of the conserved Theta_ul, Theta_un are
computed once, and no list is built inside a step.  Every floating-point
operation is the one the list form performs, in the same order: ``_rhs``
evaluated at y, y + dt/2 k1, y + dt/2 k2 and y + dt k3, then
y + dt/6 (k1 + 2 k2 + 2 k3 + k4).  The output is therefore bit-identical to
that list form, which ``tests/test_numeric.py`` keeps as its reference.
"""

from __future__ import annotations

_GUARD = 1e12


def _rhs(y, beta):
    uu, ul, un, ll, ln, nn = y[0], y[1], y[2], y[3], y[4], y[5]
    out = [0.0] * 15
    out[0] = beta * (uu * uu + ul * ul + un * un)
    out[3] = beta * (ll * uu - ul * ul)
    out[4] = beta * (ln * uu - ul * un)
    out[5] = beta * (nn * uu - un * un)
    for j in range(3):
        a, b, c = y[6 + j], y[9 + j], y[12 + j]
        out[6 + j] = -beta * (uu * a + ul * b + un * c)
        out[9 + j] = -beta * (ul * a + ll * b + ln * c)
        out[12 + j] = -beta * (un * a + ln * b + nn * c)
    return out


def rk4_path(y0, beta, dt, n_steps):
    """March y0 by ``n_steps`` RK4 steps; see the module docstring."""
    # U is row-major: a*, b*, c* are its rows 0, 1, 2
    uu, ul, un, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2 = (
        float(v) for v in y0)
    beta = float(beta)
    nb = -beta
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
        k1uu = beta * (uu * uu + ul2 + un2)
        k1ll = beta * (ll * uu - ul2)
        k1ln = beta * (ln * uu - ulun_s)
        k1nn = beta * (nn * uu - un2)
        k1a0 = nb * (uu * a0 + ul_s * b0 + un_s * c0)
        k1b0 = nb * (ul_s * a0 + ll * b0 + ln * c0)
        k1c0 = nb * (un_s * a0 + ln * b0 + nn * c0)
        k1a1 = nb * (uu * a1 + ul_s * b1 + un_s * c1)
        k1b1 = nb * (ul_s * a1 + ll * b1 + ln * c1)
        k1c1 = nb * (un_s * a1 + ln * b1 + nn * c1)
        k1a2 = nb * (uu * a2 + ul_s * b2 + un_s * c2)
        k1b2 = nb * (ul_s * a2 + ll * b2 + ln * c2)
        k1c2 = nb * (un_s * a2 + ln * b2 + nn * c2)
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
        k2uu = beta * (xuu * xuu + ul2 + un2)
        k2ll = beta * (xll * xuu - ul2)
        k2ln = beta * (xln * xuu - ulun)
        k2nn = beta * (xnn * xuu - un2)
        k2a0 = nb * (xuu * xa0 + ul * xb0 + un * xc0)
        k2b0 = nb * (ul * xa0 + xll * xb0 + xln * xc0)
        k2c0 = nb * (un * xa0 + xln * xb0 + xnn * xc0)
        k2a1 = nb * (xuu * xa1 + ul * xb1 + un * xc1)
        k2b1 = nb * (ul * xa1 + xll * xb1 + xln * xc1)
        k2c1 = nb * (un * xa1 + xln * xb1 + xnn * xc1)
        k2a2 = nb * (xuu * xa2 + ul * xb2 + un * xc2)
        k2b2 = nb * (ul * xa2 + xll * xb2 + xln * xc2)
        k2c2 = nb * (un * xa2 + xln * xb2 + xnn * xc2)
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
        k3uu = beta * (xuu * xuu + ul2 + un2)
        k3ll = beta * (xll * xuu - ul2)
        k3ln = beta * (xln * xuu - ulun)
        k3nn = beta * (xnn * xuu - un2)
        k3a0 = nb * (xuu * xa0 + ul * xb0 + un * xc0)
        k3b0 = nb * (ul * xa0 + xll * xb0 + xln * xc0)
        k3c0 = nb * (un * xa0 + xln * xb0 + xnn * xc0)
        k3a1 = nb * (xuu * xa1 + ul * xb1 + un * xc1)
        k3b1 = nb * (ul * xa1 + xll * xb1 + xln * xc1)
        k3c1 = nb * (un * xa1 + xln * xb1 + xnn * xc1)
        k3a2 = nb * (xuu * xa2 + ul * xb2 + un * xc2)
        k3b2 = nb * (ul * xa2 + xll * xb2 + xln * xc2)
        k3c2 = nb * (un * xa2 + xln * xb2 + xnn * xc2)
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
        k4uu = beta * (xuu * xuu + ul2 + un2)
        k4ll = beta * (xll * xuu - ul2)
        k4ln = beta * (xln * xuu - ulun)
        k4nn = beta * (xnn * xuu - un2)
        k4a0 = nb * (xuu * xa0 + ul * xb0 + un * xc0)
        k4b0 = nb * (ul * xa0 + xll * xb0 + xln * xc0)
        k4c0 = nb * (un * xa0 + xln * xb0 + xnn * xc0)
        k4a1 = nb * (xuu * xa1 + ul * xb1 + un * xc1)
        k4b1 = nb * (ul * xa1 + xll * xb1 + xln * xc1)
        k4c1 = nb * (un * xa1 + xln * xb1 + xnn * xc1)
        k4a2 = nb * (xuu * xa2 + ul * xb2 + un * xc2)
        k4b2 = nb * (ul * xa2 + xll * xb2 + xln * xc2)
        k4c2 = nb * (un * xa2 + xln * xb2 + xnn * xc2)
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
