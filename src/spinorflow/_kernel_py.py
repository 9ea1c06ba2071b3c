"""The kernel in Python: the reference of the package's RK4 step, of the
number formats of the flow table and of curvature, of the cumulative
table of a tabulated lapse, of the Ricci tensor of a stack of frames and
of the flow residuals of a stack of states, and the fallback of its C
kernel.

``numeric`` runs the C extension built from ``_kernel.c``, and runs this
module wherever that cannot be built or loaded.  The C kernel holds six of
the seven entries below; the seventh, ``rk4_path``, the fixed-step march
that no command runs, is this module's on both backends (``numeric``
binds it onto the C module).  The C kernel writes the RK4 step of
``march_stop`` as the list form below, a function call per right-hand
side and a loop over the 15 floats, and gives the same bits as this
module's unrolled ``_march``.  This module states the contract of both;
``tests/test_numeric.py`` holds both to it, ``tests/test_cli.py`` holds
both ``e12`` to ``"%.12e" % x`` and both ``reprs`` to ``repr(x)``,
``tests/test_exact.py`` holds the C ``cumulative`` to this one,
``tests/test_tensor_algebra.py`` the C ``ricci`` and
``tests/test_numeric.py`` the C ``residuals``.

It marches the 15 flow components
y = (Theta_uu, Theta_ul, Theta_un, Theta_ll, Theta_ln, Theta_nn, U row-major)
at unit lapse.  Every right-hand side of the flow is the lapse times a
function of y, so the kernel takes no lapse: ``numeric`` marches every
lapse in B_t, the integral of the lapse, where it is 1.  A step that
leaves one of |Theta_uu|, |Theta_ll|, |Theta_ln|, |Theta_nn| above
``_GUARD`` ends the march.

The seven entries take their arguments by position only.
``rk4_path(y0, dt, n_steps)`` takes ``n_steps`` steps of size ``dt``,
for the fixed-step march, on both backends.  It returns ``(y, steps
done, truncated)``: y is the state the march ends on, as a tuple of 15
floats, which on truncation is the state that tripped the guard.  The
guard reads Theta only, so the caller checks y for an overflowed U.

``march_stop(y, z, s, h, target, tol)`` runs every trial of the
controlled march from s to one stop, ``target``, in one call: y is the
march state at s and z its companion (sequences of 15 floats), h the step
size proposed for the next trial, and tol >= 0 the local error a trial
may keep; a negative or NaN tol, which would reject every trial, raises
ValueError before the first one.  Each trial of size h (the last one
shortened to land on ``target``) takes the whole step from y, the two
half steps from y, whose first k1 is the whole step's, and the local error
max_i |halves_i - whole_i| / max(1, |halves_i|) / 15.  A trial within
tol is accepted: the companion step of size h from z follows, and the
halves and the companion become y and z.  After a trial that does not
land, the next h is 0.9 (tol / error)^(1/5) times its size, clamped to
[1/5, 5] times it (5 times on a zero error); landing keeps the h proposed
before it.  The halves are therefore bit-identical to
``rk4_path(y, h/2, 2)[0]`` and the companion to ``rk4_path(z, h, 1)[0]``.

It returns ``(y, z, s, h, extrapolated, estimate, accepted, rejected,
failed)``: on landing, s is ``target``, extrapolated is y + (y - z)/15 as
a tuple, estimate is max_i |y_i - z_i| / max(1, |y_i|) / 15, accepted and
rejected count the trials, and failed is None.  A failure returns
extrapolated and estimate None, z and h as they stood, and failed
``(leg, tripped)``.  A leg that trips the guard or ends on a state that
is not finite stops the march: leg is "whole", "half 1", "half 2" or
"companion", in the order they run, tripped is False for a state that is
not finite, y is the state the leg ended on and s the one it reached:
s + step/2 for "half 1", s + step for the others.  As in
``rk4_path(y, h/2, 2)``, the first half step fails only on a guard trip.
A trial whose step no longer moves s (s + step == s) is never run: failed
is ``("stall", None)``, with y and s those of the march.

``rk4_path`` is one call of ``_march``, and ``march_stop`` one call of it
per trial.  ``_march`` writes the RK4 step out once, unrolled over
scalars, in a loop over legs: ``n_steps`` plain steps for ``rk4_path``,
the four legs of a trial for ``march_stop``.  It calls no function and
builds no list inside a leg.  The 13 evolving components (Theta_uu,
Theta_ll, Theta_ln, Theta_nn and the nine entries of U) live in locals,
and dt/2, dt/6 and the products of the conserved Theta_ul, Theta_un are
computed outside the step.  Every floating-point operation is the one the
list form performs, in the same order: ``_rhs`` evaluated at y,
y + dt/2 k1, y + dt/2 k2 and y + dt k3, then
y + dt/6 (k1 + 2 k2 + 2 k3 + k4).  The output is therefore bit-identical
to that list form, which ``tests/test_numeric.py`` keeps as its reference.
A sign flip is written -(e), never folded into a subtraction such as
y - dt/2 (e): where the terms cancel, the sum's zero would change sign.

``e12(cells)`` returns ``"%.12e" % x`` for each float x of the sequence
``cells``, as a tuple of strings: the cells of the flow table, which
``cli`` fills into its templates.  Here it formats every cell with one
``%`` over ``"%.12e " * n`` and splits the result, which costs less than a
``%`` per cell; the C kernel computes each cell's digits exactly in
integers.

``reprs(cells)`` returns ``repr(x)`` for each Python float x of the
sequence ``cells``, as a tuple of strings: the cells of the curvature
payload, its shortest round-tripping digits, which ``cli`` fills into its
templates.  Here it maps ``repr`` over the cells, which costs less than
``e12``'s one ``%`` and split; the C kernel finds each cell's shortest
digits exactly in integers.

``cumulative(times, values, at_zero)`` returns the table of a tabulated
lapse, B at every node, as the bytes of n float64s: ``times`` and
``values`` are float64 arrays of n >= 2 nodes, times strictly increasing
with times[0] <= 0 <= times[-1], and ``at_zero`` is the lapse at t = 0,
``np.interp(0.0, times, values)``.  When 0 is no node, the segment holding
it is split there, at the node (0, at_zero).  Each segment's part is
(t_b - t_a) * (v_b + v_a) / 2.0, with a the node below b; the parts are
summed outward from t = 0 in both directions, each sum corrected by the
cumulated rounding error of its additions (``_prefix_sums``), and a node
below 0 takes the negated sum.  B at a node at 0 is 0.0.  Here that is
numpy's ``cumsum`` over the arrays; the C kernel makes one pass from t = 0
to either end, with the same operations in the same order.

``ricci(eta, c, dc0)`` returns ``frames.frame_ricci(eta, c, dc0)``, Ric
and the scalar of each frame of a stack, as the bytes of their float64s:
``eta`` is the diagonal metric, a float64 array of n <= 4 entries, ``c``
the structure constants, a C-contiguous float64 array of shape (..., n,
n, n), and ``dc0`` None or their derivative along X_0, of the same shape.
Every sum starts at 0.0 and adds its terms in index order, the scalar's
too: the products of Ric and diag(1/eta), zeros included, in flat index
order.  A Ricci tensor past the largest float is inf or NaN, with no
warning.  Here that is ``frame_ricci`` itself; the C kernel evaluates one
frame at a time with the same operations in the same order, and gives the
same bytes up to the payload of a NaN.

``residuals(comp, u, theta0)`` returns the residuals of the flow
equations at each state of a stack, ``numeric.flow_residuals``' r1, r2,
r3 and r4, as the bytes of 4 n float64s: all n r1 first, then the r2, r3
and r4.  ``comp`` is a C-contiguous float64 array of shape (n, 6), the
components (uu, ul, un, ll, ln, nn) of Theta_t, ``u`` one of shape (n, 3,
3), the U_t, and ``theta0`` the 6 components of Theta_0.  With
dTheta = ``_theta_rhs(comp)`` and dU = -Theta_t U_t, as ``numeric.ode_rhs``
takes them:

- r1 = max |dU + Theta_t U_t|, the frame evolution;
- r2 = max |f - (g - g^T)|, the structure of dU: f starts at 0.0, takes
  a = U_t Theta_0 added into f[i][c][0], then subtracted from f[i][0][d],
  and g[a][c][d] is (Theta_ab U_bc) U_0d summed over b;
- r3 = max |row u of dTheta U_t + Theta_t dU|, the constancy of
  Theta_t(e_u);
- r4 = |w_l| unless |w_n| > |w_l|, w = row u of Theta_t Theta_t, the
  closedness.

Every sum of products is in index order, (x0 y0 + x1 y1) + x2 y2, with no
multiply and add fused, and never the BLAS; each max keeps a NaN as
``np.max`` does.  No overflow warns.  Here the formulas run as elementwise
numpy over the stack axis; the C kernel takes one state at a time with the
same operations in the same order, and gives the same bytes up to the
payload of a NaN.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .frames import frame_ricci, index_matmul, sym_matrices

_GUARD = 1e12
# the legs of a trial, in the order they run
_TRIAL = ("whole", "half 1", "half 2", "companion")


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


def rk4_path(y0, dt, n_steps, /):
    """March y0 by ``n_steps`` RK4 steps; see the module docstring."""
    return _march(tuple(map(float, y0)), None, float(dt), None, repeat("step", n_steps))


def march_stop(y, z, s, h, target, tol, /):
    """Every trial of the controlled march from s to ``target``; see the
    module docstring."""
    if not tol >= 0:
        raise ValueError(f"march_stop needs tol >= 0, got {tol!r}")
    accepted = rejected = 0
    while s != target:
        land = h >= abs(target - s)
        step = target - s if land else h if target > s else -h
        if s + step == s:
            return y, z, s, h, None, None, accepted, rejected, ("stall", None)
        halves, companion, error, failed = _march(y, z, step, tol, _TRIAL)
        if failed:  # the first half step stops halfway, every other leg at s + step
            s += 0.5 * step if failed[0] == "half 1" else step
            return halves, z, s, h, None, None, accepted, rejected, failed
        if companion is None:  # error > tol
            rejected += 1
        else:
            accepted += 1
            y, z = halves, companion
            s = target if land else s + step
            if land:
                break
        h = abs(step) * (5.0 if error == 0.0 else
                         min(5.0, max(0.2, 0.9 * (tol / error) ** 0.2)))
    extrapolated = tuple(a + (a - b) / 15.0 for a, b in zip(y, z))
    estimate = max(abs(a - b) / max(1.0, abs(a)) for a, b in zip(y, z)) / 15.0
    return y, z, s, h, extrapolated, estimate, accepted, rejected, None


def e12(cells, /):
    """``"%.12e" % x`` for each float x of ``cells``, as a tuple of
    strings; see the module docstring."""
    return tuple(("%.12e " * len(cells) % tuple(cells)).split())


def reprs(cells, /):
    """``repr(x)`` for each float x of ``cells``, as a tuple of strings;
    see the module docstring."""
    return tuple(map(repr, cells))


def cumulative(times, values, at_zero, /):
    """B at every node of the lapse table ``times``, ``values``, as bytes;
    see the module docstring."""
    z = int(np.searchsorted(times, 0.0))
    split = times[z] != 0.0
    if split:
        values = np.insert(values, z, at_zero)
        times = np.insert(times, z, 0.0)
    parts = np.diff(times) * (values[1:] + values[:-1]) / 2.0
    table = np.concatenate((-_prefix_sums(parts[:z][::-1])[::-1], [0.0],
                            _prefix_sums(parts[z:])))
    return (np.delete(table, z) if split else table).tobytes()


def ricci(eta, c, dc0, /):
    """Ric and the scalar of each frame of ``c`` as bytes; see the module
    docstring."""
    with np.errstate(over="ignore", invalid="ignore"):
        ric, scalar = frame_ricci(eta, c, dc0)
    return ric.tobytes(), np.asarray(scalar).tobytes()


def residuals(comp, u, theta0, /):
    """r1, r2, r3 and r4 of each sample as bytes; see the module docstring."""
    th = sym_matrices(comp)
    with np.errstate(over="ignore", invalid="ignore"):
        # r1: frame evolution, dU = -Theta U as ode_rhs takes it
        p = index_matmul(th, u)
        du = -p
        r1 = np.abs(du + p).max(axis=(1, 2))
        # r2: d e^t computed two ways; f takes its += a, then its -= a
        a = index_matmul(u, sym_matrices(theta0))
        f = np.zeros((len(u), 3, 3, 3))
        f[:, :, :, 0] += a
        f[:, :, 0, :] -= a
        # g[a, c, d] = (Theta_ab U_bc) U_0d, summed over b in index order
        row0 = u[:, None, None, 0, :]
        g0, g1, g2 = ((th[:, :, b, None] * u[:, None, b, :])[..., None] * row0
                      for b in range(3))
        g = (g0 + g1) + g2
        g = g - g.transpose(0, 1, 3, 2)
        r2 = np.abs(f - g).max(axis=(1, 2, 3))
        # r3: row u of dTheta U + Theta dU
        v_dot = (index_matmul(sym_matrices(_theta_rhs(comp))[:, :1], u)
                 + index_matmul(th[:, :1], du))
        r3 = np.abs(v_dot).max(axis=(1, 2))
        # r4: |w_l| unless |w_n| > |w_l|, w = Theta_t(e_u) Theta_t
        w = np.abs(index_matmul(th[:, :1], th))[:, 0]
        r4 = np.where(w[:, 2] > w[:, 1], w[:, 2], w[:, 1])
    return np.concatenate((r1, r2, r3, r4)).tobytes()


def _theta_rhs(comp):
    """The shape rows of ``numeric.ode_rhs``: d/ds of the components (uu, ul,
    un, ll, ln, nn) on the last axis of ``comp``, the operations of
    ``_rhs`` in its order."""
    v = comp[..., :3]  # (uu, ul, un)
    dth = np.zeros(comp.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = v * v
        dth[..., 0] = sq[..., 0] + sq[..., 1] + sq[..., 2]
        # (ll, ln, nn) uu - (ul ul, ul un, un un)
        dth[..., 3:] = comp[..., 3:] * v[..., :1] - v[..., [1, 1, 2]] * v[..., [1, 2, 2]]
    return dth


def _prefix_sums(parts):
    """Running sums of ``parts``, each correctly rounded up to a term of
    order n eps^2: np.cumsum, corrected by the cumulated rounding error of
    its additions, each recovered exactly by Knuth's TwoSum."""
    sums = np.cumsum(parts)
    prev = np.concatenate(([0.0], sums[:-1]))
    added = sums - prev
    return sums + np.cumsum((prev - (sums - added)) + (parts - added))


def _march(y, z, h, tol, legs):
    """The RK4 steps of size h from y that ``legs`` names: plain steps
    ("step"), as ``rk4_path`` returns them, or ``_TRIAL``, the trial of
    size h from y and its companion z.  A trial returns ``(halves,
    companion, error, None)``, with companion None when the error exceeds
    tol, or ``(the state a failing leg ended on, None, None, (leg,
    tripped))``."""
    # U is row-major: a*, b*, c* are its rows 0, 1, 2
    uu, ul_s, un_s, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2 = y
    h2 = 0.5 * h  # dt/2 of a step of size h, and the half steps' dt
    h6 = h / 6.0
    d, d2, d6 = h, h2, h6  # the leg's dt, dt/2 and dt/6
    guard, mguard = _GUARD, -_GUARD
    done = 0

    # Theta_ul and Theta_un have zero slope, so every stage point and every
    # step adds a signed zero (dt * 0.0) to them.  That is a no-op except on
    # a zero of the other sign, so the first k1 sees the input values (the
    # *_s names) and everything after sees ul + dt * 0.0, un + dt * 0.0.
    # dt = h and dt = h/2 give that zero the same sign, so all three steps
    # of y in a trial share ul, un.
    ulun_s = ul_s * un_s
    ul = ul_s + h * 0.0
    un = un_s + h * 0.0
    ul2 = ul * ul
    un2 = un * un
    ulun = ul * un

    # Each leg is one RK4 step from the state in the locals, which it
    # overwrites; between legs the locals are set up for the next one.
    for leg in legs:
        if leg != "half 1":  # the first half step shares the whole step's k1
            # k1 at the leg's start
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
        # k2 at start + dt/2 k1
        xuu = uu + d2 * k1uu
        xll = ll + d2 * k1ll
        xln = ln + d2 * k1ln
        xnn = nn + d2 * k1nn
        xa0 = a0 + d2 * k1a0
        xa1 = a1 + d2 * k1a1
        xa2 = a2 + d2 * k1a2
        xb0 = b0 + d2 * k1b0
        xb1 = b1 + d2 * k1b1
        xb2 = b2 + d2 * k1b2
        xc0 = c0 + d2 * k1c0
        xc1 = c1 + d2 * k1c1
        xc2 = c2 + d2 * k1c2
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
        # k3 at start + dt/2 k2
        xuu = uu + d2 * k2uu
        xll = ll + d2 * k2ll
        xln = ln + d2 * k2ln
        xnn = nn + d2 * k2nn
        xa0 = a0 + d2 * k2a0
        xa1 = a1 + d2 * k2a1
        xa2 = a2 + d2 * k2a2
        xb0 = b0 + d2 * k2b0
        xb1 = b1 + d2 * k2b1
        xb2 = b2 + d2 * k2b2
        xc0 = c0 + d2 * k2c0
        xc1 = c1 + d2 * k2c1
        xc2 = c2 + d2 * k2c2
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
        # k4 at start + dt k3
        xuu = uu + d * k3uu
        xll = ll + d * k3ll
        xln = ln + d * k3ln
        xnn = nn + d * k3nn
        xa0 = a0 + d * k3a0
        xa1 = a1 + d * k3a1
        xa2 = a2 + d * k3a2
        xb0 = b0 + d * k3b0
        xb1 = b1 + d * k3b1
        xb2 = b2 + d * k3b2
        xc0 = c0 + d * k3c0
        xc1 = c1 + d * k3c1
        xc2 = c2 + d * k3c2
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
        # start + dt/6 (k1 + 2 k2 + 2 k3 + k4)
        uu = uu + d6 * (k1uu + 2.0 * k2uu + 2.0 * k3uu + k4uu)
        ll = ll + d6 * (k1ll + 2.0 * k2ll + 2.0 * k3ll + k4ll)
        ln = ln + d6 * (k1ln + 2.0 * k2ln + 2.0 * k3ln + k4ln)
        nn = nn + d6 * (k1nn + 2.0 * k2nn + 2.0 * k3nn + k4nn)
        a0 = a0 + d6 * (k1a0 + 2.0 * k2a0 + 2.0 * k3a0 + k4a0)
        a1 = a1 + d6 * (k1a1 + 2.0 * k2a1 + 2.0 * k3a1 + k4a1)
        a2 = a2 + d6 * (k1a2 + 2.0 * k2a2 + 2.0 * k3a2 + k4a2)
        b0 = b0 + d6 * (k1b0 + 2.0 * k2b0 + 2.0 * k3b0 + k4b0)
        b1 = b1 + d6 * (k1b1 + 2.0 * k2b1 + 2.0 * k3b1 + k4b1)
        b2 = b2 + d6 * (k1b2 + 2.0 * k2b2 + 2.0 * k3b2 + k4b2)
        c0 = c0 + d6 * (k1c0 + 2.0 * k2c0 + 2.0 * k3c0 + k4c0)
        c1 = c1 + d6 * (k1c1 + 2.0 * k2c1 + 2.0 * k3c1 + k4c1)
        c2 = c2 + d6 * (k1c2 + 2.0 * k2c2 + 2.0 * k3c2 + k4c2)
        # max(|uu|, |ll|, |ln|, |nn|) > guard; max() would also hide the rest
        # behind a NaN uu, but a step that leaves uu NaN leaves them NaN too
        if (uu > guard or uu < mguard or ll > guard or ll < mguard
                or ln > guard or ln < mguard or nn > guard or nn < mguard):
            tripped = True
            break
        if leg == "step" or leg == "half 1":
            # a plain step, and the first half step as in rk4_path(y, h/2, 2),
            # ends only on a guard trip; the next step's k1 sees ul, un
            done += 1
            ul_s, un_s, ulun_s = ul, un, ulun
            continue
        # x - x is 0.0 for a finite x and NaN otherwise, so the sum is 0.0
        # exactly when the state is finite
        if ((uu - uu) + (ul - ul) + (un - un) + (ll - ll) + (ln - ln)
                + (nn - nn) + (a0 - a0) + (a1 - a1) + (a2 - a2) + (b0 - b0)
                + (b1 - b1) + (b2 - b2) + (c0 - c0) + (c1 - c1)
                + (c2 - c2)) != 0.0:
            tripped = False
            break
        if leg == "whole":
            # keep the whole step; the two half steps of h/2 start from y
            wuu, wll, wln, wnn, wa0, wa1, wa2, wb0, wb1, wb2, wc0, wc1, wc2 = (
                uu, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2)
            uu, ul_s, un_s, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2 = y
            d, d2, d6 = h2, 0.5 * h2, h2 / 6.0
        elif leg == "half 2":
            # max_i |halves_i - whole_i| / max(1, |halves_i|) / 15; Theta_ul
            # and Theta_un are ul and un in both and add zeros to the max
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
                abs(c2 - wc2) / (c2 if c2 > 1.0 else -c2 if c2 < -1.0 else 1.0)
            ) / 15.0
            halves = (uu, ul, un, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2)
            if error > tol:
                return halves, None, error, None
            # the companion step of size h starts from z
            uu, ul_s, un_s, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2 = z
            ulun_s = ul_s * un_s
            ul = ul_s + h * 0.0
            un = un_s + h * 0.0
            ul2 = ul * ul
            un2 = un * un
            ulun = ul * un
            d, d2, d6 = h, h2, h6
        else:  # the companion, the trial's last leg
            return (halves,
                    (uu, ul, un, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2),
                    error, None)
    else:
        # the plain steps are done; ul_s, un_s are the input values
        # until a step is done, ul, un after it
        return ((uu, ul_s, un_s, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2),
                done, False)
    end = (uu, ul, un, ll, ln, nn, a0, a1, a2, b0, b1, b2, c0, c1, c2)
    if leg == "step":
        return end, done + 1, True
    return end, None, None, (leg, tripped)
