/* The kernel in C: the three entries of _kernel_py, with its contract and
   its bits.

   _kernel_py documents the contract and stays the reference: every
   floating-point operation here is the one its _march and march_stop
   perform, in the same order, on the same operands.  march() takes one
   trial, or a run of plain steps, on arrays of doubles; rk4_path() is one
   call of it, and march_stop() loops over its trials up to one stop, with
   no Python object inside the loop.  The 13 evolving components (Theta_uu,
   Theta_ll, Theta_ln, Theta_nn and U row-major) live in arrays in that
   order; the conserved Theta_ul, Theta_un in scalars, as there.  rhs() is
   the statements k1..k4 of a leg, and the loops over the 13 components are
   its stage points and its update, element by element.  The error term
   takes fabs() and keeps the first largest term, as Python's abs() and
   max() do.  numeric builds this file with -ffp-contract=off and without
   fast-math, so that no multiply and add fuse and no operation is
   reordered.

   e12() prints each cell of the flow table as "%.12e" % x does, byte for
   byte, with integer arithmetic in place of dtoa's big numbers (the method
   of Ryu printf, Adams 2019): V = |x| 10^(12 - k) is computed exactly in
   128 bits, its integer part gives the 13 digits and its remainder against
   one half the rounding, half to even, as Gay's dtoa rounds.  The zeros
   take the same path; subnormals, infinities, NaNs, |x| outside [1e-20,
   1e45) and a compiler without __int128 take PyOS_double_to_string,
   Python's own formatter. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define GUARD 1e12
#define N 13

/* where each evolving component sits in the 15-float state */
static const int AT[N] = {0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};

enum { STEP, WHOLE, HALF_1, HALF_2, COMPANION };
static const char *const LEG_NAME[] = {"step", "whole", "half 1", "half 2", "companion"};

/* the slope of the evolving components at x, given Theta_ul, Theta_un as
   p, q, their squares p2, q2 and their product pq */
static inline void
rhs(const double *x, double p, double q, double p2, double q2, double pq, double *k)
{
    double uu = x[0], ll = x[1], ln = x[2], nn = x[3];
    k[0] = uu * uu + p2 + q2;
    k[1] = ll * uu - p2;
    k[2] = ln * uu - pq;
    k[3] = nn * uu - q2;
    for (int j = 0; j < 3; j++) {
        double a = x[4 + j], b = x[7 + j], c = x[10 + j];
        k[4 + j] = -(uu * a + p * b + q * c);
        k[7 + j] = -(p * a + ll * b + ln * c);
        k[10 + j] = -(q * a + ln * b + nn * c);
    }
}

/* the 15 floats of the sequence seq, each read as float() reads it when
   as_float, else as the arithmetic of _kernel_py reads a float; 0 on
   success, -1 with an exception set */
static int
read_state(PyObject *seq, double *out, int as_float)
{
    PyObject *fast = PySequence_Fast(seq, "the state must be a sequence of 15 floats");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n && i < 15; i++) {
        PyObject *item = as_float ? PyNumber_Float(items[i]) : items[i];
        if (item == NULL)
            goto fail;
        out[i] = PyFloat_AsDouble(item);
        if (as_float)
            Py_DECREF(item);
        if (out[i] == -1.0 && PyErr_Occurred())
            goto fail;
    }
    Py_DECREF(fast);
    if (n < 15)
        PyErr_Format(PyExc_ValueError,
                     "not enough values to unpack (expected 15, got %zd)", n);
    else if (n > 15)
        PyErr_SetString(PyExc_ValueError, "too many values to unpack (expected 15)");
    return n == 15 ? 0 : -1;
fail:
    Py_DECREF(fast);
    return -1;
}

/* the state tuple of the 15 floats y */
static PyObject *
state(const double *y)
{
    PyObject *t = PyTuple_New(15);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < 15; i++) {
        PyObject *v = PyFloat_FromDouble(y[i]);
        if (v == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

/* the 15-float state of the evolving components e and Theta_ul, Theta_un */
static void
put(double *y, const double *e, double ul, double un)
{
    for (int i = 0; i < N; i++)
        y[AT[i]] = e[i];
    y[1] = ul;
    y[2] = un;
}

static int
all_finite(const double *e, double ul, double un)
{
    int ok = isfinite(ul) && isfinite(un);
    for (int j = 0; j < N; j++)
        ok &= isfinite(e[j]) != 0;
    return ok;
}

/* how a march() ended */
enum { FINISHED, REJECTED, FAILED };

/* what a march() ended on: y is the last plain step, a trial's halves or
   the state a failing leg ended on, z an accepted trial's companion */
struct run {
    double y[15], z[15];
    double error;    /* a trial's local error, once its halves are taken */
    Py_ssize_t done; /* plain steps done */
    int leg;         /* the leg that failed */
    int tripped;     /* whether it tripped the guard, else it ended on a state not finite */
};

/* _kernel_py._march: n_steps plain steps of size h from y, or with trial
   set the trial of size h from y and its companion from z; FINISHED,
   REJECTED (error > tol) or FAILED, with the rest in r */
static int
march(const double *y, const double *z, double h, double tol, Py_ssize_t n_steps, int trial,
      struct run *r)
{
    double e[N], w[N], x[N], k1[N], k2[N], k3[N], k4[N];
    double ul_s = y[1], un_s = y[2];
    double h2 = 0.5 * h;
    double h6 = h / 6.0;
    double d = h, d2 = h2, d6 = h6;
    int leg = STEP;

    for (int j = 0; j < N; j++)
        e[j] = y[AT[j]];
    double ulun_s = ul_s * un_s;
    double ul = ul_s + h * 0.0;
    double un = un_s + h * 0.0;
    double ul2 = ul * ul;
    double un2 = un * un;
    double ulun = ul * un;
    r->done = 0;

    for (Py_ssize_t i = 0; trial || i < n_steps; i++) {
        if (trial)
            leg = WHOLE + (int)i;
        if (leg != HALF_1)
            rhs(e, ul_s, un_s, ul2, un2, ulun_s, k1);
        for (int j = 0; j < N; j++)
            x[j] = e[j] + d2 * k1[j];
        rhs(x, ul, un, ul2, un2, ulun, k2);
        for (int j = 0; j < N; j++)
            x[j] = e[j] + d2 * k2[j];
        rhs(x, ul, un, ul2, un2, ulun, k3);
        for (int j = 0; j < N; j++)
            x[j] = e[j] + d * k3[j];
        rhs(x, ul, un, ul2, un2, ulun, k4);
        for (int j = 0; j < N; j++)
            e[j] = e[j] + d6 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        if (e[0] > GUARD || e[0] < -GUARD || e[1] > GUARD || e[1] < -GUARD
                || e[2] > GUARD || e[2] < -GUARD || e[3] > GUARD || e[3] < -GUARD) {
            r->tripped = 1;
            goto stopped;
        }
        if (leg == STEP || leg == HALF_1) {
            r->done += 1;
            ul_s = ul;
            un_s = un;
            ulun_s = ulun;
            continue;
        }
        if (!all_finite(e, ul, un)) {
            r->tripped = 0;
            goto stopped;
        }
        if (leg == WHOLE) {
            memcpy(w, e, sizeof e);
            for (int j = 0; j < N; j++)
                e[j] = y[AT[j]];
            ul_s = y[1];
            un_s = y[2];
            d = h2;
            d2 = 0.5 * h2;
            d6 = h2 / 6.0;
        }
        else if (leg == HALF_2) {
            double error = 0.0;
            for (int j = 0; j < N; j++) {
                double v = e[j];
                double term = fabs(v - w[j]) / (v > 1.0 ? v : v < -1.0 ? -v : 1.0);
                if (j == 0 || term > error)
                    error = term;
            }
            r->error = error / 15.0;
            put(r->y, e, ul, un);
            if (r->error > tol)
                return REJECTED;
            for (int j = 0; j < N; j++)
                e[j] = z[AT[j]];
            ul_s = z[1];
            un_s = z[2];
            ulun_s = ul_s * un_s;
            ul = ul_s + h * 0.0;
            un = un_s + h * 0.0;
            ul2 = ul * ul;
            un2 = un * un;
            ulun = ul * un;
            d = h;
            d2 = h2;
            d6 = h6;
        }
        else {
            put(r->z, e, ul, un);
            return FINISHED;
        }
    }
    put(r->y, e, ul_s, un_s);
    return FINISHED;

stopped:
    put(r->y, e, ul, un);
    r->leg = leg;
    r->done += leg == STEP;
    return FAILED;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments but %zd were given",
                 name, want, nargs);
    return 0;
}

static PyObject *
rk4_path(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double y[15], dt;
    if (!check_nargs("rk4_path", nargs, 3) || read_state(args[0], y, 1) < 0)
        return NULL;
    PyObject *f = PyNumber_Float(args[1]);
    if (f == NULL)
        return NULL;
    dt = PyFloat_AS_DOUBLE(f);
    Py_DECREF(f);
    Py_ssize_t n_steps = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (n_steps == -1 && PyErr_Occurred())
        return NULL;
    struct run r;
    int how = march(y, NULL, dt, 0.0, n_steps, 0, &r);
    return Py_BuildValue("(NnO)", state(r.y), r.done, how == FAILED ? Py_True : Py_False);
}

/* the double of the float x in *out; 0 on success, -1 with an exception set */
static int
read_float(PyObject *x, double *out)
{
    *out = PyFloat_AsDouble(x);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* Python's min(5.0, max(0.2, v)): each keeps its first argument unless the
   second is beyond it, so a NaN v gives 0.2 */
static double
clamp(double v)
{
    v = v > 0.2 ? v : 0.2;
    return v < 5.0 ? v : 5.0;
}

static PyObject *
march_stop(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double y[15], z[15], s, h, target, tol;
    Py_ssize_t accepted = 0, rejected = 0;
    struct run r;
    if (!check_nargs("march_stop", nargs, 6) || read_state(args[0], y, 0) < 0
            || read_state(args[1], z, 0) < 0 || read_float(args[2], &s) < 0
            || read_float(args[3], &h) < 0 || read_float(args[4], &target) < 0
            || read_float(args[5], &tol) < 0)
        return NULL;
    if (!(tol >= 0.0)) /* a negative or NaN tol would reject every trial, forever */
        return PyErr_Format(PyExc_ValueError, "march_stop needs tol >= 0, got %R", args[5]);
    while (s != target) {
        int land = h >= fabs(target - s);
        double step = land ? target - s : target > s ? h : -h;
        if (s + step == s)
            return Py_BuildValue("(NNddOOnn(sO))", state(y), state(z), s, h, Py_None,
                                 Py_None, accepted, rejected, "stall", Py_None);
        int how = march(y, z, step, tol, 0, 1, &r);
        if (how == FAILED) {
            s = s + (r.leg == HALF_1 ? 0.5 * step : step);
            return Py_BuildValue("(NNddOOnn(sO))", state(r.y), state(z), s, h, Py_None,
                                 Py_None, accepted, rejected, LEG_NAME[r.leg],
                                 r.tripped ? Py_True : Py_False);
        }
        if (how == REJECTED)
            rejected += 1;
        else {
            accepted += 1;
            memcpy(y, r.y, sizeof y);
            memcpy(z, r.z, sizeof z);
            s = land ? target : s + step;
            if (land)
                break;
        }
        h = fabs(step) * (r.error == 0.0 ? 5.0 : clamp(0.9 * pow(tol / r.error, 0.2)));
    }
    double extrapolated[15], gap = 0.0;
    for (int i = 0; i < 15; i++) {
        double a = fabs(y[i]);
        double term = fabs(y[i] - z[i]) / (a > 1.0 ? a : 1.0);
        if (i == 0 || term > gap)
            gap = term;
        extrapolated[i] = y[i] + (y[i] - z[i]) / 15.0;
    }
    return Py_BuildValue("(NNddNdnnO)", state(y), state(z), s, h, state(extrapolated),
                         gap / 15.0, accepted, rejected, Py_None);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define MAX_J 32 /* m 5^j < 2^53 5^32 < 2^128 */
static u128 POW5[MAX_J + 1];

/* the 13 significant digits of m 2^e2 (2^52 <= m < 2^53) as %.12e rounds
   them, an integer in [10^12, 10^13), with the decimal exponent k of the
   first one; 0 where V = m 2^e2 10^(12 - k) is out of reach, |12 - k| >
   MAX_J.  V is exact: m 5^j shifted for j = 12 - k >= 0, else m 2^s divided
   by 5^-j, with its remainder against one half, so that a tie rounds to
   even as dtoa does. */
static int
digits13(uint64_t m, int e2, uint64_t *q, int *k)
{
    const uint64_t lo = 1000000000000ULL, hi = 10 * lo;
    /* m 2^e2 lies in [2^(e2 + 52), 2^(e2 + 53)): k is this or one more */
    *k = (int)floor((e2 + 52) * 0.30102999566398120);
    for (int tries = 0; tries < 3; tries++) {
        int j = 12 - *k, s = e2 + j, half; /* the rest of V against 1/2: -1, 0 or 1 */
        u128 v;
        if (j > MAX_J || j < -MAX_J)
            return 0;
        if (j >= 0) {
            if (s >= 0 || s <= -128) /* V >= m >= 2^52, or no fraction bits to keep */
                return 0;
            u128 p = (u128)m * POW5[j], rest = p & ((((u128)1) << -s) - 1);
            u128 one_half = ((u128)1) << (-s - 1);
            v = p >> -s;
            half = rest > one_half ? 1 : rest == one_half ? 0 : -1;
        }
        else {
            if (s >= 64 || s <= -48) /* V >= 2^64, or V < 2^53 / 2^48 */
                return 0;
            u128 num = s >= 0 ? (u128)m << s : m, den = s >= 0 ? POW5[-j] : POW5[-j] << -s;
            u128 rest = num % den;
            v = num / den;
            half = rest > den - rest ? 1 : rest == den - rest ? 0 : -1;
        }
        if (v < lo) {
            *k -= 1;
            continue;
        }
        if (v >= hi) {
            *k += 1;
            continue;
        }
        *q = (uint64_t)v + (half > 0 || (half == 0 && (v & 1)));
        if (*q == hi) {
            *q = lo;
            *k += 1;
        }
        return 1;
    }
    return 0;
}
#endif

/* "%.12e" % x */
static PyObject *
format_e12(double x)
{
    uint64_t bits, q = 0;
    int k = 0;
    memcpy(&bits, &x, sizeof bits);
    int neg = (int)(bits >> 63), biased = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    if (biased != 0 || frac != 0) {
        int ok = 0;
#ifdef __SIZEOF_INT128__
        if (biased != 0 && biased != 0x7ff)
            ok = digits13(frac | 1ULL << 52, biased - 1075, &q, &k);
#endif
        if (!ok) { /* subnormals, inf, nan and the far exponents: Python's own path */
            char *text = PyOS_double_to_string(x, 'e', 12, 0, NULL);
            if (text == NULL)
                return NULL;
            PyObject *out = PyUnicode_FromString(text);
            PyMem_Free(text);
            return out;
        }
    }
    /* d.dddddddddddde+kk: |k| <= 45 here, two digits */
    int ak = k < 0 ? -k : k;
    PyObject *out = PyUnicode_New(neg + 18, 127);
    if (out == NULL)
        return NULL;
    char *p = (char *)PyUnicode_1BYTE_DATA(out);
    if (neg)
        *p++ = '-';
    for (int i = 13; i >= 0; i--) { /* from the last digit */
        if (i == 1) {
            p[i] = '.';
            continue;
        }
        p[i] = (char)('0' + q % 10);
        q /= 10;
    }
    p += 14;
    *p++ = 'e';
    *p++ = k < 0 ? '-' : '+';
    *p++ = (char)('0' + ak / 10);
    *p = (char)('0' + ak % 10);
    return out;
}

static PyObject *
e12(PyObject *module, PyObject *cells)
{
    PyObject *fast = PySequence_Fast(cells, "e12() takes a sequence of floats");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    PyObject *out = PyTuple_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        double x = PyFloat_AsDouble(items[i]);
        PyObject *text = x == -1.0 && PyErr_Occurred() ? NULL : format_e12(x);
        if (text == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, text);
    }
    Py_DECREF(fast);
    return out;
}

static PyMethodDef methods[] = {
    {"rk4_path", (PyCFunction)(void (*)(void))rk4_path, METH_FASTCALL,
     "rk4_path(y0, dt, n_steps, /): as _kernel_py.rk4_path."},
    {"march_stop", (PyCFunction)(void (*)(void))march_stop, METH_FASTCALL,
     "march_stop(y, z, s, h, target, tol, /): as _kernel_py.march_stop."},
    {"e12", e12, METH_O, "e12(cells, /): as _kernel_py.e12."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The RK4 kernel of spinorflow in C; see _kernel_py for its contract.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
#ifdef __SIZEOF_INT128__
    POW5[0] = 1;
    for (int j = 1; j <= MAX_J; j++)
        POW5[j] = 5 * POW5[j - 1];
#endif
    return PyModule_Create(&kernel_module);
}
