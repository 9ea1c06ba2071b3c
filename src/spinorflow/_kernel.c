/* The RK4 kernel in C: the two entries of _kernel_py, with its contract and
   its bits.

   _kernel_py documents the contract and stays the reference: every
   floating-point operation here is the one its _march performs, in the same
   order, on the same operands.  The 13 evolving components (Theta_uu,
   Theta_ll, Theta_ln, Theta_nn and U row-major) live in arrays in that
   order; the conserved Theta_ul, Theta_un in scalars, as there.  rhs() is
   the statements k1..k4 of a leg, and the loops over the 13 components are
   its stage points and its update, element by element.  The error term
   takes fabs() and keeps the first largest term, as Python's abs() and
   max() do.  numeric builds this file with -ffp-contract=off and without
   fast-math, so that no multiply and add fuse and no operation is
   reordered. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
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

/* the state tuple of the evolving components e and Theta_ul, Theta_un */
static PyObject *
state(const double *e, double ul, double un)
{
    PyObject *t = PyTuple_New(15);
    if (t == NULL)
        return NULL;
    double y[15];
    for (int i = 0; i < N; i++)
        y[AT[i]] = e[i];
    y[1] = ul;
    y[2] = un;
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

static int
all_finite(const double *e, double ul, double un)
{
    int ok = isfinite(ul) && isfinite(un);
    for (int j = 0; j < N; j++)
        ok &= isfinite(e[j]) != 0;
    return ok;
}

/* _kernel_py._march: n_steps plain steps of size h from y, or with trial
   set the trial of size h from y and its companion from the sequence z */
static PyObject *
march(const double *y, PyObject *z, double h, double tol, Py_ssize_t n_steps, int trial)
{
    double e[N], w[N], x[N], k1[N], k2[N], k3[N], k4[N], zy[15];
    double error = 0.0;
    PyObject *halves = NULL;  /* the trial's result, once its halves are taken */
    double ul_s = y[1], un_s = y[2];
    double h2 = 0.5 * h;
    double h6 = h / 6.0;
    double d = h, d2 = h2, d6 = h6;
    Py_ssize_t done = 0;
    int leg = STEP, tripped;

    for (int j = 0; j < N; j++)
        e[j] = y[AT[j]];
    double ulun_s = ul_s * un_s;
    double ul = ul_s + h * 0.0;
    double un = un_s + h * 0.0;
    double ul2 = ul * ul;
    double un2 = un * un;
    double ulun = ul * un;

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
            tripped = 1;
            goto stopped;
        }
        if (leg == STEP || leg == HALF_1) {
            done += 1;
            ul_s = ul;
            un_s = un;
            ulun_s = ulun;
            continue;
        }
        if (!all_finite(e, ul, un)) {
            tripped = 0;
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
            for (int j = 0; j < N; j++) {
                double v = e[j];
                double term = fabs(v - w[j]) / (v > 1.0 ? v : v < -1.0 ? -v : 1.0);
                if (j == 0 || term > error)
                    error = term;
            }
            error = error / 15.0;
            halves = state(e, ul, un);
            if (halves == NULL || error > tol)
                return Py_BuildValue("(NOdO)", halves, Py_None, error, Py_None);
            if (read_state(z, zy, 0) < 0) {
                Py_DECREF(halves);
                return NULL;
            }
            for (int j = 0; j < N; j++)
                e[j] = zy[AT[j]];
            ul_s = zy[1];
            un_s = zy[2];
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
            return Py_BuildValue("(NNdO)", halves, state(e, ul, un), error, Py_None);
        }
    }
    return Py_BuildValue("(NnO)", state(e, ul_s, un_s), done, Py_False);

stopped:
    Py_XDECREF(halves);
    if (leg == STEP)
        return Py_BuildValue("(NnO)", state(e, ul, un), done + 1, Py_True);
    return Py_BuildValue("(NOO(sO))", state(e, ul, un), Py_None, Py_None,
                         LEG_NAME[leg], tripped ? Py_True : Py_False);
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
    return march(y, NULL, dt, 0.0, n_steps, 0);
}

static PyObject *
doubling_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double y[15], h, tol;
    if (!check_nargs("doubling_step", nargs, 4) || read_state(args[0], y, 0) < 0)
        return NULL;
    h = PyFloat_AsDouble(args[2]);
    if (h == -1.0 && PyErr_Occurred())
        return NULL;
    tol = PyFloat_AsDouble(args[3]);
    if (tol == -1.0 && PyErr_Occurred())
        return NULL;
    return march(y, args[1], h, tol, 0, 1);
}

static PyMethodDef methods[] = {
    {"rk4_path", (PyCFunction)(void (*)(void))rk4_path, METH_FASTCALL,
     "rk4_path(y0, dt, n_steps, /): as _kernel_py.rk4_path."},
    {"doubling_step", (PyCFunction)(void (*)(void))doubling_step, METH_FASTCALL,
     "doubling_step(y, z, h, tol, /): as _kernel_py.doubling_step."},
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
    return PyModule_Create(&kernel_module);
}
