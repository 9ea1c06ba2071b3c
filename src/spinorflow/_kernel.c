/* The kernel in C: seven of the eight entries of _kernel_py, with its
   contract and its bits.  The eighth, rk4_path, the fixed-step march that
   no command runs, is _kernel_py's on both backends: numeric binds it onto
   this module.

   _kernel_py documents the contract and stays the reference.  The march
   here is the list form that tests/test_numeric.py holds both kernels to
   (_list_form_step, _list_form_trial): rhs() is _kernel_py._rhs over the
   15 floats of the state, with zero slope for the conserved Theta_ul and
   Theta_un, and rk4() is one RK4 step, a loop over the 15 floats for each
   stage point and for the update.  trial() takes the whole step, the two
   half steps and the companion of a trial, each leg checked as there, and
   march_stop() loops trial() up to one stop, with no Python object inside
   the loop.  _kernel_py._march unrolls the same operations over scalars
   and gives the same bits: a conserved component's stage point
   y + dt/2 * 0.0 keeps the sign of a zero as _march's bookkeeping does.
   The error term takes fabs() and keeps the first largest term, as
   Python's abs() and max() do.  numeric builds this file with
   -ffp-contract=off and without fast-math, so that no multiply and add
   fuse and no operation is reordered.

   e12() and reprs() print the cells of the flow table as "%.12e" % x does
   and those of the curvature payload as repr(x) does, byte for byte, with
   integer arithmetic in place of dtoa's big numbers.  Both start from one
   exact scaling, digits19(): x / 10^k truncated to 19 digits, with whether
   that is exact, in up to 192 bits with exact powers of five (scaled()).
   e12's 13 digits are the first 13 of these, rounded by the other 6 and
   the exact flag against one half, a tie to even as Gay's dtoa rounds
   (digits13()); repr's shortest digits that read back as x are found by
   Ryu (Adams 2018), the ends of the interval that rounds to x scaled to the
   same 19 digits and digits dropped while the ends differ (shortest()).
   One writer, format_cell(), lays the digits out, straight into a str of
   the cell's length: d.dddddddddddde+XX for %.12e, and float_repr's layout
   for repr, plain for 1e-4 <= |x| < 1e16 with ".0" on an integral value,
   else d.ddde+XX.  The zeros are shared strings.  Both printers reach |x| in [2^-122, 2^155) (about [1.9e-37,
   4.6e46)), the reach of scaled(); subnormals, infinities, NaNs, the far
   exponents, two shortest candidates equally near x and a compiler
   without __int128 take PyOS_double_to_string, Python's own formatter,
   which leaves dtoa's tie rule to dtoa.

   cumulative() builds the table of a tabulated lapse, B at every node, in
   one pass outward from t = 0 to either end: each segment's trapezoid part,
   then its compensated running sum, each the operations of _kernel_py's
   numpy form in their order, so the bytes are the same.

   ricci() evaluates frames.frame_ricci, whose einsums _kernel_py runs, on
   each frame of a stack in turn, with its operations in their order: the
   connection, then each entry of R^a_{abc} as (s1 - s2) - s3 plus its
   derivative term, then their sum over a.  Each of these sums starts at
   0.0 and adds its terms in index order, the products with the structural
   zeros and with the zero entries of diag(1/eta) included, so an infinity
   times a zero gives NaN and every zero its sign as numpy gives them.  The
   scalar is such a sum too, over the n n entries of Ric diag(1/eta) in
   flat index order (trace()).

   residuals() evaluates the flow residuals r1-r4 of each sample of a
   stack, the formulas that _kernel_py writes as elementwise numpy over the
   stack, in their order.  Every sum of products is written in index order,
   (x0 y0 + x1 y1) + x2 y2 (product()), and no multiply and add fuse, so
   the bits depend on no BLAS and no CPU.  Each maximum keeps a NaN, as
   np.max does (max_nan()).

   floats() images a decoded list of JSON numbers in one pass: the bytes
   of struct.pack("d") of each entry, as PyFloat_AsDouble reads it, with
   whether one is a bool and whether every |x| < 2^63.

   cumulative(), ricci() and residuals() read their arrays through one
   read_doubles(), which checks each array's type and number of axes and
   releases the buffers it has read when a later one fails; each entry
   releases them all with one release() on its way out. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define GUARD 1e12

enum { WHOLE, HALF_1, HALF_2, COMPANION };
static const char *const LEG_NAME[] = {"whole", "half 1", "half 2", "companion"};

/* _kernel_py._rhs: the slope at the state y, zero for Theta_ul, Theta_un */
static inline void
rhs(const double *y, double *k)
{
    double uu = y[0], ul = y[1], un = y[2], ll = y[3], ln = y[4], nn = y[5];
    k[0] = uu * uu + ul * ul + un * un;
    k[1] = k[2] = 0.0;
    k[3] = ll * uu - ul * ul;
    k[4] = ln * uu - ul * un;
    k[5] = nn * uu - un * un;
    for (int j = 0; j < 3; j++) {
        double a = y[6 + j], b = y[9 + j], c = y[12 + j];
        k[6 + j] = -(uu * a + ul * b + un * c);
        k[9 + j] = -(ul * a + ll * b + ln * c);
        k[12 + j] = -(un * a + ln * b + nn * c);
    }
}

/* one RK4 step of size dt from y into out, which may be y */
static inline void
rk4(const double *y, double dt, double *out)
{
    double k1[15], k2[15], k3[15], k4[15], x[15];
    rhs(y, k1);
    for (int i = 0; i < 15; i++)
        x[i] = y[i] + 0.5 * dt * k1[i];
    rhs(x, k2);
    for (int i = 0; i < 15; i++)
        x[i] = y[i] + 0.5 * dt * k2[i];
    rhs(x, k3);
    for (int i = 0; i < 15; i++)
        x[i] = y[i] + dt * k3[i];
    rhs(x, k4);
    for (int i = 0; i < 15; i++)
        out[i] = y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
}

/* the guard: |Theta_uu|, |Theta_ll|, |Theta_ln| or |Theta_nn| past GUARD;
   a NaN does not trip it */
static int
past_guard(const double *y)
{
    return fabs(y[0]) > GUARD || fabs(y[3]) > GUARD || fabs(y[4]) > GUARD
        || fabs(y[5]) > GUARD;
}

static int
all_finite(const double *y)
{
    for (int i = 0; i < 15; i++)
        if (!isfinite(y[i]))
            return 0;
    return 1;
}

/* entry i of the n entries of the list or tuple fast, held for
   PyFloat_AsDouble to read.  An exact int, a bool or a float runs no
   Python code there.  From the first other entry on, every entry is read
   from *rest, a copy of fast from that entry (*from) on, which holds each
   entry while its __float__ runs and keeps the sequence as it stood at the
   call, whatever that code does to it.  NULL with an exception set where
   the copy fails; the caller releases *rest */
static inline PyObject *
held_item(PyObject *fast, Py_ssize_t i, Py_ssize_t n, PyObject **rest, Py_ssize_t *from)
{
    if (*rest != NULL)
        return PySequence_Fast_ITEMS(*rest)[i - *from];
    PyObject *x = PySequence_Fast_ITEMS(fast)[i];
    if (PyFloat_Check(x) || PyLong_CheckExact(x) || PyBool_Check(x))
        return x;
    *rest = PyList_Check(fast) ? PyList_GetSlice(fast, *from = i, n)
                               : PyTuple_GetSlice(fast, *from = i, n);
    if (*rest == NULL)
        return NULL;
    return PySequence_Fast_ITEMS(*rest)[0];
}

/* the 15 floats of the sequence seq, each read as the arithmetic of
   _kernel_py reads a float; 0 on success, -1 with an exception set */
static int
read_state(PyObject *seq, double *out)
{
    PyObject *fast = PySequence_Fast(seq, "the state must be a sequence of 15 floats");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast), from = 0;
    PyObject *rest = NULL, *x;
    for (Py_ssize_t i = 0; i < n && i < 15; i++) {
        if ((x = held_item(fast, i, n, &rest, &from)) == NULL
                || ((out[i] = PyFloat_AsDouble(x)) == -1.0 && PyErr_Occurred())) {
            Py_XDECREF(rest);
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_XDECREF(rest);
    Py_DECREF(fast);
    if (n < 15)
        PyErr_Format(PyExc_ValueError,
                     "not enough values to unpack (expected 15, got %zd)", n);
    else if (n > 15)
        PyErr_SetString(PyExc_ValueError, "too many values to unpack (expected 15)");
    return n == 15 ? 0 : -1;
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

/* the trial of size h from y, as _list_form_trial: the halves go to out,
   their local error to *error and, within tol, the companion step from z
   to comp.  A leg that trips the guard, or ends on a state that is not
   finite, stops the trial (the first half step only on a guard trip): its
   state goes to out, *tripped says which, and its leg is returned; -1 when
   no leg failed. */
static int
trial(const double *y, const double *z, double h, double tol, double *out, double *comp,
      double *error, int *tripped)
{
    double whole[15], e = 0.0;
    rk4(y, h, whole);
    if ((*tripped = past_guard(whole)) || !all_finite(whole)) {
        memcpy(out, whole, sizeof whole);
        return WHOLE;
    }
    rk4(y, 0.5 * h, out);
    if ((*tripped = past_guard(out)))
        return HALF_1;
    rk4(out, 0.5 * h, out);
    if ((*tripped = past_guard(out)) || !all_finite(out))
        return HALF_2;
    for (int i = 0; i < 15; i++) {
        double a = fabs(out[i]);
        double term = fabs(out[i] - whole[i]) / (a > 1.0 ? a : 1.0);
        if (i == 0 || term > e)
            e = term;
    }
    *error = e / 15.0;
    if (*error > tol)
        return -1;
    rk4(z, h, comp);
    if ((*tripped = past_guard(comp)) || !all_finite(comp)) {
        memcpy(out, comp, 15 * sizeof *comp);
        return COMPANION;
    }
    return -1;
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
    double y[15], z[15], halves[15], companion[15], s, h, target, tol, error;
    Py_ssize_t accepted = 0, rejected = 0;
    if (!check_nargs("march_stop", nargs, 6) || read_state(args[0], y) < 0
            || read_state(args[1], z) < 0 || read_float(args[2], &s) < 0
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
        int tripped, leg = trial(y, z, step, tol, halves, companion, &error, &tripped);
        if (leg >= 0) {
            s = s + (leg == HALF_1 ? 0.5 * step : step);
            return Py_BuildValue("(NNddOOnn(sO))", state(halves), state(z), s, h, Py_None,
                                 Py_None, accepted, rejected, LEG_NAME[leg],
                                 tripped ? Py_True : Py_False);
        }
        if (error > tol)
            rejected += 1;
        else {
            accepted += 1;
            memcpy(y, halves, sizeof y);
            memcpy(z, companion, sizeof z);
            s = land ? target : s + step;
            if (land)
                break;
        }
        h = fabs(step) * (error == 0.0 ? 5.0 : clamp(0.9 * pow(tol / error, 0.2)));
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

/* PyBuffer_Release() of the first n views */
static void
release(Py_buffer *views, int n)
{
    while (n-- > 0)
        PyBuffer_Release(&views[n]);
}

/* the double buffers of the n C-contiguous float64 arrays x[i], each of
   axes[i][0] to axes[i][1] axes, in views[i]; 0 on success, -1 with an
   exception set and no view held, a TypeError with message on a wrong type
   or number of axes */
static int
read_doubles(PyObject *const *x, int n, const int (*axes)[2], const char *message,
             Py_buffer *views)
{
    for (int i = 0; i < n; i++) {
        Py_buffer *view = &views[i];
        if (PyObject_GetBuffer(x[i], view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
            release(views, i);
            return -1;
        }
        if (view->ndim < axes[i][0] || view->ndim > axes[i][1]
                || view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0) {
            release(views, i + 1);
            PyErr_SetString(PyExc_TypeError, message);
            return -1;
        }
    }
    return 0;
}

/* one term of _kernel_py._prefix_sums: p added to the running sum *sum and
   its correction *fix (first: p is the first term, the sums are p and its
   rounding error from 0.0); returns the corrected sum */
static inline double
prefix_sum(double p, double *sum, double *fix, int first)
{
    double prev = first ? 0.0 : *sum, s = first ? p : prev + p, added = s - prev;
    double error = (prev - (s - added)) + (p - added);
    *fix = first ? error : *fix + error;
    *sum = s;
    return s + *fix;
}

/* the table of the n nodes t, v, z the first with t[z] >= 0: outward from
   the node at 0, t[z] or the split point (0, at_zero), first to the nodes
   above it, then to those below it, negated; tp, vp is the node before,
   nearer 0 */
static void
fill_table(const double *t, const double *v, Py_ssize_t n, Py_ssize_t z, double at_zero,
           double *out)
{
    int split = t[z] != 0.0;
    double t0 = split ? 0.0 : t[z], v0 = split ? at_zero : v[z], tp = t0, vp = v0;
    double sum = 0.0, fix = 0.0;
    if (!split)
        out[z] = 0.0;
    for (Py_ssize_t i = z + !split; i < n; i++) {
        out[i] = prefix_sum((t[i] - tp) * (v[i] + vp) / 2.0, &sum, &fix, i == z + !split);
        tp = t[i], vp = v[i];
    }
    tp = t0, vp = v0;
    for (Py_ssize_t i = z - 1; i >= 0; i--) {
        out[i] = -prefix_sum((tp - t[i]) * (vp + v[i]) / 2.0, &sum, &fix, i == z - 1);
        tp = t[i], vp = v[i];
    }
}

#define TABLE_TYPE "cumulative() takes 1D float64 arrays"

static PyObject *
cumulative(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const int axes[][2] = {{1, 1}, {1, 1}};
    Py_buffer b[2]; /* times and values */
    const Py_buffer *t = b, *v = b + 1;
    double at_zero;
    if (!check_nargs("cumulative", nargs, 3) || read_float(args[2], &at_zero) < 0
            || read_doubles(args, 2, axes, TABLE_TYPE, b) < 0)
        return NULL;
    Py_ssize_t n = t->len / (Py_ssize_t)sizeof(double), z = 0;
    const double *times = t->buf;
    while (z < n && times[z] < 0.0) /* np.searchsorted(times, 0.0) */
        z++;
    PyObject *out = NULL;
    if (v->len != t->len || n < 2 || z == n)
        PyErr_SetString(PyExc_ValueError,
                        "cumulative() needs times and values of n >= 2 nodes, "
                        "times[0] <= 0 <= times[-1]");
    else if ((out = PyBytes_FromStringAndSize(NULL, t->len)) != NULL)
        fill_table(times, v->buf, n, z, at_zero, (double *)PyBytes_AS_STRING(out));
    release(b, 2);
    return out;
}

/* floats(): the bytes struct.pack("d") makes of each entry of a list, with
   whether one is a bool and whether every |x| < 2^63, which a NaN is not;
   None where PyFloat_AsDouble, which struct calls, refuses an entry.  The
   entries are held as held_item() holds them, so the list is read as
   struct.pack(*items) sees it */
static PyObject *
floats(PyObject *module, PyObject *items)
{
    if (!PyList_Check(items)) {
        PyErr_SetString(PyExc_TypeError, "floats() takes a list");
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(items), from = 0;
    PyObject *data = PyBytes_FromStringAndSize(NULL, n * (Py_ssize_t)sizeof(double));
    PyObject *rest = NULL;
    if (data == NULL)
        return NULL;
    double *out = (double *)PyBytes_AS_STRING(data);
    int has_bool = 0, within = 1;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *x = held_item(items, i, n, &rest, &from);
        if (x == NULL) {
            Py_DECREF(data);
            return NULL;
        }
        if (PyFloat_Check(x)) {
            out[i] = PyFloat_AS_DOUBLE(x);
        } else {
            has_bool |= PyBool_Check(x);
            if ((out[i] = PyFloat_AsDouble(x)) == -1.0 && PyErr_Occurred()) {
                PyErr_Clear(); /* struct.error: "required argument is not a float" */
                Py_XDECREF(rest);
                Py_DECREF(data);
                Py_RETURN_NONE;
            }
        }
        within &= fabs(out[i]) < 9223372036854775808.0;
    }
    Py_XDECREF(rest);
    return Py_BuildValue("(NOO)", data, has_bool ? Py_True : Py_False,
                         within ? Py_True : Py_False);
}

/* ricci(): frames.frame_ricci of each frame of a stack, its operations in
   their order.  n is the dimension, at most MAX_DIM, and IX the index of
   entry [a][b][d] of an n x n x n block */
#define MAX_DIM 4
#define IX(a, b, d) (((a) * n + (b)) * n + (d))

/* om[a][b][e], nabla_a X_b = om X_e, of the structure constants c:
   frames.levi_civita of eta[a] c[a][b][d], then the sum over d of its
   [a][b][d] times inv[d][e], the entries of diag(1/eta) */
static void
connection(int n, const double *eta, const double *inv, const double *c, double *om)
{
    double lc[MAX_DIM * MAX_DIM * MAX_DIM], low[MAX_DIM * MAX_DIM * MAX_DIM];
    for (int i = 0; i < n * n * n; i++)
        lc[i] = eta[i / (n * n)] * c[i];
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            for (int d = 0; d < n; d++)
                low[IX(a, b, d)] = 0.5 * ((lc[IX(d, a, b)] - lc[IX(a, b, d)]) + lc[IX(b, d, a)]);
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            for (int e = 0; e < n; e++) {
                double s = 0.0;
                for (int d = 0; d < n; d++)
                    s += low[IX(a, b, d)] * inv[d * n + e];
                om[IX(a, b, e)] = s;
            }
}

/* the scalar: 0.0 plus ric[i] inv[i] over the m = n n entries, added in
   index order */
static double
trace(int m, const double *ric, const double *inv)
{
    double s = 0.0;
    for (int i = 0; i < m; i++)
        s += ric[i] * inv[i];
    return s;
}

/* Ric and the scalar of the frame with structure constants c and, unless
   dc is NULL, their derivative dc along X_0: each sum starts at 0.0 and
   adds its terms in index order, products with zeros included, as
   frame_ricci's einsums do */
static void
ricci_frame(int n, const double *eta, const double *inv, const double *c, const double *dc,
            double *ric, double *scalar)
{
    double om[MAX_DIM * MAX_DIM * MAX_DIM], dom[MAX_DIM * MAX_DIM * MAX_DIM];
    connection(n, eta, inv, c, om);
    if (dc != NULL)
        connection(n, eta, inv, dc, dom);
    for (int i = 0; i < n * n; i++)
        ric[i] = 0.0;
    /* Ric_bk = sum over a of R^a_{abk}, added as a runs */
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            for (int k = 0; k < n; k++) {
                double s1 = 0.0, s2 = 0.0, s3 = 0.0;
                for (int e = 0; e < n; e++) {
                    s1 += om[IX(b, k, e)] * om[IX(a, e, a)];
                    s2 += om[IX(a, k, e)] * om[IX(b, e, a)];
                    s3 += c[IX(e, a, b)] * om[IX(e, k, a)];
                }
                double r = (s1 - s2) - s3;
                if (dc != NULL) { /* every entry adds its derivative term, 0.0 too */
                    double deriv = 0.0;
                    if (a == 0)
                        deriv += dom[IX(b, k, 0)];
                    if (b == 0)
                        deriv -= dom[IX(a, k, a)];
                    r += deriv;
                }
                ric[b * n + k] += r;
            }
    *scalar = trace(n * n, ric, inv);
}

#define RICCI_TYPE "ricci() takes float64 arrays: eta 1D, c and dc0 of 3 or more axes"

static PyObject *
ricci(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const int axes[][2] = {{1, 1}, {3, INT_MAX}, {3, INT_MAX}};
    Py_buffer b[3]; /* eta, c and, unless dc0 is None, dc0 */
    const Py_buffer *e = b, *c = b + 1, *d = b + 2;
    int has_d = nargs == 3 && args[2] != Py_None;
    if (!check_nargs("ricci", nargs, 3)
            || read_doubles(args, 2 + has_d, axes, RICCI_TYPE, b) < 0)
        return NULL;
    Py_ssize_t n = e->shape[0];
    int fits = n >= 1 && n <= MAX_DIM;
    for (int i = c->ndim - 3; i < c->ndim; i++)
        fits = fits && c->shape[i] == n;
    if (has_d) {
        fits = fits && d->ndim == c->ndim;
        for (int i = 0; fits && i < c->ndim; i++)
            fits = d->shape[i] == c->shape[i];
    }
    PyObject *ric = NULL, *scalars = NULL, *out = NULL;
    if (!fits)
        PyErr_SetString(PyExc_ValueError, "ricci() needs eta of n <= 4 entries, c of shape "
                                          "(..., n, n, n) and dc0 None or of c's shape");
    else {
        Py_ssize_t block = n * n * n, frames = c->len / (block * (Py_ssize_t)sizeof(double));
        ric = PyBytes_FromStringAndSize(NULL, frames * n * n * (Py_ssize_t)sizeof(double));
        scalars = PyBytes_FromStringAndSize(NULL, frames * (Py_ssize_t)sizeof(double));
        if (ric != NULL && scalars != NULL) {
            const double *eta = e->buf, *cs = c->buf, *ds = has_d ? d->buf : NULL;
            double inv[MAX_DIM * MAX_DIM], *rs = (double *)PyBytes_AS_STRING(ric);
            double *ss = (double *)PyBytes_AS_STRING(scalars);
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    inv[i * n + j] = i == j ? 1.0 / eta[i] : 0.0;
            for (Py_ssize_t f = 0; f < frames; f++)
                ricci_frame((int)n, eta, inv, cs + f * block, ds ? ds + f * block : NULL,
                            rs + f * n * n, ss + f);
            out = PyTuple_Pack(2, ric, scalars);
        }
    }
    Py_XDECREF(ric);
    Py_XDECREF(scalars);
    release(b, 2 + has_d);
    return out;
}

/* residuals(): numeric._residuals' r1-r4 of each sample.  SYM3 is the
   entry [i][j] of a symmetric 3x3 matrix in its components (uu, ul, un, ll,
   ln, nn) */
static const int SYM3[9] = {0, 1, 2, 1, 3, 4, 2, 4, 5};

/* entry [i][j] of x y, of 3x3 matrices row by row, summed in index order */
static inline double
product(const double *x, const double *y, int i, int j)
{
    return (x[3 * i] * y[j] + x[3 * i + 1] * y[3 + j]) + x[3 * i + 2] * y[6 + j];
}

/* np.max's step: x when it is NaN or above m, else m, so a NaN stays */
static inline double
max_nan(double m, double x)
{
    return x > m || isnan(x) ? x : m;
}

/* r[0], r[n], r[2n], r[3n]: r1-r4 of the sample with components comp and
   U_t u, for Theta_0 of the matrix th0 */
static void
residuals_of(const double *comp, const double *u, const double *th0, Py_ssize_t n,
             double *r)
{
    double uu = comp[0], ul = comp[1], un = comp[2], dth[6], th[9], d[9], du[9], a[9];
    double g[27], r1 = 0.0, r2 = 0.0, r3 = 0.0;
    /* _theta_rhs, and dU = -Theta U as ode_rhs takes it */
    dth[0] = (uu * uu + ul * ul) + un * un;
    dth[1] = dth[2] = 0.0;
    dth[3] = comp[3] * uu - ul * ul;
    dth[4] = comp[4] * uu - ul * un;
    dth[5] = comp[5] * uu - un * un;
    for (int k = 0; k < 9; k++) {
        th[k] = comp[SYM3[k]];
        d[k] = dth[SYM3[k]];
    }
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++) {
            double p = product(th, u, i, j);
            du[3 * i + j] = -p;
            r1 = max_nan(r1, fabs(du[3 * i + j] + p));
            a[3 * i + j] = product(u, th0, i, j);
        }
    /* g[a][c][e] = (Theta_ab U_bc) U_0e, summed over b in index order */
    for (int i = 0; i < 3; i++)
        for (int c = 0; c < 3; c++)
            for (int e = 0; e < 3; e++)
                g[9 * i + 3 * c + e] = ((th[3 * i] * u[c]) * u[e]
                                        + (th[3 * i + 1] * u[3 + c]) * u[e])
                                       + (th[3 * i + 2] * u[6 + c]) * u[e];
    for (int i = 0; i < 3; i++)
        for (int c = 0; c < 3; c++)
            for (int e = 0; e < 3; e++) {
                double f = 0.0; /* its += a, then its -= a */
                if (e == 0)
                    f += a[3 * i + c];
                if (c == 0)
                    f -= a[3 * i + e];
                double dg = g[9 * i + 3 * c + e] - g[9 * i + 3 * e + c];
                r2 = max_nan(r2, fabs(f - dg));
            }
    for (int j = 0; j < 3; j++)
        r3 = max_nan(r3, fabs(product(d, u, 0, j) + product(th, du, 0, j)));
    double wl = fabs(product(th, th, 0, 1)), wn = fabs(product(th, th, 0, 2));
    r[0] = r1;
    r[n] = r2;
    r[2 * n] = r3;
    r[3 * n] = wn > wl ? wn : wl;
}

#define RESIDUALS_TYPE "residuals() takes float64 arrays: comp 2D, u 3D, theta0 1D"

static PyObject *
residuals(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const int axes[][2] = {{2, 2}, {3, 3}, {1, 1}};
    Py_buffer b[3]; /* comp, u and theta0 */
    const Py_buffer *c = b, *u = b + 1, *t = b + 2;
    if (!check_nargs("residuals", nargs, 3)
            || read_doubles(args, 3, axes, RESIDUALS_TYPE, b) < 0)
        return NULL;
    Py_ssize_t n = c->shape[0];
    PyObject *out = NULL;
    if (c->shape[1] != 6 || u->shape[0] != n || u->shape[1] != 3 || u->shape[2] != 3
            || t->shape[0] != 6)
        PyErr_SetString(PyExc_ValueError, "residuals() needs comp of shape (n, 6), u of "
                                          "shape (n, 3, 3) and theta0 of 6 components");
    else if ((out = PyBytes_FromStringAndSize(NULL, 4 * n * (Py_ssize_t)sizeof(double)))
             != NULL) {
        const double *comps = c->buf, *us = u->buf, *t0 = t->buf;
        double th0[9], *r = (double *)PyBytes_AS_STRING(out);
        for (int k = 0; k < 9; k++)
            th0[k] = t0[SYM3[k]];
        for (Py_ssize_t i = 0; i < n; i++)
            residuals_of(comps + 6 * i, us + 9 * i, th0, n, r + i);
    }
    release(b, 3);
    return out;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define MAX_P5 55 /* 5^55 < 2^128 */
static u128 POW5[MAX_P5 + 1];

/* floor(w 2^e / 10^k) for w < 2^56 in *v, and in *exact whether it is
   exact; 0 where that is out of reach.  For k <= 0 it is w 5^-k, a product
   of up to 192 bits, top:p0, shifted by e - k; for k > 0, which holds only
   past 1e18 where e > k, w 2^(e - k) divided by 5^k. */
static int
scaled(uint64_t w, int e, int k, u128 *v, int *exact)
{
    int s = e - k;
    if (k > 0) {
        if (k > MAX_P5 || s < 0 || s > 72)
            return 0;
        u128 num = (u128)w << s;
        *v = num / POW5[k];
        *exact = *v * POW5[k] == num;
        return 1;
    }
    if (-k > MAX_P5)
        return 0;
    u128 lo = (u128)w * (uint64_t)POW5[-k], hi = (u128)w * (uint64_t)(POW5[-k] >> 64);
    u128 mid = (lo >> 64) + (uint64_t)hi;
    uint64_t p0 = (uint64_t)lo, p2 = (uint64_t)(hi >> 64) + (uint64_t)(mid >> 64);
    u128 top = (u128)p2 << 64 | (uint64_t)mid; /* the product less its word p0 */
    if (s >= 0) {
        if (s > 8 || top >> (56 - s) != 0)
            return 0;
        *v = (top << 64 | p0) << s;
        *exact = 1;
    }
    else if (s > -64) {
        if (p2 >> -s != 0)
            return 0;
        *v = top << (64 + s) | p0 >> -s;
        *exact = p0 << (64 + s) == 0;
    }
    else {
        if (s <= -192)
            return 0;
        *v = top >> (-s - 64);
        *exact = p0 == 0 && (top & ((((u128)1) << (-s - 64)) - 1)) == 0;
    }
    return 1;
}

/* x = m 2^e2 (2^52 <= m < 2^53) at 19 digits: floor(x / 10^k) in
   [10^18, 10^19) in *v, with k, and in *exact whether it is exact; 0
   outside [2^-122, 2^155), where scaled() is out of reach.  x is scaled as
   4 m 2^(e2 - 2), the form in which shortest() scales the ends of its
   interval. */
static int
digits19(uint64_t m, int e2, uint64_t *v, int *k, int *exact)
{
    u128 w;
    /* x lies in [10^f, 2 10^(f + 1)): x / 10^k in [10^18, 2 10^19) */
    *k = (int)floor((e2 + 52) * 0.30102999566398120) - 18;
    if (!scaled(4 * m, e2 - 2, *k, &w, exact)
            || (w >= 10000000000000000000ULL && !scaled(4 * m, e2 - 2, ++*k, &w, exact)))
        return 0;
    *v = (uint64_t)w;
    return 1;
}

/* the 13 significant digits of m 2^e2 as %.12e rounds them, an integer in
   [10^12, 10^13), with the decimal exponent of the last; 0 out of reach.
   They are the first 13 of the 19 digits, rounded by the other 6 and
   whether the 19 are exact against one half, a tie to even as dtoa
   rounds. */
static int
digits13(uint64_t m, int e2, uint64_t *q, int *exp10)
{
    uint64_t v, rest;
    int exact;
    if (!digits19(m, e2, &v, exp10, &exact))
        return 0;
    *q = v / 1000000, rest = v % 1000000, *exp10 += 6;
    *q += rest > 500000 || (rest == 500000 && (!exact || (*q & 1)));
    if (*q == 10000000000000ULL) /* 9.9999999999995 carries into the next power of ten */
        *q /= 10, ++*exp10;
    return 1;
}

/* the shortest digits that read back as m 2^e2 (2^52 <= m < 2^53), as Ryu
   finds them (Adams 2018), with the decimal exponent of the last digit; 0
   where they are out of reach or two shortest candidates are equally near,
   where dtoa's own rule decides.  The ends of the interval that rounds to
   x, x -+ 1/2 ulp (the lower gap halved at m = 2^52 past the first
   binade), count iff m is even, as in dtoa.  The ends are taken exactly at
   x's 19 digits, with whether each is exact, and Ryu's general loop drops
   digits while the ends still differ. */
static int
shortest(uint64_t m, int e2, int half_gap, uint64_t *digits, int *exp10)
{
    int even = !(m & 1), x_exact, up_exact, low_exact;
    uint64_t r;
    u128 up, low;
    if (!digits19(m, e2, &r, exp10, &x_exact)
            || !scaled(4 * m + 2, e2 - 2, *exp10, &up, &up_exact)
            || !scaled(4 * m - 1 - !half_gap, e2 - 2, *exp10, &low, &low_exact))
        return 0;
    /* x, its ends and the digits dropped: all below 2^64 from here */
    uint64_t p = (uint64_t)up - (!even && up_exact), lo = (uint64_t)low;
    int lo_zeros = even && low_exact, r_zeros = x_exact, last = 0;
    /* while the ends differ past the next digit, and then while an exact
       lower end that counts has another zero to drop */
    while (p / 10 > lo / 10 || (lo_zeros && lo % 10 == 0)) {
        lo_zeros &= lo % 10 == 0;
        r_zeros &= last == 0;
        last = (int)(r % 10);
        r /= 10, p /= 10, lo /= 10, ++*exp10;
    }
    if (r_zeros && last == 5)
        return 0;
    r += (r == lo && !lo_zeros) || last >= 5;
    for (; r % 10 == 0; r /= 10)
        ++*exp10;
    *digits = r;
    return 1;
}
#endif

/* the zero cells, shared: ZEROS[0] "0.0" and "-0.0" for repr, ZEROS[1]
   "0.000000000000e+00" and "-0.000000000000e+00" for %.12e */
static PyObject *ZEROS[2][2];

/* the n digits of d from p on, with a '.' after the first dot of them
   unless dot >= n; returns the end */
static char *
put_digits(char *p, uint64_t d, int n, int dot)
{
    for (int i = n - 1; i >= 0; i--, d /= 10) /* from the last digit */
        p[i + (i >= dot)] = (char)('0' + d % 10);
    if (dot < n)
        p[dot] = '.';
    return p + n + (dot < n);
}

/* "%.12e" % x if e12, else repr(x): the digits of digits13() or shortest()
   laid out as %.12e always does, d.dddddddddddde+XX, and as float_repr
   does, plain for 1e-4 <= |x| < 1e16 with ".0" on an integral value, else
   d.ddde+XX, each written once, straight into the str of its length */
static PyObject *
format_cell(double x, int e12)
{
    uint64_t bits, d = 0;
    int exp10 = 0, ok = 0;
    memcpy(&bits, &x, sizeof bits);
    int neg = (int)(bits >> 63), biased = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    if (biased == 0 && frac == 0)
        return Py_NewRef(ZEROS[e12][neg]);
#ifdef __SIZEOF_INT128__
    if (biased != 0 && biased != 0x7ff)
        ok = e12 ? digits13(frac | 1ULL << 52, biased - 1075, &d, &exp10)
                 : shortest(frac | 1ULL << 52, biased - 1075, frac == 0 && biased > 1, &d,
                            &exp10);
#endif
    if (!ok) { /* subnormals, inf, nan, the far exponents and repr's ties */
        char *text = PyOS_double_to_string(x, e12 ? 'e' : 'r', e12 ? 12 : 0,
                                           e12 ? 0 : Py_DTSF_ADD_DOT_0, NULL);
        if (text == NULL)
            return NULL;
        PyObject *out = PyUnicode_FromString(text);
        PyMem_Free(text);
        return out;
    }
    int n = e12 ? 13 : 1; /* 13 digits from digits13(), 1 to 17 from shortest() */
    for (uint64_t t = d / 10; !e12 && t != 0; t /= 10)
        n++;
    int point = exp10 + n, e = point - 1; /* x = 0.(digits) 10^point */
    int sci = e12 || point <= -4 || point > 16, ae = e < 0 ? -e : e;
    PyObject *out = PyUnicode_New(neg + (sci ? n + (n > 1) + 4 + (ae >= 100)
                                         : point <= 0 ? 2 - point + n
                                         : point < n ? n + 1 : point + 2), 127);
    if (out == NULL)
        return NULL;
    char *p = (char *)PyUnicode_1BYTE_DATA(out);
    if (neg)
        *p++ = '-';
    if (sci) { /* d.ddde+XX, the exponent of two digits at least, as %+.2d */
        p = put_digits(p, d, n, 1);
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (ae >= 100)
            *p++ = (char)('0' + ae / 100);
        *p++ = (char)('0' + ae / 10 % 10);
        *p = (char)('0' + ae % 10);
    }
    else if (point <= 0) { /* 0.000ddd */
        memcpy(p, "0.0000", 2 - point);
        put_digits(p + 2 - point, d, n, n);
    }
    else if (point < n) /* dd.ddd */
        put_digits(p, d, n, point);
    else { /* ddd000.0 */
        p = put_digits(p, d, n, n);
        memset(p, '0', point - n);
        memcpy(p + point - n, ".0", 2);
    }
    return out;
}

/* the tuple of format_cell(x, e12) for each float x of the sequence cells,
   its entries held as held_item() holds them */
static PyObject *
format_each(PyObject *cells, int e12, const char *message)
{
    PyObject *fast = PySequence_Fast(cells, message);
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast), from = 0;
    PyObject *out = PyTuple_New(n), *rest = NULL;
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *cell = held_item(fast, i, n, &rest, &from), *text = NULL;
        double x = cell == NULL ? -1.0 : PyFloat_AsDouble(cell);
        if (cell != NULL && !(x == -1.0 && PyErr_Occurred()))
            text = format_cell(x, e12);
        if (text == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, text);
    }
    Py_XDECREF(rest);
    Py_DECREF(fast);
    return out;
}

static PyObject *
e12(PyObject *module, PyObject *cells)
{
    return format_each(cells, 1, "e12() takes a sequence of floats");
}

static PyObject *
reprs(PyObject *module, PyObject *cells)
{
    return format_each(cells, 0, "reprs() takes a sequence of floats");
}

static PyMethodDef methods[] = {
    {"march_stop", (PyCFunction)(void (*)(void))march_stop, METH_FASTCALL,
     "march_stop(y, z, s, h, target, tol, /): as _kernel_py.march_stop."},
    {"e12", e12, METH_O, "e12(cells, /): as _kernel_py.e12."},
    {"reprs", reprs, METH_O, "reprs(cells, /): as _kernel_py.reprs."},
    {"cumulative", (PyCFunction)(void (*)(void))cumulative, METH_FASTCALL,
     "cumulative(times, values, at_zero, /): as _kernel_py.cumulative."},
    {"floats", floats, METH_O, "floats(items, /): as _kernel_py.floats."},
    {"ricci", (PyCFunction)(void (*)(void))ricci, METH_FASTCALL,
     "ricci(eta, c, dc0, /): as _kernel_py.ricci."},
    {"residuals", (PyCFunction)(void (*)(void))residuals, METH_FASTCALL,
     "residuals(comp, u, theta0, /): as _kernel_py.residuals."},
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
    for (int j = 1; j <= MAX_P5; j++)
        POW5[j] = 5 * POW5[j - 1];
#endif
    if ((ZEROS[0][0] = PyUnicode_InternFromString("0.0")) == NULL
            || (ZEROS[0][1] = PyUnicode_InternFromString("-0.0")) == NULL
            || (ZEROS[1][0] = PyUnicode_InternFromString("0.000000000000e+00")) == NULL
            || (ZEROS[1][1] = PyUnicode_InternFromString("-0.000000000000e+00")) == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
