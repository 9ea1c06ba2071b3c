"""Output checks that do not take the program's word for it.

Each check reads what a CLI command printed and tests it against facts
computed here from the generated input alone: the closed-form lifespan, an
independent trapezoid integral of the lapse, the algebraic relations of the
admissible family, h = U^T U, the 4D Ricci identity, and agreement of the
RK4 table with the exact table over the same window.

A check returns a ``Verdict``.  A failed command is either *known*, when it
falls in one of the two narrow defect classes present in the program at the
time the benchmark was written, or *unexpected*.  Known failures are counted
in ``failed`` like any other; only unexpected ones make the run incorrect.

- ``rk4-accuracy``: a ``flow --method rk4`` table passes every invariant
  check, its sample times match the exact table over the same window, and
  it leaves the exact table only on rows where the shape has grown by more
  than ``RK4_GROWTH_LIMIT``, that is next to a lifespan boundary.  On a
  window the CLI clipped, the fixed-step integrator runs to within 1e-6 of
  the singularity, where the shape grows by about 1e6 and the last row is
  far off; a row with growth 220 was seen 4e-7 off, and rows with growth
  below 20 agreed to 2e-10 or better.
- ``tabulated-oracle``: ``verify --suite oracle`` with a tabulated lapse
  reports a self-consistent FAIL whose residuals all lie within
  ``ORACLE_SLACK`` times their tolerance (1.12e-8 against 1e-8 was seen).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

FLOW_COLUMNS = (
    ["t", "B"]
    + ["theta_" + k for k in ("uu", "ul", "un", "ll", "ln", "nn")]
    + ["U_" + a + b for a in "uln" for b in "uln"]
    + ["h_" + k for k in ("uu", "ul", "un", "ll", "ln", "nn")]
    + ["H", "r1", "r2", "r3", "r4"]
)
_THETA = slice(2, 8)
_U = slice(8, 17)
_H = slice(17, 23)
_STATE = slice(2, 23)  # theta, U and h: what rk4 and exact must agree on

NULL = np.array([1.0, 1.0, 0.0, 0.0])
RK4_TOL = 1e-8
# rows past this shape growth may deviate under ``rk4-accuracy``; the
# integrator's error rises steeply with the growth, and rows below it
# agreed to 2e-10 or better on 480 generated tables
RK4_GROWTH_LIMIT = 20.0
# largest residual over tolerance of a ``tabulated-oracle`` failure
ORACLE_SLACK = 1.5
RICCI_TOL = 1e-6
_VERIFY_LINE = re.compile(
    r"^\[(pass|FAIL)\] (.+): max residual (\S+) \(tol (\S+)\)$")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    known: str | None = None  # defect class of a known failure
    detail: str = ""

    @property
    def unexpected(self) -> bool:
        return not self.ok and self.known is None


OK = Verdict(True)


def _fail(detail, known=None):
    return Verdict(False, known, detail)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- lapse


def lapse_integral(lapse: dict, t):
    """B_t = int_0^t beta for the lapse as written to the input file; t may
    be an array."""
    t = np.asarray(t, dtype=float)
    if lapse["kind"] == "constant":
        return lapse["value"] * t
    ts = np.asarray(lapse["times"])
    vs = np.asarray(lapse["values"])
    cum = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(ts) * (vs[1:] + vs[:-1]))))

    def from_start(x):
        k = np.clip(np.searchsorted(ts, x, side="right") - 1, 0, len(ts) - 2)
        vx = vs[k] + (vs[k + 1] - vs[k]) * (x - ts[k]) / (ts[k + 1] - ts[k])
        return cum[k] + 0.5 * (x - ts[k]) * (vs[k] + vx)

    return from_start(t) - from_start(0.0)


def _lifespan_targets(theta):
    """B values at which the flow leaves its lifespan: (minus, plus), None = never."""
    lam = math.hypot(theta["ul"], theta["un"])
    scale = max(1.0, max(abs(v) for v in theta.values()))
    if lam <= 1e-9 * scale:
        uu = theta["uu"]
        if abs(uu) <= 1e-9 * scale:
            return None, None
        return (1.0 / uu, None) if uu < 0 else (None, 1.0 / uu)
    y0 = math.atan2(theta["uu"], lam)
    return (-math.pi / 2 - y0) / lam, (math.pi / 2 - y0) / lam


def shape_growth(case, t: float) -> float:
    """Factor by which the shape components have grown at time t: 1/|s_t|
    on the quasi-diagonal branch, |sec y_t| off it (closed forms)."""
    th = case.theta
    bt = float(lapse_integral(case.lapse, t))
    lam = math.hypot(th["ul"], th["un"])
    if lam <= 1e-9 * max(1.0, max(abs(v) for v in th.values())):
        return 1.0 / abs(1.0 - th["uu"] * bt)
    return 1.0 / abs(math.cos(lam * bt + math.atan2(th["uu"], lam)))


def expected_lifespan(case) -> tuple[float | None, float | None]:
    """Closed-form boundaries for a constant lapse; None for an unknown end."""
    lo, hi = _lifespan_targets(case.theta)
    beta = case.lapse["value"]
    return (-math.inf if lo is None else lo / beta,
            math.inf if hi is None else hi / beta)


# ---------------------------------------------------------------- commands


def check_validate(cmd, code, out, err) -> Verdict:
    if code != 0:
        return _fail(f"exit {code}")
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    if fields.get("row") != cmd.case.row:
        return _fail(f"row {fields.get('row')!r}, expected {cmd.case.row!r}")
    th = cmd.case.theta
    m = re.match(r"(\S+)\s+T: (\S+)\s+Delta: (\S+)", fields.get("lambda", ""))
    if m is None:
        return _fail("no invariants line")
    want = (math.hypot(th["ul"], th["un"]), th["ll"] + th["nn"],
            th["ll"] * th["nn"] - th["ln"] ** 2)
    for got, exp in zip(map(float, m.groups()), want):
        if not _close(got, exp, 1e-10):
            return _fail(f"invariant {got} != {exp}")
    return OK


def _boundary(value):
    return None if value is None else float(value)  # "inf" and "-inf" included


def _same_end(got, want, rel):
    if got is None or math.isinf(want):
        return got == want
    return _close(got, want, rel)


def check_lifespan(cmd, code, out, err) -> Verdict:
    if code != 0:
        return _fail(f"exit {code}")
    case = cmd.case
    data = json.loads(out)
    got = (_boundary(data["t_minus"]), _boundary(data["t_plus"]))
    if case.lapse["kind"] == "constant":
        want = expected_lifespan(case)
        if not all(_same_end(g, w, 1e-10) for g, w in zip(got, want)):
            return _fail(f"lifespan {got}, expected {want}")
        if data["immortal"] != all(math.isinf(w) for w in want):
            return _fail("immortal flag")
        return OK
    # tabulated: a finite end must sit where B reaches its target, and an
    # end is unknown exactly when the target lies outside the table
    b_lo, b_hi = lapse_integral(case.lapse, [case.lapse["times"][0], case.lapse["times"][-1]])
    for g, target in zip(got, _lifespan_targets(case.theta)):
        if target is None:
            ok = g is None or math.isinf(g)
        elif not b_lo <= target <= b_hi:
            ok = g is None
        else:
            ok = g is not None and _close(float(lapse_integral(case.lapse, g)), target, 1e-9)
        if not ok:
            return _fail(f"tabulated lifespan {got}, B target {target}")
    return OK


def parse_table(out) -> np.ndarray:
    lines = list(csv.reader(io.StringIO(out)))
    if lines[0] != FLOW_COLUMNS:
        raise ValueError("unexpected CSV header")
    return np.array([[float(x) for x in line] for line in lines[1:]])


def _relations(th):
    uu, ul, un, ll, ln, nn = th.T
    return np.stack([ln * ul - ll * un, nn * ul - ln * un,
                     ln * un + ul * (ll + uu), ln * ul + un * (nn + uu)], axis=1)


def check_flow_table(cmd, table) -> str | None:
    """Invariants every flow table must satisfy; returns a reason or None."""
    case = cmd.case
    if table.shape != (cmd.samples, len(FLOW_COLUMNS)):
        return f"table shape {table.shape}"
    t = table[:, 0]
    t0, t1 = case.window
    slack = 1e-11 * max(1.0, abs(t0), abs(t1))  # times print with 13 digits
    if not (np.all(np.diff(t) > 0) and t[0] >= t0 - slack and t[-1] <= t1 + slack):
        return "sample times outside the window or not increasing"
    b_ref = lapse_integral(case.lapse, t)
    if np.any(np.abs(table[:, 1] - b_ref) > 1e-9 * np.maximum(1.0, np.abs(b_ref))):
        return "B column differs from the lapse integral"
    th = table[:, _THETA]
    for col, key in ((1, "ul"), (2, "un")):
        if np.max(np.abs(th[:, col] - case.theta[key])) > 1e-12 * max(1.0, abs(case.theta[key])):
            return f"theta_{key} not constant"
    scale = np.maximum(1.0, np.max(np.abs(th), axis=1))
    if np.any(np.max(np.abs(_relations(th)), axis=1) > 1e-9 * scale ** 2):
        return "algebraic relations violated"
    u = table[:, _U].reshape(-1, 3, 3)
    h = np.einsum("kab,kac->kbc", u, u)
    h6 = h[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]]
    uscale = np.maximum(1.0, np.max(np.abs(u), axis=(1, 2))) ** 2
    if np.any(np.max(np.abs(table[:, _H] - h6), axis=1) > 1e-9 * uscale):
        return "h != U^T U"
    return None


def check_flow(cmd, code, out, err, exact_table=None):
    """Returns (verdict, parsed table or None).  ``exact_table`` is the
    table of the matching exact flow, or None if that flow failed."""
    if code != 0:
        return _fail(f"exit {code}"), None
    table = parse_table(out)
    reason = check_flow_table(cmd, table)
    if reason is not None or cmd.cmd != "flow_rk4":
        return (OK if reason is None else _fail(reason)), table
    if exact_table is None or exact_table.shape != table.shape:
        return _fail("no passing exact table over the same window"), table
    if not np.array_equal(exact_table[:, 0], table[:, 0]):
        return _fail("sample times differ from the exact table"), table
    ref = exact_table[:, _STATE]
    dev = np.max(np.abs(table[:, _STATE] - ref) / np.maximum(1.0, np.abs(ref)), axis=1)
    off = dev > RK4_TOL
    if not off.any():
        return OK, table
    reason = f"rk4 deviates from the exact table by {dev.max():.2e}"
    growth = np.array([shape_growth(cmd.case, t) for t in table[:, 0]])
    near_end = np.all(growth[off] > RK4_GROWTH_LIMIT)
    return _fail(reason, "rk4-accuracy" if near_end else None), table


def check_curvature(cmd, code, out, err) -> Verdict:
    if code != 0:
        return _fail(f"exit {code}")
    samples = json.loads(out)["samples"]
    if len(samples) != cmd.samples:
        return _fail(f"{len(samples)} samples")
    target = np.outer(NULL, NULL)
    theta0 = max(abs(v) for v in cmd.case.theta.values())
    for s in samples:
        ric = np.asarray(s["ricci4"], dtype=float)
        ham = float(s["hamiltonian"])
        # Ric4 is quadratic in Theta_t, which grows like 1/(distance to a
        # lifespan boundary); near a clipped end its terms reach 1e12 and
        # cancel, so the tolerance scales with |Theta_t|^2
        scale = max(1.0, (theta0 * shape_growth(cmd.case, s["t"])) ** 2)
        if np.max(np.abs(ric - 0.5 * ham * target)) > RICCI_TOL * scale:
            return _fail(f"Ric4 != (H/2) n x n at t = {s['t']}")
    return OK


def check_verify(cmd, code, out, err) -> Verdict:
    rows = [_VERIFY_LINE.match(line) for line in out.splitlines()]
    if not rows or any(r is None for r in rows):
        return _fail(f"exit {code}, unparseable report")
    failing, slack = [], 0.0
    for r in rows:
        mark, name, res, tol = r.groups()
        if (mark == "pass") != (float(res) <= float(tol)):
            return _fail(f"mark {mark} contradicts residual {res} (tol {tol})")
        if mark == "FAIL":
            failing.append(name)
            slack = max(slack, float(res) / float(tol))
    if code != (2 if failing else 0):
        return _fail(f"exit {code} with {len(failing)} failing rows")
    if not failing:
        return OK
    known = ("tabulated-oracle"
             if cmd.case.lapse["kind"] == "tabulated" and cmd.suite == "oracle"
             and slack <= ORACLE_SLACK else None)
    return _fail("FAIL: " + "; ".join(failing), known)


_CHECKS = {"validate": check_validate, "lifespan": check_lifespan,
           "curvature": check_curvature, "verify": check_verify}


def check(cmd, code, out, err, exact_table=None):
    """Dispatch on the command; returns (verdict, flow table or None)."""
    try:
        if cmd.cmd in ("flow_exact", "flow_rk4"):
            return check_flow(cmd, code, out, err, exact_table)
        return _CHECKS[cmd.cmd](cmd, code, out, err), None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail(f"unparseable output: {exc!r}"), None
