"""Command-line surface: validate and classify pairs, run flows, report
lifespans and curvature, and execute the verification suites.

Exit codes: 0 success, 1 invalid pair, 2 numeric or assertion failure,
3 I/O, schema or usage failure.  Every command renders its text once and
writes it to stdout, or to ``--out`` (per pair ``.000``, ``.001``, ... in a
sweep).  Identical inputs give byte-identical output:

- ``validate``, ``classify``, ``lifespan``, ``flow`` and ``verify`` print
  floats as %.12e (``flow --format json`` as strings, since a table cell
  may be ``nan`` or ``inf``);
- ``curvature`` prints the shortest repr of each float, as ``json`` does.

Input files above ``_ORJSON_MIN_BYTES`` are decoded by orjson when it is
installed (``JSON_BACKEND``), and every other file by ``json``, as is a
document whose orjson value could differ from json's, which a walk of that
value tells; both give the same values and the same errors
(``_load_input``).  The walk converts each list of numbers to floats in one
``lapse._float_image``, and a tabulated lapse keeps the images of its times
and values (``_parse_pair``), so each list is converted once per command;
the images live as long as one ``main`` call.

``flow`` and ``curvature`` render through fixed-shape templates, each
filled by one ``%`` over a flat tuple: the CSV row ``_CSV_ROW``, the JSON
row object ``_JSON_ROW``, and the curvature sample ``_SAMPLE`` under its
lifespan head.  They write the bytes ``csv.writer`` and
``json.dumps(..., indent=2)`` would, at a fraction of the cost.  The flow
table's cells arrive as strings from the kernel's ``e12`` and
``curvature``'s from its ``reprs`` (``backend._kern``, read when the
output renders), which print each float as %.12e and as ``repr`` do, in C
with integer arithmetic.

Importing this module loads only what every command runs: argparse, json
and the parsing of pairs and lapses (``errors``, ``sym3``, ``lapse``,
``pairs``), and no numpy, orjson or ``dataclasses``.  Each command imports
the rest where it first needs it, and ``_load_input`` imports orjson only
for a file large enough that orjson's faster parse repays its import.
``validate`` loads the kernel (``backend``, which builds the C kernel on
its first import), for the Ricci scalar of the pair's frame; ``classify``
loads nothing more.  On the C kernel, with a constant lapse or none, both
finish without numpy.  ``lifespan``, ``flow`` and ``curvature`` load the
closed forms of ``exact``, which load numpy and the march (``numeric``,
``_kernel_py``); ``curvature`` also ``lorentz``; ``verify`` the suites.  A
tabulated lapse loads numpy where its lists are read, and the
``_kernel_py`` fallback where it is chosen.  numpy costs several times the
work of a short command, whose process pays it only where the command
computes with arrays.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import re
import struct
import sys

from . import lapse
from .errors import InvalidPair, SingularTime, SpinorFlowError
from .lapse import LapseProfile
from .pairs import SUITES, CauchyPair, DEFAULT_TOL, _abs_max, _constraints, _row_group, \
    classify, invariants, validate

# the decoder of input files above _ORJSON_MIN_BYTES: orjson where the
# optional extra "fast" is installed, found without importing it
JSON_BACKEND = "json" if importlib.util.find_spec("orjson") is None else "orjson"
# a pair file is about 200 bytes, and json reads it in microseconds, while
# importing orjson costs a process milliseconds; perfbench's smallest table,
# 100 nodes, is about 4 KiB, where orjson's parse repays it
_ORJSON_MIN_BYTES = 1024

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

# errors reported as "numeric failure: <last argument>" with EXIT_NUMERIC, per
# pair in a sweep.  ArithmeticError is the class the stacks stop at
# (``numeric._until_raised``): Python raises OverflowError(errno, text) where
# a float operation overflows, as squares of components near 1e160 do, and
# ZeroDivisionError where a divisor underflows to zero, as lambda^2 of
# components near 1e-162 does.  InvalidPair, also a SpinorFlowError, is
# caught before it
_NUMERIC_FAILURES = (SpinorFlowError, ArithmeticError)


def _fmt(x: float) -> str:
    return "%.12e" % float(x)


# json raises RecursionError past about 995 levels of nesting on Python
# 3.10 and 3.11 (fewer when called from deep in the stack), orjson past
# 1024: a document nested deeper than this is left to json, so that json
# alone decides where nesting is too deep
_MAX_DEPTH = 512


def _orjson_reads_alike(value, images: dict | None = None) -> bool:
    """Whether json reads the same value from the document that orjson read
    as ``value``.  Not when it nests deeper than ``_MAX_DEPTH``, nor when it
    holds a float of magnitude 2**63 or more: orjson reads each integer
    literal outside [-2**63, 2**64) as such a float, and json as an int.
    The walk keeps its own stack, since a document nests 1024 deep.  A list
    of numbers is checked in one pass over its float image
    (``lapse._float_image``), in which an int in [2**63, 2**64) reads as
    such a float too; that only sends the document to json.  Each image
    goes into ``images``, when given, under the ``id`` of its list."""
    pending = [(0, [value])]  # (depth, container): the document at depth 1
    while pending and pending[-1][0] <= _MAX_DEPTH:
        depth, items = pending.pop()
        if type(items) is list:
            try:
                floats = lapse._float_image(items)
            except struct.error:  # an entry that is no number
                pass
            else:
                if not (abs(floats) < 2.0 ** 63).all():
                    return False
                if images is not None:
                    images[id(items)] = floats
                continue
        for x in items.values() if type(items) is dict else items:
            if type(x) is list or type(x) is dict:
                pending.append((depth + 1, x))
            elif type(x) is float and not abs(x) < 2.0 ** 63:
                return False
    return not pending  # else a container nests deeper than _MAX_DEPTH


def _load_input(path: str, images: dict | None = None) -> dict | list:
    """The JSON document in the file at ``path``: the value orjson reads
    from the file's bytes when the file holds more than
    ``_ORJSON_MIN_BYTES``, ``JSON_BACKEND`` is orjson and
    ``_orjson_reads_alike`` that value, else the value ``json`` reads.
    orjson refuses every other document that ``json`` would read otherwise
    (NaN, Infinity, a float literal past the largest float, a lone surrogate
    escape, a BOM, nesting deeper than 1024), and those go to ``json`` too,
    so the value, or the error, is always the one ``json`` gives (its
    RecursionError on a document nested too deeply as a ValueError).  Only
    ``json`` reads text, decoded as text mode decodes it (UTF-8, with CRLF
    and CR read as LF), so its error positions and UnicodeDecodeError
    messages stay those of that text.  The two give the same values: orjson
    refuses invalid UTF-8 and a raw control character inside a string, as
    json does, so wherever it accepts a CR or LF, that byte is whitespace.

    The float images of the number lists of orjson's value go into
    ``images``, when given, keyed by the ``id`` of each list, which the
    document keeps alive; ``json``'s value gives none."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) > _ORJSON_MIN_BYTES and JSON_BACKEND == "orjson":
        import orjson

        found = {}
        try:
            value = orjson.loads(data)
            if _orjson_reads_alike(value, found):
                if images is not None:
                    images.update(found)
                return value
        except orjson.JSONDecodeError:
            pass
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"nesting too deep: {exc}") from None


def _parse_pair(data: dict, images: dict) -> tuple[CauchyPair, LapseProfile]:
    """The pair of the document ``data`` and its lapse, the unit lapse where
    it names none; the lapse's number lists are read from their ``images``
    (``_load_input``) where those hold them."""
    pair = CauchyPair.from_json_dict(data)
    if "beta" in data:
        profile = LapseProfile.from_json_dict(data, images)
    else:
        profile = LapseProfile.constant(1.0)
    return pair, profile


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


FLOW_COLUMNS = (
    ["t", "B"]
    + ["theta_" + k for k in ("uu", "ul", "un", "ll", "ln", "nn")]
    + ["U_" + a + b for a in "uln" for b in "uln"]
    + ["h_" + k for k in ("uu", "ul", "un", "ll", "ln", "nn")]
    + ["H", "r1", "r2", "r3", "r4"]
)


def _flow_cells(sol, profile, times, method: str) -> tuple:
    """The cells of the flow table of ``sol`` at ``times``, row by row, as
    one flat tuple of Python floats: each state of the closed form or the
    march (``numeric._States``) with its B_t and residuals."""
    import numpy as np

    from .exact import _Samples
    from .frames import _SYM_FLAT
    from .numeric import _integrate, _residuals

    if method == "exact":
        stack = _Samples(sol, profile, times)
        states, bts = stack.states(), stack.bts
    else:
        bts = profile.b_integral(times).tolist()
        states = _integrate(sol.pair, profile, times.tolist(), bts)
        _warn_uncertified(zip(states.t.tolist(), states.error))
    table = np.column_stack([
        states.t, bts, states.comp, states.U.reshape(-1, 9),
        states.metric.reshape(-1, 9)[:, _SYM_FLAT], states.hamiltonian,
        *_residuals(states.comp, states.U, sol.pair),
    ])
    return tuple(table.ravel().tolist())


def _span_end(x: float | None):
    """A lifespan end as ``lifespan`` prints it: null when unknown, the string
    "-inf" or "inf" when unbounded (JSON has no infinite numbers), else
    %.12e."""
    if x is None:
        return None
    return str(x) if math.isinf(x) else _fmt(x)


def _warn_uncertified(errors) -> None:
    """One stderr line per (t, error) of an RK4 state the march cannot certify."""
    from .numeric import CERTIFY_LIMIT, _uncertain

    for t, error in errors:
        if _uncertain(error):
            print(f"warning: rk4 state at t = {_fmt(t)} is not certified: "
                  f"estimated error {error:.2e} against {CERTIFY_LIMIT:.0e}",
                  file=sys.stderr)


_CSV_ROW = ",".join(["%s"] * len(FLOW_COLUMNS)) + "\n"
_JSON_ROW = "  {\n" + ",\n".join(f'    "{c}": "%s"' for c in FLOW_COLUMNS) + "\n  }"


def _render_flow(cells: tuple, fmt: str) -> str:
    """The flow table whose cells, row by row, are ``cells`` (one row at
    least), each printed as %.12e by the kernel's ``e12``: CSV under a
    header line, or a JSON array of one object of strings per row."""
    from . import backend

    n = len(cells) // len(FLOW_COLUMNS)
    text = backend._kern.e12(cells)
    if fmt == "json":
        return "[\n" + ",\n".join([_JSON_ROW] * n) % text + "\n]\n"
    return ",".join(FLOW_COLUMNS) + "\n" + _CSV_ROW * n % text


_RICCI_ROW = "        [\n" + ",\n".join(["          %s"] * 4) + "\n        ]"
_SAMPLE = ('    {\n      "t": %s,\n      "beta": %s,\n      "ricci4": [\n'
           + ",\n".join([_RICCI_ROW] * 4)
           + '\n      ],\n      "scalar4": %s,\n      "hamiltonian": %s,\n'
           '      "identity_residual": %s\n    }')
_CURVATURE_HEAD = ('{\n  "lifespan": {\n    "t_minus": %s,\n    "t_plus": %s,\n'
                   '    "immortal": %s\n  },\n  "samples": ')


def _json_end(x: float | None) -> str:
    """A lifespan end as ``curvature`` prints it, by the rules of
    ``_span_end`` but as a float's shortest repr."""
    if x is None:
        return "null"
    return '"%s"' % x if math.isinf(x) else repr(float(x))


def _render_curvature(span, cells: tuple) -> str:
    """The curvature payload: the lifespan of ``span``, then the samples
    whose cells, sample by sample, are ``cells`` (``lorentz._curvature``;
    one sample at least), Python floats, each printed as its shortest repr
    by the kernel's ``reprs``."""
    from . import backend
    from .lorentz import _CURVATURE_CELLS

    head = _CURVATURE_HEAD % (_json_end(span.t_minus), _json_end(span.t_plus),
                              "true" if span.immortal else "false")
    n = len(cells) // _CURVATURE_CELLS
    text = backend._kern.reprs(cells)
    return head + "[\n" + ",\n".join([_SAMPLE] * n) % text + "\n  ]\n}\n"


def cmd_validate(args, pair, _) -> int:
    report = validate(pair, args.tol)
    if not report.valid:
        _emit("invalid pair:\n" + "".join(f"  {v}\n" for v in report.violations),
              args.out)
        return EXIT_INVALID
    inv = invariants(pair)
    group = _row_group(pair, report.row, args.tol)
    # products of components past about 1e154 overflow to inf, with no
    # warning, and a NaN momentum keeps its NaN: refused below
    con = _constraints(pair.theta, args.tol)
    momentum = _abs_max(con.momentum_residual)
    numbers = (inv.lam, inv.T, inv.Delta, con.hamiltonian, momentum)
    if not all(map(math.isfinite, numbers + (group.mu or 0.0,))):
        raise OverflowError("the invariants of the pair are not finite")
    label = group.tag.value
    if group.mu is not None:
        label += f" (mu = {_fmt(group.mu)})"
    _emit(f"row: {report.row}\n"
          f"lambda: {_fmt(inv.lam)}  T: {_fmt(inv.T)}  Delta: {_fmt(inv.Delta)}\n"
          f"group: {label}\n"
          f"H0: {_fmt(con.hamiltonian)}\n"
          f"momentum_residual: {_fmt(momentum)}\n"
          f"constrained_ricci_flat: {str(con.is_vacuum_admissible).lower()}\n",
          args.out)
    return EXIT_OK


def cmd_classify(args, pair, _) -> int:
    group = classify(pair, args.tol)
    if group.mu is None:
        _emit(f"{group.tag.value}\n", args.out)
    else:
        _emit(f"{group.tag.value} mu={_fmt(group.mu)}\n", args.out)
    return EXIT_OK


def cmd_lifespan(args, pair, profile) -> int:
    from .exact import solve

    span = solve(pair, args.tol).lifespan(profile)
    payload = {
        "t_minus": _span_end(span.t_minus),
        "t_plus": _span_end(span.t_plus),
        "immortal": span.immortal,
    }
    if span.note:
        payload["note"] = span.note
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _sampled(args, pair, profile):
    """The prologue of ``flow`` and ``curvature``: the pair solved, its lifespan,
    and the sample times of the window clipped to the lifespan."""
    import numpy as np

    from .exact import solve

    sol = solve(pair, args.tol)
    span = sol.lifespan(profile)
    lo, hi = span.inside(profile, math.inf)
    margin = 1e-6 * max(1.0, abs(args.t0), abs(args.t1))
    # an unbounded end is -inf or inf, and the window is finite: it keeps t0 or t1
    c0, c1 = max(args.t0, lo + margin), min(args.t1, hi - margin)
    if c0 >= c1:
        raise SingularTime("requested window lies outside the lifespan")
    if (c0, c1) != (args.t0, args.t1):
        print(
            f"warning: window [{args.t0}, {args.t1}] clipped to [{c0}, {c1}] "
            "to stay inside the lifespan",
            file=sys.stderr,
        )
    return sol, span, np.linspace(c0, c1, args.samples)


def cmd_flow(args, pair, profile) -> int:
    sol, _, times = _sampled(args, pair, profile)
    _emit(_render_flow(_flow_cells(sol, profile, times, args.method), args.format),
          args.out)
    return EXIT_OK


def cmd_curvature(args, pair, profile) -> int:
    from .exact import _Samples
    from .lorentz import _curvature

    sol, span, times = _sampled(args, pair, profile)
    _emit(_render_curvature(span, _curvature(_Samples(sol, profile, times))), args.out)
    return EXIT_OK


def cmd_verify(args, pair, profile) -> int:
    import numpy as np

    from .verify import run_suite

    # a residual that overflows fails its row: no warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run_suite(pair, profile, args.suite, samples=args.samples, tol=args.tol)
    # the oracle's rows share their states: one line per state
    _warn_uncertified({st.t: st.error for row in rows for st in row.uncertified}.items())
    _emit("".join(f"[{'pass' if row.passed else 'FAIL'}] {row.name}: max residual "
                  f"{_fmt(row.residual)} (tol {_fmt(row.tol)})\n" for row in rows),
          args.out)
    return EXIT_OK if all(row.passed for row in rows) else EXIT_NUMERIC


_COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "lifespan": cmd_lifespan,
    "flow": cmd_flow,
    "curvature": cmd_curvature,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_IO, not argparse's 2 (EXIT_NUMERIC here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinorflow",
        description="Left-invariant parallel spinor flows on 3D Lie groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, window=False, method=False, suite=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="JSON file with the pair (and optional lapse)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance for validation and branch selection "
                            f"(default: $SPINORFLOW_TOL, else {DEFAULT_TOL:g})")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--sweep", action="store_true",
                       help="treat the input as a JSON array of pairs")
        if window:
            p.add_argument("--t0", type=float, default=0.0)
            p.add_argument("--t1", type=float, default=1.0)
            p.add_argument("--samples", type=int, default=50)
        if method:
            p.add_argument("--method", choices=("exact", "rk4"), default="exact")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if suite:
            p.add_argument("--suite", choices=("all",) + SUITES, default="all")
            p.add_argument("--samples", type=int, default=None)
        return p

    add("validate", "check admissibility and report invariants")
    add("classify", "print the isomorphism type of the underlying group")
    add("lifespan", "print the maximal interval of definition")
    add("flow", "sample the flow and write a trajectory table",
        window=True, method=True)
    add("curvature", "sample the 4D curvature and identity residuals", window=True)
    add("verify", "run a verification suite", suite=True)
    return parser


# built once per process: building costs milliseconds, and parsing leaves the
# parser as it was, each call on a namespace of its own
_parser = functools.cache(build_parser)


def _run_single(args, data, images: dict, sweep: bool) -> int:
    """Run the command on the pair document ``data``, its number lists read
    from ``images`` (``_parse_pair``), and report what refuses or fails it:
    an invalid pair on stderr, one violation per line, or in a sweep as one
    line of the command's output."""
    try:
        samples = getattr(args, "samples", None)  # None: a suite's own default
        if samples is not None and samples < 2:
            raise ValueError("--samples must be at least 2")
        window = args.command in ("flow", "curvature")
        if window and not -math.inf < args.t0 < args.t1 < math.inf:
            raise ValueError("--t0 and --t1 must be finite, with --t0 below --t1")
        return _COMMANDS[args.command](args, *_parse_pair(data, images))
    except InvalidPair as exc:
        if sweep:
            _emit(f"invalid pair: {'; '.join(exc.violations)}\n", args.out)
        else:
            print("invalid pair:", file=sys.stderr)
            for v in exc.violations:
                print(f"  {v}", file=sys.stderr)
        return EXIT_INVALID
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc.args[-1]}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _tolerance(tol: float | None) -> float:
    """``--tol``, else $SPINORFLOW_TOL, else DEFAULT_TOL; finite and positive."""
    if tol is None:
        raw = os.environ.get("SPINORFLOW_TOL")
        if raw is None:
            return DEFAULT_TOL
        try:
            tol = float(raw)
        except ValueError:
            raise ValueError(f"SPINORFLOW_TOL must be a number, not {raw!r}") from None
    if not 0.0 < tol < math.inf:
        raise ValueError(f"the tolerance must be finite and positive, not {tol}")
    return tol


# a negative number in exponent notation, such as -1e-05
_NEGATIVE_EXPONENT = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][+-]?\d+")


def _joined_times(argv) -> list[str]:
    """``argv`` with ``--t0 X`` and ``--t1 X`` written ``--t0=X`` where X is
    a negative number in exponent notation, as ``-1e-05`` or a time of the
    flow table, ``-1.433864309371e+00``: argparse before Python 3.13 reads
    such an X as an option, and stops on "expected one argument"."""
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--t0", "--t1") and _NEGATIVE_EXPONENT.fullmatch(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    return argv


def main(argv=None) -> int:
    args = _parser().parse_args(_joined_times(sys.argv[1:] if argv is None else argv))
    try:
        args.tol = _tolerance(args.tol)
        images = {}
        data = _load_input(args.input, images)
        if not args.sweep:
            return _run_single(args, data, images, False)
        if not isinstance(data, list):
            raise ValueError("--sweep expects a JSON array of pairs")
        worst = EXIT_OK
        base_out = args.out
        for i, element in enumerate(data):
            if base_out:
                root, ext = os.path.splitext(base_out)
                args.out = f"{root}.{i:03d}{ext}"
            print(f"# pair {i}")
            worst = max(worst, _run_single(args, element, images, True))
        return worst
    except (OSError, ValueError) as exc:
        # an OSError, as of writing --out, ends a sweep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
