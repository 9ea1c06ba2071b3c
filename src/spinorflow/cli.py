"""Command-line surface: validate and classify pairs, run flows, report
lifespans and curvature, and execute the verification suites.

Exit codes: 0 success, 1 invalid pair, 2 numeric or assertion failure,
3 I/O, schema or usage failure.  An input that is a JSON array is a sweep,
each element a pair, and any other input one pair.  ``main`` checks the
option values before it reads the input.  Every command renders its text
once and writes it to stdout, or to ``--out`` (per pair ``.000``, ``.001``,
... in a sweep).  Identical inputs give byte-identical output:

- ``validate``, ``classify``, ``lifespan``, ``flow`` and ``verify`` print
  floats as %.12e (``flow --format json`` as strings, since a table cell
  may be ``nan`` or ``inf``);
- ``curvature`` prints the shortest repr of each float, as ``json`` does.

Input files above ``_ORJSON_MIN_BYTES`` are decoded by orjson when it is
installed (``JSON_BACKEND``), and every other file by ``json``, as is a
document whose orjson value could differ from json's, which a walk of that
value tells; both give the same values and the same errors
(``_load_input``).  The walk converts each list of numbers to floats in one
kernel pass (``lapse._float_image``), which also tells whether the list
holds a bool or a float of magnitude 2**63 or more, and a tabulated lapse
keeps the images of its times and values (``_parse_pair``), so each list
is converted once per command; the images live as long as one ``main``
call.

``lifespan``, ``flow`` and ``curvature`` render through fixed-shape
templates, each filled by one ``%`` over a flat tuple: the lifespan payload
``_LIFESPAN`` (only its note escaped by ``json``), the CSV row ``_CSV_ROW``,
the JSON row object ``_JSON_ROW``, and the curvature sample ``_SAMPLE``
under its lifespan head.  They write the bytes ``csv.writer`` and
``json.dumps(..., indent=2)`` would, at a fraction of the cost.  The flow
table's cells arrive as strings from the kernel's ``e12`` and
``curvature``'s from its ``reprs`` (``backend._kern``, read when the
output renders), which print each float as %.12e and as ``repr`` do, in C
with integer arithmetic.

``main`` decides a plain argv from the parser's own tables
(``_parse_fast``): the command's exact name, its one positional, and exact
option strings of store actions with their values, read, converted and
checked as argparse does, on a copy of the defaults argparse gives the
command.  argparse decides every other argv, so help, abbreviations and
usage errors, with their bytes and exit codes, stay its own.  Both read a
token as a negative number, and so as a value, by one rule, each
subparser's ``_negative_number_matcher``: ``_NEGATIVE_NUMBER``, argparse's
own with exponent notation added, so ``--t0 -1e-05`` and ``--tol -1e-9``
are numbers as ``--t0 -0.5`` is.

Importing this module loads only what every command runs: argparse, json
and the parsing of pairs and lapses (``errors``, ``sym3``, ``lapse``,
``pairs``), and no numpy, orjson or ``dataclasses``.  Each command imports
the rest where it first needs it, and ``_load_input`` imports orjson only
for a file large enough that orjson's faster parse repays its import.
``validate`` loads the kernel (``backend``, which builds the C kernel on
its first import), for the Ricci scalar of the pair's frame; ``classify``
loads it only for an input that orjson decodes, above
``_ORJSON_MIN_BYTES``, whose number lists it images.  On the C kernel,
with a constant lapse or none, both finish without numpy.  ``lifespan``
loads ``decision`` alone, which decides the pair in Python floats: with a
constant lapse or none it finishes without numpy or the kernel.  ``flow``
and ``curvature`` load the closed forms of ``exact``, which load numpy and
the march (``numeric``, ``_kernel_py``); ``curvature`` also ``lorentz``;
``verify`` the suites.  A tabulated lapse loads numpy where its lists are
read, and the ``_kernel_py`` fallback where it is chosen.  numpy costs
several times the work of a short command, whose process pays it only
where the command computes with arrays.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import os
import re
import sys

from .errors import InvalidPair, SingularTime, SpinorFlowError
from .lapse import LapseProfile, _float_image
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
    of numbers is checked by the one kernel pass that makes its float image
    (``_float_image``), in which an int in [2**63, 2**64) reads as
    such a float too; that only sends the document to json.  Each image of
    a list with no bool goes into ``images``, when given, under the ``id``
    of its list."""
    # (depth, container): the document at depth 1, in a list of its own that
    # is walked, not imaged
    pending = [(0, [value])]
    while pending and pending[-1][0] <= _MAX_DEPTH:
        depth, items = pending.pop()
        if depth and type(items) is list:
            found = _float_image(items)  # None: an entry that is no number
            if found is not None:
                floats, has_bool, within = found
                if not within:
                    return False
                if images is not None and not has_bool:
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


def _span_end(x: float | None) -> str:
    """A lifespan end as ``lifespan`` prints it, in JSON: null when unknown,
    the string "-inf" or "inf" when unbounded (JSON has no infinite
    numbers), else the string of %.12e."""
    if x is None:
        return "null"
    return '"%s"' % (x if math.isinf(x) else _fmt(x))


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
_LIFESPAN = '{\n  "t_minus": %s,\n  "t_plus": %s,\n  "immortal": %s%s\n}\n'
_CURVATURE_HEAD = ('{\n  "lifespan": {\n    "t_minus": %s,\n    "t_plus": %s,\n'
                   '    "immortal": %s\n  },\n  "samples": ')


def _json_end(x: float | None) -> str:
    """A lifespan end as ``curvature`` prints it, by the rules of
    ``_span_end`` but as a float's shortest repr."""
    if x is None:
        return "null"
    return '"%s"' % x if math.isinf(x) else repr(float(x))


def _render_lifespan(span) -> str:
    """The lifespan payload of ``span``: its ends, whether it is immortal,
    and its note, if any, escaped by ``json``."""
    note = ',\n  "note": ' + json.dumps(span.note) if span.note else ""
    return _LIFESPAN % (_span_end(span.t_minus), _span_end(span.t_plus),
                        "true" if span.immortal else "false", note)


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
    from .decision import lifespan

    _emit(_render_lifespan(lifespan(pair, profile, args.tol)), args.out)
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


# the tokens each subparser reads as a negative number, and so as a value,
# not an option: argparse's own rule, ^-\d+$|^-\d*\.\d+$, with exponent
# notation added, as -1e-05 or a time of the flow table, -1.433864309371e+00
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-(\d+\.?\d*|\.\d+)[eE][+-]?\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinorflow",
        description="Left-invariant parallel spinor flows on 3D Lie groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, window=False, method=False, suite=False):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("input", help="JSON file with the pair (and optional lapse)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="tolerance for validation and branch selection "
                            f"(default: {DEFAULT_TOL:g})")
        p.add_argument("--out", default=None, help="output file (default stdout)")
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


@functools.cache
def _command_parser(name: str) -> tuple:
    """The subparser of command ``name``, the dest of its one positional, and
    the namespace ``_parser()`` gives ``name`` with every option at its
    default."""
    sub = _parser()._subparsers._group_actions[0].choices[name]
    (positional,) = sub._get_positional_actions()
    return sub, positional.dest, _parser().parse_args([name, "PAIR"])


def _parse_fast(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_parser().parse_args(argv)`` gives, decided from the
    parser's own tables where ``argv`` is plain: a command's exact name,
    one positional that does not start with "-", and options each an exact
    option string of a store action, its value the next token, which starts
    with "-" only where the subparser reads it as a negative number.  None
    for any other argv, left to argparse: help, an abbreviation,
    "--opt=value", "--", a usage error."""
    if not argv or argv[0] not in _parser()._subparsers._group_actions[0].choices:
        return None
    sub, dest, defaults = _command_parser(argv[0])
    args = argparse.Namespace(**vars(defaults))
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        action = sub._option_string_actions.get(token)
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        value = next(tokens, "-")
        if value.startswith("-") and not sub._negative_number_matcher.match(value):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    if len(positionals) != 1:
        return None
    setattr(args, dest, positionals[0])
    return args


def _run_single(args, data, images: dict, sweep: bool) -> int:
    """Run the command on the pair document ``data``, its number lists read
    from ``images`` (``_parse_pair``), and report what refuses or fails it:
    an invalid pair on stderr, one violation per line, or in a sweep as one
    line of the command's output."""
    try:
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_fast(argv) or _parser().parse_args(argv)
    try:
        if not 0.0 < args.tol < math.inf:
            raise ValueError(f"the tolerance must be finite and positive, not {args.tol}")
        samples = getattr(args, "samples", None)  # None: a suite's own default
        if samples is not None and samples < 2:
            raise ValueError("--samples must be at least 2")
        if hasattr(args, "t0") and not -math.inf < args.t0 < args.t1 < math.inf:
            raise ValueError("--t0 and --t1 must be finite, with --t0 below --t1")
        images = {}
        data = _load_input(args.input, images)
        if type(data) is not list:
            return _run_single(args, data, images, False)
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
