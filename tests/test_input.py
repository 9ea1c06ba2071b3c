"""Input decoding: with orjson installed or not, ``cli._load_input`` gives
the values ``json`` gives, bit for bit, or raises the error ``json`` raises,
with a RecursionError as a ValueError, on either side of the size above
which orjson reads a file; and ``LapseProfile.from_json_dict`` turns the
decoded lapse into the floats, or the error, of its type-scan rule."""

import contextlib
import io
import json
import math
import struct
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinorflow
from spinorflow import cli, lapse
from spinorflow.cli import EXIT_IO, main
from spinorflow.lapse import LapseProfile

try:
    import orjson
except ImportError:  # the optional extra "fast": json's tests still run
    orjson = None

NEEDS_ORJSON = pytest.mark.skipif(orjson is None, reason="orjson is not installed")
DECODERS = pytest.mark.parametrize("decoder", [pytest.param("orjson", marks=NEEDS_ORJSON),
                                               "json"])


@contextlib.contextmanager
def decoding_with(decoder):
    """``cli._load_input`` with orjson offered every file, however small,
    for "orjson" (``_ORJSON_MIN_BYTES`` at 0), and with json alone for
    "json" (``JSON_BACKEND`` at "json")."""
    saved = cli.JSON_BACKEND, cli._ORJSON_MIN_BYTES
    if decoder == "orjson":
        cli._ORJSON_MIN_BYTES = 0
    else:
        cli.JSON_BACKEND = "json"
    try:
        yield
    finally:
        cli.JSON_BACKEND, cli._ORJSON_MIN_BYTES = saved


def parent_load(path):
    """The decoder before orjson: ``json.load`` of the file in text mode."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def outcome(load, path):
    try:
        return "value", load(path)
    except Exception as exc:  # the type and message are what is compared
        return "error", (type(exc), str(exc))


def expected(path):
    """The outcome ``_load_input`` gives: that of ``parent_load``, with the
    RecursionError of a document nested too deeply as a ValueError."""
    kind, value = outcome(parent_load, path)
    if kind == "error" and value[0] is RecursionError:
        return kind, (ValueError, f"nesting too deep: {value[1]}")
    return kind, value


def same(a, b) -> bool:
    """Equal values of the same types, floats bit for bit, keys in order;
    walked without recursion, since documents nest 1024 deep."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            if struct.pack("<d", a) != struct.pack("<d", b):
                return False
        elif isinstance(a, dict):
            if list(a) != list(b):
                return False
            pending.extend((a[k], b[k]) for k in a)
        elif isinstance(a, list):
            if len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif a != b:
            return False
    return True


@dataclass(frozen=True)
class Literal:
    """A leaf written into the document as this text."""

    text: str


def dump(x, sep: str) -> str:
    if isinstance(x, Literal):
        return x.text
    if isinstance(x, list):
        return "[" + ("," + sep).join(dump(v, sep) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ("," + sep).join(json.dumps(k, ensure_ascii=False) + ":" + sep
                                      + dump(v, sep) for k, v in x.items()) + "}"
    return json.dumps(x, ensure_ascii=False)


# number literals as written by hand: up to 26 significant digits, so
# halfway cases between two floats, and exponents to past both ends
NUMBER_TEXT = st.builds(
    lambda sign, digits, point, exp: sign + (digits[:point] + "." + digits[point:]
                                             if point < len(digits) else digits) + exp,
    st.sampled_from(["", "-"]), st.integers(0, 10 ** 25).map(str), st.integers(1, 26),
    st.sampled_from(["", "e", "E-", "e+"]).flatmap(
        lambda e: st.just("") if not e else st.integers(0, 340).map(lambda n: e + str(n))))
BOUNDARIES = [2 ** 63, 2 ** 64]
INTEGERS = st.one_of(
    st.integers(),
    st.sampled_from([s * (b + d) for b in BOUNDARIES for d in (-1, 0, 1) for s in (1, -1)]),
    st.integers(-2 ** 65, 2 ** 65),
)
FLOATS = st.one_of(
    st.floats(),  # NaN and +-Infinity as json.dumps writes them, subnormals
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                     0.1, 1 / 3, -0.0039001950097505844]),
    st.floats(-4.0, 4.0).map(lambda x: float(f"{x:.16e}")),  # 17 digits
)
STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["été", "\U0001d4b3", "\r\n", "\x7f"]),
)
LITERALS = st.one_of(
    NUMBER_TEXT.map(Literal),
    st.sampled_from(['"\\ud800"', '"\\udfff\\ud800"', '"\\ud83d\\ude00"', "1e400", "-1e400",
                     "NaN", "-Infinity", "1E+2", "-0"]).map(Literal),
)
LEAVES = st.one_of(st.none(), st.booleans(), INTEGERS, FLOATS, STRINGS, LITERALS)
DOCUMENTS = st.recursive(
    LEAVES, lambda inner: st.one_of(st.lists(inner, max_size=6),
                                    st.dictionaries(STRINGS, inner, max_size=6)),
    max_leaves=12)
SEPARATORS = st.sampled_from(["", " ", "\n", "\r\n", "\t"])
MUTATIONS = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("insert"), st.integers(0, 10 ** 6),
              st.sampled_from(list('"[]{},:-.eE0\\ ') + ["NaN", "\ufeff", "\x00", "9" * 20])),
)


def mutate(text: str, mutation) -> str:
    if mutation is None:
        return text
    at = mutation[1] % (len(text) + 1)
    return text[:at] if mutation[0] == "truncate" else text[:at] + mutation[2] + text[at:]


@settings(max_examples=100, deadline=None)
@given(doc=DOCUMENTS, sep=SEPARATORS, mutation=MUTATIONS, bom=st.booleans())
def test_every_document_decodes_as_json_does(tmp_path_factory, doc, sep, mutation, bom):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    path.write_bytes((("\ufeff" if bom else "") + mutate(dump(doc, sep), mutation))
                     .encode("utf-8"))
    want = expected(path)
    for decoder in ("orjson", "json")[orjson is None:]:
        with decoding_with(decoder):
            got = outcome(cli._load_input, path)
        assert want[0] == got[0], decoder
        assert same(want[1], got[1]) if want[0] == "value" else want[1] == got[1], decoder


@DECODERS
@pytest.mark.parametrize("text", [
    '{"kind": 18446744073709551616}', "18446744073709551616", " -9223372036854775809",
    "[9223372036854775808, 18446744073709551615, -9223372036854775808]",
    "[1" + "0" * 400 + "]", "[0." + "0" * 30 + "1e-300]", '{"a": 1, "a": 2.5}',
    "[1e400, -1e400, 1e-400]", *("[" * n + "]" * n for n in (512, 513, 990, 1024, 1025)),
], ids=["kind-2pow64", "bare-2pow64", "below-minus-2pow63", "both-sides",
        "400-digits", "long-fraction", "duplicate-key", "overflow",
        *(f"depth-{n}" for n in (512, 513, 990, 1024, 1025))])
def test_named_documents_decode_as_json_does(tmp_path, decoder, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with decoding_with(decoder):
        want, got = expected(path), outcome(cli._load_input, path)
    assert want[0] == got[0]
    assert same(want[1], got[1]) if want[0] == "value" else want[1] == got[1]


@NEEDS_ORJSON
def test_a_workload_table_is_read_by_orjson(tmp_path, monkeypatch):
    # reprs such as -0.0039001950097505844 hold 19 digits after the point,
    # which a check for any run of 19 digits would take for a long integer
    times = np.linspace(-2.0, 2.0, 20_000).tolist()
    text = json.dumps({"theta": {"uu": 1.0}, "beta": {"kind": "tabulated", "times": times,
                                                       "values": [1.0] * len(times)}})
    assert "-0.0039001950097505844" in text
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    want = json.loads(text)
    modes = []

    def spy_open(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(file, mode, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a document orjson reads alike was decoded to text")

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    monkeypatch.setattr(io, "TextIOWrapper", refuse)
    monkeypatch.setattr(cli.json, "loads", refuse)
    got = cli._load_input(str(path))
    monkeypatch.undo()
    assert modes == ["rb"]
    assert same(got, want)


DEPTH_512 = {"arrays": "[" * 512 + "]" * 512, "objects": '{"a":' * 511 + "{}" + "}" * 511}


@DECODERS
@pytest.mark.parametrize("text, reads_alike", [
    ("[1.5, 18446744073709551616, 2.0]", False), ('[1.5, "a", 18446744073709551616]', False),
    ('{"a": 18446744073709551616}', False), ("18446744073709551616", False),
    ("[-9223372036854775809]", False), ("[9223372036854775808]", False),
    ("[1e19]", False), ("[1234567890123456789, -0.0039001950097505844]", True),
    (DEPTH_512["arrays"], True), ("[" + DEPTH_512["arrays"] + "]", False),
    (DEPTH_512["objects"], True), ('{"a":' + DEPTH_512["objects"] + "}", False),
    ("[" + ",".join(["[0.5]"] * 600) + "]", True),
], ids=["2pow64-in-numbers", "2pow64-in-mixed-list", "2pow64-in-object", "2pow64-bare",
        "below-minus-2pow63", "int-in-2pow63-2pow64", "float-1e19", "19-digits-in-range",
        "arrays-512", "arrays-513", "objects-512", "objects-513", "600-siblings"])
def test_named_value_checks(tmp_path, decoder, text, reads_alike):
    if decoder == "orjson":
        assert cli._orjson_reads_alike(orjson.loads(text)) is reads_alike
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with decoding_with(decoder):
        want, got = expected(path), outcome(cli._load_input, path)
    assert want[0] == got[0]
    assert same(want[1], got[1]) if want[0] == "value" else want[1] == got[1]


@NEEDS_ORJSON
@pytest.mark.parametrize("literal", sorted({s * (b + d) for b in BOUNDARIES
                                            for d in (-1, 0, 1) for s in (1, -1)}))
def test_orjson_reads_a_boundary_integer_as_json_or_as_a_far_float(literal):
    # the assumption of ``_orjson_reads_alike``: orjson reads an integer
    # literal as json does, or as a float of magnitude 2**63 or more
    for text in (str(literal), f"[{literal}]"):
        try:
            got = orjson.loads(text)
        except orjson.JSONDecodeError:
            continue
        want = json.loads(text)
        if not same(got, want):
            far = got if isinstance(got, float) else got[0]
            assert type(far) is float and abs(far) >= 2.0 ** 63, text


TABLE_DOC = {"theta": {"uu": -2, "ul": 1, "un": 1, "ll": 1, "ln": 1, "nn": 1},
             "beta": {"kind": "tabulated", "times": [-1.0, -0.0039001950097505844, 0.2, 1.5],
                      "values": [0.8, 1 / 3, 1.3, 1.0]}}


@DECODERS
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_tables_decode_as_json_does(tmp_path, decoder, newline):
    path = tmp_path / "table.json"
    path.write_bytes(json.dumps(TABLE_DOC, indent=1).replace("\n", newline).encode("utf-8"))
    with decoding_with(decoder):
        got = cli._load_input(str(path))
    assert same(got, expected(path)[1])
    assert same(got, json.loads(json.dumps(TABLE_DOC)))


@DECODERS
def test_a_crlf_file_reports_json_positions_in_its_text(tmp_path, capsys, decoder):
    # json's line and column count CRLF as one newline, as text mode reads it
    path = tmp_path / "pair.json"
    path.write_bytes(('{\r\n  %s,\r\n  "beta": {"kind": "constant", "value": 1.3x}\r\n}\r\n'
                      % THETA).encode("utf-8"))
    with decoding_with(decoder):
        assert main(["validate", str(path)]) == EXIT_IO
    assert capsys.readouterr() == (
        "", "error: Expecting ',' delimiter: line 3 column 44 (char 112)\n")


@pytest.mark.parametrize("data", [
    b'{"a": [1.5,\n 2]}\n', b'{"a": [1.5,\r\n 2]}\r\n', b'{"a": [1.5,\r 2]}\r',
    b'{\r\n"a":\r[1.5,\n 2]\r\n\r}', b'\xef\xbb\xbf{"a": 1}', b'{"a": \xff}',
    b'{"a": "\xe2\x82', b'{"a": "\xe2\x82 b"}', b'{"a": "x\ry"}', b'{"a":\r\n [1.5,\r 2',
], ids=["lf", "crlf", "cr", "mixed", "bom", "0xff", "utf8-cut-at-end",
        "utf8-cut-in-string", "raw-cr-in-string", "cut-short"])
def test_json_decodes_bytes_as_text_mode_does(tmp_path, data):
    # one bytes.decode with CRLF and CR replaced by LF gives the value, or
    # the type and message of the error, of a read through io.TextIOWrapper
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with decoding_with("json"):
        want, got = expected(path), outcome(cli._load_input, path)
    assert want[0] == got[0]
    assert same(want[1], got[1]) if want[0] == "value" else want[1] == got[1]


THETA = '"theta": {"uu": 1, "ul": 0, "un": 0, "ll": 0, "ln": 0, "nn": 0}'


@DECODERS
@pytest.mark.parametrize("command", ["validate", "lifespan"])
@pytest.mark.parametrize("content, message", [
    ('{%s, "beta": {"kind": 18446744073709551616, "value": 1.0}}' % THETA,
     "unknown lapse kind: 18446744073709551616"),
    ('{"theta": {"uu": NaN, "ul": 0, "un": 0, "ll": 0, "ln": 0, "nn": 0}}',
     "theta component 'uu' must be a finite number"),
    ('{%s, "beta": {"kind": "tabulated", "times": [-1.0, 0.0, 1e400], '
     '"values": [1.0, 1.0, 1.0]}}' % THETA,
     "times must be finite and strictly increasing"),
    ("\ufeff{%s}" % THETA,
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (('{%s, "x": "' % THETA).encode() + b'\xff\xfe"}',
     "'utf-8' codec can't decode byte 0xff in position 72: invalid start byte"),
    ('{%s, "beta": {"kind": "tabulated", "times": [-1.0, 0.' % THETA,
     "Expecting ',' delimiter: line 1 column 114 (char 113)"),
], ids=["kind-2pow64", "nan-theta", "inf-in-table", "bom", "invalid-utf8", "truncated"])
def test_refused_inputs_print_what_json_printed(tmp_path, capsys, decoder, command,
                                               content, message):
    path = tmp_path / "pair.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with decoding_with(decoder):
        assert main([command, str(path)]) == EXIT_IO
    assert capsys.readouterr() == ("", f"error: {message}\n")


@DECODERS
@pytest.mark.parametrize("depth", [3_000, 100_000])
def test_a_document_nested_too_deeply_is_an_input_error(tmp_path, capsys, decoder, depth):
    # json raises RecursionError, which is no ValueError; orjson hands any
    # document past 512 openings to json
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    with decoding_with(decoder):
        assert main(["validate", str(path)]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_the_backend_is_reported():
    want = "json" if orjson is None else "orjson"
    assert cli.JSON_BACKEND == spinorflow.JSON_BACKEND == want
    assert "JSON_BACKEND" in spinorflow.__all__
    with pytest.raises(AttributeError, match="no attribute 'JSON_BACKENDS'"):
        spinorflow.JSON_BACKENDS



def parent_lapse(data):
    """``LapseProfile.from_json_dict`` before it converted each list in one
    pass: a scan of the field's types, then ``np.asarray``."""
    kind = data["kind"]
    fields = {"constant": ("value",), "tabulated": ("times", "values")}[kind]
    try:
        if not all(set(map(type, v if isinstance(v, list) else [v])) <= {int, float}
                   for v in map(data.get, fields)):
            raise TypeError
        args = [np.asarray(data[k], dtype=float) for k in fields]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{kind} lapse {', '.join(fields)} must be finite numbers") from None
    if kind == "constant":
        if args[0].ndim:
            raise ValueError("constant lapse value must be a number")
        return LapseProfile.constant(float(args[0]))
    return LapseProfile.tabulated(*args)


def lapse_outcome(parse, data):
    """The error, or the kind and the bits, dtype and ndim of every float."""
    try:
        profile = parse(data)
    except Exception as exc:  # the type and message are what is compared
        return "error", (type(exc), str(exc))
    if profile.kind == "constant":
        return "value", ("constant", type(profile.value), struct.pack("<d", profile.value))
    return "value", ("tabulated", *((a.dtype.str, a.ndim, a.tobytes())
                                    for a in (profile.times, profile.values)))


# what a JSON decoder can give a lapse field, besides a plain number
ODD_ENTRIES = st.sampled_from([
    True, False, "1.0", "", None, [], [1.0], [[2.0]], {}, {"a": 1.0},
    2 ** 63, -2 ** 63, 2 ** 63 - 1, 2 ** 64, -2 ** 64, 2 ** 64 + 1, 10 ** 400, -10 ** 400,
    0, 1, 0.0, -0.0, 1.0, float("nan"), float("inf")])
NUMBER_ENTRIES = st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0),
                           st.sampled_from([0, 1, 0.0, -0.0, 1.0]))
ENTRIES = st.one_of(NUMBER_ENTRIES, ODD_ENTRIES)


@st.composite
def lapse_documents(draw):
    """Constant and tabulated lapses, mostly valid, with odd entries mixed in."""
    if draw(st.booleans()):
        return {"kind": "constant",
                "value": draw(st.one_of(ENTRIES, st.lists(ENTRIES, max_size=3)))}
    n = draw(st.integers(0, 9))
    start = draw(st.one_of(st.integers(-3, 0), st.floats(-3.0, -0.0), st.just(-0.0)))
    steps = draw(st.lists(st.one_of(st.integers(1, 2), st.floats(0.125, 2.0), st.just(1.0)),
                          min_size=n, max_size=n))
    times = [start]
    for step in steps:
        times.append(times[-1] + step)
    values = draw(st.lists(st.one_of(st.floats(0.25, 4.0), st.integers(1, 3),
                                     st.sampled_from([1, 1.0, 2 ** 63, 2 ** 64, 2 ** 64 + 1])),
                           min_size=len(times), max_size=len(times)))
    for table in (times, values):
        for _ in range(draw(st.integers(0, 2))):
            table[draw(st.integers(0, len(table) - 1))] = draw(ENTRIES)
    data = {"kind": "tabulated", "times": times, "values": values}
    if draw(st.integers(0, 9)) == 0:
        data[draw(st.sampled_from(["times", "values"]))] = draw(ENTRIES)
    return data


@settings(max_examples=400, deadline=None)
@given(data=lapse_documents())
@example(data={"kind": "tabulated", "times": [-1, 0, True], "values": [1.0, 1.0, 1.0]})
@example(data={"kind": "tabulated", "times": [False, 1.0, 2.0], "values": [1.0, 1.0, 1.0]})
@example(data={"kind": "tabulated", "times": [-1.0, 0.0, 1.0], "values": [1.0, True, 1]})
@example(data={"kind": "tabulated", "times": [-1.0, -0.0, 1.0], "values": [1, 2 ** 63, 2 ** 64]})
@example(data={"kind": "tabulated", "times": [-1.0, 0.0, 1.0], "values": [1.0, 1.0, 10 ** 400]})
@example(data={"kind": "constant", "value": True})
def test_lapse_fields_parse_as_the_type_scan_did(data):
    want = lapse_outcome(parent_lapse, data)
    assert lapse_outcome(LapseProfile.from_json_dict, data) == want
    assert lapse_outcome(LapseProfile.from_json_dict, {"beta": data}) == want


@pytest.mark.parametrize("field", ["times", "values"])
@pytest.mark.parametrize("at", [0, 10_000, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("entry", [True, False, "1.0", None, [1.0], 2 ** 1024],
                         ids=["true", "false", "string", "null", "nested-list", "2pow1024"])
def test_an_odd_entry_in_a_long_table_is_refused_as_the_type_scan_did(field, at, entry):
    data = {"kind": "tabulated", "times": np.linspace(-1.0, 1.0, 20_000).tolist(),
            "values": [1.0] * 20_000}
    data[field][at] = entry
    want = lapse_outcome(parent_lapse, data)
    assert want[0] == "error"
    assert lapse_outcome(LapseProfile.from_json_dict, data) == want


@pytest.mark.parametrize("times", [[math.inf, math.inf], [-math.inf, -math.inf, 0.0]],
                         ids=["inf-inf", "minus-inf-twice"])
def test_infinite_times_are_refused_without_a_warning(times):
    data = {"kind": "tabulated", "times": times, "values": [1.0] * len(times)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^times must be finite and strictly increasing$"):
            LapseProfile.from_json_dict(data)


# numbers no JSON decoder gives, which a library caller may: a constant lapse
# and a table read each alike, as the float struct.pack("d") takes it
@pytest.mark.parametrize("number", [Decimal("1.3"), Fraction(13, 10), np.float64(1.3),
                                    np.float32(1.25), np.int64(2), 2, 1.3],
                         ids=["Decimal", "Fraction", "float64", "float32", "int64", "int",
                              "float"])
def test_a_number_type_reads_alike_as_a_value_and_in_a_table(number):
    want = struct.unpack("d", struct.pack("d", number))[0]
    constant = LapseProfile.from_json_dict({"kind": "constant", "value": number})
    assert type(constant.value) is float and constant.value == want
    table = LapseProfile.from_json_dict({"kind": "tabulated", "times": [-1.0, 0.0, number],
                                         "values": [number, 1.0, number]})
    assert table.times.tolist() == [-1.0, 0.0, want]
    assert table.values.tolist() == [want, 1.0, want]


@pytest.mark.parametrize("entry", [True, np.array([1.3, 1.3]), "1.3", Decimal("sNaN")],
                         ids=["bool", "array", "string", "signaling-nan"])
def test_what_struct_refuses_is_refused_as_a_value_and_in_a_table(entry):
    with pytest.raises(ValueError, match="^constant lapse value must be finite numbers$"):
        LapseProfile.from_json_dict({"kind": "constant", "value": entry})
    with pytest.raises(ValueError, match="^tabulated lapse times, values must be finite numbers$"):
        LapseProfile.from_json_dict({"kind": "tabulated", "times": [-1.0, 0.0, 1.0],
                                     "values": [1.0, entry, 1.0]})


@DECODERS
def test_lifespan_converts_each_number_list_of_a_table_once(tmp_path, monkeypatch, capsys,
                                                            decoder):
    # orjson's value is checked over the float image of each list of numbers,
    # and the lapse reads its times and values from those images; json's
    # value is converted by the lapse alone
    path = tmp_path / "table.json"
    path.write_text(json.dumps(TABLE_DOC), encoding="utf-8")
    convert, parse = lapse._float_image, cli._parse_pair
    images, profiles = [], []

    def spy_convert(items):
        image = convert(items)  # struct.error on a list of other entries
        images.append((list(items), image))
        return image

    def spy_parse(*args):
        pair, profile = parse(*args)
        profiles.append(profile)
        return pair, profile

    monkeypatch.setattr(lapse, "_float_image", spy_convert)
    monkeypatch.setattr(cli, "_parse_pair", spy_parse)
    with decoding_with(decoder):
        assert main(["lifespan", str(path)]) == 0
    monkeypatch.undo()
    times, values = TABLE_DOC["beta"]["times"], TABLE_DOC["beta"]["values"]
    assert sorted(items for items, _ in images) == sorted([times, values])
    (profile,) = profiles
    # the profile keeps the images, with no copy
    assert {id(profile.times), id(profile.values)} == {id(image) for _, image in images}
    assert profile.times.tolist() == times and profile.values.tolist() == values
    assert not profile.times.flags.writeable and not profile.values.flags.writeable
    assert '"immortal"' in capsys.readouterr().out


@NEEDS_ORJSON
def test_a_document_sent_to_json_leaves_no_images(tmp_path):
    # the walk converts the table's lists before it meets 2**64, which sends
    # the document to json: json's lists are new, so no image may be kept
    text = '{"x": [[18446744073709551616]], ' + json.dumps(TABLE_DOC)[1:]
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    found = {}
    assert cli._orjson_reads_alike(orjson.loads(text), found) is False
    assert len(found) == 2
    images = {}
    with decoding_with("orjson"):  # the document is below _ORJSON_MIN_BYTES
        assert same(cli._load_input(str(path), images), json.loads(text))
        assert images == {}
        # the table alone is orjson's value, with the images of its two lists
        path.write_text(json.dumps(TABLE_DOC), encoding="utf-8")
        assert same(cli._load_input(str(path), images), json.loads(json.dumps(TABLE_DOC)))
    assert len(images) == 2


@NEEDS_ORJSON
@pytest.mark.parametrize("size, by_orjson", [
    (cli._ORJSON_MIN_BYTES - 1, False), (cli._ORJSON_MIN_BYTES, False),
    (cli._ORJSON_MIN_BYTES + 1, True),
], ids=["below", "at", "above"])
def test_a_file_reaches_orjson_only_above_the_threshold(tmp_path, monkeypatch, capsys,
                                                        size, by_orjson):
    # the table padded with trailing spaces to ``size`` bytes: the value,
    # the lapse's floats and the command's bytes are the unpadded file's,
    # and only orjson's value gives the images of the two lists
    text = json.dumps(TABLE_DOC)
    padded, plain = tmp_path / "padded.json", tmp_path / "plain.json"
    padded.write_bytes((text + " " * (size - len(text))).encode("utf-8"))
    plain.write_text(text, encoding="utf-8")
    assert padded.stat().st_size == size
    calls = []
    loads = orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda data: calls.append(len(data)) or loads(data))
    images = {}
    got = cli._load_input(str(padded), images)
    assert calls == [size] * by_orjson
    assert same(got, json.loads(text))
    assert len(images) == 2 * by_orjson
    _, profile = cli._parse_pair(got, images)
    for field in ("times", "values"):
        want = np.array(TABLE_DOC["beta"][field], dtype=float)
        assert getattr(profile, field).tobytes() == want.tobytes()
    outputs = []
    for path in (padded, plain):
        assert main(["validate", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out.startswith("row: tau2+R (general)\n")
