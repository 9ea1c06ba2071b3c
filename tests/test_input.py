"""Input decoding: with orjson installed or not, ``cli._load_input`` gives
the values ``json`` gives, bit for bit, or raises the error ``json`` raises."""

import contextlib
import json
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinorflow
from spinorflow import cli
from spinorflow.cli import EXIT_IO, main

DECODERS = pytest.mark.parametrize("decoder", [
    pytest.param("orjson", marks=pytest.mark.skipif(cli._orjson is None,
                                                    reason="orjson is not installed")),
    "json"])


@contextlib.contextmanager
def decoding_with(decoder):
    """``cli._orjson`` as it is for "orjson", and None for "json"."""
    installed = cli._orjson
    cli._orjson = installed if decoder == "orjson" else None
    try:
        yield
    finally:
        cli._orjson = installed


def parent_load(path):
    """The decoder before orjson: ``json.load`` of the file in text mode."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def outcome(load, path):
    try:
        return "value", load(path)
    except Exception as exc:  # the type and message are what is compared
        return "error", (type(exc), str(exc))


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
    want = outcome(parent_load, path)
    for decoder in ("orjson", "json")[cli._orjson is None:]:
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
        want, got = outcome(parent_load, path), outcome(cli._load_input, path)
    assert want[0] == got[0]
    assert same(want[1], got[1]) if want[0] == "value" else want[1] == got[1]


@pytest.mark.skipif(cli._orjson is None, reason="orjson is not installed")
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

    def refuse(*args, **kwargs):
        raise AssertionError("json decoded a document orjson reads alike")

    monkeypatch.setattr(cli.json, "loads", refuse)
    assert same(cli._load_input(str(path)), want)


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


def test_the_backend_is_reported():
    want = "json" if cli._orjson is None else "orjson"
    assert cli.JSON_BACKEND == spinorflow.JSON_BACKEND == want
    assert "JSON_BACKEND" in spinorflow.__all__
    with pytest.raises(AttributeError, match="no attribute 'JSON_BACKENDS'"):
        spinorflow.JSON_BACKENDS

