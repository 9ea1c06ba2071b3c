"""The golden corpus: every command of ``tests/golden`` gives the exit code,
stdout and stderr recorded there.

Exit codes and every token that is not a number compare exactly.  A printed
number may differ from the recorded one by one unit in its last digit, or,
where the shortest repr of a float is printed, by one ulp of that float:
numpy and libm may round an ulp apart across machines.  On the machine that
wrote the corpus, rerunning ``tests/golden/regenerate.py`` and ``git diff
tests/golden`` compare bytes.

The commands that run the kernel (``flow``, which prints its table through
the kernel's ``e12`` and marches with ``--method rk4``, ``curvature``,
which prints its cells through the kernel's ``reprs``, and ``verify``) run
once more on the pure-Python kernel ``_kernel_py``, the fallback of a
machine that cannot build the C kernel: it must print the active kernel's
bytes.
"""

import json
import math
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from golden import regenerate
from spinorflow import _kernel_py, backend

# a number not glued to a word before it: "R3" and "tau2R" are text
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

FILES = regenerate.corpus_files()


def _unit(token: str) -> Decimal:
    """One unit in the last printed digit of ``token``."""
    return Decimal(1).scaleb(Decimal(token).as_tuple().exponent)


def _close(want: str, got: str) -> bool:
    return (abs(Decimal(want) - Decimal(got)) <= _unit(want)
            or abs(float(want) - float(got)) <= math.ulp(float(want)))


def same_output(want: str, got: str) -> bool:
    """The same text between numbers, and each number ``_close`` to its own."""
    a, b = NUMBER.split(want), NUMBER.split(got)
    if len(a) != len(b) or a[0::2] != b[0::2]:
        return False
    return all(map(_close, a[1::2], b[1::2]))


def test_the_corpus_holds_every_case():
    cases = regenerate.cases()
    assert sorted(f.stem for f in FILES) == sorted(cases)
    for path in FILES:
        record = json.loads(path.read_text())
        data, argvs = cases[path.stem]
        assert record["input"] == data
        assert [run["argv"] for run in record["runs"]] == argvs


@pytest.mark.parametrize("path", FILES, ids=[f.stem for f in FILES])
def test_commands_reproduce_the_corpus(path):
    record = json.loads(path.read_text())
    for want in record["runs"]:
        got = regenerate.run(record["input"], want["argv"])
        where = " ".join(want["argv"])
        assert got["exit"] == want["exit"], where
        for stream in ("stdout", "stderr"):
            assert same_output("\n".join(want[stream]), "\n".join(got[stream])), \
                f"{where}: {stream} differs"


@pytest.mark.parametrize("path", FILES, ids=[f.stem for f in FILES])
def test_the_python_kernel_prints_the_same_bytes(path, monkeypatch):
    record = json.loads(path.read_text())
    commands = ("validate", "classify", "flow", "curvature", "verify")
    for want in [run for run in record["runs"] if run["argv"][0] in commands]:
        got = regenerate.run(record["input"], want["argv"])
        with monkeypatch.context() as patch:
            patch.setattr(backend, "_kern", _kernel_py)
            fallback = regenerate.run(record["input"], want["argv"])
        assert fallback == got, " ".join(want["argv"])
        assert fallback["exit"] == want["exit"]
        for stream in ("stdout", "stderr"):
            assert same_output("\n".join(want[stream]), "\n".join(fallback[stream]))


def test_the_numpy_free_runs_replay_byte_for_byte():
    # tools/replay_corpus.py in a fresh interpreter: validate and classify of
    # every input without a table, on a copy of src/ that builds its own
    # kernel; on the C kernel they load no numpy
    tool = Path(__file__).resolve().parents[1] / "tools" / "replay_corpus.py"
    proc = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    head, counts = proc.stdout.splitlines()
    runs = sum(len(json.loads(path.read_text())["runs"]) for path in FILES)
    assert counts == f"replayed 88, skipped {runs - 88}, mismatched 0"
    assert head.endswith(", kernel c, numpy loaded: no") or ", kernel python, " in head


class TestSameOutput:
    def test_a_last_digit_unit_passes(self):
        assert same_output("H0: 1.000000000000e+00\n", "H0: 9.999999999999e-01\n")
        assert same_output("[0.1, 2]", "[0.10000000000000002, 2]")  # one ulp
        assert same_output("[0.10000000000000002, 2]", "[0.1, 2]")
        assert same_output("-0.000000000000e+00", "0.000000000000e+00")

    @pytest.mark.parametrize("got", [
        "H0: 1.000000000002e+00\n",    # two units
        "H0: -1.000000000000e+00\n",   # a flipped sign
        "H0: 1.000000000000e+01\n",    # another exponent
        "H0: 1.00000000001e+00\n",     # one unit of a digit fewer
        "H1: 1.000000000000e+00\n",    # text glued to a number
        "H0: 1.000000000000e+00",      # a missing newline
        "H0: 1.000000000000e+00 0\n",  # one more number
    ])
    def test_anything_else_fails(self, got):
        assert not same_output("H0: 1.000000000000e+00\n", got)
