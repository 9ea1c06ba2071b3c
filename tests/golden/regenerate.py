"""The golden corpus of CLI outputs: its cases, and the script that writes it.

Each case is an input (a pair, with or without a lapse) and the commands run
on it.  The corpus holds one JSON file per input under this directory: the
input, and for each command its argv (``PAIR`` stands for the input file),
exit code, stdout and stderr, the outputs as lists of lines so that a
changed output shows as changed lines in ``git diff``.

Regenerate the corpus with

    PYTHONPATH=src python tests/golden/regenerate.py

from the repository root; ``git diff tests/golden`` then compares bytes.
``tests/test_golden.py`` reruns every command and compares it with the
corpus, allowing a printed number to differ by one unit in its last digit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from spinorflow import cli

HERE = Path(__file__).resolve().parent

ROWS = {
    "R3": dict(uu=1.0),
    "E11": dict(ll=1.0, nn=-1.0),
    "tau2R-lambda": dict(ul=0.6, un=0.8),
    "tau2R-qd": dict(uu=1.0, ll=1.0),
    "tau2R-ul": dict(uu=-2.0, ul=1.0, ll=2.0),
    "tau2R-un": dict(uu=-2.0, un=1.0, nn=2.0),
    "tau2R-general": dict(uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0),
    "tau3mu": dict(uu=5.0 / 3.0, ll=2.0, nn=1.0),
}

PROFILES = {
    "constant-1": None,  # no "beta" field: the CLI's default lapse
    "constant-1.3": {"kind": "constant", "value": 1.3},
    "table-5": {"kind": "tabulated", "times": [-3.0, -1.0, 0.2, 1.5, 4.0],
                "values": [0.9, 0.8, 1.3, 1.0, 1.2]},
}

# both directions of the flow; the window clips on the rows with a pole
# inside it
WINDOW = ["--t0", "-0.5", "--t1", "1.5", "--samples", "7"]

COMMANDS = [
    ["validate", "PAIR"],
    ["classify", "PAIR"],
    ["lifespan", "PAIR"],
    ["flow", "PAIR", *WINDOW],
    ["flow", "PAIR", "--format", "json", *WINDOW],
    ["flow", "PAIR", "--method", "rk4", *WINDOW],
    ["curvature", "PAIR", *WINDOW],
    ["verify", "PAIR"],
    ["verify", "PAIR", "--samples", "7"],
]


def _theta(**components) -> dict:
    return {k: float(components.get(k, 0.0)) for k in ("uu", "ul", "un", "ll", "ln", "nn")}


def _input(theta: dict, beta: dict | None) -> dict:
    data = {"theta": _theta(**theta)}
    if beta is not None:
        data["beta"] = beta
    return data


def cases() -> dict[str, tuple[dict, list[list[str]]]]:
    """name -> (input, the argvs run on it)."""
    out = {}
    for row, theta in ROWS.items():
        for prof, beta in PROFILES.items():
            out[f"{row}.{prof}"] = (_input(theta, beta), COMMANDS)
    # the rows scaled by powers of two: tiny, past the squares' overflow, huge
    for k in (-500, 160, 500):
        for row, theta in ROWS.items():
            scaled = {c: v * 2.0 ** k for c, v in theta.items()}
            out[f"{row}.scaled-2pow{k}"] = (_input(scaled, None), COMMANDS)
    # three reproduced defects, as the program answers them today
    out["repro-offdiagonal-within-tol"] = (
        _input(dict(uu=1.0, ul=5e-10, un=5e-10), None), COMMANDS)
    out["repro-guard-1e13"] = (
        _input(dict(ll=1e13, nn=-1e13), None),
        COMMANDS + [["flow", "PAIR", "--method", "rk4", "--t0", "0", "--t1", "1e-12"],
                    ["flow", "PAIR", "--t0", "0", "--t1", "1e-12"]])
    out["repro-pole-inside"] = (
        _input(dict(uu=1.0, ll=1.35e148), None),
        COMMANDS + [["flow", "PAIR", "--t0", "0", "--t1", "2"]])
    out["invalid"] = (_input(dict(uu=1.0, ul=1.0), None), COMMANDS)
    # the default window, clipped at the pole t = 1, and a window clipped
    # to the end of a table
    out["clipped-R3"] = (_input(ROWS["R3"], None), [
        ["flow", "PAIR"], ["flow", "PAIR", "--method", "rk4"], ["curvature", "PAIR"]])
    short = {"kind": "tabulated", "times": [-0.5, 0.5], "values": [1.0, 1.0]}
    out["clipped-E11-table"] = (_input(ROWS["E11"], short), [
        ["flow", "PAIR", "--t0", "-1", "--t1", "1", "--samples", "3"],
        ["flow", "PAIR", "--method", "rk4", "--t0", "-1", "--t1", "1", "--samples", "3"],
        ["curvature", "PAIR", "--t0", "-1", "--t1", "1", "--samples", "3"]])
    return out


def run(data: dict, argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``spinorflow <argv>`` on ``data``,
    run in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pair.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([path if a == "PAIR" else a for a in argv])
    return {"argv": argv, "exit": code,
            "stdout": out.getvalue().split("\n"), "stderr": err.getvalue().split("\n")}


def corpus_files() -> list[Path]:
    return sorted(HERE.glob("*.json"))


def main() -> int:
    for old in corpus_files():
        old.unlink()
    for name, (data, argvs) in cases().items():
        record = {"input": data, "runs": [run(data, argv) for argv in argvs]}
        with open(HERE / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(f"wrote {len(corpus_files())} files to {HERE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
