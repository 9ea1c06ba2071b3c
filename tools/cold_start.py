"""Time each CLI command as a user runs it: a fresh interpreter that imports
``spinorflow.cli`` and runs ``main(argv)`` once, in two checkouts.

Usage, from anywhere:

    python3 tools/cold_start.py --parent PARENT_DIR --change CHANGE_DIR

Each command runs on a pair with a tabulated lapse, and ``validate`` and
``classify`` also on the same pair with a constant lapse, which they check
without numpy on the C kernel; the pairs are written to a temporary
directory.  For each command, each of ``PAIRS`` pairs of runs times one
process per checkout (``PYTHONPATH`` set to its ``src/``), alternating which
side goes first from pair to pair, after one untimed run per side that warms the
file cache (and writes the bytecode caches, unless PYTHONDONTWRITEBYTECODE
is set, in which case each process compiles the modules it imports).  A
time is the wall time of the whole process: interpreter start, imports and
the command.  The script prints, per command, the median time of each side
with its quartiles (``bench_record.quartiles``, the rule of the BENCH
records), the ratio of the medians, and the number of pairs in which the
change was faster, faster by 10% or more, and faster by 25% or more.

This is the cost that ``perfbench`` does not see: its warm-up round loads
every module before any command is timed, and its ``setup_s`` times the
import of ``spinorflow.cli`` alone.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from bench_record import SIDES, quartiles

PAIRS = 20
# the gains counted pair by pair: faster, and faster by each of these shares
MARGINS = (0.10, 0.25)
# a pair of the tau_2 + R family, with a kinked three-node lapse table and
# with a constant lapse
THETA = {"uu": -2, "ul": 1, "un": 1, "ll": 1, "ln": 1, "nn": 1}
LAPSES = {
    "tabulated": {"kind": "tabulated", "times": [-1.0, 0.2, 1.5], "values": [0.8, 1.3, 1.0]},
    "constant": {"kind": "constant", "value": 1.3},
}
# (label, lapse, options)
COMMANDS = (
    ("validate", "tabulated", []),
    ("validate, constant lapse", "constant", []),
    ("classify, constant lapse", "constant", []),
    ("lifespan", "tabulated", []),
    ("flow --method exact", "tabulated", ["--method", "exact"]),
    ("flow --method rk4", "tabulated", ["--method", "rk4"]),
    ("curvature", "tabulated", []),
    ("verify", "tabulated", []),
)
RUN_MAIN = "import sys; from spinorflow.cli import main; sys.exit(main(sys.argv[1:]))"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout before the change")
    p.add_argument("--change", required=True, help="checkout with the change")
    return p.parse_args(argv)


def run_once(checkout: str, argv: list[str]) -> float:
    """Wall seconds of one process that runs ``main(argv)`` from ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"cold_start: {' '.join(argv)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for lapse, beta in LAPSES.items():
            paths[lapse] = os.path.join(tmp, f"{lapse}.json")
            with open(paths[lapse], "w", encoding="utf-8") as fh:
                json.dump({"theta": THETA, "beta": beta}, fh)
        print("| command | parent ms (q1–q3) | change ms (q1–q3) | change/parent "
              "| change faster |" + "".join(f" by {m:.0%} or more |" for m in MARGINS))
        print("|---|---|---|---|---|" + "---|" * len(MARGINS))
        for label, lapse, options in COMMANDS:
            command = [label.split()[0].rstrip(","), paths[lapse], *options]
            for side in SIDES:
                run_once(checkouts[side], command)
            times = {side: [] for side in SIDES}
            wins = [0] * (1 + len(MARGINS))
            for k in range(PAIRS):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {side: run_once(checkouts[side], command) for side in order}
                wins[0] += pair["change"] < pair["parent"]
                for i, m in enumerate(MARGINS, 1):
                    wins[i] += pair["change"] <= (1.0 - m) * pair["parent"]
                for side in SIDES:
                    times[side].append(pair[side] * 1e3)
            q = [quartiles(times[side]) for side in SIDES]
            cells = [f"{s['median']:.1f} ({s['q1']:.1f}–{s['q3']:.1f})" for s in q]
            print(f"| `{label}` | {cells[0]} | {cells[1]} | "
                  f"{q[1]['median'] / q[0]['median']:.3f} |"
                  + "".join(f" {w}/{PAIRS} |" for w in wins), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
