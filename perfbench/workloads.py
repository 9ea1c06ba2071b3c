"""Seeded inputs and command mixes of the benchmark workloads.

Every workload draws its pairs from the eight rows of the admissible-family
table (the same representatives as the test suite's ``ROW_PAIRS``).  Each
drawn pair is the row's representative times a seeded scale c in [0.5, 2]
and a seeded sign; the four admissibility relations are homogeneous
quadratics, so c * Theta stays admissible and keeps its row.

Inputs come in blocks of eight rounds, one round per row in table order.
A round runs a fixed list of CLI commands on one generated pair.  Which row
meets which verify suite or table-size stratum follows a
fixed cyclic (Latin-square) schedule over the blocks; the seed draws
everything else.  The schedule keeps the mix of costs in a run the same
from seed to seed, so that run-to-run spread reflects the program.
Tabulated lapses draw their node counts log-uniformly from [100, 20000],
stratified: a run of B blocks cuts the log range into 8 * B slices and
draws once in each.

The program sees only the JSON files written here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# (row label as `spinorflow validate` prints it, representative components)
ROWS = (
    ("R3", {"uu": 1.0}),
    ("E11", {"ll": 1.0, "nn": -1.0}),
    ("tau2+R (lambda)", {"ul": 0.6, "un": 0.8}),
    ("tau2+R (quasi-diagonal)", {"uu": 1.0, "ll": 1.0}),
    ("tau2+R (u-l)", {"uu": -2.0, "ul": 1.0, "ll": 2.0}),
    ("tau2+R (u-n)", {"uu": -2.0, "un": 1.0, "nn": 2.0}),
    ("tau2+R (general)", {"uu": -2.0, "ul": 1.0, "un": 1.0,
                          "ll": 1.0, "ln": 1.0, "nn": 1.0}),
    ("tau3mu", {"uu": 5.0 / 3.0, "ll": 2.0, "nn": 1.0}),
)
KEYS = ("uu", "ul", "un", "ll", "ln", "nn")

WORKLOADS = ("oracle", "tabulated")
COMMANDS = ("validate", "lifespan", "flow_exact", "flow_rk4", "curvature", "verify")

SUITES = ("constraints", "ricci4", "ricciflow", "cosymplectic", "oracle")

# Seconds one block of commands takes on the reference machine (2 vCPUs,
# Python 3.11, pure-Python kernel).  A run measures a whole number of blocks
# sized from these, so every run of a workload measures the same mix.
BLOCK_SECONDS = {"oracle": 9.5, "tabulated": 5.0}

TAB_DOMAIN = (-2.0, 2.0)
TAB_NODES = (100, 20_000)


@dataclass(frozen=True)
class Case:
    """One generated input file and the facts the output checks need."""

    path: str
    row: str
    theta: dict
    lapse: dict
    window: tuple[float, float]


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``cmd`` is the metric key it is reported under."""

    cmd: str
    argv: tuple[str, ...]
    case: Case
    samples: int = 0
    suite: str = ""
    # rk4 flows are checked against the exact flow over the same window,
    # which is the command at this offset earlier in the same round
    exact_offset: int = 0


def _draw_theta(rng, comps):
    scale = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    return {k: scale * comps.get(k, 0.0) for k in KEYS}


def _draw_window(rng):
    # the flow starts at t = 0, so every window holds 0 and always meets
    # the lifespan; ends past a boundary are left to the CLI's clipping
    return (float(rng.uniform(-2.0, -0.1)), float(rng.uniform(0.1, 2.0)))


def _draw_tabulated(rng, stratum, position):
    lo, hi = math.log(TAB_NODES[0]), math.log(TAB_NODES[1])
    u = (stratum + position) / 8.0
    n = int(round(math.exp(lo + u * (hi - lo))))
    times = np.linspace(TAB_DOMAIN[0], TAB_DOMAIN[1], n)
    base = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    amp, freq, phase = rng.uniform(0.0, 0.4), rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi)
    values = base * (1.0 + amp * np.sin(freq * times + phase))
    return {"kind": "tabulated", "times": times, "values": values}


def generate_cases(workload: str, seed: int, blocks: int, outdir: str) -> list[list[Case]]:
    """Write ``blocks`` blocks of input files of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    os.makedirs(outdir, exist_ok=True)
    out = []
    for b in range(blocks):
        block = []
        for j, (row, comps) in enumerate(ROWS):
            theta = _draw_theta(rng, comps)
            if workload == "tabulated":
                # the run's blocks split each size stratum into as many
                # slices, each drawn once: a seeded point in a fixed slice
                k = (j + 3 * b) % 8
                lapse = _draw_tabulated(rng, k, ((b + k) % blocks + rng.uniform()) / blocks)
            else:
                lapse = {"kind": "constant",
                         "value": math.exp(rng.uniform(math.log(0.5), math.log(2.0)))}
            path = os.path.join(outdir, f"b{b:03d}_{j}.json")
            wire = {key: v.tolist() if isinstance(v, np.ndarray) else v
                    for key, v in lapse.items()}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"theta": theta, "beta": wire}, fh)
            block.append(Case(path, row, theta, lapse, _draw_window(rng)))
        out.append(block)
    return out


def _window_args(case, samples):
    t0, t1 = case.window
    return ("--t0", repr(t0), "--t1", repr(t1), "--samples", str(samples))


def _flow(case, method, samples, exact_offset=0):
    argv = ("flow", case.path, *_window_args(case, samples), "--method", method)
    return Command("flow_" + method, argv, case, samples=samples, exact_offset=exact_offset)


def _curvature(case, samples):
    return Command("curvature", ("curvature", case.path, *_window_args(case, samples)),
                   case, samples=samples)


def _verify(case, suite):
    return Command("verify", ("verify", case.path, "--suite", suite), case, suite=suite)


def round_commands(workload: str, b: int, j: int, case: Case) -> list[Command]:
    """Commands of the round of row ``j`` in block ``b``."""
    validate = Command("validate", ("validate", case.path), case)
    lifespan = Command("lifespan", ("lifespan", case.path), case)
    if workload == "oracle":
        # the short commands run three times a round, so that their tails
        # are read from about a hundred samples a run, not thirty
        short = [validate, lifespan, _flow(case, "exact", 20), _curvature(case, 10)]
        return [_flow(case, "exact", 20), _flow(case, "rk4", 20, exact_offset=1),
                _verify(case, "oracle")] + 3 * short
    cmds = [validate, lifespan, validate, lifespan, _flow(case, "exact", 50),
            _curvature(case, 50), _verify(case, SUITES[(j + b) % 5])]
    if (j + b) % 2 == 0:
        # the variable-lapse RK4 flow costs ten times any other command here;
        # on every other round it still takes half the command time and
        # leaves room for twice the samples of the rest
        cmds.append(_flow(case, "rk4", 50, exact_offset=3))
    return cmds


def blocks_for(workload: str, seconds: float) -> int:
    """Whole blocks that take about ``seconds`` on the reference machine."""
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


def block_rounds(workload: str, b: int, block: list[Case]) -> list[list[Command]]:
    """The eight rounds of block ``b``."""
    return [round_commands(workload, b, j, case) for j, case in enumerate(block)]

