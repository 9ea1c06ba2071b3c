"""Record a before/after benchmark of two checkouts as one BENCH_*.json.

Usage, from anywhere:

    python3 tools/bench_record.py --parent PARENT_DIR --change CHANGE_DIR \
        --seeds 2 3 4 5 6 7 8 9 10 11 --out BENCH_<n>.json \
        [--revisions PARENT_COMMIT CHANGE_COMMIT]

For each workload declared in the change's ``BENCHMARK.json`` and each seed,
the script runs

    python3 perfbench/run.py --workload W --seed S --seconds R --trace 0

once in each checkout (R is the ``run_seconds`` there), alternating which
side goes first from seed to seed, and reads each run's last stdout line (one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``).  Then it
runs the Tier-1 tests once per side and times them, and reads the duration
of criterion 1 (the RK4 oracle test, gated at 5 s) from pytest's
``--durations`` report.  The record holds, per workload and side, each
end-to-end metric seed by seed with its median and quartiles, the failure
counts seed by seed, the number of seed pairs in which the change is better
on each metric, the Tier-1 wall times with the criterion-1 durations and
the machine metadata, with the orjson version (null when it is not
installed).

Each checkout must be a complete tree with ``src/`` and ``perfbench/``;
make them with ``git clone`` or ``git archive``.  The record names each
side's commit: ``git rev-parse HEAD`` of a clone, or, for trees without
``.git``, the commits given to ``--revisions``.  A run leaves its results in
that checkout's ``perfbench/results/`` (git-ignored).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=0"]
# the line of criterion 1's test body in a --durations report
CRITERION_1 = re.compile(
    r"^([0-9.]+)s call\s+tests/test_acceptance\.py::test_criterion_1_oracle_equivalence$")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout before the change")
    p.add_argument("--change", required=True, help="checkout with the change")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", required=True, help="the BENCH_*.json to write")
    p.add_argument("--revisions", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="the commits of the two trees, for trees without .git")
    return p.parse_args(argv)


def perfbench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``checkout``: its last-line JSON object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(argv)} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(checkout: str) -> dict:
    """Wall time, criterion-1 duration (None when the report lacks it) and
    summary line of one Tier-1 run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    criterion_1 = next((float(m.group(1)) for m in map(CRITERION_1.match, lines) if m),
                       None)
    return {"wall_s": round(wall, 2), "criterion_1_s": criterion_1,
            "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value stands for all)."""
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"q1": q[0], "median": q[1], "q3": q[2]}


def revision(checkout: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None  # a tree from git archive
    return proc.stdout.strip()


def machine() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((re.sub(r".*:\s*", "", line).strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        import orjson
    except ImportError:
        orjson = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "orjson": None if orjson is None else orjson.__version__,
            "platform": platform.platform(), "cpu": model,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def summarize(runs: dict, declared: list[dict]) -> dict:
    """Per side, quartiles of each metric over the seeds; per metric, the
    seed pairs in which the change is better."""
    out = {side: {} for side in SIDES}
    better = {}
    for spec in declared:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        for side in SIDES:
            out[side][name] = dict(quartiles(values[side]), unit=spec["unit"],
                                   values=values[side])
        sign = -1.0 if spec["better"] == "lower" else 1.0
        better[name] = sum(sign * (c - p) > 0
                           for p, c in zip(values["parent"], values["change"]))
    out["change_better_pairs"] = better
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    checkouts = {"parent": parent, "change": change}
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    record = {
        "date": datetime.date.today().isoformat(),
        "command": bench["command"] + ["--workload", "W", "--seed", "S", "--seconds",
                                       f"{seconds:g}", "--trace", "0"],
        "seeds": args.seeds,
        "revisions": dict(zip(SIDES, args.revisions)) if args.revisions else
                     {side: revision(path) for side, path in checkouts.items()},
        "machine": machine(),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = perfbench(checkouts[side], workload, seed, seconds)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: correct {result['correct']}, "
                      f"failed {result['failed']}", file=sys.stderr)
        entry = summarize(runs, bench["end_to_end"])
        entry["failed_by_seed"] = {
            side: {str(s): r["failed"] for s, r in zip(args.seeds, runs[side])}
            for side in SIDES}
        entry["attempted_by_seed"] = {
            side: {str(s): r["attempted"] for s, r in zip(args.seeds, runs[side])}
            for side in SIDES}
        entry["all_correct"] = {side: all(r["correct"] for r in runs[side])
                                for side in SIDES}
        record["workloads"][workload] = entry
    record["tier1"] = {side: tier1(path) for side, path in checkouts.items()}

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
