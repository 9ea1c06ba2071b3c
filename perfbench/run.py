"""End-to-end and per-layer benchmark of the spinorflow CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

The benchmark writes seeded pair files (see ``workloads.py``), then drives
``spinorflow.cli.main(argv)`` in this process, one command at a time: a
closed loop with one client, one process and one thread.  Stdout and stderr
go to in-memory buffers and every command's output is checked by
``checks.py``.  Import cost is kept out of the command latencies: it is
measured as ``setup_s`` in fresh interpreters, and one untimed warm-up
round runs before timing starts.

The machine's speed drifts by 10-30% over seconds to minutes.  Each
command is therefore timed between two short calibration loops that do not
touch the program, and the latencies behind the timing metrics are scaled
to a reference machine speed (``Tally.latency``).  Unscaled medians and
tails are written to the result file beside them.

A run measures whole blocks of eight rounds, as many as take about
``--seconds`` on the reference machine (``workloads.BLOCK_SECONDS``): a
fixed amount of work, so that every run of a workload measures the same
mix of commands.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs each block first untraced and then again with the spans
of ``tracing.py`` installed (half as many blocks, so the run takes about as
long); it reports per-layer metrics per block and ``trace.overhead``, the
untraced over the traced command throughput.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with run
metadata and per-command sample counts, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")

SETUP_RUNS = 15
# Latencies are scaled to a reference speed of the machine: each command is
# timed between two runs of ``calibrate`` and its latency multiplied by
# CALIBRATION_REF_S over the median calibration time of the commands within
# CALIBRATION_SPAN on either side of it.
CALIBRATION_REF_S = 0.8e-3
CALIBRATION_SPAN = 3
_CAL_MATRIX = np.arange(9.0).reshape(3, 3)
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import spinorflow.cli; "
                 "print(time.perf_counter() - t)")
END_TO_END = (["setup_s", "ops_per_s", "ok_ratio", "peak_rss_mb"]
              + [f"{c}_{k}" for c in workloads.COMMANDS for k in ("p50_ms", "tail_ms")])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="spinorflow CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def locate_sources() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "spinorflow", "cli.py")):
        raise SystemExit("perfbench: no ./src/spinorflow; run from the root of a checkout")
    return src


def measure_setup(src) -> float:
    """Seconds to ``import spinorflow.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def calibrate() -> float:
    """Seconds a fixed mix of Python arithmetic and small-array calls takes
    now: a probe of the machine's current speed, independent of the
    program."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    m = _CAL_MATRIX
    for _ in range(60):
        m = np.dot(_CAL_MATRIX, _CAL_MATRIX) + m.T
        acc += float(np.max(np.abs(m)))
    return time.perf_counter() - start


def execute(cli, argv):
    """Run one CLI command in-process; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code if isinstance(exc.code, int) else 3
        except Exception:  # a crash is a failed command, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


class Tally:
    """Latencies and outcomes of the commands run."""

    def __init__(self):
        self.cmd = []  # metric key of each command, in the order run
        self.seconds = []  # its measured latency
        self.calibration = []  # calibrate() before and after it
        self.attempted = 0
        self.failed = 0
        self.by_class = {}
        self.unexpected = []

    def add(self, cmd, seconds, calibration, verdict):
        self.cmd.append(cmd.cmd)
        self.seconds.append(seconds)
        self.calibration.extend(calibration)
        self.attempted += 1
        if verdict.ok:
            return
        self.failed += 1
        label = verdict.known or "unexpected"
        self.by_class[label] = self.by_class.get(label, 0) + 1
        if verdict.unexpected and len(self.unexpected) < 20:
            self.unexpected.append(f"{' '.join(cmd.argv)}: {verdict.detail}")

    def latency(self, scaled=True) -> dict[str, list[float]]:
        """Latencies by command; ``scaled`` multiplies each by the reference
        over the local calibration time."""
        cal = np.asarray(self.calibration)
        span = CALIBRATION_SPAN
        out = {c: [] for c in workloads.COMMANDS}
        for j, (c, dt) in enumerate(zip(self.cmd, self.seconds)):
            if scaled:
                dt *= CALIBRATION_REF_S / np.median(cal[max(0, 2 * (j - span)):2 * (j + span + 1)])
            out[c].append(dt)
        return out


def run_round(cli, commands, tally, tracer=None):
    """Run and check one round of commands; returns their latencies."""
    tables, seconds = [], []
    for cmd in commands:
        if tracer is not None:
            tracer.cmd_id += 1
        before = calibrate()
        code, dt, out, err = execute(cli, cmd.argv)
        after = calibrate()
        exact = tables[-cmd.exact_offset] if cmd.exact_offset else None
        verdict, table = checks.check(cmd, code, out, err, exact)
        tables.append(table if verdict.ok else None)
        seconds.append(dt)
        if tally is not None:
            tally.add(cmd, dt, (before, after), verdict)
    return seconds


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def warm_up(cli, args, cases):
    """One untimed round, so that lazy set-up is done before timing."""
    run_round(cli, workloads.round_commands(args.workload, 0, 0, cases[0][0]), None)


def end_to_end(cli, args, src, cases):
    rounds = [commands for b, block in enumerate(cases)
              for commands in workloads.block_rounds(args.workload, b, block)]
    # set-up is timed before evenly spread rounds, so that a slow spell of
    # the machine cannot hold every sample
    setup_at = collections.Counter(k * len(rounds) // SETUP_RUNS for k in range(SETUP_RUNS))
    warm_up(cli, args, cases)
    tally = Tally()
    setup = []
    for r, commands in enumerate(rounds):
        setup += [measure_setup(src) for _ in range(setup_at[r])]
        run_round(cli, commands, tally)
    latency = tally.latency()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (tally.attempted / sum(map(sum, latency.values())), "1/s"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = tally.latency(scaled=False)
    extra = {"setup_samples_s": setup, "commands": {},
             "calibration_median_s": statistics.median(tally.calibration),
             "timeline": {"cmd": tally.cmd, "seconds": tally.seconds,
                          "calibration_s": tally.calibration}}
    for c in workloads.COMMANDS:
        xs = latency[c]
        value, pct = tail(xs)
        metrics[f"{c}_p50_ms"] = (statistics.median(xs) * 1e3, "ms")
        metrics[f"{c}_tail_ms"] = (value * 1e3, "ms")
        extra["commands"][c] = {"samples": len(xs), "tail_percentile": pct,
                                "raw_p50_ms": statistics.median(raw[c]) * 1e3,
                                "raw_tail_ms": tail(raw[c])[0] * 1e3}
    return metrics, tally, extra, True


def traced(cli, args, cases):
    tracer = tracing.Tracer()
    tally = Tally()
    warm_up(cli, args, cases)
    untraced_wall = traced_wall = 0.0
    traced_commands = 0
    for b, block in enumerate(cases):
        rounds = workloads.block_rounds(args.workload, b, block)
        for commands in rounds:
            untraced_wall += sum(run_round(cli, commands, tally))
        tracer.install()
        try:
            for commands in rounds:
                traced_wall += sum(run_round(cli, commands, tally, tracer=tracer))
                traced_commands += len(commands)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(traced_wall, untraced_wall, len(cases))
    os.makedirs(RESULTS, exist_ok=True)
    tracer.save(os.path.join(RESULTS, f"spans-{args.workload}.npz"))
    problems = tracer.problems(traced_wall, traced_commands)
    extra = {"blocks": len(cases), "spans": len(tracer.name), "trace_problems": problems,
             "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return metrics, tally, extra, not problems


def metadata(args):
    import numpy
    import scipy
    import spinorflow

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "kernel_backend": spinorflow.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    src = locate_sources()
    sys.path.insert(0, src)
    import spinorflow.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported spinorflow from {cli.__file__}, not {src}")
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    # a traced run runs each block twice, so it takes half as many
    blocks = workloads.blocks_for(args.workload, args.seconds / (2 if args.trace else 1))
    try:
        cases = workloads.generate_cases(args.workload, args.seed, blocks, workdir)
        metrics, tally, extra, consistent = (
            traced(cli, args, cases) if args.trace else end_to_end(cli, args, src, cases))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = consistent and not tally.unexpected
    fail_ratio = tally.failed / tally.attempted
    result = {
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    report = dict(result, meta=metadata(args), fail_ratio=fail_ratio,
                  failures_by_class=tally.by_class, unexpected=tally.unexpected,
                  samples=collections.Counter(tally.cmd), **extra)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    meta = report["meta"]
    print(f"# {args.workload} seed {args.seed}: python {meta['python']}, numpy "
          f"{meta['numpy']}, scipy {meta['scipy']}, kernel {meta['kernel_backend']}, "
          f"nproc {meta['nproc']}")
    print(f"fail_ratio {fail_ratio:.6f} ({tally.failed} failed of {tally.attempted} "
          f"attempted; by class {tally.by_class})")
    for line in tally.unexpected:
        print(f"unexpected failure: {line}")
    for c, info in extra.get("commands", {}).items():
        print(f"{c}: {info['samples']} samples, tail = p{info['tail_percentile']:.1f}")
    if args.trace:
        print(f"trace: {extra['blocks']} block(s), {extra['spans']} spans, problems: "
              f"{'; '.join(extra['trace_problems']) or 'none'}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
