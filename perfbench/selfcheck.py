"""Self-checks of the benchmark.  Run from the root of a checkout with

    python3 -m pytest perfbench/selfcheck.py

They cover the input generator, the output checks (a corrupted output must
count as a failure), a short smoke run of every workload in both modes,
and the agreement between the names the benchmark prints, BENCHMARK.json
and mapping.json.
"""

from __future__ import annotations

import filecmp
import fnmatch
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spinorflow import CauchyPair, LapseProfile, validate  # noqa: E402
import spinorflow.cli as cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "mapping.json"), encoding="utf-8") as _fh:
    MAPPING = json.load(_fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_rows_and_determinism(workload, tmp_path):
    first = workloads.generate_cases(workload, 7, 4, str(tmp_path / "a"))
    again = workloads.generate_cases(workload, 7, 4, str(tmp_path / "b"))
    other = workloads.generate_cases(workload, 8, 4, str(tmp_path / "c"))
    for block, twin, diff in zip(first, again, other):
        assert sorted(c.row for c in block) == sorted(r for r, _ in workloads.ROWS)
        for case, case2, case3 in zip(block, twin, diff):
            assert filecmp.cmp(case.path, case2.path, shallow=False)
            assert not filecmp.cmp(case.path, case3.path, shallow=False)
            with open(case.path, encoding="utf-8") as fh:
                data = json.load(fh)
            report = validate(CauchyPair.from_json_dict(data))
            assert report.valid and report.row == case.row
            LapseProfile.from_json_dict(data)  # a lapse the program accepts
            t0, t1 = case.window
            assert -2.0 <= t0 < 0.0 < t1 <= 2.0
    if workload == "tabulated":
        for block in first:
            nodes = sorted(len(c.lapse["times"]) for c in block)
            edges = np.geomspace(*workloads.TAB_NODES, 9)
            assert all(lo - 1 <= n <= hi + 1 for n, lo, hi in zip(nodes, edges, edges[1:]))


def _run(cmd):
    code, _, out, err = run.execute(cli, cmd.argv)
    return code, out, err


@pytest.fixture
def general_case(tmp_path):
    theta = {"uu": -2.0, "ul": 1.0, "un": 1.0, "ll": 1.0, "ln": 1.0, "nn": 1.0}
    lapse = {"kind": "constant", "value": 1.0}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"theta": theta, "beta": lapse}))
    return workloads.Case(str(path), "tau2+R (general)", theta, lapse, (-0.3, 0.2))


def _perturb_csv(out, row, col, factor=1.0 + 1e-6):
    lines = out.splitlines()
    cells = lines[row].split(",")
    cells[col] = "%.12e" % (float(cells[col]) * factor + 1e-6)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_corrupted_outputs_count_as_failures(general_case):
    tally = run.Tally()
    exact = workloads._flow(general_case, "exact", 20)
    rk4 = workloads._flow(general_case, "rk4", 20, exact_offset=1)
    code, out, err = _run(exact)
    verdict, table = checks.check(exact, code, out, err)
    assert verdict.ok, verdict.detail
    rk_code, rk_out, rk_err = _run(rk4)
    assert checks.check(rk4, rk_code, rk_out, rk_err, table)[0].ok

    ll = checks.FLOW_COLUMNS.index("theta_ll")
    bad, _ = checks.check(exact, code, _perturb_csv(out, 10, ll), err)
    assert bad.unexpected
    tally.add(exact, 0.0, (1.0, 1.0), bad)
    # a corrupted row in the middle of an rk4 table is not the known defect
    bad_rk4, _ = checks.check(rk4, rk_code, _perturb_csv(rk_out, 10, ll), rk_err, table)
    assert bad_rk4.unexpected

    curv = workloads._curvature(general_case, 5)
    c_code, c_out, c_err = _run(curv)
    assert checks.check(curv, c_code, c_out, c_err)[0].ok
    data = json.loads(c_out)
    data["samples"][2]["ricci4"][0][1] += 1e-3
    assert checks.check(curv, c_code, json.dumps(data), c_err)[0].unexpected

    life = workloads.Command("lifespan", ("lifespan", general_case.path), general_case)
    l_code, l_out, l_err = _run(life)
    assert checks.check(life, l_code, l_out, l_err)[0].ok
    data = json.loads(l_out)
    data["t_plus"] = "%.12e" % (float(data["t_plus"]) * (1 + 1e-8))
    assert checks.check(life, l_code, json.dumps(data), l_err)[0].unexpected

    ver = workloads._verify(general_case, "constraints")
    v_code, v_out, v_err = _run(ver)
    assert checks.check(ver, v_code, v_out, v_err)[0].ok
    lying = v_out.replace("[pass]", "[FAIL]", 1)
    assert checks.check(ver, v_code, lying, v_err)[0].unexpected
    assert tally.failed == 1 and tally.by_class == {"unexpected": 1}


def test_known_defect_classes_are_narrow(tmp_path):
    # R3 with unit lapse dies at t = 1: the window is clipped 1e-6 short of
    # it, and the rk4 table leaves the exact one on its last row only
    theta = {"uu": 1.0, "ul": 0.0, "un": 0.0, "ll": 0.0, "ln": 0.0, "nn": 0.0}
    lapse = {"kind": "constant", "value": 1.0}
    path = tmp_path / "r3.json"
    path.write_text(json.dumps({"theta": theta, "beta": lapse}))
    case = workloads.Case(str(path), "R3", theta, lapse, (-0.3, 1.5))
    exact = workloads._flow(case, "exact", 20)
    rk4 = workloads._flow(case, "rk4", 20, exact_offset=1)
    verdict, table = checks.check(exact, *_run(exact))
    assert verdict.ok, verdict.detail
    rk_code, rk_out, rk_err = _run(rk4)
    near_end, _ = checks.check(rk4, rk_code, rk_out, rk_err, table)
    assert near_end.known == "rk4-accuracy", near_end
    for row in (5, 19):  # rows 1-20 of the CSV; row 20 is the clipped end
        ll = checks.FLOW_COLUMNS.index("theta_ll")
        corrupted = _perturb_csv(rk_out, row, ll)
        assert checks.check(rk4, rk_code, corrupted, rk_err, table)[0].unexpected
    assert checks.check(rk4, rk_code, rk_out, rk_err, None)[0].unexpected

    tab = dict(case.__dict__, lapse={"kind": "tabulated"})
    oracle = workloads._verify(workloads.Case(**tab), "oracle")
    report = ("[pass] theta u-l: max residual 2.0e-12 (tol 1e-08)\n"
              "[FAIL] tau2+R u-l: max residual {} (tol 1e-08)\n")
    assert checks.check(oracle, 2, report.format("1.12e-08"), "")[0].known == "tabulated-oracle"
    assert checks.check(oracle, 2, report.format("3.0e-08"), "")[0].unexpected
    constant = workloads._verify(case, "oracle")
    assert checks.check(constant, 2, report.format("1.12e-08"), "")[0].unexpected


def test_broken_span_records_are_detected(general_case):
    import tracing

    tracer = tracing.Tracer()
    commands = [workloads._curvature(general_case, 3),
                workloads._verify(general_case, "ricci4")]
    tracer.install()
    try:
        wall = sum(run.run_round(cli, commands, None, tracer=tracer))
    finally:
        tracer.uninstall()
    assert tracer.problems(wall, len(commands)) == []
    assert tracer.problems(wall * 1.05, len(commands))
    assert tracer.problems(wall, len(commands) + 1)
    child = next(i for i, p in enumerate(tracer.parent) if p >= 0)
    tracer.end[child] = tracer.end[tracer.parent[child]] + 1e-3
    assert "a span reaches outside its parent" in tracer.problems(wall, len(commands))


def test_mapping_covers_every_layer_metric():
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    names = {w["name"] for w in BENCH["workloads"]}
    for entry in MAPPING:
        for pattern in entry["moves"]:
            assert fnmatch.filter(e2e, pattern), pattern
        assert set(entry["on"]) | set(entry["not_on"]) <= names
    for m in BENCH["per_layer"]:
        assert any(fnmatch.fnmatch(m["name"], p)
                   for entry in MAPPING for p in entry["layer_metrics"]), m["name"]


def test_benchmark_json_names():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == run.END_TO_END
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] < result["attempted"]
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = _bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
