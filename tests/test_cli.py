"""CLI surface: exit codes, deterministic output, clipping, sweeps."""

import csv
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinorflow
from spinorflow import _kernel_py, backend, cli, exact, lapse, lorentz, numeric, \
    pairs, verify
from spinorflow.cli import EXIT_INVALID, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from spinorflow.exact import Lifespan

from conftest import curvature_cells, pair_json


def write_pair(tmp_path, name, theta, extra=None):
    path = tmp_path / f"{name}.json"
    payload = {"theta": theta}
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload))
    return str(path)


def theta_dict(**kw):
    base = dict(uu=0.0, ul=0.0, un=0.0, ll=0.0, ln=0.0, nn=0.0)
    base.update(kw)
    return base


# admissible pairs whose closed form divides by a number that underflows to
# zero: lambda * hypot(lambda, Theta_uu) in solve at Theta_ul = 1e-170, and
# lambda^2 + Theta_uu^2 in the constant of H_t at components of 1.5e-162;
# each command, with --tol 1e-300, and the one line it prints
UNDERFLOWS = [
    (dict(ul=1e-170), ["lifespan"]), (dict(ul=1e-170), ["flow", "--samples", "3"]),
    (dict(ul=1e-170), ["curvature", "--samples", "3"]), (dict(ul=1e-170), ["verify"]),
    (dict(uu=-1.5e-162, ul=1.5e-162, ll=1.5e-162), ["verify", "--suite", "constraints"]),
]
UNDERFLOW_IDS = ["lifespan", "flow", "curvature", "verify", "verify-constraints"]
UNDERFLOW_REPORT = "numeric failure: float division by zero\n"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def e11_file(tmp_path):
    return write_pair(tmp_path, "e11", theta_dict(ll=1.0, nn=-1.0))


@pytest.fixture
def uu_file(tmp_path):
    return write_pair(tmp_path, "uu", theta_dict(uu=1.0))


class TestExitCodes:
    def test_valid_pair(self, e11_file, capsys):
        assert main(["validate", e11_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "row: E11" in out
        assert "H0: -4.000000000000e+00" in out
        assert "constrained_ricci_flat: false" in out

    def test_invalid_pair(self, tmp_path, capsys):
        path = write_pair(tmp_path, "bad", theta_dict(ul=1.0, ll=1.0))
        assert main(["validate", path]) == EXIT_INVALID
        assert "invalid pair" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["lifespan"], ["flow", "--method", "exact"], ["flow", "--method", "rk4"],
        ["curvature"],
    ], ids=["lifespan", "flow-exact", "flow-rk4", "curvature"])
    def test_invalid_pair_is_refused_before_any_output(self, tmp_path, capsys, argv):
        # Theta_ul (Theta_ll + Theta_uu) = 1 breaks a relation by 1.0; the
        # lifespan (-2.356, 0.785) would clip the default window
        path = write_pair(tmp_path, "bad", theta_dict(uu=1.0, ul=1.0))
        assert main(["verify", path]) == EXIT_INVALID
        refused = capsys.readouterr()
        assert refused.out == "" and refused.err.startswith("invalid pair:\n  ")
        assert main([argv[0], path] + argv[1:]) == EXIT_INVALID
        assert capsys.readouterr() == refused

    @pytest.mark.parametrize("argv", [["validate"], ["flow", "--method", "rk4"], ["verify"]],
                             ids=["validate", "flow-rk4", "verify"])
    def test_lambda_past_tol_matches_no_family(self, tmp_path, capsys, argv):
        # Theta_ul, Theta_un each within tol, lambda = hypot of them past it
        path = write_pair(tmp_path, "lam", theta_dict(uu=1.0, ul=8e-10, un=8e-10))
        assert main([argv[0], path] + argv[1:]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert "component pattern matches no admissible family" in captured.out + captured.err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == EXIT_IO

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_wrong_schema(self, tmp_path, capsys):
        # the components not an object, and a document with no "theta"
        path = tmp_path / "schema.json"
        for document in ({"theta": [1, 2, 3]}, {"beta": {"kind": "constant", "value": 1}}):
            path.write_text(json.dumps(document))
            assert main(["validate", str(path)]) == EXIT_IO
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    @pytest.mark.parametrize("beta", [
        {"kind": "constant"},
        {"kind": "tabulated", "times": [-1.0, 1.0]},
        5,
        {"kind": "constant", "value": 1e400},
        {"kind": "constant", "value": 10 ** 400},
        {"kind": "constant", "value": None},
        {"kind": "tabulated", "times": [-1.0, 1.0], "values": [1.0, 1e400]},
        {"kind": "tabulated", "times": [-1.0, 1.0], "values": {"a": 1.0}},
        {"kind": "constant", "value": "1.3"},
        {"kind": "constant", "value": True},
        {"kind": "tabulated", "times": [-1.0, True], "values": [0.8, 1.0]},
        {"kind": "tabulated", "times": [-1.0, 1.0], "values": ["0.8", 1.0]},
    ], ids=["no-value", "no-values", "not-an-object", "inf-value", "huge-int-value",
            "null-value", "inf-node", "values-not-an-array", "string-value", "bool-value",
            "bool-time", "string-node"])
    def test_malformed_lapse(self, tmp_path, capsys, beta):
        # a huge literal parses to inf or to an int no float holds: refused,
        # not run as an infinite lapse; a string or a bool is no number
        path = write_pair(tmp_path, "lapse", theta_dict(uu=1.0), extra={"beta": beta})
        assert main(["lifespan", path]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_huge_integer_component(self, tmp_path, capsys):
        # json writes 10 ** 400 as an integer literal, which no float holds
        path = write_pair(tmp_path, "huge", theta_dict(uu=10 ** 400))
        assert main(["lifespan", path]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: theta component 'uu' must be a finite number\n"

    @pytest.mark.parametrize("env, argv", [
        ("abc", []), ("nan", []), ("-1e-9", []),
        (None, ["--tol", "nan"]), (None, ["--tol", "inf"]),
        (None, ["--tol", "0"]), (None, ["--tol=-1e-9"]),
    ], ids=["env-abc", "env-nan", "env-negative", "nan", "inf", "zero", "negative"])
    def test_bad_tolerance(self, e11_file, monkeypatch, capsys, env, argv):
        if env is not None:
            monkeypatch.setenv("SPINORFLOW_TOL", env)
        assert main(["validate", e11_file] + argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_tolerance_from_the_environment(self, e11_file, monkeypatch, capsys):
        # a tolerance above |Theta| puts E(1,1) on the zero pair's row
        monkeypatch.setenv("SPINORFLOW_TOL", "10")
        assert main(["validate", e11_file]) == EXIT_OK
        assert "row: E11" not in capsys.readouterr().out
        assert main(["validate", e11_file, "--tol", "1e-9"]) == EXIT_OK
        assert "row: E11" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_verify_needs_two_samples(self, e11_file, capsys, samples):
        # an empty sample set would pass every identity vacuously
        assert main(["verify", e11_file, "--samples", samples]) == EXIT_IO
        captured = capsys.readouterr()
        assert "[pass]" not in captured.out
        assert captured.err == "error: --samples must be at least 2\n"

    @pytest.mark.parametrize("command, theta, t0, t1", [
        # the flow blows up at t = 1; a window beyond it cannot be clipped
        ("flow", theta_dict(uu=1.0), "2.0", "3.0"),
        # the lifespan (-1.57e-7, 1.57e-7) is narrower than the margin of
        # 1.5e-6 at each end: [-0.5, 1.5] clips to an inverted window, which
        # is refused before any clipping warning
        ("flow", theta_dict(ul=6e6, un=8e6), "-0.5", "1.5"),
        ("curvature", theta_dict(ul=6e6, un=8e6), "-0.5", "1.5"),
    ], ids=["beyond", "inverted-flow", "inverted-curvature"])
    def test_window_outside_lifespan(self, tmp_path, capsys, command, theta, t0, t1):
        path = write_pair(tmp_path, "pair", theta)
        assert main([command, path, f"--t0={t0}", "--t1", t1]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: requested window lies outside the lifespan\n"

    @pytest.mark.parametrize("argv", [
        ["flow", "--t0=-inf"], ["curvature", "--t0=-inf"],
        ["flow", "--t1", "inf", "--method", "rk4"], ["flow", "--t0", "nan"],
    ], ids=["flow-minus-inf", "curvature-minus-inf", "rk4-inf", "flow-nan"])
    def test_window_must_be_finite(self, e11_file, capsys, argv):
        assert main([argv[0], e11_file] + argv[1:]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --t0 and --t1 must be finite, with --t0 below --t1\n"

    def test_rk4_overflow_is_a_numeric_failure(self, e11_file, capsys):
        # U overflows near t = 710 on E(1,1): no NaN row and no exit 0
        code = main(["flow", e11_file, "--method", "rk4", "--t0", "0", "--t1", "800",
                     "--samples", "2"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: integration overflowed")

    @pytest.mark.parametrize("argv", [
        ["--method", "exact", "--t0", "0", "--t1", "800"],
        ["--method", "rk4", "--t1", "700"],
    ], ids=["exact-frame-overflows", "rk4-metric-overflows"])
    def test_non_finite_flow_is_a_numeric_failure(self, e11_file, capsys, argv):
        # U grows like e^t on E(1,1): the closed-form frame is inf and NaN
        # at t = 800, and h = U^T U overflows past t = 355 while U is finite
        assert main(["flow", e11_file] + argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric failure: the flow state at t = ")
        assert captured.err.count("\n") == 1

    def test_curvature_is_strict_json(self, e11_file, capsys):
        # unbounded lifespan ends are written as the lifespan command writes
        # them, not as the bare Infinity that JSON does not have
        assert main(["curvature", e11_file, "--t1", "800", "--samples", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out, parse_constant=_refuse_constant)
        assert payload["lifespan"] == {"t_minus": "-inf", "t_plus": "inf", "immortal": True}
        assert len(payload["samples"]) == 3

    def test_non_finite_curvature_is_a_numeric_failure(self, tmp_path, capsys):
        # E(1,1) scaled to |Theta| = 7e153 is still admissible, but Ric4,
        # quadratic in Theta, overflows
        path = write_pair(tmp_path, "huge", theta_dict(ll=7e153, nn=-7e153))
        assert main(["curvature", path, "--samples", "3"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: the curvature at t = 0 is not finite\n"

    def test_non_finite_curvature_names_the_first_sample(self, tmp_path, capsys):
        path = write_pair(tmp_path, "huge", theta_dict(ll=7e153, nn=-7e153))
        assert main(["curvature", path, "--t0=-0.5", "--t1", "0.5",
                     "--samples", "3"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: the curvature at t = -0.5 is not finite\n"

    @pytest.mark.parametrize("argv, what", [
        (["flow", "--method", "exact"], "flow state"), (["curvature"], "curvature"),
    ], ids=["exact-flow", "curvature"])
    def test_a_later_sample_that_raises_comes_after_the_first_failure(
            self, tmp_path, capsys, argv, what):
        # toward the pole at t = 1, Theta_ll = 1.35e148 / (1 - t) overflows the
        # curvature from the 492nd of 500 samples on, squares past the largest
        # float from the 495th, and the 500th is the pole: the first failure
        # in sample order is reported, as with one sample at a time
        pair = spinorflow.CauchyPair.from_components(uu=1.0, ll=1.35e148)
        path = write_pair(tmp_path, "steep", pair_json(pair)["theta"])
        late = exact.theta_exact(pair, spinorflow.LapseProfile.constant(1.0), 1.0 - 1e-6)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OverflowError):
            spinorflow.hamiltonian_of(late)
        assert main([argv[0], path, "--t0", "0.9999", "--t1", "1", "--samples", "500"]
                    + argv[1:]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"numeric failure: the {what} at t = 0.999998396794 "
                                "is not finite\n")

    def test_overflowing_invariants_are_a_numeric_failure(self, tmp_path, capsys):
        # E(1,1) scaled to |Theta| = 7e153 is admissible, but its Hamiltonian
        # constraint, quadratic in Theta, is -inf
        path = write_pair(tmp_path, "huge", theta_dict(ll=7e153, nn=-7e153))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", path]) == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: the invariants of the pair are not finite\n"

    @pytest.mark.parametrize("momentum", [(0.0, math.nan, 1.0), (1.0, 0.0, math.nan),
                                          (math.nan, 1.0, 0.0)])
    def test_a_nan_momentum_is_a_numeric_failure(self, e11_file, monkeypatch, capsys,
                                                 momentum):
        # the largest |component| is NaN wherever the NaN sits, as np.max's
        # is; Python's max would drop it past the first place
        evaluate = cli._constraints
        monkeypatch.setattr(cli, "_constraints", lambda *a: evaluate(*a)._replace(
            momentum_residual=momentum))
        assert main(["validate", e11_file]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: the invariants of the pair are not finite\n"

    @pytest.mark.parametrize("argv", [
        ["validate"], ["flow"], ["flow", "--method", "rk4"],
        ["curvature", "--samples", "3"], ["verify"], ["verify", "--suite", "constraints"],
    ], ids=["validate", "flow-exact", "flow-rk4", "curvature", "verify", "verify-constraints"])
    def test_python_overflow_is_a_numeric_failure(self, tmp_path, capsys, argv):
        # at |Theta| = 1e160 a Python float square raises OverflowError
        path = write_pair(tmp_path, "huger", theta_dict(ll=1e160, nn=-1e160))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([argv[0], path] + argv[1:]) == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric failure: Numerical result out of range\n"

    @pytest.mark.parametrize("theta, argv", UNDERFLOWS, ids=UNDERFLOW_IDS)
    def test_a_division_by_zero_is_a_numeric_failure(self, tmp_path, capsys, theta, argv):
        path = write_pair(tmp_path, "tiny", theta_dict(**theta))
        assert main(["validate", path, "--tol", "1e-300"]) == EXIT_OK
        capsys.readouterr()
        assert main([argv[0], path, "--tol", "1e-300"] + argv[1:]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == UNDERFLOW_REPORT

    def test_a_residual_that_is_not_finite_fails_its_row(self, tmp_path, capsys):
        # at 7e153 the Hamiltonian is -inf at every sample, so the deviation
        # from its closed form is NaN, which max() would drop
        path = write_pair(tmp_path, "huge", theta_dict(ll=7e153, nn=-7e153))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", path, "--suite", "constraints"]) == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = captured.out.splitlines()
        assert len(rows) == 2
        assert all(row.startswith("[FAIL] ") and " max residual nan " in row
                   for row in rows)

    @pytest.mark.parametrize("argv, code", [
        (["validate", "PAIR", "--tol", "-1e-9"], EXIT_IO),
        (["nosuch", "PAIR"], EXIT_IO),
        (["verify", "PAIR", "--samples", "x"], EXIT_IO),
        (["curvature", "PAIR", "--format", "json"], EXIT_IO),
        ([], EXIT_IO),
        (["validate", "--help"], EXIT_OK),
    ], ids=["tol-read-as-option", "unknown-command", "samples-not-an-int",
            "curvature-takes-no-format", "no-command", "help"])
    def test_usage_error_exit_code(self, e11_file, capsys, argv, code):
        # argparse's own usage-error code 2 would read as a numeric failure
        with pytest.raises(SystemExit) as exc:
            main([e11_file if a == "PAIR" else a for a in argv])
        assert exc.value.code == code
        if code != EXIT_OK:
            assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flow", "curvature"])
    @pytest.mark.parametrize("t", ["-1e-05", "-1.433864309371e+00"],
                             ids=["exponent", "flow-table-time"])
    def test_a_negative_time_in_exponent_notation(self, e11_file, capsys, command, t):
        # argparse before Python 3.13 reads such a value as an option; each
        # reads as it does joined to its option by "="
        for window in (["--t0", t, "--t1", "1"], ["--t0", "-2.5", "--t1", t]):
            joined = [f"{a}={b}" for a, b in zip(window[::2], window[1::2])]
            assert main([command, e11_file, "--samples", "3"] + joined) == EXIT_OK
            want = capsys.readouterr()
            assert main([command, e11_file, "--samples", "3"] + window) == EXIT_OK
            assert capsys.readouterr() == want
        if command == "flow":
            assert want.out.splitlines()[-1].startswith(f"{float(t):.12e},")

    @pytest.mark.parametrize("argv", [["--t0", "-inf"], ["--t0", "-x"], ["--tol", "-1e-9"]],
                             ids=["t0-inf", "t0-word", "tol-exponent"])
    def test_other_option_values_are_still_usage_errors(self, e11_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["flow", e11_file] + argv)
        assert exc.value.code == EXIT_IO
        assert capsys.readouterr().err.endswith(
            f"spinorflow flow: error: argument {argv[0]}: expected one argument\n")

    def test_failed_suite_exit_code(self, uu_file, monkeypatch, capsys):
        monkeypatch.setenv("SPINORFLOW_TOL", "1e-9")
        assert main(["verify", uu_file, "--suite", "constraints"]) == EXIT_OK


class TestClassifyAndLifespan:
    def test_classify(self, e11_file, capsys):
        assert main(["classify", e11_file]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "E11"

    def test_classify_at_a_large_magnitude(self, tmp_path, capsys):
        # unscaled, Delta and its threshold overflow to inf and read as zero
        path = write_pair(tmp_path, "huger", theta_dict(ll=1e160, nn=-1e160))
        assert main(["classify", path]) == EXIT_OK
        assert capsys.readouterr().out == "E11\n"

    def test_classify_mu(self, tmp_path, capsys):
        path = write_pair(tmp_path, "tau3", theta_dict(uu=3.0, ll=2.0, nn=1.0))
        assert main(["classify", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("Tau3Mu")
        assert "mu=5.000000000000e-01" in out

    def test_classify_mu_of_a_nearly_singular_block(self, tmp_path, capsys):
        # 4 Delta << T^2: mu = 9.9e-21, not the 0 of T - s r cancelling
        path = write_pair(tmp_path, "tau3", theta_dict(ll=1.0, ln=1e-11, nn=1e-20))
        assert main(["classify", path, "--tol", "1e-21"]) == EXIT_OK
        assert capsys.readouterr().out == "Tau3Mu mu=9.900000000000e-21\n"
        assert main(["validate", path, "--tol", "1e-21"]) == EXIT_OK

    @pytest.mark.parametrize("theta", [dict(ll=1e-5, nn=-1e-5), dict(ln=2e-5)],
                             ids=["ll-nn", "ln"])
    def test_validate_prints_the_group_of_its_row(self, tmp_path, capsys, theta):
        # Delta within tol of zero, components past it: the E11 row, whose
        # group is E11, not R3
        path = write_pair(tmp_path, "small", theta_dict(**theta))
        assert main(["validate", path]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row: E11" and lines[2] == "group: E11"
        assert main(["classify", path]) == EXIT_OK
        assert capsys.readouterr().out == "E11\n"

    def test_classify_refuses_an_invalid_pair(self, tmp_path, capsys):
        path = write_pair(tmp_path, "bad", theta_dict(ul=1.0, ll=1.0))
        assert main(["classify", path]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid pair:\n  Theta_ln*Theta_un + Theta_ul*(Theta_ll"
                                " + Theta_uu) = 1.000e+00 != 0\n")

    def test_validate_validates_the_pair_once(self, tmp_path, monkeypatch, capsys):
        # the group is that of the row validation matched: no second validation
        calls = []
        validate = pairs.validate

        def wrapped(*a):
            calls.append(a)
            return validate(*a)

        monkeypatch.setattr(pairs, "validate", wrapped)
        monkeypatch.setattr(cli, "validate", wrapped)
        path = write_pair(tmp_path, "tau3", theta_dict(uu=5.0 / 3.0, ll=2.0, nn=1.0))
        assert main(["validate", path]) == EXIT_OK
        assert "group: Tau3Mu (mu = 5.000000000000e-01)" in capsys.readouterr().out
        assert len(calls) == 1

    def test_lifespan_finite_end(self, uu_file, capsys):
        assert main(["lifespan", uu_file]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_minus"] == "-inf"
        assert float(payload["t_plus"]) == pytest.approx(1.0)
        assert payload["immortal"] is False

    def test_lifespan_immortal(self, e11_file, capsys):
        assert main(["lifespan", e11_file]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["immortal"] is True
        assert payload["t_minus"] == "-inf" and payload["t_plus"] == "inf"


class TestFlow:
    def test_deterministic_output(self, e11_file, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["flow", e11_file, "--t0", "-1", "--t1", "1", "--samples", "20"]
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        b1 = Path(out1).read_bytes()
        assert b1 == Path(out2).read_bytes()
        assert len(b1) > 0

    def test_exact_rk4_agree(self, e11_file, tmp_path):
        outs = {}
        for method in ("exact", "rk4"):
            out = str(tmp_path / f"{method}.csv")
            assert main(["flow", e11_file, "--t0", "-0.5", "--t1", "0.5",
                         "--samples", "5", "--method", method,
                         "--out", out]) == EXIT_OK
            outs[method] = Path(out).read_text().splitlines()
        header = outs["exact"][0].split(",")
        for le, lr in zip(outs["exact"][1:], outs["rk4"][1:]):
            for name, a, b in zip(header, le.split(","), lr.split(",")):
                assert abs(float(a) - float(b)) <= 1e-7, name

    def test_uu_column_approaches_pole(self, uu_file, capsys):
        assert main(["flow", uu_file, "--t0", "0", "--t1", "0.9",
                     "--samples", "10"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        idx = header.index("theta_uu")
        last = float(lines[-1].split(",")[idx])
        assert last == pytest.approx(10.0, abs=1e-8)

    def test_e11_hamiltonian_column_constant(self, e11_file, capsys):
        assert main(["flow", e11_file, "--t0", "-1", "--t1", "1",
                     "--samples", "8"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        idx = lines[0].split(",").index("H")
        for line in lines[1:]:
            assert float(line.split(",")[idx]) == pytest.approx(-4.0, abs=1e-10)

    def test_clipping_warns(self, uu_file, capsys):
        assert main(["flow", uu_file, "--t0", "0", "--t1", "5",
                     "--samples", "5"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "clipped" in captured.err
        lines = captured.out.splitlines()
        t_idx = lines[0].split(",").index("t")
        assert float(lines[-1].split(",")[t_idx]) < 1.0

    def test_clipping_to_the_table(self, tmp_path, capsys):
        # E(1,1) never blows up, so only the table of the lapse bounds the window
        beta = {"kind": "tabulated", "times": [-0.5, 0.5], "values": [1.0, 1.0]}
        path = write_pair(tmp_path, "short", theta_dict(ll=1.0, nn=-1.0),
                          extra={"beta": beta})
        assert main(["flow", path, "--t0", "-1", "--t1", "1",
                     "--samples", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "clipped" in captured.err
        times = [float(line.split(",")[0]) for line in captured.out.splitlines()[1:]]
        assert times == pytest.approx([-0.5, 0.0, 0.5], abs=1e-5)

    def test_rk4_flags_uncertified_rows(self, uu_file, capsys):
        # the window is clipped to 5e-6 before the pole at t = 1, where the
        # march cannot certify 1e-8; the rows before it are certified
        args = ["flow", uu_file, "--t0", "0", "--t1", "5", "--samples", "5"]
        assert main(args + ["--method", "exact"]) == EXIT_OK
        exact = capsys.readouterr().out.splitlines()
        assert main(args + ["--method", "rk4"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == ",".join(cli.FLOW_COLUMNS)
        assert [len(line.split(",")) for line in lines] == \
            [len(line.split(",")) for line in exact]
        clipped, *flags = captured.err.splitlines()
        assert "clipped" in clipped
        last_t = lines[-1].split(",")[0]
        assert len(flags) == 1
        assert flags[0].startswith(f"warning: rk4 state at t = {last_t} is not certified")

    def test_json_format(self, e11_file, capsys):
        assert main(["flow", e11_file, "--t0", "0", "--t1", "0.5",
                     "--samples", "3", "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert float(rows[0]["h_ll"]) == pytest.approx(1.0)

    def test_tabulated_lapse_in_input(self, tmp_path, capsys):
        beta = {"kind": "tabulated", "times": [-1.0, 1.0], "values": [1.0, 3.0]}
        path = write_pair(tmp_path, "lapse", theta_dict(uu=-1.0),
                          extra={"beta": beta})
        assert main(["flow", path, "--t0", "-0.5", "--t1", "0.5",
                     "--samples", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        b_idx = lines[0].split(",").index("B")
        # B(0.5) for beta = 2 + t is 1.125
        assert float(lines[-1].split(",")[b_idx]) == pytest.approx(1.125)


class TestLapseTable:
    """The cumulative table of a tabulated lapse is built on first use,
    once per profile."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = lapse._cumulative_trapezoid
        monkeypatch.setattr(lapse, "_cumulative_trapezoid",
                            lambda *a: calls.append(a) or build(*a))
        return calls

    @pytest.fixture
    def ramp_file(self, tmp_path):
        beta = {"kind": "tabulated", "times": [-1.0, -0.2, 0.4, 2.0],
                "values": [1.0, 1.5, 0.8, 3.0]}
        return write_pair(tmp_path, "ramp", theta_dict(uu=1.0), extra={"beta": beta})

    def test_validate_never_builds_it(self, ramp_file, builds, capsys):
        assert main(["validate", ramp_file]) == EXIT_OK
        assert builds == []

    @pytest.mark.parametrize("argv", [
        ["lifespan"], ["flow", "--method", "exact"], ["curvature"],
    ], ids=["lifespan", "exact-flow", "curvature"])
    def test_a_command_builds_it_once(self, ramp_file, builds, capsys, argv):
        assert main([argv[0], ramp_file] + argv[1:]) == EXIT_OK
        assert len(builds) == 1


class TestCurvatureAndVerify:
    def test_curvature_report(self, e11_file, capsys):
        assert main(["curvature", e11_file, "--t0", "-0.5", "--t1", "0.5",
                     "--samples", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lifespan"]["immortal"] is True
        assert len(payload["samples"]) == 3
        for rep in payload["samples"]:
            assert rep["identity_residual"] <= 1e-8
            assert rep["hamiltonian"] == pytest.approx(-4.0)

    def test_curvature_computes_the_lifespan_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        lifespan = exact.FlowSolution.lifespan
        monkeypatch.setattr(exact.FlowSolution, "lifespan",
                            lambda *a: calls.append(a) or lifespan(*a))
        path = write_pair(tmp_path, "ramp", theta_dict(uu=1.0), extra={"beta": {
            "kind": "tabulated", "times": [-1.0, 2.0], "values": [1.0, 3.0]}})
        assert main(["curvature", path, "--t0", "-0.5", "--t1", "2",
                     "--samples", "3"]) == EXIT_OK
        assert len(calls) == 1
        assert "clipped" in capsys.readouterr().err

    def test_verify_all_suites_pass(self, tmp_path, capsys, row_pair):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair_json(row_pair)))
        assert main(["verify", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[pass]" in out and "FAIL" not in out

    def test_verify_samples_inside_the_table(self, tmp_path, capsys):
        beta = {"kind": "tabulated", "times": [-0.5, 0.5], "values": [1.0, 1.0]}
        path = write_pair(tmp_path, "short", theta_dict(ll=1.0, nn=-1.0),
                          extra={"beta": beta})
        assert main(["verify", path, "--suite", "constraints"]) == EXIT_OK

    @pytest.mark.parametrize("theta", [dict(uu=1.0), dict(uu=5.0 / 3.0, ll=2.0, nn=1.0)],
                             ids=["R3", "tau3mu"])
    def test_verify_differences_inside_a_narrow_table(self, tmp_path, monkeypatch,
                                                      capsys, theta):
        # the window is 2e-5 wide and its inset 1e-6: the dh/dt row of a
        # constrained quasi-diagonal pair steps t by half the inset, not by
        # 1e-5 off the table, and the lifespan is still taken once
        calls = []
        lifespan = exact.FlowSolution.lifespan
        monkeypatch.setattr(exact.FlowSolution, "lifespan",
                            lambda *a: calls.append(a) or lifespan(*a))
        beta = {"kind": "tabulated", "times": [-1e-5, 1e-5], "values": [1.0, 1.0]}
        path = write_pair(tmp_path, "narrow", theta_dict(**theta), extra={"beta": beta})
        assert main(["verify", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and "FAIL" not in captured.out
        assert "[pass] Ric(h) = (Tr(Theta)/(2 beta)) dh/dt" in captured.out
        assert len(calls) == 1

    def test_oracle_flags_each_state_once(self, e11_file, monkeypatch, capsys):
        # under a limit no march meets, every state but t = 0 is flagged:
        # once, although three rows rest on it, and the report is unchanged
        args = ["verify", e11_file, "--suite", "oracle", "--samples", "5"]
        assert main(args) == EXIT_OK
        plain = capsys.readouterr()
        assert plain.err == ""
        monkeypatch.setattr(numeric, "CERTIFY_LIMIT", 1e-300)
        assert main(args) == EXIT_OK
        flagged = capsys.readouterr()
        assert flagged.out == plain.out
        times = [line.split(" t = ")[1].split(" ")[0]
                 for line in flagged.err.splitlines()]
        assert len(times) == len(set(times)) == 4

    @pytest.mark.parametrize("suite", ["constraints", "oracle", "all"])
    def test_verify_validates_the_pair_once_per_entry(self, tmp_path, monkeypatch,
                                                      capsys, suite):
        # the evolved pairs of the constraints suite are not validated again,
        # nor is the pair by the march, nor by each suite of "all"
        calls = []
        validate = pairs.validate
        monkeypatch.setattr(pairs, "validate", lambda *a: calls.append(a) or validate(*a))
        path = write_pair(tmp_path, "general", theta_dict(
            uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0))
        assert main(["verify", path, "--suite", suite]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out
        assert len(calls) == 1

    def test_rk4_flow_validates_the_pair_once(self, uu_file, monkeypatch, capsys):
        calls = []
        validate = pairs.validate
        monkeypatch.setattr(pairs, "validate", lambda *a: calls.append(a) or validate(*a))
        assert main(["flow", uu_file, "--method", "rk4", "--samples", "5"]) == EXIT_OK
        assert len(calls) == 1

    def test_verify_single_suite(self, e11_file, capsys):
        assert main(["verify", e11_file, "--suite", "oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[pass]") >= 1


class TestEachPairIsSolvedOnce:
    """A command decides the closed form of its pair a bounded number of
    times, however many samples it takes."""

    PAIRS = {"tau2R-general": dict(uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0),
             "tau3mu": dict(uu=5.0 / 3.0, ll=2.0, nn=1.0)}

    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("argv,most", [
        (["flow", "--method", "exact"], 2), (["lifespan"], 2), (["curvature"], 2),
        (["verify"], 1),
    ], ids=["exact-flow", "lifespan", "curvature", "verify"])
    def test_branch_calls(self, tmp_path, monkeypatch, capsys, name, argv, most):
        calls = []
        branch = exact.branch
        monkeypatch.setattr(exact, "branch", lambda *a: calls.append(a) or branch(*a))
        path = write_pair(tmp_path, name, theta_dict(**self.PAIRS[name]))
        assert main([argv[0], path] + argv[1:]) == EXIT_OK
        assert 1 <= len(calls) <= most

    WINDOW = ["--t0", "-0.3", "--t1", "1", "--samples", "7"]
    # the 3-node table of the CI smoke steps
    TABLE = {"beta": {"kind": "tabulated", "times": [-1.0, 0.2, 1.5],
                      "values": [0.8, 1.3, 1.0]}}

    @pytest.mark.parametrize("argv", [
        ["flow", "--method", "exact", *WINDOW], ["curvature", *WINDOW],
        ["flow", "--method", "rk4", *WINDOW],
        *(["verify", "--suite", suite, "--samples", "7"]
          for suite in ("ricci4", "constraints", "oracle")),
    ], ids=["exact-flow", "curvature", "rk4-flow", "verify-ricci4", "verify-constraints",
            "verify-oracle"])
    def test_lapse_integral_once_per_sample(self, tmp_path, monkeypatch, capsys, argv):
        calls = []
        b_integral = lapse.LapseProfile.b_integral
        monkeypatch.setattr(lapse.LapseProfile, "b_integral",
                            lambda self, t: calls.append(np.size(t)) or b_integral(self, t))
        path = write_pair(tmp_path, "table", theta_dict(**self.PAIRS["tau2R-general"]),
                          extra=self.TABLE)
        assert main([argv[0], path] + argv[1:]) == EXIT_OK
        assert sum(calls) == 7

    def test_verify_samples_each_grid_once(self, tmp_path, monkeypatch, capsys):
        # constraints takes 50 samples, and the other four suites share one
        # stack of 20: the lapse integral once per sample, the lifespan once
        b_calls, span_calls = [], []
        b_integral = lapse.LapseProfile.b_integral
        lifespan = exact.FlowSolution.lifespan
        monkeypatch.setattr(lapse.LapseProfile, "b_integral",
                            lambda self, t: b_calls.append(np.size(t))
                            or b_integral(self, t))
        monkeypatch.setattr(exact.FlowSolution, "lifespan",
                            lambda *a: span_calls.append(a) or lifespan(*a))
        path = write_pair(tmp_path, "table", theta_dict(**self.PAIRS["tau2R-general"]),
                          extra=self.TABLE)
        assert main(["verify", path]) == EXIT_OK
        assert sum(b_calls) == 70 and len(span_calls) == 1

    @pytest.mark.parametrize("argv", [
        ["flow", "--method", "rk4", *WINDOW], ["verify", "--suite", "oracle", "--samples", "7"],
    ], ids=["rk4-flow", "verify-oracle"])
    @pytest.mark.parametrize("beta", [{"kind": "constant", "value": 1.3}, TABLE["beta"]],
                             ids=["constant-1.3", "table"])
    def test_the_march_steps_in_python_floats(self, tmp_path, monkeypatch, capsys,
                                              argv, beta):
        # B_t as numpy scalars gives the same bits, several times slower
        steps = []
        march_stop = backend._kern.march_stop

        def spy(y, z, s, h, target, tol):
            steps.extend(map(type, (s, h, target)))
            return march_stop(y, z, s, h, target, tol)

        monkeypatch.setattr(backend._kern, "march_stop", spy)
        path = write_pair(tmp_path, "general", theta_dict(**self.PAIRS["tau2R-general"]),
                          extra={"beta": beta})
        assert main([argv[0], path] + argv[1:]) == EXIT_OK
        assert steps and set(steps) == {float}

    def test_exact_flow_diagonalizes_once(self, tmp_path, monkeypatch, capsys):
        # the eigen data of the quasi-diagonal lower block is fixed by the pair
        calls = []
        eigen2x2 = exact.eigen2x2
        monkeypatch.setattr(exact, "eigen2x2", lambda *a: calls.append(a) or eigen2x2(*a))
        path = write_pair(tmp_path, "tau3mu", theta_dict(**self.PAIRS["tau3mu"]))
        assert main(["flow", path, "--method", "exact"]) == EXIT_OK
        assert len(calls) == 1


class TestSweep:
    def test_sweep_outputs_per_index(self, tmp_path, capsys):
        pairs = [
            {"theta": theta_dict(uu=1.0)},
            {"theta": theta_dict(ll=1.0, nn=-1.0)},
        ]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(pairs))
        out = str(tmp_path / "run.csv")
        code = main(["flow", str(path), "--sweep", "--t0", "-0.5",
                     "--t1", "0.5", "--samples", "3", "--out", out])
        assert code == EXIT_OK
        assert (tmp_path / "run.000.csv").exists()
        assert (tmp_path / "run.001.csv").exists()

    def test_sweep_reports_worst_exit(self, tmp_path, capsys):
        pairs = [
            {"theta": theta_dict(uu=1.0)},
            {"theta": theta_dict(ul=1.0, ll=1.0)},  # invalid
        ]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(pairs))
        assert main(["validate", str(path), "--sweep"]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "# pair 0" in out and "# pair 1" in out

    @pytest.mark.parametrize("command", ["lifespan", "flow", "curvature"])
    def test_sweep_refuses_an_invalid_pair_and_goes_on(self, tmp_path, capsys, command):
        good = {"theta": theta_dict(uu=-1.0)}
        pairs = [good, {"theta": theta_dict(uu=1.0, ul=1.0)}, good]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(pairs))
        window = [] if command == "lifespan" else ["--samples", "3"]
        assert main([command, str(path), "--sweep"] + window) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == ""
        first, second, third = captured.out.split("# pair ")[1:]
        assert second == ("1\ninvalid pair: Theta_ln*Theta_un + Theta_ul*(Theta_ll"
                          " + Theta_uu) = 1.000e+00 != 0\n")
        assert third.startswith("2\n") and third[2:] == first[2:]

    def test_sweep_classify_refuses_an_invalid_pair_and_goes_on(self, tmp_path, capsys):
        pairs = [{"theta": theta_dict(uu=1.0)}, {"theta": theta_dict(ul=1.0, ll=1.0)},
                 {"theta": theta_dict(ll=2.0, nn=1.0, uu=3.0)}]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(pairs))
        assert main(["classify", str(path), "--sweep"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "# pair 0\nR3\n# pair 1\ninvalid pair: Theta_ln*Theta_un + Theta_ul*"
            "(Theta_ll + Theta_uu) = 1.000e+00 != 0\n"
            "# pair 2\nTau3Mu mu=5.000000000000e-01\n")

    def test_sweep_continues_past_a_numeric_failure(self, tmp_path, capsys):
        # the window lies past the lifespan of uu = 1 (ends at t = 1), but
        # inside that of uu = -1
        pairs = [{"theta": theta_dict(uu=1.0)}, {"theta": theta_dict(uu=-1.0)}]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(pairs))
        code = main(["flow", str(path), "--sweep", "--t0", "1.5", "--t1", "2",
                     "--samples", "3"])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "numeric failure: requested window lies outside the lifespan" in captured.err
        second = captured.out.split("# pair 1\n")[1].splitlines()
        assert second[0].startswith("t,B,") and len(second) == 4

    def test_sweep_continues_past_a_schema_error(self, tmp_path, capsys):
        good = {"theta": theta_dict(uu=1.0)}
        pairs = [good, {"theta": theta_dict(uu=1.0), "beta": 5}, good]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(pairs))
        assert main(["lifespan", str(path), "--sweep"]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == "error: lapse JSON must be an object\n"
        first, second, third = captured.out.split("# pair ")[1:]
        assert second == "1\n"
        assert third.startswith("2\n") and third[2:] == first[2:]
        # a single pair, not an array of them, is refused before any pair
        path.write_text(json.dumps(good))
        assert main(["lifespan", str(path), "--sweep"]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sweep expects a JSON array of pairs\n"

    @pytest.mark.parametrize("theta, argv", UNDERFLOWS, ids=UNDERFLOW_IDS)
    def test_sweep_continues_past_a_division_by_zero(self, tmp_path, capsys, theta, argv):
        good = {"theta": theta_dict(uu=-1.0)}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps([good, {"theta": theta_dict(**theta)}, good]))
        assert main([argv[0], str(path), "--sweep", "--tol", "1e-300"]
                    + argv[1:]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err == UNDERFLOW_REPORT
        first, second, third = captured.out.split("# pair ")[1:]
        assert second == "1\n"
        assert third.startswith("2\n") and third[2:] == first[2:]



# the commands that refuse an invalid pair by raising InvalidPair
REFUSING_COMMANDS = [
    ["classify"], ["lifespan"], ["flow"], ["flow", "--method", "rk4", "--samples", "5"],
    ["curvature", "--samples", "5"], ["verify", "--samples", "4"],
]


class TestSweepOutOfAnInvalidPair:
    @pytest.mark.parametrize("argv", REFUSING_COMMANDS,
                             ids=["-".join(a.strip("-") for a in argv)
                                  for argv in REFUSING_COMMANDS])
    def test_the_report_goes_into_its_file(self, tmp_path, capsys, argv):
        # the invalid pair is refused in its own .001 file, as validate's is,
        # and stdout holds only the pair headers
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps([{"theta": theta_dict(uu=1.0)},
                                    {"theta": theta_dict(ul=1.0, ll=1.0)},
                                    {"theta": theta_dict(uu=-1.0)}]))
        sweep = [argv[0], str(path), "--sweep"] + argv[1:]
        code = main(sweep)
        printed = capsys.readouterr()
        assert main(sweep + ["--out", str(tmp_path / "run.txt")]) == code == EXIT_INVALID
        written = capsys.readouterr()
        assert written.out == "# pair 0\n# pair 1\n# pair 2\n"
        assert written.err == printed.err
        files = [(tmp_path / f"run.{i:03d}.txt").read_text() for i in range(3)]
        assert files[1] == ("invalid pair: Theta_ln*Theta_un + Theta_ul*(Theta_ll"
                            " + Theta_uu) = 1.000e+00 != 0\n")
        assert "".join(f"# pair {i}\n{text}" for i, text in enumerate(files)) == printed.out


class TestFlowReadsArrays:
    """``flow`` reads its states as one stacked record: it builds no
    ``FlowState``, and computes the 3D Ricci tensor of its samples once."""

    @pytest.mark.parametrize("argv", [
        ["--method", "exact"], ["--method", "exact", "--format", "json"],
        ["--method", "rk4"], ["--method", "rk4", "--t0", "-0.5", "--t1", "2"],
    ], ids=["exact", "exact-json", "rk4", "rk4-uncertified"])
    @pytest.mark.parametrize("name,theta,beta", [
        ("R3", dict(uu=1.0), None),
        ("tau2R-general", dict(uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0),
         {"kind": "tabulated", "times": [-1.0, 0.2, 1.5], "values": [0.8, 1.3, 1.0]}),
    ], ids=["R3", "tau2R-general-table"])
    def test_no_flow_state_and_one_ricci3(self, tmp_path, monkeypatch, capsys, argv,
                                          name, theta, beta):
        built, ricci = [], []
        init = numeric.FlowState.__init__
        monkeypatch.setattr(numeric.FlowState, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        ricci3 = numeric._ricci3
        monkeypatch.setattr(numeric, "_ricci3", lambda c: ricci.append(c) or ricci3(c))
        path = write_pair(tmp_path, name, theta_dict(**theta),
                          extra={"beta": beta} if beta else None)
        assert main(["flow", path, "--samples", "9"] + argv) == EXIT_OK
        assert built == [] and len(ricci) == 1
        if argv[-1] == "2" and name == "R3":
            # the march flags the state next to the pole without building one
            assert "is not certified" in capsys.readouterr().err

    def test_curvature_computes_ricci3_once(self, tmp_path, monkeypatch, capsys):
        ricci = []
        ricci3 = numeric._ricci3
        monkeypatch.setattr(numeric, "_ricci3", lambda c: ricci.append(c) or ricci3(c))
        path = write_pair(tmp_path, "tau3mu", theta_dict(uu=5.0 / 3.0, ll=2.0, nn=1.0))
        assert main(["curvature", path, "--samples", "9"]) == EXIT_OK
        assert len(ricci) == 1

    def test_the_lapse_of_a_table_in_one_call(self, tmp_path, monkeypatch, capsys):
        # curvature reads beta at its samples with one interpolation
        calls = []
        beta = lapse.LapseProfile.beta
        monkeypatch.setattr(lapse.LapseProfile, "beta",
                            lambda self, t: calls.append(t) or beta(self, t))
        path = write_pair(tmp_path, "table", theta_dict(ll=1.0, nn=-1.0),
                          extra={"beta": {"kind": "tabulated", "times": [-1.0, 0.2, 1.5],
                                          "values": [0.8, 1.3, 1.0]}})
        assert main(["curvature", path, "--t0", "-0.5", "--t1", "1", "--samples", "9"]) \
            == EXIT_OK
        assert calls == []


class TestVerifyEvaluatesOnce:
    """``verify`` evaluates the pair's constraints at most once, and only
    for a suite that reads them, and the 3D curvature once per stack of
    samples and once for the RK4 states: a call of the kernel's ``ricci``
    on 3D frames, the pair's own one included."""

    PAIRS = {
        "table": (dict(uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0),
                  {"kind": "tabulated", "times": [-1.0, 0.2, 1.5],
                   "values": [0.8, 1.3, 1.0]}),
        "uu-1.3": (dict(uu=1.0), {"kind": "constant", "value": 1.3}),
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("argv,constraints,ricci3", [
        ([], 1, 4), (["--samples", "7"], 1, 3), (["--suite", "cosymplectic"], 0, 0),
        (["--suite", "oracle"], 0, 1), (["--suite", "constraints"], 1, 2),
    ], ids=["all", "samples-7", "cosymplectic", "oracle", "constraints"])
    def test_counts(self, tmp_path, monkeypatch, capsys, name, argv, constraints, ricci3):
        con, ricci = [], []
        evaluate = pairs._constraints
        monkeypatch.setattr(verify, "_constraints",
                            lambda *a: con.append(a) or evaluate(*a))
        # the pair's constraints read R from the kernel too
        run = backend._kern.ricci
        monkeypatch.setattr(backend._kern, "ricci", lambda eta, *a: (
            len(eta) == 3 and ricci.append(eta)) or run(eta, *a))
        theta, beta = self.PAIRS[name]
        path = write_pair(tmp_path, name, theta_dict(**theta), extra={"beta": beta})
        assert main(["verify", path] + argv) == EXIT_OK
        assert (len(con), len(ricci)) == (constraints, ricci3)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    @pytest.mark.parametrize("argv,samples", [
        (["--suite", "cosymplectic"], 20), (["--suite", "cosymplectic", "--samples", "7"], 7),
        ([], 20),
    ], ids=["cosymplectic", "samples-7", "all"])
    def test_closedness_once_per_stack(self, tmp_path, monkeypatch, name, argv, samples):
        calls = []
        residual = verify.closedness_residual
        monkeypatch.setattr(verify, "closedness_residual",
                            lambda pair, alpha: calls.append(alpha) or residual(pair, alpha))
        theta, beta = self.PAIRS[name]
        path = write_pair(tmp_path, name, theta_dict(**theta), extra={"beta": beta})
        assert main(["verify", path] + argv) == EXIT_OK
        assert [np.shape(alpha) for alpha in calls] == [(samples, 3)]


# every command with the options that shape its output; each writes to
# stdout unless --out names a file
OUT_COMMANDS = [
    ["validate"], ["classify"], ["lifespan"], ["flow"], ["flow", "--format", "json"],
    ["flow", "--method", "rk4", "--samples", "5"], ["curvature", "--samples", "5"],
    ["verify", "--samples", "4"],
]
OUT_IDS = ["-".join(a.strip("-") for a in argv) for argv in OUT_COMMANDS]


class TestOut:
    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=OUT_IDS)
    @pytest.mark.parametrize("theta", [theta_dict(uu=5.0 / 3.0, ll=2.0, nn=1.0),
                                       theta_dict(ul=1.0, ll=1.0)],
                             ids=["tau3mu", "invalid"])
    def test_out_writes_what_stdout_would(self, tmp_path, capsys, argv, theta):
        path = write_pair(tmp_path, "pair", theta)
        code = main([argv[0], path] + argv[1:])
        printed = capsys.readouterr()
        out = tmp_path / "out.txt"
        assert main([argv[0], path] + argv[1:] + ["--out", str(out)]) == code
        written = capsys.readouterr()
        assert written.out == "" and written.err == printed.err
        if printed.out:
            assert out.read_bytes() == printed.out.encode()
        else:
            assert not out.exists()

    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=OUT_IDS)
    def test_sweep_out_writes_what_stdout_would(self, tmp_path, capsys, argv):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps([{"theta": theta_dict(uu=-1.0)},
                                    {"theta": theta_dict(ll=1.0, nn=-1.0)}]))
        sweep = [argv[0], str(path), "--sweep"] + argv[1:]
        code = main(sweep)
        printed = capsys.readouterr()
        assert main(sweep + ["--out", str(tmp_path / "run.txt")]) == code
        written = capsys.readouterr()
        assert written.out == "# pair 0\n# pair 1\n" and written.err == printed.err
        files = [(tmp_path / f"run.{i:03d}.txt").read_bytes() for i in range(2)]
        assert b"# pair 0\n" + files[0] + b"# pair 1\n" + files[1] == printed.out.encode()


def _reference_table(cells, fmt):
    """The flow table as csv.writer and json.dumps write it."""
    n = len(cli.FLOW_COLUMNS)
    rows = [[cli._fmt(v) for v in cells[i:i + n]] for i in range(0, len(cells), n)]
    if fmt == "json":
        return json.dumps([dict(zip(cli.FLOW_COLUMNS, row)) for row in rows], indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.FLOW_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _reference_curvature(span, samples):
    """The curvature payload as json.dumps writes it."""
    def end(x):
        return x if x is None else str(x) if math.isinf(x) else float(x)
    payload = {
        "lifespan": {"t_minus": end(span.t_minus), "t_plus": end(span.t_plus),
                     "immortal": span.immortal},
        "samples": samples,
    }
    return json.dumps(payload, indent=2, default=float) + "\n"


# finite floats, with the extremes and integral floats drawn often
FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                             -1.7976931348623157e308, 1e16, 1e-5, 0.1])
          | st.integers(-2 ** 60, 2 ** 60).map(float))
# a residual cell may be any float: nan where a residual is not a number
RESIDUAL = FINITE | st.sampled_from([math.nan, math.inf, -math.inf])
FLOW_ROW = st.tuples(*[FINITE] * (len(cli.FLOW_COLUMNS) - 4), *[RESIDUAL] * 4)
# a sample with its keys in the order lorentz._curvature gives them
SAMPLE = st.tuples(
    FINITE, FINITE,
    st.lists(st.lists(FINITE, min_size=4, max_size=4), min_size=4, max_size=4),
    FINITE, FINITE, FINITE,
).map(lambda v: dict(zip(("t", "beta", "ricci4", "scalar4", "hamiltonian",
                          "identity_residual"), v)))
SPAN_END = st.none() | st.sampled_from([-math.inf, math.inf]) | FINITE
SPAN = st.builds(Lifespan, SPAN_END, SPAN_END, st.booleans())


# each backend, for e12 and reprs; the C one where numeric built it
KERNELS = [
    pytest.param(_kernel_py, id="python"),
    pytest.param(backend._kern, id="c", marks=pytest.mark.skipif(
        backend._kern is _kernel_py, reason="numeric runs _kernel_py: no C kernel was built")),
]


# the 200 floats on either side of 2^-122 and of 2^155, the ends of the
# reach of the C kernel's e12 and reprs
_REACH_ENDS = (np.ldexp(1.0, [-122, 155]).view(np.int64)[:, None]
               + np.arange(-200, 201)).view(np.float64)


@functools.cache
def _e12_cases() -> tuple[tuple, tuple]:
    """About 200,000 floats on which a %.12e formatter could slip, and
    ``"%.12e" % x`` of each: random bit patterns (NaNs, infinities and
    subnormals among them), log-uniform magnitudes of either sign from
    1e-45 to 1e47, and of both signs values within 2 ulps of a decimal tie
    (N + 1/2) 10^(k - 12) up to 1e47, exact ties at three scales, every
    power of two, the carries of 9.9999999999995 10^k into the next
    exponent, the 200 floats on either side of 2^-122 and 2^155, where the
    C kernel hands over to Python's formatter, the zeros, infinities and
    NaNs."""
    rng = np.random.default_rng(41)
    ties = (rng.integers(10 ** 12, 10 ** 13, 10_000) + 0.5) * 10.0 ** rng.integers(
        -30, 47, 10_000).astype(float) / 1e12
    carries = 9.9999999999995 * 10.0 ** np.arange(-324, 308).astype(float)
    whole = rng.integers(10 ** 12, 10 ** 13, (3, 3_000)).astype(float)
    signed = [
        *(np.nextafter(ties, direction) for direction in (-np.inf, np.inf)),
        ties, np.nextafter(np.nextafter(ties, -np.inf), -np.inf),
        np.nextafter(np.nextafter(ties, np.inf), np.inf),
        # n + 1/2 at 10^12, and 10 n + 5 and 100 n + 50 past it: exact in binary
        whole[0] + 0.5, 10.0 * whole[1] + 5.0, 100.0 * whole[2] + 50.0,
        np.ldexp(1.0, np.arange(-1074, 1024)),
        carries, np.nextafter(carries, 0.0), np.nextafter(carries, np.inf),
        _REACH_ENDS.ravel(),
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
         2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308],
    ]
    cells = np.concatenate(signed)
    cells = tuple(np.concatenate([
        rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64).view(np.float64),
        rng.choice([1.0, -1.0], 40_000) * 10.0 ** rng.uniform(-45.0, 47.0, 40_000),
        cells, -cells]).tolist())
    return cells, tuple("%.12e" % x for x in cells)


@pytest.mark.parametrize("kernel", KERNELS)
def test_e12_prints_each_float_as_percent_12e(kernel):
    # exact: the golden comparison forgives a last-digit unit, so it would
    # not see a rounding slip
    cells, want = _e12_cases()
    got = kernel.e12(cells)
    assert type(got) is tuple and all(type(x) is str for x in got)
    assert [(x, a, b) for x, a, b in zip(cells, got, want) if a != b] == []
    assert kernel.e12([]) == () and kernel.e12([0.5, -1]) == ("5.000000000000e-01",
                                                              "-1.000000000000e+00")
    if kernel is not _kernel_py:  # the C kernel shares two strings for the zeros
        zeros = kernel.e12([0.0, -0.0]) + kernel.e12([0.0, -0.0])
        assert zeros[0] is zeros[2] and zeros[1] is zeros[3]


@functools.cache
def _repr_cases() -> tuple[tuple, tuple]:
    """About 200,000 floats on which a shortest-repr writer could slip, and
    ``repr(x)`` of each: random bit patterns (NaNs, infinities and
    subnormals among them), log-uniform magnitudes from 1e-25 to 1e50, the
    200 floats on either side of the notation switches at 1e-4 and 1e16
    and of the C kernel's hand-over to Python's formatter at 2^-122 and
    2^155, every power of two (whose lower gap is half its upper one) and its
    neighbours, values whose shortest form has 1 to 17 digits, integral
    floats up to 2^70, subnormals, the zeros, infinities and NaNs, and
    every curvature cell of the golden corpus; each of both signs."""
    from golden import regenerate

    rng = np.random.default_rng(43)
    switches = (np.array([1e-4, 1e16]).view(np.int64)[:, None]
                + np.arange(-200, 201)).view(np.float64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    # d random digits at a random exponent, read back: 1 to 17 digits
    digits = [float(f"{n}e{e}") for d in range(1, 18)
              for n, e in zip(rng.integers(10 ** (d - 1), 10 ** d, 1_000).tolist(),
                              rng.integers(-25, 25, 1_000).tolist())]
    integral = np.ldexp(rng.integers(1, 2 ** 53, 5_000).astype(float),
                        rng.integers(0, 18, 5_000))
    corpus = []
    for path in regenerate.corpus_files():
        for run in json.loads(path.read_text())["runs"]:
            if run["argv"][0] == "curvature" and run["exit"] == 0:
                corpus += (x for sample in json.loads("\n".join(run["stdout"]))["samples"]
                           for x in curvature_cells(sample))
    cells = np.concatenate([
        rng.integers(0, 2 ** 64, 15_000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-25.0, 50.0, 30_000),
        switches.ravel(), _REACH_ENDS.ravel(), powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        digits, integral, rng.integers(1, 2 ** 52, 1_000, dtype=np.uint64).view(np.float64),
        [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
         sys.float_info.max], corpus,
    ])
    cells = tuple(np.concatenate([cells, -cells]).tolist())
    return cells, tuple(map(repr, cells))


@pytest.mark.parametrize("kernel", KERNELS)
def test_reprs_prints_each_float_as_repr(kernel):
    # exact: the golden comparison forgives an ulp, so it would not see a
    # slip in the last digit
    cells, want = _repr_cases()
    got = kernel.reprs(cells)
    assert type(got) is tuple and all(type(x) is str for x in got)
    assert [(x, a, b) for x, a, b in zip(cells, got, want) if a != b] == []
    assert kernel.reprs([]) == () and kernel.reprs([0.5, -1e16]) == ("0.5", "-1e+16")


@pytest.mark.skipif(backend.KERNEL_BACKEND == "python", reason="numeric runs _kernel_py: "
                    "no C compiler built the kernel")
def test_the_kernel_built_without_int128_prints_as_python(tmp_path):
    # 32-bit targets and MSVC have no __int128: every nonzero cell takes
    # Python's formatter, and the bytes are the same
    path = tmp_path / f"_kernel{sysconfig.get_config_var('EXT_SUFFIX')}"
    subprocess.run([*backend._compile_flags(), "-U__SIZEOF_INT128__",
                    str(Path(numeric.__file__).with_name("_kernel.c")), "-o", str(path)],
                   check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("spinorflow_no_int128._kernel", path)
    kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel)
    for fn, cases in ((kernel.e12, _e12_cases), (kernel.reprs, _repr_cases)):
        cells, want = cases()
        assert [(x, a, b) for x, a, b in zip(cells, fn(cells), want) if a != b] == []


class TestRenderers:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_flow_table_of_edge_cells(self, kernel, fmt, monkeypatch):
        # the %.12e templates the flow table was rendered through before
        # e12 printed its cells, kept as the reference
        csv_row = ",".join(["%.12e"] * len(cli.FLOW_COLUMNS)) + "\n"
        json_row = ("  {\n" + ",\n".join(f'    "{c}": "%.12e"' for c in cli.FLOW_COLUMNS)
                    + "\n  }")
        edges = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                 1e308, -1e308, 1234567890123.5, 1234567890122.5, 2.0 ** -20, 0.1]
        cells = tuple(edges * (2 * len(cli.FLOW_COLUMNS) // len(edges)))
        monkeypatch.setattr(backend, "_kern", kernel)
        if fmt == "json":
            want = "[\n" + ",\n".join([json_row] * 2) % cells + "\n]\n"
        else:
            want = ",".join(cli.FLOW_COLUMNS) + "\n" + csv_row * 2 % cells
        assert cli._render_flow(cells, fmt) == want

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(FLOW_ROW, min_size=1, max_size=4),
           fmt=st.sampled_from(["csv", "json"]))
    @example(rows=[tuple(np.linspace(-i, 3.0 ** i, 28).tolist()) for i in range(50)],
             fmt="json")
    @example(rows=[(1.0,) * 24 + (math.nan, math.inf, -math.inf, -0.0)], fmt="csv")
    @example(rows=[(1.0,) * 24 + (math.nan, math.inf, -math.inf, -0.0)], fmt="json")
    def test_flow_table(self, rows, fmt):
        cells = tuple(v for row in rows for v in row)
        assert cli._render_flow(cells, fmt) == _reference_table(cells, fmt)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_curvature_payload_of_edge_cells(self, kernel, monkeypatch):
        # the %r sample template curvature was rendered through before
        # reprs printed its cells, kept as the reference
        ricci_row = "        [\n" + ",\n".join(["          %r"] * 4) + "\n        ]"
        sample = ('    {\n      "t": %r,\n      "beta": %r,\n      "ricci4": [\n'
                  + ",\n".join([ricci_row] * 4)
                  + '\n      ],\n      "scalar4": %r,\n      "hamiltonian": %r,\n'
                  '      "identity_residual": %r\n    }')
        edges = [0.0, -0.0, 5e-324, 1e16, 9999999999999998.0, 1e-4,
                 math.nextafter(1e-4, 0.0), 0.1, 1e22, sys.float_info.max]
        n = 2 * lorentz._CURVATURE_CELLS
        cells = tuple((edges * n)[:n])
        monkeypatch.setattr(backend, "_kern", kernel)
        want = (cli._CURVATURE_HEAD % ("null", '"inf"', "false") + "[\n"
                + ",\n".join([sample] * 2) % cells + "\n  ]\n}\n")
        assert cli._render_curvature(Lifespan(None, math.inf, False), cells) == want

    @settings(max_examples=50, deadline=None)
    @given(span=SPAN, samples=st.lists(SAMPLE, min_size=1, max_size=4))
    @example(span=Lifespan(None, math.inf, False), samples=[
        {"t": -0.0, "beta": 5e-324, "ricci4": [[1.7976931348623157e308] * 4] * 4,
         "scalar4": -1.7976931348623157e308, "hamiltonian": 3.0,
         "identity_residual": 1e16}])
    @example(span=Lifespan(-math.inf, 0.5, True), samples=[
        {"t": 0.1 * i, "beta": 1.0 + i, "ricci4": np.arange(16.0 * i, 16.0 * i + 16)
         .reshape(4, 4).tolist(), "scalar4": -1e-300 * i, "hamiltonian": 2.0 ** -i,
         "identity_residual": 1e-17 * i} for i in range(50)])
    def test_curvature_payload(self, span, samples):
        cells = tuple(x for s in samples for x in curvature_cells(s))
        assert cli._render_curvature(span, cells) == _reference_curvature(span, samples)


class TestParserReuse:
    def test_calls_in_a_row_do_not_leak_arguments(self, tmp_path, e11_file, capsys):
        single = ["flow", e11_file, "--samples", "3"]
        assert main(single) == EXIT_OK
        alone = capsys.readouterr()
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps([{"theta": theta_dict(uu=1.0)},
                                    {"theta": theta_dict(ll=1.0, nn=-1.0)}]))
        sweep = ["flow", str(path), "--sweep", "--t0", "-0.5", "--t1", "0.5",
                 "--samples", "4", "--method", "rk4", "--out", str(tmp_path / "run.csv")]
        outputs = []
        for argv in (sweep, single, sweep, single):
            assert main(argv) == EXIT_OK
            captured = capsys.readouterr()
            if argv is sweep:
                files = sorted(tmp_path.glob("run.*.csv"))
                assert [f.name for f in files] == ["run.000.csv", "run.001.csv"]
                captured = (captured, [f.read_text() for f in files])
            outputs.append(captured)
        # the single flow keeps its defaults and stdout after a sweep with --out
        assert outputs[1] == outputs[3] == alone
        assert outputs[0] == outputs[2]
        assert all(len(text.splitlines()) == 5 for text in outputs[0][1])
        assert cli._parser() is cli._parser()


def test_cli_import_leaves_scipy_and_numpy_out():
    # a fresh interpreter: this one may hold scipy for the test oracles
    src = os.path.dirname(os.path.dirname(spinorflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # and the library alone leaves out orjson, which only the CLI's decoder
    # uses; the CLI leaves out numpy, on either kernel, orjson, which only a
    # large input loads, and dataclasses, which only numpy's modules use
    code = ("import sys, spinorflow; assert 'orjson' not in sys.modules; "
            "import spinorflow.cli; assert 'scipy' not in sys.modules; "
            "assert 'numpy' not in sys.modules; assert 'orjson' not in sys.modules; "
            "assert 'dataclasses' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# a fresh interpreter's package modules (without "spinorflow."), and
# "dataclasses", "numpy" and "orjson" where each is loaded, after each step:
# importing the package, then the CLI, then the commands in turn
_LOADED_BY_STEP = """
import json, sys
def loaded():
    return sorted([m[len("spinorflow."):] for m in sys.modules
                   if m.startswith("spinorflow.")]
                  + [m for m in ("dataclasses", "numpy", "orjson") if m in sys.modules])
import spinorflow
steps = {"spinorflow": loaded(), "dir": sorted(dir(spinorflow))}
from spinorflow.cli import main
steps["spinorflow.cli"] = loaded()
for command in sys.argv[2:]:
    assert main([command, sys.argv[1]]) == 0
    steps[command] = loaded()
print(json.dumps(steps))
"""


def _loaded_by_step(path, *commands):
    src = os.path.dirname(os.path.dirname(spinorflow.__file__))
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY_STEP, path, *commands],
                          env=dict(os.environ, PYTHONPATH=src), check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_command_loads_only_what_it_runs(e11_file):
    steps = _loaded_by_step(e11_file, "validate", "classify", "lifespan")
    assert steps["spinorflow"] == []
    assert set(spinorflow.__all__) <= set(steps["dir"])
    assert steps["spinorflow.cli"] == ["cli", "errors", "lapse", "pairs", "sym3"]
    # the kernel, for the Ricci scalar of the pair's frame, and no closed
    # form, march, curvature or suite; numpy, and the dataclasses of frames,
    # only with the fallback kernel; orjson never, for a file this small
    kernel = (["_kernel"] if backend.KERNEL_BACKEND == "c"
              else ["_kernel_py", "dataclasses", "frames", "numpy"])
    for command in ("validate", "classify"):
        assert steps[command] == sorted(steps["spinorflow.cli"] + ["backend"] + kernel), command
    assert not {"lorentz", "verify"} & set(steps["lifespan"])
    # the march's modules: the C kernel too where backend built it
    kernels = {"_kernel_py"} | ({"_kernel"} if backend.KERNEL_BACKEND == "c" else set())
    assert {"exact", "numeric", "numpy"} | kernels <= set(steps["lifespan"])


@pytest.mark.skipif(backend.KERNEL_BACKEND != "c",
                    reason="the fallback kernel _kernel_py computes with numpy")
@pytest.mark.parametrize("beta", [None, {"kind": "constant", "value": 1.3}],
                         ids=["no-lapse", "constant-lapse"])
@pytest.mark.parametrize("theta", [theta_dict(uu=5.0 / 3.0, ll=2.0, nn=1.0),
                                   theta_dict(uu=-2.0, ul=1.0, un=1.0, ll=1.0, ln=1.0, nn=1.0)],
                         ids=["tau3mu", "tau2R-general"])
def test_validate_and_classify_load_no_numpy(tmp_path, theta, beta):
    path = write_pair(tmp_path, "pair", theta, extra=beta and {"beta": beta})
    steps = _loaded_by_step(path, "validate", "classify")
    for step in ("spinorflow.cli", "validate", "classify"):
        assert not {"dataclasses", "numpy", "orjson"} & set(steps[step]), step
    assert {"backend", "_kernel"} <= set(steps["validate"])


def test_validate_of_a_table_above_the_threshold_loads_orjson(tmp_path):
    # a 100-node table, perfbench's smallest, is about 4 KiB: orjson reads
    # it where installed, and json where not
    times = [i / 33.0 - 1.5 for i in range(100)]
    path = write_pair(tmp_path, "table", theta_dict(ll=1.0, nn=-1.0), extra={
        "beta": {"kind": "tabulated", "times": times, "values": [1.0] * len(times)}})
    assert os.path.getsize(path) > cli._ORJSON_MIN_BYTES
    steps = _loaded_by_step(path, "validate")
    assert "orjson" not in steps["spinorflow.cli"]
    assert ("orjson" in steps["validate"]) is (cli.JSON_BACKEND == "orjson")
