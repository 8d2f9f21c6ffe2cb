import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geoequiv
from geoequiv import verifier
from geoequiv.cli import _canonical_json, main
from geoequiv.constructors import GENERATORS
from geoequiv.geometry import load_model, save_model, to_manifest
from geoequiv.hamiltonian import integrate

from conftest import FIELD_PARAMS, heisenberg, pair_fixture, plane_pair


@pytest.fixture()
def dini_model(tmp_path):
    path = tmp_path / "dini.json"
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"beta1": "1+x1/10", "beta2": "2+x2/10"}))
    assert main(["generate", "dini", "--params", str(params),
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def conformal_model(tmp_path):
    path = tmp_path / "conformal.json"
    save_model(heisenberg("1 + x^2 + y^2"), str(path))
    return str(path)


def test_version(capsys):
    assert main(["--version"]) == 0
    assert geoequiv.__version__ in capsys.readouterr().out


def test_generate_writes_manifest(dini_model, capsys):
    doc = json.loads(Path(dini_model).read_text())
    assert set(doc) >= {"coords", "rank", "frame", "gram1", "gram2", "domain"}
    assert doc["meta"]["generator"] == "dini"


def test_generate_json_report(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["generate", "beltrami", "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "geoequiv-report/1"
    assert payload["command"] == "generate"
    assert payload["model"]["rank"] == 2


def test_generate_usage_errors(tmp_path, capsys):
    assert main(["generate", "no-such-kind", "--out", str(tmp_path / "x")]) == 1
    # missing required generator parameter
    assert main(["generate", "dini", "--out", str(tmp_path / "x")]) == 1
    assert "bad params" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dini", "gendini1", "gendini2"])
def test_generate_names_a_missing_parameter(kind, tmp_path, capsys):
    # the bare KeyError read "error: bad params for dini: 'beta1'"
    required = {"dini": ["beta1", "beta2"], "gendini1": ["U", "V"], "gendini2": ["R"]}[kind]
    for key in required:
        params = tmp_path / "p.json"
        params.write_text(json.dumps({k: v for k, v in FIELD_PARAMS[kind].items() if k != key}))
        argv = ["generate", kind, "--out", str(tmp_path / "x.json")]
        assert main(argv + ["--params", str(params)]) == 1
        assert capsys.readouterr().err == (
            "error: bad params for %s: missing parameter '%s'\n" % (kind, key))
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: bad params for %s: missing parameter '%s'\n" % (kind, required[0]))
    assert not (tmp_path / "x.json").exists()


def test_generate_hypothesis_violation(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"U": "2 - u", "V": "1 + v"}))
    assert main(["generate", "gendini1", "--params", str(params),
                 "--out", str(tmp_path / "x")]) == 1
    assert "U(0) = V(0)" in capsys.readouterr().err


# a parameter undefined at a point where its generator checks a hypothesis:
# the first point it fails at, and the operation's own message
UNDEFINED_PARAMS = [
    ("quasi-contact", {"beta": "1 + sqrt(t)"}, "beta undefined at [-0.4]: math domain error"),
    ("gendini1", {"U": "log(u)", "V": "1 + v"}, "U, V undefined at [0.0]: math domain error"),
    ("gendini1", {"U": "1 - u + log(1 - 4*u) - log(1 - 4*u)", "V": "1 + v"},
     "U, V undefined at [0.25]: math domain error"),
    ("gendini2", {"R": "1 + r^2 + sqrt(r)"}, "R undefined at [0.0]: float division by zero"),
    ("gendini2", {"R": "1 + r^2 + sqrt(0.2 - r) - sqrt(0.2 - r)"},
     "R undefined at [0.21250000000000002]: math domain error"),
    ("dini", {"beta1": "2 + log(x1)", "beta2": "3"},
     "beta1, beta2 undefined at [-0.48, -0.48]: math domain error"),
    ("levi-civita", {"blocks": [{"size": 1, "beta": "2 + sqrt(x1)"}, {"size": 1, "beta": 1.0}]},
     "blocks[0].beta, blocks[1].beta undefined at [-0.384, -0.384]: math domain error"),
]


@pytest.mark.parametrize("kind,params,message", UNDEFINED_PARAMS,
                         ids=["%s-%d" % (case[0], i) for i, case in enumerate(UNDEFINED_PARAMS)])
def test_generate_names_a_parameter_undefined_at_a_checked_point(kind, params, message,
                                                                 tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "x.json"
    assert main(["generate", kind, "--params", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


@pytest.mark.parametrize("q0", [5, [0.0, 0.0], ["0", 0, 0], [0, 0, math.nan], [0, True, 0]])
def test_levi_civita_q0_must_be_finite_numbers(q0, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(FIELD_PARAMS["levi-civita"], q0=q0)))
    out = tmp_path / "x.json"
    assert main(["generate", "levi-civita", "--params", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: q0 must be a list of 3 finite numbers\n"
    assert not out.exists()
    # numbers inside the domain pass, and the manifest records them as given
    path.write_text(json.dumps(dict(FIELD_PARAMS["levi-civita"], q0=[0, 0.1, -0.2])))
    assert main(["generate", "levi-civita", "--params", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["params"]["q0"] == [0, 0.1, -0.2]


def test_missing_model_exits_1(capsys):
    assert main(["analyze", "--model", "/nonexistent/model.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_manifest_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"coords": ["x", "y"], "rank": 2,
                               "frame": [["1", "0"], ["0", "1"]],
                               "gram1": [["1", "0"], ["0", "1"]],
                               "gram2": [["1", "0"], ["0", "oops("]],
                               "domain": {"min": [-1, -1], "max": [1, 1]}}))
    assert main(["analyze", "--model", str(bad)]) == 4
    assert "gram2[1][1]" in capsys.readouterr().err


def test_analyze_json_riemannian(dini_model, capsys):
    assert main(["analyze", "--model", dini_model, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "geoequiv-report/1"
    rec = payload["points"][0]
    assert rec["N"] == 2 and rec["regular"] is True
    assert rec["first_divisibility"]["holds"] is True
    assert rec["second_divisibility"] is None        # corank 0
    assert "eigenvalue-transport" in rec["relations"]


def test_analyze_text_corank_note(dini_model, capsys):
    assert main(["analyze", "--model", dini_model]) == 0
    out = capsys.readouterr().out
    assert "not applicable (corank != 1)" in out
    assert "first divisibility: holds" in out


def test_analyze_corank_one(tmp_path, capsys):
    out = tmp_path / "qc.json"
    assert main(["generate", "quasi-contact", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--model", str(out), "--format", "json",
                 "--at", "0.05", "-0.02", "0.01", "0.03"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rec = payload["points"][0]
    assert rec["second_divisibility"]["holds"] is True
    assert rec["second_divisibility"]["transverse_quotient"]


def test_analyze_at_arity_checked(dini_model, capsys):
    assert main(["analyze", "--model", dini_model, "--at", "0.1"]) == 1
    assert "expects 2 coordinates" in capsys.readouterr().err


def test_at_accepts_negative_scientific_notation(dini_model, capsys):
    assert main(["analyze", "--model", dini_model, "--format", "json",
                 "--at", "-3.9e-05", "0.1", "--at", "-1e-3", "-2E-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [rec["q"] for rec in payload["points"]] == [[-3.9e-05, 0.1],
                                                       [-1e-3, -0.2]]
    assert main(["check-relations", "--model", dini_model, "--format", "json",
                 "--at", "-1e-3", "1.5e-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"][0]["q"] == [-1e-3, 0.15]


def test_unknown_option_exits_1(dini_model, capsys):
    assert main(["analyze", "--model", dini_model, "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["analyze", "--model", dini_model, "--at", "-e5", "0.1"]) == 1


def _run_cli(*argv):
    src = os.path.dirname(os.path.dirname(geoequiv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "geoequiv.cli"] + list(argv),
                          capture_output=True, text=True, env=env)


def test_eval_domain_error_exits_4_without_traceback(tmp_path):
    # d/dx abs(x - 0.2)^0.5 is undefined on the line x = 0.2
    path = tmp_path / "kink.json"
    path.write_text(json.dumps({
        "coords": ["x", "y"], "rank": 2,
        "frame": [["1", "0"], ["0", "1"]],
        "gram1": [["1", "0"], ["0", "1"]],
        "gram2": [["1 + abs(x-0.2)^0.5", "0"], ["0", "1"]],
        "domain": {"min": [-1, -1], "max": [1, 1]}}))
    runs = [
        ("analyze", "--model", str(path), "--at", "0.2", "0"),
        # the gram2 extremal crosses x = 0.2 in mid-integration
        ("geodesic", "--model", str(path), "--metric", "2",
         "--q", "0.1", "0", "--p", "1", "0", "--T", "0.3"),
    ]
    for argv in runs:
        proc = _run_cli(*argv)
        assert proc.returncode == 4, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        # operands print as plain floats, and analyze names the point
        assert "np.float64" not in proc.stderr
        if argv[0] == "analyze":
            assert "at q = [0.2, 0.0]: power 0.0^-0.5" in proc.stderr


@pytest.mark.parametrize("tag", ["gram1", "gram2"])
def test_non_positive_gram_exits_4_without_traceback(tmp_path, tag):
    # a narrow dip below zero at (0.2, 0) that the validation grid misses
    dip = "1 - 10*exp(-1000*((x-0.2)^2 + y^2))"
    doc = {"coords": ["x", "y"], "rank": 2,
           "frame": [["1", "0"], ["0", "1"]],
           "gram1": [["1", "0"], ["0", "1"]],
           "gram2": [["2", "0"], ["0", "3"]],
           "domain": {"min": [-1, -1], "max": [1, 1]}}
    doc[tag] = [[dip, "0"], ["0", "1"]]
    path = tmp_path / "dip.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--model", str(path), "--at", "0.5", "0"]) == 0
    for command in ("analyze", "check-relations"):
        proc = _run_cli(command, "--model", str(path), "--at", "0.2", "0")
        assert proc.returncode == 4, (command, proc.stderr)
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "at q = [0.2, 0.0]: " in proc.stderr
        assert "%s not positive definite at [0.2, 0.0]" % tag in proc.stderr


def test_verify_gram1_not_positive_definite_exits_4(tmp_path):
    # the dip of the test above; verify draws a base point inside it
    dip = "1 - 10*exp(-1000*((x-0.2)^2 + y^2))"
    path = tmp_path / "dip.json"
    path.write_text(json.dumps({
        "coords": ["x", "y"], "rank": 2,
        "frame": [["1", "0"], ["0", "1"]],
        "gram1": [[dip, "0"], ["0", "1"]],
        "gram2": [["2", "0"], ["0", "3"]],
        "domain": {"min": [-1, -1], "max": [1, 1]}}))
    proc = _run_cli("verify", "--model", str(path), "--samples", "20")
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "np.float64" not in proc.stderr
    found = re.search(r"gram1 not positive definite at \[(.*)\]", proc.stderr)
    assert found, proc.stderr
    x, y = (float(v) for v in found.group(1).split(","))
    assert 1 - 10 * math.exp(-1000 * ((x - 0.2) ** 2 + y ** 2)) <= 0


def test_frame_error_prints_plain_floats(tmp_path, capsys):
    # D = span(d/dx, d/dy) is integrable, so no bracket completes the frame
    path = tmp_path / "integrable.json"
    path.write_text(json.dumps({
        "coords": ["x", "y", "z"], "rank": 2,
        "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "gram1": [["1", "0"], ["0", "1"]],
        "gram2": [["2", "0"], ["0", "3"]],
        "domain": {"min": [-1, -1, -1], "max": [1, 1, 1]}}))
    # no relation could be checked, so the verdict is inconclusive, not fail
    assert main(["check-relations", "--model", str(path), "--at", "0.1", "0", "0",
                 "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "inconclusive"
    rec = payload["points"][0]
    assert rec["frame_error"] == ("no distribution bracket leaves D near "
                                  "[0.1, 0.0, 0.0]; completion undefined")


def test_check_relations_failing_point_outweighs_frame_error(tmp_path, capsys):
    # [X1, X2] = 2x d/dz leaves D except on x = 0; gram2 is conformal there
    path = tmp_path / "bracket.json"
    path.write_text(json.dumps({
        "coords": ["x", "y", "z"], "rank": 2,
        "frame": [["1", "0", "0"], ["0", "1", "x^2"], ["0", "0", "1"]],
        "gram1": [["1", "0"], ["0", "1"]],
        "gram2": [["1 + x^2 + y^2", "0"], ["0", "1 + x^2 + y^2"]],
        "domain": {"min": [-1, -1, -1], "max": [1, 1, 1]}}))
    assert main(["check-relations", "--model", str(path), "--at", "0", "0.3", "0",
                 "--at", "0.5", "0.3", "0", "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fail"
    assert "completion undefined" in payload["points"][0]["frame_error"]
    assert payload["points"][1]["relations"]["transverse-constancy"] > 1e-6


def test_analyze_pole_cancelled_by_numpy_scalars_exits_4(tmp_path):
    # 1/inf would cancel the pole of 1/(x + 0.9) if coordinates reached the
    # compiled expressions as numpy scalars; as floats the pole raises
    path = tmp_path / "pole.json"
    save_model(plane_pair(g2xx="2 + 1/(1/(x + 0.9))"), str(path))
    proc = _run_cli("analyze", "--model", str(path), "--at", "-0.9", "0")
    assert proc.returncode == 4, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "at q = [-0.9, 0.0]: float division by zero" in proc.stderr


def test_geodesic_integration_failure_exits_4(tmp_path):
    # gram2 nearly vanishes on x = 0.3 and DOP853's step size collapses there
    path = tmp_path / "thin.json"
    save_model(plane_pair(g2xx="(x-0.3)^2 + 1e-24"), str(path))
    proc = _run_cli("geodesic", "--model", str(path), "--metric", "2",
                    "--q", "0", "0", "--p", "1", "0", "--T", "1")
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert re.match(r"error: integration failed from q = \[0.0, 0.0\] at t = 0.01\d* of "
                    r"T = 1.0: ", lines[0]), proc.stderr


def test_geodesic_covector_too_large_exits_1(tmp_path, capsys):
    # the energy of p = (1e200, 0, 0) overflows where lc3 evaluates: the
    # argument is at fault, not the model
    path = tmp_path / "lc3.json"
    params = tmp_path / "params.json"
    params.write_text(json.dumps(FIELD_PARAMS["levi-civita"]))
    assert main(["generate", "levi-civita", "--params", str(params),
                 "--out", str(path)]) == 0
    capsys.readouterr()
    for metric in ("1", "2"):
        assert main(["geodesic", "--model", str(path), "--metric", metric,
                     "--q", "0", "0", "0", "--p", "1e200", "0", "0",
                     "--T", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: argument --p: the energy of this covector at --q is not "
            "finite; scale it down"], err


def test_geodesic_covector_too_large_where_the_model_fails_exits_4(tmp_path, capsys):
    # gram2 has a pole at x = -0.9: there the model is at fault whatever the
    # covector, and at the origin the same covector is
    path = tmp_path / "pole.json"
    save_model(plane_pair(g2xx="2 + 1/(1/(x + 0.9))"), str(path))
    for metric in ("1", "2"):
        for p in ("1e200", "1"):
            assert main(["geodesic", "--model", str(path), "--metric", metric,
                         "--q", "-0.9", "0", "--p", p, "0", "--T", "0.1"]) == 4
            assert capsys.readouterr().err == ("error: model expression out of "
                                               "its domain: float division by zero\n")
        assert main(["geodesic", "--model", str(path), "--metric", metric,
                     "--q", "0", "0", "--p", "1e200", "0", "--T", "0.1"]) == 1
        assert "error: argument --p: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("verify", "--integrator-tol", "-1"),
    ("verify", "--integrator-tol", "0"),
    ("verify", "--T", "0"),
    ("verify", "--T", "nan"),
    ("geodesic", "--tol", "0"),
    ("geodesic", "--tol", "nan"),
])
def test_bad_integrator_arguments_exit_1(dini_model, capsys, argv):
    # a usage error with one line, not a traceback or a model-domain error
    extra = (["--samples", "2"] if argv[0] == "verify" else
             ["--metric", "1", "--q", "0", "0", "--p", "1", "0", "--T", "0.2"])
    assert main([argv[0], "--model", dini_model] + list(argv[1:]) + extra) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    what = "integration time" if "--T" in argv else "integrator tolerance"
    assert what in lines[0], lines


@pytest.mark.parametrize("argv", [
    # at HEAD these passed the conformal pair, passed with nothing verified,
    # failed an equivalent pair or reported regular from no probe samples
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "0"),
    ("verify", "--samples", "0"),
    ("verify", "--samples", "-2"),
    ("verify", "--curve-samples", "0"),
    ("verify", "--curve-samples", "1"),
    ("check-relations", "--tol", "nan"),
    ("check-relations", "--bracket-tol", "-1e-6"),
    ("analyze", "--radius", "nan"),
    ("analyze", "--radius", "inf"),
    ("analyze", "--cluster-tol", "nan"),
    # check-relations checked the center and passed; geodesic integrated,
    # then numpy refused the sample count
    ("check-relations", "--points", "0"),
    ("check-relations", "--points", "-2"),
    ("geodesic", "--samples", "-3"),
    # check-relations ended in numpy's ValueError traceback; verify exited
    # 1 without naming the flag
    ("check-relations", "--seed", "-1"),
    ("verify", "--seed", "-1"),
])
def test_arguments_that_void_a_verdict_exit_1(conformal_model, capsys, argv):
    # a usage error naming the flag, before the model is read
    assert main([argv[0], "--model", conformal_model] + list(argv[1:])) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error")]
    assert errors == ["error: argument %s: must be %s, got %s" % (
        argv[1], "at least 2" if argv[1] == "--curve-samples" else
        "at least 0" if argv[0] == "geodesic" or argv[1] == "--seed" else
        "at least 1" if argv[1] in ("--samples", "--points") else "finite and positive",
        argv[2])]


def test_geodesic_samples_0_gives_the_accepted_step_times(dini_model, capsys):
    argv = ["geodesic", "--model", dini_model, "--metric", "1", "--q", "0", "0",
            "--p", "1", "0", "--T", "0.2", "--format", "json"]
    assert main(argv + ["--samples", "0"]) == 0
    steps = json.loads(capsys.readouterr().out)
    assert main(argv + ["--samples", "3"]) == 0
    even = json.loads(capsys.readouterr().out)
    assert even["t"] == [0.0, 0.1, 0.2]
    assert steps["t"][0] == 0.0 and steps["t"][-1] == 0.2 and len(steps["t"]) > 3
    assert steps["t"] != np.linspace(0.0, 0.2, len(steps["t"])).tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_geodesic_covector_too_large_for_the_first_step_exits_1(tmp_path, capsys):
    # the energy of p = (1e150, 0, 0, 0) is finite, but the initial rate over
    # the error scale cannot be squared: before, five numpy warnings and a
    # trajectory clipped at t = 2.6e-151
    path = str(tmp_path / "qc.json")
    save_model(GENERATORS["quasi-contact"](FIELD_PARAMS["quasi-contact"]), path)
    assert main(["geodesic", "--model", path, "--metric", "1", "--q", "0", "0", "0", "0",
                 "--p", "1e150", "0", "0", "0", "--T", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: argument --p: the initial rate over the error scale (tolerance 1e-10) "
        "cannot be squared in floats; scale it down"]
    assert main(["geodesic", "--model", path, "--metric", "1", "--q", "0", "0", "0", "0",
                 "--p", "1", "0", "0", "0", "--T", "0.1"]) == 0


@pytest.mark.parametrize("cell,message", [
    ("1.0 + 0.5*w*1e400", "number 1e400 is not finite (at offset 12)"),
    ("1.0 + 0.5*w*(1e200*1e200)", "constant expression is not finite (at offset 18)"),
])
def test_non_finite_constant_in_a_manifest_exits_4(tmp_path, cell, message):
    # the compiled Gram program read the constant as the undefined name inf:
    # a NameError traceback and exit 1
    doc = to_manifest(GENERATORS["quasi-contact"](FIELD_PARAMS["quasi-contact"]))
    doc["gram1"][2][2] = cell
    path = tmp_path / "qc.json"
    path.write_text(json.dumps(doc))
    for argv in (("analyze",), ("verify", "--samples", "2")):
        proc = _run_cli(*argv, "--model", str(path))
        assert proc.returncode == 4, (argv, proc.stderr)
        assert proc.stderr.splitlines() == ["error: invalid model: gram1[2][2]: " + message]


def test_a_superscript_digit_in_a_manifest_exits_4(tmp_path):
    # the tokenizer took "2²" for a number, and float() raised a ValueError
    # that the CLI reported as a traceback
    doc = to_manifest(GENERATORS["quasi-contact"](FIELD_PARAMS["quasi-contact"]))
    doc["gram1"][2][2] = "2²"
    path = tmp_path / "qc.json"
    path.write_text(json.dumps(doc))
    proc = _run_cli("analyze", "--model", str(path))
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: invalid model: gram1[2][2]: unexpected character '²' (at offset 1)"]


@pytest.mark.parametrize("flag,value,what", [
    # before these were checked, a NaN cone excluded nothing and wrote NaN
    # into the JSON report (exit 0), a NaN margin or sigma exited 4 blaming
    # the model, and a margin of 0.6 inverted sample_point's box
    ("--exclude-abnormal-cone", "nan", "finite and positive"),
    ("--exclude-abnormal-cone", "inf", "finite and positive"),
    ("--exclude-abnormal-cone", "0", "finite and positive"),
    ("--margin", "nan", "in [0, 0.5)"),
    ("--margin", "0.6", "in [0, 0.5)"),
    ("--margin", "0.5", "in [0, 0.5)"),
    ("--margin", "-0.1", "in [0, 0.5)"),
    ("--transverse-sigma", "nan", "finite and at least 0"),
    ("--transverse-sigma", "inf", "finite and at least 0"),
    ("--transverse-sigma", "-1", "finite and at least 0"),
])
def test_verify_sampling_arguments_exit_1(conformal_model, capsys, flag, value, what):
    assert main(["verify", "--model", conformal_model, "--samples", "2",
                 "--format", "json", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error")]
    assert errors == ["error: argument %s: must be %s, got %s" % (flag, what, value)]


@pytest.mark.parametrize("argv", [
    # before these were checked, NaN points exited 4 blaming the model,
    # infinite analyze points ended in a traceback from the JSON writer and
    # geodesic --q nan read as a point outside the domain
    ("analyze", "--at", "nan", "0", "0", "0"),
    ("analyze", "--at", "0", "inf", "0", "0"),
    ("analyze", "--at", "0.1", "0", "0", "0", "--at", "0", "0", "1e400", "0"),
    ("check-relations", "--at", "nan", "0", "0", "0"),
    ("check-relations", "--at", "0", "0", "0", "-1e999"),
    ("geodesic", "--q", "nan", "0", "0", "0"),
    ("geodesic", "--p", "0", "0", "nan", "0"),
])
def test_non_finite_points_exit_1(tmp_path, capsys, argv):
    path = tmp_path / "qc.json"
    save_model(GENERATORS["quasi-contact"](FIELD_PARAMS["quasi-contact"]), str(path))
    extra = []
    if argv[0] == "geodesic":
        extra = ["--metric", "1", "--T", "0.1"] + [
            arg for flag in ("--q", "--p") if flag not in argv
            for arg in (flag, "0", "0", "0", "1")]
    assert main([argv[0], "--model", str(path)] + list(argv[1:]) + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error")]
    bad = next(v for v in argv if v in ("nan", "inf", "1e400", "-1e999"))
    flag = "--at" if "--at" in argv else "--q" if "--q" in argv else "--p"
    assert errors == ["error: argument %s: must be finite, got %s" % (flag, bad)]


def _strict_json(text):
    """json.loads that rejects NaN and infinity, as allow_nan=False writes."""
    def reject(name):
        raise ValueError("not JSON: %s" % name)
    return json.loads(text, parse_constant=reject)


def test_verify_report_with_abnormal_cone_is_strict_json(tmp_path, capsys):
    path = tmp_path / "qc.json"
    save_model(GENERATORS["quasi-contact"](FIELD_PARAMS["quasi-contact"]), str(path))
    assert main(["verify", "--model", str(path), "--samples", "3", "--format", "json",
                 "--exclude-abnormal-cone", "0.1", "--margin", "0",
                 "--transverse-sigma", "0"]) == 0
    report = _strict_json(capsys.readouterr().out)
    config = report["config"]
    assert (config["abnormal_cone"], config["margin"], config["transverse_sigma"]) == (0.1, 0, 0)
    assert report["verdict"] == "pass"


def test_canonical_json_refuses_nan_and_infinity():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _canonical_json({"value": bad})
    assert _strict_json(_canonical_json({"value": 0.5})) == {"value": 0.5}


def test_analyze_cluster_tol_reaches_the_adapted_frame(tmp_path, capsys):
    # the eigenvalues 2 and 2.00012 split at the default tolerance and merge at 1e-3
    path = tmp_path / "near.json"
    save_model(plane_pair(g2xx="2", g2yy="2.00002 + x/1000"), str(path))
    reports = {}
    for tol in ("1e-3", "1e-7"):
        assert main(["analyze", "--model", str(path), "--at", "0.1", "0.1",
                     "--cluster-tol", tol, "--format", "json"]) == 0
        reports[tol] = json.loads(capsys.readouterr().out)["points"][0]
    merged, split = reports["1e-3"], reports["1e-7"]
    assert (merged["N"], split["N"]) == (1, 2)
    # one cluster: no split pair for the invariance screens to test
    assert merged["relations"]["ratio-invariance"] is None
    assert merged["relations"]["pair-invariance"] is None
    assert split["relations"]["ratio-invariance"] == pytest.approx(7.071e-4, rel=1e-3)


def test_verify_without_admissible_covector_exits_3(tmp_path, capsys):
    # a cone wider than pi/2 around the abnormal line rejects every covector
    path = tmp_path / "qc.json"
    params = tmp_path / "params.json"
    params.write_text(json.dumps(FIELD_PARAMS["quasi-contact"]))
    assert main(["generate", "quasi-contact", "--params", str(params),
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--model", str(path), "--samples", "2",
                 "--exclude-abnormal-cone", "1.6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "200 draws fell within the abnormal cone of half-angle 1.6" in lines[0]


def test_geodesic_csv(dini_model, capsys):
    assert main(["geodesic", "--model", dini_model, "--metric", "1",
                 "--q", "0", "0", "--p", "0.5", "0.1", "--T", "0.2",
                 "--samples", "21"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,q_1,q_2,p_1,p_2,h"
    assert len(lines) == 22
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.2)


def test_geodesic_json_and_clipping(dini_model, capsys):
    assert main(["geodesic", "--model", dini_model, "--metric", "2",
                 "--q", "0", "0", "--p", "1", "0", "--T", "5",
                 "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert "clipped" in captured.err
    payload = json.loads(captured.out)
    assert payload["clipped"] is True
    assert len(payload["t"]) == len(payload["q"]) == len(payload["h"])


def test_geodesic_clip_note_names_the_exit_time(dini_model, capsys):
    assert main(["geodesic", "--model", dini_model, "--metric", "2",
                 "--q", "0", "0", "--p", "1", "0", "--T", "5"]) == 0
    traj = integrate(load_model(dini_model), 2, (np.zeros(2), np.array([1.0, 0.0])), 5.0)
    assert traj.clipped
    note = "note: trajectory clipped at domain boundary (t_exit = %.6g)" % traj.t_exit
    assert capsys.readouterr().err.splitlines() == [note]
    assert note.endswith("(t_exit = 0.499848)")


@pytest.fixture()
def levi_civita_model(tmp_path):
    path = tmp_path / "lc.json"
    save_model(GENERATORS["levi-civita"](FIELD_PARAMS["levi-civita"]), str(path))
    return str(path)


def test_geodesic_from_the_boundary_exits_1(levi_civita_model, capsys):
    # the box is [-0.4, 0.4]^3: a start on its face or corner is refused
    # with one error line, a start outside names its point too
    for q, p, error in ((["0.4", "0", "0"], ["1", "0", "0"],
                         "error: initial point [0.4, 0.0, 0.0] lies within 1e-12 of the "
                         "domain boundary"),
                        (["0.4", "0.4", "0.4"], ["-1", "-1", "-1"],
                         "error: initial point [0.4, 0.4, 0.4] lies within 1e-12 of the "
                         "domain boundary"),
                        (["0.5", "0", "0"], ["1", "0", "0"],
                         "error: initial point [0.5, 0.0, 0.0] outside the model domain")):
        assert main(["geodesic", "--model", levi_civita_model, "--metric", "1",
                     "--q", *q, "--p", *p, "--T", "0.1", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [error]


@pytest.mark.parametrize("command", ["analyze", "check-relations"])
def test_at_outside_the_domain_exits_1(levi_civita_model, command, capsys):
    # analyze once answered `regular: true` at (10, 10, 10), from no ball
    # sample, and check-relations `pass`
    for at in (["10", "10", "10"], ["0.1", "0", "0", "--at", "0", "-0.45", "0"]):
        assert main([command, "--model", levi_civita_model, "--at", *at,
                     "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        point = [float(v) for v in at[-3:]]
        assert captured.err.splitlines() == [
            "error: --at point %s is outside the model domain" % (point,)]
    # the boundary is inside the domain
    assert main([command, "--model", levi_civita_model, "--at", "0.4", "0.4", "-0.4"]) == 0


# the Engel distribution (x, y, z, w): X1 = d/dx, X2 = d/dy + x d/dz + x^2/2 d/dw,
# of rank 2 and so of corank 2 in dimension 4
ENGEL = {"coords": ["x", "y", "z", "w"], "rank": 2,
         "frame": [["1", "0", "0", "0"], ["0", "1", "x", "x*x/2"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
         "gram1": [["1", "0"], ["0", "1"]], "gram2": [["2", "0"], ["0", "3"]],
         "domain": {"min": [-0.5] * 4, "max": [0.5] * 4}}


def test_verify_refuses_corank_above_one_before_integrating(tmp_path, capsys, monkeypatch):
    # verify integrated every gram1 leg and then reported each sample as a
    # frame error; it now stops before it draws a sample
    path = tmp_path / "engel.json"
    path.write_text(json.dumps(ENGEL))
    calls = []
    monkeypatch.setattr(verifier, "integrate", lambda *args, **kwargs: calls.append(args))
    assert main(["verify", "--model", str(path), "--samples", "4"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, calls) == ("", [])
    assert captured.err == ("error: adapted frame unavailable: verify supports corank 0 or 1 "
                            "only, not corank 2\n")
    # analyze and check-relations integrate nothing and keep their answers
    assert main(["analyze", "--model", str(path)]) == 0
    assert "adapted frame unavailable" in capsys.readouterr().out
    assert main(["check-relations", "--model", str(path)]) == 3


FUZZ_KINDS = ("levi-civita", "quasi-contact", "beltrami", "conformal")


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    """kind -> (manifest path, domain_min, domain_max) of each FUZZ_KINDS pair."""
    models = {}
    for kind in FUZZ_KINDS:
        model = pair_fixture(kind)
        path = tmp_path_factory.mktemp("fuzz") / (kind + ".json")
        save_model(model, str(path))
        models[kind] = (str(path), model.domain_min.tolist(), model.domain_max.tolist())
    return models


def _refuse_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


@st.composite
def _geodesic_argv(draw, models):
    kind = draw(st.sampled_from(FUZZ_KINDS))
    path, lo, hi = models[kind]
    q = [draw(st.floats(0.9 * a + 0.1 * b, 0.1 * a + 0.9 * b)) for a, b in zip(lo, hi)]
    if draw(st.booleans()):
        # 1e-13 to 1e-3 inside one face, on both sides of _BOUNDARY_EPS = 1e-12
        j, face = draw(st.integers(0, len(q) - 1)), draw(st.sampled_from((0, 1)))
        gap = 10.0 ** draw(st.floats(-13, -3))
        q[j] = lo[j] + gap if face == 0 else hi[j] - gap
    entry = st.one_of(st.sampled_from((0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0)),
                      st.floats(-3, 3))
    p = [draw(entry) for _ in q]
    return ["geodesic", "--model", path, "--metric", draw(st.sampled_from(("1", "2"))),
            "--q", *map(repr, q), "--p", *map(repr, p),
            "--T", draw(st.sampled_from(("0.3", "-0.3", "2", "-5", "50"))),
            "--samples", draw(st.sampled_from(("0", "2", "11"))),
            "--tol", draw(st.sampled_from(("1e-6", "1e-12", "1e-16", "0.1"))),
            "--format", draw(st.sampled_from(("csv", "json")))]


def test_geodesic_argument_vectors_end_in_a_documented_exit(fuzz_models):
    # near a face, with zero, tiny and huge covector entries, both metrics,
    # every horizon and format: a documented exit code, never a traceback,
    # and JSON without NaN or infinities
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(_geodesic_argv(fuzz_models))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0 and argv[-1] == "json":
            json.loads(out.getvalue(), parse_constant=_refuse_constant)

    check()


@st.composite
def _algebraic_argv(draw, models):
    command = draw(st.sampled_from(("analyze", "check-relations")))
    kind = draw(st.sampled_from(FUZZ_KINDS))
    path, lo, hi = models[kind]
    argv = [command, "--model", path]
    for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
        arity = draw(st.sampled_from((len(lo),) * 4 + (len(lo) - 1, len(lo) + 1)))
        bounds = (list(zip(lo, hi)) * 2)[:arity]
        q = [repr(draw(st.floats(a, b))) for a, b in bounds]
        j = draw(st.integers(0, arity - 1))
        a, b = bounds[j]
        where = draw(st.sampled_from(("inside",) * 2 + ("face", "literal")))
        if where == "face":
            # 1e-13 to 1e-3 inside or outside one face
            gap = draw(st.sampled_from((1, -1))) * 10.0 ** draw(st.floats(-13, -3))
            q[j] = repr(draw(st.sampled_from((a + gap, b - gap))))
        elif where == "literal":
            q[j] = draw(st.sampled_from(("-3.9e-05", "1e-300", "-1e-300", "0", "nan", "inf",
                                         "-inf")))
        argv += ["--at", *q]
    # positive reals from 1e-300 to 1e300 mostly, else 0 or past the limits
    positive = st.floats(-300, 300).map(lambda e: repr(10.0 ** e))
    real = st.one_of(positive, positive, positive, st.sampled_from(("0", "-1e-6", "nan", "inf")))
    if command == "analyze":
        flags = {"--radius": real, "--cluster-tol": real}
    else:
        flags = {"--points": st.sampled_from(("1", "2", "3", "0", "-1", "1.5")),
                 "--seed": st.sampled_from(("0", "5", "123", "-1", "x")),
                 "--tol": real, "--bracket-tol": real}
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv + ["--format", draw(st.sampled_from(("text", "json")))]


def test_algebraic_argument_vectors_end_in_a_documented_exit(fuzz_models):
    # --at inside the box, near a face or outside it, of the wrong arity or
    # repeated, with awkward coordinates, and every numeric option over
    # 1e-300 to 1e300, at 0 and past its limit: a documented exit code,
    # never a traceback, and JSON without NaN or infinities
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(_algebraic_argv(fuzz_models))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        expected = (0, 1, 3, 4) if argv[0] == "analyze" else (0, 1, 2, 3, 4)
        assert code in expected, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        # a verdict always comes with its report
        if argv[-1] == "json" and (code in (0, 2) or out.getvalue()):
            json.loads(out.getvalue(), parse_constant=_refuse_constant)

    check()


def test_geodesic_arity_checked(dini_model, capsys):
    assert main(["geodesic", "--model", dini_model, "--metric", "1",
                 "--q", "0", "--p", "1", "0", "--T", "0.1"]) == 1
    assert "components" in capsys.readouterr().err


def test_verify_pass_and_report(dini_model, tmp_path, capsys):
    rep = tmp_path / "report.json"
    code = main(["verify", "--model", dini_model, "--samples", "6",
                 "--out", str(rep)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    doc = json.loads(rep.read_text())
    assert doc["schema"] == "geoequiv-report/1"
    assert doc["verdict"] == "pass"
    assert doc["config"]["count"] == 6
    assert doc["config"]["seed"] == 7
    assert len(doc["samples"]) == 6


def test_verify_reports_are_byte_identical(dini_model, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--model", dini_model, "--samples", "5",
                 "--out", str(r1)]) == 0
    assert main(["verify", "--model", dini_model, "--samples", "5",
                 "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_fail_exit_2(conformal_model, capsys):
    assert main(["verify", "--model", conformal_model, "--samples", "6"]) == 2
    assert "verdict: fail" in capsys.readouterr().out


def test_verify_inconclusive_exit_3(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"beta1": 1.0, "beta2": 2.0}))
    assert main(["generate", "dini", "--params", str(params),
                 "--out", str(flat)]) == 0
    capsys.readouterr()
    assert main(["verify", "--model", str(flat), "--samples", "6",
                 "--T", "50"]) == 3
    assert "verdict: inconclusive" in capsys.readouterr().out


def test_check_relations_pass(dini_model, capsys):
    assert main(["check-relations", "--model", dini_model]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_check_relations_flags_conformal(conformal_model, capsys):
    assert main(["check-relations", "--model", conformal_model,
                 "--at", "0.2", "0.3", "0.0"]) == 2
    out = capsys.readouterr().out
    assert "verdict: fail" in out


def test_check_relations_multiple_points(dini_model, capsys):
    assert main(["check-relations", "--model", dini_model,
                 "--at", "0.1", "0.2", "--at", "-0.2", "0.1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 2
    assert payload["worst_residual"] < 1e-6


def test_check_relations_one_point_is_sampled(dini_model, capsys):
    # --points 1 checked the center whatever the seed
    sampled = {}
    for seed in (0, 5):
        assert main(["check-relations", "--model", dini_model, "--points", "1",
                     "--seed", str(seed), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == seed
        sampled[seed] = payload["config"]["points"]
        assert [rec["q"] for rec in payload["points"]] == sampled[seed]
    assert len(sampled[0]) == len(sampled[5]) == 1
    assert sampled[0] != sampled[5]
    assert [0.0, 0.0] not in sampled[0] + sampled[5]


def test_console_script_entry_point():
    # run the entry point pyproject.toml declares the way the installed
    # wrapper script does, so the check needs no install
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["geoequiv"]
    module, attr = spec.split(":")
    wrapper = "import sys\nfrom %s import %s\nsys.exit(%s())\n" % (
        module, attr, attr)
    src = os.path.dirname(os.path.dirname(geoequiv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == geoequiv.__version__


_FOOTPRINT = """
import contextlib, io, json, sys
from geoequiv.cli import main

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.spatial")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    # a JSON report is returned, for its clipping
    report = json.loads(out.getvalue()) if "json" in argv else None
    return [argv[0], code, [name for name in HEAVY if name in sys.modules], report]


print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""


def _footprint(*argvs):
    """[command, exit code, heavy scipy modules loaded so far, JSON report
    or None] of each argv, run in turn by one fresh interpreter."""
    src = os.path.dirname(os.path.dirname(geoequiv.__file__))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(argvs)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_algebraic_commands_leave_the_integrator_and_kd_tree_unloaded(tmp_path):
    # generate, analyze and check-relations use numpy and scipy.linalg alone;
    # so does verify: the DOP853 tableau is read without importing
    # scipy.integrate, and the deviation needs no k-d tree
    m = str(tmp_path / "qc.json")
    runs = _footprint(["generate", "quasi-contact", "--out", m], ["analyze", "--model", m],
                      ["check-relations", "--model", m],
                      ["verify", "--model", m, "--samples", "1"])
    assert [run[:3] for run in runs] == [["generate", 0, []], ["analyze", 0, []],
                                         ["check-relations", 0, []], ["verify", 0, []]]


def test_clipped_extremals_leave_the_optimizer_and_kd_tree_unloaded(tmp_path):
    # a run that meets the domain boundary finds its root with hamiltonian's
    # own Brent solver: scipy.optimize, which loads scipy.spatial, stays out
    # of verify and geodesic too
    params, m = tmp_path / "params.json", str(tmp_path / "lc.json")
    params.write_text(json.dumps(FIELD_PARAMS["levi-civita"]))
    runs = _footprint(
        ["generate", "levi-civita", "--params", str(params), "--out", m],
        ["verify", "--model", m, "--samples", "1", "--format", "json"],
        ["geodesic", "--model", m, "--metric", "1", "--q", "0", "0", "0",
         "--p", "1", "0", "0", "--T", "5", "--samples", "2", "--format", "json"])
    assert [run[:3] for run in runs] == [["generate", 0, []], ["verify", 0, []],
                                         ["geodesic", 0, []]]
    # both runs met the boundary, so the root finder ran
    counts = runs[1][3]["counts"]
    assert counts["truncated"] + counts["clipped"] > 0
    assert runs[2][3]["clipped"] is True


@pytest.mark.skipif(shutil.which("geoequiv") is None,
                    reason="needs the geoequiv script on PATH "
                           "(pip install -e . --no-build-isolation)")
def test_installed_console_script():
    proc = subprocess.run(["geoequiv", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == geoequiv.__version__
