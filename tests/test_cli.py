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

import geoequiv
from geoequiv.cli import _canonical_json, main
from geoequiv.constructors import GENERATORS
from geoequiv.geometry import save_model

from conftest import FIELD_PARAMS, heisenberg, plane_pair


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


def test_generate_hypothesis_violation(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"U": "2 - u", "V": "1 + v"}))
    assert main(["generate", "gendini1", "--params", str(params),
                 "--out", str(tmp_path / "x")]) == 1
    assert "U(0) = V(0)" in capsys.readouterr().err


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
])
def test_arguments_that_void_a_verdict_exit_1(conformal_model, capsys, argv):
    # a usage error naming the flag, before the model is read
    assert main([argv[0], "--model", conformal_model] + list(argv[1:])) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error")]
    assert errors == ["error: argument %s: must be %s, got %s" % (
        argv[1], "at least 2" if argv[1] == "--curve-samples" else
        "at least 1" if argv[1] == "--samples" else "finite and positive", argv[2])]


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


@pytest.mark.skipif(shutil.which("geoequiv") is None,
                    reason="needs the geoequiv script on PATH "
                           "(pip install -e . --no-build-isolation)")
def test_installed_console_script():
    proc = subprocess.run(["geoequiv", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == geoequiv.__version__
