"""End-to-end acceptance battery.

Each test covers one numbered claim about the library and prints a single
[criterion N] PASS/FAIL line (run with -s to see them on success; pytest
shows captured output for failures). Expensive verification reports are
cached and shared between criteria.
"""

import json
import time

import numpy as np
import pytest

from geoequiv import expr as ex
from geoequiv.geometry import lie_bracket, save_model
from geoequiv.hamiltonian import integrate
from geoequiv.pair import (AdaptedFrame, transition_operator, regularity_probe,
                           first_divisibility, second_divisibility, fiber_R,
                           relations_cor)
from geoequiv.constructors import (build_dini, build_levi_civita,
                                   build_gendini_case1, build_gendini_case2,
                                   build_quasi_contact, build_beltrami)
from geoequiv.verifier import verify_equivalence
from geoequiv.cli import main as cli_main

from conftest import heisenberg, plane_pair, case2_origin_chart, value
from reference import recover_beta

_MODELS = {}
_REPORTS = {}
VERDICT_LINES = []


def _model(key):
    if key not in _MODELS:
        _MODELS[key] = {
            "lc2": lambda: build_levi_civita(
                {"blocks": [{"size": 1, "beta": "1 + x1/10"},
                            {"size": 1, "beta": "2 + x2/10"}]}),
            "lc3": lambda: build_levi_civita(
                {"blocks": [{"size": 2, "beta": 1.5},
                            {"size": 1, "beta": "2 + x3/10"}]}),
            "dini-flat": lambda: build_dini(1.0, 2.0),
            "dini": lambda: build_dini("1+x1/10", "2+x2/10"),
            "gendini1": lambda: build_gendini_case1("1 - u", "1 + v"),
            "gendini2": lambda: build_gendini_case2("1 + r^2"),
            "quasi-contact": lambda: build_quasi_contact(
                {"beta": "exp(t)", "C1": 1.0, "C2": 1.0}),
            "beltrami": lambda: build_beltrami(),
            "prop-half": lambda: heisenberg("0.5"),
            "prop-two": lambda: heisenberg("2"),
            "conformal": lambda: heisenberg("1 + x^2 + y^2"),
        }[key]()
    return _MODELS[key]


def _verify(key, model_key, sampling=None, exclusions=None):
    """Run (once) a seeded 50-sample verification; returns (report, seconds)."""
    if key not in _REPORTS:
        cfg = {"count": 50, "tol_curve": 1e-6}
        cfg.update(sampling or {})
        t0 = time.monotonic()
        rep = verify_equivalence(_model(model_key), cfg, exclusions=exclusions)
        _REPORTS[key] = (rep, time.monotonic() - t0)
    return _REPORTS[key]


def _verdict(num, ok, detail):
    line = "[criterion %d] %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# 1. block-product pairs verify end to end

def test_criterion_1_block_product_soundness():
    rep2, dt2 = _verify("lc2", "lc2")
    rep3, dt3 = _verify("lc3", "lc3")
    ok = (rep2.verdict == "pass" and rep3.verdict == "pass"
          and dt2 < 60 and dt3 < 60)
    _verdict(1, ok, "n=2 %s (dev %.2e, %.1fs), n=3 %s (dev %.2e, %.1fs)"
             % (rep2.verdict, rep2.max_deviation, dt2,
                rep3.verdict, rep3.max_deviation, dt3))


# --------------------------------------------------------------------------
# 2. separable surface pairs: flat straight lines + curved verification

def _straightness(model, tag, rng, runs=10, T=0.1):
    worst = 0.0
    for _ in range(runs):
        q0 = 0.2 * rng.uniform(-1, 1, size=2)
        p0 = rng.normal(size=2)
        traj = integrate(model, tag, (q0, p0), T, tol=1e-12, samples=41)
        d = traj.q - traj.q[0]
        v = d[-1]
        v = v / np.linalg.norm(v)
        perp = d - np.outer(d @ v, v)
        worst = max(worst, float(np.max(np.abs(perp))))
    return worst


def test_criterion_2_separable_surface_pairs():
    flat = _model("dini-flat")
    rng = np.random.default_rng(4)
    dev1 = _straightness(flat, 1, rng)
    dev2 = _straightness(flat, 2, rng)
    rep, _ = _verify("dini", "dini")
    ok = dev1 < 1e-8 and dev2 < 1e-8 and rep.verdict == "pass"
    _verdict(2, ok, "straightness %.2e / %.2e, curved pair %s (dev %.2e)"
             % (dev1, dev2, rep.verdict, rep.max_deviation))


# --------------------------------------------------------------------------
# 3. R_j vanishes exactly on block-product pairs, not on a conformal one

def test_criterion_3_obstruction_polynomial():
    worst = 0.0
    rng = np.random.default_rng(31)
    for key in ("lc2", "lc3", "dini"):
        m = _model(key)
        for _ in range(100):
            q = tuple(m.sample_point(rng))
            fr = AdaptedFrame(m, center=np.array(q))
            for j in range(1, m.m + 1):
                worst = max(worst, np.max(np.abs(fiber_R(fr.point_data(q), j))))
    conf = plane_pair(g2xx="1+x^2", g2yy="1+x^2")
    biggest = 0.0
    for q in conf.probe_grid():
        fr = AdaptedFrame(conf, center=np.array(q))
        for j in (1, 2):
            biggest = max(biggest, np.max(np.abs(fiber_R(fr.point_data(q), j))))
    ok = worst < 1e-9 and biggest > 1e-3
    _verdict(3, ok, "max |R| on products %.2e (< 1e-9), conformal max %.2e (> 1e-3)"
             % (worst, biggest))


# --------------------------------------------------------------------------
# 4. first divisibility holds on every construction, fails on the plane pair

def test_criterion_4_first_divisibility():
    worst = 0.0
    rng = np.random.default_rng(41)
    for key in ("lc3", "dini", "gendini1", "gendini2", "quasi-contact",
                "beltrami"):
        m = _model(key)
        for _ in range(100):
            q = tuple(m.sample_point(rng))
            fr = AdaptedFrame(m, center=np.array(q))
            res = first_divisibility(m, fr, q)
            worst = max(worst, res.residual)
            assert res.holds, (key, q, res.residual)
    counter = plane_pair()
    fr = AdaptedFrame(counter, center=np.array([1.0, 0.0]))
    res = first_divisibility(counter, fr, (1.0, 0.0))
    # hand value: the cubic has a single monomial off the ideal, residual 5^-1/2
    ok = (worst < 1e-8 and not res.holds and res.residual > 0.1
          and abs(res.residual - 1 / np.sqrt(5)) < 1e-9)
    _verdict(4, ok, "constructions worst %.2e (< 1e-8), counterexample %.6f (= 0.447)"
             % (worst, res.residual))


# --------------------------------------------------------------------------
# 5. contact rigidity: proportional passes, conformal fails everything the
#    theory says it fails. On a rank-2 contact distribution the bare second
#    divisibility holds for every pair (see the second_divisibility
#    docstring); the pointwise screen that rejects the conformal pair is
#    relations_cor's transverse-constancy, away from critical points of f.

def _frame_derivatives(model, f, q):
    """(X_1 f, ..., X_m f) at q, straight from the frame and the expression."""
    fx = ex.parse(f, model.coords)
    grad = np.array([value(ex.differentiate(fx, k), q)
                     for k in range(model.n)])
    return np.array([sum(value(c, q) * g for c, g in zip(row, grad))
                     for row in model.frame[:model.m]])


def test_criterion_5_contact_rigidity(tmp_path):
    rep_half, _ = _verify("prop-half", "prop-half")
    rep_two, _ = _verify("prop-two", "prop-two")
    prop_ok = rep_half.verdict == "pass" and rep_two.verdict == "pass"

    path = tmp_path / "conformal.json"
    save_model(_model("conformal"), str(path))
    exit_code = cli_main(["verify", "--model", str(path), "--samples", "50"])
    exit_ok = exit_code == 2

    prop_tc = 0.0
    for key in ("prop-half", "prop-two"):
        m = _model(key)
        for q in m.probe_grid():
            fr = AdaptedFrame(m, center=q)
            cor = relations_cor(m, fr, tuple(q))
            prop_tc = max(prop_tc, cor.checks["transverse-constancy"])
    prop_tc_ok = prop_tc <= 1e-9

    m = _model("conformal")
    off_axis = caught = 0
    axis_tc = sd_worst = 0.0
    for q in m.probe_grid():
        fr = AdaptedFrame(m, center=q)
        q = tuple(q)
        tc = relations_cor(m, fr, q).checks["transverse-constancy"]
        if np.any(_frame_derivatives(m, "1 + x^2 + y^2", q) != 0.0):
            off_axis += 1
            caught += tc > 1e-6
        else:
            axis_tc = max(axis_tc, tc)
        sd_worst = max(sd_worst, second_divisibility(m, fr, q).residual)
    conf_ok = off_axis > 0 and caught == off_axis and axis_tc <= 1e-6
    sd_ok = sd_worst <= 1e-8

    ok = prop_ok and exit_ok and prop_tc_ok and conf_ok and sd_ok
    _verdict(5, ok, "proportional %s/%s (transverse-constancy %.1e), conformal "
             "exit %d, transverse-constancy fails at %d/%d off-axis points "
             "(on-axis %.1e), second-divisibility residual %.1e (an identity "
             "on rank-2 contact)"
             % (rep_half.verdict, rep_two.verdict, prop_tc, exit_code, caught,
                off_axis, axis_tc, sd_worst))


# --------------------------------------------------------------------------
# 6. quasi-contact normal form: structural conditions + verification

def _bracket_at(frame_rows, i, j, n, q):
    br = lie_bracket(frame_rows[i], frame_rows[j], n)
    return np.array([value(c, q) for c in br])


def test_criterion_6_quasi_contact():
    m = _model("quasi-contact")
    rows = m.frame
    rng = np.random.default_rng(6)
    grid = [tuple(m.sample_point(rng)) for _ in range(12)]

    # condition 1: the characteristic direction X3 is gram-orthogonal to
    # D1 = span(X1, X2) for both metrics, and D1 + [D1, D1] closes up into
    # an integrable corank-one bundle (no d/dw component anywhere)
    res1 = 0.0
    for q in grid:
        for tag in (1, 2):
            W = m.gram_at(q, tag)
            res1 = max(res1, abs(W[0, 2]), abs(W[1, 2]))
    span = [rows[0], rows[1], lie_bracket(rows[0], rows[1], 4)]
    for q in grid:
        for a in range(3):
            for b in range(a + 1, 3):
                br = lie_bracket(span[a], span[b], 4)
                res1 = max(res1, abs(value(br[3], q)))

    # condition 2: the flow of X3 maps leaves to leaves
    res2 = 0.0
    for q in grid:
        for Y in span:
            br = lie_bracket(rows[2], Y, 4)
            res2 = max(res2, abs(value(br[3], q)))

    # condition 3: leafwise gram scaling in the flow parameter w
    res3 = 0.0
    for q in grid:
        b = np.exp(q[3])
        f = 1.0 / (1.0 + b)
        q0 = (q[0], q[1], q[2], 0.0)
        W1, W10 = m.gram_at(q, 1), m.gram_at(q0, 1)
        W2 = m.gram_at(q, 2)
        res3 = max(res3, float(np.max(np.abs(W1[:2, :2] - b * W10[:2, :2]))))
        res3 = max(res3, float(np.max(np.abs(W2[:2, :2] - f * W1[:2, :2]))))
        res3 = max(res3, abs(W2[2, 2] - f * f))

    rep, dt = _verify("quasi-contact", "quasi-contact",
                      exclusions={"abnormal_cone": 0.1})
    ok = (max(res1, res2) < 1e-10 and res3 < 1e-10
          and rep.verdict == "pass" and dt < 120)
    _verdict(6, ok, "structural residuals %.1e / %.1e / %.1e, verify %s "
             "(dev %.2e, %.1fs)" % (res1, res2, res3, rep.verdict,
                                    rep.max_deviation, dt))


# --------------------------------------------------------------------------
# 7. generalized separable families on the annulus + the origin battery

def test_criterion_7_generalized_families():
    # short horizon: unit-energy extremals cross the thin annulus quickly
    rep1, _ = _verify("gendini1", "gendini1", sampling={"T": 0.1})
    rep2, _ = _verify("gendini2", "gendini2", sampling={"T": 0.1})

    m2 = _model("gendini2")
    rng = np.random.default_rng(7)
    eig_err = 0.0
    for _ in range(25):
        q = tuple(m2.sample_point(rng))
        R = 1 + q[0] ** 2
        lams = transition_operator(m2, q).eigenvalues
        eig_err = max(eig_err, float(np.max(np.abs(lams - [R, R * R])))
                      / (R * R))

    cart = case2_origin_chart()
    battery = [((0.0, 0.0), 0.08, False), ((0.05, 0.04), 0.1, False),
               ((0.12, 0.0), 0.13, False), ((0.2, 0.2), 0.1, True),
               ((-0.25, 0.1), 0.15, True)]
    battery_ok = True
    for center, radius, expect in battery:
        rep = regularity_probe(cart, center, radius=radius)
        battery_ok = battery_ok and (rep.regular == expect)

    ok = (rep1.verdict == "pass" and rep2.verdict == "pass"
          and eig_err < 1e-8 and battery_ok)
    _verdict(7, ok, "case-1 %s (dev %.2e), case-2 %s (dev %.2e), eig err %.1e, "
             "origin battery %s" % (rep1.verdict, rep1.max_deviation,
                                    rep2.verdict, rep2.max_deviation,
                                    eig_err, "ok" if battery_ok else "WRONG"))


# --------------------------------------------------------------------------
# 8. block functions recovered from the spectrum alone

def test_criterion_8_beta_recovery():
    worst = 0.0
    rng = np.random.default_rng(8)
    for key, betas_at in (("lc2", lambda q: [1 + q[0] / 10, 2 + q[1] / 10]),
                          ("lc3", lambda q: [1.5, 2 + q[2] / 10])):
        m = _model(key)
        for _ in range(50):
            q = tuple(m.sample_point(rng))
            td = transition_operator(m, q)
            distinct = [td.eigenvalues[idx[0]] for idx in td.clusters]
            got = recover_beta(distinct)
            expect = np.array(betas_at(q))
            worst = max(worst, float(np.max(np.abs(got - expect) / expect)))
    ok = worst < 1e-6
    _verdict(8, ok, "worst relative beta error %.2e (< 1e-6) at 50 points "
             "per fixture" % worst)


# --------------------------------------------------------------------------
# 9. numerical hygiene: energy drift, derivative cross-check, tol stability

_EXPR_SUITE = [
    "x^2*y - 3*x/(1 + y^2)",
    "sin(x)*cos(y) + exp(x*y/4)",
    "sqrt(1 + x^2 + y^2)",
    "1/(2 + sin(x - y))",
    "x^4 - 2*x^2*y^2 + y^4/(1 + x^2)",
    "exp(-x^2)*sin(3*y)",
    "(x + y)^3/(4 + cos(x))",
]


def _derivative_errors(rng):
    worst = 0.0
    coords = ("x", "y")
    h = 1e-6
    for s in _EXPR_SUITE:
        e = ex.parse(s, coords)
        for k in (0, 1):
            de = ex.differentiate(e, k)
            for _ in range(20):
                q = rng.uniform(-1.2, 1.2, size=2)
                step = np.zeros(2)
                step[k] = h
                fd = (value(e, tuple(q + step))
                      - value(e, tuple(q - step))) / (2 * h)
                sym = value(de, tuple(q))
                worst = max(worst, abs(sym - fd) / max(1.0, abs(sym)))
    return worst


def test_criterion_9_numerical_hygiene():
    # 10 * tol * T energy budget on every accepted trajectory of the
    # verification reports gathered above
    drift_ok = True
    worst_drift = 0.0
    for key in ("lc2", "lc3", "dini", "prop-half", "prop-two",
                "quasi-contact", "gendini1", "gendini2"):
        rep = _REPORTS.get(key, (None,))[0]
        if rep is None:
            rep, _ = _verify(key, key)
        itol = rep.config["integrator_tol"]
        T = abs(rep.config["T"])
        budget = 10 * itol * max(T, 1e-3)
        for s in rep.samples:
            if s.status in ("verified", "truncated"):
                d = max(s.drift1 or 0.0, s.drift2 or 0.0)
                worst_drift = max(worst_drift, d)
                drift_ok = drift_ok and d <= budget

    rng = np.random.default_rng(9)
    deriv_err = _derivative_errors(rng)

    half = {"integrator_tol": 0.5e-10}
    rep_pass, _ = _verify("dini", "dini")
    rep_pass_half, _ = _verify("dini-half", "dini", sampling=half)
    rep_fail = verify_equivalence(_model("conformal"),
                                  {"count": 12, "tol_curve": 1e-6})
    rep_fail_half = verify_equivalence(
        _model("conformal"), {"count": 12, "tol_curve": 1e-6,
                              "integrator_tol": 0.5e-10})
    stable = (rep_pass.verdict == rep_pass_half.verdict == "pass"
              and rep_fail.verdict == rep_fail_half.verdict == "fail")

    ok = drift_ok and deriv_err < 1e-6 and stable
    _verdict(9, ok, "worst drift %.1e (within 10*tol*T %s), derivative err %.1e,"
             " verdicts stable under tol halving: %s"
             % (worst_drift, "yes" if drift_ok else "NO", deriv_err,
                "yes" if stable else "NO"))
