import numpy as np
import pytest

from geoequiv import cli, constructors, geometry
from geoequiv import expr as ex
from geoequiv import hamiltonian as hamiltonian_module
from geoequiv import pair as pair_module
from geoequiv import verifier
from geoequiv.geometry import GeometryModel
from geoequiv.hamiltonian import hamiltonian
from geoequiv.pair import AdaptedFrame
from geoequiv.verifier import OrbitalMapError, orbital_map, verify_equivalence
from geoequiv.constructors import (build_dini, build_gendini_case1,
                                   build_quasi_contact)

from conftest import PAIR_KINDS, heisenberg, pair_fixture
from reference import check_orbital_identities, solve_ivp_integrate


# ------------------------------------------------------------- orbital map

def test_orbital_map_lands_on_unit_level():
    # the transported covector always sits on the gram2 half-level set
    cases = [
        (build_dini("1+x1/10", "2+x2/10"), (0.1, 0.2)),
        (build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0}),
         (0.05, -0.02, 0.01, 0.03)),
    ]
    rng = np.random.default_rng(13)
    for m, q in cases:
        fr = AdaptedFrame(m, center=np.array(q))
        for _ in range(5):
            p = rng.normal(size=m.n)
            res = orbital_map(m, fr, (np.array(q), p))
            assert hamiltonian(m, 2, res.lam2) == pytest.approx(0.5, abs=1e-10)
            assert res.a > 0


def test_orbital_map_scale_invariant_direction():
    # scaling p scales a but the transported covector is unchanged
    m = build_dini("1+x1/10", "2+x2/10")
    q = np.array([0.1, 0.2])
    fr = AdaptedFrame(m, center=q)
    p = np.array([0.4, -0.9])
    r1 = orbital_map(m, fr, (q, p))
    r2 = orbital_map(m, fr, (q, 3.0 * p))
    assert r2.a == pytest.approx(3.0 * r1.a, rel=1e-12)
    assert np.allclose(r2.lam2[1], r1.lam2[1], atol=1e-12)


def test_orbital_map_rejects_annihilating_covector():
    m = heisenberg()
    fr = AdaptedFrame(m, center=np.zeros(3))
    q = np.zeros(3)
    p = np.array([0.0, 0.0, 2.0])      # kills X1, X2 at the origin
    with pytest.raises(OrbitalMapError,
                       match=r"annihilates the distribution at \[0.0, 0.0, 0.0\]$"):
        orbital_map(m, fr, (q, p))


def test_orbital_map_abnormal_cone_raises():
    # covector along the characteristic direction: every Q_{j,m+1} vanishes
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    q = np.array([0.05, -0.02, 0.01, 0.03])
    fr = AdaptedFrame(m, center=q)
    data = fr.point_data(tuple(q))
    u = np.zeros(4)
    u[0] = 1.0                          # adapted field of the split eigenvalue
    p = np.linalg.solve(data.A.T, u)
    with pytest.raises(OrbitalMapError, match="abnormal"):
        orbital_map(m, fr, (q, p))


# lam2's covector, then a, of the corank-zero orbital map at two seeded
# covectors per fixture (seed 61), as float.hex; measured when the map still
# read them from AdaptedFrame.point_data
CORANK_ZERO_ORBITAL_HEX = {
    "beltrami": [["-0x1.ead019f003021p-2", "-0x1.16e37949d0b34p-1", "0x1.b1c102914d110p-1"],
                 ["-0x1.2020afa53b4bcp-1", "0x1.8d196eb296e76p-6", "0x1.046968b228caep+0"]],
    "dini": [["-0x1.6ba1c37c79ab9p-2", "-0x1.59350a3143511p+0", "0x1.953fc278a5364p+1"],
             ["-0x1.ccdd3cdfca154p-1", "0x1.5ac7641a3e393p-1", "0x1.fe1d757581e3fp+1"]],
    "gendini1": [["-0x1.aca06ad144e2ep-4", "-0x1.c63e8029fb21cp-4", "0x1.6648217512548p+3"],
                 ["-0x1.432d7ae00866ep-2", "0x1.9c7ece8667c39p-4", "0x1.d3ae284799785p+2"]],
    "gendini2": [["-0x1.00055479a18bep-3", "-0x1.c68cd086f2415p-3", "0x1.3fe76d4b18d89p+2"],
                 ["-0x1.217df6d16b2a3p-1", "0x1.93b7cab13ec3fp-3", "0x1.c0fbb657dd518p+1"]],
    "levi-civita": [["-0x1.dbc1b7c2a2f9dp-2", "0x1.de3c60af77c93p-2", "-0x1.54a48f58054f2p-1",
                     "0x1.490b357a3d5f4p+3"],
                    ["-0x1.e92b7b510320dp-3", "-0x1.235ecdf3cc42ep-3", "0x1.d970f1106a72bp-1",
                     "0x1.1ba2d57dde847p+4"]],
    "rotating-cluster": [["-0x1.111aca1eb6067p+0", "0x1.002178ffb6e7fp-1",
                          "-0x1.5589f2b318409p-1", "0x1.3137d0d1feb1dp+1"],
                         ["-0x1.1f7fc3f34486fp-1", "-0x1.14afb1054b3fcp-2",
                          "0x1.b6c68299521fep-1", "0x1.932f043c2d471p+1"]],
}


def test_corank_zero_orbital_map_reads_the_frame_alone_bit_for_bit():
    # without a transverse component the map needs A and the eigenvalues of
    # AdaptedFrame.at, not the structure functions of point_data
    seen = {}
    for kind in PAIR_KINDS:
        m = pair_fixture(kind)
        if m.n != m.m:
            continue
        rng = np.random.default_rng(61)
        seen[kind] = []
        for _ in range(2):
            q = m.sample_point(rng)
            p = rng.normal(size=m.n)
            fr = AdaptedFrame(m, center=q)
            res = orbital_map(m, fr, (q, p))
            seen[kind].append([v.hex() for v in res.lam2[1].tolist()] + [res.a.hex()])
            assert fr._memo == (None, None)
    assert seen == CORANK_ZERO_ORBITAL_HEX


# one-sample verify at the default seed: the verdict and the calls of each
# entry point, measured as the calls of the compiled flow and energy programs
# themselves (wrapped in the model's program cache)
ROUTED_CALLS = {
    "levi-civita": (None, "pass", 124, 62),
    "quasi-contact": ({"abnormal_cone": 0.1}, "pass", 184, 92),
    "conformal": (None, "fail", 184, 77),
}


@pytest.mark.parametrize("kind", sorted(ROUTED_CALLS))
def test_certify_evaluations_pass_through_the_module_bindings(kind, monkeypatch):
    # the benchmark's tracer counts the flow and aux-rate evaluations by
    # replacing every binding of these two functions in the geoequiv
    # modules; each evaluation of a certify op must call through one
    exclusions, verdict, rhs_calls, p_calls = ROUTED_CALLS[kind]
    counts = {}
    for fn in (hamiltonian_module.hamiltonian_rhs, pair_module.intrinsic_P):
        counts[fn.__name__] = 0

        def counted(*args, fn=fn):
            counts[fn.__name__] += 1
            return fn(*args)

        for mod in (ex, geometry, hamiltonian_module, pair_module, constructors, verifier,
                    cli):
            for name, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, name, counted)
    rep = verify_equivalence(pair_fixture(kind), {"count": 1}, exclusions)
    assert rep.verdict == verdict
    assert counts == {"hamiltonian_rhs": rhs_calls, "intrinsic_P": p_calls}


# -------------------------------------------------------- orbital identities

def test_identities_hold_on_equivalent_pairs():
    cases = [
        (build_dini("1+x1/10", "2+x2/10"), (0.1, 0.2), (0.7, -0.4)),
        (build_gendini_case1("1 - u", "1 + v"), (0.25, 0.4), (0.6, 0.3)),
        (build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0}),
         (0.05, -0.02, 0.01, 0.03), (0.5, -0.3, 0.8, 0.2)),
    ]
    for m, q, p in cases:
        fr = AdaptedFrame(m, center=np.array(q))
        rep = check_orbital_identities(m, fr, (np.array(q), np.array(p)))
        assert rep.max_residual < 1e-6, (m.meta.get("generator"), rep.res_first,
                                         rep.res_second)


def test_identities_split_conformal_contact():
    # conformal rescaling satisfies the pointwise family but breaks the
    # flow-transport one
    m = heisenberg("1 + x^2 + y^2")
    q = np.array([0.2, 0.3, 0.0])
    p = np.array([0.3, -0.8, 1.1])
    fr = AdaptedFrame(m, center=q)
    rep = check_orbital_identities(m, fr, (q, p))
    assert max(rep.res_first) < 1e-9
    assert rep.res_second[0] > 1e-3


# ---------------------------------------------------------------- verify

def test_verify_passes_proportional_pairs():
    for c in ("0.5", "2"):
        rep = verify_equivalence(heisenberg(c), sampling={"count": 8})
        assert rep.verdict == "pass", rep.as_dict()["counts"]
        assert rep.max_deviation < 1e-8


def test_verify_passes_dini():
    rep = verify_equivalence(build_dini("1+x1/10", "2+x2/10"),
                             sampling={"count": 8})
    assert rep.verdict == "pass"
    assert rep.max_deviation < 1e-6
    assert rep.counts["verified"] >= 4


def test_verify_passes_gendini1_at_fifty_samples():
    # the nearest-polyline distance read 1.15e-6 here, its chord error on
    # the bends of the curve; the time-matched deviation reads 1.5e-10
    rep = verify_equivalence(build_gendini_case1("1 - u", "1 + v"),
                             {"count": 50, "tol_curve": 1e-6})
    assert rep.verdict == "pass"
    assert rep.counts["verified"] == 35
    assert rep.max_deviation < 1e-9


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_deviation_matches_a_solve_ivp_oracle(kind, monkeypatch):
    # each verified sample's deviation is max_i |q2(s_i) - q1(t_i)|: the
    # oracle integrates both legs with scipy's solve_ivp and reads its dense
    # outputs, gram1 at the even times of [0, T_used] and gram2 at the
    # matched times s_i that gram1's aux column gives there
    m = pair_fixture(kind)
    runs = []

    def recorded(model, tag, lam0, T, **kwargs):
        if tag == 1:
            runs.append([])
        runs[-1].append((tag, lam0, T, kwargs))
        return integrate(model, tag, lam0, T, **kwargs)

    integrate = verifier.integrate
    monkeypatch.setattr(verifier, "integrate", recorded)
    exclusions = {"abnormal_cone": 0.1} if kind == "quasi-contact" else None
    rep = verify_equivalence(m, {"count": 10}, exclusions)
    assert len(runs) == 10
    checked = 0
    for sample, legs in zip(rep.samples, runs):
        if sample.deviation is None:
            continue
        (_tag, lam0, T, kwargs), (_tag2, lam2, _T2, _kw2) = legs
        g1 = solve_ivp_integrate(m, 1, lam0, T, aux_rate=kwargs["aux_rate"]).dense
        y1 = g1(np.linspace(0.0, sample.T_used, 601))
        s = y1[2 * m.n]
        g2 = solve_ivp_integrate(m, 2, lam2, s[-1])
        k = np.searchsorted(np.sign(s[-1]) * s, np.sign(s[-1]) * g2.t[-1], side="right")
        q2 = g2.dense(s[:k])[:m.n]
        oracle = np.max(np.linalg.norm(q2 - y1[:m.n, :k], axis=0))
        assert abs(sample.deviation - oracle) <= 1e-13, (sample.index, sample.deviation, oracle)
        checked += 1
    assert checked >= 5


def test_verify_fails_conformal_contact():
    rep = verify_equivalence(heisenberg("1 + x^2 + y^2"), sampling={"count": 8})
    assert rep.verdict == "fail"
    assert rep.max_deviation > 1e-6


def test_verify_quasi_contact_with_cone_exclusion():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    rep = verify_equivalence(m, sampling={"count": 8},
                             exclusions={"abnormal_cone": 0.1})
    assert rep.verdict == "pass", rep.as_dict()["counts"]
    assert rep.max_deviation < 1e-6
    assert rep.config["abnormal_cone"] == pytest.approx(0.1)


def test_verify_compiles_the_abnormal_direction_once_per_model(monkeypatch):
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    exclusions = {"abnormal_cone": 0.1}
    first = verify_equivalence(m, sampling={"count": 2}, exclusions=exclusions)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ex, "compile_exprs", counted(ex.compile_exprs))
    monkeypatch.setattr(verifier, "abnormal_direction",
                        counted(verifier.abnormal_direction))
    second = verify_equivalence(m, sampling={"count": 2}, exclusions=exclusions)
    assert calls == []
    assert second.as_dict() == first.as_dict()
    assert second.config["abnormal_cone"] == 0.1

    # a contact distribution has no abnormal direction: None is cached, and
    # the cone leaves the config
    h = heisenberg()
    for _ in range(2):
        rep = verify_equivalence(h, sampling={"count": 1}, exclusions=exclusions)
        assert "abnormal_cone" not in rep.config
        assert h._cache["abnormal"] is None
    assert calls.count("abnormal_direction") == 1


def test_verify_is_deterministic():
    m = build_dini("1+x1/10", "2+x2/10")
    a = verify_equivalence(m, sampling={"count": 5}).as_dict()
    b = verify_equivalence(m, sampling={"count": 5}).as_dict()
    assert a == b
    c = verify_equivalence(m, sampling={"count": 5, "seed": 8}).as_dict()
    assert c["samples"][0]["q0"] != a["samples"][0]["q0"]


def test_verify_truncates_on_tight_domain():
    # flat pair, straight unit-speed lines: a long horizon exits the box
    m = build_dini(1.0, 2.0)
    rep = verify_equivalence(m, sampling={"count": 8, "T": 0.5})
    assert rep.verdict == "pass"
    assert rep.counts["truncated"] >= 1
    # an enormous horizon leaves too little usable window on every sample
    rep = verify_equivalence(m, sampling={"count": 6, "T": 50.0})
    assert rep.verdict == "inconclusive"
    assert rep.counts["verified"] < 3


DEFAULT_CONFIG = {"T": 0.3, "count": 50, "curve_samples": 601, "integrator_tol": 1e-10,
                  "margin": 0.15, "seed": 7, "tol_curve": 1e-06, "transverse_sigma": 1.0}
NO_SAMPLES = {"requested": 0, "verified": 0, "truncated": 0, "clipped": 0,
              "frame_errors": 0, "degenerate": 0}


def _no_deviation_report(verdict, config, counts, samples):
    """The as_dict() of a report in which no sample verified."""
    return {"verdict": verdict, "config": dict(DEFAULT_CONFIG, **config),
            "counts": dict(NO_SAMPLES, **counts), "max_deviation": None,
            "max_energy_drift": None, "excluded_resamples": 0, "samples": samples}


def test_verify_frame_error_on_an_integrable_distribution():
    # D = span(d/dx, d/dy) is integrable: no bracket completes the adapted
    # frame, so every sample is a frame error and nothing verifies
    coords = ("x", "y", "z")
    P = lambda s: ex.parse(s, coords)
    eye = [[P("1" if i == j else "0") for j in range(3)] for i in range(3)]
    m = GeometryModel(coords, 2, eye, [[P("1"), P("0")], [P("0"), P("1")]],
                      [[P("2"), P("0")], [P("0"), P("3")]], [-1] * 3, [1] * 3)
    rep = verify_equivalence(m, sampling={"count": 3})
    points = [[0.17513365324653374, 0.5560993213574057, 0.3859599663432709],
              [-0.6926285736081953, 0.4497197857358728, 0.4158972002528647],
              [-0.3431825772842255, -0.07689317176429478, 0.006367562541134575]]
    assert rep.verdict == "inconclusive"
    assert list(rep.counts) == list(NO_SAMPLES)
    assert rep.counts == dict(NO_SAMPLES, requested=3, frame_errors=3)
    assert rep.as_dict() == _no_deviation_report(
        "inconclusive", {"count": 3}, {"requested": 3, "frame_errors": 3},
        [{"index": i, "status": "frame-error", "q0": q,
          "note": "no distribution bracket leaves D near %s; completion undefined" % (q,)}
         for i, q in enumerate(points)])


def test_verify_degenerate_when_the_matched_flow_time_vanishes():
    # over a horizon of 1e-13 the matched gram2 time stays below 1e-12
    for T in (1e-13, -1e-13):
        rep = verify_equivalence(build_dini(1.0, 2.0), sampling={"count": 2, "T": T})
        assert rep.verdict == "inconclusive"
        assert rep.counts == dict(NO_SAMPLES, requested=2, degenerate=2)
        assert rep.as_dict() == _no_deviation_report(
            "inconclusive", {"count": 2, "T": T}, {"requested": 2, "degenerate": 2},
            [{"index": i, "status": "degenerate", "q0": q,
              "note": "matched flow time vanished"}
             for i, q in enumerate([[0.08756682662326687, 0.27804966067870285],
                                    [-0.1398836005621422, 0.2614874117773833]])])


def _dict_matches_outcomes(doc):
    """max_deviation and max_energy_drift are the largest deviation and
    drift of the samples that carry one."""
    measured = [s for s in doc["samples"] if "deviation" in s]
    assert doc["max_deviation"] == max(s["deviation"] for s in measured)
    assert doc["max_energy_drift"] == max(max(s["drift1"], s["drift2"]) for s in measured)


def test_verify_notes_a_clipped_gram2_leg():
    # rotating-cluster is not an equivalent pair: sample 5's gram2 extremal
    # leaves the box at t = 0.632 of its matched time 0.771
    rep = verify_equivalence(pair_fixture("rotating-cluster"),
                             sampling={"count": 6, "T": 0.6})
    assert rep.verdict == "fail"
    assert rep.counts == dict(NO_SAMPLES, requested=6, verified=5, truncated=2, clipped=1)
    doc = rep.as_dict()
    sample = doc["samples"][5]
    assert set(sample) == {"index", "status", "q0", "deviation", "endpoint_gap",
                           "T_used", "T2", "drift1", "drift2", "note"}
    assert sample["status"] == "verified"
    assert sample["note"] == "gram2 leg clipped at 0.632"
    assert sample["T_used"] == 0.6
    assert sample["T2"] > 0.632
    assert doc["max_deviation"] == sample["deviation"] > 1e-6
    _dict_matches_outcomes(doc)


def test_verify_degenerate_when_the_gram2_leg_reaches_one_sample_time():
    # with two curve samples, t = 0 and T2, the clipped gram2 leg of sample
    # 5 reaches only t = 0
    rep = verify_equivalence(pair_fixture("rotating-cluster"),
                             sampling={"count": 6, "T": 0.6, "curve_samples": 2})
    assert rep.verdict == "fail"
    assert rep.counts == dict(NO_SAMPLES, requested=6, verified=4, truncated=2, clipped=1,
                              degenerate=1)
    doc = rep.as_dict()
    assert doc["samples"][5] == {
        "index": 5, "status": "degenerate",
        "q0": [-0.0021885952245470075, -0.1767395545808684, -0.3417441821202459],
        "note": "gram2 extremal left the domain at once"}
    _dict_matches_outcomes(doc)


def test_verify_rejects_unknown_config():
    m = build_dini(1.0, 2.0)
    with pytest.raises(ValueError, match="sampling"):
        verify_equivalence(m, sampling={"bogus": 1})
    with pytest.raises(ValueError, match="exclusion"):
        verify_equivalence(m, exclusions={"bogus": 1})


def test_report_dict_shape():
    m = build_dini("1+x1/10", "2+x2/10")
    rep = verify_equivalence(m, sampling={"count": 4})
    doc = rep.as_dict()
    assert set(doc) == {"verdict", "config", "counts", "max_deviation",
                        "max_energy_drift", "excluded_resamples", "samples"}
    assert doc["counts"]["requested"] == 4
    assert len(doc["samples"]) == 4
    assert doc["config"]["T"] == pytest.approx(0.3)
    for s in doc["samples"]:
        assert s["status"] in {"verified", "truncated", "clipped",
                               "frame-error", "degenerate"}
