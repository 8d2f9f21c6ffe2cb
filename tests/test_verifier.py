import numpy as np
import pytest
import scipy.spatial

from geoequiv import expr as ex
from geoequiv import verifier
from geoequiv.geometry import GeometryModel
from geoequiv.hamiltonian import hamiltonian
from geoequiv.pair import AdaptedFrame
from geoequiv.verifier import (OrbitalMapError, orbital_map,
                               check_orbital_identities, verify_equivalence,
                               _polyline_distances)
from geoequiv.constructors import (build_dini, build_gendini_case1,
                                   build_quasi_contact)

from conftest import heisenberg, pair_fixture
from reference import loop_polyline_distances


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
    monkeypatch.setattr(verifier, "classify_distribution",
                        counted(verifier.classify_distribution))
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
    assert calls.count("classify_distribution") == 1


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


# ------------------------------------------------------- curve distance

def _same_as_loop(points, poly):
    got = _polyline_distances(points, poly)
    assert np.array_equal(got, loop_polyline_distances(points, poly))
    return got


def test_polyline_distance_random_curves():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        for scale in (1e-3, 1e-2, 0.3):
            poly = np.cumsum(rng.normal(scale=scale, size=(300, dim)), axis=0)
            # a nearby curve with another parametrization, and scattered points
            near = poly[::2] + rng.normal(scale=1e-4, size=(150, dim))
            far = rng.uniform(poly.min() - 1, poly.max() + 1, size=(200, dim))
            _same_as_loop(near, poly)
            _same_as_loop(far, poly)


def test_polyline_distance_figure_eight():
    # the curve passes close to itself at the crossing
    s = np.linspace(0.0, 2 * np.pi, 601)
    poly = np.stack([np.sin(s), np.sin(s) * np.cos(s)], axis=1)
    u = np.linspace(0.0, 2 * np.pi, 997)
    points = 1.01 * np.stack([np.sin(u), np.sin(u) * np.cos(u)], axis=1)
    got = _same_as_loop(points, poly)
    assert got.max() < 0.02
    _same_as_loop(np.array([[0.0, 0.0], [1e-9, -1e-9], [0.0, 0.3]]), poly)


def test_polyline_distance_zero_length_segments():
    rng = np.random.default_rng(32)
    base = np.cumsum(rng.normal(scale=0.05, size=(40, 3)), axis=0)
    poly = np.repeat(base, 3, axis=0)          # two zero-length segments per vertex
    points = base + rng.normal(scale=0.02, size=base.shape)
    _same_as_loop(points, poly)
    _same_as_loop(points, np.repeat(base[:1], 5, axis=0))   # a single point


def test_polyline_distance_two_vertices_and_points_on_vertices():
    poly = np.array([[0.0, 0.0], [1.0, 0.5]])
    points = np.array([[0.5, 0.25], [-1.0, 0.0], [2.0, 2.0], [0.3, -0.4]])
    _same_as_loop(points, poly)
    rng = np.random.default_rng(33)
    curve = np.cumsum(rng.normal(scale=0.01, size=(601, 2)), axis=0)
    assert np.array_equal(_same_as_loop(curve, curve), np.zeros(601))
    _same_as_loop(curve[::7], curve)


def test_polyline_distance_k_doubles_while_the_radius_holds_more(monkeypatch):
    # one long segment widens every radius by half its length, so points see
    # more than 4 and more than 8 vertices within it: k goes 4, 8, 16, ...
    ks = []

    class Recording(scipy.spatial.cKDTree):
        def query(self, x, k=1, **kwargs):
            ks.append(k)
            return super().query(x, k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", Recording)
    s = np.linspace(0.0, 1.0, 40)
    dense = np.stack([s, 0.1 * np.sin(6 * s)], axis=1)
    poly = np.concatenate([dense, [[1.0, 0.6]], [[1.0, 0.61]]])
    rng = np.random.default_rng(34)
    points = dense[::3] + rng.normal(scale=1e-3, size=dense[::3].shape)
    _same_as_loop(points, poly)
    assert ks[:3] == [4, 8, 16] and len(ks) >= 3
    # k is capped by the vertex count: 2 and 3 vertices
    for poly in (np.array([[0.0, 0.0], [1.0, 0.5]]),
                 np.array([[0.0, 0.0], [1.0, 0.5], [1.0, -2.0]])):
        ks.clear()
        _same_as_loop(rng.normal(size=(25, 2)), poly)
        assert ks == [len(poly)]


def test_polyline_distance_long_segment_far_from_nearest_vertex():
    # the closest segment of (0, 0.1) has both endpoints 1.005 away, while
    # the nearest vertex is (0, 0.3), on a segment 0.2 away
    poly = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 0.3], [0.0, 0.3]])
    got = _same_as_loop(np.array([[0.0, 0.1], [0.5, 0.12]]), poly)
    assert np.allclose(got, [0.1, 0.12], rtol=0, atol=1e-15)
