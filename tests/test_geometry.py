import json
import math

import numpy as np
import pytest

from geoequiv import expr as ex
from geoequiv.geometry import (GeometryModel, ManifestError, ModelValidationError,
                               from_manifest, to_manifest, load_model, save_model,
                               validate_model, lie_bracket, StructureFunctions,
                               annihilator, classify_distribution)
from geoequiv.constructors import build_quasi_contact

from conftest import heisenberg, plane_pair


def test_frame_at_is_columnwise():
    m = heisenberg()
    E = m.frame_at((0.3, -0.4, 0.1))
    assert np.allclose(E[:, 0], [1, 0, 0.2])     # X1 = dx - y/2 dz
    assert np.allclose(E[:, 1], [0, 1, 0.15])    # X2 = dy + x/2 dz
    assert np.allclose(E[:, 2], [0, 0, 1])


def test_manifest_round_trip():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    man = to_manifest(m)
    back = from_manifest(man)
    q = (0.05, -0.1, 0.02, 0.1)
    assert np.allclose(m.frame_at(q), back.frame_at(q))
    assert np.allclose(m.gram_at(q, 1), back.gram_at(q, 1))
    assert np.allclose(m.gram_at(q, 2), back.gram_at(q, 2))
    assert back.meta["generator"] == "quasi-contact"
    # manifest is plain JSON-serializable data
    json.dumps(man)


def test_manifest_file_round_trip(tmp_path):
    m = heisenberg()
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    q = (0.1, 0.2, 0.0)
    assert np.allclose(m.gram_at(q, 2), back.gram_at(q, 2))


def test_manifest_errors_carry_field_paths():
    m = heisenberg()
    man = to_manifest(m)

    bad = json.loads(json.dumps(man))
    del bad["rank"]
    with pytest.raises(ManifestError, match="rank"):
        from_manifest(bad)

    bad = json.loads(json.dumps(man))
    bad["frame"][1][2] = "x +* y"
    with pytest.raises(ManifestError, match=r"frame\[1\]\[2\]"):
        from_manifest(bad)

    bad = json.loads(json.dumps(man))
    bad["gram1"][0] = ["1"]
    with pytest.raises(ManifestError, match="gram1"):
        from_manifest(bad)

    bad = json.loads(json.dumps(man))
    bad["coords"] = ["x", "x", "z"]
    with pytest.raises(ManifestError, match="coords"):
        from_manifest(bad)

    bad = json.loads(json.dumps(man))
    bad["domain"]["min"][0] = 5.0
    with pytest.raises(ManifestError, match="domain"):
        from_manifest(bad)

    bad = json.loads(json.dumps(man))
    bad["extra_key"] = 1
    with pytest.raises(ManifestError, match="extra_key"):
        from_manifest(bad)


def test_validate_model_rejects_degenerate_frame():
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    # frame columns become dependent at x = 0 which sits on the probe grid
    frame = ((P("1"), P("0")), (P("x"), P("0")))
    m = GeometryModel(coords, 2, frame, eye, eye, [-1, -1], [1, 1])
    with pytest.raises(ModelValidationError, match="frame"):
        validate_model(m)


def test_validate_model_rejects_non_spd_gram():
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    bad = ((P("1"), P("2")), (P("2"), P("1")))    # eigenvalues 3, -1
    m = GeometryModel(coords, 2, eye, eye, bad, [-1, -1], [1, 1])
    with pytest.raises(ModelValidationError, match="gram2"):
        validate_model(m)


@pytest.mark.parametrize("g2xy, g2yx, symmetric", [
    ("1/2", "1/2 + 1e-6", False),
    ("1/2", "1/2 + 1e-11", True),   # within rtol 1e-9 of the entry
])
def test_validate_model_symmetry_gate_matches_allclose(g2xy, g2yx, symmetric):
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    g2 = ((P("2"), P(g2xy)), (P(g2yx), P("2")))
    m = GeometryModel(coords, 2, eye, eye, g2, [-1, -1], [1, 1])
    W = m.gram_at((0.0, 0.0), 2)
    assert np.allclose(W, W.T, rtol=1e-9, atol=1e-12 * max(1.0, np.max(np.abs(W)))) == symmetric
    if symmetric:
        validate_model(m)
    else:
        with pytest.raises(ModelValidationError, match=r"gram2 not symmetric at \[-0\.9, -0\.9\]"):
            validate_model(m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_validate_model_rejects_cancelled_pole_on_the_grid():
    # x = 0 is a probe point; as numpy scalars 1/inf would cancel the pole
    m = plane_pair(g2xx="2 + 1/(1/x)", extent=(1.0, 1.0))
    with pytest.raises(ModelValidationError,
                       match=r"gram2 undefined at \[0\.0, -0\.9\]: float division by zero"):
        validate_model(m)


def test_lie_bracket_heisenberg():
    m = heisenberg()
    X1 = [m.frame[0][j] for j in range(3)]
    X2 = [m.frame[1][j] for j in range(3)]
    br = lie_bracket(X1, X2, 3)
    vals = [ex.evaluate(c, (0.7, -0.2, 0.1)) for c in br]
    assert np.allclose(vals, [0, 0, 1])           # [X1, X2] = dz


def test_structure_functions_heisenberg():
    m = heisenberg()
    sf = StructureFunctions(m)
    for q in [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1)]:
        c = sf.at(q)
        # natural indexing: c[a, b, k] = coefficient of X_{k+1} in [X_{a+1}, X_{b+1}]
        assert c[0, 1, 2] == pytest.approx(1.0, abs=1e-12)
        assert c[1, 0, 2] == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(c + c.transpose(1, 0, 2), 0.0, atol=1e-12)
        assert np.max(np.abs(c[0, 1, :2])) < 1e-12


def test_structure_functions_match_brackets():
    # c solves E c = [X_a, X_b] exactly, any frame
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 2.0})
    sf = StructureFunctions(m)
    q = (0.1, -0.05, 0.02, 0.2)
    c = sf.at(q)
    E = m.frame_at(q)
    for (a, b), br_exprs in sf.bracket_exprs.items():
        br = np.array([ex.evaluate(e, q) for e in br_exprs])
        assert np.allclose(E @ c[a, b], br, atol=1e-12)


def test_classification_heisenberg_contact():
    cls = classify_distribution(heisenberg())
    assert cls.tag == "contact"
    assert cls.omega_rank == 2
    assert cls.abnormal is None


def test_classification_quasi_contact_abnormal_field():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    cls = classify_distribution(m)
    assert cls.tag == "quasi-contact"
    assert cls.omega_rank == 2
    # abnormal line: the d/dw direction, up to scale
    vals = np.array([ex.evaluate(e, (0.1, 0.2, 0.0, 0.1)) for e in cls.abnormal])
    vals = vals / np.max(np.abs(vals))
    assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)


def test_classification_full_rank():
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    m = GeometryModel(coords, 2, eye, eye, eye, [-1, -1], [1, 1])
    assert classify_distribution(m).tag == "full"


def test_classification_integrable_is_other():
    # involutive rank-2 distribution in R^3: no brackets escape
    coords = ("x", "y", "z")
    P = lambda s: ex.parse(s, coords)
    frame = ((P("1"), P("0"), P("0")),
             (P("0"), P("1"), P("0")),
             (P("0"), P("0"), P("1")))
    eye2 = ((P("1"), P("0")), (P("0"), P("1")))
    m = GeometryModel(coords, 2, frame, eye2, eye2, [-1] * 3, [1] * 3)
    assert classify_distribution(m).tag == "other"


def test_annihilator_kills_distribution():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    omega = annihilator(m)
    q = (0.2, -0.1, 0.05, 0.3)
    E = m.frame_at(q)
    w = np.array([ex.evaluate(e, q) for e in omega])
    pair = w @ E
    assert np.max(np.abs(pair[: m.m])) < 1e-12
    assert abs(pair[-1]) > 1e-6                    # nonzero on the completion


def test_classification_invariant_under_frame_rescaling():
    base = heisenberg()
    coords = base.coords
    P = lambda s: ex.parse(s, coords)
    scale = P("1 + x^2/4")
    frame = tuple(tuple(ex.mul(scale, c) for c in row) for row in base.frame)
    m = GeometryModel(coords, 2, frame, base.gram1, base.gram2,
                      base.domain_min, base.domain_max)
    assert classify_distribution(m).tag == "contact"


def test_domain_helpers():
    m = heisenberg(extent=0.5)
    assert m.in_domain((0.0, 0.0, 0.0))
    assert not m.in_domain((0.6, 0.0, 0.0))
    assert m.boundary_distance((0.1, 0.0, 0.0)) == pytest.approx(0.4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = m.sample_point(rng)
        assert m.in_domain(p)
        assert m.boundary_distance(p) >= 0.15 * 0.5 - 1e-12


def test_boundary_distance_matches_numpy_formulation():
    # the plain-float distance gives the numpy formula's value, NaN
    # included: a NaN coordinate in any position gives NaN, though Python's
    # min passes over a NaN that is not first
    def numpy_boundary_distance(model, q):
        q = np.asarray(q, dtype=float)
        return float(min(np.min(q - model.domain_min), np.min(model.domain_max - q)))

    base = heisenberg()
    m = GeometryModel(base.coords, 2, base.frame, base.gram1, base.gram2,
                      [-1.5, -0.25, 0.0], [0.5, 0.75, 2.0])
    lo, hi = m.domain_min, m.domain_max
    inside = 0.5 * (lo + hi)
    points = [inside, lo, hi, inside + 0.1 * (hi - lo)]
    for k in range(m.n):
        for value in (lo[k], hi[k], lo[k] - 0.3, hi[k] + 2.0, np.inf, -np.inf, np.nan):
            p = inside.copy()
            p[k] = value
            points.append(p)
        p = np.full(m.n, np.inf)
        p[k] = np.nan
        points.append(p)
    nans = 0
    for p in points:
        expect = numpy_boundary_distance(m, p)
        for q in (p, tuple(p), list(map(float, p))):
            got = m.boundary_distance(q)
            assert type(got) is float, q
            if math.isnan(expect):
                assert math.isnan(got), q
                nans += 1
            else:
                assert got == expect, q
    assert nans == 2 * m.n * 3
    assert m.boundary_distance(inside) > 0 > m.boundary_distance(hi + 1.0)


def test_in_domain_matches_numpy_formulation():
    def numpy_in_domain(model, q):
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= model.domain_min) and np.all(q <= model.domain_max))

    m = plane_pair(extent=([-1.5, -0.25], [0.5, 0.75]))
    lo, hi = m.domain_min, m.domain_max
    inside = 0.5 * (lo + hi)
    points = [inside, lo, hi, np.array([lo[0], hi[1]])]
    for k in range(m.n):
        for face, outward in ((lo[k], -1.0), (hi[k], 1.0)):
            for value in (face, np.nextafter(face, outward * np.inf), face + outward * 1e-3):
                p = inside.copy()
                p[k] = value
                points.append(p)
        p = inside.copy()
        p[k] = np.nan
        points.append(p)
    seen = set()
    for p in points:
        for q in (p, tuple(p), list(map(float, p))):
            expect = numpy_in_domain(m, q)
            assert m.in_domain(q) is expect, q
            seen.add(expect)
    assert seen == {True, False}
