"""Invariance of the pointwise analysis under changes that keep the geometry.

A chart change, a constant and a point-dependent gauge of the frame, the
swap of the two metrics and a constant multiple of gram2 leave geodesic
equivalence, the clustering of the transition operator and its regularity
as they are. At mapped points, `analyze` must report the same N, regularity,
N in the ball and divisibility verdicts; the eigenvalues must agree (inverted
under the swap, scaled under the multiple), every screen residual that
passes its gate must stay 100 times below it, and one that fails must still
fail. A 20-sample `verify` must give the same verdict. A verdict that
moved would show a dependence on the chart or the frame that the paper's
conditions do not have.
"""

import numpy as np
import pytest

from geoequiv import cli
from geoequiv import expr as ex
from geoequiv.geometry import GeometryModel
from geoequiv.pair import _CLUSTER_TOL, _DIV_TOL, AdaptedFrame
from geoequiv.verifier import verify_equivalence

from conftest import PAIR_KINDS, pair_fixture

RADIUS = 0.05           # analyze's default probe radius
RELATIONS_TOL = 1e-6    # check-relations' default tolerance
CUBIC = 0.3             # the chart change x_k = y_k + CUBIC y_k^3
SCALE = 3.0             # the multiple of gram2
POINTS = 8
VERIFY_SAMPLES = 20


def _model(model, frame, gram1, gram2, lo=None, hi=None):
    return GeometryModel(model.coords, model.m, frame, gram1, gram2,
                         model.domain_min if lo is None else lo,
                         model.domain_max if hi is None else hi)


def _sum(terms):
    total = ex.ZERO
    for t in terms:
        total = ex.add(total, t)
    return total


def _cubic_inverse(x):
    """The y with y + CUBIC y^3 = x, by Newton steps from y = x."""
    y = x
    for _ in range(60):
        y_next = y - (y + CUBIC * y ** 3 - x) / (1.0 + 3.0 * CUBIC * y ** 2)
        if y_next == y:
            break
        y = y_next
    return y


def chart_change(model):
    """The model in the chart y with x_k = y_k + CUBIC y_k^3: the same fields
    and metrics, with components dy_k/dx_k X^k and entries read at x(y)."""
    n = model.n
    x_of_y = {k: ex.add(ex.Coord(k, model.coords[k]),
                        ex.mul(ex.Const(CUBIC), ex.pow_(ex.Coord(k, model.coords[k]), 3)))
              for k in range(n)}
    jacobian = [ex.add(ex.Const(1.0), ex.mul(ex.Const(3.0 * CUBIC),
                                             ex.pow_(ex.Coord(k, model.coords[k]), 2)))
                for k in range(n)]
    frame = [[ex.div(ex.substitute(row[k], x_of_y), jacobian[k]) for k in range(n)]
             for row in model.frame]
    grams = [[[ex.substitute(e, x_of_y) for e in row] for row in gram]
             for gram in (model.gram1, model.gram2)]
    lo = [_cubic_inverse(v) for v in model._lo]
    hi = [_cubic_inverse(v) for v in model._hi]
    return _model(model, frame, *grams, lo, hi), lambda q: [_cubic_inverse(v) for v in q]


def gauge(model, G):
    """Distribution fields X'_a = sum_i G_ia X_i and W' = G^T W G for both
    metrics; the transverse fields stay."""
    m = model.m
    frame = [[_sum(ex.mul(G[i][a], model.frame[i][k]) for i in range(m))
              for k in range(model.n)] for a in range(m)] + list(model.frame[m:])
    grams = [[[_sum(ex.mul(ex.mul(G[i][a], W[i][j]), G[j][b])
                    for i in range(m) for j in range(m))
               for b in range(m)] for a in range(m)]
             for W in (model.gram1, model.gram2)]
    return _model(model, frame, *grams), list


def constant_gauge(model):
    # diagonally dominant, so invertible for every rank
    m = model.m
    return gauge(model, [[ex.Const(1.5 if i == j else 0.3 * (-1) ** i)
                          for j in range(m)] for i in range(m)])


def point_gauge(model):
    # 1.5 + 0.3 sin on the diagonal, 0.25 sin off it: invertible everywhere
    m, n = model.m, model.n
    x = lambda k: ex.Coord(k % n, model.coords[k % n])
    return gauge(model, [[ex.add(ex.Const(1.5), ex.mul(ex.Const(0.3), ex.sin(x(i))))
                          if i == j else ex.mul(ex.Const(0.25), ex.sin(x(i + 2 * j + 1)))
                          for j in range(m)] for i in range(m)])


def swap(model):
    return _model(model, model.frame, model.gram2, model.gram1), list


def scale_gram2(model):
    gram2 = [[ex.mul(ex.Const(SCALE), e) for e in row] for row in model.gram2]
    return _model(model, model.frame, model.gram1, gram2), list


# transform -> (the model and the point map, the eigenvalues it expects)
TRANSFORMS = {
    "chart": (chart_change, lambda lams: lams),
    "constant-gauge": (constant_gauge, lambda lams: lams),
    "point-gauge": (point_gauge, lambda lams: lams),
    "swap": (swap, lambda lams: sorted(1.0 / v for v in lams)),
    "scale": (scale_gram2, lambda lams: [SCALE * v for v in lams]),
}


def analyze_record(model, q):
    """The record that `geoequiv analyze --at q` reports at its defaults."""
    frame = AdaptedFrame(model, center=np.array(q, dtype=float), cluster_tol=_CLUSTER_TOL)
    return cli._point_report(model, frame, q, RADIUS, _CLUSTER_TOL)


def verdicts(rec):
    second = rec["second_divisibility"]
    return (rec["N"], rec["regular"], rec["N_in_ball"], rec["first_divisibility"]["holds"],
            None if second is None else second["holds"])


def screen_residuals(rec):
    """{name: (residual, gate)} of every screen in the record that has one."""
    out = {"first divisibility": (rec["first_divisibility"]["residual"], _DIV_TOL)}
    second = rec["second_divisibility"]
    if second is not None:
        out["second divisibility"] = (second["residual"], _DIV_TOL)
        out["quotient spread"] = (second["quotient_spread"], _DIV_TOL)
    out.update((name, (val, RELATIONS_TOL)) for name, val in rec["relations"].items())
    return {name: pair for name, pair in out.items() if pair[0] is not None}


@pytest.fixture(scope="module")
def originals():
    """Each fixture's model and its analyze records at POINTS seeded points."""
    out = {}
    for index, kind in enumerate(PAIR_KINDS):
        m = pair_fixture(kind)
        rng = np.random.default_rng(4400 + index)
        points = [m.sample_point(rng).tolist() for _ in range(POINTS)]
        out[kind] = m, [(q, analyze_record(m, q)) for q in points]
    return out


@pytest.fixture(scope="module")
def transformed(originals):
    """(kind, transform) -> the transformed model and its point map, built
    once, so that the verify test reuses the programs that analyze made."""
    built = {}

    def get(kind, transform):
        if (kind, transform) not in built:
            built[kind, transform] = TRANSFORMS[transform][0](originals[kind][0])
        return built[kind, transform]
    return get


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_analyze_is_invariant(originals, transformed, kind, transform):
    records = originals[kind][1]
    expected_eigenvalues = TRANSFORMS[transform][1]
    mt, mapped = transformed(kind, transform)
    for q, rec in records:
        got = analyze_record(mt, mapped(q))
        assert verdicts(got) == verdicts(rec), q
        assert np.allclose(got["eigenvalues"], expected_eigenvalues(rec["eigenvalues"]),
                           rtol=1e-12, atol=0), q
        before, after = screen_residuals(rec), screen_residuals(got)
        assert before.keys() == after.keys(), q
        for name, (res, gate) in before.items():
            if res <= gate:
                assert res < gate / 100 and after[name][0] < gate / 100, (q, name)
            else:
                assert after[name][0] > gate, (q, name)


def verify_verdict(model, kind):
    """The verdict of a VERIFY_SAMPLES-sample verify at a seed fixed per
    fixture; quasi-contact excludes its abnormal cone, as `verify
    --exclude-abnormal-cone 0.1` does."""
    exclusions = {"abnormal_cone": 0.1} if kind == "quasi-contact" else None
    sampling = {"count": VERIFY_SAMPLES, "seed": 4500 + PAIR_KINDS.index(kind)}
    return verify_equivalence(model, sampling, exclusions).verdict


# (kind, transform) whose verify verdict moves: gendini1's 20-sample verify
# fails (max deviation 1.32e-6 against tol_curve 1e-6) because the polyline
# distance carries a chord error of that size (ROADMAP direction 1, Known
# reds). The constant gauge draws other covectors, whose chord errors stay
# below the tolerance (7.7e-7), so it passes
KNOWN_VERDICT_CHANGES = {("gendini1", "constant-gauge")}


@pytest.fixture(scope="module")
def verify_originals(originals):
    return {kind: verify_verdict(m, kind) for kind, (m, _) in originals.items()}


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_verify_is_invariant(request, verify_originals, transformed, kind, transform):
    if (kind, transform) in KNOWN_VERDICT_CHANGES:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="polyline chord error decides the verdict"))
    assert verify_verdict(transformed(kind, transform)[0], kind) == verify_originals[kind]
