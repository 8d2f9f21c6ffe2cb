"""Shared fixture builders for the test suite."""

import numpy as np

from geoequiv import expr as ex
from geoequiv.constructors import GENERATORS
from geoequiv.geometry import GeometryModel


# parameters for every generator of geoequiv.constructors.GENERATORS
FIELD_PARAMS = {
    "levi-civita": {"blocks": [{"size": 2, "beta": 1.5},
                               {"size": 1, "beta": "2 + x3/10"}]},
    "dini": {"beta1": "1+x1/10", "beta2": "2+x2/10"},
    "gendini1": {"U": "1 - u", "V": "1 + v"},
    "gendini2": {"R": "1 + r^2"},
    "quasi-contact": {"beta": "exp(t)", "C1": 1.0, "C2": 1.0},
    "beltrami": {},
}


def heisenberg(g2fac="1", g2diag=None, extent=0.8):
    """Heisenberg frame X1 = dx - y/2 dz, X2 = dy + x/2 dz, X3 = dz.

    gram1 is the identity on (X1, X2); gram2 is g2fac * I or diag(g2diag).
    """
    coords = ("x", "y", "z")
    P = lambda s: ex.parse(s, coords)
    frame = ((P("1"), P("0"), P("-y/2")),
             (P("0"), P("1"), P("x/2")),
             (P("0"), P("0"), P("1")))
    g1 = ((P("1"), P("0")), (P("0"), P("1")))
    if g2diag is not None:
        a, b = g2diag
        g2 = ((P(a), P("0")), (P("0"), P(b)))
    else:
        g2 = ((P(g2fac), P("0")), (P("0"), P(g2fac)))
    return GeometryModel(coords, 2, frame, g1, g2, [-extent] * 3, [extent] * 3)


def plane_pair(g2xx="1+x^2", g2xy="0", g2yy="1", extent=(1.5, 0.5)):
    """Euclidean gram1 on the coordinate frame of the plane, custom gram2."""
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    g2 = ((P(g2xx), P(g2xy)), (P(g2xy), P(g2yy)))
    lo = [-extent[0], -extent[1]] if np.isscalar(extent[0]) else list(extent[0])
    hi = [extent[0], extent[1]] if np.isscalar(extent[0]) else list(extent[1])
    return GeometryModel(coords, 2, eye, eye, g2, lo, hi)


def case2_origin_chart(extent=0.45):
    """The generalized-Dini case-2 pair (R = 1+r^2, a = C = 1) in the chart
    that contains the singular point: G1 = I/(1+x^2+y^2),
    G2 = [[1+x^2, xy], [xy, 1+y^2]].  Both entries stay smooth and SPD
    through the origin, where the eigenvalues (1+r^2)^2 and 1+r^2 merge.
    """
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    g1 = ((P("1/(1+x^2+y^2)"), P("0")), (P("0"), P("1/(1+x^2+y^2)")))
    g2 = ((P("1+x^2"), P("x*y")), (P("x*y"), P("1+y^2")))
    return GeometryModel(coords, 2, eye, g1, g2, [-extent] * 2, [extent] * 2)


def rotating_cluster():
    """gram2 = gram1 + w w^T: eigenvalue 1 twice on the plane w^T v = 0, which
    turns with q, and 1 + w^T gram1^{-1} w once; gram1 is not constant."""
    coords = ("x", "y", "z")
    P = lambda s: ex.parse(s, coords)
    g1 = [["1 + x^2/4", "x*y/10", "0"], ["x*y/10", "1 + y^2/4", "0"], ["0", "0", "1 + z/5"]]
    w = ["1", "x", "y + z"]
    g2 = [["(%s) + (%s)*(%s)" % (g1[i][j], w[i], w[j]) for j in range(3)] for i in range(3)]
    eye = [[P("1" if i == j else "0") for j in range(3)] for i in range(3)]
    return GeometryModel(coords, 3, eye, [[P(e) for e in row] for row in g1],
                         [[P(e) for e in row] for row in g2], [-0.5] * 3, [0.5] * 3)


# every generator, the conformal Heisenberg pair and the rotating cluster
PAIR_KINDS = sorted(FIELD_PARAMS) + ["conformal", "rotating-cluster"]


def pair_fixture(kind):
    if kind == "conformal":
        return heisenberg("1 + x^2 + y^2")
    if kind == "split-alpha":
        return heisenberg(g2diag=("1", "4"))
    if kind == "rotating-cluster":
        return rotating_cluster()
    return GENERATORS[kind](FIELD_PARAMS[kind])


def site_programs(model):
    """[(name, expressions)] of every program that geoequiv's compile_exprs
    sites make for model, in the order made: the frame, Gram and
    derivative evaluators, the flow and energy programs of both metrics,
    and on corank one the brackets, the completions and their partials, the
    restricted two-form and the abnormal direction. The flow and energy
    programs read the state (q, p), the others q: a phase point serves
    them all. The model's cache is emptied first, so that every site makes
    its program. Each site runs once at the center; an error there ends
    that site only, after its program was made."""
    from geoequiv.geometry import bracket_exprs, classify_distribution
    from geoequiv.hamiltonian import _program
    from geoequiv.pair import AdaptedFrame, AdaptedFrameError, _completion
    from geoequiv.verifier import _abnormal_program

    made = []
    compile_exprs = ex.compile_exprs
    model._cache.clear()

    def record(exprs, name="_compiled", slot=None):
        exprs = list(exprs)
        made.append((name, exprs))
        return compile_exprs(exprs, name, slot)

    q = tuple(model.center().tolist())
    sites = [lambda: model.frame_at(q), lambda: model.dframe_at(q),
             lambda: model._compiled("grams", lambda: model._gram_entries(1, 2))(q)]
    sites += [lambda tag=tag: model.gram_at(q, tag) for tag in (1, 2)]
    sites += [lambda tag=tag: model.dgram_at(q, tag) for tag in (1, 2)]
    sites += [lambda tag=tag, kind=kind: _program(model, tag, kind)(q + (1.0,) * model.n)
              for tag in (1, 2) for kind in ("flow", "energy")]
    if model.n - model.m == 1:
        sites.append(lambda: AdaptedFrame(model, model.center()))
        sites += [lambda pair=pair: [fn(q) for fn in _completion(model, pair)]
                  for pair in bracket_exprs(model)]
        sites += [lambda: classify_distribution(model), lambda: _abnormal_program(model)]
    ex.compile_exprs = record
    try:
        for site in sites:
            try:
                site()
            except (ex.EvalDomainError, AdaptedFrameError, np.linalg.LinAlgError,
                    ValueError):
                pass
    finally:
        ex.compile_exprs = compile_exprs
    return made


def phase_points(model, points, rng):
    """Each point q of points as the states (q, 0) and (q, p), p normal
    draws of rng: points that the programs over q and those over (q, p)
    both read."""
    n = model.n
    return [tuple(q) + tuple(p) for q in points
            for p in ([0.0] * n, rng.normal(size=n).tolist())]


def call_outcome(fn, q):
    """The bits of fn(q)'s values, or the type and message of its error."""
    try:
        return [float(v).hex() for v in fn(q)]
    except Exception as exc:
        return type(exc), str(exc)


def compiled_program(exprs):
    """exprs compiled at once, as a program compiles on its second call."""
    prog = ex.Program()
    return prog.compile([prog.value(e) for e in exprs])


def assert_walk_is_compiled(exprs, points):
    """The first call of a new program of exprs, which walks them, returns
    the compiled program's values bit for bit at each point, or raises its
    error type and message."""
    compiled = compiled_program(exprs)
    for q in points:
        assert call_outcome(ex.compile_exprs(exprs), q) == call_outcome(compiled, q), q


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance verdict lines are worth seeing even when the tests pass
    # and pytest has swallowed their stdout
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
