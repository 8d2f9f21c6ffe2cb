"""Shared fixture builders for the test suite."""

import numpy as np

from geoequiv import expr as ex
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
