"""Generator parameter spaces.

Each generator is fed parameters drawn inside the hypotheses that README's
Generators list documents. Every drawn pair must build, pass relations_cor
at three seeded points within check-relations' default tolerance (1e-6)
and pass an 8-sample verify at T = 0.1 (quasi-contact with its abnormal
cone of 0.1 excluded). From each drawn parameter set, one set per
hypothesis is made that lies just outside it, and that set must raise
ConstructionError naming the hypothesis.

The draws are derandomized, so every run checks the same parameter sets.
Each parameter set goes through JSON, as `generate --params` reads it.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geoequiv import expr as ex
from geoequiv.constructors import GENERATORS, ConstructionError
from geoequiv.pair import AdaptedFrame, relations_cor
from geoequiv.verifier import verify_equivalence

DRAWS = settings(derandomize=True, max_examples=8, deadline=None, database=None)
RELATIONS_TOL = 1e-6

# one-variable shapes f with f(0) = 0, each as a format of its variable
# and the bound of |f| on [-1/2, 1/2]
SHAPES = [("%s", 0.5), ("sin(%s)", 0.48), ("%s^3", 0.125), ("exp(%s) - 1", 0.65),
          ("log(1 + %s/2)", 0.29)]


def _build(kind, params):
    return GENERATORS[kind](json.loads(json.dumps(params)))


def _assert_equivalent(kind, params, cone=None):
    """The pair of params passes relations_cor at three seeded points and
    an 8-sample verify at T = 0.1."""
    model = _build(kind, params)
    rng = np.random.default_rng(0)
    for _ in range(3):
        q = model.sample_point(rng)
        rep = relations_cor(model, AdaptedFrame(model, center=q), tuple(q.tolist()))
        worst = max((v for v in rep.checks.values() if v is not None), default=0.0)
        assert worst <= RELATIONS_TOL, (params, q.tolist(), rep.checks)
    exclusions = None if cone is None else {"abnormal_cone": cone}
    report = verify_equivalence(model, {"count": 8, "T": 0.1}, exclusions)
    assert report.verdict == "pass", (params, report.counts, report.max_deviation)


def _assert_refused(kind, params, match):
    with pytest.raises(ConstructionError, match=match):
        _build(kind, params)


def _move(draw, var, largest):
    """(a*f(var), |a| times f's bound) for a drawn shape f and a drawn a
    with |a f| <= largest on [-1/2, 1/2]."""
    shape, bound = draw(st.sampled_from(SHAPES))
    a = draw(st.floats(-largest, largest)) / bound
    return "%r*(%s)" % (a, shape % var), abs(a) * bound


# ------------------------------------------------------------ levi-civita

@st.composite
def levi_civita_params(draw):
    """Blocks of size 1 or 2 (n <= 4) whose betas keep disjoint ranges on
    the default domain [-0.4, 0.4]^n: levels 0.9 apart, and a size-1
    block's beta moves by at most 0.2 about its level. A size-2 block may
    carry a gram, diagonally dominant in its own coordinates."""
    sizes = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= 4))
    ranks = draw(st.permutations(range(len(sizes))))
    blocks, first = [], 1
    for size, rank in zip(sizes, ranks):
        level = 0.6 + 0.9 * rank + draw(st.floats(0.0, 0.2))
        block = {"size": size, "beta": level}
        x = "x%d" % first
        if size == 1 and draw(st.booleans()):
            move, _ = _move(draw, x, 0.2)
            block["beta"] = "%r + %s" % (level, move)
        if size == 2 and draw(st.booleans()):
            y = "x%d" % (first + 1)
            d1, d2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
            e1, e2 = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
            b = draw(st.floats(-0.2, 0.2))
            block["gram"] = [["%r + %r*%s" % (d1, e1, y), b], [b, "%r + %r*%s" % (d2, e2, x)]]
        blocks.append(block)
        first += size
    params = {"blocks": blocks}
    if draw(st.booleans()):
        params["q0"] = draw(st.lists(st.floats(-0.3, 0.3), min_size=first - 1,
                                     max_size=first - 1))
    return params


@DRAWS
@given(levi_civita_params())
def test_levi_civita_parameter_space(params):
    _assert_equivalent("levi-civita", params)
    blocks = params["blocks"]
    n = sum(block["size"] for block in blocks)
    level = 1.7

    def with_blocks(*extra, first=None):
        head = [dict(blocks[0], beta=first)] if first is not None else blocks[:1]
        return dict(params, blocks=head + blocks[1:] + list(extra))

    # each beta positive
    _assert_refused("levi-civita", with_blocks(first=-1e-3), r"blocks\[0\]\.beta is not positive")
    # the betas pairwise distinct
    _assert_refused("levi-civita",
                    dict(with_blocks({"size": 1, "beta": level}, first=level), q0=None),
                    "coincide at q0")
    # a beta reads its own block's coordinates only
    _assert_refused("levi-civita", with_blocks({"size": 1, "beta": "%r + x1/10" % level}),
                    "may only use its block coordinates")
    # a block of size > 1 has a constant beta
    _assert_refused("levi-civita", with_blocks({"size": 2, "beta": "%r + x%d/10" % (level, n + 1)}),
                    "must be constant")
    # q0 is n finite numbers
    _assert_refused("levi-civita", dict(params, q0=[0.0] * (n - 1)), "q0 must be a list")


# ------------------------------------------------------------------- dini

@DRAWS
@given(st.data())
def test_dini_parameter_space(data):
    """0 < beta1 < beta2 on the default domain [-1/2, 1/2]^2: beta1 stays
    within half its level c1 of it, and beta2's lowest value lies at least
    0.05 above beta1's highest."""
    draw = data.draw
    c1 = draw(st.floats(0.3, 2.0))
    move1, bound1 = _move(draw, "x1", 0.5 * c1)
    move2, bound2 = _move(draw, "x2", 1.0)
    c2 = c1 + bound1 + draw(st.floats(0.05, 2.0)) + bound2
    beta1 = "%r + %s" % (c1, move1)
    params = {"beta1": beta1, "beta2": "%r + %s" % (c2, move2)}
    _assert_equivalent("dini", params)
    # 0 < beta1
    _assert_refused("dini", dict(params, beta1="-1e-3"), r"0 < beta1 < beta2")
    # beta1 < beta2: beta2 at beta1's level, which beta1 reaches or passes
    _assert_refused("dini", dict(params, beta2=repr(c1)), r"0 < beta1 < beta2")
    # beta1 is a function of x1 alone
    _assert_refused("dini", dict(params, beta1="%s + x2" % beta1), "unknown identifier 'x2'")


# --------------------------------------------------------------- gendini1

@DRAWS
@given(st.data())
def test_gendini1_parameter_space(data):
    """U(0) = V(0) = c, U'(0) = -s = -V'(0) < 0 and 0 < U(u) < c < V(v)
    for 0 < u, v <= r_max = 0.4 (the default domain)."""
    draw = data.draw
    c = draw(st.floats(0.5, 3.0))
    s = draw(st.floats(0.1, 1.5)) * c
    if draw(st.booleans()):
        # U < c on (0, 0.4] for b < 2.5 s, and U(0.4) >= c - 0.6 c - 0.16 c
        U = "%r - %r*u + %r*u^2" % (c, s, draw(st.floats(-1.0, 1.2)) * min(c, s))
    else:
        U = "%r*exp(-%r*u)" % (c, s / c)
    if draw(st.booleans()):
        V = "%r + %r*v + %r*v^2" % (c, s, draw(st.floats(-2.0, 3.0)) * s / 2)
    else:
        V = "%r*exp(%r*v)" % (c, s / c)
    params = {"U": U, "V": V}
    _assert_equivalent("gendini1", params)
    _assert_refused("gendini1", dict(params, V="%s + 1e-6" % V), r"U\(0\) = V\(0\)")
    _assert_refused("gendini1", {"U": "%r + %r*u" % (c, s), "V": "%r - %r*v" % (c, s)},
                    r"V'\(0\) > 0")
    _assert_refused("gendini1", dict(params, U="%s - %r*u" % (U, 1e-6 * s)),
                    r"U'\(0\) = -V'\(0\)")
    # 0 < U < c on (0, r_max]: U goes below 0, then above c
    _assert_refused("gendini1", dict(params, U="%s - %r*u^2" % (U, 20 * c)),
                    r"0 < U\(u\) < V\(0\)")
    _assert_refused("gendini1", dict(params, U="%s + %r*u^2" % (U, 20 * c)),
                    r"0 < U\(u\) < V\(0\)")
    # c < V on (0, r_max]
    _assert_refused("gendini1", dict(params, V="%s - %r*v^2" % (V, 20 * c)),
                    r"V\(v\) > U\(0\)")
    # U is a function of one variable
    _assert_refused("gendini1", dict(params, U="%s + v" % U), "unknown identifier 'v'")


# --------------------------------------------------------------- gendini2

@DRAWS
@given(st.data())
def test_gendini2_parameter_space(data):
    """a, C > 0, R(0) = C, R'(0) = 0, R''(0) != 0, and R > 0 with R != C
    for r in the default domain's range [0.1, 0.4]."""
    draw = data.draw
    C = draw(st.floats(0.5, 3.0))
    a = draw(st.floats(0.3, 3.0))
    k = draw(st.floats(0.2, 2.0)) * draw(st.sampled_from([-1, 1]))
    R = draw(st.sampled_from(["%r + %r*r^2" % (C, k * C), "%r*exp(%r*r^2)" % (C, k),
                              "%r*cos(%r*r)" % (C, 1.5 * abs(k))]))
    params = {"R": R, "a": a, "C": C}
    _assert_equivalent("gendini2", params)
    _assert_refused("gendini2", dict(params, R="%s + %r" % (R, 1e-6 * C)), r"R\(0\) = C")
    _assert_refused("gendini2", dict(params, R="%s + 1e-6*r" % R), r"R'\(0\) = 0")
    _assert_refused("gendini2", dict(params, R="%r + %r*r^4" % (C, k)), r"R''\(0\) != 0")
    # R = C at r = 0.25, a point of the check
    _assert_refused("gendini2", dict(params, R="%r + %r*r^2*(r - 0.25)^2" % (C, k)),
                    r"R\(r\) = R\(0\) inside the domain")
    _assert_refused("gendini2", dict(params, a=-1e-6), "a and C must be positive")
    _assert_refused("gendini2", dict(params, C=-1e-6), "a and C must be positive")
    _assert_refused("gendini2", dict(params, R="%s + t" % R), "unknown identifier 't'")


# ----------------------------------------------------------- quasi-contact

def _beta_at(text, t):
    return ex.compile_exprs([ex.parse(text, ("t",))])([t])[0]


@DRAWS
@given(st.data())
def test_quasi_contact_parameter_space(data):
    """beta(0) = 1, C1 > 0, C2 > -1 nonzero, and beta > 0 with
    1 + C2 beta > 0 on the default w range [-0.4, 0.4]; gbar is diagonally
    dominant, so positive definite, and may read one of x, y, z."""
    draw = data.draw
    k = draw(st.floats(-2.0, 2.0))
    beta = draw(st.sampled_from(["exp(%r*t)", "1 + %r*t", "1 + %r*sin(t)", "(1 + t)^%r"])) % k
    # every shape is monotone in t, so its extremes are at w = -0.4 and 0.4
    ends = [_beta_at(beta, w) for w in (-0.4, 0.4)]
    low = max(-1.0, -1.0 / max(ends)) + 0.05
    C2 = draw(st.floats(low, 3.0))
    assume(abs(C2) >= 0.05)
    C1 = draw(st.floats(0.2, 3.0))
    params = {"beta": beta, "C1": C1, "C2": C2}
    if draw(st.booleans()):
        diag = [draw(st.floats(0.5, 2.0)) for _ in range(2)]
        slopes = [draw(st.floats(-0.5, 0.5)) for _ in range(2)]
        coords = [draw(st.sampled_from("xyz")) for _ in range(2)]
        b = draw(st.floats(-0.2, 0.2))
        params["gbar"] = [["%r + %r*%s" % (diag[0], slopes[0], coords[0]), b],
                          [b, "%r + %r*%s" % (diag[1], slopes[1], coords[1])]]
    _assert_equivalent("quasi-contact", params, cone=0.1)
    _assert_refused("quasi-contact", dict(params, beta="(%s)*(1 + 1e-6)" % beta),
                    r"beta\(0\) = 1")
    _assert_refused("quasi-contact", dict(params, C1=-1e-6), "C1 must be positive")
    _assert_refused("quasi-contact", dict(params, C2=0.0), "C2 must be nonzero")
    _assert_refused("quasi-contact", dict(params, C2=-1.0 - 1e-6), "greater than -1")
    # 1 + C2 beta just below 0 at w = 0.4, where exp(2t) is largest
    _assert_refused("quasi-contact", dict(params, beta="exp(2*t)", C2=-1.001 / math.exp(0.8)),
                    r"1 \+ C2\*beta\(w\) must stay positive")
    # beta just below 0 at w = -0.4
    _assert_refused("quasi-contact", dict(params, beta="1 + 2.51*t"),
                    r"1 \+ C2\*beta\(w\) must stay positive")
    _assert_refused("quasi-contact", dict(params, beta="%s + w" % beta), "unknown identifier 'w'")


# ---------------------------------------------------------------- beltrami

@DRAWS
@given(st.floats(0.2, 3.0))
def test_beltrami_parameter_space(half_width):
    _assert_equivalent("beltrami", {"half_width": half_width})
    _assert_refused("beltrami", {"half_width": 0.0}, "half_width must be positive")
