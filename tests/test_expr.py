"""Expression language: parsing, evaluation, differentiation, printing, codegen."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from geoequiv import expr as ex


COORDS3 = ("x", "y", "z")


def ev(text, coords, q):
    return ex.evaluate(ex.parse(text, coords), q)


def test_parse_eval_basic():
    assert ev("x1*x1 + 2", ("x1", "x2"), (3.0, 0.0)) == 11.0
    assert ev("sin(x)*exp(y)", ("x", "y"), (0.0, 5.0)) == 0.0
    assert ev("2 + 3*4", ("x",), (0.0,)) == 14.0
    assert ev("(2 + 3)*4", ("x",), (0.0,)) == 20.0
    assert ev("x^2", ("x",), (-3.0,)) == 9.0
    assert ev("x^-2", ("x",), (2.0,)) == 0.25
    assert ev("x^(-2)", ("x",), (2.0,)) == 0.25
    assert ev("-x^2", ("x",), (3.0,)) == -9.0
    assert ev("2*-3", ("x",), (0.0,)) == -6.0
    assert abs(ev("exp(log(7))", ("x",), (0.0,)) - 7.0) < 1e-12
    assert ev("abs(-2.5)", ("x",), (0.0,)) == 2.5
    assert ev("sqrt(x)", ("x",), (16.0,)) == 4.0
    assert ev("1.5e2 + .5", ("x",), (0.0,)) == 150.5


def test_precedence_and_associativity():
    assert ev("2 - 3 - 4", ("x",), (0.0,)) == -5.0
    assert ev("24/4/2", ("x",), (0.0,)) == 3.0
    assert ev("2 + 3*4^2", ("x",), (0.0,)) == 50.0
    assert ev("-2^2", ("x",), (0.0,)) == -4.0


def test_domain_errors():
    with pytest.raises(ex.EvalDomainError):
        ev("1/(1 - x)", ("x", "y"), (1.0, 0.0))
    with pytest.raises(ex.EvalDomainError):
        ev("log(x)", ("x",), (-1.0,))
    with pytest.raises(ex.EvalDomainError):
        ev("sqrt(x)", ("x",), (-4.0,))
    with pytest.raises(ex.EvalDomainError):
        ev("x^0.5", ("x",), (-2.0,))
    with pytest.raises(ex.EvalDomainError):
        ev("x^-1", ("x",), (0.0,))
    with pytest.raises(ex.EvalDomainError):
        ev("exp(x)", ("x",), (1000.0,))


def test_syntax_errors_carry_offsets():
    with pytest.raises(ex.UnknownIdentifierError) as ei:
        ex.parse("x + foo", ("x",))
    assert ei.value.offset == 4
    with pytest.raises(ex.ExprSyntaxError) as ei:
        ex.parse("sin(x, y)", ("x", "y"))
    assert "one argument" in str(ei.value)
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x ^ y", ("x", "y"))  # non-constant exponent
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("1 +", ("x",))
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("(x", ("x",))
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x 2", ("x",))
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("sin x", ("x",))
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x $ 2", ("x",))
    with pytest.raises(ValueError):
        ex.parse("x", ("x", "x"))
    with pytest.raises(ValueError):
        ex.parse("x", ("sin",))


def test_differentiate_oracle():
    # d/dr [1 - 1/(1+r^2)] = 2r/(1+r^2)^2, at r=1 equals 0.5
    e = ex.parse("1 - 1/(1 + r*r)", ("r",))
    d = ex.differentiate(e, 0)
    assert abs(ex.evaluate(d, (1.0,)) - 0.5) < 1e-14
    # finite-difference cross-check, the module's standing derivative oracle
    h = 1e-6
    fd = (ex.evaluate(e, (1.0 + h,)) - ex.evaluate(e, (1.0 - h,))) / (2 * h)
    assert abs(ex.evaluate(d, (1.0,)) - fd) < 1e-6


def _fd(e, q, k, h=1e-6):
    qp = list(q)
    qm = list(q)
    qp[k] += h
    qm[k] -= h
    return (ex.evaluate(e, qp) - ex.evaluate(e, qm)) / (2 * h)


DERIV_CASES = [
    ("sin(x)*cos(y)", (0.3, -0.8, 0.0)),
    ("exp(x/  (2 + y^2))", (0.5, 0.25, 0.0)),
    ("log( 2 + x^2 + z^2)", (0.7, 0.0, -0.4)),
    ("sqrt(1 + x^2 + y^2)", (0.9, -1.1, 0.0)),
    ("x^3 - 2*x*y + y/(3 + z^2)", (1.2, 0.4, 0.6)),
    ("abs(x - 2)", (0.5, 0.0, 0.0)),
    ("x^-2", (1.3, 0.0, 0.0)),
    ("-x*sin(y)/(1.5 + cos(z)^2)", (0.2, 1.1, 0.3)),
]


@pytest.mark.parametrize("text,q", DERIV_CASES)
def test_differentiate_vs_fd(text, q):
    e = ex.parse(text, COORDS3)
    for k in range(3):
        sym = ex.evaluate(ex.differentiate(e, k), q)
        assert abs(sym - _fd(e, q, k)) <= 1e-6 * max(1.0, abs(sym))


def test_abs_derivative_undefined_at_zero():
    d = ex.differentiate(ex.parse("abs(x)", ("x",)), 0)
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(d, (0.0,))
    assert ex.evaluate(d, (2.0,)) == 1.0
    assert ex.evaluate(d, (-2.0,)) == -1.0


def test_substitute():
    e = ex.parse("u^2 + sin(u)", ("u",))
    inner = ex.parse("x + 2*y", ("x", "y"))
    composed = ex.substitute(e, {0: inner})
    q = (0.3, 0.7)
    v = 0.3 + 1.4
    assert abs(ex.evaluate(composed, q) - (v**2 + math.sin(v))) < 1e-14


def test_rename_coords():
    e = ex.parse("a*b", ("a", "b"))
    moved = ex.rename_coords(e, {0: 2, 1: 0})
    assert abs(ex.evaluate(moved, (5.0, 99.0, 7.0)) - 35.0) < 1e-14


# --- property tests ---------------------------------------------------------

def _total_exprs():
    # trees that evaluate without domain errors anywhere on [-2, 2]^3
    leaves = st.one_of(
        st.integers(-3, 3).map(lambda v: ex.Const(float(v))),
        st.sampled_from([0.5, 1.5, 2.5]).map(ex.Const),
        st.integers(0, 2).map(lambda i: ex.Coord(i, COORDS3[i])),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ex.add(*ab)),
            st.tuples(children, children).map(lambda ab: ex.sub(*ab)),
            st.tuples(children, children).map(lambda ab: ex.mul(*ab)),
            children.map(ex.neg),
            children.map(ex.sin),
            children.map(ex.cos),
            children.map(lambda a: ex.pow_(a, 2.0)),
            children.map(lambda a: ex.pow_(a, 3.0)),
            children.map(lambda a: ex.div(a, ex.add(ex.Const(2.0), ex.mul(a, a)))),
            children.map(lambda a: ex.sqrt(ex.add(ex.Const(1.0), ex.mul(a, a)))),
            children.map(lambda a: ex.exp(ex.div(a, ex.add(ex.Const(1.0), ex.mul(a, a))))),
        )

    return st.recursive(leaves, extend, max_leaves=12)


PROBES = [
    (0.0, 0.0, 0.0),
    (1.0, -1.0, 0.5),
    (-1.7, 0.3, 1.9),
    (0.25, 1.5, -2.0),
]


@settings(max_examples=150, deadline=None)
@given(_total_exprs())
def test_print_parse_round_trip(e):
    text = ex.to_string(e, COORDS3)
    back = ex.parse(text, COORDS3)
    for q in PROBES:
        a = ex.evaluate(e, q)
        b = ex.evaluate(back, q)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@settings(max_examples=150, deadline=None)
@given(_total_exprs())
def test_compiled_matches_interpreter(e):
    fn = ex.compile_exprs([e])
    for q in PROBES:
        assert abs(fn(q)[0] - ex.evaluate(e, q)) <= 1e-12 * max(1.0, abs(ex.evaluate(e, q)))


@settings(max_examples=100, deadline=None)
@given(_total_exprs(), st.integers(0, 2))
def test_derivative_linearity_and_fd(e, k):
    d = ex.differentiate(e, k)
    q = (0.35, -0.6, 0.85)
    sym = ex.evaluate(d, q)
    fd = _fd(e, q, k)
    # fd error scales with the size of third derivatives; bound values first
    if all(abs(ex.evaluate(e, p)) < 50.0 for p in PROBES):
        assert abs(sym - fd) <= 2e-5 * max(1.0, abs(sym))
    # linearity: d(2e) = 2 de
    d2 = ex.differentiate(ex.mul(ex.Const(2.0), e), k)
    assert abs(ex.evaluate(d2, q) - 2 * sym) <= 1e-11 * max(1.0, abs(sym))


@settings(max_examples=80, deadline=None)
@given(_total_exprs(), _total_exprs(), st.integers(0, 2))
def test_product_rule(a, b, k):
    q = (0.2, 0.4, -0.3)
    lhs = ex.evaluate(ex.differentiate(ex.mul(a, b), k), q)
    rhs = (ex.evaluate(ex.differentiate(a, k), q) * ex.evaluate(b, q)
           + ex.evaluate(a, q) * ex.evaluate(ex.differentiate(b, k), q))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_compiled_domain_error():
    fn = ex.compile_exprs([ex.parse("1/x", ("x",)), ex.parse("log(x)", ("x",))])
    assert fn((2.0,)) == (0.5, math.log(2.0))
    with pytest.raises(ex.EvalDomainError):
        fn((0.0,))
    with pytest.raises(ex.EvalDomainError):
        fn((-1.0,))


def test_program_keeps_emitted_exprs_alive():
    # _emit caches locals by id(); a node freed during code generation would
    # hand its id to the next node built, which would then reuse a stale local
    prog = ex.Program()
    x = ex.Coord(0, "x")
    names = [prog.value(ex.add(x, ex.Const(float(k)))) for k in range(50)]
    assert prog.compile(names)((0.5,)) == tuple(0.5 + k for k in range(50))
