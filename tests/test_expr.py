"""Expression language: parsing, evaluation, differentiation, printing, codegen."""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoequiv import expr as ex
from geoequiv.cli import main
from geoequiv.geometry import bracket_exprs, load_model, save_model
from geoequiv.hamiltonian import _program
from geoequiv.pair import AdaptedFrame, _completion
from geoequiv.verifier import _abnormal_program

from conftest import (PAIR_KINDS, assert_walk_is_compiled, call_outcome, compiled_program,
                      pair_fixture, phase_points, site_programs)


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


@settings(max_examples=150, deadline=None)
@given(_total_exprs())
def test_lanes_equal_compiled(e):
    fn = ex.compile_exprs([e, ex.log(ex.add(ex.Const(3.0), e)), ex.abs_(e)])
    rows = np.array(PROBES + [(0.3, -1.1, 1.7), (-2.0, 2.0, 0.0)])
    try:
        expected = np.array([fn(q) for q in rows.tolist()]).T
    except ex.EvalDomainError:
        with pytest.raises(ex.EvalDomainError):
            fn.lanes(rows)
        return
    assert np.array_equal(fn.lanes(rows), expected)


def test_lanes_fall_back_to_the_scalar_path():
    fn = ex.compile_exprs([ex.parse("1/x", ("x",)), ex.parse("log(x)", ("x",))])
    rows = np.array([[2.0], [0.5], [-1.0], [0.0]])
    with pytest.raises(ex.EvalDomainError) as scalar:
        fn((-1.0,))
    with pytest.raises(ex.EvalDomainError) as lanes:
        fn.lanes(rows)
    assert str(lanes.value) == str(scalar.value)
    with pytest.raises(ex.EvalDomainError, match="division by zero"):
        fn.lanes(rows[[0, 3]])
    with pytest.raises(ex.EvalDomainError, match="not finite"):
        fn.lanes(np.array([[2.0], [np.inf]]))
    # numpy's 1 / 0 = inf would give a finite 1 / inf = 0; Python raises
    fn = ex.compile_exprs([ex.parse("1/(1/x)", ("x",))])
    with pytest.raises(ex.EvalDomainError, match="division by zero"):
        fn.lanes(np.array([[2.0], [0.0]]))
    # x * x overflows to inf, which numpy stops at and Python carries on
    # with; 1 / inf = 0 is finite, so the scalar value stands
    fn = ex.compile_exprs([ex.parse("1/(x*x)", ("x",))])
    assert np.array_equal(fn.lanes(np.array([[2.0], [1e200]])), [[0.25, 0.0]])


def test_squares_are_products():
    # x^2 is x * x on the compiled, lane and interpreted paths, bit for bit;
    # math.pow(x, 2.0) differs from x * x in the last bit for some doubles
    rng = np.random.default_rng(59)
    xs = rng.standard_normal(20000) * 10.0 ** rng.uniform(-150, 150, 20000)
    fn = ex.compile_exprs([ex.parse("x^2", ("x",)), ex.parse("x*x", ("x",))])
    lanes = fn.lanes(xs[:, None])
    assert np.array_equal(lanes[0], lanes[1])
    assert np.array_equal(lanes[0], xs * xs)
    for x in xs[:2000].tolist():
        square, product = fn((x,))
        assert square == product == ex.evaluate(ex.parse("x^2", ("x",)), (x,)) == x * x
    # x^2 overflows to inf, and 1 / inf = 0 is finite, as for 1/(x*x) in
    # test_lanes_fall_back_to_the_scalar_path
    fn = ex.compile_exprs([ex.parse("1/(x^2)", ("x",))])
    assert fn((1e200,)) == (0.0,)
    assert np.array_equal(fn.lanes(np.array([[2.0], [1e200]])), [[0.25, 0.0]])
    # other exponents keep math.pow
    prog = ex.Program()
    prog.value(ex.parse("x^3 + x^2", ("x",)))
    assert prog.lines == ["    t0 = q[0]", "    t1 = _pow(t0, 3.0)", "    t2 = t0 * t0",
                          "    t3 = t1 + t2"]


def test_compiled_finiteness_guard():
    # finite values whose sum overflows are returned; a value that is inf
    # or NaN still raises
    fn = ex.compile_exprs([ex.parse("x", ("x",)), ex.parse("x", ("x",)),
                           ex.parse("y", ("x", "y"))])
    assert fn((1e308, 1.0)) == (1e308, 1e308, 1.0)
    assert fn((-1e308, 1e308)) == (-1e308, -1e308, 1e308)
    for q in ((np.inf, 1.0), (1.0, -np.inf), (np.nan, 1.0), (1.0, np.nan), (np.inf, -np.inf)):
        with pytest.raises(ex.EvalDomainError, match="compiled expression not finite"):
            fn(q)


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
    # _emit's cache holds every node it emitted, so a node freed during code
    # generation cannot hand its id, and a stale local, to a new node
    prog = ex.Program()
    x = ex.Coord(0, "x")
    names = [prog.value(ex.add(x, ex.Const(float(k)))) for k in range(50)]
    assert prog.compile(names)((0.5,)) == tuple(0.5 + k for k in range(50))


def test_program_emits_each_distinct_value_once():
    # equal subtrees built apart are distinct nodes with the same source
    prog = ex.Program()
    x, y = ex.Coord(0, "x"), ex.Coord(1, "y")
    first = prog.value(ex.sin(ex.mul(x, y)))
    again = prog.value(ex.sin(ex.mul(ex.Coord(0, "x"), ex.Coord(1, "y"))))
    other = prog.value(ex.sin(ex.mul(y, x)))
    assert first == again != other
    assert len(prog.lines) == 6
    assert prog.compile([first, again, other])((0.5, 2.0)) == (math.sin(1.0),) * 3


# an emitted line whose right-hand side is one operation on locals and
# literals: a binary operation or a negation (a square is a product)
_SINGLE_OP = re.compile(r"^(    t\d+ = )(\S+ [-+*/] \S+|-\S+)$", re.MULTILINE)


def _function_code(code, name):
    return next(c for c in code.co_consts if getattr(c, "co_name", None) == name)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_emitted_lines_compile_as_parenthesized_lines(kind, monkeypatch):
    # every program compiles to the bytecode of the same source with each
    # single-operation right-hand side in parentheses
    sources = {}

    def record(source, filename, mode):
        sources[source.split("(", 1)[0][4:]] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(ex, "compile", record, raising=False)
    m = pair_fixture(kind)
    q = tuple(m.center().tolist())
    # a program compiles on its second call: each evaluator is called twice
    for _ in range(2):
        m.frame_at(q)
        m.dframe_at(q)
        m._compiled("grams", lambda: m._gram_entries(1, 2))(q)
        for tag in (1, 2):
            m.gram_at(q, tag)
            m.dgram_at(q, tag)
            _program(m, tag, "flow")(q + (1.0,) * m.n)
            _program(m, tag, "energy")(q + (1.0,) * m.n)
    expected = {"_frame", "_dframe", "_grams", "_gram1", "_gram2", "_dgram1", "_dgram2",
                "_flow1", "_flow2", "_energy1", "_energy2"}
    if m.n - m.m == 1:
        for _ in range(2):
            AdaptedFrame(m, m.center())
            for pair in bracket_exprs(m):
                for fn in _completion(m, pair):
                    fn(q)
        for pair in bracket_exprs(m):
            expected |= {"_completion%d_%d" % pair, "_dcompletion%d_%d" % pair}
        _abnormal_program(m)
        expected |= {"_brackets", "_Omega"}
    assert expected <= set(sources), sorted(expected - set(sources))
    wrapped_lines = 0
    for name, source in sources.items():
        # the other emitted lines read a coordinate or call a function of
        # locals and literals
        for line in re.findall(r"^    t\d+ = .*$", source, re.MULTILINE):
            assert (_SINGLE_OP.match(line)
                    or re.match(r"^    t\d+ = (q\[\d+\]|[\w.]+\([^()]*\))$", line)), line
        wrapped, count = _SINGLE_OP.subn(r"\1(\2)", source)
        wrapped_lines += count
        ours = _function_code(compile(source, "<geoequiv-expr>", "exec"), name)
        theirs = _function_code(compile(wrapped, "<geoequiv-expr>", "exec"), name)
        assert ours.co_code == theirs.co_code, name
        assert ours.co_consts == theirs.co_consts, name
    assert wrapped_lines > 0


# ------------------------------------------------------ first call and compile

@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_first_call_walk_equals_the_compiled_program(kind):
    m = pair_fixture(kind)
    rng = np.random.default_rng(67)
    points = [tuple(m.center().tolist())] + [tuple(m.sample_point(rng).tolist())
                                             for _ in range(6)]
    points = phase_points(m, points, rng)
    programs = site_programs(m)
    names = {name for name, _exprs in programs}
    assert {"_frame", "_dframe", "_grams", "_gram1", "_gram2", "_dgram1", "_dgram2",
            "_flow1", "_flow2", "_energy1", "_energy2"} <= names
    if m.n - m.m == 1:
        assert {"_brackets", "_Omega"} <= names
        assert any(name.startswith("_dcompletion") for name in names)
    if kind == "quasi-contact":
        assert "_abn" in names
    for _name, exprs in programs:
        assert_walk_is_compiled(exprs, points)


def test_first_call_walk_raises_what_the_compiled_program_raises():
    xy = ("x", "y")
    texts = ["1/x", "log(x)", "sqrt(x)", "x^1.5", "1/(1/x)", "exp(1/x)", "exp(y*1e3)",
             "abs(x)^(-0.5)", "1/(x*x)", "x*1e300*y*1e300", "log(y) + 1/x"]
    exprs = [ex.parse(t, xy) for t in texts]
    points = [(2.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (-0.0, 2.0), (0.5, 1e3), (1e-200, 1.0),
              (1.0, -1.0)]
    for e in exprs:
        assert_walk_is_compiled([e], points)
    assert_walk_is_compiled(exprs, points)
    # at a pole and at a log of a negative number, as the compiled program
    assert call_outcome(ex.compile_exprs(exprs[:2]), (0.0, 1.0)) == (
        ex.EvalDomainError, "float division by zero")
    assert call_outcome(ex.compile_exprs(exprs[1:]), (-1.0, 1.0)) == (
        ex.EvalDomainError, "math domain error")
    # the first error in emission order wins: log(y) comes before 1/x
    assert call_outcome(ex.compile_exprs(exprs[-1:]), (0.0, -1.0)) == (
        ex.EvalDomainError, "math domain error")


def test_a_program_compiles_on_its_second_call_or_its_lanes(monkeypatch):
    compiled = []

    def record(source, filename, mode):
        compiled.append(source.split("(", 1)[0][4:])
        return compile(source, filename, mode)

    monkeypatch.setattr(ex, "compile", record, raising=False)
    x = ex.parse("1/x", ("x",))
    fn = ex.compile_exprs([x], name="_f")
    assert fn((2.0,)) == (0.5,) and compiled == []
    assert fn((4.0,)) == (0.25,) and compiled == ["_f"]
    assert fn((8.0,)) == (0.125,) and compiled == ["_f"]
    fn = ex.compile_exprs([x], name="_g")
    assert np.array_equal(fn.lanes(np.array([[2.0]])), [[0.5]]) and compiled == ["_f", "_g"]
    # a first call that raises counts as a call
    fn = ex.compile_exprs([x], name="_h")
    with pytest.raises(ex.EvalDomainError):
        fn((0.0,))
    assert fn((2.0,)) == (0.5,) and compiled == ["_f", "_g", "_h"]


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_one_point_analyze_compiles_only_the_frame_and_gram_programs(
        kind, tmp_path, monkeypatch):
    compiled = []

    def record(source, filename, mode):
        compiled.append(source.split("(", 1)[0][4:])
        return compile(source, filename, mode)

    path = str(tmp_path / "model.json")
    save_model(pair_fixture(kind), path)
    monkeypatch.setattr(ex, "compile", record, raising=False)
    assert main(["analyze", "--model", path, "--out", str(tmp_path / "report.json")]) == 0
    assert compiled == ["_frame", "_grams"]
    # on a model of its own, the second call of an evaluator compiles it,
    # and the model's cache then holds the compiled function itself
    m = load_model(path)
    q = tuple(m.center().tolist())
    evaluators = {"dframe": m.dframe_at, "gram1": lambda q: m.gram_at(q, 1),
                  "gram2": lambda q: m.gram_at(q, 2), "dgram1": lambda q: m.dgram_at(q, 1),
                  "dgram2": lambda q: m.dgram_at(q, 2)}
    if m.n - m.m == 1:
        frame = AdaptedFrame(m, m.center())
        tag = "completion%d_%d" % frame.completion_pair
        evaluators[tag] = lambda q: _completion(m, frame.completion_pair)[0](q)
        evaluators["d" + tag] = lambda q: _completion(m, frame.completion_pair)[1](q)
    for key, evaluate in evaluators.items():
        del compiled[:]
        first = evaluate(q)
        assert compiled == [] and not inspect.isfunction(m._cache[key]), key
        assert np.array_equal(evaluate(q), first) and compiled == ["_" + key], key
        assert inspect.isfunction(m._cache[key]), key
    assert all(inspect.isfunction(m._cache[key]) for key in ("frame", "grams"))


# ------------------------------------------------------ non-finite constants

@pytest.mark.parametrize("text,message", [
    ("1e400", "number 1e400 is not finite (at offset 0)"),
    ("x + -1e999", "number 1e999 is not finite (at offset 5)"),
    ("x^1e400", "number 1e400 is not finite (at offset 2)"),
    ("1e200*1e200", "constant expression is not finite (at offset 5)"),
    ("x + 1e300/1e-300", "constant expression is not finite (at offset 9)"),
    ("1.0 + 0.5*x*(1e200*1e200)", "constant expression is not finite (at offset 18)"),
])
def test_parse_rejects_non_finite_constants(text, message):
    with pytest.raises(ex.ExprSyntaxError) as exc:
        ex.parse(text, COORDS3)
    assert str(exc.value) == message
    # a large finite constant parses, and its product at run time is the
    # program's to judge
    assert ex.parse("1e200*x*1e200", COORDS3) is not None


def test_non_finite_constants_compile_to_their_values():
    # derivatives fold constants without a finiteness check: d/dx of
    # exp(-(1e200*x*1e200)) holds the constant -inf
    d = ex.differentiate(ex.parse("exp(-(1e200*x*1e200))", COORDS3), 0)
    x = ex.Coord(0, "x")
    exprs = [d, ex.exp(ex.mul(ex.Const(-math.inf), ex.mul(x, x))),
             ex.div(ex.ONE, ex.mul(x, ex.Const(math.inf))),
             ex.add(x, ex.Const(math.nan)), ex.pow_(x, math.inf)]
    # no emitted line holds a bare inf or nan, which no program defines
    prog = ex.Program()
    for e in exprs:
        prog.value(e)
    assert not [line for line in prog.lines
                if re.search(r"(?<!_m\.)\b(inf|nan)\b", line)], prog.lines
    points = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.0, 0.0)]
    for e in exprs:
        assert_walk_is_compiled([e], points)
        fn = compiled_program([e])
        for q in points:
            try:
                value = fn(q)
            except ex.EvalDomainError:
                continue
            assert np.array_equal(fn.lanes(np.array([q])), np.array([value]).T)
    assert compiled_program(exprs[1:3])((2.0, 0.0, 0.0)) == (0.0, 0.0)
