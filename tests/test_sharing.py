"""Hash-consed expressions against an unshared oracle.

geometry.from_manifest parses every cell of a manifest through one table, so
equal subexpressions become one node, and every derivative build memoizes
per coordinate. Sharing must change no generated source, no value and no
node that two loads of a manifest could both hold. The oracle rebuilds the
expressions as trees (reference.unshare), which is what the parser built
before. The five benchmark fixtures (lc3, quasi-contact, gendini1,
beltrami, conformal) have the manifests of these kinds with the same
parameters.
"""

import builtins
import json
import math
from pathlib import Path

import numpy as np
import pytest

from geoequiv import expr as ex
from geoequiv import hamiltonian, pair
from geoequiv.geometry import (GeometryModel, bracket_exprs, classify_distribution,
                               from_manifest, lie_bracket, load_model, save_model,
                               to_manifest)

from conftest import PAIR_KINDS, pair_fixture
from reference import unshare


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """kind -> path of its saved manifest."""
    root = tmp_path_factory.mktemp("sharing")
    paths = {}
    for kind in PAIR_KINDS:
        paths[kind] = str(root / (kind + ".json"))
        save_model(pair_fixture(kind), paths[kind])
    return paths


def _nodes(e, seen):
    """Every node reachable from e, into the dict seen (id -> node)."""
    stack = [e]
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen[id(e)] = e
        if isinstance(e, ex.Pow):
            stack.append(e.base)
        elif isinstance(e, ex.Unary):
            stack.append(e.arg)
        elif isinstance(e, ex.Binary):
            stack.extend((e.left, e.right))
    return seen


def _occurrences(e):
    """The number of nodes of e counted as a tree."""
    if isinstance(e, ex.Pow):
        return 1 + _occurrences(e.base)
    if isinstance(e, ex.Unary):
        return 1 + _occurrences(e.arg)
    if isinstance(e, ex.Binary):
        return 1 + _occurrences(e.left) + _occurrences(e.right)
    return 1


def _cells(model):
    return [e for rows in (model.frame, model.gram1, model.gram2) for row in rows for e in row]


def _unshared_model(model):
    """model with every cell rebuilt as a tree by unshare."""
    def rows(matrix):
        return tuple(tuple(unshare(e) for e in row) for row in matrix)
    return GeometryModel(model.coords, model.rank, rows(model.frame), rows(model.gram1),
                         rows(model.gram2), model.domain_min, model.domain_max, model.meta)


def _generated_sources(model, monkeypatch):
    """The source text of every program that Program.compile compiles for
    the model: frame, both Gram matrices, gram1/2, their partials and those
    of the frame, the restricted two-form, the completions and their
    partials, and the flow and energy programs of both metrics."""
    sources = []

    def capture(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(ex, "compile", capture, raising=False)
    q = tuple(model.center())
    # a program compiles on its second call: each evaluator is called twice
    for _ in range(2):
        model.frame_at(q)
        model._compiled("grams", lambda: model._gram_entries(1, 2))(q)
        for tag in (1, 2):
            model.gram_at(q, tag)
            model.dgram_at(q, tag)
        model.dframe_at(q)
    if model.m == model.n - 1:
        classify_distribution(model)
    for _ in range(2):
        for key in sorted(bracket_exprs(model)):
            for fn in pair._completion(model, key):
                fn(q)
    y = q + (1.0,) * model.n
    for _ in range(2):
        for tag in (1, 2):
            for kind in ("flow", "energy"):
                hamiltonian._program(model, tag, kind)(y)
    monkeypatch.undo()
    return sources


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_programs_equal_those_of_unshared_expressions(kind, manifests, monkeypatch):
    # load_model's parse without its validation, which would compile the
    # frame and Gram programs before the capture starts
    shared = from_manifest(json.loads(Path(manifests[kind]).read_text()))
    sources = _generated_sources(shared, monkeypatch)
    oracle = _generated_sources(_unshared_model(shared), monkeypatch)
    assert len(sources) >= 11
    assert sources == oracle


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_two_loads_share_no_node(kind, manifests):
    first, second = load_model(manifests[kind]), load_model(manifests[kind])
    nodes_first, nodes_second = {}, {}
    for e in _cells(first):
        _nodes(e, nodes_first)
    for e in _cells(second):
        _nodes(e, nodes_second)
    assert len(nodes_first) == len(nodes_second)
    assert not set(nodes_first) & set(nodes_second)


def test_a_manifest_holds_each_distinct_subexpression_once(manifests):
    model = load_model(manifests["beltrami"])
    gram2 = [e for row in model.gram2 for e in row]
    distinct = _nodes(gram2[0], {})
    for e in gram2[1:]:
        _nodes(e, distinct)
    # the oracle's count is that of the trees the parser built before
    assert len(distinct) * 10 < sum(_occurrences(e) for e in gram2)
    # no two distinct nodes print alike
    assert len({ex.to_string(e) for e in distinct.values()}) == len(distinct)
    # equal cells are one node
    assert model.frame[0][0] is model.frame[1][1] is model.gram1[1][1]


def test_signed_zeros_stay_distinct_nodes():
    doc = {"coords": ["x", "y"], "rank": 2,
           "frame": [[1, 0.0], [-0.0, 1]],
           "gram1": [["1", "0.0"], ["-0.0", "1"]],
           "gram2": [["1 + x^2", "0.0*y"], ["(-0.0)", "1"]],
           "domain": {"min": [-1, -1], "max": [1, 1]}}
    model = from_manifest(doc)
    zero, minus_zero = model.frame[0][1], model.frame[1][0]
    assert zero is not minus_zero
    assert (math.copysign(1.0, zero.value), math.copysign(1.0, minus_zero.value)) == (1.0, -1.0)
    assert model.gram1[0][1] is zero and model.gram1[1][0] is minus_zero
    assert model.gram2[1][0] is minus_zero
    # the compiled frame keeps the sign: column i is X_{i+1}
    E = model.frame_at((0.1, 0.2))
    assert math.copysign(1.0, E[1, 0]) == 1.0 and math.copysign(1.0, E[0, 1]) == -1.0
    assert to_manifest(model)["gram1"] == [["1.0", "0.0"], ["-0.0", "1.0"]]


def test_module_constants_are_copied_into_the_table():
    # folding may return the module's ZERO or ONE; a table keeps its own
    table = {}
    zero = ex.parse("0*x", ("x",), table)
    one = ex.parse("x^0", ("x",), table)
    assert (zero.value, one.value) == (0.0, 1.0)
    assert zero is not ex.ZERO and one is not ex.ONE
    assert ex.parse("0.0", ("x",), table) is zero
    assert ex.parse("1", ("x",), table) is one


def test_a_table_keeps_coordinate_orders_apart():
    table = {}
    xy = ex.parse("x - y", ("x", "y"), table)
    yx = ex.parse("x - y", ("y", "x"), table)
    assert xy is not yx
    assert ex.evaluate(xy, (1.0, 3.0)) == -2.0 and ex.evaluate(yx, (1.0, 3.0)) == 2.0


def test_recurring_groups_parse_to_one_node():
    table = {}
    e = ex.parse("(x + y)*sin(x + y) - (x + y)/(x +y)", ("x", "y"), table)
    first = e.left.left
    assert e.left.right.arg is first
    assert e.right.left is first and e.right.right is first
    assert ex.parse("(x + y)", ("x", "y"), table) is first
    # errors are those of the text, whatever the table holds
    with pytest.raises(ex.ExprSyntaxError, match="takes exactly one argument"):
        ex.parse("sin(x + y, x)", ("x", "y"), table)
    with pytest.raises(ex.ExprSyntaxError, match=r"expected '\)' \(at offset 16\)"):
        ex.parse("(x + y) + (x + y", ("x", "y"), table)


def _seeded_points(model, count=6, seed=3):
    rng = np.random.default_rng(seed)
    return [tuple(model.sample_point(rng).tolist()) for _ in range(count)]


def _value(e, q):
    try:
        return ex.evaluate(e, q)
    except ex.EvalDomainError as exc:
        return type(exc)


def _same_values(memoized, oracle, points):
    for q in points:
        for a, b in zip(memoized, oracle):
            va, vb = _value(a, q), _value(b, q)
            assert va == vb or (va != va and vb != vb), (q, ex.to_string(b))
            if isinstance(va, float) and va == 0.0:
                assert math.copysign(1.0, va) == math.copysign(1.0, vb)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_memoized_derivatives_equal_per_entry_derivatives(kind, manifests):
    model = load_model(manifests[kind])
    n = model.n
    points = _seeded_points(model)
    entries = _cells(model)
    memoized = ex.partials(entries, n)
    oracle = [ex.differentiate(unshare(e), k) for k in range(n) for e in entries]
    assert [ex.to_string(d) for d in memoized] == [ex.to_string(d) for d in oracle]
    _same_values(memoized, oracle, points)

    # the brackets of one build share their memos; each entry's own
    # bracket and its partials are the oracle
    brackets = bracket_exprs(model)
    for (a, b), br in sorted(brackets.items()):
        alone = lie_bracket(tuple(map(unshare, model.frame[a])),
                            tuple(map(unshare, model.frame[b])), n)
        assert [ex.to_string(c) for c in br] == [ex.to_string(c) for c in alone]
        _same_values(br, alone, points)
        d_br = ex.partials(br, n)
        d_alone = [ex.differentiate(unshare(c), k) for k in range(n) for c in alone]
        _same_values(d_br, d_alone, points)
