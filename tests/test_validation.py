"""geometry.validate_model against the point-by-point loop it replaced, and a
fuzz test of load_model, `geoequiv analyze` and the first-call walk of the
programs on small random manifests."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from geoequiv import expr as ex
from geoequiv.cli import main
from geoequiv.constructors import GENERATORS
from geoequiv.geometry import (GeometryModel, ManifestError, ModelValidationError,
                               from_manifest, load_model, to_manifest, validate_model)

from conftest import (FIELD_PARAMS, PAIR_KINDS, assert_walk_is_compiled, call_outcome,
                      compiled_program, pair_fixture, phase_points, site_programs)
from reference import loop_validate_model


def outcome(check, model):
    """None when check(model) passes, else the type and message it raises."""
    try:
        check(model)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def plane(frame, gram1, gram2):
    """A model on the box [-1, 1]^2, whose probe grid has the coordinates
    -0.9, 0 and 0.9 (point 0 is (-0.9, -0.9), point 1 is (-0.9, 0.0), ...)."""
    coords = ("x", "y")
    P = lambda rows: tuple(tuple(ex.parse(s, coords) for s in row) for row in rows)
    return GeometryModel(coords, 2, P(frame), P(gram1), P(gram2), [-1, -1], [1, 1])


EYE = (("1", "0"), ("0", "1"))

# (model, what the loop raises); each case has its failure in a place where
# checking the grid program by program, or check by check, reports another
CASES = {
    # gram1 fails at point 0, the frame divides by zero at x = 0.9 (point 6)
    "gram1-indefinite-before-frame-undefined": (
        plane((("1/(x - 0.9)", "0"), ("0", "1")), (("x + 0.5", "0"), ("0", "1")), EYE),
        r"gram1 not positive definite at \[-0\.9, -0\.9\]"),
    # gram2 divides by zero at y = 0 (point 1); gram1 is fine there
    "gram2-undefined": (
        plane(EYE, EYE, (("2 + 1/y", "0"), ("0", "1"))),
        r"gram2 undefined at \[-0\.9, 0\.0\]: float division by zero"),
    # where gram2 is undefined, gram1 is not positive definite: gram1 first
    "gram1-indefinite-where-gram2-undefined": (
        plane(EYE, (("y", "0"), ("0", "1")), (("2 + 1/y", "0"), ("0", "1"))),
        r"gram1 not positive definite at \[-0\.9, -0\.9\]"),
    # the second field vanishes at the origin (point 4) only
    "frame-degenerate-at-one-point": (
        plane((("1", "0"), ("0", "x^2 + y^2")), EYE, (("2", "0"), ("0", "1"))),
        r"frame degenerate at \[0\.0, 0\.0\] \(\|det\| = 0\)"),
    # ... and gram2 is not positive definite at x = 0.9 (points 6 to 8)
    "frame-degenerate-before-gram-indefinite": (
        plane((("1", "0"), ("0", "x^2 + y^2")), EYE, (("0.5 - x", "0"), ("0", "1"))),
        r"frame degenerate at \[0\.0, 0\.0\]"),
    "gram-indefinite-at-one-point": (
        plane(EYE, EYE, (("x^2 + y^2", "0"), ("0", "1"))),
        r"gram2 not positive definite at \[0\.0, 0\.0\]"),
    # the off-diagonal entries differ at the origin only
    "gram-asymmetric-at-one-point": (
        plane(EYE, EYE, (("2", "1/2"),
                         ("1/2 + (x^2 - 0.81) * (y^2 - 0.81) / 1000", "2"))),
        r"gram2 not symmetric at \[0\.0, 0\.0\]"),
    # gram2 is asymmetric at point 0 and gram1 undefined at point 1
    "gram2-asymmetric-before-gram1-undefined": (
        plane(EYE, (("2 + 1/y", "0"), ("0", "1")),
              (("2", "1/2"), ("1/2 + (x + 0.9) / 10 + 1e-3", "2"))),
        r"gram2 not symmetric at \[-0\.9, -0\.9\]"),
    # the frame is undefined at the origin, the Grams everywhere after it
    "frame-undefined-before-gram-undefined": (
        plane((("1", "0"), ("0", "1 + 1/(x^2 + y^2)")), EYE,
              (("1 + log(x)", "0"), ("0", "1"))),
        r"gram2 undefined at \[-0\.9, -0\.9\]"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_validate_model_raises_what_the_loop_raises(case):
    model, message = CASES[case]
    expect = outcome(loop_validate_model, model)
    assert expect is not None
    assert outcome(validate_model, model) == expect
    with pytest.raises(expect[0], match=message):
        validate_model(model)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frame_scale_overflow_is_a_validation_error(tmp_path, capsys):
    # the degeneracy scale max |E|^n overflows a Python float at point 0: the
    # loop over the grid lets that OverflowError out, validate_model names
    # the point, and analyze exits 4 with one line
    model = plane((("1e200", "0"), ("0", "1")), EYE, EYE)
    with pytest.raises(OverflowError):
        loop_validate_model(model)
    message = r"frame scale out of range at [-0.9, -0.9] (max |entry|^2 with max |entry| = 1e+200)"
    with pytest.raises(ModelValidationError) as exc:
        validate_model(model)
    assert str(exc.value) == message
    path = str(tmp_path / "large.json")
    with open(path, "w") as fh:
        json.dump(to_manifest(model), fh)
    assert main(["analyze", "--model", path]) == 4
    assert capsys.readouterr().err.splitlines() == ["error: invalid model: " + message]


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_validate_model_passes_every_pair_fixture(kind):
    model = pair_fixture(kind)
    assert outcome(loop_validate_model, model) is None
    assert outcome(validate_model, model) is None


def test_loading_a_valid_model_compiles_no_single_gram_program(tmp_path):
    # the grid is checked on the joint Gram program that the pencil uses
    for name, params in FIELD_PARAMS.items():
        path = str(tmp_path / (name + ".json"))
        with open(path, "w") as fh:
            json.dump(to_manifest(GENERATORS[name](params)), fh)
        model = load_model(path)
        assert {"frame", "grams"} <= set(model._cache)
        assert not {"gram1", "gram2"} & set(model._cache)


# ---------------------------------------------------------------- fuzz

COORDS = ("x", "y", "z")

# expression templates over one coordinate a; some leave the real domain on
# part of the box (a division by zero, a log or a root of a negative number)
ENTRY = ["0", "1", "2", "-1", "1e-13", "{a}", "1 + {a}/4", "{a}^2", "1/{a}",
         "log({a})", "sqrt({a} + 0.5)", "exp({a})", "1 + {a}^2", "(1 + {a})^1.5"]


@st.composite
def manifests(draw):
    """Small manifests near a valid one: identity frame and diagonal Grams,
    some entries replaced by random ones, sometimes a malformed field."""
    n = draw(st.integers(1, 3))
    coords = list(COORDS[:n])
    rank = draw(st.integers(1, n))

    def entry():
        return draw(st.sampled_from(ENTRY)).format(a=draw(st.sampled_from(coords)))

    def matrix(size, diagonal):
        rows = [[diagonal if i == j else "0" for j in range(size)] for i in range(size)]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            rows[i][j] = entry()
        return rows

    half = draw(st.sampled_from([0.5, 1.0]))
    doc = {"coords": coords, "rank": rank, "frame": matrix(n, "1"),
           "gram1": matrix(rank, "1"), "gram2": matrix(rank, "2"),
           "domain": {"min": [-half] * n, "max": [half] * n}}
    broken = draw(st.sampled_from([None] * 16 + ["rank", "expression", "domain", "key"]))
    if broken == "rank":
        doc["rank"] = n + 1
    elif broken == "expression":
        doc["gram1"][0][0] = "x +* 1"
    elif broken == "domain":
        doc["domain"]["min"][0] = half
    elif broken == "key":
        doc["extra"] = 1
    return doc


def oracle_load(doc):
    model = from_manifest(doc)
    loop_validate_model(model)


def failure_class(result):
    """"ManifestError" or the check a ModelValidationError names, or None."""
    if result is None:
        return None
    if result[0] is ManifestError:
        return "ManifestError"
    return result[1].split(" at ")[0]


def test_fuzzed_manifests_load_as_the_loop_loads_and_analyze_exits_cleanly():
    seen = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=manifests())
    def check(doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            expect = outcome(oracle_load, doc)
            assert outcome(load_model, path) == expect
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main(["analyze", "--model", path, "--format", "json",
                             "--out", os.path.join(tmp, "report.json")])
        assert code in range(5), out.getvalue()
        assert "Traceback" not in out.getvalue()
        assert code == 4 or expect is None
        seen.add(failure_class(expect))

    check()
    # the draws reach every failure class of the validation and the manifest
    assert seen >= {None, "ManifestError", "frame undefined", "frame degenerate",
                    "gram1 undefined", "gram2 undefined", "gram1 not symmetric",
                    "gram2 not symmetric", "gram1 not positive definite",
                    "gram2 not positive definite"}


def test_fuzzed_manifests_walk_as_their_programs_compute():
    # every program of every fuzzed manifest that parses: its first call
    # (the walk) and the compiled program agree at every probe-grid point,
    # where the templates' poles and logs of negative numbers raise
    raised = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=manifests())
    def check(doc):
        try:
            model = from_manifest(doc)
        except ManifestError:
            return
        points = phase_points(model, [q.tolist() for q in model.probe_grid(margin=0.05)],
                              np.random.default_rng(0))
        for _name, exprs in site_programs(model):
            assert_walk_is_compiled(exprs, points)
            compiled = compiled_program(exprs)
            for q in points:
                result = call_outcome(compiled, q)
                if isinstance(result, tuple):
                    raised.add(result[1])

    check()
    assert {"float division by zero", "math domain error"} <= raised
