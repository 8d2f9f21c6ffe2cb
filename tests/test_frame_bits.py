"""The adapted frame's point data and the pointwise screens, pinned bit for bit.

On every PAIR_KINDS fixture, two frames at each of two seeded centers are
read in a fixed order: the first at its center, at two seeded points off it
and at its center again; the second off its center first and then at it.
At each read the test records, as float.hex, every AdaptedPoint field,
first and second divisibility (residuals, quotients, transverse_r),
relations_cor's checks and orbital_map's lam2 and a at a seeded covector,
or the type and message of the error a step raises. Each group of records
is compared, per fixture, by the SHA-256 of its JSON against DIGESTS,
which were written from the code before its loops were rewritten; a
rewrite that keeps the arithmetic keeps every digest.

After an intended change of the arithmetic, print the new table from the
repository root with

    PYTHONPATH=src python tests/test_frame_bits.py
"""

import hashlib
import json

import numpy as np
import pytest

from geoequiv.pair import (AdaptedFrame, first_divisibility, relations_cor,
                           second_divisibility)
from geoequiv.verifier import orbital_map

from conftest import PAIR_KINDS, pair_fixture

SEED = 3434
POINT_FIELDS = ("q", "A", "Vg", "alphas", "alpha_sq", "dalpha_sq", "clusters",
                "W1", "W2", "c", "cbar")


def _bits(x):
    """x made ready for JSON: None and the clusters (tuples of ints) as they
    are, bools as bools, numbers and arrays as their shape and float.hex
    entries."""
    if x is None or isinstance(x, tuple):
        return x
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    a = np.asarray(x, dtype=float)
    return [list(a.shape), [v.hex() for v in a.ravel().tolist()]]


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:
        return ["error", type(exc).__name__, str(exc)]


def _point(model, frame, q):
    data = frame.point_data(q)
    return {name: _bits(getattr(data, name)) for name in POINT_FIELDS}


def _first(model, frame, q):
    fd = first_divisibility(model, frame, q)
    return [_bits(fd.holds), _bits(fd.residual), _bits(fd.quotient)]


def _second(model, frame, q):
    sd = second_divisibility(model, frame, q)
    per_j = [[j] + [_bits(v) for v in rest] for j, *rest in sd.per_j]
    transverse = {str(j): [_bits(r), _bits(a2)] for j, (r, a2) in sd.transverse_r.items()}
    return [per_j, _bits(sd.holds), _bits(sd.residual), _bits(sd.spread), transverse]


def _relations(model, frame, q):
    rep = relations_cor(model, frame, q)
    return [{name: _bits(v) for name, v in rep.checks.items()}, _bits(rep.max_residual)]


def _orbital(model, frame, q, p):
    res = orbital_map(model, frame, (np.array(q), p))
    return [_bits(res.lam2[0]), _bits(res.lam2[1]), _bits(res.a)]


def records(kind):
    """{group: [record per read]} on fixture kind, in read order."""
    model = pair_fixture(kind)
    rng = np.random.default_rng(SEED)
    out = {"point": [], "first": [], "second": [], "relations": [], "orbital": []}
    for _ in range(2):
        center = model.sample_point(rng)
        offs = [tuple(center + 0.02 * (model.domain_max - model.domain_min)
                      * rng.uniform(-1, 1, model.n)) for _ in range(2)]
        p = rng.normal(size=model.n)
        c = tuple(center)
        first = AdaptedFrame(model, center=center)
        second = AdaptedFrame(model, center=center)
        for frame, q in ([(first, q) for q in (c, offs[0], offs[1], c)]
                         + [(second, offs[0]), (second, c)]):
            out["point"].append(_attempt(lambda: _point(model, frame, q)))
            out["first"].append(_attempt(lambda: _first(model, frame, q)))
            out["second"].append(_attempt(lambda: _second(model, frame, q)))
            out["relations"].append(_attempt(lambda: _relations(model, frame, q)))
            out["orbital"].append(_attempt(lambda: _orbital(model, frame, q, p)))
    return out


def digests(kind):
    return {group: hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()[:32]
            for group, recs in records(kind).items()}


DIGESTS = {
    "beltrami": {
        "point": "8701fcc013de5b0acda9aed3d5522376",
        "first": "59f5ad9f30ce60bd34f5e025f6639725",
        "second": "250c14e7ef9eefbad33e3902a1bc7bf0",
        "relations": "eed98495989770faa9ddc2eac3021ecf",
        "orbital": "1b91b42f7ec3079d1efd12f723f1832f",
    },
    "dini": {
        "point": "8b9ba9e533e7dc61097c65499c95bfe9",
        "first": "c3532235727293ab144e49b0106ad814",
        "second": "250c14e7ef9eefbad33e3902a1bc7bf0",
        "relations": "907f1dca03e1d554a2d6b23a85022581",
        "orbital": "89a49fb1eace054cad7eccf6e6216f7f",
    },
    "gendini1": {
        "point": "8f38919a60738f41dd3f3d81b98ed7a2",
        "first": "53d2b686603b190a14748a0ba1d10b2e",
        "second": "250c14e7ef9eefbad33e3902a1bc7bf0",
        "relations": "70d7d680e3bca6be80e8f625fa35692f",
        "orbital": "adbcb469e52a1cf23da7e4994bb77d91",
    },
    "gendini2": {
        "point": "1cefae8aafc24a663a358742c4cb70d4",
        "first": "24fd07c55003ba4614ab26fff563cc1e",
        "second": "250c14e7ef9eefbad33e3902a1bc7bf0",
        "relations": "e5c6399548dadbbb5aa23c2297446c4a",
        "orbital": "4139f046b818a75f49e67c8b7502ed92",
    },
    "levi-civita": {
        "point": "f4bdf7a5b7a88cb0cd2d165e975390f9",
        "first": "a93ef5f8935b57aea02a3d9351832256",
        "second": "250c14e7ef9eefbad33e3902a1bc7bf0",
        "relations": "e203deb46dc70b72f68854bfafa0ecc8",
        "orbital": "4fe69b6e7dc138580302158c26addb57",
    },
    "quasi-contact": {
        "point": "ccf0b50596edcb5febe403dcfc914f7b",
        "first": "6bacb68811613224e2a752ac48919a5d",
        "second": "dd8d25b9ac5de0be1b3b1dffb5798c59",
        "relations": "aca15084808a557ef032dc4d546111cf",
        "orbital": "90bf883a187297baf572f5836cdb91f6",
    },
    "conformal": {
        "point": "98769c5ec4362a70d48c6aaab1e8d5cd",
        "first": "5d87f062b51fcdb58999f05a48da1794",
        "second": "a361553f7872f80b56dbfc60b7bd53c2",
        "relations": "8ab9c07145f8330d9427b1cbcd4e732b",
        "orbital": "cbc6ed84a94642da40ad76b6ccb408bf",
    },
    "rotating-cluster": {
        "point": "93c58a9be191570c19981bfb765e8323",
        "first": "4caa77c0e2913a660ac27880788eed94",
        "second": "250c14e7ef9eefbad33e3902a1bc7bf0",
        "relations": "9b90bd847877e658fb38823a80e693c9",
        "orbital": "8fae12dc37a1723210801834385b8669",
    },
}


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_point_data_and_screens_keep_their_bits(kind):
    assert digests(kind) == DIGESTS[kind]


if __name__ == "__main__":
    print("DIGESTS = {")
    for kind in PAIR_KINDS:
        print('    "%s": {' % kind)
        for group, digest in digests(kind).items():
            print('        "%s": "%s",' % (group, digest))
        print("    },")
    print("}")
