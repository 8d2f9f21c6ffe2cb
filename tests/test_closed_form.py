"""Closed-form oracle for the adapted-frame structure functions and R_j.

On pairs whose Gram matrices are diagonal in the model frame, every
eigenspace of the transition operator is spanned by a fixed set of model
fields, so the adapted frame has a closed form: X_i = sum_a R[a, i]
sqrt(g_a(center) / g_a(q)) F_a over the fields F_a of its cluster, with R the
gauge reference (the pencil's eigenvectors at the center) and g_a the gram1
entry, equal within a cluster here; the completion is the bracket of the
model fields that AdaptedFrame picked. sympy differentiates these fields
exactly, and c, cbar, X_i(alpha_j^2) and R_j are compared with point_data and
fiber_R to 1e-12.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from geoequiv import expr as ex
from geoequiv.constructors import build_levi_civita, build_quasi_contact
from geoequiv.pair import AdaptedFrame, _basis, fiber_R

from conftest import heisenberg

FIXTURES = {
    "lc2": lambda: build_levi_civita({"blocks": [{"size": 1, "beta": "1 + x1/10"},
                                                 {"size": 1, "beta": "2 + x2/10"}]}),
    "heisenberg": lambda: heisenberg(g2diag=("1 + x^2/4", "3 + y + x*y/2")),
    "quasi-contact": lambda: build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0}),
}


def _sym(e, syms, coords):
    return sympy.sympify(ex.to_string(e, coords), locals=dict(zip(coords, syms)))


def _bracket(U, V, syms):
    return [sum(U[l] * sympy.diff(V[k], syms[l]) - V[l] * sympy.diff(U[k], syms[l])
                for l in range(len(syms))) for k in range(len(syms))]


def _apply(U, f, syms):
    return sum(U[l] * sympy.diff(f, syms[l]) for l in range(len(syms)))


def _closed_form(model, frame, q):
    """(c, cbar, dalpha_sq, alpha_sq) of the adapted frame at q, from sympy."""
    n, m = model.n, model.m
    syms = sympy.symbols(model.coords, real=True)
    at = dict(zip(syms, q))
    value = lambda e: float(sympy.sympify(e).subs(at))
    F = [[_sym(c, syms, model.coords) for c in row] for row in model.frame]
    g1 = [_sym(model.gram1[a][a], syms, model.coords) for a in range(m)]
    g2 = [_sym(model.gram2[a][a], syms, model.coords) for a in range(m)]
    for tag in (1, 2):
        W = model.gram_at(tuple(q), tag)
        assert np.array_equal(W, np.diag(np.diag(W))), "diagonal Gram matrices only"
    center = dict(zip(syms, frame.center))
    R = frame.transition.vectors
    cols, lam = [], []
    for i in range(m):
        field = [sympy.Integer(0)] * n
        members = [a for a in range(m) if abs(R[a, i]) > 1e-12]
        for a in members:
            k = float(R[a, i]) * sympy.sqrt(g1[a].subs(center)) / sympy.sqrt(g1[a])
            field = [f + k * F[a][l] for l, f in enumerate(field)]
        cols.append(field)
        lam.append(g2[members[0]] / g1[members[0]])
    if n > m:
        cols.append(_bracket(*(F[a] for a in frame.completion_pair), syms))
    bars = [[f / sympy.sqrt(lam[i]) for f in cols[i]] if i < m else cols[i]
            for i in range(n)]

    def structure(fields):
        A = np.array([[value(f) for f in col] for col in fields]).T
        c = np.empty((n, n, n))
        for a in range(n):
            for b in range(n):
                br = [value(v) for v in _bracket(fields[a], fields[b], syms)]
                c[a, b] = np.linalg.solve(A, br)
        return c

    dalpha_sq = np.array([[value(_apply(cols[i], lam[j], syms)) for j in range(m)]
                          for i in range(m)])
    return structure(cols), structure(bars), dalpha_sq, np.array([value(v) for v in lam])


def _R_closed_form(n, m, c, dalpha_sq, a2, j):
    """Coefficients of R_j (1-based) built as a sympy polynomial in u."""
    u = sympy.symbols("u1:%d" % (n + 1))
    jj = j - 1
    X = dalpha_sq
    R = sympy.Integer(0)
    for i in range(m):
        if i != jj:
            R += ((a2[jj] - a2[i]) * c[i, jj, i] - 0.5 * X[jj, i]) * u[i] ** 2
            deriv = (2.0 * a2[jj] * X[i, jj] * a2[i] - a2[jj] ** 2 * X[i, i]) / a2[i] ** 2
            R += deriv / (2.0 * a2[jj]) * a2[i] * u[i] * u[jj]
        for k in range(n):
            if k != i:
                gap = a2[jj] - a2[k] if k < m else a2[jj]
                R += gap * c[i, jj, k] * u[i] * u[k]
    poly = sympy.Poly(sympy.expand(R), *u)
    index, _ = _basis(n, 2)
    out = np.zeros(len(index))
    for pos, (a, b) in enumerate(index.tolist()):
        powers = [0] * n
        powers[a] += 1
        powers[b] += 1
        out[pos] = float(poly.coeff_monomial(tuple(powers)))
    return out


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_structure_functions_and_R_match_closed_form(kind):
    model = FIXTURES[kind]()
    rng = np.random.default_rng(53)
    for _ in range(2):
        center = model.sample_point(rng)
        frame = AdaptedFrame(model, center=center)
        offset = 0.02 * (model.domain_max - model.domain_min) * rng.uniform(-1, 1, model.n)
        for q in (tuple(center), tuple(center + offset)):
            data = frame.point_data(q)
            c, cbar, dalpha_sq, a2 = _closed_form(model, frame, q)
            assert np.allclose(data.alpha_sq, a2, rtol=0, atol=1e-12), (kind, q)
            assert np.max(np.abs(data.c - c)) <= 1e-12, (kind, q)
            assert np.max(np.abs(data.cbar - cbar)) <= 1e-12, (kind, q)
            assert np.max(np.abs(data.dalpha_sq - dalpha_sq)) <= 1e-12, (kind, q)
            for j in range(1, model.m + 1):
                expect = _R_closed_form(model.n, model.m, c, dalpha_sq, a2, j)
                got = fiber_R(data, j)
                assert np.max(np.abs(got - expect)) <= 1e-12, (kind, q, j)
