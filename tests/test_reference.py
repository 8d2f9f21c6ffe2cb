import numpy as np
import pytest

from geoequiv.constructors import build_dini, build_quasi_contact
from geoequiv.hamiltonian import hamiltonian, integrate

from conftest import value
from reference import arc_length, initial_covector, orthonormalize


def test_orthonormalize_gram_is_identity():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    onf = orthonormalize(m)
    q = (0.1, 0.1, 0.0, 0.2)
    E = m.frame_at(q)[:, : m.m]
    C = np.array([[value(c, q) for c in row] for row in onf.coeffs])
    W1 = m.gram_at(q, 1)
    G = C @ W1 @ C.T
    assert np.allclose(G, np.eye(m.m), atol=1e-10)


def test_arc_length_unit_speed():
    m = build_dini("1+x1/10", "2+x2/10")
    q0 = (0.0, 0.0)
    v = np.array([0.3, 0.4])
    E = m.frame_at(q0)
    W = m.gram_at(q0, 1)
    v = v / np.sqrt(v @ W @ v)                   # unit gram1 speed
    lam0 = initial_covector(m, 1, q0, v)
    T = 0.4
    tr = integrate(m, 1, lam0, T, samples=101)
    assert hamiltonian(m, 1, lam0) == pytest.approx(0.5, abs=1e-12)
    assert arc_length(m, 1, tr) == pytest.approx(T, abs=1e-8)
