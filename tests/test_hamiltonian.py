import io

import numpy as np
import pytest

from geoequiv import expr as ex
from geoequiv.geometry import GeometryModel
from geoequiv.hamiltonian import (quasi_impulses, hamiltonian, hamiltonian_rhs,
                                  integrate, initial_covector, arc_length, cut,
                                  write_trajectory_csv)
from geoequiv.constructors import GENERATORS, build_dini, build_quasi_contact
from geoequiv.pair import intrinsic_P

from conftest import FIELD_PARAMS, heisenberg, plane_pair
from reference import numpy_hamiltonian, numpy_hamiltonian_rhs, numpy_intrinsic_P


def euclidean_plane():
    return plane_pair(g2xx="1", g2yy="1")


def test_quasi_impulse_oracle():
    m = heisenberg()
    q = (0.0, 2.0, 0.0)
    p = np.array([1.0, 0.0, 4.0])
    u = quasi_impulses(m, None, (q, p))
    # u1 = p(X1) = p_x - y/2 p_z = 1 - 4 = -3
    assert u[0] == pytest.approx(-3.0)
    assert u[1] == pytest.approx(0.0)
    assert u[2] == pytest.approx(4.0)


def test_hamiltonian_oracles():
    m = euclidean_plane()
    assert hamiltonian(m, 1, ((0.2, -0.1), (1.0, 0.0))) == pytest.approx(0.5)

    # dual norm picks up the inverse gram: W = diag(4, 1), p = (2, 0)
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    g = ((P("4"), P("0")), (P("0"), P("1")))
    scaled = GeometryModel(coords, 2, eye, g, g, [-1, -1], [1, 1])
    assert hamiltonian(scaled, 1, ((0.0, 0.0), (2.0, 0.0))) == pytest.approx(0.5)


def test_hamiltonian_orthonormal_frame_cross_check():
    # on a gram1-orthonormal frame h = (1/2) sum u_i^2
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    rng = np.random.default_rng(3)
    from geoequiv.geometry import orthonormalize
    onf = orthonormalize(m)
    for _ in range(5):
        q = tuple(m.sample_point(rng))
        p = rng.normal(size=m.n)
        E = m.frame_at(q)[:, : m.m]
        C = np.array([[ex.evaluate(c, q) for c in row] for row in onf.coeffs])
        u_on = p @ (E @ C.T)
        assert hamiltonian(m, 1, (q, p)) == pytest.approx(0.5 * float(u_on @ u_on))


def test_straight_lines_in_flat_plane():
    m = euclidean_plane()
    tr = integrate(m, 1, (np.zeros(2), np.array([1.0, 0.0])), 1.0, samples=21)
    assert not tr.clipped
    assert np.allclose(tr.q[-1], [1.0, 0.0], atol=1e-9)
    assert np.max(np.abs(tr.q[:, 1])) < 1e-12


def test_energy_conservation_and_frame_identity():
    m = build_dini("1+x1/10", "2+x2/10")
    lam0 = initial_covector(m, 1, (0.05, -0.1), (0.6, 0.3))
    T, tol = 0.35, 1e-10
    tr = integrate(m, 1, lam0, T, tol=tol, samples=41)
    assert np.max(np.abs(tr.h - tr.h[0])) <= 10 * tol * abs(T)
    # dq/dt lies in the distribution: check against the quasi-impulse velocity
    for i in (5, 20, 35):
        q, p = tr.q[i], tr.p[i]
        qdot, _ = hamiltonian_rhs(m, 1, q, p)
        E = m.frame_at(tuple(q))
        u = p @ E[:, : m.m]
        v = np.linalg.solve(m.gram_at(tuple(q), 1), u)
        assert np.allclose(qdot, E[:, : m.m] @ v, atol=1e-12)


def test_rhs_matches_fd_of_hamiltonian():
    # canonical equations against central differences of h
    m = heisenberg("1 + x^2/2 + y^2/3")
    q = np.array([0.2, -0.3, 0.1])
    p = np.array([0.4, 0.7, -0.2])
    qdot, pdot = hamiltonian_rhs(m, 2, q, p)
    h = 1e-6
    for k in range(3):
        dp = np.zeros(3); dp[k] = h
        dh_dp = (hamiltonian(m, 2, (q, p + dp)) - hamiltonian(m, 2, (q, p - dp))) / (2 * h)
        assert qdot[k] == pytest.approx(dh_dp, rel=1e-6, abs=1e-9)
        dq = np.zeros(3); dq[k] = h
        dh_dq = (hamiltonian(m, 2, (q + dq, p)) - hamiltonian(m, 2, (q - dq, p))) / (2 * h)
        assert pdot[k] == pytest.approx(-dh_dq, rel=1e-6, abs=1e-9)


def test_time_reversal():
    m = build_dini("1+x1/10", "2+x2/10")
    lam0 = initial_covector(m, 1, (0.0, 0.1), (0.5, -0.2))
    fwd = integrate(m, 1, lam0, 0.3, samples=7)
    back = integrate(m, 1, fwd.end, -0.3, samples=7)
    assert np.allclose(back.q[-1], lam0[0], atol=1e-8)
    assert np.allclose(back.p[-1], lam0[1], atol=1e-8)


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


def test_clipping_at_boundary():
    m = euclidean_plane()                        # domain [-1.5, 1.5] x [-0.5, 0.5]
    tr = integrate(m, 1, (np.zeros(2), np.array([0.0, 1.0])), 2.0, samples=9)
    assert tr.clipped
    assert tr.t_exit == pytest.approx(0.5, abs=1e-6)
    assert tr.q[-1][1] <= 0.5 + 1e-9


def test_initial_covector_round_trip():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    q = (0.1, -0.05, 0.02, 0.1)
    E = m.frame_at(q)
    v = E[:, : m.m] @ np.array([0.5, -0.2, 0.8])
    lam0 = initial_covector(m, 1, q, v)
    qdot, _ = hamiltonian_rhs(m, 1, *lam0)
    assert np.allclose(qdot, v, atol=1e-10)
    # transverse quasi-impulse defaults to zero
    u = quasi_impulses(m, None, lam0)
    assert abs(u[-1]) < 1e-12


def test_initial_covector_rejects_off_distribution():
    m = heisenberg()
    with pytest.raises(ValueError, match="distribution"):
        initial_covector(m, 1, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))


def test_trajectory_csv_shape():
    m = euclidean_plane()
    tr = integrate(m, 1, (np.zeros(2), np.array([1.0, 0.2])), 0.3, samples=4)
    buf = io.StringIO()
    write_trajectory_csv(tr, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,q_1,q_2,p_1,p_2,h"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[-1]) == pytest.approx(hamiltonian(m, 1, (tr.q[0], tr.p[0])))


def test_integrate_rejects_bad_start():
    m = euclidean_plane()
    with pytest.raises(ValueError, match="domain"):
        integrate(m, 1, (np.array([5.0, 0.0]), np.array([1.0, 0.0])), 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        integrate(m, 1, (np.zeros(2), np.array([1.0, 0.0])), 0.0)


def _close(new, ref, rel=1e-12):
    new, ref = np.atleast_1d(new), np.atleast_1d(ref)
    return np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


# every generator, plus the conformal Heisenberg pair
@pytest.mark.parametrize("kind", sorted(FIELD_PARAMS) + ["conformal"])
def test_generated_field_matches_numpy_reference(kind):
    assert set(FIELD_PARAMS) == set(GENERATORS)
    if kind == "conformal":
        m = heisenberg("1 + x^2 + y^2")
    else:
        m = GENERATORS[kind](FIELD_PARAMS[kind])
    rng = np.random.default_rng(17)
    for i in range(8):
        q = m.sample_point(rng)
        p = rng.normal(size=m.n)
        # integrate passes lists of floats, other callers numpy arrays
        lam = (q.tolist(), p.tolist()) if i % 2 else (q, p)
        for tag in (1, 2):
            qdot, pdot = hamiltonian_rhs(m, tag, *lam)
            ref = np.concatenate(numpy_hamiltonian_rhs(m, tag, q, p))
            assert _close(np.concatenate([qdot, pdot]), ref), (kind, tag, q)
            assert _close(hamiltonian(m, tag, lam), numpy_hamiltonian(m, tag, (q, p)))
        assert _close(intrinsic_P(m, lam), numpy_intrinsic_P(m, (q, p)))


def test_cut_matches_fresh_integration():
    # curved pair, horizons long enough to leave the box either way
    m = build_dini("1+x1/10", "2+x2/10")
    aux_rate = lambda q, p: np.sqrt(max(intrinsic_P(m, (q, p)), 0.0))
    rng = np.random.default_rng(5)
    for T in (2.0, -2.0, 2.0, -2.0):
        lam0 = (m.sample_point(rng), rng.normal(size=2))
        full = integrate(m, 1, lam0, T, samples=601, aux_rate=aux_rate)
        assert full.clipped
        T_used = 0.8 * full.t_exit
        short = cut(m, 1, full, T_used, 601)
        fresh = integrate(m, 1, lam0, T_used, samples=601, aux_rate=aux_rate)
        assert not fresh.clipped
        assert np.array_equal(short.t, fresh.t)
        assert np.max(np.abs(short.q - fresh.q)) <= 1e-11
        assert np.max(np.abs(short.p - fresh.p)) <= 1e-11
        assert abs(short.aux - fresh.aux) <= 1e-11
        assert np.max(np.abs(short.h - fresh.h)) <= 1e-11
