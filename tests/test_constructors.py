import numpy as np
import pytest

from geoequiv import expr as ex
from geoequiv.cli import main
from geoequiv.geometry import from_manifest, save_model, to_manifest
from geoequiv.pair import transition_operator
from geoequiv.constructors import (ConstructionError, GENERATORS, build_dini,
                                   build_levi_civita, build_gendini_case1,
                                   build_gendini_case2, build_quasi_contact,
                                   build_beltrami)

from conftest import case2_origin_chart, plane_pair
from reference import recover_beta


def test_registry_keys():
    assert set(GENERATORS) == {"levi-civita", "dini", "gendini1", "gendini2",
                               "quasi-contact", "beltrami"}


# ----------------------------------------------------------------- dini

def test_dini_flat_normal_form():
    m = build_dini(1.0, 2.0)
    q = (0.2, -0.3)
    assert np.allclose(m.gram_at(q, 1), 0.5 * np.eye(2), atol=1e-14)
    assert np.allclose(m.gram_at(q, 2), np.diag([1.0, 2.0]), atol=1e-14)
    td = transition_operator(m, q)
    assert np.allclose(td.eigenvalues, [2.0, 4.0], atol=1e-13)
    assert m.meta["generator"] == "dini"


def test_dini_rejects_unordered_betas():
    with pytest.raises(ConstructionError, match="beta1 < beta2"):
        build_dini(2.0, 1.0)
    with pytest.raises(ConstructionError, match="beta1 < beta2"):
        build_dini("1 + x1", "1.2")        # order flips inside the box


def test_dini_names_the_violating_point_in_plain_floats():
    with pytest.raises(ConstructionError) as err:
        build_dini("2", "1")
    assert str(err.value).endswith("violated at [-0.48, -0.48]")


# ------------------------------------------------------------ levi-civita

def test_levi_civita_eigenvalue_formula():
    m = build_levi_civita({"blocks": [{"size": 2, "beta": 1.5},
                                      {"size": 1, "beta": "2 + x3/10"}]})
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = tuple(m.sample_point(rng))
        b1 = 1.5
        b2 = 2.0 + q[2] / 10.0
        total = b1 * b2
        expect = np.sort([b1 * total, b1 * total, b2 * total])
        td = transition_operator(m, q)
        assert np.allclose(td.eigenvalues, expect, rtol=1e-8)
        assert tuple(len(c) for c in td.clusters) == (2, 1)


BLOCK_GRAMS = {"blocks": [{"size": 2, "beta": 1.5,
                           "gram": [["2 + x1/10", "x1*x2/20"], ["x1*x2/20", "1 + x2^2"]]},
                          {"size": 1, "beta": "2 + x3/10", "gram": [["1 + x3^2/4"]]}]}


def test_levi_civita_block_gram():
    # a block gram g_s enters both metrics, G1 = gamma_s g_s and
    # G2 = lambda_s gamma_s g_s, so the spectrum stays lambda_s per block
    m = build_levi_civita(BLOCK_GRAMS)
    rng = np.random.default_rng(5)
    for _ in range(5):
        q = tuple(m.sample_point(rng))
        x1, x2, x3 = q
        b1, b2 = 1.5, 2.0 + x3 / 10.0
        total = b1 * b2
        g1 = np.zeros((3, 3))
        g1[:2, :2] = abs(1 / b2 - 1 / b1) * np.array([[2 + x1 / 10, x1 * x2 / 20],
                                                       [x1 * x2 / 20, 1 + x2 ** 2]])
        g1[2, 2] = abs(1 / b1 - 1 / b2) * (1 + x3 ** 2 / 4)
        assert np.allclose(m.gram_at(q, 1), g1, rtol=1e-12, atol=0)
        td = transition_operator(m, q)
        assert np.allclose(td.eigenvalues, np.sort([b1 * total, b1 * total, b2 * total]),
                           rtol=1e-8)
        assert tuple(len(c) for c in td.clusters) == (2, 1)


def test_levi_civita_block_gram_validation():
    wrong_shape = {"blocks": [dict(BLOCK_GRAMS["blocks"][0], gram=[["1", "0"]]),
                              BLOCK_GRAMS["blocks"][1]]}
    with pytest.raises(ConstructionError, match=r"blocks\[0\]\.gram must be 2 x 2"):
        build_levi_civita(wrong_shape)
    other_block = {"blocks": [BLOCK_GRAMS["blocks"][0],
                              dict(BLOCK_GRAMS["blocks"][1], gram=[["1 + x1^2"]])]}
    with pytest.raises(ConstructionError,
                       match=r"blocks\[1\]\.gram\[0\]\[0\] may only use block coordinates"):
        build_levi_civita(other_block)


def test_levi_civita_block_validation():
    with pytest.raises(ConstructionError, match="blocks"):
        build_levi_civita({})
    with pytest.raises(ConstructionError, match="size"):
        build_levi_civita({"blocks": [{"size": 0, "beta": 1.0}]})
    with pytest.raises(ConstructionError, match="constant"):
        build_levi_civita({"blocks": [{"size": 2, "beta": "1 + x1/10"},
                                      {"size": 1, "beta": 3.0}]})
    with pytest.raises(ConstructionError, match="block coordinates"):
        build_levi_civita({"blocks": [{"size": 1, "beta": "1 + x2/10"},
                                      {"size": 1, "beta": 3.0}]})


# --------------------------------------------------------------- gendini 1

def test_gendini1_eigenvalues():
    m = build_gendini_case1("1 - u", "1 + v")
    for q in [(0.3, 0.7), (0.15, -1.2), (0.38, 2.0)]:
        u = q[0] * np.cos(q[1] / 2) ** 2
        v = q[0] * np.sin(q[1] / 2) ** 2
        U, V = 1 - u, 1 + v
        td = transition_operator(m, q)
        assert np.allclose(td.eigenvalues, np.sort([U * U * V, U * V * V]),
                           rtol=1e-8)


def test_gendini1_matches_separable_chart():
    # the pair is the classical separable one in x1 = sqrt(r) cos(t/2),
    # x2 = sqrt(r) sin(t/2); pull the grams back and compare entrywise
    polar = build_gendini_case1("1 - u", "1 + v")
    cart = build_dini("1 - x1^2", "1 + x2^2",
                      domain={"min": [0.05, 0.05], "max": [0.7, 0.7]})
    for (r, t) in [(0.25, 0.8), (0.12, 1.4), (0.35, 0.5)]:
        x1 = np.sqrt(r) * np.cos(t / 2)
        x2 = np.sqrt(r) * np.sin(t / 2)
        J = np.array([[np.cos(t / 2) / (2 * np.sqrt(r)),
                       -np.sqrt(r) * np.sin(t / 2) / 2],
                      [np.sin(t / 2) / (2 * np.sqrt(r)),
                       np.sqrt(r) * np.cos(t / 2) / 2]])
        for tag in (1, 2):
            Gc = cart.gram_at((x1, x2), tag)
            Gp = polar.gram_at((r, t), tag)
            assert np.allclose(J.T @ Gc @ J, Gp, atol=1e-12), tag


def test_gendini1_hypothesis_errors():
    with pytest.raises(ConstructionError, match=r"U\(0\) = V\(0\)"):
        build_gendini_case1("2 - u", "1 + v")
    with pytest.raises(ConstructionError, match=r"V'\(0\) > 0"):
        build_gendini_case1("1 + u", "1 - v")
    with pytest.raises(ConstructionError, match=r"U'\(0\) = -V'\(0\)"):
        build_gendini_case1("1 - 2*u", "1 + v")
    with pytest.raises(ConstructionError, match="r > 0"):
        build_gendini_case1("1 - u", "1 + v",
                            domain={"min": [-0.1, -1.0], "max": [0.4, 1.0]})


# --------------------------------------------------------------- gendini 2

def test_gendini2_eigenvalues():
    m = build_gendini_case2("1 + r^2")
    for q in [(0.2, 0.5), (0.33, -2.0)]:
        R = 1 + q[0] ** 2
        td = transition_operator(m, q)
        assert np.allclose(td.eigenvalues, [R, R * R], rtol=1e-8)
        assert td.N == 2


def test_gendini2_matches_origin_chart():
    # same pair written through the origin in cartesian coordinates
    polar = build_gendini_case2("1 + r^2")
    cart = case2_origin_chart()
    for (r, t) in [(0.2, 0.4), (0.35, -1.1), (0.15, 2.2)]:
        x, y = r * np.cos(t), r * np.sin(t)
        J = np.array([[np.cos(t), -r * np.sin(t)],
                      [np.sin(t), r * np.cos(t)]])
        for tag in (1, 2):
            Gc = cart.gram_at((x, y), tag)
            Gp = polar.gram_at((r, t), tag)
            assert np.allclose(J.T @ Gc @ J, Gp, atol=1e-12), tag


def test_gendini2_hypothesis_errors():
    with pytest.raises(ConstructionError, match=r"R'\(0\) = 0"):
        build_gendini_case2("1 + r")
    with pytest.raises(ConstructionError, match=r"R''\(0\)"):
        build_gendini_case2("1.0")
    with pytest.raises(ConstructionError, match=r"R\(0\) = C"):
        build_gendini_case2("2 + r^2", C=1.0)
    with pytest.raises(ConstructionError, match="positive"):
        build_gendini_case2("1 + r^2", a=-1.0)
    with pytest.raises(ConstructionError, match="r > 0"):
        build_gendini_case2("1 + r^2", domain={"min": [0.0, -1.0],
                                               "max": [0.4, 1.0]})


# ---------------------------------------------------------------- beltrami

def test_beltrami_closed_form():
    m = build_beltrami()
    for (x, y) in [(0.0, 0.0), (0.7, -0.4), (1.5, 1.1)]:
        den = (1 + x * x + y * y) ** 2
        expect = np.array([[1 + y * y, -x * y], [-x * y, 1 + x * x]]) / den
        assert np.allclose(m.gram_at((x, y), 2), expect, atol=1e-13)
        assert np.allclose(m.gram_at((x, y), 1), np.eye(2), atol=1e-15)
        rho2 = x * x + y * y
        td = transition_operator(m, (x, y))
        expect_eigs = np.sort([1 / (1 + rho2), 1 / (1 + rho2) ** 2])
        assert np.allclose(td.eigenvalues, expect_eigs, rtol=1e-10)


# ------------------------------------------------------------ quasi-contact

def test_quasi_contact_normal_form():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    assert m.coords == ("x", "y", "z", "w")
    assert m.m == 3 and m.n == 4
    q0 = (0.0, 0.0, 0.0, 0.0)
    W1 = m.gram_at(q0, 1)
    W2 = m.gram_at(q0, 2)
    assert np.allclose(W1, np.eye(3), atol=1e-14)
    # f(0) = C1/(1+C2) = 1/2
    assert np.allclose(W2, np.diag([0.5, 0.5, 0.25]), atol=1e-14)
    td = transition_operator(m, q0)
    assert np.allclose(td.eigenvalues, [0.25, 0.5, 0.5], atol=1e-13)
    # at w != 0 the grams scale by beta(w) and f(w)
    w = 0.2
    b, f = np.exp(w), 1.0 / (1.0 + np.exp(w))
    W1w = m.gram_at((0.1, -0.1, 0.05, w), 1)
    W2w = m.gram_at((0.1, -0.1, 0.05, w), 2)
    assert np.allclose(W1w, np.diag([b, b, 1.0]), atol=1e-12)
    assert np.allclose(W2w, np.diag([f * b, f * b, f * f]), atol=1e-12)


@pytest.mark.parametrize("C1,C2", [(2.0, 1.0), (0.7, 1.3)])
def test_quasi_contact_is_C1_times_the_C1_one_pair(C1, C2, tmp_path, capsys):
    # gram2 on X3 was f^2 = C1^2/(1 + C2 beta)^2, so for C1 != 1 the pair was
    # not equivalent: check-relations and verify exited 2
    m = build_quasi_contact({"beta": "exp(t)", "C1": C1, "C2": C2})
    unit = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": C2})
    rng = np.random.default_rng(61)
    for q in [m.center()] + [m.sample_point(rng) for _ in range(4)]:
        q = tuple(q.tolist())
        assert np.array_equal(m.gram_at(q, 1), unit.gram_at(q, 1))
        assert np.allclose(m.gram_at(q, 2), C1 * unit.gram_at(q, 2), rtol=1e-15, atol=0)
    path = str(tmp_path / "qc.json")
    save_model(m, path)
    assert main(["check-relations", "--model", path]) == 0
    assert main(["verify", "--model", path, "--samples", "8", "--T", "0.1",
                 "--exclude-abnormal-cone", "0.1"]) == 0


def test_quasi_contact_hypothesis_errors():
    with pytest.raises(ConstructionError, match="C1 must be positive"):
        build_quasi_contact({"C1": -1.0})
    with pytest.raises(ConstructionError, match="C2"):
        build_quasi_contact({"C2": 0.0})
    with pytest.raises(ConstructionError, match=r"beta\(0\) = 1"):
        build_quasi_contact({"beta": "2*exp(t)"})
    with pytest.raises(ConstructionError, match="unknown identifier"):
        build_quasi_contact({"beta": "t + s"})


# -------------------------------------------------------------- recover_beta

def test_recover_beta_inverts_block_eigenvalues():
    assert np.allclose(recover_beta([2.0, 4.0]), [1.0, 2.0], atol=1e-13)
    m = build_levi_civita({"blocks": [{"size": 1, "beta": "1 + x1/10"},
                                      {"size": 1, "beta": "2 + x2/10"}]})
    rng = np.random.default_rng(9)
    for _ in range(5):
        q = tuple(m.sample_point(rng))
        td = transition_operator(m, q)
        betas = recover_beta(td.eigenvalues)
        assert np.allclose(betas, [1 + q[0] / 10, 2 + q[1] / 10], rtol=1e-10)
    with pytest.raises(ValueError, match="positive"):
        recover_beta([1.0, -2.0])


# --------------------------------------------- independent projective check

def _christoffels(model, tag, q):
    n = model.n
    g = model.gram_at(tuple(q), tag)
    dg = model.dgram_at(tuple(q), tag)
    ginv = np.linalg.inv(g)
    Gam = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                Gam[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i][l, j] + dg[j][l, i] - dg[l][i, j])
                    for l in range(n))
    return Gam


def _projective_residual(model, q, rng, trials=6):
    """The metrics share unparametrized geodesics iff the connection
    difference D satisfies D(v, v) parallel to v for every v."""
    D = _christoffels(model, 2, q) - _christoffels(model, 1, q)
    worst = 0.0
    for _ in range(trials):
        v = rng.normal(size=model.n)
        v /= np.linalg.norm(v)
        rho = np.einsum("kij,i,j->k", D, v, v)
        perp = rho - (rho @ v) * v
        worst = max(worst, np.linalg.norm(perp) / max(1.0, np.linalg.norm(rho)))
    return worst


def test_riemannian_outputs_share_geodesics():
    fixtures = [
        build_dini("1+x1/10", "2+x2/10"),
        build_levi_civita({"blocks": [{"size": 2, "beta": 1.5},
                                      {"size": 1, "beta": "2 + x3/10"}]}),
        build_gendini_case1("1 - u", "1 + v"),
        build_gendini_case2("1 + r^2"),
        build_beltrami(),
    ]
    rng = np.random.default_rng(17)
    for m in fixtures:
        for _ in range(4):
            q = tuple(m.sample_point(rng))
            res = _projective_residual(m, q, rng)
            assert res < 1e-9, (m.meta.get("generator"), q, res)


def test_projective_check_flags_inequivalent_pair():
    m = plane_pair(g2xx="1+x^2")
    rng = np.random.default_rng(21)
    assert _projective_residual(m, (1.0, 0.2), rng) > 1e-2


# -------------------------------------------------------------- round trips

def test_generated_model_survives_manifest_round_trip():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 2.0, "C2": 0.5})
    doc = to_manifest(m)
    back = from_manifest(doc)
    q = (0.1, -0.05, 0.02, 0.2)
    for tag in (1, 2):
        assert np.allclose(back.gram_at(q, tag), m.gram_at(q, tag), atol=1e-14)
    assert np.allclose(back.frame_at(q), m.frame_at(q), atol=1e-14)
    assert back.meta.get("generator") == "quasi-contact"
