import functools
import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla

from geoequiv import expr as ex
from geoequiv import pair as pair_module
from geoequiv.geometry import GeometryModel
from geoequiv.hamiltonian import hamiltonian_rhs
from geoequiv.pair import (transition_operator, regularity_probe, AdaptedFrame,
                           AdaptedFrameError, fiber_P, intrinsic_P, fiber_value,
                           fiber_hP, fiber_R, fiber_Q, first_divisibility,
                           second_divisibility, relations_cor, _basis,
                           _CLUSTER_TOL, _cluster_indices, _gap_objective,
                           _gauge, _pencil, _times_u)
from geoequiv.constructors import (build_beltrami, build_dini,
                                   build_levi_civita, build_gendini_case1,
                                   build_quasi_contact)

from conftest import (FIELD_PARAMS, PAIR_KINDS, case2_origin_chart, heisenberg,
                      pair_fixture, plane_pair)
from reference import (adapted_impulses, dict_divide, dict_fiber_hP, dict_fiber_P,
                       dict_fiber_Q, dict_fiber_R, eigh_regularity_probe, eigh_split_gap,
                       eager_probe_directions, fd_structure_functions, initial_covector,
                       loop_gauge, loop_regularity_probe)


# ------------------------------------------------------------- transition

def test_transition_flat_dini():
    m = build_dini(1.0, 2.0)
    td = transition_operator(m, (0.1, -0.2))
    assert np.allclose(td.eigenvalues, [2.0, 4.0], atol=1e-12)
    assert td.N == 2
    assert np.allclose(td.vectors.T @ td.gram1 @ td.vectors, np.eye(2), atol=1e-12)
    S = np.linalg.solve(td.gram1, td.gram2)
    assert np.allclose(S @ td.vectors,
                       td.vectors @ np.diag(td.eigenvalues), atol=1e-12)


def test_transition_clustering():
    def pair(lam2):
        coords = ("x", "y")
        P = lambda s: ex.parse(s, coords)
        frame = ((P("1"), P("0")), (P("0"), P("1")))
        g1 = ((P("1"), P("0")), (P("0"), P("1")))
        g2 = ((P("2"), P("0")), (P("0"), P(repr(lam2))))
        return GeometryModel(coords, 2, frame, g1, g2, [-1, -1], [1, 1])

    td = transition_operator(pair(2 * (1 + 1e-9)), (0.0, 0.0))
    assert td.N == 1                              # merged within relative 1e-7
    assert td.clusters == ((0, 1),)
    td = transition_operator(pair(2 * (1 + 1e-4)), (0.0, 0.0))
    assert td.N == 2
    assert td.clusters == ((0,), (1,))


def test_transition_requires_positive_pair():
    m = plane_pair(g2xx="x", g2yy="1", extent=(1.5, 0.5))
    with pytest.raises(ValueError, match="positive"):
        transition_operator(m, (-1.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda m, q: transition_operator(m, q),
    lambda m, q: AdaptedFrame(m, center=q),
    lambda m, q: regularity_probe(m, q, radius=0.05),
], ids=["transition_operator", "AdaptedFrame", "regularity_probe"])
def test_non_finite_point_raises_before_arithmetic(monkeypatch, call, bad):
    # quasi-contact's Gram entries do not depend on y, so (0, inf, 0, 0)
    # would evaluate; the point is refused before the pencil is formed
    m = pair_fixture("quasi-contact")

    def no_pencil(*args):
        raise AssertionError("pencil formed at a non-finite point")

    monkeypatch.setattr(pair_module, "_pencil", no_pencil)
    q = np.array([0.0, bad, 0.0, 0.0])
    with pytest.raises(ValueError, match=re.escape(
            "point must be finite, got [0.0, %r, 0.0, 0.0]" % bad)):
        call(m, q)


def test_regularity_probe_refuses_a_point_outside_the_domain():
    # at (0.45, 0, 0), outside the box [-0.4, 0.4]^3, the probe once said
    # `regular` from no ball sample at all
    m = pair_fixture("levi-civita")
    for q in ((0.45, 0.0, 0.0), (10.0, 10.0, 10.0), (0.0, -0.4 - 1e-15, 0.0)):
        with pytest.raises(ValueError, match=re.escape(
                "point outside the model domain, got %s" % (list(q),))):
            regularity_probe(m, q, radius=0.05)
    rep = regularity_probe(m, (0.4, 0.0, 0.0), radius=0.05)
    assert rep.samples_used == 40


# ----------------------------------------------------------- pencil kernel

def _pencil_matches_eigh(kind, vectors):
    # with vectors, eigh(W2, W1)'s eigenpairs; without, the eigenvalues of
    # eigh(W2, W1, eigvals_only=True), which differ from them in the last
    # bits for m >= 3
    m = pair_fixture(kind)
    rng = np.random.default_rng(31)
    for _ in range(8):
        q = m.sample_point(rng).tolist()
        W1, W2, lams, V = _pencil(m, q, vectors)
        assert np.array_equal(W1, m.gram_at(q, 1))
        assert np.array_equal(W2, m.gram_at(q, 2))
        if vectors:
            ref_lams, ref_V = sla.eigh(W2, W1)
            assert np.array_equal(V, ref_V), (kind, q)
        else:
            ref_lams = sla.eigh(W2, W1, eigvals_only=True)
            assert V is None
        assert np.array_equal(lams, ref_lams), (kind, q, vectors)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_pencil_kernel_matches_eigh(kind):
    _pencil_matches_eigh(kind, vectors=True)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_eigenvalue_kernel_matches_eigh(kind):
    # the probe's eigenvalues-only mode of the same kernel
    _pencil_matches_eigh(kind, vectors=False)


def test_pencil_kernel_rejects_indefinite_gram1():
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    g1 = ((P("x"), P("0")), (P("0"), P("1")))
    m = GeometryModel(coords, 2, eye, g1, eye, [-1, -1], [1, 1])
    q = (-0.5, 0.25)
    with pytest.raises(np.linalg.LinAlgError):
        sla.eigh(m.gram_at(q, 2), m.gram_at(q, 1))
    for vectors in (True, False):
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"gram1 not positive definite at \[-0.5, 0.25\]"):
            _pencil(m, q, vectors)
    with pytest.raises(np.linalg.LinAlgError, match="gram1"):
        transition_operator(m, np.array(q))
    assert _gap_objective(m, [1])(list(q)) == np.inf


def test_pencil_kernel_raises_what_gram_at_raises():
    # one compiled program gives both Gram matrices; where it raises, the
    # error is the one of the first gram_at call that raises. In the last
    # case gram1 is inf and gram2 divides by zero: the joint program meets
    # the division first, gram_at(q, 1) reports the value that is not finite
    for g1xx, g2xx, bad in (("1/(x-0.25)", "1", 1), ("1", "log(x)", 2),
                            ("1e300/(x-0.25+1e-300)", "1/(x-0.25)", 1)):
        coords = ("x", "y")
        P = lambda s: ex.parse(s, coords)
        eye = ((P("1"), P("0")), (P("0"), P("1")))
        g1 = ((P(g1xx), P("0")), (P("0"), P("1")))
        g2 = ((P(g2xx), P("0")), (P("0"), P("1")))
        m = GeometryModel(coords, 2, eye, g1, g2, [-1, -1], [1, 1])
        q = (0.25, 0.0) if bad == 1 else (-0.5, 0.0)
        with pytest.raises(ex.EvalDomainError) as ref:
            m.gram_at(q, bad)
        for vectors in (True, False):
            with pytest.raises(type(ref.value)) as got:
                _pencil(m, q, vectors)
            assert str(got.value) == str(ref.value)
        assert _gap_objective(m, [1])(list(q)) == np.inf


def test_probe_kernel_raises_in_sampling_and_objective_is_inf():
    # left of x = 0.01 gram2's root raises first in the joint program, while
    # gram_at(q, 1) finds gram1's entry, inf there, not finite: sampling
    # gives gram_at's error and the objective inf
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    g1 = ((P("1 + (1e200*(0.01 - x) + abs(1e200*(0.01 - x)))*1e200"), P("0")),
          (P("0"), P("1")))
    g2 = ((P("2 + (x - 0.01)^0.5"), P("0")), (P("0"), P("1")))
    m = GeometryModel(coords, 2, eye, g1, g2, [-1, -1], [1, 1])
    with pytest.raises(ex.EvalDomainError, match="out of real domain"):
        m._compiled("grams", lambda: m._gram_entries(1, 2))((0.0, 0.0))
    for vectors in (True, False):
        with pytest.raises(ex.EvalDomainError, match="^compiled expression not finite$"):
            _pencil(m, [0.0, 0.0], vectors)
    with pytest.raises(ex.EvalDomainError, match="^compiled expression not finite$"):
        regularity_probe(m, (0.03, 0.0), radius=0.05)
    objective = _gap_objective(m, [1])
    assert objective([0.0, 0.0]) == np.inf
    assert 0 < objective([0.02, 0.0]) < np.inf


@pytest.mark.parametrize("m", (1, 2, 3))
def test_gauge_inverse_factor_matches_solve_triangular(m):
    # _gauge calls BLAS trsm itself; its U^-1 is solve_triangular's, bit
    # for bit, for split and clustered spectra
    rng = np.random.default_rng(60 + m)
    spectra = [rng.uniform(0.5, 3.0, m), np.full(m, 2.0), np.array([1.0, 1.0, 2.5][:m])]
    for lam in spectra:
        for _ in range(10):
            B = rng.normal(size=(m, m))
            W1 = B @ B.T + m * np.eye(m)
            L = np.linalg.cholesky(W1)
            Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
            W2 = L @ Q @ np.diag(lam) @ Q.T @ L.T
            W2 = 0.5 * (W2 + W2.T)
            lams, V = sla.eigh(W2, W1)
            clusters = _cluster_indices(lams, _CLUSTER_TOL)
            same = np.zeros((m, m), dtype=bool)
            for idx in clusters:
                same[np.ix_(idx, idx)] = True
            reference = V + 0.05 * rng.normal(size=(m, m))
            _, (_, _, Mc, Uinv, _) = _gauge(V, same, W1, reference, (0.0,), (0.0,))
            U = np.linalg.cholesky(Mc.T @ Mc).T
            assert np.array_equal(Uinv, sla.solve_triangular(U, np.eye(m))), (m, lam)
        if m > 1 and lam[0] == lam[1]:
            assert max(len(idx) for idx in clusters) >= 2


@pytest.mark.parametrize("diagonal", [(2.0, 0.0, 3.0), (2.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                      (2.0, np.nan, 3.0), (np.inf, 1.0, 3.0)])
def test_gauge_inverse_factor_checks_match_solve_triangular(monkeypatch, diagonal):
    # the checks before trsm raise what solve_triangular raises: an exact
    # zero on U's diagonal names the first one, and U must be finite
    L = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.25, -0.5, 1.0]])
    np.fill_diagonal(L, diagonal)
    with pytest.raises((ValueError, np.linalg.LinAlgError)) as ref:
        sla.solve_triangular(L.T, np.eye(3))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: L)
    eye = np.eye(3)
    with pytest.raises(type(ref.value)) as got:
        _gauge(eye, np.ones((3, 3), dtype=bool), eye, eye, (0.0,), (0.0,))
    assert str(got.value) == str(ref.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_points_reach_compiled_evaluators_as_floats():
    # as numpy scalars, 1/inf would cancel the pole of 1/(x + 0.9) and
    # gram2 would read a finite, wrong 2 at x = -0.9
    m = plane_pair(g2xx="2 + 1/(1/(x + 0.9))")
    q = np.array([-0.9, 0.0])
    with pytest.raises(ex.EvalDomainError, match="float division by zero"):
        transition_operator(m, q)
    fr = AdaptedFrame(m, center=np.array([0.5, 0.0]))
    with pytest.raises(ex.EvalDomainError, match="float division by zero"):
        fr.point_data(q)
    with pytest.raises(ex.EvalDomainError, match="float division by zero"):
        initial_covector(m, 2, q, [1.0, 0.0])
    p = np.array([1.0, 0.0])
    with pytest.raises(ex.EvalDomainError, match="float division by zero"):
        intrinsic_P(m, np.concatenate([q, p]))
    with pytest.raises(ex.EvalDomainError, match="float division by zero"):
        hamiltonian_rhs(m, 2, np.concatenate([q, p]), np.empty(4))


# ------------------------------------------------------------- regularity

def test_regularity_battery_origin_chart():
    cart = case2_origin_chart()
    # eigenvalues merge exactly at the origin, so a probe is non-regular
    # precisely when the ball contains it
    battery = [((0.0, 0.0), 0.08, False), ((0.05, 0.04), 0.1, False),
               ((0.12, 0.0), 0.13, False), ((0.2, 0.2), 0.1, True),
               ((-0.25, 0.1), 0.15, True)]
    for center, radius, expect_regular in battery:
        rep = regularity_probe(cart, center, radius=radius)
        assert rep.regular == expect_regular, (center, radius, rep.N_values)
        if not expect_regular and center != (0.0, 0.0):
            # split at the center, so the merge point must be witnessed
            assert np.linalg.norm(rep.witness) < 1e-3
        if expect_regular:
            assert rep.gap_min > 1e-3


def test_regularity_regular_fixture():
    m = build_dini("1+x1/10", "2+x2/10")
    rep = regularity_probe(m, (0.1, 0.2), radius=0.05)
    assert rep.regular
    assert rep.gap_min > 1e-3


@pytest.mark.parametrize("kind", ["levi-civita", "quasi-contact"])
def test_gap_root_search_stops_where_the_gaps_stay_open(monkeypatch, kind):
    # the split gaps stay above 0.2 in these balls. Each of the five starts
    # asks for its own gap, n differences and one Newton trial, which does
    # not halve the gap; a search creeping along the box edge would ask for
    # hundreds of points
    m = pair_fixture(kind)
    asked = []
    pencil = pair_module._pencil

    def recording_pencil(model, qt, vectors):
        if not vectors:
            asked.append(list(qt))
        return pencil(model, qt, vectors)

    monkeypatch.setattr(pair_module, "_pencil", recording_pencil)
    rep = regularity_probe(m, tuple(m.center()), radius=0.05)
    assert rep.regular and rep.samples_used == 40 and rep.gap_min > 0.2
    assert len(asked) - 40 <= 5 * (m.n + 2)


def test_gap_root_search_finds_the_merge_point():
    # non-regular balls whose center is split: the eigenvalues merge at the
    # origin alone (the origin chart of the case-2 pair, the Beltrami umbilic)
    cart = case2_origin_chart()
    for m, center, radius in [(cart, (0.05, 0.04), 0.1), (cart, (0.12, 0.0), 0.13),
                              (pair_fixture("beltrami"), (0.03, 0.01), 0.05)]:
        rep = regularity_probe(m, center, radius=radius)
        assert not rep.regular, center
        assert np.linalg.norm(rep.witness) < 1e-3, center
        assert rep.gap_min < _CLUSTER_TOL, center
        boundaries = [grp[0] for grp in transition_operator(m, center).clusters[1:]]
        gap = _gap_objective(m, boundaries)
        assert gap(rep.witness.tolist()) == rep.gap_min, center


def test_gap_root_search_far_from_the_origin():
    # gram2 = diag(1 + (x - c)^2, 1) merges on the line x = c. At |c| = 1e9
    # a difference step of 1e-8 rounds away (c + 1e-8 == c), so the search
    # steps by at least one unit in the last place
    for c in (1e9, -1e9):
        m = plane_pair(g2xx="1 + (x - %r)^2" % c, extent=([c - 1, -0.5], [c + 1, 0.5]))
        rep = regularity_probe(m, (c + 0.03, 0.01), radius=0.05)
        assert not rep.regular and rep.gap_min < _CLUSTER_TOL, c
        assert abs(rep.witness[0] - c) < 1e-3, c


def probe_matching_reference(m, q, radius=0.05):
    """regularity_probe at q, after checking it against the eigh reference:
    the same N values, samples and N at the witness, a witness on both sides
    or on neither; a witness's gap below cluster_tol, and without one the
    smallest gap either search found above it."""
    rep = regularity_probe(m, q, radius=radius)
    N_values, used, gap_min, witness, N_witness = eigh_regularity_probe(m, q, radius)
    assert (rep.N_values, rep.samples_used, rep.N_witness) == (N_values, used, N_witness), q
    assert (rep.witness is None) == (witness is None), q
    assert (rep.gap_min is None) == (gap_min is None), q
    if rep.witness is not None:
        boundaries = [grp[0] for grp in transition_operator(m, q).clusters[1:]]
        assert eigh_split_gap(m, rep.witness, boundaries) < _CLUSTER_TOL, q
    elif gap_min is not None:
        assert rep.gap_min > _CLUSTER_TOL and gap_min > _CLUSTER_TOL, q
    return rep


@pytest.mark.parametrize("kind", sorted(FIELD_PARAMS) + ["conformal"])
def test_regularity_probe_matches_eigh_reference(kind):
    m = pair_fixture(kind)
    rng = np.random.default_rng(37)
    center = probe_matching_reference(m, tuple(m.center()))
    for _ in range(2):
        probe_matching_reference(m, tuple(m.sample_point(rng)))
    if kind == "beltrami":
        # the umbilic (origin) lies in the ball, and the merge is witnessed
        rep = probe_matching_reference(m, (0.03, 0.01))
        assert rep.witness is not None and rep.N_values == (1, 2)
    if kind == "conformal":
        # one merged cluster at the center: no boundary, so no refine step
        assert center.N_center == 1 and center.gap_min is None


def _probe_outcome(probe, m, q, radius):
    """Every field of probe's report at q, floats as their bits, or the type
    and message of its error."""
    try:
        rep = probe(m, q, radius)
    except Exception as exc:
        return type(exc), str(exc)
    witness = None if rep.witness is None else [v.hex() for v in rep.witness.tolist()]
    gap_min = None if rep.gap_min is None else rep.gap_min.hex()
    return (rep.N_center, rep.N_values, rep.regular, rep.samples_used, gap_min,
            witness, rep.N_witness)


@pytest.mark.parametrize("radius", [0.05, 0.3])
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_regularity_probe_equals_the_drawing_loop_bit_for_bit(kind, radius):
    # the probe reads its ball samples from a table per dimension and keeps
    # the gaps of its samples; the loop drew them afresh per probe
    m = pair_fixture(kind)
    rng = np.random.default_rng(4100)
    points = [tuple(m.center().tolist())]
    points += [tuple(m.sample_point(rng).tolist()) for _ in range(8)]
    for q in points:
        assert (_probe_outcome(regularity_probe, m, q, radius)
                == _probe_outcome(loop_regularity_probe, m, q, radius)), q


def _hex_table(entries):
    return [([v.hex() for v in u], s.hex()) for u, s in entries]


def _fresh_probe_table(monkeypatch):
    """A fresh probe table per dimension; returns the list of the entries
    that it draws."""
    drawn = []
    draws = pair_module._probe_draws

    def counted(n):
        for entry in draws(n):
            drawn.append(entry)
            yield entry

    monkeypatch.setattr(pair_module, "_probe_draws", counted)
    monkeypatch.setattr(pair_module, "_probe_directions",
                        functools.cache(pair_module._probe_directions.__wrapped__))
    return drawn


def test_probe_table_draws_the_eager_table_lazily(monkeypatch):
    # a read draws only the entries that it reaches, in the order, and to
    # the bits, of the table drawn whole
    drawn = _fresh_probe_table(monkeypatch)
    for n in (2, 3, 4):
        eager = eager_probe_directions(n)
        drawn.clear()
        head = list(itertools.islice(pair_module._probe_directions(n).__copy__(), 7))
        assert len(drawn) == 7
        assert _hex_table(head) == _hex_table(eager[:7])
        assert _hex_table(pair_module._probe_directions(n).__copy__()) == _hex_table(eager)
        assert len(drawn) == len(eager)


@pytest.mark.parametrize("kind", ["levi-civita", "gendini1", "beltrami", "quasi-contact",
                                  "conformal"])
def test_probe_at_a_benchmark_center_draws_only_what_it_reads(kind, monkeypatch):
    # the analyze benchmark's fixtures, at their centers with analyze's
    # radius: the probe reads entries until _PROBE_SAMPLES of them lie in
    # the domain, and draws exactly those
    drawn = _fresh_probe_table(monkeypatch)
    m = pair_fixture(kind)
    q = m.center().tolist()
    rep = regularity_probe(m, q, radius=0.05)
    inside = [m.in_domain([c + d * 0.05 * s for c, d in zip(q, u)])
              for u, s in eager_probe_directions(m.n)]
    read = next(k + 1 for k in range(len(inside))
                if sum(inside[:k + 1]) == pair_module._PROBE_SAMPLES)
    assert rep.samples_used == pair_module._PROBE_SAMPLES
    assert len(drawn) == read


@pytest.mark.parametrize("m,q,radius,regular", [
    (case2_origin_chart(), (0.0, 0.0), 0.08, False),
    (case2_origin_chart(), (0.05, 0.04), 0.1, False),
    (case2_origin_chart(), (0.44, -0.44), 0.3, True),
    (pair_fixture("beltrami"), (0.0, 0.0), 0.05, False),
    (pair_fixture("beltrami"), (0.03, 0.01), 0.05, False),
], ids=["case2-origin", "case2-witness", "case2-corner", "beltrami-umbilic",
        "beltrami-witness"])
def test_regularity_probe_equals_the_drawing_loop_at_merge_points(m, q, radius, regular):
    # the case-2 eigenvalues merge at the origin, the Beltrami ones at the
    # umbilic; most samples of the corner ball leave the domain
    outcome = _probe_outcome(regularity_probe, m, q, radius)
    assert outcome == _probe_outcome(loop_regularity_probe, m, q, radius)
    assert outcome[2] is regular


@pytest.mark.parametrize("tag", [1, 2])
def test_regularity_probe_counts_non_positive_samples(tag):
    # gram<tag> = diag(x, 1) turns indefinite on the half of the ball x < 0
    coords = ("x", "y")
    P = lambda s: ex.parse(s, coords)
    eye = ((P("1"), P("0")), (P("0"), P("1")))
    dip = ((P("x"), P("0")), (P("0"), P("1")))
    grams = (dip, eye) if tag == 1 else (eye, dip)
    m = GeometryModel(coords, 2, eye, *grams, [-1, -1], [1, 1])
    assert probe_matching_reference(m, (0.02, 0.1)).N_values == (-1, 2)


# ------------------------------------------------------------ adapted frame

def test_adapted_frame_eigen_properties():
    m = build_gendini_case1("1 - u", "1 + v")
    fr = AdaptedFrame(m, center=np.array([0.25, 0.4]))
    for q in [(0.25, 0.4), (0.27, 0.35), (0.22, 0.48)]:
        data = fr.point_data(q)
        # gram1-orthonormal eigenvectors of the transition operator
        assert np.allclose(data.Vg.T @ data.W1 @ data.Vg, np.eye(m.m), atol=1e-10)
        S = np.linalg.solve(data.W1, data.W2)
        for i in range(m.m):
            assert np.allclose(S @ data.Vg[:, i], data.alpha_sq[i] * data.Vg[:, i],
                               atol=1e-9)
        # coordinate frame consistent with the model frame
        E = m.frame_at(q)
        assert np.allclose(data.A[:, :m.m], E[:, :m.m] @ data.Vg, atol=1e-12)


def test_adapted_frame_gauge_is_smooth():
    m = build_gendini_case1("1 - u", "1 + v")
    fr = AdaptedFrame(m, center=np.array([0.25, 0.4]))
    h = 1e-6
    A0 = fr.at((0.25, 0.4))[0]
    A1 = fr.at((0.25 + h, 0.4))[0]
    assert np.max(np.abs(A1 - A0)) < 1e-4          # no branch flips


def test_adapted_frame_completion_is_transverse():
    m = heisenberg()
    fr = AdaptedFrame(m, center=np.zeros(3))
    q = (0.1, -0.2, 0.05)
    A = fr.at(q)[0]
    # completion column is [X1, X2] = d/dz
    assert np.allclose(A[:, 2], [0.0, 0.0, 1.0], atol=1e-12)
    coeff = np.linalg.solve(m.frame_at(q), A[:, 2])
    assert abs(coeff[-1]) > 0.5


def test_adapted_frame_completion_needs_bracket():
    # integrable distribution: no bracket leaves D, completion undefined
    coords = ("x", "y", "z")
    P = lambda s: ex.parse(s, coords)
    frame = ((P("1"), P("0"), P("0")),
             (P("0"), P("1"), P("0")),
             (P("0"), P("0"), P("1")))
    g1 = ((P("1"), P("0")), (P("0"), P("1")))
    g2 = ((P("2"), P("0")), (P("0"), P("8")))
    m = GeometryModel(coords, 2, frame, g1, g2, [-1] * 3, [1] * 3)
    with pytest.raises(AdaptedFrameError, match="completion"):
        AdaptedFrame(m, center=np.zeros(3))


def test_adapted_frame_multiplicity_mismatch_raises():
    cart = case2_origin_chart()
    fr = AdaptedFrame(cart, center=np.array([0.2, 0.1]))   # split at center
    with pytest.raises(AdaptedFrameError, match="multiplicity"):
        fr.point_data((0.0, 0.0))                          # merged at origin


def test_adapted_frame_impulses_match_pairing():
    m = heisenberg(g2diag=("1", "4"))
    fr = AdaptedFrame(m, center=np.zeros(3))
    q = np.array([0.1, 0.0, -0.2])
    p = np.array([0.3, -0.8, 1.1])
    u = adapted_impulses(fr, (q, p))
    A = fr.at(q)[0]
    assert np.allclose(u, [p @ A[:, i] for i in range(3)], atol=1e-14)


# the stencil's O(h^4) error is about 1e-10 here, and fd_step = 1e-3 would
# reach 1e-7 on gendini1
FD_ORACLE_STEP = 2e-4


@pytest.mark.parametrize("kind", PAIR_KINDS + ["split-alpha"])
def test_point_data_matches_finite_differences(kind):
    m = pair_fixture(kind)
    rng = np.random.default_rng(29)
    for _ in range(8):
        center = m.sample_point(rng)
        fr = AdaptedFrame(m, center=center)
        # at the center and off it, where the reference leaves the eigenspaces
        offset = 0.02 * (m.domain_max - m.domain_min) * rng.uniform(-1, 1, m.n)
        for q in (tuple(center), tuple(center + offset)):
            data = fr.point_data(q)
            c, cbar, dalpha_sq = fd_structure_functions(fr, q, FD_ORACLE_STEP)
            scale = max(1.0, np.max(np.abs(c)), np.max(np.abs(cbar)))
            assert np.max(np.abs(data.c - c)) <= 1e-8 * scale, (kind, q)
            assert np.max(np.abs(data.cbar - cbar)) <= 1e-8 * scale, (kind, q)
            scale = max(1.0, np.max(np.abs(dalpha_sq)))
            assert np.max(np.abs(data.dalpha_sq - dalpha_sq)) <= 1e-8 * scale, (kind, q)
    if kind in ("levi-civita", "quasi-contact", "conformal", "rotating-cluster"):
        # the in-cluster gauge derivative is exercised, not only Nelson's case
        assert max(len(idx) for idx in fr.transition.clusters) == 2



@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_gauge_matches_loop_oracle(kind):
    m = pair_fixture(kind)
    rng = np.random.default_rng(43)
    for _ in range(4):
        center = m.sample_point(rng)
        fr = AdaptedFrame(m, center=center)
        offset = 0.02 * (m.domain_max - m.domain_min) * rng.uniform(-1, 1, m.n)
        for q in (tuple(center), tuple(center + offset)):
            A, Vg, _, _, W1 = fr.at(q)[:5]
            ref_A, ref_Vg = loop_gauge(fr, q)
            assert np.max(np.abs(Vg - ref_Vg)) <= 1e-13 * np.max(np.abs(ref_Vg)), (kind, q)
            assert np.max(np.abs(A - ref_A)) <= 1e-13 * np.max(np.abs(ref_A)), (kind, q)
            assert np.max(np.abs(Vg.T @ W1 @ Vg - np.eye(m.m))) <= 1e-14, (kind, q)


def test_gauge_degenerates_when_eigenvectors_rotate_away():
    # gram2 = I + w w^T with w = (sin x, -cos x): the eigenvectors turn by x,
    # so the reference taken at the origin keeps cos x of each
    m = plane_pair(g2xx="1 + sin(x)^2", g2xy="-sin(x)*cos(x)", g2yy="1 + cos(x)^2")
    fr = AdaptedFrame(m, center=np.zeros(2))
    assert fr.point_data((1.3, 0.0)).A.shape == (2, 2)
    with pytest.raises(AdaptedFrameError,
                       match=r"gauge reference degenerate at \[1.4, 0.0\]"):
        fr.point_data((1.4, 0.0))


POINT_FIELDS = ("q", "A", "Vg", "alphas", "alpha_sq", "dalpha_sq", "W1", "W2", "c", "cbar")


def _point_hex(data):
    return {name: [v.hex() for v in np.asarray(getattr(data, name), dtype=float).ravel().tolist()]
            for name in POINT_FIELDS}


@pytest.mark.parametrize("kind", ["gendini1", "rotating-cluster"])
def test_point_data_tells_negative_zero_from_zero(kind):
    # the centers (0.25, 0.0) and (0, 0, 0) with the first zero coordinate
    # as 0.0 and as -0.0: the Gram programs give other bits at the two
    # (gram2 on gendini1, gram1 and gram2 on rotating-cluster), so a frame
    # read at one after the other answers as a new frame there does
    m = pair_fixture(kind)
    zero = m.center().tolist()
    negative = list(zero)
    negative[zero.index(0.0)] = -0.0
    # a list, not a dict: 0.0 and -0.0 are one key
    fresh = [_point_hex(AdaptedFrame(m, center=np.array(q)).point_data(q))
             for q in (zero, negative)]
    assert [fresh[0]["W1"], fresh[0]["W2"]] != [fresh[1]["W1"], fresh[1]["W2"]]
    for center, other in ((0, 1), (1, 0)):
        points = (zero, negative)
        fr = AdaptedFrame(m, center=np.array(points[center]))
        for which in (center, other, center, other):
            q = points[which]
            data = _point_hex(fr.point_data(q))
            assert data == fresh[which], (kind, center, which)
            W1, W2 = fr.at(q)[4:6]
            assert [data["W1"], data["W2"]] == [[v.hex() for v in W.ravel().tolist()]
                                                for W in (W1, W2)]


def test_new_frames_reuse_the_models_compiled_completion(monkeypatch):
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    q0, q1 = (0.05, -0.02, 0.01, 0.03), (-0.04, 0.03, 0.02, -0.01)
    first_divisibility(m, AdaptedFrame(m, center=np.array(q0)), q0)

    def forbidden(*args, **kwargs):
        raise AssertionError("symbolic work after the first frame")

    monkeypatch.setattr(ex, "compile_exprs", forbidden)
    monkeypatch.setattr(ex, "differentiate", forbidden)
    fr = AdaptedFrame(m, center=np.array(q1))
    assert second_divisibility(m, fr, q1).holds


def test_first_divisibility_near_beltrami_umbilic():
    # the eigenvalues stay split (gap about |q|^2), so the screen must hold
    m = build_beltrami()
    for q in [(0.05, 0.0), (0.01, 0.0)]:
        assert transition_operator(m, q).N == 2
        fr = AdaptedFrame(m, center=np.array(q))
        res = first_divisibility(m, fr, q)
        assert res.holds, (q, res.residual)
        assert res.residual < 1e-10


# ---------------------------------------------------------- fiber algebra

def test_fiber_basis_shift_and_evaluation():
    for nvars, degree in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        rng = np.random.default_rng(10 * nvars + degree)
        u = rng.normal(size=nvars)
        index, where = _basis(nvars, degree)
        # every monomial once, indices ascending, positions as listed
        assert len(index) == math.comb(nvars + degree - 1, degree)
        assert sorted(where) == sorted(itertools.combinations_with_replacement(
            range(nvars), degree))
        for pos, mono in enumerate(index.tolist()):
            assert mono == sorted(mono) and where[tuple(mono)] == pos
        # evaluation against brute-force expansion over all index words
        coeffs = rng.normal(size=len(index))
        brute = 0.0
        for word in itertools.product(range(nvars), repeat=degree):
            if list(word) == sorted(word):
                brute += coeffs[where[word]] * np.prod(u[list(word)])
        assert fiber_value(coeffs, u, degree) == pytest.approx(brute, rel=1e-13, abs=1e-13)
        # u_i times a polynomial, by its shifted coefficients
        up, _ = _basis(nvars, degree + 1)
        shift = _times_u(nvars, degree)
        assert shift.shape == (nvars, len(index))
        for i in range(nvars):
            assert len(set(shift[i].tolist())) == len(index)
            for pos, mono in enumerate(index.tolist()):
                assert up[shift[i, pos]].tolist() == sorted(mono + [i])
            times = np.zeros(len(up))
            times[shift[i]] = coeffs
            assert fiber_value(times, u, degree + 1) == pytest.approx(
                u[i] * fiber_value(coeffs, u, degree), rel=1e-13, abs=1e-13)


def _vector_of(nvars, degree, terms):
    """Coefficient vector of sum coef * u[indices] over (indices, coef) pairs."""
    out = np.zeros(len(_basis(nvars, degree)[0]))
    for indices, coef in terms:
        out[_basis(nvars, degree)[1][tuple(sorted(indices))]] += coef
    return out


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_fiber_polynomials_match_dict_oracle(kind):
    m = pair_fixture(kind)
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(6):
        q = tuple(m.sample_point(rng))
        fr = AdaptedFrame(m, center=np.array(q))
        data = fr.point_data(q)
        P, hP = fiber_P(data), fiber_hP(data)
        assert np.array_equal(P, dict_fiber_P(m, fr, q).vector()), (kind, q)
        assert np.array_equal(hP, dict_fiber_hP(m, fr, q).vector()), (kind, q)
        residual, quotient = dict_divide(dict_fiber_hP(m, fr, q), dict_fiber_P(m, fr, q))
        fd = first_divisibility(m, fr, q)
        assert fd.residual == residual and np.array_equal(fd.quotient, quotient), (kind, q)
        for j in range(1, m.m + 1):
            assert np.array_equal(fiber_R(data, j),
                                  dict_fiber_R(m, fr, q, j).vector()), (kind, q, j)
            for k in range(1, m.n + 1):
                assert np.array_equal(fiber_Q(data, k)[j - 1],
                                      dict_fiber_Q(m, fr, q, j, k).vector()), (kind, q, j, k)
        if m.n - m.m == 1:
            sd = second_divisibility(m, fr, q)
            for j, residual, _ok, quotient in sd.per_j:
                if residual is None:
                    continue
                ref = dict_divide(dict_fiber_R(m, fr, q, j), dict_fiber_Q(m, fr, q, j, m.n))
                assert residual == ref[0] and np.array_equal(quotient, ref[1]), (kind, q, j)
                checked += 1
    if m.n - m.m == 1:
        assert checked


def test_fiber_P_matches_intrinsic():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    fr = AdaptedFrame(m, center=np.zeros(4))
    rng = np.random.default_rng(11)
    q = np.array([0.04, -0.03, 0.02, 0.05])
    poly = fiber_P(fr.point_data(q))
    A = fr.at(q)[0]
    for _ in range(6):
        p = rng.normal(size=4)
        u = p @ A
        assert fiber_value(poly, u, 2) == pytest.approx(intrinsic_P(m, np.concatenate([q, p])),
                                                        rel=1e-10)


def test_plane_example_hand_values():
    # G1 Euclidean, G2 = (1+x^2) dx^2 + dy^2 at q = (1, 0): eigenvalues (1, 2),
    # so u1 pairs with d/dy and u2 with d/dx
    m = plane_pair()
    q = (1.0, 0.0)
    fr = AdaptedFrame(m, center=np.array(q))
    P = fiber_P(fr.point_data(q))
    assert P[_basis(2, 2)[1][(0, 0)]] == pytest.approx(1.0, abs=1e-12)
    assert P[_basis(2, 2)[1][(1, 1)]] == pytest.approx(2.0, abs=1e-12)
    hP = fiber_hP(fr.point_data(q))
    cube = _basis(2, 3)[1][(1, 1, 1)]
    assert abs(hP[cube]) == pytest.approx(2.0, rel=1e-9)
    rest = np.abs(np.delete(hP, cube))
    assert max(rest, default=0.0) < 1e-10
    res = first_divisibility(m, fr, q)
    assert not res.holds
    assert res.residual == pytest.approx(1 / np.sqrt(5), rel=1e-9)
    assert res.residual > 0.1


def test_first_divisibility_on_constructions():
    cases = [
        build_dini("1+x1/10", "2+x2/10"),
        build_levi_civita({"blocks": [{"size": 2, "beta": 1.5},
                                      {"size": 1, "beta": "2 + x3/10"}]}),
        build_gendini_case1("1 - u", "1 + v"),
        build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0}),
    ]
    rng = np.random.default_rng(5)
    for m in cases:
        for _ in range(3):
            q = tuple(m.sample_point(rng))
            fr = AdaptedFrame(m, center=np.array(q))
            res = first_divisibility(m, fr, q)
            assert res.holds, (m.meta.get("generator"), q, res.residual)
            assert res.residual < 1e-8


def test_fiber_Q_oracle():
    # alphas (1, 2): G2 = diag(1, 4) on the Heisenberg distribution
    m = heisenberg(g2diag=("1", "4"))
    fr = AdaptedFrame(m, center=np.zeros(3))
    q = (0.0, 0.0, 0.0)
    Q13, Q23 = fiber_Q(fr.point_data(q), 3)[:2]
    u = np.array([0.4, -1.1, 0.9])
    assert fiber_value(Q13, u, 1) == pytest.approx(-u[1], abs=1e-9)
    assert fiber_value(Q23, u, 1) == pytest.approx(0.5 * u[0], abs=1e-9)


def _fiber_R_direct(model, frame, q, j):
    """Independent route to R_j: (1/2) h(alpha_j^2) u_j + alpha_j^2 h(u_j)
    - (1/2) alpha_j^2 u_j (L.u) - sum_{i,k<=m} cbar alpha_i alpha_j alpha_k u_i u_k,
    with L the first-divisibility quotient standing in for h(P)/P and
    h(u_j) = sum c[i,j,k] u_i u_k, the flow derivative of the impulses."""
    data = frame.point_data(q)
    n, m = model.n, model.m
    alph = data.alphas
    L = first_divisibility(model, frame, q).quotient
    jj = j - 1
    terms = [((i, jj), 0.5 * data.dalpha_sq[i, jj]) for i in range(m)]
    terms += [((i, k), data.alpha_sq[jj] * data.c[i, jj, k])
              for i in range(m) for k in range(n)]
    terms += [((jj, k), -0.5 * data.alpha_sq[jj] * L[k]) for k in range(n)]
    terms += [((i, k), -data.cbar[i, jj, k] * alph[i] * alph[jj] * alph[k])
              for i in range(m) for k in range(m)]
    return _vector_of(n, 2, terms)


def _compare_R_routes(m, q, tol=1e-7):
    fr = AdaptedFrame(m, center=np.array(q))
    rng = np.random.default_rng(2)
    for j in range(1, m.m + 1):
        R = fiber_R(fr.point_data(q), j)
        Rd = _fiber_R_direct(m, fr, q, j)
        for _ in range(5):
            u = rng.normal(size=m.n)
            assert fiber_value(R, u, 2) == pytest.approx(fiber_value(Rd, u, 2), abs=tol), j


def test_fiber_R_dual_route_surface():
    _compare_R_routes(build_gendini_case1("1 - u", "1 + v"), (0.25, 0.4))


def test_fiber_R_dual_route_quasi_contact():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    _compare_R_routes(m, (0.05, -0.02, 0.01, 0.03))


def test_fiber_R_dual_route_conformal_contact():
    # inequivalent pair whose R_j is genuinely nonzero
    m = heisenberg("1 + x^2 + y^2")
    q = (0.2, 0.3, 0.0)
    _compare_R_routes(m, q)
    fr = AdaptedFrame(m, center=np.array(q))
    assert np.max(np.abs(fiber_R(fr.point_data(q), 1))) > 0.1


def test_R_vanishes_for_block_product_pairs():
    m = build_levi_civita({"blocks": [{"size": 1, "beta": "1 + x1/10"},
                                      {"size": 1, "beta": "2 + x2/10"}]})
    fr = AdaptedFrame(m, center=np.array([0.1, -0.2]))
    for j in (1, 2):
        R = fiber_R(fr.point_data((0.1, -0.2)), j)
        assert np.max(np.abs(R)) < 1e-9


def test_R_nonzero_for_conformal_plane():
    # G2 = (1+x^2) G1 on the plane: R_1 = -x u2^2 at y = 0
    m = plane_pair(g2xx="1+x^2", g2yy="1+x^2")
    fr = AdaptedFrame(m, center=np.array([0.5, 0.0]))
    R = fiber_R(fr.point_data((0.5, 0.0)), 1)
    assert np.max(np.abs(R)) == pytest.approx(0.5, abs=1e-6)
    assert np.max(np.abs(R)) > 1e-3


# ----------------------------------------------------- second divisibility

def test_second_divisibility_conformal_heisenberg():
    # conformal contact pairs do satisfy the second condition; the transverse
    # quotient entry equals alpha_j^2 = the conformal factor
    m = heisenberg("1 + x^2 + y^2")
    q = (0.2, 0.3, 0.0)
    fr = AdaptedFrame(m, center=np.array(q))
    sd = second_divisibility(m, fr, q)
    assert sd.holds
    assert sd.spread < 1e-10
    f = 1 + q[0] ** 2 + q[1] ** 2
    assert sd.transverse_r
    for j, (r_trans, a2) in sd.transverse_r.items():
        assert a2 == pytest.approx(f, rel=1e-12)
        assert r_trans == pytest.approx(a2, rel=1e-9)
    # R_1 factors through Q: R_1 = u2 (y u1 - x u2 - f u3) in adapted impulses
    R1 = fiber_R(fr.point_data(q), 1)
    rng = np.random.default_rng(8)
    for _ in range(4):
        u = rng.normal(size=3)
        expect = u[1] * (q[1] * u[0] - q[0] * u[1] - f * u[2])
        assert fiber_value(R1, u, 2) == pytest.approx(expect, abs=1e-9)


def test_second_divisibility_quasi_contact():
    m = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    fr = AdaptedFrame(m, center=np.zeros(4))
    q = (0.05, -0.02, 0.01, 0.03)
    sd = second_divisibility(m, fr, q)
    assert sd.holds
    assert sd.residual < 1e-8
    assert sd.spread < 1e-8
    f = 1.0 / (1.0 + np.exp(q[3]))
    assert sd.transverse_r
    for j, (r_trans, a2) in sd.transverse_r.items():
        assert a2 == pytest.approx(f, rel=1e-10)
        assert r_trans == pytest.approx(a2, rel=1e-6)


def test_second_divisibility_rejects_split_alpha_heisenberg():
    # every R_j divides by its Q_{j,3}, but the quotients over alpha_j differ
    for g2diag, spread in [(("2", "3"), 1 / 3), (("1", "4"), 0.75)]:
        m = heisenberg(g2diag=g2diag)
        q = (0.1, -0.2, 0.05)
        sd = second_divisibility(m, AdaptedFrame(m, center=np.array(q)), q)
        assert sd.residual <= 1e-8
        assert sd.spread == pytest.approx(spread, rel=1e-9)
        assert sd.holds is False


def test_second_divisibility_needs_corank_one():
    m = build_dini(1.0, 2.0)
    fr = AdaptedFrame(m, center=np.zeros(2))
    with pytest.raises(ValueError, match="corank"):
        second_divisibility(m, fr, (0.0, 0.0))


# ---------------------------------------------------------------- relations

def test_relations_hold_on_equivalent_pairs():
    cases = [
        (build_dini("1+x1/10", "2+x2/10"), (0.1, 0.2)),
        (build_gendini_case1("1 - u", "1 + v"), (0.25, 0.4)),
        (build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0}),
         (0.05, -0.02, 0.01, 0.03)),
    ]
    for m, q in cases:
        fr = AdaptedFrame(m, center=np.array(q))
        rep = relations_cor(m, fr, q)
        worst = max((v for v in rep.checks.values() if v is not None), default=0.0)
        assert worst < 1e-6, (m.meta.get("generator"), rep.checks)


def test_relations_flag_conformal_transverse_growth():
    m = heisenberg("1 + x^2 + y^2")
    q = (0.2, 0.3, 0.0)
    fr = AdaptedFrame(m, center=np.array(q))
    rep = relations_cor(m, fr, q)
    assert rep.checks["transverse-constancy"] > 0.1
    assert rep.checks["eigenvalue-transport"] < 1e-9


def test_relations_pass_proportional_heisenberg():
    m = heisenberg("2")
    q = (0.1, -0.1, 0.2)
    fr = AdaptedFrame(m, center=np.array(q))
    rep = relations_cor(m, fr, q)
    worst = max((v for v in rep.checks.values() if v is not None), default=0.0)
    assert worst < 1e-9


def test_divisibility_invariant_under_frame_rescaling():
    base = build_quasi_contact({"beta": "exp(t)", "C1": 1.0, "C2": 1.0})
    scale = ex.parse("1 + x^2/5", base.coords)
    s2 = ex.mul(scale, scale)
    frame = tuple(tuple(ex.mul(scale, c) for c in row) for row in base.frame)
    g1 = tuple(tuple(ex.mul(s2, c) for c in row) for row in base.gram1)
    g2 = tuple(tuple(ex.mul(s2, c) for c in row) for row in base.gram2)
    m = GeometryModel(base.coords, base.rank, frame, g1, g2,
                      base.domain_min, base.domain_max)
    q = (0.05, -0.02, 0.01, 0.03)
    td_base = transition_operator(base, q)
    td = transition_operator(m, q)
    assert np.allclose(td.eigenvalues, td_base.eigenvalues, atol=1e-12)
    fr = AdaptedFrame(m, center=np.array(q))
    assert first_divisibility(m, fr, q).holds
    sd = second_divisibility(m, fr, q)
    assert sd.holds
