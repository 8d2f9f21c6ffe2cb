import io
import itertools
import math
import re

import numpy as np
import pytest

from geoequiv import expr as ex
from geoequiv.expr import EvalDomainError
from geoequiv.geometry import GeometryModel
from geoequiv.hamiltonian import (CovectorTooLargeError, IntegrationError, hamiltonian,
                                  hamiltonian_rhs, integrate, resample, write_trajectory_csv,
                                  _brentq, _dense, _dense_head, _generate, _program)
from geoequiv.constructors import (GENERATORS, build_beltrami, build_dini,
                                   build_quasi_contact)
from geoequiv.pair import intrinsic_P

from conftest import (FIELD_PARAMS, PAIR_KINDS, call_outcome, compiled_program, heisenberg,
                      pair_fixture, plane_pair, value)
from reference import (arc_length, full_field, initial_covector, numpy_hamiltonian,
                       numpy_hamiltonian_rhs, numpy_intrinsic_P, orthonormalize,
                       quasi_impulses, rhs_arrays, row_dense, row_sample,
                       solve_ivp_integrate)


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
    onf = orthonormalize(m)
    for _ in range(5):
        q = tuple(m.sample_point(rng))
        p = rng.normal(size=m.n)
        E = m.frame_at(q)[:, : m.m]
        C = np.array([[value(c, q) for c in row] for row in onf.coeffs])
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
        qdot, _ = rhs_arrays(m, 1, q, p)
        E = m.frame_at(tuple(q))
        u = p @ E[:, : m.m]
        v = np.linalg.solve(m.gram_at(tuple(q), 1), u)
        assert np.allclose(qdot, E[:, : m.m] @ v, atol=1e-12)


def test_rhs_out_must_be_a_writable_contiguous_float64_vector():
    m = heisenberg("1 + x^2/2 + y^2/3")
    q, p = [0.2, -0.3, 0.1], [0.4, 0.7, -0.2]
    rates = np.concatenate(rhs_arrays(m, 2, q, p))
    out = np.full(7, 9.0)
    assert hamiltonian_rhs(m, 2, q + p, out) is out
    assert np.array_equal(out[:6], rates) and out[6] == 9.0
    # each of these raises and keeps its values: none takes raw doubles
    strided = np.full(12, 9.0)
    read_only = np.full(6, 9.0)
    read_only.flags.writeable = False
    for bad in (np.full(12, 9.0, dtype=np.float32), np.full(6, 9.0, dtype=">f8"),
                strided[::2], read_only, np.full((2, 3), 9.0)):
        with pytest.raises(TypeError):
            hamiltonian_rhs(m, 2, q + p, bad)
        assert np.all(bad == 9.0)
    assert np.all(strided == 9.0)
    raw = bytearray(48)
    for bad in (raw, [9.0] * 6):
        with pytest.raises(TypeError):
            hamiltonian_rhs(m, 2, q + p, bad)
    assert raw == bytearray(48)


def test_rhs_matches_fd_of_hamiltonian():
    # canonical equations against central differences of h
    m = heisenberg("1 + x^2/2 + y^2/3")
    q = np.array([0.2, -0.3, 0.1])
    p = np.array([0.4, 0.7, -0.2])
    qdot, pdot = rhs_arrays(m, 2, q, p)
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
    back = integrate(m, 1, (fwd.q[-1], fwd.p[-1]), -0.3, samples=7)
    assert np.allclose(back.q[-1], lam0[0], atol=1e-8)
    assert np.allclose(back.p[-1], lam0[1], atol=1e-8)


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
    qdot, _ = rhs_arrays(m, 1, *lam0)
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


def test_integrate_names_where_the_step_size_collapsed():
    # gram2 nearly vanishes on x = 0.3, so the gram2 speed there is about 1e12
    m = plane_pair(g2xx="(x-0.3)^2 + 1e-24")
    with pytest.raises(IntegrationError,
                       match=r"integration failed from q = \[0.0, 0.0\] at t = 0.01\d* of "
                             r"T = 1.0: Required step size") as err:
        integrate(m, 2, (np.zeros(2), np.array([1.0, 0.0])), 1.0)
    assert isinstance(err.value, RuntimeError)


def _assert_same_trajectory(new, ref):
    for name in ("t", "q", "p", "h"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    assert (new.aux is None) == (ref.aux is None)
    if new.aux is not None:
        assert np.array_equal(new.aux, ref.aux)
    for name in ("clipped", "t_exit"):
        assert getattr(new, name) == getattr(ref, name), name


def _assert_resample_is_dense_output(new, ref, t):
    """resample(new, t) holds, at those times of t that the run reached,
    the states of scipy's OdeSolution ref.dense bit for bit, aux column
    included, and keeps the run's clipping."""
    got = resample(new, t)
    sign = new.steps.direction
    assert np.array_equal(got.t, t[sign * t <= sign * new.steps.ts[-1]])
    y = ref.dense(got.t)
    n = new.q.shape[1]
    assert np.array_equal(got.q, y[:n].T) and np.array_equal(got.p, y[n:2 * n].T)
    if new.aux is not None:
        assert np.array_equal(got.aux, y[2 * n])
    assert (got.clipped, got.t_exit) == (new.clipped, new.t_exit)
    return got


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_stepper_matches_solve_ivp(kind):
    # the own DOP853 loop takes scipy's steps bit for bit: forward and
    # backward, with and without samples and an aux rate, to the horizon or
    # out through the boundary. Resampled at random times, at even times of
    # 80% of the run (as verify cuts a clipped run) and, for the gram2 leg,
    # at the matched times s_i that the aux column gives, each run reads as
    # scipy's dense output does
    m = pair_fixture(kind)
    rng, times = np.random.default_rng(43), np.random.default_rng(44)
    aux_rate = lambda y: math.sqrt(max(intrinsic_P(m, y), 0.0))
    clipped = 0
    for T in (0.3, -0.3, 5.0, -5.0):
        lam0 = (m.sample_point(rng), rng.normal(size=m.n))
        for tag in (1, 2):
            for samples, rate in ((601, aux_rate), (None, aux_rate), (41, None), (None, None)):
                new = integrate(m, tag, lam0, T, samples=samples, aux_rate=rate)
                ref = solve_ivp_integrate(m, tag, lam0, T, samples=samples, aux_rate=rate)
                _assert_same_trajectory(new, ref)
                clipped += new.clipped
                end = new.t_exit if new.clipped else T
                _assert_resample_is_dense_output(new, ref, 1.1 * end * times.random(50))
                cut = _assert_resample_is_dense_output(new, ref,
                                                       np.linspace(0.0, 0.8 * end, 601))
                if rate is not None and tag == 1:
                    s = cut.aux
                    g2 = integrate(m, 2, lam0, s[-1])
                    ref2 = solve_ivp_integrate(m, 2, lam0, s[-1])
                    _assert_resample_is_dense_output(g2, ref2, s)
    assert clipped >= 8


def _hexes(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_resample_reads_the_step_columns_as_the_row_oracle_does(kind):
    # resample gathers each sample's step column off one block and runs the
    # Horner loop on rows as long as the sample count; the row oracle reads
    # each sample's own (7, N) coefficients and initial state. They agree by
    # float.hex, signed zeros included: forward and backward, with and
    # without an aux column, to the horizon or out through the boundary, at
    # unsorted random times (some past the run's end), at every step end
    # (x = 0 at t = 0, x = 1 after) and at even times. The last run starts
    # at the center with p = e_1 and -0.0 entries: its loop reads them as
    # +0.0 (0.0 + -0.0), also at x = 0, where returning the initial state
    # would keep -0.0 and still pass np.array_equal. At a boundary root the
    # run's last state is the last step's interpolant there, as the row
    # oracle gives it
    m = pair_fixture(kind)
    rng, times = np.random.default_rng(3301), np.random.default_rng(3302)
    aux_rate = lambda y: math.sqrt(max(intrinsic_P(m, y), 0.0))
    runs = [(T, (m.sample_point(rng), rng.normal(size=m.n))) for T in (0.3, -0.3, 5.0, -5.0)]
    e1 = np.full(m.n, -0.0)
    e1[0] = 1.0
    clipped = 0
    for T, lam0 in runs + [(0.3, (m.center(), e1))]:
        for tag, rate in ((1, aux_rate), (1, None), (2, None)):
            traj = integrate(m, tag, lam0, T, aux_rate=rate)
            clipped += traj.clipped
            steps = traj.steps
            end = steps.ts[-1]
            for t in (1.1 * end * times.random(50), steps.ts, np.linspace(0.0, end, 601)):
                got = resample(traj, t)
                ref_t, ref_y = row_sample(steps, t)
                assert got.y.shape == ref_y.shape
                assert _hexes(got.t) == _hexes(ref_t) and _hexes(got.y) == _hexes(ref_y)
            if traj.clipped:
                x = (steps.ts[-1] - steps.ts[-2]) / steps.h[-1]
                root = row_dense(steps.cols[:7, :, -1], steps.cols[7, :, -1], x)
                assert _hexes(traj.y[-1]) == _hexes(root)
    # every fixture has clipped runs (gendini1 only those)
    assert clipped > 0


def test_flow_states_are_python_floats_past_an_uncapped_first_step():
    # a covector 20 times a unit-size one makes the first step h1 = 2.9e-3,
    # below 100 h0 and the horizon: the initial step selection gives it as a
    # numpy scalar, which must not reach the stage states, where an overflow
    # would warn instead of raising. The flow program and the aux rate read
    # them all
    m = pair_fixture("gendini2")
    flow = _program(m, 1, "flow")
    seen = []

    def recorded(y):
        seen.append(list(y))
        return flow(y)

    m._cache["flow1"] = recorded
    lam0 = ((m.domain_min + m.domain_max) / 2, np.array([20.0, -10.0]))
    traj = integrate(m, 1, lam0, 0.004, aux_rate=lambda y: seen.append(list(y)) or 1.0)
    assert abs(traj.steps.h[0]) < 0.004 and len(traj.steps.h) > 1 and not traj.clipped
    assert len(seen) > 50
    assert {type(v) for y in seen for v in y} == {float}


def test_stepper_collapses_where_solve_ivp_does():
    lam0 = (np.zeros(2), np.array([1.0, 0.0]))
    # mid-way, where gram2 nearly vanishes, and at the first step, where an
    # infinite aux rate rejects every step, or where a covector near 1e-160
    # makes the error norm 0 / 0 (its squares underflow)
    runs = [(plane_pair(g2xx="(x-0.3)^2 + 1e-24"), 2, None, lam0),
            (plane_pair(), 1, lambda y: math.inf, lam0),
            (plane_pair(), 2, None, (np.array([0.1, 0.2]), np.array([1e-160, 3e-161])))]
    for m, tag, rate, lam0 in runs:
        with pytest.raises(IntegrationError) as new, np.errstate(invalid="ignore"):
            integrate(m, tag, lam0, 1.0, samples=11, aux_rate=rate)
        with pytest.raises(IntegrationError) as ref, np.errstate(invalid="ignore"):
            solve_ivp_integrate(m, tag, lam0, 1.0, samples=11, aux_rate=rate)
        assert str(new.value) == str(ref.value)


def _root_or_error(solver, f, xa, xb, xtol, rtol):
    """The root as float.hex, or the error's type and message, and every
    point at which solver evaluated f, in order."""
    xs = []

    def g(x):
        xs.append(float(x).hex())
        return f(x)
    try:
        return float(solver(g, xa, xb, xtol, rtol)).hex(), xs
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__, str(exc)), xs


def _scipy_brentq(f, xa, xb, xtol, rtol):
    # tests may load scipy.optimize; the package does not
    from scipy.optimize import brentq
    return brentq(f, xa, xb, xtol=xtol, rtol=rtol)


# root families f_c, each with a root at c: smooth, flat ((x - c)^5 and a
# scaled cube, whose values underflow), steep and step-like, and a step
_BRENT_FAMILIES = [
    lambda c: lambda x: (x - c) ** 5,
    lambda c: lambda x: math.atan(50 * (x - c)),
    lambda c: lambda x: math.expm1(x - c) + (x - c) / 3,
    lambda c: lambda x: 1e-200 * (x - c) ** 3,
    lambda c: lambda x: math.tanh(1e4 * (x - c)) + 1e-3 * (x - c),
    lambda c: lambda x: (x - c) * (x - c - 0.01) * (x + c + 2),
    lambda c: lambda x: 1.0 if x > c else -1.0,
]


def test_brentq_matches_scipy_bit_for_bit():
    # _dop853 finds the boundary root with _brentq, which repeats scipy's
    # brentq operation for operation: the same root, or the same error, at
    # the tolerance _dop853 gives it (4 eps) and looser ones, from both ends
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(2901)
    outcomes = set()
    for family in _BRENT_FAMILIES:
        for c, left, right in rng.uniform((-1.0, 0.0, 0.0), (1.0, 1.5, 1.5), size=(40, 3)):
            f = family(c)
            # one bracket in four lies on one side of c
            xa, xb = (c - left, c + right) if rng.random() < 0.75 else (c + left, c + right)
            for xtol, rtol in ((4 * eps, 4 * eps), (2e-12, 4 * eps), (1e-6, 1e-8)):
                for bracket in ((xa, xb), (xb, xa)):
                    ref = _root_or_error(_scipy_brentq, f, *bracket, xtol, rtol)
                    assert _root_or_error(_brentq, f, *bracket, xtol, rtol) == ref
                    outcomes.add(ref[0][0] if type(ref[0]) is tuple else "root")
    assert outcomes == {"root", "ValueError", "RuntimeError"}


def test_brentq_raises_scipy_errors():
    eps = float(np.finfo(float).eps)
    cases = [
        # a step at 0 takes ~1000 bisections to reach xtol = 1e-300
        (lambda x: math.copysign(1.0, x), -1.0, 3.0, 1e-300),
        (lambda x: x * x + 1, -1.0, 1.0, 4 * eps),
        (lambda x: math.nan, -1.0, 1.0, 4 * eps),
        # NaN at the first iterate, inside the bracket
        (lambda x: x - 0.7 if x <= 0 or x >= 1 else math.nan, 0.0, 1.0, 4 * eps),
    ]
    got = [_root_or_error(_brentq, f, xa, xb, xtol, 4 * eps) for f, xa, xb, xtol in cases]
    assert got == [_root_or_error(_scipy_brentq, f, xa, xb, xtol, 4 * eps)
                   for f, xa, xb, xtol in cases]
    errors = [error for error, _ in got]
    assert errors[:3] == [
        ("RuntimeError", "Failed to converge after 100 iterations."),
        ("ValueError", "f(a) and f(b) must have different signs"),
        ("ValueError", "The function value at x=-1.0 is NaN; solver cannot continue.")]
    assert errors[3][0] == "ValueError"
    assert errors[3][1].endswith("is NaN; solver cannot continue.")


def test_boundary_root_reads_the_q_columns_as_dense_does():
    # the boundary root reads only q off each step's interpolant: the Horner
    # loop over those columns gives _dense's values bit for bit, on the
    # step columns of T = 5 runs with an aux column, at seeded x in [0, 1]
    rng = np.random.default_rng(3201)
    for kind in PAIR_KINDS:
        m = pair_fixture(kind)
        aux_rate = lambda y: math.sqrt(max(intrinsic_P(m, y), 0.0))
        steps = integrate(m, 1, (m.sample_point(rng), rng.normal(size=m.n)), 5.0,
                          aux_rate=aux_rate).steps
        n = m.n
        for k in rng.integers(len(steps.h), size=5):
            cols = steps.cols[:, :, k:k + 1]
            F_head, y_head = cols[:7, :n, 0].T.tolist(), cols[7, :n, 0].tolist()
            for x in [0.0, 1.0] + rng.random(20).tolist():
                got = _dense_head(F_head, y_head, x)
                assert [v.hex() for v in got] == [v.hex() for v in _dense(cols, x)[:n, 0]]


def test_geodesic_energy_stays_within_its_guard():
    # geodesic's accuracy at its defaults (tol 1e-10, 201 even samples):
    # over T = 1 from five seeded covectors per fixture on both metrics, the
    # relative energy drift max |h - h[0]| / |h[0]| reads 9.8e-13. The
    # bound is the worst drift that the former fixed 0.01 step cap gave on
    # a seeded set of this shape; on this set that cap read 2.7e-9, and
    # steps controlled at tol itself, uncapped, read 1.3e-9
    worst = 0.0
    for i, kind in enumerate(PAIR_KINDS):
        m = pair_fixture(kind)
        rng = np.random.default_rng(3200 + i)
        for _ in range(5):
            lam0 = (m.sample_point(rng), rng.normal(size=m.n))
            for tag in (1, 2):
                h = integrate(m, tag, lam0, 1.0, samples=201).h
                worst = max(worst, float(np.max(np.abs(h - h[0]) / abs(h[0]))))
    assert worst <= 1.2e-10


def test_integrate_rejects_bad_tolerance_and_clips_tiny_ones():
    m = build_dini("1+x1/10", "2+x2/10")
    lam0 = (np.zeros(2), np.array([0.5, 0.1]))
    # 1e-321: the steps' tolerance 1e-4 tol would underflow to 0
    for tol in (0.0, -1e-10, float("nan"), float("inf"), 1e-321):
        with pytest.raises(ValueError, match="integrator tolerance"):
            integrate(m, 1, lam0, 0.1, tol=tol)
    # below 100 eps the relative tolerance is clipped, the absolute one is not
    with pytest.warns(UserWarning, match="rtol"):
        ref = solve_ivp_integrate(m, 1, lam0, 0.05, tol=1e-17, samples=11)
    _assert_same_trajectory(integrate(m, 1, lam0, 0.05, tol=1e-17, samples=11), ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrate_rejects_a_covector_whose_scaled_rate_overflows():
    # the energy is finite, but the initial rate over the error scale
    # atol + rtol |y0| cannot be squared in floats; the step size selection
    # warned five times and the run clipped at t = 2.6e-151. p_z = 1e100
    # leaves that norm finite, but the norm of the rate's change over the
    # trial step overflowed in _rms's dot, and the run failed as "compiled
    # expression not finite"
    m = pair_fixture("quasi-contact")
    q0 = np.zeros(4)
    for p0, message in (([1e150, 0.0, 0.0, 0.0], "cannot be squared"),
                        ([0.0, 1e150, 0.0, 0.0], "cannot be squared"),
                        ([1.0, 0.0, 1e100, 0.0], "rate's change .* overflows a float")):
        assert math.isfinite(hamiltonian(m, 1, (q0, np.array(p0))))
        with pytest.raises(CovectorTooLargeError, match=message) as err:
            integrate(m, 1, (q0, np.array(p0)), 0.1)
        assert isinstance(err.value, ValueError)


def test_integrate_rejects_bad_start():
    m = euclidean_plane()
    with pytest.raises(ValueError, match="domain"):
        integrate(m, 1, (np.array([5.0, 0.0]), np.array([1.0, 0.0])), 1.0)
    for T in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonzero"):
            integrate(m, 1, (np.zeros(2), np.array([1.0, 0.0])), T)
    # the boundary is found where its event changes sign, and at a start on
    # it the event is already at or below 0: from (0.4, 0, 0) the extremal
    # once ran to x = 0.9996 unclipped, and from the corner it clipped at once
    m = pair_fixture("levi-civita")     # the box [-0.4, 0.4]^3
    p = np.array([1.0, 0.0, 0.0])
    for q0, p0 in (((0.4, 0.0, 0.0), p), ((0.39999999999999, 0.0, 0.0), p),
                   ((0.4, 0.4, 0.4), -np.ones(3)), ((-0.4, 0.0, 0.0), -p)):
        with pytest.raises(ValueError, match=re.escape(
                "initial point %s lies within 1e-12 of the domain boundary" % (list(q0),))):
            integrate(m, 1, (np.array(q0), p0), 0.1)
    with pytest.raises(ValueError, match=re.escape(
            "initial point [0.45, 0.0, 0.0] outside the model domain")):
        integrate(m, 1, (np.array([0.45, 0.0, 0.0]), p), 0.1)
    # farther inside than the event's 1e-12, the extremal clips at the boundary
    traj = integrate(m, 1, (np.array([0.4 - 1e-11, 0.0, 0.0]), p), 0.1)
    assert traj.clipped and 0.0 < traj.t_exit < 1e-9
    assert traj.q[:, 0].max() <= 0.4


def _close(new, ref, rel=1e-12):
    new, ref = np.atleast_1d(new), np.atleast_1d(ref)
    return np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


# every generator, plus the conformal Heisenberg pair
FIELD_KINDS = sorted(FIELD_PARAMS) + ["conformal"]


def _field_model(kind):
    assert set(FIELD_PARAMS) == set(GENERATORS)
    if kind == "conformal":
        return heisenberg("1 + x^2 + y^2")
    return GENERATORS[kind](FIELD_PARAMS[kind])


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_generated_field_matches_numpy_reference(kind):
    m = _field_model(kind)
    rng = np.random.default_rng(17)
    for i in range(8):
        q = m.sample_point(rng)
        p = rng.normal(size=m.n)
        # integrate passes lists of floats, other callers numpy arrays
        lam = (q.tolist(), p.tolist()) if i % 2 else (q, p)
        for tag in (1, 2):
            qdot, pdot = rhs_arrays(m, tag, *lam)
            ref = np.concatenate(numpy_hamiltonian_rhs(m, tag, q, p))
            assert _close(np.concatenate([qdot, pdot]), ref), (kind, tag, q)
            assert _close(hamiltonian(m, tag, lam), numpy_hamiltonian(m, tag, (q, p)))
        assert _close(intrinsic_P(m, lam[0] + lam[1] if i % 2 else np.concatenate(lam)),
                      numpy_intrinsic_P(m, (q, p)))


def test_cut_matches_fresh_integration():
    # verify cuts a clipped gram1 run to [0, 0.8 t_exit] by resampling its
    # steps; that agrees with integrating to the cut horizon afresh (curved
    # pair, horizons long enough to leave the box either way)
    m = build_dini("1+x1/10", "2+x2/10")
    aux_rate = lambda y: np.sqrt(max(intrinsic_P(m, y), 0.0))
    rng = np.random.default_rng(5)
    for T in (2.0, -2.0, 2.0, -2.0):
        lam0 = (m.sample_point(rng), rng.normal(size=2))
        full = integrate(m, 1, lam0, T, aux_rate=aux_rate)
        assert full.clipped
        T_used = 0.8 * full.t_exit
        short = resample(full, np.linspace(0.0, T_used, 601))
        fresh = integrate(m, 1, lam0, T_used, samples=601, aux_rate=aux_rate)
        assert not fresh.clipped
        assert np.array_equal(short.t, fresh.t)
        assert np.max(np.abs(short.q - fresh.q)) <= 1e-11
        assert np.max(np.abs(short.p - fresh.p)) <= 1e-11
        assert np.max(np.abs(short.aux - fresh.aux)) <= 1e-11
        assert np.max(np.abs(short.h - fresh.h)) <= 1e-11


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_split_programs_equal_the_full_field(kind):
    # along a 601-sample extremal and at random phase points, p = 0 rows
    # among them, the flow and energy programs, one state at a time and
    # stacked, give the values of the one full field that they replaced,
    # bit for bit (float.hex tells -0.0 from 0.0)
    m = _field_model(kind)
    rng = np.random.default_rng(29)
    for tag in (1, 2):
        field = full_field(m, tag)
        tr = integrate(m, tag, (m.sample_point(rng), rng.normal(size=m.n)), 0.3,
                       samples=601)
        Q = np.concatenate([tr.q, [m.sample_point(rng) for _ in range(60)]])
        P = np.concatenate([tr.p, rng.normal(size=(40, m.n)), np.zeros((20, m.n))])
        rows = list(zip(Q.tolist(), P.tolist()))
        ref = [call_outcome(field, lam) for lam in rows]
        h = [vals[0] for vals in ref]
        assert call_outcome(lambda lam: hamiltonian(m, tag, lam), (Q, P)) == h
        assert [call_outcome(lambda lam: [hamiltonian(m, tag, lam)], lam)[0]
                for lam in rows] == h
        assert call_outcome(lambda t: t.h, tr) == h[:len(tr.t)]
        speeds = [np.sqrt(max(2.0 * float.fromhex(v), 0.0)) for v in h[:len(tr.t)]]
        assert arc_length(m, tag, tr) == float(np.trapezoid(speeds, tr.t))
        zero_rows = range(len(rows) - 20, len(rows))
        for i in itertools.chain(range(0, len(rows), 20), zero_rows):
            rates = call_outcome(lambda lam: np.concatenate(rhs_arrays(m, tag, *lam)), rows[i])
            assert rates == ref[i][1:2 * m.n + 1]
        if tag == 1:
            assert [call_outcome(lambda lam: [intrinsic_P(m, lam[0] + lam[1])], lam)[0]
                    for lam in rows] == [vals[-1] for vals in ref]


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_flow_and_energy_walk_and_compile_to_the_full_field(kind):
    # the first call of each program (the walk) and the compiled program
    # return the values of the full field's lines of that program, bit for
    # bit, and raise its error: in the domain, p = 0 rows included, at the
    # poles and logs of negative numbers of a box seven times as wide, and
    # at covectors whose energy overflows
    m = pair_fixture(kind)
    rng = np.random.default_rng(71)
    lo, hi = np.array(m.domain_min), np.array(m.domain_max)
    points = []
    for i in range(120):
        q = rng.uniform(lo, hi) if i < 40 else rng.uniform(4 * lo - 3 * hi, 4 * hi - 3 * lo)
        if i % 4 == 0:
            q = np.round(q, 1)
        p = np.zeros(m.n) if i % 5 == 0 else rng.normal(size=m.n)
        if i % 6 == 0:
            p *= 10.0 ** rng.uniform(100, 200)
        points.append(q.tolist() + p.tolist())
    raised = 0
    for tag in (1, 2):
        for program in ("flow", "energy"):
            field = full_field(m, tag, program)
            exprs = _generate(m, tag, program)
            compiled = compiled_program(exprs)
            for y in points:
                expected = call_outcome(lambda y: field((y[:m.n], y[m.n:])), y)
                assert call_outcome(ex.compile_exprs(exprs), y) == expected, (tag, program, y)
                assert call_outcome(compiled, y) == expected, (tag, program, y)
                raised += isinstance(expected, tuple)
    assert raised > 0


def test_generated_flow_emits_each_value_once(monkeypatch):
    # the derivatives of beltrami's gram2 repeat their subtrees many times
    # over; the flow has 233 distinct values
    lines = {}

    def record(source, filename, mode):
        lines[source.split("(", 1)[0][4:]] = len(re.findall(r"^    t\d+ = ", source, re.M))
        return compile(source, filename, mode)

    monkeypatch.setattr(ex, "compile", record, raising=False)
    m = build_beltrami()
    y = m.center().tolist() + [1.0] * m.n
    # a program compiles on its second call
    flow = _program(m, 2, "flow")
    assert flow(y) == flow(y)
    assert lines["_flow2"] <= 250

@pytest.mark.parametrize("entry, bad", [
    ("1 + (x + 0.9)^0.5", (-0.95, -0.97)),      # power of a negative base
    ("2 + log(x + 0.9)", (-0.95, -0.97)),       # log of a negative number
    ("2 + 1/(x + 0.9)", (-0.9, -0.9)),          # division by zero
])
def test_stacked_energy_raises_the_scalar_error(entry, bad):
    m = plane_pair(g2xx=entry)
    rng = np.random.default_rng(31)
    Q = rng.uniform(-0.5, 0.5, size=(10, 2))
    P = rng.normal(size=(10, 2))
    Q[3, 0], Q[7, 0] = bad
    # the gram1 energy program evaluates gram2 for P
    for tag in (1, 2):
        with pytest.raises(EvalDomainError) as scalar:
            hamiltonian(m, tag, (Q[3].tolist(), P[3].tolist()))
        with pytest.raises(EvalDomainError) as stacked:
            hamiltonian(m, tag, (Q, P))
        assert str(stacked.value) == str(scalar.value)
        # numpy rows raise as lists do, not with numpy's inf and a warning
        with pytest.raises(EvalDomainError) as row:
            hamiltonian(m, tag, (Q[3], P[3]))
        assert str(row.value) == str(scalar.value)
