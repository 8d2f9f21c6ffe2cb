"""Normal extremal flow of the (sub-)Riemannian kinetic Hamiltonians.

For a metric given by a Gram matrix W on the distribution frame X_1..X_m,
h(p, q) = (1/2) u^T W(q)^{-1} u with quasi-impulses u_i = p(X_i(q)). Hamilton's
equations are evaluated with exact symbolic q-derivatives of the frame and the
Gram matrix; no finite differencing enters the right-hand side. Flow and
energy are expressions over one state y = (q, p), compiled by compile_exprs.
Extremals are integrated by a DOP853 loop that takes the steps of scipy's
DOP853, as scipy's initial value solve runs it, bit for bit, without its
per-step objects; _brentq finds the boundary root as scipy's brentq does.
"""

import csv
import functools
import math
import os
import struct

import numpy as np

from . import expr as ex

_BOUNDARY_EPS = 1e-12
_MAX_STEP = 1e-2            # the longest DOP853 step of integrate
_FLOAT64 = np.dtype(float)


class IntegrationError(RuntimeError):
    """The integrator could not follow an extremal (its step size collapsed)."""


class CovectorTooLargeError(ValueError):
    """integrate's initial rate is finite, but too large for the step size
    selection: over the error scale, its norm overflows a float."""


def _sum(terms):
    """The sum of the nodes terms, added left to right as Python adds a + b + c."""
    return functools.reduce(functools.partial(ex.Binary, "+"), terms)


def _dot(pairs):
    """sum coef * x over (coef, x) node pairs, or None when every coef is
    zero; a coefficient of one is left out of its term. The nodes are built
    as they stand: the smart constructors' folding could flip a zero's sign."""
    terms = [x if type(coef) is ex.Const and coef.value == 1.0 else ex.Binary("*", coef, x)
             for coef, x in pairs if not ex.is_zero(coef)]
    return _sum(terms) if terms else None


def _quadratic(rows, w):
    """w^T M w for the symmetric node matrix M = rows, whose lower triangle
    is read, or None when M = 0."""
    m = len(w)
    terms = []
    for a in range(m):
        inner = _dot([(rows[a][b] if a >= b else rows[b][a], w[b]) for b in range(m)])
        if inner is not None:
            terms.append(ex.Binary("*", w[a], inner))
    return _sum(terms) if terms else None


def _generate(model, tag, kind):
    """The outputs of metric `tag`'s program `kind`, "flow" or "energy", as
    expressions over the state y = (q, p): Coord(j) is q_j and Coord(n + j)
    is p_j.

    With u_i = p(X_i), W the Gram matrix of the metric (symmetric; its lower
    triangle is read) and v = W^{-1} u, the flow program gives
      y -> (dq/dt, dp/dt),  dq/dt = sum_i v_i X_i,
      dp_k/dt = (1/2) v^T (d_k W) v - sum_i v_i p(d_k X_i),
    and the energy program gives y -> (h,) with h = u.v / 2, and for tag 1
    (h, P) with the intrinsic P = v^T W2 v; it has no derivative terms.
    Both share one prelude: W is solved by an unpivoted LDL^T factorization
    unrolled into straight-line expressions, and structurally zero entries of
    the frame, the Gram matrix and their derivatives add no term.
    """
    n, m = model.n, model.m
    frame = model.frame
    gram = model.gram1 if tag == 1 else model.gram2
    p = [ex.Coord(n + j) for j in range(n)]
    u = [_dot(zip(frame[i], p)) or ex.ZERO for i in range(m)]

    # W = L D L^T with unit lower-triangular L; entries of L that are
    # structurally zero are left out of L
    L, D = {}, []
    for j in range(m):
        for i in range(j, m):
            terms = [ex.Binary("*", ex.Binary("*", L[i, k], L[j, k]), D[k])
                     for k in range(j) if (i, k) in L and (j, k) in L]
            w = gram[i][j]
            if ex.is_zero(w) and not terms and i > j:
                continue
            if terms:
                w = ex.Binary("-", w, _sum(terms))
            if i == j:
                D.append(w)
            else:
                L[i, j] = ex.Binary("/", w, D[j])
    y = []
    for i in range(m):
        terms = [ex.Binary("*", L[i, k], y[k]) for k in range(i) if (i, k) in L]
        y.append(ex.Binary("-", u[i], _sum(terms)) if terms else u[i])
    v = [None] * m
    for i in reversed(range(m)):
        terms = [ex.Binary("*", L[k, i], v[k]) for k in range(i + 1, m) if (k, i) in L]
        v[i] = ex.Binary("/", y[i], D[i])
        if terms:
            v[i] = ex.Binary("-", v[i], _sum(terms))

    if kind == "energy":
        results = [ex.Binary("*", ex.Const(0.5),
                             _sum([ex.Binary("*", u[i], v[i]) for i in range(m)]))]
        if tag == 1:
            results.append(_quadratic(model.gram2, v) or ex.ZERO)
        return results

    results = [_dot([(frame[i][j], v[i]) for i in range(m)]) or ex.ZERO for j in range(n)]
    for k, memo in enumerate(model.memos):
        dW = [[ex.differentiate(gram[a][b], k, memo) if a >= b else None for b in range(m)]
              for a in range(m)]
        quad = _quadratic(dW, v)
        force = []
        for i in range(m):
            inner = _dot([(ex.differentiate(frame[i][j], k, memo), p[j]) for j in range(n)])
            if inner is not None:
                force.append(ex.Binary("*", inner, v[i]))
        rate = ex.Binary("*", ex.Const(0.5), quad) if quad is not None else None
        if force:
            rate = (ex.Unary("neg", _sum(force)) if rate is None
                    else ex.Binary("-", rate, _sum(force)))
        results.append(rate or ex.ZERO)
    return results


def _program(model, tag, kind):
    """The `kind` program of metric `tag` over the state (q, p), cached on
    the model under "flow1", "energy2", ... (see GeometryModel._compiled)."""
    return model._compiled("%s%d" % (kind, tag), lambda: _generate(model, tag, kind))


# count -> pack_into of `count` doubles, into a writable C-contiguous array
_packers = {}


def hamiltonian(model, metric_tag, lam):
    """Kinetic energy (1/2) |p restricted to D|^2 in the dual metric norm.

    For one state lam = (q, p) it returns a float. For stacked states, q and
    p of shape (N, n), it returns the (N,) energies of the rows from one lane
    run of the energy program, each equal bit for bit to the value of its
    row alone. Either way the values are taken as Python floats, which
    raise on division by zero where numpy scalars would give inf.
    """
    q = np.asarray(lam[0], dtype=float)
    p = np.asarray(lam[1], dtype=float)
    energy = _program(model, metric_tag, "energy")
    if q.ndim == 2:
        return energy.lanes(np.concatenate([q, p], axis=1))[0]
    return float(energy(q.tolist() + p.tolist())[0])


def hamiltonian_rhs(model, metric_tag, y, out):
    """Writes (dq/dt, dp/dt) of the canonical flow of h at the state
    y = [q..., p...] (entries past the 2n are not read) into out[:2n] and
    returns out, a writable C-contiguous 1-d float64 array (TypeError
    otherwise) of length at least 2n; the rest of out is left alone. A y that
    is not a list is read as Python floats, which raise on division by zero
    where numpy scalars would give inf."""
    if type(y) is not list:
        y = np.asarray(y, dtype=float).tolist()
    vals = (model._cache.get("flow1" if metric_tag == 1 else "flow2")
            or _program(model, metric_tag, "flow"))(y)
    # the buffer protocol rejects read-only and non-contiguous arrays, but
    # would take raw doubles into any other dtype; a plain float64 row
    # passes on identities, anything else takes the full check
    if not (type(out) is np.ndarray and out.dtype is _FLOAT64 and out.ndim == 1) and (
            not isinstance(out, np.ndarray) or out.dtype != _FLOAT64 or out.ndim != 1):
        raise TypeError("out must be a 1-d float64 array")
    try:
        pack = _packers[len(vals)]
    except KeyError:
        pack = _packers[len(vals)] = struct.Struct("%dd" % len(vals)).pack_into
    pack(out, 0, *vals)
    return out


class Trajectory:
    """An extremal of metric `metric_tag` at the times t (N,), from the
    states y (N, 2n[+1]) of its run, whose accepted steps it keeps."""

    def __init__(self, model, metric_tag, t, y, clipped, t_exit, with_aux, steps):
        n = model.n
        self.model, self.metric_tag = model, metric_tag
        self.t = t
        self.q = y[:, :n].copy()                                # (N, n)
        self.p = y[:, n:2 * n].copy()                           # (N, n)
        # the aux_rate integral at each time, if requested: aux[-1] is the total
        self.aux = y[:, 2 * n].copy() if with_aux else None     # (N,)
        self.clipped = clipped
        self.t_exit = t_exit
        self.steps = steps  # _Steps of the state (q, p[, aux]), for resample

    @functools.cached_property
    def h(self):
        """The (N,) energies, from one lane call when first read."""
        return hamiltonian(self.model, self.metric_tag, (self.q, self.p))


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6) with the
# tableau, step control, dense output and event handling of scipy's DOP853
# under scipy's initial value solve, operation for operation, so that every
# trajectory is the one scipy gives. An 8th-order method: RK45 leaks ~1e-9
# of energy per unit time at tol 1e-10, DOP853 keeps |dh| within tol.
_STAGES = 12                            # 12 stages, then f at the new point
_STAGES_EXTENDED = 16                   # and three more for the dense output


@functools.cache
def _tableau():
    """(A, B, E3, E5, D): scipy's DOP853 tableau, with A[s] the first s
    coefficients of row s. Read on the first integration from scipy's
    coefficient module, which needs only numpy, run from its file: importing
    it through scipy.integrate would load scipy.optimize and scipy.spatial."""
    import importlib.util
    import scipy
    spec = importlib.util.spec_from_file_location(
        "_dop853_coefficients", os.path.join(os.path.dirname(scipy.__file__), "integrate",
                                             "_ivp", "dop853_coefficients.py"))
    dop = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dop)
    A = [dop.A[s, :s] for s in range(_STAGES_EXTENDED)]
    return A, dop.B, dop.E3, dop.E5, dop.D


_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8                      # -1 / (error estimator order + 1)
_EPS = float(np.finfo(float).eps)


class _Steps:
    """Accepted steps of one run in the time direction (+1.0 or -1.0):
    ts = [0, step ends..., t_end] (t_end is the event root when the boundary
    stopped the run), and per step its length h, initial state y_old (N,) and
    dense-output coefficients F (7, N), given as its first three rows and
    its last four."""

    def __init__(self, direction, ts, hs, y_olds, F_low, F_high, N):
        k = len(hs)
        self.direction = direction
        self.ts = np.array(ts)
        self.h = np.array(hs)
        self.y_old = np.array(y_olds).reshape(k, N)
        self.F = np.concatenate([np.array(F_low).reshape(k, 3, N),
                                 np.array(F_high).reshape(k, 4, N)], axis=1)


def _dense(F, y_old, x):
    """DOP853 dense output at x = (t - t_old) / h, evaluated as scipy does."""
    y = np.zeros(y_old.shape)
    for j in range(6, -1, -1):
        y += F[..., j, :]
        y *= x if j % 2 == 0 else 1 - x
    y += y_old
    return y


def _sample(steps, t):
    """(times, states) at the times t that the run reached, each state from
    the interpolant of the step that contains it, the earlier step at a step
    boundary, as scipy's t_eval and OdeSolution choose."""
    ts, sign = steps.ts, steps.direction
    t = t[sign * t <= sign * ts[-1]]
    k = np.searchsorted(sign * ts, sign * t, side="left") - 1
    k = np.clip(k, 0, len(steps.h) - 1)
    x = (t - ts[k]) / steps.h[k]
    return t, _dense(steps.F[k], steps.y_old[k], x[:, None])


def _rms(x):
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _stage(Ks, a, h, y, buf):
    """scipy's y + np.dot(K[:s].T, a) * h as a list of floats: the dot by
    BLAS into buf, as numpy computes it, then each entry's product and sum
    on Python floats, which round as numpy's elementwise operations do."""
    return [x + d * h for x, d in zip(y, Ks.dot(a, buf).tolist())]


def _brentq(f, xa, xb, xtol, rtol):
    """The root of f between xa and xb by Brent's method (Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4), as scipy's brentq
    finds it with maxiter 100: its C loop operation for operation on Python
    floats, with its errors and their messages. rtol is at least 4 eps."""
    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError("The function value at x=%s is NaN; solver cannot continue." % x)
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1, fpre) == math.copysign(1, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1, fpre) != math.copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisects, as C's division by a zero den does
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            if den:
                stry = num / den
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _dop853(fun, event, y0, t1, tol):
    """DOP853 from the state array y0 at t = 0 towards t1, stopped where event(y)
    changes sign.

    fun(y, out) takes a state as a list of floats, writes its rate into the
    float64 row out and returns out. Every dot product of scipy's step is
    numpy's (BLAS order); the elementwise work around them (stage inputs,
    y_new, the error scale and norm, the first three rows of the
    interpolant) runs on Python floats, which round as numpy's elementwise
    operations do.

    Returns (status, steps, y_end): status 0 at t1, 1 at the event's root
    (found by _brentq on the step's interpolant), -1 when the step size fell
    below 10 ulp of t; y_end is the state at the end time steps.ts[-1].
    """
    A, B, E3, E5, D = _tableau()
    rtol, atol = max(tol, 100 * _EPS), tol
    direction = 1.0 if t1 > 0 else -1.0
    N = len(y0)
    K = np.empty((_STAGES_EXTENDED, N))
    Kt = [K[:s].T for s in range(_STAGES_EXTENDED)]
    # (K[:s].T, a[:s], K[s]) of each stage after the first: the main
    # stages, then the three of the dense output
    stages = [(Kt[s], A[s], K[s]) for s in range(1, _STAGES_EXTENDED)]
    main, extra = stages[:_STAGES - 1], stages[_STAGES:]
    buf = np.empty(N)
    y = y0.tolist()
    f = fun(y, np.empty(N))
    # select_initial_step of Hairer, Norsett & Wanner, II.4
    span = abs(t1)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    with np.errstate(over="ignore"):
        d1 = _rms(f / scale)
    if d1 == math.inf and np.isfinite(f).all():
        raise CovectorTooLargeError(
            "the initial rate over the error scale (tolerance %r) cannot be "
            "squared in floats" % tol)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun((y0 + h0 * direction * f).tolist(), np.empty(N))
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, span, _MAX_STEP)
    t = 0.0
    f_old = f.tolist()
    g = event(y)
    ts, hs, y_olds, F_low, F_high = [t], [], [], [], []
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > _MAX_STEP:
            h_abs = _MAX_STEP
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        K[0] = f
        while True:
            if h_abs < min_step:
                return -1, _Steps(direction, ts, hs, y_olds, F_low, F_high, N), y
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            for Ks, a, out in main:
                fun(_stage(Ks, a, h, y, buf), out)
            y_new = _stage(Kt[_STAGES], B, h, y, buf)
            f_new = fun(y_new, K[_STAGES])
            # atol + np.maximum(|y|, |y_new|) rtol, NaN from either side
            scale = np.array([atol + (u if u > v or u != u else v) * rtol
                              for u, v in zip(map(abs, y), map(abs, y_new))])
            err5 = np.dot(Kt[_STAGES + 1], E5) / scale
            err3 = np.dot(Kt[_STAGES + 1], E3) / scale
            err5_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error = 0.0
            else:
                denom = math.sqrt((err5_2 + 0.01 * err3_2) * N)
                # 0.01 err3_2 can underflow to 0 with err5_2 = 0, where
                # numpy's 0 / 0 gives NaN (a rejected step)
                error = abs(h) * err5_2 / denom if denom else math.nan
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
        # dense output: three more stages and the interpolant coefficients
        for Ks, a, out in extra:
            fun(_stage(Ks, a, h, y, buf), out)
        f_next = f_new.tolist()
        delta = [u - v for u, v in zip(y_new, y)]
        low = [delta,
               [h * fo - d for fo, d in zip(f_old, delta)],
               [2 * d - h * (fn + fo) for d, fo, fn in zip(delta, f_old, f_next)]]
        high = h * np.dot(D, K)
        hs.append(h)
        y_olds.append(y)
        F_low.append(low)
        F_high.append(high)
        t_old, y_old = t, y
        t, y, f, f_old = t_new, y_new, f_new, f_next
        if direction * (t - t1) >= 0:
            status = 0
        g_new = event(y)
        if g <= 0 <= g_new or g >= 0 >= g_new:
            F = np.concatenate([low, high])
            y_old = np.array(y_old)
            root = _brentq(lambda r: event(_dense(F, y_old, (r - t_old) / h)),
                           t_old, t, 4 * _EPS, 4 * _EPS)
            t, y = root, _dense(F, y_old, (root - t_old) / h)
            status = 1
        g = g_new
        ts.append(t)
    return status, _Steps(direction, ts, hs, y_olds, F_low, F_high, N), y


def integrate(model, metric_tag, lam0, T, tol=1e-10, samples=None, aux_rate=None):
    """Integrate the extremal from lam0 = (q0, p0) over time T (sign allowed).

    Stops (clipped=True) when the base point reaches the domain boundary;
    q0 must lie farther than _BOUNDARY_EPS inside it (ValueError).
    aux_rate(q, p) -> float, when given, is integrated along the flow and
    its integral at each time is returned in Trajectory.aux. tol is the
    relative and absolute tolerance of the DOP853 steps, finite and positive
    (clipped to 100 eps from below). The states are those at `samples` even
    times of [0, T], or at the accepted step ends without samples; the steps
    are kept, so that resample() can read the run at other times without
    integrating again. Raises CovectorTooLargeError, a ValueError, when the
    initial rate is finite but its scaled norm is not.
    """
    q0, p0 = lam0
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    n = model.n
    if not (math.isfinite(T) and T != 0):
        raise ValueError("integration time must be finite and nonzero, got %r" % float(T))
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("integrator tolerance must be finite and positive, got %r"
                         % float(tol))
    if not model.in_domain(q0):
        raise ValueError("initial point %s outside the model domain" % (q0.tolist(),))
    # the boundary is found where the event changes sign, so a start on it
    # would leave the domain unclipped (or clip at once)
    if not model.boundary_distance(q0) > _BOUNDARY_EPS:
        raise ValueError("initial point %s lies within %g of the domain boundary"
                         % (q0.tolist(), _BOUNDARY_EPS))

    # fun(y, out) writes the rate of the state y, a list, into out and
    # returns out
    if aux_rate is None:
        def fun(y, out):
            return hamiltonian_rhs(model, metric_tag, y, out)
    else:
        n2 = 2 * n

        def fun(y, out):
            hamiltonian_rhs(model, metric_tag, y, out)
            out[n2] = aux_rate(y[:n], y[n:n2])
            return out

    def event(y):
        return model.boundary_distance(y[:n]) - _BOUNDARY_EPS

    y0 = np.concatenate([q0, p0, [0.0]] if aux_rate is not None else [q0, p0])
    status, steps, y_end = _dop853(fun, event, y0, float(T), tol)
    if status == -1:
        raise IntegrationError("integration failed from q = %s at t = %r of T = %r: "
                               "Required step size is less than spacing between numbers."
                               % (q0.tolist(), float(steps.ts[-1]), float(T)))
    t_exit = float(steps.ts[-1]) if status == 1 else None
    traj = Trajectory(model, metric_tag, steps.ts, np.concatenate([steps.y_old, [y_end]]),
                      status == 1, t_exit, aux_rate is not None, steps)
    return resample(traj, np.linspace(0.0, T, samples)) if samples else traj


def resample(traj, t):
    """traj at those of the times t that its run reached, each state read
    off the interpolant of the kept step that contains it (see _sample), as
    scipy's dense output gives it; the run's clipping carries over."""
    t, y = _sample(traj.steps, np.asarray(t, dtype=float))
    return Trajectory(traj.model, traj.metric_tag, t, y, traj.clipped, traj.t_exit,
                      traj.aux is not None, traj.steps)


def write_trajectory_csv(traj, fh):
    """Columns: t, q_1..q_n, p_1..p_n, h."""
    n = traj.q.shape[1]
    writer = csv.writer(fh)
    writer.writerow(["t"] + ["q_%d" % (i + 1) for i in range(n)]
                    + ["p_%d" % (i + 1) for i in range(n)] + ["h"])
    for i in range(len(traj.t)):
        writer.writerow(["%.17g" % traj.t[i]]
                        + ["%.17g" % v for v in traj.q[i]]
                        + ["%.17g" % v for v in traj.p[i]]
                        + ["%.17g" % traj.h[i]])
