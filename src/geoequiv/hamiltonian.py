"""Normal extremal flow of the (sub-)Riemannian kinetic Hamiltonians.

For a metric given by a Gram matrix W on the distribution frame X_1..X_m,
h(p, q) = (1/2) u^T W(q)^{-1} u with quasi-impulses u_i = p(X_i(q)). Hamilton's
equations are evaluated with exact symbolic q-derivatives of the frame and the
Gram matrix; no finite differencing enters the right-hand side. Extremals
are integrated by a DOP853 loop that takes the steps of scipy's DOP853, as
scipy's initial value solve runs it, bit for bit, without its per-step
objects.
"""

import csv
import math
import struct

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import brentq

from . import expr as ex

_BOUNDARY_EPS = 1e-12
_MAX_STEP = 1e-2            # the longest DOP853 step of integrate
_FLOAT64 = np.dtype(float)


class IntegrationError(RuntimeError):
    """The integrator could not follow an extremal (its step size collapsed)."""


def _is_one(e):
    return isinstance(e, ex.Const) and e.value == 1.0


def _dot(prog, pairs):
    """Source of sum coef * var over (Expr coef, local name) pairs, zeros dropped."""
    terms = []
    for coef, var in pairs:
        if ex.is_zero(coef):
            continue
        terms.append(var if _is_one(coef) else "%s * %s" % (prog.value(coef), var))
    return " + ".join(terms)


def _lower(rows, a, b):
    # symmetric matrix entry [a][b] read from the lower triangle
    return rows[a][b] if a >= b else rows[b][a]


def _quadratic(prog, rows, names):
    """Source of w^T M w for the symmetric Expr matrix `rows`, or "" when M = 0."""
    m = len(names)
    terms = []
    for a in range(m):
        inner = _dot(prog, [(_lower(rows, a, b), names[b]) for b in range(m)])
        if inner:
            terms.append("%s * (%s)" % (names[a], inner))
    return " + ".join(terms)


def _generate(model, tag, kind):
    """One compiled program of metric `tag`: kind "flow" or "energy".

    With u_i = p(X_i), W the Gram matrix of the metric (symmetric; its lower
    triangle is read) and v = W^{-1} u, the flow program gives
      (q, p) -> (dq/dt, dp/dt),  dq/dt = sum_i v_i X_i,
      dp_k/dt = (1/2) v^T (d_k W) v - sum_i v_i p(d_k X_i),
    and the energy program gives (q, p) -> (h,) with h = u.v / 2, and for
    tag 1 (h, P) with the intrinsic P = v^T W2 v; it has no derivative terms.
    Both share one prelude: W is solved by an unpivoted LDL^T factorization
    unrolled into straight-line code, and structurally zero entries of the
    frame, the Gram matrix and their derivatives emit nothing.
    """
    n, m = model.n, model.m
    frame = model.frame
    gram = model.gram1 if tag == 1 else model.gram2
    prog = ex.Program(("q", "p"))
    p = ["p[%d]" % j for j in range(n)]

    u = [prog.assign("u%d" % i, _dot(prog, zip(frame[i], p)) or "0.0")
         for i in range(m)]

    # W = L D L^T with unit lower-triangular L; entries of L that are
    # structurally zero are left out of L
    L, D = {}, []
    for j in range(m):
        for i in range(j, m):
            terms = ["%s * %s * %s" % (L[i, k], L[j, k], D[k])
                     for k in range(j) if (i, k) in L and (j, k) in L]
            w = gram[i][j]
            if ex.is_zero(w) and not terms and i > j:
                continue
            src = prog.value(w)
            if terms:
                src = "%s - (%s)" % (src, " + ".join(terms))
            if i == j:
                D.append(prog.assign("d%d" % j, src))
            else:
                L[i, j] = prog.assign("l%d_%d" % (i, j), "(%s) / %s" % (src, D[j]))
    y = []
    for i in range(m):
        terms = ["%s * %s" % (L[i, k], y[k]) for k in range(i) if (i, k) in L]
        y.append(prog.assign("y%d" % i, "%s - (%s)" % (u[i], " + ".join(terms)))
                 if terms else u[i])
    v = [None] * m
    for i in reversed(range(m)):
        terms = ["%s * %s" % (L[k, i], v[k]) for k in range(i + 1, m) if (k, i) in L]
        src = "%s / %s" % (y[i], D[i])
        v[i] = prog.assign("v%d" % i, "%s - (%s)" % (src, " + ".join(terms))
                           if terms else src)

    if kind == "energy":
        results = [prog.assign("energy", "0.5 * (%s)" % " + ".join(
            "%s * %s" % (u[i], v[i]) for i in range(m)))]
        if tag == 1:
            results.append(prog.assign("intrinsic",
                                       _quadratic(prog, model.gram2, v) or "0.0"))
        return prog.compile(results, name="_energy%d" % tag)

    results = [prog.assign("qd%d" % j, _dot(prog, [(frame[i][j], v[i]) for i in range(m)])
                           or "0.0")
               for j in range(n)]
    for k in range(n):
        memo = {}   # the differentiate memo of coordinate k, for this build
        dW = [[ex.differentiate(gram[a][b], k, memo) if a >= b else None for b in range(m)]
              for a in range(m)]
        quad = _quadratic(prog, dW, v)
        force = []
        for i in range(m):
            inner = _dot(prog, [(ex.differentiate(frame[i][j], k, memo), p[j])
                                for j in range(n)])
            if inner:
                force.append("(%s) * %s" % (inner, v[i]))
        src = "0.5 * (%s)" % quad if quad else ""
        if force:
            src += " - (%s)" % " + ".join(force)
        results.append(prog.assign("pd%d" % k, src or "0.0"))
    flow = prog.compile(results, name="_flow%d" % tag)
    # writes the 2n rates into the buffer of a writable C-contiguous array
    flow.pack_into = struct.Struct("%dd" % (2 * n)).pack_into
    return flow


def _program(model, tag, kind):
    """The generated `kind` program of metric `tag`, cached on the model."""
    key = (kind, tag)
    fn = model._cache.get(key)
    if fn is None:
        fn = model._cache[key] = _generate(model, tag, kind)
    return fn


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
        return energy.lanes(q, p)[0]
    return float(energy(q.tolist(), p.tolist())[0])


def hamiltonian_rhs(model, metric_tag, q, p, out):
    """Writes (dq/dt, dp/dt) of the canonical flow of h into out[:2n] and
    returns out, a writable C-contiguous 1-d float64 array (TypeError
    otherwise) of length at least 2n; the rest of out is left alone. q and
    p that are not lists are read as Python floats, which raise on division
    by zero where numpy scalars would give inf."""
    if type(q) is not list:
        q, p = np.asarray(q, dtype=float).tolist(), np.asarray(p, dtype=float).tolist()
    flow = _program(model, metric_tag, "flow")
    vals = flow(q, p)
    # the buffer protocol rejects read-only and non-contiguous arrays, but
    # would take raw doubles into any other dtype
    if not isinstance(out, np.ndarray) or out.dtype != _FLOAT64 or out.ndim != 1:
        raise TypeError("out must be a 1-d float64 array")
    flow.pack_into(out, 0, *vals)
    return out


class Trajectory:
    def __init__(self, t, q, p, h, clipped, t_exit=None, aux=None, steps=None,
                 flow=None):
        self.t = t          # (N,)
        self.q = q          # (N, n)
        self.p = p          # (N, n)
        self.h = h          # (N,)
        self.clipped = clipped
        self.t_exit = t_exit
        self.aux = aux      # accumulated aux_rate integral, if requested
        self.steps = steps  # _Steps of the state (q, p[, aux]), for cut
        self.flow = flow    # (fun, event, tol) that _dop853 stepped

    @property
    def end(self):
        return self.q[-1], self.p[-1]


def _trajectory(model, metric_tag, t, y, clipped, t_exit, with_aux, steps=None,
                flow=None):
    """Trajectory from the states y[i] at the times t; h from one lane call."""
    n = model.n
    q = y[:, :n].copy()
    p = y[:, n:2 * n].copy()
    h = hamiltonian(model, metric_tag, (q, p))
    aux = None
    if with_aux:
        aux = float(y[-1, 2 * n]) if len(y) else 0.0
    return Trajectory(t, q, p, h, clipped, t_exit, aux, steps, flow)


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6) with the
# tableau, step control, dense output and event handling of scipy's DOP853
# under scipy's initial value solve, operation for operation, so that every
# trajectory is the one scipy gives. An 8th-order method: RK45 leaks ~1e-9
# of energy per unit time at tol 1e-10, DOP853 keeps |dh| within tol.
_STAGES = _dop.N_STAGES                 # 12 stages, then f at the new point
_A = [_dop.A[s, :s] for s in range(_dop.N_STAGES_EXTENDED)]
_B = _dop.B
_E3, _E5, _D = _dop.E3, _dop.E5, _dop.D
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8                      # -1 / (error estimator order + 1)
_EPS = float(np.finfo(float).eps)


class _Steps:
    """Accepted steps of one run in the time direction (+1.0 or -1.0):
    ts = [t0, step ends..., t_end] (t_end is the event root when the boundary
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


def _dop853(fun, event, t0, y0, t1, tol, first_step=None):
    """DOP853 from the state array y0 at t0 towards t1, stopped where event(y)
    changes sign.

    fun(y, out) takes a state as a list of floats, writes its rate into the
    float64 row out and returns out. Every dot product of scipy's step is
    numpy's (BLAS order); the elementwise work around them (stage inputs,
    y_new, the error scale and norm, the first three rows of the
    interpolant) runs on Python floats, which round as numpy's elementwise
    operations do.

    Returns (status, steps, y_end): status 0 at t1, 1 at the event's root
    (found by brentq on the step's interpolant), -1 when the step size fell
    below 10 ulp of t; y_end is the state at the end time steps.ts[-1].
    """
    rtol, atol = max(tol, 100 * _EPS), tol
    direction = 1.0 if t1 > t0 else -1.0
    N = len(y0)
    K = np.empty((_dop.N_STAGES_EXTENDED, N))
    Kt = [K[:s].T for s in range(_dop.N_STAGES_EXTENDED)]
    # (K[:s].T, a[:s], K[s]) of each stage after the first: the main
    # stages, then the three of the dense output
    stages = [(Kt[s], _A[s], K[s]) for s in range(1, _dop.N_STAGES_EXTENDED)]
    main, extra = stages[:_STAGES - 1], stages[_STAGES:]
    buf = np.empty(N)
    y = y0.tolist()
    f = fun(y, np.empty(N))
    if first_step is None:
        # select_initial_step of Hairer, Norsett & Wanner, II.4
        span = abs(t1 - t0)
        scale = atol + np.abs(y0) * rtol
        d0, d1 = _rms(y0 / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = fun((y0 + h0 * direction * f).tolist(), np.empty(N))
        d2 = _rms((f1 - f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        h_abs = min(100 * h0, h1, span, _MAX_STEP)
    else:
        h_abs = first_step
    t = t0
    f_old = f.tolist()
    g = event(y)
    ts, hs, y_olds, F_low, F_high = [t0], [], [], [], []
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
            y_new = _stage(Kt[_STAGES], _B, h, y, buf)
            f_new = fun(y_new, K[_STAGES])
            # atol + np.maximum(|y|, |y_new|) rtol, NaN from either side
            scale = np.array([atol + (u if u > v or u != u else v) * rtol
                              for u, v in zip(map(abs, y), map(abs, y_new))])
            err5 = np.dot(Kt[_STAGES + 1], _E5) / scale
            err3 = np.dot(Kt[_STAGES + 1], _E3) / scale
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
        high = h * np.dot(_D, K)
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
            root = brentq(lambda r: event(_dense(F, y_old, (r - t_old) / h)),
                          t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
            t, y = root, _dense(F, y_old, (root - t_old) / h)
            status = 1
        g = g_new
        ts.append(t)
    return status, _Steps(direction, ts, hs, y_olds, F_low, F_high, N), y


def integrate(model, metric_tag, lam0, T, tol=1e-10, samples=None, aux_rate=None):
    """Integrate the extremal from lam0 = (q0, p0) over time T (sign allowed).

    Stops (clipped=True) when the base point reaches the domain boundary.
    aux_rate(q, p) -> float, when given, is integrated along the flow and the
    total is returned in Trajectory.aux. tol is the relative and absolute
    tolerance of the DOP853 steps, finite and positive (clipped to 100 eps
    from below). The steps are kept, so that cut() can shorten the horizon
    without integrating again.
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
        raise ValueError("initial point outside the model domain")

    # fun(y, out) writes the rate of the state y, a list, into out and
    # returns out
    if aux_rate is None:
        def fun(y, out):
            return hamiltonian_rhs(model, metric_tag, y[:n], y[n:], out)
    else:
        def fun(y, out):
            q, p = y[:n], y[n:2 * n]
            hamiltonian_rhs(model, metric_tag, q, p, out)
            out[2 * n] = aux_rate(q, p)
            return out

    def event(y):
        return model.boundary_distance(y[:n]) - _BOUNDARY_EPS

    flow = (fun, event, tol)
    y0 = np.concatenate([q0, p0, [0.0]] if aux_rate is not None else [q0, p0])
    status, steps, y_end = _dop853(fun, event, 0.0, y0, float(T), tol)
    if status == -1:
        raise IntegrationError("integration failed from q = %s at t = %r of T = %r: "
                               "Required step size is less than spacing between numbers."
                               % (q0.tolist(), float(steps.ts[-1]), float(T)))
    if samples:
        t, y = _sample(steps, np.linspace(0.0, T, samples))
    else:
        t = steps.ts
        y = np.concatenate([steps.y_old, [y_end]])
    t_exit = float(steps.ts[-1]) if status == 1 else None
    return _trajectory(model, metric_tag, t, y, status == 1, t_exit,
                       aux_rate is not None, steps, flow)


def cut(model, metric_tag, traj, T, samples):
    """traj on [0, T] at `samples` even times, as integrating to T would give it.

    T must lie within the integrated span. Integrating to T repeats the steps
    of traj up to the last step boundary t_k before T, then takes one partial
    step to T. So the samples up to t_k are read off the steps' interpolants,
    and only that partial step is taken again, from the exact state at t_k.
    The aux total is the aux component at T.
    """
    steps = traj.steps
    ts, sign = steps.ts, steps.direction
    t = np.linspace(0.0, T, samples)
    k = int(np.searchsorted(sign * ts, sign * T, side="left")) - 1
    head = sign * t <= sign * ts[k]
    # the state at t_k as step k's interpolant gives it, at x = +-0
    y_k = _dense(steps.F[k], steps.y_old[k], (ts[k] - ts[k]) / steps.h[k])
    fun, event, tol = traj.flow
    _status, tail, _y = _dop853(fun, event, float(ts[k]), y_k, float(T), tol,
                                first_step=abs(T - ts[k]))
    t_head, y_head = _sample(steps, t[head])
    t_tail, y_tail = _sample(tail, t[~head])
    return _trajectory(model, metric_tag, np.concatenate([t_head, t_tail]),
                       np.concatenate([y_head, y_tail]), False, None, traj.aux is not None)


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
