"""Normal extremal flow of the (sub-)Riemannian kinetic Hamiltonians.

For a metric given by a Gram matrix W on the distribution frame X_1..X_m,
h(p, q) = (1/2) u^T W(q)^{-1} u with quasi-impulses u_i = p(X_i(q)). Hamilton's
equations are evaluated with exact symbolic q-derivatives of the frame and the
Gram matrix; no finite differencing enters the right-hand side.
"""

import csv

import numpy as np
from scipy.integrate import solve_ivp

from . import expr as ex

_BOUNDARY_EPS = 1e-12


class IntegrationError(RuntimeError):
    """The integrator could not follow an extremal (its step size collapsed)."""


def quasi_impulses(model, frame, lam):
    """u_i = p(X_i) for the columns of `frame` (default: the model frame)."""
    q, p = lam
    if frame is None:
        frame = model.frame_at(tuple(q))
    return np.asarray(p, dtype=float) @ np.asarray(frame, dtype=float)


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
        dW = [[ex.differentiate(gram[a][b], k) if a >= b else None for b in range(m)]
              for a in range(m)]
        quad = _quadratic(prog, dW, v)
        force = []
        for i in range(m):
            inner = _dot(prog, [(ex.differentiate(frame[i][j], k), p[j]) for j in range(n)])
            if inner:
                force.append("(%s) * %s" % (inner, v[i]))
        src = "0.5 * (%s)" % quad if quad else ""
        if force:
            src += " - (%s)" % " + ".join(force)
        results.append(prog.assign("pd%d" % k, src or "0.0"))
    return prog.compile(results, name="_flow%d" % tag)


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


def hamiltonian_rhs(model, metric_tag, q, p):
    """(dq/dt, dp/dt) for the canonical flow of h. q and p that are not lists
    are read as Python floats, which raise on division by zero where numpy
    scalars would give inf."""
    if type(q) is not list:
        q, p = np.asarray(q, dtype=float).tolist(), np.asarray(p, dtype=float).tolist()
    n = model.n
    vals = _program(model, metric_tag, "flow")(q, p)
    return np.array(vals[:n]), np.array(vals[n:])


class Trajectory:
    def __init__(self, t, q, p, h, clipped, t_exit=None, aux=None, dense=None,
                 resume=None):
        self.t = t          # (N,)
        self.q = q          # (N, n)
        self.p = p          # (N, n)
        self.h = h          # (N,)
        self.clipped = clipped
        self.t_exit = t_exit
        self.aux = aux      # accumulated aux_rate integral, if requested
        self.dense = dense  # scipy OdeSolution of the state (q, p[, aux])
        # resume(t0, y0, t1, t_eval): solve_ivp result of the same flow
        # (right-hand side, tolerances, boundary event) from y0 at t0 to t1
        self.resume = resume

    @property
    def end(self):
        return self.q[-1], self.p[-1]


def _trajectory(model, metric_tag, t, y, clipped, t_exit, with_aux, dense=None,
                resume=None):
    """Trajectory from the states y[:, i] at the times t; h from one lane call."""
    n = model.n
    q = y[:n].T.copy()
    p = y[n:2 * n].T.copy()
    h = hamiltonian(model, metric_tag, (q, p))
    aux = None
    if with_aux:
        aux = float(y[2 * n, -1]) if y.shape[1] else 0.0
    return Trajectory(t, q, p, h, clipped, t_exit, aux, dense, resume)


def integrate(model, metric_tag, lam0, T, tol=1e-10, max_step=1e-2,
              samples=None, aux_rate=None):
    """Integrate the extremal from lam0 = (q0, p0) over time T (sign allowed).

    Stops (clipped=True) when the base point reaches the domain boundary.
    aux_rate(q, p) -> float, when given, is integrated along the flow and the
    total is returned in Trajectory.aux. The dense solution is kept, so that
    cut() can shorten the horizon without integrating again.
    """
    q0, p0 = lam0
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    n = model.n
    if T == 0:
        raise ValueError("integration time must be nonzero")
    if not model.in_domain(q0):
        raise ValueError("initial point outside the model domain")

    with_aux = aux_rate is not None

    def rhs(_t, y):
        state = y.tolist()
        q, p = state[:n], state[n:2 * n]
        qdot, pdot = hamiltonian_rhs(model, metric_tag, q, p)
        if with_aux:
            return np.concatenate([qdot, pdot, [aux_rate(q, p)]])
        return np.concatenate([qdot, pdot])

    def hit_boundary(_t, y):
        return model.boundary_distance(y[:n]) - _BOUNDARY_EPS

    hit_boundary.terminal = True

    def solve(t0, y0, t1, t_eval, first_step=None):
        # RK45 leaks ~1e-9 of energy per unit time at tol 1e-10; the 8th
        # order stepper keeps |dh| within the advertised tolerance
        return solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=tol, atol=tol,
                         max_step=max_step, events=[hit_boundary], t_eval=t_eval,
                         dense_output=True, first_step=first_step)

    def resume(t0, y0, t1, t_eval):
        return solve(t0, y0, t1, t_eval, first_step=abs(t1 - t0))

    y0 = np.concatenate([q0, p0, [0.0]] if with_aux else [q0, p0])
    sol = solve(0.0, y0, T, np.linspace(0.0, T, samples) if samples else None)
    if sol.status == -1:
        raise IntegrationError("integration failed from q = %s at t = %r of T = %r: %s"
                               % (q0.tolist(), float(sol.sol.ts[-1]), float(T),
                                  sol.message))

    clipped = sol.status == 1
    t_exit = float(sol.t_events[0][0]) if clipped and len(sol.t_events[0]) else None
    t, y = sol.t, sol.y
    if t.size == 0:
        # immediate boundary hit; report the initial state only
        t, y = np.array([0.0]), y0[:, None]
    return _trajectory(model, metric_tag, t, y, clipped, t_exit, with_aux,
                       sol.sol, resume)


def cut(model, metric_tag, traj, T, samples):
    """traj on [0, T] at `samples` even times, as integrating to T would give it.

    T must lie within the integrated span. Integrating to T repeats the steps
    of traj up to the last step boundary t_k before T, then takes one partial
    step to T. So the samples up to t_k are read off the dense solution, and
    only that partial step is taken again, from the exact state at t_k. The
    aux total is the aux component at T.
    """
    dense = traj.dense
    ts = dense.ts
    t = np.linspace(0.0, T, samples)
    sign = 1.0 if T > 0 else -1.0
    k = int(np.searchsorted(sign * ts, sign * T, side="left")) - 1
    head = sign * t <= sign * ts[k]
    # a step's interpolant returns its initial state exactly
    tail = traj.resume(ts[k], dense.interpolants[k](ts[k]), T, t[~head])
    y = np.concatenate([dense(t[head]), tail.y], axis=1)
    return _trajectory(model, metric_tag, t, y, False, None, traj.aux is not None)


def initial_covector(model, metric_tag, q, v, transverse=None):
    """Phase point lam0 = (q, p) whose extremal starts with velocity v.

    v is a coordinate-components vector required to lie in D(q); the covector
    is fixed on D by the metric and on the transverse fields by `transverse`
    (defaults to zero quasi-impulses there).
    """
    q = tuple(np.asarray(q, dtype=float).tolist())
    v = np.asarray(v, dtype=float)
    n, m = model.n, model.m
    E = model.frame_at(q)
    ED = E[:, :m]
    coeff, residual, *_ = np.linalg.lstsq(ED, v, rcond=None)
    if np.linalg.norm(ED @ coeff - v) > 1e-9 * max(1.0, np.linalg.norm(v)):
        raise ValueError("velocity does not lie in the distribution at %s" % (list(q),))
    u = model.gram_at(q, metric_tag) @ coeff
    trans = np.zeros(n - m) if transverse is None else np.asarray(transverse, dtype=float)
    if trans.shape != (n - m,):
        raise ValueError("transverse part must have length %d" % (n - m))
    p = np.linalg.solve(E.T, np.concatenate([u, trans]))
    return np.array(q), p


def arc_length(model, metric_tag, traj):
    """Metric length of the projected curve, trapezoid rule on the samples.

    The speed is sqrt(v^T W v) = sqrt(u^T W^{-1} u) = sqrt(2h).
    """
    speeds = np.sqrt(np.maximum(2.0 * hamiltonian(model, metric_tag, (traj.q, traj.p)),
                                0.0))
    return float(np.trapezoid(speeds, traj.t))


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
