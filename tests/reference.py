"""Reference implementations that the library replaced with faster ones.

The numpy Hamiltonian formulas evaluate the frame, the Gram matrices and
their derivatives through the model's compiled evaluators and solve with
numpy; full_field is the one generated program (q, p) -> (h, dq/dt,
dp/dt[, P]) that the flow and energy programs of geoequiv.hamiltonian
replaced, and every energy was once read from it; the curve distance loops
over every segment for every point; the structure functions of the
adapted frames come from a 4th-order central finite-difference stencil
over AdaptedFrame.at, and the gauge of AdaptedFrame.at was a per-cluster
singular-value check and a gram1 Gram-Schmidt loop; the regularity probe solves every pencil with
scipy.linalg.eigh, evaluates its extra Nelder-Mead start by solving
each kept sample again, and still minimizes with scipy's
minimize(method="Nelder-Mead", bounds=...), which pair's own bounded
Nelder-Mead replaced; the fiber polynomials were dicts from exponent
tuples to coefficients, with their own products, and were copied into
coefficient vectors only to be divided. Tests compare the
generated Hamiltonian programs, the pruned curve distance, the exact frame
derivatives of AdaptedFrame.point_data, the gauge of AdaptedFrame.at,
pair.regularity_probe and the fiber polynomial screens with them. The
extremals were integrated by scipy's solve_ivp (DOP853 with a terminal
boundary event and dense output), and cut re-took its partial step through
solve_ivp; the library's own DOP853 loop must reproduce them bit for bit.
The symbolic gram1 Gram-Schmidt (orthonormalize), the trapezoid arc
length and the quasi-impulses u = p A of the model frame (quasi_impulses)
and of an adapted frame (adapted_impulses) had no caller in the library;
tests use them as oracles, and so is initial_covector, the phase point
whose extremal starts with a given velocity. hamiltonian_rhs writes its
rates into a buffer; rhs_arrays gives them as the two arrays (dq/dt,
dp/dt) that it once returned. geometry.validate_model checked its probe
grid point by point (loop_validate_model), evaluating the frame and each
Gram matrix through the scalar evaluators. The parser built trees, with a
node of its own for every occurrence of a subexpression; unshare rebuilds
such a tree from a hash-consed expression.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from geoequiv import expr as ex
from geoequiv.geometry import _DET_TOL, ModelValidationError
from geoequiv.hamiltonian import (_BOUNDARY_EPS, IntegrationError, _dot, _quadratic,
                                  hamiltonian, hamiltonian_rhs)
from geoequiv.pair import (_CLUSTER_TOL, _GAUGE_MIN_SV, AdaptedFrameError,
                           _cluster_indices)


def unshare(e):
    """e rebuilt with the plain node classes as a tree: every occurrence of
    a node gets a node of its own, so no two positions share one."""
    if isinstance(e, ex.Const):
        return ex.Const(e.value)
    if isinstance(e, ex.Coord):
        return ex.Coord(e.index, e.name)
    if isinstance(e, ex.Pow):
        return ex.Pow(unshare(e.base), e.exponent)
    if isinstance(e, ex.Unary):
        return ex.Unary(e.op, unshare(e.arg))
    return ex.Binary(e.op, unshare(e.left), unshare(e.right))


def rhs_arrays(model, metric_tag, q, p):
    """(dq/dt, dp/dt) of hamiltonian_rhs, read from the buffer it fills."""
    n = len(q)
    out = hamiltonian_rhs(model, metric_tag, q, p, np.empty(2 * n))
    return out[:n], out[n:]


def numpy_hamiltonian(model, metric_tag, lam):
    """(1/2) u^T W^{-1} u with u_i = p(X_i)."""
    q, p = lam
    q = tuple(q)
    m = model.m
    ED = model.frame_at(q)[:, :m]
    u = np.asarray(p, dtype=float) @ ED
    W = model.gram_at(q, metric_tag)
    return 0.5 * float(u @ np.linalg.solve(W, u))


def numpy_hamiltonian_rhs(model, metric_tag, q, p):
    """(dq/dt, dp/dt) of the canonical flow of h."""
    qt = tuple(q)
    m = model.m
    p = np.asarray(p, dtype=float)
    E = model.frame_at(qt)
    dE = model.dframe_at(qt)
    W = model.gram_at(qt, metric_tag)
    dW = model.dgram_at(qt, metric_tag)
    ED = E[:, :m]
    u = p @ ED
    v = np.linalg.solve(W, u)
    qdot = ED @ v
    pdot = np.empty(model.n)
    for k in range(model.n):
        pdot[k] = 0.5 * (v @ dW[k] @ v) - (p @ dE[k][:, :m]) @ v
    return qdot, pdot


def numpy_intrinsic_P(model, lam):
    """(W1^{-1}u)^T W2 (W1^{-1}u)."""
    q, p = lam
    qt = tuple(q)
    m = model.m
    ED = model.frame_at(qt)[:, :m]
    u = np.asarray(p, dtype=float) @ ED
    w = np.linalg.solve(model.gram_at(qt, 1), u)
    return float(w @ model.gram_at(qt, 2) @ w)


def loop_validate_model(model, per_axis=3):
    """Pointwise sanity on a probe grid: frame nondegenerate, Grams SPD."""
    for q in model.probe_grid(per_axis=per_axis, margin=0.05):
        q = q.tolist()
        qt = tuple(q)
        try:
            E = model.frame_at(qt)
        except ex.EvalDomainError as exc:
            raise ModelValidationError("frame undefined at %s: %s" % (q, exc)) from exc
        scale = max(1.0, float(np.max(np.abs(E))) ** model.n)
        if abs(np.linalg.det(E)) < _DET_TOL * scale:
            raise ModelValidationError("frame degenerate at %s (|det| = %g)"
                                       % (q, abs(np.linalg.det(E))))
        for tag in (1, 2):
            try:
                W = model.gram_at(qt, tag)
            except ex.EvalDomainError as exc:
                raise ModelValidationError("gram%d undefined at %s: %s"
                                           % (tag, q, exc)) from exc
            # np.allclose(W, W.T, rtol=1e-9, atol=1e-12 * max(1, max |W|)) on
            # plain floats: its test |a - b| <= atol + rtol |b| for finite
            # values, and compiled calls raise on values that are not finite
            rows = W.tolist()
            atol = 1e-12 * max(1.0, max(abs(w) for row in rows for w in row))
            if not all(abs(a - b) <= atol + 1e-9 * abs(b)
                       for row, col in zip(rows, zip(*rows)) for a, b in zip(row, col)):
                raise ModelValidationError("gram%d not symmetric at %s" % (tag, q))
            try:
                np.linalg.cholesky(W)
            except np.linalg.LinAlgError:
                raise ModelValidationError("gram%d not positive definite at %s"
                                           % (tag, q)) from None


def full_field(model, tag):
    """One compiled function (q, p) -> (h, dq/dt, dp/dt) for metric `tag`.

    With u_i = p(X_i), W the Gram matrix of the metric (symmetric; its lower
    triangle is read) and v = W^{-1} u:
      dq/dt = sum_i v_i X_i,  h = u.v / 2,
      dp_k/dt = (1/2) v^T (d_k W) v - sum_i v_i p(d_k X_i).
    W is solved by an unpivoted LDL^T factorization unrolled into straight-line
    code, and structurally zero entries of the frame, the Gram matrix and their
    derivatives emit nothing. For tag 1 the tuple ends with the intrinsic
    P = v^T W2 v as well.
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

    results = [prog.assign("energy", "0.5 * (%s)" % " + ".join(
        "%s * %s" % (u[i], v[i]) for i in range(m)))]
    results += [prog.assign("qd%d" % j, _dot(prog, [(frame[i][j], v[i]) for i in range(m)])
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
    if tag == 1:
        results.append(prog.assign("intrinsic", _quadratic(prog, model.gram2, v) or "0.0"))
    return prog.compile(results, name="_field%d" % tag)


def loop_polyline_distances(points, poly):
    """Distance from each point to the polyline, minimum over all segments."""
    seg_a = poly[:-1]
    seg_v = poly[1:] - seg_a
    denom = np.maximum((seg_v * seg_v).sum(axis=1), 1e-300)
    out = np.empty(len(points))
    for i, pt in enumerate(points):
        ap = pt - seg_a
        t = np.clip((ap * seg_v).sum(axis=1) / denom, 0.0, 1.0)
        proj = seg_a + t[:, None] * seg_v
        out[i] = np.sqrt(((pt - proj) ** 2).sum(axis=1).min())
    return out


def fd_structure_functions(frame, q, fd_step):
    """(c, cbar, dalpha_sq) of the adapted and rescaled frames at q, by
    finite differences; dalpha_sq[i, j] = X_{i+1}(alpha_{j+1}^2).

    4n calls of frame.at around q; the error is O(fd_step^4) where the
    gauge is smooth.
    """
    n, m = frame.model.n, frame.model.m
    qt = np.asarray(q, dtype=float)

    def frames(point):
        Ap, _, lp = frame.at(point)[:3]
        Abar = Ap.copy()
        Abar[:, :m] /= np.sqrt(lp)[None, :]
        return Ap, Abar, lp

    A, Abar, _ = frames(qt)
    dA = np.empty((n, n, n))
    dAbar = np.empty((n, n, n))
    dlams = np.empty((n, m))
    h = fd_step
    for k in range(n):
        step = np.zeros(n)
        step[k] = h
        Ap1, Bp1, lp1 = frames(qt + step)
        Am1, Bm1, lm1 = frames(qt - step)
        Ap2, Bp2, lp2 = frames(qt + 2 * step)
        Am2, Bm2, lm2 = frames(qt - 2 * step)
        dA[k] = (8.0 * (Ap1 - Am1) - (Ap2 - Am2)) / (12.0 * h)
        dAbar[k] = (8.0 * (Bp1 - Bm1) - (Bp2 - Bm2)) / (12.0 * h)
        dlams[k] = (8.0 * (lp1 - lm1) - (lp2 - lm2)) / (12.0 * h)

    def structure(Amat, dAmat):
        c = np.zeros((n, n, n))
        cols = []
        pairs = list(itertools.combinations(range(n), 2))
        for a, b in pairs:
            vec = np.zeros(n)
            for k in range(n):
                vec += Amat[k, a] * dAmat[k][:, b] - Amat[k, b] * dAmat[k][:, a]
            cols.append(vec)
        sol = np.linalg.solve(Amat, np.stack(cols, axis=1))
        for col, (a, b) in enumerate(pairs):
            c[a, b, :] = sol[:, col]
            c[b, a, :] = -sol[:, col]
        return c

    return structure(A, dA), structure(Abar, dAbar), A[:, :m].T @ dlams



def loop_gauge(frame, q):
    """(A, Vg) of the adapted frame at q, gauge-fixed cluster by cluster.

    Each cluster block B of the pencil's eigenvectors is turned towards the
    reference block R as B C with C = B^T W1 R, after a check that C is not
    nearly singular, then orthonormalized for gram1 by Gram-Schmidt.
    """
    model = frame.model
    n, m = model.n, model.m
    qt = tuple(np.asarray(q, dtype=float).tolist())
    W1 = model.gram_at(qt, 1)
    lams, V = sla.eigh(model.gram_at(qt, 2), W1)
    Vg = np.empty_like(V)
    for idx in _cluster_indices(lams, frame.cluster_tol):
        idx = list(idx)
        B = V[:, idx]
        C = B.T @ W1 @ frame.reference[:, idx]
        if np.linalg.svd(C, compute_uv=False)[-1] < _GAUGE_MIN_SV:
            raise AdaptedFrameError("gauge reference degenerate at %s" % (list(qt),))
        block = B @ C
        for a in range(block.shape[1]):
            for b in range(a):
                block[:, a] -= (block[:, b] @ W1 @ block[:, a]) * block[:, b]
            block[:, a] /= np.sqrt(block[:, a] @ W1 @ block[:, a])
        Vg[:, idx] = block
    A = np.empty((n, n))
    A[:, :m] = model.frame_at(qt)[:, :m] @ Vg
    if n > m:
        A[:, m] = frame._completion_fn(qt)
    return A, Vg

def eigh_clusters(model, q, cluster_tol):
    """Eigenvalue clusters of the pencil (gram2, gram1) at q, through eigh."""
    qt = tuple(np.asarray(q, dtype=float))
    lams, _ = sla.eigh(model.gram_at(qt, 2), model.gram_at(qt, 1))
    if lams[0] <= 0:
        raise ValueError("transition operator not positive at %s" % (list(qt),))
    return _cluster_indices(lams, cluster_tol)


def eigh_split_gap(model, q, boundaries):
    """Smallest relative gap across the cluster boundaries at q."""
    if not model.in_domain(q):
        return np.inf
    try:
        W1 = model.gram_at(tuple(q), 1)
        W2 = model.gram_at(tuple(q), 2)
        lams = sla.eigh(W2, W1, eigvals_only=True)
    except (ValueError, ex.EvalDomainError, np.linalg.LinAlgError):
        return np.inf
    scale = max(np.max(np.abs(lams)), 1e-300)
    return min((lams[b] - lams[b - 1]) / scale for b in boundaries)


def eigh_regularity_probe(model, q, radius, samples=40, seed=0, cluster_tol=_CLUSTER_TOL):
    """(N_values, samples_used, gap_min, witness, N_witness) of the probe.

    The ball samples solve the full pencil, and the extra Nelder-Mead start
    is the kept sample that minimizes the objective, evaluated afresh.
    """
    q = np.asarray(q, dtype=float)
    clusters = eigh_clusters(model, q, cluster_tol)
    rng = np.random.default_rng(seed)
    values = {len(clusters)}
    used = 0
    kept = []
    for _ in range(samples * 4):
        if used >= samples:
            break
        direction = rng.normal(size=model.n)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        point = q + direction / norm * radius * rng.random() ** (1.0 / model.n)
        if not model.in_domain(point):
            continue
        try:
            values.add(len(eigh_clusters(model, point, cluster_tol)))
            kept.append(point)
        except ValueError:
            values.add(-1)
        used += 1

    gap_min = None
    witness = None
    N_witness = None
    boundaries = [grp[0] for grp in clusters[1:]]
    if boundaries:
        objective = lambda p: eigh_split_gap(model, p, boundaries)
        lo = np.maximum(q - radius, model.domain_min)
        hi = np.minimum(q + radius, model.domain_max)
        starts = [q] + kept[:3]
        if kept:
            starts.append(min(kept, key=objective))
        best_p, best_g = q, objective(q)
        for start in starts:
            res = minimize(objective, np.clip(start, lo, hi), method="Nelder-Mead",
                           bounds=list(zip(lo, hi)),
                           options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400})
            cand = np.asarray(res.x)
            off = cand - q
            dist = np.linalg.norm(off)
            if dist > radius:
                cand = q + off * (radius / dist)
            g = objective(cand)
            if g < best_g:
                best_p, best_g = cand, g
        gap_min = float(best_g) if np.isfinite(best_g) else None
        if best_g < cluster_tol:
            witness = best_p
            try:
                N_witness = len(eigh_clusters(model, best_p, cluster_tol))
            except ValueError:
                N_witness = -1
            values.add(N_witness)
    return tuple(sorted(values)), used, gap_min, witness, N_witness


# ---------------------------------------------------------------------------
# fiber polynomials as dicts from exponent tuples to coefficients

class DictPolynomial:
    """Homogeneous polynomial in u_1..u_nvars, dense over exponent tuples."""

    def __init__(self, nvars, degree, coeffs=None):
        self.nvars = nvars
        self.degree = degree
        self.coeffs = dict(coeffs) if coeffs else {}

    @staticmethod
    def basis(nvars, degree):
        out = []
        for combo in itertools.combinations_with_replacement(range(nvars), degree):
            expo = [0] * nvars
            for i in combo:
                expo[i] += 1
            out.append(tuple(expo))
        return out

    def add_term(self, expo, coef):
        if coef == 0.0:
            return
        cur = self.coeffs.get(expo, 0.0) + coef
        if cur == 0.0:
            self.coeffs.pop(expo, None)
        else:
            self.coeffs[expo] = cur

    def add_monomial(self, indices, coef):
        expo = [0] * self.nvars
        for i in indices:
            expo[i] += 1
        self.add_term(tuple(expo), coef)

    def __mul__(self, other):
        out = DictPolynomial(self.nvars, self.degree + other.degree)
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out.add_term(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    def vector(self):
        return np.array([self.coeffs.get(e, 0.0)
                         for e in self.basis(self.nvars, self.degree)])

    def norm(self):
        return float(np.sqrt(sum(c * c for c in self.coeffs.values())))


def _field_derivative(data, i, j):
    """X_{i+1}(alpha_{j+1}^2), as a float, from the point data's matrix."""
    return float(data.dalpha_sq[i, j])


def dict_fiber_P(model, frame, q):
    data = frame.point_data(q)
    out = DictPolynomial(model.n, 2)
    for i in range(model.m):
        out.add_monomial((i, i), data.alpha_sq[i])
    return out


def dict_fiber_hP(model, frame, q):
    data = frame.point_data(q)
    n, m = model.n, model.m
    out = DictPolynomial(n, 3)
    for i in range(m):
        for j in range(m):
            out.add_monomial((i, j, j), _field_derivative(data, i, j))
            for k in range(n):
                cval = data.c[i, j, k]
                if cval:
                    out.add_monomial((i, j, k), 2.0 * cval * data.alpha_sq[j])
    return out


def dict_fiber_R(model, frame, q, j):
    data = frame.point_data(q)
    n, m = model.n, model.m
    jj = j - 1
    a2 = data.alpha_sq
    out = DictPolynomial(n, 2)
    for i in range(m):
        if i == jj:
            continue
        cjii = data.c[i, jj, i]
        out.add_monomial((i, i), (a2[jj] - a2[i]) * cjii
                         - 0.5 * _field_derivative(data, jj, i))
        di_j = _field_derivative(data, i, jj)
        di_i = _field_derivative(data, i, i)
        deriv = (2.0 * a2[jj] * di_j * a2[i] - a2[jj] ** 2 * di_i) / a2[i] ** 2
        out.add_monomial((i, jj), deriv / (2.0 * a2[jj]) * a2[i])
    for i in range(m):
        for k in range(m):
            if k == i:
                continue
            out.add_monomial((i, k), (a2[jj] - a2[k]) * data.c[i, jj, k])
        for k in range(m, n):
            out.add_monomial((i, k), a2[jj] * data.c[i, jj, k])
    return out


def dict_fiber_Q(model, frame, q, j, k):
    data = frame.point_data(q)
    n, m = model.n, model.m
    out = DictPolynomial(n, 1)
    for i in range(m):
        cval = data.cbar[i, j - 1, k - 1]
        if cval:
            out.add_monomial((i,), cval * data.alphas[i])
    return out


def dict_divide(numerator, divisor):
    """(residual, quotient) of the least-squares division by u_i * divisor."""
    monos = []
    for i in range(numerator.nvars):
        mono = DictPolynomial(numerator.nvars, 1)
        mono.add_monomial((i,), 1.0)
        monos.append(mono)
    b = numerator.vector()
    M = np.stack([(mono * divisor).vector() for mono in monos], axis=1)
    scale = np.linalg.norm(b)
    if scale == 0.0:
        return 0.0, np.zeros(len(monos))
    sol, *_ = np.linalg.lstsq(M, b, rcond=None)
    return float(np.linalg.norm(M @ sol - b) / scale), sol


def _solve_ivp_trajectory(model, metric_tag, t, y, clipped, t_exit, with_aux, dense=None,
                          resume=None):
    n = model.n
    q = y[:n].T.copy()
    p = y[n:2 * n].T.copy()
    h = hamiltonian(model, metric_tag, (q, p))
    aux = None
    if with_aux:
        aux = float(y[2 * n, -1]) if y.shape[1] else 0.0
    return SimpleNamespace(t=t, q=q, p=p, h=h, clipped=clipped, t_exit=t_exit, aux=aux,
                           dense=dense, resume=resume)


def solve_ivp_integrate(model, metric_tag, lam0, T, tol=1e-10, max_step=1e-2,
                        samples=None, aux_rate=None):
    """hamiltonian.integrate as it was on scipy's solve_ivp."""
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
        qdot, pdot = rhs_arrays(model, metric_tag, q, p)
        if with_aux:
            return np.concatenate([qdot, pdot, [aux_rate(q, p)]])
        return np.concatenate([qdot, pdot])

    def hit_boundary(_t, y):
        return model.boundary_distance(y[:n]) - _BOUNDARY_EPS

    hit_boundary.terminal = True

    def solve(t0, y0, t1, t_eval, first_step=None):
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
        t, y = np.array([0.0]), y0[:, None]
    return _solve_ivp_trajectory(model, metric_tag, t, y, clipped, t_exit, with_aux,
                                 sol.sol, resume)


def solve_ivp_cut(model, metric_tag, traj, T, samples):
    """hamiltonian.cut as it was on scipy's solve_ivp: the samples up to the
    last step boundary before T from the dense solution, the rest from one
    re-taken partial step."""
    dense = traj.dense
    ts = dense.ts
    t = np.linspace(0.0, T, samples)
    sign = 1.0 if T > 0 else -1.0
    k = int(np.searchsorted(sign * ts, sign * T, side="left")) - 1
    head = sign * t <= sign * ts[k]
    tail = traj.resume(ts[k], dense.interpolants[k](ts[k]), T, t[~head])
    y = np.concatenate([dense(t[head]), tail.y], axis=1)
    return _solve_ivp_trajectory(model, metric_tag, t, y, False, None,
                                 traj.aux is not None)


# ---------------------------------------------------------------------------
# symbolic orthonormalization and arc length

class OrthonormalFrame:
    def __init__(self, fields, coeffs):
        self.fields = fields    # m tuples of n Expr (coordinate components)
        self.coeffs = coeffs    # m tuples of m Expr (in terms of X_1..X_m)


def orthonormalize(model):
    """Gram-Schmidt over gram1, symbolic; returns fields and frame coefficients."""
    m, n = model.m, model.n
    g = model.gram1

    def inner(a, b):
        acc = ex.ZERO
        for i in range(m):
            if ex.is_zero(a[i]):
                continue
            for j in range(m):
                if ex.is_zero(b[j]):
                    continue
                acc = ex.add(acc, ex.mul(ex.mul(a[i], b[j]), g[i][j]))
        return acc

    coeffs = []
    for s in range(m):
        w = [ex.ONE if i == s else ex.ZERO for i in range(m)]
        for t in range(s):
            proj = inner(w, coeffs[t])
            w = [ex.sub(w[i], ex.mul(proj, coeffs[t][i])) for i in range(m)]
        norm = ex.sqrt(inner(w, w))
        coeffs.append(tuple(ex.div(w[i], norm) for i in range(m)))

    fields = []
    for s in range(m):
        comp = []
        for k in range(n):
            acc = ex.ZERO
            for i in range(m):
                acc = ex.add(acc, ex.mul(coeffs[s][i], model.frame[i][k]))
            comp.append(acc)
        fields.append(tuple(comp))
    return OrthonormalFrame(tuple(fields), tuple(coeffs))


def arc_length(model, metric_tag, traj):
    """Metric length of the projected curve, trapezoid rule on the samples.

    The speed is sqrt(v^T W v) = sqrt(u^T W^{-1} u) = sqrt(2h).
    """
    speeds = np.sqrt(np.maximum(2.0 * hamiltonian(model, metric_tag, (traj.q, traj.p)),
                                0.0))
    return float(np.trapezoid(speeds, traj.t))


# ---------------------------------------------------------------------------
# quasi-impulses by hand

def quasi_impulses(model, frame, lam):
    """u_i = p(X_i) for the columns of `frame` (default: the model frame)."""
    q, p = lam
    if frame is None:
        frame = model.frame_at(tuple(q))
    return np.asarray(p, dtype=float) @ np.asarray(frame, dtype=float)


def adapted_impulses(frame, lam):
    """Quasi-impulses of the AdaptedFrame `frame` at lam = (q, p)."""
    q, p = lam
    return np.asarray(p, dtype=float) @ frame.point_data(q).A


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
