"""Reference implementations that the library replaced with faster ones.

The numpy Hamiltonian formulas evaluate the frame, the Gram matrices and
their derivatives through the model's compiled evaluators and solve with
numpy; full_field is the one generated program (q, p) -> (h, dq/dt,
dp/dt[, P]) that the flow and energy programs of geoequiv.hamiltonian
replaced, and every energy was once read from it; the structure functions
of the adapted frames come from a 4th-order central finite-difference stencil
over AdaptedFrame.at, and the gauge of AdaptedFrame.at was a per-cluster
singular-value check and a gram1 Gram-Schmidt loop; the regularity probe solves every pencil with
scipy.linalg.eigh, evaluates its extra Nelder-Mead start by solving
each kept sample again, and still minimizes the split gap with scipy's
minimize(method="Nelder-Mead", bounds=...), where pair searches for a root
of it by Newton steps. loop_regularity_probe is pair's probe as it drew
its ball samples, with a fresh generator per probe, where pair reads them
from a table per dimension; eager_probe_directions is that table as it was
drawn, whole on the first probe, where pair draws each entry when a probe
first reads it. The smart constructors of expr called
_is_const for every check (checked_add, checked_sub, checked_mul,
checked_div). evaluate is expr's recursive interpreter, with a check and
a message per operation (and _apply_func its functions of a float): the
normal-form builders checked their hypotheses with it before they read
compile_exprs programs, and the cross-path tests of expr compare the
walk, the compiled programs and their lanes with it. The fiber polynomials were dicts from exponent tuples to
coefficients, with their own products, and were copied into
coefficient vectors only to be divided. Tests compare the
generated Hamiltonian programs, the exact frame
derivatives of AdaptedFrame.point_data, the gauge of AdaptedFrame.at,
pair.regularity_probe and the fiber polynomial screens with them. The
extremals were integrated by scipy's solve_ivp (DOP853 with a terminal
boundary event and dense output); the library's own DOP853 loop must
reproduce them, and its resampling of a run the run's OdeSolution, bit for bit.
That resampling once gathered each sample's interpolant rows and initial
state and ran the dense-output loop on rows as wide as the state
(row_sample and row_dense), where the library reads them off one column
block of the run's steps; tests compare the two by float.hex.
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
such a tree from a hash-consed expression. check_orbital_identities gives
the residuals of the paper's two first-order identities (from the
Pontryagin Maximum Principle) that fix the transverse component of
verifier.orbital_map, at the covector it returns. It lived in the
library, but no command, library path or benchmark op ran it, so it is an
oracle here, and so is recover_beta, the Levi-Civita block functions
read back out of the transition spectrum, which lived in
geoequiv.constructors with no caller there.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from geoequiv import expr as ex
from geoequiv.geometry import _DET_TOL, ModelValidationError
from geoequiv.hamiltonian import (_BOUNDARY_EPS, IntegrationError, hamiltonian,
                                  hamiltonian_rhs, integrate)
from geoequiv.pair import (_CLUSTER_TOL, _GAUGE_MIN_SV, _PROBE_SAMPLES, _PROBE_SEED,
                           AdaptedFrameError, RegularityReport, _cluster_indices, _gap,
                           _gap_objective, _gap_root, _pencil, fiber_Q, fiber_R, fiber_value,
                           transition_operator)
from geoequiv.verifier import orbital_map


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
    out = hamiltonian_rhs(model, metric_tag, np.concatenate([q, p]), np.empty(2 * n))
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


def recover_beta(eigenvalues):
    """Invert the block-eigenvalue relation lambda_s = beta_s * prod(beta_l).

    Takes the N distinct transition-operator eigenvalues (one per block);
    returns the matching betas: beta_s = lambda_s * (prod lambda_l)^(-1/(N+1)).
    """
    lams = np.asarray(eigenvalues, dtype=float)
    if np.any(lams <= 0):
        raise ValueError("eigenvalues must be positive")
    N = len(lams)
    return lams * float(np.prod(lams)) ** (-1.0 / (N + 1))


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


class _FieldProgram:
    """Straight-line source over (q, p): the model's expressions emitted by
    expr._emit, and lines of plain arithmetic over their locals."""

    def __init__(self):
        self.lines = []
        self._cache = {}

    def value(self, e):
        return ex._emit(e, self.lines, self._cache)

    def assign(self, name, source):
        self.lines.append("    %s = %s" % (name, source))
        return name

    def compile(self, results, name):
        src = ["def %s(lam):" % name, "    q, p = lam"] + self.lines
        src.append("    return (%s,)" % ", ".join(results))
        namespace = {"_m": math, "_pow": ex._pow}
        exec(compile("\n".join(src), "<reference-field>", "exec"), namespace)
        return ex._guarded(namespace[name])


def _dot(prog, pairs):
    """Source of sum coef * var over (Expr coef, local name) pairs, zeros dropped."""
    terms = []
    for coef, var in pairs:
        if ex.is_zero(coef):
            continue
        one = isinstance(coef, ex.Const) and coef.value == 1.0
        terms.append(var if one else "%s * %s" % (prog.value(coef), var))
    return " + ".join(terms)


def _quadratic(prog, rows, names):
    """Source of w^T M w for the symmetric Expr matrix `rows`, or "" when M = 0."""
    m = len(names)
    terms = []
    for a in range(m):
        inner = _dot(prog, [(rows[a][b] if a >= b else rows[b][a], names[b])
                            for b in range(m)])
        if inner:
            terms.append("%s * (%s)" % (names[a], inner))
    return " + ".join(terms)


def full_field(model, tag, kind=None):
    """One compiled function lam = (q, p) -> (h, dq/dt, dp/dt) for metric `tag`.

    With u_i = p(X_i), W the Gram matrix of the metric (symmetric; its lower
    triangle is read) and v = W^{-1} u:
      dq/dt = sum_i v_i X_i,  h = u.v / 2,
      dp_k/dt = (1/2) v^T (d_k W) v - sum_i v_i p(d_k X_i).
    W is solved by an unpivoted LDL^T factorization unrolled into straight-line
    code, and structurally zero entries of the frame, the Gram matrix and their
    derivatives emit nothing. For tag 1 the tuple ends with the intrinsic
    P = v^T W2 v as well. kind "flow" keeps only the lines of (dq/dt, dp/dt),
    and kind "energy" only those of h (and P): the source of the flow and
    energy programs that geoequiv.hamiltonian once generated as text.
    """
    n, m = model.n, model.m
    frame = model.frame
    gram = model.gram1 if tag == 1 else model.gram2
    prog = _FieldProgram()
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

    results = []
    if kind != "flow":
        results.append(prog.assign("energy", "0.5 * (%s)" % " + ".join(
            "%s * %s" % (u[i], v[i]) for i in range(m))))
    if kind != "energy":
        results += [prog.assign("qd%d" % j, _dot(prog, [(frame[i][j], v[i])
                                                         for i in range(m)]) or "0.0")
                    for j in range(n)]
        for k in range(n):
            dW = [[ex.differentiate(gram[a][b], k) if a >= b else None for b in range(m)]
                  for a in range(m)]
            quad = _quadratic(prog, dW, v)
            force = []
            for i in range(m):
                inner = _dot(prog, [(ex.differentiate(frame[i][j], k), p[j])
                                    for j in range(n)])
                if inner:
                    force.append("(%s) * %s" % (inner, v[i]))
            src = "0.5 * (%s)" % quad if quad else ""
            if force:
                src += " - (%s)" % " + ".join(force)
            results.append(prog.assign("pd%d" % k, src or "0.0"))
    if tag == 1 and kind != "flow":
        results.append(prog.assign("intrinsic", _quadratic(prog, model.gram2, v) or "0.0"))
    return prog.compile(results, name="_field%d" % tag)


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
        C = B.T @ W1 @ frame.transition.vectors[:, idx]
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


def eager_probe_directions(n):
    """pair's table of ball samples in dimension n as it was drawn, all at
    once on the first probe: up to _PROBE_SAMPLES * 4 pairs (u, s) of a unit
    direction u, a tuple of floats, and a radial fraction s. A normal draw
    whose norm is below 1e-12 is left out and draws no s."""
    rng = np.random.default_rng(_PROBE_SEED)
    table = []
    for _ in range(_PROBE_SAMPLES * 4):
        direction = rng.normal(size=n)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            continue
        table.append((tuple(d / norm for d in direction.tolist()), rng.random() ** (1.0 / n)))
    return tuple(table)


def loop_regularity_probe(model, q, radius, cluster_tol=_CLUSTER_TOL):
    """pair.regularity_probe as it drew its ball samples: a generator of
    seed _PROBE_SEED per probe, one normal draw, norm and uniform draw per
    sample, and every Newton start's gap asked of the objective."""
    q = np.asarray(q, dtype=float)
    td = transition_operator(model, q, cluster_tol)
    Nc = td.N
    boundaries = [grp[0] for grp in td.clusters[1:]]
    rng = np.random.default_rng(_PROBE_SEED)
    n = model.n
    qs = q.tolist()
    values = {Nc}
    used = 0
    kept = []
    best_start = best_gap = None
    for _ in range(_PROBE_SAMPLES * 4):
        if used >= _PROBE_SAMPLES:
            break
        direction = rng.normal(size=n)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            continue
        s = rng.random() ** (1.0 / n)
        point = [c + d / norm * radius * s for c, d in zip(qs, direction.tolist())]
        if not model.in_domain(point):
            continue
        try:
            lams = _pencil(model, point, False)[2].tolist()
        except np.linalg.LinAlgError:
            lams = None
        if lams is None or lams[0] <= 0:
            values.add(-1)
        else:
            values.add(len(_cluster_indices(lams, cluster_tol)))
            kept.append(point)
            if boundaries:
                gap = _gap(lams, boundaries)
                if best_gap is None or gap < best_gap:
                    best_start, best_gap = point, gap
        used += 1

    gap_min = None
    witness = None
    N_witness = None
    if boundaries:
        objective = _gap_objective(model, boundaries)
        lo = np.maximum(q - radius, model.domain_min).tolist()
        hi = np.minimum(q + radius, model.domain_max).tolist()
        starts = [qs] + kept[:3]
        if best_start is not None:
            starts.insert(0, best_start)
        best_p, best_g = qs, np.inf
        for start in starts:
            p, g = _gap_root(objective, start, objective(start), qs, radius,
                             lo, hi, cluster_tol)
            if g < best_g:
                best_p, best_g = p, g
            if best_g < cluster_tol:
                break
        gap_min = float(best_g) if np.isfinite(best_g) else None
        if best_g < cluster_tol:
            witness = np.array(best_p)
            try:
                N_witness = transition_operator(model, best_p, cluster_tol).N
            except np.linalg.LinAlgError:
                N_witness = -1
            values.add(N_witness)
    return RegularityReport(q, radius, Nc, tuple(sorted(values)),
                            len(values) == 1, used, gap_min, witness, N_witness)


# ---------------------------------------------------------------------------
# the smart constructors of expr as they were, one _is_const call per check

def _is_const(e, value=None):
    if not isinstance(e, ex.Const):
        return False
    return value is None or e.value == value


def checked_add(a, b):
    a, b = ex._as_expr(a), ex._as_expr(b)
    if _is_const(a) and _is_const(b):
        return ex.Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return ex.Binary("+", a, b)


def checked_sub(a, b):
    a, b = ex._as_expr(a), ex._as_expr(b)
    if _is_const(a) and _is_const(b):
        return ex.Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return ex.neg(b)
    return ex.Binary("-", a, b)


def checked_mul(a, b):
    a, b = ex._as_expr(a), ex._as_expr(b)
    if _is_const(a) and _is_const(b):
        return ex.Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ex.ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return ex.neg(b)
    if _is_const(b, -1.0):
        return ex.neg(a)
    return ex.Binary("*", a, b)


def checked_div(a, b):
    a, b = ex._as_expr(a), ex._as_expr(b)
    if _is_const(b) and b.value != 0.0 and _is_const(a):
        return ex.Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0):
        return ex.ZERO
    return ex.Binary("/", a, b)


# ---------------------------------------------------------------------------
# the recursive interpreter of expr, with a check and a message per operation

def _fmt_float(v):
    # repr() round-trips doubles exactly
    return repr(v)


def _apply_func(name, x):
    try:
        if name == "sin":
            return math.sin(x)
        if name == "cos":
            return math.cos(x)
        if name == "exp":
            v = math.exp(x)
        elif name == "log":
            v = math.log(x)
        elif name == "sqrt":
            v = math.sqrt(x)
        else:
            v = abs(x)
    except (ValueError, OverflowError) as exc:
        raise ex.EvalDomainError("%s(%s) out of real domain" % (name, _fmt_float(float(x)))) from exc
    if math.isinf(v) or math.isnan(v):
        raise ex.EvalDomainError("%s(%s) not finite" % (name, _fmt_float(float(x))))
    return v


def evaluate(e, q):
    """Evaluate e at the coordinate tuple q. Raises EvalDomainError off-domain."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Coord):
        return float(q[e.index])
    if isinstance(e, ex.Pow):
        return ex._pow(evaluate(e.base, q), e.exponent)
    if isinstance(e, ex.Unary):
        if e.op == "neg":
            return -evaluate(e.arg, q)
        return _apply_func(e.op, evaluate(e.arg, q))
    a = evaluate(e.left, q)
    b = evaluate(e.right, q)
    if e.op == "+":
        v = a + b
    elif e.op == "-":
        v = a - b
    elif e.op == "*":
        v = a * b
    else:
        if b == 0.0:
            raise ex.EvalDomainError("division by zero")
        v = a / b
    if math.isinf(v) or math.isnan(v):
        raise ex.EvalDomainError("operation %r not finite" % e.op)
    return v


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


def _solve_ivp_trajectory(model, metric_tag, t, y, clipped, t_exit, with_aux, dense):
    n = model.n
    q = y[:n].T.copy()
    p = y[n:2 * n].T.copy()
    h = hamiltonian(model, metric_tag, (q, p))
    aux = y[2 * n].copy() if with_aux else None
    return SimpleNamespace(t=t, q=q, p=p, h=h, clipped=clipped, t_exit=t_exit, aux=aux,
                           dense=dense)


def solve_ivp_integrate(model, metric_tag, lam0, T, tol=1e-10, samples=None, aux_rate=None):
    """hamiltonian.integrate as it was on scipy's solve_ivp, at its step
    tolerance tol * 1e-4 (scipy raises rtol to 100 eps, with a warning) and
    scipy's unbounded max_step; `dense` is the run's OdeSolution."""
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
        qdot, pdot = rhs_arrays(model, metric_tag, state[:n], state[n:2 * n])
        if with_aux:
            return np.concatenate([qdot, pdot, [aux_rate(state)]])
        return np.concatenate([qdot, pdot])

    def hit_boundary(_t, y):
        return model.boundary_distance(y[:n]) - _BOUNDARY_EPS

    hit_boundary.terminal = True

    y0 = np.concatenate([q0, p0, [0.0]] if with_aux else [q0, p0])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=tol * 1e-4, atol=tol * 1e-4,
                    events=[hit_boundary],
                    t_eval=np.linspace(0.0, T, samples) if samples else None,
                    dense_output=True)
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
                                 sol.sol)


def row_dense(F, y_old, x):
    """DOP853 dense output at x = (t - t_old) / h of the coefficient rows
    F (..., 7, N) and the initial states y_old (..., N), evaluated as scipy
    does."""
    y = np.zeros(y_old.shape)
    for j in range(6, -1, -1):
        y += F[..., j, :]
        y *= x if j % 2 == 0 else 1 - x
    y += y_old
    return y


def row_sample(steps, t):
    """(times, states) of hamiltonian.resample at the times t that the run
    of steps reached, each state from the interpolant rows of the step that
    contains it, the earlier step at a step boundary."""
    F = steps.cols[:7].transpose(2, 0, 1)       # (k, 7, N)
    y_old = steps.cols[7].T                     # (k, N)
    ts, sign = steps.ts, steps.direction
    t = t[sign * t <= sign * ts[-1]]
    k = np.searchsorted(sign * ts, sign * t, side="left") - 1
    k = np.clip(k, 0, len(steps.h) - 1)
    x = (t - ts[k]) / steps.h[k]
    return t, row_dense(F[k], y_old[k], x[:, None])


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


# ---------------------------------------------------------------------------
# the orbital identities

class IdentityReport:
    def __init__(self, res_first, res_second):
        self.res_first = res_first      # per j = 1..m
        self.res_second = res_second    # per s = m+1..n

    @property
    def max_residual(self):
        vals = list(self.res_first) + list(self.res_second)
        return max(vals) if vals else 0.0


def _row_phi(model, frame, lam, j):
    """Phi_{m+1} = R_j / (alpha_j Q_{j,m+1} a) at lam = (q, p) from row j."""
    q, p = lam
    m = model.m
    data = frame.point_data(q)
    u = np.asarray(p, dtype=float) @ data.A
    a = np.sqrt(np.sum(data.alpha_sq * u[:m] ** 2))
    return (fiber_value(fiber_R(data, j), u, 2)
            / (data.alphas[j - 1] * fiber_value(fiber_Q(data, m + 1)[j - 1], u, 1) * a))


def check_orbital_identities(model, frame, lam, flow_step=1e-5, flow_tol=1e-12):
    """Residuals of the two first-order identities behind the orbital map.

    First family (j = 1..m):   alpha_j sum_{k>m} Q_jk Phi_k = R_j / a.
    Second family (s = m+1..n): d/dt Phi_s - sum_{k>m} Q_sk Phi_k
                                = (1/a) sum_{k<=m} Q_sk alpha_k u_k,
    with Phi = p2 A read from verifier.orbital_map's covector p2 and d/dt
    along the gram1 extremal (a central difference of the flow, of Phi_{m+1}
    from the row j that orbital_map picks at lam).
    """
    n, m = model.n, model.m
    q = np.asarray(lam[0], dtype=float)
    p = np.asarray(lam[1], dtype=float)
    data = frame.point_data(q)
    u = p @ data.A
    res = orbital_map(model, frame, (q, p))
    a = res.a
    phi_trans = (res.lam2[1] @ data.A)[m:]

    res_first = []
    for j in range(1, m + 1):
        lhs = 0.0
        for k_off, pv in enumerate(phi_trans):
            Qjk = fiber_Q(data, m + 1 + k_off)[j - 1]
            lhs += data.alphas[j - 1] * fiber_value(Qjk, u, 1) * pv
        rhs = fiber_value(fiber_R(data, j), u, 2) / a
        res_first.append(abs(lhs - rhs))

    res_second = []
    if n > m:
        jbar = 1 + int(np.argmax([abs(fiber_value(Qj, u, 1))
                                  for Qj in fiber_Q(data, m + 1)[:m]]))
        fwd = integrate(model, 1, (q, p), flow_step, tol=flow_tol)
        bwd = integrate(model, 1, (q, p), -flow_step, tol=flow_tol)
        plus, minus = (fwd.q[-1], fwd.p[-1]), (bwd.q[-1], bwd.p[-1])
        dphi = (_row_phi(model, frame, plus, jbar)
                - _row_phi(model, frame, minus, jbar)) / (2.0 * flow_step)
        s = m + 1
        coupling = fiber_value(fiber_Q(data, s)[s - 1], u, 1) * phi_trans[0]
        source = 0.0
        for k in range(1, m + 1):
            source += (fiber_value(fiber_Q(data, k)[s - 1], u, 1)
                       * data.alphas[k - 1] * u[k - 1])
        res_second.append(abs(dphi - coupling - source / a))

    return IdentityReport(res_first, res_second)
