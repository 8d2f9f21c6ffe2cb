"""Pointwise analysis of a metric pair: transition operator, adapted frames,
and the fiberwise polynomial conditions that obstruct geodesic equivalence.

Conventions. The transition operator at q is S = W1^{-1} W2 in any frame of D;
it is self-adjoint for gram1, its eigenvalues are written alpha_i^2 with
alpha_i > 0 and are returned ascending. An adapted frame consists of
gram1-orthonormal eigenfields X_1..X_m of S plus, for corank one, a completion
X_{m+1} = [X_a, X_b] of two distribution fields (a bracket stays inside the
square of the distribution). The rescaled frame divides X_i by alpha_i for
i <= m. Structure-function arrays are indexed naturally:
c[a, b, k] = coefficient of X_{k+1} in [X_{a+1}, X_{b+1}].

Fiber variables u_i = p(X_i) are quasi-impulses of the adapted frame; all
fiber polynomials live in u_1..u_n.
"""

import functools
import itertools
import math

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dsygvd

from . import expr as ex
from .geometry import bracket_exprs
from .hamiltonian import _program

_CLUSTER_TOL = 1e-7
_DIV_TOL = 1e-8
_GAUGE_MIN_SV = 0.2
_PROBE_SAMPLES = 40     # regularity_probe's random ball samples
_PROBE_SEED = 0
_FD_STEP = 1e-8         # forward-difference step of the probe's gap gradient


class AdaptedFrameError(Exception):
    pass


def _cluster_indices(lams, tol):
    groups = [[0]]
    for i in range(1, len(lams)):
        if lams[i] - lams[i - 1] <= tol * max(1.0, abs(lams[i])):
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


class TransitionData:
    def __init__(self, eigenvalues, vectors, clusters, gram1, gram2):
        self.eigenvalues = eigenvalues      # ascending alpha_i^2
        self.vectors = vectors              # columns, W1-orthonormal
        self.clusters = clusters
        self.N = len(clusters)
        self.gram1 = gram1
        self.gram2 = gram2


def _floats(q):
    """The point q as a list of plain floats, for messages."""
    return [float(v) for v in q]


def _pencil(model, qt, vectors):
    """(W1, W2, lams, V) of the pencil (W2, W1) at the point qt, a sequence
    of floats; V is None unless vectors.

    Both Gram matrices come from one array, the values of the model's joint
    Gram program (gram1's entries first). Where it raises, gram_at(qt, 1)
    and then gram_at(qt, 2) are evaluated, so the error is the one they
    give. LAPACK dsygvd with the defaults of scipy.linalg.eigh(W2, W1)
    (itype 1, lower triangle, default workspace), without its per-call
    argument checks, so lams and V are eigh's bit for bit; without vectors
    lams are eigh(W2, W1, eigvals_only=True)'s, which for m >= 3 can differ
    from them in the last bits. Raises np.linalg.LinAlgError, naming the
    point, when gram1 is not positive definite or the solver fails.
    """
    m = model.m
    try:
        values = model._compiled("grams", lambda: model._gram_entries(1, 2))(qt)
    except ex.EvalDomainError:
        model.gram_at(qt, 1)
        model.gram_at(qt, 2)
        raise
    W1, W2 = np.array(values).reshape(2, m, m)
    lams, V, info = dsygvd(W2, W1, jobz="V" if vectors else "N")
    if info > m:
        raise np.linalg.LinAlgError(
            "gram1 not positive definite at %s (leading minor of order %d)"
            % (_floats(qt), info - m))
    if info:
        raise np.linalg.LinAlgError(
            "generalized eigenproblem of gram2 and gram1 failed at %s (LAPACK info %d)"
            % (_floats(qt), info))
    return W1, W2, lams, V if vectors else None


def transition_operator(model, q, cluster_tol=_CLUSTER_TOL):
    """The pencil (gram2, gram1) at q, clustered. Raises ValueError, naming
    q, when a coordinate is not finite; AdaptedFrame and regularity_probe
    start here, so they raise it too, before any arithmetic on q."""
    qt = tuple(np.asarray(q, dtype=float).tolist())
    if not all(map(math.isfinite, qt)):
        raise ValueError("point must be finite, got %s" % (_floats(qt),))
    W1, W2, lams, V = _pencil(model, qt, True)
    if lams[0] <= 0:
        # with gram1 positive definite, exactly when gram2 is not
        raise np.linalg.LinAlgError(
            "gram2 not positive definite at %s (transition operator not positive)"
            % (_floats(qt),))
    return TransitionData(lams, V, _cluster_indices(lams, cluster_tol), W1, W2)


class RegularityReport:
    def __init__(self, q, radius, N_center, N_values, regular, samples_used,
                 gap_min=None, witness=None, N_witness=None):
        self.q = q
        self.radius = radius
        self.N_center = N_center
        self.N_values = N_values
        self.regular = regular
        self.samples_used = samples_used
        # the smallest relative split gap that the root search visited, an
        # upper bound on the ball's minimum
        self.gap_min = gap_min
        self.witness = witness          # point where clusters merge, if any
        self.N_witness = N_witness


def _gap(lams, boundaries):
    """Smallest relative gap of the ascending lams, a list of floats, across
    the boundaries."""
    scale = max(abs(lams[0]), abs(lams[-1]), 1e-300)
    # min() over the boundaries as a plain loop: the first gap, then any
    # smaller one
    gap = None
    for b in boundaries:
        g = (lams[b] - lams[b - 1]) / scale
        if gap is None or g < gap:
            gap = g
    return gap


def _gap_objective(model, boundaries):
    """The function p -> smallest relative gap across the boundaries at the
    point p, a list of floats, from the pencil's eigenvalues without vectors
    (see _pencil); inf outside the domain, where the model's expressions
    raise and where the pencil cannot be solved."""
    def objective(p):
        if not model.in_domain(p):
            return np.inf
        try:
            lams = _pencil(model, p, False)[2].tolist()
        except (ex.EvalDomainError, np.linalg.LinAlgError):
            return np.inf
        return _gap(lams, boundaries)

    return objective


def _gap_root(objective, p, g, center, radius, lo, hi, tol):
    """Newton steps towards a root of the gap objective from the point p, a
    list of floats, whose gap is g: p <- p - g grad / |grad|^2, clipped to
    the box [lo, hi] and then projected radially into the ball of the radius
    around the center. The gradient is forward differences of the objective
    of step _FD_STEP (or one unit in the last place of p_k, where that is
    larger), stepping inward where p sits at the box. A step is taken when
    it at least halves the gap; the first one that does not ends the
    search, keeping its point if its gap is lower. The search also ends at
    a gap below tol and where the gradient is zero or not finite. Returns
    (p, g).
    """
    while tol <= g < np.inf:
        grad = []
        for k, x in enumerate(p):
            # at least one unit in the last place, so that x + h differs from x
            h = max(_FD_STEP, math.ulp(x))
            e = list(p)
            e[k] = x + h if x + h <= hi[k] else x - h
            grad.append((objective(e) - g) / (e[k] - x))
        norm2 = sum(d * d for d in grad)
        if not 0 < norm2 < np.inf:
            break
        t = g / norm2
        off = [min(max(x - t * d, a), b) - c
               for x, d, a, b, c in zip(p, grad, lo, hi, center)]
        dist = math.hypot(*off)
        scale = radius / dist if dist > radius else 1.0
        trial = [c + d * scale for c, d in zip(center, off)]
        g_trial = objective(trial)
        halved = g_trial <= 0.5 * g
        if g_trial < g:
            p, g = trial, g_trial
        if not halved:
            break
    return p, g


def _probe_draws(n):
    """The regularity probe's seeded ball samples in dimension n, in draw
    order: up to _PROBE_SAMPLES * 4 pairs (u, s) of a unit direction u, a
    tuple of floats, and a radial fraction s. A normal draw whose norm is
    below 1e-12 is left out and draws no s."""
    rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(_PROBE_SAMPLES * 4):
        direction = rng.normal(size=n)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            continue
        yield tuple(d / norm for d in direction.tolist()), rng.random() ** (1.0 / n)


@functools.cache
def _probe_directions(n):
    """The entries of _probe_draws(n), one table per dimension and process:
    an iterator that is never advanced, whose copies read the entries from
    the first, each drawn when a copy first reads it and kept for the next."""
    return itertools.tee(_probe_draws(n), 1)[0]


def regularity_probe(model, q, radius, cluster_tol=_CLUSTER_TOL):
    """Is the number of distinct eigenvalues locally constant near q?

    Random ball samples catch N increasing (a cluster splitting away from
    the center); the probe uses the first _PROBE_SAMPLES of them that lie
    in the domain (see _probe_directions). A collision, where split
    eigenvalues merge somewhere in the ball, usually happens on a
    measure-zero set, so on top of the sampling a Newton search for a root
    of the smallest cluster-boundary gap runs from five starts in the ball
    (the sample with the smallest gap, the center and the first three kept
    samples, see _gap_root); the first point whose gap falls below
    cluster_tol ends it and is reported as the witness. Raises ValueError
    at a q outside the domain (transition_operator's at one not finite).
    """
    q = np.asarray(q, dtype=float)
    qs = q.tolist()
    if not model.in_domain(qs) and all(map(math.isfinite, qs)):
        raise ValueError("point outside the model domain, got %s" % (qs,))
    td = transition_operator(model, q, cluster_tol)
    Nc = td.N
    boundaries = [grp[0] for grp in td.clusters[1:]]
    values = {Nc}
    used = 0
    kept = []       # (point, its gap or None without boundaries)
    best = None     # the first kept sample with the smallest gap
    for u, s in _probe_directions(model.n).__copy__():
        # q + direction / norm * radius * s in numpy's order, on floats, with
        # u = direction / norm
        point = [c + d * radius * s for c, d in zip(qs, u)]
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
            # the gap objective's value at the point, from the same pencil
            gap = _gap(lams, boundaries) if boundaries else None
            kept.append((point, gap))
            if gap is not None and (best is None or gap < best[1]):
                best = (point, gap)
        used += 1
        # stopping here, not at the next entry, draws no entry unread
        if used == _PROBE_SAMPLES:
            break

    gap_min = None
    witness = None
    N_witness = None
    if boundaries:
        objective = _gap_objective(model, boundaries)
        lo = np.maximum(q - radius, model.domain_min).tolist()
        hi = np.minimum(q + radius, model.domain_max).tolist()
        # the center's gap is computed when its turn comes
        starts = [(qs, None)] + kept[:3]
        if best is not None:
            # the first sample with the smallest split gap goes first: the
            # likeliest to find a witness, which ends the search
            starts.insert(0, best)
        best_p, best_g = qs, np.inf
        for start, g in starts:
            p, g = _gap_root(objective, start, objective(start) if g is None else g,
                             qs, radius, lo, hi, cluster_tol)
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
# adapted frame with a deterministic smooth gauge

class AdaptedPoint:
    """Everything the fiber formulas need at one base point."""

    __slots__ = ("q", "A", "Vg", "alphas", "alpha_sq", "dalpha_sq",
                 "clusters", "W1", "W2", "c", "cbar")

    def __init__(self, **kw):
        for key, val in kw.items():
            setattr(self, key, val)


def _completion(model, pair):
    """The evaluators q -> [X_a, X_b] and q -> its coordinate partials, each
    cached on the model by GeometryModel._compiled.

    The partials come flat, k-major: entry k * n + j is d/dq_k of component j.
    """
    tag = "completion%d_%d" % pair
    return (model._compiled(tag, lambda: bracket_exprs(model)[pair]),
            model._compiled("d" + tag, lambda: ex.partials(bracket_exprs(model)[pair],
                                                            model.memos)))


def _gauge(V, same, W1, reference, q, center):
    """Gauge-fixed eigenvectors Vg at q, and the factors (same, Y, Mc, U^-1, Mc U^-1).

    V solves the pencil (W2, W1) at q with V^T W1 V = I; reference is its V at
    the center; same marks the entries whose row and column share a cluster
    (the clusters at q are the center's). Each cluster block of Vg is the
    reference block projected onto the cluster's eigenspace, M = V Mc with Mc
    the cluster blocks (marked by same) of Y = V^T W1 reference, then
    orthonormalized for W1 by Gram-Schmidt:
    Vg = V Mc U^-1 with U the upper Cholesky factor of M^T W1 M = Mc^T Mc.
    This is smooth while the multiplicities stay the center's. Raises
    AdaptedFrameError when a singular value of Mc is below _GAUGE_MIN_SV.
    """
    m = len(V)
    Y = V.T @ W1 @ reference
    Mc = np.where(same, Y, 0.0)
    if np.linalg.svd(Mc, compute_uv=False)[-1] < _GAUGE_MIN_SV:
        raise AdaptedFrameError(
            "gauge reference degenerate at %s (eigenvectors rotated too far "
            "from the center %s)" % (_floats(q), _floats(center)))
    U = np.linalg.cholesky(Mc.T @ Mc).T
    # scipy.linalg.solve_triangular(U, I), bit for bit, with its checks: the
    # BLAS dtrsm that LAPACK trtrs calls after its check for an exact zero
    # on the diagonal; OpenBLAS runs trtrs itself on its thread pool
    if not np.isfinite(U).all():
        raise ValueError("array must not contain infs or NaNs")
    zero = np.flatnonzero(np.diagonal(U) == 0)
    if zero.size:
        raise np.linalg.LinAlgError("singular matrix: resolution failed at diagonal %d"
                                    % zero[0])
    Uinv = dtrsm(1.0, U, np.eye(m))
    MU = Mc @ Uinv
    return V @ MU, (same, Y, Mc, Uinv, MU)


@functools.cache
def _lower_and_eye(m):
    """The lower triangle with the diagonal, the mask that np.triu(T, 1)
    zeroes, and the identity, both of order m and read-only."""
    lower, eye = np.tri(m, m, 0, dtype=bool), np.eye(m)
    lower.flags.writeable = eye.flags.writeable = False
    return lower, eye


def _gauge_derivative(V, lams, gauge, dW1, dW2):
    """Coordinate partials dVg[k] = d/dq_k of Vg = V Mc U^-1, from _gauge's factors.

    Every factor is differentiated in the eigenbasis V: with
    N_ab = v_a^T (dW2 - lam_b dW1) v_b (the pencil derivative), a cluster's
    projector moves by dP = V Z V^T W1, where Z_ab = N_ab / (lam_a - lam_b)
    for a in the cluster and b outside it, Z_ba = -N_ba / (lam_b - lam_a), and
    0 otherwise, so only gaps between clusters are divided by; then
    dU = Phi(U^-T dG U^-1) U with G = Mc^T Mc and Phi the upper triangle and
    half the diagonal, and dVg = (dM - Vg dU) U^-1. For a split eigenvalue
    this is Nelson's formula (AIAA J. 14(9), 1976),
    dv_i = sum_{j != i} v_j N_ji / (lam_i - lam_j) - (1/2) v_i v_i^T dW1 v_i,
    times the gauge sign; clusters follow Dailey (AIAA J. 27(4), 1989) with
    this gauge in place of his. Returns dVg (n, m, m) and N (n, m, m).
    """
    same, Y, Mc, Uinv, MU = gauge
    gap = np.where(same, 1.0, lams[:, None] - lams[None, :])
    D1 = V.T @ dW1 @ V
    N = V.T @ dW2 @ V - D1 * lams
    Om = np.where(same, 0.0, N / gap)
    dMc = np.where(same, Om @ Y, 0.0) - Om @ Mc   # dM = V dMc
    dG = np.where(same, dMc.transpose(0, 2, 1) @ Mc + Mc.T @ dMc + Mc.T @ D1 @ Mc, 0.0)
    T = Uinv.T @ dG @ Uinv
    # np.triu(T, 1) + 0.5 * T * I, with np.triu's own where()
    lower, eye = _lower_and_eye(len(lams))
    X = np.where(lower, 0.0, T) + 0.5 * T * eye
    dVg = V @ (dMc @ Uinv - MU @ X)
    return dVg, N


def _structure(A, dA):
    """c[a, b, k] = coefficient of column k of A in [column a, column b].

    A holds fields as columns and dA[k] = d/dq_k A, so the bracket is
    sum_k A[k, a] dA[k][:, b] - A[k, b] dA[k][:, a], solved in the basis A.
    """
    n = A.shape[0]
    T = np.einsum("ka,kjb->jab", A, dA)
    sol = np.linalg.solve(A, (T - T.transpose(0, 2, 1)).reshape(n, n * n))
    return sol.reshape(n, n, n).transpose(1, 2, 0)


class AdaptedFrame:
    """Eigenfields of the transition operator, gauge-fixed around a center.

    The gauge (see _gauge) carries the pencil's eigenbasis at the center to
    the query point. Queries raise AdaptedFrameError on cluster mismatch or
    when the gauge degenerates (query too far from the center).
    """

    def __init__(self, model, center, cluster_tol=_CLUSTER_TOL):
        self.model = model
        self.center = np.asarray(center, dtype=float)
        self.cluster_tol = cluster_tol
        td = transition_operator(model, self.center, cluster_tol)
        # the center's pencil, clustered: a read at the center takes it from
        # here, keyed on the center's bytes (-0.0 and 0.0 give different bits)
        self.transition = td
        self._center_key = self.center.tobytes()
        self.reference = td.vectors
        self.clusters = td.clusters
        # at() goes on only when the cluster sizes at q are the center's, and
        # _cluster_indices makes contiguous groups, so the clusters at q are
        # the center's: one mask of same-cluster entries serves every point
        labels = np.repeat(np.arange(len(td.clusters)), [len(c) for c in td.clusters])
        self._same = labels[:, None] == labels
        # (bytes of the point, point_data) of the last point read: every
        # caller reads a frame at its center
        self._memo = None, None

        n, m = model.n, model.m
        if n - m not in (0, 1):
            raise AdaptedFrameError("adapted frames support corank 0 or 1 only")
        self._completion_fn = self._dcompletion_fn = None
        if n - m == 1:
            qc = tuple(self.center.tolist())
            E = model.frame_at(qc)
            brackets = bracket_exprs(model)
            # the transverse component of each distribution bracket at the
            # center, from one program of all of them, cached on the model
            vals = model._compiled("brackets", lambda: [
                c for br in brackets.values() for c in br])(qc) if brackets else []
            best, best_val = None, 0.0
            for idx, pair in enumerate(brackets):
                t = abs(np.linalg.solve(E, vals[idx * n:(idx + 1) * n])[m])
                if t > best_val:
                    best, best_val = pair, t
            if best is None or best_val < 1e-8:
                raise AdaptedFrameError(
                    "no distribution bracket leaves D near %s; completion undefined"
                    % (_floats(self.center),))
            self.completion_pair = best
            self._completion_fn, self._dcompletion_fn = _completion(model, best)

    # -- pointwise frame ---------------------------------------------------

    def at(self, q):
        """(A, Vg, lams, clusters, W1, W2, V, E, gauge) at q.

        A is the full frame matrix, Vg the gauge-fixed eigenvectors, lams the
        eigenvalues, V the eigenvectors as _pencil returns them, E the model
        frame and gauge the factors of Vg (see _gauge).
        """
        q = np.asarray(q, dtype=float)
        qt = tuple(q.tolist())
        model = self.model
        n, m = model.n, model.m
        # at the center (the same bytes) the pencil and clusters are the center's
        if q.tobytes() == self._center_key:
            td = self.transition
            W1, W2, lams, V, clusters = td.gram1, td.gram2, td.eigenvalues, td.vectors, td.clusters
        else:
            W1, W2, lams, V = _pencil(model, qt, True)
            if lams[0] <= 0:
                raise AdaptedFrameError("transition operator not positive at %s"
                                        % (_floats(qt),))
            clusters = _cluster_indices(lams, self.cluster_tol)
            if tuple(len(c) for c in clusters) != tuple(len(c) for c in self.clusters):
                raise AdaptedFrameError(
                    "eigenvalue multiplicity changes between %s and %s; shrink the region"
                    % (_floats(self.center), _floats(qt)))
        Vg, gauge = _gauge(V, self._same, W1, self.reference, qt, self.center)
        E = model.frame_at(qt)
        A = np.empty((n, n))
        A[:, :m] = E[:, :m] @ Vg
        if n > m:
            A[:, m] = self._completion_fn(qt)
        return A, Vg, lams, clusters, W1, W2, V, E, gauge

    # -- full point data (with exact structure functions) -------------------

    def point_data(self, q):
        q = np.asarray(q, dtype=float)
        key = q.tobytes()
        if self._memo[0] == key:
            return self._memo[1]
        A, Vg, lams, clusters, W1, W2, V, E, gauge = self.at(q)
        qt = tuple(q.tolist())
        model = self.model
        n, m = model.n, model.m

        # exact frame derivatives: dA[k] = d/dq_k of A
        dVg, N = _gauge_derivative(V, lams, gauge, model.dgram_at(qt, 1),
                                   model.dgram_at(qt, 2))
        dA = np.empty((n, n, n))
        dA[:, :, :m] = model.dframe_at(qt)[:, :, :m] @ Vg + E[:, :m] @ dVg
        if n > m:
            dA[:, :, m] = np.reshape(self._dcompletion_fn(qt), (n, n))

        # eigenvalue gradients, averaged over each cluster of two or more
        dlams = np.diagonal(N, axis1=1, axis2=2).copy()
        for idx in clusters:
            if len(idx) > 1:
                dlams[:, idx] = dlams[:, idx].mean(axis=1, keepdims=True)

        # the rescaled frame divides X_i by alpha_i for i <= m
        alph = np.sqrt(lams)
        Abar = A.copy()
        Abar[:, :m] /= alph[None, :]
        dAbar = dA.copy()
        dAbar[:, :, :m] = dA[:, :, :m] / alph - A[:, :m] * (dlams / (2.0 * alph ** 3))[:, None, :]

        # dalpha_sq[i, j] = X_{i+1}(alpha_{j+1}^2)
        data = AdaptedPoint(q=np.asarray(qt), A=A, Vg=Vg, alphas=alph, alpha_sq=lams,
                            dalpha_sq=A[:, :m].T @ dlams, clusters=clusters, W1=W1, W2=W2,
                            c=_structure(A, dA), cbar=_structure(Abar, dAbar))
        self._memo = key, data
        return data


# ---------------------------------------------------------------------------
# homogeneous fiber polynomials: coefficient vectors over one monomial basis

@functools.cache
def _basis(nvars, degree):
    """The degree-`degree` monomials in u_1..u_nvars, in one fixed order.

    Returns a (count, degree) array whose rows hold each monomial's variable
    indices, ascending, in combinations_with_replacement order, and a dict from
    each row, as a tuple, to its position. A fiber polynomial is the vector of
    its coefficients in this order.
    """
    monos = list(itertools.combinations_with_replacement(range(nvars), degree))
    index = np.array(monos, dtype=np.intp).reshape(len(monos), degree)
    index.flags.writeable = False
    return index, {mono: pos for pos, mono in enumerate(monos)}


@functools.cache
def _times_u(nvars, degree):
    """Row i: the position of u_{i+1} times each degree-`degree` monomial in
    the basis one degree up."""
    where = _basis(nvars, degree + 1)[1]
    shift = np.array([[where[tuple(sorted(mono + [i]))]
                       for mono in _basis(nvars, degree)[0].tolist()]
                      for i in range(nvars)], dtype=np.intp)
    shift.flags.writeable = False
    return shift


@functools.cache
def _hP_positions(n, m):
    """Positions of u_i u_j^2 and of u_i u_j u_k (k = 0..n-1) in the cubic
    basis, shape (m, m, 1 + n), in the order fiber_hP sums its terms."""
    where = _basis(n, 3)[1]
    pos = np.array([[[where[tuple(sorted((i, j, k)))] for k in (j,) + tuple(range(n))]
                     for j in range(m)] for i in range(m)], dtype=np.intp)
    pos.flags.writeable = False
    return pos


def fiber_value(coeffs, u, degree):
    """Value at the impulses u of the degree-`degree` fiber polynomial coeffs."""
    u = np.asarray(u, dtype=float)
    return float(coeffs @ np.prod(u[_basis(len(u), degree)[0]], axis=1))


def fiber_P(model, frame, q):
    """Squared transported norm: sum alpha_i^2 u_i^2 in the adapted frame."""
    data = frame.point_data(q)
    index, where = _basis(model.n, 2)
    out = np.zeros(len(index))
    out[[where[(i, i)] for i in range(model.m)]] = data.alpha_sq
    return out


def fiber_hP(model, frame, q):
    """Derivative of fiber_P along the gram1 Hamiltonian flow (cubic in u).

    For each i, then j <= m, the terms are X_i(alpha_j^2) u_i u_j^2 and
    2 c_{ij}^k alpha_j^2 u_i u_j u_k for k = 1..n. np.bincount adds its
    weights in input order, so every coefficient is summed in this order.
    """
    data = frame.point_data(q)
    n, m = model.n, model.m
    terms = np.empty((m, m, 1 + n))
    terms[:, :, 0] = data.dalpha_sq
    terms[:, :, 1:] = 2.0 * data.c[:m, :m] * data.alpha_sq[:, None]
    return np.bincount(_hP_positions(n, m).ravel(), terms.ravel(),
                       len(_basis(n, 3)[0]))


def intrinsic_P(model, y):
    """Frame-independent value of fiber_P: (W1^{-1}u)^T W2 (W1^{-1}u) at the
    state y = [q..., p...] (entries past the 2n are not read), read as
    Python floats as in hamiltonian_rhs."""
    if type(y) is not list:
        y = np.asarray(y, dtype=float).tolist()
    return float((model._cache.get("energy1") or _program(model, 1, "energy"))(y)[1])


class DivisibilityResult:
    def __init__(self, holds, residual, quotient):
        self.holds = holds
        self.residual = residual        # relative least-squares residual
        self.quotient = quotient        # linear coefficient vector, or None


def _norm(v):
    """np.linalg.norm(v) of a contiguous 1-D float array, as a float: the
    square root of v.dot(v), as numpy computes it."""
    return math.sqrt(v.dot(v))


def _divide(numerator, divisor, shift):
    """Least-squares division: min over linear L of ||num - L * div||.

    The columns of the system are u_i times the divisor, placed by the rows
    of shift (see _times_u); the solution holds the coefficients of L.
    """
    count = len(shift)
    M = np.zeros((len(numerator), count))
    M[shift, np.arange(count)[:, None]] = divisor
    scale = _norm(numerator)
    if scale == 0.0:
        return 0.0, np.zeros(count)
    sol, *_ = np.linalg.lstsq(M, numerator, rcond=None)
    return _norm(M @ sol - numerator) / scale, sol


def first_divisibility(model, frame, q):
    """Does fiber_P divide its Hamiltonian derivative (quotient linear in u)?"""
    residual, sol = _divide(fiber_hP(model, frame, q), fiber_P(model, frame, q),
                            _times_u(model.n, 2))
    return DivisibilityResult(residual <= _DIV_TOL, residual, sol)


@functools.cache
def _quadratic_positions(n):
    """pos[a][b]: the position of u_{a+1} u_{b+1} in the quadratic basis."""
    where = _basis(n, 2)[1]
    return tuple(tuple(where[(min(a, b), max(a, b))] for b in range(n)) for a in range(n))


def _fiber_R(data, n, m, jj):
    """fiber_R for the 0-based jj from the point data, summed on Python
    floats: the same operations in the same order as on numpy scalars."""
    a2, X, c = data.alpha_sq.tolist(), data.dalpha_sq.tolist(), data.c.tolist()
    pos = _quadratic_positions(n)
    out = [0.0] * len(_basis(n, 2)[0])
    aj = a2[jj]
    for i in range(m):
        if i == jj:
            continue
        # (alpha_j^2 - alpha_i^2) c_{ji}^i - (1/2) X_j(alpha_i^2), times u_i^2
        out[pos[i][i]] += (aj - a2[i]) * c[i][jj][i] - 0.5 * X[jj][i]
        # (alpha_i^2 / 2 alpha_j^2) X_i(alpha_j^4 / alpha_i^2), times u_i u_j
        deriv = (2.0 * aj * X[i][jj] * a2[i] - aj ** 2 * X[i][i]) / a2[i] ** 2
        out[pos[i][jj]] += deriv / (2.0 * aj) * a2[i]
    for i in range(m):
        cij = c[i][jj]
        for k in range(m):
            if k == i:
                continue
            out[pos[i][k]] += (aj - a2[k]) * cij[k]
        for k in range(m, n):
            out[pos[i][k]] += aj * cij[k]
    return np.array(out)


def fiber_R(model, frame, q, j):
    """Quadratic obstruction polynomial R_j (1-based j <= m).

    Valid once first divisibility holds; assembled from the adapted-frame
    structure functions and exact eigenvalue derivatives.
    """
    data = frame.point_data(q)
    n, m = model.n, model.m
    if not 1 <= j <= m:
        raise ValueError("j must be in 1..%d" % m)
    return _fiber_R(data, n, m, j - 1)


def fiber_Q(model, frame, q, j, k):
    """Linear polynomial Q_{jk} = sum_i cbar_{ji}^k alpha_i u_i (1-based j, k)."""
    data = frame.point_data(q)
    n, m = model.n, model.m
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError("indices must be in 1..%d" % n)
    out = np.zeros(n)
    # added to zeros, so a vanishing coefficient is +0.0, never -0.0
    out[:m] += data.cbar[:m, j - 1, k - 1] * data.alphas
    return out


def _transverse_Q(data, n, m):
    """Row j - 1: fiber_Q's Q_{j,m+1} for j = 1..m, as fiber_Q makes it."""
    out = np.zeros((m, n))
    out[:, :m] += data.cbar[:m, :m, m].T * data.alphas
    return out


class SecondDivisibilityResult:
    def __init__(self, per_j, holds, residual, spread, transverse_r):
        self.per_j = per_j              # list of (j, residual, holds, quotient)
        self.holds = holds
        self.residual = residual        # max over applicable j
        # max pairwise difference of the r vectors (quotient / alpha_j)
        self.spread = spread
        self.transverse_r = transverse_r  # j -> (r_{m+1}, alpha_j^2)


def second_divisibility(model, frame, q):
    """Is every R_j divisible by Q_{j,m+1}, with one quotient for every j?

    The screen holds when each applicable R_j divides by Q_{j,m+1} with a
    linear quotient (residual <= _DIV_TOL) and the per-j quotients over
    alpha_j agree (``spread`` <= _DIV_TOL). Their j-independence is what the equivalence
    theory pins down: the orbital map's transverse component is R_j /
    (alpha_j Q_{j,m+1} a) for any applicable j, so it must not depend on j.
    ``holds`` therefore fails on pairs whose quotients differ, for example
    the Heisenberg distribution with gram2 = diag(2, 3) or diag(1, 4) over
    gram1 = I, where every R_j divides but the spread is 1/3 or 3/4.

    On a rank-2 contact distribution (m = 2, n = 3) the bare divisibility is
    an identity, so only the spread can separate pairs there:

    - R_j lies in the ideal (Q_{j,3}). Let i be the other index. Every
      monomial of R_j (see ``fiber_R``) contains u_i: the u_i^2 and u_i u_j
      terms by construction, the in-distribution cross term is u_1 u_2, and
      the transverse term u_j u_3 carries c_{jj}^3 = 0, leaving u_i u_3.
      Q_{j,3} = cbar_{ji}^3 alpha_i u_i, because cbar_{jj}^3 = 0, and
      cbar_{ji}^3 != 0 because [X_1, X_2] leaves D. So R_j = Q_{j,3} * L
      with L = R_j / Q_{j,3} linear, for every pair, equivalent or not.
    - The information sits in the quotient r_j = L / alpha_j instead. For
      the conformal pair gram2 = f * gram1 on the Heisenberg frame it is
      r_j = (-X_2 f / 2, X_1 f / 2, f) for both j, so ``spread`` is 0 and the
      transverse entry is alpha_j^2 = f. A constantly proportional pair
      c * gram1 gives (0, 0, c). Whether the paper's second condition forces
      the in-distribution part to vanish is not settled here.
    - The pointwise check that does reject such a pair is the
      ``transverse-constancy`` entry of ``relations_cor``: X_1, X_2 bracket
      out of D, so they share alpha and must annihilate alpha^2 = f. Its
      residual is max |X_i f|, nonzero wherever f is not critical along D.
      At a critical point the 1-jet of f * gram1 is that of a proportional
      pair, so no first-order pointwise screen can reject it there.
    """
    n, m = model.n, model.m
    if n - m != 1:
        raise ValueError("second divisibility applies to corank-one models")
    data = frame.point_data(q)
    Q = _transverse_Q(data, n, m)
    per_j, rs, transverse_r = [], [], {}
    scale = float(np.max(np.abs(data.cbar))) + 1e-30
    worst = 0.0
    for j in range(1, m + 1):
        Qj = Q[j - 1]
        if _norm(Qj) <= 1e-10 * scale:
            per_j.append((j, None, None, None))
            continue
        residual, sol = _divide(_fiber_R(data, n, m, j - 1), Qj, _times_u(n, 1))
        ok = residual <= _DIV_TOL
        per_j.append((j, residual, ok, sol))
        worst = max(worst, residual)
        r = sol / data.alphas[j - 1]
        rs.append(r)
        transverse_r[j] = (float(r[m]), float(data.alpha_sq[j - 1]))
    if not rs:
        # no usable Q_{j,m+1} at this point
        return SecondDivisibilityResult(per_j, True, 0.0, 0.0, {})
    spread = 0.0
    base = max(1.0, max(_norm(r) for r in rs))
    for a in range(len(rs)):
        for b in range(a + 1, len(rs)):
            spread = max(spread, _norm(rs[a] - rs[b]) / base)
    holds = spread <= _DIV_TOL and all(ok for (_, _, ok, _) in per_j if ok is not None)
    return SecondDivisibilityResult(per_j, holds, worst, spread, transverse_r)


# ---------------------------------------------------------------------------
# pointwise eigenvalue/structure relations

class CorReport:
    def __init__(self, checks, max_residual):
        self.checks = checks            # name -> max abs residual (None if vacuous)
        self.max_residual = max_residual

    def __repr__(self):
        return "CorReport(max=%r, %r)" % (self.max_residual, self.checks)


def relations_cor(model, frame, q, bracket_tol=1e-6):
    """Pointwise identities every geodesically equivalent pair must satisfy.

    eigenvalue-transport: X_i(alpha_j^2/alpha_i^2) = 2 c_{ji}^j (1 - alpha_j^2/alpha_i^2)
    ratio-invariance:     X_i(alpha_j^2/alpha_i) = 0 for split alpha_i, alpha_j
    pair-invariance:      X_i(alpha_j/alpha_k) = 0 for alpha_j, alpha_k split from alpha_i
    cyclic:               cyclic sum of (alpha^2 gaps) * structure functions = 0
    bracket-equality:     [X_i, X_j] leaving D forces alpha_i = alpha_j
    transverse-constancy: alpha shared by all fields whose bracket leaves D
                          must be annihilated by those fields
    """
    data = frame.point_data(q)
    n, m = model.n, model.m
    # Python floats: the same arithmetic as on numpy scalars, without their
    # per-operation cost
    a2 = data.alpha_sq.tolist()
    alph = data.alphas.tolist()
    X = data.dalpha_sq.tolist()
    c = data.c.tolist()
    cluster_of = [0] * m
    for sidx, idx in enumerate(data.clusters):
        for i in idx:
            cluster_of[i] = sidx

    residuals = {name: [] for name in ("eigenvalue-transport", "ratio-invariance",
                                       "pair-invariance", "cyclic", "bracket-equality",
                                       "transverse-constancy")}

    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            # X_i(a_j^2 / a_i^2) - 2 c_{ji}^j (1 - a_j^2 / a_i^2)
            lhs = (X[i][j] * a2[i] - a2[j] * X[i][i]) / a2[i] ** 2
            rhs = 2.0 * c[i][j][j] * (1.0 - a2[j] / a2[i])
            residuals["eigenvalue-transport"].append(abs(lhs - rhs))
            if cluster_of[i] != cluster_of[j]:
                val = (X[i][j] * alph[i] - a2[j] * X[i][i] / (2.0 * alph[i])) / a2[i]
                residuals["ratio-invariance"].append(abs(val))

    for i in range(m):
        for j in range(m):
            for k in range(m):
                if cluster_of[j] == cluster_of[i] or cluster_of[k] == cluster_of[i]:
                    continue
                dj = X[i][j] / (2.0 * alph[j])
                dk = X[i][k] / (2.0 * alph[k])
                val = (dj * alph[k] - alph[j] * dk) / a2[k]
                residuals["pair-invariance"].append(abs(val))

    for i, j, k in itertools.combinations(range(m), 3):
        val = ((a2[j] - a2[i]) * c[i][j][k]
               + (a2[j] - a2[k]) * c[k][j][i]
               + (a2[i] - a2[k]) * c[k][i][j])
        residuals["cyclic"].append(abs(val))

    transverse_fields = set()
    cscale = float(np.max(np.abs(data.c))) + 1e-30
    for i in range(m):
        for j in range(i + 1, m):
            # np.linalg.norm of the transverse part, at most one entry
            t = math.sqrt(sum(v * v for v in c[i][j][m:]))
            if t > bracket_tol * cscale:
                residuals["bracket-equality"].append(abs(alph[i] - alph[j]))
                transverse_fields.update((i, j))

    if transverse_fields:
        sidx = cluster_of[next(iter(transverse_fields))]
        bar = sorted(data.clusters[sidx])
        for jf in bar:
            residuals["transverse-constancy"].append(abs(X[jf][bar[0]]))

    checks = {}
    overall = 0.0
    for name, entries in residuals.items():
        if entries:
            worst = max(entries)
            checks[name] = worst
            overall = max(overall, worst)
        else:
            checks[name] = None
    return CorReport(checks, overall)
