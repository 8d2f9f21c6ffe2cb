"""Geometric model container and frame calculus.

A model is a coordinate box with a global frame X_1..X_n of the tangent bundle
whose first m fields span the distribution D, plus two symmetric positive
Gram matrices gram1/gram2 giving the metrics on D in that frame. Everything
symbolic is an expr.Expr DAG over the model coordinates: from_manifest
hash-conses all cells of one manifest through one table, dropped with the
load, and every derivative build of a model (frame, Gram and bracket
partials, the brackets, the Hamiltonian flows) shares the model's memo per
coordinate, so a node that two builds share is differentiated once; the
memos die with the model. Pointwise numerics go through compiled evaluators
cached on the model.

Frame matrices are stored column-wise: frame_at(q)[:, i] are the coordinate
components of X_{i+1}. Structure function arrays use the natural indexing
c[a, b, k] = coefficient of X_{k+1} in [X_{a+1}, X_{b+1}].
"""

import itertools
import json
import math
import re
import sys

import numpy as np

from . import expr as ex

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

_DET_TOL = 1e-10
_CLASSIFY_SAMPLES = 7       # abnormal_direction's random probes, past the center
_CLASSIFY_SEED = 0
_RANK_TOL = 1e-8            # relative singular-value cut of the two-form's rank


class ManifestError(Exception):
    """Malformed model manifest; message names the offending field path."""


class ModelValidationError(Exception):
    """Structurally valid manifest whose data fails pointwise checks."""


class GeometryModel:
    def __init__(self, coords, rank, frame, gram1, gram2, domain_min, domain_max, meta=None):
        self.coords = tuple(coords)
        self.rank = int(rank)
        self.frame = tuple(tuple(row) for row in frame)      # frame[i] = field i components
        self.gram1 = tuple(tuple(row) for row in gram1)
        self.gram2 = tuple(tuple(row) for row in gram2)
        self.domain_min = np.asarray(domain_min, dtype=float)
        self.domain_max = np.asarray(domain_max, dtype=float)
        self._lo = self.domain_min.tolist()
        self._hi = self.domain_max.tolist()
        self.meta = dict(meta) if meta else {}
        self._cache = {}
        # the differentiate memo of each coordinate, which every derivative
        # build of the model shares (see ex.partials)
        self.memos = [{} for _ in self.coords]

    @property
    def n(self):
        return len(self.coords)

    @property
    def m(self):
        return self.rank

    # -- compiled pointwise evaluators ------------------------------------

    def _compiled(self, key, build):
        """The evaluator cached under key; build() gives its expressions and
        runs only on the first call. Once the evaluator compiles, the cache
        holds the compiled function (see expr.compile_exprs)."""
        fn = self._cache.get(key)
        if fn is None:
            fn = self._cache[key] = ex.compile_exprs(build(), name="_" + key,
                                                     slot=(self._cache, key))
        return fn

    def _frame_program(self):
        """The compiled q -> frame entries, field by field: entry i * n + j
        is component j of X_{i+1}."""
        n = self.n
        return self._compiled("frame", lambda: [self.frame[i][j] for i in range(n)
                                                for j in range(n)])

    def frame_at(self, q):
        """n x n matrix, column i = components of X_{i+1} at q."""
        n = self.n
        return np.array(self._frame_program()(q), dtype=float).reshape(n, n).T.copy()

    def dframe_at(self, q):
        """dE[k] = coordinate partial d/dq_k of frame_at, shape (n, n, n)."""
        n = self.n
        fn = self._compiled("dframe", lambda: ex.partials(
            [self.frame[i][j] for i in range(n) for j in range(n)], self.memos))
        return np.array(fn(q), dtype=float).reshape(n, n, n).transpose(0, 2, 1).copy()

    def _gram_entries(self, *tags):
        """The entries of the Gram matrices of the tags (1 or 2), one matrix
        after the other, each row by row. The joint Gram program is
        _compiled("grams", lambda: _gram_entries(1, 2)): both Gram matrices,
        gram1's entries first, from one program."""
        m = self.m
        return [g[i][j] for g in (self.gram1 if tag == 1 else self.gram2 for tag in tags)
                for i in range(m) for j in range(m)]

    def gram_at(self, q, tag):
        m = self.m
        fn = self._compiled("gram%d" % tag, lambda: self._gram_entries(tag))
        return np.asarray(fn(q), dtype=float).reshape(m, m)

    def dgram_at(self, q, tag):
        m, n = self.m, self.n
        fn = self._compiled("dgram%d" % tag,
                            lambda: ex.partials(self._gram_entries(tag), self.memos))
        return np.asarray(fn(q), dtype=float).reshape(n, m, m)

    # -- domain helpers -----------------------------------------------------

    def in_domain(self, q):
        # plain float comparisons in a plain loop, several times cheaper than
        # numpy's on short vectors; NaN compares false
        if type(q) is np.ndarray:
            q = q.tolist()
        for x, lo, hi in zip(q, self._lo, self._hi):
            if not lo <= x <= hi:
                return False
        return True

    def boundary_distance(self, q):
        # plain floats, as in in_domain; a NaN coordinate gives NaN, as
        # numpy's min does (comparisons would pass over it)
        if type(q) is np.ndarray:
            q = q.tolist()
        d = math.inf
        for x, lo, hi in zip(q, self._lo, self._hi):
            if x != x:
                return math.nan
            if x - lo < d:
                d = x - lo
            if hi - x < d:
                d = hi - x
        return float(d)

    def sample_point(self, rng, margin=0.15):
        lo = self.domain_min + margin * (self.domain_max - self.domain_min)
        hi = self.domain_max - margin * (self.domain_max - self.domain_min)
        return lo + rng.random(self.n) * (hi - lo)

    def center(self):
        return 0.5 * (self.domain_min + self.domain_max)

    def probe_grid(self, per_axis=3, margin=0.1):
        lo = self.domain_min + margin * (self.domain_max - self.domain_min)
        hi = self.domain_max - margin * (self.domain_max - self.domain_min)
        axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(self.n)]
        return [np.array(p) for p in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# manifest IO

def _require(cond, path, message):
    if not cond:
        raise ManifestError("%s: %s" % (path, message))


def _parse_matrix(rows, coords, path, shape, table):
    _require(isinstance(rows, list) and len(rows) == shape[0], path,
             "expected a list of %d rows" % shape[0])
    out = []
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == shape[1], "%s[%d]" % (path, i),
                 "expected a list of %d entries" % shape[1])
        parsed = []
        for j, cell in enumerate(row):
            cellpath = "%s[%d][%d]" % (path, i, j)
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                parsed.append(ex.hashcons(ex.Const(cell), table))
                continue
            _require(isinstance(cell, str), cellpath, "expected an expression string or number")
            try:
                parsed.append(ex.parse(cell, coords, table))
            except ex.ExprSyntaxError as exc:
                raise ManifestError("%s: %s" % (cellpath, exc)) from exc
        out.append(tuple(parsed))
    return tuple(out)


def from_manifest(doc):
    """Build a GeometryModel from a manifest dict; errors name field paths."""
    _require(isinstance(doc, dict), "$", "manifest must be a JSON object")
    known = {"coords", "rank", "frame", "gram1", "gram2", "domain", "meta"}
    for key in doc:
        _require(key in known, key, "unknown manifest key")
    for key in ("coords", "rank", "frame", "gram1", "gram2", "domain"):
        _require(key in doc, key, "missing required key")

    coords = doc["coords"]
    _require(isinstance(coords, list) and coords, "coords", "expected a nonempty list")
    for i, name in enumerate(coords):
        _require(isinstance(name, str) and _IDENT_RE.match(name), "coords[%d]" % i,
                 "coordinate names must be identifiers")
        _require(name not in ex._FUNCTIONS, "coords[%d]" % i,
                 "coordinate name shadows the function %r" % name)
    _require(len(set(coords)) == len(coords), "coords", "duplicate coordinate names")
    coords = tuple(coords)
    n = len(coords)

    rank = doc["rank"]
    _require(isinstance(rank, int) and not isinstance(rank, bool), "rank", "expected an integer")
    _require(1 <= rank <= n, "rank", "must satisfy 1 <= rank <= %d" % n)

    # one hash-consing table for every cell, dropped with this call
    table = {}
    frame = _parse_matrix(doc["frame"], coords, "frame", (n, n), table)
    gram1 = _parse_matrix(doc["gram1"], coords, "gram1", (rank, rank), table)
    gram2 = _parse_matrix(doc["gram2"], coords, "gram2", (rank, rank), table)

    dom = doc["domain"]
    _require(isinstance(dom, dict), "domain", "expected an object with min/max")
    for key in ("min", "max"):
        _require(key in dom, "domain.%s" % key, "missing")
        arr = dom[key]
        _require(isinstance(arr, list) and len(arr) == n, "domain.%s" % key,
                 "expected a list of %d numbers" % n)
        for i, v in enumerate(arr):
            _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                     "domain.%s[%d]" % (key, i), "expected a number")
            # json.load reads NaN, Infinity and 1e400 as floats; int
            # comparisons are exact, and NaN compares false
            _require(-sys.float_info.max <= v <= sys.float_info.max,
                     "domain.%s[%d]" % (key, i), "must be finite, got %s" % (v,))
    lo = [float(v) for v in dom["min"]]
    hi = [float(v) for v in dom["max"]]
    for i in range(n):
        _require(lo[i] < hi[i], "domain", "min[%d] must be < max[%d]" % (i, i))
        _require(math.isfinite(hi[i] - lo[i]), "domain",
                 "max[%d] - min[%d] must be finite" % (i, i))

    meta = doc.get("meta")
    if meta is not None:
        _require(isinstance(meta, dict), "meta", "expected an object")
    return GeometryModel(coords, rank, frame, gram1, gram2, lo, hi, meta)


def to_manifest(model):
    def render(rows):
        return [[ex.to_string(cell, model.coords) for cell in row] for row in rows]

    doc = {
        "coords": list(model.coords),
        "rank": model.rank,
        "frame": render(model.frame),
        "gram1": render(model.gram1),
        "gram2": render(model.gram2),
        "domain": {"min": [float(v) for v in model.domain_min],
                   "max": [float(v) for v in model.domain_max]},
    }
    if model.meta:
        doc["meta"] = model.meta
    return doc


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError("invalid JSON: %s" % exc) from exc
    model = from_manifest(doc)
    validate_model(model)
    return model


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(to_manifest(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def validate_model(model):
    """Pointwise sanity on a probe grid: frame nondegenerate, Grams SPD.

    The grid (probe_grid with a 5% margin) is accepted in one pass: a lane
    call of the frame program and one of the joint Gram program, the
    degeneracy scale max(1, max |E|^n) on Python floats, stacked
    determinants, the symmetry gate and stacked Cholesky factorizations.
    A grid that fails any of these is walked point by point (_check_point)
    with the same predicates, and the walk raises ModelValidationError as a
    loop over the grid would: at the first failing point, the first failing
    check there, in the order frame undefined, frame scale out of range
    (max |E|^n overflows a float), frame degenerate, then for gram1 and for
    gram2 undefined, not symmetric, not positive definite. The error of an
    undefined Gram matrix is gram_at's, so only a failing grid compiles
    gram_at's programs.
    """
    n, m = model.n, model.m
    points = [q.tolist() for q in model.probe_grid(margin=0.05)]
    try:
        frames = model._frame_program().lanes(points).T
        scale = [max(1.0, v ** n) for v in np.abs(frames).max(axis=1).tolist()]
        dets = np.linalg.det(frames.reshape(-1, n, n).transpose(0, 2, 1))
        grams = model._compiled("grams", lambda: model._gram_entries(1, 2)).lanes(points)
        W = grams.T.reshape(-1, m, m)
        if not (np.abs(dets) < _DET_TOL * np.array(scale)).any() and _symmetric(W).all():
            np.linalg.cholesky(W)
            return
    except (ex.EvalDomainError, OverflowError, np.linalg.LinAlgError):
        pass
    for q in points:
        _check_point(model, q)


def _check_point(model, q):
    """Raise ModelValidationError for the first check that fails at the
    point q, in validate_model's order."""
    n = model.n
    try:
        E = model.frame_at(q)
    except ex.EvalDomainError as exc:
        raise ModelValidationError("frame undefined at %s: %s" % (q, exc)) from exc
    v = float(np.abs(E).max())
    try:
        scale = max(1.0, v ** n)
    except OverflowError as exc:
        raise ModelValidationError("frame scale out of range at %s (max |entry|^%d with "
                                   "max |entry| = %g)" % (q, n, v)) from exc
    det = np.linalg.det(E)
    if abs(det) < _DET_TOL * scale:
        raise ModelValidationError("frame degenerate at %s (|det| = %g)" % (q, abs(det)))
    for tag in (1, 2):
        try:
            W = model.gram_at(q, tag)
        except ex.EvalDomainError as exc:
            raise ModelValidationError("gram%d undefined at %s: %s" % (tag, q, exc)) from exc
        if not _symmetric(W):
            raise ModelValidationError("gram%d not symmetric at %s" % (tag, q))
        try:
            np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            raise ModelValidationError("gram%d not positive definite at %s"
                                       % (tag, q)) from None


def _symmetric(W):
    """Whether each of the stacked matrices W (..., m, m) is symmetric:
    np.allclose(W, W.T, rtol=1e-9, atol=1e-12 * max(1, max |W|)), its test
    |a - b| <= atol + rtol |b| for finite values (compiled calls raise on
    values that are not finite). A difference that overflows is inf,
    without a warning, as on plain floats."""
    WT = W.swapaxes(-1, -2)
    atol = 1e-12 * np.maximum(1.0, np.abs(W).max(axis=(-2, -1)))
    with np.errstate(over="ignore"):
        close = np.abs(W - WT) <= atol[..., None, None] + 1e-9 * np.abs(WT)
    return close.all(axis=(-2, -1))


# ---------------------------------------------------------------------------
# frame calculus

def lie_bracket(X, Y, n, memos=None):
    """[X, Y] componentwise for coordinate component tuples of length n.
    memos[j] is the differentiate memo of coordinate j, a model's own (see
    GeometryModel.memos) or, by default, fresh ones."""
    if memos is None:
        memos = [{} for _ in range(n)]
    out = []
    for k in range(n):
        acc = ex.ZERO
        for j in range(n):
            acc = ex.add(acc, ex.sub(ex.mul(X[j], ex.differentiate(Y[k], j, memos[j])),
                                     ex.mul(Y[j], ex.differentiate(X[k], j, memos[j]))))
        out.append(acc)
    return tuple(out)


def bracket_exprs(model):
    """{(a, b): [X_{a+1}, X_{b+1}]} over the distribution fields, a < b < m,
    as component tuples of exact expressions; cached on the model."""
    brackets = model._cache.get("bracket_exprs")
    if brackets is None:
        n, m = model.n, model.m
        brackets = model._cache["bracket_exprs"] = {
            (a, b): lie_bracket(model.frame[a], model.frame[b], n, model.memos)
            for a in range(m) for b in range(a + 1, m)}
    return brackets


# ---------------------------------------------------------------------------
# symbolic determinants, annihilator, classification

def _sym_det(rows):
    k = len(rows)
    if k == 0:
        return ex.ONE
    if k == 1:
        return rows[0][0]
    if k == 2:
        return ex.sub(ex.mul(rows[0][0], rows[1][1]), ex.mul(rows[0][1], rows[1][0]))
    acc = ex.ZERO
    for i in range(k):
        minor = [[rows[r][c] for c in range(1, k)] for r in range(k) if r != i]
        term = ex.mul(rows[i][0], _sym_det(minor))
        acc = ex.add(acc, term) if i % 2 == 0 else ex.sub(acc, term)
    return acc


def annihilator(model):
    """Covector omega with omega(X_i) = 0 for i < n and omega(X_n) = det(frame).

    Row n of the adjugate of the frame matrix, as expressions; any positive
    rescaling works for rank/kernel questions downstream.
    """
    n = model.n
    # symbolic frame matrix by rows: entry [r][c] = component r of field c
    M = [[model.frame[c][r] for c in range(n)] for r in range(n)]
    omega = []
    for j in range(n):
        minor = [[M[r][c] for c in range(n - 1)] for r in range(n) if r != j]
        sign = (-1) ** ((n - 1) + j)
        d = _sym_det(minor)
        omega.append(d if sign > 0 else ex.neg(d))
    return tuple(omega)


def _sym_pfaffian(A):
    k = len(A)
    if k == 0:
        return ex.ONE
    if k % 2 == 1:
        return ex.ZERO
    if k == 2:
        return A[0][1]
    acc = ex.ZERO
    for j in range(1, k):
        keep = [r for r in range(k) if r not in (0, j)]
        sub = [[A[r][c] for c in keep] for r in keep]
        term = ex.mul(A[0][j], _sym_pfaffian(sub))
        acc = ex.add(acc, term) if (j - 1) % 2 == 0 else ex.sub(acc, term)
    return acc


def abnormal_direction(model):
    """The abnormal direction of a quasi-contact distribution D, as its
    coefficients on X_1..X_m (expressions), or None when D is the whole
    tangent space, contact or of no one type.

    The type is read from the rank of the two-form d(omega) restricted to D,
    computed exactly through Omega_ab = -omega([X_a, X_b]) (the omega(X)
    terms are constant multiples of delta_{.,n}, so their derivatives along
    D drop out), at the center and _CLASSIFY_SAMPLES random points. D is
    quasi-contact when m is odd and the rank is m - 1 at all of them; the
    signed Pfaffians of Omega's principal minors of order m - 1 span its
    kernel, the abnormal direction.
    """
    n, m = model.n, model.m
    if m == n:
        return None
    if m != n - 1:
        raise ValueError("classification implemented for corank 0 or 1 only")

    omega = annihilator(model)
    brackets = bracket_exprs(model)
    Omega = [[ex.ZERO] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            br = brackets[(a, b)]
            val = ex.ZERO
            for k in range(n):
                val = ex.add(val, ex.mul(omega[k], br[k]))
            Omega[a][b] = ex.neg(val)
            Omega[b][a] = val

    fn = ex.compile_exprs([Omega[a][b] for a in range(m) for b in range(m)], name="_Omega")
    rng = np.random.default_rng(_CLASSIFY_SEED)
    points = [model.center()] + [model.sample_point(rng) for _ in range(_CLASSIFY_SAMPLES)]
    ranks = set()
    for q in points:
        vals = np.asarray(fn(tuple(q.tolist())), dtype=float).reshape(m, m)
        s = np.linalg.svd(vals, compute_uv=False)
        top = s[0] if s.size else 0.0
        ranks.add(int(np.sum(s > _RANK_TOL * max(top, 1e-30))) if top > 0 else 0)

    if m % 2 == 0 or ranks != {m - 1}:
        return None
    return tuple(_sym_pfaffian([[Omega[x][y] for y in range(m) if y != a]
                                for x in range(m) if x != a])
                 if a % 2 == 0 else
                 ex.neg(_sym_pfaffian([[Omega[x][y] for y in range(m) if y != a]
                                       for x in range(m) if x != a]))
                 for a in range(m))
