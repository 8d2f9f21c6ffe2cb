"""Builders for the known geodesically equivalent normal forms.

Each builder validates its hypotheses, assembles the two Gram matrices
symbolically, and returns a GeometryModel whose meta block records the
generator name and parameters. Riemannian families use the coordinate frame;
the quasi-contact family uses the standard corank-one contactization frame.
"""

import numpy as np

from . import expr as ex
from .geometry import GeometryModel, validate_model


class ConstructionError(Exception):
    pass


def _parse_scalar(value, coords, what):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ex.Const(value)
    if isinstance(value, str):
        try:
            return ex.parse(value, coords)
        except ex.ExprSyntaxError as exc:
            raise ConstructionError("%s: %s" % (what, exc)) from exc
    if isinstance(value, ex.Expr):
        return value
    raise ConstructionError("%s: expected a number or expression string" % what)


def _coord_indices(e, acc):
    if isinstance(e, ex.Coord):
        acc.add(e.index)
    elif isinstance(e, ex.Unary):
        _coord_indices(e.arg, acc)
    elif isinstance(e, ex.Binary):
        _coord_indices(e.left, acc)
        _coord_indices(e.right, acc)
    elif isinstance(e, ex.Pow):
        _coord_indices(e.base, acc)


def _uses_coords(e):
    acc = set()
    _coord_indices(e, acc)
    return acc


def _domain_box(spec, n, default_half=0.5, center=None):
    if center is None:
        center = [0.0] * n
    if spec is None:
        lo = [c - default_half for c in center]
        hi = [c + default_half for c in center]
        return lo, hi
    try:
        lo = [float(v) for v in spec["min"]]
        hi = [float(v) for v in spec["max"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConstructionError("domain must be {min: [..], max: [..]}") from exc
    if len(lo) != n or len(hi) != n:
        raise ConstructionError("domain arrays must have length %d" % n)
    if any(a >= b for a, b in zip(lo, hi)):
        raise ConstructionError("domain min must be strictly below max")
    return lo, hi


def _identity_frame(n):
    return tuple(tuple(ex.ONE if i == j else ex.ZERO for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# product (block) construction

def build_levi_civita(spec):
    """Block-product pair: G1 = sum gamma_s g_s, G2 = sum lambda_s gamma_s g_s.

    spec = {"blocks": [{"size": k, "beta": expr-or-number, "gram": optional k x k},
                       ...],
            "domain": optional, "q0": optional}
    beta_s may depend only on its own block's coordinates (named by the global
    x1..xn they become) and must be a positive constant when the block has
    size > 1. The betas must stay pairwise separated on the domain.
    """
    if not isinstance(spec, dict) or "blocks" not in spec:
        raise ConstructionError("spec must contain a 'blocks' list")
    blocks = spec["blocks"]
    if not isinstance(blocks, list) or len(blocks) < 1:
        raise ConstructionError("'blocks' must be a nonempty list")

    sizes = []
    for b, blk in enumerate(blocks):
        size = blk.get("size", 1) if isinstance(blk, dict) else None
        if not isinstance(size, int) or size < 1:
            raise ConstructionError("blocks[%d].size must be a positive integer" % b)
        sizes.append(size)
    n = sum(sizes)
    N = len(blocks)
    coords = tuple("x%d" % (i + 1) for i in range(n))
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)

    betas = []
    grams = []
    for b, blk in enumerate(blocks):
        beta = _parse_scalar(blk.get("beta"), coords, "blocks[%d].beta" % b)
        used = _uses_coords(beta)
        block_range = set(range(offsets[b], offsets[b + 1]))
        if not used <= block_range:
            raise ConstructionError(
                "blocks[%d].beta may only use its block coordinates x%d..x%d"
                % (b, offsets[b] + 1, offsets[b + 1]))
        if sizes[b] > 1 and used:
            raise ConstructionError("blocks[%d].beta must be constant (block size > 1)" % b)
        betas.append(beta)
        g = blk.get("gram")
        if g is None:
            grams.append(None)
        else:
            if (not isinstance(g, list) or len(g) != sizes[b]
                    or any(not isinstance(row, list) or len(row) != sizes[b] for row in g)):
                raise ConstructionError("blocks[%d].gram must be %d x %d" % (b, sizes[b], sizes[b]))
            grams.append(tuple(tuple(_parse_scalar(cell, coords,
                                                   "blocks[%d].gram[%d][%d]" % (b, i, j))
                                     for j, cell in enumerate(row))
                               for i, row in enumerate(g)))
            for i, row in enumerate(grams[-1]):
                for j, cell in enumerate(row):
                    if _uses_coords(cell) - set(range(offsets[b], offsets[b + 1])):
                        raise ConstructionError(
                            "blocks[%d].gram[%d][%d] may only use block coordinates" % (b, i, j))

    total = ex.ONE
    for beta in betas:
        total = ex.mul(total, beta)
    lambdas = [ex.mul(betas[s], total) for s in range(N)]
    gammas = []
    for s in range(N):
        acc = ex.ONE
        for l in range(N):
            if l != s:
                acc = ex.mul(acc, ex.abs_(ex.sub(ex.div(ex.ONE, betas[l]),
                                                 ex.div(ex.ONE, betas[s]))))
        gammas.append(acc)

    def assemble(scale_by_lambda):
        rows = [[ex.ZERO] * n for _ in range(n)]
        for s in range(N):
            factor = ex.mul(lambdas[s], gammas[s]) if scale_by_lambda else gammas[s]
            for i in range(sizes[s]):
                for j in range(sizes[s]):
                    base = grams[s][i][j] if grams[s] is not None else (
                        ex.ONE if i == j else ex.ZERO)
                    if ex.is_zero(base):
                        continue
                    rows[offsets[s] + i][offsets[s] + j] = ex.mul(factor, base)
        return tuple(tuple(row) for row in rows)

    lo, hi = _domain_box(spec.get("domain"), n, default_half=0.4)
    model = GeometryModel(coords, n, _identity_frame(n), assemble(False), assemble(True),
                          lo, hi, meta={"generator": "levi-civita", "params": spec})

    q0 = spec.get("q0", [0.5 * (a + b) for a, b in zip(lo, hi)])
    if len(q0) != n:
        raise ConstructionError("q0 must have length %d" % n)
    beta_vals = []
    for s, beta in enumerate(betas):
        val = ex.evaluate(beta, tuple(q0))
        if val <= 0:
            raise ConstructionError("blocks[%d].beta is not positive at q0" % s)
        beta_vals.append(val)
    for s in range(N):
        for l in range(s + 1, N):
            if abs(beta_vals[s] - beta_vals[l]) < 1e-9 * max(1.0, abs(beta_vals[s])):
                raise ConstructionError(
                    "beta values of blocks %d and %d coincide at q0" % (s, l))
    for q in model.probe_grid(per_axis=3, margin=0.02):
        vals = [ex.evaluate(beta, tuple(q)) for beta in betas]
        if min(vals) <= 0:
            raise ConstructionError("some beta is not positive on the domain")
        for s in range(N):
            for l in range(s + 1, N):
                if abs(1.0 / vals[s] - 1.0 / vals[l]) < 1e-9:
                    raise ConstructionError(
                        "betas of blocks %d and %d collide inside the domain "
                        "(gamma factors vanish)" % (s, l))
    validate_model(model)
    return model


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


# ---------------------------------------------------------------------------
# surface normal forms

def build_dini(beta1, beta2, domain=None):
    """Classical separable surface pair on coordinates (x1, x2).

    G1 = (1/b1 - 1/b2)(dx1^2 + dx2^2),
    G2 = b1 b2 (1/b1 - 1/b2)(b1 dx1^2 + b2 dx2^2), requires b1 < b2 pointwise.
    """
    coords = ("x1", "x2")
    b1 = _parse_scalar(beta1, ("x1",), "beta1")
    b2raw = _parse_scalar(beta2, ("x2",), "beta2")
    b2 = ex.rename_coords(b2raw, {0: 1})
    if _uses_coords(b1) - {0}:
        raise ConstructionError("beta1 must depend on x1 only")
    if _uses_coords(b2) - {1}:
        raise ConstructionError("beta2 must depend on x2 only")

    gap = ex.sub(ex.div(ex.ONE, b1), ex.div(ex.ONE, b2))
    g1 = ((gap, ex.ZERO), (ex.ZERO, gap))
    fac = ex.mul(ex.mul(b1, b2), gap)
    g2 = ((ex.mul(fac, b1), ex.ZERO), (ex.ZERO, ex.mul(fac, b2)))
    lo, hi = _domain_box(domain, 2)
    model = GeometryModel(coords, 2, _identity_frame(2), g1, g2, lo, hi,
                          meta={"generator": "dini",
                                "params": {"beta1": str(beta1), "beta2": str(beta2)}})
    for q in model.probe_grid(per_axis=4, margin=0.02):
        qt = tuple(q.tolist())
        v1 = ex.evaluate(b1, qt)
        v2 = ex.evaluate(b2, qt)
        if not 0 < v1 < v2:
            raise ConstructionError(
                "need 0 < beta1 < beta2 on the domain; violated at %s" % (list(qt),))
    validate_model(model)
    return model


def build_gendini_case1(U, V, domain=None):
    """Non-regular-point family, trigonometric case, coordinates (r, theta).

    G1 = (1/U(r cos^2(t/2)) - 1/V(r sin^2(t/2))) (dr^2 + r^2 dt^2) / (4r),
    G2 = S/(8r) ((A - S cos t) dr^2 + 2 S r sin t dr dt + (A + S cos t) r^2 dt^2)
    with A = U + V, S = V - U at the same arguments.  This is the separable
    pair with beta_1 = U(x1^2), beta_2 = V(x2^2) written in the coordinates
    x1 = sqrt(r) cos(t/2), x2 = sqrt(r) sin(t/2); the cross-term sign is
    forced by that substitution.
    """
    coords = ("r", "theta")
    Uexpr = _parse_scalar(U, ("u",), "U")
    Vexpr = _parse_scalar(V, ("v",), "V")
    for name, e in (("U", Uexpr), ("V", Vexpr)):
        if _uses_coords(e) - {0}:
            raise ConstructionError("%s must be a one-variable function" % name)

    # hypotheses at 0: U(0) = V(0), U'(0) = -V'(0), V'(0) > 0
    try:
        u0 = ex.evaluate(Uexpr, (0.0,))
        v0 = ex.evaluate(Vexpr, (0.0,))
        du0 = ex.evaluate(ex.differentiate(Uexpr, 0), (0.0,))
        dv0 = ex.evaluate(ex.differentiate(Vexpr, 0), (0.0,))
    except ex.EvalDomainError as exc:
        raise ConstructionError("U, V must be evaluable at 0: %s" % exc) from exc
    if abs(u0 - v0) > 1e-12 * max(1.0, abs(u0)):
        raise ConstructionError("U(0) = V(0) required (got %g, %g)" % (u0, v0))
    if dv0 <= 0:
        raise ConstructionError("V'(0) > 0 required (got %g)" % dv0)
    if abs(du0 + dv0) > 1e-12 * max(1.0, abs(dv0)):
        raise ConstructionError("U'(0) = -V'(0) required (got %g, %g)" % (du0, dv0))

    r, th = ex.Coord(0, "r"), ex.Coord(1, "theta")
    half = ex.mul(ex.Const(0.5), th)
    argU = ex.mul(r, ex.pow_(ex.cos(half), 2.0))
    argV = ex.mul(r, ex.pow_(ex.sin(half), 2.0))
    Uc = ex.substitute(Uexpr, {0: argU})
    Vc = ex.substitute(Vexpr, {0: argV})
    A = ex.add(Uc, Vc)
    S = ex.sub(Vc, Uc)

    gap = ex.sub(ex.div(ex.ONE, Uc), ex.div(ex.ONE, Vc))
    quarter_r = ex.div(gap, ex.mul(ex.Const(4.0), r))
    g1 = ((quarter_r, ex.ZERO),
          (ex.ZERO, ex.mul(quarter_r, ex.mul(r, r))))

    pref = ex.div(S, ex.mul(ex.Const(8.0), r))
    g2_rr = ex.mul(pref, ex.sub(A, ex.mul(S, ex.cos(th))))
    # cross entry: half of the 2 S r sin(t) coefficient, times the prefactor
    g2_rt = ex.mul(pref, ex.mul(S, ex.mul(r, ex.sin(th))))
    g2_tt = ex.mul(pref, ex.mul(ex.add(A, ex.mul(S, ex.cos(th))), ex.mul(r, r)))
    g2 = ((g2_rr, g2_rt), (g2_rt, g2_tt))

    lo, hi = _domain_box(domain, 2)
    if domain is None:
        lo, hi = [0.1, -6.4], [0.4, 6.4]
    model = GeometryModel(coords, 2, _identity_frame(2), g1, g2, lo, hi,
                          meta={"generator": "gendini1",
                                "params": {"U": str(U), "V": str(V)}})
    if lo[0] <= 0:
        raise ConstructionError("domain must keep r > 0 (the origin is the singular point)")
    for arg in np.linspace(0.0, hi[0], 9)[1:]:
        uu = ex.evaluate(Uexpr, (float(arg),))
        vv = ex.evaluate(Vexpr, (float(arg),))
        if not 0 < uu < v0:
            raise ConstructionError("need 0 < U(u) < V(0) for u in (0, r_max]; fails at %g" % arg)
        if not vv > u0:
            raise ConstructionError("need V(v) > U(0) for v in (0, r_max]; fails at %g" % arg)
    validate_model(model)
    return model


def build_gendini_case2(R, a=1.0, C=1.0, domain=None):
    """Non-regular-point family, rotationally symmetric case, coordinates (r, theta).

    G1 = |1/C - 1/R(r)| (a/r^2)(dr^2 + r^2 dt^2),
    G2 = (a C R(r)/r^2)|1/C - 1/R(r)| (R(r) dr^2 + C r^2 dt^2),
    with R(0) = C, R'(0) = 0, R''(0) != 0 and R(r) != C for r > 0.
    """
    coords = ("r", "theta")
    Rexpr = _parse_scalar(R, ("r",), "R")
    if _uses_coords(Rexpr) - {0}:
        raise ConstructionError("R must be a one-variable function of r")
    a = float(a)
    C = float(C)
    if a <= 0 or C <= 0:
        raise ConstructionError("a and C must be positive")
    try:
        r0 = ex.evaluate(Rexpr, (0.0,))
        dr0 = ex.evaluate(ex.differentiate(Rexpr, 0), (0.0,))
        ddr0 = ex.evaluate(ex.differentiate(ex.differentiate(Rexpr, 0), 0), (0.0,))
    except ex.EvalDomainError as exc:
        raise ConstructionError("R must be evaluable at 0: %s" % exc) from exc
    if abs(r0 - C) > 1e-12 * max(1.0, C):
        raise ConstructionError("R(0) = C required (got R(0) = %g, C = %g)" % (r0, C))
    if abs(dr0) > 1e-12:
        raise ConstructionError("R'(0) = 0 required (got %g)" % dr0)
    if abs(ddr0) < 1e-12:
        raise ConstructionError("R''(0) != 0 required")

    r = ex.Coord(0, "r")
    Rr = Rexpr
    gap = ex.abs_(ex.sub(ex.Const(1.0 / C), ex.div(ex.ONE, Rr)))
    g1_rr = ex.mul(gap, ex.div(ex.Const(a), ex.mul(r, r)))
    g1_tt = ex.mul(gap, ex.Const(a))
    g1 = ((g1_rr, ex.ZERO), (ex.ZERO, g1_tt))

    pref = ex.mul(ex.Const(a * C), ex.mul(Rr, gap))
    g2_rr = ex.div(ex.mul(pref, Rr), ex.mul(r, r))
    g2_tt = ex.mul(pref, ex.Const(C))
    g2 = ((g2_rr, ex.ZERO), (ex.ZERO, g2_tt))

    lo, hi = _domain_box(domain, 2)
    if domain is None:
        lo, hi = [0.1, -6.4], [0.4, 6.4]
    if lo[0] <= 0:
        raise ConstructionError("domain must keep r > 0 (the origin is the singular point)")
    for rr in np.linspace(lo[0], hi[0], 9):
        if abs(ex.evaluate(Rexpr, (float(rr),)) - C) < 1e-12:
            raise ConstructionError("R(r) = R(0) inside the domain (at r = %g)" % rr)
    model = GeometryModel(coords, 2, _identity_frame(2), g1, g2, lo, hi,
                          meta={"generator": "gendini2",
                                "params": {"R": str(R), "a": a, "C": C}})
    validate_model(model)
    return model


# ---------------------------------------------------------------------------
# quasi-contact sub-Riemannian construction

def build_quasi_contact(spec):
    """Corank-one pair on R^4 with the standard quasi-contact distribution.

    Chart (x, y, z, w), D = ker(dz - x dy) intersected leafwise: frame
    X1 = d/dx, X2 = d/dy + x d/dz, X3 = d/dw, completion X4 = d/dz.
    G1 = diag(beta(w) * gbar, 1), and with f = C1/(1 + C2 beta(w)):
    G2 = diag(f * beta(w) * gbar, f^2). beta(0) = 1, C1 > 0, C2 > -1, C2 != 0.
    """
    spec = dict(spec or {})
    beta_in = spec.get("beta", "exp(t)")
    C1 = float(spec.get("C1", 1.0))
    C2 = float(spec.get("C2", 1.0))
    beta_t = _parse_scalar(beta_in, ("t",), "beta")
    if _uses_coords(beta_t) - {0}:
        raise ConstructionError("beta must be a one-variable function of t")
    if C1 <= 0:
        raise ConstructionError("C1 must be positive")
    if C2 == 0 or C2 <= -1:
        raise ConstructionError("C2 must be nonzero and greater than -1")
    b0 = ex.evaluate(beta_t, (0.0,))
    if abs(b0 - 1.0) > 1e-12:
        raise ConstructionError("beta(0) = 1 required (got %g)" % b0)

    coords = ("x", "y", "z", "w")
    beta = ex.substitute(beta_t, {0: ex.Coord(3, "w")})

    gbar_in = spec.get("gbar")
    if gbar_in is None:
        gbar = ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE))
    else:
        if (not isinstance(gbar_in, list) or len(gbar_in) != 2
                or any(not isinstance(row, list) or len(row) != 2 for row in gbar_in)):
            raise ConstructionError("gbar must be a 2 x 2 matrix")
        gbar = tuple(tuple(_parse_scalar(cell, ("x", "y", "z"), "gbar[%d][%d]" % (i, j))
                           for j, cell in enumerate(row)) for i, row in enumerate(gbar_in))

    x = ex.Coord(0, "x")
    frame = (
        (ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO),          # X1 = d/dx
        (ex.ZERO, ex.ONE, x, ex.ZERO),                # X2 = d/dy + x d/dz
        (ex.ZERO, ex.ZERO, ex.ZERO, ex.ONE),          # X3 = d/dw (abnormal direction)
        (ex.ZERO, ex.ZERO, ex.ONE, ex.ZERO),          # X4 = d/dz = [X1, X2]
    )

    f = ex.div(ex.Const(C1), ex.add(ex.ONE, ex.mul(ex.Const(C2), beta)))
    g1 = [[ex.ZERO] * 3 for _ in range(3)]
    g2 = [[ex.ZERO] * 3 for _ in range(3)]
    for i in range(2):
        for j in range(2):
            cell = gbar[i][j]
            if ex.is_zero(cell):
                continue
            g1[i][j] = ex.mul(beta, cell)
            g2[i][j] = ex.mul(f, ex.mul(beta, cell))
    g1[2][2] = ex.ONE
    g2[2][2] = ex.mul(f, f)

    lo, hi = _domain_box(spec.get("domain"), 4, default_half=0.4)
    model = GeometryModel(coords, 3, frame,
                          tuple(tuple(row) for row in g1),
                          tuple(tuple(row) for row in g2), lo, hi,
                          meta={"generator": "quasi-contact",
                                "params": {"beta": str(beta_in), "C1": C1, "C2": C2,
                                           "gbar": gbar_in}})
    for w in np.linspace(lo[3], hi[3], 9):
        bv = ex.evaluate(beta_t, (float(w),))
        if bv <= 0 or 1.0 + C2 * bv <= 0:
            raise ConstructionError("1 + C2*beta(w) must stay positive on the w range")
    validate_model(model)
    return model


# ---------------------------------------------------------------------------
# projective model of the round hemisphere

def build_beltrami(half_width=2.0, domain=None):
    """Euclidean plane paired with the central-projection sphere metric.

    G2 is derived symbolically as the pullback of the round metric under
    sigma(x, y) = (x, y, 1)/sqrt(1 + x^2 + y^2); both metrics have straight
    chart geodesics.
    """
    coords = ("x", "y")
    x, y = ex.Coord(0, "x"), ex.Coord(1, "y")
    s = ex.sqrt(ex.add(ex.ONE, ex.add(ex.mul(x, x), ex.mul(y, y))))
    sigma = (ex.div(x, s), ex.div(y, s), ex.div(ex.ONE, s))
    g2 = [[ex.ZERO] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            acc = ex.ZERO
            for comp in sigma:
                acc = ex.add(acc, ex.mul(ex.differentiate(comp, i),
                                         ex.differentiate(comp, j)))
            g2[i][j] = acc
    hw = float(half_width)
    if hw <= 0:
        raise ConstructionError("half_width must be positive")
    lo, hi = _domain_box(domain, 2, default_half=hw)
    model = GeometryModel(coords, 2, _identity_frame(2), _identity_frame(2),
                          tuple(tuple(row) for row in g2), lo, hi,
                          meta={"generator": "beltrami", "params": {"half_width": hw}})
    validate_model(model)
    return model


GENERATORS = {
    "levi-civita": build_levi_civita,
    "dini": lambda params: build_dini(params["beta1"], params["beta2"],
                                      params.get("domain")),
    "gendini1": lambda params: build_gendini_case1(params["U"], params["V"],
                                                   params.get("domain")),
    "gendini2": lambda params: build_gendini_case2(params["R"], params.get("a", 1.0),
                                                   params.get("C", 1.0),
                                                   params.get("domain")),
    "quasi-contact": build_quasi_contact,
    "beltrami": lambda params: build_beltrami(params.get("half_width", 2.0),
                                              params.get("domain")),
}
