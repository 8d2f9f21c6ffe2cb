"""Reference implementations that the library replaced with faster ones.

The numpy Hamiltonian formulas evaluate the frame, the Gram matrices and
their derivatives through the model's compiled evaluators and solve with
numpy; the curve distance loops over every segment for every point; the
structure functions of the adapted frames come from a 4th-order central
finite-difference stencil over AdaptedFrame.at. Tests compare the generated
Hamiltonian field, the pruned curve distance and the exact frame
derivatives of AdaptedFrame.point_data with them.
"""

import itertools

import numpy as np


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
    """(c, cbar) of the adapted and rescaled frames at q, by finite differences.

    4n calls of frame.at around q; the error is O(fd_step^4) where the
    gauge is smooth.
    """
    n, m = frame.model.n, frame.model.m
    qt = np.asarray(q, dtype=float)

    def frames(point):
        Ap, _, lp = frame.at(point)[:3]
        Abar = Ap.copy()
        Abar[:, :m] /= np.sqrt(lp)[None, :]
        return Ap, Abar

    A, Abar = frames(qt)
    dA = np.empty((n, n, n))
    dAbar = np.empty((n, n, n))
    h = fd_step
    for k in range(n):
        step = np.zeros(n)
        step[k] = h
        Ap1, Bp1 = frames(qt + step)
        Am1, Bm1 = frames(qt - step)
        Ap2, Bp2 = frames(qt + 2 * step)
        Am2, Bm2 = frames(qt - 2 * step)
        dA[k] = (8.0 * (Ap1 - Am1) - (Ap2 - Am2)) / (12.0 * h)
        dAbar[k] = (8.0 * (Bp1 - Bm1) - (Bp2 - Bm2)) / (12.0 * h)

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

    return structure(A, dA), structure(Abar, dAbar)
