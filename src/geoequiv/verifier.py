"""Orbital transport of extremals and the end-to-end equivalence verdict.

The orbital map sends a gram1 extremal covector to the gram2 covector whose
extremal traces the same base curve: on the distribution part it rescales the
adapted quasi-impulses by the eigenvalues over a = sqrt(sum alpha_i^2 u_i^2),
and in corank one the transverse component is pinned by the quotient of the
obstruction polynomial R_j by Q_{j,m+1}. The matched gram2 flow time is the
integral s(t) of a along the gram1 extremal, so on an equivalent pair
q2(s(t)) = q1(t). verify_equivalence samples covectors, transports them,
integrates both flows and compares each gram1 point q1(t_i) with the gram2
point q2(s(t_i)) at its matched time.
"""

import math

import numpy as np

from . import expr as ex
from .geometry import abnormal_direction
from .hamiltonian import integrate, resample
from .pair import (AdaptedFrame, AdaptedFrameError, _fiber_R, _floats, _transverse_Q,
                   fiber_value, intrinsic_P)

_TINY = 1e-12


class OrbitalMapError(Exception):
    pass


class SamplingError(Exception):
    """No admissible covector could be drawn (the abnormal-cone exclusion
    rejected every draw)."""


class OrbitalResult:
    def __init__(self, lam2, a):
        self.lam2 = lam2
        self.a = a


def _transverse_phi(model, data, u, a):
    """Phi_{m+1} = R_j / (alpha_j Q_{j,m+1} a) using the strongest row j, from
    the point data."""
    n, m = model.n, model.m
    # a degree-1 fiber_value is coeffs @ u
    qvals = [float(row @ u) for row in _transverse_Q(data, n, m)]
    jbar = int(np.argmax(np.abs(qvals))) + 1
    qv = qvals[jbar - 1]
    scale = float(np.max(np.abs(data.cbar))) * float(np.linalg.norm(u[:m])) + _TINY
    if abs(qv) <= 1e-9 * scale:
        raise OrbitalMapError(
            "transverse component undefined: Q_{j,m+1} vanishes on this covector "
            "(abnormal cone); exclude such samples")
    rv = fiber_value(_fiber_R(data, n, m, jbar - 1), u, 2)
    return rv / (data.alphas[jbar - 1] * qv * a)


def orbital_map(model, frame, lam):
    """gram2 covector whose extremal has the same trace as the gram1 extremal,
    and a = sqrt(sum_{i <= m} alpha_i^2 u_i^2) of the adapted u = p A."""
    n, m = model.n, model.m
    q = np.asarray(lam[0], dtype=float)
    p = np.asarray(lam[1], dtype=float)
    # only the transverse component needs point_data's structure functions
    if n > m:
        data = frame.point_data(q)
        A, alpha_sq = data.A, data.alpha_sq
    else:
        A, _Vg, alpha_sq = frame.at(q)[:3]
    u = p @ A
    a_sq = float(np.sum(alpha_sq * u[:m] ** 2))
    if a_sq <= _TINY * max(1.0, float(np.dot(p, p))):
        raise OrbitalMapError("covector annihilates the distribution at %s" % (_floats(q),))
    a = np.sqrt(a_sq)
    phi = np.empty(n)
    phi[:m] = alpha_sq * u[:m] / a
    if n > m:
        phi[m] = _transverse_phi(model, data, u, a)
    p2 = np.linalg.solve(A.T, phi)
    return OrbitalResult((q, p2), a)


# ---------------------------------------------------------------------------
# end-to-end verification

class SampleOutcome:
    def __init__(self, index, status, q0=None, deviation=None, endpoint_gap=None,
                 T_used=None, T2=None, drift1=None, drift2=None, note=""):
        self.index = index
        self.status = status            # verified | truncated | clipped | frame-error | degenerate
        self.q0 = q0
        self.deviation = deviation
        self.endpoint_gap = endpoint_gap
        self.T_used = T_used
        self.T2 = T2
        self.drift1 = drift1
        self.drift2 = drift2
        self.note = note

    def as_dict(self):
        out = {"index": self.index, "status": self.status}
        if self.q0 is not None:
            out["q0"] = [float(v) for v in self.q0]
        for name in ("deviation", "endpoint_gap", "T_used", "T2", "drift1", "drift2"):
            val = getattr(self, name)
            if val is not None:
                out[name] = float(val)
        if self.note:
            out["note"] = self.note
        return out


class VerificationReport:
    def __init__(self, verdict, samples, config, counts, max_deviation, max_drift,
                 excluded_resamples):
        self.verdict = verdict          # pass | fail | inconclusive
        self.samples = samples
        self.config = config
        self.counts = counts
        self.max_deviation = max_deviation
        self.max_drift = max_drift
        self.excluded_resamples = excluded_resamples

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "config": self.config,
            "counts": self.counts,
            "max_deviation": (float(self.max_deviation)
                              if self.max_deviation is not None else None),
            "max_energy_drift": (float(self.max_drift)
                                 if self.max_drift is not None else None),
            "excluded_resamples": self.excluded_resamples,
            "samples": [s.as_dict() for s in self.samples],
        }


_DEFAULT_SAMPLING = {
    "count": 50,
    "seed": 7,
    "T": 0.3,
    "tol_curve": 1e-6,
    "integrator_tol": 1e-10,
    "curve_samples": 601,
    "margin": 0.15,
    "transverse_sigma": 1.0,
}


def _abnormal_program(model):
    """The evaluator q -> coefficients of the abnormal direction on
    X_1..X_m, or None when the distribution has none; cached on the model,
    which holds the compiled function once it compiles."""
    if "abnormal" not in model._cache:
        fn = None
        if model.n - model.m == 1:
            coeffs = abnormal_direction(model)
            if coeffs is not None:
                fn = ex.compile_exprs(coeffs, name="_abn", slot=(model._cache, "abnormal"))
        model._cache["abnormal"] = fn
    return model._cache["abnormal"]


def verify_equivalence(model, sampling=None, exclusions=None):
    """Sample gram1 extremals, transport them, and compare the base curves.

    A sample's deviation is max_i |q2(s_i) - q1(t_i)| over curve_samples even
    times t_i of the gram1 run, with s_i = s(t_i) its matched gram2 time; both
    legs are read off their runs' interpolants. Verdict: fail if any verified
    sample deviates beyond tol_curve, pass when at least half of the
    requested samples verify below it, inconclusive otherwise. A clipped
    gram1 run is cut to 80% of its pre-exit window when that keeps a quarter
    of the horizon, else the sample is skipped.
    """
    cfg = dict(_DEFAULT_SAMPLING)
    if sampling:
        unknown = set(sampling) - set(cfg)
        if unknown:
            raise ValueError("unknown sampling keys: %s" % sorted(unknown))
        cfg.update(sampling)
    exclusions = dict(exclusions or {})
    cone = exclusions.pop("abnormal_cone", None)
    if exclusions:
        raise ValueError("unknown exclusion keys: %s" % sorted(exclusions))

    n, m = model.n, model.m
    if n - m not in (0, 1):
        raise AdaptedFrameError("verify supports corank 0 or 1 only, not corank %d" % (n - m))
    count = int(cfg["count"])
    T = float(cfg["T"])
    tol_curve = float(cfg["tol_curve"])
    itol = float(cfg["integrator_tol"])
    S = int(cfg["curve_samples"])
    rng = np.random.default_rng(int(cfg["seed"]))

    abnormal_fn = _abnormal_program(model) if cone is not None else None
    if abnormal_fn is None:
        cone = None  # no abnormal direction to exclude

    def sample_covector():
        """Unit-energy gram1 covector with Gaussian transverse impulses."""
        excluded = 0
        for _ in range(200):
            q = model.sample_point(rng, margin=float(cfg["margin"]))
            z = rng.normal(size=m)
            nz = np.linalg.norm(z)
            trans = rng.normal(size=n - m) * float(cfg["transverse_sigma"])
            if nz < 1e-12:
                continue
            qt = tuple(q.tolist())
            W1 = model.gram_at(qt, 1)
            try:
                L = np.linalg.cholesky(W1)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError("gram1 not positive definite at %s"
                                            % ([float(v) for v in qt],)) from exc
            u = L @ (z / nz)
            if cone is not None:
                v = np.linalg.solve(W1, u)
                b = np.asarray(abnormal_fn(qt), dtype=float)
                nb = np.sqrt(b @ W1 @ b)
                if nb > 1e-12:
                    cosang = abs(v @ W1 @ b) / (np.sqrt(v @ W1 @ v) * nb)
                    if cosang > np.cos(cone):
                        excluded += 1
                        continue
            E = model.frame_at(qt)
            p = np.linalg.solve(E.T, np.concatenate([u, trans]))
            return q, p, excluded
        raise SamplingError("could not draw an admissible covector: %d of 200 draws "
                            "fell within the abnormal cone of half-angle %s"
                            % (excluded, cone))

    def a_rate(y):
        return math.sqrt(max(intrinsic_P(model, y), 0.0))

    def run_sample(idx, q0, p0):
        """The outcome of transporting the gram1 extremal of (q0, p0)."""
        g1 = integrate(model, 1, (q0, p0), T, tol=itol, aux_rate=a_rate)
        status, T_used = "verified", T
        if g1.clipped:
            # t_exit has T's sign, so T_used does too
            T_used = 0.8 * g1.t_exit
            if abs(T_used) < 0.25 * abs(T) or abs(T_used) < 1e-9:
                return SampleOutcome(idx, "clipped", q0,
                                     note="usable window %.3g below a quarter of the "
                                          "horizon" % g1.t_exit)
            status = "truncated"
        g1 = resample(g1, np.linspace(0.0, T_used, S))
        try:
            frame = AdaptedFrame(model, center=q0)
            lam2 = orbital_map(model, frame, (q0, p0)).lam2
        except (AdaptedFrameError, OrbitalMapError) as exc:
            return SampleOutcome(idx, "frame-error", q0, note=str(exc))
        # s(T_used), signed: backward horizons accumulate a negative total
        T2 = float(g1.aux[-1])
        if abs(T2) < 1e-12:
            return SampleOutcome(idx, "degenerate", q0, note="matched flow time vanished")
        # the gram2 leg at the matched times s_i; a clipped leg reaches a prefix
        g2 = resample(integrate(model, 2, lam2, T2, tol=itol), g1.aux)
        k = len(g2.t)
        if k < 2:
            return SampleOutcome(idx, "degenerate", q0,
                                 note="gram2 extremal left the domain at once")
        return SampleOutcome(
            idx, status, q0, deviation=float(np.max(np.linalg.norm(g2.q - g1.q[:k], axis=1))),
            endpoint_gap=float(np.linalg.norm(g2.q[-1] - g1.q[-1])), T_used=T_used, T2=T2,
            drift1=float(np.max(np.abs(g1.h - g1.h[0]))),
            drift2=float(np.max(np.abs(g2.h - g2.h[0]))),
            note="gram2 leg clipped at %.3g" % g2.t_exit if g2.clipped else "")

    samples = []
    excluded_total = 0
    for idx in range(count):
        q0, p0, excl = sample_covector()
        excluded_total += excl
        samples.append(run_sample(idx, q0, p0))

    # every count, maximum and the verdict come from the outcomes
    statuses = [s.status for s in samples]
    measured = [s for s in samples if s.deviation is not None]
    counts = {"requested": count, "verified": len(measured),
              "truncated": statuses.count("truncated"),
              "clipped": statuses.count("clipped"),
              "frame_errors": statuses.count("frame-error"),
              "degenerate": statuses.count("degenerate")}
    max_dev = max((s.deviation for s in measured), default=None)
    max_drift = max((max(s.drift1, s.drift2) for s in measured), default=None)
    if max_dev is not None and max_dev > tol_curve:
        verdict = "fail"
    elif len(measured) < 0.5 * count:
        verdict = "inconclusive"
    else:
        verdict = "pass"

    config = dict(cfg)
    if cone is not None:
        config["abnormal_cone"] = float(cone)
    return VerificationReport(verdict, samples, config, counts, max_dev, max_drift,
                              excluded_total)
