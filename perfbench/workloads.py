"""Fixtures, seeded inputs, timed ops and output oracles of the three workloads.

Every call into geoequiv goes through a module attribute (`geo.pair.relations_cor`,
not a name imported here), so the tracer's wrappers are the ones that run
when it is installed.
"""

import contextlib
import io
import json
import math
import os
import statistics
import traceback
from time import perf_counter

import numpy as np

TOL_CURVE = 1e-6        # verify_equivalence's default curve tolerance
DIV_GATE = 1e-8         # the first-divisibility gate of geoequiv.pair
RELATIONS_TOL = 1e-6    # check-relations' default tolerance
MARGIN = 0.15           # GeometryModel.sample_point's default margin
CONFORMAL_GROUP = 10    # conformal samples judged together
UMBILIC_RADIUS = 0.1    # see KNOWN_RED
RESIDUAL_FLOOR = 1e-16  # double-precision round-off; some residuals are exactly 0
REF_S = 1e-3            # reference() time that op times are scaled to
REF_WINDOW = 5          # op runs on each side whose reference times are pooled


def _conformal(geo):
    """Heisenberg frame with gram2 = (1 + x^2 + y^2) * gram1: not equivalent."""
    coords = ("x", "y", "z")
    P = lambda s: geo.expr.parse(s, coords)
    frame = ((P("1"), P("0"), P("-y/2")),
             (P("0"), P("1"), P("x/2")),
             (P("0"), P("0"), P("1")))
    g1 = ((P("1"), P("0")), (P("0"), P("1")))
    g2 = ((P("1 + x^2 + y^2"), P("0")), (P("0"), P("1 + x^2 + y^2")))
    return geo.geometry.GeometryModel(coords, 2, frame, g1, g2, [-0.8] * 3, [0.8] * 3)


FIXTURES = {
    "lc3": lambda geo: geo.constructors.build_levi_civita(
        {"blocks": [{"size": 2, "beta": 1.5}, {"size": 1, "beta": "2 + x3/10"}]}),
    "quasi-contact": lambda geo: geo.constructors.build_quasi_contact(
        {"beta": "exp(t)", "C1": 1.0, "C2": 1.0}),
    "conformal": _conformal,
    "gendini1": lambda geo: geo.constructors.build_gendini_case1("1 - u", "1 + v"),
    "beltrami": lambda geo: geo.constructors.build_beltrami(),
}

EQUIVALENT = {"lc3", "quasi-contact", "gendini1", "beltrami"}

# Open defect, kept out of the timed ops and shown by a probe: near the
# umbilic of the Beltrami pair (the origin, where its two eigenvalues merge)
# the adapted frame turns fast and the finite-difference structure functions
# of AdaptedFrame.point_data lose accuracy, so first divisibility misses its
# 1e-8 gate (residual 8.7e-8 at |q| = 0.05, 5.3e-5 at |q| = 0.01) and
# relations_cor its 1e-6 tolerance (below |q| ~ 0.015). Every point is
# regular there, so the paper's claims hold and the outputs are wrong.
# Beltrami points are drawn outside UMBILIC_RADIUS (residual 5.5e-9 at 0.1),
# so that every op of a run passes; each screen run screens
# KNOWN_RED_POINT once, untimed, and prints its residuals.
KNOWN_RED = ("beltrami: FD first-divisibility/relations residuals above their "
             "gates within |q| < %g of the umbilic" % UMBILIC_RADIUS)
KNOWN_RED_POINT = (0.05, 0.0)


def setup(geo, names, workdir):
    """Build, save, load (which validates) and warm up the named fixtures."""
    models = {}
    for name in names:
        path = os.path.join(workdir, name + ".json")
        geo.geometry.save_model(FIXTURES[name](geo), path)
        model = geo.geometry.load_model(path)
        q = tuple(model.center())
        model.frame_at(q)
        model.dframe_at(q)
        for tag in (1, 2):
            model.gram_at(q, tag)
            model.dgram_at(q, tag)
        models[name] = (model, path)
    return models


def draw_point(model, rng, avoid_umbilic=False):
    """Uniform point of the box that GeometryModel.sample_point draws from.

    With `avoid_umbilic`, points within UMBILIC_RADIUS of the origin are drawn
    again (see KNOWN_RED).
    """
    lo = model.domain_min + MARGIN * (model.domain_max - model.domain_min)
    hi = model.domain_max - MARGIN * (model.domain_max - model.domain_min)
    while True:
        q = tuple(float(v) for v in lo + rng.random(model.n) * (hi - lo))
        if not (avoid_umbilic and math.hypot(*q) < UMBILIC_RADIUS):
            return q


_REF_MATRIX = np.random.default_rng(0).random((6, 6))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T


def reference():
    """Seconds that a fixed kernel, independent of geoequiv, takes now.

    Python loops, a dict and small numpy calls, as in the ops. The shared host
    runs identical work up to 2.3x slower from one minute to the next, and the
    ops slow down with this kernel: their time over its time varies by about
    4% where either alone varies by 30%.
    """
    t0 = perf_counter()
    acc = 0.0
    for i in range(300):
        row = _REF_MATRIX[i % 6] * 1.0001
        acc += float(np.dot(row, row))
        if i % 10 == 0:
            np.linalg.eigh(_REF_MATRIX)
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return perf_counter() - t0


def reference_median(times=5):
    return statistics.median(reference() for _ in range(times))


class Tally:
    """Op runs attempted and failed, per-input timings and gate residuals.

    An input is timed once per pass; `first` holds what its first pass
    returned, which every later pass must repeat exactly. A calibrated run
    times reference() before every op run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.runs = []          # (input id, seconds, reference seconds or None)
        self.first = {}         # input id -> repeatable part of the first output
        self.residuals = []
        self.unexpected = []    # oracle disagreements
        self.known_red = []     # KNOWN_RED probe results; not op failures
        self.pending = []       # certify: conformal samples awaiting judgement

    def op(self, ident, seconds, ref_s=None):
        self.attempted += 1
        self.runs.append((ident, seconds, ref_s))

    def fail(self, count, message):
        self.failed += count
        self.unexpected.append(message)

    def all_ms(self):
        """Every op run, in ms as measured."""
        return [1e3 * seconds for _ident, seconds, _ref in self.runs]

    def best_ms(self):
        """{input id: the fastest of its passes in ms at the reference speed}.

        A run's time is scaled by REF_S over the median reference time of the
        op runs within REF_WINDOW of it.
        """
        refs = [ref for _ident, _seconds, ref in self.runs]
        best = {}
        for k, (ident, seconds, _ref) in enumerate(self.runs):
            local = statistics.median(refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])
            ms = 1e3 * seconds * REF_S / local
            best[ident] = min(ms, best.get(ident, ms))
        return best


def run_block(work, geo, models, block, inputs, tally, calibrate=False):
    """Run and check every input of a block once; repeats compare outputs."""
    for slot, inp in enumerate(inputs):
        ident = (block, slot)
        ref_s = reference() if calibrate else None
        seconds, out = work.run(geo, models, inp)
        tally.op(ident, seconds, ref_s)
        key = work.key(out)
        if ident not in tally.first:
            tally.first[ident] = key
            work.judge(geo, models, inp, out, tally)
        elif key != tally.first[ident]:
            tally.fail(1, "%s at %r: output differs from its first run"
                       % (inp[0], inp[1]))


def _error(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _timed(fn, *args, **kwargs):
    """(seconds, result), or (seconds, error text) when fn raises."""
    t0 = perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        out = _error(exc)
    return perf_counter() - t0, out


class _Workload:
    """A block holds one input per fixture; an op runs one input.

    inputs() draws a block, run() times one op, key() is the part of its
    output that must repeat exactly, judge() is the oracle.
    """

    def inputs(self, models, rng):
        return [(name, draw_point(models[name][0], rng,
                                  avoid_umbilic=name == "beltrami"))
                for name in self.fixtures]

    def key(self, out):
        return out

    def finish(self, geo, models, tally, rng):
        """Judge what the blocks left open; nothing by default."""

    def known_red(self, geo, models):
        """Probe results of KNOWN_RED; none by default."""
        return []

    def gate_margin(self, tally):
        return _margin(DIV_GATE, tally.residuals)


class Certify(_Workload):
    """verify_equivalence on lc3 and quasi-contact (pass) and conformal (fail).

    Each call asks for one sample, so the time of every sample is seen from
    outside verify_equivalence. Conformal samples are judged in groups of
    CONFORMAL_GROUP, as a verify call of that many samples would judge them:
    a non-equivalent pair needs one deviating extremal, not every one.
    """

    name = "certify"
    fixtures = ("lc3", "quasi-contact", "conformal")
    blocks_per_s = 1.2      # nominal, sizes the traced run
    exclusions = {"quasi-contact": {"abnormal_cone": 0.1}}

    def inputs(self, models, rng):
        return [(name, int(rng.integers(2 ** 31))) for name in self.fixtures]

    def run(self, geo, models, inp):
        name, seed = inp
        sampling = {"count": 1, "seed": seed, "tol_curve": TOL_CURVE}
        return _timed(geo.verifier.verify_equivalence, models[name][0], sampling,
                      exclusions=self.exclusions.get(name))

    def key(self, rep):
        if isinstance(rep, str):
            return rep
        return rep.verdict, rep.max_deviation, sorted(rep.counts.items())

    def judge(self, geo, models, inp, rep, tally):
        name, seed = inp
        if isinstance(rep, str):
            tally.fail(1, "%s seed %d raised %s" % (name, seed, rep))
            return
        if name == "conformal":
            tally.pending.append((seed, rep.verdict))
            if len(tally.pending) == CONFORMAL_GROUP:
                self._judge_group(tally)
            return
        if rep.max_deviation is not None:
            tally.residuals.append(rep.max_deviation)
        passed = rep.verdict == "pass" and rep.max_deviation <= TOL_CURVE
        # a clipped sample left the domain too early and was skipped
        skipped = rep.verdict == "inconclusive" and rep.counts["clipped"] == 1
        if not (passed or skipped):
            tally.fail(1, "%s seed %d: verdict %s, max_deviation %r, counts %r"
                       % (name, seed, rep.verdict, rep.max_deviation, rep.counts))

    def _judge_group(self, tally):
        group, tally.pending = tally.pending, []
        if not any(verdict == "fail" for _seed, verdict in group):
            tally.fail(len(group), "conformal seeds %s: no extremal deviates beyond %g"
                       % ([seed for seed, _v in group], TOL_CURVE))

    def finish(self, geo, models, tally, rng):
        """Complete the last conformal group with untimed samples, then judge it.

        The group is completed only while none of its samples deviates, so
        how many blocks a run fits does not decide the verdict.
        """
        while tally.pending and len(tally.pending) < CONFORMAL_GROUP and not any(
                verdict == "fail" for _seed, verdict in tally.pending):
            seed = int(rng.integers(2 ** 31))
            _s, rep = self.run(geo, models, ("conformal", seed))
            if isinstance(rep, str):
                tally.fail(1, "conformal seed %d raised %s" % (seed, rep))
                return
            tally.pending.append((seed, rep.verdict))
        if tally.pending:
            self._judge_group(tally)

    def gate_margin(self, tally):
        return _margin(TOL_CURVE, tally.residuals)


class Screen(_Workload):
    """Adapted frame, both divisibility screens and relations_cor at seeded points."""

    name = "screen"
    fixtures = ("lc3", "gendini1", "beltrami", "quasi-contact", "conformal")
    blocks_per_s = 40.0

    @staticmethod
    def _screen(pair, model, q):
        frame = pair.AdaptedFrame(model, center=np.array(q))
        fd = pair.first_divisibility(model, frame, q)
        sd = (pair.second_divisibility(model, frame, q)
              if model.n - model.m == 1 else None)
        rc = pair.relations_cor(model, frame, q)
        return fd, sd, rc

    def run(self, geo, models, inp):
        name, q = inp
        return _timed(self._screen, geo.pair, models[name][0], q)

    def key(self, out):
        if isinstance(out, str):
            return out
        fd, sd, rc = out
        return (fd.holds, fd.residual, sd and (sd.holds, sd.residual),
                rc.max_residual, sorted(rc.checks.items()))

    def judge(self, geo, models, inp, out, tally):
        name, q = inp
        if isinstance(out, str):
            tally.fail(1, "%s at %r raised %s" % (name, q, out))
            return
        fd, sd, rc = out
        tally.residuals.append(fd.residual)
        problems = []
        if not fd.holds:
            problems.append("first divisibility residual %.3g" % fd.residual)
        if name == "quasi-contact" and not sd.holds:
            problems.append("second divisibility residual %.3g" % sd.residual)
        if name in EQUIVALENT and not rc.max_residual <= RELATIONS_TOL:
            problems.append("relations residual %.3g" % rc.max_residual)
        if name == "conformal":
            tc = rc.checks["transverse-constancy"]
            if tc is None or not tc > RELATIONS_TOL:
                problems.append("transverse-constancy %r not above %g"
                                % (tc, RELATIONS_TOL))
        if problems:
            tally.fail(1, "%s at %r: %s" % (name, q, "; ".join(problems)))

    def known_red(self, geo, models):
        """Screen the fixed KNOWN_RED_POINT; its residuals are reported, not judged."""
        _s, out = self.run(geo, models, ("beltrami", KNOWN_RED_POINT))
        if isinstance(out, str):
            return ["beltrami at %r raised %s" % (KNOWN_RED_POINT, out)]
        fd, _sd, rc = out
        return ["beltrami at %r: first divisibility residual %.3g (gate %g, holds %s), "
                "relations residual %.3g" % (KNOWN_RED_POINT, fd.residual, DIV_GATE,
                                             fd.holds, rc.max_residual)]


class Analyze(_Workload):
    """`geoequiv analyze` run in-process; every pass of an input is byte-compared."""

    name = "analyze"
    fixtures = Screen.fixtures
    blocks_per_s = 2.0

    @staticmethod
    def _analyze(cli, argv, out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return code, None
        with open(out, "rb") as fh:
            return code, fh.read()

    def run(self, geo, models, inp):
        name, q = inp
        path = models[name][1]
        out = path + ".report"
        # positional notation: argparse takes "-3.9e-05" for an option
        # flag and the CLI exits 1, while "-0.000039" parses as a number
        argv = (["analyze", "--model", path, "--at"]
                + [np.format_float_positional(v) for v in q]
                + ["--format", "json", "--out", out])
        return _timed(self._analyze, geo.cli, argv, out)

    def judge(self, geo, models, inp, out, tally):
        name, q = inp
        if isinstance(out, str) or out[0] != 0:
            tally.fail(1, "%s at %r: %s" % (name, q, out if isinstance(out, str)
                                           else "exit %r" % out[0]))
            return
        rec = json.loads(out[1])["points"][0]
        if "first_divisibility" not in rec:
            tally.fail(1, "%s at %r: no first divisibility (%s)"
                       % (name, q, rec.get("frame_error")))
            return
        tally.residuals.append(rec["first_divisibility"]["residual"])


def _margin(gate, residuals):
    """Mean over ops of log10(gate / residual), residuals floored at 1e-16.

    This is log10 of the gate over the geometric-mean residual. The worst
    residual is set by the Beltrami point nearest the umbilic (see KNOWN_RED)
    and moves with the seed.
    """
    if not residuals:
        return 0.0      # every op raised; the run is reported incorrect
    res = np.maximum(np.asarray(residuals, dtype=float), RESIDUAL_FLOOR)
    return float(np.mean(np.log10(gate / res)))


WORKLOADS = {"certify": Certify, "screen": Screen, "analyze": Analyze}
