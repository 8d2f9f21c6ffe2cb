"""Command-line front end: generate / analyze / geodesic / verify / check-relations.

Exit codes: 0 success (or verification pass), 1 usage or IO error (also a
point or covector coordinate that is not finite, a geodesic covector too
large for its energy to be finite where the model evaluates or for the
integrator's first step, a geodesic tolerance too small for that at a
covector of largest entry 1, a verify transverse sigma too large for the
first step, or an integrator tolerance too small for it at sigma 0, a
tolerance, radius or abnormal cone that is not finite and positive, a
verify margin outside [0, 0.5), a transverse sigma that is not finite and
at least 0, fewer than 1 verify sample or check-relations point or 2 curve
samples, a negative geodesic sample count, a curve or geodesic sample
count too large to allocate, a zero horizon, an --at point outside the
model domain, or a geodesic start outside it or within 1e-12 of its
boundary), 2 verification fail,
3 inconclusive (also when verify can draw no covector outside the excluded
abnormal cone, or when check-relations has a point without an adapted frame
and no failing point), 4 invalid model: a manifest error (also a number or
constant expression in a cell that is not finite) or validation error, a
model expression that leaves its real domain
(EvalDomainError) at a requested point or along an extremal, a Gram
matrix that is not positive definite where the transition operator is
solved (LinAlgError), or an extremal that the integrator cannot follow
(IntegrationError, naming its start point and the time reached). analyze
and check-relations name the requested point.
JSON outputs are canonicalized (sorted keys, 2-space indent, no NaN or
infinity) so identical inputs give byte-identical reports; every report
carries schema "geoequiv-report/1" and the fully resolved configuration.
"""

import argparse
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .expr import EvalDomainError
from .geometry import load_model, save_model, ManifestError, ModelValidationError
from .hamiltonian import (_DEFAULT_TOL, CovectorTooLargeError, IntegrationError, hamiltonian,
                          integrate, write_trajectory_csv)
from .pair import (_BRACKET_TOL, _CLUSTER_TOL, AdaptedFrameError, AdaptedFrame, regularity_probe,
                   first_divisibility, second_divisibility, relations_cor)
from .constructors import GENERATORS, ConstructionError
from .verifier import SamplingError, verify_equivalence

SCHEMA = "geoequiv-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_INVALID_MODEL = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents, so "--at -3.9e-05" would
        # read the coordinate as an option flag
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits 2 on bad usage; the report contract reserves 2 for
    # verification failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _checked(cast, ok, what):
    """An argparse type: cast(text), which must satisfy ok; otherwise argparse
    reports a usage error that names the flag."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("must be %s, got %s" % (what, text))
        return value
    parse.__name__ = cast.__name__      # argparse's "invalid float value: ..."
    return parse


_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
_NONNEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0, "finite and at least 0")
# sample_point's box keeps this fraction of each side; 0.5 or more inverts it
_MARGIN = _checked(float, lambda v: 0 <= v < 0.5, "in [0, 0.5)")
_SAMPLES = _checked(int, lambda v: v >= 1, "at least 1")
_SAMPLE_TIMES = _checked(int, lambda v: v >= 0, "at least 0")
_CURVE_SAMPLES = _checked(int, lambda v: v >= 2, "at least 2")
_SEED = _checked(int, lambda v: v >= 0, "at least 0")


def _canonical_json(obj):
    # NaN and infinity are not JSON: a report that holds one raises ValueError
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(payload, args, human_lines=None):
    """Write the canonical JSON payload to --out and/or stdout."""
    text = _canonical_json(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(text)
    elif human_lines:
        for line in human_lines:
            print(line)


def _model_summary(model, path):
    return {
        "path": path,
        "coords": list(model.coords),
        "rank": model.m,
        "dim": model.n,
        "generator": (model.meta or {}).get("generator"),
    }


def _load(path):
    try:
        return load_model(path)
    except OSError as exc:
        sys.stderr.write("error: cannot read model: %s\n" % exc)
        raise SystemExit(EXIT_USAGE)


def _usage_error(msg):
    sys.stderr.write("error: %s\n" % msg)
    raise SystemExit(EXIT_USAGE)


def _parse_points(model, ats):
    if not ats:
        return [tuple(model.center())]
    pts = []
    for raw in ats:
        if len(raw) != model.n:
            _usage_error("--at expects %d coordinates, got %d"
                         % (model.n, len(raw)))
        pt = tuple(float(v) for v in raw)
        if not model.in_domain(pt):
            _usage_error("--at point %s is outside the model domain" % (list(pt),))
        pts.append(pt)
    return pts


# ---------------------------------------------------------------- generate

def _cmd_generate(args):
    params = {}
    if args.params:
        try:
            with open(args.params) as fh:
                params = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write("error: cannot read params: %s\n" % exc)
            return EXIT_USAGE
    try:
        model = GENERATORS[args.kind](params)
    except ConstructionError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except KeyError as exc:
        sys.stderr.write("error: bad params for %s: missing parameter %r\n"
                         % (args.kind, exc.args[0]))
        return EXIT_USAGE
    except (TypeError, ValueError) as exc:
        sys.stderr.write("error: bad params for %s: %s\n" % (args.kind, exc))
        return EXIT_USAGE
    except ModelValidationError as exc:
        sys.stderr.write("error: generated model failed validation: %s\n" % exc)
        return EXIT_INVALID_MODEL
    try:
        save_model(model, args.out)
    except OSError as exc:
        sys.stderr.write("error: cannot write %s: %s\n" % (args.out, exc))
        return EXIT_USAGE
    payload = {
        "schema": SCHEMA,
        "command": "generate",
        "kind": args.kind,
        "config": {"params": params, "out": args.out},
        "model": _model_summary(model, args.out),
    }
    if args.format == "json":
        sys.stdout.write(_canonical_json(payload))
    else:
        print("wrote %s (%s, coords %s, rank %d)"
              % (args.out, args.kind, ",".join(model.coords), model.m))
    return EXIT_OK


# ---------------------------------------------- analyze and check-relations

def _per_point(model, points, record, cluster_tol=_CLUSTER_TOL):
    """The record {"q": q, **record(frame, q)} of each point q, with frame
    the adapted frame centered at q. A point without one gets {"q",
    "frame_error"}; a model error there is raised again naming q."""
    records = []
    for q in points:
        rec = {"q": [float(v) for v in q]}
        try:
            frame = AdaptedFrame(model, center=np.array(q, dtype=float),
                                 cluster_tol=cluster_tol)
            rec.update(record(frame, q))
        except AdaptedFrameError as exc:
            rec["frame_error"] = str(exc)
        except (EvalDomainError, np.linalg.LinAlgError) as exc:
            raise type(exc)("at q = %s: %s" % (rec["q"], exc)) from exc
        records.append(rec)
    return records


def _relations(rep):
    """relations_cor's residual of each relation, None where it is vacuous."""
    return {name: (None if val is None else float(val)) for name, val in rep.checks.items()}


def _point_report(frame, q, radius):
    """analyze's record at q, all but its "q". The frame is centered at q: its
    pencil is transition_operator's there, and its cluster_tol the probe's."""
    model = frame.model
    td = frame.transition
    reg = regularity_probe(model, q, radius=radius, cluster_tol=frame.cluster_tol)
    fd = first_divisibility(model, frame, q)
    rec = {
        "eigenvalues": [float(v) for v in td.eigenvalues],
        "N": td.N,
        "regular": bool(reg.regular),
        "N_in_ball": list(reg.N_values),
        "first_divisibility": {"holds": bool(fd.holds), "residual": float(fd.residual)},
        "second_divisibility": None,
    }
    if model.n - model.m == 1:
        sd = second_divisibility(model, frame, q)
        rec["second_divisibility"] = {
            "holds": bool(sd.holds),
            "residual": float(sd.residual),
            "quotient_spread": float(sd.spread),
            "transverse_quotient": {
                str(j): [float(pair[0]), float(pair[1])]
                for j, pair in sd.transverse_r.items()
            },
        }
    rec["relations"] = _relations(relations_cor(model, frame, q))
    return rec


def _worst_relation(rec):
    """The largest relation residual of a record; 0 when none applies."""
    return max((v for v in rec["relations"].values() if v is not None), default=0.0)


def _cmd_analyze(args):
    model = _load(args.model)
    points = _parse_points(model, args.at)
    records = _per_point(model, points, functools.partial(_point_report, radius=args.radius),
                         args.cluster_tol)
    payload = {
        "schema": SCHEMA,
        "command": "analyze",
        "model": _model_summary(model, args.model),
        "config": {"radius": args.radius, "cluster_tol": args.cluster_tol,
                   "points": [list(q) for q in points]},
        "points": records,
    }
    lines = []
    for rec in records:
        lines.append("q = %s" % (rec["q"],))
        if "frame_error" in rec:
            lines.append("  adapted frame unavailable: %s" % rec["frame_error"])
            continue
        lines.append("  eigenvalues: %s  (N = %d, %s)"
                     % ([round(v, 10) for v in rec["eigenvalues"]], rec["N"],
                        "regular" if rec["regular"] else "non-regular"))
        fd = rec["first_divisibility"]
        lines.append("  first divisibility: %s (residual %.3e)"
                     % ("holds" if fd["holds"] else "FAILS", fd["residual"]))
        sd = rec["second_divisibility"]
        if sd is None:
            lines.append("  second divisibility: not applicable (corank != 1)")
        else:
            lines.append("  second divisibility: %s (residual %.3e, spread %.3e)"
                         % ("holds" if sd["holds"] else "FAILS",
                            sd["residual"], sd["quotient_spread"]))
        lines.append("  relations: worst residual %.3e" % _worst_relation(rec))
        for name, val in rec["relations"].items():
            if val is not None:
                lines.append("    %-22s %.3e" % (name, val))
    _emit(payload, args, lines)
    return EXIT_OK


# ---------------------------------------------------------------- geodesic

def _check_energy(model, tag, q, p):
    """Every trajectory report starts with the energy at (q, p). Where it is
    not finite, the model is at fault when the energy of p scaled to a
    largest entry of 1 fails at q too (its EvalDomainError, exit 4), and
    otherwise the size of p is (a usage error, exit 1)."""
    try:
        hamiltonian(model, tag, (q, p))
        return
    except EvalDomainError:
        scale = float(np.abs(p).max())
        if not scale > 1:
            raise
    hamiltonian(model, tag, (q, p / scale))
    _usage_error("argument --p: the energy of this covector at --q is not "
                 "finite; scale it down")


def _refuse_too_large(exc, covector_flag, tol_flag, rerun):
    """One usage line for integrate's CovectorTooLargeError exc, as
    _check_energy judges the energy: the tolerance flag is at fault when
    rerun(), the same run at covectors of unit size, is refused too, and
    the flag that sized the covector otherwise."""
    try:
        rerun()
    except CovectorTooLargeError:
        _usage_error("argument %s: %s; raise it" % (tol_flag, exc))
    _usage_error("argument %s: %s; scale it down" % (covector_flag, exc))


def _cmd_geodesic(args):
    model = _load(args.model)
    if len(args.q) != model.n or len(args.p) != model.n:
        sys.stderr.write("error: --q and --p need %d components\n" % model.n)
        return EXIT_USAGE
    q0 = np.array(args.q, dtype=float)
    p0 = np.array(args.p, dtype=float)
    if model.in_domain(q0):
        _check_energy(model, args.metric, q0, p0)
    try:
        traj = integrate(model, args.metric, (q0, p0), args.T,
                         tol=args.tol, samples=args.samples)
    except CovectorTooLargeError as exc:
        # p scaled to a largest entry of 1; integrate refuses a covector
        # before its first step, and the horizon only caps the trial step
        # there, so a short run decides
        _refuse_too_large(exc, "--p", "--tol", lambda: integrate(
            model, args.metric, (q0, p0 / np.abs(p0).max()), math.copysign(1e-9, args.T),
            tol=args.tol))
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    if traj.clipped:
        sys.stderr.write("note: trajectory clipped at domain boundary"
                         " (t_exit = %.6g)\n" % traj.t_exit)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "geodesic",
            "model": _model_summary(model, args.model),
            "config": {"metric": args.metric, "q": list(map(float, args.q)),
                       "p": list(map(float, args.p)), "T": args.T,
                       "tol": args.tol, "samples": args.samples},
            "clipped": bool(traj.clipped),
            "t": [float(v) for v in traj.t],
            "q": [[float(v) for v in row] for row in traj.q],
            "p": [[float(v) for v in row] for row in traj.p],
            "h": [float(v) for v in traj.h],
        }
        text = _canonical_json(payload)
    else:
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------- verify

def _cmd_verify(args):
    model = _load(args.model)
    flags = {
        "count": args.samples,
        "seed": args.seed,
        "T": args.T,
        "tol_curve": args.tol,
        "integrator_tol": args.integrator_tol,
        "curve_samples": args.curve_samples,
        "margin": args.margin,
        "transverse_sigma": args.transverse_sigma,
    }
    sampling = {key: value for key, value in flags.items() if value is not None}
    exclusions = None
    if args.exclude_abnormal_cone is not None:
        exclusions = {"abnormal_cone": args.exclude_abnormal_cone}
    try:
        report = verify_equivalence(model, sampling, exclusions=exclusions)
    except CovectorTooLargeError as exc:
        # without transverse impulses every drawn covector has unit energy
        unit = dict(sampling, transverse_sigma=0.0)
        _refuse_too_large(exc, "--transverse-sigma", "--integrator-tol",
                          lambda: verify_equivalence(model, unit, exclusions=exclusions))
    except AdaptedFrameError as exc:
        sys.stderr.write("error: adapted frame unavailable: %s\n" % exc)
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        if isinstance(exc, np.linalg.LinAlgError):
            raise
        # an argument integrate rejects: the tolerance or a zero horizon
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "model": _model_summary(model, args.model),
        "exclusions": exclusions or {},
    }
    payload.update(report.as_dict())
    lines = [
        "verdict: %s" % report.verdict,
        "samples: %(requested)d requested, %(verified)d verified, "
        "%(truncated)d truncated, %(clipped)d skipped (boundary), "
        "%(frame_errors)d frame errors, %(degenerate)d degenerate"
        % report.counts,
    ]
    if report.max_deviation is not None:
        lines.append("max curve deviation: %.3e (tol %g)"
                     % (report.max_deviation, report.config["tol_curve"]))
    if report.max_drift is not None:
        lines.append("max energy drift: %.3e" % report.max_drift)
    _emit(payload, args, lines)
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------- check-relations

def _cmd_check_relations(args):
    model = _load(args.model)
    if args.at is None:
        rng = np.random.default_rng(args.seed)
        points = [tuple(model.sample_point(rng)) for _ in range(args.points)]
    else:
        points = _parse_points(model, args.at)
    records = _per_point(model, points, lambda frame, q: {"relations": _relations(
        relations_cor(model, frame, q, bracket_tol=args.bracket_tol))})
    # the worst residual and the verdict come from the records
    residuals = [_worst_relation(rec) for rec in records if "relations" in rec]
    worst = max(residuals, default=0.0)
    if any(r > args.tol for r in residuals):
        verdict = "fail"
    elif len(residuals) < len(records):
        verdict = "inconclusive"
    else:
        verdict = "pass"
    payload = {
        "schema": SCHEMA,
        "command": "check-relations",
        "model": _model_summary(model, args.model),
        "config": {"tol": args.tol, "bracket_tol": args.bracket_tol,
                   "seed": args.seed, "points": [list(q) for q in points]},
        "worst_residual": worst,
        "verdict": verdict,
        "points": records,
    }
    lines = []
    for rec in records:
        if "frame_error" in rec:
            lines.append("q = %s: adapted frame unavailable (%s)"
                         % (rec["q"], rec["frame_error"]))
        else:
            lines.append("q = %s: worst residual %.3e" % (rec["q"], _worst_relation(rec)))
    lines.append("verdict: %s (worst %.3e, tol %g)" % (verdict, worst, args.tol))
    _emit(payload, args, lines)
    return {"fail": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE, "pass": EXIT_OK}[verdict]


# ---------------------------------------------------------------- wiring

def _add_common(sp):
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", help="write the JSON report here as well")


@functools.cache
def build_parser():
    parser = _Parser(prog="geoequiv",
                     description="geodesically equivalent metric pairs:"
                                 " constructions, analysis, certification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a model manifest from a family")
    g.add_argument("kind", choices=sorted(GENERATORS.keys()))
    g.add_argument("--params", help="JSON file with generator parameters")
    g.add_argument("--out", required=True, help="output manifest path")
    g.add_argument("--format", choices=("text", "json"), default="text")
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="spectrum, regularity and divisibility at points")
    a.add_argument("--model", required=True)
    a.add_argument("--at", nargs="+", type=_FINITE, action="append",
                   metavar="Q", help="a point (repeatable); default: domain center")
    a.add_argument("--radius", type=_POSITIVE, default=0.05)
    a.add_argument("--cluster-tol", type=_POSITIVE, default=_CLUSTER_TOL)
    _add_common(a)
    a.set_defaults(func=_cmd_analyze)

    ge = sub.add_parser("geodesic", help="integrate one extremal, emit CSV")
    ge.add_argument("--model", required=True)
    ge.add_argument("--metric", type=int, choices=(1, 2), required=True)
    ge.add_argument("--q", nargs="+", type=_FINITE, required=True)
    ge.add_argument("--p", nargs="+", type=_FINITE, required=True)
    ge.add_argument("--T", type=float, required=True)
    ge.add_argument("--tol", type=float, default=_DEFAULT_TOL)
    ge.add_argument("--samples", type=_SAMPLE_TIMES, default=201,
                    help="even sample times; 0 gives the accepted step times")
    ge.add_argument("--format", choices=("csv", "json"), default="csv")
    ge.add_argument("--out")
    ge.set_defaults(func=_cmd_geodesic)

    v = sub.add_parser("verify", help="sample extremals and certify the pair")
    v.add_argument("--model", required=True)
    # the sampling flags default to None: verifier._DEFAULT_SAMPLING holds
    # each default, and the report's config carries it
    v.add_argument("--samples", type=_SAMPLES)
    v.add_argument("--seed", type=_SEED)
    v.add_argument("--T", type=float)
    v.add_argument("--tol", type=_POSITIVE, help="max allowed point-to-curve deviation")
    v.add_argument("--integrator-tol", type=float)
    v.add_argument("--curve-samples", type=_CURVE_SAMPLES)
    v.add_argument("--margin", type=_MARGIN)
    v.add_argument("--transverse-sigma", type=_NONNEGATIVE)
    v.add_argument("--exclude-abnormal-cone", type=_POSITIVE, metavar="ANGLE",
                   help="resample covectors within this angle of the abnormal line")
    _add_common(v)
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("check-relations", help="pointwise equivalence relations")
    c.add_argument("--model", required=True)
    c.add_argument("--at", nargs="+", type=_FINITE, action="append", metavar="Q")
    c.add_argument("--points", type=_SAMPLES, default=5,
                   help="sampled probe points when --at is omitted")
    c.add_argument("--seed", type=_SEED, default=0)
    c.add_argument("--tol", type=_POSITIVE, default=1e-6)
    c.add_argument("--bracket-tol", type=_POSITIVE, default=_BRACKET_TOL)
    _add_common(c)
    c.set_defaults(func=_cmd_check_relations)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except IntegrationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        code = EXIT_INVALID_MODEL
    except (AdaptedFrameError, SamplingError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        code = EXIT_INCONCLUSIVE
    except EvalDomainError as exc:
        sys.stderr.write("error: model expression out of its domain: %s\n" % exc)
        code = EXIT_INVALID_MODEL
    except (ManifestError, ModelValidationError, np.linalg.LinAlgError) as exc:
        sys.stderr.write("error: invalid model: %s\n" % exc)
        code = EXIT_INVALID_MODEL
    except MemoryError as exc:
        # a sample count that numpy cannot allocate; its message names the array
        sys.stderr.write("error: out of memory: %s\n" % exc)
        code = EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
