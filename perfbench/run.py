"""geoequiv benchmark: certify / screen / analyze workloads.

Run from the repository root:

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

With --trace 0 the workload runs untraced for --seconds, every input twice,
and the end-to-end metrics are reported. With --trace 1 a fixed number of
blocks, sized from --seconds, runs each block untraced and then with every
public geoequiv function wrapped, and the per-layer metrics are reported. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Machine description, per-metric lines and any oracle failures come before it;
full results and the traced spans are written under .perfbench_out/.
"""

import argparse
import collections
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np
import scipy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl            # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

SETUP_REPEATS = 11
PASSES = 2       # timings of every input; its time is the fastest
GAP_S = 6.0      # seconds between the passes of an input
OUT_DIR = ".perfbench_out"

# layer metric -> (unit, workloads where it must be nonzero; zero elsewhere;
# None: not checked)
ALL = ("certify", "screen", "analyze")
ALGEBRA = ("screen", "analyze")
LAYER_METRICS = {
    "constructors.build_ms": ("ms", ALL),
    "geometry.load_ms": ("ms", ALL),
    "expr.compile_calls": ("count", ALL),
    "expr.compile_ms": ("ms", ALL),
    "geometry.eval_calls": ("count", ALL),
    "geometry.eval_us": ("us", ALL),
    "hamiltonian.rhs_calls": ("count", ("certify",)),
    "hamiltonian.rhs_us": ("us", ("certify",)),
    "hamiltonian.rhs_per_integrate": ("calls/integrate", ("certify",)),
    "hamiltonian.integrate_calls": ("count", ("certify",)),
    "hamiltonian.integrate_self_s": ("s", ("certify",)),
    "hamiltonian.energy_calls": ("count", ("certify",)),
    "hamiltonian.energy_s": ("s", ("certify",)),
    "hamiltonian.integrations_per_sample": ("calls/sample", ("certify",)),
    "pair.frame_init_calls": ("count", ALL),
    "pair.frame_init_ms": ("ms", ALL),
    "pair.point_data_calls": ("count", ALL),
    "pair.point_data_ms": ("ms", ALL),
    "pair.frame_at_calls": ("count", ALL),
    "pair.divisibility_ms": ("ms", ALGEBRA),
    "pair.relations_ms": ("ms", ALGEBRA),
    "pair.transition_calls": ("count", ALL),
    "pair.regularity_probe_ms": ("ms", ("analyze",)),
    "pair.intrinsic_P_calls": ("count", ("certify",)),
    "verifier.orbital_map_ms": ("ms", ("certify",)),
    "verifier.verify_self_s": ("s", ("certify",)),
    "cli.self_ms": ("ms", ("analyze",)),
    "trace.overhead_s": ("s", None),    # a difference of two timings
}
EVALUATORS = ("frame_at", "dframe_at", "gram_at", "dgram_at")


def machine_description(root, seed):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": git_commit(root), "seed": seed}


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def timed_setup(geo, work, workdir):
    t0 = perf_counter()
    models = wl.setup(geo, work.fixtures, workdir)
    return models, perf_counter() - t0


def calibrated_setup(geo, work, workdir):
    """Set-up seconds, as measured and at the reference speed."""
    ref_s = wl.reference_median()
    models, seconds = timed_setup(geo, work, workdir)
    return models, seconds, seconds * wl.REF_S / ref_s


def block_rng(seed, index):
    """The inputs of block `index` depend on the seed and the index only."""
    return np.random.default_rng([seed, index])


def finish_rng(seed):
    """Inputs drawn after the last block (certify's conformal top-up)."""
    return np.random.default_rng([seed, 0, 1])


def run_passes(work, geo, models, seed, seconds, tally, between):
    """Blocks of fresh inputs for `seconds`, every input timed PASSES times.

    A repeat falls due GAP_S after the previous pass of its block and runs
    before any new block. New blocks stop half a gap before the end, which
    leaves about the time the pending repeats take. `between(elapsed)` runs
    after every block, outside the ops. Returns the number of blocks.
    """
    gap = min(GAP_S, seconds / 4)
    stop_new = seconds - gap / 2
    queue = collections.deque()     # (due, block, passes done, inputs)
    blocks = 0
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0
        if queue and (queue[0][0] <= elapsed or elapsed >= stop_new):
            _due, block, done, inputs = queue.popleft()
        elif elapsed < stop_new:
            block, done = blocks, 0
            inputs = work.inputs(models, block_rng(seed, block))
            blocks += 1
        else:
            break
        wl.run_block(work, geo, models, block, inputs, tally, calibrate=True)
        if done + 1 < PASSES:
            queue.append((perf_counter() - t0 + gap, block, done + 1, inputs))
        between(perf_counter() - t0)
    work.finish(geo, models, tally, finish_rng(seed))
    return blocks


def untraced(work, geo, args, workdir):
    # set-ups are spread over the run and scaled to the reference speed: on
    # a shared host the speed of identical work changes by up to 2.3x
    # within minutes
    models, *first = calibrated_setup(geo, work, workdir)
    setups = [first]        # (seconds as measured, at the reference speed)

    def between(elapsed):
        if len(setups) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
            setups.append(calibrated_setup(geo, work, workdir)[1:])

    tally = wl.Tally()
    tally.known_red = work.known_red(geo, models)
    blocks = run_passes(work, geo, models, args.seed, args.seconds, tally, between)
    while len(setups) < SETUP_REPEATS:
        setups.append(calibrated_setup(geo, work, workdir)[1:])
    best = tally.best_ms()
    by_fixture = {}
    for (_block, slot), ms in best.items():
        by_fixture.setdefault(slot, []).append(ms)
    best = list(best.values())
    every = tally.all_ms()
    refs = [ref for _ident, _seconds, ref in tally.runs]
    metrics = {
        "setup_s": (statistics.median(s for _raw, s in setups), "s"),
        "ops_per_s": (1e3 * len(best) / sum(best), "1/s"),
        # fixtures' op times form separate clusters, and the median of them
        # pooled jumps between two clusters as the seed changes the mix
        "op_p50_ms": (statistics.mean(statistics.median(v) for v in by_fixture.values()),
                      "ms"),
        "op_p90_ms": (float(np.percentile(best, 90)), "ms"),
        "gate_margin_decades": (work.gate_margin(tally), "decades"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"blocks": blocks, "inputs": len(best), "passes": PASSES,
             "measured_p50_ms": float(np.percentile(every, 50)),
             "measured_p90_ms": float(np.percentile(every, 90)),
             "reference_p10_p50_p90_ms": [float(v) for v in
                                          np.percentile(1e3 * np.array(refs), [10, 50, 90])],
             "measured_setup_s": statistics.median(raw for raw, _s in setups),
             "failed_ops_ratio": tally.failed / tally.attempted,
             "worst_gate_residual": max(tally.residuals, default=None)}
    return tally, metrics, notes, []


def traced(work, geo, args, workdir, spans_path):
    """Each block runs untraced, then traced on its own fixtures, back to back.

    Pairing the blocks keeps the shared host's speed changes out of the
    overhead, which is traced minus untraced time of the same work.
    """
    blocks = max(1, math.ceil(0.5 * args.seconds * work.blocks_per_s))
    tracer = Tracer(geo)
    models, untraced_s = timed_setup(geo, work, workdir)
    tracer.install()
    try:
        traced_models, traced_s = timed_setup(geo, work, workdir)
    finally:
        tracer.uninstall()
    plain, tally = wl.Tally(), wl.Tally()
    tally.known_red = work.known_red(geo, models)
    for block in range(blocks):
        inputs = work.inputs(models, block_rng(args.seed, block))
        t0 = perf_counter()
        wl.run_block(work, geo, models, block, inputs, plain)
        t1 = perf_counter()
        tracer.install()
        try:
            t2 = perf_counter()
            wl.run_block(work, geo, traced_models, block, inputs, tally)
            t3 = perf_counter()
        finally:
            tracer.uninstall()
        untraced_s += t1 - t0
        traced_s += t3 - t2
    work.finish(geo, models, plain, finish_rng(args.seed))
    work.finish(geo, models, tally, finish_rng(args.seed))
    tracer.write(spans_path)

    problems = tracer.nesting_errors()[:5]
    if not tracer.restored():
        problems.append("tracer left a wrapper in place")
    if (plain.attempted, plain.failed, plain.first, plain.residuals) != (
            tally.attempted, tally.failed, tally.first, tally.residuals):
        problems.append("traced and untraced runs of the same inputs disagree")
    metrics = layer_metrics(tracer, tally, traced_s - untraced_s)
    for name, (value, _unit) in metrics.items():
        live = LAYER_METRICS[name][1]
        if live is None:
            continue
        if work.name in live and not value > 0:
            problems.append("%s is %r on %s, predicted nonzero" % (name, value, work.name))
        if work.name not in live and value != 0:
            problems.append("%s is %r on %s, predicted zero" % (name, value, work.name))
    notes = {"blocks": blocks, "untraced_s": untraced_s, "traced_s": traced_s,
             "spans": len(tracer.spans), "spans_file": spans_path}
    return tally, metrics, notes, problems


def layer_metrics(tracer, tally, overhead_s):
    agg = tracer.aggregate()

    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def mean(total, count, scale):
        return scale * total / count if count else 0.0

    below = tracer.time_below("pair.AdaptedFrame.point_data")

    def mean_without_point_data(*names):
        durs = [end - start - below.get(sid, 0.0)
                for sid, name, start, end, _p, _c in tracer.spans if name in names]
        return 1e3 * sum(durs) / len(durs) if durs else 0.0

    def mean_computed(name):
        # calls answered from the per-frame cache make no wrapped calls
        durs = [end - start for _sid, n, start, end, _p, child in tracer.spans
                if n == name and child > 0]
        return 1e3 * sum(durs) / len(durs) if durs else 0.0

    builds = [n for n in agg if n.startswith("constructors.build_")]
    evaluators = ["geometry.GeometryModel." + e for e in EVALUATORS]
    cli_names = [n for n in agg if n.startswith("cli.")]
    rhs_calls = calls("hamiltonian.hamiltonian_rhs")
    integrate_calls = calls("hamiltonian.integrate")
    values = {
        "constructors.build_ms": mean(incl(*builds), calls(*builds), 1e3),
        "geometry.load_ms": mean(incl("geometry.load_model"),
                                 calls("geometry.load_model"), 1e3),
        "expr.compile_calls": calls("expr.compile_exprs"),
        "expr.compile_ms": mean(incl("expr.compile_exprs"), calls("expr.compile_exprs"), 1e3),
        "geometry.eval_calls": calls(*evaluators),
        "geometry.eval_us": mean(self_time(*evaluators), calls(*evaluators), 1e6),
        "hamiltonian.rhs_calls": rhs_calls,
        "hamiltonian.rhs_us": mean(incl("hamiltonian.hamiltonian_rhs"), rhs_calls, 1e6),
        "hamiltonian.rhs_per_integrate": mean(rhs_calls, integrate_calls, 1.0),
        "hamiltonian.integrate_calls": integrate_calls,
        "hamiltonian.integrate_self_s": self_time("hamiltonian.integrate"),
        "hamiltonian.energy_calls": calls("hamiltonian.hamiltonian"),
        "hamiltonian.energy_s": incl("hamiltonian.hamiltonian"),
        "hamiltonian.integrations_per_sample": mean(integrate_calls, tally.attempted, 1.0),
        "pair.frame_init_calls": calls("pair.AdaptedFrame.__init__"),
        "pair.frame_init_ms": mean(incl("pair.AdaptedFrame.__init__"),
                                   calls("pair.AdaptedFrame.__init__"), 1e3),
        "pair.point_data_calls": calls("pair.AdaptedFrame.point_data"),
        "pair.point_data_ms": mean_computed("pair.AdaptedFrame.point_data"),
        "pair.frame_at_calls": calls("pair.AdaptedFrame.at"),
        "pair.divisibility_ms": mean_without_point_data("pair.first_divisibility",
                                                        "pair.second_divisibility"),
        "pair.relations_ms": mean_without_point_data("pair.relations_cor"),
        "pair.transition_calls": calls("pair.transition_operator"),
        "pair.regularity_probe_ms": mean(incl("pair.regularity_probe"),
                                         calls("pair.regularity_probe"), 1e3),
        "pair.intrinsic_P_calls": calls("pair.intrinsic_P"),
        "verifier.orbital_map_ms": mean(incl("verifier.orbital_map"),
                                        calls("verifier.orbital_map"), 1e3),
        "verifier.verify_self_s": self_time("verifier.verify_equivalence"),
        "cli.self_ms": mean(self_time(*cli_names), calls("cli.main"), 1e3),
        "trace.overhead_s": overhead_s,
    }
    return {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "geoequiv", "__init__.py")):
        sys.stderr.write("error: run from the repository root; %s/geoequiv is missing\n"
                         % src)
        return 2
    sys.path.insert(0, src)
    geo = importlib.import_module("geoequiv")
    for name in MODULES:
        importlib.import_module("geoequiv." + name)

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=out_dir)
    try:
        work = wl.WORKLOADS[args.workload]()
        if args.trace:
            tally, metrics, notes, problems = traced(
                work, geo, args, workdir, os.path.join(out_dir, tag + "-spans.json.gz"))
        else:
            tally, metrics, notes, problems = untraced(work, geo, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not tally.unexpected and not problems
    machine = machine_description(root, args.seed)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print("workload: %s  seed: %d  attempted: %d  failed: %d  failed_ops_ratio: %.6g"
          % (args.workload, args.seed, tally.attempted, tally.failed,
             tally.failed / tally.attempted))
    for key, val in sorted(notes.items()):
        print("note %s: %s" % (key, val))
    for msg in tally.known_red:
        print("known red (not an op): %s [%s]" % (msg, wl.KNOWN_RED))
    for msg in tally.unexpected + problems:
        print("FAILED: %s" % msg)
    for name, (value, unit) in metrics.items():
        print("metric %-36s %.6g %s" % (name, value, unit))

    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(dict(result, machine=machine, notes=notes,
                       known_red=tally.known_red, residuals=tally.residuals,
                       best_ms=None if args.trace else list(tally.best_ms().values()),
                       unexpected=tally.unexpected,
                       problems=problems), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
