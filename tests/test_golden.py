"""Golden reports: the canonical JSON of analyze, check-relations, an
8-sample verify and a 21-sample geodesic on every PAIR_KINDS fixture, of
analyze and check-relations at two seeded off-center points, and the saved
manifest itself, compared byte for byte.

Each report is made in process from a manifest saved under the fixed
relative name <kind>.json in a scratch working directory, so the model
path that a report names does not depend on where the test runs; that
manifest's bytes are <kind>.manifest.json. quasi-contact verifies with
--exclude-abnormal-cone 0.1. The two --at points of a fixture are
model.sample_point draws of a generator seeded with AT_SEED. The geodesic
starts at a model.sample_point draw of a generator seeded with
GEODESIC_SEED, with the unit covector along that generator's next normal
draw, and runs over GEODESIC_T on metric 1 or 2 by turns along PAIR_KINDS;
four of the eight runs leave the domain. The files pin numpy's and scipy's
arithmetic, as the stepper and pencil oracles do.

After an intended report change, rewrite the files from the repository
root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from geoequiv.cli import main
from geoequiv.geometry import save_model

from conftest import PAIR_KINDS, pair_fixture

GOLDEN = Path(__file__).with_name("golden")
EXIT_CODES = GOLDEN / "exit_codes.json"
COMMANDS = {"analyze": [], "check-relations": [], "verify": ["--samples", "8"]}
# the seed of every fixture's two --at points
AT_SEED = 2004
# the seed of every fixture's geodesic start, and its horizon
GEODESIC_SEED, GEODESIC_T = 2005, 0.2


def _at_points(model):
    """["--at", q, ...] of two points drawn inside model's domain, away from
    its center, with every coordinate written as repr writes it."""
    rng = np.random.default_rng(AT_SEED)
    argv = []
    for _ in range(2):
        argv += ["--at"] + [repr(v) for v in model.sample_point(rng).tolist()]
    return argv


def _geodesic_argv(kind, model):
    """The argv of the geodesic report on fixture kind, every coordinate
    written as repr writes it."""
    rng = np.random.default_rng(GEODESIC_SEED)
    q = model.sample_point(rng)
    p = rng.normal(size=model.n)
    p /= np.linalg.norm(p)
    return (["geodesic", "--model", kind + ".json", "--format", "json", "--samples", "21",
             "--metric", str(1 + PAIR_KINDS.index(kind) % 2), "--T", repr(GEODESIC_T)]
            + ["--q"] + [repr(v) for v in q.tolist()] + ["--p"] + [repr(v) for v in p.tolist()])


def _argvs(kind, model):
    """{report name: argv} of every report on fixture kind."""
    argvs = {}
    for command, extra in COMMANDS.items():
        argvs[command] = [command, "--model", kind + ".json", "--format", "json"] + extra
    if kind == "quasi-contact":
        argvs["verify"] += ["--exclude-abnormal-cone", "0.1"]
    for command in ("analyze", "check-relations"):
        argvs[command + "-at"] = argvs[command] + _at_points(model)
    argvs["geodesic"] = _geodesic_argv(kind, model)
    return argvs


def reports(kind):
    """{report name: (exit code, report text)} of every report on fixture
    kind, run in the current directory, and the saved manifest text."""
    model = pair_fixture(kind)
    save_model(model, kind + ".json")
    out = {}
    for name, argv in _argvs(kind, model).items():
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = main(argv)
        out[name] = code, text.getvalue()
    return out, Path(kind + ".json").read_text()


def _golden_path(kind, command):
    return GOLDEN / ("%s.%s.json" % (kind, command))


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_reports_equal_the_golden_files(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = json.loads(EXIT_CODES.read_text())
    out, manifest = reports(kind)
    assert manifest == _golden_path(kind, "manifest").read_text(), kind
    assert sorted(out) == sorted(codes[kind]), kind
    for name, (code, text) in out.items():
        assert text == _golden_path(kind, name).read_text(), (kind, name)
        assert code == codes[kind][name], (kind, name)


def rewrite():
    """Write every golden file and the exit codes from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for kind in PAIR_KINDS:
                codes[kind] = {}
                out, manifest = reports(kind)
                _golden_path(kind, "manifest").write_text(manifest)
                for name, (code, text) in out.items():
                    _golden_path(kind, name).write_text(text)
                    codes[kind][name] = code
        finally:
            os.chdir(cwd)
    EXIT_CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    rewrite()
