"""Golden reports: the canonical JSON of analyze, check-relations and an
8-sample verify on every PAIR_KINDS fixture, compared byte for byte.

Each report is made in process from a manifest saved under the fixed
relative name <kind>.json in a scratch working directory, so the model
path that a report names does not depend on where the test runs.
quasi-contact verifies with --exclude-abnormal-cone 0.1. The files pin
numpy's and scipy's arithmetic, as the stepper and pencil oracles do.

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

import pytest

from geoequiv.cli import main
from geoequiv.geometry import save_model

from conftest import PAIR_KINDS, pair_fixture

GOLDEN = Path(__file__).with_name("golden")
EXIT_CODES = GOLDEN / "exit_codes.json"
COMMANDS = {"analyze": [], "check-relations": [], "verify": ["--samples", "8"]}


def _argv(kind, command):
    argv = [command, "--model", kind + ".json", "--format", "json"] + COMMANDS[command]
    if command == "verify" and kind == "quasi-contact":
        argv += ["--exclude-abnormal-cone", "0.1"]
    return argv


def reports(kind):
    """{command: (exit code, report text)} of every command on fixture kind,
    run in the current directory."""
    save_model(pair_fixture(kind), kind + ".json")
    out = {}
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = main(_argv(kind, command))
        out[command] = code, text.getvalue()
    return out


def _golden_path(kind, command):
    return GOLDEN / ("%s.%s.json" % (kind, command))


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_reports_equal_the_golden_files(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = json.loads(EXIT_CODES.read_text())
    for command, (code, text) in reports(kind).items():
        assert text == _golden_path(kind, command).read_text(), (kind, command)
        assert code == codes[kind][command], (kind, command)


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
                for command, (code, text) in reports(kind).items():
                    _golden_path(kind, command).write_text(text)
                    codes[kind][command] = code
        finally:
            os.chdir(cwd)
    EXIT_CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    rewrite()
