"""Report bytes stay put: seed 1 of two benchmark workloads against the
reference stdout digests in bench/digests.json.

Inputs come from bench/workloads.py, so each command sees exactly the files
and relative paths the benchmark gives it; nothing under bench/ is written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from plgp.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEED = 1


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["probe-sweep", "fibered-octafiber"])
def test_stdout_matches_reference_digests(workload, tmp_path, monkeypatch):
    workloads = _workloads()
    reference = json.loads((BENCH / "digests.json").read_text())[workload][str(SEED)]
    workloads.write_inputs(workload, SEED, str(ROOT), str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for argv in workloads.setup_argv(workload, SEED):
        assert _stdout(argv)[0] == 0
    commands = workloads.commands(workload, SEED)
    assert {c.case for c in commands} == set(reference)
    for command in commands:
        code, text = _stdout(command.argv)
        assert code == 0, command.case
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == reference[command.case], command.case
