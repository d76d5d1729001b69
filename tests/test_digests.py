"""Report bytes stay put: seed 1 of every benchmark workload against the
reference stdout digests in bench/digests.json.

Inputs come from bench/workloads.py, so each command sees exactly the files
and relative paths the benchmark gives it; nothing under bench/ is written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from plgp.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SEED = 1


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize(
    "workload", ["embed-ladder", "probe-sweep", "fibered-octafiber", "nerve-cloud"]
)
def test_stdout_matches_reference_digests(
    workload, bench_workloads, tmp_path, monkeypatch
):
    reference = json.loads((BENCH / "digests.json").read_text())[workload][str(SEED)]
    bench_workloads.write_inputs(workload, SEED, str(ROOT), str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for argv in bench_workloads.setup_argv(workload, SEED):
        assert _stdout(argv)[0] == 0
    commands = bench_workloads.commands(workload, SEED)
    assert {c.case for c in commands} == set(reference)
    for command in commands:
        code, text = _stdout(command.argv)
        assert code == 0, command.case
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == reference[command.case], command.case
