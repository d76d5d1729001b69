"""Report bytes stay put: all ten recorded seeds of every benchmark
workload, against the reference stdout digests in bench/digests.json.

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
WORKLOADS = ("embed-ladder", "probe-sweep", "fibered-octafiber", "nerve-cloud")


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize(
    "workload, seed",
    [pytest.param(w, 1, id=w) for w in WORKLOADS]
    + [
        pytest.param(w, seed, id=f"{w}-seed{seed}")
        for w in WORKLOADS
        for seed in range(2, 11)
    ],
)
def test_stdout_matches_reference_digests(
    workload, seed, bench_workloads, tmp_path, monkeypatch
):
    reference = json.loads((BENCH / "digests.json").read_text())[workload][str(seed)]
    bench_workloads.write_inputs(workload, seed, str(ROOT), str(tmp_path))
    monkeypatch.chdir(tmp_path)
    for argv in bench_workloads.setup_argv(workload, seed):
        assert _stdout(argv)[0] == 0
    commands = bench_workloads.commands(workload, seed)
    assert {c.case for c in commands} == set(reference)
    for command in commands:
        code, text = _stdout(command.argv)
        assert code == 0, command.case
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == reference[command.case], command.case
