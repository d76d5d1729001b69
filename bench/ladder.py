#!/usr/bin/env python3
"""Capped scaling ladder: how plgp's cost grows with delta and sample count.

    python3 bench/ladder.py

Runs `embed` on triangles5 at delta 1, 1/2, 1/4 and 1/8, then `probe` on the
delta 1/2 map at 10 and 100 samples.  Each case is a child process with a
wall-time cap and an address-space cap, so a case that would run for hours
or exhaust the machine's memory is stopped.  A capped case is recorded as
"timeout" (or "memory_cap"), never dropped.  This is run on demand, not by
the gated workloads.  Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_work", "ladder")

DELTAS = ("1", "1/2", "1/4", "1/8")
SAMPLES = (10, 100)
MEMORY_MB = 1536  # address space per case: delta 1/8 would take the machine's memory
SEED = 7
CAP_S = 120.0     # wall time per case


def cases() -> list:
    s = str(SEED)
    out = []
    for delta in DELTAS:
        name = "triangles5-d" + delta.replace("/", "_")
        out.append((f"embed.{name}", ["embed", "--input", "in/triangles5.json", "--delta",
                                      delta, "--seed", s, "--out", f"out/{name}.json"]))
    for samples in SAMPLES:
        out.append((f"probe.triangles5-d1_2-s{samples}",
                    ["probe", "--map", "out/triangles5-d1_2.json", "--samples", str(samples),
                     "--seed", s]))
    return out


def run_case(argv) -> dict:
    def limit_memory():
        size = MEMORY_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "plgp.cli", *argv], cwd=WORK, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CAP_S,
            preexec_fn=limit_memory,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "cap_s": CAP_S}
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return {"status": "ok", "seconds": seconds}
    if b"MemoryError" in proc.stderr:
        return {"status": "memory_cap", "memory_mb": MEMORY_MB, "seconds": seconds}
    return {"status": "failed", "exit": proc.returncode,
            "stderr": proc.stderr.decode("utf-8", "replace")[-300:]}


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "in"))
    os.makedirs(os.path.join(WORK, "out"))
    shutil.copyfile(os.path.join(ROOT, "src", "plgp", "fixtures", "triangles5.json"),
                    os.path.join(WORK, "in", "triangles5.json"))
    results = {}
    for name, case_argv in cases():
        results[name] = run_case(case_argv)
        print(name, results[name], file=sys.stderr)
    print(json.dumps({"seed": SEED, "cap_s": CAP_S, "memory_mb": MEMORY_MB,
                      "nproc": os.cpu_count(), "python": sys.version.split()[0],
                      "cases": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
