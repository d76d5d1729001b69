#!/usr/bin/env python3
"""plgp benchmark: one workload per process, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark finds the checkout from its own path, imports plgp from
`src/`, and works in `.bench_work/<workload>/`, where it writes the seeded
inputs and passes them to `plgp.cli.main` by relative path.  Set-up runs in
fresh child processes (`--setup-only`), several times, and `setup_s` is their
median time: process start, plgp import, input generation and the
pre-embedding of the maps a workload probes.  The timed section then runs the
workload's commands in this process, in order, in passes, and stops at the
pass end nearest to `--seconds`; `norm_wall_s` is the sum of the
per-command median times, an estimate of one pass that a burst of host
contention moves little.  Both are times at reference speed: the host's
speed is sampled while each command or set-up runs (see speed.py), so a
change of the host's speed cancels out.  Every pass of a
command must print the same bytes and write the same `--out` file; after the
timed section each command's stdout is digested and checked once (see
checks.py).  A set-up that fails or runs past its time limit still ends the
run with a result line, one that reports the set-up as failed.

With `--trace 1` untraced and traced passes alternate: the per-layer metrics
come from the traced ones (see spans.py), and the tracing overhead is the
difference of the two medians.  Metric names and units are read from
BENCHMARK.json.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter

import checks
import spans
import speed
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
SETUP_REPS = 5
SETUP_TIMEOUT_S = 150


def work_dir(workload: str) -> str:
    return os.path.join(WORK, workload)


def import_cli():
    sys.path.insert(0, SRC)
    from plgp import cli

    return cli


def run_command(cli, argv):
    """(exit code, stdout text, stderr text, seconds) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is a failed command, not a failed run
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def setup_only(workload: str, seed: int) -> int:
    """Set a workload up; the last stdout line is its probe time (speed.py)."""
    with speed.Sampler() as sampler:
        cli = import_cli()
        work = work_dir(workload)
        workloads.write_inputs(workload, seed, ROOT, work)
        os.chdir(work)
        for argv in workloads.setup_argv(workload, seed):
            code, _, err, _ = run_command(cli, argv)
            if code != 0:
                sys.stderr.write(f"set-up command {' '.join(argv)} exited {code}\n{err}")
                return 1
    print(sampler.probe_s)
    return 0


class SetupFailed(Exception):
    pass


def timed_setups(workload: str, seed: int, reps: int) -> tuple:
    """(wall times, times at reference speed) of `reps` fresh set-up
    processes; the last one's files stay.  Each process samples the host's
    speed while it sets up and prints its probe time."""
    shutil.rmtree(work_dir(workload), ignore_errors=True)
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times, scaled = [], []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        # A blocking read and wait see the exit at once.  Waiting with a
        # timeout polls with sleeps of up to 50 ms, which would round
        # setup_s up to the next poll; a watchdog thread kills a set-up that
        # runs too long.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.communicate()[0]
            code = proc.returncode
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append(time.perf_counter() - start)
        if code != 0 and times[-1] >= SETUP_TIMEOUT_S:
            raise SetupFailed(f"set-up ran past {SETUP_TIMEOUT_S} s")
        if code != 0:
            raise SetupFailed(f"set-up exited {code}")
        scaled.append(speed.at_reference(times[-1], float(out.split()[-1])))
    return times, scaled


def out_digest(argv) -> str | None:
    """sha256 of the file a command wrote with --out; None if it names or wrote none."""
    if "--out" not in argv:
        return None
    try:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    if len(samples) < 11:
        return None
    index = len(samples) - 11
    return 100.0 * (index + 1) / len(samples), sorted(samples)[index]


class Run:
    """What the timed section observed: failures, digests and timings."""

    def __init__(self, commands):
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.stdout = {}         # case -> stdout of its first pass
        self.written = {}        # case -> digest of its first pass's --out file
        self.digests = {}
        self.good_passes = Counter()
        self.case_times = {c.case: [] for c in self.commands}   # wall, untraced passes
        self.case_scaled = {c.case: [] for c in self.commands}  # at reference speed
        self.probe_times = []    # probe time (speed.py) of each untraced command
        self.scaled_walls = []   # untraced passes at reference speed
        self.probe_rates = []    # untraced passes, probes per second at reference speed
        self.traced_walls = []   # at reference speed

    def fail(self, case, message, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(f"{case}: {message}")

    def one_pass(self, cli, tracer=None) -> None:
        """Run every command once, sampling the host's speed during each and
        scaling its time to the reference speed (see speed.py)."""
        scaled_wall = probe_time = 0.0
        probes = 0
        for cmd in self.commands:
            if tracer is not None:
                tracer.request = cmd.case
            with speed.Sampler() as sampler:
                code, stdout, stderr, seconds = run_command(cli, cmd.argv)
            scaled = speed.at_reference(seconds, sampler.probe_s)
            scaled_wall += scaled
            if tracer is None:
                self.probe_times.append(sampler.probe_s)
                self.case_times[cmd.case].append(seconds)
                self.case_scaled[cmd.case].append(scaled)
                if cmd.probes:
                    probes += cmd.probes
                    probe_time += scaled
            self.attempted += 1
            written = out_digest(cmd.argv) if code == 0 else None
            if code != 0:
                self.fail(cmd.case, f"exit {code}: {stderr.strip()[-300:]}")
            elif self.stdout.setdefault(cmd.case, stdout) != stdout:
                self.fail(cmd.case, "stdout differs from an earlier pass of the same command")
            elif self.written.setdefault(cmd.case, written) != written:
                self.fail(cmd.case, "--out file differs from an earlier pass of the same command")
            else:
                self.good_passes[cmd.case] += 1
        if tracer is not None:
            self.traced_walls.append(scaled_wall)
        else:
            self.scaled_walls.append(scaled_wall)
            if probe_time:
                self.probe_rates.append(probes / probe_time)

    def check_outputs(self) -> None:
        """Digest and check each command's stdout once, after the timed section.

        one_pass failed every pass whose stdout or --out file differed from
        the first pass's, so one check covers the good passes; a failed check
        fails every one of them."""
        checker = checks.Checker()
        for cmd in self.commands:
            stdout = self.stdout.get(cmd.case)
            if stdout is None:
                continue
            self.digests[cmd.case] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            found = checker(cmd.argv, stdout)
            if found:
                self.fail(cmd.case, "; ".join(found[:3]), self.good_passes[cmd.case])

    @property
    def stdout_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.stdout.values())


def load_reference(workload: str, seed: int) -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed), {})
    except FileNotFoundError:
        return {}


def record_digests(workload: str, seed: int, digests: dict) -> None:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table.setdefault(workload, {})[str(seed)] = dict(sorted(digests.items()))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def report_digests(run: Run, reference: dict) -> int:
    """Print digests_match per command; returns the number of mismatches.
    A mismatch is reported, not failed: some changes alter report bytes on purpose."""
    if not reference:
        print("digests_match: no reference digests for this seed")
        return 0
    mismatches = 0
    for case, digest in run.digests.items():
        match = reference.get(case) == digest
        mismatches += not match
        print(f"digests_match {case}: {str(match).lower()}")
    return mismatches


def fmt(name, value, unit, note=""):
    return f"{name:<14} {value:>12.6f} {unit:<6} {note}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed section (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's stdout digests as the seed's reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plgp", "cli.py")):
        print(f"plgp sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds

    try:
        setup_times, setup_scaled = timed_setups(args.workload, args.seed,
                                                 1 if args.trace else SETUP_REPS)
    except SetupFailed as exc:
        # the set-up commands (or, for a workload without any, the input
        # generation) count as attempted and failed; nothing was measured
        attempted = max(1, len(workloads.setup_argv(args.workload, args.seed)))
        print(f"FAILED set-up of {args.workload} seed {args.seed}: {exc}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 0
    cli = import_cli()
    os.chdir(work_dir(args.workload))
    run = Run(workloads.commands(args.workload, args.seed))
    tracers = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run.one_pass(cli)
        if args.trace:
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                run.one_pass(cli, tracer)
            finally:
                spans.uninstall(undo)
            tracers.append(tracer)
        # stop at whichever end of a pass lies nearest to `seconds`
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.check_outputs()
    reference = load_reference(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(run.scaled_walls)} untraced "
          f"passes of {len(run.commands)} commands, {len(run.traced_walls)} traced")
    for problem in run.problems:
        print("FAILED " + problem)
    mismatches = report_digests(run, reference)
    if args.record_digests and run.failed == 0:
        record_digests(args.workload, args.seed, run.digests)

    for case, scaled in run.case_scaled.items():
        print(fmt("  " + case, statistics.median(scaled), "s", f"median of n={len(scaled)} "
                  "at reference speed: " + " ".join(f"{t:.3f}" for t in scaled)))
    # a burst of host contention during one command of one pass moves the
    # sum of per-command medians less than it moves the median pass
    norm_wall = sum(statistics.median(scaled) for scaled in run.case_scaled.values())
    wall = sum(statistics.median(times) for times in run.case_times.values())
    found = tail(run.scaled_walls)
    tail_note = ("no percentile has >=10 samples beyond it" if found is None
                 else f"pass p{found[0]:.0f} {found[1]:.6f} s")
    probe_s = statistics.median(run.probe_times)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "norm_wall_s": norm_wall,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of n={len(setup_times)} set-up processes at reference speed; "
                   f"wall {statistics.median(setup_times):.6f} s",
        "norm_wall_s": f"sum of per-command medians at reference speed over "
                       f"n={len(run.scaled_walls)} passes; {tail_note}",
        "peak_rss_mb": "ru_maxrss of this process when the timed section ends",
    }
    print(fmt("wall_s", wall, "s", "the same sum of medians in wall time, not gated"))
    print(fmt("probe", probe_s, "s", f"median over n={len(run.probe_times)} commands; "
              f"reference {speed.REFERENCE_S} s, so the host ran at "
              f"{speed.REFERENCE_S / probe_s:.2f}x reference speed"))
    if not args.trace:
        for metric in declared["end_to_end"]:
            name = metric["name"]
            print(fmt(name, values[name], metric["unit"], notes[name]))
        if run.probe_rates:
            print(fmt("probes_per_s", statistics.median(run.probe_rates), "1/s",
                      "certified probe samples per second of probing commands, at reference speed"))
        else:
            print(f"{'probes_per_s':<14} {'n/a':>12} 1/s    this workload draws no probe samples")
        print(fmt("fail_rate", run.failed / run.attempted, "ratio",
                  f"{run.failed} of {run.attempted} commands failed"))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    else:
        traced = [spans.layer_metrics(t) for t in tracers]
        layer = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        for case in workloads.all_cases():
            scaled = run.case_scaled.get(case)
            layer[f"cli.{case}.s"] = statistics.median(scaled) if scaled else 0.0
        traced_wall = statistics.median(run.traced_walls)
        untraced_wall = statistics.median(run.scaled_walls)
        layer.update({
            "cli.stdout_bytes": run.stdout_bytes,
            "cli.digest_mismatches": mismatches,
            "speed.probe_s": probe_s,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        for warning in sorted({w for t in tracers for w in t.warnings}):
            print("trace warning: " + warning)
        print(fmt("trace overhead", traced_wall - untraced_wall, "s",
                  f"median traced pass {traced_wall:.6f} s, untraced {untraced_wall:.6f} s"))
        spans.write_spans("spans.jsonl", tracers)
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
