"""Which functions and lines of src/plgp the command line reaches.

Runs plgp.cli.main in-process under the stdlib trace module: embed, probe
and analyze on each bundled complex, fibered on octafiber.json and nerve
on cloud.csv, then the benchmark's four workloads (bench/workloads.py,
loaded read-only) at seeds 1-3, set-up runs included.  Every run works in
a temporary directory; nothing is written under the repository.  Prints,
per src/plgp module, the functions never entered and the lines never run.

    python3 tools/reach.py
"""

from __future__ import annotations

import contextlib
import dis
import importlib
import importlib.util
import inspect
import io
import json
import os
import shutil
import sys
import tempfile
import trace
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "plgp" / "fixtures"
COMPLEXES = ("hexagon", "quadrilateral", "triangles5", "triangles5-r6", "mixed5")
SEEDS = (1, 2, 3)


def load_workloads():
    """bench/workloads.py as a module, without importing the bench package."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def fixture_runs(workloads, work):
    """The argv of each fixture run, in order, with its inputs copied to work."""
    os.makedirs(os.path.join(work, "maps"))
    os.makedirs(os.path.join(work, "out"))
    for path in FIXTURES.iterdir():
        shutil.copyfile(path, os.path.join(work, path.name))
    for name in COMPLEXES:
        out = "maps/%s.json" % name
        yield ("embed", "--input", name + ".json", "--delta", "1/2", "--seed", "1",
               "--out", out)
        yield ("probe", "--map", out, "--samples", "4", "--seed", "1")
        with open(os.path.join(work, out), encoding="utf-8") as fh:
            m = json.load(fh)["m"]
        yield ("analyze", "--map", out, "--z=" + workloads.analyze_points(1, m, name, 1)[0])
    yield ("fibered", "--instance", "octafiber.json", "--delta", "1/2", "--seed", "1",
           "--samples", "2")
    yield ("nerve", "--points", "cloud.csv", "--marks", "cloud_marks.json",
           "--radius", "4", "--out", "out/nerve.json")


def workload_runs(workloads, name, seed, work):
    """The argv of one workload's set-up and timed runs, its inputs in work."""
    workloads.write_inputs(name, seed, str(ROOT), work)
    yield from workloads.setup_argv(name, seed)
    for command in workloads.commands(name, seed):
        yield command.argv


def run_all(tracer, workloads):
    """Trace every run; returns a Counter of exit codes and the failing runs."""
    main = tracer.runfunc(importlib.import_module, "plgp.cli").main
    batches = [("fixtures", fixture_runs, ())] + [
        ("%s seed %d" % (name, seed), workload_runs, (name, seed))
        for name in workloads.NAMES
        for seed in SEEDS
    ]
    codes = Counter()
    failures = []
    cwd = os.getcwd()
    for label, runs, args in batches:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                for argv in runs(workloads, *args, work):
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = tracer.runfunc(main, list(argv))
                    codes[code] += 1
                    if code:
                        failures.append((label, code, argv, sink.getvalue().strip()))
            finally:
                os.chdir(cwd)
    return codes, failures


def code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def own_lines(code):
    """The lines code's own instructions start, less a function's def line,
    which runs in the enclosing code."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    if code.co_flags & inspect.CO_NEWLOCALS:
        lines.discard(code.co_firstlineno)
    return lines


def unreached(path, counts):
    """(functions never entered as (line, qualified name), lines never run)."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    ran = {line for (name, line), hits in counts.items() if name == str(path) and hits}
    functions, lines = [], set()
    for c in code_objects(code):
        own = own_lines(c)
        lines |= own - ran
        named = c.co_flags & inspect.CO_NEWLOCALS and not c.co_name.startswith("<")
        if named and own and not own & ran:
            functions.append((c.co_firstlineno, c.co_qualname))
    return sorted(functions), sorted(lines)


def spans(lines):
    """Sorted line numbers as 'a-b' runs of consecutive lines."""
    out = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    workloads = load_workloads()
    tracer = trace.Trace(count=1, trace=0)
    codes, failures = run_all(tracer, workloads)
    print("runs: %d, exit codes %s" % (sum(codes.values()), dict(sorted(codes.items()))))
    for label, code, argv, message in failures:
        print("  exit %d (%s): plgp %s: %s" % (code, label, " ".join(argv), message))
    counts = tracer.results().counts
    total_functions = total_lines = 0
    for path in sorted((ROOT / "src" / "plgp").glob("*.py")):
        functions, lines = unreached(path, counts)
        total_functions += len(functions)
        total_lines += len(lines)
        print("\n%s: %d functions never entered, %d lines never run"
              % (path.name, len(functions), len(lines)))
        for line, name in functions:
            print("  %d %s" % (line, name))
        if lines:
            print("  lines: " + spans(lines))
    print("\ntotal: %d functions never entered, %d lines never run"
          % (total_functions, total_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
