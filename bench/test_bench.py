"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s bench -p "test_*.py"

Seeded inputs are reproducible, every output check rejects a corrupted
report, a pass whose --out file differs from the first pass's fails, a
failed set-up still ends in a result line, the speed sampler probes while
a block runs and puts the previous signal handler back, span arithmetic is
right on hand-built trees, and BENCHMARK.json declares exactly the metrics
the benchmark emits.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from unittest import mock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def bump(text: str) -> str:
    return str(Fraction(text) + Fraction(1, 3))


class ScratchDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=run.WORK, prefix="selftest-")
        self.addCleanup(shutil.rmtree, self.dir, True)


class TestSeededInputs(ScratchDir):
    def generate(self, name, seed, sub):
        """Everything plgp is handed: the input files' bytes and the argv lists."""
        work = os.path.join(self.dir, sub)
        workloads.write_inputs(name, seed, run.ROOT, work)
        files = {}
        for fname in sorted(os.listdir(os.path.join(work, "in"))):
            with open(os.path.join(work, "in", fname), "rb") as fh:
                files[fname] = fh.read()
        argvs = [c.argv for c in workloads.commands(name, seed)]
        return files, argvs + list(workloads.setup_argv(name, seed))

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                first = self.generate(name, 3, name + "-a")
                self.assertEqual(first, self.generate(name, 3, name + "-b"))
                self.assertNotEqual(first, self.generate(name, 4, name + "-c"))
        cloud3 = self.generate("nerve-cloud", 3, "cloud-3")[0]["cloud216.csv"]
        cloud4 = self.generate("nerve-cloud", 4, "cloud-4")[0]["cloud216.csv"]
        self.assertNotEqual(cloud3, cloud4)


class TestChecksRejectCorruption(ScratchDir):
    """Each check passes a real report and rejects it with one value corrupted."""

    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_cli()

    def cli_report(self, *argv):
        code, stdout, stderr, _ = run.run_command(self.cli, argv)
        self.assertEqual(code, 0, stderr)
        return json.loads(stdout)

    def assert_check(self, argv, report):
        checker = checks.Checker()
        self.assertEqual(checker(argv, json.dumps(report)), [])
        return checker

    def rejected(self, checker, argv, report):
        return checker(argv, json.dumps(report))

    def setUp(self):
        super().setUp()
        self.cwd = os.getcwd()
        self.addCleanup(os.chdir, self.cwd)
        workloads.write_inputs("probe-sweep", 5, run.ROOT, self.dir)
        workloads.write_inputs("fibered-octafiber", 5, run.ROOT, self.dir)
        os.chdir(self.dir)

    def embedded_map(self):
        argv = ("embed", "--input", "in/quadrilateral.json", "--delta", "1", "--seed", "5",
                "--out", "maps/t.json")
        return argv, self.cli_report(*argv)

    def test_embed(self):
        argv, report = self.embedded_map()
        checker = self.assert_check(argv, report)
        bad = copy.deepcopy(report)
        bad["perturbation"]["max_displacement_sq"] = bump(
            report["perturbation"]["max_displacement_sq"])
        self.assertTrue(self.rejected(checker, argv, bad))
        with open("maps/t.json", encoding="utf-8") as fh:
            out = json.load(fh)
        vertex = out["vertices"][0]
        out["images"][vertex][0] = bump(out["images"][vertex][0])
        with open("maps/t.json", "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        self.assertTrue(self.rejected(checker, argv, report))

    def test_probe_and_analyze(self):
        self.embedded_map()
        argv = ("probe", "--map", "maps/t.json", "--samples", "6", "--seed", "5")
        report = self.cli_report(*argv)
        checker = self.assert_check(argv, report)
        sample = next(s for s in report["samples"] if s["records"])
        for n in (0, 1):
            bad = copy.deepcopy(report)
            witness = bad["samples"][sample["index"]]["records"][0]["witnesses"][n]
            witness["point"][0] = bump(witness["point"][0])
            self.assertTrue(self.rejected(checker, argv, bad))

        argv = ("analyze", "--map", "maps/t.json", "--z=" + ",".join(sample["z"]))
        report = self.cli_report(*argv)
        self.assertTrue(report["records"])
        checker = self.assert_check(argv, report)
        bad = copy.deepcopy(report)
        witness = bad["records"][0]["witnesses"][1]
        witness["point"][-1] = bump(witness["point"][-1])
        self.assertTrue(self.rejected(checker, argv, bad))
        bad = copy.deepcopy(report)
        bad["pairs"][0]["y1"][0] = bump(bad["pairs"][0]["y1"][0])
        self.assertTrue(self.rejected(checker, argv, bad))

    def test_fibered(self):
        argv = ("fibered", "--instance", "in/octafiber.json", "--delta", "1/2", "--seed", "5",
                "--samples", "1")
        report = self.cli_report(*argv)
        checker = self.assert_check(argv, report)
        label = next(
            label for label, fiber in sorted(report["fibers"].items())
            if fiber["samples"][0]["eta"]["1/4"]["records"]
        )
        bad = copy.deepcopy(report)
        witness = bad["fibers"][label]["samples"][0]["records"][0]["witnesses"][0]
        witness["point"][1] = bump(witness["point"][1])
        self.assertTrue(self.rejected(checker, argv, bad))
        bad = copy.deepcopy(report)
        kept = bad["fibers"][label]["samples"][0]["eta"]["1/4"]["records"][0]
        kept["witnesses"][1]["weights"][0] = bump(kept["witnesses"][1]["weights"][0])
        kept["fiber_distance_sq"] = bump(kept["fiber_distance_sq"])
        self.assertTrue(self.rejected(checker, argv, bad))

    def test_nerve(self):
        with open("in/cloud.csv", "w", encoding="utf-8") as fh:
            fh.write("0,0\n1/2,0\n1,0\n3,0\n7/2,0\n4,0\n")
        with open("in/marks.json", "w", encoding="utf-8") as fh:
            json.dump({"b1": [0], "b2": [5]}, fh)
        argv = ("nerve", "--points", "in/cloud.csv", "--marks", "in/marks.json",
                "--radius", "3", "--out", "out/nerve.json")
        report = self.cli_report(*argv)
        self.assertTrue(report["refined"])
        checker = self.assert_check(argv, report)
        bad = copy.deepcopy(report)
        bad["radius_used"] = "3"
        self.assertTrue(self.rejected(checker, argv, bad))
        with open("out/nerve.json", encoding="utf-8") as fh:
            out = json.load(fh)
        out["maximal_simplices"][0] = sorted(
            set(out["maximal_simplices"][0]) | {out["marked"]["B2"][0]})
        with open("out/nerve.json", "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        self.assertTrue(self.rejected(checker, argv, report))


class TestRunFailures(ScratchDir):
    def test_out_file_that_differs_from_the_first_pass_fails_that_pass(self):
        self.addCleanup(os.chdir, os.getcwd())
        os.chdir(self.dir)
        passes = []

        class SameStdoutOtherFile:
            @staticmethod
            def main(argv):
                passes.append(argv)
                with open(argv[-1], "w", encoding="utf-8") as fh:
                    fh.write("map" if len(passes) < 3 else "other map")
                print("report")
                return 0

        bench_run = run.Run((workloads.Command("embed.x", ("embed", "--out", "x.json"), 0),))
        for _ in range(3):
            bench_run.one_pass(SameStdoutOtherFile)
        self.assertEqual((bench_run.attempted, bench_run.failed), (3, 1))
        self.assertEqual(bench_run.good_passes["embed.x"], 2)
        self.assertIn("--out file differs", bench_run.problems[0])

    def test_setup_past_its_time_limit_is_killed_and_reported(self):
        with mock.patch.object(run, "SETUP_TIMEOUT_S", 0.05):
            with self.assertRaisesRegex(run.SetupFailed, "ran past"):
                run.timed_setups("nerve-cloud", 1, 1)

    def test_failed_setup_still_prints_a_result(self):
        out = io.StringIO()
        failed = run.SetupFailed("set-up exited 1")
        with mock.patch.object(run, "timed_setups", side_effect=failed), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "probe-sweep", "--seed", "1", "--seconds", "1"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(result, {"correct": False, "attempted": 2, "failed": 2, "metrics": {}})


class TestSpeed(unittest.TestCase):
    def test_sampler_probes_while_the_block_runs_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with speed.Sampler() as sampler:
            end = time.perf_counter() + 20 * speed.INTERVAL_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(sampler.samples), 10)
        self.assertTrue(all(sample > 0 for sample in sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_a_block_shorter_than_the_interval_still_gets_a_probe(self):
        with speed.Sampler() as sampler:
            pass
        self.assertEqual(len(sampler.samples), 1)

    def test_time_at_reference_speed(self):
        # a host that runs the probe at half the reference speed ran the
        # command at half speed too
        self.assertAlmostEqual(speed.at_reference(3.0, 2 * speed.REFERENCE_S), 1.5)


def span(name, start, end, parent=None):
    return (name, start, end, parent, "case")


class TestSpanArithmetic(unittest.TestCase):
    # cli.main [0,10] with children a [1,3] (holding b [2,2.5]), c [4,6] and
    # fibered_report [6.5,9] (holding d [7,8])
    TREE = [
        span("cli.main", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 2.5, 1),
        span("c", 4.0, 6.0, 0),
        span("fiber.fibered_report", 6.5, 9.0, 0),
        span("d", 7.0, 8.0, 4),
    ]

    def test_self_time(self):
        self.assertAlmostEqual(spans.self_times(self.TREE, {"cli.main"}), 3.5)
        self.assertAlmostEqual(spans.self_times(self.TREE, {"fiber.fibered_report"}), 1.5)
        self.assertAlmostEqual(spans.self_times(self.TREE, {"a"}), 1.5)
        self.assertAlmostEqual(spans.self_times(self.TREE, {"b", "d"}), 1.5)

    def test_overlapping_children_count_once(self):
        self.assertAlmostEqual(spans.covered([(1, 3), (2, 4), (8, 12)], 0, 10), 5)

    def test_nested_spans_of_one_name_count_once(self):
        tree = [span("x", 0.0, 5.0), span("y", 1.0, 4.0, 0), span("x", 2.0, 3.0, 1),
                span("x", 6.0, 7.0)]
        self.assertAlmostEqual(spans.inclusive_time(tree, {"x"}), 6.0)
        self.assertAlmostEqual(spans.inclusive_time(tree, {"y"}), 3.0)

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        run.import_cli()
        import plgp.exact
        import plgp.flats

        original = plgp.exact.rank
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            self.assertIs(plgp.flats.rank, plgp.exact.rank)
            self.assertIsNot(plgp.flats.rank, original)
            plgp.flats.rank(plgp.exact.Matrix.from_rows([[1, 2], [2, 4]]))
        finally:
            spans.uninstall(undo)
        self.assertIs(plgp.flats.rank, original)
        self.assertEqual(tracer.warnings, [])
        self.assertEqual(spans.layer_metrics(tracer)["exact.rank.calls"], 1)
        self.assertEqual(spans.layer_metrics(tracer)["exact.max_coeff_bits"], 3)


class TestDeclaredMetrics(unittest.TestCase):
    def test_per_layer_names_match_what_the_trace_emits(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        emitted = set(spans.layer_metrics(spans.Tracer()))
        emitted |= {f"cli.{case}.s" for case in workloads.all_cases()}
        emitted |= {"cli.stdout_bytes", "cli.digest_mismatches", "speed.probe_s",
                    "trace.wall_s", "trace.overhead_s"}
        self.assertEqual({m["name"] for m in declared["per_layer"]}, emitted)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
