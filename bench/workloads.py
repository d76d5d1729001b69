"""The four benchmark workloads: their seeded inputs and their CLI commands.

Every workload runs in its own working directory and hands `plgp` only
relative paths.  The CLI echoes argv in each report's manifest, and `embed`
and `nerve` also echo `--out`, so fixed relative paths are what keep a
command's stdout byte-identical from one run to the next.

Inputs depend on the workload seed and nothing else: fixtures are copied
byte for byte, generated files come from `random.Random("<workload>|<seed>")`,
and the seed is passed to every command that takes `--seed`.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Command:
    case: str     # "<command>.<case>", e.g. "embed.triangles5-d1_4"
    argv: tuple   # plgp CLI arguments, paths relative to the working directory
    probes: int   # certified probe samples the command produces (0 if none)


NAMES = ("embed-ladder", "probe-sweep", "fibered-octafiber", "nerve-cloud")

Z_GRID = 2 ** 16
PROBE_RADIUS = 3
LATTICE = 6
JITTER = 40       # lattice jitter in units of 1/JITTER_DENOM, in each coordinate
JITTER_DENOM = 256


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}|{seed}")


def analyze_points(seed: int, m: int, label: str, count: int = 2) -> list:
    """Seeded probe points in the radius-3 ball on the 2^-16 grid, as --z text.

    Off the image and in general position with probability one; analyze
    itself rejects the measure-zero exceptions with a non-zero exit.
    """
    rng = _rng("probe-sweep|" + label, seed)
    bound = PROBE_RADIUS * PROBE_RADIUS
    out = []
    while len(out) < count:
        z = [
            Fraction(PROBE_RADIUS * rng.randrange(-Z_GRID, Z_GRID + 1), Z_GRID)
            for _ in range(m)
        ]
        if sum(x * x for x in z) <= bound:
            out.append(",".join(map(str, z)))
    return out


def cloud_rows(seed: int) -> tuple:
    """A jittered LATTICE^3 grid with unit spacing; B1 on face x=0, B2 on x=max."""
    rng = _rng("nerve-cloud", seed)
    rows, b1, b2 = [], [], []
    for i in range(LATTICE):
        for j in range(LATTICE):
            for k in range(LATTICE):
                index = len(rows)
                rows.append(
                    [
                        base + Fraction(rng.randint(-JITTER, JITTER), JITTER_DENOM)
                        for base in (i, j, k)
                    ]
                )
                if i == 0:
                    b1.append(index)
                elif i == LATTICE - 1:
                    b2.append(index)
    return rows, b1, b2


def commands(name: str, seed: int) -> tuple:
    """The timed section of a workload: its CLI commands, in order."""
    s = str(seed)
    if name == "embed-ladder":
        return (
            Command("embed.triangles5-d1_2", ("embed", "--input", "in/triangles5.json",
                    "--delta", "1/2", "--seed", s, "--out", "out/triangles5-d1_2.json"), 0),
            Command("embed.triangles5-d1_4", ("embed", "--input", "in/triangles5.json",
                    "--delta", "1/4", "--seed", s, "--out", "out/triangles5-d1_4.json"), 0),
            Command("embed.hexagon-d1_8", ("embed", "--input", "in/hexagon.json",
                    "--delta", "1/8", "--seed", s, "--out", "out/hexagon-d1_8.json"), 0),
        )
    if name == "probe-sweep":
        out = [
            Command("probe.triangles5-s10", ("probe", "--map", "maps/triangles5.json",
                    "--samples", "10", "--seed", s), 10),
            Command("probe.quadrilateral-s20", ("probe", "--map", "maps/quadrilateral.json",
                    "--samples", "20", "--seed", s), 20),
        ]
        for label, m in (("triangles5", 5), ("quadrilateral", 3)):
            for i, z in enumerate(analyze_points(seed, m, label)):
                out.append(Command(f"analyze.{label}-z{i}", ("analyze", "--map",
                           f"maps/{label}.json", "--z=" + z), 0))
        return tuple(out)
    if name == "fibered-octafiber":
        return (
            Command("fibered.octafiber-d1_2-s3", ("fibered", "--instance", "in/octafiber.json",
                    "--delta", "1/2", "--seed", s, "--samples", "3"), 24),
        )
    if name == "nerve-cloud":
        return (
            Command("nerve.cloud216-r2", ("nerve", "--points", "in/cloud216.csv", "--marks",
                    "in/cloud216_marks.json", "--radius", "2", "--out", "out/nerve.json"), 0),
        )
    raise ValueError(f"unknown workload {name!r}")


def all_cases() -> tuple:
    """Every command case of every workload; the case set does not depend on the seed."""
    return tuple(c.case for name in NAMES for c in commands(name, 0))


def setup_argv(name: str, seed: int) -> tuple:
    """CLI runs that set-up makes before timing: the maps probe-sweep probes."""
    if name != "probe-sweep":
        return ()
    s = str(seed)
    return (
        ("embed", "--input", "in/triangles5.json", "--delta", "1/2", "--seed", s,
         "--out", "maps/triangles5.json"),
        ("embed", "--input", "in/quadrilateral.json", "--delta", "1", "--seed", s,
         "--out", "maps/quadrilateral.json"),
    )


def write_inputs(name: str, seed: int, root: str, work: str) -> None:
    """Create the working directory's inputs for one workload and seed."""
    for sub in ("in", "out", "maps"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    fixtures = {
        "embed-ladder": ("triangles5.json", "hexagon.json"),
        "probe-sweep": ("triangles5.json", "quadrilateral.json"),
        "fibered-octafiber": ("octafiber.json",),
        "nerve-cloud": (),
    }[name]
    for fixture in fixtures:
        shutil.copyfile(
            os.path.join(root, "src", "plgp", "fixtures", fixture),
            os.path.join(work, "in", fixture),
        )
    if name == "nerve-cloud":
        rows, b1, b2 = cloud_rows(seed)
        with open(os.path.join(work, "in", "cloud216.csv"), "w", encoding="utf-8") as fh:
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
        with open(os.path.join(work, "in", "cloud216_marks.json"), "w", encoding="utf-8") as fh:
            json.dump({"b1": b1, "b2": b2}, fh)
