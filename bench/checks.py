"""Independent checks of plgp reports, in the benchmark's own exact arithmetic.

Nothing here imports plgp.  Each check re-derives what it verifies from the
report, the command's input files and its output files with
`fractions.Fraction` (integers for the nerve cover).  It never trusts a
report's `certifies` list or a cover's `valid` flag: the first is printed
unconditionally and the second is close to a tautology today.

A check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from itertools import combinations
from math import lcm


def qvec(texts) -> tuple:
    return tuple(Fraction(t) for t in texts)


def dist2(a, b) -> Fraction:
    return sum(((x - y) * (x - y) for x, y in zip(a, b)), Fraction(0))


def on_line(p, base, direction) -> bool:
    """Exactly: p - base is a multiple of the nonzero direction."""
    i = next(i for i, d in enumerate(direction) if d != 0)
    t = (p[i] - base[i]) / direction[i]
    return all(p[j] - base[j] == t * direction[j] for j in range(len(p)))


def combine(weights, points) -> tuple:
    return tuple(
        sum((w * p[i] for w, p in zip(weights, points)), Fraction(0))
        for i in range(len(points[0]))
    )


def _split_ids(inner: str) -> list:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(inner[start:i])
            start = i + 1
    parts.append(inner[start:])
    return parts


class SubdivisionImages:
    """Unperturbed images of subdivision vertices, from the original vertex images.

    Barycentric subdivision names the barycenter of a simplex "b(v1,...,vk)"
    and leaves the map unchanged pointwise, so a vertex's image is the mean of
    the images its id names, recursively.
    """

    def __init__(self, images: dict):
        self.cache = dict(images)

    def __call__(self, vid: str) -> tuple:
        hit = self.cache.get(vid)
        if hit is None:
            if not (vid.startswith("b(") and vid.endswith(")")):
                raise KeyError(f"unknown vertex {vid!r}")
            parts = [self(p) for p in _split_ids(vid[2:-1])]
            hit = tuple(sum(c, Fraction(0)) / len(parts) for c in zip(*parts))
            self.cache[vid] = hit
        return hit


def images_of(map_obj) -> dict:
    return {v: qvec(c) for v, c in map_obj["images"].items()}


def load_map_images(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return images_of(json.load(fh))


def check_record(rec, z, images=None, where="") -> list:
    """One secant record: z and both witnesses on the line, weights a convex
    combination that (given the map's images) reproduces the witness point,
    and two distinct preimages."""
    problems = []
    base = qvec(rec["line"]["base"])
    direction = qvec(rec["line"]["direction"])
    if not any(direction):
        return [f"{where}: line has a zero direction"]
    if qvec(rec["z"]) != z:
        problems.append(f"{where}: record z differs from the probe point")
    if not on_line(z, base, direction):
        problems.append(f"{where}: z is not on the line")
    preimages = []
    for n, w in enumerate(rec["witnesses"]):
        point = qvec(w["point"])
        weights = qvec(w["weights"])
        simplex = w["simplex"]
        if len(weights) != len(simplex):
            problems.append(f"{where} witness {n}: weight count differs from simplex size")
            continue
        if any(x < 0 for x in weights) or sum(weights) != 1:
            problems.append(f"{where} witness {n}: weights are not a convex combination")
        if not on_line(point, base, direction):
            problems.append(f"{where} witness {n}: point is not on the line")
        if images is not None and combine(weights, [images[v] for v in simplex]) != point:
            problems.append(f"{where} witness {n}: weights do not reproduce the point")
        preimages.append(frozenset((v, x) for v, x in zip(simplex, weights) if x))
    if len(preimages) != 2 or preimages[0] == preimages[1]:
        problems.append(f"{where}: the two witnesses are not distinct preimages")
    return problems


def check_pair(pair, z, where="") -> list:
    base = qvec(pair["line"]["base"])
    direction = qvec(pair["line"]["direction"])
    if not any(direction):
        return [f"{where}: line has a zero direction"]
    problems = []
    for label, point in (("z", z), ("y1", qvec(pair["y1"])), ("y2", qvec(pair["y2"]))):
        if not on_line(point, base, direction):
            problems.append(f"{where}: {label} is not on the line")
    for label in ("preimage1", "preimage2"):
        weights = qvec(pair[label]["weights"])
        if any(x < 0 for x in weights) or sum(weights) != 1:
            problems.append(f"{where}: {label} weights are not a convex combination")
    return problems


def _displacement_problems(perturbation, half, where) -> list:
    md = Fraction(perturbation["max_displacement"])
    md2 = Fraction(perturbation["max_displacement_sq"])
    problems = []
    if not md < half:
        problems.append(f"{where}max_displacement {md} is not below delta/2 = {half}")
    if md * md < md2:
        problems.append(f"{where}max_displacement squared is below max_displacement_sq")
    return problems


def check_embed(report, input_path, out_path, delta) -> list:
    """max_displacement < delta/2 and bounds max_displacement_sq; recomputed
    from the output map, the largest vertex displacement equals
    max_displacement_sq and every unperturbed simplex is below delta/2."""
    half = Fraction(delta) / 2
    problems = _displacement_problems(report["perturbation"], half, "")
    with open(input_path, encoding="utf-8") as fh:
        source = json.load(fh)
    with open(out_path, encoding="utf-8") as fh:
        out = json.load(fh)
    before = SubdivisionImages(images_of(source))
    after = images_of(out)
    worst = max(dist2(after[v], before(v)) for v in out["vertices"])
    if worst != Fraction(report["perturbation"]["max_displacement_sq"]):
        problems.append(
            f"largest vertex displacement squared is {worst}, report says "
            f"{report['perturbation']['max_displacement_sq']}"
        )
    for s in out["maximal_simplices"]:
        if any(dist2(before(a), before(b)) >= half * half for a, b in combinations(s, 2)):
            problems.append(f"subdivided simplex {s} is not below delta/2 in diameter")
            break
    if report["subdivided_maximal"] != len(out["maximal_simplices"]):
        problems.append("subdivided_maximal differs from the output map")
    if report["out"] != out_path:
        problems.append("report does not echo --out")
    return problems


def check_probe(report, images, samples, k) -> list:
    problems = []
    if len(report["samples"]) != samples or report["summary"]["count"] != samples:
        problems.append(f"expected {samples} samples")
    k = Fraction(k)
    for sample in report["samples"]:
        where = f"sample {sample['index']}"
        z = qvec(sample["z"])
        if sum(x * x for x in z) > k * k:
            problems.append(f"{where}: z lies outside the radius-k ball")
        if sample["secants"] != len(sample["records"]):
            problems.append(f"{where}: secant count differs from its records")
        for n, rec in enumerate(sample["records"]):
            problems += check_record(rec, z, images, f"{where} record {n}")
    return problems


def check_analyze(report, images, z_text) -> list:
    z = qvec(z_text.split(","))
    problems = []
    if qvec(report["z"]) != z:
        problems.append("report z differs from --z")
    if report["secants"] != len(report["records"]) or len(report["pairs"]) != len(report["records"]):
        problems.append("secant count differs from records or pairs")
    for n, rec in enumerate(report["records"]):
        problems += check_record(rec, z, images, f"record {n}")
    for n, pair in enumerate(report["pairs"]):
        problems += check_pair(pair, z, f"pair {n}")
    return problems


def read_cloud(points_path, marks_path) -> tuple:
    with open(points_path, newline="", encoding="utf-8") as fh:
        points = [qvec(row) for row in csv.reader(fh) if row]
    with open(marks_path, encoding="utf-8") as fh:
        marks = json.load(fh)
    return points, set(marks["b1"]), set(marks["b2"])


def check_nerve(report, points, b1, b2, out_path, requested) -> list:
    """Recompute the cover at the reported radius over the integers, then
    check that the output complex is its nerve and that no simplex holds
    elements marked on both sides."""
    r = Fraction(report["radius_used"])
    problems = []
    if not 0 < r <= Fraction(requested):
        return [f"radius_used {r} is not in (0, requested]"]
    scale = lcm(*(x.denominator for p in points for x in p))
    ints = [tuple(int(x * scale) for x in p) for p in points]
    r2 = r * r * scale * scale
    incidence = [
        frozenset(
            i for i, c in enumerate(ints)
            if sum((a - b) * (a - b) for a, b in zip(p, c)) <= r2
        )
        for p in ints
    ]
    side1 = frozenset().union(*(incidence[i] for i in b1))
    side2 = frozenset().union(*(incidence[i] for i in b2))
    with open(out_path, encoding="utf-8") as fh:
        out = json.load(fh)

    def name(i):
        return "U%d" % i

    if set(out["marked"]["B1"]) != set(map(name, side1)) or set(
        out["marked"]["B2"]
    ) != set(map(name, side2)):
        problems.append("marked elements differ from the recomputed cover")
    tops = {s for s in set(incidence) if not any(s < t for t in incidence)}
    if {frozenset(s) for s in out["maximal_simplices"]} != {
        frozenset(map(name, s)) for s in tops
    }:
        problems.append("maximal simplices differ from the recomputed nerve")
    for s in tops:
        if s & side1 and s & side2:
            problems.append(f"nerve simplex {sorted(s)} holds both marked sides")
            break
    if report["elements"] != len(points):
        problems.append("element count differs from the cloud size")
    if report["dimension"] != max(len(s) for s in tops) - 1:
        problems.append("dimension differs from the recomputed nerve")
    if report["out"] != out_path:
        problems.append("report does not echo --out")
    return problems


def _line_key(rec) -> tuple:
    return tuple(rec["line"]["base"]), tuple(rec["line"]["direction"])


def check_fibered(report, instance_path, delta, samples) -> list:
    """Per fiber: displacement bound, every record as for probe (without the
    embedded images, which the report does not carry), and per eta: kept
    records are exactly the records whose recomputed fiber distance is at
    least eta, with counts that do not decrease as eta shrinks."""
    with open(instance_path, encoding="utf-8") as fh:
        instance = json.load(fh)
    half = Fraction(delta) / 2
    etas = sorted((Fraction(e) for e in report["eta"]), reverse=True)
    problems = []
    if sorted(report["fibers"]) != sorted(instance["fibers"]):
        problems.append("fiber labels differ from the instance")
    for label, fiber in report["fibers"].items():
        where = f"fiber {label}"
        problems += _displacement_problems(fiber["perturbation"], half, where + ": ")
        reference = SubdivisionImages(images_of(instance["reference_embeddings"][label]))
        if len(fiber["samples"]) != samples:
            problems.append(f"{where}: expected {samples} samples")
        for n, sample in enumerate(fiber["samples"]):
            at = f"{where} sample {n}"
            z = qvec(sample["z"])
            distances = {}
            for i, rec in enumerate(sample["records"]):
                problems += check_record(rec, z, None, f"{at} record {i}")
                p1, p2 = (
                    combine(qvec(w["weights"]), [reference(v) for v in w["simplex"]])
                    for w in rec["witnesses"]
                )
                distances[_line_key(rec)] = dist2(p1, p2)
            previous = -1
            for eta in etas:
                entry = sample["eta"][str(eta)]
                kept = entry["records"]
                if entry["count"] != len(kept) or len(kept) < previous:
                    problems.append(f"{at} eta {eta}: count is wrong or decreased as eta shrank")
                previous = len(kept)
                for rec in kept:
                    d2 = distances.get(_line_key(rec))
                    if d2 is None or Fraction(rec["fiber_distance_sq"]) != d2:
                        problems.append(f"{at} eta {eta}: kept record is not a sample "
                                        "record at its recomputed fiber distance")
                    elif d2 < eta * eta:
                        problems.append(f"{at} eta {eta}: kept record is closer than eta")
                expected = sum(1 for d2 in distances.values() if d2 >= eta * eta)
                if expected != len(kept):
                    problems.append(f"{at} eta {eta}: {len(kept)} kept, {expected} expected")
    return problems


def options(args) -> dict:
    """--flag value and --flag=value pairs (every plgp flag takes a value)."""
    opts = {}
    tokens = iter(args)
    for token in tokens:
        flag, eq, value = token.partition("=")
        opts[flag] = value if eq else next(tokens)
    return opts


class Checker:
    """Checks one command's stdout against its argv, reading the command's
    files relative to the working directory.  Inputs that the timed section
    never rewrites (maps, clouds) are parsed once."""

    def __init__(self):
        self.cache = {}

    def _once(self, key, load):
        if key not in self.cache:
            self.cache[key] = load()
        return self.cache[key]

    def __call__(self, argv, stdout: str) -> list:
        try:
            report = json.loads(stdout)
        except ValueError:
            return ["stdout is not a JSON report"]
        kind = argv[0]
        opts = options(argv[1:])
        try:
            if kind == "embed":
                return check_embed(report, opts["--input"], opts["--out"], opts["--delta"])
            if kind in ("probe", "analyze"):
                images = self._once(opts["--map"], lambda: load_map_images(opts["--map"]))
                if kind == "probe":
                    return check_probe(report, images, int(opts["--samples"]), opts.get("--k", "3"))
                return check_analyze(report, images, opts["--z"])
            if kind == "nerve":
                points, b1, b2 = self._once(
                    opts["--points"], lambda: read_cloud(opts["--points"], opts["--marks"])
                )
                return check_nerve(report, points, b1, b2, opts["--out"], opts["--radius"])
            if kind == "fibered":
                return check_fibered(report, opts["--instance"], opts["--delta"], int(opts["--samples"]))
        except (KeyError, TypeError, ValueError, IndexError, StopIteration) as exc:
            return [f"malformed report: {exc!r}"]
        return [f"no check for command {kind!r}"]
