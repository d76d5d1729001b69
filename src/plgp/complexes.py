"""Finite simplicial complexes, barycentric subdivision, and PL maps into R^m.

A complex stores every face explicitly (face-closed frozensets of vertex ids),
so "simplex" below always means any face, not just a maximal one.  Two marked
vertex subsets ride along on the complex; a point of the polyhedron belongs to
a marked side iff its carrier simplex's vertices all lie in that side, which
makes the marked subpolyhedra first-class and their disjointness decidable.

PL maps assign an exact rational image point to every vertex and are linear on
simplices; subdivision refines the complex without moving the geometric map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from json.encoder import INFINITY
from json.encoder import encode_basestring_ascii as quote_json
from math import factorial

from .errors import PreconditionError, SubdivisionCapError
from .exact import (
    dist_sq,
    integer_points,
    rat,
    rat_str,
    sqrt_upper,
    vec,
    vec_scale,
)

SUBDIVIDE_ROUND_CAP = 30
SUBDIVIDE_TOP_BUDGET = 10 ** 6


def simplex_key(simplex):
    """Canonical sort key: cardinality, then stringified vertex ids."""
    return (len(simplex), tuple(sorted(str(v) for v in simplex)))


def sorted_vertices(simplex):
    return tuple(sorted(simplex, key=str))


def maximal_faces(faces) -> list:
    """The maximal members of a face-closed family, in simplex_key order.

    In a face-closed family a face is non-maximal iff it is some member
    minus one vertex, so one pass over the members decides every face.
    """
    faces = set(faces)
    covered = {t - {v} for t in faces if len(t) > 1 for v in t}
    return sorted(faces - covered, key=simplex_key)


def later_sharing(tops) -> list:
    """Per index i, the set of later indices j > i whose simplices share a
    vertex with tops[i], read off a vertex -> index map built once."""
    by_vertex = {}
    for j, s in enumerate(tops):
        for v in s:
            by_vertex.setdefault(v, []).append(j)
    return [{j for v in s for j in by_vertex[v] if j > i} for i, s in enumerate(tops)]


@dataclass(frozen=True)
class SimplicialComplex:
    vertices: tuple          # all vertex ids, canonical order
    simplices: frozenset     # frozensets of vertex ids, nonempty, face-closed
    b1: frozenset = frozenset()
    b2: frozenset = frozenset()

    @classmethod
    def from_maximal(cls, maximal, b1=(), b2=()) -> "SimplicialComplex":
        """Build the face closure of the given simplices."""
        faces = set()
        for s in maximal:
            s = frozenset(s)
            if not s:
                raise ValueError("empty simplex")
            for k in range(1, len(s) + 1):
                for face in combinations(sorted(s, key=str), k):
                    faces.add(frozenset(face))
        verts = sorted({v for s in faces for v in s}, key=str)
        return cls(tuple(verts), frozenset(faces), frozenset(b1), frozenset(b2))

    @property
    def dimension(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def maximal_simplices(self) -> list:
        # computed once and stored on the (immutable) instance
        tops = self.__dict__.get("_maximal")
        if tops is None:
            tops = tuple(maximal_faces(self.simplices))
            object.__setattr__(self, "_maximal", tops)
        return list(tops)

    def sorted_simplices(self) -> list:
        return sorted(self.simplices, key=simplex_key)


def validate(c: SimplicialComplex) -> list:
    """Face-closure and bookkeeping check; returns a list of violations (empty = ok)."""
    violations = []
    for s in c.sorted_simplices():
        if len(s) > 1:
            for face in combinations(sorted(s, key=str), len(s) - 1):
                if frozenset(face) not in c.simplices:
                    violations.append(
                        f"missing face {sorted(map(str, face))} of {sorted(map(str, s))}"
                    )
    covered = {v for s in c.simplices for v in s}
    for v in c.vertices:
        if v not in covered:
            violations.append(f"dangling vertex {v!r}")
    for v in covered:
        if v not in c.vertices:
            violations.append(f"unlisted vertex {v!r}")
    for name, marked in (("B1", c.b1), ("B2", c.b2)):
        for v in marked:
            if v not in c.vertices:
                violations.append(f"marked vertex {v!r} in {name} is not a vertex")
    overlap = c.b1 & c.b2
    if overlap:
        violations.append(f"marked sets overlap on {sorted(map(str, overlap))}")
    return violations


@dataclass(frozen=True)
class BarycentricPoint:
    """Exact coordinates on the polyhedron: carrier simplex plus weights."""

    simplex: tuple   # vertex ids, canonical order
    weights: tuple   # Fractions, nonnegative, summing to exactly 1

    def __post_init__(self):
        if len(self.simplex) != len(self.weights):
            raise ValueError("weight count does not match simplex cardinality")
        if any(w < 0 for w in self.weights):
            raise ValueError("negative barycentric weight")
        if sum(self.weights, Fraction(0)) != 1:
            raise ValueError("barycentric weights must sum to exactly 1")

    def support_key(self) -> frozenset:
        """Identity of the underlying polyhedron point (zero weights dropped)."""
        return frozenset(
            (v, w) for v, w in zip(self.simplex, self.weights) if w != 0
        )


@dataclass
class PLMap:
    """A complex plus vertex images in R^m; linear on simplices by definition."""

    complex: SimplicialComplex
    m: int
    images: dict  # vertex id -> tuple of Fractions, length m

    def __post_init__(self):
        for v in self.complex.vertices:
            if v not in self.images:
                raise ValueError(f"vertex {v!r} has no image")
            if len(self.images[v]) != self.m:
                raise ValueError(f"image of {v!r} has wrong ambient dimension")

    def simplex_images(self, simplex) -> list:
        return [self.images[v] for v in sorted_vertices(simplex)]


def evaluate(h: PLMap, x: BarycentricPoint) -> tuple:
    """Exact affine combination of the carrier's vertex images."""
    if frozenset(x.simplex) not in h.complex.simplices:
        raise ValueError("barycentric point lies on an unknown simplex")
    terms = [vec_scale(w, h.images[v]) for v, w in zip(x.simplex, x.weights)]
    return tuple(sum(c, Fraction(0)) for c in zip(*terms))


def image_diameter_sq(h: PLMap, simplex) -> Fraction:
    """Max squared distance over image-vertex pairs (= squared diameter of the hull)."""
    pts = h.simplex_images(simplex)
    return max((dist_sq(a, b) for a, b in combinations(pts, 2)), default=Fraction(0))


def integer_images(h: PLMap):
    """(scale, images): every vertex image times scale, the lcm of all
    coordinate denominators over the map, as tuples of Python ints keyed by
    vertex."""
    vertices = h.complex.vertices
    scale, rows = integer_points([h.images[v] for v in vertices])
    return scale, dict(zip(vertices, rows))


def max_image_diameter_sq(h: PLMap, frame=None) -> Fraction:
    """Max of image_diameter_sq over every simplex of h, read off its edges.

    A simplex's image diameter is attained at a pair of its vertices, and in
    a face-closed complex each such pair is an edge, so the edges decide.
    Squared lengths are taken on Python ints, the images scaled once by
    their common denominator (frame, integer_images(h) unless given); 0
    when there are no edges.
    """
    scale, ints = integer_images(h) if frame is None else frame
    best = 0
    for s in h.complex.simplices:
        if len(s) == 2:
            a, b = s
            d = sum((x - y) ** 2 for x, y in zip(ints[a], ints[b]))
            if d > best:
                best = d
    return Fraction(best, scale * scale)


def _barycenter_id(simplex):
    if len(simplex) == 1:
        return next(iter(simplex))
    return "b(" + ",".join(sorted((str(v) for v in simplex))) + ")"


def barycentric_subdivide(h: PLMap) -> PLMap:
    """One barycentric subdivision; the geometric map is unchanged pointwise.

    New vertices are the barycenters of the old simplices (originals kept for
    singletons); new top simplices are the flags of the old maximal simplices.
    Marked sides propagate by carrier containment: the barycenter of sigma is
    marked iff sigma's vertices all were.
    """
    k = h.complex
    existing = set(map(str, k.vertices))
    ids = {}
    images = {}
    for s in k.sorted_simplices():
        bid = _barycenter_id(s)
        if len(s) > 1 and bid in existing:
            raise ValueError(f"barycenter id collision with existing vertex {bid!r}")
        ids[s] = bid
        pts = h.simplex_images(s)
        acc = tuple(sum(c, Fraction(0)) for c in zip(*pts))
        images[bid] = vec_scale(Fraction(1, len(pts)), acc)
    tops = []
    for s in k.maximal_simplices():
        verts = sorted_vertices(s)
        for order in permutations(verts):
            chain = (ids[frozenset(order[: i + 1])] for i in range(len(order)))
            tops.append(frozenset(chain))
    b1 = {ids[s] for s in k.simplices if s <= k.b1}
    b2 = {ids[s] for s in k.simplices if s <= k.b2}
    sub = SimplicialComplex.from_maximal(tops, b1=b1, b2=b2)
    return PLMap(sub, h.m, {v: images[v] for v in sub.vertices})


def subdivide_until(h: PLMap, delta, max_rounds: int = SUBDIVIDE_ROUND_CAP) -> PLMap:
    """Iterate subdivision until every simplex image diameter is < delta/2 (strict).

    Comparison is on squared quantities, exactly.  delta must be a positive,
    finite rational; the round cap guards against degenerate requests.

    Before subdividing, the rounds are predicted from the mesh bound: one
    subdivision of a simplex of dimension at most n shrinks every image
    diameter by at least n/(n+1).  So at most the predicted rounds run (and
    at most max_rounds), and each multiplies the maximal simplices by at
    most (n+1)!; a request that needs a round and whose predicted count
    T ((n+1)!)^rounds exceeds SUBDIVIDE_TOP_BUDGET is refused with nothing
    subdivided.
    """
    delta = rat(delta)
    if delta <= 0:
        raise PreconditionError("delta must be a positive rational")
    threshold = (delta / 2) ** 2
    worst = max_image_diameter_sq(h)
    n = h.complex.dimension
    rounds, bound = 0, worst
    while bound >= threshold and rounds < max_rounds:
        bound *= Fraction(n, n + 1) ** 2
        rounds += 1
    tops = len(h.complex.maximal_simplices()) * factorial(n + 1) ** rounds
    if rounds and tops > SUBDIVIDE_TOP_BUDGET:
        raise SubdivisionCapError(
            f"subdivision budget of {SUBDIVIDE_TOP_BUDGET} maximal simplices "
            f"exceeded: {rounds} predicted rounds give up to {tops}",
            achieved_diameter_sq=worst,
        )
    current, rounds = h, 0
    while worst >= threshold and rounds < max_rounds:
        current = barycentric_subdivide(current)
        worst = max_image_diameter_sq(current)
        rounds += 1
    if worst < threshold:
        return current
    raise SubdivisionCapError(
        f"subdivision cap of {max_rounds} rounds exceeded; achieved squared "
        f"diameter {rat_str(worst)} (target < {rat_str(threshold)})",
        achieved_diameter_sq=worst,
    )


def closeness_bound(h0: PLMap, h: PLMap) -> Fraction:
    """Certified upper bound for the sup-distance argument of the two-step construction.

    Returns (max vertex displacement) + (max image diameter of h0's simplices),
    each reported as a certified rational upper bound on the exact square root
    (exact on perfect squares, otherwise slack 2^-20).  Displacements are
    squared on Python ints, both maps' images scaled by one common
    denominator.
    """
    if h0.complex != h.complex:
        raise ValueError("closeness bound requires maps on the same complex")
    if h0.m != h.m:
        raise ValueError("ambient dimension mismatch")
    vertices = h0.complex.vertices
    scale, rows = integer_points(
        [h0.images[v] for v in vertices] + [h.images[v] for v in vertices]
    )
    n = len(vertices)
    disp = max(
        (sum((x - y) ** 2 for x, y in zip(a, b)) for a, b in zip(rows[:n], rows[n:])),
        default=0,
    )
    disp = Fraction(disp, scale * scale)
    return sqrt_upper(disp) + sqrt_upper(max_image_diameter_sq(h0))


# ---------------------------------------------------------------------------
# JSON interchange
#
# Complex: {"m": int, "vertices": [ids], "maximal_simplices": [[ids]],
#           "marked": {"B1": [ids], "B2": [ids]}}
# PL map adds {"images": {id: [rational strings]}}.  Vertex ids are coerced to
# strings on load (JSON object keys force this for images anyway); faces are
# completed on load.
# ---------------------------------------------------------------------------


def complex_to_obj(c: SimplicialComplex, m=None) -> dict:
    obj = {
        "vertices": [str(v) for v in c.vertices],
        "maximal_simplices": [
            [str(v) for v in sorted_vertices(s)] for s in c.maximal_simplices()
        ],
        "marked": {
            "B1": sorted(map(str, c.b1)),
            "B2": sorted(map(str, c.b2)),
        },
    }
    if m is not None:
        obj["m"] = int(m)
    return obj


def json_list(value, what) -> list:
    """value when it is a JSON list: a string or an object is refused, not
    split into its characters or keys."""
    if not isinstance(value, list):
        raise ValueError("%s must be a list, not %s" % (what, type(value).__name__))
    return value


def json_int(value, what) -> int:
    """value when it is a JSON integer: floats and booleans are refused,
    not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, not %r" % (what, value))
    return value


def complex_from_obj(obj) -> tuple:
    """Returns (complex, m or None); vertex ids become strings."""
    if not isinstance(obj, dict):
        raise ValueError("complex JSON must be an object")
    if "maximal_simplices" not in obj:
        raise ValueError("complex JSON lacks a maximal_simplices list")
    maximal = [
        [str(v) for v in json_list(s, "a maximal simplex")]
        for s in json_list(obj["maximal_simplices"], "maximal_simplices")
    ]
    marked = obj.get("marked") or {}
    if not isinstance(marked, dict):
        raise ValueError("marked must be an object")
    b1 = {str(v) for v in json_list(marked.get("B1", []), "marked B1")}
    b2 = {str(v) for v in json_list(marked.get("B2", []), "marked B2")}
    declared = {str(v) for v in json_list(obj.get("vertices", []), "vertices")}
    # isolated vertices are allowed as singleton simplices
    missing = declared.difference(*maximal)
    maximal.extend([v] for v in sorted(missing))
    c = SimplicialComplex.from_maximal(maximal, b1=b1, b2=b2)
    problems = validate(c)
    if problems:
        raise ValueError("invalid complex: " + problems[0])
    m = obj.get("m")
    return c, (None if m is None else json_int(m, "m"))


def plmap_to_obj(h: PLMap) -> dict:
    obj = complex_to_obj(h.complex, m=h.m)
    obj["images"] = {
        str(v): [rat_str(x) for x in h.images[v]] for v in h.complex.vertices
    }
    return obj


def plmap_from_obj(obj) -> PLMap:
    c, m = complex_from_obj(obj)
    if m is None:
        raise ValueError("map JSON lacks the ambient dimension m")
    if not isinstance(obj.get("images"), dict):
        raise ValueError("map JSON lacks an images object")
    unknown = sorted(set(map(str, obj["images"])) - set(c.vertices))
    if unknown:
        raise ValueError("image of %r, a vertex the complex lacks" % unknown[0])
    images = {
        str(v): vec(json_list(coords, "the image of %s" % v))
        for v, coords in obj["images"].items()
    }
    return PLMap(c, m, images)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _scalar_json(x) -> str:
    """A leaf as json prints it: bool before int, json's names for NaN and
    the infinities."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is float:
        if x != x:
            return "NaN"
        if x == INFINITY:
            return "Infinity"
        if x == -INFINITY:
            return "-Infinity"
        return float.__repr__(x)
    raise TypeError("cannot print a %s as report JSON" % type(x).__name__)


def _emit_json(obj, nl: str, out: list) -> None:
    """Append obj's json.dumps(indent=2, sort_keys=True) text, at indent nl, to out."""
    t = type(obj)
    if t is str:
        out.append(quote_json(obj))
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if all(type(x) is str for x in obj):
            out.append("[" + inner + sep.join(map(quote_json, obj)) + nl + "]")
            return
        head = "[" + inner
        for x in obj:
            out.append(head)
            _emit_json(x, inner, out)
            head = sep
        out.append(nl + "]")
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        head = "{" + inner
        for key in sorted(obj):
            # quote_json raises TypeError on a key that is not a str
            out.append(head + quote_json(key) + ": ")
            _emit_json(obj[key], inner, out)
            head = "," + inner
        out.append(nl + "}")
    else:
        out.append(_scalar_json(obj))


def dump_json(obj, path=None) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + newline, byte for byte.

    CPython's json takes its pure-Python token generator whenever indent is
    set; this emitter joins each list of strings (coordinates, weights,
    simplices) in one call and the whole text once.  It prints str, list,
    tuple and dict by exact type, and None, bools, ints and floats as json
    does; it raises TypeError on anything else and on a non-str key, which
    json would print differently or not at all.
    """
    out = []
    _emit_json(obj, "\n", out)
    out.append("\n")
    text = "".join(out)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
