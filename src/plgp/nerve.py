"""Nerve of a ball cover over a finite point cloud, with mark separation.

The cloud is the whole space here, so cover elements intersect exactly when
they share a sample point: nerve simplices are the incidence sets of sample
points and their faces.  That keeps the nerve combinatorial and exact, makes
the incidence set of every sample point a nerve simplex by construction, and
bounds the nerve dimension by the maximum incidence count minus one.

Incidence is decided on an integer frame: the cloud is scaled once by the
lcm D of all its coordinate denominators, and a point pair at scaled squared
distance d2 lies within radius r = num/den of each other exactly when
d2 * den^2 <= num^2 * D^2.  That test is a pairing: with B = num^2 * D^2,
(2 den^2 p, -den^2, B - den^2 |p|^2) paired with (q, |q|^2, 1) is
B - den^2 |p - q|^2.  One exact.PackedPairings of the family (q, |q|^2, 1)
gives each point's whole incidence row, ascending, as the signs of one
packed pairing; refinement takes the squared distance between the marked
sets on the same frame, which the cloud builds once (PointCloud.frame).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .complexes import SimplicialComplex, json_int, json_list
from .errors import PreconditionError, SeparationError
from .exact import PackedPairings, integer_points, rat, vec


@dataclass(frozen=True)
class PointCloud:
    points: tuple    # tuples of Fractions, common ambient dimension
    b1: frozenset    # marked point indices
    b2: frozenset

    def __post_init__(self):
        if self.points:
            m0 = len(self.points[0])
            if any(len(p) != m0 for p in self.points):
                raise ValueError("points have mixed ambient dimensions")
        for idx in self.b1 | self.b2:
            if not (0 <= idx < len(self.points)):
                raise ValueError("marked index %r out of range" % (idx,))
        if self.b1 & self.b2:
            raise ValueError("marked sets overlap")

    @cached_property
    def frame(self) -> tuple:
        """(scale, points): the cloud on one integer frame (exact.integer_points),
        built on first use and kept for every cover and distance."""
        return integer_points(self.points)


def point_cloud(points, b1=(), b2=()) -> PointCloud:
    return PointCloud(
        tuple(vec(p) for p in points), frozenset(b1), frozenset(b2)
    )


@dataclass(frozen=True)
class Cover:
    # element i is the closed ball of the cover's radius about point i
    incidence: tuple     # per point index, tuple of incident element indices
    b1_elements: frozenset  # element indices meeting B1
    b2_elements: frozenset
    separated: bool      # no single element meets both marked sets
    radius: Fraction

    @cached_property
    def violation(self) -> bool:
        """Some sample point is incident to elements marked on both sides:
        exactly what would put marked vertices from both sides into one
        nerve simplex.  Decided once per cover, on first read."""
        b1, b2 = self.b1_elements, self.b2_elements
        return any(
            not b1.isdisjoint(inc) and not b2.isdisjoint(inc)
            for inc in self.incidence
        )


def _int_dist_sq(p, q) -> int:
    d = 0
    for a, b in zip(p, q):
        d += (a - b) * (a - b)
    return d


# turns PackedPairings.signs' negative flags, 1 and 0, into 0 and 1
_NONNEGATIVE = bytes([1]) + bytes(255)


def build_cover(cloud: PointCloud, radius) -> Cover:
    radius = rat(radius)
    if radius <= 0:
        raise PreconditionError("cover radius must be positive")
    scale, points = cloud.frame
    # dist(p, q) <= r  iff  |scale p - scale q|^2 * r.den^2 <= (r.num * scale)^2,
    # iff p's pairing with (q, |q|^2, 1) is non-negative
    den_sq = radius.denominator ** 2
    bound = (radius.numerator * scale) ** 2
    norms = [sum(x * x for x in q) for q in points]
    probes = [
        (*(2 * den_sq * x for x in p), -den_sq, bound - den_sq * n)
        for p, n in zip(points, norms)
    ]
    packed = PackedPairings(
        [(*q, n, 1) for q, n in zip(points, norms)],
        max((sum(map(abs, v)) for v in probes), default=0),
    )
    indices = range(len(points))
    # each row is read whole from one pairing, in ascending order; the
    # incidence is symmetric (centers are the points), so element i meets
    # exactly the points of incidence[i]
    incidence = [
        list(compress(indices, packed.signs(v)[0].translate(_NONNEGATIVE)))
        for v in probes
    ]
    b1_elements = frozenset(i for idx in cloud.b1 for i in incidence[idx])
    b2_elements = frozenset(i for idx in cloud.b2 for i in incidence[idx])
    return Cover(
        incidence=tuple(map(tuple, incidence)),
        b1_elements=b1_elements,
        b2_elements=b2_elements,
        separated=not (b1_elements & b2_elements),
        radius=radius,
    )


def refine_for_separation(cloud: PointCloud, radius) -> Cover:
    """The cover at radius when it has no witness violation (or no marks);
    else the cover at the largest r = radius / 2^j, j >= 1, with
    4 r^2 < d(B1, B2)^2 and no witness violation.  So marks at distance 1
    and radius 1 give r = 1/4, though r = 1/2 already separates them."""
    radius = rat(radius)
    cover = build_cover(cloud, radius)
    if not cover.violation:
        return cover
    scale, points = cloud.frame
    d_sq = Fraction(
        min(_int_dist_sq(points[i], points[j]) for i in cloud.b1 for j in cloud.b2),
        scale * scale,
    )
    # touching marks always violate: the element about a B1 point holds the
    # coincident B2 point, so it meets both sides and violates at its center
    if d_sq == 0:
        raise SeparationError("marked sets touch; no separating radius exists")
    # a verdict depends on the radius alone, so a rejected radius is halved
    # at least once, then past every radius with 4r^2 >= d(B1, B2)^2
    r = radius / 2
    while 4 * r * r >= d_sq:
        r = r / 2
    cover = build_cover(cloud, r)
    if not cover.violation:
        return cover
    # a violating chain b1 - center - witness - center - b2 has four links of
    # length <= r/2, so it spans at most 2r < d(B1, B2): this cover needs no check
    return build_cover(cloud, r / 2)


def element_name(i: int) -> str:
    return "U%d" % i


def nerve_complex(cover: Cover) -> SimplicialComplex:
    # every nerve simplex lies in an incidence set, each one a nerve simplex;
    # an unseparated cover fails here too, at the shared element's center;
    # a refined cover's verdict is cached, one built directly is judged here
    if cover.violation:
        raise SeparationError(
            "nerve simplex contains marked vertices from both sides"
        )
    maximal = {
        frozenset(element_name(i) for i in inc)
        for inc in cover.incidence
        if inc
    }
    return SimplicialComplex.from_maximal(
        sorted(maximal, key=lambda s: sorted(s)),
        b1={element_name(i) for i in cover.b1_elements},
        b2={element_name(i) for i in cover.b2_elements},
    )


def cloud_from_csv(points_path, marks_path=None) -> PointCloud:
    """One point per CSV row, rational or decimal literals; marks from a
    sidecar JSON {"b1": [indices], "b2": [indices]}."""
    points = []
    with open(points_path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            cells = [cell.strip() for cell in row]
            # blank rows and trailing empty cells are skipped; an empty cell
            # before a coordinate would shift it to another axis
            while cells and not cells[-1]:
                cells.pop()
            if not cells:
                continue
            if not all(cells):
                raise ValueError(
                    "%s row %d: empty cell before a coordinate"
                    % (points_path, rows.line_num)
                )
            points.append(tuple(rat(cell) for cell in cells))
    b1 = ()
    b2 = ()
    if marks_path is not None:
        with open(marks_path) as fh:
            marks = json.load(fh)
        if not isinstance(marks, dict):
            raise ValueError("marks JSON must be an object")
        b1 = [json_int(i, "a b1 index") for i in json_list(marks.get("b1", []), "b1")]
        b2 = [json_int(i, "a b2 index") for i in json_list(marks.get("b2", []), "b2")]
    return point_cloud(points, b1, b2)
