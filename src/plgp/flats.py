"""Affine d-flats in R^m: skewness, joins, intersections, transversal lines.

Every operation is an exact rational computation reduced to solve_affine or a
rank.  The transversal construction intersects the two joins span(z, f1) and
span(z, f2) and keeps the result only when it is a line that actually meets
both flats; the parallel and point-intersection branches return None, because
downstream only existence matters.

Secant enumeration does not run on this chain: it reads each pair's record
off two small integer systems, one per side (see plgp.secant).  The
transversal and line-simplex constructions here remain its independent
oracle, in the tests and the acceptance gate; line canonical forms are used
directly.

The exact distance from a point to the image polyhedron (ImageDistance) is
an integer computation over a table built once per map: every face is
visited once, on images scaled by one common denominator, and each point
costs integer dot products per face plus one Fraction at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import DegenerateGeometryError, PreconditionError
from .exact import (
    Matrix,
    affinely_independent,
    inverse_int,
    primitive_vector,
    rank,
    rat_str,
    solve_affine,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
    widen_frame,
)
from .complexes import BarycentricPoint, PLMap, integer_images, sorted_vertices


@dataclass(frozen=True)
class AffineFlat:
    m: int
    base: tuple        # point in R^m
    directions: tuple  # linearly independent direction vectors
    # set by canonical_line only: a line already in canonical form
    canonical: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.base) != self.m:
            raise ValueError("base point has wrong ambient dimension")
        for d in self.directions:
            if len(d) != self.m:
                raise ValueError("direction has wrong ambient dimension")
        if len(self.directions) == 1:
            independent = any(self.directions[0])
        else:
            independent = rank(Matrix.from_rows(self.directions)) == self.d
        if not independent:
            raise ValueError("directions are linearly dependent")
        if self.d > self.m:
            raise ValueError("flat dimension exceeds ambient dimension")

    @property
    def d(self) -> int:
        return len(self.directions)

    def point_at(self, params) -> tuple:
        p = self.base
        for t, direction in zip(params, self.directions):
            p = vec_add(p, vec_scale(t, direction))
        return p


def span_of_points(points) -> AffineFlat:
    """Flat through affinely independent points: base first, directions the differences."""
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    if not affinely_independent(pts):
        raise ValueError("points are affinely dependent")
    base = pts[0]
    return AffineFlat(len(base), base, tuple(vec_sub(p, base) for p in pts[1:]))


def contains_point(f: AffineFlat, z) -> bool:
    z = vec(z)
    if len(z) != f.m:
        raise ValueError("ambient dimension mismatch")
    if f.d == 0:
        return z == f.base
    cols = Matrix.from_rows(
        [[direction[i] for direction in f.directions] for i in range(f.m)]
    )
    return solve_affine(cols, vec_sub(z, f.base)) is not None


def flats_skew(f1: AffineFlat, f2: AffineFlat) -> bool:
    """Neither intersecting nor sharing a direction.

    Equivalently the d1 + d2 + 1 vectors [directions1 | directions2 | base2 - base1]
    have full rank, which needs d1 + d2 + 1 <= m to be possible at all.
    """
    if f1.m != f2.m:
        raise ValueError("ambient dimension mismatch")
    if f1.d + f2.d + 1 > f1.m:
        raise PreconditionError(
            "skewness impossible: flat dimensions leave no room in the ambient space"
        )
    rows = list(f1.directions) + list(f2.directions) + [vec_sub(f2.base, f1.base)]
    return rank(Matrix.from_rows(rows)) == f1.d + f2.d + 1


def join_point_flat(z, f: AffineFlat) -> AffineFlat:
    """The (d+1)-flat spanned by z and f; z must lie outside f."""
    z = vec(z)
    if contains_point(f, z):
        raise ValueError("point lies in the flat; join would be degenerate")
    return AffineFlat(f.m, f.base, f.directions + (vec_sub(z, f.base),))


def intersect_flats(f1: AffineFlat, f2: AffineFlat):
    """Exact intersection flat, or None when empty."""
    if f1.m != f2.m:
        raise ValueError("ambient dimension mismatch")
    m = f1.m
    if f1.d == 0 and f2.d == 0:
        return f1 if f1.base == f2.base else None
    # base1 + D1 lam = base2 + D2 mu, solved for (lam, mu)
    rows = []
    for i in range(m):
        rows.append(
            [d[i] for d in f1.directions] + [-d[i] for d in f2.directions]
        )
    sol = solve_affine(Matrix.from_rows(rows), vec_sub(f2.base, f1.base))
    if sol is None:
        return None
    lam = sol.particular[: f1.d]
    base = f1.point_at(lam)
    directions = []
    for kvec in sol.kernel:
        lam_part = kvec[: f1.d]
        direction = tuple(Fraction(0) for _ in range(m))
        for t, dvec in zip(lam_part, f1.directions):
            direction = vec_add(direction, vec_scale(t, dvec))
        directions.append(direction)
    return AffineFlat(m, base, tuple(directions))


def flats_equal(f1: AffineFlat, f2: AffineFlat) -> bool:
    """Same point set."""
    if f1.m != f2.m or f1.d != f2.d:
        return False
    if not contains_point(f1, f2.base):
        return False
    rows = list(f1.directions) + list(f2.directions)
    if not rows:
        return True
    return rank(Matrix.from_rows(rows)) == f1.d


def transversal_line_through_point(z, f1: AffineFlat, f2: AffineFlat):
    """The unique line through z meeting both skew flats, or None.

    None covers all the no-line branches: z on a flat, intersection of the two
    joins reduced to the point z, or a candidate line parallel to one flat.
    Non-skew input is a precondition violation and raises.
    """
    z = vec(z)
    if not flats_skew(f1, f2):
        raise PreconditionError("transversal construction requires skew flats")
    if contains_point(f1, z) or contains_point(f2, z):
        return None
    j1 = join_point_flat(z, f1)
    j2 = join_point_flat(z, f2)
    line = intersect_flats(j1, j2)
    if line is None or line.d != 1:
        return None
    if intersect_flats(line, f1) is None:
        return None
    if intersect_flats(line, f2) is None:
        return None
    assert contains_point(line, z)
    return canonical_line(line)


def canonical_line(line: AffineFlat) -> AffineFlat:
    """Canonical representative: primitive positive-leading direction, base the
    point of the line closest to the origin (always rational).  A line this
    function returned is returned as it is."""
    if line.canonical:
        return line
    if line.d != 1:
        raise ValueError("canonical form is defined for lines only")
    return line_through(line.base, line.directions[0])


def line_through(z, direction) -> AffineFlat:
    """The canonical line through the point z along a nonzero direction of
    rationals or ints.  Its base, the point closest to the origin, is
    (Z (d.d) - (Z.d) d) / (w (d.d)) for the primitive direction d and
    z = Z / w, on integers: one Fraction per coordinate."""
    direction = primitive_vector(direction)
    d = [x.numerator for x in direction]
    wide, ints = widen_frame(1, z)
    zd, dd = sum(map(mul, ints, d)), sum(map(mul, d, d))
    foot = tuple(Fraction(a * dd - zd * b, wide * dd) for a, b in zip(ints, d))
    return AffineFlat(len(z), foot, (direction,), canonical=True)


def line_key(line: AffineFlat) -> tuple:
    """Hashable, sortable identity of a line via its canonical form."""
    c = canonical_line(line)
    return (c.base, c.directions[0])


def line_to_obj(line: AffineFlat) -> dict:
    c = canonical_line(line)
    return {
        "base": [rat_str(x) for x in c.base],
        "direction": [rat_str(x) for x in c.directions[0]],
    }


def line_meets_simplex(line: AffineFlat, h: PLMap, simplex):
    """Intersection of the line with a closed image simplex, exactly.

    Returns (point, BarycentricPoint) or None.  At most one point can result
    when the line is not contained in the simplex's affine span; containment
    (or a degenerate image) shows up as a solution space of positive dimension
    and raises, since general position excludes it.
    """
    if line.m != h.m:
        raise ValueError("ambient dimension mismatch")
    if line.d != 1:
        raise ValueError("line expected")
    s = frozenset(simplex)
    if s not in h.complex.simplices:
        raise ValueError("unknown simplex")
    verts = sorted_vertices(s)
    imgs = [h.images[v] for v in verts]
    direction = line.directions[0]
    # unknowns: t, mu_0 .. mu_k;  base + t * direction = sum mu_i img_i, sum mu = 1
    rows = []
    for i in range(h.m):
        rows.append([-direction[i]] + [img[i] for img in imgs])
    rows.append([Fraction(0)] + [Fraction(1)] * len(imgs))
    rhs = list(line.base) + [Fraction(1)]
    sol = solve_affine(Matrix.from_rows(rows), rhs)
    if sol is None:
        return None
    if sol.kernel:
        raise DegenerateGeometryError(
            "line lies in the simplex's affine span or the image is degenerate"
        )
    weights = sol.particular[1:]
    if any(w < 0 for w in weights):
        return None
    point = vec_add(line.base, vec_scale(sol.particular[0], direction))
    return point, BarycentricPoint(verts, tuple(weights))


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


class _Face(NamedTuple):
    """One nondegenerate face on the integer frame: the differences of its
    other vertex images from the first, and det G > 0 and adj G of their
    Gram matrix G."""

    diffs: list
    det: int
    adj: list

    def gap(self, u, uu, f):
        """det * (wide * distance from z to the closed face)^2, or None when
        the foot of z on the face's affine hull lies outside the face.

        u = wide * (z - w0) and uu = |u|^2, with wide = f * scale.  With
        r = diffs . u, the foot's weights on the differences are
        lambda = adj r / (det f), so it lies in the closed face iff every
        lambda >= 0 and sum lambda <= 1.
        """
        r = [_dot(d, u) for d in self.diffs]
        lam = [_dot(row, r) for row in self.adj]
        if any(t < 0 for t in lam) or sum(lam) > self.det * f:
            return None
        return uu * self.det - _dot(r, lam)


class ImageDistance:
    """Exact squared distance from points of R^m to the image polyhedron of h.

    Built once per map.  The vertex images are scaled by one common
    denominator, and every face of the (face-closed) complex, which is every
    vertex subset of a maximal simplex, is visited once: its Gram matrix is
    inverted fraction-free, and a degenerate face (det G = 0) is skipped, its
    hull being covered by nondegenerate faces.  Calling the table on z widens
    the scale by z's denominators and takes the squared distance from z to
    the foot of z on each face's affine hull, for the faces that contain
    their foot; the nearest point of the image is one of these feet.  The
    minimum is found by integer cross-multiplication and returned as one
    Fraction.
    """

    def __init__(self, h: PLMap):
        if not h.complex.simplices:
            raise ValueError("empty complex has no image")
        self.m = h.m
        self.scale, images = integer_images(h)
        groups = {}
        for s in h.complex.simplices:
            first, *rest = sorted_vertices(s)
            w0 = images[first]
            diffs = [tuple(a - b for a, b in zip(images[v], w0)) for v in rest]
            inverse = inverse_int([[_dot(a, b) for b in diffs] for a in diffs])
            if inverse is not None:
                groups.setdefault(first, []).append(_Face(diffs, *inverse))
        # faces grouped by first vertex, so z - w0 is formed once per vertex
        self.groups = [(images[v], faces) for v, faces in groups.items()]

    def __call__(self, z) -> Fraction:
        z = vec(z)
        if len(z) != self.m:
            raise ValueError("ambient dimension mismatch")
        wide, zi = widen_frame(self.scale, z)
        f = wide // self.scale
        best, best_det = None, 1
        for w0, faces in self.groups:
            u = [a - f * b for a, b in zip(zi, w0)]
            uu = _dot(u, u)
            for face in faces:
                gap = face.gap(u, uu, f)
                if gap is not None and (best is None or gap * best_det < best * face.det):
                    best, best_det = gap, face.det
        return Fraction(best, best_det * wide * wide)


def point_to_image_distance_sq_lower(z, h: PLMap) -> Fraction:
    """Exact squared distance from z to the image polyhedron, on the integer
    frame one face at a time: builds the map's ImageDistance and evaluates
    it once.  Callers with many points build the table once themselves."""
    return ImageDistance(h)(z)
