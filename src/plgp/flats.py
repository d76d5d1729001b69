"""Affine d-flats in R^m: skewness, joins, intersections, transversal lines.

Every operation is an exact rational computation reduced to solve_affine or a
rank.  The transversal construction intersects the two joins span(z, f1) and
span(z, f2) and keeps the result only when it is a line that actually meets
both flats; the parallel and point-intersection branches return None, because
downstream only existence matters.

Secant enumeration no longer runs on this chain: it solves one integer
system per simplex pair (see plgp.secant).  The transversal and
line-simplex constructions here remain its independent oracle, in the tests
and the acceptance gate, and its fallback on rank-deficient systems; the
image distance and line canonical forms are still used directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import DegenerateGeometryError, PreconditionError
from .exact import (
    Matrix,
    affinely_independent,
    primitive_vector,
    rank,
    rat_str,
    solve_affine,
    vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .complexes import BarycentricPoint, PLMap, sorted_vertices


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
        if self.directions:
            if rank(Matrix.from_rows(self.directions)) != len(self.directions):
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
    direction = primitive_vector(line.directions[0])
    t = -vec_dot(line.base, direction) / vec_dot(direction, direction)
    foot = vec_add(line.base, vec_scale(t, direction))
    return AffineFlat(line.m, foot, (direction,), canonical=True)


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


def line_from_obj(obj) -> AffineFlat:
    return canonical_line(
        AffineFlat(len(obj["base"]), vec(obj["base"]), (vec(obj["direction"]),))
    )


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


def point_to_simplex_distance_sq(z, imgs) -> Fraction:
    """Exact squared distance from z to the convex hull of the given points.

    Enumerates the affine hull projection of every vertex subset; skips
    affinely dependent subsets (their hulls are covered by independent ones).
    """
    z = vec(z)
    best = None
    n = len(imgs)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            pts = [imgs[i] for i in subset]
            w0 = pts[0]
            if size == 1:
                cand = vec_sub(z, w0)
                d = vec_dot(cand, cand)
                if best is None or d < best:
                    best = d
                continue
            diffs = [vec_sub(p, w0) for p in pts[1:]]
            gram = Matrix.from_rows(
                [[vec_dot(a, b) for b in diffs] for a in diffs]
            )
            rhs = [vec_dot(a, vec_sub(z, w0)) for a in diffs]
            sol = solve_affine(gram, rhs)
            if sol is None or sol.kernel:
                continue
            lam = sol.particular
            mu0 = 1 - sum(lam, Fraction(0))
            if mu0 < 0 or any(x < 0 for x in lam):
                continue
            proj = w0
            for t, dvec in zip(lam, diffs):
                proj = vec_add(proj, vec_scale(t, dvec))
            gap = vec_sub(z, proj)
            d = vec_dot(gap, gap)
            if best is None or d < best:
                best = d
    return best


def point_to_image_distance_sq_lower(z, h: PLMap) -> Fraction:
    """Exact squared distance from z to the image polyhedron."""
    z = vec(z)
    if len(z) != h.m:
        raise ValueError("ambient dimension mismatch")
    tops = h.complex.maximal_simplices()
    if not tops:
        raise ValueError("empty complex has no image")
    best = None
    for s in tops:
        d = point_to_simplex_distance_sq(z, h.simplex_images(s))
        if best is None or d < best:
            best = d
    return best
