import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import plgp
from plgp.complexes import PLMap, SimplicialComplex, evaluate, plmap_from_obj
from plgp.errors import DegenerateGeometryError, PreconditionError, ThinRegionError
from plgp.flats import (
    AffineFlat,
    ImageDistance,
    canonical_line,
    contains_point,
    flats_equal,
    flats_skew,
    intersect_flats,
    join_point_flat,
    line_key,
    line_meets_simplex,
    line_through,
    line_to_obj,
    point_to_image_distance_sq_lower,
    span_of_points,
    transversal_line_through_point,
)
from plgp.exact import (
    Matrix,
    affinely_independent,
    norm_sq,
    solve_affine,
    vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from plgp.secant import GRID, PROBE_BUDGET_FACTOR, probe_region_samples


F = Fraction

X_AXIS = AffineFlat(3, vec([0, 0, 0]), (vec([1, 0, 0]),))
Y_AXIS = AffineFlat(3, vec([0, 0, 0]), (vec([0, 1, 0]),))
Z_AXIS = AffineFlat(3, vec([0, 0, 0]), (vec([0, 0, 1]),))
PLANE_Y0 = AffineFlat(3, vec([0, 0, 0]), (vec([1, 0, 0]), vec([0, 0, 1])))
PLANE_X0 = AffineFlat(3, vec([0, 0, 0]), (vec([0, 1, 0]), vec([0, 0, 1])))
# the line {(0, t, 1)}
SHIFTED_Y = AffineFlat(3, vec([0, 0, 1]), (vec([0, 1, 0]),))


def segment_map(p, q):
    c = SimplicialComplex.from_maximal([["a", "b"]])
    return PLMap(c, len(p), {"a": vec(p), "b": vec(q)})


def triangle_map(p, q, r):
    c = SimplicialComplex.from_maximal([["a", "b", "c"]])
    return PLMap(c, len(p), {"a": vec(p), "b": vec(q), "c": vec(r)})


small_coord = st.integers(min_value=-4, max_value=4).map(Fraction)


def point_strategy(m):
    return st.tuples(*[small_coord for _ in range(m)])


class TestConstruction:
    def test_dependent_directions_rejected(self):
        with pytest.raises(ValueError):
            AffineFlat(3, vec([0, 0, 0]), (vec([1, 0, 0]), vec([2, 0, 0])))

    def test_zero_direction_rejected(self):
        # one direction is independent iff it is nonzero
        with pytest.raises(ValueError, match="dependent"):
            AffineFlat(3, vec([0, 0, 0]), (vec([0, 0, 0]),))
        assert AffineFlat(3, vec([0, 0, 0]), (vec([0, F(1, 9), 0]),)).d == 1

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AffineFlat(3, vec([0, 0]), (vec([1, 0, 0]),))

    def test_span_single_point(self):
        f = span_of_points([vec([0, 0, 0])])
        assert f.d == 0 and f.base == vec([0, 0, 0])

    def test_span_two_points_is_line(self):
        f = span_of_points([vec([0, 0, 0]), vec([1, 0, 0])])
        assert f.d == 1
        assert flats_equal(f, X_AXIS)

    def test_span_collinear_rejected(self):
        with pytest.raises(ValueError):
            span_of_points([vec([0, 0, 0]), vec([1, 0, 0]), vec([2, 0, 0])])


class TestContainsPoint:
    def test_on_x_axis(self):
        assert contains_point(X_AXIS, vec([5, 0, 0]))

    def test_off_x_axis(self):
        assert not contains_point(X_AXIS, vec([0, 1, 0]))

    def test_plane_membership(self):
        assert contains_point(PLANE_Y0, vec([2, 0, 7]))

    def test_zero_flat(self):
        f = AffineFlat(2, vec([1, 2]), ())
        assert contains_point(f, vec([1, 2]))
        assert not contains_point(f, vec([1, 3]))


class TestSkew:
    def test_skew_lines(self):
        assert flats_skew(X_AXIS, SHIFTED_Y)

    def test_parallel_lines_not_skew(self):
        shifted_x = AffineFlat(3, vec([0, 0, 1]), (vec([1, 0, 0]),))
        assert not flats_skew(X_AXIS, shifted_x)

    def test_intersecting_lines_not_skew(self):
        assert not flats_skew(X_AXIS, Y_AXIS)

    def test_dimension_precondition(self):
        with pytest.raises(PreconditionError):
            flats_skew(X_AXIS, PLANE_Y0)

    @given(
        p1=point_strategy(3), p2=point_strategy(3),
        q1=point_strategy(3), q2=point_strategy(3),
    )
    @settings(max_examples=200, deadline=None)
    def test_skew_iff_union_affinely_independent_segments(self, p1, p2, q1, q2):
        assume(p1 != p2 and q1 != q2)
        f1 = span_of_points([p1, p2])
        f2 = span_of_points([q1, q2])
        assert flats_skew(f1, f2) == affinely_independent([p1, p2, q1, q2])

    @given(pts=st.lists(point_strategy(5), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_skew_iff_union_affinely_independent_triangles(self, pts):
        assume(affinely_independent(pts[:3]) and affinely_independent(pts[3:]))
        f1 = span_of_points(pts[:3])
        f2 = span_of_points(pts[3:])
        assert flats_skew(f1, f2) == affinely_independent(pts)


class TestJoin:
    def test_join_point_with_x_axis(self):
        j = join_point_flat(vec([0, 0, 2]), X_AXIS)
        assert j.d == 2
        assert flats_equal(j, PLANE_Y0)

    def test_join_point_with_origin_in_plane(self):
        f = AffineFlat(2, vec([0, 0]), ())
        j = join_point_flat(vec([0, 1]), f)
        assert j.d == 1
        assert flats_equal(j, AffineFlat(2, vec([0, 0]), (vec([0, 1]),)))

    def test_join_rejects_contained_point(self):
        with pytest.raises(ValueError):
            join_point_flat(vec([5, 0, 0]), X_AXIS)


class TestIntersect:
    def test_two_planes_give_axis(self):
        line = intersect_flats(PLANE_Y0, PLANE_X0)
        assert line is not None and line.d == 1
        assert flats_equal(line, Z_AXIS)

    def test_parallel_planes_empty(self):
        z0 = AffineFlat(3, vec([0, 0, 0]), (vec([1, 0, 0]), vec([0, 1, 0])))
        z1 = AffineFlat(3, vec([0, 0, 1]), (vec([1, 0, 0]), vec([0, 1, 0])))
        assert intersect_flats(z0, z1) is None

    def test_self_intersection_identity(self):
        for f in (X_AXIS, PLANE_Y0, AffineFlat(3, vec([1, 2, 3]), ())):
            got = intersect_flats(f, f)
            assert got is not None and flats_equal(got, f)

    def test_point_flats(self):
        a = AffineFlat(2, vec([1, 1]), ())
        b = AffineFlat(2, vec([1, 1]), ())
        c = AffineFlat(2, vec([0, 1]), ())
        assert flats_equal(intersect_flats(a, b), a)
        assert intersect_flats(a, c) is None

    def test_line_meets_point_flat(self):
        p = AffineFlat(3, vec([2, 0, 0]), ())
        got = intersect_flats(X_AXIS, p)
        assert got is not None and got.d == 0 and got.base == vec([2, 0, 0])
        assert intersect_flats(p, X_AXIS) is not None
        off = AffineFlat(3, vec([2, 1, 0]), ())
        assert intersect_flats(X_AXIS, off) is None


class TestTransversal:
    def test_unique_transversal_is_z_axis(self):
        line = transversal_line_through_point(vec([0, 0, 2]), X_AXIS, SHIFTED_Y)
        assert line is not None
        assert flats_equal(line, Z_AXIS)
        hit1 = intersect_flats(line, X_AXIS)
        hit2 = intersect_flats(line, SHIFTED_Y)
        assert hit1.base == vec([0, 0, 0])
        assert hit2.base == vec([0, 0, 1])

    def test_candidate_parallel_to_flat_gives_none(self):
        assert transversal_line_through_point(vec([1, 1, 1]), X_AXIS, SHIFTED_Y) is None

    def test_point_on_flat_gives_none(self):
        assert transversal_line_through_point(vec([5, 0, 0]), X_AXIS, SHIFTED_Y) is None

    def test_non_skew_rejected(self):
        with pytest.raises(PreconditionError):
            transversal_line_through_point(vec([0, 0, 2]), X_AXIS, Y_AXIS)

    @given(
        p1=point_strategy(3), p2=point_strategy(3),
        q1=point_strategy(3), q2=point_strategy(3),
        z=point_strategy(3),
    )
    @settings(max_examples=200, deadline=None)
    def test_returned_line_contains_z_and_meets_both(self, p1, p2, q1, q2, z):
        assume(p1 != p2 and q1 != q2)
        f1 = span_of_points([p1, p2])
        f2 = span_of_points([q1, q2])
        assume(flats_skew(f1, f2))
        assume(not contains_point(f1, z) and not contains_point(f2, z))
        line = transversal_line_through_point(z, f1, f2)
        if line is None:
            return
        assert line.d == 1
        assert contains_point(line, z)
        assert intersect_flats(line, f1) is not None
        assert intersect_flats(line, f2) is not None


class TestLineMeetsSimplex:
    def test_midpoint_hit(self):
        h = segment_map([-1, 1, 0], [1, 1, 0])
        got = line_meets_simplex(Y_AXIS, h, ["a", "b"])
        assert got is not None
        point, bary = got
        assert point == vec([0, 1, 0])
        assert bary.weights == (F(1, 2), F(1, 2))

    def test_disjoint_parallel_gives_none(self):
        h = segment_map([0, 1, 0], [1, 1, 0])
        assert line_meets_simplex(X_AXIS, h, ["a", "b"]) is None

    def test_vertex_hit(self):
        h = segment_map([0, 0, 1], [1, 0, 1])
        got = line_meets_simplex(Z_AXIS, h, ["a", "b"])
        assert got is not None
        point, bary = got
        assert point == vec([0, 0, 1])
        assert bary.weights == (F(1), F(0))

    def test_hit_outside_segment_gives_none(self):
        h = segment_map([1, 1, 0], [2, 1, 0])
        assert line_meets_simplex(Y_AXIS, h, ["a", "b"]) is None

    def test_line_in_span_is_degenerate(self):
        h = segment_map([-1, 1, 0], [1, 1, 0])
        inside = AffineFlat(3, vec([0, 1, 0]), (vec([1, 0, 0]),))
        with pytest.raises(DegenerateGeometryError):
            line_meets_simplex(inside, h, ["a", "b"])

    def test_triangle_interior_hit(self):
        h = triangle_map([0, 0, 1], [4, 0, 1], [0, 4, 1])
        vertical = AffineFlat(3, vec([1, 1, 0]), (vec([0, 0, 1]),))
        got = line_meets_simplex(vertical, h, ["a", "b", "c"])
        assert got is not None
        point, bary = got
        assert point == vec([1, 1, 1])
        assert evaluate(h, bary) == point

    @given(
        base=point_strategy(3), tip=point_strategy(3),
        p=point_strategy(3), q=point_strategy(3),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_reproduce_point(self, base, tip, p, q):
        assume(tip != (F(0), F(0), F(0)))
        assume(p != q)
        line = AffineFlat(3, vec(base), (vec(tip),))
        h = segment_map(p, q)
        try:
            got = line_meets_simplex(line, h, ["a", "b"])
        except DegenerateGeometryError:
            return
        if got is None:
            return
        point, bary = got
        assert all(w >= 0 for w in bary.weights)
        assert sum(bary.weights) == 1
        assert evaluate(h, bary) == point
        assert contains_point(line, point)


class TestCanonicalLine:
    def test_idempotent_and_parameterization_invariant(self):
        a = AffineFlat(3, vec([2, 0, 0]), (vec([0, 0, 3]),))
        b = AffineFlat(3, vec([2, 0, 7]), (vec([0, 0, -1]),))
        assert line_key(a) == line_key(b)
        c = canonical_line(a)
        assert canonical_line(c) == c
        assert flats_equal(c, a)

    def test_base_is_closest_point_to_origin(self):
        line = AffineFlat(2, vec([3, 1]), (vec([1, 0]),))
        c = canonical_line(line)
        assert c.base == vec([0, 1])
        assert c.directions == (vec([1, 0]),)

    def test_json_round_trip(self):
        line = AffineFlat(3, vec([1, 2, 3]), (vec([0, -2, 4]),))
        obj = line_to_obj(line)
        assert obj["direction"] == ["0", "1", "-2"]

    def test_line_through_an_integer_direction(self):
        z = vec([F(1, 2), 2, -3])
        line = line_through(z, [0, -4, 8])
        assert line.canonical and line.directions == (vec([0, 1, -2]),)
        assert line == canonical_line(AffineFlat(3, z, (vec([0, -4, 8]),)))
        assert contains_point(line, z)

    def test_canonical_line_is_kept_and_compares_by_value(self):
        c = canonical_line(AffineFlat(3, vec([1, 2, 3]), (vec([0, -2, 4]),)))
        assert canonical_line(c) is c
        plain = AffineFlat(c.m, c.base, c.directions)
        assert not plain.canonical
        assert plain == c and hash(plain) == hash(c)
        # the canonical form is a fixed point, so trusting the flag is sound
        assert canonical_line(plain) == c


class TestPointToImageDistance:
    def test_foot_inside_segment(self):
        h = segment_map([0, 0, 0], [1, 0, 0])
        assert point_to_image_distance_sq_lower(vec([0, 0, 2]), h) == 4

    def test_nearest_endpoint(self):
        h = segment_map([0, 0, 0], [1, 0, 0])
        assert point_to_image_distance_sq_lower(vec([2, 0, 0]), h) == 1

    def test_projection_into_triangle_interior(self):
        h = triangle_map([0, 0, 0], [1, 0, 0], [0, 1, 0])
        assert point_to_image_distance_sq_lower(vec([0, 0, 1]), h) == 1

    def test_zero_iff_on_image(self):
        h = triangle_map([0, 0, 0], [4, 0, 0], [0, 4, 0])
        on = vec([1, 1, 0])
        off = vec([1, 1, F(1, 7)])
        assert point_to_image_distance_sq_lower(on, h) == 0
        assert point_to_image_distance_sq_lower(off, h) == F(1, 49)

    def test_multiple_simplices_take_minimum(self):
        c = SimplicialComplex.from_maximal([["a", "b"], ["c", "d"]])
        h = PLMap(c, 2, {
            "a": vec([0, 0]), "b": vec([1, 0]),
            "c": vec([0, 3]), "d": vec([1, 3]),
        })
        assert point_to_image_distance_sq_lower(vec([0, 1]), h) == 1

    @given(
        p=point_strategy(3), q=point_strategy(3), r=point_strategy(3),
        wa=st.integers(0, 8), wb=st.integers(0, 8), wc=st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_points_on_image_have_distance_zero(self, p, q, r, wa, wb, wc):
        assume(wa + wb + wc > 0)
        assume(affinely_independent([p, q, r]))
        h = triangle_map(p, q, r)
        total = wa + wb + wc
        z = tuple(
            (wa * p[i] + wb * q[i] + wc * r[i]) / total for i in range(3)
        )
        assert point_to_image_distance_sq_lower(z, h) == 0


def oracle_simplex_distance_sq(z, imgs):
    """Squared distance from z to the hull of imgs by Fraction Gram solves
    over every vertex subset, skipping affinely dependent subsets."""
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


def oracle_image_distance_sq(z, h):
    """The minimum of the subset oracle over the maximal simplices."""
    return min(
        oracle_simplex_distance_sq(z, h.simplex_images(s))
        for s in h.complex.maximal_simplices()
    )


DENOMINATORS = (1, 3, 7, 2**32)


def random_rational(rng, bound=4):
    den = rng.choice(DENOMINATORS)
    return F(rng.randint(-bound * den, bound * den), den)


def random_map(rng, m):
    """Seeded complex of up to six vertices (triangles, edges, a lone vertex)
    with rational images, often with a repeated vertex image and a collinear
    triangle, so some faces are degenerate."""
    names = "abcdef"
    tops = [["a", "b", "c"], ["c", "d"], ["d", "e", "f"], ["b", "e"], ["f"]]
    maximal = rng.sample(tops, rng.randint(1, len(tops)))
    c = SimplicialComplex.from_maximal(maximal)
    images = {v: tuple(random_rational(rng) for _ in range(m)) for v in names}
    if rng.random() < 0.5:
        images["b"] = images["a"]
    if rng.random() < 0.5:
        t = random_rational(rng, 1)
        images["f"] = tuple(a + t * (b - a) for a, b in zip(images["d"], images["e"]))
    return PLMap(c, m, {v: images[v] for v in c.vertices})


def hull_point(rng, h, simplex):
    weights = [F(rng.randint(0, 5)) for _ in simplex]
    weights[0] += 1
    total = sum(weights)
    imgs = h.simplex_images(simplex)
    return tuple(
        sum(w * img[i] for w, img in zip(weights, imgs)) / total for i in range(h.m)
    )


def normal_offset(imgs, v):
    """v minus its projection onto the direction space of imgs' hull."""
    diffs = [vec_sub(p, imgs[0]) for p in imgs[1:]]
    gram = Matrix.from_rows([[vec_dot(a, b) for b in diffs] for a in diffs])
    lam = solve_affine(gram, [vec_dot(a, v) for a in diffs]).particular
    for t, d in zip(lam, diffs):
        v = vec_sub(v, vec_scale(t, d))
    return v


class TestImageDistanceOracle:
    """The integer face table against the Fraction subset enumeration."""

    def check(self, h, z):
        got = point_to_image_distance_sq_lower(z, h)
        assert got == oracle_image_distance_sq(z, h)
        assert ImageDistance(h)(z) == got
        return got

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_random_maps(self, m):
        rng = random.Random(100 + m)
        zero = 0
        for _ in range(40):
            h = random_map(rng, m)
            table = ImageDistance(h)
            tops = h.complex.maximal_simplices()
            points = [tuple(random_rational(rng, 6) for _ in range(m)) for _ in range(3)]
            points.append(hull_point(rng, h, rng.choice(tops)))
            points.append(h.images[rng.choice(h.complex.vertices)])
            for z in points:
                d2 = table(z)
                assert d2 == oracle_image_distance_sq(z, h)
                zero += d2 == 0
        assert zero >= 80

    def test_degenerate_faces_are_skipped(self):
        # b repeats a's image and d, e, f are collinear: det G = 0 there
        c = SimplicialComplex.from_maximal([["a", "b", "c"], ["d", "e", "f"]])
        h = PLMap(c, 3, {
            "a": vec([0, 0, 0]), "b": vec([0, 0, 0]), "c": vec([2, 0, 0]),
            "d": vec([0, 4, 0]), "e": vec([2, 4, 0]), "f": vec([F(1, 3), 4, 0]),
        })
        table = ImageDistance(h)
        sizes = sorted(len(face.diffs) for _, faces in table.groups for face in faces)
        # the vertices and the edges ac, bc, de, df, ef; ab, abc and def
        # are degenerate
        assert sizes == [0] * 6 + [1] * 5
        for z in ([1, -1, 0], [1, 5, 1], [0, 2, F(1, 7)], [F(-1, 3), 0, 2]):
            self.check(h, vec(z))

    def test_vertex_and_image_points_are_at_distance_zero(self):
        rng = random.Random(7)
        for m in (2, 3, 5):
            h = random_map(rng, m)
            for v in h.complex.vertices:
                assert self.check(h, h.images[v]) == 0
            for s in h.complex.maximal_simplices():
                assert self.check(h, hull_point(rng, h, s)) == 0

    def test_foot_exactly_on_an_edge(self):
        rng = random.Random(11)
        for m in (3, 5):
            for _ in range(10):
                h = random_map(rng, m)
                tri = [s for s in h.complex.maximal_simplices() if len(s) == 3]
                if not tri or not affinely_independent(h.simplex_images(tri[0])):
                    continue
                imgs = h.simplex_images(tri[0])
                edge = vec_add(vec_scale(F(2, 5), imgs[1]), vec_scale(F(3, 5), imgs[2]))
                n = normal_offset(imgs, tuple(random_rational(rng) for _ in range(m)))
                z = vec_add(edge, n)
                assert oracle_simplex_distance_sq(z, imgs) == norm_sq(n)
                self.check(h, z)

    def test_closed_face_keeps_a_foot_on_its_boundary(self):
        # the minimum cannot show this, since a boundary foot also lies in a
        # smaller face, so ask the triangle face itself; w0 = a, the foot of
        # (1, 1, 3) is (1, 1, 0) on the edge bc (sum lambda = 1), that of
        # (1, 0, 3) is (1, 0, 0) on the edge ab (lambda_c = 0)
        table = ImageDistance(triangle_map([0, 0, 0], [2, 0, 0], [0, 2, 0]))
        assert table.scale == 1
        ((w0, faces),) = [g for g in table.groups if g[0] == (0, 0, 0)]
        (face,) = [face for face in faces if len(face.diffs) == 2]
        assert face.gap((1, 1, 3), 11, 1) == 9 * face.det
        assert face.gap((1, 0, 3), 10, 1) == 9 * face.det
        # just past the edge bc, and just past the edge ab
        assert face.gap((2, 1, 3), 14, 1) is None
        assert face.gap((1, -1, 3), 11, 1) is None

    def test_dimension_and_empty_complex(self):
        h = segment_map([0, 0, 0], [1, 0, 0])
        with pytest.raises(ValueError, match="ambient dimension"):
            point_to_image_distance_sq_lower(vec([0, 0]), h)
        empty = PLMap(SimplicialComplex((), frozenset()), 3, {})
        with pytest.raises(ValueError, match="empty complex"):
            ImageDistance(empty)


def oracle_samples(h, k, count, seed):
    """The probe sampler's draw loop with the oracle distance; also returns
    the number of draws rejected for lying closer than 1/k to the image."""
    rng = random.Random(seed)
    out, rejected = [], 0
    while len(out) < count:
        z = tuple(k * F(rng.randrange(-GRID, GRID + 1), GRID) for _ in range(h.m))
        if norm_sq(z) > k * k:
            continue
        d2 = oracle_image_distance_sq(z, h)
        if d2 * k * k < 1:
            rejected += 1
            continue
        out.append((z, d2))
    return out, rejected


class TestProbeSamplesAgainstOracle:
    def test_thin_region_with_a_draw_at_exactly_one_over_k(self):
        k, seed = F(1), 1
        rng = random.Random(seed)
        while True:
            z0 = tuple(k * F(rng.randrange(-GRID, GRID + 1), GRID) for _ in range(2))
            if norm_sq(z0) <= k * k:
                break
        # a segment whose nearest point to z0 is its interior point z0 + (1, 0)
        h = segment_map(
            [z0[0] + 1, z0[1] - 3], [z0[0] + 1, z0[1] + 3]
        )
        assert oracle_image_distance_sq(z0, h) == 1 / (k * k)
        expected, rejected = oracle_samples(h, k, 15, seed)
        assert rejected >= 10
        samples = probe_region_samples(h, k, 15, seed)
        assert samples[0].z == z0 and samples[0].image_distance_sq == 1
        assert [(p.z, p.image_distance_sq) for p in samples] == expected

    def fraction_rule(self, h, k, count, seed):
        """The sampler's draw loop as it stood with a Fraction z per draw and
        a Fraction norm test: (samples, None), or (samples so far, draws)
        when the draw budget runs out."""
        rng = random.Random(seed)
        distance_sq = ImageDistance(h)
        out, draws = [], 0
        while len(out) < count:
            if draws >= PROBE_BUDGET_FACTOR * count:
                return out, draws
            draws += 1
            z = tuple(k * F(rng.randrange(-GRID, GRID + 1), GRID) for _ in range(h.m))
            if norm_sq(z) > k * k:
                continue
            d2 = distance_sq(z)
            if d2 < 1 / (k * k):
                continue
            out.append((z, d2))
        return out, None

    @pytest.mark.parametrize(
        "name", ["hexagon", "quadrilateral", "triangles5", "triangles5-r6", "mixed5"]
    )
    def test_integer_rejection_draws_the_fraction_rules_samples(self, name):
        # k = 3 fills the request; k = 1 runs out of draws (hexagon after one
        # sample), where the refusal must name the same draw count
        fixture = Path(plgp.__file__).parent / "fixtures" / (name + ".json")
        h = plmap_from_obj(json.loads(fixture.read_text()))
        thin = 0
        for seed in range(1, 21):
            for k, count in ((F(3), 4), (F(1), 1)):
                expected, draws = self.fraction_rule(h, k, count, seed)
                if draws is None:
                    samples = probe_region_samples(h, k, count, seed)
                    assert [(p.z, p.image_distance_sq) for p in samples] == expected
                    continue
                thin += 1
                message = "%d draws yielded %d of %d samples" % (draws, len(expected), count)
                with pytest.raises(ThinRegionError, match=message):
                    probe_region_samples(h, k, count, seed)
        assert thin > 0
