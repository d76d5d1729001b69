from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plgp.complexes import PLMap, SimplicialComplex, evaluate
from plgp.errors import DegenerateGeometryError, PreconditionError
from plgp.flats import (
    AffineFlat,
    canonical_line,
    contains_point,
    flats_equal,
    flats_skew,
    intersect_flats,
    join_point_flat,
    line_from_obj,
    line_key,
    line_meets_simplex,
    line_to_obj,
    point_to_image_distance_sq_lower,
    span_of_points,
    transversal_line_through_point,
)
from plgp.exact import affinely_independent, vec


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
        back = line_from_obj(obj)
        assert line_key(back) == line_key(line)
        assert obj["direction"] == ["0", "1", "-2"]

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
