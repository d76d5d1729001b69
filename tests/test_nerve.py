import json
import random
from fractions import Fraction

import pytest

from plgp.complexes import complex_to_obj, validate
import plgp.nerve as nerve_module
from plgp.errors import PreconditionError, SeparationError
from plgp.exact import PackedPairings, dist_sq, integer_points
from plgp.nerve import (
    Cover,
    PointCloud,
    build_cover,
    cloud_from_csv,
    nerve_complex,
    point_cloud,
    refine_for_separation,
)


F = Fraction


def chain_cloud():
    return point_cloud([[0], [1], [2]])


class TestPointCloud:
    def test_marks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            point_cloud([[0], [1]], b1=[0], b2=[0])

    def test_marks_must_be_in_range(self):
        with pytest.raises(ValueError):
            point_cloud([[0], [1]], b1=[5])

    def test_mixed_ambient_rejected(self):
        with pytest.raises(ValueError):
            point_cloud([[0, 1], [2]])


class TestBuildCover:
    def test_far_points_small_radius(self):
        cloud = point_cloud([[0, 0], [10, 0]], b1=[0], b2=[1])
        cover = build_cover(cloud, 1)
        assert cover.incidence == ((0,), (1,))
        assert cover.separated

    def test_huge_radius_kills_separation(self):
        cloud = point_cloud([[0, 0], [10, 0]], b1=[0], b2=[1])
        cover = build_cover(cloud, 100)
        assert cover.incidence == ((0, 1), (0, 1))
        assert not cover.separated

    def test_chain_incidences_are_singletons(self):
        cover = build_cover(chain_cloud(), F(3, 4))
        assert cover.incidence == ((0,), (1,), (2,))

    def test_closed_balls_boundary_counts(self):
        cloud = point_cloud([[0], [1]])
        cover = build_cover(cloud, 1)
        assert cover.incidence == ((0, 1), (0, 1))

    def test_radius_must_be_positive(self):
        with pytest.raises(PreconditionError):
            build_cover(chain_cloud(), 0)


class TestRefineForSeparation:
    def test_unit_separation_halves_to_quarter(self):
        cloud = point_cloud([[0], [1]], b1=[0], b2=[1])
        cover = refine_for_separation(cloud, 1)
        assert cover.radius == F(1, 4)
        assert cover.separated and not cover.violation

    def test_already_separating_radius_unchanged(self):
        cloud = point_cloud([[0], [1]], b1=[0], b2=[1])
        cover = refine_for_separation(cloud, F(1, 5))
        assert cover.radius == F(1, 5)

    def test_touching_marks_rejected(self):
        cloud = point_cloud([[0], [0], [1]], b1=[0], b2=[1])
        with pytest.raises(
            SeparationError, match="marked sets touch; no separating radius exists"
        ):
            refine_for_separation(cloud, 1)

    def test_no_marks_skips_separation(self):
        cover = refine_for_separation(chain_cloud(), 100)
        assert cover.radius == 100

    def test_element_flag_alone_is_not_enough(self):
        # elements separate individually, but a middle witness still joins
        # marked elements from both sides into one incidence set
        cloud = point_cloud(
            [[0], [F(2, 5)], [F(3, 5)], [1]], b1=[0], b2=[3]
        )
        base = build_cover(cloud, F(9, 20))
        assert base.separated and base.violation
        cover = refine_for_separation(cloud, F(9, 20))
        assert not cover.violation
        nerve = nerve_complex(cover)
        assert not validate(nerve)

    @staticmethod
    def built_radii(monkeypatch, cloud, radius):
        """The radii refine_for_separation hands to build_cover, in order."""
        radii = []

        def spy(cloud, r):
            radii.append(r)
            return build_cover(cloud, r)

        monkeypatch.setattr(nerve_module, "build_cover", spy)
        refine_for_separation(cloud, radius)
        return radii

    def test_rejected_radius_is_never_rebuilt(self, monkeypatch, bench_workloads):
        middle = point_cloud([[0], [F(2, 5)], [F(3, 5)], [1]], b1=[0], b2=[3])
        assert self.built_radii(monkeypatch, middle, F(9, 20)) == [
            F(9, 20),
            F(9, 40),
        ]
        rows, b1, b2 = bench_workloads.cloud_rows(1)
        bench = point_cloud(rows, b1, b2)
        assert self.built_radii(monkeypatch, bench, 2) == [2, 1]

    def test_violating_halved_radius_is_rebuilt_once_unchecked(self, monkeypatch):
        # at r = 3/10 the elements about 3/10 and 7/10 meet B1 and B2 and
        # share the witness 1/2; at 3/20 the four-link chain is at most
        # 3/5 < 1 long, so that cover is returned without its verdict
        cloud = point_cloud(
            [[0], [F(3, 10)], [F(1, 2)], [F(7, 10)], [1]], b1=[0], b2=[4]
        )
        assert build_cover(cloud, F(3, 10)).violation
        assert self.built_radii(monkeypatch, cloud, F(3, 5)) == [
            F(3, 5),
            F(3, 10),
            F(3, 20),
        ]
        cover = refine_for_separation(cloud, F(3, 5))
        assert "violation" not in vars(cover)
        assert cover_fields(cover) == cover_fields(oracle_refine(cloud, F(3, 5)))
        assert not cover.violation and not validate(nerve_complex(cover))

    def test_separating_request_computes_no_marked_distance(self, monkeypatch):
        # the cloud builds its integer frame once: a request that already
        # separates, and one that builds two covers and takes the
        # marked-set distance, each read the same frame; a later request on
        # the same cloud builds none
        frames = []

        def spy(points):
            frames.append(points)
            return integer_points(points)

        monkeypatch.setattr(nerve_module, "integer_points", spy)
        cloud = point_cloud([[0], [1]], b1=[0], b2=[1])
        assert refine_for_separation(cloud, F(1, 5)).radius == F(1, 5)
        assert len(frames) == 1
        frames.clear()
        cloud = point_cloud([[0], [1]], b1=[0], b2=[1])
        built = []
        build_cover = nerve_module.build_cover

        def counting(c, radius):
            built.append(radius)
            return build_cover(c, radius)

        monkeypatch.setattr(nerve_module, "build_cover", counting)
        assert refine_for_separation(cloud, 1).radius == F(1, 4)
        assert (built, len(frames)) == ([1, F(1, 4)], 1)
        assert refine_for_separation(cloud, 1).radius == F(1, 4)
        assert len(frames) == 1


def oracle_cover(cloud, radius):
    """The Fraction definition of the cover: point p meets ball i iff
    dist_sq(p, centers[i]) <= r^2, and element i meets a marked set iff one
    of its member points is marked."""
    radius = Fraction(radius)
    centers = cloud.points
    incidence = tuple(
        tuple(i for i, c in enumerate(centers) if dist_sq(p, c) <= radius * radius)
        for p in cloud.points
    )
    members = [
        {idx for idx, inc in enumerate(incidence) if i in inc}
        for i in range(len(centers))
    ]
    b1 = frozenset(i for i, mem in enumerate(members) if mem & cloud.b1)
    b2 = frozenset(i for i, mem in enumerate(members) if mem & cloud.b2)
    return Cover(
        incidence=incidence,
        b1_elements=b1,
        b2_elements=b2,
        separated=not (b1 & b2),
        radius=radius,
    )


def oracle_violation(cover):
    """The verdict by its set definition: an element meeting B1 and one
    meeting B2 share a sample point, so one nerve simplex holds both."""
    members = {}
    for p, inc in enumerate(cover.incidence):
        for i in inc:
            members.setdefault(i, set()).add(p)
    return any(
        members[i] & members[j]
        for i in cover.b1_elements
        for j in cover.b2_elements
    )


def oracle_refine(cloud, radius):
    """Halving refinement over oracle covers, with a Fraction distance; it
    checks every cover it builds, the last one included."""
    cover = oracle_cover(cloud, radius)
    if not cloud.b1 or not cloud.b2:
        return cover
    d_sq = min(
        dist_sq(cloud.points[i], cloud.points[j])
        for i in cloud.b1
        for j in cloud.b2
    )
    if d_sq == 0:
        raise SeparationError("marked sets touch")
    if cover.separated and not oracle_violation(cover):
        return cover
    r = Fraction(radius)
    while 4 * r * r >= d_sq:
        r /= 2
    cover = oracle_cover(cloud, r)
    while oracle_violation(cover):
        r /= 2
        cover = oracle_cover(cloud, r)
    return cover


RADII = (F(3, 7), F(5, 7), F(1), F(5, 2))
SMALL = (1, 2, 3, 7, 256)
# primes whose lcm over a cloud makes each packed slot many bytes wide
WIDE = (10**9 + 7, 998244353, 2**61 - 1)
WIDE_RADII = (
    F(10**9 + 6, 10**9 + 7),
    F(3 * 998244353 + 1, 998244353),
    F(5, 2**61 - 1),
)


def random_cloud(rng, m, radius, denominators=SMALL):
    """Points with mixed denominators and signs, a duplicate, and a pair at
    distance exactly radius (offset radius * (3/5, 4/5, 0, ...))."""
    points = [
        [F(rng.randint(-3 * d, 3 * d), d) for d in rng.choices(denominators, k=m)]
        for _ in range(rng.randint(2, 14))
    ]
    points.append(list(rng.choice(points)))
    base = rng.choice(points)
    offset = [radius * F(3, 5), radius * F(4, 5)] if m > 1 else [radius]
    offset += [F(0)] * (m - len(offset))
    points.append([a + b for a, b in zip(base, offset)])
    rng.shuffle(points)
    marked = rng.sample(range(len(points)), rng.randint(0, len(points)))
    cut = rng.randint(0, len(marked))
    return point_cloud(points, marked[:cut], marked[cut:])


def cover_fields(cover):
    return (
        cover.radius,
        cover.incidence,
        cover.b1_elements,
        cover.b2_elements,
        cover.separated,
    )


class TestIntegerCoverOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_random_clouds_match_fraction_definition(self, m):
        rng = random.Random(m)
        clouds = [
            (random_cloud(rng, m, radius), radius)
            for _ in range(12)
            for radius in RADII
        ]
        clouds += [
            (random_cloud(rng, m, radius, WIDE), radius)
            for _ in range(4)
            for radius in WIDE_RADII
        ]
        # an empty cloud, and one marked point
        clouds += [
            (point_cloud([]), F(1)),
            (point_cloud([[F(1, 3)] * m], b1=[0]), F(1)),
        ]
        for cloud, radius in clouds:
            got = build_cover(cloud, radius)
            assert cover_fields(got) == cover_fields(oracle_cover(cloud, radius))
            assert got.violation == oracle_violation(got)
            try:
                expected = oracle_refine(cloud, radius)
            except SeparationError:
                with pytest.raises(SeparationError):
                    refine_for_separation(cloud, radius)
                continue
            got = refine_for_separation(cloud, radius)
            assert cover_fields(got) == cover_fields(expected)

    def test_chain_clouds_refine_like_the_oracle(self, monkeypatch):
        # marks 0 and e1 with points between them: the halved radius often
        # still violates, so the unchecked rebuild at its half is compared
        # with the oracle's checked loop
        rng = random.Random(0)
        rebuilt = 0
        for _ in range(60):
            m = rng.choice((1, 2))
            points = [[F(0)] * m, [F(1)] + [F(0)] * (m - 1)]
            for _ in range(rng.randint(3, 12)):
                points.append(
                    [F(rng.randint(1, 39), 40)]
                    + [F(rng.randint(-3, 3), 40) for _ in range(m - 1)]
                )
            cloud = point_cloud(points, b1=[0], b2=[1])
            radius = F(rng.randint(5, 40), 20)
            radii = TestRefineForSeparation.built_radii(monkeypatch, cloud, radius)
            rebuilt += len(radii) == 3
            got = refine_for_separation(cloud, radius)
            assert cover_fields(got) == cover_fields(oracle_refine(cloud, radius))
        assert rebuilt > 0

    def test_boundary_pair_at_non_dyadic_radius(self):
        just_outside = [F(3, 7), F(4, 7) + F(1, 10**9)]
        cloud = point_cloud([[0, 0], [F(3, 7), F(4, 7)], just_outside])
        cover = build_cover(cloud, F(5, 7))
        assert cover.incidence == ((0, 1), (0, 1, 2), (1, 2))
        assert cover_fields(cover) == cover_fields(oracle_cover(cloud, F(5, 7)))

    def test_benchmark_cloud_refines_like_the_oracle(self, bench_workloads):
        self.check_benchmark_cloud(bench_workloads, 1)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_other_benchmark_clouds_refine_like_the_oracle(
        self, bench_workloads, seed
    ):
        self.check_benchmark_cloud(bench_workloads, seed)

    @pytest.mark.parametrize("seed", range(4, 11))
    def test_more_benchmark_clouds_cover_like_the_oracle(
        self, bench_workloads, monkeypatch, seed
    ):
        # every incidence row is one packed pairing; no pair distance is taken
        rows, b1, b2 = bench_workloads.cloud_rows(seed)
        cloud = point_cloud(rows, b1, b2)
        pairings = []
        signs = PackedPairings.signs

        def counting(self, p):
            pairings.append(p)
            return signs(self, p)

        def refused(p, q):
            raise AssertionError("build_cover took a pair distance")

        monkeypatch.setattr(PackedPairings, "signs", counting)
        monkeypatch.setattr(nerve_module, "_int_dist_sq", refused)
        for radius in (2, 1):
            pairings.clear()
            got = build_cover(cloud, radius)
            assert len(pairings) == len(rows)
            assert cover_fields(got) == cover_fields(oracle_cover(cloud, radius))

    @staticmethod
    def check_benchmark_cloud(bench_workloads, seed):
        rows, b1, b2 = bench_workloads.cloud_rows(seed)
        cloud = point_cloud(rows, b1, b2)
        got = refine_for_separation(cloud, 2)
        expected = oracle_refine(cloud, 2)
        assert cover_fields(got) == cover_fields(expected)
        assert complex_to_obj(nerve_complex(got)) == complex_to_obj(
            nerve_complex(expected)
        )


class TestNerveComplex:
    def test_chain_cover_gives_isolated_vertices(self):
        nerve = nerve_complex(build_cover(chain_cloud(), F(3, 4)))
        assert nerve.dimension == 0
        assert len(nerve.vertices) == 3

    def test_pairwise_disjoint_cover_zero_dimensional(self):
        cloud = point_cloud([[0, 0], [5, 0], [0, 5]])
        nerve = nerve_complex(build_cover(cloud, 1))
        assert nerve.dimension == 0

    def test_shared_point_gives_full_simplex(self):
        cloud = point_cloud([[0, 0], [1, 0], [0, 1]])
        nerve = nerve_complex(build_cover(cloud, 2))
        assert frozenset({"U0", "U1", "U2"}) in nerve.simplices

    def test_dimension_bounded_by_incidence(self):
        cloud = point_cloud([[0], [1], [2], [3], [4]])
        cover = build_cover(cloud, F(3, 2))
        nerve = nerve_complex(cover)
        assert nerve.dimension <= max(len(i) for i in cover.incidence) - 1

    def test_marks_propagate(self):
        cloud = point_cloud([[0], [1], [5], [6]], b1=[0, 1], b2=[2, 3])
        cover = refine_for_separation(cloud, F(3, 2))
        nerve = nerve_complex(cover)
        assert nerve.b1 and nerve.b2
        for s in nerve.simplices:
            assert not (s & nerve.b1 and s & nerve.b2)
        assert not validate(nerve)

    def test_middle_witness_rejected(self):
        # each element meets one marked side only, but the middle points'
        # incidence sets join elements of both sides into one nerve simplex
        cloud = point_cloud([[0], [F(2, 5)], [F(3, 5)], [1]], b1=[0], b2=[3])
        cover = build_cover(cloud, F(9, 20))
        assert cover.separated
        with pytest.raises(
            SeparationError, match="nerve simplex contains marked vertices from both sides"
        ):
            nerve_complex(cover)

    def test_unseparated_cover_rejected(self):
        # every element meets both marks, so each has a witness violation at
        # its own center, which is what nerve_complex tests
        cloud = point_cloud([[0], [1]], b1=[0], b2=[1])
        cover = build_cover(cloud, 2)
        assert not cover.separated and cover.violation
        with pytest.raises(
            SeparationError, match="nerve simplex contains marked vertices from both sides"
        ):
            nerve_complex(cover)


class TestCsvInput:
    def test_round_trip(self, tmp_path):
        # blank rows and trailing empty cells are skipped
        pts = tmp_path / "cloud.csv"
        pts.write_text("0,0,\n\n1/2,0.25\n , \n3, 4 ,,\n")
        marks = tmp_path / "marks.json"
        marks.write_text(json.dumps({"b1": [0], "b2": [2]}))
        cloud = cloud_from_csv(str(pts), str(marks))
        assert cloud.points == ((0, 0), (F(1, 2), F(1, 4)), (3, 4))
        assert cloud.b1 == {0} and cloud.b2 == {2}

    def test_marks_optional(self, tmp_path):
        pts = tmp_path / "cloud.csv"
        pts.write_text("1,2\n")
        cloud = cloud_from_csv(str(pts))
        assert cloud.b1 == frozenset() and cloud.b2 == frozenset()

    def test_malformed_cell_rejected(self, tmp_path):
        pts = tmp_path / "cloud.csv"
        pts.write_text("1,notanumber\n")
        with pytest.raises(ValueError):
            cloud_from_csv(str(pts))

    def test_empty_cell_before_a_coordinate_rejected(self, tmp_path):
        pts = tmp_path / "cloud.csv"
        pts.write_text("0,0\n3,,0\n")
        with pytest.raises(ValueError, match="row 2: empty cell before a coordinate"):
            cloud_from_csv(str(pts))
        pts.write_text(",1\n")
        with pytest.raises(ValueError, match="row 1"):
            cloud_from_csv(str(pts))
