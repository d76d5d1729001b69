import json
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import plgp.perturb
from plgp.complexes import (
    BarycentricPoint,
    PLMap,
    SimplicialComplex,
    barycentric_subdivide,
    closeness_bound,
    evaluate,
    later_sharing,
    plmap_from_obj,
    sorted_vertices,
    subdivide_until,
)
from plgp.errors import PerturbationBudgetError, PreconditionError
from plgp.exact import (
    Matrix,
    PackedPairings,
    affinely_independent,
    det,
    expands_nonzero,
    norm_sq,
    plucker,
    rank,
    solve_affine,
    vec,
    vec_sub,
)
from plgp.flats import flats_skew, span_of_points
from plgp.perturb import (
    GRID,
    MaximalVerdicts,
    _displacement_bound,
    _draw_displacement,
    certificate_to_obj,
    general_position_certificate,
    perturb_to_general_position,
    project,
    report_to_obj,
    require_ambient_bound,
)


F = Fraction
FIXTURES = Path(plgp.perturb.__file__).parent / "fixtures"


def two_segments(p1, p2, q1, q2):
    c = SimplicialComplex.from_maximal([["a", "b"], ["c", "d"]])
    return PLMap(c, len(p1), {
        "a": vec(p1), "b": vec(p2), "c": vec(q1), "d": vec(q2),
    })


def generic_segments():
    return two_segments([0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 2])


def coplanar_segments():
    return two_segments([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0])


class TestCertificate:
    def test_generic_segments_pass(self):
        cert = general_position_certificate(generic_segments())
        assert cert.overall
        simplex_verdicts, pair_verdicts = face_verdicts(cert)
        assert all(ok for _, ok in simplex_verdicts)
        assert all(ok for _, _, ok in pair_verdicts)

    def test_coplanar_pair_fails(self):
        cert = general_position_certificate(coplanar_segments())
        assert not cert.overall
        simplex_verdicts, pair_verdicts = face_verdicts(cert)
        bad = {frozenset((s1, s2)) for s1, s2, ok in pair_verdicts if not ok}
        assert frozenset((frozenset("ab"), frozenset("cd"))) in bad
        assert all(ok for _, ok in simplex_verdicts)

    def test_single_vertex_passes(self):
        c = SimplicialComplex.from_maximal([["a"]])
        h = PLMap(c, 3, {"a": vec([1, 2, 3])})
        assert general_position_certificate(h).overall

    def test_dimension_precondition(self):
        c = SimplicialComplex.from_maximal([["a", "b", "c"]])
        h = PLMap(c, 3, {
            "a": vec([0, 0, 0]), "b": vec([1, 0, 0]), "c": vec([0, 1, 0]),
        })
        with pytest.raises(PreconditionError):
            general_position_certificate(h)

    @pytest.mark.parametrize("m, n", [(0, -1), (1, 0), (3, 1), (5, 2), (7, 3)])
    def test_ambient_bound_passes(self, m, n):
        require_ambient_bound(m, n)

    @pytest.mark.parametrize("m, n", [(0, 0), (2, 1), (4, 2), (6, 3)])
    def test_ambient_bound_refused(self, m, n):
        with pytest.raises(PreconditionError) as err:
            require_ambient_bound(m, n)
        assert str(err.value) == (
            "ambient dimension %d is below the general-position bound %d"
            % (m, 2 * n + 1)
        )

    def test_every_pair_listed(self):
        h = generic_segments()
        k = len(h.complex.simplices)
        obj = certificate_to_obj(general_position_certificate(h))
        assert obj["pairs_checked"] == k * (k - 1) // 2
        assert obj["simplices_checked"] == k

    def test_failed_vertices_collects_participants(self):
        cert = general_position_certificate(coplanar_segments())
        assert cert.moved == {"a", "b", "c", "d"}
        assert set().union(*failing_unions(cert)) == cert.moved

    def test_serialization_elides_verdicts_when_clean(self):
        # a failing certificate is never printed (the CLI exits 4), and it
        # serializes to the same three keys as a passing one
        clean = certificate_to_obj(general_position_certificate(generic_segments()))
        assert clean == {"overall": True, "simplices_checked": 6, "pairs_checked": 15}
        dirty = certificate_to_obj(general_position_certificate(coplanar_segments()))
        assert dirty == {"overall": False, "simplices_checked": 6, "pairs_checked": 15}


def reference_certificate(h):
    """Every face and every face pair ranked over Fractions: the oracle for
    the maximal-pair certificate.  Returns (simplex verdicts, pair verdicts,
    overall, failed vertices)."""
    def independent(s):
        return affinely_independent([h.images[v] for v in sorted_vertices(s)])

    simplex_verdicts = [(s, independent(s)) for s in h.complex.sorted_simplices()]
    pair_verdicts = [
        (s1, s2, independent(s1 | s2))
        for s1, s2 in combinations(h.complex.sorted_simplices(), 2)
    ]
    overall = all(ok for _, ok in simplex_verdicts) and all(
        ok for _, _, ok in pair_verdicts
    )
    bad = set()
    for s, ok in simplex_verdicts:
        if not ok:
            bad |= s
    for s1, s2, ok in pair_verdicts:
        if not ok:
            bad |= s1 | s2
    return simplex_verdicts, pair_verdicts, overall, bad


def top_flags(mv):
    """Per top, whether its image simplex is degenerate, by an integer rank."""
    return [not mv.independent(t) for t in mv.tops]


def per_pair_flags(mv):
    """One flag per pair in combinations(tops, 2) order, set iff the pair's
    union is dependent, by one integer rank (MaximalVerdicts.independent)
    per pair; a pair holding a failing top is set."""
    bad = top_flags(mv)
    return bytes(
        bad[i] or bad[j] or not mv.independent(mv.tops[i] | mv.tops[j])
        for i, j in combinations(range(len(mv.tops)), 2)
    )


def failing_unions(cert, flags=None):
    """The failing maximal simplices, then the failing maximal pairs' unions,
    read off top_flags and the pair flags (per_pair_flags by default)."""
    if flags is None:
        flags = per_pair_flags(cert)
    failing = [t for t, bad in zip(cert.tops, top_flags(cert)) if bad]
    pairs = combinations(cert.tops, 2)
    return failing + [t1 | t2 for (t1, t2), bad in zip(pairs, flags) if bad]


def face_verdicts(cert):
    """The certificate's verdict on every face and every face pair, in
    sorted_simplices order: ([(s, ok), ...], [(s1, s2, ok), ...]).

    A union is ranked only when it lies inside a failing maximal union;
    every other union lies inside a passing one and is independent.  A
    passing certificate has no failing union, so nothing is ranked.
    """
    failing = [] if cert.overall else failing_unions(cert)

    def ok(union):
        return not any(union <= f for f in failing) or cert.independent(union)

    faces = cert.map.complex.sorted_simplices()
    return (
        [(s, ok(s)) for s in faces],
        [(s1, s2, ok(s1 | s2)) for s1, s2 in combinations(faces, 2)],
    )


def map_of(maximal, images, m):
    c = SimplicialComplex.from_maximal(maximal)
    return PLMap(c, m, {v: vec(images[v]) for v in c.vertices})


def random_map(rng):
    verts = "abcdefgh"[: rng.randrange(4, 9)]
    n = rng.randrange(1, 3)
    maximal = [
        rng.sample(verts, rng.randrange(1, n + 2)) for _ in range(rng.randrange(2, 6))
    ]
    m = 2 * n + 1
    # 0/1 cube corners make coincidences, coplanarities and flat simplices common
    images = {v: [rng.randrange(2) for _ in range(m)] for v in verts}
    return map_of(maximal, images, m)


DEGENERATE_MAPS = {
    "coplanar segments": coplanar_segments(),
    "repeated vertex image": map_of(
        [["a", "b"], ["c", "d"]],
        {"a": [0, 0, 0], "b": [1, 0, 0], "c": [1, 0, 0], "d": [0, 1, 1]}, 3,
    ),
    "flat triangle": map_of(
        [["a", "b", "c"], ["d", "e"]],
        {"a": [0] * 5, "b": [1, 0, 0, 0, 0], "c": [2, 0, 0, 0, 0],
         "d": [0, 1, 0, 0, 0], "e": [0, 0, 1, 0, 0]}, 5,
    ),
    "vertex-sharing maximal pairs": map_of(
        [["a", "b", "c"], ["c", "d", "e"], ["a", "e"]],
        {"a": [0] * 5, "b": [1, 0, 0, 0, 0], "c": [0, 1, 0, 0, 0],
         "d": [0, 0, 1, 0, 0], "e": [1, 1, 0, 0, 0]}, 5,
    ),
    "isolated vertex beside a triangle": map_of(
        [["a", "b", "c"], ["d"]],
        {"a": [0] * 5, "b": [1, 0, 0, 0, 0], "c": [0, 1, 0, 0, 0],
         "d": [F(1, 2), F(1, 2), 0, 0, 0]}, 5,
    ),
}


class TestMaximalPairOracle:
    def check(self, h):
        simplex_verdicts, pair_verdicts, overall, bad = reference_certificate(h)
        cert = general_position_certificate(h)
        assert cert.overall == overall
        assert cert.moved == bad
        assert face_verdicts(cert) == (simplex_verdicts, pair_verdicts)
        obj = certificate_to_obj(cert)
        assert obj["simplices_checked"] == len(simplex_verdicts)
        assert obj["pairs_checked"] == len(pair_verdicts)
        assert set().union(*failing_unions(cert)) == bad
        again = general_position_certificate(h)
        assert (again.moved, again.overall) == (cert.moved, cert.overall)
        return overall

    @pytest.mark.parametrize("name", sorted(DEGENERATE_MAPS))
    def test_degenerate_maps(self, name):
        assert not self.check(DEGENERATE_MAPS[name])

    def test_generic_segments(self):
        assert self.check(generic_segments())

    def test_seeded_random_maps(self):
        rng = random.Random(2010)
        outcomes = {self.check(random_map(rng)) for _ in range(60)}
        assert outcomes == {True, False}

    def test_perturbed_subdivision(self):
        h1 = subdivide_until(coplanar_segments(), F(1, 2))
        assert not self.check(h1)
        h, _ = perturb_to_general_position(h1, F(1, 2), seed=3)
        assert self.check(h)

    def test_clean_serialization_never_iterates_verdicts(self, monkeypatch):
        cert = general_position_certificate(generic_segments())

        def refuse(self, *args):
            raise AssertionError("verdicts iterated")

        monkeypatch.setattr(MaximalVerdicts, "_sharing_independent", refuse)
        monkeypatch.setattr(MaximalVerdicts, "_disjoint_moved", refuse)
        monkeypatch.setattr(MaximalVerdicts, "independent", refuse)
        obj = certificate_to_obj(cert)
        assert obj == {"overall": True, "simplices_checked": 6, "pairs_checked": 15}

    def test_passing_verdicts_rank_nothing(self, monkeypatch):
        cert = general_position_certificate(generic_segments())

        def refuse(self, vertices):
            raise AssertionError("rank on a passing certificate")

        monkeypatch.setattr(MaximalVerdicts, "independent", refuse)
        simplex_verdicts, pair_verdicts = face_verdicts(cert)
        assert all(ok for _, _, ok in pair_verdicts)
        assert all(ok for _, ok in simplex_verdicts)


def reference_pair_flags(h, tops):
    """Pair flags read off reference_certificate's Fraction face-pair ranks."""
    _, pair_verdicts, _, _ = reference_certificate(h)
    ok = {frozenset((s1, s2)): ok for s1, s2, ok in pair_verdicts}
    return bytes(not ok[frozenset((t1, t2))] for t1, t2 in combinations(tops, 2))


def seeded_complex_map(rng, n, m, repeat, pure=False):
    """A random n-complex in R^m on a coarse integer grid, subdivided once;
    with pure, only n-simplices, so square at m = 2n+1.

    repeat gives one vertex of the first top the image of another vertex
    of that top ("inside": its subdivided tops are flat) or of a vertex off
    it ("outside"), or None.  The grid makes dependent pairs common;
    subdivision adds tops sharing 1..n vertices, and tops inside one old
    simplex whose unions are dependent.
    """
    verts = "abcdefgh"[: rng.randrange(n + 3, n + 6)]
    maximal = [rng.sample(verts, n + 1) for _ in range(rng.randrange(2, 4))]
    if not pure:
        maximal.append(rng.sample(verts, rng.randrange(1, n + 1)))
    images = {v: [rng.randrange(-1, 2) for _ in range(m)] for v in verts}
    first = maximal[0]
    if repeat == "inside":
        images[first[1]] = images[first[0]]
    elif repeat == "outside":
        images[next(v for v in verts if v not in first)] = images[first[0]]
    return barycentric_subdivide(map_of(maximal, images, m))


def shared_sizes(mv):
    return {len(t1 & t2) for t1, t2 in combinations(mv.tops, 2)}


def flat_top_map():
    # ghi is flat, e repeats b's image; the edges share 0 or 1 vertex
    e = [[int(i == j) for j in range(5)] for i in range(5)]
    return map_of(
        [["a", "b"], ["b", "c"], ["c", "d"], ["e", "f"], ["g", "h", "i"]],
        {"a": [0] * 5, "b": e[0], "c": e[1], "d": e[2], "e": e[0], "f": e[3],
         "g": e[4], "h": [0, 0, 0, 0, 2], "i": [0, 0, 0, 0, 3]}, 5,
    )


def fixture_map(name):
    return plmap_from_obj(json.loads((FIXTURES / (name + ".json")).read_text()))


def check_certificate(h, reference=False):
    """(MaximalVerdicts(h), per_pair_flags of its pairs): the flags checked,
    with reference, against reference_certificate; moved against the
    failing unions they give."""
    mv = MaximalVerdicts(h)
    flags = per_pair_flags(mv)
    assert mv.moved == set().union(*failing_unions(mv, flags))
    assert mv.overall == (not mv.moved)
    if reference:
        assert flags == reference_pair_flags(h, mv.tops)
        assert mv.moved == reference_certificate(h)[3]
    return mv, flags


class TestPerTopCertificate:
    """The certificate, from one Plücker vector per top, against the
    failing unions of the per-pair union ranks."""

    # m = 2n+1, and past it, where Pi (perturb.project) folds the
    # coordinates past 2n+2 into the first 2n+2
    CORPUS = {
        (1, 3): (71, 9), (2, 5): (72, 6), (3, 7): (73, 3),
        (1, 4): (76, 6), (1, 5): (77, 6), (2, 6): (78, 3), (2, 7): (79, 3),
    }

    @pytest.mark.parametrize("n,m", sorted(CORPUS))
    def test_subdivided_and_perturbed_maps(self, n, m):
        seed, count = self.CORPUS[(n, m)]
        rng = random.Random(seed)
        bad_tops = bad_pairs = good_pairs = 0
        shared = set()
        for k in range(count):
            h1 = seeded_complex_map(rng, n, m, ("inside", "outside", None)[k % 3])
            small = len(h1.complex.simplices) <= 30
            mv, flags = check_certificate(h1, reference=small)
            bad_tops += sum(top_flags(mv))
            bad_pairs += sum(flags)
            good_pairs += flags.count(0)
            shared |= shared_sizes(mv)
            h, report = perturb_to_general_position(h1, F(1, 2), seed=k)
            assert report.rounds >= 1
            assert not any(check_certificate(h, reference=small)[1])
        assert bad_tops and bad_pairs and good_pairs
        assert set(range(n + 1)) <= shared

    def test_flat_top_and_repeated_image_across_tops(self):
        mv, flags = check_certificate(flat_top_map(), reference=True)
        assert top_flags(mv) == [False, False, False, False, True]
        assert flags == bytes([0, 0, 1, 1, 0, 1, 1, 0, 1, 1])

    def test_more_extra_vertices_than_free_columns(self):
        # triangles in R^3 (below the certificate's m >= 2n+1): a pair needs
        # at least two vertices beyond a triangle, five rows in four columns
        h = map_of(
            [["a", "b", "c"], ["c", "d", "e"], ["f", "g", "h"]],
            {"a": [0, 0, 0], "b": [1, 0, 0], "c": [0, 1, 0], "d": [0, 0, 1],
             "e": [1, 1, 1], "f": [2, 0, 1], "g": [0, 3, 1], "h": [1, 1, 5]}, 3,
        )
        mv, flags = check_certificate(h, reference=True)
        assert top_flags(mv) == [False, False, False]
        assert flags == b"\x01\x01\x01"

    def test_failing_top_fails_its_pairs_without_a_rank(self, monkeypatch):
        # the passing edge ab sorts before the flat triangle cde
        h = map_of(
            [["a", "b"], ["c", "d", "e"]],
            {"a": [0, 0, 1, 0, 0], "b": [0, 0, 0, 1, 0], "c": [0] * 5,
             "d": [1, 0, 0, 0, 0], "e": [2, 0, 0, 0, 0]}, 5,
        )

        def refuse(*args):
            raise AssertionError("decided a pair with a failing top")

        monkeypatch.setattr(MaximalVerdicts, "_sharing_independent", refuse)
        monkeypatch.setattr(MaximalVerdicts, "_disjoint_moved", refuse)
        mv = MaximalVerdicts(h)
        assert mv.moved == set("abcde")
        assert top_flags(mv) == [False, True]
        assert per_pair_flags(mv) == b"\x01"

    def test_each_top_eliminated_once(self, monkeypatch):
        # one Plücker vector per top decides the top and, expanded, its
        # vertex-sharing pairs; no union is ranked whole on a square map
        built = []
        building = []

        def spy(rows):
            built.append(rows)
            return plucker(rows)

        independent = MaximalVerdicts.independent

        def refuse(self, vertices):
            # only a pair holding a top of fewer vertices is ranked whole
            mixed = plgp.perturb._mixed_pairs(self.tops, self.k)
            if building and vertices not in {self.tops[i] | self.tops[j] for i, j in mixed}:
                raise AssertionError("full elimination of a union")
            return independent(self, vertices)

        monkeypatch.setattr(plgp.perturb, "plucker", spy)
        monkeypatch.setattr(MaximalVerdicts, "independent", refuse)
        rng = random.Random(74)
        bad_tops = bad_pairs = good_pairs = 0
        for repeat in ("inside", "outside", None):
            h1 = seeded_complex_map(rng, 2, 5, repeat)
            h, _ = perturb_to_general_position(h1, F(1, 2), seed=1)
            for g in (h1, h):
                built.clear()
                building.append(g)
                mv = MaximalVerdicts(g)
                building.clear()
                assert len(built) == len(mv.tops)
                bad_tops += sum(top_flags(mv))
                flags = per_pair_flags(mv)
                bad_pairs += sum(flags)
                good_pairs += flags.count(0)
        assert bad_tops and bad_pairs and good_pairs

    def test_certificate_keeps_no_echelon(self, monkeypatch):
        # each top's elimination, its Plücker vector, dies with __init__
        refs = []

        class Vector(list):
            """A Plücker vector, in a type a weakref can watch."""

        def spy(rows):
            v = Vector(plucker(rows))
            refs.append(weakref.ref(v))
            return v

        monkeypatch.setattr(plgp.perturb, "plucker", spy)
        for h in [
            generic_segments(),  # passes: every pair decided
            coplanar_segments(),  # a vertex-disjoint pair fails
            flat_top_map(),  # a failing top stops the walk
            subdivide_until(fixture_map("triangles5"), F(1, 2)),  # sharing pairs do
        ]:
            refs.clear()
            cert = MaximalVerdicts(h)
            assert len(refs) == len(cert.tops)
            assert all(r() is None for r in refs)

    def test_each_vector_dropped_after_its_row(self, monkeypatch):
        # one list of vectors serves both passes: row a of the packed walk
        # runs with its own vector alive and every earlier row's freed
        h1 = subdivide_until(fixture_map("triangles5-r6"), F(1, 2))
        h = perturb_to_general_position(h1, F(1, 2), seed=1)[0]
        refs = []

        class Vector(list):
            """A Plücker vector, in a type a weakref can watch."""

        def spy(rows):
            v = Vector(plucker(rows))
            refs.append(weakref.ref(v))
            return v

        rows = []
        zeros = PackedPairings.zeros

        def pairing(self, p, start=0):
            # the walk's row start - 1, over the tops of k vertices
            tops = h.complex.maximal_simplices()
            full = [i for i, t in enumerate(tops) if len(t) == max(map(len, tops))]
            alive = [refs[i]() is not None for i in full[:start]]
            assert alive == [False] * (start - 1) + [True]
            rows.append(start - 1)
            return zeros(self, p, start)

        monkeypatch.setattr(plgp.perturb, "plucker", spy)
        monkeypatch.setattr(PackedPairings, "zeros", pairing)
        cert = MaximalVerdicts(h)
        assert cert.overall
        assert rows == list(range(len(cert.tops)))

    def test_sharing_index_dropped_before_the_vertex_disjoint_pairs(self, monkeypatch):
        h1 = subdivide_until(fixture_map("triangles5"), F(1, 2))
        maps = [
            coplanar_segments(),  # no sharing pair; a vertex-disjoint pair fails
            perturb_to_general_position(h1, F(1, 2), seed=1)[0],  # passes
        ]

        class Index(list):
            """later_sharing's list, in a type a weakref can watch."""

        indexes = []

        def watched(tops):
            index = Index(later_sharing(tops))
            indexes.append(weakref.ref(index))
            return index

        alive = []
        zeros = PackedPairings.zeros

        def pairing(self, p, start=0):
            # the packed walk decides only vertex-disjoint pairs
            alive.append(indexes[-1]() is not None)
            return zeros(self, p, start)

        monkeypatch.setattr(plgp.perturb, "later_sharing", watched)
        monkeypatch.setattr(PackedPairings, "zeros", pairing)
        for h in maps:
            alive.clear()
            MaximalVerdicts(h)
            assert alive and not any(alive)

    # the failing pairs of each subdivided fixture map before perturbation,
    # by per_pair_flags; every fixture map is square
    # (|sigma| + |tau| = m + 1), so the certificate decides its
    # vertex-disjoint pairs in the packed walk, once the sharing pairs leave
    # a vertex unmoved
    FIXTURE_FAILING = {
        ("triangles5", F(1, 2)): 30,
        ("hexagon", F(1, 4)): 738,
        ("triangles5", F(1, 4)): 1260,
        ("hexagon", F(1, 8)): 3018,
    }

    @pytest.mark.parametrize("name,delta", list(FIXTURE_FAILING))
    def test_fixture_maps(self, name, delta):
        h1 = subdivide_until(fixture_map(name), delta)
        _, flags = check_certificate(h1)
        assert sum(flags) == self.FIXTURE_FAILING[name, delta]
        h, report = perturb_to_general_position(h1, delta, seed=1)
        assert not any(check_certificate(h)[1])
        assert report.rounds == (1 if any(flags) else 0)


def pair_keys(cert, sharing=None):
    """The (sigma, tau - sigma) keys of cert's pairs of passing tops, all of
    them or only those that share a vertex (sharing True) or not (False)."""
    return Counter(
        (t1, t2 - t1)
        for (t1, t2), (b1, b2) in zip(
            combinations(cert.tops, 2), combinations(top_flags(cert), 2)
        )
        if not (b1 or b2) and sharing in (None, bool(t1 & t2))
    )


class TestMovedVertices:
    """MaximalVerdicts.moved, the set a resample round moves, against the
    reference certificate's failing vertices and the per-pair union ranks."""

    def check(self, h):
        small = len(h.complex.simplices) <= 30
        return set(check_certificate(h, reference=small)[0].moved)

    @pytest.mark.parametrize("n,m", sorted(TestPerTopCertificate.CORPUS))
    def test_per_top_corpus(self, n, m):
        seed, count = TestPerTopCertificate.CORPUS[(n, m)]
        rng = random.Random(seed)
        for k in range(count):
            h1 = seeded_complex_map(rng, n, m, ("inside", "outside", None)[k % 3])
            assert self.check(h1)
            h, _ = perturb_to_general_position(h1, F(1, 2), seed=k)
            assert not self.check(h)

    def test_seeded_random_maps(self):
        rng = random.Random(2010)
        sizes = [len(self.check(random_map(rng))) for _ in range(60)]
        assert 0 in sizes and len(set(sizes)) > 2

    def test_flat_top_moves_every_vertex_without_a_reduction(self, monkeypatch):
        h = flat_top_map()
        self.check(h)

        def refuse(*args):
            raise AssertionError("decided a pair on a map with a failing top")

        monkeypatch.setattr(MaximalVerdicts, "_sharing_independent", refuse)
        monkeypatch.setattr(MaximalVerdicts, "_disjoint_moved", refuse)
        assert MaximalVerdicts(h).moved == set(h.complex.vertices)

    @pytest.mark.parametrize("case", ["passing", "sharing pairs cover nothing",
                                      "sharing pairs cover some vertices"])
    def test_certificate_built_on_round_zero_echelons(self, monkeypatch, case):
        # when the failing tops and sharing pairs leave a vertex unmoved, the
        # vertex-disjoint pairs are decided on the same Plücker vectors, one
        # per top, computed once
        h, expected = {
            "passing": (generic_segments(), set()),
            # the sharing pair ab, bc passes; of the vertex-disjoint pairs
            # only de, fg fails: both lie in the plane z = 7
            "sharing pairs cover nothing": (map_of(
                [["a", "b"], ["b", "c"], ["d", "e"], ["f", "g"]],
                {"a": [0, 0, 0], "b": [1, 0, 0], "c": [1, 1, 3], "d": [0, 2, 7],
                 "e": [1, 3, 7], "f": [0, 5, 7], "g": [2, 4, 7]}, 3,
            ), set("defg")),
            # abc is collinear, so the sharing pair ab, bc fails; de and fg
            # lie in the plane z = 1; hi is generic and stays
            "sharing pairs cover some vertices": (map_of(
                [["a", "b"], ["b", "c"], ["d", "e"], ["f", "g"], ["h", "i"]],
                {"a": [0, 0, 0], "b": [1, 0, 0], "c": [2, 0, 0], "d": [0, 2, 1],
                 "e": [1, 3, 1], "f": [3, 5, 1], "g": [2, 7, 1], "h": [5, 1, 9],
                 "i": [7, 4, 2]}, 3,
            ), set("abcdefg")),
        }[case]
        assert self.check(h) == expected
        made = []

        def recording(rows):
            made.append(rows)
            return plucker(rows)

        monkeypatch.setattr(plgp.perturb, "plucker", recording)
        cert = MaximalVerdicts(h)
        assert cert.moved == expected and cert.overall == (not expected)
        assert len(made) == len(cert.tops)

    @pytest.mark.parametrize("name,delta", list(TestPerTopCertificate.FIXTURE_FAILING))
    def test_fixture_maps_rank_no_vertex_disjoint_pair(self, ranked_pairs, name, delta):
        h1 = subdivide_until(fixture_map(name), delta)
        cert, flags = check_certificate(h1)
        assert cert.moved == set(h1.complex.vertices)
        # vertex-sharing pairs only, each at most once
        (ranked,) = ranked_pairs
        assert replay_decided(cert, ranked) == "sharing pairs"
        assert sum(flags) == TestPerTopCertificate.FIXTURE_FAILING[name, delta]

    @pytest.mark.parametrize("failing", ["sharing pair", "vertex-disjoint pair"])
    def test_no_rounds_carries_a_failing_certificate(self, failing):
        h0 = {
            "sharing pair": subdivide_until(fixture_map("triangles5"), F(1, 2)),
            "vertex-disjoint pair": coplanar_segments(),
        }[failing]
        with pytest.raises(PerturbationBudgetError) as err:
            perturb_to_general_position(h0, F(1, 2), seed=0, max_rounds=0)
        cert = err.value.certificate
        assert cert.map is h0 and not cert.overall
        assert cert.moved == set().union(*failing_unions(cert)) == self.check(h0)


def replay_decided(cert, ranked):
    """Check the pairs a certificate decided, in the order ranked_pairs
    recorded them, and return which walk it took.  None is decided twice,
    and none when a top fails.  The vertex-sharing pairs come first; each,
    replayed on the per-pair union ranks, is decided only while its union
    is not yet in the moved set, and every one skipped lies in it.  When
    that set leaves a vertex unmoved, every vertex-disjoint pair of tops is
    decided next, and else none."""
    assert all(n == 1 for n in Counter(ranked).values())
    if any(top_flags(cert)):
        assert ranked == []
        return "failing top"
    # a sharing pair's key holds tau - sigma, a proper face of a top
    tops = set(cert.tops)
    sharing = [(sigma, t) for sigma, t in ranked if t not in tops]
    assert ranked[: len(sharing)] == sharing
    moved = set()
    for sigma, t in sharing:
        assert not sigma | t <= moved
        if not cert.independent(sigma | t):
            moved |= sigma | t
    skipped = pair_keys(cert, sharing=True) - Counter(sharing)
    assert all(sigma | t <= moved for sigma, t in skipped)
    assert moved <= cert.moved
    rest = Counter(ranked[len(sharing):])
    if len(moved) == len(cert.map.complex.vertices):
        assert rest == Counter()
        return "sharing pairs"
    assert rest == pair_keys(cert, sharing=False)
    return "complete"


class TestRankedOnce:
    """The pairs each certificate decides, in the sharing pass, in the
    packed walk or by an exact rank (replay_decided): none twice, and no
    vertex-sharing pair whose union the moved set already holds."""

    def check(self, ranked_pairs, h):
        cert = MaximalVerdicts(h)
        return cert, replay_decided(cert, ranked_pairs[-1])

    def test_passing_maps_rank_every_pair_once(self, ranked_pairs):
        maps = [generic_segments()]
        for name, delta in TestPerTopCertificate.FIXTURE_FAILING:
            h1 = subdivide_until(fixture_map(name), delta)
            maps.append(perturb_to_general_position(h1, delta, seed=1)[0])
        for h in maps:
            cert, walk = self.check(ranked_pairs, h)
            assert cert.overall and walk == "complete"

    def test_seeded_corpora(self, ranked_pairs):
        walks = set()
        for rng, make in [
            (random.Random(2010), random_map),
            (random.Random(74), lambda rng: seeded_complex_map(rng, 2, 5, "inside")),
            (random.Random(75), lambda rng: seeded_complex_map(rng, 2, 5, None)),
        ]:
            for _ in range(20):
                walks.add(self.check(ranked_pairs, make(rng))[1])
        assert walks == {"failing top", "sharing pairs", "complete"}

    def test_flat_top_ranks_no_pair(self, ranked_pairs):
        assert self.check(ranked_pairs, flat_top_map())[1] == "failing top"

    def test_later_rounds_stop_at_the_sharing_pairs(self, ranked_pairs):
        # at delta 2^-32 every draw is zero (j_max = 0), so each round fails
        # with round 0's failing sharing pairs, which hold every vertex
        h1 = subdivide_until(fixture_map("triangles5"), F(1, 2))
        with pytest.raises(PerturbationBudgetError) as err:
            perturb_to_general_position(h1, F(1, 2 ** 32), seed=7, max_rounds=2)
        cert = err.value.certificate
        assert len(ranked_pairs) == 3
        for ranked in ranked_pairs:
            assert replay_decided(cert, ranked) == "sharing pairs"


def top_vectors(mv):
    """Each top's Plücker vector on mv's projected rows, as MaximalVerdicts
    computes them."""
    return [plucker([mv.rows[v] for v in t]) for t in mv.tops]


def disjoint_unions(mv, flags):
    """The vertices of the flagged vertex-disjoint pairs of mv's tops."""
    pairs = combinations(mv.tops, 2)
    return set().union(
        *(t1 | t2 for (t1, t2), bad in zip(pairs, flags) if bad and t1.isdisjoint(t2))
    )


class TestPackedWalk:
    """The vertex-disjoint pairs of every shape, decided by one packed
    Plücker walk per top on the rows Pi maps (perturb.project) and by exact
    ranks, against the per-top and per-pair union ranks."""

    @pytest.mark.parametrize("n,m", sorted(TestPerTopCertificate.CORPUS))
    def test_seeded_corpora(self, n, m):
        self.check_corpus(n, m, pure=True)

    @pytest.mark.parametrize("n,m", sorted(TestPerTopCertificate.CORPUS))
    def test_seeded_mixed_corpora(self, n, m):
        # a top of fewer vertices pairs by an exact rank
        self.check_corpus(n, m, pure=False)

    def check_corpus(self, n, m, pure):
        seed, count = TestPerTopCertificate.CORPUS[(n, m)]
        rng = random.Random(seed + 10)
        failing = passing = 0
        for k in range(count):
            h1 = seeded_complex_map(rng, n, m, ("inside", "outside", None)[k % 3], pure=pure)
            h, _ = perturb_to_general_position(h1, F(1, 2), seed=k)
            for g in (h1, h):
                mv = MaximalVerdicts(g)
                flags = per_pair_flags(mv)
                moved = mv._disjoint_moved(top_vectors(mv))
                assert moved == disjoint_unions(mv, flags)
                failing += bool(moved)
                passing += not moved
                check_certificate(g, reference=len(g.complex.simplices) <= 30)
        assert failing and passing

    def test_failing_top_fails_every_disjoint_pair(self):
        # a flat triangle's Plücker vector is zero, so each of its pairs hits
        h = map_of(
            [["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]],
            {"a": [0] * 5, "b": [1, 0, 0, 0, 0], "c": [2, 0, 0, 0, 0],
             "d": [0, 1, 0, 0, 0], "e": [0, 0, 1, 0, 0], "f": [0, 0, 0, 1, 0],
             "g": [0, 0, 0, 0, 1], "h": [1, 1, 1, 1, 1], "i": [3, 1, 4, 1, 5]}, 5,
        )
        mv = MaximalVerdicts(h)
        assert mv.moved == set("abcdefghi")
        assert mv._disjoint_moved(top_vectors(mv)) == set("abcdefghi")
        assert disjoint_unions(mv, per_pair_flags(mv)) == set("abcdefghi")

    SHAPES = {
        # every shape takes the packed walk on its tops of the most
        # vertices; a top with fewer (mixed) is ranked exactly
        "edges in R^3": (generic_segments(), False),
        "coplanar edges in R^3": (coplanar_segments(), False),
        "triangles in R^5": (map_of(
            [["a", "b", "c"], ["d", "e", "f"]],
            {"a": [0] * 5, "b": [1, 0, 0, 0, 0], "c": [0, 1, 0, 0, 0],
             "d": [0, 0, 1, 0, 0], "e": [0, 0, 0, 1, 0], "f": [0, 0, 0, 0, 1]}, 5,
        ), False),
        "edges in R^5": (two_segments(
            [0] * 5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]
        ), False),
        "a triangle beside an edge in R^5": (map_of(
            [["a", "b", "c"], ["d", "e"]],
            {"a": [0] * 5, "b": [1, 0, 0, 0, 0], "c": [0, 1, 0, 0, 0],
             "d": [0, 0, 1, 0, 0], "e": [0, 0, 0, 1, 0]}, 5,
        ), True),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_square_maps_take_the_packed_walk(self, monkeypatch, shape):
        # and every other shape, on its tops of the most vertices
        h, mixed = self.SHAPES[shape]
        walks = []
        zeros = PackedPairings.zeros
        mixed_pairs = plgp.perturb._mixed_pairs
        sharing = MaximalVerdicts._sharing_independent

        def packed(*args):
            walks.append("packed")
            return zeros(*args)

        def ranked(*args):
            for pair in mixed_pairs(*args):
                walks.append("exact")
                yield pair

        def ranking(self, sigma, tau, *args):
            if sigma.isdisjoint(tau):
                walks.append("sharing pass")
            return sharing(self, sigma, tau, *args)

        monkeypatch.setattr(PackedPairings, "zeros", packed)
        monkeypatch.setattr(plgp.perturb, "_mixed_pairs", ranked)
        monkeypatch.setattr(MaximalVerdicts, "_sharing_independent", ranking)
        mv = MaximalVerdicts(h)
        assert set(walks) == ({"packed", "exact"} if mixed else {"packed"})
        flags = per_pair_flags(mv)
        assert mv.moved == set().union(*failing_unions(mv, flags))


def kernel_rows(m, k):
    """A basis of the kernel of Pi (perturb.project) on homogeneous rows of
    m + 1 coordinates mapped to 2k: per coordinate 2k + e - 1 past the
    first 2k, its unit row less (c + 1)^e in each coordinate c < 2k.  Each
    has -1 in coordinate 0."""
    width = 2 * k
    rows = []
    for e in range(1, m + 2 - width):
        w = [-((c + 1) ** e) for c in range(width)] + [0] * (m + 1 - width)
        w[width + e - 1] = 1
        rows.append(w)
    return rows


def kernel_image(image, w):
    """The image whose homogeneous row is 2 (1, image) + w, for w with -1
    in coordinate 0 (kernel_rows): Pi maps it to twice image's row."""
    return [2 * x + y for x, y in zip(image, w[1:])]


def folded_map(rng, n, m):
    """A seeded map of simplices of up to n + 1 vertices, in R^m with
    m + 1 > 2(n + 1), so Pi folds, on a coarse grid; a vertex or two take
    kernel_image of another vertex's image, so their projected rows are
    parallel though their images often are not."""
    verts = "abcdefghij"[: rng.randrange(n + 3, n + 7)]
    maximal = [rng.sample(verts, n + 1) for _ in range(rng.randrange(2, 5))]
    maximal += [rng.sample(verts, rng.randrange(1, n + 2)) for _ in range(rng.randrange(0, 2))]
    images = {v: [rng.randrange(-1, 2) for _ in range(m)] for v in verts}
    kernel = kernel_rows(m, n + 1)
    for _ in range(rng.randrange(1, 3)):
        x, y = rng.sample(verts, 2)
        images[x] = kernel_image(images[y], rng.choice(kernel))
    return map_of(maximal, images, m)


def projection_oracle(mv):
    """Per Fraction ranks and determinants on mv's map: (the tops whose
    projected rows are dependent though their images are not, the
    vertex-sharing pairs likewise, and the zero_pairs the certificate
    should keep).  zero_pairs holds, when every top passes and the failing
    vertex-sharing unions leave a vertex unmoved, each vertex-disjoint pair
    of tops of k vertices whose projected determinant is zero though its
    images are independent, both ways round."""
    h, tops, k = mv.map, mv.tops, mv.k

    def independent(vertices):
        return affinely_independent([h.images[v] for v in sorted_vertices(vertices)])

    def projected_rank(vertices):
        rows = [project((1, *h.images[v]), 2 * k) for v in sorted_vertices(vertices)]
        return len(rows) <= 2 * k and rank(Matrix.from_rows(rows)) == len(rows)

    tops_hidden = [t for t in tops if independent(t) and not projected_rank(t)]
    sharing = [(s, t) for s, t in combinations(tops, 2) if s & t]
    pairs_hidden = [
        (s, t) for s, t in sharing if independent(s | t) and not projected_rank(s | t)
    ]
    zero_pairs = {}
    failing = set().union(*(s | t for s, t in sharing if not independent(s | t)))
    if all(map(independent, tops)) and len(failing) < len(h.complex.vertices):
        for i, j in combinations(range(len(tops)), 2):
            s, t = tops[i], tops[j]
            if len(s) == len(t) == k and s.isdisjoint(t) and independent(s | t):
                rows = [project((1, *h.images[v]), 2 * k) for v in sorted_vertices(s | t)]
                if det(Matrix.from_rows(rows)) == 0:
                    zero_pairs.setdefault(i, set()).add(j)
                    zero_pairs.setdefault(j, set()).add(i)
    return tops_hidden, pairs_hidden, zero_pairs


class TestFoldedFallback:
    """Edges in R^4: k = 2, so Pi folds one coordinate, w = (-1, -2, -3,
    -4, 1) spans its kernel, and a vertex x with row 2 (1, y) + w has the
    projected row of y, doubled.  A top or a vertex-sharing pair holding x
    and y has a zero projected expansion though its images are independent,
    and only the exact rank passes it."""

    Y = (1, 3, -2, 5)
    W = (-1, -2, -3, -4, 1)

    def check(self, h):
        mv = MaximalVerdicts(h)
        _, _, overall, bad = reference_certificate(h)
        assert mv.folded and kernel_rows(4, 2) == [list(self.W)]
        assert mv.overall and overall and mv.moved == bad == set()
        return mv

    def test_top(self):
        x = kernel_image(self.Y, self.W)
        h = map_of([["x", "y"], ["a", "b"]],
                   {"x": x, "y": self.Y, "a": [0, 1, 0, 2], "b": [3, 0, 1, 1]}, 4)
        assert affinely_independent([vec(x), vec(self.Y)])
        mv = self.check(h)
        assert not any(plucker([mv.rows["x"], mv.rows["y"]]))
        # the top's pair with ab has a zero projected determinant too
        xy = mv.tops.index(frozenset("xy"))
        assert mv.zero_pairs == {xy: {1 - xy}, 1 - xy: {xy}}
        assert projection_oracle(mv) == ([frozenset("xy")], [], mv.zero_pairs)

    def test_sharing_pair(self):
        x = kernel_image(self.Y, self.W)
        u = [2, -1, 0, 1]
        h = map_of([["x", "u"], ["u", "y"]], {"x": x, "y": self.Y, "u": u}, 4)
        assert affinely_independent([vec(x), vec(u), vec(self.Y)])
        mv = self.check(h)
        p = plucker([mv.rows["u"], mv.rows["x"]])
        assert any(p) and any(plucker([mv.rows["u"], mv.rows["y"]]))
        assert not expands_nonzero(p, 2, [mv.rows["y"]])
        assert mv.zero_pairs == {}
        assert projection_oracle(mv) == ([], [(mv.tops[0], mv.tops[1])], {})

    @pytest.mark.parametrize("n,m", [(1, 4), (1, 5), (2, 6), (2, 7)])
    def test_seeded_corpus(self, n, m):
        # moved, overall and zero_pairs against the Fraction ranks, on
        # folded maps and on the degenerate corpora, folded and square
        rng = random.Random(80 + m)
        seen = Counter()
        maps = [folded_map(rng, n, m) for _ in range(50)]
        maps += [seeded_complex_map(rng, n, m, repeat) for repeat in ("inside", "outside", None)]
        maps += [random_map(rng) for _ in range(10)]
        for h in maps:
            mv = MaximalVerdicts(h)
            _, _, overall, bad = reference_certificate(h)
            tops_hidden, pairs_hidden, zero_pairs = projection_oracle(mv)
            assert (mv.moved, mv.overall, mv.zero_pairs) == (bad, overall, zero_pairs)
            seen.update(
                top=bool(tops_hidden), pair=bool(pairs_hidden), zero=bool(zero_pairs),
                failing=not overall, passing=overall,
            )
        assert all(seen[key] for key in ("top", "pair", "zero", "failing", "passing")), seen


class TestPerturb:
    def test_clean_input_passes_through(self):
        h0 = generic_segments()
        h, report = perturb_to_general_position(h0, F(1, 10), seed=7)
        assert h is h0
        assert report.rounds == 0
        assert report.max_displacement == 0
        assert report.certificate.overall

    def test_coplanar_input_gets_fixed(self):
        h0 = coplanar_segments()
        delta = F(1, 10)
        h, report = perturb_to_general_position(h0, delta, seed=0)
        assert report.certificate.overall
        assert general_position_certificate(h).overall
        assert report.rounds >= 1
        half_sq = (delta / 2) ** 2
        for v in h0.complex.vertices:
            assert norm_sq(vec_sub(h.images[v], h0.images[v])) < half_sq
        assert report.max_displacement < delta / 2
        assert report.max_displacement_sq < half_sq
        assert report.max_displacement ** 2 >= report.max_displacement_sq

    def test_bound_checked_once_per_perturbation(self, monkeypatch):
        certified = []
        bounds = []
        init = MaximalVerdicts.__init__

        def certificate(self, h):
            certified.append(h)
            init(self, h)

        def bound(m, n):
            bounds.append((m, n))
            require_ambient_bound(m, n)

        monkeypatch.setattr(MaximalVerdicts, "__init__", certificate)
        monkeypatch.setattr(plgp.perturb, "require_ambient_bound", bound)
        h0 = coplanar_segments()
        h, report = perturb_to_general_position(h0, F(1, 10), seed=0)
        assert report.rounds >= 1 and report.certificate.overall
        # one certificate per round, round 0's on the input map
        assert certified[0] is h0 and certified[-1] is h
        assert len(certified) == report.rounds + 1 and bounds == [(3, 1)]

    def test_only_drawn_vertices_move(self):
        h0 = coplanar_segments()
        before = dict(h0.images)
        h, report = perturb_to_general_position(h0, F(1, 10), seed=0)
        assert report.rounds >= 1
        assert h0.images == before
        moved = {v for v in h0.complex.vertices if h.images[v] != h0.images[v]}
        assert moved
        for v in set(h0.complex.vertices) - moved:
            assert h.images[v] is h0.images[v]
        assert report.max_displacement_sq == max(
            norm_sq(vec_sub(h.images[v], h0.images[v])) for v in moved
        )

    def test_zero_delta_rejected(self):
        with pytest.raises(PreconditionError):
            perturb_to_general_position(coplanar_segments(), 0, seed=0)
        with pytest.raises(PreconditionError):
            perturb_to_general_position(coplanar_segments(), F(-1, 2), seed=0)

    def test_one_certificate_alive_at_a_time(self, monkeypatch):
        # at delta 2^-32 every draw is zero (j_max = 0), so every round fails
        refs = []
        init = MaximalVerdicts.__init__

        def watched(self, h):
            assert all(r() is None for r in refs), "an earlier certificate is alive"
            refs.append(weakref.ref(self))
            init(self, h)

        monkeypatch.setattr(MaximalVerdicts, "__init__", watched)
        with pytest.raises(PerturbationBudgetError) as err:
            perturb_to_general_position(
                coplanar_segments(), F(1, 2 ** 32), seed=0, max_rounds=2
            )
        assert len(refs) == 3 and refs[-1]() is err.value.certificate

    def test_deterministic(self):
        a1, r1 = perturb_to_general_position(coplanar_segments(), F(1, 10), seed=42)
        a2, r2 = perturb_to_general_position(coplanar_segments(), F(1, 10), seed=42)
        assert a1.images == a2.images
        assert r1.rounds == r2.rounds
        assert r1.max_displacement_sq == r2.max_displacement_sq
        assert report_to_obj(r1) == report_to_obj(r2)

    def test_budget_exhaustion_carries_certificate(self):
        # delta so small the 2^-32 grid only contains the zero vector:
        # nothing can move, so the certificate can never improve
        with pytest.raises(PerturbationBudgetError) as err:
            perturb_to_general_position(
                coplanar_segments(), F(1, 2 ** 32), seed=0, max_rounds=3
            )
        assert err.value.certificate is not None
        assert not err.value.certificate.overall

    def test_two_step_closeness(self):
        delta = F(1)
        h1 = subdivide_until(coplanar_segments(), delta)
        h, report = perturb_to_general_position(h1, delta, seed=5)
        assert report.certificate.overall
        assert closeness_bound(h1, h) < delta

    def test_success_rate_across_seeds(self):
        ok = 0
        for seed in range(100):
            try:
                _, report = perturb_to_general_position(
                    coplanar_segments(), F(1, 10), seed=seed, max_rounds=10
                )
            except PerturbationBudgetError:
                continue
            assert report.rounds <= 10
            ok += 1
        assert ok >= 99


def fraction_draw(rng, m, half, j_max):
    """Box draws as Fractions on the 2^-32 grid, rejected by their Fraction
    norm: the oracle for the integer rejection in _draw_displacement."""
    while True:
        r = tuple(F(rng.randrange(-j_max, j_max + 1), GRID) for _ in range(m))
        if norm_sq(r) < half * half:
            return r


def bisection_bound(d2, half):
    """sqrt(d2)'s bracket from the width-1/den isqrt cell, bisected down to
    width 2^-20 and on until its upper end is below half."""
    num, den = d2.numerator, d2.denominator
    if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
        return F(math.isqrt(num), math.isqrt(den))
    s = math.isqrt(num * den)
    lo, hi = F(s, den), F(s + 1, den)
    while hi - lo > F(1, 2 ** 20) or hi >= half:
        mid = (lo + hi) / 2
        if mid * mid >= d2:
            hi = mid
        else:
            lo = mid
    return hi


class TestDisplacementArithmetic:
    def test_integer_rejection_keeps_draws_and_stream(self):
        for k, half in enumerate((F(1, 2), F(1, 8), F(1, 20), F(3, 7), F(1, 2 ** 20))):
            j_max = max(0, (half.numerator * GRID - 1) // half.denominator)
            for m in (1, 3, 5):
                fast, slow = random.Random(k * 10 + m), random.Random(k * 10 + m)
                for _ in range(200):
                    assert _draw_displacement(fast, m, half, j_max) == fraction_draw(
                        slow, m, half, j_max
                    )
                assert fast.getstate() == slow.getstate()

    def test_bound_matches_bisection(self):
        # half just above sqrt(d2), down to 80 halvings below the isqrt cell,
        # so the cell is halved well past the 2^-20 bracket
        rng = random.Random(7)
        cases = [(F(0), F(1, 2)), ((F(99, 200)) ** 2, F(1, 2))]
        for _ in range(400):
            d2 = F(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4))
            cell = d2.denominator << rng.randrange(0, 80)
            root = math.isqrt(d2.numerator * cell * cell // d2.denominator)
            cases.append((d2, F(root + rng.randrange(1, 3), cell)))
        for d2, half in cases:
            bound = _displacement_bound(d2, half)
            assert bound == bisection_bound(d2, half)
            assert bound * bound >= d2 and bound < half


def hull_overlap_system(imgs1, imgs2, m):
    # mu-combination of imgs1 equals nu-combination of imgs2, both affine
    rows = []
    for i in range(m):
        rows.append([p[i] for p in imgs1] + [-q[i] for q in imgs2])
    rows.append([F(1)] * len(imgs1) + [F(0)] * len(imgs2))
    rows.append([F(0)] * len(imgs1) + [F(1)] * len(imgs2))
    rhs = [F(0)] * m + [F(1), F(1)]
    return Matrix.from_rows(rows), rhs


class TestCertificateSoundness:
    def perturbed(self, seed=3):
        h, report = perturb_to_general_position(
            coplanar_segments(), F(1, 10), seed=seed
        )
        assert report.certificate.overall
        return h

    def test_disjoint_pairs_have_disjoint_closed_images(self):
        h = self.perturbed()
        for s1, s2 in combinations(h.complex.sorted_simplices(), 2):
            if s1 & s2:
                continue
            imgs1 = h.simplex_images(s1)
            imgs2 = h.simplex_images(s2)
            a, b = hull_overlap_system(imgs1, imgs2, h.m)
            assert solve_affine(a, b) is None

    def test_disjoint_top_pairs_are_skew(self):
        h = self.perturbed()
        tops = h.complex.maximal_simplices()
        for s1, s2 in combinations(sorted(tops, key=sorted_vertices), 2):
            if s1 & s2:
                continue
            f1 = span_of_points(h.simplex_images(s1))
            f2 = span_of_points(h.simplex_images(s2))
            assert flats_skew(f1, f2)

    def test_evaluate_injective_on_random_pairs(self):
        h = self.perturbed()
        rng = random.Random(1234)
        tops = sorted(h.complex.maximal_simplices(), key=sorted_vertices)

        def random_point():
            s = rng.choice(tops)
            verts = sorted_vertices(s)
            while True:
                raw = [rng.randrange(0, 9) for _ in verts]
                if any(raw):
                    break
            total = sum(raw)
            return BarycentricPoint(
                verts, tuple(F(x, total) for x in raw)
            )

        def normalized(p):
            return frozenset(
                (v, w) for v, w in zip(p.simplex, p.weights) if w != 0
            )

        for _ in range(1000):
            p1 = random_point()
            p2 = random_point()
            if evaluate(h, p1) == evaluate(h, p2):
                assert normalized(p1) == normalized(p2)
