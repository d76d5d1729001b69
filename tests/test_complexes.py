"""Complex layer tests: validation, subdivision, evaluation, diameters, JSON."""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plgp.complexes as complexes_module
from plgp.complexes import (
    BarycentricPoint,
    PLMap,
    SimplicialComplex,
    barycentric_subdivide,
    closeness_bound,
    complex_from_obj,
    complex_to_obj,
    dump_json,
    evaluate,
    image_diameter_sq,
    later_sharing,
    max_image_diameter_sq,
    plmap_from_obj,
    plmap_to_obj,
    sorted_vertices,
    subdivide_until,
    validate,
)
from plgp.errors import PreconditionError, SubdivisionCapError
from plgp.exact import dist_sq, sqrt_upper, vec


def edge_map(p, q, ids=("a", "b")) -> PLMap:
    c = SimplicialComplex.from_maximal([ids])
    return PLMap(c, len(p), {ids[0]: vec(p), ids[1]: vec(q)})


def triangle_map(p, q, r, ids=("a", "b", "c")) -> PLMap:
    c = SimplicialComplex.from_maximal([ids])
    images = dict(zip(ids, (vec(p), vec(q), vec(r))))
    return PLMap(c, len(p), images)


class TestValidate:
    def test_full_triangle_ok(self):
        c = SimplicialComplex.from_maximal([("a", "b", "c")])
        assert validate(c) == []
        assert c.dimension == 2

    def test_missing_face_reported(self):
        full = SimplicialComplex.from_maximal([("a", "b", "c")])
        broken = SimplicialComplex(
            full.vertices,
            frozenset(s for s in full.simplices if s != frozenset({"a", "b"})),
        )
        problems = validate(broken)
        assert problems and "missing face" in problems[0]

    def test_empty_complex_ok(self):
        c = SimplicialComplex((), frozenset())
        assert validate(c) == []
        assert c.dimension == -1

    def test_overlapping_marks_flagged(self):
        c = SimplicialComplex.from_maximal([("a", "b")], b1={"a"}, b2={"a"})
        assert any("overlap" in p for p in validate(c))

    def test_maximal_simplices_canonical_and_fresh(self):
        c = SimplicialComplex.from_maximal([("a", "b", "c"), ("c", "d"), ("e",)])
        expected = [frozenset("e"), frozenset("cd"), frozenset("abc")]
        first = c.maximal_simplices()
        assert first == expected
        first.clear()
        assert c.maximal_simplices() == expected
        assert SimplicialComplex((), frozenset()).maximal_simplices() == []


class TestBarycentricSubdivide:
    def test_edge_becomes_path(self):
        h = barycentric_subdivide(edge_map((0, 0, 0), (1, 0, 0)))
        tops = h.complex.maximal_simplices()
        assert len(tops) == 2
        assert len(h.complex.vertices) == 3
        assert h.images["b(a,b)"] == vec(("1/2", 0, 0))

    def test_triangle_becomes_six(self):
        h = barycentric_subdivide(triangle_map((0, 0), (1, 0), (0, 1)))
        tops = [s for s in h.complex.maximal_simplices() if len(s) == 3]
        assert len(tops) == 6
        assert len(h.complex.vertices) == 7

    def test_marked_sets_propagate_by_containment(self):
        c = SimplicialComplex.from_maximal([("a", "b")], b1={"a", "b"}, b2=())
        h = PLMap(c, 1, {"a": vec([0]), "b": vec([1])})
        hs = barycentric_subdivide(h)
        assert hs.complex.b1 == {"a", "b", "b(a,b)"}
        c2 = SimplicialComplex.from_maximal([("a", "b")], b1={"a"}, b2={"b"})
        h2 = PLMap(c2, 1, {"a": vec([0]), "b": vec([1])})
        hs2 = barycentric_subdivide(h2)
        assert hs2.complex.b1 == {"a"} and hs2.complex.b2 == {"b"}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=3))
    def test_top_simplex_count_is_factorial(self, n):
        ids = tuple(f"v{i}" for i in range(n + 1))
        images = {f"v{i}": vec([1 if j == i else 0 for j in range(n + 1)]) for i in range(n + 1)}
        h = PLMap(SimplicialComplex.from_maximal([ids]), n + 1, images)
        hs = barycentric_subdivide(h)
        tops = [s for s in hs.complex.maximal_simplices() if len(s) == n + 1]
        assert len(tops) == math.factorial(n + 1)


def _to_original_coordinates(sub_point: BarycentricPoint, original: PLMap):
    """Convert subdivided barycentric coordinates back to the original complex."""
    weights = {}
    for chain_vertex, w in zip(sub_point.simplex, sub_point.weights):
        if chain_vertex in original.images:
            carrier = frozenset({chain_vertex})
        else:
            inner = str(chain_vertex)[2:-1].split(",")
            carrier = frozenset(inner)
        share = Fraction(w, len(carrier))
        for v in carrier:
            weights[v] = weights.get(v, Fraction(0)) + share
    # the union of carriers is a simplex of the original complex (chains nest)
    verts = sorted_vertices(weights)
    return BarycentricPoint(verts, tuple(weights[v] for v in verts))


rational_weight = st.integers(min_value=0, max_value=12)


class TestSubdivisionIsPointwiseIdentity:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(rational_weight, min_size=3, max_size=3).filter(lambda w: sum(w) > 0))
    def test_triangle_points_agree_exactly(self, raw):
        h = triangle_map((0, 0, 0), (4, 0, 0), (0, 4, 0))
        hs = barycentric_subdivide(h)
        total = sum(raw)
        # pick a top simplex of the subdivision and a random point on it
        top = hs.complex.maximal_simplices()[-1]
        verts = sorted_vertices(top)
        weights = tuple(Fraction(x, total) for x in raw)
        x = BarycentricPoint(verts, weights)
        back = _to_original_coordinates(x, h)
        assert evaluate(hs, x) == evaluate(h, back)


class TestSubdivideUntil:
    def test_loose_delta_is_identity(self):
        h = edge_map((0, 0, 0), (1, 0, 0))
        out = subdivide_until(h, 3)
        assert out.complex == h.complex

    def test_unit_edge_delta_one_needs_two_rounds(self):
        # pieces of length 1/2 fail the strict < 1/2 test, so halve twice
        h = edge_map((0, 0, 0), (1, 0, 0))
        out = subdivide_until(h, 1)
        assert len(out.complex.maximal_simplices()) == 4
        assert len(out.complex.vertices) == 5

    def test_delta_must_be_positive(self):
        h = edge_map((0, 0, 0), (1, 0, 0))
        with pytest.raises(PreconditionError):
            subdivide_until(h, 0)

    def test_cap_error_carries_achieved_diameter(self):
        h = edge_map((0, 0, 0), (1, 0, 0))
        with pytest.raises(SubdivisionCapError) as err:
            subdivide_until(h, "1/2", max_rounds=1)
        assert err.value.achieved_diameter_sq == Fraction(1, 4)

    def test_cap_subdivides_exactly_max_rounds(self, monkeypatch):
        calls = []

        def counting(h):
            calls.append(h)
            return barycentric_subdivide(h)

        monkeypatch.setattr(complexes_module, "barycentric_subdivide", counting)
        h = edge_map((0, 0, 0), (8, 0, 0))
        for rounds in (0, 1, 3):
            calls.clear()
            with pytest.raises(SubdivisionCapError, match="cap of %d rounds" % rounds):
                subdivide_until(h, "1/2", max_rounds=rounds)
            assert len(calls) == rounds
        calls.clear()
        # 8 / 2^4 < 1/4 is reached in the cap's last round
        assert max_image_diameter_sq(subdivide_until(h, "1", max_rounds=5)) < Fraction(1, 4)
        assert len(calls) == 5

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_postcondition_exact(self, den):
        delta = Fraction(3, den)
        h = triangle_map((0, 0), (1, 0), (0, 1))
        out = subdivide_until(h, delta)
        for s in out.complex.simplices:
            assert image_diameter_sq(out, s) < (delta / 2) ** 2


FIXTURES = Path(complexes_module.__file__).parent / "fixtures"


def fixture_map(name) -> PLMap:
    return plmap_from_obj(json.loads((FIXTURES / (name + ".json")).read_text()))


class Refused(Exception):
    pass


def refuse_subdivision(monkeypatch):
    def refuse(h):
        raise Refused()

    monkeypatch.setattr(complexes_module, "barycentric_subdivide", refuse)


PREDICTION = re.compile(r"(\d+) predicted rounds give up to (\d+)$")


def predicted(monkeypatch, h, delta, max_rounds=complexes_module.SUBDIVIDE_ROUND_CAP):
    """(rounds, tops) that subdivide_until predicts, read off its refusal
    under a budget of 0, with nothing subdivided; (0, T) when it predicts
    no round and returns h itself."""
    monkeypatch.setattr(complexes_module, "SUBDIVIDE_TOP_BUDGET", 0)
    refuse_subdivision(monkeypatch)
    try:
        out = subdivide_until(h, delta, max_rounds=max_rounds)
    except SubdivisionCapError as err:
        assert err.achieved_diameter_sq == max_image_diameter_sq(h)
        rounds, tops = PREDICTION.search(str(err)).groups()
        return int(rounds), int(tops)
    finally:
        monkeypatch.undo()
    assert out is h
    return 0, len(h.complex.maximal_simplices())


class TestSubdivisionBudget:
    """The rounds and maximal simplices subdivide_until predicts from the
    n/(n+1) mesh bound, checked by arithmetic; nothing over budget is
    subdivided."""

    def test_triangles5_far_below_the_budget_is_refused_unsubdivided(self, monkeypatch):
        h = fixture_map("triangles5")
        refuse_subdivision(monkeypatch)
        with pytest.raises(SubdivisionCapError) as err:
            subdivide_until(h, Fraction(1, 1000))
        # 2 triangles, 6 = 3! children per round, 17 rounds
        assert str(err.value).endswith("17 predicted rounds give up to %d" % (2 * 6 ** 17))
        assert 2 * 6 ** 17 == 33853318889472
        assert err.value.achieved_diameter_sq == max_image_diameter_sq(h)

    def test_the_budget_admits_every_fixture_to_delta_1_16(self, monkeypatch):
        budget = complexes_module.SUBDIVIDE_TOP_BUDGET
        for name in ("triangles5", "hexagon", "quadrilateral"):
            h = fixture_map(name)
            rounds, tops = predicted(monkeypatch, h, Fraction(1, 16))
            assert 0 < tops <= budget
            refuse_subdivision(monkeypatch)
            with pytest.raises(Refused):
                subdivide_until(h, Fraction(1, 16))
            monkeypatch.undo()
        assert predicted(monkeypatch, fixture_map("triangles5"), Fraction(1, 16)) == (6, 93312)

    def test_the_budget_is_a_bound_on_the_predicted_count(self, monkeypatch):
        h = fixture_map("triangles5")
        refuse_subdivision(monkeypatch)
        monkeypatch.setattr(complexes_module, "SUBDIVIDE_TOP_BUDGET", 93311)
        with pytest.raises(SubdivisionCapError, match="up to 93312$"):
            subdivide_until(h, Fraction(1, 16))
        monkeypatch.setattr(complexes_module, "SUBDIVIDE_TOP_BUDGET", 93312)
        with pytest.raises(Refused):
            subdivide_until(h, Fraction(1, 16))

    def test_a_map_fine_enough_needs_no_budget(self, monkeypatch):
        # no round is predicted, so the map's own size is not refused
        h = fixture_map("triangles5")
        refuse_subdivision(monkeypatch)
        monkeypatch.setattr(complexes_module, "SUBDIVIDE_TOP_BUDGET", 1)
        assert subdivide_until(h, 100) is h

    def test_unit_edge_prediction_by_arithmetic(self, monkeypatch):
        # an edge of length L halves per round: the least r with
        # L^2 / 4^r < (delta/2)^2, and 2^r edges
        h = edge_map((0, 0, 0), (8, 0, 0))
        for delta, rounds in ((Fraction(32), 0), (Fraction(16), 1), (Fraction(1), 5),
                              (Fraction(1, 2), 6), (Fraction(1, 1000), 14)):
            assert 8 ** 2 / Fraction(4) ** rounds < (delta / 2) ** 2
            assert rounds == 0 or 8 ** 2 / Fraction(4) ** (rounds - 1) >= (delta / 2) ** 2
            assert predicted(monkeypatch, h, delta) == (rounds, 2 ** rounds)
        # the round cap bounds the prediction too
        assert predicted(monkeypatch, h, Fraction(1, 1000), max_rounds=3) == (3, 8)

    def test_prediction_bounds_the_subdivision(self, monkeypatch):
        rng = random.Random(81)
        seen = set()
        for _ in range(12):
            pts = [[rng.randrange(0, 3) for _ in range(3)] for _ in range(3)]
            h = triangle_map(*pts)
            delta = Fraction(rng.randrange(4, 13), 2)
            rounds, tops = predicted(monkeypatch, h, delta)
            calls = []

            def counting(g, calls=calls):
                calls.append(g)
                return barycentric_subdivide(g)

            monkeypatch.setattr(complexes_module, "barycentric_subdivide", counting)
            out = subdivide_until(h, delta)
            monkeypatch.undo()
            assert len(calls) <= rounds
            assert len(out.complex.maximal_simplices()) <= tops == 6 ** rounds
            seen.add((len(calls) < rounds, rounds > 0))
        # the bound is met exactly on some triangles and loose on others
        assert seen == {(False, False), (False, True), (True, True)}


class TestEvaluate:
    def test_vertex_weight_one(self):
        h = edge_map((2, 3, 4), (1, 0, 0))
        x = BarycentricPoint(("a",), (Fraction(1),))
        assert evaluate(h, x) == vec((2, 3, 4))

    def test_edge_midpoint(self):
        h = edge_map((0, 0, 0), (1, 0, 0))
        x = BarycentricPoint(("a", "b"), (Fraction(1, 2), Fraction(1, 2)))
        assert evaluate(h, x) == vec(("1/2", 0, 0))

    def test_triangle_combination(self):
        h = triangle_map((0, 0, 0), (4, 0, 0), (0, 4, 0))
        x = BarycentricPoint(
            ("a", "b", "c"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        )
        assert evaluate(h, x) == vec((1, 1, 0))

    def test_unknown_simplex_rejected(self):
        h = edge_map((0, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            evaluate(h, BarycentricPoint(("a", "z"), (Fraction(1), Fraction(0))))

    def test_barycentric_invariants_enforced(self):
        with pytest.raises(ValueError):
            BarycentricPoint(("a", "b"), (Fraction(2), Fraction(-1)))
        with pytest.raises(ValueError):
            BarycentricPoint(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))


class TestImageDiameter:
    def test_single_vertex(self):
        h = edge_map((0, 0, 0), (3, 4, 0))
        assert image_diameter_sq(h, frozenset({"a"})) == 0

    def test_three_four_five_edge(self):
        h = edge_map((0, 0, 0), (3, 4, 0))
        assert image_diameter_sq(h, frozenset({"a", "b"})) == 25

    def test_right_triangle_hypotenuse(self):
        h = triangle_map((0, 0), (1, 0), (0, 1))
        assert image_diameter_sq(h, frozenset({"a", "b", "c"})) == 2


def random_complex_map(rng):
    """A seeded map with mixed denominators, negative coordinates and, often,
    repeated vertex images."""
    verts = "abcdefg"[: rng.randrange(1, 8)]
    maximal = [
        rng.sample(verts, rng.randrange(1, min(4, len(verts)) + 1))
        for _ in range(rng.randrange(1, 5))
    ]
    c = SimplicialComplex.from_maximal(maximal)
    m = rng.randrange(1, 5)
    pool = [
        tuple(Fraction(rng.randrange(-20, 21), rng.choice((1, 2, 3, 7, 256)))
              for _ in range(m))
        for _ in range(rng.randrange(1, len(c.vertices) + 1))
    ]
    return PLMap(c, m, {v: rng.choice(pool) for v in c.vertices})


class TestMaxImageDiameter:
    def oracle(self, h):
        return max(image_diameter_sq(h, s) for s in h.complex.simplices)

    def test_seeded_random_maps(self):
        rng = random.Random(2024)
        for _ in range(150):
            h = random_complex_map(rng)
            got = max_image_diameter_sq(h)
            assert got == self.oracle(h)
            assert isinstance(got, Fraction)

    def test_zero_complex_and_repeated_images(self):
        c = SimplicialComplex.from_maximal([("a",), ("b",)])
        h = PLMap(c, 2, {"a": vec(["1/3", "-2"]), "b": vec(["5", "1/7"])})
        assert max_image_diameter_sq(h) == 0 == self.oracle(h)
        same = triangle_map(("1/2", "-1"), ("1/2", "-1"), ("1/2", "-1"))
        assert max_image_diameter_sq(same) == 0 == self.oracle(same)

    def test_longest_edge_decides(self):
        h = triangle_map(("-1/2", "0"), ("1/3", "0"), ("0", "-7/256"))
        assert max_image_diameter_sq(h) == Fraction(25, 36) == self.oracle(h)


class TestLaterSharing:
    def test_seeded_random_maps_match_the_pairwise_test(self):
        rng = random.Random(2026)
        for _ in range(100):
            tops = random_complex_map(rng).complex.maximal_simplices()
            assert later_sharing(tops) == [
                {j for j in range(i + 1, len(tops)) if tops[i] & tops[j]}
                for i in range(len(tops))
            ]


class TestClosenessBound:
    def test_identity_map_gives_max_diameter(self):
        h = edge_map((0, 0, 0), (1, 0, 0))
        assert closeness_bound(h, h) == 1

    def test_single_vertex_displacement(self):
        c = SimplicialComplex.from_maximal([("a",)])
        h0 = PLMap(c, 3, {"a": vec((0, 0, 0))})
        h1 = PLMap(c, 3, {"a": vec((0, 0, 1))})
        assert closeness_bound(h0, h1) == 1

    def test_displaced_edge(self):
        h0 = edge_map((0, 0, 0), (1, 0, 0))
        h1 = edge_map((0, 0, "1/2"), (1, 0, "1/2"))
        assert closeness_bound(h0, h1) == Fraction(3, 2)

    def test_complex_mismatch_rejected(self):
        h0 = edge_map((0, 0, 0), (1, 0, 0))
        h1 = edge_map((0, 0, 0), (1, 0, 0), ids=("a", "c"))
        with pytest.raises(ValueError):
            closeness_bound(h0, h1)

    def test_seeded_maps_match_the_fraction_formula(self):
        # the integer-frame displacement against one Fraction dist_sq per
        # vertex; moved images draw on other denominators than the map's
        rng = random.Random(2025)
        for _ in range(100):
            h0 = random_complex_map(rng)
            moved = {
                v: tuple(x + Fraction(rng.randrange(-9, 10), rng.choice((1, 5, 2 ** 32)))
                         for x in p)
                if rng.randrange(2) else p
                for v, p in h0.images.items()
            }
            h = PLMap(h0.complex, h0.m, moved)
            disp = max(dist_sq(h0.images[v], h.images[v]) for v in h0.complex.vertices)
            got = closeness_bound(h0, h)
            assert got == sqrt_upper(disp) + sqrt_upper(max_image_diameter_sq(h0))
            assert isinstance(got, Fraction)


class TestJson:
    def test_complex_round_trip(self):
        c = SimplicialComplex.from_maximal(
            [("a", "b"), ("b", "c")], b1={"a"}, b2={"c"}
        )
        obj = complex_to_obj(c, m=3)
        c2, m = complex_from_obj(obj)
        assert m == 3
        assert c2 == c

    def test_map_round_trip(self):
        h = edge_map(("1/2", 0, "-2/3"), (1, "0.25", 0))
        h.complex = SimplicialComplex.from_maximal([("a", "b")], b1={"a"})
        obj = plmap_to_obj(h)
        h2 = plmap_from_obj(obj)
        assert h2.complex == h.complex
        assert h2.m == h.m
        assert h2.images == h.images

    def test_faces_completed_and_isolated_vertices_kept(self):
        obj = {
            "m": 2,
            "vertices": ["a", "b", "c", "lonely"],
            "maximal_simplices": [["a", "b", "c"]],
            "marked": {"B1": [], "B2": []},
        }
        c, _ = complex_from_obj(obj)
        assert frozenset({"a", "b"}) in c.simplices
        assert frozenset({"lonely"}) in c.simplices

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            complex_from_obj({"m": 2})
        with pytest.raises(ValueError):
            plmap_from_obj(
                {
                    "m": 2,
                    "vertices": ["a"],
                    "maximal_simplices": [["a"]],
                    "images": {"a": ["1", "nonsense"]},
                }
            )


# characters json escapes one way or another: quote, backslash, every control
# character, DEL, non-ASCII, an astral character (a surrogate pair in \u
# form) and a lone surrogate
JSON_CHARS = ['"', "\\", "/", " ", "a", "Z", "0", "\x7f", "\xe9", "\u20ac", "\U0001f600", "\ud800"] + [
    chr(c) for c in range(32)
]
JSON_SCALARS = [
    True, False, None, 0, 1, -1, 2 ** 64, -(10 ** 40), 0.0, -0.0, 1e-320, 1e300, -2.5, 0.1,
    float("nan"), float("inf"), float("-inf"),
]


def json_string(rng):
    return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randrange(5)))


def json_tree(rng, depth=0):
    """A random report-like value: nested lists, tuples and str-keyed dicts,
    lists of strings, strings and the scalars json prints."""
    draw = rng.random()
    if depth >= 4 or draw < 0.3:
        return rng.choice(JSON_SCALARS) if rng.random() < 0.5 else json_string(rng)
    width = rng.randrange(4)
    if draw < 0.45:
        return [json_string(rng) for _ in range(width + 1)]
    if draw < 0.6:
        return [json_tree(rng, depth + 1) for _ in range(width)]
    if draw < 0.7:
        return tuple(json_tree(rng, depth + 1) for _ in range(width))
    return {json_string(rng): json_tree(rng, depth + 1) for _ in range(width)}


def json_oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestDumpJson:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_trees_print_as_json_dumps(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            obj = json_tree(rng)
            assert dump_json(obj) == json_oracle(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [], {}, (), "", [[]], [{}], {"": {}}, {"": []}, [[], [[]], {"a": ()}],
            [True, 1, False, 0, 1.0, 0.0], {"b": True, "a": 1, "": 0, "B": None},
            list(JSON_SCALARS), "".join(JSON_CHARS), list(JSON_CHARS),
            {c: [c, c] for c in JSON_CHARS}, ("1/2", "-3"), ["x", 1, "y"], [1, "x"],
            {"z": ["1/2", "0"], "records": [{"line": {"direction": ["1", "-1"]}}]},
        ],
    )
    def test_edge_cases_print_as_json_dumps(self, obj):
        assert dump_json(obj) == json_oracle(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            Fraction(1, 2), [1, Fraction(1, 2)], {"a": {"b": [Fraction(3)]}}, {1: "a"},
            {"a": 1, 2: 3}, {True: 1}, {None: 1}, {1.5: 1}, {"a"}, b"a",
        ],
    )
    def test_refuses_what_it_would_not_print_as_json_dumps(self, obj):
        with pytest.raises(TypeError):
            dump_json(obj)

    def test_writes_the_text_it_returns(self, tmp_path):
        obj = json_tree(random.Random(1))
        path = tmp_path / "out.json"
        text = dump_json({"tree": obj, "z": ["\u20ac", "1/2"]}, str(path))
        assert path.read_bytes() == text.encode("utf-8")
        assert text == json_oracle({"tree": obj, "z": ["\u20ac", "1/2"]})
