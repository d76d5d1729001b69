import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

import plgp
import plgp.records as records_module
import plgp.secant as secant_module
from plgp.cli import main
from plgp.complexes import (
    BarycentricPoint,
    PLMap,
    SimplicialComplex,
    evaluate,
    plmap_from_obj,
    plmap_to_obj,
    sorted_vertices,
    subdivide_until,
)
from plgp.errors import DegenerateGeometryError, PreconditionError, ThinRegionError
from plgp.fiber import derive_seed, fiberwise_embed, instance_from_obj
import plgp.exact as exact_module
from plgp.exact import (
    Matrix,
    affinely_independent,
    det,
    norm_sq,
    rank,
    rat_str,
    solve_affine,
    vec,
)
from plgp.flats import (
    AffineFlat,
    int_line_key,
    line_key,
    line_meets_simplex,
    line_through,
    line_to_obj,
    point_to_image_distance_sq_lower,
    span_of_points,
    transversal_line_through_point,
)
from plgp.perturb import (
    MaximalVerdicts,
    general_position_certificate,
    perturb_to_general_position,
    project,
)
from plgp.records import record_to_obj
from plgp.secant import (
    CoverCertificate,
    _PluckerProbe,
    _ProbeFrame,
    cover_certificate_to_obj,
    cover_parameters,
    line_distance,
    pair_to_obj,
    probe_region_samples,
    secant_set,
    secants_for_pair,
    zero_dim_certificate,
)


F = Fraction

X_AXIS = AffineFlat(3, vec([0, 0, 0]), (vec([1, 0, 0]),))
Y_AXIS = AffineFlat(3, vec([0, 0, 0]), (vec([0, 1, 0]),))
SHIFTED_X = AffineFlat(3, vec([0, 1, 0]), (vec([1, 0, 0]),))


def line_record(line):
    """A stand-in record for zero_dim_certificate, which reads only the
    line's key."""
    return SimpleNamespace(key=int_line_key(line))


def two_segments_map():
    c = SimplicialComplex.from_maximal([["a", "b"], ["c", "d"]])
    return PLMap(c, 3, {
        "a": vec([0, 0, 0]), "b": vec([1, 0, 0]),
        "c": vec([0, 0, 1]), "d": vec([0, 1, 1]),
    })


def quad_map():
    c = SimplicialComplex.from_maximal(
        [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]]
    )
    return PLMap(c, 3, {
        "a": vec([0, 0, 0]),
        "b": vec([1, 0, 0]),
        "c": vec([1, 1, F(1, 3)]),
        "d": vec([0, 1, F(1, 7)]),
    })


def single_triangle_map():
    c = SimplicialComplex.from_maximal([["a", "b", "c"]])
    return PLMap(c, 5, {
        "a": vec([0, 0, 0, 0, 0]),
        "b": vec([1, 0, 0, 0, 0]),
        "c": vec([0, 1, 0, 0, F(1, 3)]),
    })


class TestLineDistance:
    def test_identity(self):
        assert line_distance(X_AXIS, X_AXIS, 10) == 0.0

    def test_parallel_lines_hand_value(self):
        got = line_distance(X_AXIS, SHIFTED_X, 10)
        expected = math.sqrt(1 + (10 - math.sqrt(99)) ** 2)
        assert abs(got - expected) < 1e-9

    def test_perpendicular_diameters(self):
        assert abs(line_distance(X_AXIS, Y_AXIS, 1) - 1.0) < 1e-6

    def test_line_missing_ball_rejected(self):
        far = AffineFlat(3, vec([0, 100, 0]), (vec([1, 0, 0]),))
        with pytest.raises(PreconditionError):
            line_distance(X_AXIS, far, 10)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(9)

        def random_ball_line():
            # base inside the ball so the chord surely exists
            base = vec([F(rng.randrange(-5, 6), 2) for _ in range(3)])
            while True:
                d = vec([F(rng.randrange(-9, 10)) for _ in range(3)])
                if any(d):
                    return AffineFlat(3, base, (d,))

        for _ in range(50):
            l1, l2, l3 = (random_ball_line() for _ in range(3))
            d12 = line_distance(l1, l2, 10)
            d21 = line_distance(l2, l1, 10)
            assert d12 == d21
            d13 = line_distance(l1, l3, 10)
            d23 = line_distance(l2, l3, 10)
            assert d13 <= d12 + d23 + 1e-9


class TestSecantsForPair:
    def test_boundary_transversal_found(self):
        h = two_segments_map()
        recs = secants_for_pair(h, [0, 0, 2], ["a", "b"], ["c", "d"])
        assert len(recs) == 1
        rec = recs[0]
        points = {rec.witnesses[0][1], rec.witnesses[1][1]}
        assert points == {vec([0, 0, 0]), vec([0, 0, 1])}
        # found line is the z-axis
        assert line_key(rec.line) == line_key(
            AffineFlat(3, vec([0, 0, 0]), (vec([0, 0, 1]),))
        )

    def test_no_transversal_gives_empty(self):
        h = two_segments_map()
        assert secants_for_pair(h, [1, 1, 1], ["a", "b"], ["c", "d"]) == []

    def test_z_in_span_off_image_gives_empty(self):
        h = two_segments_map()
        assert secants_for_pair(h, [5, 0, 0], ["a", "b"], ["c", "d"]) == []

    def test_shared_vertex_pair_rejected(self):
        h = quad_map()
        with pytest.raises(PreconditionError):
            secants_for_pair(h, [5, 7, 11], ["a", "b"], ["b", "c"])

    def test_z_on_image_rejected(self):
        h = two_segments_map()
        with pytest.raises(PreconditionError):
            secants_for_pair(h, [F(1, 2), 0, 0], ["a", "b"], ["c", "d"])

    def test_uncertified_map_rejected(self):
        c = SimplicialComplex.from_maximal([["a", "b"], ["c", "d"]])
        flat = PLMap(c, 3, {
            "a": vec([0, 0, 0]), "b": vec([1, 0, 0]),
            "c": vec([0, 1, 0]), "d": vec([1, 1, 0]),
        })
        with pytest.raises(PreconditionError):
            secants_for_pair(flat, [0, 0, 2], ["a", "b"], ["c", "d"])


class TestSecantSet:
    def quad_z(self):
        # z on the line joining the midpoints of the two opposite edges
        p = vec([F(1, 2), 0, 0])
        q = vec([F(1, 2), 1, F(5, 21)])
        z = tuple(p[i] + 2 * (q[i] - p[i]) for i in range(3))
        return z, p, q

    def test_quad_certificate_passes(self):
        assert general_position_certificate(quad_map()).overall

    def test_quad_known_secant(self):
        h = quad_map()
        z, p, q = self.quad_z()
        recs = secant_set(h, z)
        assert 1 <= len(recs) <= 2
        witness_points = {
            w[1] for rec in recs for w in rec.witnesses
        }
        assert p in witness_points and q in witness_points

    def test_bounded_by_disjoint_pairs_and_deterministic(self):
        h = quad_map()
        for z in ([2, 3, 5], [-1, 2, 7], [F(1, 3), 5, -2]):
            recs1 = secant_set(h, z)
            recs2 = secant_set(h, z)
            assert len(recs1) <= 2
            assert [line_key(r.line) for r in recs1] == [
                line_key(r.line) for r in recs2
            ]
            keys = [line_key(r.line) for r in recs1]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_single_simplex_empty(self):
        h = single_triangle_map()
        assert secant_set(h, [2, 3, 1, 1, 1]) == []

    def test_gamma_side_maximal_face_need_not_be_a_top(self):
        # B1 = {a, b} holds only the edge ab of the triangle abc, which is not
        # a maximal simplex: its secant with def is the one secant_set finds
        # on the tops abc and def
        rng = random.Random(5)
        h, cert = random_certified_map(
            rng, [["a", "b", "c"], ["d", "e", "f"]], 5
        )
        edge, far = frozenset("ab"), frozenset("def")
        p = combination(h, edge, [F(1, 3), F(2, 3)])
        q = combination(h, far, [F(1, 2), F(1, 4), F(1, 4)])
        z = tuple(2 * b - a for a, b in zip(p, q))
        on_edge = secants_for_pair(h, z, edge, far, certificate=cert)
        assert [(r.witnesses[0][0], r.witnesses[1][0]) for r in on_edge] == [(edge, far)]
        assert {p, q} == {w[1] for w in on_edge[0].witnesses}
        whole = secant_set(h, z, certificate=cert)
        assert [(r.witnesses[0][0], r.witnesses[1][0]) for r in whole] == [
            (frozenset("abc"), far)
        ]
        assert line_key(whole[0].line) == line_key(on_edge[0].line)

    def test_adjacent_collinearity_is_degenerate(self):
        h = quad_map()
        # z on the line through the images of a and c, which live in a
        # vertex-sharing maximal pair's union
        z = tuple(2 * h.images["c"][i] - h.images["a"][i] for i in range(3))
        with pytest.raises(DegenerateGeometryError):
            secant_set(h, z)

    def test_pairs_mirror_records(self):
        h = quad_map()
        z, _, _ = self.quad_z()
        recs = secant_set(h, z)
        assert recs
        for rec in recs:
            pair = pair_to_obj(record_to_obj(rec))
            (s1, y1, x1), (s2, y2, x2) = rec.witnesses
            assert pair["y1"] == [rat_str(c) for c in y1]
            assert pair["y2"] == [rat_str(c) for c in y2]
            assert pair["y1"] != pair["y2"]
            assert pair["preimage1"] == {
                "simplex": list(x1.simplex),
                "weights": [rat_str(w) for w in x1.weights],
            }
            assert pair["preimage2"] == {
                "simplex": list(x2.simplex),
                "weights": [rat_str(w) for w in x2.weights],
            }
            assert pair["line"] == line_to_obj(rec.line)
            assert pair["preimage1"]["simplex"] == list(sorted_vertices(s1))
            assert pair["preimage2"]["simplex"] == list(sorted_vertices(s2))

    def test_record_serialization_shape(self):
        h = quad_map()
        z, _, _ = self.quad_z()
        obj = record_to_obj(secant_set(h, z)[0])
        assert set(obj) == {"line", "z", "pair", "witnesses"}
        assert len(obj["witnesses"]) == 2
        assert set(obj["witnesses"][0]) == {"simplex", "point", "weights"}

    def test_clean_probe_skips_the_image_distance(self, monkeypatch):
        h = quad_map()
        z, _, _ = self.quad_z()

        def forbidden(*args):
            raise AssertionError("distance computed on the success path")

        monkeypatch.setattr(secant_module, "point_to_image_distance_sq_lower", forbidden)
        assert secant_set(h, z)

    def test_wrong_length_z_refused_before_the_certificate(self, monkeypatch):
        def forbidden(h):
            raise AssertionError("certificate built for a wrong-length z")

        monkeypatch.setattr(secant_module, "general_position_certificate", forbidden)
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            secant_set(quad_map(), (0, 0))

    def test_z_on_image_rejected_by_secant_set(self):
        h = quad_map()
        with pytest.raises(PreconditionError, match="lies on the image"):
            secant_set(h, [F(1, 2), 0, 0])

    def test_z_in_a_maximal_hull_off_image_is_degenerate(self):
        h = quad_map()
        with pytest.raises(DegenerateGeometryError, match="maximal simplex image"):
            secant_set(h, [5, 0, 0])

    def test_wrong_dimension_and_empty_complex_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            secant_set(quad_map(), [1, 2])
        empty = PLMap(SimplicialComplex((), frozenset()), 3, {})
        with pytest.raises(ValueError, match="empty complex"):
            secant_set(empty, [1, 2, 3])

    def test_certificate_of_another_map_rejected(self):
        h = quad_map()
        z, _, _ = self.quad_z()
        doubled = {v: tuple(2 * x for x in p) for v, p in h.images.items()}
        # an equal map is still another map: the probe's frame is the
        # certificate's, so only the certified map itself may use it
        for other in (PLMap(h.complex, 3, doubled), PLMap(h.complex, 3, dict(h.images))):
            other_cert = general_position_certificate(other)
            with pytest.raises(PreconditionError, match="another map"):
                secant_set(h, z, certificate=other_cert)
            with pytest.raises(PreconditionError, match="another map"):
                secants_for_pair(h, z, "ab", "cd", certificate=other_cert)


class TestZeroDimCertificate:
    def test_empty_set_valid(self):
        for eps in (1, F(1, 10), 0.01):
            cert = zero_dim_certificate([], eps, 10)
            assert cert.valid and cert.radius is None

    def test_empty_set_json_has_no_balls(self):
        cert = zero_dim_certificate([], 0.5, 10)
        assert cover_certificate_to_obj(cert, []) == {
            "epsilon": 0.5, "order": 0, "valid": True, "mesh_ok": True,
            "disjoint_ok": True, "radius": None, "balls": [], "assignment": [],
        }

    @pytest.mark.parametrize("k", [0, -3, F(-1, 2)])
    def test_nonpositive_k_rejected(self, k):
        recs = [line_record(X_AXIS)]
        for records in ([], recs):
            with pytest.raises(PreconditionError, match="k must be positive"):
                zero_dim_certificate(records, 0.1, k)

    def test_cover_parameters(self):
        assert cover_parameters("1/100", "3") == (0.01, F(3))
        assert cover_parameters(0.5, F(1, 2)) == (0.5, F(1, 2))
        for eps, k, name in [
            (F(10**400), 3, "epsilon"),
            (F(1, 10**400), 3, "epsilon"),
            (math.inf, 3, "epsilon"),
            (math.nan, 3, "epsilon"),
            (0.1, F(10**400), "k"),
            (0.1, F(1, 10**400), "k"),
        ]:
            with pytest.raises(PreconditionError, match=name + " is outside the float"):
                cover_parameters(eps, k)

    def test_chord_overflow_is_a_precondition(self):
        # the clipping radius is a finite float, but its square is not
        recs = [line_record(line) for line in (X_AXIS, SHIFTED_X)]
        with pytest.raises(PreconditionError, match="line metric overflows"):
            zero_dim_certificate(recs, 0.1, 10**200)

    def test_single_line(self):
        h = two_segments_map()
        recs = secants_for_pair(h, [0, 0, 2], ["a", "b"], ["c", "d"])
        cert = zero_dim_certificate(recs, 0.01, 10)
        assert cert.valid
        assert cert.radius == pytest.approx(0.01 / 3)

    def test_two_distant_lines(self):
        recs = [
            line_record(X_AXIS),
            line_record(SHIFTED_X),
        ]
        cert = zero_dim_certificate(recs, 0.1, 10)
        assert cert.valid
        assert cert.radius == pytest.approx(0.1 / 3)

    def test_duplicates_rejected(self):
        rec = line_record(X_AXIS)
        with pytest.raises(PreconditionError):
            zero_dim_certificate([rec, rec], 0.1, 10)

    def test_each_line_clipped_once_and_distances_as_line_distance(self, monkeypatch):
        slanted = AffineFlat(3, vec([1, 2, 0]), (vec([1, 1, 1]),))
        lines = [X_AXIS, SHIFTED_X, Y_AXIS, slanted]
        recs = [line_record(line) for line in lines]
        pairwise = [
            line_distance(lines[i], lines[j], 10)
            for i in range(len(lines))
            for j in range(i + 1, len(lines))
        ]
        radius = min([0.5] + pairwise) / 3
        expected = CoverCertificate(
            0.5, radius, 2 * radius < 0.5, all(d > 2 * radius for d in pairwise),
            min(pairwise),
        )
        clipped = []
        chord = secant_module._chord

        def counting(line, k):
            clipped.append(line)
            return chord(line, k)

        monkeypatch.setattr(secant_module, "_chord", counting)
        assert zero_dim_certificate(recs, 0.5, 10) == expected
        assert clipped == [int_line_key(line) for line in lines]

    def test_single_line_missing_the_ball_still_certified(self):
        far = AffineFlat(3, vec([0, 100, 0]), (vec([1, 0, 0]),))
        cert = zero_dim_certificate([line_record(far)], 0.3, 10)
        assert cert.valid and cert.min_distance is None
        assert cert.radius == pytest.approx(0.1)

    def test_valid_across_epsilons_on_real_secants(self):
        h = quad_map()
        z = (F(1, 2), 2, F(10, 21))
        recs = secant_set(h, z)
        assert recs
        for eps in (1, 0.1, 0.01):
            cert = zero_dim_certificate(recs, eps, 3)
            assert cert.valid
        record_objs = [record_to_obj(r) for r in recs]
        obj = cover_certificate_to_obj(cert, record_objs)
        assert obj["valid"] and obj["assignment"] == list(range(len(recs)))
        assert obj["balls"] == [
            {"line": line_to_obj(r.line), "radius": cert.radius} for r in recs
        ]


def test_probe_serializes_each_record_line_once(capsys, monkeypatch, tmp_path):
    # the sample's records and its cover's balls share one line object each
    fixture = Path(plgp.__file__).parent / "fixtures" / "quadrilateral.json"
    embedded = str(tmp_path / "quad.json")
    argv = ["embed", "--input", str(fixture), "--delta", "1", "--seed", "7"]
    assert main([*argv, "--out", embedded]) == 0
    capsys.readouterr()
    lines = []
    original = records_module.line_key_to_obj

    def counting(key):
        lines.append(key)
        return original(key)

    monkeypatch.setattr(records_module, "line_key_to_obj", counting)
    argv = ["probe", "--map", embedded, "--k", "3", "--samples", "20", "--seed", "1"]
    assert main(argv) == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    assert len(lines) == sum(s["secants"] for s in samples) >= 20
    for sample in samples:
        balls = sample["certificate"]["balls"]
        assert [b["line"] for b in balls] == [r["line"] for r in sample["records"]]


def padded_map(h, extra):
    """h with each image followed by extra zero coordinates."""
    return PLMap(h.complex, h.m + extra, {
        v: p + (F(0),) * extra for v, p in h.images.items()
    })


def test_probe_builds_no_echelon(monkeypatch):
    # secant_set runs no elimination on these maps: the Plücker walk on the
    # rows Pi maps decides every top and pair, on a square map and on one
    # in R^6, past 2n+1, where its records are the flats enumeration's
    fixture = Path(plgp.__file__).parent / "fixtures" / "triangles5.json"
    h0 = plmap_from_obj(json.loads(fixture.read_text()))
    built = []
    echelon = secant_module._echelon_int

    def spy(rows, *args):
        built.append(rows)
        return echelon(rows, *args)

    monkeypatch.setattr(secant_module, "_echelon_int", spy)
    delta = F(1, 4)
    h, report = perturb_to_general_position(subdivide_until(h0, delta), delta, seed=7)
    found = 0
    for probe in probe_region_samples(h, 3, 3, seed=7):
        built.clear()
        found += len(secant_set(h, probe.z, certificate=report.certificate))
        assert built == []
    assert found > 0

    delta = F(1, 2)
    h, report = perturb_to_general_position(
        subdivide_until(padded_map(h0, 1), delta), delta, seed=7
    )
    # past 2n+1 a random z has no secant: z on a chord of two disjoint tops
    rng = random.Random(7)
    found = 0
    for _ in range(3):
        s1, s2 = rng.choice(candidate_pairs(h))
        p = combination(h, s1, affine_weights(rng, len(s1), True))
        q = combination(h, s2, affine_weights(rng, len(s2), True))
        built.clear()
        z = tuple(a + F(5, 2) * (b - a) for a, b in zip(p, q))
        records = secant_set(h, z, certificate=report.certificate)
        assert built == []
        assert views(records) == unpruned_secant_set(h, z, report.certificate)
        found += len(records)
    assert found >= 3


class TestProbeRegion:
    def test_point_image_annulus(self):
        c = SimplicialComplex.from_maximal([["o"]])
        h = PLMap(c, 3, {"o": vec([0, 0, 0])})
        pts = probe_region_samples(h, 2, 25, seed=1)
        assert len(pts) == 25
        for p in pts:
            assert F(1, 4) <= norm_sq(p.z) <= 4
            assert p.image_distance_sq == norm_sq(p.z)

    def test_region_too_thin(self):
        c = SimplicialComplex.from_maximal([["a", "b"]])
        h = PLMap(c, 3, {"a": vec([-1, 0, 0]), "b": vec([1, 0, 0])})
        with pytest.raises(ThinRegionError):
            probe_region_samples(h, F(1, 10), 1, seed=0)

    def test_deterministic(self):
        h = two_segments_map()
        a = probe_region_samples(h, 3, 40, seed=11)
        b = probe_region_samples(h, 3, 40, seed=11)
        assert [p.z for p in a] == [p.z for p in b]

    def test_zero_count(self):
        assert probe_region_samples(two_segments_map(), 3, 0, seed=0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(PreconditionError, match="sample count must be nonnegative"):
            probe_region_samples(two_segments_map(), 3, -2, seed=0)


class FlatsRecord(NamedTuple):
    """A secant record of the flats construction, in Fractions: the shape
    of a SecantRecord's views (views)."""

    line: AffineFlat
    z: tuple
    witnesses: tuple


def views(result):
    """result's SecantRecords as their Fraction views, in the flats
    oracle's shape; a refusal as it is."""
    if not isinstance(result, list):
        return result
    return [FlatsRecord(r.line, r.z, r.witnesses) for r in result]


def fraction_record_to_obj(rec):
    """record_to_obj's object for a record in Fractions, by rat_str and
    flats.line_to_obj: the oracle of the integer printing."""
    witnesses = [
        {
            "simplex": list(sorted_vertices(s)),
            "point": [rat_str(x) for x in p],
            "weights": [rat_str(w) for w in b.weights],
        }
        for s, p, b in rec.witnesses
    ]
    return {
        "line": line_to_obj(rec.line),
        "z": [rat_str(x) for x in rec.z],
        "pair": [w["simplex"] for w in witnesses],
        "witnesses": witnesses,
    }


def flats_pair_records(h, z, s1, s2):
    """The pair's secant through z by the flats construction: the transversal
    of the two affine hulls through z, kept when it meets both simplices.
    The oracle for the pair kernel."""
    f1 = span_of_points(h.simplex_images(s1))
    f2 = span_of_points(h.simplex_images(s2))
    line = transversal_line_through_point(z, f1, f2)
    if line is None:
        return []
    hit1 = line_meets_simplex(line, h, s1)
    if hit1 is None:
        return []
    hit2 = line_meets_simplex(line, h, s2)
    if hit2 is None:
        return []
    return [FlatsRecord(line, z, ((s1,) + hit1, (s2,) + hit2))]


def kernel_system_rank(h, z, s1, s2):
    """Rank of the full secant system over Fractions: columns z - v_i over
    the first simplex and w_j over the second, then the row sum nu = 1.  The
    kernel never builds it; with z off aff(s1) it loses rank exactly when
    the kernel's first small system does."""
    verts1, verts2 = sorted_vertices(s1), sorted_vertices(s2)
    rows = [
        [c - h.images[v][r] for v in verts1] + [h.images[w][r] for w in verts2]
        for r, c in enumerate(z)
    ]
    rows.append([0] * len(verts1) + [1] * len(verts2))
    return rank(Matrix.from_rows(rows))


def random_certified_map(rng, maximal, m, denom=4):
    """A map of the complex with small grid images, redrawn until certified."""
    c = SimplicialComplex.from_maximal(maximal)
    while True:
        images = {
            v: vec([F(rng.randrange(-2 * denom, 2 * denom + 1), denom) for _ in range(m)])
            for v in c.vertices
        }
        h = PLMap(c, m, images)
        cert = general_position_certificate(h)
        if cert.overall:
            return h, cert


def combination(h, simplex, weights):
    """sum w_i image(v_i) over the simplex's vertices in canonical order."""
    out = [F(0)] * h.m
    for v, w in zip(sorted_vertices(simplex), weights):
        out = [a + w * b for a, b in zip(out, h.images[v])]
    return tuple(out)


def affine_weights(rng, count, convex):
    """Weights summing to 1: nonnegative when convex, else some negative."""
    raw = [F(rng.randrange(1, 9)) for _ in range(count)]
    if not convex and count > 1:
        # the total becomes -raw[0], so w_0 = (raw[0] + rest) / raw[0] > 1
        raw[0] = -raw[0] - sum(raw[1:])
    total = sum(raw)
    return [w / total for w in raw]


def z_near_a_chord(rng, h, s1, s2):
    """A point on the line through a point of each simplex, beyond one end or
    between them; now and then nudged off it, or drawn at random instead."""
    draw = rng.random()
    if draw < 0.3:
        return vec([F(rng.randrange(-96, 97), 32) for _ in range(h.m)])
    p = combination(h, s1, affine_weights(rng, len(s1), True))
    q = combination(h, s2, affine_weights(rng, len(s2), True))
    t = rng.choice([F(-3, 2), F(-1, 3), F(1, 2), F(4, 3), F(5, 2)])
    z = [a + t * (b - a) for a, b in zip(p, q)]
    if draw < 0.5:
        z[rng.randrange(h.m)] += F(1, 16)
    return tuple(z)


class TestKernelOracle:
    """The pair kernel, one exact solve (_ProbeFrame.solve, which
    secants_for_pair and the walk's exact pairs run), against the flats
    construction: the same line, witness points, weights and pair, or the
    same exception."""

    def both(self, h, cert, z, s1, s2):
        z = vec(z)
        s1, s2 = frozenset(s1), frozenset(s2)

        def outcome(run):
            try:
                records = run()
            except Exception as exc:  # noqa: BLE001 - compared by type
                return type(exc)
            return [(line_key(r.line), r.witnesses) for r in records]

        kernel = outcome(lambda: _ProbeFrame(z, cert).solve(s1, s2))
        oracle = outcome(lambda: flats_pair_records(h, z, s1, s2))
        assert kernel == oracle
        return kernel

    def test_segments_m3(self):
        rng = random.Random(31)
        found = 0
        for _ in range(150):
            h, cert = random_certified_map(rng, [["a", "b"], ["c", "d"]], 3)
            z = vec([F(rng.randrange(-96, 97), 32) for _ in range(3)])
            found += len(self.both(h, cert, z, {"a", "b"}, {"c", "d"}))
            found += len(self.both(h, cert, z, {"c", "d"}, {"a", "b"}))
        assert found >= 20

    def test_triangles_m5(self):
        rng = random.Random(32)
        s1, s2 = {"a", "b", "c"}, {"d", "e", "f"}
        found = 0
        for _ in range(60):
            h, cert = random_certified_map(rng, [sorted(s1), sorted(s2)], 5)
            z = z_near_a_chord(rng, h, s1, s2)
            found += len(self.both(h, cert, z, s1, s2))
            found += len(self.both(h, cert, z, s2, s1))
        assert found >= 20

    def test_mixed_faces_m5(self):
        # every vertex-disjoint face pair, vertex/edge/triangle in both roles
        rng = random.Random(33)
        found = 0
        for _ in range(4):
            h, cert = random_certified_map(rng, [["a", "b", "c"], ["d", "e"], ["f"]], 5)
            faces = h.complex.sorted_simplices()
            for s1 in faces:
                for s2 in faces:
                    if not (s1 & s2):
                        z = z_near_a_chord(rng, h, s1, s2)
                        found += len(self.both(h, cert, z, s1, s2))
        assert found >= 20

    def test_z_in_affine_hull_of_either_simplex(self):
        rng = random.Random(34)
        s1, s2 = {"a", "b", "c"}, {"d", "e"}
        for _ in range(10):
            h, cert = random_certified_map(rng, [sorted(s1), sorted(s2)], 5)
            z1 = combination(h, s1, affine_weights(rng, 3, False))
            assert self.both(h, cert, z1, s1, s2) == []
            assert self.both(h, cert, z1, s2, s1) == []
            z2 = combination(h, s2, affine_weights(rng, 2, False))
            assert self.both(h, cert, z2, s1, s2) == []
            assert self.both(h, cert, z2, s2, s1) == []

    def test_z_on_the_image(self):
        rng = random.Random(35)
        s1, s2, s3 = {"a", "b"}, {"c", "d"}, {"e", "f"}
        for _ in range(10):
            h, cert = random_certified_map(rng, [sorted(s1), sorted(s2), sorted(s3)], 3)
            on1 = combination(h, s1, affine_weights(rng, 2, True))
            on3 = combination(h, s3, affine_weights(rng, 2, True))
            assert self.both(h, cert, on1, s1, s2) == []
            assert self.both(h, cert, on1, s2, s1) == []
            self.both(h, cert, on3, s1, s2)
            for z in (on1, on3):
                with pytest.raises(PreconditionError):
                    secants_for_pair(h, z, s1, s2, certificate=cert)
                with pytest.raises(PreconditionError):
                    secant_set(h, z, certificate=cert)

    @pytest.mark.parametrize("dim1, dim2, m", [
        (1, 1, 3), (2, 2, 5), (2, 1, 5), (1, 2, 5), (3, 2, 7),
    ])
    def test_rank_deficient_system_has_no_secant(self, dim1, dim2, m):
        # z in aff(a), or z = q + u with q in aff(a) and 0 != u in dir(b):
        # the system for the pair (a, b) loses rank, and carries no secant
        rng = random.Random(36 + 10 * dim1 + dim2)
        verts = "abcdefgh"
        s1 = frozenset(verts[:dim1 + 1])
        s2 = frozenset(verts[dim1 + 1:dim1 + dim2 + 2])
        systems = 0
        for _ in range(8):
            h, cert = random_certified_map(rng, [sorted(s1), sorted(s2)], m)
            for a, b in ((s1, s2), (s2, s1)):
                q = combination(h, a, affine_weights(rng, len(a), rng.random() < 0.3))
                u = tuple(
                    x - y
                    for x, y in zip(
                        combination(h, b, affine_weights(rng, len(b), True)),
                        combination(h, b, affine_weights(rng, len(b), True)),
                    )
                )
                # u = 0 when the two draws on b coincide
                for z in [q] + [tuple(x + y for x, y in zip(q, u))] * any(u):
                    assert kernel_system_rank(h, z, a, b) < len(a) + len(b)
                    assert self.both(h, cert, z, a, b) == []
                    systems += 1
        assert systems >= 24

    def test_line_parallel_to_first_simplex_has_no_secant(self):
        # z = p2 - u with p2 on s2 and u in dir(s1): the unique solution has
        # lambda = 0, a line through z parallel to aff(s1)
        rng = random.Random(37)
        s1, s2 = {"a", "b"}, {"c", "d"}
        for _ in range(10):
            h, cert = random_certified_map(rng, [sorted(s1), sorted(s2)], 3)
            p2 = combination(h, s2, affine_weights(rng, 2, True))
            f = rng.randrange(1, 4)
            u = tuple(f * (a - b) for a, b in zip(h.images["a"], h.images["b"]))
            z = tuple(a - b for a, b in zip(p2, u))
            assert kernel_system_rank(h, z, s1, s2) == 4
            assert self.both(h, cert, z, s1, s2) == []

    def test_secant_set_matches_the_flats_enumeration(self):
        rng = random.Random(38)
        maximal = [["a", "b"], ["b", "c"], ["d", "e"], ["f", "g"], ["g", "h"]]
        total = 0
        for _ in range(8):
            h, cert = random_certified_map(rng, maximal, 3)
            z = vec([F(rng.randrange(-96, 97), 32) for _ in range(3)])
            try:
                fast = secant_set(h, z, certificate=cert)
            except (DegenerateGeometryError, PreconditionError) as exc:
                fast = type(exc)
            try:
                slow = unpruned_secant_set(h, z, cert)
            except (DegenerateGeometryError, PreconditionError) as exc:
                slow = type(exc)
            assert views(fast) == slow
            total += len(fast) if isinstance(fast, list) else 0
        assert total >= 5


def candidate_pairs(h):
    """The vertex-disjoint pairs of maximal simplices secant_set enumerates,
    in its order."""
    tops = h.complex.maximal_simplices()
    return [
        (s1, s2) for i, s1 in enumerate(tops) for s2 in tops[i + 1:] if not s1 & s2
    ]


def unpruned_secant_set(h, z, cert):
    """secant_set with the flats construction run on every candidate pair.
    The oracle for the kernel's enumeration."""
    secant_set(h, z, cert)  # the same checks, or their exception
    by_key = {}
    for s1, s2 in candidate_pairs(h):
        for rec in flats_pair_records(h, vec(z), s1, s2):
            by_key.setdefault(line_key(rec.line), rec)
    return [by_key[key] for key in sorted(by_key)]


PRUNE_COMPLEXES = {
    # (n, m): maximal simplices of mixed dimension, vertex-sharing and not
    (0, 1): [["a"], ["b"], ["c"], ["d"], ["e"]],
    (1, 3): [["a", "b"], ["b", "c"], ["d", "e"], ["f", "g"], ["g", "h"], ["i"]],
    (2, 5): [["a", "b", "c"], ["b", "c", "d"], ["d", "e", "f"], ["g", "h", "i"],
             ["i", "j"], ["k"]],
    (3, 7): [["a", "b", "c", "d"], ["b", "c", "d", "e"], ["f", "g", "h", "i"],
             ["e", "j"], ["k"]],
}


class TestPairPrune:
    """Maps of mixed dimension: the enumeration against the flats
    construction on every candidate pair, and each pair's verdict and
    record by one exact solve against its flats record."""

    def probes(self, rng, h, count):
        """Points near chords of random candidate pairs, or at random."""
        pairs = candidate_pairs(h)
        return [z_near_a_chord(rng, h, *rng.choice(pairs)) for _ in range(count)]

    def outcome(self, run):
        try:
            return run()
        except (DegenerateGeometryError, PreconditionError) as exc:
            return type(exc)

    def check_pairs(self, h, cert, z, pairs=None):
        """(dropped, records): every pair, by default every candidate pair,
        the kernel rejects has no secant by flats, and every pair it keeps
        has the flats record."""
        z = vec(z)
        frame = _ProbeFrame(z, cert)
        dropped = records = 0
        for s1, s2 in candidate_pairs(h) if pairs is None else pairs:
            kept = frame.solve(s1, s2)
            assert views(kept) == flats_pair_records(h, z, s1, s2), (s1, s2)
            dropped += not kept
            records += len(kept)
        return dropped, records

    @pytest.mark.parametrize(
        "n, m", [pytest.param(n, m, id=f"n{n}-m{m}") for n, m in sorted(PRUNE_COMPLEXES)]
    )
    def test_pruned_equals_unpruned_and_drops_only_empty_pairs(self, n, m):
        rng = random.Random(40 + n)
        dropped = records = 0
        for _ in range(3):
            h, cert = random_certified_map(rng, PRUNE_COMPLEXES[n, m], m)
            for z in self.probes(rng, h, 10):
                pruned = self.outcome(lambda: secant_set(h, z, certificate=cert))
                assert views(pruned) == self.outcome(
                    lambda: unpruned_secant_set(h, z, cert)
                )
                if isinstance(pruned, list):
                    d, r = self.check_pairs(h, cert, z)
                    dropped, records = dropped + d, records + r
        assert records >= 15
        if n > 0:  # in R^1 every pair of points has a line through z
            assert dropped >= 3 * records

    def test_gamma_sides_with_faces_that_are_not_tops(self):
        # B1 = {a, b, d}: its maximal faces are the edges ab and bd, neither a
        # top; B2 = {d, e, f, g, h} holds the top def, its edge ef and the edge
        # gh of the top ghi.  The kernel decides their vertex-disjoint pairs
        # as the flats construction does
        rng = random.Random(45)
        h, cert = random_certified_map(rng, PRUNE_COMPLEXES[2, 5], 5)
        sides = (map(frozenset, ["ab", "bd"]), map(frozenset, ["def", "gh", "ef"]))
        pairs = [(s1, s2) for s1, s2 in itertools.product(*sides) if not s1 & s2]
        assert len(pairs) == 5
        dropped = records = 0
        for _ in range(12):
            s1, s2 = rng.choice(pairs)
            z = z_near_a_chord(rng, h, s1, s2)
            if isinstance(self.outcome(lambda: secant_set(h, z, certificate=cert)), list):
                d, r = self.check_pairs(h, cert, z, pairs)
                dropped, records = dropped + d, records + r
        assert records >= 5 and dropped >= records

    def test_records_take_the_candidate_pairs_in_order(self, monkeypatch):
        # secant_set takes the vertex-disjoint pairs the sign tests keep in
        # the order of the plain double loop, each once: every pair holding
        # a top of fewer vertices, which is solved exactly, and every pair
        # with a flats record; the points in R^1, (n, m) = (0, 1), keep
        # every pair
        calls = []
        records = _PluckerProbe.records

        def spy(self, i, j):
            calls.append((self.tops[i], self.tops[j]))
            return records(self, i, j)

        monkeypatch.setattr(_PluckerProbe, "records", spy)
        rng = random.Random(47)
        walked = 0
        for (n, m), maximal in sorted(PRUNE_COMPLEXES.items()):
            h, cert = random_certified_map(rng, maximal, m)
            pairs = candidate_pairs(h)
            k = max(len(s) for s in maximal)
            for z in self.probes(rng, h, 4):
                calls.clear()
                if isinstance(self.outcome(lambda: secant_set(h, z, certificate=cert)), list):
                    assert calls == [p for p in pairs if p in calls]
                    assert len(set(calls)) == len(calls)
                    needed = [
                        (s1, s2) for s1, s2 in pairs
                        if min(len(s1), len(s2)) < k or flats_pair_records(h, vec(z), s1, s2)
                    ]
                    assert set(needed) <= set(calls)
                    assert n > 0 or calls == pairs
                    walked += 1
        assert walked >= 8

    @pytest.mark.parametrize("sigma, tau", [("abc", "bcd"), ("bcd", "def")])
    def test_z_in_a_vertex_sharing_union_is_degenerate(self, sigma, tau):
        # z in aff(sigma u tau) with weight on tau - sigma, so off aff(sigma)
        # and aff(tau) alone; the ranks of sigma u tau with z must catch it
        rng = random.Random(46)
        h, cert = random_certified_map(rng, PRUNE_COMPLEXES[2, 5], 5)
        union = frozenset(sigma) | frozenset(tau)
        for _ in range(5):
            weights = affine_weights(rng, len(union), False)
            z = combination(h, union, weights)
            with pytest.raises(DegenerateGeometryError, match="adjacent pair"):
                secant_set(h, z, certificate=cert)

    def test_more_extra_vertices_than_free_columns_is_degenerate(self):
        # two edges sharing b in the plane, below the certificate's
        # m >= 2n+1, which passes (MaximalVerdicts has no m >= 2n+1 check):
        # each edge's rows with z are independent, but the pair's three
        # vertices with z are four points in the plane.  Pi pads the rows
        # to four coordinates, so the pair's projected minor is zero and its
        # exact rank refuses z
        c = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"]])
        h = PLMap(c, 2, {"a": vec([0, 0]), "b": vec([1, 0]), "c": vec([1, 1])})
        cert = MaximalVerdicts(h)
        assert cert.overall
        with pytest.raises(DegenerateGeometryError, match="adjacent pair"):
            secant_set(h, vec([3, 5]), certificate=cert)

    def test_adjacent_ranks_take_each_tops_later_sharing_tops(self, monkeypatch):
        # the vertex -> top index gives each top, in order, the same later
        # tops as intersecting it with every later top
        calls = []
        independent = _PluckerProbe._independent

        def spy(self, i, j, zeros):
            calls.append((i, j))
            return independent(self, i, j, zeros)

        monkeypatch.setattr(_PluckerProbe, "_independent", spy)
        rng = random.Random(48)
        sharing = 0
        for _ in range(30):
            n = rng.randrange(0, 4)
            m = 2 * n + 1
            verts = range(rng.randrange(n + 2, 3 * n + 6))
            c = SimplicialComplex.from_maximal(
                [rng.sample(verts, rng.randrange(1, n + 2))
                 for _ in range(rng.randrange(4, 16))]
            )
            tops = c.maximal_simplices()
            h = PLMap(c, m, {
                v: vec([rng.randrange(-10**6, 10**6) for _ in range(m)])
                for v in c.vertices
            })
            z = vec([rng.randrange(-10**6, 10**6) for _ in range(m)])
            calls.clear()
            secant_set(h, z, certificate=MaximalVerdicts(h))
            brute = [
                (i, j) for i, s1 in enumerate(tops)
                for j in range(i + 1, len(tops)) if s1 & tops[j]
            ]
            assert calls == brute
            sharing += len(brute)
        assert sharing >= 100


SQUARE_COMPLEXES = {
    # (n, m) with m = 2n+1 and every top an n-simplex: tops sharing n, ...,
    # 1 vertices and vertex-disjoint ones
    (0, 1): [["a"], ["b"], ["c"], ["d"], ["e"]],
    (1, 3): [["a", "b"], ["b", "c"], ["c", "d"], ["e", "f"], ["g", "h"], ["h", "i"]],
    (2, 5): [["a", "b", "c"], ["b", "c", "d"], ["d", "e", "f"], ["g", "h", "i"],
             ["i", "j", "k"]],
    (3, 7): [["a", "b", "c", "d"], ["b", "c", "d", "e"], ["d", "e", "f", "g"],
             ["g", "h", "i", "j"], ["k", "l", "o", "p"]],
}

# (n, m, complex): the square shapes, and past 2n+1, where Pi folds the
# coordinates past 2n+2, with n-simplices only (pure) or with smaller tops
# too (mixed), whose pairs are solved exactly
WALK_SHAPES = {
    **{(n, m): SQUARE_COMPLEXES[n, m] for n, m in SQUARE_COMPLEXES},
    **{
        (n, m, kind): (SQUARE_COMPLEXES if kind == "pure" else PRUNE_COMPLEXES)[n, 2 * n + 1]
        for n, m in [(1, 4), (1, 5), (2, 6), (2, 7)]
        for kind in ("pure", "mixed")
    },
}

WALK_CASES = [
    pytest.param(key, id="n%d-m%d" % key[:2] + "".join("-" + k for k in key[2:]))
    for key in sorted(WALK_SHAPES, key=str)
]


def refusal(run):
    """run's result, or the type and message of its refusal."""
    try:
        return run()
    except (DegenerateGeometryError, PreconditionError) as exc:
        return type(exc), str(exc)


def adjacency_refusal(h, z):
    """The refusal secant_set owes z, by Fraction ranks: the first top, or
    union of a top with a later top it meets, in top order, that z is
    affinely dependent with; None when there is none."""
    tops = h.complex.maximal_simplices()
    for i, sigma in enumerate(tops):
        for union in [sigma] + [sigma | tau for tau in tops[i + 1:] if sigma & tau]:
            if not affinely_independent([z] + [h.images[v] for v in sorted_vertices(union)]):
                if point_to_image_distance_sq_lower(z, h) == 0:
                    return PreconditionError, "probe point lies on the image"
                return DegenerateGeometryError, (
                    "probe point affinely dependent with a maximal simplex image"
                    if union == sigma
                    else "probe point affinely dependent with an adjacent pair's image union"
                )
    return None


def oracle_secant_set(h, z, cert):
    """unpruned_secant_set, or the Fraction ranks' refusal."""
    want = adjacency_refusal(h, vec(z))
    return want if want else refusal(lambda: unpruned_secant_set(h, z, cert))


class TestPluckerWalk:
    """secant_set decides every pair by Plücker signs on the rows Pi maps,
    or by one exact solve: the same records as the flats enumeration, a
    dropped pair never has a flats record, and z is refused as the Fraction
    ranks refuse it, on square maps and past 2n+1, pure and mixed.  (The
    names kept from the echelon walk, deleted since, name its tests.)"""

    def walk_map(self, rng, key):
        m = key[1]
        h, cert = random_certified_map(rng, WALK_SHAPES[key], m)
        square = all(2 * len(t) == m + 1 for t in cert.tops)
        assert square == (len(key) == 2)
        return h, cert

    def probes(self, rng, h, key):
        # past 2n+1 only the points drawn on chords have secants
        return TestPairPrune().probes(rng, h, 10 if len(key) == 2 else 20)

    @pytest.mark.parametrize("key", WALK_CASES)
    def test_records_equal_the_echelon_walk_and_the_flats(self, key):
        rng = random.Random(60 + key[0] + 7 * (key[1] - 2 * key[0] - 1) + len(key))
        records = 0
        for _ in range(3):
            h, cert = self.walk_map(rng, key)
            for z in self.probes(rng, h, key):
                walked = refusal(lambda: secant_set(h, z, certificate=cert))
                assert views(walked) == oracle_secant_set(h, z, cert)
                records += len(walked) if isinstance(walked, list) else 0
        assert records >= 15

    @pytest.mark.parametrize("key", WALK_CASES)
    def test_dropped_pairs_have_no_flats_record(self, key, monkeypatch):
        kept = []
        records = _PluckerProbe.records

        def spy(self, i, j):
            kept.append((self.tops[i], self.tops[j]))
            return records(self, i, j)

        monkeypatch.setattr(_PluckerProbe, "records", spy)
        rng = random.Random(70 + key[0] + 7 * (key[1] - 2 * key[0] - 1) + len(key))
        # kept and dropped pairs of tops of k vertices, which the signs decide
        dropped = found = 0
        for _ in range(3):
            h, cert = self.walk_map(rng, key)
            for z in self.probes(rng, h, key):
                z = vec(z)
                kept.clear()
                if not isinstance(refusal(lambda: secant_set(h, z, certificate=cert)), list):
                    continue
                for s1, s2 in candidate_pairs(h):
                    flats = flats_pair_records(h, z, s1, s2)
                    signed = len(s1) == len(s2) == cert.k
                    if (s1, s2) in kept:
                        assert views(records_of(h, z, cert, s1, s2)) == flats
                        found += signed
                    else:
                        assert signed and flats == []
                        dropped += 1
        assert found >= 15
        if key[0] > 0:  # in R^1 every pair of points has a line through z
            assert dropped >= found

    @pytest.mark.parametrize("key", WALK_CASES[1:])
    def test_zero_slots_of_disjoint_pairs(self, key):
        # z in aff(s1 u (s2 - {w})) makes the pairing of J_s1 with s2's facet
        # without w exactly zero: a slot of neither sign, next to slots that
        # may hold both signs (non-convex weights on s2 - {w}) or not
        rng = random.Random(90 + key[0] + 7 * (key[1] - 2 * key[0] - 1) + len(key))
        decided = 0
        for _ in range(3):
            h, cert = self.walk_map(rng, key)
            for s1, s2 in candidate_pairs(h)[:6]:
                union = s1 | set(sorted_vertices(s2)[1:])
                for convex in (True, False):
                    z = combination(h, union, affine_weights(rng, len(union), convex))
                    walked = refusal(lambda: secant_set(h, z, certificate=cert))
                    assert views(walked) == oracle_secant_set(h, z, cert)
                    decided += isinstance(walked, list)
        assert decided >= 12

    @pytest.mark.parametrize("key", WALK_CASES)
    def test_refusals_equal_the_echelon_ranks(self, key):
        # z in the affine hull of a top, or of a vertex-sharing pair's union
        # (keyed by the shared vertex count), off the image or on it
        n = key[0]
        rng = random.Random(80 + n + 7 * (key[1] - 2 * n - 1) + len(key))
        seen = set()
        for _ in range(3):
            h, cert = self.walk_map(rng, key)
            tops = h.complex.maximal_simplices()
            unions = [(0, tops[rng.randrange(len(tops))]) for _ in range(4)]
            unions += [
                (len(s1 & s2), s1 | s2)
                for s1, s2 in itertools.combinations(tops, 2)
                if s1 & s2
            ]
            for shared, union in unions:
                # off the image for non-convex weights, on it for convex ones
                for convex in (False, False, True):
                    z = combination(h, union, affine_weights(rng, len(union), convex))
                    want = adjacency_refusal(h, z)
                    assert want is not None
                    assert refusal(lambda: secant_set(h, z, certificate=cert)) == want
                    seen.add((shared, want[1]))
        on_image = "probe point lies on the image"
        assert {message for _, message in seen} >= {on_image}
        if n > 0:  # the affine hull of a vertex is the vertex
            assert (0, "probe point affinely dependent with a maximal simplex image") in seen
        adjacent = "probe point affinely dependent with an adjacent pair's image union"
        # one shared vertex is decided by a zero slot, more by an expansion;
        # a top's hull lies in its unions with the earlier tops it meets
        assert {s for s, message in seen if s and message == adjacent} == set(range(1, n + 1))


def projected_zero_edges():
    """Edges ab, cd in R^4 and a third edge ef, with d's last coordinate
    solved so that ab, cd's projected determinant is zero: Pi folds the
    fifth homogeneous coordinate t into the first four as (t, 2t, 3t, 4t),
    so that determinant is linear in d's t.  The full 4 x 5 rows of ab and
    cd keep rank 4."""
    images = {
        "a": [0, 0, 0, 0], "b": [1, 0, 0, 1], "c": [0, 1, 0, 2], "d": [0, 0, 1, None],
        "e": [3, 1, 2, 5], "f": [1, 3, 1, -2],
    }

    def d(t):
        rows = [project((1, *images[v][:3], t if v == "d" else images[v][3]), 4) for v in "abcd"]
        return det(Matrix.from_rows(rows))

    # d is linear in t: d(t) = d(0) + t (d(1) - d(0))
    images["d"][3] = -d(0) / (d(1) - d(0))
    c = SimplicialComplex.from_maximal([["a", "b"], ["c", "d"], ["e", "f"]])
    return PLMap(c, 4, {v: vec(p) for v, p in images.items()})


def test_projected_zero_of_an_independent_pair_is_decided_exactly():
    # without the exact fallback the certificate would fail ab, cd, and
    # the probe would read its secant off dependent projected rows
    h = projected_zero_edges()
    ab, cd = frozenset("ab"), frozenset("cd")
    assert affinely_independent([h.images[v] for v in "abcd"])
    rows = [project((1, *h.images[v]), 4) for v in "abcd"]
    assert rank(Matrix.from_rows(rows)) < 4
    cert = general_position_certificate(h)
    assert cert.overall
    i, j = cert.tops.index(ab), cert.tops.index(cd)
    assert cert.zero_pairs == {i: {j}, j: {i}}
    rng = random.Random(11)
    found = 0
    for t in (F(-3, 2), F(-1, 3), F(5, 2), F(4, 3)):
        p = combination(h, ab, affine_weights(rng, 2, True))
        q = combination(h, cd, affine_weights(rng, 2, True))
        z = tuple(a + t * (b - a) for a, b in zip(p, q))
        records = secant_set(h, z, certificate=cert)
        assert views(records) == unpruned_secant_set(h, z, cert)
        found += sum(r.ends[0].simplex == ab and r.ends[1].simplex == cd for r in records)
    assert found == 4


def test_probe_and_analyze_on_a_map_past_2n_plus_1(capsys, tmp_path):
    # the quadrilateral padded to R^4, past 2n+1 = 3, where Pi folds the
    # fifth homogeneous coordinate: probe's and analyze's records are the
    # flats enumeration's
    fixture = Path(plgp.__file__).parent / "fixtures" / "quadrilateral.json"
    obj = json.loads(fixture.read_text())
    obj["m"] = 4
    obj["images"] = {v: p + ["0"] for v, p in obj["images"].items()}
    source, embedded = tmp_path / "quad4.json", tmp_path / "quad4-embedded.json"
    source.write_text(json.dumps(obj))
    argv = ["embed", "--input", str(source), "--delta", "1", "--seed", "7"]
    assert main([*argv, "--out", str(embedded)]) == 0
    capsys.readouterr()
    h = plmap_from_obj(json.loads(embedded.read_text()))
    assert h.m == 4
    cert = general_position_certificate(h)

    def oracle(z):
        return [fraction_record_to_obj(rec) for rec in unpruned_secant_set(h, vec(z), cert)]

    argv = ["probe", "--map", str(embedded), "--k", "3", "--samples", "4", "--seed", "1"]
    assert main(argv) == 0
    samples = json.loads(capsys.readouterr().out)["samples"]
    assert len(samples) == 4
    for sample in samples:
        assert sample["records"] == oracle(sample["z"])
    # past 2n+1 a random z has no secant: z on chords of disjoint edges
    rng = random.Random(9)
    found = 0
    for s1, s2 in candidate_pairs(h)[:4]:
        p = combination(h, s1, affine_weights(rng, 2, True))
        q = combination(h, s2, affine_weights(rng, 2, True))
        z = [rat_str(a + F(5, 2) * (b - a)) for a, b in zip(p, q)]
        assert main(["analyze", "--map", str(embedded), "--z=" + ",".join(z)]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert records == oracle(z)
        found += len(records)
    assert found >= 4


def records_of(h, z, cert, s1, s2):
    """The Plücker walk's record of one vertex-disjoint pair of tops."""
    tops = h.complex.maximal_simplices()
    return _PluckerProbe(h, z, cert).records(tops.index(s1), tops.index(s2))


def hinge_map():
    """Edges ab and bc in the plane x3 = 0 and de on the vertical line
    x1 = x2 = 2, above it: certified, tops in the order ab, bc, de."""
    c = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"], ["d", "e"]])
    return PLMap(c, 3, {
        "a": vec([0, 0, 0]), "b": vec([1, 0, 0]), "c": vec([0, 1, 0]),
        "d": vec([2, 2, 1]), "e": vec([2, 2, 2]),
    })


class TestAdjacencyRefusals:
    """The adjacency ranks' refusals, through secant_set and through
    `plgp analyze` (exit 3, the message alone on stderr).  The first failing
    top or union in top order is refused: on the hinge map the union of ab
    and bc (row 0) precedes de alone (row 2)."""

    ADJACENT = "probe point affinely dependent with an adjacent pair's image union"
    TOP = "probe point affinely dependent with a maximal simplex image"
    CASES = {
        # in aff(ab u bc), off aff(ab) and off the image
        "sharing-union": ("-1,-1,0", ADJACENT),
        # on aff(ab), the first top, beyond b
        "top": ("3,0,0", TOP),
        # on aff(ab u bc) and on aff(de), below d: ab's row fails first
        "union-before-later-top": ("2,2,0", ADJACENT),
    }

    def test_hinge_map(self):
        h = hinge_map()
        assert [sorted_vertices(t) for t in h.complex.maximal_simplices()] == [
            ("a", "b"), ("b", "c"), ("d", "e")
        ]
        assert general_position_certificate(h).overall

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_secant_set(self, case):
        z, message = self.CASES[case]
        with pytest.raises(DegenerateGeometryError) as info:
            secant_set(hinge_map(), vec(z.split(",")))
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_analyze(self, capsys, tmp_path, case):
        z, message = self.CASES[case]
        path = tmp_path / "hinge.json"
        path.write_text(json.dumps(plmap_to_obj(hinge_map())))
        code = main(["analyze", "--map", str(path), "--z=" + z])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", message + "\n")


def forbid_fraction_kernels(monkeypatch):
    """Make the Fraction kernels raise wherever a plgp module bound them."""
    for name in ("rank", "solve_affine", "det", "affinely_independent"):
        original = getattr(exact_module, name)

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called on the secant path")

        for modname, module in list(sys.modules.items()):
            if modname == "plgp" or modname.startswith("plgp."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, forbidden)


class TestIntegerPath:
    """secant_set and secants_for_pair run on Python ints: with the Fraction
    kernels made to raise, they still find records on certified maps."""

    @pytest.mark.parametrize("n, m", [(1, 3), (2, 5)])
    def test_no_fraction_kernel_on_the_secant_path(self, n, m, monkeypatch):
        rng = random.Random(50 + n)
        maps = [random_certified_map(rng, PRUNE_COMPLEXES[n, m], m) for _ in range(2)]
        forbid_fraction_kernels(monkeypatch)
        found = 0
        for h, cert in maps:
            pairs = candidate_pairs(h)
            for _ in range(8):
                z = z_near_a_chord(rng, h, *rng.choice(pairs))
                try:
                    records = secant_set(h, z, certificate=cert)
                except (DegenerateGeometryError, PreconditionError):
                    continue
                per_pair = [
                    rec
                    for s1, s2 in pairs
                    for rec in secants_for_pair(h, z, s1, s2, certificate=cert)
                ]
                assert {line_key(r.line) for r in records} == {
                    line_key(r.line) for r in per_pair
                }
                found += len(records)
        assert found >= 15


FIXTURES = Path(plgp.__file__).parent / "fixtures"


def fraction_oracle_record(h, rec):
    """rec rebuilt in Fractions from its weights alone: BarycentricPoint,
    complexes.evaluate and flats.line_through, the oracle of the record's
    integer frame."""
    witnesses = []
    for w in rec.ends:
        bary = BarycentricPoint(w.vertices, tuple(F(t, w.d) for t in w.weights))
        witnesses.append((w.simplex, evaluate(h, bary), bary))
    gap = [a - c for a, c in zip(witnesses[1][1], rec.z)]
    return FlatsRecord(line_through(rec.z, gap), rec.z, tuple(witnesses))


class TestIntegerRecords:
    """A record stays on its probe's integer frame up to the report text:
    its record_to_obj object, its Fraction views and the order of a probe's
    records equal the Fraction oracle's, on the benchmark's maps and seeds,
    octafiber's fibers and a map past 2n+1."""

    def check(self, h, records) -> int:
        oracle = [fraction_oracle_record(h, rec) for rec in records]
        assert [record_to_obj(r) for r in records] == [
            fraction_record_to_obj(o) for o in oracle
        ]
        assert views(records) == oracle
        keys = [line_key(o.line) for o in oracle]
        assert keys == sorted(set(keys))
        return len(records)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_probe_sweep_maps_and_octafiber(self, seed):
        # probe-sweep's maps, embedded and probed as its commands do, and
        # the fibered-octafiber command's probes
        found = 0
        for name, delta, count in (("triangles5", F(1, 2), 10), ("quadrilateral", F(1), 20)):
            h0 = plmap_from_obj(json.loads((FIXTURES / (name + ".json")).read_text()))
            h, report = perturb_to_general_position(subdivide_until(h0, delta), delta, seed)
            for probe in probe_region_samples(h, 3, count, seed):
                found += self.check(h, secant_set(h, probe.z, certificate=report.certificate))
        inst = instance_from_obj(json.loads((FIXTURES / "octafiber.json").read_text()))
        for label, emb in fiberwise_embed(inst, F(1, 2), seed).items():
            probes = probe_region_samples(emb.map, 3, 3, derive_seed(seed, label + "|probe"))
            for probe in probes:
                records = secant_set(emb.map, probe.z, certificate=emb.report.certificate)
                found += self.check(emb.map, records)
        assert found >= 100

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_projected_walk_on_a_map_past_2n_plus_1(self, seed, monkeypatch):
        # the quadrilateral in R^4 is not square, so its records come off
        # the rows Pi folds, each checked on the coordinate Pi drops; past
        # 2n+1 z lies on chords of disjoint edges
        walked = []
        holds = _PluckerProbe._holds

        def spy(self, i, j, alpha, beta):
            walked.append((i, j))
            return holds(self, i, j, alpha, beta)

        monkeypatch.setattr(_PluckerProbe, "_holds", spy)
        h0 = plmap_from_obj(json.loads((FIXTURES / "quadrilateral.json").read_text()))
        h, report = perturb_to_general_position(
            subdivide_until(padded_map(h0, 1), F(1)), F(1), seed
        )
        assert h.m == 4
        rng = random.Random(seed)
        found = 0
        for s1, s2 in candidate_pairs(h):
            p = combination(h, s1, affine_weights(rng, len(s1), True))
            q = combination(h, s2, affine_weights(rng, len(s2), True))
            t = rng.choice([F(-3, 2), F(5, 2)])
            z = tuple(a + t * (b - a) for a, b in zip(p, q))
            found += self.check(h, secant_set(h, z, certificate=report.certificate))
        assert walked and found >= len(candidate_pairs(h))


@pytest.mark.parametrize("name", ["triangles5-r6", "mixed5"])
def test_non_square_fixtures_match_the_oracles(name):
    # triangles5 padded to R^6, past 2n+1, embedded at delta 1/2 (12
    # tops), and a triangle, an edge and a vertex in R^5 at delta 1 (9
    # tops): records equal the flats enumeration, and refusals the Fraction
    # ranks, for points on chords of candidate pairs, at random, and in the
    # hulls of vertex-sharing unions
    h0 = plmap_from_obj(json.loads((FIXTURES / (name + ".json")).read_text()))
    delta = F(1, 2) if name == "triangles5-r6" else F(1)
    h, report = perturb_to_general_position(subdivide_until(h0, delta), delta, 1)
    cert = report.certificate
    tops = cert.tops
    assert name != "triangles5-r6" or all(2 * len(t) < h.m + 1 for t in tops)
    assert name != "mixed5" or len({len(t) for t in tops}) == 3
    rng = random.Random(5)
    points = TestPairPrune().probes(rng, h, 30)
    unions = [s1 | s2 for s1, s2 in itertools.combinations(tops, 2) if s1 & s2]
    for union in rng.sample(unions, 6):
        points.append(combination(h, union, affine_weights(rng, len(union), False)))
    records = refusals = 0
    for z in points:
        walked = refusal(lambda: secant_set(h, z, certificate=cert))
        assert views(walked) == oracle_secant_set(h, z, cert)
        if isinstance(walked, list):
            records += TestIntegerRecords().check(h, walked)
        else:
            refusals += 1
    assert records >= 10 and refusals >= 3


def test_mixed_probe_packs_only_the_tops_of_k_vertices(monkeypatch):
    # mixed5 at delta 1: the facet duals are packed for the tops of k
    # vertices only, so every probe row pairs with len(full) * k slots and
    # none is a smaller top's zero; a packed position is spread back to its
    # top index, and the records and refusals equal the oracles'
    h0 = plmap_from_obj(json.loads((FIXTURES / "mixed5.json").read_text()))
    h, report = perturb_to_general_position(subdivide_until(h0, F(1)), F(1), 1)
    cert = report.certificate
    tops, k = cert.tops, cert.k
    facets = cert.facet_pairings
    assert facets.full == [i for i, t in enumerate(tops) if len(t) == k]
    assert len(facets.full) < len(tops)
    assert facets.full[-1] >= len(facets.full)  # the spread is not the identity
    for f in range(len(facets.full)):
        assert facets.spread(0b101 << f) == sum(
            1 << facets.full[g] for g in (f, f + 2) if g < len(facets.full)
        )
    widths = []
    signs = exact_module.PackedPairings.signs

    def spy(packed, p):
        negative, zeros = signs(packed, p)
        widths.append(len(negative))
        return negative, zeros

    monkeypatch.setattr(exact_module.PackedPairings, "signs", spy)
    rng = random.Random(3)
    records = 0
    for z in TestPairPrune().probes(rng, h, 12):
        walked = refusal(lambda: secant_set(h, z, certificate=cert))
        assert views(walked) == oracle_secant_set(h, z, cert)
        records += len(walked) if isinstance(walked, list) else 0
    assert widths and set(widths) == {len(facets.full) * k}
    assert records > 0


def test_projected_zeros_about_z_are_ranked_exactly():
    # z independent of the rows it is ranked with in R^(m+1), but with a
    # zero on Pi's rows: a sharing union ab u bc in R^4, whose projected
    # determinant with z is linear in z's last coordinate, and a top ab in
    # R^5, z's projected row in the span of ab's, from two tail coordinates.
    # Without the exact ranks secant_set would refuse z
    c = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"], ["d", "e"]])
    images = {"a": [0, 0, 0, 1], "b": [1, 0, 2, 0], "c": [0, 3, 1, 1],
              "d": [2, 1, 0, 3], "e": [1, 2, 5, 1]}
    h = PLMap(c, 4, {v: vec(p) for v, p in images.items()})

    def d(t):
        rows = [project((1, *images[v]), 4) for v in "abc"] + [project((1, 5, 7, 11, t), 4)]
        return det(Matrix.from_rows(rows))

    z1 = vec([5, 7, 11, -d(0) / (d(1) - d(0))])
    c = SimplicialComplex.from_maximal([["a", "b"], ["d", "e"]])
    images = {"a": [0, 0, 0, 1, 2], "b": [1, 0, 2, 0, 1], "d": [2, 1, 0, 3, 1],
              "e": [1, 2, 5, 1, 3]}
    g = PLMap(c, 5, {v: vec(p) for v, p in images.items()})
    a, b = (project((1, *images[v]), 4) for v in "ab")
    # x a + y b = (1, 5, 7, 11) + Pi's tail columns times (t1, t2)
    columns = Matrix.from_rows(
        [[a[i], b[i], -(i + 1), -(i + 1) ** 2] for i in range(4)]
    )
    _, _, t1, t2 = solve_affine(columns, [1, 5, 7, 11]).particular
    z2 = vec([5, 7, 11, t1, t2])
    for m, z, vertices in ((h, z1, "abc"), (g, z2, "ab")):
        rows = [project((1, *m.images[v]), 4) for v in vertices] + [project((1, *z), 4)]
        assert rank(Matrix.from_rows(rows)) < len(rows)
        assert affinely_independent([z] + [m.images[v] for v in vertices])
        cert = general_position_certificate(m)
        assert adjacency_refusal(m, z) is None
        assert views(secant_set(m, z, certificate=cert)) == unpruned_secant_set(m, z, cert)
