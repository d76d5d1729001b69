import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import plgp
import plgp.secant as secant_module
from plgp.cli import main
from plgp.complexes import (
    PLMap,
    SimplicialComplex,
    plmap_from_obj,
    plmap_to_obj,
    sorted_vertices,
    subdivide_until,
)
from plgp.errors import DegenerateGeometryError, PreconditionError, ThinRegionError
import plgp.exact as exact_module
from plgp.exact import Echelon, Matrix, norm_sq, rank, rat_str, vec
from plgp.flats import (
    AffineFlat,
    line_key,
    line_meets_simplex,
    line_to_obj,
    span_of_points,
    transversal_line_through_point,
)
from plgp.perturb import (
    MaximalVerdicts,
    general_position_certificate,
    is_square,
    perturb_to_general_position,
)
from plgp.secant import (
    CoverCertificate,
    SecantRecord,
    _PluckerProbe,
    _ProbeEchelons,
    cover_certificate_to_obj,
    cover_parameters,
    line_distance,
    pair_to_obj,
    probe_region_samples,
    record_to_obj,
    secant_set,
    secants_for_pair,
    zero_dim_certificate,
)


F = Fraction

X_AXIS = AffineFlat(3, vec([0, 0, 0]), (vec([1, 0, 0]),))
Y_AXIS = AffineFlat(3, vec([0, 0, 0]), (vec([0, 1, 0]),))
SHIFTED_X = AffineFlat(3, vec([0, 1, 0]), (vec([1, 0, 0]),))


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
        recs = [type("R", (), {"line": X_AXIS})()]
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
        recs = [type("R", (), {"line": line})() for line in (X_AXIS, SHIFTED_X)]
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
            type("R", (), {"line": X_AXIS})(),
            type("R", (), {"line": SHIFTED_X})(),
        ]
        cert = zero_dim_certificate(recs, 0.1, 10)
        assert cert.valid
        assert cert.radius == pytest.approx(0.1 / 3)

    def test_duplicates_rejected(self):
        rec = type("R", (), {"line": X_AXIS})()
        with pytest.raises(PreconditionError):
            zero_dim_certificate([rec, rec], 0.1, 10)

    def test_each_line_clipped_once_and_distances_as_line_distance(self, monkeypatch):
        slanted = AffineFlat(3, vec([1, 2, 0]), (vec([1, 1, 1]),))
        lines = [X_AXIS, SHIFTED_X, Y_AXIS, slanted]
        recs = [type("R", (), {"line": line})() for line in lines]
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
        assert clipped == lines

    def test_single_line_missing_the_ball_still_certified(self):
        far = AffineFlat(3, vec([0, 100, 0]), (vec([1, 0, 0]),))
        cert = zero_dim_certificate([type("R", (), {"line": far})()], 0.3, 10)
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
    original = secant_module.line_to_obj

    def counting(line):
        lines.append(line)
        return original(line)

    monkeypatch.setattr(secant_module, "line_to_obj", counting)
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


def test_probe_releases_each_echelon_after_its_row(monkeypatch):
    # on a square map secant_set builds no Echelon: the Plücker walk
    # decides every top and pair; on a map in R^6, past 2n+1, it builds each
    # top's Echelon once per probe and keeps none past its row (i, j), j > i,
    # so none is rebuilt after it is released
    fixture = Path(plgp.__file__).parent / "fixtures" / "triangles5.json"
    h0 = plmap_from_obj(json.loads(fixture.read_text()))
    built = []
    init = Echelon.__init__

    def spy_init(self, points, origin, s):
        built.append(s)
        init(self, points, origin, s)

    monkeypatch.setattr(Echelon, "__init__", spy_init)
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
    tops = h.complex.maximal_simplices()
    row = {s: i for i, s in enumerate(tops)}
    stale = []
    records = _ProbeEchelons.records

    def spy_records(self, s1, s2):
        stale.extend(s for s in tops[: row[s1]] if s in self)
        return records(self, s1, s2)

    monkeypatch.setattr(_ProbeEchelons, "records", spy_records)
    # past 2n+1 a random z has no secant: z on a chord of two disjoint tops
    rng = random.Random(7)
    found = 0
    for _ in range(3):
        s1, s2 = rng.choice(candidate_pairs(h))
        p = combination(h, s1, affine_weights(rng, len(s1), True))
        q = combination(h, s2, affine_weights(rng, len(s2), True))
        built.clear()
        z = tuple(a + F(5, 2) * (b - a) for a, b in zip(p, q))
        found += len(secant_set(h, z, certificate=report.certificate))
        assert sorted(built, key=row.get) == tops
        assert stale == []
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
    return [
        SecantRecord(
            line=line,
            z=z,
            witnesses=((s1,) + hit1, (s2,) + hit2),
        )
    ]


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
    """The pair kernel against the flats construction: the same line,
    witness points, weights and pair, or the same exception."""

    def both(self, h, cert, z, s1, s2):
        z = vec(z)
        s1, s2 = frozenset(s1), frozenset(s2)

        def outcome(run):
            try:
                records = run()
            except Exception as exc:  # noqa: BLE001 - compared by type
                return type(exc)
            return [(line_key(r.line), r.witnesses) for r in records]

        kernel = outcome(lambda: _ProbeEchelons(z, cert).records(s1, s2))
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
            assert fast == slow
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
    """Each pair is decided on two small reduced systems: the enumeration
    against the flats construction on every candidate pair, and each pair's
    verdict and record against its flats record."""

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
        echelons = _ProbeEchelons(z, cert)
        dropped = records = 0
        for s1, s2 in candidate_pairs(h) if pairs is None else pairs:
            kept = echelons.records(s1, s2)
            assert kept == flats_pair_records(h, z, s1, s2), (s1, s2)
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
                assert pruned == self.outcome(
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
        # secant_set takes the vertex-disjoint pairs in the order of the
        # plain double loop, every pair once on the echelon walk; the square
        # maps, (n, m) = (0, 1) here, take the Plücker walk, whose sign tests
        # keep every pair of points in R^1
        calls = []
        records = _ProbeEchelons.records
        plucker_records = _PluckerProbe.records

        def spy(self, s1, s2):
            calls.append((s1, s2))
            return records(self, s1, s2)

        def plucker_spy(self, i, j):
            calls.append((self.tops[i], self.tops[j]))
            return plucker_records(self, i, j)

        monkeypatch.setattr(_ProbeEchelons, "records", spy)
        monkeypatch.setattr(_PluckerProbe, "records", plucker_spy)
        rng = random.Random(47)
        walked = 0
        for (n, m), maximal in sorted(PRUNE_COMPLEXES.items()):
            h, cert = random_certified_map(rng, maximal, m)
            pairs = candidate_pairs(h)
            for z in self.probes(rng, h, 4):
                calls.clear()
                if isinstance(self.outcome(lambda: secant_set(h, z, certificate=cert)), list):
                    assert calls == pairs
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
        # the quadrilateral in the plane, below the certificate's m >= 2n+1:
        # each edge's row with z has full rank, but an adjacent pair has one
        # vertex beyond the edge and m - 2 = 0 free columns
        c = quad_map().complex
        h = PLMap(c, 2, {
            "a": vec([0, 0]), "b": vec([1, 0]), "c": vec([1, 1]), "d": vec([0, 1]),
        })
        z = vec([3, 5])
        # MaximalVerdicts has no m >= 2n+1 check, so the plane is allowed
        echelons = _ProbeEchelons(z, MaximalVerdicts(h))
        with pytest.raises(DegenerateGeometryError, match="adjacent pair"):
            secant_module._assert_adjacent_secant_free(
                h, z, echelons, c.maximal_simplices()
            )

    def test_adjacent_ranks_take_each_tops_later_sharing_tops(self, monkeypatch):
        # the vertex -> top index gives each top, in order, the same extra
        # sets as intersecting it with every later top
        calls = []
        full_rank = Echelon.full_rank

        def spy(self, *extras):
            calls.append((self, list(extras)))
            return full_rank(self, *extras)

        monkeypatch.setattr(Echelon, "full_rank", spy)
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
            echelons = _ProbeEchelons(z, MaximalVerdicts(h))
            calls.clear()
            secant_module._assert_adjacent_secant_free(h, z, echelons, tops)
            brute = [
                (echelons[s1], [s2 - s1 for s2 in tops[i + 1:] if s1 & s2])
                for i, s1 in enumerate(tops)
            ]
            assert calls == brute
            sharing += sum(len(extras) for _, extras in brute)
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

SQUARE_CASES = [pytest.param(n, m, id=f"n{n}-m{m}") for n, m in sorted(SQUARE_COMPLEXES)]


def echelon_secant_set(h, z, cert):
    """secant_set on the echelon walk, whatever the map's shape: the oracle
    of the Plücker walk."""
    by_key = {}
    for rec in secant_module._echelon_walk(h, vec(z), cert, h.complex.maximal_simplices()):
        by_key.setdefault(line_key(rec.line), rec)
    return [by_key[key] for key in sorted(by_key)]


def refusal(run):
    """run's result, or the type and message of its refusal."""
    try:
        return run()
    except (DegenerateGeometryError, PreconditionError) as exc:
        return type(exc), str(exc)


class TestPluckerWalk:
    """On square maps secant_set decides every pair by Plücker signs: the
    same records as the echelon walk and the flats enumeration, a dropped
    pair never has a flats record, and z is refused as the echelon ranks
    refuse it."""

    def square_map(self, rng, n, m):
        h, cert = random_certified_map(rng, SQUARE_COMPLEXES[n, m], m)
        assert is_square(h.complex.maximal_simplices(), m)
        return h, cert

    @pytest.mark.parametrize("n, m", SQUARE_CASES)
    def test_records_equal_the_echelon_walk_and_the_flats(self, n, m):
        rng = random.Random(60 + n)
        records = 0
        for _ in range(3):
            h, cert = self.square_map(rng, n, m)
            for z in TestPairPrune().probes(rng, h, 10):
                square = refusal(lambda: secant_set(h, z, certificate=cert))
                assert square == refusal(lambda: echelon_secant_set(h, z, cert))
                assert square == refusal(lambda: unpruned_secant_set(h, z, cert))
                records += len(square) if isinstance(square, list) else 0
        assert records >= 15

    @pytest.mark.parametrize("n, m", SQUARE_CASES)
    def test_dropped_pairs_have_no_flats_record(self, n, m, monkeypatch):
        kept = []
        records = _PluckerProbe.records

        def spy(self, i, j):
            kept.append((self.tops[i], self.tops[j]))
            return records(self, i, j)

        monkeypatch.setattr(_PluckerProbe, "records", spy)
        rng = random.Random(70 + n)
        dropped = found = 0
        for _ in range(3):
            h, cert = self.square_map(rng, n, m)
            for z in TestPairPrune().probes(rng, h, 10):
                z = vec(z)
                kept.clear()
                if not isinstance(refusal(lambda: secant_set(h, z, certificate=cert)), list):
                    continue
                for s1, s2 in candidate_pairs(h):
                    flats = flats_pair_records(h, z, s1, s2)
                    if (s1, s2) in kept:
                        assert records_of(h, z, cert, s1, s2) == flats
                        found += 1
                    else:
                        assert flats == []
                        dropped += 1
        assert found >= 15
        if n > 0:  # in R^1 every pair of points has a line through z
            assert dropped >= found

    @pytest.mark.parametrize("n, m", SQUARE_CASES[1:])
    def test_zero_slots_of_disjoint_pairs(self, n, m):
        # z in aff(s1 u (s2 - {w})) makes the pairing of J_s1 with s2's facet
        # without w exactly zero: a slot of neither sign, next to slots that
        # may hold both signs (non-convex weights on s2 - {w}) or not
        rng = random.Random(90 + n)
        decided = 0
        for _ in range(3):
            h, cert = self.square_map(rng, n, m)
            for s1, s2 in candidate_pairs(h)[:6]:
                union = s1 | set(sorted_vertices(s2)[1:])
                for convex in (True, False):
                    z = combination(h, union, affine_weights(rng, len(union), convex))
                    square = refusal(lambda: secant_set(h, z, certificate=cert))
                    assert square == refusal(lambda: echelon_secant_set(h, z, cert))
                    assert square == refusal(lambda: unpruned_secant_set(h, z, cert))
                    decided += isinstance(square, list)
        assert decided >= 12

    @pytest.mark.parametrize("n, m", SQUARE_CASES)
    def test_refusals_equal_the_echelon_ranks(self, n, m):
        # z in the affine hull of a top, or of a vertex-sharing pair's union
        # (keyed by the shared vertex count), off the image or on it
        rng = random.Random(80 + n)
        seen = set()
        for _ in range(3):
            h, cert = self.square_map(rng, n, m)
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
                    echelons = _ProbeEchelons(z, cert)
                    want = refusal(
                        lambda: secant_module._assert_adjacent_secant_free(h, z, echelons, tops)
                    )
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


def test_probe_and_analyze_on_a_map_past_2n_plus_1(capsys, tmp_path):
    # the quadrilateral padded to R^4, past 2n+1 = 3, takes the echelon
    # walk end to end: probe's and analyze's records are the flats
    # enumeration's
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
    assert not is_square(h.complex.maximal_simplices(), h.m)
    cert = general_position_certificate(h)

    def oracle(z):
        return [record_to_obj(rec) for rec in unpruned_secant_set(h, vec(z), cert)]

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
    return _PluckerProbe(h, z, cert, tops).records(tops.index(s1), tops.index(s2))


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


class TestExtraSetsFitTheFreeColumns:
    """Under m >= 2n+1 every extra set t that Echelon.full_rank receives,
    from the certificate's pair passes or from secant_set's adjacency ranks,
    has |t| <= len(free): the sharing pairs and the probe's unions about z
    have |tau - sigma| <= n, and the non-square vertex-disjoint walk has
    |tau| <= n + 1 <= m - n, the least free column count."""

    def test_certificate_and_probe(self, monkeypatch):
        shapes = {"certificate": [], "probe": []}
        caller = ["certificate"]
        full_rank = Echelon.full_rank

        def spy(self, *extras):
            shapes[caller[0]].extend((len(t), len(self.free)) for t in extras)
            return full_rank(self, *extras)

        monkeypatch.setattr(Echelon, "full_rank", spy)
        rng = random.Random(49)
        for n in range(4):
            for m in (2 * n + 1, 2 * n + 2):
                for pure in (True, False):
                    for _ in range(3):
                        verts = range(rng.randrange(n + 3, 3 * n + 7))
                        sizes = [n + 1] * rng.randrange(3, 8)
                        if not pure:
                            sizes += [rng.randrange(1, n + 2) for _ in range(3)]
                        c = SimplicialComplex.from_maximal(
                            [rng.sample(verts, size) for size in sizes]
                        )
                        h = PLMap(c, m, {
                            v: vec([rng.randrange(-10**6, 10**6) for _ in range(m)])
                            for v in c.vertices
                        })
                        caller[0] = "certificate"
                        cert = MaximalVerdicts(h)
                        assert cert.overall
                        caller[0] = "probe"
                        for _ in range(2):
                            z = vec([rng.randrange(-10**6, 10**6) for _ in range(m)])
                            secant_set(h, z, certificate=cert)
        for name, seen in shapes.items():
            assert len(seen) >= 200, name
            assert all(k <= f for k, f in seen), name
        # the bound is met: a vertex-disjoint n-simplex on an n-simplex's echelon
        assert any(k == f for k, f in shapes["certificate"])


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
