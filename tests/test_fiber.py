import dataclasses
import json
import math
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

import plgp
import plgp.fiber as fiber_module
import plgp.records as records_module
from plgp.complexes import (
    BarycentricPoint,
    PLMap,
    SimplicialComplex,
    closeness_bound,
    complex_to_obj,
    evaluate,
    integer_images,
    load_json,
    plmap_to_obj,
    subdivide_until,
)
from plgp.errors import PerturbationBudgetError, PreconditionError
from plgp.exact import dist_sq, rat_str, sqrt_upper, vec
from plgp.fiber import (
    FiberEmbedding,
    FiberedInstance,
    derive_seed,
    eta_secant_set,
    fibered_parameters,
    fibered_report,
    fiberwise_embed,
    instance_from_obj,
    u_map_fine_enough,
)
from plgp.perturb import perturb_to_general_position, report_to_obj
from plgp.records import record_to_obj
from plgp.secant import probe_region_samples, secant_set

FIXTURES = Path(plgp.__file__).parent / "fixtures"


def fiber_distance_sq(emb, x1, x2):
    """Exact squared distance between two polyhedron points in the fiber
    metric, in Fractions: the oracle of the integer fiber distances."""
    return dist_sq(evaluate(emb.reference, x1), evaluate(emb.reference, x2))


def two_segment_fiber(prefix, shift=(0, 0, 0)):
    """Two disjoint segments whose pair certificate passes without perturbing."""
    a, b, c, d = (prefix + s for s in "abcd")
    cx = SimplicialComplex.from_maximal([[a, b], [c, d]])
    base = {
        a: vec([0, 0, 0]),
        b: vec([1, 0, 0]),
        c: vec([0, 0, 1]),
        d: vec([0, 1, 1]),
    }
    off = vec(shift)
    images = {v: tuple(x + o for x, o in zip(p, off)) for v, p in base.items()}
    return cx, PLMap(cx, 3, images)


def quad_fiber(prefix):
    """Planar unit/2 square cycle; coplanar, so perturbation must act."""
    a, b, c, d = (prefix + s for s in "abcd")
    cx = SimplicialComplex.from_maximal([[a, b], [b, c], [c, d], [d, a]])
    images = {
        a: vec([0, 0, 0]),
        b: vec([F(1, 2), 0, 0]),
        c: vec([F(1, 2), F(1, 2), 0]),
        d: vec([0, F(1, 2), 0]),
    }
    return cx, PLMap(cx, 3, images)


def single_instance(eta=()):
    cx, ref = two_segment_fiber("f")
    return FiberedInstance(("f",), {"f": cx}, {"f": ref}, 3, tuple(eta))


def double_instance():
    c1, r1 = two_segment_fiber("p")
    c2, r2 = two_segment_fiber("q")
    return FiberedInstance(("p", "q"), {"p": c1, "q": c2}, {"p": r1, "q": r2}, 3)


class TestInstance:
    def test_valid_construction(self):
        inst = double_instance()
        assert inst.dimension == 1
        assert set(inst.labels) == {"p", "q"}

    def test_empty_base(self):
        inst = FiberedInstance((), {}, {}, 3)
        assert inst.dimension == -1

    def test_shared_vertex_rejected(self):
        c1, r1 = two_segment_fiber("p")
        with pytest.raises(ValueError, match="shared"):
            FiberedInstance(("x", "y"), {"x": c1, "y": c1}, {"x": r1, "y": r1}, 3)

    def test_ambient_mismatch_rejected(self):
        cx, _ = two_segment_fiber("f")
        flat = PLMap(cx, 2, {v: vec([0, i]) for i, v in enumerate(sorted(cx.vertices))})
        with pytest.raises(ValueError, match="ambient"):
            FiberedInstance(("f",), {"f": cx}, {"f": flat}, 3)

    def test_reference_on_wrong_complex(self):
        c1, r1 = two_segment_fiber("p")
        c2, _ = two_segment_fiber("q")
        with pytest.raises(ValueError, match="not a map"):
            FiberedInstance(("q",), {"q": c2}, {"q": r1}, 3)

    def test_label_cover_mismatch(self):
        cx, ref = two_segment_fiber("f")
        with pytest.raises(ValueError):
            FiberedInstance(("f", "g"), {"f": cx}, {"f": ref}, 3)

    def test_nonpositive_eta_default_rejected(self):
        cx, ref = two_segment_fiber("f")
        with pytest.raises(ValueError, match="eta"):
            FiberedInstance(("f",), {"f": cx}, {"f": ref}, 3, (F(0),))

    def test_json_round_trip(self):
        obj = json.loads((FIXTURES / "octafiber.json").read_text())
        inst = instance_from_obj(obj)
        assert inst.labels == tuple(sorted(obj["fibers"]))
        assert inst.m == obj["m"]
        assert [rat_str(e) for e in inst.eta] == obj["eta"]
        for label in inst.labels:
            assert complex_to_obj(inst.fibers[label]) == obj["fibers"][label]
            assert (
                plmap_to_obj(inst.references[label])
                == obj["reference_embeddings"][label]
            )

    def test_from_obj_rejects_label_mismatches(self):
        obj = json.loads((FIXTURES / "octafiber.json").read_text())
        extra = json.loads(json.dumps(obj))
        extra["reference_embeddings"]["ghost"] = extra["reference_embeddings"]["f0"]
        with pytest.raises(ValueError, match="ghost"):
            instance_from_obj(extra)
        missing = json.loads(json.dumps(obj))
        del missing["reference_embeddings"]["f0"]
        with pytest.raises(ValueError, match="reference embedding"):
            instance_from_obj(missing)
        bare = json.loads(json.dumps(obj))
        del bare["m"]
        with pytest.raises(ValueError, match="m"):
            instance_from_obj(bare)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")
        assert 0 <= derive_seed(7, "a") < 2 ** 64


class TestFiberwiseEmbed:
    def test_empty_base(self):
        assert fiberwise_embed(FiberedInstance((), {}, {}, 3), 1, 0) == {}

    def test_single_fiber_matches_plain_pipeline(self):
        inst = single_instance()
        embs = fiberwise_embed(inst, 1, 11)
        ref = subdivide_until(inst.references["f"], 1)
        g, report = perturb_to_general_position(ref, 1, derive_seed(11, "f"))
        assert embs["f"].map.images == g.images
        assert report_to_obj(embs["f"].report) == report_to_obj(report)
        cert = embs["f"].report.certificate
        assert cert.moved == report.certificate.moved
        assert cert.overall == report.certificate.overall
        assert embs["f"].reference.images == ref.images

    def test_two_copies_diverge_under_derived_seeds(self):
        c1, r1 = quad_fiber("x")
        c2, r2 = quad_fiber("y")
        inst = FiberedInstance(("x", "y"), {"x": c1, "y": c2}, {"x": r1, "y": r2}, 3)
        embs = fiberwise_embed(inst, F(1, 2), 3)
        assert embs["x"].report.certificate.overall
        assert embs["y"].report.certificate.overall
        xs = sorted(embs["x"].map.images.values())
        ys = sorted(embs["y"].map.images.values())
        assert xs != ys

    def test_closeness_and_displacement_bounds(self):
        c1, r1 = quad_fiber("x")
        inst = FiberedInstance(("x",), {"x": c1}, {"x": r1}, 3)
        delta = F(1, 2)
        emb = fiberwise_embed(inst, delta, 3)["x"]
        assert emb.report.max_displacement < delta / 2
        assert closeness_bound(emb.reference, emb.map) < delta

    def test_ambient_bound_checked(self):
        cx, _ = two_segment_fiber("f")
        flat = PLMap(cx, 2, {v: vec([0, i]) for i, v in enumerate(sorted(cx.vertices))})
        inst = FiberedInstance(("f",), {"f": cx}, {"f": flat}, 2)
        with pytest.raises(PreconditionError, match="bound"):
            fiberwise_embed(inst, 1, 0)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(PreconditionError):
            fiberwise_embed(single_instance(), 0, 0)

    def test_budget_failure_names_the_fiber(self):
        cx = SimplicialComplex.from_maximal([["xa"], ["xb"]])
        ref = PLMap(cx, 3, {"xa": vec([0, 0, 0]), "xb": vec([0, 0, 0])})
        inst = FiberedInstance(("bad",), {"bad": cx}, {"bad": ref}, 3)
        with pytest.raises(PerturbationBudgetError, match="bad") as info:
            fiberwise_embed(inst, F(1, 2 ** 32), 0)
        assert info.value.certificate is not None
        assert not info.value.certificate.overall


class TestEtaSecantSet:
    def setup_method(self):
        self.inst = single_instance()
        self.embs = fiberwise_embed(self.inst, 3, 0)
        self.z = vec([0, 0, 2])

    def test_full_set_at_tiny_eta(self):
        full = secant_set(self.embs["f"].map, self.z)
        kept = eta_secant_set(self.embs, self.inst, "f", self.z, F(1, 2 ** 60))
        assert len(kept) == len(full) == 1
        assert kept[0].record == full[0]

    def test_boundary_eta_retained(self):
        # the lone secant's preimages sit at exact fiber distance 1
        kept = eta_secant_set(self.embs, self.inst, "f", self.z, 1)
        assert len(kept) == 1
        assert kept[0].fiber_distance_sq == 1
        assert kept[0].eta == 1

    def test_eta_beyond_diameter_empties(self):
        assert eta_secant_set(self.embs, self.inst, "f", self.z, 2) == []

    def test_monotone_in_eta(self):
        probes = probe_region_samples(self.embs["f"].map, 3, 12, 5)
        etas = [F(2), F(1), F(1, 2), F(1, 4), F(1, 2 ** 40)]
        for probe in probes:
            sizes = [
                len(eta_secant_set(self.embs, self.inst, "f", probe.z, eta))
                for eta in etas
            ]
            assert sizes == sorted(sizes)
            full = secant_set(self.embs["f"].map, probe.z)
            assert sizes[-1] == len(full)

    def test_union_over_eta_grid_recovers_full_set(self):
        probes = probe_region_samples(self.embs["f"].map, 3, 12, 5)
        for probe in probes:
            full = secant_set(self.embs["f"].map, probe.z)
            if not full:
                continue
            tiny = eta_secant_set(
                self.embs, self.inst, "f", probe.z, F(1, 2 ** 40)
            )
            dmin2 = min(er.fiber_distance_sq for er in tiny)
            bound = math.ceil(1 / dmin2)  # 1/bound <= dmin2 <= dmin
            grid = [F(1, j) for j in range(1, bound + 1)]
            union = set()
            for eta in grid:
                for er in eta_secant_set(self.embs, self.inst, "f", probe.z, eta):
                    union.add(er.record)
            assert union == set(full)

    def test_distance_reverifies_independently(self):
        kept = eta_secant_set(self.embs, self.inst, "f", self.z, F(1, 2))
        ref = self.embs["f"].reference
        for er in kept:
            x1 = er.record.witnesses[0][2]
            x2 = er.record.witnesses[1][2]
            again = dist_sq(evaluate(ref, x1), evaluate(ref, x2))
            assert again == er.fiber_distance_sq
            assert again >= er.eta * er.eta

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            eta_secant_set(self.embs, self.inst, "f", self.z, 0)
        with pytest.raises(ValueError, match="unknown"):
            eta_secant_set(self.embs, self.inst, "g", self.z, 1)


class TestUMapFlag:
    def test_coarse_fiber_flagged(self):
        inst = single_instance()
        emb = fiberwise_embed(inst, 3, 0)["f"]
        # both segments have fiber diameter exactly 1
        assert u_map_fine_enough(emb, 2)
        assert not u_map_fine_enough(emb, 1)
        assert not u_map_fine_enough(emb, F(1, 2))

    def test_subdivision_restores_fineness(self):
        inst = single_instance()
        emb = fiberwise_embed(inst, F(1, 2), 0)["f"]
        assert u_map_fine_enough(emb, 1)

    @staticmethod
    def diameter_sq(h, simplex):
        """The largest squared distance between two of a simplex's vertex
        images, in Fractions."""
        pts = h.simplex_images(simplex)
        return max((dist_sq(a, b) for a, b in combinations(pts, 2)), default=F(0))

    def per_top(self, emb, eta):
        """The per-top rule: every maximal simplex's diameter below eta."""
        ref = emb.reference
        return all(
            self.diameter_sq(ref, s) < eta * eta
            for s in ref.complex.maximal_simplices()
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_edges_decide_like_the_per_top_rule(self, seed):
        rng = random.Random(seed)
        # on a line every squared diameter is a rational square, so eta^2
        # can equal the largest one exactly
        m = 1 if seed % 2 else 3
        verts = ["v%d" % i for i in range(8)]
        tops = [rng.sample(verts, rng.randint(1, 3)) for _ in range(5)]
        cx = SimplicialComplex.from_maximal(tops)
        images = {
            v: tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m))
            for v in cx.vertices
        }
        h = PLMap(cx, m, images)
        emb = FiberEmbedding("f", h, h, None)
        worst = max(self.diameter_sq(h, s) for s in cx.maximal_simplices())
        # lo^2 <= worst <= hi^2, both equalities exactly when worst is a square
        hi = sqrt_upper(worst)
        lo = worst / hi
        if m == 1:
            assert lo == hi
        nudge = F(1, 10**6)
        for eta in (lo, hi, lo * (1 - nudge), hi * (1 + nudge)):
            assert u_map_fine_enough(emb, eta) == self.per_top(emb, eta)
        assert not u_map_fine_enough(emb, lo)
        assert u_map_fine_enough(emb, hi * (1 + nudge))


class TestFiberedParameters:
    def test_instance_eta_when_none_given(self):
        inst = dataclasses.replace(double_instance(), eta=(F(1, 2),))
        assert fibered_parameters(inst, "3", 2) == (F(3), (F(1, 2),))
        assert fibered_parameters(inst, 3, 0, ()) == (F(3), ())
        assert fibered_parameters(inst, 3, 0, ["1/3"]) == (F(3), (F(1, 3),))

    @pytest.mark.parametrize(
        "k, count, etas, message",
        [(F(1, 10**400), 1, None, "k is outside the float range"),
         (3, 1, (F(1), 0), "eta values must be positive")],
    )
    def test_refused(self, k, count, etas, message):
        with pytest.raises(PreconditionError) as err:
            fibered_parameters(double_instance(), k, count, etas)
        assert str(err.value) == message


class TestFiberedReport:
    def setup_method(self):
        self.inst = double_instance()
        self.embs = fiberwise_embed(self.inst, 3, 0)

    def test_structure_and_certificates(self):
        report = fibered_report(
            self.embs, self.inst, 3, 5, etas=(F(1), F(1, 2)), seed=9
        )
        assert report["k"] == "3"
        assert report["count"] == 5
        assert report["eta"] == ["1", "1/2"]
        assert set(report["fibers"]) == {"p", "q"}
        for label in ("p", "q"):
            fiber = report["fibers"][label]
            assert fiber["perturbation"]["certificate"]["overall"] is True
            assert set(fiber["u_map"]) == {"1", "1/2"}
            assert len(fiber["samples"]) == 5
            for sample in fiber["samples"]:
                assert sample["secants"] == len(sample["records"])
                by_eta = sample["eta"]
                assert by_eta["1"]["count"] <= by_eta["1/2"]["count"]
                for entry in by_eta.values():
                    assert entry["certificate"]["valid"] is True
                    assert entry["count"] == len(entry["records"])
        json.dumps(report)

    def test_probe_streams_differ_between_labels(self):
        report = fibered_report(self.embs, self.inst, 3, 3, etas=(), seed=9)
        zs = {
            label: [tuple(s["z"]) for s in report["fibers"][label]["samples"]]
            for label in ("p", "q")
        }
        assert zs["p"] != zs["q"]

    def test_single_label_reduces_to_plain_probe_sweep(self):
        report = fibered_report(self.embs, self.inst, 3, 4, etas=(F(1),), seed=9)
        probes = probe_region_samples(
            self.embs["p"].map, 3, 4, derive_seed(9, "p|probe")
        )
        got = [tuple(s["z"]) for s in report["fibers"]["p"]["samples"]]
        want = [tuple(str(x) for x in p.z) for p in probes]
        assert got == want

    def test_fiber_entries_independent_of_other_labels(self):
        report = fibered_report(
            self.embs, self.inst, 3, 4, etas=(F(1), F(1, 2)), seed=9
        )
        c1, r1 = two_segment_fiber("p")
        solo = FiberedInstance(("p",), {"p": c1}, {"p": r1}, 3)
        solo_embs = fiberwise_embed(solo, 3, 0)
        solo_report = fibered_report(
            solo_embs, solo, 3, 4, etas=(F(1), F(1, 2)), seed=9
        )
        assert solo_report["fibers"]["p"] == report["fibers"]["p"]

    def test_label_order_is_canonical(self):
        reversed_inst = FiberedInstance(
            ("q", "p"), self.inst.fibers, self.inst.references, 3
        )
        a = fibered_report(self.embs, self.inst, 3, 3, etas=(F(1),), seed=9)
        b = fibered_report(self.embs, reversed_inst, 3, 3, etas=(F(1),), seed=9)
        assert a == b

    def test_empty_eta_list_counts_only(self):
        report = fibered_report(self.embs, self.inst, 3, 3, etas=(), seed=9)
        assert report["eta"] == []
        for fiber in report["fibers"].values():
            assert fiber["u_map"] == {}
            for sample in fiber["samples"]:
                assert "eta" not in sample
                assert "secants" in sample

    def test_eta_defaults_from_instance(self):
        c1, r1 = two_segment_fiber("p")
        inst = FiberedInstance(("p",), {"p": c1}, {"p": r1}, 3, (F(1),))
        embs = fiberwise_embed(inst, 3, 0)
        report = fibered_report(embs, inst, 3, 2, seed=9)
        assert report["eta"] == ["1"]

    def test_zero_samples(self):
        report = fibered_report(self.embs, self.inst, 3, 0, etas=(F(1),), seed=9)
        for fiber in report["fibers"].values():
            assert fiber["samples"] == []

    def test_missing_embedding_rejected(self):
        partial = {"p": self.embs["p"]}
        with pytest.raises(ValueError, match="q"):
            fibered_report(partial, self.inst, 3, 2, etas=(F(1),), seed=9)

    def test_parameter_preconditions(self):
        with pytest.raises(PreconditionError):
            fibered_report(self.embs, self.inst, 0, 2, etas=(F(1),), seed=9)
        with pytest.raises(PreconditionError):
            fibered_report(self.embs, self.inst, 3, -1, etas=(F(1),), seed=9)
        with pytest.raises(PreconditionError):
            fibered_report(self.embs, self.inst, 3, 2, etas=(F(0),), seed=9)


def test_eta_lists_reuse_the_record_objects():
    inst = instance_from_obj(load_json(FIXTURES / "octafiber.json"))
    embs = fiberwise_embed(inst, F(1, 2), 3)
    report = fibered_report(embs, inst, 3, 3, seed=3)
    kept = dropped = 0
    for label, fiber in report["fibers"].items():
        for sample in fiber["samples"]:
            z = [F(x) for x in sample["z"]]
            for eta in inst.eta:
                want = [
                    {
                        **record_to_obj(er.record),
                        "fiber_distance_sq": rat_str(er.fiber_distance_sq),
                        "eta": rat_str(er.eta),
                    }
                    for er in eta_secant_set(embs, inst, label, z, eta)
                ]
                got = sample["eta"][rat_str(eta)]["records"]
                assert got == want
                kept += len(got)
                dropped += sample["secants"] - len(got)
    assert kept and dropped


def test_each_record_line_serialized_once(monkeypatch):
    # the eta lists and their covers reuse the sample's record objects
    inst = instance_from_obj(load_json(FIXTURES / "octafiber.json"))
    embs = fiberwise_embed(inst, F(1, 2), 3)
    lines = []
    original = records_module.line_key_to_obj

    def counting(key):
        lines.append(key)
        return original(key)

    monkeypatch.setattr(records_module, "line_key_to_obj", counting)
    report = fibered_report(embs, inst, 3, 2, seed=3)
    samples = [s for fiber in report["fibers"].values() for s in fiber["samples"]]
    assert len(lines) == sum(s["secants"] for s in samples) >= 20
    for sample in samples:
        for entry in sample["eta"].values():
            balls = entry["certificate"]["balls"]
            assert [b["line"] for b in balls] == [r["line"] for r in entry["records"]]


class TestFiberDistance:
    def test_matches_reference_metric(self):
        inst = single_instance()
        emb = fiberwise_embed(inst, 3, 0)["f"]
        x1 = BarycentricPoint(("fa", "fb"), (F(1, 2), F(1, 2)))
        x2 = BarycentricPoint(("fc",), (F(1),))
        assert fiber_distance_sq(emb, x1, x2) == dist_sq(
            vec([F(1, 2), 0, 0]), vec([0, 0, 1])
        )

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_octafiber_report_matches_the_fraction_metric(self, seed):
        # the fibered-octafiber command's report: every record's distance,
        # taken on the reference's integer frame, is the Fraction metric's,
        # every eta list keeps exactly the records at least eta apart, and
        # u_map is u_map_fine_enough per eta
        inst = instance_from_obj(load_json(FIXTURES / "octafiber.json"))
        embs = fiberwise_embed(inst, F(1, 2), seed)
        report = fibered_report(embs, inst, 3, 3, seed=seed)
        checked = 0
        for label, fiber in report["fibers"].items():
            emb = embs[label]
            assert fiber["u_map"] == {rat_str(e): u_map_fine_enough(emb, e) for e in inst.eta}
            probes = probe_region_samples(emb.map, 3, 3, derive_seed(seed, label + "|probe"))
            for probe, sample in zip(probes, fiber["samples"], strict=True):
                records = secant_set(emb.map, probe.z, certificate=emb.report.certificate)
                want = [
                    fiber_distance_sq(emb, rec.witnesses[0][2], rec.witnesses[1][2])
                    for rec in records
                ]
                assert fiber_module._fiber_distances(integer_images(emb.reference), records) == want
                for eta in inst.eta:
                    got = sample["eta"][rat_str(eta)]["records"]
                    assert [r["fiber_distance_sq"] for r in got] == [
                        rat_str(d) for d in want if d >= eta * eta
                    ]
                checked += len(records)
        assert checked >= 50
