import csv
import dataclasses
import functools
import json
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

import plgp
import plgp.cli
import plgp.complexes
import plgp.fiber
from plgp.cli import main
from plgp.complexes import plmap_from_obj, plmap_to_obj, subdivide_until
from plgp.exact import rat
from plgp.fiber import derive_seed
from plgp.nerve import Cover
from plgp.perturb import MaximalVerdicts

FIXTURES = Path(plgp.__file__).parent / "fixtures"
QUAD = str(FIXTURES / "quadrilateral.json")
TRIANGLES = str(FIXTURES / "triangles5.json")
CLOUD = str(FIXTURES / "cloud.csv")
MARKS = str(FIXTURES / "cloud_marks.json")
OCTA = str(FIXTURES / "octafiber.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_certificates(monkeypatch):
    """Record the map of every general-position certificate built from now on."""
    built = []
    original = MaximalVerdicts.__init__

    def counting(self, h):
        built.append(h)
        original(self, h)

    monkeypatch.setattr(MaximalVerdicts, "__init__", counting)
    return built


@pytest.fixture(scope="module")
def quad_map(tmp_path_factory):
    out = tmp_path_factory.mktemp("embed") / "quad.json"
    code = main(
        ["embed", "--input", QUAD, "--delta", "1", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    return str(out)


class TestEmbed:
    def test_quadrilateral_certificate(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        code, text, _ = run(
            capsys,
            "embed", "--input", QUAD, "--delta", "1/2", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(text)
        assert report["perturbation"]["certificate"]["overall"] is True
        assert rat(report["closeness_bound"]) < F(1, 2)
        embedded = plmap_from_obj(json.loads(out.read_text()))
        assert embedded.m == 3
        manifest = report["manifest"]
        assert manifest["command"] == "embed"
        assert manifest["argv"][0] == "embed"
        assert manifest["parameters"]["delta"] == "1/2"
        assert manifest["version"] == plgp.__version__

    def test_bare_complex_gets_zero_images(self, capsys, tmp_path):
        source = tmp_path / "bare.json"
        source.write_text(json.dumps({"maximal_simplices": [["a", "b"]]}))
        out = tmp_path / "map.json"
        code, text, _ = run(
            capsys,
            "embed", "--input", str(source), "--m", "3", "--delta", "1/2",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert json.loads(text)["perturbation"]["certificate"]["overall"] is True

    def test_m_flag_contradiction(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "embed", "--input", QUAD, "--m", "5", "--delta", "1/2",
            "--seed", "1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "contradicts" in err

    def test_m_flag_contradicts_bare_complex(self, capsys, tmp_path):
        source = tmp_path / "bare.json"
        source.write_text(json.dumps({"maximal_simplices": [["a", "b"]], "m": 3}))
        argv = ["embed", "--input", str(source), "--delta", "1/2",
                "--out", str(tmp_path / "x.json")]
        code, text, err = run(capsys, *argv, "--m", "5")
        assert (code, text) == (2, "")
        assert err == "--m 5 contradicts the input complex's ambient dimension 3\n"
        code, text, _ = run(capsys, *argv, "--m", "3")
        assert code == 0
        assert json.loads(text)["manifest"]["parameters"]["m"] == 3

    def test_ambient_bound_refused_before_subdividing(self, capsys, monkeypatch, tmp_path):
        # the images are 8 apart: subdividing to delta 1/2 alone would take
        # several rounds, each multiplying the triangles by 6
        def forbidden(*args, **kwargs):
            raise AssertionError("subdivided a map below the general-position bound")

        monkeypatch.setattr(plgp.cli, "subdivide_until", forbidden)
        source = tmp_path / "triangle.json"
        source.write_text(json.dumps({
            "m": 4,
            "maximal_simplices": [["a", "b", "c"]],
            "images": {"a": [0, 0, 0, 0], "b": [8, 0, 0, 0], "c": [0, 8, 0, 0]},
        }))
        code, text, err = run(
            capsys,
            "embed", "--input", str(source), "--delta", "1/2",
            "--out", str(tmp_path / "x.json"),
        )
        assert (code, text) == (3, "")
        assert err == "ambient dimension 4 is below the general-position bound 5\n"

    def test_ambient_bound_violation(self, capsys, tmp_path):
        source = tmp_path / "bare.json"
        source.write_text(json.dumps({"maximal_simplices": [["a", "b"]], "m": 2}))
        code, _, err = run(
            capsys,
            "embed", "--input", str(source), "--delta", "1/2", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3
        assert err.strip()

    def test_zero_delta(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "embed", "--input", QUAD, "--delta", "0", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "embed", "--input", str(tmp_path / "absent.json"), "--delta", "1",
            "--seed", "1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        source = tmp_path / "broken.json"
        source.write_text("{not json")
        code, _, _ = run(
            capsys,
            "embed", "--input", str(source), "--delta", "1", "--seed", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_unmovable_coincident_vertices_exhaust_the_budget(self, capsys, tmp_path):
        # two isolated vertices share one image; at delta 2^-32 the 2^-32
        # grid holds only the zero displacement, so the certificate never
        # passes: the one path where a certificate fails, and it prints none
        source = tmp_path / "twins.json"
        source.write_text(json.dumps({
            "maximal_simplices": [["xa"], ["xb"]], "m": 3,
            "images": {"xa": ["0", "0", "0"], "xb": ["0", "0", "0"]},
        }))
        out = tmp_path / "x.json"
        code, text, err = run(
            capsys,
            "embed", "--input", str(source), "--delta", "1/4294967296",
            "--seed", "1", "--out", str(out),
        )
        assert code == 4
        assert text == ""
        assert not out.exists()
        assert err == "no general-position certificate within 32 resample rounds\n"

    def test_subdivision_over_budget_exits_4_unsubdivided(self, capsys, tmp_path, monkeypatch):
        def refuse(h):
            raise AssertionError("subdivided past the budget")

        monkeypatch.setattr(plgp.complexes, "barycentric_subdivide", refuse)
        out = tmp_path / "x.json"
        code, text, err = run(
            capsys,
            "embed", "--input", TRIANGLES, "--delta", "1/1000",
            "--seed", "7", "--out", str(out),
        )
        assert code == 4
        assert text == ""
        assert not out.exists()
        assert err == (
            "subdivision budget of 1000000 maximal simplices exceeded: "
            "17 predicted rounds give up to 33853318889472\n"
        )


class TestAnalyze:
    def test_probe_point_report(self, capsys, quad_map):
        code, text, _ = run(
            capsys,
            "analyze", "--map", quad_map, "--z", "0,0,5",
            "--epsilon", "1/100", "--k", "3",
        )
        assert code == 0
        report = json.loads(text)
        assert report["secants"] == len(report["records"])
        assert len(report["pairs"]) == report["secants"]
        assert report["certificate"]["valid"] is True
        assert "zero_dim_certificate.valid" in report["certifies"]

    def test_one_certificate_and_one_enumeration(self, capsys, quad_map, monkeypatch):
        built = count_certificates(monkeypatch)
        code, _, _ = run(capsys, "analyze", "--map", quad_map, "--z", "0,0,5")
        assert code == 0
        assert len(built) == 1

    def test_z_on_image_rejected(self, capsys, quad_map):
        images = json.loads(Path(quad_map).read_text())["images"]
        coords = ",".join(images["a"])
        code, _, err = run(capsys, "analyze", "--map", quad_map, "--z=" + coords)
        assert code == 3
        assert "squared distance" in err

    def test_wrong_arity_z(self, capsys, quad_map):
        code, _, _ = run(capsys, "analyze", "--map", quad_map, "--z", "1,2")
        assert code == 2

    def test_empty_secant_set_still_certifies(self, capsys):
        code, text, _ = run(
            capsys,
            "analyze", "--map", TRIANGLES, "--z", "2,2,2,2,2", "--epsilon", "1",
        )
        assert code == 0
        report = json.loads(text)
        assert report["secants"] == 0
        assert report["certificate"]["valid"] is True
        assert report["certificate"]["balls"] == []

    @pytest.mark.parametrize("k", ["--k=0", "--k=-3"])
    def test_nonpositive_k_rejected(self, capsys, quad_map, k):
        code, text, err = run(capsys, "analyze", "--map", quad_map, "--z", "0,0,5", k)
        assert code == 3
        assert text == ""
        assert "k must be positive" in err


class TestProbe:
    def test_sweep_with_csv(self, capsys, quad_map, tmp_path):
        sidecar = tmp_path / "sweep.csv"
        code, text, _ = run(
            capsys,
            "probe", "--map", quad_map, "--k", "3", "--samples", "5",
            "--seed", "5", "--csv", str(sidecar),
        )
        assert code == 0
        report = json.loads(text)
        assert report["summary"]["count"] == 5
        assert report["summary"]["certificate_pass_rate"] == 1.0
        with open(sidecar, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["index", "z0"]
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]

    def test_one_certificate_for_all_samples(self, capsys, quad_map, monkeypatch):
        built = count_certificates(monkeypatch)
        code, _, _ = run(
            capsys, "probe", "--map", quad_map, "--samples", "3", "--seed", "2"
        )
        assert code == 0
        assert len(built) == 1

    def test_zero_samples(self, capsys, quad_map):
        code, text, _ = run(
            capsys, "probe", "--map", quad_map, "--samples", "0", "--seed", "1"
        )
        assert code == 0
        report = json.loads(text)
        assert report["samples"] == []
        assert report["summary"]["certificate_pass_rate"] == 1.0

    def test_negative_samples_rejected(self, capsys, quad_map):
        code, text, err = run(
            capsys, "probe", "--map", quad_map, "--samples", "-2", "--seed", "1"
        )
        assert code == 3
        assert text == ""
        assert "sample count must be nonnegative" in err

    def test_thin_region(self, capsys, quad_map):
        code, _, err = run(
            capsys,
            "probe", "--map", quad_map, "--k", "1/10", "--samples", "1",
            "--seed", "1",
        )
        assert code == 5
        assert err.strip()


def invalid_covers(monkeypatch, module):
    """Make module's zero_dim_certificate return its cover with mesh_ok False."""
    certificate = module.zero_dim_certificate

    def invalid(*args):
        return dataclasses.replace(certificate(*args), mesh_ok=False)

    monkeypatch.setattr(module, "zero_dim_certificate", invalid)


class TestCertifies:
    """A claim is listed in certifies only when every reported cover is valid."""

    def test_analyze(self, capsys, quad_map, monkeypatch):
        argv = ["analyze", "--map", quad_map, "--z", "0,0,5", "--k", "3"]
        code, text, _ = run(capsys, *argv)
        assert code == 0 and json.loads(text)["certifies"] == ["zero_dim_certificate.valid"]
        invalid_covers(monkeypatch, plgp.cli)
        code, text, _ = run(capsys, *argv)
        report = json.loads(text)
        assert code == 0 and report["certificate"]["valid"] is False
        assert report["certifies"] == []

    def test_probe(self, capsys, quad_map, monkeypatch):
        argv = ["probe", "--map", quad_map, "--samples", "2", "--seed", "2"]
        code, text, _ = run(capsys, *argv)
        claim = ["zero_dim_certificate.valid at every sample"]
        assert code == 0 and json.loads(text)["certifies"] == claim
        invalid_covers(monkeypatch, plgp.cli)
        code, text, _ = run(capsys, *argv)
        report = json.loads(text)
        assert code == 0 and report["summary"]["certificate_pass_rate"] == 0.0
        assert report["certifies"] == []

    def test_fibered(self, capsys, monkeypatch):
        base = ["fibered", "--instance", OCTA, "--delta", "1/2", "--seed", "7", "--k", "3"]
        argv = [*base, "--samples", "1", "--eta", "1"]
        code, text, _ = run(capsys, *argv)
        claims = ["eta filters monotone", "zero_dim_certificate.valid at every sample"]
        assert code == 0 and json.loads(text)["certifies"] == claims
        invalid_covers(monkeypatch, plgp.fiber)
        code, text, _ = run(capsys, *argv)
        report = json.loads(text)
        assert code == 0 and report["certifies"] == claims[:1]
        entries = [
            entry
            for fiber in report["fibers"].values()
            for sample in fiber["samples"]
            for entry in sample["eta"].values()
        ]
        assert entries and not any(e["certificate"]["valid"] for e in entries)
        monkeypatch.undo()
        # an empty eta list builds no cover, so none is claimed valid; with
        # no samples the claim holds vacuously, as probe's does
        code, text, _ = run(capsys, *base, "--samples", "1", "--eta", "")
        report = json.loads(text)
        assert code == 0 and report["certifies"] == claims[:1]
        samples = [s for fiber in report["fibers"].values() for s in fiber["samples"]]
        assert len(samples) == 8 and not any("eta" in s for s in samples)
        code, text, _ = run(capsys, *base, "--samples", "0", "--eta", "")
        assert code == 0 and json.loads(text)["certifies"] == claims


class TestUncertifiedMap:
    """The unperturbed, subdivided triangles5 map fails on its vertex-sharing
    pairs, which move every vertex, so no vertex-disjoint pair is ranked."""

    @staticmethod
    def unperturbed(tmp_path):
        h1 = subdivide_until(plmap_from_obj(json.loads(Path(TRIANGLES).read_text())), F(1, 2))
        path = tmp_path / "unperturbed.json"
        path.write_text(json.dumps(plmap_to_obj(h1)))
        return h1, str(path)

    @pytest.mark.parametrize("command", [
        ["probe", "--samples", "1", "--seed", "1"],
        ["analyze", "--z", "2,2,2,2,2"],
    ])
    def test_refused(self, capsys, tmp_path, ranked_pairs, command):
        h1, path = self.unperturbed(tmp_path)
        code, text, err = run(capsys, command[0], "--map", path, *command[1:])
        assert (code, text) == (3, "")
        assert "map is not in certified general position" in err
        tops = h1.complex.maximal_simplices()
        sharing = Counter((t1, t2 - t1) for t1, t2 in combinations(tops, 2) if t1 & t2)
        # vertex-sharing pairs only, each at most once
        (ranked,) = ranked_pairs
        assert ranked and Counter(ranked) <= sharing

    def test_probe_refused_before_sampling(self, capsys, tmp_path, monkeypatch):
        _, path = self.unperturbed(tmp_path)
        calls = []

        def spy(*args):
            calls.append(args)
            raise AssertionError("samples drawn for an uncertified map")

        monkeypatch.setattr(plgp.cli, "probe_region_samples", spy)
        code, text, err = run(
            capsys, "probe", "--map", path, "--samples", "30000", "--seed", "1"
        )
        assert (code, text) == (3, "")
        assert "map is not in certified general position" in err
        assert calls == []

    def test_probe_without_samples_certifies_nothing(self, capsys, tmp_path, monkeypatch):
        _, path = self.unperturbed(tmp_path)
        built = count_certificates(monkeypatch)
        code, text, _ = run(capsys, "probe", "--map", path, "--samples", "0", "--seed", "1")
        assert code == 0
        assert json.loads(text)["samples"] == []
        assert built == []


class TestNerve:
    def test_three_point_chain(self, capsys, tmp_path):
        points = tmp_path / "chain.csv"
        points.write_text("0\n1\n2\n")
        out = tmp_path / "nerve.json"
        code, text, _ = run(
            capsys,
            "nerve", "--points", str(points), "--radius", "3/4", "--out", str(out),
        )
        assert code == 0
        report = json.loads(text)
        # no sample witnesses any overlap, so the balls stay isolated
        assert report["vertices"] == 3
        assert report["dimension"] == 0
        assert report["refined"] is False
        obj = json.loads(out.read_text())
        assert len(obj["maximal_simplices"]) == 3

    def test_separation_autorefines(self, capsys, tmp_path):
        out = tmp_path / "nerve.json"
        code, text, _ = run(
            capsys,
            "nerve", "--points", CLOUD, "--marks", MARKS, "--radius", "4",
            "--out", str(out),
        )
        assert code == 0
        report = json.loads(text)
        assert report["refined"] is True
        assert rat(report["radius_used"]) < 4
        assert report["separated"] is True
        obj = json.loads(out.read_text())
        assert obj["marked"]["B1"] and obj["marked"]["B2"]
        assert not set(obj["marked"]["B1"]) & set(obj["marked"]["B2"])

    def test_no_marks_skips_separation(self, capsys, tmp_path):
        out = tmp_path / "nerve.json"
        code, text, _ = run(
            capsys,
            "nerve", "--points", CLOUD, "--radius", "4", "--out", str(out),
        )
        assert code == 0
        report = json.loads(text)
        assert report["refined"] is False
        assert report["dimension"] == 5

    def test_touching_marks(self, capsys, tmp_path):
        points = tmp_path / "dup.csv"
        points.write_text("0,0\n0,0\n")
        marks = tmp_path / "marks.json"
        marks.write_text(json.dumps({"b1": [0], "b2": [1]}))
        code, _, _ = run(
            capsys,
            "nerve", "--points", str(points), "--marks", str(marks),
            "--radius", "1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    def test_one_verdict_per_cover(self, capsys, monkeypatch, tmp_path):
        # refinement and nerve_complex both read each cover's cached verdict
        verdicts = []
        violation = Cover.__dict__["violation"]

        def counting(cover):
            verdicts.append(cover)
            return violation.func(cover)

        spy = functools.cached_property(counting)
        spy.__set_name__(Cover, "violation")
        monkeypatch.setattr(Cover, "violation", spy)
        built = []
        build_cover = plgp.nerve.build_cover

        def building(cloud, radius):
            built.append(build_cover(cloud, radius))
            return built[-1]

        monkeypatch.setattr(plgp.nerve, "build_cover", building)
        code, text, _ = run(
            capsys,
            "nerve", "--points", CLOUD, "--marks", MARKS, "--radius", "2",
            "--out", str(tmp_path / "nerve.json"),
        )
        assert code == 0
        assert len(built) == 2 and json.loads(text)["refined"] is True
        assert [id(c) for c in verdicts] == [id(c) for c in built]

    def test_malformed_csv(self, capsys, tmp_path):
        points = tmp_path / "bad.csv"
        points.write_text("0,zero\n")
        code, _, _ = run(
            capsys,
            "nerve", "--points", str(points), "--radius", "1",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_csv_row_with_a_gap(self, capsys, tmp_path):
        points = tmp_path / "gap.csv"
        points.write_text("0,,0\n3,,0\n")
        out = tmp_path / "x.json"
        code, text, err = run(
            capsys,
            "nerve", "--points", str(points), "--radius", "1", "--out", str(out),
        )
        assert (code, text) == (2, "")
        assert err == "%s row 1: empty cell before a coordinate\n" % points
        assert not out.exists()


class TestFibered:
    def test_octafiber_small_sweep(self, capsys):
        code, text, _ = run(
            capsys,
            "fibered", "--instance", OCTA, "--delta", "1/2", "--seed", "7",
            "--k", "3", "--samples", "1",
        )
        assert code == 0
        report = json.loads(text)
        assert sorted(report["fibers"]) == ["f%d" % i for i in range(8)]
        assert report["eta"] == ["1", "1/2", "1/4"]
        for fiber in report["fibers"].values():
            assert fiber["perturbation"]["certificate"]["overall"] is True
            for sample in fiber["samples"]:
                for entry in sample["eta"].values():
                    assert entry["certificate"]["valid"] is True

    def test_eta_override(self, capsys):
        code, text, _ = run(
            capsys,
            "fibered", "--instance", OCTA, "--delta", "1/2", "--seed", "7",
            "--samples", "0", "--eta", "1/8",
        )
        assert code == 0
        assert json.loads(text)["eta"] == ["1/8"]

    def test_bad_label_reference(self, capsys, tmp_path):
        obj = json.loads(Path(OCTA).read_text())
        del obj["reference_embeddings"]["f7"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(obj))
        code, _, err = run(
            capsys,
            "fibered", "--instance", str(broken), "--delta", "1/2",
            "--samples", "0",
        )
        assert code == 2
        assert "f7" in err

    def test_single_fiber_composes_embed_and_probe(self, capsys, tmp_path):
        fiber = {
            "m": 3,
            "maximal_simplices": [["fa", "fb"], ["fc", "fd"]],
            "images": {
                "fa": ["0", "0", "0"], "fb": ["1", "0", "0"],
                "fc": ["0", "0", "1"], "fd": ["0", "1", "1"],
            },
        }
        instance = tmp_path / "single.json"
        instance.write_text(
            json.dumps(
                {
                    "fibers": {"f": {"maximal_simplices": fiber["maximal_simplices"]}},
                    "reference_embeddings": {"f": fiber},
                    "m": 3,
                    "eta": [],
                }
            )
        )
        code, text, _ = run(
            capsys,
            "fibered", "--instance", str(instance), "--delta", "3",
            "--seed", "7", "--k", "3", "--samples", "3",
        )
        assert code == 0
        fibered = json.loads(text)["fibers"]["f"]

        source = tmp_path / "single_map.json"
        source.write_text(json.dumps(fiber))
        map_path = tmp_path / "fiber_map.json"
        code, _, _ = run(
            capsys,
            "embed", "--input", str(source),
            "--delta", "3", "--seed", str(derive_seed(7, "f")),
            "--out", str(map_path),
        )
        assert code == 0
        code, text, _ = run(
            capsys,
            "probe", "--map", str(map_path), "--k", "3", "--samples", "3",
            "--seed", str(derive_seed(7, "f|probe")),
        )
        assert code == 0
        sweep = json.loads(text)["samples"]
        assert [s["z"] for s in fibered["samples"]] == [s["z"] for s in sweep]
        assert [s["secants"] for s in fibered["samples"]] == [
            s["secants"] for s in sweep
        ]


class TestCoverParameters:
    """A bad epsilon or k exits 3 with one line on stderr and no traceback.
    main lets any other exception through, so a crash fails the test."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--z", "0,0,5", "--k", "0"], "k must be positive"),
            (["analyze", "--z", "0,0,5", "--epsilon", "0"], "epsilon must be positive"),
            (["analyze", "--z", "0,0,5", "--epsilon", "1e400"],
             "epsilon is outside the float range"),
            (["analyze", "--z", "0,0,5", "--epsilon", "1e-400"],
             "epsilon is outside the float range"),
            (["probe", "--samples", "0", "--epsilon", "0"], "epsilon must be positive"),
            (["probe", "--samples", "0", "--epsilon=-1"], "epsilon must be positive"),
            (["probe", "--samples", "1", "--epsilon", "1e400"],
             "epsilon is outside the float range"),
            (["probe", "--samples", "1", "--epsilon", "1e-400"],
             "epsilon is outside the float range"),
        ],
    )
    def test_refused_before_the_map_is_loaded(self, capsys, tmp_path, argv, message):
        # the map path does not exist: loading it first would exit 2
        missing = str(tmp_path / "missing.json")
        code, text, err = run(capsys, argv[0], "--map", missing, *argv[1:])
        assert (code, text, err) == (3, "", message + "\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # float(k) ** 2 overflows in the chord
            ["analyze", "--z", "0,0,5", "--k", "1e200"],
            # the chord's line direction has entries past the float range
            ["probe", "--samples", "2", "--seed", "1", "--k", "1e200"],
        ],
    )
    def test_line_metric_overflow(self, capsys, quad_map, argv):
        code, text, err = run(capsys, argv[0], "--map", quad_map, *argv[1:])
        assert (code, text) == (3, "")
        assert err == "the line metric overflows the float range\n"

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_k_square_overflow_whatever_the_secant_count(self, capsys, quad_map, samples):
        # one sample has at most one secant and so no chord; k is refused first
        code, text, err = run(
            capsys, "probe", "--map", quad_map, "--samples", samples, "--k", "1e200"
        )
        assert (code, text) == (3, "")
        assert err == "the line metric overflows the float range\n"

    def test_fibered_line_metric_overflow(self, capsys):
        code, text, err = run(
            capsys,
            "fibered", "--instance", OCTA, "--delta", "1/2", "--seed", "7",
            "--samples", "1", "--k", "1e200",
        )
        assert (code, text) == (3, "")
        assert err == "the line metric overflows the float range\n"

    @pytest.mark.parametrize(
        "flag, message",
        [("--k=0", "k must be positive"),
         ("--samples=-1", "sample count must be nonnegative")],
    )
    def test_fibered_without_fibers(self, capsys, tmp_path, flag, message):
        # with no fibers nothing is probed: fibered_report's own checks are
        # the only ones that run
        instance = tmp_path / "empty.json"
        instance.write_text(
            json.dumps({"fibers": {}, "reference_embeddings": {}, "m": 5})
        )
        code, text, err = run(
            capsys, "fibered", "--instance", str(instance), "--delta", "1/2", flag
        )
        assert (code, text, err) == (3, "", message + "\n")


class TestFiberedParameters:
    """Bad probe parameters are refused before any fiber is embedded."""

    @pytest.mark.parametrize(
        "flag, message",
        [("--k=0", "k must be positive"),
         ("--eta=0", "eta values must be positive"),
         ("--samples=-1", "sample count must be nonnegative"),
         ("--k=1e200", "the line metric overflows the float range")],
    )
    def test_refused_before_embedding(self, capsys, monkeypatch, flag, message):
        def forbidden(*args):
            raise AssertionError("fibers embedded before the probe parameters")

        monkeypatch.setattr(plgp.cli, "fiberwise_embed", forbidden)
        code, text, err = run(
            capsys, "fibered", "--instance", OCTA, "--delta", "1/8", flag
        )
        assert (code, text, err) == (3, "", message + "\n")


class TestReproducibility:
    def test_embed_rerun_is_byte_identical(self, capsys, tmp_path):
        argv = [
            "embed", "--input", QUAD, "--delta", "1", "--seed", "7",
            "--out", str(tmp_path / "a.json"),
        ]
        outputs = []
        artifacts = []
        for _ in range(3):
            code, text, _ = run(capsys, *argv)
            assert code == 0
            outputs.append(text)
            artifacts.append((tmp_path / "a.json").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_rerun_from_manifest_argv(self, capsys, quad_map):
        argv = ["probe", "--map", quad_map, "--samples", "2", "--seed", "9"]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        recorded = json.loads(first)["manifest"]["argv"]
        code, second, _ = run(capsys, *recorded)
        assert code == 0
        assert first == second


# two generic segments in R^3
TWO_SEGMENTS = {
    "maximal_simplices": [["a", "b"], ["c", "d"]],
    "m": 3,
    "images": {"a": ["0", "0", "0"], "b": ["1", "0", "0"], "c": ["0", "1", "1"],
               "d": ["1", "1", "2"]},
}

MALFORMED = {
    "marks-list": ("nerve", [0, 5]),
    "marks-float-index": ("nerve", {"b1": [0.9], "b2": [5]}),
    "marks-bool-index": ("nerve", {"b1": [True], "b2": [5]}),
    "marks-string-list": ("nerve", {"b1": "0", "b2": [5]}),
    "m-float": ("embed", {"maximal_simplices": [["a", "b"]], "m": 2.9}),
    "m-bool": ("embed", {"maximal_simplices": [["a"]], "m": True}),
    "fibered-m-float": ("fibered", dict(json.loads(Path(OCTA).read_text()), m=3.7)),
    "simplex-string": ("embed", {"maximal_simplices": ["abc"], "m": 5}),
    "vertices-string": (
        "embed", {"maximal_simplices": [["a"]], "vertices": "xyz", "m": 3}
    ),
    "marked-string": (
        "embed",
        {"maximal_simplices": [["a"], ["b"]], "marked": {"B1": "ab"}, "m": 3},
    ),
    "image-string": (
        "embed", {"maximal_simplices": [["a"]], "m": 3, "images": {"a": "000"}}
    ),
    "image-bool": (
        "embed",
        {"maximal_simplices": [["a"]], "m": 3, "images": {"a": [True, False, 0]}},
    ),
    "image-of-unknown-vertex": ("embed", dict(TWO_SEGMENTS, images={
        **TWO_SEGMENTS["images"], "ghost": ["7"],
    })),
    "fibered-eta-bool": ("fibered", dict(json.loads(Path(OCTA).read_text()), eta=[True])),
}


class TestMalformedValues:
    @pytest.mark.parametrize("command", ["analyze", "embed"])
    def test_image_of_unknown_vertex(self, capsys, tmp_path, command):
        source = tmp_path / "map.json"
        obj = dict(TWO_SEGMENTS, images={**TWO_SEGMENTS["images"], "ghost": ["7"]})
        source.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        argv = {
            "analyze": ["--map", str(source), "--z", "5,5,5"],
            "embed": ["--input", str(source), "--delta", "1/2", "--out", str(out)],
        }[command]
        code, text, err = run(capsys, command, *argv)
        assert (code, text) == (2, "")
        assert err == "image of 'ghost', a vertex the complex lacks\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_not_coerced(self, capsys, tmp_path, case):
        command, obj = MALFORMED[case]
        source = tmp_path / "input.json"
        source.write_text(json.dumps(obj))
        out = str(tmp_path / "x.json")
        argv = {
            "nerve": ["--points", CLOUD, "--marks", str(source), "--radius", "2",
                      "--out", out],
            "embed": ["--input", str(source), "--delta", "1/2", "--out", out],
            "fibered": ["--instance", str(source), "--delta", "1/2", "--samples", "0"],
        }[command]
        code, text, err = run(capsys, command, *argv)
        assert (code, text) == (2, "")
        assert err.endswith("\n") and err.count("\n") == 1


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "plgp" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestReportBytes:
    """Every command prints, to stdout and to --out, exactly the json.dumps
    text of the object it hands dump_json."""

    @pytest.fixture
    def dumps(self, monkeypatch):
        seen = []
        original = plgp.cli.dump_json

        def spy(obj, path=None):
            text = original(obj, path)
            seen.append((obj, path, text))
            return text

        monkeypatch.setattr(plgp.cli, "dump_json", spy)
        return seen

    def check(self, capsys, dumps, *argv):
        del dumps[:]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        for obj, path, text in dumps:
            oracle = json.dumps(obj, indent=2, sort_keys=True) + "\n"
            assert text == oracle
            if path is not None:
                assert Path(path).read_bytes() == oracle.encode("utf-8")
        printed = [text for _, path, text in dumps if path is None]
        assert printed == [out]

    def chord_point(self, path):
        """p1 + 5/2 (p2 - p1), p1 and p2 the image barycentres of a
        vertex-disjoint pair of maximal simplices: past 2n+1 a random point
        has no secant."""
        h = plmap_from_obj(json.loads(Path(path).read_text()))
        tops = h.complex.maximal_simplices()
        sigma = max(tops, key=len)
        tau = min((t for t in tops if sigma.isdisjoint(t)), key=len)
        p1, p2 = ([sum(h.images[v][c] for v in t) / len(t) for c in range(h.m)]
                  for t in (sigma, tau))
        return ",".join(str(a + F(5, 2) * (b - a)) for a, b in zip(p1, p2))

    @pytest.mark.parametrize(
        "name", ["hexagon", "quadrilateral", "triangles5", "triangles5-r6", "mixed5"]
    )
    def test_embed_probe_analyze(self, capsys, tmp_path, dumps, name):
        out = str(tmp_path / "map.json")
        self.check(capsys, dumps, "embed", "--input", str(FIXTURES / (name + ".json")),
                   "--delta", "1/2", "--seed", "1", "--out", out)
        assert [path for _, path, _ in dumps] == [out, None]
        self.check(capsys, dumps, "probe", "--map", out, "--samples", "3", "--seed", "1")
        self.check(capsys, dumps, "analyze", "--map", out, "--z=" + self.chord_point(out))
        assert dumps[0][0]["secants"] > 0

    def test_fibered(self, capsys, dumps):
        self.check(capsys, dumps, "fibered", "--instance", OCTA, "--delta", "1/2",
                   "--seed", "1", "--samples", "2")

    def test_nerve(self, capsys, tmp_path, dumps):
        out = str(tmp_path / "nerve.json")
        self.check(capsys, dumps, "nerve", "--points", CLOUD, "--marks", MARKS,
                   "--radius", "4", "--out", out)
        assert [path for _, path, _ in dumps] == [out, None]
