"""Batch front door: embed, analyze, probe, nerve, and fibered pipelines.

Every command emits a JSON report on stdout carrying a run manifest: the
command name, the argv echo, sha256 digests of the input files, the seed,
the parameter echo, and the tool version.  Re-running the argv recorded in
a manifest reproduces every output byte for byte; all randomness flows from
--seed through documented derivations.  Reports also carry a "certifies"
list naming the invariants they establish, so downstream tooling can diff
claims across runs.

Exit codes: 0 success; 2 invalid input (malformed JSON, rationals, labels,
file errors); 3 violated precondition (including separation and certified
degeneracy); 4 exhausted perturbation or subdivision budget; 5 thin probe
region.  Stderr carries the first violated invariant verbatim.
"""

import argparse
import csv
import sys
from hashlib import sha256

from . import __version__
from .complexes import (
    PLMap,
    closeness_bound,
    complex_from_obj,
    complex_to_obj,
    dump_json,
    load_json,
    plmap_from_obj,
    plmap_to_obj,
    subdivide_until,
)
from .errors import (
    DegenerateGeometryError,
    PerturbationBudgetError,
    PreconditionError,
    SeparationError,
    SubdivisionCapError,
    ThinRegionError,
)
from .exact import rat, rat_str, vec
from .fiber import fibered_parameters, fibered_report, fiberwise_embed, instance_from_obj
from .flats import point_to_image_distance_sq_lower
from .nerve import cloud_from_csv, nerve_complex, refine_for_separation
from .perturb import (
    perturb_to_general_position,
    report_to_obj,
    require_ambient_bound,
)
from .secant import (
    certified,
    cover_certificate_to_obj,
    cover_parameters,
    pair_to_obj,
    probe_region_samples,
    sample_to_obj,
    secant_set,
    zero_dim_certificate,
)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read()).hexdigest()


def _manifest(command, argv, inputs, seed, parameters) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "inputs": {name: _digest(path) for name, path in inputs.items()},
        "seed": seed,
        "parameters": parameters,
        "version": __version__,
    }


def _emit(obj):
    sys.stdout.write(dump_json(obj))


def _parse_point(text, m):
    coords = [rat(part.strip()) for part in text.split(",")]
    if len(coords) != m:
        raise ValueError(
            "z has %d coordinates, map ambient dimension is %d" % (len(coords), m)
        )
    return vec(coords)


def _parse_eta(text):
    if text is None:
        return None
    stripped = text.strip()
    if not stripped:
        return ()
    return tuple(rat(part.strip()) for part in stripped.split(","))


def _load_map(path) -> PLMap:
    return plmap_from_obj(load_json(path))


def cmd_embed(args, argv) -> int:
    obj = load_json(args.input)
    is_map = isinstance(obj, dict) and "images" in obj
    h0 = plmap_from_obj(obj) if is_map else None
    c, m = (h0.complex, h0.m) if is_map else complex_from_obj(obj)
    if args.m is not None and m is not None and args.m != m:
        raise ValueError(
            "--m %d contradicts the input %s's ambient dimension %d"
            % (args.m, "map" if is_map else "complex", m)
        )
    if not is_map:
        m = args.m if m is None else m
        if m is None:
            raise ValueError("no ambient dimension: pass --m or set \"m\" in the input")
        zero = vec([0] * m)
        h0 = PLMap(c, m, {v: zero for v in c.vertices})
    delta = rat(args.delta)
    require_ambient_bound(h0.m, h0.complex.dimension)
    h1 = subdivide_until(h0, delta)
    embedded, report = perturb_to_general_position(h1, delta, args.seed)
    dump_json(plmap_to_obj(embedded), args.out)
    manifest = _manifest(
        "embed",
        argv,
        {"input": args.input},
        args.seed,
        {"m": h0.m, "n": h0.complex.dimension, "delta": args.delta},
    )
    _emit(
        {
            "manifest": manifest,
            "out": args.out,
            "subdivided_maximal": len(h1.complex.maximal_simplices()),
            "perturbation": report_to_obj(report),
            "closeness_bound": rat_str(closeness_bound(h1, embedded)),
            "certifies": [
                "general_position_certificate.overall",
                "max_displacement < delta/2",
            ],
        }
    )
    return 0


def cmd_analyze(args, argv) -> int:
    epsilon, k = cover_parameters(args.epsilon, args.k)
    h = _load_map(args.map)
    z = _parse_point(args.z, h.m)
    d2 = point_to_image_distance_sq_lower(z, h)
    if d2 == 0:
        raise PreconditionError(
            "z lies on the image: exact squared distance %s" % rat_str(d2)
        )
    records = secant_set(h, z)
    cover = zero_dim_certificate(records, epsilon, k)
    manifest = _manifest(
        "analyze",
        argv,
        {"map": args.map},
        None,
        {"z": args.z, "epsilon": args.epsilon, "k": args.k},
    )
    sample = sample_to_obj(z, d2, records)
    _emit(
        {
            **sample,
            "manifest": manifest,
            "pairs": [pair_to_obj(rec) for rec in sample["records"]],
            "certificate": cover_certificate_to_obj(cover, sample["records"]),
            "certifies": ["zero_dim_certificate.valid"] if cover.valid else [],
        }
    )
    return 0


def cmd_probe(args, argv) -> int:
    epsilon, k = cover_parameters(args.epsilon, args.k)
    h = _load_map(args.map)
    # one certificate serves every sample, refused before any is drawn; with
    # no samples nothing is certified
    cert = certified(h) if args.samples > 0 else None
    probes = probe_region_samples(h, k, args.samples, args.seed)
    samples = []
    min_line_dist = None
    for index, probe in enumerate(probes):
        records = secant_set(h, probe.z, certificate=cert)
        cover = zero_dim_certificate(records, epsilon, k)
        d = cover.min_distance
        if d is not None and (min_line_dist is None or d < min_line_dist):
            min_line_dist = d
        sample = sample_to_obj(probe.z, probe.image_distance_sq, records)
        samples.append(
            {
                **sample,
                "index": index,
                "certificate": cover_certificate_to_obj(cover, sample["records"]),
            }
        )
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["index"]
                + ["z%d" % i for i in range(h.m)]
                + ["image_distance_sq", "secants", "certificate_valid"]
            )
            for sample in samples:
                writer.writerow(
                    [sample["index"], *sample["z"], sample["image_distance_sq"]]
                    + [sample["secants"], sample["certificate"]["valid"]]
                )
    manifest = _manifest(
        "probe",
        argv,
        {"map": args.map},
        args.seed,
        {"k": args.k, "samples": args.samples, "epsilon": args.epsilon},
    )
    valid = sum(sample["certificate"]["valid"] for sample in samples)
    claim = "zero_dim_certificate.valid at every sample"
    max_secants = max((sample["secants"] for sample in samples), default=0)
    pass_rate = 1.0 if not probes else valid / len(probes)
    _emit(
        {
            "manifest": manifest,
            "samples": samples,
            "summary": {
                "count": len(probes),
                "max_secants": max_secants,
                "min_line_distance": min_line_dist,
                "certificate_pass_rate": pass_rate,
            },
            "certifies": [claim] if valid == len(samples) else [],
        }
    )
    return 0


def cmd_nerve(args, argv) -> int:
    cloud = cloud_from_csv(args.points, args.marks)
    requested = rat(args.radius)
    cover = refine_for_separation(cloud, requested)
    c = nerve_complex(cover)
    dump_json(complex_to_obj(c), args.out)
    inputs = {"points": args.points}
    if args.marks is not None:
        inputs["marks"] = args.marks
    manifest = _manifest(
        "nerve", argv, inputs, None, {"radius": args.radius}
    )
    _emit(
        {
            "manifest": manifest,
            "out": args.out,
            "radius_requested": rat_str(requested),
            "radius_used": rat_str(cover.radius),
            "refined": cover.radius != requested,
            "elements": len(cover.incidence),
            "separated": cover.separated,
            "vertices": len(c.vertices),
            "dimension": c.dimension,
            "certifies": ["no nerve simplex carries marks from both sides"],
        }
    )
    return 0


def cmd_fibered(args, argv) -> int:
    inst = instance_from_obj(load_json(args.instance))
    delta = rat(args.delta)
    k = rat(args.k)
    etas = _parse_eta(args.eta)
    fibered_parameters(inst, k, args.samples, etas)
    embeddings = fiberwise_embed(inst, delta, args.seed)
    report = fibered_report(embeddings, inst, k, args.samples, etas, args.seed)
    manifest = _manifest(
        "fibered",
        argv,
        {"instance": args.instance},
        args.seed,
        {
            "m": inst.m,
            "n": inst.dimension,
            "delta": args.delta,
            "k": args.k,
            "samples": args.samples,
            "eta": args.eta,
        },
    )
    # every sample has a cover per eta, and every cover is valid; with no
    # samples nothing is certified, and with no eta no cover is built
    covers_valid = all(
        sample.get("eta")
        and all(entry["certificate"]["valid"] for entry in sample["eta"].values())
        for fiber in report["fibers"].values()
        for sample in fiber["samples"]
    )
    _emit(
        {
            "manifest": manifest,
            "certifies": ["eta filters monotone"]
            + (["zero_dim_certificate.valid at every sample"] if covers_valid else []),
            **report,
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plgp",
        description="general-position PL embeddings and secant-line certificates",
    )
    parser.add_argument(
        "--version", action="version", version="plgp " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="subdivide and perturb a complex")
    embed.add_argument("--input", required=True, help="complex or map JSON")
    embed.add_argument("--m", type=int, help="ambient dimension for bare complexes")
    embed.add_argument("--delta", required=True, help="closeness bound (rational)")
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument("--out", required=True, help="path for the embedded map JSON")
    embed.set_defaults(func=cmd_embed)

    analyze = sub.add_parser("analyze", help="secants through one probe point")
    analyze.add_argument("--map", required=True, help="embedded map JSON")
    analyze.add_argument("--z", required=True, help="comma-separated coordinates")
    analyze.add_argument("--epsilon", default="1/100", help="cover mesh bound")
    analyze.add_argument("--k", default="3", help="clipping ball radius")
    analyze.set_defaults(func=cmd_analyze)

    probe = sub.add_parser("probe", help="seeded sweep over the admissible region")
    probe.add_argument("--map", required=True, help="embedded map JSON")
    probe.add_argument("--k", default="3", help="region radius")
    probe.add_argument("--samples", type=int, default=100)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--epsilon", default="1/100", help="cover mesh bound")
    probe.add_argument("--csv", help="also write per-sample rows to this path")
    probe.set_defaults(func=cmd_probe)

    nerve = sub.add_parser("nerve", help="nerve of a separated ball cover")
    nerve.add_argument("--points", required=True, help="CSV of rational coordinates")
    nerve.add_argument("--radius", required=True, help="requested ball radius")
    nerve.add_argument("--marks", help="JSON with b1/b2 point index lists")
    nerve.add_argument("--out", required=True, help="path for the nerve complex JSON")
    nerve.set_defaults(func=cmd_nerve)

    fibered = sub.add_parser("fibered", help="embed and probe every fiber")
    fibered.add_argument("--instance", required=True, help="fibered instance JSON")
    fibered.add_argument("--delta", required=True, help="per-fiber closeness bound")
    fibered.add_argument("--seed", type=int, default=0)
    fibered.add_argument("--k", default="3", help="probe region radius")
    fibered.add_argument("--samples", type=int, default=50)
    fibered.add_argument("--eta", help="comma-separated eta list (default: instance)")
    fibered.set_defaults(func=cmd_fibered)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (PreconditionError, DegenerateGeometryError, SeparationError) as exc:
        print(exc, file=sys.stderr)
        return 3
    except (PerturbationBudgetError, SubdivisionCapError) as exc:
        print(exc, file=sys.stderr)
        return 4
    except ThinRegionError as exc:
        print(exc, file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
