"""Fiberwise embedding over a finite base and eta-separated secant filtering.

A fibered instance bundles finitely many vertex-disjoint complexes (the
fibers), one per base label, together with a reference embedding per fiber.
The reference plays two roles: its images seed the subdivide-and-perturb
pipeline, and it induces the exact metric on the fiber's polyhedron that the
eta filters measure against (squared distances between evaluated points).
Subdividing a map never changes it pointwise, so the working subdivision
evaluates to the same metric as the declared reference.  The metric is
taken on one integer frame of the reference per fiber
(complexes.integer_images): each secant witness's weights are integers over
its d, so a distance is an integer over (d1 d2 scale)^2, and the only
Fraction built is that one per record.  The u_map flags read the
reference's longest edge once per fiber, on the same frame.

Every fiber is processed independently.  The working seed for a label is
derived from the root seed by hashing "<root>|<label>", so runs are
reproducible, no randomness is shared between fibers, and the per-label
results do not depend on which other labels are present.  Reports iterate
labels in sorted order; since fibers share no state, any processing schedule
yields the identical report.
"""

from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256

from .complexes import (
    PLMap,
    complex_from_obj,
    integer_images,
    json_int,
    json_list,
    max_image_diameter_sq,
    plmap_from_obj,
    subdivide_until,
    validate,
)
from .errors import PerturbationBudgetError, PreconditionError
from .exact import int_combination, rat, rat_str, vec
from .perturb import perturb_to_general_position, report_to_obj, require_ambient_bound
from .records import SecantRecord
from .secant import (
    cover_certificate_to_obj,
    cover_parameters,
    probe_region_samples,
    sample_to_obj,
    secant_set,
    zero_dim_certificate,
)

DEFAULT_COVER_EPSILON = 0.01


@dataclass(frozen=True)
class FiberedInstance:
    """A finite base: labels, one fiber complex each, reference embeddings, ambient m."""

    labels: tuple
    fibers: dict      # label -> SimplicialComplex
    references: dict  # label -> PLMap on that fiber, ambient m
    m: int
    eta: tuple = ()   # default eta values for reports

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate base labels")
        if set(self.fibers) != set(self.labels):
            raise ValueError("fibers must cover exactly the base labels")
        if set(self.references) != set(self.labels):
            raise ValueError("reference embeddings must cover exactly the base labels")
        owner = {}
        for label in self.labels:
            c = self.fibers[label]
            problems = validate(c)
            if problems:
                raise ValueError(f"fiber {label!r} invalid: " + problems[0])
            for v in c.vertices:
                if v in owner:
                    raise ValueError(
                        f"vertex {v!r} shared by fibers {owner[v]!r} and {label!r}"
                    )
                owner[v] = label
            ref = self.references[label]
            if ref.m != self.m:
                raise ValueError(
                    f"reference embedding of {label!r} has ambient dimension "
                    f"{ref.m}, expected {self.m}"
                )
            if ref.complex.simplices != c.simplices:
                raise ValueError(
                    f"reference embedding of {label!r} is not a map on that fiber"
                )
        for e in self.eta:
            if e <= 0:
                raise ValueError("eta defaults must be positive")

    @property
    def dimension(self) -> int:
        return max((self.fibers[label].dimension for label in self.labels), default=-1)


@dataclass(frozen=True)
class FiberEmbedding:
    """One fiber's pipeline output: certified map, metric reference, report."""

    label: str
    map: PLMap        # certified general-position images of the subdivided fiber
    reference: PLMap  # same subdivided complex, original images; the fiber metric
    report: object    # PerturbationReport


@dataclass(frozen=True)
class EtaSecantRecord:
    """A secant whose two preimages are certified at least eta apart."""

    record: SecantRecord
    fiber_distance_sq: Fraction
    eta: Fraction


def derive_seed(root: int, label: str) -> int:
    """Per-label working seed: leading 8 bytes of sha256("<root>|<label>")."""
    digest = sha256(f"{root}|{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fiberwise_embed(inst: FiberedInstance, delta, seed: int) -> dict:
    """Subdivide and perturb every fiber independently; label -> FiberEmbedding.

    A perturbation budget failure on any fiber is re-raised with that fiber's
    label prefixed, carrying the failing certificate.
    """
    delta = rat(delta)
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    require_ambient_bound(inst.m, inst.dimension)
    out = {}
    for label in sorted(inst.labels):
        reference = subdivide_until(inst.references[label], delta)
        try:
            embedded, report = perturb_to_general_position(
                reference, delta, derive_seed(seed, label)
            )
        except PerturbationBudgetError as exc:
            raise PerturbationBudgetError(
                f"fiber {label!r}: {exc}", certificate=exc.certificate
            ) from exc
        out[label] = FiberEmbedding(label, embedded, reference, report)
    return out


def eta_secant_set(embeddings: dict, inst: FiberedInstance, label, z, eta) -> list:
    """Secants of the labelled fiber whose preimages are at least eta apart.

    The filter is closed (kept when the exact squared fiber distance equals
    eta squared), so shrinking eta can only grow the result.
    """
    eta = rat(eta)
    if eta <= 0:
        raise PreconditionError("eta must be positive")
    if label not in inst.fibers:
        raise ValueError(f"unknown fiber label {label!r}")
    if label not in embeddings:
        raise ValueError(f"no embedding for fiber label {label!r}")
    emb = embeddings[label]
    records = secant_set(emb.map, vec(z), certificate=emb.report.certificate)
    distances = _fiber_distances(integer_images(emb.reference), records)
    return [
        EtaSecantRecord(records[i], distances[i], eta)
        for i in _eta_kept(distances, eta)
    ]


def _fiber_distances(frame, records):
    """The exact squared fiber distance between each record's two preimages,
    on the reference's integer frame (scale, images), complexes.integer_images:
    the witnesses' reference points are A / (d1 scale) and B / (d2 scale) for
    the integer combinations A and B of their weights, so the distance is
    |d2 A - d1 B|^2 / (d1 d2 scale)^2, one Fraction per record."""
    scale, images = frame
    out = []
    for rec in records:
        e1, e2 = rec.ends
        a = int_combination(images, e1.vertices, e1.weights)
        b = int_combination(images, e2.vertices, e2.weights)
        square = sum((e2.d * x - e1.d * y) ** 2 for x, y in zip(a, b))
        out.append(Fraction(square, (e1.d * e2.d * scale) ** 2))
    return out


def _eta_kept(distances, eta):
    """Indices of the distances the closed eta filter keeps (d2 >= eta^2)."""
    eta_sq = eta * eta
    return [i for i, d2 in enumerate(distances) if d2 >= eta_sq]


def u_map_fine_enough(emb: FiberEmbedding, eta) -> bool:
    """Whether eta-separated points are guaranteed distinct barycentric carriers.

    Sufficient condition: every simplex of the working subdivision has fiber
    diameter strictly below eta, so two points sharing a closed simplex are
    closer than eta.  Every simplex's diameter is attained on one of its
    edges, so the largest edge decides.  Reports flag fibers failing this
    check; they are not refined automatically.
    """
    return max_image_diameter_sq(emb.reference) < rat(eta) ** 2


def fibered_parameters(inst: FiberedInstance, k, count: int, etas=None):
    """(k, etas) for fibered_report, refused before any fiber is embedded: k
    as the cover judges it, a nonnegative sample count, and positive etas,
    the instance's when etas is None."""
    _, k = cover_parameters(DEFAULT_COVER_EPSILON, rat(k))
    if count < 0:
        raise PreconditionError("sample count must be nonnegative")
    etas = tuple(rat(e) for e in (inst.eta if etas is None else etas))
    if any(e <= 0 for e in etas):
        raise PreconditionError("eta values must be positive")
    return k, etas


def fibered_report(
    embeddings: dict,
    inst: FiberedInstance,
    k,
    count: int,
    etas=None,
    seed: int = 0,
):
    """Probe every fiber and certify its eta-filtered secant sets.

    For each label in sorted order: draw `count` probe points from the
    admissible region of that fiber's embedding, enumerate the secants of
    each, filter by every eta, and attach a disjoint-ball cover certificate
    per filtered set.  Probe randomness derives from the root seed and the
    label, so per-fiber results are independent of each other.
    """
    k, etas = fibered_parameters(inst, k, count, etas)
    fibers = {}
    for label in sorted(inst.labels):
        if label not in embeddings:
            raise ValueError(f"no embedding for fiber label {label!r}")
        emb = embeddings[label]
        cert = emb.report.certificate
        # one integer frame of the reference serves the u_map flags, which
        # are u_map_fine_enough off one diameter, and every fiber distance
        frame = integer_images(emb.reference)
        diameter_sq = max_image_diameter_sq(emb.reference, frame)
        probes = probe_region_samples(
            emb.map, k, count, derive_seed(seed, label + "|probe")
        )
        samples = []
        for probe in probes:
            records = secant_set(emb.map, probe.z, certificate=cert)
            entry = sample_to_obj(probe.z, probe.image_distance_sq, records)
            if etas:
                distances = _fiber_distances(frame, records)
                by_eta = {}
                for eta in etas:
                    kept = _eta_kept(distances, eta)
                    cover = zero_dim_certificate(
                        [records[i] for i in kept], DEFAULT_COVER_EPSILON, k
                    )
                    eta_str = rat_str(eta)
                    eta_records = [
                        {
                            **entry["records"][i],
                            "fiber_distance_sq": rat_str(distances[i]),
                            "eta": eta_str,
                        }
                        for i in kept
                    ]
                    by_eta[eta_str] = {
                        "count": len(kept),
                        "records": eta_records,
                        "certificate": cover_certificate_to_obj(cover, eta_records),
                    }
                entry["eta"] = by_eta
            samples.append(entry)
        fibers[label] = {
            "perturbation": report_to_obj(emb.report),
            "u_map": {rat_str(e): diameter_sq < e * e for e in etas},
            "samples": samples,
        }
    return {
        "k": rat_str(k),
        "count": count,
        "epsilon": DEFAULT_COVER_EPSILON,
        "eta": [rat_str(e) for e in etas],
        "seed": seed,
        "fibers": fibers,
    }


def instance_from_obj(obj) -> FiberedInstance:
    """Parse {"fibers", "reference_embeddings", "m", "eta"}; labels sort canonically."""
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    if not isinstance(obj.get("fibers"), dict):
        raise ValueError("instance JSON lacks a fibers object")
    refs_obj = obj.get("reference_embeddings")
    if not isinstance(refs_obj, dict):
        raise ValueError("instance JSON lacks a reference_embeddings object")
    if "m" not in obj:
        raise ValueError("instance JSON lacks the ambient dimension m")
    m = json_int(obj["m"], "m")
    labels = tuple(sorted(str(label) for label in obj["fibers"]))
    extra = sorted(set(map(str, refs_obj)) - set(labels))
    if extra:
        raise ValueError(f"reference embedding for unknown fiber label {extra[0]!r}")
    fibers = {}
    references = {}
    for label in labels:
        c, _ = complex_from_obj(obj["fibers"][label])
        if label not in refs_obj:
            raise ValueError(f"no reference embedding for fiber label {label!r}")
        ref = plmap_from_obj(refs_obj[label])
        if ref.complex.simplices != c.simplices:
            raise ValueError(
                f"reference embedding of {label!r} is not a map on that fiber"
            )
        fibers[label] = c
        # rebind onto the fiber complex so marks have one source of truth
        references[label] = PLMap(c, ref.m, ref.images)
    eta = tuple(rat(e) for e in json_list(obj.get("eta", []), "eta"))
    return FiberedInstance(labels, fibers, references, m, eta)
