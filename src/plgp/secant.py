"""Secant lines through a probe point, the chord metric on lines, and
zero-dimensionality cover certificates.

A secant is a line through z whose preimage under the map has two distinct
polyhedron points.  Enumeration runs over vertex-disjoint pairs of maximal
simplices only; that is complete because (i) a face pair's secant is the
covering maximal pair's unique transversal, and (ii) the analyzer asserts,
exactly, that z is affinely independent of every maximal image simplex and of
every vertex-sharing maximal pair's image union, which rules out secants whose
covering maximal simplices coincide or share a vertex.  A violation of (ii) is
degenerate input, not a miss.  Those ranks also prove z off the image (every
image point lies in the affine hull of a maximal simplex), so the exact
distance to the image is computed only to word a failed rank.

Everything runs on Python ints: the images and z are scaled by one common
denominator per map and probe.  For s1 = conv(v_i) and s2 = conv(w_j), a
secant through z is points p1 = sum mu_i v_i and p2 = sum nu_j w_j, with
mu >= 0 and nu >= 0 each summing to 1, such that p1 - z and p2 - z are
nonzero and parallel.

On a square map (perturb.is_square, the certificate's test too: every
maximal simplex has k vertices and m + 1 = 2k) every top and pair is
decided by the signs of determinants, and no elimination runs.  Write
x^ = (1, x).  The certificate makes the 2k rows v_i^, w_j^ a basis of
R^(2k), so z^ = sum alpha_i v_i^ + sum beta_j w_j^ for unique alpha and
beta, and by Cramer's rule, each up to one nonzero factor,

    beta_j  ~ (-1)^j det(z^, s1^, s2^ without w_j^),
    alpha_i ~ (-1)^i det(z^, s2^, s1^ without v_i^).

A secant has z = lambda p1 + (1 - lambda) p2 with lambda neither 0 nor 1,
since z is off the image, so z^ = sum lambda mu_i v_i^ + sum (1 - lambda)
nu_j w_j^, and by uniqueness alpha = lambda mu and beta = (1 - lambda) nu:
neither holds two strict signs.  Conversely, let neither hold two strict
signs.  alpha = 0 would put z^ in the span of s2^, so z in aff(s2), and
beta = 0 z in aff(s1), which (ii) refuses; so lambda = sum alpha and
1 - lambda = sum beta are nonzero, mu = alpha / sum alpha and
nu = beta / sum beta are convex weights, and z = lambda p1 + (1 - lambda) p2
lies on the line through p1 and p2, which differ since aff(s1) misses
aff(s2).  So a pair carries a secant iff neither alpha nor beta holds two
strict signs, and then exactly one, with witnesses mu and nu and no solve.

The determinants pair Plücker vectors.  J1, the maximal minors of the
k + 1 rows s1^, z^, is s1's Plücker vector expanded by z^'s row
(exact.expand), and det(s1^, z^, s2^ without w_j^) is its pairing with
the dual of that facet of s2 (exact.laplace_dual, k + 1 rows over k - 1).
The certificate packs every top's facet duals once
(perturb.FacetPairings); one exact.PackedPairings walk per top sigma gives
J_sigma's pairing with every facet of every top, whose top bytes are the
signs: pair (s1, s2)'s beta signs lie in s1's row and its alpha signs in
s2's.  The same walk decides (ii): z is in aff(sigma) iff J_sigma = 0; a
pair sharing one vertex u has its union with z square, dependent iff
J_sigma's pairing with tau's facet without u is zero; a pair sharing more
is dependent iff J_sigma expanded by the rows of tau - sigma is zero.
The first failure in top order is refused, as the echelon ranks below
refuse it.  Each kept pair's record is read off its 2k determinants, in
the order of the pairs, so the first record per line is the same.

Any other shape takes two small systems per pair.  With one
exact.Echelon per top about z, the row
x reduced against s1's Echelon, the rows v_i - z, is R1(x), its entries in
the free columns: a linear map whose kernel is exactly the span of
the v_i - z, the direction space of the join J1 = aff(z u s1).  So
p2 lies on J1 exactly when nu solves

    sum nu_j R1(w_j - z) = 0,    sum nu_j = 1,

and p1 lies on J2 = aff(z u s2) exactly when mu solves the same system with
the roles swapped (R2 from s2's echelon).  A pair carries no secant when
either system is rank-deficient, inconsistent or has a weight < 0.  Most
pairs fail before any elimination: a row of a small system whose entries
R1(w_j - z) are all positive, or all negative, has no solution with
nu >= 0 and sum nu = 1.  When R1 has no columns the small system is
sum nu = 1 alone, of full rank only when s2 is a vertex.

The test is exact.  The certificate makes s1 u s2 affinely independent, so
aff(s1) misses aff(s2), and J1 and J2, which hold every secant through z,
share at most a line.  A pair passing both systems has a secant: p2 lies on
s2 and J1, p1 on s1 and J2, and neither is z, which is off the image, so
the line L through z and p2 lies in both joins and holds p1 as well.  The
record is read straight off the two solutions: the witnesses p1 and p2,
their weights mu and nu, and L, the canonical line through z along p2 - z.
Conversely a secant's weights solve both systems, so a system of full rank
has them as its unique solution, and a rank-deficient one carries no
secant: a kernel vector nu' of the first has sum nu' = 0, so
u = sum nu'_j w_j is nonzero, in dir(s2) and in dir J1, so J1 and J2
share just the line z + Ru.  It is parallel to aff(s2), so it meets
aff(s2) only if z lies in aff(s2).  That case needs no branch of its own: the line
through z and a point of s2 lies in aff(s2), which misses s1, and R2's
kernel is then dir(s2), so the second system would put p1 on aff(s2) and
is inconsistent.  The same holds for z in aff(s1), with the roles swapped.
The flats construction (joins, intersections, line-simplex solves) is the
oracle of both walks in the tests, and the echelon walk the Plücker walk's.

The probe's _ProbeEchelons maps each top to its Echelon: its echelon
rows, pivots and free columns, and the reduced rows R1(w - z) so far.  The
ranks of (ii), perturb.failing_unions about z, build them; they raise on
the first failure and return nothing.  The pair walk reuses the echelons
and picks its vertex-disjoint pairs itself, by isdisjoint.  Only the rows
i' <= i, the pairs (i', j) with j > i', use top i's Echelon, so secant_set
deletes it after row i.

A record stays on the probe's integer frame up to the report text
(plgp.records); secant_set deduplicates and orders the records on their
integer line keys.

Incidence decisions are exact throughout; only the line metric (Hausdorff
distance between ball-clipped chords) is floating point, read off the
line keys by correctly rounded int / int division, with a documented 1e-9
tolerance, and certificate radii are shrunk by a factor 3 to absorb it.
cover_parameters refuses an epsilon or k whose float is zero or infinite,
and a k whose float square is, so whether a k is usable does not depend on
the secant count; a chord past the float range is a PreconditionError too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, or_

from .complexes import PLMap, later_sharing, sorted_vertices
from .errors import DegenerateGeometryError, PreconditionError, ThinRegionError
from .exact import (
    Echelon,
    _echelon_int,
    _solve_echelon_int,
    expand,
    norm_sq,
    rat,
    rat_str,
    vec,
    widen_frame,
)
from .flats import (
    ImageDistance,
    int_line_key,
    point_to_image_distance_sq_lower,
)
from .perturb import GRID, failing_unions, general_position_certificate, is_square
from .records import record_to_obj, secant_record, sorted_keys

PROBE_BUDGET_FACTOR = 1000


@dataclass(frozen=True)
class ProbePoint:
    z: tuple
    image_distance_sq: Fraction


@dataclass(frozen=True)
class CoverCertificate:
    epsilon: float
    radius: float | None  # of the one ball about each line; None with no lines
    mesh_ok: bool
    disjoint_ok: bool
    # least pairwise line distance, None below two lines; not serialized
    min_distance: float | None = None

    @property
    def valid(self) -> bool:
        return self.mesh_ok and self.disjoint_ok


def certified(h, certificate=None):
    """h's general-position certificate, the one given or else one built,
    refused unless it is of h and passes."""
    cert = certificate
    if cert is None:
        cert = general_position_certificate(h)
    if cert.map is not h:
        raise PreconditionError("certificate is of another map")
    if not cert.overall:
        raise PreconditionError("map is not in certified general position")
    return cert


def _probe_frame(z, cert):
    """(scale, origin, points): z and the map's vertex images, all
    multiplied by one common denominator, scale, as integers.  The
    certificate already holds the map's integer images; only z's
    denominators can widen the scale."""
    scale, origin = widen_frame(cert.scale, z)
    points = cert.images
    if scale != cert.scale:
        f = scale // cert.scale
        points = {v: tuple(f * x for x in p) for v, p in points.items()}
    return scale, origin, points


class _ProbeEchelons(dict):
    """One probe's Echelon of each vertex set about z, built on first use, on
    the probe's frame (_probe_frame)."""

    def __init__(self, z, cert):
        super().__init__()
        self.z = z
        self.scale, self.origin, self.points = _probe_frame(z, cert)

    def __missing__(self, s):
        e = self[s] = Echelon(self.points, self.origin, s)
        return e

    def _weights(self, s1, s2):
        """(vertices, d, nu) with nu / d the one solution of the small system
        sum nu_j R_s1(w_j - z) = 0, sum nu = 1 over s2's sorted vertices w_j,
        or None when it is rank-deficient, inconsistent or has a nu_j < 0."""
        verts = sorted_vertices(s2)
        reduce = self[s1].reduce
        columns = [reduce(w) for w in verts]
        n = len(columns)
        reduced_rows = list(zip(*columns))
        # a row sum nu_j r_j = 0 with nu >= 0, sum nu = 1 needs an r_j <= 0
        # and an r_j >= 0: this exact test settles most pairs without a solve
        if any(min(r) > 0 or max(r) < 0 for r in reduced_rows):
            return None
        # the row sum nu = 1 first: its pivot 1 keeps the elimination small
        rows = [[1] * (n + 1)] + [[*r, 0] for r in reduced_rows]
        if len(_echelon_int(rows, pivot_col_limit=n)) < n:
            return None
        if any(row[n] for row in rows[n:]):
            return None
        d, (nu,) = _solve_echelon_int(rows, n)
        if any(t < 0 for t in nu):
            return None
        return verts, d, nu

    def records(self, s1, s2):
        """Secant records for one vertex-disjoint pair (length <= 1), read off
        its two small systems (module docstring)."""
        nu = self._weights(s1, s2)
        if nu is None:
            return []
        mu = self._weights(s2, s1)
        if mu is None:
            return []
        return [secant_record(self, s1, mu, s2, nu)]


# bytes 0 and 1 -> the digits int() reads in base 2
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _refuse(h, z, top):
    """Raise the refusal of a z affinely dependent with a maximal simplex
    image (top) or with a vertex-sharing pair's union; the exact distance to
    the image is computed only to word it."""
    if point_to_image_distance_sq_lower(z, h) == 0:
        raise PreconditionError("probe point lies on the image")
    raise DegenerateGeometryError(
        "probe point affinely dependent with a maximal simplex image"
        if top
        else "probe point affinely dependent with an adjacent pair's image union"
    )


def _assert_adjacent_secant_free(h, z, echelons, tops):
    """Refuse z unless it is affinely independent of every maximal image
    simplex and of every vertex-sharing maximal pair's image union, by
    integer ranks on the frame; returns nothing.

    The failures are perturb.failing_unions about z, on the tops'
    echelons and their later vertex-sharing tops (complexes.later_sharing),
    and the first one is raised.  Passing ranks also put z off the image,
    which lies in the union of the maximal simplices' affine hulls.
    """
    rows = ((echelons[s], sorted(later)) for s, later in zip(tops, later_sharing(tops)))
    for _, j in failing_unions(tops, rows):
        _refuse(h, z, j is None)


def _echelon_walk(h, z, cert, tops):
    """The records of the vertex-disjoint pairs (i, j), i < j, in order, on
    one probe's echelons, after the adjacency ranks; each top's Echelon is
    dropped after its row."""
    echelons = _ProbeEchelons(z, cert)
    _assert_adjacent_secant_free(h, z, echelons, tops)
    for i, s1 in enumerate(tops):
        for s2 in tops[i + 1:]:
            if s1.isdisjoint(s2):
                yield from echelons.records(s1, s2)
        del echelons[s1]  # no later row uses it


class _PluckerProbe:
    """One probe's walk on a square map (perturb.is_square), read off the
    certificate's FacetPairings (module docstring): per top sigma the join
    vector J, sigma's Plücker vector expanded by the row of z, and its
    pairings with every top's facets, whose signs decide every pair."""

    def __init__(self, h, z, cert, tops):
        self.h, self.z, self.tops = h, z, tops
        self.facets = facets = cert.facet_pairings
        self.scale, self.origin, self.points = _probe_frame(z, cert)
        # (1, z) on the certificate's frame, times scale // cert.scale
        row = (self.scale // cert.scale, *self.origin)
        self.joins = [list(expand(facets.top_plucker(i), facets.k, row)) for i in range(len(tops))]

    def _independent(self, i, j, zeros) -> bool:
        """Whether z with the union of tops i < j, which share a vertex, is
        affinely independent: for one shared vertex, the pairing of J_i with
        j's facet without it is nonzero; otherwise J_i expanded by the rows
        of tops[j] - tops[i] is."""
        sigma, tau = self.tops[i], self.tops[j]
        shared = sigma & tau
        if len(shared) == 1:
            t = self.facets.vertices[j].index(next(iter(shared)))
            return j * self.facets.k + t not in zeros
        minors, r = self.joins[i], self.facets.k + 1
        *rest, last = tau - sigma
        for v in rest:
            minors = list(expand(minors, r, (1, *self.facets.images[v])))
            r += 1
        # the first nonzero minor decides
        return any(expand(minors, r, (1, *self.facets.images[last])))

    def _fails(self) -> list:
        """Per top i, an int whose bit j is set when J_i's pairings with j's
        facets hold both strict signs; refuses z on the way, top by top, as
        _assert_adjacent_secant_free does."""
        tops, joins, k = self.tops, self.joins, self.facets.k
        count = len(tops)
        packed = self.facets.packed(max(sum(map(abs, j)) for j in joins))
        fails = []
        for i, later in enumerate(later_sharing(tops)):
            if not any(joins[i]):
                _refuse(self.h, self.z, True)
            negative, zeros = packed.signs(joins[i])
            for j in sorted(later):
                if not self._independent(i, j, zeros):
                    _refuse(self.h, self.z, False)
            # per top j, whether some but not all of its k slots are negative:
            # one byte per top, then one bit
            strided = [int.from_bytes(negative[t::k], "little") for t in range(k)]
            some, every = reduce(or_, strided), reduce(and_, strided)
            row = int((some ^ every).to_bytes(count, "big").translate(_DIGITS), 2)
            for j in {s // k for s in zeros}:
                # a zero slot is neither sign; a zero of a vertex-sharing
                # pair, whose determinant repeats a row, is never read
                if tops[i].isdisjoint(tops[j]):
                    block = range(j * k, (j + 1) * k)
                    both = any(negative[s] for s in block) and any(
                        not negative[s] and s not in zeros for s in block
                    )
                    row = row | 1 << j if both else row & ~(1 << j)
            fails.append(row)
        return fails

    def _weights(self, i, j) -> list:
        """Per facet t of top j, the top without its t-th vertex, (-1)^t
        det(tops[i]^, z^, facet^): J_i expanded by the facet's rows, the
        pairing whose sign the walk read."""
        k, rows = self.facets.k, self.facets.rows(j)
        weights = []
        for t in range(k):
            minors = self.joins[i]
            for r, row in enumerate(rows[:t] + rows[t + 1:], k + 1):
                minors = list(expand(minors, r, row))
            weights.append(-minors[0] if t % 2 else minors[0])
        return weights

    def records(self, i, j):
        """The secant record of the vertex-disjoint pair (tops[i], tops[j])
        whose weights hold no two strict signs: alpha off J_j and i's
        facets, beta off J_i and j's facets (length 1)."""
        alpha, beta = self._weights(j, i), self._weights(i, j)
        mu = self.facets.vertices[i], sum(alpha), alpha
        nu = self.facets.vertices[j], sum(beta), beta
        return [secant_record(self, self.tops[i], mu, self.tops[j], nu)]

    def walk(self):
        """The records of the vertex-disjoint pairs (i, j), i < j, in order,
        that neither sign test drops."""
        fails = self._fails()
        count = len(self.tops)
        for i, sigma in enumerate(self.tops):
            # digit j is row i's bit j; a set digit past the last top
            digits = format(fails[i] | 1 << count, "b")[::-1]
            j = digits.find("0", i + 1)
            while j >= 0:
                if not fails[j] >> i & 1 and sigma.isdisjoint(self.tops[j]):
                    yield from self.records(i, j)
                j = digits.find("0", j + 1)
            # no later row reads row i's bits or J_i
            fails[i] = self.joins[i] = None


def secants_for_pair(h: PLMap, z, s1, s2, certificate=None):
    """Secant records for one vertex-disjoint simplex pair (length <= 1)."""
    z = vec(z)
    s1 = frozenset(s1)
    s2 = frozenset(s2)
    if s1 not in h.complex.simplices or s2 not in h.complex.simplices:
        raise ValueError("unknown simplex")
    if s1 & s2:
        raise PreconditionError("simplex pair shares vertices")
    cert = certified(h, certificate)
    if point_to_image_distance_sq_lower(z, h) == 0:
        raise PreconditionError("probe point lies on the image")
    return _ProbeEchelons(z, cert).records(s1, s2)


def secant_set(h: PLMap, z, certificate=None):
    """All secant records through z, deduplicated by canonical line: the
    first record found per line over the vertex-disjoint maximal pairs
    (i, j), i < j, in order."""
    z = vec(z)
    if len(z) != h.m:
        raise ValueError("ambient dimension mismatch")
    cert = certified(h, certificate)
    tops = h.complex.maximal_simplices()
    if not tops:
        raise ValueError("empty complex has no image")
    if is_square(tops, h.m):
        found = _PluckerProbe(h, z, cert, tops).walk()
    else:
        found = _echelon_walk(h, z, cert, tops)
    by_key = {}
    for rec in found:
        by_key.setdefault(rec.key, rec)
    return [by_key[key] for key in sorted_keys(by_key)]


def _chord(key, k):
    """The endpoints, in floats, of the chord the radius-k ball cuts from
    the line with key (foot, direction) (records.SecantRecord.key);
    int / int is correctly rounded, as float(Fraction) is."""
    foot, direction = key
    base = [n / d for n, d in foot]
    d = [float(x) for x in direction]
    a = sum(x * x for x in d)
    b = 2 * sum(p * q for p, q in zip(base, d))
    c = sum(x * x for x in base) - float(k) ** 2
    disc = b * b - 4 * a * c
    if disc < 0:
        if disc > -1e-9 * max(1.0, b * b):
            disc = 0.0
        else:
            raise PreconditionError("line does not meet the clipping ball")
    root = math.sqrt(disc)
    t1 = (-b - root) / (2 * a)
    t2 = (-b + root) / (2 * a)
    return (
        [base[i] + t1 * d[i] for i in range(len(base))],
        [base[i] + t2 * d[i] for i in range(len(base))],
    )


def _point_segment_distance(p, a, b):
    ab = [b[i] - a[i] for i in range(len(a))]
    ap = [p[i] - a[i] for i in range(len(a))]
    denom = sum(x * x for x in ab)
    t = 0.0 if denom == 0 else sum(x * y for x, y in zip(ap, ab)) / denom
    t = min(1.0, max(0.0, t))
    return math.sqrt(
        sum((p[i] - (a[i] + t * ab[i])) ** 2 for i in range(len(a)))
    )


def _chord_distance(c1, c2) -> float:
    """Hausdorff distance between two chords, each a pair of endpoints.

    The distance from a point to a segment is convex along the other chord, so
    the supremum is attained at chord endpoints; four point-to-segment
    distances suffice.
    """
    (a1, b1), (a2, b2) = c1, c2
    return max(
        _point_segment_distance(a1, a2, b2),
        _point_segment_distance(b1, a2, b2),
        _point_segment_distance(a2, a1, b1),
        _point_segment_distance(b2, a1, b1),
    )


def line_distance(l1, l2, k) -> float:
    """Hausdorff distance between the two chords cut by the radius-k ball."""
    key1, key2 = int_line_key(l1), int_line_key(l2)
    if key1 == key2:
        return 0.0
    return _chord_distance(_chord(key1, k), _chord(key2, k))


def cover_parameters(epsilon, k):
    """(eps, k): the cover's mesh bound as a float and the clipping radius,
    exact unless given as a float, each refused unless it is positive with a
    nonzero finite float, and k also when its float square overflows, since
    the line metric runs in floats and squares k in every chord."""
    values = [v if isinstance(v, float) else rat(v) for v in (epsilon, k)]
    for name, value in zip(("epsilon", "k"), values):
        if value <= 0:
            raise PreconditionError(name + " must be positive")
        try:
            finite = 0 < float(value) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise PreconditionError(name + " is outside the float range")
    try:
        float(values[1]) ** 2
    except OverflowError as exc:
        raise PreconditionError("the line metric overflows the float range") from exc
    return float(values[0]), values[1]


def zero_dim_certificate(records, epsilon, k) -> CoverCertificate:
    """Disjoint cover of the secant set by equal balls of diameter < epsilon."""
    eps, k = cover_parameters(epsilon, k)
    keys = [r.key for r in records]
    if len(set(keys)) != len(keys):
        raise PreconditionError("duplicate lines; deduplicate records first")
    if not records:
        return CoverCertificate(eps, None, True, True)
    # one chord per line, and none for a single line: its radius is eps / 3
    # whether or not the line meets the ball
    try:
        chords = [_chord(key, k) for key in keys] if len(keys) > 1 else []
        min_distance = min(
            (
                _chord_distance(chords[i], chords[j])
                for i in range(len(chords))
                for j in range(i + 1, len(chords))
            ),
            default=None,
        )
    except OverflowError as exc:
        raise PreconditionError("the line metric overflows the float range") from exc
    radius = (eps if min_distance is None else min(eps, min_distance)) / 3
    mesh_ok = 2 * radius < eps
    # every chord distance is at least min_distance
    disjoint_ok = min_distance is None or min_distance > 2 * radius
    return CoverCertificate(eps, radius, mesh_ok, disjoint_ok, min_distance)


def probe_region_samples(h: PLMap, k, count: int, seed: int):
    """Uniform seeded samples from {z : ||z|| <= k, dist(z, image) >= 1/k}."""
    k = rat(k)
    if k <= 0:
        raise PreconditionError("k must be positive")
    if count < 0:
        raise PreconditionError("sample count must be nonnegative")
    if count == 0:
        return []
    rng = random.Random(seed)
    k_sq = k * k
    min_d2 = 1 / k_sq
    distance_sq = ImageDistance(h)
    budget = PROBE_BUDGET_FACTOR * count
    draws = 0
    out = []
    while len(out) < count:
        if draws >= budget:
            raise ThinRegionError(
                "probe region too thin: %d draws yielded %d of %d samples"
                % (draws, len(out), count)
            )
        draws += 1
        z = tuple(
            k * Fraction(rng.randrange(-GRID, GRID + 1), GRID)
            for _ in range(h.m)
        )
        if norm_sq(z) > k_sq:
            continue
        d2 = distance_sq(z)
        if d2 < min_d2:
            continue
        out.append(ProbePoint(z, d2))
    return out


def sample_to_obj(z, image_distance_sq, records) -> dict:
    """The JSON fields every report gives one probe point and its secants."""
    return {
        "z": [rat_str(x) for x in z],
        "image_distance_sq": rat_str(image_distance_sq),
        "secants": len(records),
        "records": [record_to_obj(rec) for rec in records],
    }


def pair_to_obj(record: dict) -> dict:
    """analyze's image-point pair, reshaped from a record_to_obj object."""

    def preimage(witness):
        return {"simplex": witness["simplex"], "weights": witness["weights"]}

    w1, w2 = record["witnesses"]
    return {
        "y1": w1["point"],
        "y2": w2["point"],
        "preimage1": preimage(w1),
        "preimage2": preimage(w2),
        "line": record["line"],
    }


def cover_certificate_to_obj(cert: CoverCertificate, record_objs) -> dict:
    """The cover's JSON; ball i is about record_objs[i]'s line, order is 0."""
    return {
        "epsilon": cert.epsilon,
        "order": 0,
        "valid": cert.valid,
        "mesh_ok": cert.mesh_ok,
        "disjoint_ok": cert.disjoint_ok,
        "radius": cert.radius,
        "balls": [
            {"line": obj["line"], "radius": cert.radius} for obj in record_objs
        ],
        "assignment": list(range(len(record_objs))),
    }
