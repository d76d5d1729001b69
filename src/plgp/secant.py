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

Write x^ = (1, x).  The certificate makes the rows v_i^, w_j^ of a
vertex-disjoint pair independent, so z^ = sum alpha_i v_i^ + sum beta_j w_j^
has at most one solution.  A secant has z = lambda p1 + (1 - lambda) p2 with
lambda neither 0 nor 1, since z is off the image, so alpha = lambda mu and
beta = (1 - lambda) nu: neither holds two strict signs.  Conversely, a
solution with lambda = sum alpha neither 0 nor 1 and no two strict signs in
alpha or in beta gives convex weights mu = alpha / sum alpha and
nu = beta / sum beta, and z = lambda p1 + (1 - lambda) p2 lies on the line
through p1 and p2, which differ since aff(s1) misses aff(s2).  So a pair
carries a secant iff that holds, and then exactly one.  Any pair may be
decided so, by one exact solve (_ProbeFrame.solve); secants_for_pair's face
pairs are, and so are the pairs the walk below cannot read.

The walk (_PluckerProbe) reads the rows the certificate mapped by Pi
(perturb.project: 2k coordinates, k the most vertices of a top) and z^
mapped by the same Pi.  For two tops of k vertices whose projected rows
make a basis, a nonzero determinant D in the certificate, Cramer's rule
gives, each up to the factor D,

    beta_j  ~ (-1)^j det(z^, s1^, s2^ without w_j^),
    alpha_i ~ (-1)^i det(z^, s2^, s1^ without v_i^),

on the projected rows.  The projected relation is unique, so when the true
one exists it equals it: a pair whose projected alpha or beta holds two
strict signs carries no secant and is dropped.  A kept pair's relation is
checked on the coordinates Pi drops (_PluckerProbe._holds), so it holds in
R^(m+1), and then alpha = 0 would put z in aff(s2) and beta = 0 in aff(s1),
which (ii) refuses; its record is read off its 2k determinants with no
solve.  On a square map (m + 1 = 2k, every top with k vertices) Pi is the
identity and drops no coordinate.  A pair holding a top of fewer than k
vertices, or whose projected determinant is zero (the certificate's
zero_pairs), is solved exactly.

The determinants pair Plücker vectors.  J1, the maximal minors of the
k + 1 rows s1^, z^, is s1's Plücker vector expanded by z^'s row
(exact.expand), and det(s1^, z^, s2^ without w_j^) is its pairing with
the dual of that facet of s2 (exact.laplace_dual, k + 1 rows over k - 1).
The certificate packs the facet duals of every top of k vertices once
(perturb.FacetPairings); one exact.PackedPairings walk per top sigma gives
J_sigma's pairing with every facet of every top of k vertices, whose top
bytes are the signs: pair (s1, s2)'s beta signs lie in s1's row and its
alpha signs in s2's.  The same walk decides (ii), top by top, and the
first failure in top order is refused: z is in aff(sigma) iff the rows of
sigma and z are
dependent, which J_sigma != 0 disproves; a pair of tops of k vertices sharing
one vertex u has its union with z square, independent if J_sigma's pairing
with tau's facet without u is nonzero; any other sharing pair is independent
if J_sigma expanded by the rows of tau - sigma is nonzero.  Each zero is
decided by the exact rank of the rows with z^ in R^(m+1)
(_ProbeFrame.independent).  The records come in the order of the pairs, so
the first record per line is the same whichever way each pair is decided.
The flats construction (joins, intersections, line-simplex solves) is the
tests' oracle of both the walk and the solve.

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
from operator import add, and_, mul, or_

from .complexes import PLMap, later_sharing, sorted_vertices
from .errors import DegenerateGeometryError, PreconditionError, ThinRegionError
from .exact import (
    _echelon_int,
    _solve_echelon_int,
    expand,
    int_combination,
    laplace_dual,
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
from .perturb import GRID, general_position_certificate, project
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


class _ProbeFrame:
    """One probe's integer frame, which records.secant_record reads: z, and
    z and the map's vertex images multiplied by one common denominator,
    scale, as ints (origin, points); and row, z^ on the certificate's frame.
    The certificate already holds the map's integer images; only z's
    denominators can widen the scale."""

    def __init__(self, z, cert):
        self.z, self.cert = z, cert
        self.scale, self.origin = widen_frame(cert.scale, z)
        f = self.scale // cert.scale
        self.points = cert.images
        if f != 1:
            self.points = {v: tuple(f * x for x in p) for v, p in self.points.items()}
        # (1, z) on the certificate's frame, times f
        self.row = (f, *self.origin)

    def independent(self, vertices) -> bool:
        """Whether z and the vertices' images are affinely independent, by
        the integer rank of their homogeneous rows in R^(m+1)."""
        rows = [list(self.row)] + [[1, *self.cert.images[v]] for v in vertices]
        return len(_echelon_int(rows)) == len(rows)

    def solve(self, s1, s2) -> list:
        """The secant record of the vertex-disjoint pair (s1, s2), simplices
        of any size, from one exact solve of z^ = sum alpha_i v_i^ +
        sum beta_j w_j^ in R^(m+1) (module docstring; length <= 1)."""
        v1, v2 = sorted_vertices(s1), sorted_vertices(s2)
        n = len(v1) + len(v2)
        columns = [(1, *self.cert.images[v]) for v in v1 + v2]
        rows = [list(r) for r in zip(*columns, self.row)]
        if len(_echelon_int(rows, pivot_col_limit=n)) < n or any(r[n] for r in rows[n:]):
            return []
        _, (x,) = _solve_echelon_int(rows, n)
        alpha, beta = x[: len(v1)], x[len(v1) :]
        if not (sum(alpha) and sum(beta)) or any(min(w) < 0 < max(w) for w in (alpha, beta)):
            return []
        return [secant_record(self, s1, (v1, sum(alpha), alpha), s2, (v2, sum(beta), beta))]


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


class _PluckerProbe(_ProbeFrame):
    """One probe's walk, read off the certificate's FacetPairings (module
    docstring): per top sigma the join vector J, the Plücker vector of
    sigma's projected rows expanded by z^'s projected row, and its pairings
    with every top's facets, whose signs decide every pair of tops of k
    vertices."""

    def __init__(self, h, z, cert):
        super().__init__(z, cert)
        self.h, self.tops = h, cert.tops
        self.facets = facets = cert.facet_pairings
        row = project(self.row, 2 * facets.k)
        self.joins = [
            list(expand(facets.top_plucker(i), len(t), row)) for i, t in enumerate(self.tops)
        ]

    def _independent(self, i, j, zeros) -> bool:
        """Whether z with the union of tops i < j, which share a vertex, is
        affinely independent: for tops of k vertices sharing one, when the
        pairing of J_i with j's facet without it is nonzero; otherwise when
        J_i expanded by the rows of tops[j] - tops[i] is; else by the exact
        rank."""
        sigma, tau = self.tops[i], self.tops[j]
        shared, k = sigma & tau, self.facets.k
        if len(shared) == 1 and len(sigma) == len(tau) == k:
            t = self.facets.vertices[j].index(next(iter(shared)))
            if self.facets.position[j] * k + t not in zeros:
                return True
        else:
            minors, r = self.joins[i], len(sigma) + 1
            *rest, last = tau - sigma
            for v in rest:
                minors = list(expand(minors, r, self.facets.projected[v]))
                r += 1
            # the first nonzero minor decides
            if any(expand(minors, r, self.facets.projected[last])):
                return True
        return self.independent(sigma | tau)

    def _fails(self) -> list:
        """Per top i, an int whose bit j is set when J_i's pairings with j's
        facets hold both strict signs, and never for a pair solved exactly;
        refuses z on the way, top by top (module docstring)."""
        tops, joins, facets, k = self.tops, self.joins, self.facets, self.facets.k
        packed = facets.packed(max(sum(map(abs, j)) for j in joins))
        fails = []
        for i, later in enumerate(later_sharing(tops)):
            if not any(joins[i]) and not self.independent(tops[i]):
                _refuse(self.h, self.z, True)
            full = len(tops[i]) == k
            negative, zeros = packed.signs(joins[i]) if full else (b"", [])
            for j in sorted(later):
                if not self._independent(i, j, zeros):
                    _refuse(self.h, self.z, False)
            if not full:
                fails.append(0)
                continue
            # per packed top f, whether some but not all of its k slots are
            # negative: one byte per top, then one bit, spread to top indices
            # (a smaller top's bit stays clear)
            strided = [int.from_bytes(negative[t::k], "little") for t in range(k)]
            some, every = reduce(or_, strided), reduce(and_, strided)
            row = int((some ^ every).to_bytes(len(facets.full), "big").translate(_DIGITS), 2)
            for f in {s // k for s in zeros}:
                # a zero slot is neither sign; a zero of a vertex-sharing
                # pair, whose determinant repeats a row, is never read
                if tops[i].isdisjoint(tops[facets.full[f]]):
                    block = range(f * k, (f + 1) * k)
                    both = any(negative[s] for s in block) and any(
                        not negative[s] and s not in zeros for s in block
                    )
                    row = row | 1 << f if both else row & ~(1 << f)
            row = facets.spread(row)
            for j in self.cert.zero_pairs.get(i, ()):
                row &= ~(1 << j)
            fails.append(row)
        return fails

    def _weights(self, i, j) -> list:
        """Per facet t of top j, the top without its t-th vertex, (-1)^t
        det(tops[i]^, z^, facet^) on the projected rows: J_i expanded by the
        facet's rows, the pairing whose sign the walk read."""
        k, rows = self.facets.k, self.facets.rows(j)
        weights = []
        for t in range(k):
            minors = self.joins[i]
            for r, row in enumerate(rows[:t] + rows[t + 1:], k + 1):
                minors = list(expand(minors, r, row))
            weights.append(-minors[0] if t % 2 else minors[0])
        return weights

    def _holds(self, i, j, alpha, beta) -> bool:
        """Whether D z^ = (-1)^k sum alpha_t v_t^ + sum beta_t w_t^ on the
        coordinates Pi drops, D the determinant of the pair's projected
        rows: with the projected relation, whether it holds in R^(m+1).
        Always, when Pi drops none."""
        facets, width = self.facets, 2 * self.facets.k
        if len(self.row) <= width:
            return True
        d = sum(map(mul, facets.top_plucker(i), laplace_dual(facets.top_plucker(j), facets.k)))
        if facets.k % 2:
            alpha = [-a for a in alpha]
        images = self.cert.images
        combined = map(
            add,
            int_combination(images, facets.vertices[i], alpha),
            int_combination(images, facets.vertices[j], beta),
        )
        # image coordinate c is row coordinate c + 1
        tail = slice(width - 1, None)
        return list(combined)[tail] == [d * x for x in self.origin[tail]]

    def records(self, i, j):
        """The secant record of the vertex-disjoint pair (tops[i], tops[j])
        that the sign tests kept (length <= 1): off alpha, read off J_j and
        i's facets, and beta, off J_i and j's facets, when the relation
        holds; by one exact solve for a pair the walk cannot read."""
        sigma, tau, k = self.tops[i], self.tops[j], self.facets.k
        if len(sigma) < k or len(tau) < k or j in self.cert.zero_pairs.get(i, ()):
            return self.solve(sigma, tau)
        alpha, beta = self._weights(j, i), self._weights(i, j)
        if not self._holds(i, j, alpha, beta):
            return []
        mu = self.facets.vertices[i], sum(alpha), alpha
        nu = self.facets.vertices[j], sum(beta), beta
        return [secant_record(self, sigma, mu, tau, nu)]

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
    return _ProbeFrame(z, cert).solve(s1, s2)


def secant_set(h: PLMap, z, certificate=None):
    """All secant records through z, deduplicated by canonical line: the
    first record found per line over the vertex-disjoint maximal pairs
    (i, j), i < j, in order."""
    z = vec(z)
    if len(z) != h.m:
        raise ValueError("ambient dimension mismatch")
    cert = certified(h, certificate)
    if not cert.tops:
        raise ValueError("empty complex has no image")
    by_key = {}
    for rec in _PluckerProbe(h, z, cert).walk():
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
    min_d2 = 1 / (k * k)
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
        j = [rng.randrange(-GRID, GRID + 1) for _ in range(h.m)]
        if sum(x * x for x in j) > GRID * GRID:  # ||z|| > k, as k > 0
            continue
        z = tuple(k * Fraction(x, GRID) for x in j)
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
