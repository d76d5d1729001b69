"""Random perturbation of vertex images into certified general position.

Algebraic independence of the perturbed coordinates is not checkable, so the
certificate records the finitely many exact consequences the construction
actually uses: every image simplex is nondegenerate, and for every pair of
simplices the union of image vertices is affinely independent.  With
dim K <= n and m >= 2n+1 each union has at most m+1 points, so the condition
is both checkable and generically true.

Exact verdicts are taken only on the maximal simplices and on each unordered
pair of distinct maximal simplices, vertex-sharing pairs included.  That
decides every face and face pair: each face lies in a maximal simplex, so a
face pair's vertex union lies in one maximal simplex or in a maximal pair's
union, and subsets of an affinely independent set are independent; each
maximal simplex and maximal pair is itself a face or face pair.  So the
certificate is the maximal verdicts alone (MaximalVerdicts): it passes
exactly when every face and face pair passes.  A face or face pair whose
union lies inside a passing maximal union passes; any other would need its
own rank, which nothing takes, since a failing certificate is resampled and
never reported.  A report counts every face and face pair as checked.

Each maximal simplex sigma is eliminated once, in one exact.Echelon about
its first vertex: that decides sigma, and each pair of sigma with a later
passing maximal simplex tau that shares a vertex, from the vertices
tau - sigma reduced against sigma's echelon.  Those k reduced rows lie in
sigma's f free columns, and the pair's rank is full iff theirs is: for
one row, or two rows in two columns, one nonzero test or one 2x2
determinant; any other shape takes one small elimination.  Under
m >= 2n+1 every pair ranked has k <= n + 1 <= m - n <= f.  A pair holding
a failing simplex fails without a rank.
All of it runs on Python ints: every image is scaled by one common
denominator, the lcm over the map, which leaves affine independence
unchanged.

The vertex-disjoint pairs are decided by Plücker coordinates.  With k the
most vertices of a maximal simplex (a top), every homogeneous row (1, image)
is mapped by one fixed integer matrix Pi = [I_2k | V] to 2k coordinates
(project): V_ce = (c+1)^(e+1) folds the m + 1 - 2k coordinates past 2k into
the first 2k, and zeros pad a shorter row.  On a square map, every top with
k vertices and m + 1 = 2k, as for n-simplices at m = 2n+1, Pi is the
identity.  Two tops of k vertices give 2k projected rows, a square matrix
whose determinant the generalized Laplace expansion makes a pairing of the
two tops' Plücker vectors (exact.plucker, exact.laplace_dual); one
exact.PackedPairings decides each top's pairings with every later top in one
big-integer walk.  Projected rows of dependent rows are dependent, so a
nonzero determinant proves the pair independent.  A zero one is dependent
when Pi drops no coordinate; otherwise the pair's exact rank in R^(m+1)
decides it (MaximalVerdicts.independent), and an independent pair is kept in
zero_pairs, since the probe (secant) cannot read its secant off the
projected rows.  A pair holding a top of fewer than k vertices (_mixed_pairs)
is ranked exactly too.  A passing certificate also keeps, built on the first
probe's request, the projected rows' Plücker vectors and facet duals every
probe of the map reads (FacetPairings).

A resample round moves exactly the vertices of the failing unions, which
every certificate, round 0's included, collects as moved.  The tops are
ranked first: if one fails, every vertex moves, since its pair with each
other top fails, and no pair is ranked.  Then the vertex-sharing pairs, off
complexes.later_sharing, by one Echelon.full_rank per top.  When their
failing unions hold every vertex, as on subdivided maps before
perturbation, no other pair can add to the set; otherwise the
vertex-disjoint pairs are decided.  The echelons are dropped
after the sharing pass, and each Plücker vector after its row.  No pair is
decided twice, and no verdict of a top or pair is kept: the certificate is
moved and overall, whether moved is empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, isqrt

from .complexes import PLMap, integer_images, later_sharing, sorted_vertices
from .errors import PerturbationBudgetError, PreconditionError
from .exact import (
    Echelon,
    PackedPairings,
    _echelon_int,
    laplace_dual,
    norm_sq,
    plucker,
    rat,
    rat_str,
    sqrt_bracket,
    vec_add,
)

GRID = 2 ** 32
DEFAULT_MAX_ROUNDS = 32


@dataclass(frozen=True)
class PerturbationReport:
    seed: int
    rounds: int
    max_displacement: Fraction     # certified upper bound, < delta/2
    max_displacement_sq: Fraction  # exact
    certificate: MaximalVerdicts


def _top_echelon(images, sigma) -> Echelon:
    """sigma's rows v - v0 about its first vertex v0, in one Echelon."""
    first = next(iter(sigma))
    return Echelon(images, images[first], sigma - {first})


def _dropping(items):
    """items' entries in order, each dropped from the list as it is yielded."""
    for i, item in enumerate(items):
        items[i] = None
        yield item


def project(row, width) -> tuple:
    """Pi row: a homogeneous row's first width coordinates, plus
    (c+1)^(e+1) times its coordinate width + e in coordinate c, for each e;
    zeros pad a row shorter than width, and a row of width coordinates is
    returned as it is."""
    if len(row) == width:
        return row
    out = [*row[:width], *[0] * (width - len(row))]
    for e, x in enumerate(row[width:], 1):
        for c in range(width):
            out[c] += (c + 1) ** e * x
    return tuple(out)


def _mixed_pairs(tops, k):
    """The vertex-disjoint pairs (i, j), i < j, of tops that hold a top of
    fewer than k vertices."""
    for i, sigma in enumerate(tops):
        if len(sigma) < k:
            for j, tau in enumerate(tops):
                if (j > i or len(tau) == k) and sigma.isdisjoint(tau):
                    yield min(i, j), max(i, j)


class FacetPairings:
    """A map's Plücker data on the certificate's projected rows, read by the
    probe's walk (secant).  Per top: its sorted vertices and their rows'
    Plücker vector.  packed(bound) holds, per top and facet t, the top
    without its t-th vertex, the dual (exact.laplace_dual) of the facet's
    Plücker vector against k + 1 rows of 2k columns, negated when t is odd,
    in top-major order, in one exact.PackedPairings; a top of fewer than k
    vertices holds k zero duals, since its pairs are solved exactly.  The
    duals live only while they are packed, and are packed again only when a
    bound exceeds the packing's own."""

    def __init__(self, tops, rows, k):
        self.k = k
        self.projected = rows
        self.vertices = [sorted_vertices(t) for t in tops]
        ps = [plucker(self.rows(i)) for i in range(len(tops))]
        # each vector as fixed-width signed bytes, a fraction of its ints'
        # memory, since the certificate keeps them for every probe
        self._width = w = (max(abs(x) for p in ps for x in p).bit_length() + 8) // 8
        self._pluckers = [b"".join(x.to_bytes(w, "little", signed=True) for x in p) for p in ps]
        self._packed = None

    def rows(self, i) -> list:
        """Top i's projected rows, its vertices in sorted order."""
        return [self.projected[v] for v in self.vertices[i]]

    def top_plucker(self, i) -> list:
        """Top i's Plücker vector."""
        data, w = self._pluckers[i], self._width
        return [
            int.from_bytes(data[o : o + w], "little", signed=True)
            for o in range(0, len(data), w)
        ]

    def _duals(self):
        k = self.k
        for i in range(len(self.vertices)):
            rows = self.rows(i)
            for t in range(k):
                if len(rows) < k:
                    yield [0] * comb(2 * k, k + 1)
                    continue
                q = laplace_dual(plucker(rows[:t] + rows[t + 1:]), k + 1, 2 * k)
                yield [-x for x in q] if t % 2 else q

    def packed(self, bound) -> PackedPairings:
        """The duals packed for pairing vectors p with sum |p| <= bound."""
        if self._packed is None or self._packed.bound < bound:
            # a power of two, so the probes of one map mostly share a packing
            self._packed = PackedPairings(list(self._duals()), 1 << bound.bit_length())
        return self._packed


class MaximalVerdicts:
    """The general-position certificate: exact verdicts on the maximal
    simplices and on every pair of distinct ones, kept as moved, the
    vertices of the failing unions (the set a resample round moves), and
    overall, whether it is empty.  zero_pairs maps each top's index to the
    indices of the vertex-disjoint tops whose projected determinant with it
    is zero though their union is independent."""

    def __init__(self, h: PLMap):
        self.map = h
        self.scale, self.images = integer_images(h)
        self.tops = tops = h.complex.maximal_simplices()
        self.k = max(map(len, tops), default=1)
        self.zero_pairs = {}
        echelons = [_top_echelon(self.images, sigma) for sigma in tops]
        self.moved = moved = set()
        if not all(e.independent for e in echelons):
            # a failing top's pair with each other top fails
            moved.update(h.complex.vertices)
        else:
            for sigma, e, later in zip(tops, echelons, later_sharing(tops)):
                _, *verdicts = e.full_rank(*[tops[j] - sigma for j in later])
                for j, ok in zip(later, verdicts):
                    if not ok:
                        moved |= sigma | tops[j]
            echelons.clear()  # the vertex-disjoint pairs read no echelon
            if len(moved) < len(h.complex.vertices):
                moved |= self._disjoint_moved()
        self.overall = not moved

    @cached_property
    def rows(self) -> dict:
        """Each vertex's homogeneous row (1, image), mapped by Pi (project)
        to 2k coordinates, built on first use and kept."""
        return {v: project((1, *p), 2 * self.k) for v, p in self.images.items()}

    def _disjoint_moved(self) -> set:
        """The vertices of the failing vertex-disjoint pairs: the zero slots
        of one packed Plücker walk over the tops of k vertices, each ranked
        exactly when Pi drops a coordinate, and the exact rank of each pair
        holding a smaller top.  Hits of vertex-sharing pairs, whose
        determinants repeat a row, are dropped: the sharing pass decided
        them."""
        tops, k = self.tops, self.k
        folded = self.map.m + 1 > 2 * k
        full = [i for i, t in enumerate(tops) if len(t) == k]
        ps = [plucker([self.rows[v] for v in tops[i]]) for i in full]
        packed = PackedPairings(
            [laplace_dual(p, k) for p in ps], max(sum(map(abs, p)) for p in ps)
        )
        moved = set()
        for a, p in enumerate(_dropping(ps)):
            sigma = tops[full[a]]
            for b in packed.zeros(p, a + 1):
                tau = tops[full[b]]
                if not sigma.isdisjoint(tau):
                    continue
                if folded and self.independent(sigma | tau):
                    self.zero_pairs.setdefault(full[a], set()).add(full[b])
                    self.zero_pairs.setdefault(full[b], set()).add(full[a])
                else:
                    moved |= sigma | tau
        for i, j in _mixed_pairs(tops, k):
            if not self.independent(tops[i] | tops[j]):
                moved |= tops[i] | tops[j]
        return moved

    @cached_property
    def facet_pairings(self) -> FacetPairings:
        """The FacetPairings of the map, built on first use and kept: every
        probe of the map reads the same ones."""
        return FacetPairings(self.tops, self.rows, self.k)

    def independent(self, vertices) -> bool:
        """Affine independence of the vertices' images, by an integer rank."""
        first, *rest = vertices
        p0 = self.images[first]
        if len(rest) > len(p0):
            return False
        rows = [[a - b for a, b in zip(self.images[v], p0)] for v in rest]
        return len(_echelon_int(rows)) == len(rows)


def require_ambient_bound(m: int, n: int) -> None:
    """Refuse an ambient dimension m below 2n+1 for a complex of dimension n;
    the empty complex (n = -1) always passes."""
    if n >= 0 and m < 2 * n + 1:
        raise PreconditionError(
            "ambient dimension %d is below the general-position bound %d"
            % (m, 2 * n + 1)
        )


def general_position_certificate(h: PLMap) -> MaximalVerdicts:
    require_ambient_bound(h.m, h.complex.dimension)
    return MaximalVerdicts(h)


def _draw_displacement(rng, m, half, j_max):
    # box draws j / GRID, rejected until strictly inside the open Euclidean
    # ball of radius delta/2: sum j^2 * half.den^2 < (half.num * GRID)^2
    scale = half.denominator ** 2
    bound = (half.numerator * GRID) ** 2
    while True:
        j = [rng.randrange(-j_max, j_max + 1) for _ in range(m)]
        if sum(t * t for t in j) * scale < bound:
            return tuple(Fraction(t, GRID) for t in j)


def _displacement_bound(d2, half):
    """Rational upper bound on sqrt(d2), tightened below half (d2 < half^2).

    An inexact sqrt_bracket is one cell of width 1/cell around the root; the
    cell is halved, one isqrt each, until its upper end drops below half.
    """
    assert d2 < half * half
    lo, hi = sqrt_bracket(d2)
    cell = (hi - lo).denominator
    while hi >= half:
        cell *= 2
        hi = Fraction(isqrt(d2.numerator * cell * cell // d2.denominator) + 1, cell)
    return hi


def perturb_to_general_position(
    h0: PLMap, delta, seed: int, max_rounds: int = DEFAULT_MAX_ROUNDS
):
    delta = rat(delta)
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    require_ambient_bound(h0.m, h0.complex.dimension)
    cert = MaximalVerdicts(h0)
    if cert.overall:
        zero = Fraction(0)
        return h0, PerturbationReport(seed, 0, zero, zero, cert)
    half = delta / 2
    j_max = (half.numerator * GRID - 1) // half.denominator
    rng = random.Random(seed)
    # the vertices drawn so far; the rest keep their round-0 images
    displacements = {}
    images = dict(h0.images)
    for round_index in range(1, max_rounds + 1):
        moved, cert = cert.moved, None  # no two certificates alive at once
        for v in sorted(moved, key=str):
            d = displacements[v] = _draw_displacement(rng, h0.m, half, j_max)
            # a failing round's map is dropped, so its images update in place
            images[v] = vec_add(h0.images[v], d)
        current = PLMap(h0.complex, h0.m, images)
        # the complex and m are round 0's, which passed the bound
        cert = MaximalVerdicts(current)
        if cert.overall:
            max_d2 = max(norm_sq(d) for d in displacements.values())
            return current, PerturbationReport(
                seed, round_index, _displacement_bound(max_d2, half), max_d2, cert
            )
    raise PerturbationBudgetError(
        "no general-position certificate within %d resample rounds" % max_rounds,
        certificate=cert,
    )


def certificate_to_obj(cert: MaximalVerdicts) -> dict:
    f = len(cert.map.complex.simplices)
    return {
        "overall": cert.overall,
        "simplices_checked": f,
        "pairs_checked": f * (f - 1) // 2,
    }


def report_to_obj(report: PerturbationReport) -> dict:
    return {
        "seed": report.seed,
        "rounds": report.rounds,
        "max_displacement": rat_str(report.max_displacement),
        "max_displacement_sq": rat_str(report.max_displacement_sq),
        "certificate": certificate_to_obj(report.certificate),
    }
