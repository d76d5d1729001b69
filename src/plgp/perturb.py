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
All of it runs on Python ints: every image is scaled by one common
denominator, the lcm over the map, which leaves affine independence
unchanged.

Every verdict is read off Plücker coordinates.  With k the most vertices
of a maximal simplex (a top), every homogeneous row (1, image) is mapped
by one fixed integer matrix Pi = [I_2k | V] to 2k coordinates (project):
V_ce = (c+1)^(e+1) folds the m + 1 - 2k coordinates past 2k into the
first 2k, and zeros pad a shorter row; on a square map, every top with
k vertices and m + 1 = 2k, as for n-simplices at m = 2n+1, Pi is the
identity.  Projected rows of dependent rows are dependent, so a nonzero
maximal minor of projected rows proves their vertices independent, and
all minors zero proves them dependent unless Pi folds (m + 1 > 2k); then
the exact rank in R^(m+1) decides (MaximalVerdicts.independent).

Each top's Plücker vector on its projected rows (exact.plucker) decides
the top.  Expanded by the rows of tau - sigma (exact.expands_nonzero, the
probe's test too), sigma's vector decides its pair with each later top
tau sharing a vertex, a union of at most 2k - 1 rows; per sigma, the
expansion by each first extra vertex is kept.  The same vectors decide
the vertex-disjoint pairs: two tops of k vertices give a square matrix
whose determinant the generalized Laplace expansion makes a pairing of
their Plücker vectors (exact.laplace_dual), and one exact.PackedPairings
decides each top's pairings with every later top in one big-integer
walk.  An independent pair with a zero determinant, which needs Pi to
fold, is kept in zero_pairs, since the probe (secant) cannot read its
secant off the projected rows.  A pair holding a top of fewer than k
vertices (_mixed_pairs) is ranked exactly.  A passing certificate also
keeps, built on the first probe's request, the Plücker vectors and facet
duals every probe of the map reads (FacetPairings).

A resample round moves exactly the vertices of the failing unions, which
every certificate, round 0's included, collects as moved.  The tops are
decided first: if one fails, every vertex moves, since its pair with each
other top fails, and no pair is decided.  Then the vertex-sharing pairs,
off complexes.later_sharing; a pair whose union already lies in moved is
skipped, since its verdict cannot change moved.  When their failing
unions hold every vertex, as on subdivided maps before perturbation, no
other pair can add to the set; otherwise the vertex-disjoint pairs are
decided, and each Plücker vector is dropped after its row.  No pair is
decided twice, and no verdict of a top or pair is kept: the certificate
is moved and overall, whether moved is empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import isqrt

from .complexes import PLMap, integer_images, later_sharing, sorted_vertices
from .errors import PerturbationBudgetError, PreconditionError
from .exact import (
    PackedPairings,
    _echelon_int,
    expand,
    expands_nonzero,
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
    in top-major order, in one exact.PackedPairings, over only the tops of k
    vertices (full, by top index), since a smaller top's pairs are solved
    exactly: slot s is facet s % k of top full[s // k].  The duals live only
    while they are packed, and are packed again only when a bound exceeds
    the packing's own."""

    def __init__(self, tops, rows, k):
        self.k = k
        self.projected = rows
        self.vertices = [sorted_vertices(t) for t in tops]
        self.full = [i for i, t in enumerate(tops) if len(t) == k]
        self.position = {i: f for f, i in enumerate(self.full)}
        # maximal runs (f, i, length) of consecutive full tops, top i at position f
        self._runs = []
        for f, i in enumerate(self.full):
            if self._runs and self._runs[-1][1] + self._runs[-1][2] == i:
                self._runs[-1][2] += 1
            else:
                self._runs.append([f, i, 1])
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

    def spread(self, bits: int) -> int:
        """bits by packed position, moved to their top indices (the identity
        when every top is full)."""
        out = 0
        for f, i, n in self._runs:
            out |= (bits >> f & ((1 << n) - 1)) << i
        return out

    def _duals(self):
        k = self.k
        for i in self.full:
            rows = self.rows(i)
            for t in range(k):
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
    overall, whether it is empty.  rows holds each vertex's row (1, image)
    mapped by Pi (project), and folded whether Pi folds a coordinate.
    zero_pairs maps each top's index to the indices of the vertex-disjoint
    tops whose projected determinant with it is zero though their union is
    independent."""

    def __init__(self, h: PLMap):
        self.map = h
        self.scale, self.images = integer_images(h)
        self.tops = tops = h.complex.maximal_simplices()
        self.k = k = max(map(len, tops), default=1)
        self.folded = h.m + 1 > 2 * k
        self.rows = rows = {v: project((1, *p), 2 * k) for v, p in self.images.items()}
        self.zero_pairs = {}
        ps = [plucker([rows[v] for v in t]) for t in tops]
        self.moved = moved = set()
        if not all(any(p) or self._unfolded(t) for t, p in zip(tops, ps)):
            # a failing top's pair with each other top fails
            moved.update(h.complex.vertices)
        else:
            for sigma, p, later in zip(tops, ps, later_sharing(tops)):
                expanded = {}  # p expanded by one vertex's row, per vertex
                for j in later:
                    union = sigma | tops[j]
                    if union <= moved:
                        continue  # its verdict cannot change moved
                    if not self._sharing_independent(sigma, tops[j], p, expanded):
                        moved |= union
            if len(moved) < len(h.complex.vertices):
                moved |= self._disjoint_moved(ps)
        self.overall = not moved

    def _sharing_independent(self, sigma, tau, p, expanded) -> bool:
        """Whether tops sigma and tau, which share a vertex, have an affinely
        independent union: p, sigma's Plücker vector, expanded by the rows of
        tau - sigma (the first row's expansion kept in expanded), else by
        _unfolded."""
        first, *rest = tau - sigma
        if first not in expanded:
            expanded[first] = list(expand(p, len(sigma), self.rows[first]))
        rows = [self.rows[v] for v in rest]
        if expands_nonzero(expanded[first], len(sigma) + 1, rows):
            return True
        return self._unfolded(sigma | tau)

    def _unfolded(self, vertices) -> bool:
        """Whether vertices with dependent projected rows are independent:
        never when Pi folds no coordinate, else by the exact rank."""
        return self.folded and self.independent(vertices)

    def _disjoint_moved(self, ps) -> set:
        """The vertices of the failing vertex-disjoint pairs, from ps, the
        tops' Plücker vectors: the zero slots of one packed walk over the
        tops of k vertices, each ranked exactly when Pi folds, and the exact
        rank of each pair holding a smaller top.  Each vector is dropped
        from ps after its row.  Hits of vertex-sharing pairs, whose
        determinants repeat a row, are dropped: the sharing pass decided
        them."""
        tops, k = self.tops, self.k
        full = [i for i, t in enumerate(tops) if len(t) == k]
        packed = PackedPairings(
            [laplace_dual(ps[i], k) for i in full], max(sum(map(abs, ps[i])) for i in full)
        )
        moved = set()
        for a, i in enumerate(full):
            p, ps[i] = ps[i], None
            sigma = tops[i]
            for b in packed.zeros(p, a + 1):
                tau = tops[full[b]]
                if not sigma.isdisjoint(tau):
                    continue
                if self._unfolded(sigma | tau):
                    self.zero_pairs.setdefault(i, set()).add(full[b])
                    self.zero_pairs.setdefault(full[b], set()).add(i)
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
