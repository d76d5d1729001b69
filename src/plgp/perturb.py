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

The vertex-disjoint pairs are decided by Plücker coordinates when the map
is square: every maximal simplex has k vertices and m + 1 = 2k, as for
n-simplices at m = 2n+1.  Then a pair's 2k homogeneous rows (1, image) make
a square matrix, independent iff its determinant is nonzero, and the
generalized Laplace expansion makes that determinant a pairing of the two
simplices' Plücker vectors (exact.plucker, exact.laplace_dual).  One
exact.PackedPairings decides each top's pairings with every later top in
one big-integer walk; no echelon is kept for it.  Any other shape (m > 2n+1,
or maximal simplices of mixed dimension) ranks its vertex-disjoint pairs on
the echelons, as the sharing pairs are ranked.

A resample round moves exactly the vertices of the failing unions, which
every certificate, round 0's included, collects as moved.  The tops are
ranked first: if one fails, every vertex moves, since its pair with each
other top fails, and no pair is ranked.  Then the vertex-sharing pairs, off
complexes.later_sharing.  When their failing unions hold every vertex, as
on subdivided maps before perturbation, no other pair can add to the set;
otherwise the vertex-disjoint pairs are decided.  Both echelon passes, and
the probe's adjacency ranks about z (secant), read their failing unions
off one walk, failing_unions: one Echelon.full_rank per top.  Each echelon
is dropped after its row, or in the square case all of them after the
sharing pass, and each Plücker vector after its row.  No pair is decided
twice, and no verdict of a top or pair is kept: the certificate is moved
and overall, whether moved is empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .complexes import PLMap, integer_images, later_sharing
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


def failing_unions(tops, rows):
    """Per row i = (tops[i]'s Echelon, later indices j), in order: (i, None)
    when tops[i] is dependent, else (i, j) for each j whose union with
    tops[i] is dependent, read off one Echelon.full_rank per row."""
    for i, (e, later) in enumerate(rows):
        sigma = tops[i]
        alone, *verdicts = e.full_rank(*[tops[j] - sigma for j in later])
        if not alone:
            yield i, None
        else:
            for j, ok in zip(later, verdicts):
                if not ok:
                    yield i, j


def _packed_moved(tops, images) -> set:
    """The vertices of the failing vertex-disjoint pairs of tops that each
    have k vertices, with images in R^(2k-1) on one integer frame.

    Each top's homogeneous rows (1, image) give its Plücker vector p, and a
    pair's union is independent iff the square determinant of its 2k rows,
    sum(p_i * laplace_dual(p_j)), is nonzero.  One PackedPairings of the
    duals decides each top's pairs with every later top in one walk; the
    hits of vertex-sharing pairs, whose determinants repeat a row, are
    dropped, since the sharing pass decided them.
    """
    k = len(tops[0])
    ps = [plucker([(1, *images[v]) for v in t]) for t in tops]
    packed = PackedPairings(
        [laplace_dual(p, k) for p in ps], max(sum(map(abs, p)) for p in ps)
    )
    moved = set()
    for i, p in enumerate(_dropping(ps)):
        sigma = tops[i]
        for j in packed.zeros(p, i + 1):
            if sigma.isdisjoint(tops[j]):
                moved |= sigma | tops[j]
    return moved


class MaximalVerdicts:
    """The general-position certificate: exact verdicts on the maximal
    simplices and on every pair of distinct ones, kept as moved, the
    vertices of the failing unions (the set a resample round moves), and
    overall, whether it is empty."""

    def __init__(self, h: PLMap):
        self.map = h
        self.scale, self.images = integer_images(h)
        self.tops = tops = h.complex.maximal_simplices()
        echelons = [_top_echelon(self.images, sigma) for sigma in tops]
        self.moved = moved = set()
        if not all(e.independent for e in echelons):
            # a failing top's pair with each other top fails
            moved.update(h.complex.vertices)
        else:
            for i, j in failing_unions(tops, zip(echelons, later_sharing(tops))):
                moved |= tops[i] | tops[j]
            if len(moved) < len(h.complex.vertices):
                if all(2 * len(t) == h.m + 1 for t in tops):
                    echelons.clear()  # the packed walk reads no echelon
                    moved |= _packed_moved(tops, self.images)
                else:
                    disjoint = (
                        [j for j in range(i + 1, len(tops)) if tops[i].isdisjoint(tops[j])]
                        for i in range(len(tops))
                    )
                    for i, j in failing_unions(tops, zip(_dropping(echelons), disjoint)):
                        moved |= tops[i] | tops[j]
        self.overall = not moved

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
