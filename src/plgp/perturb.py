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
maximal simplex and maximal pair is itself a face or face pair.  The
per-face verdicts are lazy: a face or face pair is ranked only when its
union lies inside a failing maximal union, and is independent otherwise.

Each maximal simplex sigma is eliminated once, in one exact.Echelons about
its first vertex: that decides sigma, and every pair of sigma with a later
passing maximal simplex tau from the vertices tau - sigma reduced against
sigma's echelon.  A pair holding a failing simplex fails without a rank.
All of it runs on Python ints: every image is scaled by one common
denominator, the lcm over the map, which leaves affine independence
unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt

from .complexes import PLMap, integer_images, sorted_vertices
from .errors import PerturbationBudgetError, PreconditionError
from .exact import (
    Echelons,
    _echelon_int,
    norm_sq,
    rat,
    rat_str,
    sqrt_bracket,
    vec_add,
)

GRID = 2 ** 32
DEFAULT_MAX_ROUNDS = 32


@dataclass(frozen=True)
class GeneralPositionCertificate:
    simplex_verdicts: object  # lazy ((simplex, ok), ...) over all faces
    pair_verdicts: object     # lazy ((s1, s2, ok), ...) over all face pairs
    overall: bool


@dataclass(frozen=True)
class PerturbationReport:
    seed: int
    rounds: int
    max_displacement: Fraction     # certified upper bound, < delta/2
    max_displacement_sq: Fraction  # exact
    certificate: GeneralPositionCertificate


class MaximalVerdicts:
    """Exact verdicts on the maximal simplices and on every pair of distinct ones."""

    def __init__(self, h: PLMap):
        self.map = h
        self.scale, self.images = integer_images(h)
        self.tops = tops = h.complex.maximal_simplices()
        # one Echelons per top sigma: its rows v - v0 about its first vertex v0
        frames = []
        for sigma in tops:
            first = next(iter(sigma))
            frames.append((Echelons(self.images, self.images[first]), sigma - {first}))
        self.bad_tops = bad = [not e.full_rank(s)[0] for e, s in frames]
        # one flag per pair in combinations(tops, 2) order, set iff the pair's
        # union is dependent; a pair holding a failing top is set with no rank
        self.bad_pairs = flags = bytearray()
        for i, sigma in enumerate(tops):
            e, s = frames[i]
            frames[i] = None  # keep no reductions past sigma's row
            if bad[i]:
                flags.extend(b"\x01" * (len(tops) - i - 1))
                continue
            later = [tau - sigma for tau, b in zip(tops[i + 1:], bad[i + 1:]) if not b]
            ok = iter(e.full_rank(s, *later)[1:])
            for b in bad[i + 1:]:
                flags.append(b or not next(ok))
        self.overall = not any(bad) and 1 not in flags

    def independent(self, vertices) -> bool:
        """Affine independence of the vertices' images, by an integer rank."""
        first, *rest = vertices
        p0 = self.images[first]
        if len(rest) > len(p0):
            return False
        rows = [[a - b for a, b in zip(self.images[v], p0)] for v in rest]
        return len(_echelon_int(rows)) == len(rows)

    def failing_unions(self):
        """The failing maximal simplices, then the failing maximal pairs' unions."""
        for t, bad in zip(self.tops, self.bad_tops):
            if bad:
                yield t
        if 1 in self.bad_pairs:
            for (t1, t2), bad in zip(combinations(self.tops, 2), self.bad_pairs):
                if bad:
                    yield t1 | t2


class LazyVerdicts:
    """Verdicts over faces or face pairs in canonical order, computed on iteration.

    Iterating ranks a union only when it lies inside a failing maximal union;
    every other union lies inside a passing one and is independent.
    """

    def __init__(self, groups, count: int, maximal: MaximalVerdicts):
        self._groups = groups  # callable: iterable of simplex tuples, in order
        self._count = count
        self.maximal = maximal

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other):
        # value semantics, as for the tuples of verdicts these stand for
        if not isinstance(other, LazyVerdicts):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __hash__(self):
        return hash(tuple(self))

    def __iter__(self):
        failing = list(self.maximal.failing_unions())
        for group in self._groups():
            union = frozenset().union(*group)
            ok = not any(union <= f for f in failing) or self.maximal.independent(union)
            yield (*group, ok)


def general_position_certificate(h: PLMap) -> GeneralPositionCertificate:
    c = h.complex
    n = c.dimension
    if n >= 0 and h.m < 2 * n + 1:
        raise PreconditionError(
            "certificate requires ambient dimension m >= 2*dim(K)+1"
        )
    maximal = MaximalVerdicts(h)
    f = len(c.simplices)
    faces = c.sorted_simplices
    return GeneralPositionCertificate(
        LazyVerdicts(lambda: ((s,) for s in faces()), f, maximal),
        LazyVerdicts(lambda: combinations(faces(), 2), f * (f - 1) // 2, maximal),
        maximal.overall,
    )


def failed_vertices(cert: GeneralPositionCertificate) -> set:
    """Vertices of every failing face and face pair: the same set as the
    vertices of every failing maximal simplex and maximal pair union."""
    return set().union(*cert.pair_verdicts.maximal.failing_unions())


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
    cert = general_position_certificate(h0)
    if cert.overall:
        zero = Fraction(0)
        return h0, PerturbationReport(seed, 0, zero, zero, cert)
    half = delta / 2
    j_max = (half.numerator * GRID - 1) // half.denominator
    if j_max < 0:
        j_max = 0
    rng = random.Random(seed)
    zero_vec = tuple(Fraction(0) for _ in range(h0.m))
    displacements = {v: zero_vec for v in h0.complex.vertices}
    for round_index in range(1, max_rounds + 1):
        for v in sorted(failed_vertices(cert), key=str):
            displacements[v] = _draw_displacement(rng, h0.m, half, j_max)
        images = {
            v: vec_add(h0.images[v], displacements[v]) for v in h0.complex.vertices
        }
        current = PLMap(h0.complex, h0.m, images)
        cert = general_position_certificate(current)
        if cert.overall:
            max_d2 = max(norm_sq(d) for d in displacements.values())
            return current, PerturbationReport(
                seed, round_index, _displacement_bound(max_d2, half), max_d2, cert
            )
    raise PerturbationBudgetError(
        "no general-position certificate within %d resample rounds" % max_rounds,
        certificate=cert,
    )


def certificate_to_obj(cert: GeneralPositionCertificate, verbose=False) -> dict:
    obj = {
        "overall": cert.overall,
        "simplices_checked": len(cert.simplex_verdicts),
        "pairs_checked": len(cert.pair_verdicts),
    }
    if verbose or not cert.overall:
        obj["simplex_verdicts"] = [
            [list(sorted_vertices(s)), ok] for s, ok in cert.simplex_verdicts
        ]
        obj["pair_verdicts"] = [
            [list(sorted_vertices(s1)), list(sorted_vertices(s2)), ok]
            for s1, s2, ok in cert.pair_verdicts
        ]
    return obj


def report_to_obj(report: PerturbationReport, verbose=False) -> dict:
    return {
        "seed": report.seed,
        "rounds": report.rounds,
        "max_displacement": rat_str(report.max_displacement),
        "max_displacement_sq": rat_str(report.max_displacement_sq),
        "certificate": certificate_to_obj(report.certificate, verbose=verbose),
    }
