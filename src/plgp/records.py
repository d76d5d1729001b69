"""Secant records on a probe's integer frame, from the walk to the report text.

A probe's frame (secant._ProbeFrame) holds z and the map's vertex images
multiplied by one common denominator, scale, as Python ints.  The walks
find each secant's witnesses as integer weights (vertices, d, w), w / d on
the sorted vertices of a simplex, and a record keeps them so: per witness
its weights, with d > 0 and no factor common to d and all of w, and its
image point's numerators over d * scale; and the line's key, its primitive
direction and each coordinate of its foot, the point nearest the origin,
as a reduced (numerator, denominator) pair.  Records are deduplicated on
that key and ordered by sorted_keys as flats.line_key's Fraction tuples
order the same lines.

Fractions are built only for the printed strings, one gcd per value
(record_to_obj), and for a record's line and witnesses, read-only views
that the report path never reads.  The fiber metric reads the integer
weights too (fiber._fiber_distances).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from operator import mul
from typing import NamedTuple

from .complexes import BarycentricPoint
from .exact import int_combination, rat_str, ratio_str
from .flats import AffineFlat


class FrameWitness(NamedTuple):
    """One preimage of a secant on its probe's frame: the simplex, its
    sorted vertices, the weights w / d (d > 0, every w >= 0, sum w = d, no
    factor common to d and all of w), and the image point's numerators
    over d * scale."""

    simplex: frozenset
    vertices: tuple
    d: int
    weights: tuple
    point: tuple


@dataclass(frozen=True)
class SecantRecord:
    """A secant through z in its probe frame's integers.  line and
    witnesses are its Fraction views, built only when read."""

    z: tuple       # the probe point, Fractions
    scale: int     # the probe frame's common denominator
    key: tuple     # the canonical line, (foot, direction) as _line_key gives it
    ends: tuple    # the two FrameWitness entries

    @property
    def line(self) -> AffineFlat:
        """The canonical line, flats.line_through's AffineFlat."""
        foot, direction = self.key
        return AffineFlat(
            len(foot),
            tuple(Fraction(n, d) for n, d in foot),
            (tuple(map(Fraction, direction)),),
            canonical=True,
        )

    @property
    def witnesses(self) -> tuple:
        """The two (simplex, image point, BarycentricPoint) entries."""
        return tuple(
            (
                w.simplex,
                tuple(Fraction(a, w.d * self.scale) for a in w.point),
                BarycentricPoint(w.vertices, tuple(Fraction(t, w.d) for t in w.weights)),
            )
            for w in self.ends
        )


def _frame_witness(frame, s, weights):
    """The FrameWitness for weights (vertices, d, w), w / d on s's sorted
    vertices, and scale * d * (point - z) in integers, on a probe's frame;
    refused, as a BarycentricPoint is, unless w / d is convex."""
    verts, d, w = weights
    if d < 0:
        d, w = -d, [-t for t in w]
    if d == 0 or min(w) < 0 or sum(w) != d:
        raise ValueError("secant witness weights are not barycentric")
    g = gcd(d, *w)
    d, w = d // g, tuple(t // g for t in w)
    num = int_combination(frame.points, verts, w)
    return FrameWitness(s, verts, d, w, num), [a - d * c for a, c in zip(num, frame.origin)]


def _line_key(frame, gap) -> tuple:
    """(foot, direction): the canonical line through z along gap in ints, on
    a probe's frame.  direction is gap's primitive vector with a positive
    leading entry, b, and each coordinate of the foot a reduced (numerator,
    denominator) pair of (Z (b.b) - (Z.b) b) / (scale (b.b)) for
    z = Z / scale, the value flats.line_through computes;
    flats.int_line_key gives an AffineFlat the same key."""
    g = gcd(*gap)
    if next(filter(None, gap)) < 0:
        g = -g
    b = tuple(x // g for x in gap)
    zb, bb = sum(map(mul, frame.origin, b)), sum(map(mul, b, b))
    den = frame.scale * bb
    foot = []
    for a, c in zip(frame.origin, b):
        n = a * bb - zb * c
        r = gcd(n, den)
        foot.append((n // r, den // r))
    return tuple(foot), b


def secant_record(frame, s1, mu, s2, nu) -> SecantRecord:
    """The secant record of the vertex-disjoint pair (s1, s2) with weights
    mu on s1 and nu on s2, each (vertices, d, w), on a probe's frame: the
    witnesses, and the line through z along p2 - z."""
    end1, gap1 = _frame_witness(frame, s1, mu)
    end2, gap2 = _frame_witness(frame, s2, nu)
    # p1 - z and p2 - z are nonzero and parallel: every 2 x 2 minor is 0
    assert any(gap1) and any(gap2) and all(
        a * gap2[j] == gap1[j] * b
        for i, (a, b) in enumerate(zip(gap1, gap2))
        for j in range(i)
    )
    return SecantRecord(frame.z, frame.scale, _line_key(frame, gap2), (end1, end2))


def _compare_keys(a, b) -> int:
    """Negative, zero or positive as line key a sorts before, with or after
    b in flats.line_key's order: the foot by value, then the direction."""
    for (p, q), (r, s) in zip(a[0], b[0]):
        if p * s != r * q:
            return p * s - r * q
    return (a[1] > b[1]) - (a[1] < b[1])


def sorted_keys(keys) -> list:
    """The line keys in the order of their Fraction tuples
    (flats.line_key), compared by cross-multiplication."""
    return sorted(keys, key=cmp_to_key(_compare_keys))


def line_key_to_obj(key) -> dict:
    """The line with key (foot, direction) as flats.line_to_obj prints its
    canonical form; the foot is already in lowest terms."""
    foot, direction = key
    return {
        "base": [str(n) if d == 1 else f"{n}/{d}" for n, d in foot],
        "direction": [str(x) for x in direction],
    }


def record_to_obj(rec: SecantRecord) -> dict:
    """The JSON of one secant record, printed straight from its ints."""
    witnesses = [
        {
            "simplex": list(w.vertices),
            "point": [ratio_str(a, w.d * rec.scale) for a in w.point],
            "weights": [ratio_str(t, w.d) for t in w.weights],
        }
        for w in rec.ends
    ]
    return {
        "line": line_key_to_obj(rec.key),
        "z": [rat_str(x) for x in rec.z],
        "pair": [w["simplex"] for w in witnesses],
        "witnesses": witnesses,
    }
