"""Exact rational scalars and the linear-algebra predicates under every geometric decision.

All geometry downstream reduces to three questions over the rationals:
a determinant, a rank, or the solution set of an affine system.  This module
answers them exactly.  No floating point is used anywhere here; callers that
need a non-squared length get a certified rational upper bound on the square
root instead (sqrt_upper / sqrt_bracket).

Elimination is fraction-free (Bareiss): rows are scaled to integers once, and
every interior division in the elimination is exact integer division, which
bounds coefficient swell to minor-sized determinants.

Many square determinants of one shape are decided at once as pairings of
Plücker vectors (plucker, built one row at a time by expand, and
laplace_dual), packed into big integers by Kronecker substitution
(PackedPairings), whose slots also give the pairings' signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul

SQRT_SLACK = Fraction(1, 2**20)


def rat(value) -> Fraction:
    """Coerce ints, Fractions, and strings ("p/q", "p", "0.25") to an exact Fraction.

    Floats are rejected: every coordinate entering the toolkit must be exact.
    Booleans are rejected too, not read as the integers they subclass.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational literal: {value!r}") from exc
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: Fraction) -> str:
    """Serialize as "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def vec(coords) -> tuple:
    return tuple(rat(c) for c in coords)


def vec_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(s, a) -> tuple:
    return tuple(s * x for x in a)


def vec_dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def norm_sq(a) -> Fraction:
    return vec_dot(a, a)


def dist_sq(a, b) -> Fraction:
    return norm_sq(vec_sub(a, b))


def integer_points(points):
    """(scale, rows): every point times scale, the lcm of all coordinate
    denominators over the list, as a list of tuples of Python ints.

    One common scale keeps affine relations and ratios of squared distances,
    so exact predicates can run on the rows instead of the Fractions.
    """
    scale = lcm(*{x.denominator for p in points for x in p})
    return scale, [
        tuple(x.numerator * (scale // x.denominator) for x in p) for p in points
    ]


def widen_frame(scale, point):
    """(wide, ints): wide is the lcm of scale and the point's coordinate
    denominators, and ints the point times wide, as a list of Python ints.
    Integer points on scale join the frame when multiplied by wide // scale.
    """
    wide = lcm(scale, *(x.denominator for x in point))
    return wide, [x.numerator * (wide // x.denominator) for x in point]


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple  # row-major Fractions, length rows * cols

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows * cols")

    @classmethod
    def from_rows(cls, row_iterable) -> "Matrix":
        rows = [tuple(rat(x) for x in row) for row in row_iterable]
        if not rows:
            return cls(0, 0, ())
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]


def _integerize_rows(rows):
    """Scale each row by the lcm of its denominators; return (int rows, multipliers)."""
    out, mults = [], []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([int(x * m) for x in row])
        mults.append(m)
    return out, mults


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return q


def _echelon_int(rows, pivot_col_limit=None):
    """Fraction-free (Bareiss) forward elimination in place.

    Pivots are searched left to right up to pivot_col_limit columns; the update
    runs from the pivot column to the end of the row, so augmented columns
    ride along (the columns left of the pivot are already zero below it).
    Returns the list of pivot columns; rows is modified to echelon form whose
    entries are (up to sign bookkeeping) minors of the input.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    limit = ncols if pivot_col_limit is None else pivot_col_limit
    pivots = []
    r = 0
    prev = 1
    for c in range(limit):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rr = rows[r]
        piv = rr[c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[c]
            for j in range(c, ncols):
                q, rem = divmod(piv * ri[j] - f * rr[j], prev)
                if rem:
                    raise ArithmeticError(
                        "non-exact division in fraction-free elimination"
                    )
                ri[j] = q
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


class Echelon:
    """A vertex set s eliminated once about an origin: the rows
    points[v] - origin for v in s, put in echelon form by one Bareiss
    elimination (_echelon_int), with their pivot columns and non-pivot
    (free) columns.

    reduce(v) replays the same Bareiss steps on v's row and keeps the result.
    The rows of s and of an extra vertex set t together have full rank iff
    s's rows do and t's reduced rows do: rank [S; T] = rank S + rank(T
    reduced against S).  So with the points and origin on one integer frame,
    s u t u {origin} is affinely independent iff both small ranks are full.
    """

    def __init__(self, points, origin, s):
        self.points = points  # vertex -> tuple of ints
        self.origin = origin
        self.rows = rows = [[a - b for a, b in zip(points[v], origin)] for v in s]
        self.pivots = pivots = _echelon_int(rows)
        self.independent = len(pivots) == len(rows)
        self.free = free = [j for j in range(len(origin)) if j not in pivots]
        # per Bareiss step: its echelon row, its pivot column, and the columns
        # it updates, the free ones and the later pivots
        self._steps = [
            (rows[k], c, free + pivots[k + 1:]) for k, c in enumerate(pivots)
        ]
        self._reduced = {}

    def reduce(self, v):
        """v's row reduced against the echelon, in the free columns: the
        last pivot times the row's remainder modulo s's rows, zero iff the
        row lies in their span.

        By Sylvester's identity each replayed entry is a minor of s's rows
        plus v's, so every division is exact.  Pivot columns would come out
        zero and are neither updated after their own step nor returned.  The
        list is kept for later calls, so callers must not change it.
        """
        row = self._reduced.get(v)
        if row is None:
            row = [a - b for a, b in zip(self.points[v], self.origin)]
            prev = 1
            for e, c, columns in self._steps:
                piv = e[c]
                f = row[c]
                for j in columns:
                    q, rem = divmod(piv * row[j] - f * e[j], prev)
                    if rem:
                        raise ArithmeticError(
                            "non-exact division in fraction-free elimination"
                        )
                    row[j] = q
                prev = piv
            row = self._reduced[v] = [row[j] for j in self.free]
        return row

    def full_rank(self, *extras) -> list:
        """[s's rows have full rank] followed by, for each extra vertex set
        t, whether s's rows with t's do.  Every verdict is False when s's
        are not, with no reduction.

        t's k reduced rows have f = len(free) entries each.  One row has
        full rank iff it is nonzero, and two rows in two columns iff their
        2x2 determinant is nonzero.  Each reduced row is the row's remainder
        times the last pivot, which is nonzero and so changes no rank; the
        tests are exact integer arithmetic, and read the kept rows without
        changing them.  Any other shape, k > f included, runs _echelon_int
        on copies.
        """
        if not self.independent:
            return [False] * (1 + len(extras))
        reduce = self.reduce
        f = len(self.free)
        verdicts = [True]
        for t in extras:
            k = len(t)
            if k == 1:
                verdicts.append(any(reduce(next(iter(t)))))
            elif k == f == 2:
                (a0, a1), (b0, b1) = map(reduce, t)
                verdicts.append(a0 * b1 != a1 * b0)
            else:
                # copies: _echelon_int works in place
                rows = [list(reduce(v)) for v in t]
                verdicts.append(len(_echelon_int(rows)) == k)
        return verdicts


@cache
def _expansions(n, r):
    """Per r-subset s of range(n), in combinations order, the terms of the
    Laplace expansion of the minor on columns s along its last row: (column
    s[t], the index of s without s[t] among the (r-1)-subsets, whether the
    term is negated)."""
    index = {s: i for i, s in enumerate(combinations(range(n), r - 1))}
    return [
        [(s[t], index[s[:t] + s[t + 1:]], (r - 1 + t) % 2) for t in range(r)]
        for s in combinations(range(n), r)
    ]


def expand(minors, r, row):
    """The maximal minors of r rows with one more row below them, yielded
    one at a time in combinations order, from the r rows' maximal minors
    (over len(row) columns, in combinations order) by Laplace expansion
    along the new row."""
    for terms in _expansions(len(row), r + 1):
        acc = 0
        for c, q, odd in terms:
            if odd:
                acc -= row[c] * minors[q]
            else:
                acc += row[c] * minors[q]
        yield acc


def plucker(rows) -> list:
    """The maximal minors of an integer matrix of k rows and n >= k columns,
    one per k-subset of the columns in combinations order: the rows'
    Plücker coordinates, all zero iff the rows are dependent.

    The minors of the first r rows come from those of the first r - 1 by
    one expand along row r, so no minor is expanded twice.
    """
    minors = [1]
    for r, row in enumerate(rows):
        minors = list(expand(minors, r, row))
    return minors


@cache
def _complements(r, n):
    """Per r-subset s of range(n), in combinations order: the index of its
    complement among the (n - r)-subsets and the sign of its term in the
    generalized Laplace expansion along the first r rows,
    (-1)^(r(r+3)/2 + sum(s))."""
    index = {s: i for i, s in enumerate(combinations(range(n), n - r))}
    return [
        (index[tuple(c for c in range(n) if c not in s)], (r * (r + 3) // 2 + sum(s)) % 2)
        for s in combinations(range(n), r)
    ]


def laplace_dual(p, r, n=None) -> list:
    """q with det [A; B] = sum(a_s * q_s) for integer matrices A of r rows
    and B of n - r rows over n columns (n = 2r unless given), a = plucker(A)
    and q = laplace_dual(plucker(B), r, n): B's minors moved to the
    complementary column sets, with the Laplace signs."""
    return [-p[c] if odd else p[c] for c, odd in _complements(r, 2 * r if n is None else n)]


# a slot's top byte -> 1 when the slot lies below the bias 2^(W-1)
_NEGATIVE = bytes(int(b < 0x80) for b in range(256))


def _slot_hits(data, pattern, width) -> list:
    """The indices s of the width-byte slots data[s*width:(s+1)*width] equal
    to pattern (of width bytes), found by bytes.find; a match that starts
    inside a slot straddles two and is skipped."""
    hits = []
    pos = data.find(pattern)
    while pos >= 0:
        if pos % width == 0:
            hits.append(pos // width)
        pos = data.find(pattern, pos - pos % width + width)
    return hits


class PackedPairings:
    """The pairings sum(p_s * q_js) of one integer vector p with every vector
    q_j of a family, computed for all j at once by Kronecker substitution
    (Harvey 2009, "Faster polynomial multiplication via multipoint Kronecker
    substitution").

    The family is packed once: per coordinate s one integer, the sum over j
    of (q_js + K) * 2^(W j), where the offset K = max |q_js| makes every slot
    non-negative, so a right shift drops whole slots exactly.  With bound an
    upper bound on sum |p_s| over the vectors p to be paired, W is the least
    multiple of 8 with max(bound, 1) * K < 2^(W-2), so every pairing lies
    strictly within 2^(W-2) of zero and every packed slot, at most 2K, fits
    in W bits.  Then sum_s p_s * (packed_s >> W start)
    plus (BIAS - K sum p) times the shifted unit, BIAS = 2^(W-1), is an
    integer whose base-2^W digits are the pairings plus BIAS, one slot per
    j >= start: the sum is exact, and each digit lies in [0, 2^W).
    """

    def __init__(self, vectors, bound):
        offset = max((abs(x) for q in vectors for x in q), default=0)
        self.width = width = ((max(bound, 1) * offset).bit_length() + 9) // 8
        self.count = len(vectors)
        self.bound, self.offset = bound, offset
        self.columns = [
            int.from_bytes(
                b"".join((x + offset).to_bytes(width, "little") for x in column), "little"
            )
            for column in zip(*vectors)
        ]
        self.unit = int.from_bytes((1).to_bytes(width, "little") * self.count, "little")
        self.bias = 1 << (8 * width - 1)
        self._bias_bytes = self.bias.to_bytes(width, "little")

    def slots(self, p, start=0) -> bytes:
        """sum(p_s * q_js) + BIAS for each j from start on, as consecutive
        width-byte little-endian slots; p must have sum |p_s| <= bound."""
        if sum(map(abs, p)) > self.bound:
            raise ValueError("a pairing vector exceeds the packed bound")
        columns, unit = self.columns, self.unit
        if start:
            shift = 8 * self.width * start
            columns, unit = [c >> shift for c in columns], unit >> shift
        total = sum(map(mul, p, columns)) + (self.bias - self.offset * sum(p)) * unit
        return total.to_bytes(self.width * (self.count - start), "little")

    def signs(self, p) -> tuple:
        """(negative, zeros) for the pairings of p with every vector: bytes
        with 1 where a pairing is negative, its slot's top byte below the
        bias's 0x80, and 0 elsewhere; and the indices, ascending, of the zero
        pairings, the slots equal to BIAS."""
        data, w = self.slots(p), self.width
        return data[w - 1 :: w].translate(_NEGATIVE), _slot_hits(data, self._bias_bytes, w)

    def zeros(self, p, start=0) -> list:
        """The indices j >= start, ascending, with sum(p_s * q_js) == 0: the
        slots equal to BIAS."""
        hits = _slot_hits(self.slots(p, start), self._bias_bytes, self.width)
        return [start + s for s in hits]


def _solve_echelon_int(rows, n):
    """(d, columns) for a system of full column rank n that _echelon_int has
    put in echelon form: d > 0, and one integer column x per augmented
    column b with A x = d b.

    d is the absolute value of the last pivot, which is +-det of the leading
    n x n subsystem, so d times the solution is integral by Cramer's rule and
    every division below is exact.
    """
    d = rows[n - 1][n - 1]
    sign = 1 if d > 0 else -1
    columns = []
    for b in range(n, len(rows[0])):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            acc = d * row[b] - sum(row[j] * x[j] for j in range(i + 1, n))
            x[i] = _exact_div(acc, row[i])
        columns.append([sign * t for t in x])
    return sign * d, columns


def inverse_int(matrix):
    """(d, X) for a square integer matrix A given as rows: d = |det A| and
    X = d A^-1, both in integers, by one Bareiss solve of [A | I]; None when
    A is singular."""
    n = len(matrix)
    if n == 0:
        return 1, []
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(matrix)]
    if len(_echelon_int(rows, pivot_col_limit=n)) < n:
        return None
    d, columns = _solve_echelon_int(rows, n)
    return d, [list(r) for r in zip(*columns)]


def det(m: Matrix) -> Fraction:
    """Exact determinant by Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    rows, mults = _integerize_rows(m.row_list())
    sign = 1
    prev = 1
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        piv = rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c]
            ri = rows[i]
            rc = rows[c]
            for j in range(c, n):
                ri[j] = _exact_div(piv * ri[j] - f * rc[j], prev)
        prev = piv
    scale = 1
    for mu in mults:
        scale *= mu
    return Fraction(sign * rows[n - 1][n - 1], scale)


def rank(m: Matrix) -> int:
    """Exact rank via fraction-free elimination."""
    if m.rows == 0 or m.cols == 0:
        return 0
    rows, _ = _integerize_rows(m.row_list())
    return len(_echelon_int(rows))


@dataclass(frozen=True)
class AffineSolution:
    """Full solution set of A x = b: particular point plus kernel basis."""

    particular: tuple  # Fractions, length = cols of A
    kernel: tuple      # tuple of direction tuples, canonically scaled

    @property
    def unique(self) -> bool:
        return not self.kernel


def primitive_vector(v) -> tuple:
    """Scale to coprime integers with positive leading nonzero entry."""
    v = [Fraction(x) for x in v]
    _, ints = widen_frame(1, v)
    g = gcd(*ints)
    if g == 0:
        return tuple(v)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


def solve_affine(a: Matrix, b) -> AffineSolution | None:
    """Exact description of {x : A x = b}, or None when inconsistent."""
    b = [rat(x) for x in b]
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    n = a.cols
    if a.rows == 0:
        return AffineSolution(tuple(Fraction(0) for _ in range(n)),
                              tuple(_unit_vector(n, j) for j in range(n)))
    aug = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    rows, _ = _integerize_rows(aug)
    pivots = _echelon_int(rows, pivot_col_limit=n)
    nrank = len(pivots)
    for i in range(nrank, len(rows)):
        if rows[i][n] != 0:
            return None
    free_cols = [c for c in range(n) if c not in set(pivots)]

    def back_substitute(rhs_col_value, free_assignment):
        x = [Fraction(0)] * n
        for c, val in zip(free_cols, free_assignment):
            x[c] = val
        for i in range(nrank - 1, -1, -1):
            c = pivots[i]
            acc = Fraction(rows[i][n]) * rhs_col_value
            for j in range(c + 1, n):
                if rows[i][j]:
                    acc -= rows[i][j] * x[j]
            x[c] = acc / rows[i][c]
        return tuple(x)

    particular = back_substitute(Fraction(1), [Fraction(0)] * len(free_cols))
    kernel = []
    for idx in range(len(free_cols)):
        assignment = [Fraction(0)] * len(free_cols)
        assignment[idx] = Fraction(1)
        kernel.append(primitive_vector(back_substitute(Fraction(0), assignment)))
    return AffineSolution(particular, tuple(kernel))


def _unit_vector(n, j):
    return tuple(Fraction(1 if i == j else 0) for i in range(n))


def affinely_independent(points) -> bool:
    """True iff the differences p_i - p_0 have full rank count - 1.

    Requires count <= ambient + 1 to be possibly true; duplicated points are
    dependent by definition.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("affine independence of an empty family is undefined")
    m = len(pts[0])
    if any(len(p) != m for p in pts):
        raise ValueError("points of mixed ambient dimension")
    k = len(pts) - 1
    if k == 0:
        return True
    if k > m:
        return False
    diffs = Matrix.from_rows(vec_sub(p, pts[0]) for p in pts[1:])
    return rank(diffs) == k


def sqrt_bracket(x: Fraction, slack: Fraction = SQRT_SLACK) -> tuple:
    """Certified rational bracket lo <= sqrt(x) <= hi with hi - lo <= slack.

    Exact (lo == hi) when x is a perfect rational square; x must be >= 0.
    """
    x = rat(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        r = Fraction(rn, rd)
        return r, r
    # sqrt(x) is irrational, so it lies strictly inside one cell of the grid
    # of step 1/(den 2^k), k the least with step <= slack; the cell starts at
    # isqrt(num den 4^k) / (den 2^k), since sqrt(x) den 2^k = sqrt(num den 4^k)
    ratio = -(-slack.denominator // (den * slack.numerator))
    k = (ratio - 1).bit_length()
    g = isqrt(num * den << 2 * k)
    return Fraction(g, den << k), Fraction(g + 1, den << k)


def sqrt_upper(x: Fraction, slack: Fraction = SQRT_SLACK) -> Fraction:
    """Certified rational upper bound on sqrt(x), exact on perfect squares."""
    return sqrt_bracket(x, slack)[1]
