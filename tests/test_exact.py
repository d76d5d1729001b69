"""Exact kernel tests: determinant, rank, affine solve, affine independence.

The determinant oracle here is a plain cofactor expansion, written
independently of the Bareiss implementation under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plgp.exact import (
    AffineSolution,
    Echelon,
    PackedPairings,
    _echelon_int,
    _slot_hits,
    Matrix,
    affinely_independent,
    det,
    expand,
    integer_points,
    inverse_int,
    laplace_dual,
    plucker,
    primitive_vector,
    rank,
    rat,
    rat_str,
    solve_affine,
    sqrt_bracket,
    sqrt_upper,
    vec,
    widen_frame,
)


def cofactor_det(rows):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = Fraction(rows[0][j]) * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def gauss_rref(rows):
    """Independent elimination oracle: Gauss-Jordan over Fractions.

    Returns (rref, pivots): the reduced row echelon form, zero rows kept at
    the bottom, and its pivot columns.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(
        st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return rows


@st.composite
def rect_matrices(draw, max_side=5):
    r = draw(st.integers(min_value=1, max_value=max_side))
    c = draw(st.integers(min_value=1, max_value=max_side))
    rows = draw(
        st.lists(st.lists(small_int, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return rows


class TestRationals:
    def test_string_forms_round_trip(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("7") == Fraction(7)
        assert rat("0.25") == Fraction(1, 4)
        assert rat("-2/6") == Fraction(-1, 3)
        assert rat_str(Fraction(-1, 3)) == "-1/3"
        assert rat_str(Fraction(8, 4)) == "2"

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            rat(0.25)

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected(self, value):
        with pytest.raises(ValueError):
            rat(value)

    def test_malformed_literal(self):
        with pytest.raises(ValueError):
            rat("1/0")
        with pytest.raises(ValueError):
            rat("one half")

    def test_integer_points_share_one_scale(self):
        scale, rows = integer_points([vec(["1/2", "-2/3"]), vec(["5", "0.25"])])
        assert scale == 12
        assert rows == [(6, -8), (60, 3)]
        assert integer_points([]) == (1, [])

    def test_widen_frame_takes_in_the_point_denominators(self):
        assert widen_frame(12, vec(["1/8", "-2/3", "5"])) == (24, [3, -16, 120])
        assert widen_frame(12, vec(["1/4", "7"])) == (12, [3, 84])


class TestDet:
    def test_identity_3x3(self):
        m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert det(m) == 1

    def test_row_swap_of_identity(self):
        assert det(Matrix.from_rows([[0, 1], [1, 0]])) == -1

    def test_two_by_two(self):
        # frozen from the cofactor oracle: 1*4 - 2*3
        rows = [[1, 2], [3, 4]]
        assert cofactor_det(rows) == -2
        assert det(Matrix.from_rows(rows)) == -2

    def test_rational_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert det(Matrix.from_rows(rows)) == cofactor_det(rows)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_matches_cofactor_oracle(self, rows):
        assert det(Matrix.from_rows(rows)) == cofactor_det(rows)


class TestInverseInt:
    def check(self, rows):
        """d = |det A| by the cofactor oracle, and A X = d I."""
        d, x = inverse_int(rows)
        n = len(rows)
        assert d == abs(cofactor_det(rows)) > 0
        product = [
            [sum(rows[i][k] * x[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == [[d * (i == j) for j in range(n)] for i in range(n)]

    def test_negative_determinant_and_row_swaps(self):
        # det -2 leaves a negative last pivot; d = 2 and X = -adj A
        assert inverse_int([[1, 2], [3, 4]]) == (2, [[-4, 2], [3, -1]])
        # det -1 and -10 with zero leading entries: the elimination swaps rows
        assert inverse_int([[0, 1], [1, 0]]) == (1, [[0, 1], [1, 0]])
        self.check([[0, 0, 1], [0, 2, 0], [5, 0, 0]])

    def test_empty_and_singular(self):
        assert inverse_int([]) == (1, [])
        assert inverse_int([[1, 2], [2, 4]]) is None
        assert inverse_int([[0, 0], [0, 0]]) is None

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_matches_cofactor_oracle(self, rows):
        if cofactor_det(rows) == 0:
            assert inverse_int(rows) is None
        else:
            self.check(rows)


class TestRank:
    def test_zero_matrix(self):
        assert rank(Matrix.from_rows([[0, 0, 0], [0, 0, 0]])) == 0

    def test_identity_4x4(self):
        m = Matrix.from_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert rank(m) == 4

    def test_dependent_rows(self):
        # second row = 2 * first, hand elimination leaves two pivots
        m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert rank(m) == 2

    @settings(max_examples=300, deadline=None)
    @given(rect_matrices())
    def test_rank_equals_rank_of_transpose(self, rows):
        m = Matrix.from_rows(rows)
        assert rank(m) == rank(Matrix.from_rows(zip(*rows)))

    @settings(max_examples=200, deadline=None)
    @given(square_matrices(max_n=4))
    def test_full_rank_iff_nonzero_det(self, rows):
        m = Matrix.from_rows(rows)
        assert (rank(m) == m.rows) == (det(m) != 0)


class TestSolveAffine:
    def test_identity_system(self):
        sol = solve_affine(Matrix.from_rows([[1, 0], [0, 1]]), [3, 5])
        assert sol == AffineSolution((Fraction(3), Fraction(5)), ())
        assert sol.unique

    def test_one_equation_kernel(self):
        sol = solve_affine(Matrix.from_rows([[1, 1]]), [0])
        assert sol.particular == (Fraction(0), Fraction(0))
        assert sol.kernel == ((Fraction(1), Fraction(-1)),)

    def test_contradictory_rows(self):
        assert solve_affine(Matrix.from_rows([[1, 0], [1, 0]]), [0, 1]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_affine(Matrix.from_rows([[1, 0]]), [1, 2])

    @settings(max_examples=300, deadline=None)
    @given(rect_matrices(), st.data())
    def test_resubstitution_is_exact(self, rows, data):
        m = Matrix.from_rows(rows)
        b = data.draw(
            st.lists(small_int, min_size=m.rows, max_size=m.rows), label="rhs"
        )
        sol = solve_affine(m, b)
        if sol is None:
            # inconsistent: confirmed by a rank jump of the augmented matrix
            aug = Matrix.from_rows(
                [list(m.row(i)) + [b[i]] for i in range(m.rows)]
            )
            assert rank(aug) == rank(m) + 1
            return
        coeffs = data.draw(
            st.lists(small_int, min_size=len(sol.kernel), max_size=len(sol.kernel)),
            label="kernel combination",
        )
        x = list(sol.particular)
        for c, k in zip(coeffs, sol.kernel):
            x = [xi + c * ki for xi, ki in zip(x, k)]
        for i in range(m.rows):
            lhs = sum((m.entry(i, j) * x[j] for j in range(m.cols)), Fraction(0))
            assert lhs == b[i]


class TestAffinelyIndependent:
    def test_standard_simplex(self):
        assert affinely_independent([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_collinear(self):
        assert not affinely_independent([(0, 0), (1, 1), (2, 2)])

    def test_rank_two_differences(self):
        assert not affinely_independent(
            [(0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)]
        )

    def test_too_many_points(self):
        assert not affinely_independent([(0,), (1,), (2,)])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4
        ),
        st.permutations(range(4)),
        st.lists(small_int, min_size=3, max_size=3),
    )
    def test_permutation_and_translation_invariant(self, pts, perm, shift):
        base = affinely_independent(pts)
        order = [p for p in perm if p < len(pts)]
        shuffled = [pts[i] for i in order]
        assert affinely_independent(shuffled) == base
        translated = [[c + s for c, s in zip(p, shift)] for p in pts]
        assert affinely_independent(translated) == base


class TestSqrtBounds:
    def test_perfect_squares_exact(self):
        assert sqrt_bracket(Fraction(9, 4)) == (Fraction(3, 2), Fraction(3, 2))
        assert sqrt_upper(Fraction(0)) == 0

    def test_bracket_contains_root(self):
        lo, hi = sqrt_bracket(Fraction(2))
        assert lo * lo <= 2 <= hi * hi
        assert hi - lo <= Fraction(1, 2**20)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_bracket(Fraction(-1))

    def test_bracket_matches_bisection(self):
        # the width-1/den isqrt bracket bisected down to the slack: the cell
        # the direct isqrt must land on
        def bisection(x, slack):
            num, den = x.numerator, x.denominator
            if isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
                r = Fraction(isqrt(num), isqrt(den))
                return r, r
            s = isqrt(num * den)
            lo, hi = Fraction(s, den), Fraction(s + 1, den)
            while hi - lo > slack:
                mid = (lo + hi) / 2
                if mid * mid <= x:
                    lo = mid
                else:
                    hi = mid
            return lo, hi

        rng = random.Random(5)
        slacks = (Fraction(1, 2**20), Fraction(1), Fraction(1, 3), Fraction(3, 2**40))
        for slack in slacks:
            for _ in range(500):
                x = Fraction(rng.randrange(1, 10 ** rng.randrange(1, 15)),
                             rng.randrange(1, 10 ** rng.randrange(1, 9)))
                assert sqrt_bracket(x, slack) == bisection(x, slack)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=1000))
    def test_bracket_sound(self, x):
        lo, hi = sqrt_bracket(x)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 2**20)


class TestPrimitiveVector:
    def test_scaling_and_sign(self):
        assert primitive_vector((Fraction(-1, 2), Fraction(1, 2))) == (
            Fraction(1),
            Fraction(-1),
        )
        assert primitive_vector((0, 0)) == (0, 0)

    def test_vec_coercion(self):
        assert vec(["1/2", 1, "0.5"]) == (Fraction(1, 2), Fraction(1), Fraction(1, 2))


def seeded_int_matrices(seed, count, max_side=5):
    """Random integer matrices, some with zero columns and repeated rows."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r, c = rng.randrange(1, max_side + 1), rng.randrange(1, max_side + 1)
        rows = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        if c > 2 and rng.random() < 0.3:
            zero = rng.randrange(1, c - 1)
            for row in rows:
                row[zero] = 0
        if r > 1 and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]
        out.append(rows)
    return out


# column 1 is zero throughout, between the pivot columns 0 and 2
ZERO_COLUMN_BETWEEN_PIVOTS = [[2, 0, 1, 3], [4, 0, 5, 1], [6, 0, 6, 5]]


class TestEchelonAgainstGauss:
    def check_rank_and_solve(self, rows, rhs):
        rref, pivots = gauss_rref(rows)
        echelon = [list(r) for r in rows]
        assert _echelon_int(echelon) == pivots
        m = Matrix.from_rows(rows)
        assert rank(m) == len(pivots)
        sol = solve_affine(m, rhs)
        aug_rref, aug_pivots = gauss_rref([r + [b] for r, b in zip(rows, rhs)])
        n = len(rows[0])
        if n in aug_pivots:
            assert sol is None
            return
        free = [c for c in range(n) if c not in pivots]
        particular = [Fraction(0)] * n
        for row, c in zip(aug_rref, pivots):
            particular[c] = row[n]
        assert sol.particular == tuple(particular)
        kernel = []
        for f in free:
            x = [Fraction(0)] * n
            x[f] = Fraction(1)
            for row, c in zip(rref, pivots):
                x[c] = -row[f]
            kernel.append(primitive_vector(x))
        assert sol.kernel == tuple(kernel)

    def check_inverse(self, rows):
        _, pivots = gauss_rref(rows)
        n = len(rows)
        if len(pivots) < n:
            assert inverse_int(rows) is None
            return
        d, x = inverse_int(rows)
        inv, _ = gauss_rref(
            [r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
        )
        assert d == abs(cofactor_det(rows))
        assert x == [[d * v for v in row[n:]] for row in inv]

    def test_zero_column_between_pivots(self):
        rows = ZERO_COLUMN_BETWEEN_PIVOTS
        assert gauss_rref(rows)[1] == [0, 2, 3]
        self.check_rank_and_solve(rows, [1, 2, 3])
        self.check_rank_and_solve([r[:3] for r in rows], [1, 2, 3])
        self.check_rank_and_solve([r[:3] for r in rows], [1, 2, 4])
        self.check_inverse([r[:3] for r in rows])
        # the last two rows become zero in column 1 only after the first step
        self.check_rank_and_solve([[1, 2, 0, 1], [2, 4, 1, 0], [3, 6, 1, 5]], [1, 0, 2])

    def test_seeded_random_matrices(self):
        rng = random.Random(61)
        for rows in seeded_int_matrices(60, 200):
            self.check_rank_and_solve(rows, [rng.randrange(-9, 10) for _ in rows])
            if len(rows) <= len(rows[0]):
                self.check_inverse([r[: len(rows)] for r in rows])


class TestReduceInt:
    def check(self, rows, extra):
        """Echelon.reduce: each reduced row is the last pivot times the row's
        remainder modulo the echelon rows, on the free columns, and the ranks
        add."""
        points = {("s", i): row for i, row in enumerate(rows)}
        points.update({("x", i): row for i, row in enumerate(extra)})
        e = Echelon(points, [0] * len(rows[0]), [("s", i) for i in range(len(rows))])
        pivots = e.pivots
        d = e.rows[len(pivots) - 1][pivots[-1]] if pivots else 1
        rref, gauss_pivots = gauss_rref(rows)
        assert pivots == gauss_pivots
        free = [c for c in range(len(rows[0])) if c not in pivots]
        assert e.free == free
        assert e.independent == (len(pivots) == len(rows))
        reduced = [e.reduce(("x", i)) for i in range(len(extra))]
        # kept: a second call returns the same list
        assert all(e.reduce(("x", i)) is r for i, r in enumerate(reduced))
        for row, got in zip(extra, reduced):
            rest = [Fraction(x) for x in row]
            for r, c in zip(rref, pivots):
                f = rest[c]
                rest = [x - f * y for x, y in zip(rest, r)]
            assert got == [d * rest[c] for c in free]
        rank_all = len(gauss_rref(rows + extra)[1])
        assert len(pivots) + len(gauss_rref(reduced)[1]) == rank_all
        return reduced

    def test_zero_column_between_pivots(self):
        rows = ZERO_COLUMN_BETWEEN_PIVOTS[:2]
        assert self.check(rows, [[1, 7, 2, 0], [0, 0, 1, 1], [2, 0, 1, 3]])[2] == [0, 0]

    def test_no_pivots(self):
        assert self.check([[0, 0, 0]], [[1, -2, 3]]) == [[1, -2, 3]]

    def test_seeded_random_rows(self):
        for rows in seeded_int_matrices(62, 200):
            if len(rows) > 1:
                self.check(rows[: len(rows) // 2], rows[len(rows) // 2 :])


class TestEchelons:
    """Echelon.full_rank against the Fraction rank of the stacked rows."""

    @staticmethod
    def stacked_full_rank(points, origin, vertices):
        rows = [[a - b for a, b in zip(points[v], origin)] for v in vertices]
        return rank(Matrix.from_rows(rows)) == len(rows)

    def check(self, points, origin, s, extras):
        s = frozenset(s)
        extras = [frozenset(t) for t in extras]
        want = [self.stacked_full_rank(points, origin, s)] + [
            self.stacked_full_rank(points, origin, [*s, *t]) for t in extras
        ]
        e = Echelon(points, origin, s)
        assert e.independent == want[0]
        assert e.full_rank(*extras) == want
        # the kept reductions give the same verdicts again
        assert e.full_rank(*extras) == want
        assert e.full_rank() == want[:1]
        return want

    def test_repeated_point(self):
        points = {"a": (1, 0, 0, 0), "b": (0, 1, 0, 0), "c": (0, 0, 1, 0),
                  "d": (0, 0, 1, 0)}
        want = self.check(points, (0, 0, 0, 0), "a", ["cd", "c", "d", "bd"])
        assert want == [True, False, True, True, True]

    def test_flat_set(self):
        # a, b and the origin are collinear: no union with them has full rank
        points = {"a": (1, 1, 0), "b": (2, 2, 0), "c": (0, 0, 1)}
        assert self.check(points, (0, 0, 0), "ab", ["c", ""]) == [False] * 3
        assert self.check(points, (0, 0, 0), "c", ["a", "ab"]) == [True, True, False]

    def test_more_extra_vertices_than_free_columns(self):
        # s fills two of three columns: one free column, two extra vertices
        points = {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1), "d": (1, 1, 1)}
        want = self.check(points, (0, 0, 0), "ab", ["cd", "c", "d"])
        assert want == [True, False, True, True]

    def test_no_extras(self):
        points = {"a": (3, 1), "b": (1, 2)}
        assert self.check(points, (1, 1), "ab", []) == [True]
        assert self.check(points, (1, 1), "", []) == [True]

    def test_seeded_points(self):
        rng = random.Random(63)
        verdicts = set()
        for _ in range(150):
            m = rng.randrange(2, 6)
            ids = range(rng.randrange(2, m + 5))
            points = {v: tuple(rng.randrange(-1, 2) for _ in range(m)) for v in ids}
            if rng.random() < 0.3:
                points[1] = points[0]
            origin = tuple(rng.randrange(-1, 2) for _ in range(m))
            s = rng.sample(ids, rng.randrange(0, min(m, len(ids)) + 1))
            extras = [
                rng.sample(ids, rng.randrange(0, min(m + 2, len(ids)) + 1))
                for _ in range(rng.randrange(0, 6))
            ]
            # every single vertex too, after the larger sets
            extras += [[v] for v in ids]
            want = self.check(points, origin, s, extras)
            verdicts.add((want[0], all(want)))
        assert verdicts == {(False, False), (True, False), (True, True)}


class TestFullRankShapes:
    """Echelon.full_rank on every shape of extra set t, k = |t| reduced rows
    in f free columns with k in 0..4 and f in 1..4, against the Fraction
    rank of the stacked rows.  The closed forms (k = 1 and k = f = 2) read
    the kept reduced rows in place, and the elimination works on copies, so
    the test also holds every kept row to its list object and its contents."""

    BIG = 2**70

    @staticmethod
    def stacked_rank(rows):
        return rank(Matrix.from_rows(rows)) if rows else 0

    @staticmethod
    def combination(rng, rows, m):
        """A seeded integer combination of rows (zero when there are none)."""
        out = [0] * m
        for row in rows:
            c = rng.randrange(-3, 4)
            out = [x + c * y for x, y in zip(out, row)]
        return out

    def extra_rows(self, rng, k, s_rows, m):
        """k seeded rows: random (small, or above 2^64), zero, repeated, in
        the span of s's rows, or a combination of two earlier rows plus one
        of s's; with k = 3, now and then a rank-2 block outright."""
        if k == 3 and rng.random() < 0.3:
            x, y = ([rng.randrange(-9, 10) for _ in range(m)] for _ in range(2))
            p, q = rng.choice([(1, 1), (2, -3), (-1, 5)])
            tail = [p * a + q * b for a, b in zip(x, y)]
            tail = [a + b for a, b in zip(tail, self.combination(rng, s_rows, m))]
            return rng.sample([x, y, tail], 3)
        rows = []
        for _ in range(k):
            kind = rng.choice(("small", "big", "zero", "repeat", "span", "mix"))
            if kind == "zero":
                row = [0] * m
            elif kind == "repeat" and rows:
                row = list(rng.choice(rows))
            elif kind == "span" and s_rows:
                row = self.combination(rng, s_rows, m)
            elif kind == "mix" and len(rows) >= 2:
                row = self.combination(rng, rng.sample(rows, 2) + s_rows[:1], m)
            else:
                bound = self.BIG if kind == "big" else 9
                row = [rng.randrange(-bound, bound + 1) for _ in range(m)]
            rows.append(row)
        return rows

    def test_every_shape_against_the_fraction_rank(self):
        rng = random.Random(64)
        seen = {}
        for k in range(5):
            for f in range(1, 5):
                for _ in range(40):
                    size = rng.randrange(0, 3)
                    m = f + size
                    origin = [rng.randrange(-9, 10) for _ in range(m)]
                    while True:
                        bound = self.BIG if rng.random() < 0.2 else 9
                        s_rows = [[rng.randrange(-bound, bound + 1) for _ in range(m)]
                                  for _ in range(size)]
                        if self.stacked_rank(s_rows) == size:
                            break
                    points = {("s", i): r for i, r in enumerate(s_rows)}
                    extras, want = [], [True]
                    for j in range(3):
                        t_rows = self.extra_rows(rng, k, s_rows, m)
                        points.update({("t", j, i): r for i, r in enumerate(t_rows)})
                        extras.append(frozenset(("t", j, i) for i in range(k)))
                        want.append(self.stacked_rank(s_rows + t_rows) == size + k)
                    points = {v: tuple(a + b for a, b in zip(r, origin))
                              for v, r in points.items()}
                    e = Echelon(points, tuple(origin), [("s", i) for i in range(size)])
                    assert e.independent and len(e.free) == f
                    kept = {v: e.reduce(v) for t in extras for v in t}
                    contents = {v: list(row) for v, row in kept.items()}
                    assert e.full_rank(*extras) == want, (k, f, s_rows, extras)
                    assert e._reduced.keys() == kept.keys()
                    for v, row in kept.items():
                        assert e._reduced[v] is row and row == contents[v]
                    seen.setdefault((k, f), set()).update(want[1:])
        for (k, f), verdicts in seen.items():
            if k == 0:
                assert verdicts == {True}
            elif k > f:
                assert verdicts == {False}
            else:
                assert verdicts == {True, False}, (k, f)


class TestPlucker:
    """plucker's maximal minors against the cofactor oracle, and the
    generalized Laplace expansion against the Fraction det."""

    def test_minors_against_the_cofactor_oracle(self):
        rng = random.Random(65)
        for _ in range(100):
            k = rng.randrange(0, 4)
            n = rng.randrange(max(k, 1), k + 4)
            bound = 2 ** 70 if rng.random() < 0.2 else 3
            rows = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(k)]
            if k > 1 and rng.random() < 0.3:
                rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
            want = [
                cofactor_det([[r[c] for c in s] for r in rows])
                for s in combinations(range(n), k)
            ]
            assert plucker(rows) == want

    def test_laplace_sum_equals_the_fraction_det(self):
        # homogeneous rows (1, x), as the certificate builds them, on 200
        # seeded square pairs; a repeated row or point makes some singular
        rng = random.Random(66)
        singular = 0
        for _ in range(200):
            k = rng.randrange(1, 5)
            bound = 2 ** 64 if rng.random() < 0.3 else 2
            a, b = (
                [[1] + [rng.randrange(-bound, bound + 1) for _ in range(2 * k - 1)]
                 for _ in range(k)]
                for _ in range(2)
            )
            if rng.random() < 0.2:
                b[0] = list(rng.choice(a))
            got = sum(map(mul, plucker(a), laplace_dual(plucker(b), k)))
            want = det(Matrix.from_rows(a + b))
            assert got == want
            singular += want == 0
        assert 0 < singular < 200

    def test_dual_of_any_split_equals_the_fraction_det(self):
        # A of r rows over B of n - r rows, every 0 <= r <= n <= 6, as the
        # probe pairs k + 1 rows with a facet's k - 1
        rng = random.Random(69)
        singular = 0
        for n in range(7):
            for r in range(n + 1):
                for _ in range(12):
                    bound = 2 ** 40 if rng.random() < 0.3 else 3
                    rows = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(n)]
                    if n > 1 and rng.random() < 0.2:
                        i, j = rng.sample(range(n), 2)
                        rows[i] = [2 * x for x in rows[j]]
                    a, b = rows[:r], rows[r:]
                    got = sum(map(mul, plucker(a), laplace_dual(plucker(b), r, n)))
                    want = det(Matrix.from_rows(rows))
                    assert got == want, (n, r)
                    singular += want == 0
        assert 0 < singular

    def test_chained_expand_equals_plucker(self):
        # expand adds one row to any prefix's minors, as the probe expands a
        # top's Plücker vector by the row of z
        rng = random.Random(70)
        for _ in range(60):
            k = rng.randrange(0, 5)
            n = rng.randrange(max(k, 1), k + 4)
            rows = [[rng.randrange(-2 ** 40, 2 ** 40) for _ in range(n)] for _ in range(k)]
            minors = [1]
            for r, row in enumerate(rows):
                assert minors == plucker(rows[:r])
                minors = list(expand(minors, r, row))
            assert minors == plucker(rows) == [
                cofactor_det([[row[c] for c in s] for row in rows])
                for s in combinations(range(n), k)
            ]


def decoded(packed, p, start=0):
    """The slots of packed.slots(p, start), each read back minus the bias."""
    data, w = packed.slots(p, start), packed.width
    assert len(data) == w * (packed.count - start)
    return [
        int.from_bytes(data[s : s + w], "little") - packed.bias
        for s in range(0, len(data), w)
    ]


def pairings(p, vectors):
    return [sum(map(mul, p, q)) for q in vectors]


class TestPackedPairings:
    """Every slot of the packed walk is its pairing plus the bias, and zeros
    finds exactly the zero pairings, whatever lies in the slots around."""

    def check(self, vectors, ps):
        bound = max(sum(map(abs, p)) for p in ps)
        packed = PackedPairings(vectors, bound)
        offset = max(abs(x) for q in vectors for x in q)
        # W is the least multiple of 8 with bound * offset < 2^(W - 2)
        w = packed.width
        assert max(bound, 1) * offset < 2 ** (8 * w - 2) <= 2 ** 8 * max(bound, 1) * offset
        for p in ps:
            for start in range(len(vectors) + 1):
                want = pairings(p, vectors[start:])
                assert decoded(packed, p, start) == want
                assert packed.zeros(p, start) == [
                    start + j for j, x in enumerate(want) if x == 0
                ]
            want = pairings(p, vectors)
            assert packed.signs(p) == (
                bytes(x < 0 for x in want), [j for j, x in enumerate(want) if x == 0]
            )
        return packed

    def test_seeded_families(self):
        rng = random.Random(67)
        for _ in range(40):
            size = rng.randrange(1, 7)
            big = 2 ** rng.randrange(1, 90)
            vectors = [
                [rng.randrange(-big, big + 1) for _ in range(size)]
                for _ in range(rng.randrange(1, 12))
            ]
            ps = [[rng.randrange(-big, big + 1) for _ in range(size)] for _ in range(3)]
            # a zero pairing: q orthogonal to the first p
            p = ps[0]
            if size > 1:
                vectors[rng.randrange(len(vectors))] = [p[1], -p[0]] + [0] * (size - 2)
            self.check(vectors, ps)

    def test_dependent_pair_between_unit_pairings(self):
        p = [3, -2, 5]
        vectors = [[1, 1, 0], [0, 2, 1], [2, 3, 0], [-1, -1, 0], [0, -2, -1]]
        assert pairings(p, vectors) == [1, 1, 0, -1, -1]
        assert self.check(vectors, [p]).zeros(p) == [2]

    def test_dependent_pair_between_pairings_at_the_bound(self):
        # q = +-K sign(p) attains |p . q| = sum |p| * K, the bound itself
        p = [7, -(2 ** 40), 2 ** 33 + 1]
        big = 2 ** 50 - 3
        sign = [1, -1, 1]
        top = [big * s for s in sign]
        vectors = [top, [-x for x in top], [2 ** 40, 7, 0], [-x for x in top], top]
        bound = sum(map(abs, p))
        assert pairings(p, vectors) == [bound * big, -bound * big, 0, -bound * big, bound * big]
        assert self.check(vectors, [p]).zeros(p) == [2]

    @pytest.mark.parametrize("bits", range(56, 73))
    def test_extreme_coordinates_fill_the_slot(self, bits):
        # bound * K = 2^bits - 1, with K = 2^bits - 1 and p a unit vector,
        # or split as (2^h - 1)(2^h + 1) when bits = 2h: every slot reaches
        # +-(2^bits - 1), on whichever side of a byte boundary bits + 2 lies
        cases = [([1, 0], 2 ** bits - 1)]
        if bits % 2 == 0:
            half = bits // 2
            cases.append(([2 ** (half - 1), -(2 ** (half - 1) + 1)], 2 ** half - 1))
        for p, big in cases:
            extreme = sum(map(abs, p)) * big
            assert extreme == 2 ** bits - 1
            vectors = [[big * (1 if x > 0 else -1) if x else big for x in p]]
            vectors += [[-x for x in vectors[0]], [p[1], -p[0]], vectors[0]]
            assert pairings(p, vectors) == [extreme, -extreme, 0, extreme]
            packed = self.check(vectors, [p])
            assert packed.width == -(-(bits + 2) // 8)

    def test_a_vector_beyond_the_bound_is_refused(self):
        packed = PackedPairings([[1, 2], [3, 4]], 5)
        assert packed.zeros([-4, 1]) == []
        with pytest.raises(ValueError):
            packed.zeros([-4, 2])

    def test_empty_family(self):
        packed = PackedPairings([], 3)
        assert packed.slots([1, 2]) == b"" and packed.zeros([1, 2]) == []


class TestSlotHits:
    def test_only_slot_aligned_matches(self):
        # width 4, pattern 00 00 00 80: a match at byte 2 straddles slots 0
        # and 1, the one at byte 8 fills slot 2
        pattern = b"\0\0\0\x80"
        data = b"\x07\x07\0\0" + b"\0\x80\x05\x05" + pattern + b"\0\0\0\0"
        assert data.find(pattern) == 2
        assert _slot_hits(data, pattern, 4) == [2]

    def test_seeded_bytes_against_the_slicing_oracle(self):
        rng = random.Random(68)
        for _ in range(300):
            width = rng.randrange(1, 6)
            pattern = bytes(rng.choice(b"\0\x80") for _ in range(width))
            data = bytes(
                rng.choice(b"\0\0\x80\x01") for _ in range(width * rng.randrange(0, 30))
            )
            assert _slot_hits(data, pattern, width) == [
                s for s in range(len(data) // width)
                if data[s * width : (s + 1) * width] == pattern
            ]
