import random
import re
from fractions import Fraction

import pytest

from zerocycles.chow import (
    ALPHA,
    BETA,
    GAMMA,
    CurveDegrees,
    LinesIntersect,
    NotInStandardPosition,
    STANDARD_LINES,
    TriClass,
    collinearity_report,
    degree_wrt_first,
    diagonal_locus_degree,
    diagonal_triple,
    matrix_rank,
    pencil_condition_solve,
    pencil_rank,
    segre_s2,
    standardize_skew_lines,
)
from zerocycles import chow as chow_module
from zerocycles.chow import _solve

#: The n x n identity matrices, n < 6, as the right-hand side that makes `_solve` an inverse.
IDENTITY = {n: [[int(i == j) for j in range(n)] for i in range(n)] for n in range(6)}


class TestTriClass:
    def test_products(self):
        assert ALPHA * BETA == TriClass({frozenset({"x", "y"}): 1})
        assert (ALPHA * ALPHA).is_zero

    def test_coefficients_and_scalars_are_ints(self):
        for value in (1.7, True, Fraction(1), "1", None):
            with pytest.raises(ValueError, match=re.escape(repr(value))):
                TriClass({frozenset(): value})
        assert TriClass({frozenset(): 2}) == 2 and 2 * ALPHA == ALPHA + ALPHA
        assert TriClass.one() != True  # noqa: E712
        for scalar_op in (lambda: ALPHA * True, lambda: ALPHA + True, lambda: 1.0 * ALPHA):
            with pytest.raises(TypeError):
                scalar_op()

    def test_ring_axioms_randomized(self):
        rng = random.Random(20)

        def random_class():
            subsets = [frozenset(s) for s in ({}, {"x"}, {"y"}, {"z"}, {"x", "y"}, {"y", "z"})]
            return TriClass({s: rng.randint(-4, 4) for s in rng.sample(subsets, 3)})

        for _ in range(300):
            a, b, c = random_class(), random_class(), random_class()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


class TestSegreDegrees:
    def test_s2_is_sum_of_pairwise_products(self):
        assert segre_s2() == ALPHA * BETA + ALPHA * GAMMA + BETA * GAMMA

    def test_zero_summands_give_zero(self):
        zero = TriClass.zero()
        assert segre_s2(zero, zero, zero).is_zero

    def test_degree_216(self):
        assert degree_wrt_first(segre_s2(), CurveDegrees(6, 6, 6)) == 216

    def test_square_zero_kills_x_terms(self):
        degs = CurveDegrees(6, 6, 6)
        assert degree_wrt_first(BETA * GAMMA, degs) == 216
        assert degree_wrt_first(ALPHA * BETA, degs) == 0
        assert degree_wrt_first(ALPHA * GAMMA, degs) == 0

    def test_diagonal_locus_72(self):
        assert diagonal_locus_degree(12, CurveDegrees(6, 6, 6)) == 72

    def test_strict_inequality_report(self):
        report = collinearity_report()
        assert report["deg_D2"] == 216
        assert report["deg_D2_prime"] == 72
        assert report["strict_inequality"] is True

    def test_parametric_degrees(self):
        # perturbing the degrees moves both counts by the expected formulas
        degs = CurveDegrees(5, 7, 2)
        assert degree_wrt_first(segre_s2(), degs) == 5 * 7 * 2
        assert diagonal_locus_degree(9, degs) == 45

    def test_homogeneity_required(self):
        with pytest.raises(ValueError):
            degree_wrt_first(ALPHA + ALPHA * BETA)


class TestPencilCondition:
    def test_visible_dependency(self):
        assert pencil_rank((1, 0), (1, 0), (1, 0)) == 2

    def test_diagonal_one_one(self):
        assert pencil_rank((1, 1), (1, 1), (1, 1)) == 2

    def test_off_diagonal(self):
        assert pencil_rank((1, 0), (0, 1), (1, 0)) == 3

    def test_randomized_ranks(self):
        rng = random.Random(21)
        for _ in range(200):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            if (a, b) == (0, 0):
                a = 1
            assert pencil_rank(*diagonal_triple((a, b))) == 2
        done = 0
        while done < 200:
            u = (rng.randint(-9, 9), rng.randint(-9, 9))
            v = (rng.randint(-9, 9), rng.randint(-9, 9))
            w = (rng.randint(-9, 9), rng.randint(-9, 9))
            if any(p == (0, 0) for p in (u, v, w)):
                continue
            # off the diagonal: some pair of parameters independent
            if matrix_rank([list(u), list(v)]) < 2 and matrix_rank([list(u), list(w)]) < 2:
                continue
            assert pencil_rank(u, v, w) == 3
            done += 1

    def test_solver_description(self):
        out = pencil_condition_solve()
        assert out["family"] == "diagonal"
        assert all(sample["rank"] == 2 for sample in out["diagonal_samples"])
        assert out["off_diagonal_example_rank"] == 3

    def test_nonstandard_position_rejected(self):
        skew = [
            ((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0)),
            ((1, 0, 2, 0), (0, 1, 0, 1)),  # not the diagonal line
        ]
        with pytest.raises(NotInStandardPosition):
            pencil_condition_solve(skew)


class TestStandardization:
    def test_standard_triple_fixed(self):
        transform = standardize_skew_lines(STANDARD_LINES)
        assert len(transform) == 4

    def test_random_skew_triples(self):
        rng = random.Random(22)
        done = 0
        while done < 25:
            lines = [
                (
                    tuple(rng.randint(-4, 4) for _ in range(4)),
                    tuple(rng.randint(-4, 4) for _ in range(4)),
                )
                for _ in range(3)
            ]
            try:
                standardize_skew_lines(lines)
            except (LinesIntersect, ValueError):
                continue
            done += 1  # internal assertion already checks the image spans

    def test_intersecting_lines_rejected(self):
        lines = [
            ((0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 0, 1, 0)),  # meets the first line at (0,0,1,0)
            ((1, 0, 1, 0), (0, 1, 0, 1)),
        ]
        with pytest.raises(LinesIntersect):
            standardize_skew_lines(lines)

    def test_standardized_pencil_condition_holds(self):
        rng = random.Random(23)
        done = 0
        while done < 10:
            lines = [
                (
                    tuple(rng.randint(-3, 3) for _ in range(4)),
                    tuple(rng.randint(-3, 3) for _ in range(4)),
                )
                for _ in range(3)
            ]
            try:
                transform = standardize_skew_lines(lines)
            except (LinesIntersect, ValueError):
                continue
            images = []
            for line in lines:
                images.append(
                    tuple(
                        tuple(
                            sum(transform[r][c] * Fraction(p[c]) for c in range(4))
                            for r in range(4)
                        )
                        for p in line
                    )
                )
            out = pencil_condition_solve(images)
            assert out["family"] == "diagonal"
            done += 1

    # The transform is not unique; these pin the one the library chooses.
    PINNED = [
        (
            STANDARD_LINES,
            [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        ),
        (
            [((1, 2, 0, 1), (0, 1, 3, -1)), ((2, 0, 1, 1), (1, -1, 0, 2)),
             ((0, 1, 1, 1), (3, 0, -2, 1))],
            [["3/152", "-25/76", "49/152", "97/152"], ["-39/76", "1/19", "9/76", "31/76"],
             ["-2/19", "8/19", "-1/19", "5/19"], ["-5/19", "1/19", "7/19", "3/19"]],
        ),
        (
            [((1, 0, 0, 1), (0, 1, 1, 0)), ((1, 1, 0, 0), (0, 0, 1, -1)),
             ((2, -1, 3, 0), (1, 4, 0, -2))],
            [["1/10", "-7/10", "7/10", "-1/10"], ["1/10", "1/20", "-1/20", "-1/10"],
             ["1/2", "-1/2", "1/2", "1/2"], ["-1/2", "1/2", "1/2", "1/2"]],
        ),
        (
            [((0, 0, 1, 2), (1, 3, 0, 0)), ((1, 0, -1, 0), (0, 2, 0, 5)),
             ((1, 1, 1, 1), (1, -2, 4, -8))],
            [["121/57", "-121/171", "2/171", "-1/171"], ["50/57", "-50/171", "-2/171", "1/171"],
             ["15/19", "-5/19", "15/19", "2/19"], ["4/19", "5/19", "4/19", "-2/19"]],
        ),
    ]

    @pytest.mark.parametrize("lines, expected", PINNED)
    def test_pinned_transforms(self, lines, expected):
        transform = standardize_skew_lines(lines)
        assert transform == [[Fraction(v) for v in row] for row in expected]

    @pytest.mark.parametrize("lines, expected", PINNED)
    def test_int_lines_eliminate_on_int_rows_only(self, monkeypatch, lines, expected):
        # int lines stay ints through every elimination, and give the same
        # Fraction matrix as the same lines given as Fractions
        rows_seen = []
        original = chow_module._eliminate
        monkeypatch.setattr(chow_module, "_eliminate", lambda rows: rows_seen.extend(rows) or original(rows))
        transform = standardize_skew_lines(lines)
        assert rows_seen and all(type(v) is int for row in rows_seen for v in row)
        assert transform == [[Fraction(v) for v in row] for row in expected]
        assert standardize_skew_lines([[[Fraction(c) for c in p] for p in line] for line in lines]) == transform


def over(d, x):
    """The Fraction matrix x / d of `_solve`'s (d, x)."""
    return [[Fraction(v, d) for v in row] for row in x]


class TestElimination:
    def test_rank_and_inverse_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(24)
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            # small entries and a sparse mix make rank drops common
            m = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * rng.randint(0, 1)
                 for _ in range(cols)]
                for _ in range(rows)
            ]
            reference = sympy.Matrix(rows, cols, [sympy.Rational(v.numerator, v.denominator)
                                                  for row in m for v in row])
            assert matrix_rank(m) == reference.rank()
            if rows != cols:
                continue
            if reference.rank() < rows:
                with pytest.raises(ValueError):
                    _solve(m, IDENTITY[rows])
                continue
            inverse = reference.inv()
            assert over(*_solve(m, IDENTITY[rows])) == [
                [Fraction(int(inverse[i, j].p), int(inverse[i, j].q)) for j in range(cols)]
                for i in range(rows)
            ]
            rhs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)] for _ in range(rows)]
            solution = inverse * sympy.Matrix(rows, 2, [sympy.Rational(v.numerator, v.denominator)
                                                         for row in rhs for v in row])
            assert over(*_solve(m, rhs)) == [
                [Fraction(int(solution[i, j].p), int(solution[i, j].q)) for j in range(2)]
                for i in range(rows)
            ]

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            _solve([[1, 2], [2, 4]], IDENTITY[2])
        with pytest.raises(ValueError):
            _solve([[0, 0, 0], [0, 1, 0], [0, 0, 1]], [[1], [2], [3]])

    def test_empty_and_zero_rank(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[0, 0], [0, 0]]) == 0
