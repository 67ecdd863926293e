"""Properties of the kernels that section points run on: the synthetic division
behind the unit test and inverse of a numerator of degree <= 1, the integer
text of a rational, and the discriminant test that lets a cubic skip the gcd
of its squarefree part.  Each is checked against a reference it does not call."""

from fractions import Fraction

import pytest

from conftest import Poly, from_roots, is_squarefree, modulus_of, primitive, reduced, squarefree_part
from zerocycles.algebra import EtaleAlgebra, _eliminate, _gcd, _radical, _texts, fraction_to_string

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def squarefree_moduli(draw):
    """A monic squarefree modulus of degree 1-3, often with non-integral coefficients
    (scale != 1); about half are reducible with a rational root r, also returned."""
    degree = draw(st.integers(1, 3))
    root = draw(st.one_of(st.none(), small_fractions))
    if root is None:
        modulus = Poly(draw(st.lists(small_fractions, min_size=degree, max_size=degree)) + [1])
    else:
        rest = Poly(draw(st.lists(small_fractions, min_size=degree - 1, max_size=degree - 1)) + [1])
        modulus = from_roots([root]) * rest
    hypothesis.assume(is_squarefree(modulus))
    return EtaleAlgebra(modulus.coeffs), root


def bareiss_inverse(algebra, num):
    """The inverse of num / 1 by the Bareiss solve of the multiplication matrix, at any
    degree, as (inv, den), or None for a non-unit: the route degree >= 2 numerators take."""
    scale, tail, n = algebra.scale, algebra.tail, algebra.degree
    cols = [list(num)]
    for _ in range(n - 1):
        col = cols[-1]
        cols.append([scale * x - col[-1] * c for x, c in zip([0] + col[:-1], tail)])
    pivots, rows = _eliminate([[c[i] for c in cols] + [int(i == 0)] for i in range(n)])
    if pivots != list(range(n)):
        return None
    sign = 1 if rows[0][0] > 0 else -1  # rows[0][0] is the determinant
    return [sign * row[n] * scale**j for j, row in enumerate(rows)], abs(rows[0][0])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(squarefree_moduli(), st.integers(-40, 40), st.integers(-40, 40), st.booleans())
def test_linear_unit_test_and_inverse_match_gcd_and_bareiss(drawn, a, b, on_root):
    algebra, root = drawn
    if on_root and root is not None:  # b*t + a vanishes at the rational root: a zero divisor
        a, b = -root.numerator * (b or 1), root.denominator * (b or 1)
    num = [a, b][: algebra.degree] + [0] * (algebra.degree - 2)
    hypothesis.assume(any(num))
    factor = algebra._factor(num)
    assert factor == tuple(_gcd(num, algebra.modulus))
    got, want = algebra._inverse(num), bareiss_inverse(algebra, num)
    assert (got is None) == (want is None) == (len(factor) > 1)
    if got is not None:
        assert got[1] > 0
        assert reduced(algebra, got[0], got[1]) == reduced(algebra, *want)
        assert Poly(num) * Poly(got[0]) % modulus_of(algebra) == Poly((got[1],))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6),
                  st.integers(-(2**70), 2**70).filter(bool))
def test_integer_text_matches_fraction_to_string(values, den):
    assert _texts(values, den) == [fraction_to_string(Fraction(v, den)) for v in values]


@st.composite
def cubics(draw):
    """An integer cubic, lowest degree first: random, or with a repeated root."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-30, 30), min_size=4, max_size=4))
        hypothesis.assume(coeffs[3])
        return coeffs
    r, s = draw(small_fractions), draw(small_fractions)
    lead = draw(st.integers(1, 5))
    return list(primitive(from_roots([r, r, s]) * Poly([lead])))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(cubics())
def test_cubic_radical_matches_squarefree_part(cubic):
    assert tuple(_radical(cubic)) == primitive(squarefree_part(Poly(cubic)))
