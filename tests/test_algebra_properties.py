"""Properties of the product kernel on `AlgElement` numerators, checked against the
`Poly` reference."""

import math
from fractions import Fraction

import pytest

from conftest import Poly, from_roots, modulus_of, reduced, rep_of
from zerocycles.algebra import EtaleAlgebra, _convolve

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

FIXED = [
    EtaleAlgebra(Poly((Fraction(-2, 3), 1))),
    EtaleAlgebra(Poly((Fraction(-1, 2), 0, 1))),
    EtaleAlgebra(Poly((Fraction(-1, 3), Fraction(5, 4), 0, 1))),
    EtaleAlgebra(from_roots([0, Fraction(1, 2), -3])),
]

fractions_st = st.fractions(max_denominator=50).filter(lambda q: abs(q.numerator) < 10**6)


@st.composite
def element_triples(draw):
    alg = draw(st.sampled_from(FIXED))
    polys = [
        Poly(draw(st.lists(fractions_st, max_size=alg.degree + 2))) for _ in range(3)
    ]
    return tuple(alg.element(p) for p in polys)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(element_triples())
def test_product_kernel_property(triple):
    # products by one `_convolve` and one `_remainder` over the product of the
    # denominators, read back in lowest terms, are the Poly products mod f
    a, b, c = triple
    alg, f = a.algebra, modulus_of(a.algebra)
    ab = reduced(alg, _convolve(a.num, b.num), a.den * b.den)
    abc = reduced(alg, _convolve(ab.num, c.num), ab.den * c.den)
    assert rep_of(ab) == (rep_of(a) * rep_of(b)) % f
    assert rep_of(abc) == (rep_of(a) * rep_of(b) * rep_of(c)) % f
    for x in (a, ab, abc):
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
