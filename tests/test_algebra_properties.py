"""Ring-axiom properties of `AlgElement`, checked against the `Poly` reference."""

import math
from fractions import Fraction

import pytest

from conftest import Poly, from_roots, modulus_of, rep_of
from zerocycles.algebra import EtaleAlgebra

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
@hypothesis.given(element_triples(), fractions_st)
def test_ring_axioms_property(triple, q):
    a, b, c = triple
    alg = a.algebra
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a - a == alg.zero
    assert a * alg.one == a
    assert q * (a + b) == q * a + q * b
    assert rep_of(a * b) == (rep_of(a) * rep_of(b)) % modulus_of(alg)
    for x in (a * b, a + c, q * a):
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
