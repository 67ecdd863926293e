import random
from fractions import Fraction

import pytest

from conftest import Poly, combined, element_json, from_roots, modulus_of, poly_xgcd, primitive, reduced, rep_of
from zerocycles.algebra import (
    EtaleAlgebra,
    _convolve,
    _gcd,
    _quotient,
    _radical,
)


def P(*coeffs):
    return Poly(coeffs)


def kernel_gcd(a, b):
    """The integer kernel's gcd of two oracle polynomials, read back as a monic Poly."""
    return Poly(_gcd(primitive(a), primitive(b))).monic()


def kernel_divides(g, f):
    return _quotient(primitive(f), primitive(g)) is not None


def kernel_squarefree(f):
    """The modulus check of `EtaleAlgebra`: f / gcd(f, f') keeps f's degree."""
    if f.is_zero:
        raise ValueError("squarefreeness is undefined for the zero polynomial")
    return len(_radical(primitive(f))) == len(primitive(f))


def random_poly(rng, max_degree=4, zero_ok=True):
    degree = rng.randint(-1 if zero_ok else 0, max_degree)
    if degree < 0:
        return Poly.zero()
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, 5)))
    return Poly(coeffs)


class TestPoly:
    """Self-checks of the `Poly` oracle."""

    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).is_zero and P().degree == -1

    def test_divmod_exact(self):
        rng = random.Random(1)
        for _ in range(200):
            a = random_poly(rng)
            b = random_poly(rng, zero_ok=False)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_schoolbook_product_reference(self):
        # (t^2 - 2)(t + 3) = t^3 + 3t^2 - 2t - 6
        assert P(-2, 0, 1) * P(3, 1) == P(-6, -2, 3, 1)

    def test_evaluation(self):
        f = P(1, -2, 1)  # (t-1)^2
        assert f(Fraction(1)) == 0
        assert f(Fraction(3)) == 4

    def test_serialization_roundtrip(self):
        f = P(Fraction(1, 2), -3, 0, 1)
        assert Poly(f.to_strings()) == f
        assert f.to_strings() == ["1/2", "-3", "0", "1"]


class TestGcd:
    """The primitive pseudo-remainder gcd over Z, read back over Q."""

    def test_shared_root(self):
        assert kernel_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)
        assert _gcd((-1, 0, 1), (-1, 1)) == [-1, 1]

    def test_gcd_with_zero_is_monic(self):
        f = P(2, 4)
        assert kernel_gcd(f, Poly.zero()) == P(Fraction(1, 2), 1)
        assert kernel_gcd(Poly.zero(), Poly.zero()).is_zero

    def test_planted_common_factor(self):
        # gcd(g*h, g*k) = monic(g) for coprime h, k; also divisibility both ways
        rng = random.Random(2)
        for _ in range(100):
            g = random_poly(rng, 3, zero_ok=False)
            h = from_roots([rng.randint(0, 3)])
            k = from_roots([rng.randint(4, 7)])
            got = kernel_gcd(g * h, g * k)
            assert got == g.monic()
            assert kernel_divides(got, g * h) and kernel_divides(got, g * k)

    def test_xgcd_bezout(self):
        rng = random.Random(3)
        for _ in range(100):
            a, b = random_poly(rng), random_poly(rng)
            g, u, v = poly_xgcd(a, b)
            assert u * a + v * b == g
            assert g == kernel_gcd(a, b)


class TestSquarefree:
    def test_examples(self):
        assert kernel_squarefree(P(-1, 0, 1))  # x^2 - 1
        assert not kernel_squarefree(P(1, -2, 1))  # (x-1)^2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            kernel_squarefree(Poly.zero())
        with pytest.raises(ValueError):
            EtaleAlgebra(Poly.zero())

    def test_product_of_distinct_irreducibles(self):
        # distinct linear factors and x^2 - p for primes p are pairwise coprime
        rng = random.Random(4)
        for _ in range(100):
            roots = rng.sample(range(-6, 7), rng.randint(1, 3))
            f = from_roots(roots)
            if rng.random() < 0.5:
                f = f * P(-rng.choice([2, 3, 5]), 0, 1)
            assert kernel_squarefree(f)
            assert Poly(_radical(primitive(f * f))).monic() == f.monic()


@pytest.fixture
def quad():
    return EtaleAlgebra(P(-2, 0, 1))  # Q[t]/(t^2 - 2)


@pytest.fixture
def cubic():
    return EtaleAlgebra(P(-1, -1, 0, 1))  # Q[t]/(t^3 - t - 1)


class TestEtaleAlgebra:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            EtaleAlgebra(P(1, -2, 1))  # not squarefree
        with pytest.raises(ValueError):
            EtaleAlgebra(P(-2, 0, 2))  # not monic
        with pytest.raises(ValueError):
            EtaleAlgebra(P(5))  # degree 0

    def test_defining_relation(self, quad):
        # the product kernel: t * t reduces to 2 over Q[t]/(t^2 - 2)
        assert reduced(quad, _convolve([0, 1], [0, 1]), 1) == quad.element(2)

    def test_identity(self, cubic):
        # the product kernel on a and the numerators of 1
        rng = random.Random(5)
        one = cubic.element(1)
        for _ in range(50):
            a = cubic.element(random_poly(rng, 2))
            assert reduced(cubic, _convolve(a.num, one.num), a.den) == a

    def test_mul_against_long_division_oracle(self, cubic):
        # the kernel's convolution and reduction against schoolbook multiply then
        # explicit long division, as a separate path
        rng = random.Random(6)
        for _ in range(300):
            a, b = cubic.element(random_poly(rng, 2)), cubic.element(random_poly(rng, 2))
            got = rep_of(reduced(cubic, _convolve(a.num, b.num), a.den * b.den))
            raw = list((rep_of(a) * rep_of(b)).coeffs)
            # divide by t^3 - t - 1 by hand: t^3 -> t + 1
            while len(raw) > 3:
                top = raw.pop()
                raw[-2] += top  # t^{k-2} coefficient: t^3 = t + 1 shifted
                raw[-3] += top
            assert Poly(raw) == got

    def test_inverse(self, quad, cubic):
        inv, den = quad._inverse([0, 1])
        assert reduced(quad, inv, den) == quad.element(P(0, Fraction(1, 2)))
        assert quad._inverse([1, 0]) == ([1, 0], 1)
        rng = random.Random(7)
        for _ in range(100):
            a = cubic.element(random_poly(rng, 2))
            if a.is_zero:
                continue
            inv, den = cubic._inverse(a.num)  # t^3 - t - 1 is irreducible
            assert Poly(a.num) * Poly(inv) % modulus_of(cubic) == P(den)

    def test_zero_has_the_modulus_as_factor(self, quad):
        assert quad._inverse([0, 0]) is None
        assert quad._factor([0, 0]) == quad.modulus

    def test_zero_divisor_carries_proper_factor(self):
        split = EtaleAlgebra(P(-1, 0, 1))  # t^2 - 1
        bad = split.element(P(-1, 1))
        assert split._inverse(bad.num) is None
        factor = split._factor(bad.num)
        assert factor == (-1, 1)
        assert factor == primitive(Poly(factor))
        assert 2 <= len(factor) <= split.degree
        assert Poly(factor).divides(modulus_of(split))

    def test_random_zero_divisors_split_soundly(self):
        rng = random.Random(8)
        for _ in range(100):
            roots = rng.sample(range(-8, 9), 3)
            algebra = EtaleAlgebra(from_roots(roots))
            witness = algebra.element(from_roots([roots[0]]))
            assert algebra._inverse(witness.num) is None
            factor = algebra._factor(witness.num)
            assert factor == primitive(Poly(factor)) and 2 <= len(factor) <= 3
            assert Poly(factor).divides(modulus_of(algebra))
            sub_a, sub_b, _ = algebra.split(factor)
            assert modulus_of(sub_a) * modulus_of(sub_b) == modulus_of(algebra)

    def test_bools_are_not_rationals(self, quad):
        # bool is an int subclass, but the kernel reads no bool as 0 or 1
        with pytest.raises(TypeError, match="True"):
            EtaleAlgebra((0, True))
        with pytest.raises(TypeError, match="True"):
            quad.element((True, False))
        with pytest.raises(TypeError, match="False"):
            quad.element(False)
        assert quad.element(1) != True  # noqa: E712

    def test_element_serialization(self, cubic):
        a = cubic.element(P(Fraction(1, 3), 2))
        obj = element_json(a)
        assert Poly(obj["modulus"]) == P(-1, -1, 0, 1)
        assert cubic.element(Poly(obj["rep"])) == a

    def test_reduce_and_crt_roundtrip(self):
        rng = random.Random(10)
        for _ in range(100):
            roots = rng.sample(range(-8, 9), 3)
            algebra = EtaleAlgebra(from_roots(roots))
            a = algebra.element(random_poly(rng, 2))
            g = from_roots(roots[:1])
            sub_a, sub_b, combine = algebra.split(primitive(g))
            parts = ([reduced(sub, list(a.num), a.den)] for sub in (sub_a, sub_b))
            assert combined(combine, algebra, *parts) == [a]
