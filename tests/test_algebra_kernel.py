"""Differential tests of the fraction-free `AlgElement` kernel and the integer
polynomial kernel beneath it.

Every operation is checked against the `Poly` reference of `conftest`: the
same computation done on coefficient polynomials over Q followed by an
explicit remainder modulo the modulus, and Euclid's gcd over Q for the
primitive pseudo-remainder gcd over Z.  The moduli are the oracle `Poly`s the
algebras were built from, not read back from them.  The form evaluator on
algebra points is checked the same way, against a monomial-by-monomial
expansion.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    MONOMIALS,
    Poly,
    element_json,
    form_gradient,
    form_value,
    from_roots,
    is_squarefree,
    monomial_value,
    poly_gcd,
    poly_xgcd,
    primitive,
    rep_of,
    squarefree_part,
)
from zerocycles import algebra as algebra_module
from zerocycles.algebra import (
    AlgElement,
    EtaleAlgebra,
    ZeroDivisorFound,
    _gcd,
    _quotient,
    _radical,
    crt_combiner,
)
from zerocycles.geometry import CubicForm, ProjPoint, _packed, _unpack


def random_fraction(rng, height=9):
    return Fraction(rng.randint(-height, height), rng.choice([1, 1, 2, 3, 4, 6, 7]))


def random_poly(rng, max_degree):
    return Poly(random_fraction(rng) for _ in range(rng.randint(0, max_degree + 1)))


def random_algebra(rng, degree, reducible=False):
    """(algebra, modulus) for a monic squarefree modulus; non-integer coefficients are common."""
    while True:
        if reducible:
            roots = set()
            while len(roots) < degree:
                roots.add(random_fraction(rng, 5))
            modulus = from_roots(roots)
        else:
            modulus = Poly([random_fraction(rng) for _ in range(degree)] + [1])
        if is_squarefree(modulus):
            return EtaleAlgebra(modulus), modulus


def algebras(seed, count):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        degree = 1 + i % 3
        out.append(random_algebra(rng, degree, reducible=degree > 1 and i % 2 == 0))
    return rng, out


def assert_normalized(a: AlgElement):
    assert len(a.num) == a.algebra.degree
    assert all(isinstance(x, int) for x in a.num)
    assert a.den > 0
    assert math.gcd(a.den, *a.num) == 1


def test_scale_and_tail_encode_the_modulus():
    rng, algs = algebras(1, 60)
    assert any(alg.scale != 1 for alg, _ in algs)
    for alg, f in algs:
        lowered = Poly([Fraction(c, alg.scale) for c in alg.tail] + [1])
        assert lowered == f
        assert alg.modulus == primitive(f) == alg.tail + (alg.scale,)


def test_integer_polynomial_kernel_matches_poly_oracle():
    # gcd, divisibility, squarefree part and split cofactor over Z, against
    # Euclid over Q, on moduli of degree 1-3 with scale != 1 and on reducible
    # ones; a shares a factor with f whenever f splits
    rng = random.Random(12)
    seen = {"scale != 1": 0, "proper gcd": 0, "divides": 0, "does not divide": 0, "not squarefree": 0}
    for case in range(300):
        degree = 1 + case % 3
        alg, f = random_algebra(rng, degree, reducible=degree > 1 and case % 2 == 0)
        seen["scale != 1"] += alg.scale != 1
        a = random_poly(rng, 3)
        if degree > 1 and case % 2 == 0:  # split: its roots are among the n/d drawn
            roots = {Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3, 4, 6, 7) if not f(Fraction(n, d))}
            a = a * from_roots([rng.choice(sorted(roots))])
        g = poly_gcd(a, f)
        assert _gcd(primitive(a), primitive(f)) == list(primitive(g))
        assert _gcd(primitive(f), primitive(a)) == list(primitive(g))
        if 1 <= g.degree < degree:
            seen["proper gcd"] += 1
            sub_a, sub_b = alg.split(primitive(g))
            assert sub_a.modulus == primitive(g) and sub_b.modulus == primitive(f // g)
        for d in (g, f, random_poly(rng, 2), from_roots([random_fraction(rng, 5)])):
            if d.is_zero:
                continue
            quotient = _quotient(primitive(f), primitive(d))
            assert (quotient is not None) == d.divides(f)
            if quotient is not None:
                seen["divides"] += 1
                assert quotient == list(primitive(f // d))
            else:
                seen["does not divide"] += 1
        square = from_roots([random_fraction(rng, 5)])
        p = f * square * square
        seen["not squarefree"] += not is_squarefree(p)
        assert _radical(primitive(p)) == list(primitive(squarefree_part(p)))
    assert min(seen.values()) >= 60, seen


def test_element_reduces_like_poly_remainder():
    rng, algs = algebras(2, 90)
    for alg, f in algs:
        for _ in range(10):
            p = random_poly(rng, 2 * alg.degree + 1)
            a = alg.element(p)
            assert_normalized(a)
            assert rep_of(a) == p % f


def test_ring_operations_match_poly_reference():
    rng, algs = algebras(3, 90)
    for alg, f in algs:
        for _ in range(10):
            a = alg.element(random_poly(rng, alg.degree - 1))
            b = alg.element(random_poly(rng, alg.degree - 1))
            ra, rb = rep_of(a), rep_of(b)
            q = random_fraction(rng)
            k = rng.randint(-5, 5)
            cases = [
                (a + b, ra + rb),
                (a - b, ra - rb),
                (-a, -ra),
                (a * b, (ra * rb) % f),
                (a * q, ra * q),
                (q * a, ra * q),
                (a * k, ra * k),
                (a + q, ra + q),
                (q - a, Poly((q,)) - ra),
                (a * a * a, (ra * ra * ra) % f),
            ]
            for got, want in cases:
                assert_normalized(got)
                assert rep_of(got) == want


def test_difference_is_the_sum_with_the_negation():
    """`a - b` is computed in one step; it is the element `a + (-b)` builds,
    field for field, with equal and unequal denominators, and with an int or
    a Fraction on either side (`__rsub__`)."""
    rng, algs = algebras(7, 60)
    for alg, _ in algs:
        for _ in range(10):
            a = alg.element(random_poly(rng, alg.degree - 1))
            b = alg.element(random_poly(rng, alg.degree - 1))
            # numerators shifted by multiples of a.den keep gcd 1, so the denominator stays a.den
            same = AlgElement(alg, [x + rng.randint(-9, 9) * a.den for x in a.num], a.den)
            assert same.den == a.den
            q, k = random_fraction(rng), rng.randint(-5, 5)
            cases = [(a - b, a + (-b)), (a - same, a + (-same)), (b - a, b + (-a)),
                     (a - q, a + (-q)), (q - a, (-a) + q), (a - k, a + (-k)), (k - a, (-a) + k)]
            for got, want in cases:
                assert_normalized(got)
                assert (got.num, got.den) == (want.num, want.den)


def test_inverse_and_zero_divisors_match_poly_gcd():
    rng, algs = algebras(4, 90)
    seen_zero_divisor = False
    for alg, f in algs:
        for _ in range(10):
            if alg.degree > 1 and rng.random() < 0.3:
                # a multiple of a linear factor: zero divisor when f splits
                root = rng.choice([r for r in range(-6, 7)])
                a = alg.element(Poly((-root, 1)) * random_poly(rng, 1))
            else:
                a = alg.element(random_poly(rng, alg.degree - 1))
            if a.is_zero:
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
                continue
            g = poly_gcd(rep_of(a), f)
            assert a.is_unit() == (g.degree == 0)
            if g.degree > 0:
                seen_zero_divisor = True
                assert a.zero_divisor_factor() == primitive(g)
                with pytest.raises(ZeroDivisorFound) as info:
                    a.inverse()
                assert info.value.factor == primitive(g)
                continue
            inv = a.inverse()
            assert_normalized(inv)
            _, u, _ = poly_xgcd(rep_of(a), f)
            assert rep_of(inv) == u % f
            assert ((rep_of(inv) * rep_of(a)) % f) == Poly.one()
            assert rep_of(inv * inv) == (u * u) % f
    assert seen_zero_divisor


@pytest.mark.parametrize("root", [0, 3, Fraction(-3, 2), Fraction(5, 7)], ids=["0", "3", "-3/2", "5/7"])
def test_degree_one_matches_fraction_arithmetic(root):
    # Q[t]/(t - a) is Q with t = a: the one product, unit test and inverse of
    # every degree must agree with Fraction arithmetic on the constant values
    alg = EtaleAlgebra((-root, 1))
    rng = random.Random(11)
    pairs = [(0, 0), (1, 0), (0, 1)] + [(random_fraction(rng), random_fraction(rng)) for _ in range(40)]
    elements = []
    for c0, c1 in pairs:
        a = alg.element((c0, c1))
        assert_normalized(a)
        assert a.constant_value() == c0 + c1 * root
        elements.append(a)
    for a, b in zip(elements, elements[1:] + elements[:1]):
        x, y = a.constant_value(), b.constant_value()
        assert (a * b).constant_value() == x * y
        assert (a + b).constant_value() == x + y
        assert a.is_unit() == (x != 0)
        if x:
            assert a.inverse().constant_value() == 1 / x
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
    assert any(not a.is_unit() for a in elements)


def test_projection_checks_divisibility_once_and_matches_reduce_mod(monkeypatch):
    # the projection onto a component is the remainder of the Poly reference
    g, h = from_roots([Fraction(1)]), from_roots([Fraction(0), Fraction(-2, 3)])
    alg = EtaleAlgebra(g * h)
    sub_a, sub_b = alg.split(primitive(g))
    rng = random.Random(11)
    elements = [alg.element(random_poly(rng, 4)) for _ in range(4)]
    checks = []
    original = algebra_module._quotient
    monkeypatch.setattr(algebra_module, "_quotient", lambda f, d: checks.append(d) or original(f, d))
    for sub, modulus in ((sub_a, g), (sub_b, h)):
        del checks[:]
        project = sub.projection_from(alg)
        assert [project(x) for x in elements] == [sub.element(rep_of(x) % modulus) for x in elements]
        assert len(checks) == 1
    stranger = EtaleAlgebra(from_roots([Fraction(5)]))
    with pytest.raises(ValueError):
        stranger.projection_from(alg)


def test_reduce_mod_and_crt_match_poly_reference():
    # projections onto the split's components and the CRT recombination, on
    # the Poly reference: remainders modulo the oracle factors g and h
    rng = random.Random(5)
    for _ in range(60):
        degree = rng.choice([2, 3])
        roots = rng.sample(sorted({Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3)}), degree)
        g, h = from_roots(roots[:1]), from_roots(roots[1:])
        alg = EtaleAlgebra(g * h)
        sub_a, sub_b = alg.split(primitive(g))
        combine = crt_combiner(alg, sub_a, sub_b)
        a = alg.element(random_poly(rng, 2 * degree))
        ra, rb = (sub.projection_from(alg)(a) for sub in (sub_a, sub_b))
        for got, modulus in ((ra, g), (rb, h)):
            assert_normalized(got)
            assert rep_of(got) == rep_of(a) % modulus
        back = combine(ra, rb)
        assert_normalized(back)
        assert back == a
        x = sub_a.element(random_poly(rng, 0))
        y = sub_b.element(random_poly(rng, degree - 2))
        both = combine(x, y)
        assert rep_of(both) % g == rep_of(x)
        assert rep_of(both) % h == rep_of(y)


def test_equality_hash_zero_and_json_agree_with_poly_view():
    rng, algs = algebras(6, 60)
    for alg, f in algs:
        elems = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(6)]
        elems.append(alg.zero)
        elems.append(alg.element(rep_of(elems[0]) * 1))
        for a in elems:
            assert a.is_zero == rep_of(a).is_zero
            assert element_json(a) == {"modulus": f.to_strings(), "rep": rep_of(a).to_strings()}
            assert alg.element(Poly(element_json(a)["rep"])) == a
            for b in elems:
                assert (a == b) == (rep_of(a) == rep_of(b))
                if a == b:
                    assert hash(a) == hash(b)
            if rep_of(a).degree <= 0:
                assert a == rep_of(a).coeff(0)
                assert a.constant_value() == rep_of(a).coeff(0)


def test_point_key_matches_poly_normalization():
    rng, algs = algebras(7, 60)
    for alg, f in algs:
        coords = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(4)]
        if all(c.is_zero for c in coords):
            continue
        point = ProjPoint(alg, coords)
        reps = [rep_of(c) for c in coords]
        units = [i for i, r in enumerate(reps) if not r.is_zero and poly_gcd(r, f).degree == 0]
        if units:
            _, u, _ = poly_xgcd(reps[units[-1]], f)
            reps = [(u * r) % f for r in reps]
        else:
            # no unit coordinate: the key keeps the raw representatives
            with pytest.raises(ZeroDivisorFound):
                point.normalized()
        assert point.key() == (f.coeffs, tuple(r.coeffs for r in reps))


def split_algebra(rng):
    """(algebra, g, h): a degree-2 or 3 modulus g*h with monic coprime factors
    whose coefficients are often non-integral (scale != 1)."""
    while True:
        dg = rng.choice([1, 1, 2])
        dh = 1 if dg == 2 else rng.choice([1, 2])
        g = Poly([random_fraction(rng) for _ in range(dg)] + [1])
        h = Poly([random_fraction(rng) for _ in range(dh)] + [1])
        if is_squarefree(g * h):
            return EtaleAlgebra(g * h), g, h


def random_form(rng):
    terms = {e: random_fraction(rng) for e in MONOMIALS if rng.random() < 0.6}
    return CubicForm(terms or {MONOMIALS[0]: 1})


def test_unit_matrix_is_singular_iff_the_gcd_is_nontrivial():
    # multiples of a factor of a split modulus are the zero divisors; the
    # inverse of a unit is the Bezout coefficient of the Poly reference
    rng = random.Random(8)
    seen = {"unit": 0, "zero divisor": 0, "scale != 1": 0}
    for _ in range(300):
        alg, g, h = split_algebra(rng)
        f = g * h
        seen["scale != 1"] += alg.scale != 1
        factor = rng.choice([g, h, Poly.one(), Poly.one()])
        a = alg.element(factor * random_poly(rng, alg.degree - 1))
        if a.is_zero:
            continue
        common = poly_gcd(rep_of(a), f)
        assert a.is_unit() == (common.degree == 0)
        if common.degree:
            seen["zero divisor"] += 1
            with pytest.raises(ZeroDivisorFound) as info:
                a.inverse()
            assert info.value.factor == primitive(common)
            continue
        seen["unit"] += 1
        inv = a.inverse()
        assert_normalized(inv)
        assert rep_of(inv) == poly_xgcd(rep_of(a), f)[1] % f
    assert min(seen.values()) >= 60


def test_crt_idempotent_matches_bezout_formula():
    # the old recombination: a + g * ((u * (b - a)) mod h), u = g^-1 mod h
    rng = random.Random(9)
    for _ in range(150):
        alg, g, h = split_algebra(rng)
        sub_a, sub_b = alg.split(primitive(g))
        combine = crt_combiner(alg, sub_a, sub_b)
        project_a, project_b = (sub.projection_from(alg) for sub in (sub_a, sub_b))
        u = poly_xgcd(g, h)[1]
        for _ in range(3):
            a = sub_a.element(random_poly(rng, 3))
            b = sub_b.element(random_poly(rng, 3))
            got = combine(a, b)
            assert_normalized(got)
            assert rep_of(got) == g * ((u * (rep_of(b) - rep_of(a))) % h) + rep_of(a)
            assert project_a(got) == a and project_b(got) == b
        with pytest.raises(ValueError):
            combine(b, a)


def test_form_on_algebra_points_matches_monomial_expansion():
    # value_at and gradient_at reduce once per output; the oracle expands
    # every monomial on the Poly representatives and reduces at the end
    rng, algs = algebras(10, 90)
    for case, (alg, f) in enumerate(algs):
        for _ in range(3):
            surface = random_form(rng)
            coords = [alg.element(random_poly(rng, alg.degree - 1)) for _ in range(4)]
            if case % 4 == 0:  # a rational coordinate is read in the algebra
                coords[case % 3] = random_fraction(rng)
            reps = [rep_of(alg.element(c)) for c in coords]
            value = surface.value_at(coords)
            assert_normalized(value)
            assert rep_of(value) == (Poly.zero() + form_value(surface, reps)) % f
            grad = surface.gradient_at(coords)
            for got, want in zip(grad, form_gradient(surface, reps)):
                assert_normalized(got)
                assert rep_of(got) == (Poly.zero() + want) % f
            euler = sum((d * alg.element(c) for d, c in zip(grad, coords)), alg.zero)
            assert euler == 3 * value


def test_form_on_fractions_is_exact_and_a_fraction():
    # denominators are cleared onto the integer path; the value comes back a
    # Fraction even when it is integral, so t / value never turns into a float
    rng = random.Random(11)
    for case in range(300):
        if case % 2:
            surface = random_form(rng)
        else:
            surface = CubicForm({e: rng.randint(-3, 3) for e in MONOMIALS} | {MONOMIALS[case % 20]: 1})
        if case % 3:
            pt = [random_fraction(rng) for _ in range(4)]
        else:
            pt = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        value = surface.value_at(pt)
        assert type(value) is Fraction
        assert value == sum(c * monomial_value(e, pt) for e, c in surface.terms.items())
        grad = surface.gradient_at(pt)
        assert all(type(d) is Fraction for d in grad)
        assert list(grad) == form_gradient(surface, pt)


class TestKroneckerKernel:
    """On AlgElements, `value_at` and `gradient_at` pack each coordinate's integer
    numerator polynomial into one int at t = 2^bits, run the straight-line
    evaluator on the packed ints and read the unreduced value back as signed
    base-2^bits digits.  `bits` comes from a proven digit bound plus a sign bit;
    these inputs put the digits at the top of that bound, and are checked against
    the monomial-by-monomial `form_value`/`form_gradient` on Poly
    representatives, reduced at the end."""

    MODULI = [
        Poly([Fraction(-5, 3), 1]),  # degree 1, scale 3
        Poly([0, 1]),
        Poly([-2, 0, 1]),  # irreducible
        Poly([Fraction(1, 4), Fraction(-3, 2), 1]),  # reducible (roots 1/2 and 1), scale 4
        Poly([-2, 0, 0, 1]),
        from_roots([0, 1, -1]),  # reducible
        Poly([Fraction(1, 3), Fraction(-1, 2), Fraction(2, 5), 1]),  # scale 30
    ]

    def check(self, surface, alg, f, coords):
        reps = [rep_of(c) for c in coords]
        value = surface.value_at(coords)
        assert_normalized(value)
        assert rep_of(value) == (Poly.zero() + form_value(surface, reps)) % f
        for got, want in zip(surface.gradient_at(coords), form_gradient(surface, reps)):
            assert_normalized(got)
            assert rep_of(got) == (Poly.zero() + want) % f

    def test_digits_at_the_bound(self):
        # every coordinate M * (1 + t + ... + t^(n-1)) and every coefficient of one
        # sign: the middle digits of the value reach sum|c| * N * M^3, N up to
        # n^2, and those of the partials sum|q| * N * M^2, N up to n
        rng = random.Random(71)
        for f in self.MODULI:
            alg = EtaleAlgebra(f)
            for bits in (1, 2, 31, 64, 200):
                top = 2**bits - 1
                for sign in (1, -1):
                    terms = rng.sample(MONOMIALS, rng.randint(1, 20))
                    surface = CubicForm({e: sign * rng.randint(1, 9) for e in terms})
                    coords = [alg.element([s * top] * alg.degree) for s in (1, 1, sign, 1)]
                    self.check(surface, alg, f, coords)
                    self.check(CubicForm({e: 1 for e in MONOMIALS}), alg, f, coords)

    def test_random_wide_numerators(self):
        # numerators of 0 to 200 bits with mixed signs and denominators, forms of
        # 1 to 20 terms, a zero coordinate and single-coefficient coordinates
        rng = random.Random(72)
        for case in range(120):
            f = self.MODULI[case % len(self.MODULI)]
            alg = EtaleAlgebra(f)
            surface = CubicForm(
                {e: Fraction(rng.randint(-10**6, 10**6) or 1, rng.choice([1, 1, 3, 10**9])) for e in
                 rng.sample(MONOMIALS, 1 + case % 20)})
            coords = []
            for i in range(4):
                num = [rng.choice([-1, 1]) * rng.getrandbits(rng.randint(0, 200)) for _ in range(alg.degree)]
                if i == case % 4 and case % 3 == 0:
                    num = [0] * alg.degree
                elif i == (case + 1) % 4 and case % 2:
                    num = [0] * alg.degree
                    num[rng.randrange(alg.degree)] = rng.getrandbits(150) + 1
                coords.append(alg.element([Fraction(x, rng.choice([1, 1, 7, 2**61 - 1])) for x in num]))
            if not any(coords):
                continue
            self.check(surface, alg, f, coords)

    def test_pack_unpack_round_trip_at_the_widest_digits(self):
        # digits of +-(2^(B-1) - 1) are the widest `_unpack` reads back at width B;
        # `_packed` at weight 1 and degree 1 packs them at exactly that width
        rng = random.Random(73)
        for f in self.MODULI:
            alg = EtaleAlgebra(f)
            for width in (2, 3, 17, 64, 201):
                edge = 2 ** (width - 1) - 1
                digits = [[rng.choice([edge, -edge, 0, rng.randint(-edge, edge)]) for _ in range(alg.degree)]
                          for _ in range(4)]
                digits[0][-1] = rng.choice([edge, -edge])
                coords = [alg.element(d) for d in digits]
                algebra, values, den, bits = _packed(coords, 1, 1)
                assert (algebra, den, bits) == (alg, 1, width)
                for d, value in zip(digits, values):
                    assert value == sum(x * 2 ** (width * j) for j, x in enumerate(d))
                    assert _unpack(value, bits, alg.degree) == d
                stacked = sum(x * 2 ** (width * j) for j, x in enumerate(sum(digits, [])))
                assert _unpack(stacked, width, 4 * alg.degree) == sum(digits, [])
